"""libBGPStream: the core of the framework (§3.3).

Provides transparent access to concurrent dumps from multiple collectors of
different projects (both RIB and Updates), live data processing, data
extraction / annotation / error checking, and a time-sorted stream of BGP
measurement data behind a small API:

* :class:`~repro.core.stream.BGPStream` — configure filters, then iterate
  records (each carrying the originating project/collector/dump metadata).
* :class:`~repro.core.record.BGPStreamRecord` /
  :class:`~repro.core.elem.BGPElem` — the two-level data model of Table 1.
* :class:`~repro.core.filters.FilterSet` — record- and elem-level filters.
* data interfaces (:mod:`repro.core.interfaces`) — Broker, single-file, CSV
  and SQLite back-ends.
* :mod:`repro.core.reader` — the ``bgpreader`` command-line tool.
"""

from repro.core.intern import InternPool, default_pool, parse_interning, set_parse_interning
from repro.core.elem import BGPElem, ElemType
from repro.core.record import BGPStreamRecord, DumpPosition, RecordStatus
from repro.core.filters import FilterSet
from repro.core.interfaces import (
    BrokerDataInterface,
    CSVFileDataInterface,
    DataInterface,
    DumpFileSpec,
    SingleFileDataInterface,
    SQLiteDataInterface,
)
from repro.core.sorter import DumpFileReader, SortedRecordMerger
from repro.core.stream import BGPStream

__all__ = [
    "InternPool",
    "default_pool",
    "parse_interning",
    "set_parse_interning",
    "BGPElem",
    "ElemType",
    "BGPStreamRecord",
    "DumpPosition",
    "RecordStatus",
    "FilterSet",
    "DataInterface",
    "DumpFileSpec",
    "BrokerDataInterface",
    "SingleFileDataInterface",
    "CSVFileDataInterface",
    "SQLiteDataInterface",
    "DumpFileReader",
    "SortedRecordMerger",
    "BGPStream",
]
