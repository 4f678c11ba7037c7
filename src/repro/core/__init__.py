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

import importlib

#: The package's public names and their submodules, imported on first
#: access (PEP 562): the decode layers (``repro.bgp``, ``repro.mrt``,
#: ``repro.bmp``) import ``repro.core.intern`` / ``metrics`` and must not
#: drag in ``stream``, which imports them back.
_SUBMODULES = {
    "InternPool": "intern",
    "default_pool": "intern",
    "BGPElem": "elem",
    "ElemType": "elem",
    "BGPStreamRecord": "record",
    "DumpPosition": "record",
    "RecordStatus": "record",
    "FilterSet": "filters",
    "DataInterface": "interfaces",
    "DumpFileSpec": "interfaces",
    "BrokerDataInterface": "interfaces",
    "SingleFileDataInterface": "interfaces",
    "CSVFileDataInterface": "interfaces",
    "SQLiteDataInterface": "interfaces",
    "DumpFileReader": "sorter",
    "SortedRecordMerger": "sorter",
    "BGPStream": "stream",
}


def __getattr__(name: str):
    module = _SUBMODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = list(_SUBMODULES)
