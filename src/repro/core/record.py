"""BGPStream records: annotated, de-serialised MRT records (§3.3.3).

A :class:`BGPStreamRecord` wraps one MRT record together with the
annotations libBGPStream adds: the originating project and collector, the
dump type and nominal dump time, a validity status (the not-valid status is
how corrupted reads and unopenable files are signalled to the user), and a
position marker that flags the records beginning and ending a dump file so
users can collate the records of a single RIB dump.

``elems()`` decomposes the record into :class:`~repro.core.elem.BGPElem`
objects; RIB records need the dump's PEER_INDEX_TABLE to resolve peer
indexes, which the dump-file reader passes in as context.  The stream that
delivers a record attaches its elem filter, and ``filtered_elems()`` and
the ``get_next_elem()`` cursor yield only the elems that pass it (§3.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from repro.bgp.attributes import LazyPathAttributes
from repro.core import metrics
from repro.core.elem import BGPElem, ElemType
from repro.mrt.records import (
    BGP4MPMessage,
    BGP4MPStateChange,
    MRTRecord,
    PeerIndexTable,
    RIBPrefixRecord,
)

if TYPE_CHECKING:
    from repro.core.filters import FilterSet


# Decode-tier series, bound once; counted only while metrics are enabled.
_lazy_elems = metrics.decode_elems.labels("lazy")
_elems_materialised = metrics.decode_elems.labels("materialised")
_eager_elems = metrics.decode_elems.labels("eager")

_set_elem_next_hop = BGPElem.__dict__["next_hop"].__set__
_set_elem_as_path = BGPElem.__dict__["as_path"].__set__
_set_elem_communities = BGPElem.__dict__["communities"].__set__


class LazyBGPElem(BGPElem):
    """A :class:`BGPElem` whose attribute-derived fields fill on first read.

    The cheap gate fields the filter layer probes first (type, time, peer,
    prefix) are set eagerly; ``next_hop`` / ``as_path`` / ``communities``
    resolve from the (lazy) attribute set only when actually read — so an
    elem the filters reject never parses (or interns) its path attributes.
    Pickling produces a plain :class:`BGPElem`.
    """

    __slots__ = ("_attrs", "_version", "_ready")

    def __init__(
        self,
        elem_type,
        time,
        peer_address,
        peer_asn,
        prefix,
        attrs,
        version,
        project,
        collector,
    ) -> None:
        self.elem_type = elem_type
        self.time = time
        self.peer_address = peer_address
        self.peer_asn = peer_asn
        self.prefix = prefix
        _set_elem_next_hop(self, None)
        _set_elem_as_path(self, None)
        _set_elem_communities(self, None)
        self.old_state = None
        self.new_state = None
        self.project = project
        self.collector = collector
        self._attrs = attrs
        self._version = version
        self._ready = False

    def _fill(self) -> None:
        attrs = self._attrs
        _set_elem_next_hop(self, attrs.effective_next_hop(self._version))
        _set_elem_as_path(self, attrs.as_path)
        _set_elem_communities(self, attrs.communities)
        # Flag readiness last: a racing reader that saw False just repeats
        # the (idempotent) fill instead of observing half-set fields.
        self._ready = True
        if metrics.enabled:
            _elems_materialised.inc()

    def __reduce__(self):
        return (
            BGPElem,
            (
                self.elem_type,
                self.time,
                self.peer_address,
                self.peer_asn,
                self.prefix,
                self.next_hop,
                self.as_path,
                self.communities,
                self.old_state,
                self.new_state,
                self.project,
                self.collector,
            ),
        )


def _lazy_elem_field(name: str) -> property:
    slot = BGPElem.__dict__[name]
    slot_get = slot.__get__
    slot_set = slot.__set__

    def fget(self):
        if not self._ready:
            self._fill()
        return slot_get(self)

    def fset(self, value):
        slot_set(self, value)

    return property(fget, fset)


for _name in ("next_hop", "as_path", "communities"):
    setattr(LazyBGPElem, _name, _lazy_elem_field(_name))
del _name


class RecordStatus(Enum):
    """Validity of a record (the paper's ``status`` field)."""

    VALID = "valid"
    CORRUPTED_RECORD = "corrupted-record"
    CORRUPTED_SOURCE = "corrupted-source"  # the dump file could not be opened
    EMPTY_SOURCE = "empty-source"

    def __str__(self) -> str:
        return self.value


class DumpPosition(Enum):
    """Where in its dump file a record sits."""

    START = "start"
    MIDDLE = "middle"
    END = "end"

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class BGPStreamRecord:
    """One annotated record of the stream.

    Slotted like every other hot object of the pipeline.
    """

    project: str
    collector: str
    dump_type: str  # "ribs" or "updates"
    dump_time: int  # nominal start time of the originating dump
    status: RecordStatus = RecordStatus.VALID
    dump_position: DumpPosition = DumpPosition.MIDDLE
    mrt: Optional[MRTRecord] = None
    #: The PEER_INDEX_TABLE of the originating RIB dump (context for elems).
    peer_table: Optional[PeerIndexTable] = None
    #: The monitored router the record came from, for records delivered over
    #: a live BMP feed (empty for archive replay; see :mod:`repro.bmp`).
    router: str = ""
    _elem_iter: Optional[Iterator[BGPElem]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The elem filter of the stream that delivered this record, or ``None``
    #: when that stream has no elem-level terms (set on every delivery).
    _elem_filter: Optional["FilterSet"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> Tuple:
        # The elem cursor (a generator) and the delivering stream's filter
        # do not travel across process boundaries; everything else does.
        return (
            self.project,
            self.collector,
            self.dump_type,
            self.dump_time,
            self.status,
            self.dump_position,
            self.mrt,
            self.peer_table,
            self.router,
        )

    def __setstate__(self, state: Tuple) -> None:
        (
            self.project,
            self.collector,
            self.dump_type,
            self.dump_time,
            self.status,
            self.dump_position,
            self.mrt,
            self.peer_table,
            self.router,
        ) = state
        self._elem_iter = None
        self._elem_filter = None

    @property
    def time(self) -> int:
        """The record timestamp (falls back to the dump time when invalid)."""
        if self.mrt is not None and self.status == RecordStatus.VALID:
            return self.mrt.timestamp
        return self.dump_time

    @property
    def is_valid(self) -> bool:
        return self.status == RecordStatus.VALID and self.mrt is not None and self.mrt.is_valid

    # -- elem extraction --------------------------------------------------------

    def elems(self) -> Iterator[BGPElem]:
        """Decompose this record into its elems (empty for invalid records)."""
        if not self.is_valid:
            return
        body = self.mrt.body
        if isinstance(body, PeerIndexTable):
            return  # carries no routing information itself
        if isinstance(body, RIBPrefixRecord):
            yield from self._rib_elems(body)
        elif isinstance(body, BGP4MPMessage):
            yield from self._message_elems(body)
        elif isinstance(body, BGP4MPStateChange):
            yield self._state_elem(body)

    def filtered_elems(self) -> Iterator[BGPElem]:
        """The elems that pass the delivering stream's elem filters.

        All of :meth:`elems` when the stream has no elem-level terms (or
        the record was not delivered by a stream).
        """
        elem_filter = self._elem_filter
        if elem_filter is None:
            return self.elems()
        return filter(elem_filter.match_elem, self.elems())

    def get_next_elem(self) -> Optional[BGPElem]:
        """C-API-style cursor over :meth:`filtered_elems` (Listing 1)."""
        if self._elem_iter is None:
            self._elem_iter = self.filtered_elems()
        try:
            return next(self._elem_iter)
        except StopIteration:
            self._elem_iter = None
            return None

    def _rib_elems(self, body: RIBPrefixRecord) -> Iterator[BGPElem]:
        timestamp = self.mrt.timestamp
        prefix = body.prefix
        version = prefix.version
        counting = metrics.enabled
        for entry in body.entries:
            peer_address = ""
            peer_asn = 0
            if self.peer_table is not None and entry.peer_index < len(self.peer_table.peers):
                peer = self.peer_table.peers[entry.peer_index]
                peer_address = peer.address
                peer_asn = peer.asn
            attrs = entry.attributes
            if type(attrs) is LazyPathAttributes and attrs._deferred:
                # Attribute values still deferred: hand out a lazy elem so
                # the filter gate can reject it without parsing them.
                if counting:
                    _lazy_elems.inc()
                yield LazyBGPElem(
                    ElemType.RIB,
                    timestamp,
                    peer_address,
                    peer_asn,
                    prefix,
                    attrs,
                    version,
                    self.project,
                    self.collector,
                )
                continue
            if counting:
                _eager_elems.inc()
            yield BGPElem(
                elem_type=ElemType.RIB,
                time=timestamp,
                peer_address=peer_address,
                peer_asn=peer_asn,
                prefix=prefix,
                next_hop=attrs.effective_next_hop(version),
                as_path=attrs.as_path,
                communities=attrs.communities,
                project=self.project,
                collector=self.collector,
            )

    def _message_elems(self, body: BGP4MPMessage) -> Iterator[BGPElem]:
        timestamp = self.mrt.timestamp
        update = body.update
        attrs = update.attributes
        peer_address = body.peer_address
        lazy = type(attrs) is LazyPathAttributes and bool(attrs._deferred)
        for prefix in update.all_withdrawn:
            yield BGPElem(
                elem_type=ElemType.WITHDRAWAL,
                time=timestamp,
                peer_address=peer_address,
                peer_asn=body.peer_asn,
                prefix=prefix,
                project=self.project,
                collector=self.collector,
            )
        counting = metrics.enabled
        for prefix in update.all_announced:
            if lazy:
                if counting:
                    _lazy_elems.inc()
                yield LazyBGPElem(
                    ElemType.ANNOUNCEMENT,
                    timestamp,
                    peer_address,
                    body.peer_asn,
                    prefix,
                    attrs,
                    prefix.version,
                    self.project,
                    self.collector,
                )
                continue
            if counting:
                _eager_elems.inc()
            yield BGPElem(
                elem_type=ElemType.ANNOUNCEMENT,
                time=timestamp,
                peer_address=peer_address,
                peer_asn=body.peer_asn,
                prefix=prefix,
                next_hop=attrs.effective_next_hop(prefix.version),
                as_path=attrs.as_path,
                communities=attrs.communities,
                project=self.project,
                collector=self.collector,
            )

    def _state_elem(self, body: BGP4MPStateChange) -> BGPElem:
        return BGPElem(
            elem_type=ElemType.STATE,
            time=self.mrt.timestamp,
            peer_address=body.peer_address,
            peer_asn=body.peer_asn,
            old_state=body.old_state,
            new_state=body.new_state,
            project=self.project,
            collector=self.collector,
        )

    # -- rendering ----------------------------------------------------------------

    def to_ascii(self) -> str:
        """One pipe-separated record header line (BGPReader ``-r`` style)."""
        return "|".join(
            [
                self.dump_type,
                str(self.dump_time),
                self.project,
                self.collector,
                str(self.status),
                str(self.dump_position),
                str(self.time),
            ]
        )
