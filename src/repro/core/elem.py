"""BGPStream elems: the per-VP, per-prefix unit of information (Table 1).

An MRT record may group elements of the same type related to different VPs
or prefixes (routes to one prefix from many VPs in a RIB record, or an
announcement of many prefixes sharing one path in an Updates record).
libBGPStream decomposes each record into *elems*, each carrying exactly the
fields of Table 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.bgp.aspath import ASPath
from repro.bgp.community import CommunitySet
from repro.bgp.fsm import SessionState
from repro.bgp.prefix import Prefix


class ElemType(Enum):
    """The four elem types of Table 1."""

    RIB = "R"
    ANNOUNCEMENT = "A"
    WITHDRAWAL = "W"
    STATE = "S"

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class BGPElem:
    """One elem.  Fields marked conditional in Table 1 may be ``None``.

    ``fields`` in the paper's PyBGPStream exposes a dict view; here
    :meth:`field_dict` provides the same convenience.

    Slotted: elems are the highest-volume objects of the whole framework
    (one RIB record fans out into thousands), and dropping the per-instance
    ``__dict__`` makes both construction and attribute access measurably
    cheaper.  The prefix, path, communities and address fields of an elem a
    stream produced hold shared flyweight values — one object per distinct
    value, made canonical where the decode layer built it (see
    :mod:`repro.core.intern`, :mod:`repro.bgp.wirecache`).
    """

    elem_type: ElemType
    time: int
    peer_address: str
    peer_asn: int
    #: conditionally populated (R/A/W)
    prefix: Optional[Prefix] = None
    #: conditionally populated (R/A)
    next_hop: Optional[str] = None
    as_path: Optional[ASPath] = None
    communities: Optional[CommunitySet] = None
    #: conditionally populated (S)
    old_state: Optional[SessionState] = None
    new_state: Optional[SessionState] = None
    #: annotations copied from the originating record
    project: str = ""
    collector: str = ""

    # Defined explicitly (the dataclass machinery skips methods it finds in
    # the class body): the generated __eq__ requires both operands to be of
    # the same class, which would make the lazy elems of the zero-copy tier
    # compare unequal to eager ones despite identical field values.
    def __eq__(self, other: object):
        if other is self:
            return True
        if not isinstance(other, BGPElem):
            return NotImplemented
        return (
            self.elem_type == other.elem_type
            and self.time == other.time
            and self.peer_address == other.peer_address
            and self.peer_asn == other.peer_asn
            and self.prefix == other.prefix
            and self.next_hop == other.next_hop
            and self.as_path == other.as_path
            and self.communities == other.communities
            and self.old_state == other.old_state
            and self.new_state == other.new_state
            and self.project == other.project
            and self.collector == other.collector
        )

    # -- convenience views ---------------------------------------------------

    @property
    def origin_asn(self) -> Optional[int]:
        if self.as_path is None:
            return None
        return self.as_path.origin_asn

    def field_dict(self) -> dict:
        """A dict view mirroring PyBGPStream's ``elem.fields``."""
        fields = {}
        if self.prefix is not None:
            fields["prefix"] = str(self.prefix)
        if self.next_hop is not None:
            fields["next-hop"] = self.next_hop
        if self.as_path is not None:
            fields["as-path"] = str(self.as_path)
        if self.communities is not None:
            fields["communities"] = {str(c) for c in self.communities}
        if self.old_state is not None:
            fields["old-state"] = str(self.old_state)
        if self.new_state is not None:
            fields["new-state"] = str(self.new_state)
        return fields

    def to_ascii(self) -> str:
        """Render one pipe-separated elem line (BGPReader's output format).

        Format: ``type|time|project|collector|peer-asn|peer-address|prefix|
        next-hop|as-path|communities|old-state|new-state``.
        """
        parts = [
            str(self.elem_type),
            str(self.time),
            self.project,
            self.collector,
            str(self.peer_asn),
            self.peer_address,
            str(self.prefix) if self.prefix is not None else "",
            self.next_hop or "",
            str(self.as_path) if self.as_path is not None else "",
            str(self.communities) if self.communities else "",
            str(self.old_state) if self.old_state is not None else "",
            str(self.new_state) if self.new_state is not None else "",
        ]
        return "|".join(parts)

    def to_bgpdump_ascii(self) -> str:
        """Render in a ``bgpdump -m``-compatible flavour.

        BGPReader can be used as a drop-in replacement for ``bgpdump``; this
        produces the familiar ``BGP4MP|time|A|peer|asn|prefix|path|...`` or
        ``TABLE_DUMP2|time|B|...`` lines.
        """
        if self.elem_type == ElemType.RIB:
            return "|".join(
                [
                    "TABLE_DUMP2",
                    str(self.time),
                    "B",
                    self.peer_address,
                    str(self.peer_asn),
                    str(self.prefix) if self.prefix else "",
                    str(self.as_path) if self.as_path else "",
                    "IGP",
                    self.next_hop or "",
                    "0",
                    "0",
                    str(self.communities) if self.communities else "",
                    "NAG",
                    "",
                ]
            )
        if self.elem_type == ElemType.ANNOUNCEMENT:
            return "|".join(
                [
                    "BGP4MP",
                    str(self.time),
                    "A",
                    self.peer_address,
                    str(self.peer_asn),
                    str(self.prefix) if self.prefix else "",
                    str(self.as_path) if self.as_path else "",
                    "IGP",
                    self.next_hop or "",
                    "0",
                    "0",
                    str(self.communities) if self.communities else "",
                    "NAG",
                    "",
                ]
            )
        if self.elem_type == ElemType.WITHDRAWAL:
            return "|".join(
                [
                    "BGP4MP",
                    str(self.time),
                    "W",
                    self.peer_address,
                    str(self.peer_asn),
                    str(self.prefix) if self.prefix else "",
                ]
            )
        return "|".join(
            [
                "BGP4MP",
                str(self.time),
                "STATE",
                self.peer_address,
                str(self.peer_asn),
                str(int(self.old_state)) if self.old_state is not None else "",
                str(int(self.new_state)) if self.new_state is not None else "",
            ]
        )
