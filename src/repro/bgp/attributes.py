"""BGP path attributes (RFC 4271 §4.3, RFC 1997, RFC 4760).

The attributes carried in UPDATE messages and in TABLE_DUMP_V2 RIB entries.
We implement the attributes BGPStream exposes in its elem (Table 1 of the
paper) plus the ones needed to round-trip realistic data: ORIGIN, AS_PATH,
NEXT_HOP, MULTI_EXIT_DISC, LOCAL_PREF, ATOMIC_AGGREGATE, AGGREGATOR,
COMMUNITIES, and MP_REACH/MP_UNREACH_NLRI for IPv6.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional, Tuple

from repro.bgp.aspath import ASPath, SegmentType
from repro.bgp.community import CommunitySet
from repro.bgp.prefix import Prefix
from repro.bgp.wirecache import address_str
from repro.core import metrics
from repro.core.intern import default_pool

# Decode-tier series, bound once; counted only while metrics are enabled.
_blocks_eager = metrics.decode_attr_blocks.labels("eager")
_blocks_deferred = metrics.decode_attr_blocks.labels("deferred")
_fields_materialised = metrics.decode_attr_fields.labels()


class Origin(IntEnum):
    """ORIGIN attribute values."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2

    def __str__(self) -> str:
        return self.name


class AttrType(IntEnum):
    """Path attribute type codes."""

    ORIGIN = 1
    AS_PATH = 2
    NEXT_HOP = 3
    MULTI_EXIT_DISC = 4
    LOCAL_PREF = 5
    ATOMIC_AGGREGATE = 6
    AGGREGATOR = 7
    COMMUNITIES = 8
    MP_REACH_NLRI = 14
    MP_UNREACH_NLRI = 15


#: Attribute flag bits.
FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_PARTIAL = 0x20
FLAG_EXTENDED_LENGTH = 0x10

#: AFI/SAFI values used by MP_REACH/MP_UNREACH.
AFI_IPV4 = 1
AFI_IPV6 = 2
SAFI_UNICAST = 1


@dataclass(slots=True)
class PathAttributes:
    """The decoded attribute set of a route.

    ``mp_reach_nlri`` / ``mp_unreach_nlri`` hold IPv6 prefixes announced or
    withdrawn through the multi-protocol attributes; ``mp_next_hop`` is the
    IPv6 next hop carried inside MP_REACH.

    Slotted: one attribute set is shared by every elem a record fans out
    into.
    """

    origin: Origin = Origin.IGP
    as_path: ASPath = field(default_factory=ASPath)
    next_hop: Optional[str] = None
    med: Optional[int] = None
    local_pref: Optional[int] = None
    atomic_aggregate: bool = False
    aggregator: Optional[Tuple[int, str]] = None
    communities: CommunitySet = field(default_factory=CommunitySet)
    mp_next_hop: Optional[str] = None
    mp_reach_nlri: List[Prefix] = field(default_factory=list)
    mp_unreach_nlri: List[Prefix] = field(default_factory=list)

    # -- value semantics ---------------------------------------------------

    # Defined explicitly (the dataclass machinery skips fields it finds in
    # the class body) because the generated __eq__ requires both operands to
    # be of the *same class*, which would make a lazy attribute set compare
    # unequal to its eager equivalent.  Reading through ``self.<field>``
    # lets the lazy subclass materialise deferred attributes on demand.
    def __eq__(self, other: object):
        if other is self:
            return True
        if not isinstance(other, PathAttributes):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.next_hop == other.next_hop
            and self.med == other.med
            and self.local_pref == other.local_pref
            and self.atomic_aggregate == other.atomic_aggregate
            and self.aggregator == other.aggregator
            and self.as_path == other.as_path
            and self.communities == other.communities
            and self.mp_next_hop == other.mp_next_hop
            and self.mp_reach_nlri == other.mp_reach_nlri
            and self.mp_unreach_nlri == other.mp_unreach_nlri
        )

    # -- helpers -----------------------------------------------------------

    def effective_next_hop(self, version: int = 4) -> Optional[str]:
        """The next hop relevant for ``version`` (MP_REACH wins for IPv6)."""
        if version == 6:
            return self.mp_next_hop or self.next_hop
        return self.next_hop

    # -- wire codec --------------------------------------------------------

    def encode(self) -> bytes:
        """Encode to the path-attributes byte string of an UPDATE message."""
        out = bytearray()
        out += _encode_attr(AttrType.ORIGIN, bytes([int(self.origin)]))
        out += _encode_attr(AttrType.AS_PATH, self.as_path.encode())
        if self.next_hop is not None:
            out += _encode_attr(
                AttrType.NEXT_HOP, ipaddress.IPv4Address(self.next_hop).packed
            )
        if self.med is not None:
            out += _encode_attr(
                AttrType.MULTI_EXIT_DISC, struct.pack("!I", self.med), optional=True
            )
        if self.local_pref is not None:
            out += _encode_attr(AttrType.LOCAL_PREF, struct.pack("!I", self.local_pref))
        if self.atomic_aggregate:
            out += _encode_attr(AttrType.ATOMIC_AGGREGATE, b"")
        if self.aggregator is not None:
            asn, address = self.aggregator
            out += _encode_attr(
                AttrType.AGGREGATOR,
                struct.pack("!I", asn) + ipaddress.IPv4Address(address).packed,
                optional=True,
            )
        if self.communities:
            out += _encode_attr(
                AttrType.COMMUNITIES, self.communities.encode(), optional=True
            )
        if self.mp_reach_nlri or self.mp_next_hop is not None:
            # RFC 6396 §4.3.4: TABLE_DUMP_V2 RIB entries carry the IPv6 next
            # hop in an MP_REACH_NLRI attribute with no NLRI of its own.
            out += _encode_attr(
                AttrType.MP_REACH_NLRI,
                _encode_mp_reach(self.mp_next_hop or "::", self.mp_reach_nlri),
                optional=True,
            )
        if self.mp_unreach_nlri:
            out += _encode_attr(
                AttrType.MP_UNREACH_NLRI,
                _encode_mp_unreach(self.mp_unreach_nlri),
                optional=True,
            )
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "PathAttributes":
        """Decode a path-attributes byte string.

        Unknown attribute types are skipped (they are preserved on the wire
        by real routers but BGPStream does not expose them either).
        """
        if metrics.enabled:
            _blocks_eager.inc()
        attrs = cls()
        offset = 0
        while offset < len(data):
            if offset + 2 > len(data):
                raise ValueError("truncated attribute header")
            flags = data[offset]
            attr_type = data[offset + 1]
            offset += 2
            if flags & FLAG_EXTENDED_LENGTH:
                if offset + 2 > len(data):
                    raise ValueError("truncated extended attribute length")
                (length,) = struct.unpack_from("!H", data, offset)
                offset += 2
            else:
                if offset + 1 > len(data):
                    raise ValueError("truncated attribute length")
                length = data[offset]
                offset += 1
            end = offset + length
            if end > len(data):
                raise ValueError("truncated attribute body")
            body = data[offset:end]
            offset = end
            attrs._apply(attr_type, body)
        return attrs

    def _apply(self, attr_type: int, body: bytes) -> None:
        if attr_type == AttrType.ORIGIN:
            self.origin = Origin(body[0])
        elif attr_type == AttrType.AS_PATH:
            self.as_path = ASPath.decode(body)
        elif attr_type == AttrType.NEXT_HOP:
            raw = bytes(body)
            if len(raw) != 4:
                ipaddress.IPv4Address(raw)  # raises AddressValueError
            self.next_hop = address_str(raw)
        elif attr_type == AttrType.MULTI_EXIT_DISC:
            (self.med,) = struct.unpack("!I", body)
        elif attr_type == AttrType.LOCAL_PREF:
            (self.local_pref,) = struct.unpack("!I", body)
        elif attr_type == AttrType.ATOMIC_AGGREGATE:
            self.atomic_aggregate = True
        elif attr_type == AttrType.AGGREGATOR:
            asn, raw_addr = struct.unpack("!I4s", body)
            self.aggregator = (asn, address_str(raw_addr))
        elif attr_type == AttrType.COMMUNITIES:
            self.communities = CommunitySet.decode(body)
        elif attr_type == AttrType.MP_REACH_NLRI:
            next_hop, prefixes = _decode_mp_reach(body)
            self.mp_next_hop = next_hop
            self.mp_reach_nlri = prefixes
        elif attr_type == AttrType.MP_UNREACH_NLRI:
            self.mp_unreach_nlri = _decode_mp_unreach(body)
        # other attribute types are ignored


def _encode_attr(attr_type: AttrType, body: bytes, optional: bool = False) -> bytes:
    flags = FLAG_TRANSITIVE
    if optional:
        flags |= FLAG_OPTIONAL
    if attr_type in (AttrType.MP_REACH_NLRI, AttrType.MP_UNREACH_NLRI):
        flags = FLAG_OPTIONAL  # non-transitive per RFC 4760
    if len(body) > 255:
        flags |= FLAG_EXTENDED_LENGTH
        header = struct.pack("!BBH", flags, int(attr_type), len(body))
    else:
        header = struct.pack("!BBB", flags, int(attr_type), len(body))
    return header + body


def _encode_mp_reach(next_hop: str, prefixes: List[Prefix]) -> bytes:
    nh = ipaddress.IPv6Address(next_hop).packed
    out = bytearray(struct.pack("!HBB", AFI_IPV6, SAFI_UNICAST, len(nh)))
    out += nh
    out.append(0)  # reserved / SNPA count
    for prefix in prefixes:
        out += prefix.encode()
    return bytes(out)


def _decode_mp_reach(body: bytes) -> Tuple[str, List[Prefix]]:
    afi, safi, nh_len = struct.unpack_from("!HBB", body, 0)
    offset = 4
    next_hop = None
    if nh_len >= 16:
        # A link-local second next hop may be present; use the first 16 bytes.
        nh_raw = bytes(body[offset : offset + 16])
        if len(nh_raw) != 16:
            ipaddress.IPv6Address(nh_raw)  # truncated: raises AddressValueError
        next_hop = address_str(nh_raw)
    offset += nh_len
    offset += 1  # reserved
    version = 6 if afi == AFI_IPV6 else 4
    prefixes: List[Prefix] = []
    while offset < len(body):
        prefix, offset = Prefix.decode(body, offset, version=version)
        prefixes.append(prefix)
    return next_hop or "::", prefixes


def _encode_mp_unreach(prefixes: List[Prefix]) -> bytes:
    out = bytearray(struct.pack("!HB", AFI_IPV6, SAFI_UNICAST))
    for prefix in prefixes:
        out += prefix.encode()
    return bytes(out)


def _decode_mp_unreach(body: bytes) -> List[Prefix]:
    afi, _safi = struct.unpack_from("!HB", body, 0)
    version = 6 if afi == AFI_IPV6 else 4
    offset = 3
    prefixes: List[Prefix] = []
    while offset < len(body):
        prefix, offset = Prefix.decode(body, offset, version=version)
        prefixes.append(prefix)
    return prefixes


# ---------------------------------------------------------------------------
# Lazy decode tier (PR 6)
# ---------------------------------------------------------------------------

#: Attribute types whose parse is deferred until first read.  MP_REACH /
#: MP_UNREACH stay eager: their NLRI are gate fields (the filter's prefix
#: trie reads them), and ATOMIC_AGGREGATE is a single flag.
_T_ORIGIN = int(AttrType.ORIGIN)
_T_AS_PATH = int(AttrType.AS_PATH)
_T_NEXT_HOP = int(AttrType.NEXT_HOP)
_T_MED = int(AttrType.MULTI_EXIT_DISC)
_T_LOCAL_PREF = int(AttrType.LOCAL_PREF)
_T_AGGREGATOR = int(AttrType.AGGREGATOR)
_T_COMMUNITIES = int(AttrType.COMMUNITIES)

_DEFERRABLE_TYPES = frozenset(
    {_T_ORIGIN, _T_AS_PATH, _T_NEXT_HOP, _T_MED, _T_LOCAL_PREF, _T_AGGREGATOR, _T_COMMUNITIES}
)

_SEGMENT_TYPE_VALUES = frozenset(int(t) for t in SegmentType)

#: Shared empty defaults for the lazy constructor (both classes are frozen
#: flyweights, so one instance can back every attribute set).
_EMPTY_PATH = ASPath()
_EMPTY_COMMUNITIES = CommunitySet()


def _validate_deferred_attr(attr_type: int, body) -> None:
    """Structurally validate a deferred attribute body without building values.

    A malformed deferred attribute must surface the **same corruption
    signal at decode time** as the eager path, so this raises the exact
    exception class (and message, where the check is cheap) that
    :meth:`PathAttributes._apply` would raise — the expensive value
    construction is all that gets deferred.
    """
    if attr_type == _T_ORIGIN:
        value = body[0]  # IndexError on an empty body, like Origin(body[0])
        if value > 2:
            Origin(value)  # raises the eager enum ValueError
    elif attr_type == _T_AS_PATH:
        size = len(body)
        offset = 0
        while offset < size:
            if offset + 2 > size:
                raise ValueError("truncated AS path segment header")
            if body[offset] not in _SEGMENT_TYPE_VALUES:
                SegmentType(body[offset])  # raises the eager enum ValueError
            offset += 2 + 4 * body[offset + 1]
            if offset > size:
                raise ValueError("truncated AS path segment body")
    elif attr_type == _T_NEXT_HOP:
        if len(body) != 4:
            ipaddress.IPv4Address(bytes(body))  # raises AddressValueError
    elif attr_type == _T_MED or attr_type == _T_LOCAL_PREF:
        if len(body) != 4:
            struct.unpack("!I", bytes(body))  # raises struct.error
    elif attr_type == _T_AGGREGATOR:
        if len(body) != 8:
            struct.unpack("!I4s", bytes(body))  # raises struct.error
    elif attr_type == _T_COMMUNITIES:
        if len(body) % 4:
            raise ValueError("communities attribute length must be a multiple of 4")


class LazyPathAttributes(PathAttributes):
    """A :class:`PathAttributes` that parses deferred attributes on first read.

    The constructor walks the attribute TLV block exactly like
    :meth:`PathAttributes.decode` but only *validates* the deferrable
    attribute bodies (keeping zero-copy slices of the wire buffer); gate
    attributes the filter layer needs cheaply — MP_REACH/MP_UNREACH NLRI
    and ATOMIC_AGGREGATE — are applied eagerly.  Reading a deferred field
    (``attrs.as_path`` …) materialises just that attribute; AS paths and
    community sets are made canonical through the process-wide intern pool
    right there — the one place they are built from wire bytes — so only
    filter survivors pay the flyweight lookup and nothing downstream
    re-probes.

    Semantics are observably identical to the eager class: corruption
    raises at construction time with the same exception classes, equality
    and ``encode()`` work against eager sets, and pickling materialises
    into a plain :class:`PathAttributes` (deferred slices must not cross
    process boundaries).
    """

    __slots__ = ("_deferred",)

    def __init__(self, data=b"") -> None:
        set_field = _SLOT_SETTERS
        set_field["origin"](self, Origin.IGP)
        set_field["as_path"](self, _EMPTY_PATH)
        set_field["next_hop"](self, None)
        set_field["med"](self, None)
        set_field["local_pref"](self, None)
        set_field["aggregator"](self, None)
        set_field["communities"](self, _EMPTY_COMMUNITIES)
        self.atomic_aggregate = False
        self.mp_next_hop = None
        self.mp_reach_nlri = []
        self.mp_unreach_nlri = []
        deferred = {}
        self._deferred = deferred
        size = len(data)
        offset = 0
        while offset < size:
            if offset + 2 > size:
                raise ValueError("truncated attribute header")
            flags = data[offset]
            attr_type = data[offset + 1]
            offset += 2
            if flags & FLAG_EXTENDED_LENGTH:
                if offset + 2 > size:
                    raise ValueError("truncated extended attribute length")
                (length,) = struct.unpack_from("!H", data, offset)
                offset += 2
            else:
                if offset + 1 > size:
                    raise ValueError("truncated attribute length")
                length = data[offset]
                offset += 1
            end = offset + length
            if end > size:
                raise ValueError("truncated attribute body")
            body = data[offset:end]
            offset = end
            if attr_type in _DEFERRABLE_TYPES:
                _validate_deferred_attr(attr_type, body)
                deferred[attr_type] = body
            else:
                self._apply(attr_type, body)
        if metrics.enabled:
            _blocks_deferred.inc()

    # -- lazy machinery ----------------------------------------------------

    @property
    def deferred_types(self) -> frozenset:
        """The attribute type codes still awaiting materialisation."""
        return frozenset(self._deferred)

    def _materialise(self, attr_type: int) -> None:
        body = self._deferred.get(attr_type)
        if body is None:
            return
        # _apply stores through the shadowing property setters, which write
        # the slot *before* popping the deferred entry — a concurrent reader
        # at worst repeats the (idempotent) parse, never sees a half state.
        self._apply(attr_type, body)
        if attr_type == _T_AS_PATH:
            _set_as_path(self, default_pool().path(_get_as_path(self)))
        elif attr_type == _T_COMMUNITIES:
            _set_communities(self, default_pool().communities(_get_communities(self)))
        if metrics.enabled:
            _fields_materialised.inc()

    def materialise_all(self) -> None:
        """Force-parse every remaining deferred attribute."""
        for attr_type in tuple(self._deferred):
            self._materialise(attr_type)

    # -- pickling ----------------------------------------------------------

    def __reduce__(self):
        # Deferred wire slices (memoryviews into a dump buffer) must not
        # travel; an unpickled lazy set is just eager.
        self.materialise_all()
        return (
            PathAttributes,
            (
                self.origin,
                self.as_path,
                self.next_hop,
                self.med,
                self.local_pref,
                self.atomic_aggregate,
                self.aggregator,
                self.communities,
                self.mp_next_hop,
                self.mp_reach_nlri,
                self.mp_unreach_nlri,
            ),
        )


def _lazy_field(name: str, attr_type: int) -> property:
    """A property shadowing a parent slot, materialising on first read."""
    slot = PathAttributes.__dict__[name]
    slot_get = slot.__get__
    slot_set = slot.__set__

    def fget(self):
        if attr_type in self._deferred:
            self._materialise(attr_type)
        return slot_get(self)

    def fset(self, value):
        slot_set(self, value)
        self._deferred.pop(attr_type, None)

    return property(fget, fset)


_SLOT_SETTERS = {
    name: PathAttributes.__dict__[name].__set__
    for name in ("origin", "as_path", "next_hop", "med", "local_pref", "aggregator", "communities")
}
_get_as_path = PathAttributes.__dict__["as_path"].__get__
_set_as_path = PathAttributes.__dict__["as_path"].__set__
_get_communities = PathAttributes.__dict__["communities"].__get__
_set_communities = PathAttributes.__dict__["communities"].__set__

for _name, _attr_type in (
    ("origin", _T_ORIGIN),
    ("as_path", _T_AS_PATH),
    ("next_hop", _T_NEXT_HOP),
    ("med", _T_MED),
    ("local_pref", _T_LOCAL_PREF),
    ("aggregator", _T_AGGREGATOR),
    ("communities", _T_COMMUNITIES),
):
    setattr(LazyPathAttributes, _name, _lazy_field(_name, _attr_type))
del _name, _attr_type


def decode_attributes(data) -> PathAttributes:
    """Decode an attribute TLV block into a :class:`LazyPathAttributes`.

    Structural corruption raises here, with the exception classes of
    :meth:`PathAttributes.decode`.
    """
    return LazyPathAttributes(data)
