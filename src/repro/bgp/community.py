"""BGP communities attribute (RFC 1997).

A community is a 32-bit value conventionally written ``ASN:value`` where the
two most-significant bytes carry the AS identifier of the network defining
the community (the paper uses exactly this convention in §5 when measuring
community diversity, and in §4.3 when matching black-holing communities).
"""

from __future__ import annotations

import struct
from typing import FrozenSet, Iterable, Iterator, Tuple

from repro.core.intern import default_pool

#: Well-known community used as the conventional black-hole signal
#: (RFC 7999 assigns 65535:666).
BLACKHOLE = (65535, 666)

#: RFC 1997 well-known communities.
NO_EXPORT = (65535, 65281)
NO_ADVERTISE = (65535, 65282)
NO_EXPORT_SUBCONFED = (65535, 65283)


class Community:
    """A single ``asn:value`` community.

    A slotted, frozen, orderable flyweight value object with a cached hash
    and an identity-first equality check.  The members of a canonical
    :class:`CommunitySet` are canonical too (see :mod:`repro.core.intern`).
    """

    __slots__ = ("asn", "value", "_hash")

    def __init__(self, asn: int, value: int) -> None:
        if not 0 <= asn <= 0xFFFF:
            raise ValueError(f"community AS identifier {asn} out of 16-bit range")
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"community value {value} out of 16-bit range")
        object.__setattr__(self, "asn", asn)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Community is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Community is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Community):
            return NotImplemented
        return self.asn == other.asn and self.value == other.value

    def __lt__(self, other: "Community") -> bool:
        if not isinstance(other, Community):
            return NotImplemented
        return (self.asn, self.value) < (other.asn, other.value)

    def __le__(self, other: "Community") -> bool:
        if not isinstance(other, Community):
            return NotImplemented
        return (self.asn, self.value) <= (other.asn, other.value)

    def __gt__(self, other: "Community") -> bool:
        if not isinstance(other, Community):
            return NotImplemented
        return (self.asn, self.value) > (other.asn, other.value)

    def __ge__(self, other: "Community") -> bool:
        if not isinstance(other, Community):
            return NotImplemented
        return (self.asn, self.value) >= (other.asn, other.value)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.asn, self.value))
            object.__setattr__(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        return f"Community(asn={self.asn!r}, value={self.value!r})"

    def __getstate__(self) -> Tuple[int, int]:
        return (self.asn, self.value)

    def __setstate__(self, state: Tuple[int, int]) -> None:
        object.__setattr__(self, "asn", state[0])
        object.__setattr__(self, "value", state[1])
        object.__setattr__(self, "_hash", None)

    @classmethod
    def from_string(cls, text: str) -> "Community":
        asn_text, _, value_text = text.partition(":")
        return cls(int(asn_text), int(value_text))

    @classmethod
    def from_int(cls, raw: int) -> "Community":
        return cls((raw >> 16) & 0xFFFF, raw & 0xFFFF)

    def to_int(self) -> int:
        return (self.asn << 16) | self.value

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


class CommunitySet:
    """An immutable set of communities attached to a route.

    A frozen flyweight like its members: the hash, the sorted view and the
    string form are computed once per canonical object and cached, and
    equality short-circuits on identity (interned sets compare in O(1)).
    A set decoded from the wire by the attribute layer, or restored from a
    pickle, is the process-wide canonical object for its value
    (:mod:`repro.core.intern`); one built by hand is not.
    """

    __slots__ = ("_communities", "_hash", "_sorted", "_str", "_packed")

    def __init__(self, communities: Iterable[Community] = ()) -> None:
        object.__setattr__(self, "_communities", frozenset(communities))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_str", None)
        object.__setattr__(self, "_packed", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CommunitySet is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("CommunitySet is immutable")

    def _sorted_view(self) -> Tuple[Community, ...]:
        view = self._sorted
        if view is None:
            view = tuple(sorted(self._communities))
            object.__setattr__(self, "_sorted", view)
        return view

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "CommunitySet":
        return cls(Community.from_string(t) for t in texts)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "CommunitySet":
        return cls(Community(a, v) for a, v in pairs)

    def __iter__(self) -> Iterator[Community]:
        return iter(self._sorted_view())

    def __len__(self) -> int:
        return len(self._communities)

    def __bool__(self) -> bool:
        return bool(self._communities)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, str):
            item = Community.from_string(item)
        if isinstance(item, tuple):
            item = Community(*item)
        return item in self._communities

    def _packed_view(self) -> Tuple[int, ...]:
        packed = self._packed
        if packed is None:
            packed = tuple(sorted(c.to_int() for c in self._communities))
            object.__setattr__(self, "_packed", packed)
        return packed

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CommunitySet):
            return NotImplemented
        if len(self._communities) != len(other._communities):
            return False
        # Equality runs hot inside intern-pool lookups, where distinct but
        # equal sets are the norm: comparing the cached packed-int views
        # stays in C instead of one Community.__eq__ call per member.
        return self._packed_view() == other._packed_view()

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(self._communities)
            object.__setattr__(self, "_hash", value)
        return value

    def __str__(self) -> str:
        text = self._str
        if text is None:
            text = " ".join(str(c) for c in self)
            object.__setattr__(self, "_str", text)
        return text

    def __repr__(self) -> str:
        return f"CommunitySet({list(self._sorted_view())!r})"

    def __reduce__(self):
        return (_restore_communities, (self._communities,))

    # -- set operations ----------------------------------------------------

    def add(self, community: Community) -> "CommunitySet":
        return CommunitySet(self._communities | {community})

    def union(self, other: "CommunitySet") -> "CommunitySet":
        return CommunitySet(self._communities | other._communities)

    def remove(self, community: Community) -> "CommunitySet":
        return CommunitySet(self._communities - {community})

    def asn_identifiers(self) -> FrozenSet[int]:
        """The distinct AS identifiers (high 16 bits) across the set.

        This is the quantity Figure 5d plots per vantage point.
        """
        return frozenset(c.asn for c in self._communities)

    def matches_any(self, targets: Iterable[Community]) -> bool:
        return any(t in self._communities for t in targets)

    # -- wire codec --------------------------------------------------------

    def encode(self) -> bytes:
        out = bytearray()
        for community in self._sorted_view():
            out += struct.pack("!HH", community.asn, community.value)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "CommunitySet":
        if len(data) % 4:
            raise ValueError("communities attribute length must be a multiple of 4")
        communities = []
        for offset in range(0, len(data), 4):
            asn, value = struct.unpack_from("!HH", data, offset)
            communities.append(Community(asn, value))
        return cls(communities)


def _restore_communities(communities: FrozenSet[Community]) -> CommunitySet:
    """Unpickle through the pool: a restored set is the canonical one."""
    return default_pool().communities(CommunitySet(communities))
