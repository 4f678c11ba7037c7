"""AS paths with AS_SEQUENCE and AS_SET segments (RFC 4271 §4.3, §5.1.2).

The paper's Table 1 notes that the BGPStream elem AS-path field carries all
the information of the underlying BGP message, including AS_SET and
AS_SEQUENCE segments, plus convenience functions for iterating segments and
converting paths to the ``bgpdump`` string format.  This module provides
those structures and codecs (4-byte ASNs, as modern MRT data uses).
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import Iterator, List, Sequence, Tuple

from repro.core.intern import default_pool


class SegmentType(IntEnum):
    """AS path segment types from RFC 4271 (plus RFC 5065 confed types)."""

    AS_SET = 1
    AS_SEQUENCE = 2
    AS_CONFED_SEQUENCE = 3
    AS_CONFED_SET = 4


class ASPathSegment:
    """One AS path segment: a type plus an ordered tuple of ASNs.

    A flyweight value object: ``__slots__`` (no per-instance dict), frozen
    (mutation raises — canonical instances are shared process-wide by the
    intern layer), equality takes the identity fast path first and the hash
    is computed once and cached.  The segments of a canonical
    :class:`ASPath` are canonical too (see :mod:`repro.core.intern`).
    """

    __slots__ = ("segment_type", "asns", "_hash")

    def __init__(self, segment_type: SegmentType, asns: Tuple[int, ...]) -> None:
        for asn in asns:
            if not 0 <= asn <= 0xFFFFFFFF:
                raise ValueError(f"ASN {asn} out of 32-bit range")
        object.__setattr__(self, "segment_type", segment_type)
        object.__setattr__(self, "asns", asns)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ASPathSegment is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("ASPathSegment is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ASPathSegment):
            return NotImplemented
        return self.segment_type == other.segment_type and self.asns == other.asns

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.segment_type, self.asns))
            object.__setattr__(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        return f"ASPathSegment(segment_type={self.segment_type!r}, asns={self.asns!r})"

    def __getstate__(self) -> Tuple[SegmentType, Tuple[int, ...]]:
        return (self.segment_type, self.asns)

    def __setstate__(self, state: Tuple[SegmentType, Tuple[int, ...]]) -> None:
        object.__setattr__(self, "segment_type", state[0])
        object.__setattr__(self, "asns", state[1])
        object.__setattr__(self, "_hash", None)

    def __str__(self) -> str:
        if self.segment_type in (SegmentType.AS_SET, SegmentType.AS_CONFED_SET):
            return "{" + ",".join(str(a) for a in self.asns) + "}"
        return " ".join(str(a) for a in self.asns)

    def __len__(self) -> int:
        return len(self.asns)


class ASPath:
    """A full AS path: an ordered sequence of segments.

    Like :class:`ASPathSegment` this is a slotted, frozen flyweight: hash
    and the bgpdump string form are computed once per canonical object, and
    equality between interned paths short-circuits on identity.  A path
    decoded from the wire by the attribute layer, or restored from a pickle,
    is the process-wide canonical object for its value
    (:mod:`repro.core.intern`); one built by hand is not.
    """

    __slots__ = ("segments", "_hash", "_str")

    def __init__(self, segments: Tuple[ASPathSegment, ...] = ()) -> None:
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_str", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ASPath is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("ASPath is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ASPath):
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(self.segments)
            object.__setattr__(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        return f"ASPath(segments={self.segments!r})"

    def __reduce__(self):
        return (_restore_path, (self.segments,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_asns(cls, asns: Sequence[int]) -> "ASPath":
        """Build a path made of a single AS_SEQUENCE segment."""
        if not asns:
            return cls(())
        return cls((ASPathSegment(SegmentType.AS_SEQUENCE, tuple(asns)),))

    @classmethod
    def from_string(cls, text: str) -> "ASPath":
        """Parse the bgpdump-style string form, e.g. ``"701 3356 {64512,64513}"``."""
        text = text.strip()
        if not text:
            return cls(())
        segments: List[ASPathSegment] = []
        sequence: List[int] = []
        for token in text.split():
            if token.startswith("{"):
                if sequence:
                    segments.append(
                        ASPathSegment(SegmentType.AS_SEQUENCE, tuple(sequence))
                    )
                    sequence = []
                inner = token.strip("{}")
                members = tuple(int(a) for a in inner.split(",") if a)
                segments.append(ASPathSegment(SegmentType.AS_SET, members))
            else:
                sequence.append(int(token))
        if sequence:
            segments.append(ASPathSegment(SegmentType.AS_SEQUENCE, tuple(sequence)))
        return cls(tuple(segments))

    # -- views -------------------------------------------------------------

    def __str__(self) -> str:
        text = self._str
        if text is None:
            text = " ".join(str(segment) for segment in self.segments)
            object.__setattr__(self, "_str", text)
        return text

    def __len__(self) -> int:
        """Path length as used in BGP best-path selection.

        Each ASN in a SEQUENCE counts 1; an entire AS_SET counts 1
        (RFC 4271 §9.1.2.2).
        """
        total = 0
        for segment in self.segments:
            if segment.segment_type == SegmentType.AS_SEQUENCE:
                total += len(segment.asns)
            elif segment.segment_type == SegmentType.AS_SET:
                total += 1
        return total

    def __bool__(self) -> bool:
        return bool(self.segments)

    def iter_asns(self) -> Iterator[int]:
        """Yield every ASN appearing anywhere in the path, in order."""
        for segment in self.segments:
            yield from segment.asns

    @property
    def hops(self) -> List[int]:
        """The ASNs of the path with consecutive duplicates (prepending) removed.

        This mirrors the ``groupby`` idiom of the paper's Listing 1.
        """
        result: List[int] = []
        for asn in self.iter_asns():
            if not result or result[-1] != asn:
                result.append(asn)
        return result

    @property
    def origin_asn(self) -> int | None:
        """The last ASN of the path (the origin), or None for an empty path."""
        last_segment = self.segments[-1] if self.segments else None
        if last_segment is None or not last_segment.asns:
            return None
        return last_segment.asns[-1]

    @property
    def peer_asn(self) -> int | None:
        """The first ASN of the path (the neighbour of the vantage point)."""
        first_segment = self.segments[0] if self.segments else None
        if first_segment is None or not first_segment.asns:
            return None
        return first_segment.asns[0]

    def contains_asn(self, asn: int) -> bool:
        return any(a == asn for a in self.iter_asns())

    def adjacencies(self) -> List[Tuple[int, int]]:
        """AS-level links implied by the SEQUENCE portions of the path."""
        hops = self.hops
        return [(hops[i], hops[i + 1]) for i in range(len(hops) - 1)]

    def prepend(self, asn: int, count: int = 1) -> "ASPath":
        """Return a new path with ``asn`` prepended ``count`` times."""
        if count < 1:
            raise ValueError("count must be >= 1")
        prefix = ASPathSegment(SegmentType.AS_SEQUENCE, (asn,) * count)
        if self.segments and self.segments[0].segment_type == SegmentType.AS_SEQUENCE:
            merged = ASPathSegment(
                SegmentType.AS_SEQUENCE, (asn,) * count + self.segments[0].asns
            )
            return ASPath((merged,) + self.segments[1:])
        return ASPath((prefix,) + self.segments)

    # -- wire codec (always 4-byte ASNs, per RFC 6793 collectors) ----------

    def encode(self) -> bytes:
        out = bytearray()
        for segment in self.segments:
            out.append(int(segment.segment_type))
            out.append(len(segment.asns))
            for asn in segment.asns:
                out += struct.pack("!I", asn)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "ASPath":
        segments: List[ASPathSegment] = []
        offset = 0
        while offset < len(data):
            if offset + 2 > len(data):
                raise ValueError("truncated AS path segment header")
            seg_type = SegmentType(data[offset])
            count = data[offset + 1]
            offset += 2
            end = offset + 4 * count
            if end > len(data):
                raise ValueError("truncated AS path segment body")
            asns = struct.unpack(f"!{count}I", data[offset:end]) if count else ()
            segments.append(ASPathSegment(seg_type, tuple(asns)))
            offset = end
        return cls(tuple(segments))


def _restore_path(segments: Tuple[ASPathSegment, ...]) -> ASPath:
    """Unpickle through the pool: a restored path is the canonical one."""
    return default_pool().path(ASPath(segments))


def path_inflation(observed: "ASPath", shortest_hops: int) -> int:
    """Extra hops of an observed path relative to a shortest-path hop count.

    ``shortest_hops`` counts nodes on the shortest path (as
    ``networkx.shortest_path`` returns); the observed path contributes
    ``len(hops)``.  Negative inflation is clamped to zero (it can only arise
    from AS_SET compression artefacts).
    """
    return max(0, len(observed.hops) - shortest_hops)
