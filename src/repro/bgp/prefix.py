"""IP prefixes (IPv4 and IPv6) with the wire encoding used by BGP NLRI.

A BGP NLRI entry is a one-byte prefix length followed by the minimum number
of bytes needed to hold the masked network address (RFC 4271 §4.3).  The
same truncated encoding is used inside MRT TABLE_DUMP_V2 RIB entries, so the
codec lives here and is shared by the message and MRT layers.
"""

from __future__ import annotations

import ipaddress
from typing import Tuple, Union

_IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]
_IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]

# Decode-level flyweight cache: exact wire bytes -> Prefix.  Update churn
# concentrates on a small fraction of the table, so NLRI entries repeat
# heavily and the ipaddress construction (the hottest part of decode) can be
# skipped for every repeat.  Prefix is frozen, so sharing one object across
# streams and threads is safe.  Bounded by wholesale clearing: the real
# working set sits far below the cap.  See repro.bgp.wirecache.
_DECODE_CACHE_MAX = 1 << 16
_decode_cache: dict = {}


class Prefix:
    """An IP prefix such as ``192.0.2.0/24`` or ``2001:db8::/32``.

    The single hottest value type of the pipeline: every elem, trie node,
    routing-table key and filter carries one.  It is a slotted, frozen
    flyweight — no per-instance dict, identity-first equality, and the hash
    and string form (``ipaddress`` recomputes both on every call) are
    computed once and cached.  :meth:`decode` hands out one canonical object
    per distinct NLRI encoding, and unpickling restores through it, so a
    prefix read from a segment file is the object the wire decoder returns.
    """

    __slots__ = ("network", "_hash", "_str")

    def __init__(self, network: _IPNetwork) -> None:
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_str", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Prefix is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.network == other.network

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(self.network)
            object.__setattr__(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        return f"Prefix(network={self.network!r})"

    def __reduce__(self):
        return (_restore_prefix, (self.version, self.encode()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` or an IPv6 equivalent.

        Host bits set beyond the mask are tolerated (``strict=False``) --
        real BGP data occasionally carries such prefixes and collectors
        propagate them unchanged.
        """
        return cls(ipaddress.ip_network(text, strict=False))

    @classmethod
    def from_address(cls, address: str, length: int) -> "Prefix":
        return cls(ipaddress.ip_network(f"{address}/{length}", strict=False))

    # -- basic properties --------------------------------------------------

    @property
    def version(self) -> int:
        """IP version, 4 or 6."""
        return self.network.version

    @property
    def length(self) -> int:
        """The prefix length in bits."""
        return self.network.prefixlen

    @property
    def address(self) -> _IPAddress:
        """The (masked) network address."""
        return self.network.network_address

    @property
    def max_length(self) -> int:
        return 32 if self.version == 4 else 128

    def __str__(self) -> str:
        text = self._str
        if text is None:
            text = str(self.network)
            object.__setattr__(self, "_str", text)
        return text

    def __lt__(self, other: "Prefix") -> bool:
        return (self.version, int(self.address), self.length) < (
            other.version,
            int(other.address),
            other.length,
        )

    # -- relationships -----------------------------------------------------

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if self.version != other.version:
            return False
        return other.network.subnet_of(self.network)

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        if self.version != other.version:
            return False
        return self.network.overlaps(other.network)

    def is_host(self) -> bool:
        """True for /32 (IPv4) or /128 (IPv6) prefixes."""
        return self.length == self.max_length

    # -- wire codec --------------------------------------------------------

    def encode(self) -> bytes:
        """Encode as BGP NLRI: length byte + truncated network address."""
        nbytes = (self.length + 7) // 8
        addr_bytes = self.address.packed[:nbytes]
        return bytes([self.length]) + addr_bytes

    @classmethod
    def decode(cls, data: bytes, offset: int, version: int = 4) -> Tuple["Prefix", int]:
        """Decode one NLRI entry starting at ``offset``.

        Returns the prefix and the offset just past it.  Raises ``ValueError``
        on truncated input or an impossible prefix length.
        """
        if offset >= len(data):
            raise ValueError("truncated NLRI: missing length byte")
        length = data[offset]
        max_len = 32 if version == 4 else 128
        if length > max_len:
            raise ValueError(f"invalid prefix length {length} for IPv{version}")
        nbytes = (length + 7) // 8
        end = offset + 1 + nbytes
        if end > len(data):
            raise ValueError("truncated NLRI: missing address bytes")
        # bytes() also accepts memoryview slices from the zero-copy readers.
        raw = bytes(data[offset + 1 : end])
        key = (version, length, raw)
        prefix = _decode_cache.get(key)
        if prefix is None:
            addr_len = 4 if version == 4 else 16
            padded = raw + b"\x00" * (addr_len - nbytes)
            # strict=False masks host bits set beyond the prefix length --
            # real BGP data occasionally carries such prefixes.
            network = ipaddress.ip_network((padded, length), strict=False)
            prefix = cls(network)
            if len(_decode_cache) >= _DECODE_CACHE_MAX:
                _decode_cache.clear()
            _decode_cache[key] = prefix
        return prefix, end


def _restore_prefix(version: int, nlri: bytes) -> Prefix:
    """Unpickle through the decode cache: NLRI bytes in, canonical object out."""
    return Prefix.decode(nlri, 0, version)[0]
