"""Bounded flyweight caches for hot wire-decoded values.

The ``ipaddress`` constructors dominate the per-record decode floor: every
BGP4MP record parses two peer addresses and every NLRI entry builds a
network object, yet real BGP feeds draw both from tiny working sets (a
collector has a few hundred peers; update churn concentrates on a small
fraction of the table).  These caches memoise the wire-bytes → value step so
repeats skip ``ipaddress`` entirely, and they are what makes those values
canonical: every address string in a decoded record or elem (peer, local,
next hop, MP next hop, aggregator) comes from :func:`address_str`, every
prefix from :meth:`repro.bgp.prefix.Prefix.decode` — on the wire path and,
for prefixes, on restore from a pickle.  AS paths and community sets, whose
equal values arrive in more than one encoding, are deduplicated by value in
the intern pool instead (:mod:`repro.core.intern`).

Both caches are process-wide and bounded: on reaching the cap they are
cleared wholesale (the working sets they model are far below the cap, so a
full clear is a once-in-a-blue-moon event and cheaper than LRU bookkeeping).
Values are immutable (``str`` / frozen :class:`~repro.bgp.prefix.Prefix`),
so sharing across streams and threads is safe; under races the worst case is
a duplicated construction.
"""

from __future__ import annotations

import ipaddress
from typing import Dict

_CACHE_MAX = 1 << 16

_addr_cache: Dict[bytes, str] = {}


def address_str(packed: bytes) -> str:
    """The canonical string for a packed 4-byte IPv4 / 16-byte IPv6 address."""
    text = _addr_cache.get(packed)
    if text is None:
        text = str(ipaddress.ip_address(packed))
        if len(_addr_cache) >= _CACHE_MAX:
            _addr_cache.clear()
        _addr_cache[packed] = text
    return text
