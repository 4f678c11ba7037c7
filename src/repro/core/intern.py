"""Flyweight interning for AS paths and community sets.

A RIB dump repeats the same few thousand AS paths and community sets
millions of times; keeping a fresh object per occurrence dominates the
resident size of the routing-tables (prefix × VP) matrix.  One process-wide
:class:`InternPool` (:func:`default_pool`) deduplicates those immutable
values, so every consumer downstream holds *references to one canonical
object* per distinct value:

* canonical objects carry their hash and string form cached (the value
  classes memoise them in slots), so dict/set operations and ``to_ascii``
  skip recomputation;
* equality checks between interned values hit the identity fast path the
  value classes implement (``self is other`` first, fields second);
* duplicate decode-time allocations become garbage immediately instead of
  living for the lifetime of a routing table.

**A value is made canonical once, where it is built.**  The pool is probed
at exactly one kind of place — where an ``ASPath`` or ``CommunitySet``
comes into existence from outside the process: when
:class:`repro.bgp.attributes.LazyPathAttributes` materialises an AS_PATH or
COMMUNITIES body from wire bytes, and when one is restored from a pickle
(``__reduce__`` of the two classes; this is what keeps values shared across
segment files of the persistent cache).  Prefixes and addresses are made
canonical the same way by the wire caches
(:meth:`repro.bgp.prefix.Prefix.decode`, :mod:`repro.bgp.wirecache`).
Nothing above the decode layer knows a pool exists; there is no switch.

Pools are **bounded** (per-kind entry caps; a full pool passes values
through uninterned rather than evicting), **thread-safe** (lock-free read
probe, locked insert) and **stats-reporting** (:meth:`InternPool.stats`).

This module is dependency-free (stdlib only): it sits below ``repro.bgp``
in the import graph.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Optional, Tuple, TypeVar

__all__ = [
    "InternPool",
    "default_pool",
    "reset_default_pool",
    "DEFAULT_MAX_ENTRIES",
]

_T = TypeVar("_T", bound=Hashable)

#: Per-kind entry cap of a pool.  2**17 distinct AS paths comfortably
#: covers a full IPv4 RIB (real tables sit around 60-100k distinct paths).
DEFAULT_MAX_ENTRIES = 1 << 17

#: The value kinds a pool tracks (used for stats; unknown kinds are allowed
#: and simply appear in the stats as they are first seen).
KINDS = ("path", "segment", "communities", "community")


class _CounterBlock:
    """Hit/overflow tallies owned by exactly one thread.

    Only the owning thread ever writes a block, so the hot-path increments
    need neither a lock nor atomics; readers (``stats()``) sum the blocks
    under the pool lock, which under the GIL observes each int whole.
    """

    __slots__ = ("hits", "overflow")

    def __init__(self) -> None:
        self.hits: Dict[str, int] = {}
        self.overflow: Dict[str, int] = {}


class InternPool:
    """A bounded, thread-safe flyweight pool for immutable values.

    One dict per *kind* maps each value to its canonical instance.  The read
    probe is lock-free (safe under the GIL: a racing insert at worst stores
    a second equal canonical, never corrupts); inserts take a small lock so
    the bound and the miss counter stay exact.  The *hit* and *overflow*
    counters are kept in per-thread blocks — each thread increments only its
    own block, so a saturated kind pays no lock acquisition per occurrence
    and concurrent threads never lose each other's updates (the stats a
    multi-threaded consumer like the streaming gateway reads are exact, not
    approximate).  When a kind reaches its cap new values pass through
    uninterned (counted as ``overflow``) — bounded memory beats perfect
    dedup.  The cap is ``max_entries`` per kind.
    """

    __slots__ = (
        "max_entries",
        "_tables",
        "_misses",
        "_blocks",
        "_local",
        "_lock",
    )

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._tables: Dict[str, dict] = {kind: {} for kind in KINDS}
        self._misses: Dict[str, int] = {kind: 0 for kind in KINDS}
        self._blocks: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- per-thread counters -----------------------------------------------

    def _block(self) -> _CounterBlock:
        block = getattr(self._local, "block", None)
        if block is None:
            block = _CounterBlock()
            with self._lock:
                self._blocks.append(block)
            self._local.block = block
        return block

    def _aggregate(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Fold the thread blocks into total hit/overflow dicts.

        Caller must hold ``_lock`` (the blocks list must not grow
        mid-iteration; individual block reads are GIL-atomic).
        """
        hits: Dict[str, int] = {}
        overflow: Dict[str, int] = {}
        for block in self._blocks:
            for kind, count in block.hits.items():
                hits[kind] = hits.get(kind, 0) + count
            for kind, count in block.overflow.items():
                overflow[kind] = overflow.get(kind, 0) + count
        return hits, overflow

    # -- the generic primitive ---------------------------------------------

    def intern(self, kind: str, value: _T) -> _T:
        """Return the canonical instance equal to ``value`` (inserting it
        if unseen and the pool has room)."""
        table = self._tables.get(kind)
        if table is None:
            with self._lock:
                table = self._tables.setdefault(kind, {})
                self._misses.setdefault(kind, 0)
        canonical = table.get(value)
        if canonical is not None:
            hits = self._block().hits
            hits[kind] = hits.get(kind, 0) + 1
            return canonical
        cap = self.max_entries
        if len(table) >= cap:
            # Permanently-full kind: stay on the lock-free path.
            overflow = self._block().overflow
            overflow[kind] = overflow.get(kind, 0) + 1
            return value
        with self._lock:
            canonical = table.get(value)
            if canonical is not None:
                hit = True
                over = False
            elif len(table) >= cap:
                hit = False
                over = True
            else:
                hit = over = False
                self._misses[kind] = self._misses.get(kind, 0) + 1
                table[value] = value
        if canonical is not None and hit:
            hits = self._block().hits
            hits[kind] = hits.get(kind, 0) + 1
            return canonical
        if over:
            overflow = self._block().overflow
            overflow[kind] = overflow.get(kind, 0) + 1
        return value

    # -- typed conveniences (the two probe sites' entry points) ------------

    def path(self, value):
        """Canonicalise an :class:`~repro.bgp.aspath.ASPath`.

        On first sight the path's segments are interned too, so paths that
        share a segment (e.g. a common AS_SET tail) share the segment
        object; the canonical path is rebuilt over the canonical segments.
        """
        table = self._tables["path"]
        canonical = table.get(value)
        if canonical is not None:
            hits = self._block().hits
            hits["path"] = hits.get("path", 0) + 1
            return canonical
        segments = value.segments
        interned = tuple(self.intern("segment", segment) for segment in segments)
        if any(a is not b for a, b in zip(interned, segments)):
            value = type(value)(interned)
        return self.intern("path", value)

    def communities(self, value):
        """Canonicalise a :class:`~repro.bgp.community.CommunitySet`.

        Member :class:`~repro.bgp.community.Community` objects of a
        first-seen set are interned as well.
        """
        table = self._tables["communities"]
        canonical = table.get(value)
        if canonical is not None:
            hits = self._block().hits
            hits["communities"] = hits.get("communities", 0) + 1
            return canonical
        members = tuple(value)
        interned = tuple(self.intern("community", member) for member in members)
        if any(a is not b for a, b in zip(interned, members)):
            value = type(value)(interned)
        return self.intern("communities", value)

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            for table in self._tables.values():
                table.clear()

    # -- introspection -----------------------------------------------------

    # Introspection takes the lock: intern() can add a first-seen *kind* to
    # the top-level dicts, which must not resize under these iterations.

    def sizes(self) -> Dict[str, int]:
        with self._lock:
            return {kind: len(table) for kind, table in self._tables.items()}

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind ``{size, hits, misses, overflow}`` counters."""
        with self._lock:
            hits, overflow = self._aggregate()
            return {
                kind: {
                    "size": len(table),
                    "hits": hits.get(kind, 0),
                    "misses": self._misses.get(kind, 0),
                    "overflow": overflow.get(kind, 0),
                }
                for kind, table in self._tables.items()
            }

    @property
    def hit_rate(self) -> float:
        """Overall hits / (hits + misses + overflow); 0.0 when unused."""
        with self._lock:
            hit_totals, overflow_totals = self._aggregate()
            hits = sum(hit_totals.values())
            total = hits + sum(self._misses.values()) + sum(overflow_totals.values())
        return hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return sum(len(table) for table in self._tables.values())

    def __repr__(self) -> str:
        return (
            f"InternPool(entries={len(self)}, "
            f"hit_rate={self.hit_rate:.3f}, max_entries={self.max_entries})"
        )


# ---------------------------------------------------------------------------
# The process-wide default pool
# ---------------------------------------------------------------------------

_default_pool: Optional[InternPool] = None
_default_lock = threading.Lock()


def default_pool() -> InternPool:
    """The process-wide pool (created lazily; every process builds its
    own)."""
    global _default_pool
    pool = _default_pool
    if pool is None:
        with _default_lock:
            pool = _default_pool
            if pool is None:
                pool = _default_pool = InternPool()
    return pool


def reset_default_pool() -> None:
    """Drop the process-wide pool (tests / long-lived daemons)."""
    global _default_pool
    with _default_lock:
        _default_pool = None
