"""Flyweight interning for the hot BGP value objects (the elem pipeline).

A RIB dump repeats the same few thousand AS paths, community sets and peer
addresses millions of times; materialising a fresh object per occurrence
dominates both the elem-extraction hot loop and the resident size of the
routing-tables (prefix × VP) matrix.  An :class:`InternPool` deduplicates
those immutable values at parse time, so every consumer downstream holds
*references to one canonical object* per distinct value:

* canonical objects carry their hash cached (the value classes memoise it in
  a ``_hash`` slot), so dict/set/trie operations skip recomputation;
* equality checks between interned values hit the identity fast path the
  value classes implement (``self is other`` first, fields second);
* duplicate parse-time allocations become garbage immediately instead of
  living for the lifetime of a routing table.

Pools are **bounded** (per-kind entry caps; a full pool passes values
through uninterned rather than evicting), **thread-safe** (lock-free read
probe, locked insert) and **stats-reporting** (:meth:`InternPool.stats`).
They pickle cleanly — contents and counters travel, the lock is rebuilt —
so a pool can cross a process boundary if a consumer wants to
:meth:`~InternPool.merge` worker-side pools.

Two layers use interning:

* **parse time** — :func:`repro.mrt.records.decode_record_body` interns the
  freshly decoded values into the process-wide :func:`default_pool`
  (toggle with :func:`set_parse_interning`, or per-reader via the
  ``intern=`` knob threaded through the parser);
* **elem time** — :meth:`repro.core.stream.BGPStream` attaches its pool
  (``BGPStream(interning=...)``) to every record it yields, and
  ``BGPStreamRecord.elems()`` canonicalises the fields of each elem through
  it, writing the canonical objects back into the shared attribute sets so
  later extractions take the identity fast path.

This module is intentionally dependency-free (stdlib only): it sits below
``repro.bgp`` / ``repro.mrt`` in the import graph so any layer may use it.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Optional, Tuple, TypeVar

__all__ = [
    "InternPool",
    "default_pool",
    "reset_default_pool",
    "parse_interning",
    "parse_interning_enabled",
    "set_parse_interning",
    "parse_pool",
    "DEFAULT_MAX_ENTRIES",
]

_T = TypeVar("_T", bound=Hashable)

#: Base per-kind entry cap of a pool.  2**17 distinct AS paths comfortably
#: covers a full IPv4 RIB (real tables sit around 60-100k distinct paths).
DEFAULT_MAX_ENTRIES = 1 << 17

#: Cap multipliers for kinds whose realistic population outgrows the base
#: cap: a full IPv4 RIB carries ~1M distinct prefixes (~8x the base), so the
#: prefix kind — the hottest value type of the pipeline — gets 16x headroom.
KIND_CAP_MULTIPLIERS = {"prefix": 16}

#: The value kinds a pool tracks (used for stats; unknown kinds are allowed
#: and simply appear in the stats as they are first seen).
KINDS = ("prefix", "path", "segment", "communities", "community", "string", "peer")


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
    dedup.  The cap is ``max_entries`` per kind, scaled up by
    :data:`KIND_CAP_MULTIPLIERS` for kinds with larger realistic
    populations (prefixes).
    """

    __slots__ = (
        "max_entries",
        "_caps",
        "_tables",
        "_base_hits",
        "_misses",
        "_base_overflow",
        "_blocks",
        "_local",
        "_lock",
    )

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._caps: Dict[str, int] = {
            kind: max_entries * multiplier for kind, multiplier in KIND_CAP_MULTIPLIERS.items()
        }
        self._tables: Dict[str, dict] = {kind: {} for kind in KINDS}
        #: Totals carried over from pickling/merging; live deltas sit in the
        #: per-thread blocks and are folded in on read.
        self._base_hits: Dict[str, int] = {kind: 0 for kind in KINDS}
        self._misses: Dict[str, int] = {kind: 0 for kind in KINDS}
        self._base_overflow: Dict[str, int] = {kind: 0 for kind in KINDS}
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
        hits = dict(self._base_hits)
        overflow = dict(self._base_overflow)
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
        cap = self._caps.get(kind, self.max_entries)
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

    # -- typed conveniences (the elem-pipeline hot paths) ------------------

    def string(self, value: str) -> str:
        """Canonicalise a peer address / next hop / collector string."""
        return self.intern("string", value)

    def prefix(self, value):
        """Canonicalise a :class:`~repro.bgp.prefix.Prefix`."""
        return self.intern("prefix", value)

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

    def merge(self, other: "InternPool") -> None:
        """Fold another pool's canonicals into this one (bound-respecting).

        Useful to pre-warm a stream pool from another process's pool;
        counters of ``other`` are not carried over.
        """
        if other is self:
            return  # self-merge is a no-op (and the lock is non-reentrant)
        with other._lock:
            # Snapshot under the source pool's lock so concurrent inserts
            # cannot resize the tables mid-iteration.
            snapshot = [(kind, list(table.values())) for kind, table in other._tables.items()]
        for kind, values in snapshot:
            for value in values:
                self.intern(kind, value)

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

    # -- pickling (the lock cannot travel) ---------------------------------

    def __getstate__(self) -> Tuple:
        with self._lock:
            # Copy under the lock: pickling iterates the dicts and releases
            # the GIL into entry __reduce__/__hash__ calls, so a concurrent
            # insert would otherwise resize them mid-iteration.  Thread
            # blocks are folded into plain totals — the unpickled pool
            # starts with fresh blocks.
            hits, overflow = self._aggregate()
            return (
                self.max_entries,
                {kind: dict(table) for kind, table in self._tables.items()},
                hits,
                dict(self._misses),
                overflow,
            )

    def __setstate__(self, state: Tuple) -> None:
        self.max_entries, self._tables, self._base_hits, self._misses, self._base_overflow = state
        self._caps = {
            kind: self.max_entries * multiplier
            for kind, multiplier in KIND_CAP_MULTIPLIERS.items()
        }
        self._blocks = []
        self._local = threading.local()
        self._lock = threading.Lock()


# ---------------------------------------------------------------------------
# The process-wide default pool and the parse-time interning switch
# ---------------------------------------------------------------------------

_default_pool: Optional[InternPool] = None
_default_lock = threading.Lock()
_parse_interning = True


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


def parse_interning_enabled() -> bool:
    return _parse_interning


def set_parse_interning(enabled: bool) -> bool:
    """Globally enable/disable parse-time interning; returns the previous
    setting (so callers can restore it)."""
    global _parse_interning
    previous = _parse_interning
    _parse_interning = bool(enabled)
    return previous


def parse_pool(intern: Optional[bool] = None) -> Optional[InternPool]:
    """The pool parse-time code should intern into, or ``None``.

    ``intern=None`` follows the global switch; ``True`` / ``False`` force
    the decision per call site (the ``intern=`` knob of the MRT reader
    ends up here).
    """
    if intern is None:
        intern = _parse_interning
    return default_pool() if intern else None


class parse_interning:
    """Context manager scoping the global parse-interning switch::

        with parse_interning(False):
            records = read_dump(path)   # raw, un-deduplicated objects
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._previous: Optional[bool] = None

    def __enter__(self) -> "parse_interning":
        self._previous = set_parse_interning(self.enabled)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._previous is not None:
            set_parse_interning(self._previous)
