"""Decode-path profiling counters (the ``bgpreader --decode-stats`` surface).

The lazy decode tier (PR 6) is justified by work *not* done: attribute
blocks never parsed, bytes never copied, elems rejected by the filter gate
before materialisation.  These counters make the win observable at runtime
instead of only in benchmarks::

    from repro.core import profiling

    profiling.enable()
    ...  # run a stream
    stats = profiling.snapshot()
    print(stats.elems_skipped, stats.bytes_copied)
    profiling.disable()

Profiling is off by default and the hot paths in :mod:`repro.bgp`,
:mod:`repro.mrt`, :mod:`repro.bmp` and :mod:`repro.core` guard every
increment with a single ``if profiling.counters is not None`` check, so the
disabled cost is one global load per site.
"""

from __future__ import annotations

from typing import Optional


class DecodeStats:
    """Mutable counter block for one profiling window."""

    __slots__ = (
        "records_scanned",
        "bytes_viewed",
        "bytes_copied",
        "attr_blocks_deferred",
        "attr_blocks_eager",
        "attr_fields_materialised",
        "lazy_elems",
        "elems_materialised",
        "eager_elems",
        "bmp_frames_scanned",
        "intern_hits",
        "intern_misses",
        "segment_hits",
        "segment_misses",
        "segment_corrupt",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    # -- reporting ---------------------------------------------------------

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def merge(self, other: "DecodeStats") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def elems_skipped(self) -> int:
        """Lazy elems that were never materialised (filter rejected them)."""
        return max(0, self.lazy_elems - self.elems_materialised)

    def summary_lines(self) -> list:
        """Human-readable report lines (``bgpreader --decode-stats``)."""
        total_bytes = self.bytes_viewed + self.bytes_copied
        viewed_pct = (100.0 * self.bytes_viewed / total_bytes) if total_bytes else 0.0
        lines = [
            f"records scanned:          {self.records_scanned}",
            f"bmp frames scanned:       {self.bmp_frames_scanned}",
            f"bytes viewed (zero-copy): {self.bytes_viewed} ({viewed_pct:.1f}%)",
            f"bytes copied:             {self.bytes_copied}",
            f"attr blocks deferred:     {self.attr_blocks_deferred}",
            f"attr blocks eager:        {self.attr_blocks_eager}",
            f"attr fields materialised: {self.attr_fields_materialised}",
            f"lazy elems created:       {self.lazy_elems}",
            f"elems materialised:       {self.elems_materialised}",
            f"elems skipped (lazy win): {self.elems_skipped}",
            f"eager elems created:      {self.eager_elems}",
            f"intern hits:              {self.intern_hits}",
            f"intern misses:            {self.intern_misses}",
            f"segment cache hits:       {self.segment_hits}",
            f"segment cache misses:     {self.segment_misses}",
            f"segment files corrupt:    {self.segment_corrupt}",
        ]
        return lines


#: The active counter block, or None when profiling is disabled.  Hot sites
#: must guard with ``if profiling.counters is not None``.
counters: Optional[DecodeStats] = None


def enable() -> DecodeStats:
    """Start (or restart) profiling with a fresh counter block."""
    global counters
    counters = DecodeStats()
    return counters


def disable() -> None:
    global counters
    counters = None


def snapshot() -> Optional[DecodeStats]:
    """The current counter block (live, not a copy), or None if disabled."""
    return counters


def record_intern_stats(pool) -> None:
    """Fold an intern pool's hit/miss tallies into the active counters."""
    if counters is None or pool is None:
        return
    stats = pool.stats()
    counters.intern_hits += sum(s["hits"] for s in stats.values())
    counters.intern_misses += sum(s["misses"] for s in stats.values())
