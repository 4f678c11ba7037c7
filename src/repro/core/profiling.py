"""A view of the decode tally for the frozen ledger — not a second switch.

The decode counters live in the telemetry registry
(:mod:`repro.core.metrics`): the decode sites count under
``if metrics.enabled:``, and ``--decode-stats`` / ``/stats`` render
:func:`repro.core.metrics.decode_counts`.  These four names survive only
because ``ledger/hist.py:324–385`` calls them; new code uses
:mod:`repro.core.metrics` directly.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core import metrics


def enable() -> None:
    """Turn the registry on and start a fresh decode window."""
    metrics.enable()
    metrics.reset_decode_counts()


def disable() -> None:
    metrics.disable()


def snapshot() -> SimpleNamespace:
    """The decode tally as attributes (``lazy_elems``, ``segment_hits``, ...)."""
    return SimpleNamespace(**metrics.decode_counts())


def record_intern_stats(pool) -> None:
    """No-op: the tally reads the intern pool itself."""
