"""Time utilities.

All simulation timestamps are Unix epoch seconds expressed as plain ``int``
(or ``float`` where sub-second precision matters, e.g. publication delay).
Historical processing never consults the wall clock; live mode goes through
the :class:`Clock` abstraction so tests and simulations can drive time
synthetically.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Callable, Iterator


class Clock:
    """Abstract source of "now" used by live-mode components."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError

    def wait_for(
        self,
        condition: threading.Condition,
        predicate: Callable[[], bool],
        timeout: float,
    ) -> bool:
        """Pass up to ``timeout`` of idle time, less if ``predicate`` holds.

        Returns the predicate's value, always evaluated under ``condition``.
        This generic form has nobody to be woken by: it tests the predicate
        and otherwise sleeps the whole ``timeout`` on this clock, which is
        exactly what simulated time wants (instant and deterministic).
        """
        with condition:
            if predicate():
                return True
        self.sleep(timeout)
        with condition:
            return predicate()


class SystemClock(Clock):
    """Wall-clock backed clock (used only when running against real time)."""

    def now(self) -> float:
        return _time.time()

    def sleep(self, seconds: float) -> None:
        _time.sleep(seconds)

    def wait_for(
        self,
        condition: threading.Condition,
        predicate: Callable[[], bool],
        timeout: float,
    ) -> bool:
        """Block on ``condition`` until a notifier makes ``predicate`` true."""
        with condition:
            return condition.wait_for(predicate, timeout)


class SimulatedClock(Clock):
    """A clock that only moves when told to (or when something sleeps on it).

    ``sleep`` advances simulated time instantly, which lets live-mode code be
    exercised deterministically and at full speed in tests and benchmarks;
    ``wait_for`` is the inherited test-then-sleep, so an idle wait costs no
    real time either.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds

    def advance(self, seconds: float) -> None:
        """Move simulated time forward by ``seconds``."""
        self.sleep(seconds)

    def set(self, timestamp: float) -> None:
        """Jump simulated time to ``timestamp`` (must not move backwards)."""
        if timestamp < self._now:
            raise ValueError("simulated clock cannot move backwards")
        self._now = float(timestamp)


def bin_start(timestamp: int, bin_size: int) -> int:
    """Return the start of the time bin containing ``timestamp``.

    Bins are aligned to the epoch, as BGPCorsaro aligns its output bins.
    """
    if bin_size <= 0:
        raise ValueError("bin_size must be positive")
    return (int(timestamp) // bin_size) * bin_size


def iter_bins(start: int, end: int, bin_size: int) -> Iterator[int]:
    """Yield aligned bin start times covering ``[start, end)``."""
    if end < start:
        raise ValueError("end must be >= start")
    current = bin_start(start, bin_size)
    while current < end:
        yield current
        current += bin_size
