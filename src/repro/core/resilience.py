"""The shared resilience toolkit: retries and supervision.

A continuous live monitor cannot afford the failure modes of a batch job:
one transient Kafka hiccup must not kill a bridge thread, and a crash must
surface as an explicit, bounded event — never as a silent clean-looking
end-of-stream.  This module is the one place those disciplines live; the
live Kafka poll path and the gateway hub build on the same two primitives
instead of hand-rolling their own:

* :class:`RetryPolicy` — capped exponential backoff with optional seeded
  jitter.  Pure configuration plus a ``run()`` driver that sleeps on an
  injected :class:`~repro.utils.timeutil.Clock`, so tests replay the exact
  schedule on a :class:`~repro.utils.timeutil.SimulatedClock` at full speed.
* :class:`Supervisor` — a restart loop for crash-prone long-running
  callables (the gateway bridge thread): restart budget, backoff between
  restarts, crash counters, and an ``on_crash`` hook where the owner
  rebuilds whatever state the crash invalidated.

Everything here is deterministic and fake-clock-friendly: no module-level
wall-clock reads, no hidden threads, jitter only from a seeded PRNG.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

from repro.core import metrics
from repro.utils.timeutil import Clock, SystemClock

#: Telemetry (see docs/OBSERVABILITY.md).  The resilience tier is exactly
#: the machinery an operator most needs to see working — retries and
#: supervised restarts — so both primitives report here when
#: ``repro.core.metrics.enabled`` (one global load per event otherwise).
_retry_attempts = metrics.counter(
    "repro_resilience_retry_attempts_total",
    "Retries performed by RetryPolicy.run across every call site.",
)
_supervisor_events = metrics.counter(
    "repro_resilience_supervisor_events_total",
    "Supervisor lifecycle events (crash, restart, give_up, finish).",
    labelnames=("event",),
)

__all__ = [
    "TransientError",
    "RetryPolicy",
    "Supervisor",
]


class TransientError(Exception):
    """A failure worth retrying: timeouts, connection resets, 5xx-alikes.

    Retry sites default their ``retry_on`` to this class (plus
    :class:`ConnectionError`), so a test fault derived from it exercises
    exactly the production retry path.
    """


class RetryPolicy:
    """Capped exponential backoff with optional seeded jitter.

    The schedule is ``min(base * 2**attempt, cap)`` seconds before retry
    ``attempt + 1`` (attempt counting from 0), optionally scaled by a
    jitter factor drawn from a **seeded** PRNG — two policies built with
    the same seed produce the same schedule, so tests assert exact timing
    on a simulated clock.

    The policy itself never sleeps; :meth:`run` drives the loop and sleeps
    on the clock the call site injects.  This is the one backoff
    implementation in the tree: the live Kafka poll path and the gateway
    supervisor both delegate here.
    """

    __slots__ = ("max_retries", "base", "cap", "jitter", "_rng")

    def __init__(
        self,
        max_retries: int = 4,
        base: float = 0.5,
        cap: float = 30.0,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if base < 0 or cap < 0:
            raise ValueError("base and cap must be >= 0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        self.max_retries = max_retries
        self.base = base
        self.cap = cap
        self.jitter = jitter
        self._rng = random.Random(seed) if jitter else None

    def delay(self, attempt: int) -> float:
        """The wait before retry ``attempt + 1`` (attempt counts from 0)."""
        delay = min(self.base * (2**attempt), self.cap)
        if self._rng is not None:
            delay *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        return delay

    def delays(self) -> List[float]:
        """The full backoff schedule (one entry per permitted retry)."""
        return [self.delay(attempt) for attempt in range(self.max_retries)]

    def run(
        self,
        fn: Callable,
        *,
        clock: Optional[Clock] = None,
        retry_on: Tuple[Type[BaseException], ...] = (TransientError, ConnectionError),
        on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    ):
        """Call ``fn`` until it succeeds or the retry budget runs out.

        Only ``retry_on`` exceptions are retried; anything else propagates
        immediately.  ``on_retry(attempt, exc, delay)`` fires before each
        backoff sleep (call sites hang their counters on it).
        """
        clock = clock or SystemClock()
        attempt = 0
        while True:
            try:
                return fn()
            except retry_on as exc:
                if attempt >= self.max_retries:
                    raise
                delay = self.delay(attempt)
                attempt += 1
                if metrics.enabled:
                    _retry_attempts.inc()
                if on_retry is not None:
                    on_retry(attempt, exc, delay)
                if delay > 0:
                    clock.sleep(delay)

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_retries={self.max_retries}, base={self.base}, "
            f"cap={self.cap}, jitter={self.jitter})"
        )


class Supervisor:
    """Restart a crash-prone callable with a bounded budget and backoff.

    ``run`` is invoked until it returns cleanly.  When it raises, the crash
    is recorded and — budget permitting — ``on_crash(exc, crash_count)``
    runs first (the owner rebuilds whatever the crash invalidated; return
    ``False`` to veto the restart), then the supervisor sleeps the
    backoff's next delay on the injected clock and re-invokes ``run``.
    Once the budget is spent (or the veto fired) the supervisor *gives up
    cleanly*: ``gave_up`` is set, ``last_error`` holds the exception,
    ``on_give_up`` fires, and :meth:`supervise` re-raises so inline callers
    see the failure (the threaded form records it instead).

    The supervisor is single-use: one :meth:`supervise` / :meth:`start`
    per instance.
    """

    def __init__(
        self,
        run: Callable[[], None],
        *,
        max_restarts: int = 3,
        backoff: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        on_crash: Optional[Callable[[BaseException, int], Optional[bool]]] = None,
        on_give_up: Optional[Callable[[BaseException], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.run = run
        self.max_restarts = max_restarts
        self.backoff = backoff or RetryPolicy(max_retries=max_restarts, base=0.05, cap=2.0)
        self.clock = clock or SystemClock()
        self.on_crash = on_crash
        self.on_give_up = on_give_up
        self.name = name
        self._thread: Optional[threading.Thread] = None
        #: Crash bookkeeping (read by tests and the gateway's /stats).
        self.crashes = 0
        self.restarts = 0
        self.gave_up = False
        self.finished = False
        self.last_error: Optional[BaseException] = None

    def supervise(self) -> None:
        """Run the supervision loop in the calling thread.

        Returns when ``run`` finished cleanly; raises the final exception
        when the restart budget is exhausted (or a restart was vetoed).
        """
        while True:
            try:
                self.run()
            except Exception as exc:  # noqa: BLE001 - the whole point
                self.crashes += 1
                self.last_error = exc
                if metrics.enabled:
                    _supervisor_events.inc(event="crash")
                proceed = self.crashes <= self.max_restarts
                if proceed and self.on_crash is not None:
                    proceed = self.on_crash(exc, self.crashes) is not False
                if not proceed:
                    self.gave_up = True
                    if metrics.enabled:
                        _supervisor_events.inc(event="give_up")
                    if self.on_give_up is not None:
                        self.on_give_up(exc)
                    raise
                delay = self.backoff.delay(self.crashes - 1)
                self.restarts += 1
                if metrics.enabled:
                    _supervisor_events.inc(event="restart")
                if delay > 0:
                    self.clock.sleep(delay)
            else:
                self.finished = True
                if metrics.enabled:
                    _supervisor_events.inc(event="finish")
                return

    def start(self) -> threading.Thread:
        """Run the supervision loop in a daemon thread.

        The threaded form never lets the final exception escape — it is
        recorded in ``last_error``/``gave_up`` for the owner to surface.
        """
        if self._thread is not None:
            raise RuntimeError("supervisor already started")

        def guarded() -> None:
            try:
                self.supervise()
            except Exception:  # noqa: BLE001 - recorded in last_error
                pass

        self._thread = threading.Thread(
            target=guarded, daemon=True, name=self.name or "supervisor"
        )
        self._thread.start()
        return self._thread

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def snapshot(self) -> Dict[str, Union[int, bool, Optional[str]]]:
        """Crash counters plus the last error's class name."""
        error = self.last_error
        return {
            "crashes": self.crashes,
            "restarts": self.restarts,
            "gave_up": self.gave_up,
            "finished": self.finished,
            "error": type(error).__name__ if error is not None else None,
        }
