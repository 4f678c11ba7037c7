"""The fault-injection harness the resilience and chaos suites drive.

A :class:`FaultPlan` scripts failures by call index (deterministically — no
randomness, no wall clock) and :func:`inject_faults` wraps any object so
the scripted faults fire before its named methods run.  The same plan
object injects transient Kafka poll errors, Broker query failures, and
permanent outages.  Import it as ``from tests.fault_injection import ...``.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Iterable, Optional, Type, Union

from repro.core.resilience import TransientError


class InjectedFault(TransientError):
    """The scripted failure a :class:`FaultPlan` raises by default."""


#: An exception instance, an exception class, or a factory of either.
FaultSpec = Union[BaseException, Type[BaseException], Callable[[int], BaseException]]


class FaultPlan:
    """A deterministic script of failures, keyed by call index.

    ``FaultPlan(fail_at=(2, 5))`` makes the 3rd and 6th guarded calls
    raise; ``fail_from=10`` turns every call from index 10 on into a
    failure (a permanent outage).  The raised error defaults to
    :class:`InjectedFault` (a :class:`TransientError`, so production retry
    paths engage); pass ``error=`` an exception class or instance to
    script non-transient crashes instead.

    One plan may guard several wrapped objects at once — the call counter
    is shared, which is exactly what a cross-layer chaos scenario wants
    ("the 7th broker interaction of this run fails, whoever makes it").
    Counters: ``calls`` (guarded calls seen), ``injected`` (faults fired).
    """

    def __init__(
        self,
        fail_at: Iterable[int] = (),
        *,
        fail_from: Optional[int] = None,
        error: FaultSpec = InjectedFault,
    ) -> None:
        self.fail_at = frozenset(fail_at)
        if fail_from is not None and fail_from < 0:
            raise ValueError("fail_from must be >= 0")
        self.fail_from = fail_from
        self.error = error
        self._lock = threading.Lock()
        self.calls = 0
        self.injected = 0

    def should_fail(self, index: int) -> bool:
        if index in self.fail_at:
            return True
        return self.fail_from is not None and index >= self.fail_from

    def tick(self, operation: str = "call") -> None:
        """Count one guarded call; raise if the script says this one fails."""
        with self._lock:
            index = self.calls
            self.calls += 1
            if not self.should_fail(index):
                return
            self.injected += 1
        raise self._build_error(index, operation)

    def _build_error(self, index: int, operation: str) -> BaseException:
        error = self.error
        if isinstance(error, BaseException):
            return error
        if isinstance(error, type) and issubclass(error, BaseException):
            return error(f"injected fault in {operation} (call {index})")
        return error(index)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(fail_at={sorted(self.fail_at)}, fail_from={self.fail_from}, "
            f"calls={self.calls}, injected={self.injected})"
        )


class FaultInjector:
    """A transparent proxy that runs a :class:`FaultPlan` before methods.

    Reads delegate to the wrapped object untouched; calling one of the
    guarded method names first ticks the plan (which may raise the
    scripted fault) and only then delegates.  ``functools.wraps``
    preserves the wrapped method's signature, so introspection-based
    feature detection (e.g. the live interface probing for ``until_ts``)
    sees through the wrapper.
    """

    def __init__(self, inner, plan: FaultPlan, methods: Iterable[str]) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "_methods", frozenset(methods))

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name in self._methods and callable(attr):

            @functools.wraps(attr)
            def guarded(*args, **kwargs):
                self.plan.tick(name)
                return attr(*args, **kwargs)

            return guarded
        return attr

    def __setattr__(self, name: str, value) -> None:
        setattr(self._inner, name, value)

    def __repr__(self) -> str:
        return f"FaultInjector({self._inner!r}, plan={self.plan!r})"


def inject_faults(inner, plan: FaultPlan, methods: Iterable[str]) -> FaultInjector:
    """Wrap ``inner`` so ``plan``'s scripted faults fire before ``methods``.

    Every layer is spelled with this one helper::

        inject_faults(consumer, plan, ["poll"])                 # Kafka consumer
        inject_faults(source, plan, ["poll"])                   # BMP feed source
        inject_faults(broker, plan, ["get_window", "get_new_files"])  # Broker
    """
    return FaultInjector(inner, plan, methods)
