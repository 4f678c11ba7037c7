"""A paginated Broker client with polite throttling and retry/backoff.

The Broker is an HTTP service in the real deployment; its clients are
long-running analysis processes that must neither hammer the service nor
fall over on a transient failure.  This client wraps the query API with the
classic well-behaved-crawler discipline:

* **cursor-driven pagination** — every request carries the opaque cursor of
  the previous response, so the full result set streams through bounded
  pages and an interrupted client resumes exactly where it stopped (no page
  is ever re-fetched after a retry: the cursor only advances on success);
* **polite throttling** — consecutive requests are spaced at least
  ``min_request_interval`` seconds apart (sleeping on the injected clock,
  so tests and simulations run at full speed);
* **retry with exponential backoff** — a transport that raises
  :class:`BrokerRequestError` is retried up to ``max_retries`` times with
  ``backoff_base * 2**attempt`` second waits (capped at ``backoff_cap``),
  then the error propagates.  The schedule is the shared
  :class:`~repro.core.resilience.RetryPolicy` — the one backoff
  implementation in the tree — and an optional
  :class:`~repro.core.resilience.CircuitBreaker` can sit between the retry
  loop and the transport so a hard broker outage fails fast instead of
  burning the whole backoff budget per request.

The transport is injectable: :class:`LocalBrokerTransport` calls a
:class:`~repro.broker.broker.Broker` in-process (the default); a real
deployment would drop in an HTTP transport with the same two methods, and
tests wrap transports with a fault-injecting proxy.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

from repro.core import metrics
from repro.broker.broker import (
    DEFAULT_PAGE_SIZE,
    Broker,
    BrokerQuery,
    BrokerResponse,
)
from repro.broker.db import DumpFileRecord
from repro.core.resilience import CircuitBreaker, RetryPolicy
from repro.utils.timeutil import Clock, SystemClock


#: Telemetry (see docs/OBSERVABILITY.md).  Updated only when
#: ``repro.core.metrics.enabled`` — one global load per request otherwise.
_request_latency = metrics.histogram(
    "repro_broker_request_latency_seconds",
    "Broker request wall-clock latency per transport method "
    "(includes throttle waits, breaker rejection and retries).",
    labelnames=("method",),
)
_requests = metrics.counter(
    "repro_broker_requests_total",
    "Broker transport requests attempted (each retry counts again).",
    labelnames=("method",),
)
_retries = metrics.counter(
    "repro_broker_retries_total",
    "Broker requests re-attempted after a transient transport failure.",
)


class BrokerRequestError(Exception):
    """A transient transport failure (timeouts, 5xx, connection resets)."""


class LocalBrokerTransport:
    """In-process transport: requests go straight to a :class:`Broker`."""

    def __init__(self, broker: Broker) -> None:
        self.broker = broker

    def get_window(
        self,
        query: BrokerQuery,
        cursor: Optional[str],
        page_size: Optional[int],
        now: Optional[float],
        from_time: Optional[int] = None,
    ) -> BrokerResponse:
        """Forward one window/page request to the wrapped Broker."""
        return self.broker.get_window(
            query, from_time=from_time, now=now, cursor=cursor, page_size=page_size
        )

    def get_new_files_page(
        self,
        query: BrokerQuery,
        cursor: Optional[str],
        page_size: int,
        now: Optional[float],
    ) -> BrokerResponse:
        """Forward one publication-ordered page request to the Broker."""
        return self.broker.get_new_files_page(
            query, now=now, cursor=cursor, page_size=page_size
        )


class BrokerClient:
    """Pull a query's full result set through throttled, retried pages."""

    def __init__(
        self,
        broker: Optional[Broker] = None,
        *,
        transport=None,
        page_size: int = DEFAULT_PAGE_SIZE,
        min_request_interval: float = 0.0,
        max_retries: int = 4,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        retry_policy: Optional[RetryPolicy] = None,
        circuit_breaker: Optional[CircuitBreaker] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if (broker is None) == (transport is None):
            raise ValueError("pass exactly one of broker= or transport=")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.transport = transport if transport is not None else LocalBrokerTransport(broker)
        self.page_size = page_size
        self.min_request_interval = min_request_interval
        self.retry_policy = retry_policy or RetryPolicy(
            max_retries=max_retries, base=backoff_base, cap=backoff_cap
        )
        self.max_retries = self.retry_policy.max_retries
        self.backoff_base = self.retry_policy.base
        self.backoff_cap = self.retry_policy.cap
        self.circuit_breaker = circuit_breaker
        self.clock = clock or SystemClock()
        self._last_request: Optional[float] = None
        #: Introspection counters (tests assert throttling/retry behaviour).
        self.requests_sent = 0
        self.retries = 0
        self.throttle_waits = 0.0

    # -- the paginated pulls -------------------------------------------------

    def iter_pages(
        self,
        query: BrokerQuery,
        now: Optional[float] = None,
        cursor: Optional[str] = None,
    ) -> Iterator[BrokerResponse]:
        """Yield every page of a historical query, politely and resumably.

        ``cursor`` resumes a previous (possibly interrupted) pagination.
        Each yielded response carries its own ``next_cursor``, so the caller
        can checkpoint progress between pages.
        """
        while True:
            response = self._send(
                "get_window",
                query,
                cursor=cursor,
                page_size=self.page_size,
                now=now,
            )
            yield response
            cursor = response.next_cursor
            if cursor is None:
                return

    def iter_files(
        self,
        query: BrokerQuery,
        now: Optional[float] = None,
        cursor: Optional[str] = None,
    ) -> Iterator[DumpFileRecord]:
        """Flatten :meth:`iter_pages` into the individual dump files."""
        for page in self.iter_pages(query, now=now, cursor=cursor):
            yield from page.files

    def poll_published(
        self,
        query: BrokerQuery,
        cursor: Optional[str] = None,
        now: Optional[float] = None,
    ) -> BrokerResponse:
        """One publication-ordered page (live polling; cursor = watermark)."""
        return self._send(
            "get_new_files_page",
            query,
            cursor=cursor,
            page_size=self.page_size,
            now=now,
        )

    # -- transport discipline ------------------------------------------------

    def _send(self, method: str, query: BrokerQuery, **kwargs) -> BrokerResponse:
        def one_attempt() -> BrokerResponse:
            self._throttle()
            self.requests_sent += 1
            if metrics.enabled:
                _requests.inc(method=method)
            self._last_request = self.clock.now()
            call = getattr(self.transport, method)
            if self.circuit_breaker is not None:
                return self.circuit_breaker.call(lambda: call(query, **kwargs))
            return call(query, **kwargs)

        def count_retry(_attempt: int, _exc: BaseException, _delay: float) -> None:
            self.retries += 1
            if metrics.enabled:
                _retries.inc()

        if not metrics.enabled:
            return self.retry_policy.run(
                one_attempt,
                clock=self.clock,
                retry_on=(BrokerRequestError,),
                on_retry=count_retry,
            )
        started = time.perf_counter()
        try:
            return self.retry_policy.run(
                one_attempt,
                clock=self.clock,
                retry_on=(BrokerRequestError,),
                on_retry=count_retry,
            )
        finally:
            _request_latency.observe(time.perf_counter() - started, method=method)

    def _throttle(self) -> None:
        if self.min_request_interval <= 0 or self._last_request is None:
            return
        elapsed = self.clock.now() - self._last_request
        remaining = self.min_request_interval - elapsed
        if remaining > 0:
            self.throttle_waits += remaining
            self.clock.sleep(remaining)
