"""The Broker query service (§3.2).

libBGPStream's broker data interface alternates between meta-data queries
and reading the dump files the responses point to.  The Broker therefore
exposes exactly that contract:

* a :class:`BrokerQuery` carries the stream parameters (projects,
  collectors, dump types, time interval, live flag);
* :meth:`Broker.get_window` answers with a :class:`BrokerResponse`
  containing the dump files of the next *window* of data (bounded span —
  "response windowing for overload protection"), plus enough information
  for the client to ask for the following window;
* an empty response in historical mode means the stream is finished; in
  live mode it means "nothing new yet — poll again later".

Production metadata-tier features:

* **cursor pagination** — :meth:`Broker.get_window` accepts a
  ``page_size`` (bounded by :data:`MAX_PAGE_SIZE`) and returns an opaque
  ``next_cursor`` (:mod:`repro.broker.cursor`).  Pages follow the stable
  keyset order ``(timestamp, id)``, so pagination never repeats or skips
  files even while the crawler keeps appending rows — and a cursor alone
  is enough to resume: ``get_window(query, cursor=response.next_cursor)``.
* **incremental crawling** — the Broker crawls its archives on demand
  before answering; with the resumable crawler
  (:mod:`repro.broker.crawler`) each crawl costs O(new files).

The Broker's one client is the broker data interface
(:class:`repro.core.interfaces.BrokerDataInterface`): historical streams
call :meth:`Broker.get_window`, live ones :meth:`Broker.get_new_files`.
Both calls are counted and timed in the metrics registry
(``repro_broker_requests_total`` / ``repro_broker_request_latency_seconds``
by ``method``) while ``repro.core.metrics.enabled``.  A failing call
propagates to the stream's reader: there is no retry layer.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core import metrics
from repro.broker.crawler import ArchiveCrawler
from repro.broker.cursor import CursorError, decode_cursor, encode_cursor, query_fingerprint
from repro.broker.db import DumpFileRecord, MetadataDB
from repro.collectors.archive import Archive

#: Default maximum span of data (seconds) returned in a single response;
#: the paper notes broker responses cover up to ~2 hours of data.
DEFAULT_WINDOW_SPAN = 2 * 3600

#: Hard maximum number of files per paginated response.
MAX_PAGE_SIZE = 2000

#: Telemetry (see docs/OBSERVABILITY.md).  Updated only when
#: ``repro.core.metrics.enabled`` — one global load per request otherwise.
_requests = metrics.counter(
    "repro_broker_requests_total",
    "Broker queries served, by query method (failed ones included).",
    labelnames=("method",),
)
_request_latency = metrics.histogram(
    "repro_broker_request_latency_seconds",
    "Broker query wall-clock latency by query method (crawl included).",
    labelnames=("method",),
)


def _metered(query_fn):
    """Count and time each call of a Broker query method by its name."""
    method = query_fn.__name__

    @functools.wraps(query_fn)
    def metered(*args, **kwargs):
        if not metrics.enabled:
            return query_fn(*args, **kwargs)
        started = time.perf_counter()
        try:
            return query_fn(*args, **kwargs)
        finally:
            _requests.inc(method=method)
            _request_latency.observe(time.perf_counter() - started, method=method)

    return metered


@dataclass(frozen=True)
class BrokerQuery:
    """Parameters identifying the data a stream wants."""

    projects: Tuple[str, ...] = ()
    collectors: Tuple[str, ...] = ()
    dump_types: Tuple[str, ...] = ()  # "ribs" / "updates"
    interval_start: int = 0
    #: None means live mode: the stream has no end.
    interval_end: Optional[int] = None

    @property
    def live(self) -> bool:
        return self.interval_end is None

    def fingerprint(self) -> str:
        """Digest binding cursors to this query's parameters."""
        return query_fingerprint(self)


@dataclass
class BrokerResponse:
    """One window (or page of a window) of dump-file meta-data."""

    files: List[DumpFileRecord] = field(default_factory=list)
    window_start: int = 0
    window_end: int = 0
    #: True if (as far as the Broker can tell right now) more data may follow.
    more_data: bool = False
    #: Opaque resume token: echo it back as ``cursor=`` to fetch the next
    #: page (or the next window, once this window is exhausted).  None when
    #: the response completes the query.
    next_cursor: Optional[str] = None

    def __len__(self) -> int:
        return len(self.files)

    def __iter__(self):
        return iter(self.files)

    @property
    def empty(self) -> bool:
        return not self.files


class Broker:
    """The meta-data provider queried by libBGPStream."""

    def __init__(
        self,
        archives: Optional[Sequence[Archive]] = None,
        db: Optional[MetadataDB] = None,
        window_span: int = DEFAULT_WINDOW_SPAN,
    ) -> None:
        self.db = db or MetadataDB()
        self.crawler = ArchiveCrawler(self.db, list(archives or []))
        self.window_span = window_span
        self.queries_served = 0

    def add_archive(self, archive: Archive) -> None:
        self.crawler.add_archive(archive)

    # -- the query API ----------------------------------------------------------

    @_metered
    def get_window(
        self,
        query: BrokerQuery,
        from_time: Optional[int] = None,
        now: Optional[float] = None,
        cursor: Optional[str] = None,
        page_size: Optional[int] = None,
    ) -> BrokerResponse:
        """Return the next window (or page of a window) of dump files.

        ``from_time`` is where the previous window ended (defaults to the
        query's interval start).  ``now`` bounds publication visibility: in
        live mode only files already published at ``now`` are returned; in
        historical mode it defaults to unbounded (all files are assumed
        published, as they were collected in the past).

        ``page_size`` bounds the number of files per response (capped at
        :data:`MAX_PAGE_SIZE`); when a window holds more files, the
        response carries a ``next_cursor`` and ``more_data`` stays True.
        ``cursor`` resumes from a previous response's ``next_cursor`` —
        when given, ``from_time`` is ignored (the cursor knows better).  A
        cursor from a different query raises
        :class:`~repro.broker.cursor.CursorError`.
        """
        self.queries_served += 1
        visible_at = now
        self.crawler.crawl(now=None if visible_at is None else visible_at)

        fingerprint = query.fingerprint()
        after: Optional[Tuple[float, int]] = None
        if cursor is not None:
            payload = decode_cursor(cursor, fingerprint)
            if "w" not in payload:
                raise CursorError("not a window cursor")
            window_start = int(payload["w"])
            if "ts" in payload:
                after = (payload["ts"], payload["id"])
            # Later pages of the first window keep its intersection
            # semantics (the "f" flag travels in the cursor).
            first_window = bool(payload.get("f"))
        else:
            window_start = query.interval_start if from_time is None else from_time
            first_window = from_time is None

        hard_end = query.interval_end
        window_end = window_start + self.window_span
        if hard_end is not None:
            window_end = min(window_end, hard_end)
            if window_start >= hard_end:
                return BrokerResponse([], window_start, window_start, more_data=False)

        limit = None
        if page_size is not None:
            if page_size <= 0:
                raise ValueError("page_size must be positive")
            limit = min(page_size, MAX_PAGE_SIZE)

        # Windows are half-open [window_start, window_end): a file whose
        # nominal start falls on window_end belongs to the next window (so
        # it is never returned twice), except on the stream's very last
        # window where the end is inclusive.  The first window additionally
        # includes earlier-starting files whose data interval reaches into
        # it (intersection semantics); follow-up windows exclude them —
        # the previous window already returned them.
        last_window = hard_end is not None and window_end == hard_end

        def in_window(f: DumpFileRecord) -> bool:
            return (
                f.timestamp < window_end or (last_window and f.timestamp <= hard_end)
            ) and (first_window or f.timestamp >= window_start)

        def fetch(fetch_after, fetch_limit):
            return self.db.query_page(
                projects=list(query.projects) or None,
                collectors=list(query.collectors) or None,
                dump_types=list(query.dump_types) or None,
                interval_start=window_start,
                interval_end=window_end,
                visible_at=visible_at,
                after=fetch_after,
                limit=fetch_limit,
            )

        if limit is None:
            files = [f for f in fetch(after, None) if in_window(f)]
        else:
            # Fill the page to limit+1 in-window rows (the +1 detects further
            # pages without a second query).  Rows the window filter rejects
            # — boundary files of the next window, overlap files already
            # served by the previous one — must not eat the page budget, so
            # keep fetching past them until the page fills or the set of
            # intersecting rows is exhausted.
            files = []
            fetch_after = after
            while len(files) <= limit:
                rows = fetch(fetch_after, limit + 1)
                files.extend(f for f in rows if in_window(f))
                if len(rows) <= limit:  # fewer than asked: nothing left
                    break
                tail = rows[-1]
                fetch_after = (tail.timestamp, tail.file_id)

        page_full = limit is not None and len(files) > limit
        if page_full:
            files = files[:limit]

        more_windows = True if hard_end is None else window_end < hard_end
        if page_full:
            tail = files[-1]
            payload = {"w": window_start, "ts": tail.timestamp, "id": tail.file_id}
            if first_window:
                payload["f"] = 1
            next_cursor = encode_cursor(payload, fingerprint)
            more = True
        else:
            next_cursor = (
                encode_cursor({"w": window_end}, fingerprint) if more_windows else None
            )
            more = more_windows
        return BrokerResponse(
            files=files,
            window_start=window_start,
            window_end=window_end,
            more_data=more,
            next_cursor=next_cursor,
        )

    @_metered
    def get_new_files(
        self,
        query: BrokerQuery,
        published_after: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[DumpFileRecord]:
        """Live-mode query: files *published* since ``published_after``.

        The real Broker supports a "data added since" style of query so that
        live clients never miss files that are published late or out of
        order: instead of windowing on nominal dump time, the client asks
        for anything that appeared on the archive since its previous poll.
        Results are restricted to data intervals at or after the query's
        interval start and sorted by nominal timestamp (best-effort record
        interleaving is the stream's job).
        """
        self.queries_served += 1
        self.crawler.crawl(now=now)
        files = self.db.query(
            projects=list(query.projects) or None,
            collectors=list(query.collectors) or None,
            dump_types=list(query.dump_types) or None,
            interval_start=query.interval_start,
            interval_end=None,
            visible_at=now,
        )
        if published_after is not None:
            files = [f for f in files if f.available_at > published_after]
        return files

    def iter_windows(
        self,
        query: BrokerQuery,
        now: Optional[float] = None,
        page_size: Optional[int] = None,
    ):
        """Iterate successive historical windows until the interval is covered.

        With ``page_size`` set, large windows arrive as multiple paginated
        responses (driven by their cursors).  Only valid for historical
        (bounded) queries; live-mode pacing is the caller's responsibility
        because it involves polling.
        """
        if query.live:
            raise ValueError("iter_windows requires a bounded (historical) query")
        if page_size is not None:
            cursor: Optional[str] = None
            while True:
                response = self.get_window(
                    query, cursor=cursor, page_size=page_size, now=now
                )
                yield response
                cursor = response.next_cursor
                if cursor is None:
                    return
        position = query.interval_start
        while position < (query.interval_end or 0):
            response = self.get_window(query, from_time=position, now=now)
            yield response
            position = response.window_end
