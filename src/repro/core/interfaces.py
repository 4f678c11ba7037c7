"""Data interfaces: where the stream learns which dump files to read (§3.2).

The Broker data interface is the primary one (and the default); the single
file, CSV file and SQLite interfaces support analysis of local files without
a Broker, exactly as the released BGPStream does.  Every file-backed
interface produces :class:`DumpFileSpec` batches; the stream machinery is
identical from there on.  :class:`LiveDataInterface` is the near-realtime
counterpart: it yields ready-made record batches straight off a BMP-over-
Kafka feed (:mod:`repro.bmp`).

Interfaces can be addressed by name through the registry
(:func:`make_data_interface`), matching the paper's named-interface API:
``broker``, ``csvfile``, ``sqlite``, ``singlefile`` and ``kafka`` (the live
BMP feed, also reachable as ``bmp``).
"""

from __future__ import annotations

import csv
import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.core import metrics
from repro.broker.broker import Broker, BrokerQuery
from repro.broker.db import MetadataDB
from repro.collectors.projects import project_for_collector
from repro.core.filters import FilterSet
from repro.core.record import BGPStreamRecord
from repro.utils.timeutil import Clock, SystemClock

#: Default cap on Kafka messages per live poll (Kafka's ``max.poll.records``):
#: a backlog drains in batches of this size, so the first record is
#: delivered after O(cap) work and a bridge crash between a poll's commit
#: and its fan-out can lose at most this many messages.
DEFAULT_MAX_POLL_MESSAGES = 500

_poll_wakeups = metrics.counter(
    "repro_kafka_poll_wakeups_total",
    "Idle waits of the live interface, by what ended them: a publish on "
    "the feed (data) or poll_interval of silence (timeout).",
    labelnames=("cause",),
)

if TYPE_CHECKING:
    from repro.bmp.convert import BMPRecordConverter
    from repro.bmp.source import BMPKafkaDataSource
    from repro.core.resilience import RetryPolicy
    from repro.kafka.broker import MessageBroker


@dataclass(frozen=True)
class DumpFileSpec:
    """Everything the stream needs to know to read one dump file."""

    path: str
    project: str
    collector: str
    dump_type: str  # "ribs" / "updates"
    timestamp: int
    duration: int

    @property
    def interval_end(self) -> int:
        return self.timestamp + self.duration


class DataInterface:
    """Base class: yields batches of dump files in time order.

    Each batch corresponds to one meta-data response (one Broker window, or
    the whole local file set); batches arrive in non-decreasing time order
    and the stream merges/sorts records within each batch.
    """

    def batches(self, filters: FilterSet) -> Iterator[List[DumpFileSpec]]:
        raise NotImplementedError


class BrokerDataInterface(DataInterface):
    """The default interface: pull windows of meta-data from a Broker.

    Implements the client-pull model of §3.3.2: meta-data is requested only
    when the application is ready to process more data, and in live mode the
    interface blocks (polling the Broker through the clock) until new data
    is available.

    ``page_size`` bounds the files per meta-data response; when set (or when
    resuming from a ``cursor``), historical windows are pulled through the
    Broker's cursor pagination and :attr:`last_cursor` tracks the most
    recent resume token, so an interrupted stream can be restarted with
    ``cursor=interface.last_cursor`` without re-fetching earlier pages.
    """

    def __init__(
        self,
        broker: Broker,
        clock: Optional[Clock] = None,
        poll_interval: float = 30.0,
        max_empty_polls: Optional[int] = None,
        page_size: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> None:
        self.broker = broker
        self.clock = clock or SystemClock()
        self.poll_interval = poll_interval
        #: In live mode, stop after this many consecutive empty polls
        #: (None = poll forever).  Simulations set a bound so runs terminate.
        self.max_empty_polls = max_empty_polls
        self.page_size = page_size
        #: The cursor to resume from (consumed by the first request).
        self.cursor = cursor
        #: The opaque resume token of the most recent response (checkpoint
        #: this to survive restarts); None until the first paginated pull.
        self.last_cursor: Optional[str] = None

    def batches(self, filters: FilterSet) -> Iterator[List[DumpFileSpec]]:
        query = BrokerQuery(
            projects=tuple(sorted(filters.projects)),
            collectors=tuple(sorted(filters.collectors)),
            dump_types=tuple(sorted(filters.record_types)),
            interval_start=filters.interval_start or 0,
            interval_end=filters.interval_end,
        )
        if not query.live:
            if self.page_size is not None or self.cursor is not None:
                yield from self._paginated_batches(query)
                return
            from_time: Optional[int] = None
            while True:
                response = self.broker.get_window(query, from_time=from_time, now=None)
                if response.files:
                    yield [_spec_from_record(f) for f in response.files]
                if not response.more_data:
                    return
                from_time = response.window_end
            return

        # Live mode: ask the Broker for anything *published* since the last
        # poll, so late or out-of-order publications are never missed.  The
        # query blocks (sleeping on the clock) while nothing new is
        # available, which is the paper's blocking-poll behaviour.
        published_after: Optional[float] = None
        empty_polls = 0
        while True:
            now = self.clock.now()
            files = self.broker.get_new_files(query, published_after=published_after, now=now)
            published_after = now
            if files:
                empty_polls = 0
                yield [_spec_from_record(f) for f in files]
                continue
            empty_polls += 1
            if self.max_empty_polls is not None and empty_polls >= self.max_empty_polls:
                return
            self.clock.sleep(self.poll_interval)

    def _paginated_batches(self, query: BrokerQuery) -> Iterator[List[DumpFileSpec]]:
        """Historical pull through cursor pagination (bounded responses).

        Pages are a transport detail: the sorted merge downstream needs the
        whole window, so pages are reassembled into one batch per window
        before yielding.  ``last_cursor`` only advances at window
        boundaries — it always points at the first *unyielded* page, so a
        consumer that stops mid-stream can resume without losing files
        from a window whose pages were fetched but never delivered.
        """
        cursor = self.cursor
        pending: List[DumpFileSpec] = []
        pending_window: Optional[int] = None
        while True:
            response = self.broker.get_window(
                query, cursor=cursor, page_size=self.page_size, now=None
            )
            if pending and response.window_start != pending_window:
                # This fetch crossed into the next window: the previous
                # window is complete.  Resuming from `cursor` re-fetches
                # only the page we are holding but have not yet yielded.
                self.last_cursor = cursor
                yield pending
                pending = []
            if response.files:
                pending_window = response.window_start
                pending.extend(_spec_from_record(f) for f in response.files)
            cursor = response.next_cursor
            if cursor is None:
                self.last_cursor = None
                break
        if pending:
            yield pending


class SingleFileDataInterface(DataInterface):
    """Read exactly one local dump file."""

    def __init__(
        self,
        path: str,
        dump_type: str,
        project: str = "",
        collector: str = "",
        timestamp: Optional[int] = None,
        duration: int = 0,
    ) -> None:
        if collector and not project:
            try:
                project = project_for_collector(collector).name
            except KeyError:
                project = ""
        self.spec = DumpFileSpec(
            path=path,
            project=project,
            collector=collector,
            dump_type=dump_type,
            timestamp=timestamp if timestamp is not None else 0,
            duration=duration,
        )

    def batches(self, filters: FilterSet) -> Iterator[List[DumpFileSpec]]:
        yield [self.spec]


class CSVFileDataInterface(DataInterface):
    """Read dump-file meta-data from a local CSV file.

    Each row: ``project,collector,dump_type,timestamp,duration,path``.
    """

    def __init__(self, csv_path: str) -> None:
        self.csv_path = csv_path

    def _load(self) -> List[DumpFileSpec]:
        specs: List[DumpFileSpec] = []
        with open(self.csv_path, newline="", encoding="utf-8") as handle:
            for row in csv.reader(handle):
                if not row or row[0].startswith("#"):
                    continue
                project, collector, dump_type, timestamp, duration, path = row[:6]
                specs.append(
                    DumpFileSpec(
                        path=path.strip(),
                        project=project.strip(),
                        collector=collector.strip(),
                        dump_type=dump_type.strip(),
                        timestamp=int(timestamp),
                        duration=int(duration),
                    )
                )
        specs.sort(key=lambda s: (s.timestamp, s.project, s.collector))
        return specs

    def batches(self, filters: FilterSet) -> Iterator[List[DumpFileSpec]]:
        specs = [s for s in self._load() if _spec_matches(s, filters)]
        if specs:
            yield specs


class SQLiteDataInterface(DataInterface):
    """Read dump-file meta-data from a Broker-format SQLite database."""

    def __init__(self, db_path: str) -> None:
        self.db_path = db_path

    def batches(self, filters: FilterSet) -> Iterator[List[DumpFileSpec]]:
        db = MetadataDB(self.db_path)
        try:
            records = db.query(
                projects=sorted(filters.projects) or None,
                collectors=sorted(filters.collectors) or None,
                dump_types=sorted(filters.record_types) or None,
                interval_start=filters.interval_start,
                interval_end=filters.interval_end,
            )
        finally:
            db.close()
        specs = [_spec_from_record(r) for r in records]
        if specs:
            yield specs


class LiveDataInterface(DataInterface):
    """Live mode: records come off a near-realtime BMP feed, not dump files.

    The interface polls a :class:`~repro.bmp.source.BMPKafkaDataSource`
    (client-pull, §3.3.2: data is requested only when the application is
    ready for more), converts each BMP message into BGPStream records
    through a :class:`~repro.bmp.convert.BMPRecordConverter`, and yields
    them in arrival batches.  The stream applies its filters to live
    records exactly as to replayed ones.

    Long poll: after an empty poll the interface blocks in
    ``source.wait()`` until the feed publishes again, for at most
    ``poll_interval`` (Kafka's ``fetch.max.wait.ms``) before it re-checks
    ``max_empty_polls`` and :meth:`stop` — so latency is the pipeline's,
    not the interval's, and an idle feed costs no CPU.  A source without
    ``wait`` gets a plain ``poll_interval`` sleep instead.

    Bounded polls: one poll takes at most ``max_poll_messages`` Kafka
    messages (default :data:`DEFAULT_MAX_POLL_MESSAGES`; ``None`` drains
    everything) and commits them, so a backlog arrives as a series of
    small batches.  A bounded poll interleaves partitions round-robin
    where the unbounded one concatenates them; per-partition (per-router)
    order, the only order Kafka promises, is the same either way.

    Bounded windows: when the stream's filters carry an ``interval_end``
    (an ``until_ts``), the interface stops as soon as the feed progresses
    past it, so a BGPCorsaro consumer's bins close deterministically in
    live mode.  Without one it polls forever (or until
    ``max_empty_polls`` consecutive empty polls, which simulations set so
    runs terminate).

    Resilience: a ``retry_policy``
    (:class:`~repro.core.resilience.RetryPolicy`) retries polls that raise
    transient errors (:class:`~repro.core.resilience.TransientError` or
    :class:`ConnectionError`) with backoff on the injected clock.  Retries
    happen *between* polls, and a poll commits its consumer offsets only
    on success — so a failed poll delivers nothing and re-delivers
    nothing: the retry path can never duplicate or lose a message.  A
    non-transient error (or retry exhaustion) propagates to the stream
    owner — in the gateway that is the hub's supervisor.
    """

    #: Marks interfaces whose batches are records, not dump-file specs.
    yields_records = True

    def __init__(
        self,
        source: Optional["BMPKafkaDataSource"] = None,
        *,
        broker: Optional["MessageBroker"] = None,
        topics: Optional[Sequence[str]] = None,
        group: Optional[str] = None,
        clock: Optional[Clock] = None,
        poll_interval: float = 1.0,
        max_empty_polls: Optional[int] = None,
        max_poll_messages: Optional[int] = DEFAULT_MAX_POLL_MESSAGES,
        project: Optional[str] = None,
        track_state: Optional[bool] = None,
        converter: Optional["BMPRecordConverter"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
    ) -> None:
        # Imported lazily: repro.bmp depends on repro.core and this module
        # is part of the repro.core package init.
        from repro.bmp.convert import LIVE_PROJECT, BMPRecordConverter
        from repro.bmp.source import DEFAULT_CONSUMER_GROUP, BMPKafkaDataSource

        if source is None:
            if broker is None:
                raise ValueError("LiveDataInterface needs a source or a message broker")
            source = BMPKafkaDataSource(
                broker, topics=topics, group=group or DEFAULT_CONSUMER_GROUP
            )
        elif broker is not None or topics is not None or group is not None:
            raise ValueError("pass either a ready source or broker/topics/group, not both")
        self.source = source
        if converter is not None:
            if project is not None or track_state is not None:
                raise ValueError(
                    "pass either a ready converter or project/track_state, not both"
                )
            self.converter = converter
        else:
            self.converter = BMPRecordConverter(
                project=project or LIVE_PROJECT,
                track_state=True if track_state is None else track_state,
            )
        self.clock = clock or SystemClock()
        #: The longest one idle wait blocks before the loop looks around.
        self.poll_interval = poll_interval
        #: Stop after this many consecutive empty polls — each but the
        #: first preceded by ``poll_interval`` of silence (None = forever).
        self.max_empty_polls = max_empty_polls
        #: Cap on Kafka messages per poll (None = drain everything).
        self.max_poll_messages = max_poll_messages
        self.retry_policy = retry_policy
        #: Polls that had to be retried (transient feed failures absorbed).
        self.poll_retries = 0
        #: Idle waits so far, by what ended them (``/stats`` shows these).
        self.poll_wakeups = {"data": 0, "timeout": 0}
        self._stopped = False

    def batches(self, filters: FilterSet) -> Iterator[List[DumpFileSpec]]:
        raise RuntimeError(
            "LiveDataInterface yields record batches, not dump files; "
            "use record_batches() (BGPStream does this automatically)"
        )

    def stop(self) -> None:
        """End :meth:`record_batches` at its next look-around (any thread).

        An idle feed notices within one ``poll_interval``; a busy one when
        its consumer asks for the next batch.
        """
        self._stopped = True

    def _idle_wait(self) -> bool:
        """Pass up to ``poll_interval`` of idle time; True = data arrived."""
        wait = getattr(self.source, "wait", None)
        with metrics.trace_span("idle"):
            if wait is None:
                # A duck-typed source that cannot block: sleep the interval.
                self.clock.sleep(self.poll_interval)
                woken = False
            else:
                woken = wait(self.poll_interval, self.clock)
        cause = "data" if woken else "timeout"
        self.poll_wakeups[cause] += 1
        if metrics.enabled:
            _poll_wakeups.inc(cause=cause)
        return woken

    def record_batches(self, filters: FilterSet) -> Iterator[List[BGPStreamRecord]]:
        """Poll the feed and yield record batches until the window closes."""
        until_ts = filters.interval_end
        # A window-aware source (BMPKafkaDataSource) leaves messages past
        # the boundary uncommitted in the log, so a later window on the same
        # broker/consumer group picks them up instead of losing them.
        window_aware = until_ts is not None and self._source_accepts_until_ts()
        empty_polls = 0
        # True while the poll about to run was caused by a publish: if it
        # still comes back empty (another topic, a held-back message) it
        # says nothing about silence and does not count as an empty poll.
        woken = False
        while not self._stopped:
            if window_aware:
                pairs = self._poll(until_ts=until_ts)
                # One held-back partition does not mean the whole feed
                # passed the boundary: other partitions may still hold
                # in-window messages (a bounded fetch surfaces them over
                # several polls).  The source owns that determination and
                # reports it as window_drained.
                window_closed = bool(getattr(self.source, "window_drained", False))
                held_back = bool(getattr(self.source, "window_exceeded", False))
            else:
                pairs = self._poll()
                window_closed = False
                held_back = False
            if not pairs:
                if window_closed:
                    return
                if not held_back:
                    # A poll that held something back made progress (the
                    # deferral frees the next fetch's budget for other
                    # partitions) and does not count as an empty poll.
                    if not woken:
                        empty_polls += 1
                        if (
                            self.max_empty_polls is not None
                            and empty_polls >= self.max_empty_polls
                        ):
                            return
                    woken = self._idle_wait()
                continue
            empty_polls = 0
            woken = False
            batch: List[BGPStreamRecord] = []
            with metrics.trace_span("convert"):
                converted = [
                    record
                    for router, message in pairs
                    for record in self.converter.convert(router, message)
                ]
            for record in converted:
                if until_ts is not None and record.time > until_ts:
                    # Overhang of a straddling frame batch (delivered
                    # whole because offsets cannot split a message):
                    # discard it here.  A window-aware source left the
                    # straddling message uncommitted, so the *next*
                    # window re-reads it and these frames are delivered
                    # then — nothing is stranded.  Only a window-unaware
                    # source closes the window here — a window-aware one
                    # may still hold in-window messages on other
                    # partitions and signals the close via
                    # window_drained.
                    if not window_aware:
                        window_closed = True
                    continue
                batch.append(record)
            if batch:
                yield batch
            if window_closed:
                return

    def _poll(self, until_ts: Optional[int] = None):
        """One source poll, through the retry policy when there is one.

        Offsets commit inside a *successful* poll only, so a retried poll
        neither loses nor re-delivers messages — at-most-once per attempt,
        exactly-once across the retry loop.
        """
        if until_ts is not None:

            def call():
                return self.source.poll(self.max_poll_messages, until_ts=until_ts)
        else:

            def call():
                return self.source.poll(self.max_poll_messages)

        with metrics.trace_span("poll"):
            if self.retry_policy is None:
                return call()
            return self.retry_policy.run(
                call, clock=self.clock, on_retry=self._count_retry
            )

    def _count_retry(self, _attempt: int, _exc: BaseException, _delay: float) -> None:
        self.poll_retries += 1

    def _source_accepts_until_ts(self) -> bool:
        try:
            return "until_ts" in inspect.signature(self.source.poll).parameters
        except (TypeError, ValueError):
            return False


# ---------------------------------------------------------------------------
# The named-interface registry
# ---------------------------------------------------------------------------


def _make_broker_interface(
    broker: Optional[Broker] = None,
    archive: Optional[str] = None,
    archives: Optional[Sequence] = None,
    **options,
) -> BrokerDataInterface:
    if broker is None:
        from repro.collectors.archive import Archive

        paths = list(archives or [])
        if archive is not None:
            paths.append(archive)
        if not paths:
            raise ValueError("the broker interface needs broker=... or archive=...")
        broker = Broker(
            archives=[Archive(p) if isinstance(p, str) else p for p in paths]
        )
    elif archive is not None or archives:
        raise ValueError("pass either broker=... or archive(s)=..., not both")
    return BrokerDataInterface(broker, **options)


def _make_csvfile_interface(path: Optional[str] = None, **options) -> CSVFileDataInterface:
    csv_path = path or options.pop("csv_path", None)
    if csv_path is None:
        raise ValueError("the csvfile interface needs path=...")
    return CSVFileDataInterface(csv_path, **options)


def _make_sqlite_interface(path: Optional[str] = None, **options) -> SQLiteDataInterface:
    db_path = path or options.pop("db_path", None)
    if db_path is None:
        raise ValueError("the sqlite interface needs path=...")
    return SQLiteDataInterface(db_path, **options)


def _make_singlefile_interface(
    path: Optional[str] = None, dump_type: str = "updates", **options
) -> SingleFileDataInterface:
    if path is None:
        raise ValueError("the singlefile interface needs path=...")
    return SingleFileDataInterface(path, dump_type=dump_type, **options)


#: name -> factory.  Factories accept keyword options only.
_INTERFACE_REGISTRY: Dict[str, Callable[..., DataInterface]] = {
    "broker": _make_broker_interface,
    "csvfile": _make_csvfile_interface,
    "sqlite": _make_sqlite_interface,
    "singlefile": _make_singlefile_interface,
    "kafka": LiveDataInterface,
    "bmp": LiveDataInterface,  # alias: the kafka interface carries BMP frames
}


def data_interface_names() -> List[str]:
    """The registered interface names."""
    return sorted(_INTERFACE_REGISTRY)


def make_data_interface(
    name: Union[str, DataInterface], **options
) -> DataInterface:
    """Build a data interface from its registry name (instances pass through).

    This is the paper's named-interface idiom:
    ``BGPStream(data_interface="sqlite", interface_options={"path": ...})``
    next to the instance-passing API.
    """
    if isinstance(name, DataInterface):
        if options:
            raise ValueError("options are only accepted with a registry name")
        return name
    factory = _INTERFACE_REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown data interface {name!r}; expected one of {data_interface_names()}"
        )
    return factory(**options)


def _spec_from_record(record) -> DumpFileSpec:
    return DumpFileSpec(
        path=record.path,
        project=record.project,
        collector=record.collector,
        dump_type=record.dump_type,
        timestamp=record.timestamp,
        duration=record.duration,
    )


def _spec_matches(spec: DumpFileSpec, filters: FilterSet) -> bool:
    if filters.projects and spec.project not in filters.projects:
        return False
    if filters.collectors and spec.collector not in filters.collectors:
        return False
    if filters.record_types and spec.dump_type not in filters.record_types:
        return False
    if filters.interval_start is not None and spec.interval_end < filters.interval_start:
        return False
    if filters.interval_end is not None and spec.timestamp > filters.interval_end:
        return False
    return True
