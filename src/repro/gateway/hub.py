"""The fan-out hub: one decode loop, N filtered subscribers.

The :class:`StreamHub` owns a live :class:`~repro.core.stream.BGPStream`
(BMP-over-Kafka feed) and runs its decode loop in **one** bridge thread.
Every elem is decoded exactly once; each :class:`Subscriber` then sees the
shared elem objects through its own trie-backed
:class:`~repro.core.filters.FilterSet` and its own event-time window —
never a re-decode.

Fan-out goes through a *subscription index*, not over the roster: the hub
files every subscriber under the prefixes it watches in one shared
:class:`~repro.bgp.trie.PrefixTrie`, so the per-elem cost is one
``covering(elem.prefix)`` walk plus one :meth:`Subscriber.offer` per
*candidate*, not one per subscriber.  Subscribers the trie cannot decide
(no prefix term, or a ``prefix-less``/``prefix-any`` term) sit on an
always-probe list, which is also all that an elem without a prefix is
offered to.  The index is a superset pre-filter — ``offer`` still makes
the whole decision under the subscriber's lock — so what is delivered is
exactly what offering every elem to every subscriber would deliver.  A
roster or filter change (:meth:`StreamHub.subscribe` /
:meth:`~StreamHub.unsubscribe`, :meth:`Subscriber.add_filter` /
:meth:`~Subscriber.remove_filter` — the only supported ways to change
them) marks the index stale; the bridge checks that one flag per record
and rebuilds before the next fan-out, so a change is visible no later
than the next record.  ``elems_offered`` counts the offers made.

Backpressure is per subscriber and never reaches the decode loop: closed
windows land in a bounded deque; when a slow consumer lets it fill, the
oldest two windows *coalesce* into one (elems concatenated, span widened)
up to an elem budget — and once the budget leaves no room for the oldest
window at all, that window is dropped wholly and its successor carries a
gap marker (``gap_before`` / ``dropped_elems``).  A fast subscriber on the
same feed stays gapless throughout.

The hub is asyncio-agnostic: the server layer bridges into an event loop by
registering a notifier callback per subscriber
(:meth:`Subscriber.set_notifier` → ``loop.call_soon_threadsafe``); a
benchmark or test can equally drive :meth:`StreamHub.run` synchronously and
pop windows directly.  Notifications are edge-triggered — fired when a
ready queue goes empty → non-empty or the feed finishes, not per window:
each one is a self-pipe write that hands the GIL over, and a bridge that
fired per window kept the loop it was waking from ever running.

Resilience: the decode loop runs under a
:class:`~repro.core.resilience.Supervisor`.  A bridge crash (a poll path
that exhausted its retries, a decode bug) is never silent: every
subscriber's next window carries a ``crash_before`` marker, the hub
rebuilds its stream through ``stream_factory`` and resumes from the
consumer group's committed offsets — the PR 5 window-holdback machinery
makes that boundary exact, so a crash can neither lose nor duplicate
elems (offsets commit inside successful polls only).  When the restart
budget is spent the hub *gives up cleanly*: subscribers finish with
``error`` set, so the server sends a distinct error frame instead of a
flush indistinguishable from end-of-stream.  Subscribers can additionally
retain delivered-but-unacked windows (``retain_unacked``) — the server's
reconnect-with-cursor resume tokens are built on :meth:`Subscriber.ack` /
:meth:`Subscriber.requeue_unacked`.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Callable, Collection, Dict, List, Optional

from repro.core import metrics
from repro.bgp.prefix import Prefix
from repro.bgp.trie import PrefixTrie
from repro.core.elem import BGPElem
from repro.core.filters import MATCH_ANY, MATCH_LESS, FilterSet
from repro.core.intern import default_pool
from repro.core.resilience import RetryPolicy, Supervisor
from repro.core.stream import BGPStream
from repro.utils.timeutil import Clock, SystemClock

__all__ = ["GatewayWindow", "Subscriber", "StreamHub"]

#: Default width of a subscriber's event-time window, in feed seconds.
DEFAULT_WINDOW_SIZE = 1

#: Default bound on closed windows queued per subscriber.
DEFAULT_MAX_QUEUED_WINDOWS = 8

#: Default cap on elems a coalesced window may accumulate before the
#: oldest elems are dropped (the gap marker records how many).
DEFAULT_COALESCE_BUDGET = 4096

#: Default bridge restart budget when the hub can rebuild its stream.
DEFAULT_MAX_RESTARTS = 3

#: Telemetry (see docs/OBSERVABILITY.md).  The hub keeps its existing exact
#: per-instance counters (stats() and the tests read those); the registry
#: view is *bridged* — ``collected=True`` families are reset each scrape
#: and repopulated by a weakref-bound collector per live hub, summing over
#: hubs and their subscribers.  The hot path pays nothing for them.
_hub_records = metrics.counter(
    "repro_hub_records_total",
    "Records the hub decode loop consumed, summed over live hubs.",
    collected=True,
)
_hub_elems = metrics.counter(
    "repro_hub_elems_total",
    "Elems seen by the decode loop vs admitted into subscriber windows.",
    labelnames=("kind",),
    collected=True,
)
_hub_windows = metrics.counter(
    "repro_hub_windows_total",
    "Subscriber window events (closed, coalesced, dropped), summed over "
    "every subscriber of every live hub.",
    labelnames=("event",),
    collected=True,
)
_hub_elems_dropped = metrics.counter(
    "repro_hub_backpressure_dropped_elems_total",
    "Elems discarded by subscriber backpressure (coalesce-budget "
    "truncation and wholly dropped windows).",
    collected=True,
)
_hub_subscribers = metrics.gauge(
    "repro_hub_subscribers",
    "Subscribers currently attached, summed over live hubs.",
    collected=True,
)
_hub_queue_depth = metrics.gauge(
    "repro_hub_subscriber_queue_depth",
    "Ready (undelivered) windows queued per named subscriber; anonymous "
    "subscribers aggregate under 'anonymous'.",
    labelnames=("subscriber",),
    collected=True,
)


def _elem_payload(elem: BGPElem) -> Dict:
    fields = elem.field_dict()
    communities = fields.get("communities")
    if isinstance(communities, (set, frozenset)):
        fields["communities"] = sorted(communities)  # JSON has no sets
    return {
        "elem_type": str(elem.elem_type),
        "time": elem.time,
        "peer_address": elem.peer_address,
        "peer_asn": elem.peer_asn,
        "fields": fields,
    }


class GatewayWindow:
    """One closed event-time window of elems for one subscriber."""

    __slots__ = (
        "start",
        "end",
        "elems",
        "coalesced",
        "dropped_elems",
        "gap_before",
        "crash_before",
    )

    def __init__(self, start: int, end: int) -> None:
        self.start = start
        self.end = end  # exclusive
        self.elems: List[BGPElem] = []
        #: Number of older windows merged into this one under backpressure.
        self.coalesced = 0
        #: Elems discarded immediately before or within this window under
        #: backpressure (budget truncation + wholly dropped predecessors).
        self.dropped_elems = 0
        #: Whole windows discarded immediately before this one.
        self.gap_before = 0
        #: Bridge crashes (followed by a supervised restart) that occurred
        #: before this window was delivered — the explicit crash marker.
        self.crash_before = 0

    @property
    def has_gap(self) -> bool:
        return self.dropped_elems > 0 or self.gap_before > 0 or self.crash_before > 0

    def payload(self) -> Dict:
        """The JSON-ready wire form (elems as ``field_dict`` views)."""
        body = {
            "type": "window",
            "window_start": self.start,
            "window_end": self.end,
            "elems": [_elem_payload(elem) for elem in self.elems],
        }
        if self.coalesced:
            body["coalesced"] = self.coalesced
        if self.dropped_elems:
            body["dropped_elems"] = self.dropped_elems
        if self.gap_before:
            body["gap_before"] = self.gap_before
        if self.crash_before:
            body["crash_before"] = self.crash_before
        return body

    def __repr__(self) -> str:
        return (
            f"GatewayWindow([{self.start}, {self.end}), {len(self.elems)} elems"
            + (f", coalesced={self.coalesced}" if self.coalesced else "")
            + (f", gap_before={self.gap_before}" if self.gap_before else "")
            + ")"
        )


class Subscriber:
    """One consumer of the shared feed: filters + window + bounded queue.

    All mutable state is guarded by ``_lock`` — the bridge thread matches
    and windows elems under it, while connection handlers add/remove
    filters (subscription multiplexing) and pop closed windows from their
    own threads/tasks.  Every operation under the lock is small and
    allocation-light, so the decode loop never waits long.
    """

    def __init__(
        self,
        filters: Optional[FilterSet] = None,
        *,
        window_size: int = DEFAULT_WINDOW_SIZE,
        max_queued_windows: int = DEFAULT_MAX_QUEUED_WINDOWS,
        coalesce_budget: int = DEFAULT_COALESCE_BUDGET,
        retain_unacked: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if max_queued_windows <= 0:
            raise ValueError("max_queued_windows must be positive")
        self.name = name
        self.filters = filters if filters is not None else FilterSet()
        self.window_size = int(window_size)
        self.max_queued_windows = max_queued_windows
        self.coalesce_budget = coalesce_budget
        #: Keep popped windows until :meth:`ack` releases them, so a
        #: reconnecting client can replay what it never acknowledged.
        self.retain_unacked = retain_unacked
        self._lock = threading.Lock()
        self._current: Optional[GatewayWindow] = None
        self._ready: List[GatewayWindow] = []
        self._inflight: List[GatewayWindow] = []
        self._notifier: Optional[Callable[[], None]] = None
        #: Set by the hub that owns this subscriber: called after every
        #: filter change so the hub's subscription index is rebuilt.
        self._on_filters_changed: Optional[Callable[[], None]] = None
        self._pending_crash = 0
        self.finished = False
        #: The terminal bridge error, set only when the hub gave up (a
        #: recovered crash leaves markers, not an error).
        self.error: Optional[BaseException] = None
        #: Highest window boundary the client has acknowledged.
        self.acked_through: Optional[int] = None
        # Counters (read under the lock via snapshot()).
        self.elems_matched = 0
        self.windows_closed = 0
        self.windows_coalesced = 0
        self.windows_dropped = 0
        self.elems_dropped = 0
        self.crashes = 0

    # -- multiplexing (called from connection handlers) --------------------

    def add_filter(self, name: str, value: str) -> None:
        with self._lock:
            self.filters.add(name, value)
        self._filters_changed()

    def remove_filter(self, name: str, value: str) -> None:
        with self._lock:
            self.filters.remove(name, value)
        self._filters_changed()

    def _filters_changed(self) -> None:
        # After the change and outside the lock: the hub re-reads the
        # filters (under this lock) no later than its next record.
        changed = self._on_filters_changed
        if changed is not None:
            changed()

    def set_interval(self, start: int, end: Optional[int]) -> None:
        with self._lock:
            self.filters.add_interval(start, end)

    def set_notifier(self, notifier: Optional[Callable[[], None]]) -> None:
        """Register a callback fired (from the bridge thread) when the
        ready queue becomes non-empty, or the feed finishes — the server
        layer passes ``lambda: loop.call_soon_threadsafe(event.set)``.

        The notification is edge-triggered: windows that close while
        earlier ones are still queued do not fire again, so a consumer
        must pop until :meth:`pop_window` returns ``None`` on every
        wake-up.  (Registering late, with windows already pending or the
        feed already finished, fires at once.)"""
        with self._lock:
            self._notifier = notifier
            pending = bool(self._ready) or self.finished
        if notifier is not None and pending:
            notifier()

    # -- the bridge-thread side --------------------------------------------

    def offer(self, elem: BGPElem) -> bool:
        """Match one shared elem; window it if admitted.  Returns whether
        the elem was admitted (the hub's fan-out statistics)."""
        notify = False
        with self._lock:
            filters = self.filters
            if filters.interval_start is not None and elem.time < filters.interval_start:
                return False
            if filters.interval_end is not None and elem.time > filters.interval_end:
                return False
            if not filters.match_elem(elem):
                return False
            self.elems_matched += 1
            index = int(elem.time) // self.window_size
            current = self._current
            if current is None:
                self._current = current = self._open(index)
            elif int(elem.time) >= current.end:
                notify = self._push(current)
                self._current = current = self._open(index)
            # Late elems (time before the open window) stay in the open
            # window: delivery beats strict binning on a live feed.
            current.elems.append(elem)
        if notify:
            self._fire()
        return True

    def flush(self, finished: bool = False, error: Optional[BaseException] = None) -> None:
        """Close the open window (end of feed / stop) and optionally mark
        the subscriber finished so drains terminate.  ``error`` marks a
        terminal bridge failure — consumers then surface a distinct error
        frame instead of a clean end-of-stream."""
        notify = False
        with self._lock:
            current = self._current
            if current is not None and current.elems:
                notify = self._push(current)
            self._current = None
            if finished:
                self.finished = True
                if error is not None:
                    self.error = error
                notify = True
        if notify:
            self._fire()

    def mark_crash(self) -> None:
        """Record a bridge crash: the next delivered window carries a
        ``crash_before`` marker.  The open window stays open — elems that
        arrive after the supervised restart keep filling it, so window
        spans never overlap and nothing is delivered twice."""
        with self._lock:
            self.crashes += 1
            self._pending_crash += 1

    def _open(self, index: int) -> GatewayWindow:
        start = index * self.window_size
        return GatewayWindow(start, start + self.window_size)

    def _push(self, window: GatewayWindow) -> bool:
        """Queue a closed window; coalesce/drop under backpressure.
        Returns True when the consumer should be notified — the queue went
        from empty to non-empty (a consumer that has windows queued was
        already told, and drains fully per wake-up).  Caller holds the
        lock."""
        self.windows_closed += 1
        if self._pending_crash:
            window.crash_before += self._pending_crash
            self._pending_crash = 0
        ready = self._ready
        was_empty = not ready
        ready.append(window)
        while len(ready) > self.max_queued_windows:
            oldest, second = ready[0], ready[1]
            overflow = len(oldest.elems) + len(second.elems) - self.coalesce_budget
            if overflow >= len(oldest.elems):
                # The budget leaves no room for any of the oldest window's
                # elems: drop it wholly, marking the gap on its successor.
                second.gap_before += oldest.gap_before + oldest.coalesced + 1
                second.dropped_elems += oldest.dropped_elems + len(oldest.elems)
                second.crash_before += oldest.crash_before
                self.windows_dropped += 1
                self.elems_dropped += len(oldest.elems)
                del ready[0]
                continue
            # Coalesce the two oldest into one wider window...
            merged = GatewayWindow(oldest.start, second.end)
            merged.elems = oldest.elems + second.elems
            merged.coalesced = oldest.coalesced + second.coalesced + 1
            merged.dropped_elems = oldest.dropped_elems + second.dropped_elems
            merged.gap_before = oldest.gap_before
            merged.crash_before = oldest.crash_before + second.crash_before
            self.windows_coalesced += 1
            # ...bounded by the elem budget: past it, the oldest elems go.
            if len(merged.elems) > self.coalesce_budget:
                overflow = len(merged.elems) - self.coalesce_budget
                del merged.elems[:overflow]
                merged.dropped_elems += overflow
                self.elems_dropped += overflow
            ready[:2] = [merged]
        return was_empty

    def _fire(self) -> None:
        notifier = self._notifier
        if notifier is not None:
            try:
                notifier()
            except Exception:  # pragma: no cover - a dead loop must not
                pass  # kill the bridge thread

    # -- the consuming side ------------------------------------------------

    def pop_window(self) -> Optional[GatewayWindow]:
        """The oldest ready window, or None.

        With ``retain_unacked`` the popped window also enters the in-flight
        buffer, where it stays until :meth:`ack` covers its end boundary
        (or the buffer overflows — then the oldest unacked window sheds
        with the same gap accounting as queue backpressure)."""
        with self._lock:
            if not self._ready:
                return None
            window = self._ready.pop(0)
            if self.retain_unacked:
                self._inflight.append(window)
                self._shed_inflight_locked()
            return window

    def ack(self, boundary: int) -> int:
        """Release retained windows ending at or before ``boundary``.

        Returns how many windows the ack released.  ``boundary`` is the
        ``window_end`` the client last processed — exactly what its resume
        token names."""
        with self._lock:
            before = len(self._inflight)
            self._inflight = [w for w in self._inflight if w.end > boundary]
            if self.acked_through is None or boundary > self.acked_through:
                self.acked_through = boundary
            return before - len(self._inflight)

    def requeue_unacked(self) -> int:
        """Put every retained window back at the head of the ready queue.

        A reconnecting client calls this (after acking through its resume
        token) so windows it received but never acknowledged are delivered
        again, oldest first, ahead of anything that queued meanwhile.
        Returns how many windows were requeued."""
        with self._lock:
            count = len(self._inflight)
            if count:
                self._ready[:0] = self._inflight
                self._inflight = []
        if count:
            self._fire()
        return count

    def _shed_inflight_locked(self) -> None:
        # A client that never acks must not pin unbounded memory: past the
        # queue bound, the oldest unacked window sheds and its successor
        # (still retained, so a future reconnect sees it) carries the gap.
        while len(self._inflight) > self.max_queued_windows:
            oldest = self._inflight.pop(0)
            successor = self._inflight[0]
            successor.gap_before += oldest.gap_before + oldest.coalesced + 1
            successor.dropped_elems += oldest.dropped_elems + len(oldest.elems)
            successor.crash_before += oldest.crash_before
            self.windows_dropped += 1
            self.elems_dropped += len(oldest.elems)

    def drain(self) -> List[GatewayWindow]:
        """All ready windows at once (benchmark/test convenience)."""
        with self._lock:
            out, self._ready = self._ready, []
        return out

    @property
    def ready_count(self) -> int:
        with self._lock:
            return len(self._ready)

    @property
    def inflight_count(self) -> int:
        with self._lock:
            return len(self._inflight)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "elems_matched": self.elems_matched,
                "windows_closed": self.windows_closed,
                "windows_coalesced": self.windows_coalesced,
                "windows_dropped": self.windows_dropped,
                "elems_dropped": self.elems_dropped,
                "crashes": self.crashes,
                "ready": len(self._ready),
                "inflight": len(self._inflight),
            }


class StreamHub:
    """One decode loop fanning a live BGPStream out to N subscribers.

    With a ``stream_factory`` the decode loop is *supervised*: a bridge
    crash marks every subscriber (``crash_before``), the stream is rebuilt
    through the factory — the consumer group's committed offsets are the
    resume point, so nothing is lost or re-delivered — and the loop
    restarts, up to ``max_restarts`` times with ``restart_backoff``
    between attempts.  Without a factory the budget defaults to zero and
    the first crash is terminal, but still *surfaced*: subscribers finish
    with ``error`` set and :meth:`stats` reports the exception class.
    """

    def __init__(
        self,
        stream: Optional[BGPStream] = None,
        *,
        stream_factory: Optional[Callable[[], BGPStream]] = None,
        max_restarts: Optional[int] = None,
        restart_backoff: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if stream is None:
            if stream_factory is None:
                raise ValueError("StreamHub needs a stream or a stream_factory")
            stream = stream_factory()
        if not stream.is_live:
            raise ValueError(
                "StreamHub needs a live BGPStream "
                "(BGPStream(data_interface=LiveDataInterface(...)))"
            )
        self.stream = stream
        self._stream_factory = stream_factory
        if max_restarts is None:
            max_restarts = DEFAULT_MAX_RESTARTS if stream_factory is not None else 0
        if max_restarts > 0 and stream_factory is None:
            raise ValueError("a restart budget needs a stream_factory to rebuild with")
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.clock = clock or SystemClock()
        self._supervisor: Optional[Supervisor] = None
        self._lock = threading.Lock()
        self._subscribers: List[Subscriber] = []
        # The subscription index (bridge-thread state, see _rebuild_index):
        # watched prefix -> subscribers watching it, plus the subscribers
        # the trie cannot decide.  Any roster or filter change marks it
        # stale; the bridge rebuilds it before its next record.
        self._watchers: PrefixTrie = PrefixTrie()
        self._always: List[Subscriber] = []
        self._index_stale = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.records_seen = 0
        self.elems_seen = 0
        #: ``Subscriber.offer`` calls the bridge made (index candidates).
        self.elems_offered = 0
        self.elems_delivered = 0
        self.restarts = 0
        self.started = False
        self.finished = False
        self.gave_up = False
        self.error: Optional[BaseException] = None
        # Bridge this hub into the telemetry registry for as long as the
        # instance lives (weakref-owned — no deregistration needed).
        metrics.default_registry().add_collector(StreamHub._collect_metrics, owner=self)

    def _collect_metrics(self) -> None:
        """Scrape-time bridge: fold this hub's exact counters in."""
        _hub_records.add_total(self.records_seen)
        _hub_elems.add_total(self.elems_seen, kind="seen")
        _hub_elems.add_total(self.elems_offered, kind="offered")
        _hub_elems.add_total(self.elems_delivered, kind="delivered")
        subscribers = self.subscribers()
        _hub_subscribers.inc(len(subscribers))
        closed = coalesced = dropped = elems_dropped = 0
        for subscriber in subscribers:
            snap = subscriber.snapshot()
            closed += snap["windows_closed"]
            coalesced += snap["windows_coalesced"]
            dropped += snap["windows_dropped"]
            elems_dropped += snap["elems_dropped"]
            _hub_queue_depth.inc(snap["ready"], subscriber=subscriber.name or "anonymous")
        _hub_windows.add_total(closed, event="closed")
        _hub_windows.add_total(coalesced, event="coalesced")
        _hub_windows.add_total(dropped, event="dropped")
        _hub_elems_dropped.add_total(elems_dropped)

    # -- subscriptions ------------------------------------------------------

    def subscribe(
        self,
        filters: Optional[FilterSet] = None,
        *,
        window_size: int = DEFAULT_WINDOW_SIZE,
        max_queued_windows: int = DEFAULT_MAX_QUEUED_WINDOWS,
        coalesce_budget: int = DEFAULT_COALESCE_BUDGET,
        retain_unacked: bool = False,
        name: Optional[str] = None,
    ) -> Subscriber:
        subscriber = Subscriber(
            filters,
            window_size=window_size,
            max_queued_windows=max_queued_windows,
            coalesce_budget=coalesce_budget,
            retain_unacked=retain_unacked,
            name=name,
        )
        with self._lock:
            if self.finished:
                # A late joiner of a finished feed drains nothing but must
                # still terminate cleanly (and see the terminal error, if
                # the feed died rather than ended).
                subscriber.finished = True
                if self.gave_up:
                    subscriber.error = self.error
            subscriber._on_filters_changed = self._mark_index_stale
            self._subscribers.append(subscriber)
        self._mark_index_stale()
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                return
        self._mark_index_stale()

    def subscribers(self) -> List[Subscriber]:
        """A snapshot of the roster, safe to iterate from any thread."""
        with self._lock:
            return list(self._subscribers)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    # -- the subscription index ---------------------------------------------

    def _mark_index_stale(self) -> None:
        # Always called *after* the roster/filter change it reports, so a
        # rebuild that clears the flag first cannot miss the change.
        self._index_stale = True

    def _rebuild_index(self) -> None:
        """Re-derive the subscription index from the roster (bridge thread).

        Subscribers whose every prefix term is ``prefix``/``prefix-more``/
        ``prefix-exact`` can only match elems their watched prefixes
        *cover*, so they are filed under those prefixes in one shared
        trie.  Subscribers the trie cannot decide — no prefix term at all,
        or a ``prefix-less``/``prefix-any`` term (those match elems that
        contain the watched prefix) — go on the always-probe list.
        """
        self._index_stale = False  # before reading: a later change re-marks
        groups: Dict[Prefix, List[Subscriber]] = {}
        always: List[Subscriber] = []
        for subscriber in self.subscribers():
            with subscriber._lock:
                filters = subscriber.filters
                if filters.prefix_mode_mask & (MATCH_LESS | MATCH_ANY):
                    watched = []
                else:
                    watched = list(filters.prefix_filters)
            if not watched:
                always.append(subscriber)
            for prefix in watched:
                groups.setdefault(prefix, []).append(subscriber)
        self._watchers, self._always = PrefixTrie(groups.items()), always

    # -- the decode loop ----------------------------------------------------

    def run(self) -> None:
        """Consume the live stream until it ends (or :meth:`stop`).

        Every record decodes once; every elem extracts once; subscribers
        see the shared objects.  Runs in the caller's thread — use
        :meth:`start` for the background-thread form.  The loop runs under
        a :class:`~repro.core.resilience.Supervisor`; once the restart
        budget is spent the terminal exception is re-raised here (the
        threaded form records it instead — either way subscribers finish
        with ``error`` set, never with a clean-looking flush).
        """
        supervisor = Supervisor(
            self._run_once,
            max_restarts=self.max_restarts,
            backoff=self.restart_backoff,
            clock=self.clock,
            on_crash=self._handle_crash,
            name="gateway-bridge",
        )
        self._supervisor = supervisor
        try:
            supervisor.supervise()
        except BaseException as exc:
            self.error = exc
            self.gave_up = True
            self._finish(exc)
            raise
        else:
            self._finish(None)

    def _run_once(self) -> None:
        """One bridge attempt over the current stream (raises on error)."""
        self.started = True
        if self._stop.is_set():
            # stop() raced a restart and may have told the old stream.
            return
        for record in self.stream.records():
            if self._stop.is_set():
                return
            self.records_seen += 1
            if not record.is_valid:
                continue
            # Joins, leaves and filter changes are observed at record
            # granularity: one flag test per record, a rebuild only when
            # something changed.
            if self._index_stale:
                self._rebuild_index()
            if metrics.enabled:
                with metrics.trace_span("fanout"):
                    self._fan_out(record)
            else:
                self._fan_out(record)

    def _fan_out(self, record) -> None:
        """Offer one record's elems to the subscribers that may want them.

        One walk of the shared trie per elem names every subscriber
        watching a prefix that covers it; those plus the always-probe list
        are a superset of the matching subscribers, and
        :meth:`Subscriber.offer` still makes the whole decision.
        """
        always = self._always
        covering = self._watchers.covering
        for elem in record.elems():
            self.elems_seen += 1
            candidates: Collection[Subscriber] = always
            prefix = elem.prefix
            if prefix is not None:
                groups = [group for _watched, group in covering(prefix)]
                if groups:
                    # A subscriber watching several nested prefixes is in
                    # several groups, and is still offered the elem once.
                    candidates = dict.fromkeys(chain(always, *groups))
            self.elems_offered += len(candidates)
            for subscriber in candidates:
                if subscriber.offer(elem):
                    self.elems_delivered += 1

    def _handle_crash(self, exc: BaseException, crash_no: int) -> bool:
        """Supervisor hook: mark every subscriber, rebuild the stream.

        Returning False vetoes the restart (no factory, or the rebuild
        itself failed) and the supervisor gives up.
        """
        self.error = exc
        for subscriber in self.subscribers():
            subscriber.mark_crash()
        if self._stream_factory is None or self._stop.is_set():
            return False
        try:
            # The rebuilt stream's source joins the same broker + consumer
            # group: committed offsets survive the crash, so the new bridge
            # resumes exactly after the last successfully polled message.
            self.stream = self._stream_factory()
        except Exception:
            return False
        self.restarts += 1
        return True

    def _finish(self, error: Optional[BaseException]) -> None:
        with self._lock:
            self.finished = True
        for subscriber in self.subscribers():
            subscriber.flush(finished=True, error=error)

    def start(self) -> threading.Thread:
        """Run the (supervised) decode loop in a daemon bridge thread."""
        if self._thread is not None:
            raise RuntimeError("hub already started")
        self._thread = threading.Thread(target=self._guarded_run, daemon=True)
        self._thread.start()
        return self._thread

    def _guarded_run(self) -> None:
        try:
            self.run()
        except BaseException:  # noqa: BLE001 - recorded in self.error and
            pass  # surfaced through subscriber.error / stats()["error"]

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Ask the decode loop to stop and join the bridge thread.

        A bridge blocked on an idle feed notices within one
        ``poll_interval`` of its live interface.
        """
        self._stop.set()
        self.stream.stop()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=timeout)

    def join(self, timeout: Optional[float] = None) -> None:
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)

    @property
    def crashes(self) -> int:
        """Bridge crashes so far (terminal one included)."""
        supervisor = self._supervisor
        return supervisor.crashes if supervisor is not None else 0

    def stats(self) -> Dict:
        interface = self.stream._interface
        source = getattr(interface, "source", None)
        error = self.error
        body = {
            "subscribers": self.subscriber_count,
            "records_seen": self.records_seen,
            "elems_seen": self.elems_seen,
            "elems_offered": self.elems_offered,
            "elems_delivered": self.elems_delivered,
            "finished": self.finished,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "gave_up": self.gave_up,
            "error": type(error).__name__ if error is not None else None,
        }
        if source is not None:
            body["frames_decoded"] = getattr(source, "frames_decoded", None)
            body["corrupt_frames"] = getattr(source, "corrupt_frames", None)
            body["poll_wakeups"] = dict(getattr(interface, "poll_wakeups", {}))
        body["intern"] = {
            kind: counters["hits"] + counters["misses"] + counters["overflow"]
            for kind, counters in default_pool().stats().items()
        }
        return body
