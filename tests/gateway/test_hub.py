"""StreamHub fan-out semantics: decode once, deliver exactly, never stall.

ISSUE 7 satellite: N concurrent subscribers with disjoint and overlapping
filters receive exactly the elems their FilterSet admits, in timestamp
order; a deliberately slow subscriber observes coalesced/dropped windows
(with gap markers) while a fast peer on the same feed stays gapless — and
the decode loop finishes regardless.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bmp import BMPFeedProducer, BMPMessage, BMPPeerHeader
from repro.core import metrics
from repro.core.elem import BGPElem, ElemType
from repro.core.filters import FilterSet
from repro.core.interfaces import LiveDataInterface
from repro.core.stream import BGPStream
from repro.gateway.hub import GatewayWindow, StreamHub, Subscriber
from repro.kafka.broker import MessageBroker

BASE_TS = 1_450_000_000


def make_update(peer_asn, prefix, ts):
    peer = BMPPeerHeader(
        address=f"10.0.0.{peer_asn - 65000}", asn=peer_asn, timestamp_sec=ts
    )
    update = BGPUpdate(
        announced=[Prefix.from_string(prefix)],
        attributes=PathAttributes(
            as_path=ASPath.from_asns([peer_asn, 3356, 15169]),
            next_hop="192.0.2.1",
        ),
    )
    return BMPMessage.route_monitoring(peer, update)


def publish_feed(messages) -> MessageBroker:
    broker = MessageBroker()
    producer = BMPFeedProducer(broker, router="rtr1.gw")
    for message in messages:
        producer.publish(message)
    return broker


def live_hub(messages) -> StreamHub:
    stream = BGPStream(
        data_interface=LiveDataInterface(
            broker=publish_feed(messages), max_empty_polls=1, poll_interval=0.0
        )
    )
    return StreamHub(stream)


def striped_feed(seconds=12, nets=("10.1", "10.2", "10.3")):
    """One announcement per net per second, two peers alternating."""
    messages, expect = [], {net: [] for net in nets}
    for i in range(seconds):
        for j, net in enumerate(nets):
            prefix = f"{net}.{i}.0/24"
            messages.append(make_update(65001 + (i + j) % 2, prefix, BASE_TS + i))
            expect[net].append(prefix)
    return messages, expect


def delivered(subscriber):
    """(prefixes, times, windows) drained from a subscriber, in pop order."""
    prefixes, times, windows = [], [], []
    while (window := subscriber.pop_window()) is not None:
        windows.append(window)
        for elem in window.elems:
            prefixes.append(str(elem.prefix))
            times.append(elem.time)
    return prefixes, times, windows


class TestFanOut:
    def test_disjoint_filters_partition_the_feed_exactly(self):
        messages, expect = striped_feed()
        hub = live_hub(messages)
        subs = {
            net: hub.subscribe(FilterSet().add("prefix", f"{net}.0.0/16"))
            for net in expect
        }
        hub.run()
        total = 0
        for net, subscriber in subs.items():
            prefixes, times, windows = delivered(subscriber)
            assert prefixes == expect[net]  # exactly its slice, nothing else
            assert times == sorted(times)  # timestamp order
            starts = [w.start for w in windows]
            assert starts == sorted(starts)
            assert not any(w.has_gap for w in windows)
            total += len(prefixes)
        assert total == hub.elems_delivered == len(messages)

    def test_overlapping_filters_see_shared_elem_objects(self):
        messages, expect = striped_feed()
        hub = live_hub(messages)
        by_prefix = hub.subscribe(FilterSet().add("prefix", "10.1.0.0/16"))
        by_peer = hub.subscribe(FilterSet().add("peer-asn", "65001"))
        hub.run()
        prefix_elems = [e for w in by_prefix.drain() for e in w.elems]
        peer_elems = [e for w in by_peer.drain() for e in w.elems]
        assert [str(e.prefix) for e in prefix_elems] == expect["10.1"]
        assert all(e.peer_asn == 65001 for e in peer_elems)
        # The overlap is delivered to both — as the *same* decoded objects
        # (fan-out cost is match_elem, never a re-decode).
        overlap = {id(e) for e in prefix_elems} & {id(e) for e in peer_elems}
        expected_overlap = [e for e in prefix_elems if e.peer_asn == 65001]
        assert len(expected_overlap) > 0
        assert overlap == {id(e) for e in expected_overlap}
        assert hub.elems_delivered == len(prefix_elems) + len(peer_elems)

    def test_decode_happens_once_for_many_subscribers(self):
        messages, _ = striped_feed()
        hub = live_hub(messages)
        for _ in range(50):
            hub.subscribe(FilterSet())
        metrics.enable()
        metrics.reset_decode_counts()
        try:
            hub.run()
        finally:
            metrics.disable()
        source = hub.stream._interface.source
        assert source.frames_decoded == len(messages)  # once, not 50×
        assert metrics.decode_counts()["bmp_frames_scanned"] == len(messages)
        assert hub.elems_seen == len(messages)
        assert hub.elems_delivered == 50 * len(messages)
        assert hub.stats()["frames_decoded"] == len(messages)

    def test_unmatched_subscriber_gets_no_windows_but_finishes(self):
        messages, _ = striped_feed(seconds=3)
        hub = live_hub(messages)
        subscriber = hub.subscribe(FilterSet().add("prefix-exact", "192.0.2.0/24"))
        hub.run()
        assert subscriber.finished
        assert subscriber.pop_window() is None
        assert subscriber.snapshot()["elems_matched"] == 0

    def test_late_subscriber_to_finished_feed_terminates(self):
        hub = live_hub([make_update(65001, "10.1.0.0/24", BASE_TS)])
        hub.run()
        late = hub.subscribe(FilterSet())
        assert late.finished  # drains nothing but must not hang a server
        assert late.pop_window() is None


class TestBackpressure:
    def test_slow_subscriber_coalesces_while_fast_peer_stays_gapless(self):
        seconds = 40
        messages, expect = striped_feed(seconds=seconds, nets=("10.1", "10.2"))
        hub = live_hub(messages)
        fast = hub.subscribe(FilterSet(), max_queued_windows=1000)
        slow = hub.subscribe(FilterSet(), max_queued_windows=3, coalesce_budget=6)
        # Nobody pops while the feed runs: the decode loop must still finish
        # (bounded queues coalesce/drop — they never block the bridge).
        hub.run()
        assert hub.finished

        fast_prefixes, fast_times, fast_windows = delivered(fast)
        assert len(fast_windows) == seconds  # one per feed second, gapless
        assert not any(w.has_gap or w.coalesced for w in fast_windows)
        assert fast_times == sorted(fast_times)
        assert len(fast_prefixes) == len(messages)

        slow_prefixes, _, slow_windows = delivered(slow)
        assert len(slow_windows) <= 3  # the bound held
        assert any(w.coalesced for w in slow_windows)
        assert any(w.has_gap for w in slow_windows)
        # Exact accounting: every matched elem was either delivered or
        # recorded in a gap marker — nothing vanished silently.
        snap = slow.snapshot()
        assert snap["elems_matched"] == len(messages)
        assert len(slow_prefixes) + sum(w.dropped_elems for w in slow_windows) == len(
            messages
        )
        assert snap["elems_dropped"] == sum(w.dropped_elems for w in slow_windows)
        # Truncation always sheds the *oldest* elems: what survives is the
        # most recent tail of the feed, still in timestamp order.
        assert slow_prefixes == fast_prefixes[-len(slow_prefixes):]

    def test_whole_window_drop_records_gap_on_successor(self):
        subscriber = Subscriber(max_queued_windows=1, coalesce_budget=1)
        for second in range(4):
            window = GatewayWindow(second, second + 1)
            window.elems = [object()]
            subscriber._push(window)
        # Budget 1 leaves no room to coalesce: three oldest windows dropped
        # wholly, the survivor carries the gap.
        assert subscriber.ready_count == 1
        survivor = subscriber.pop_window()
        assert survivor.gap_before == 3
        assert survivor.dropped_elems == 3
        assert survivor.has_gap
        assert subscriber.snapshot()["windows_dropped"] == 3

    def test_coalesced_window_widens_span_and_counts_merges(self):
        subscriber = Subscriber(max_queued_windows=1, coalesce_budget=100)
        for second in range(3):
            window = GatewayWindow(second, second + 1)
            window.elems = [second]
            subscriber._push(window)
        merged = subscriber.pop_window()
        assert (merged.start, merged.end) == (0, 3)
        assert merged.elems == [0, 1, 2]
        assert merged.coalesced == 2
        assert not merged.has_gap  # coalescing alone loses nothing


class TestSubscriberUnit:
    def elems(self, seconds=10, net="10.1"):
        messages = [
            make_update(65001, f"{net}.{i}.0/24", BASE_TS + i) for i in range(seconds)
        ]
        stream = BGPStream(
            data_interface=LiveDataInterface(
                broker=publish_feed(messages), max_empty_polls=1, poll_interval=0.0
            )
        )
        return [elem for _, elem in stream.elems()]

    def test_event_time_windows_bin_by_elem_time(self):
        subscriber = Subscriber(window_size=4)
        for elem in self.elems(seconds=10):
            assert subscriber.offer(elem)
        subscriber.flush(finished=True)
        windows = subscriber.drain()
        assert [w.end - w.start for w in windows] == [4, 4, 4]
        assert [len(w.elems) for w in windows] == [4, 4, 2]
        for window in windows:
            assert all(window.start <= int(e.time) < window.end for e in window.elems)

    def test_multiplexing_add_remove_filter_mid_stream(self):
        subscriber = Subscriber(FilterSet().add("prefix", "10.1.0.0/16"))
        elems = self.elems(seconds=6)
        for elem in elems[:2]:
            assert subscriber.offer(elem)
        subscriber.add_filter("peer-asn", "65002")  # now requires both
        for elem in elems[2:4]:
            assert not subscriber.offer(elem)  # peer is 65001
        subscriber.remove_filter("peer-asn", "65002")
        for elem in elems[4:]:
            assert subscriber.offer(elem)
        subscriber.flush(finished=True)
        prefixes = [str(e.prefix) for w in subscriber.drain() for e in w.elems]
        assert prefixes == ["10.1.0.0/24", "10.1.1.0/24", "10.1.4.0/24", "10.1.5.0/24"]

    def test_set_interval_bounds_delivery(self):
        subscriber = Subscriber()
        subscriber.set_interval(BASE_TS + 2, BASE_TS + 4)
        offered = [subscriber.offer(elem) for elem in self.elems(seconds=8)]
        assert offered == [False, False, True, True, True, False, False, False]

    def test_notifier_fires_once_for_a_consumer_that_never_pops(self):
        # Edge-triggered: only the empty -> non-empty transition notifies,
        # however many windows close behind it; finish always does.
        closes = 6
        fired = []
        subscriber = Subscriber(window_size=1, max_queued_windows=closes + 1)
        subscriber.set_notifier(lambda: fired.append(subscriber.ready_count))
        elems = self.elems(seconds=closes + 1)
        for elem in elems:
            subscriber.offer(elem)
        assert subscriber.ready_count == closes  # the last window is still open
        assert fired == [1]
        subscriber.flush(finished=True)
        assert fired == [1, closes + 1]
        # A notifier registered late (windows already pending) fires at once.
        other = Subscriber(window_size=1)
        for elem in elems:
            other.offer(elem)
        late = []
        other.set_notifier(lambda: late.append(True))
        assert late == [True]

    def test_notifier_fires_per_close_for_a_consumer_that_drains(self):
        closes = 6
        fired = []
        popped = []

        def consume():
            fired.append(True)
            while (window := subscriber.pop_window()) is not None:
                popped.append(window)

        subscriber = Subscriber(window_size=1)
        subscriber.set_notifier(consume)
        for elem in self.elems(seconds=closes + 1):
            subscriber.offer(elem)
        assert len(fired) == closes  # the queue emptied before every close
        subscriber.flush(finished=True)
        assert len(fired) == closes + 1
        assert [w.start for w in popped] == [BASE_TS + i for i in range(closes + 1)]

    def test_no_wakeup_is_lost_between_producer_and_consumer_threads(self):
        # The server's consumer shape: wait, clear, pop until None.  With
        # edge-triggered notifications every window must still arrive, in
        # order, and the consumer must never sleep on a non-empty queue
        # once the producer is done (that would be a lost wake-up).
        windows = 10_000
        subscriber = Subscriber(window_size=1, max_queued_windows=windows + 1)
        wake = threading.Event()
        subscriber.set_notifier(wake.set)
        received = []
        stranded = []

        def consume():
            while True:
                if not wake.wait(timeout=10):
                    stranded.append(subscriber.ready_count)
                    return
                wake.clear()
                while (window := subscriber.pop_window()) is not None:
                    received.append(window.start)
                if subscriber.finished and subscriber.ready_count == 0:
                    return

        consumer = threading.Thread(target=consume)
        consumer.start()
        for second in range(windows):
            subscriber.offer(
                BGPElem(ElemType.ANNOUNCEMENT, BASE_TS + second, "10.0.0.1", 65001)
            )
        subscriber.flush(finished=True)
        consumer.join(timeout=60)
        assert not consumer.is_alive()
        assert stranded == []
        assert received == [BASE_TS + second for second in range(windows)]
        assert subscriber.snapshot()["windows_closed"] == windows

    def test_offer_is_safe_against_concurrent_multiplexing(self):
        subscriber = Subscriber(FilterSet().add("prefix", "10.1.0.0/16"))
        elems = self.elems(seconds=10) * 50
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                subscriber.add_filter("peer-asn", "65002")
                subscriber.remove_filter("peer-asn", "65002")

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            matched = sum(1 for elem in elems if subscriber.offer(elem))
        finally:
            stop.set()
            thread.join()
        subscriber.flush(finished=True)
        assert matched == sum(len(w.elems) for w in subscriber.drain())

    def test_constructor_rejects_degenerate_knobs(self):
        with pytest.raises(ValueError):
            Subscriber(window_size=0)
        with pytest.raises(ValueError):
            Subscriber(max_queued_windows=0)


class TestHubLifecycle:
    def test_hub_requires_a_live_stream(self):
        with pytest.raises(ValueError, match="live"):
            StreamHub(BGPStream())

    def test_unsubscribe_stops_delivery(self):
        messages, _ = striped_feed(seconds=3)
        hub = live_hub(messages)
        subscriber = hub.subscribe(FilterSet())
        hub.unsubscribe(subscriber)
        hub.unsubscribe(subscriber)  # idempotent
        hub.run()
        assert subscriber.snapshot()["elems_matched"] == 0
        assert hub.subscriber_count == 0

    def test_background_start_joins_and_flushes(self):
        messages, _ = striped_feed(seconds=3)
        hub = live_hub(messages)
        subscriber = hub.subscribe(FilterSet())
        hub.start()
        with pytest.raises(RuntimeError):
            hub.start()
        hub.join(timeout=30)
        assert hub.finished and subscriber.finished
        assert subscriber.snapshot()["elems_matched"] == len(messages)
        hub.stop()  # no-op after finish

    def test_stop_interrupts_an_idle_feed_within_one_poll_interval(self):
        # The bridge is blocked in the idle wait of a feed that never ends
        # (max_empty_polls=None); it used to outlive stop() altogether.
        interface = LiveDataInterface(broker=MessageBroker(), poll_interval=0.2)
        hub = StreamHub(BGPStream(data_interface=interface))
        subscriber = hub.subscribe(FilterSet())
        thread = hub.start()
        time.sleep(0.05)  # let the bridge reach its wait
        started = time.perf_counter()
        hub.stop()
        assert time.perf_counter() - started < 0.5
        assert not thread.is_alive()
        assert hub.finished and subscriber.finished and hub.error is None
        assert hub.stats()["poll_wakeups"]["data"] == 0

    def test_stats_report_fanout_and_intern_counters(self):
        messages, _ = striped_feed(seconds=3)
        hub = live_hub(messages)
        hub.subscribe(FilterSet())
        hub.run()
        stats = hub.stats()
        assert stats["records_seen"] == len(messages)
        assert stats["elems_seen"] == len(messages)
        assert stats["elems_delivered"] == len(messages)
        assert stats["finished"] is True
        assert stats["frames_decoded"] == len(messages)
        assert stats["corrupt_frames"] == 0
        # live_hub ends at the first empty poll: no idle wait ever ran
        assert stats["poll_wakeups"] == {"data": 0, "timeout": 0}
        assert stats["intern"]  # the shared pool saw traffic
