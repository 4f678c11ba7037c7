"""Supervised recovery and reconnect bookkeeping of the live gateway.

ISSUE 9 satellite: N injected bridge crashes yield exactly N crash
markers, zero duplicate elems and zero lost elems (the consumer group's
committed offsets are the resume point); a bounded restart budget
eventually gives up *cleanly* — subscribers finish with a distinct error,
never with a flush that looks like end-of-stream; and the ack/in-flight
retention that reconnect-with-cursor builds on replays exactly the
unacknowledged suffix.
"""

from __future__ import annotations

import pytest

from repro.bmp import BMPFeedProducer
from repro.bmp.source import BMPKafkaDataSource
from repro.core.interfaces import LiveDataInterface
from repro.core.resilience import RetryPolicy
from repro.core.stream import BGPStream
from repro.gateway.hub import StreamHub, Subscriber
from repro.kafka.broker import MessageBroker
from repro.utils.timeutil import SimulatedClock

from test_hub import BASE_TS, delivered, make_update, publish_feed, striped_feed
from tests.fault_injection import FaultPlan, inject_faults

TOPIC = "openbmp.bmp_raw"


def supervised_hub(messages, plan, *, max_restarts=8, group="resilience.gw"):
    """A hub whose (fault-injected) stream is rebuilt by a factory.

    Every rebuilt source joins the same broker + consumer group, so the
    committed offsets survive each crash — exactly the production resume
    discipline.  The fault plan is shared across rebuilds: its call
    counter keeps advancing, so scripted faults hit whichever incarnation
    makes the fatal poll.
    """
    broker = publish_feed(messages)

    def stream_factory() -> BGPStream:
        source = BMPKafkaDataSource(broker, topics=[TOPIC], group=group)
        faulty = inject_faults(source, plan, ["poll"])
        interface = LiveDataInterface(
            source=faulty, max_empty_polls=2, poll_interval=0.0
        )
        return BGPStream(data_interface=interface)

    return StreamHub(
        stream_factory=stream_factory,
        max_restarts=max_restarts,
        restart_backoff=RetryPolicy(max_retries=max_restarts, base=0.0),
        clock=SimulatedClock(0.0),
    )


class TestSupervisedRecovery:
    def test_n_crashes_yield_n_markers_no_loss_no_duplicates(self):
        messages, expect = striped_feed(seconds=10, nets=("10.1", "10.2"))
        flat_expect = None

        # Fault-free reference run.
        clean_hub = supervised_hub(messages, FaultPlan())
        reference = clean_hub.subscribe(max_queued_windows=64)
        clean_hub.run()
        ref_prefixes, ref_times, ref_windows = delivered(reference)
        flat_expect = ref_prefixes
        assert sum(w.crash_before for w in ref_windows) == 0

        # Same scenario with three scripted non-transient poll crashes.
        # The feed fits in one bounded poll, so each successful poll drains
        # what is available; faults at later call indices land between
        # polls of different incarnations.
        plan = FaultPlan(fail_at=(0, 2, 4), error=RuntimeError)
        hub = supervised_hub(messages, plan)
        subscriber = hub.subscribe(max_queued_windows=64)
        hub.run()

        prefixes, times, windows = delivered(subscriber)
        assert prefixes == flat_expect  # zero loss, zero duplicates, in order
        assert times == ref_times
        assert sum(w.crash_before for w in windows) == 3  # N crashes, N markers
        assert hub.crashes == 3
        assert hub.restarts == 3
        assert not hub.gave_up
        assert subscriber.error is None  # recovered: clean finish
        assert subscriber.crashes == 3
        stats = hub.stats()
        assert stats["crashes"] == 3 and stats["restarts"] == 3
        assert stats["error"] == "RuntimeError"  # last crash stays visible

    def test_a_crash_mid_fanout_loses_at_most_one_bounded_poll(self):
        """Offsets commit per poll, so what a crash between a poll's commit
        and its fan-out can lose is that poll's remainder (<= 500 messages),
        not the whole backlog a restarted gateway finds waiting."""
        routers, total, crash_at = 3, 5000, 100
        broker = MessageBroker()
        broker.create_topic(TOPIC, num_partitions=routers)
        producer = BMPFeedProducer(broker, topic=TOPIC)
        names = _routers_on_distinct_partitions(broker.topic(TOPIC), routers)
        for i in range(total):
            prefix = f"10.{i >> 8}.{i & 0xFF}.0/24"
            producer.publish(
                make_update(65001, prefix, BASE_TS + i // 100), router=names[i % routers]
            )

        def hub_for(group):
            def stream_factory() -> BGPStream:
                return BGPStream(
                    data_interface=LiveDataInterface(
                        broker=broker,
                        topics=[TOPIC],
                        group=group,
                        max_empty_polls=1,
                        poll_interval=0.0,
                    )
                )

            return StreamHub(
                stream_factory=stream_factory,
                restart_backoff=RetryPolicy(max_retries=8, base=0.0),
                clock=SimulatedClock(0.0),
            )

        clean = hub_for("bounded.clean")
        reference = clean.subscribe(max_queued_windows=128)
        clean.run()
        expect, _, _ = delivered(reference)
        assert len(expect) == total

        hub = hub_for("bounded.crash")
        subscriber = hub.subscribe(max_queued_windows=128)
        fan_out, calls = hub._fan_out, []

        def crash_once(record):
            calls.append(record)
            if len(calls) == crash_at + 1:
                raise RuntimeError("bridge bug while fanning out")
            fan_out(record)

        hub._fan_out = crash_once
        hub.run()

        prefixes, _, windows = delivered(subscriber)
        assert hub.crashes == 1 and hub.restarts == 1 and not hub.gave_up
        assert sum(w.crash_before for w in windows) == 1
        assert len(set(prefixes)) == len(prefixes)  # none duplicated
        # Delivered before the crash, then everything from the next poll on:
        # the loss is the committed remainder of the first 500-message poll.
        assert prefixes == expect[:crash_at] + expect[500:]
        assert 0 < total - len(prefixes) <= 500

    def test_restart_budget_exhaustion_gives_up_with_a_distinct_error(self):
        messages, _ = striped_feed(seconds=4, nets=("10.1",))
        plan = FaultPlan(fail_from=0, error=RuntimeError)  # permanent outage
        hub = supervised_hub(messages, plan, max_restarts=2)
        subscriber = hub.subscribe()

        with pytest.raises(RuntimeError):
            hub.run()  # inline callers see the terminal error

        assert hub.gave_up
        assert hub.crashes == 3  # initial + 2 restarts
        assert hub.restarts == 2
        assert subscriber.finished  # drains terminate...
        assert isinstance(subscriber.error, RuntimeError)  # ...but not cleanly
        stats = hub.stats()
        assert stats["gave_up"] is True
        assert stats["error"] == "RuntimeError"
        assert stats["restarts"] == 2

    def test_threaded_give_up_is_recorded_not_swallowed(self):
        messages, _ = striped_feed(seconds=3, nets=("10.1",))
        plan = FaultPlan(fail_from=0, error=RuntimeError)
        hub = supervised_hub(messages, plan, max_restarts=1)
        subscriber = hub.subscribe()
        hub.start()
        hub.join(timeout=10.0)
        assert hub.finished
        assert hub.gave_up
        assert isinstance(hub.error, RuntimeError)
        # The satellite bugfix: pop_window() callers can distinguish this
        # from clean end-of-stream.
        assert subscriber.finished and isinstance(subscriber.error, RuntimeError)

    def test_no_factory_means_first_crash_is_terminal_but_surfaced(self):
        messages, _ = striped_feed(seconds=3, nets=("10.1",))
        broker = publish_feed(messages)
        source = BMPKafkaDataSource(broker, topics=[TOPIC], group="one-shot.gw")
        faulty = inject_faults(source, FaultPlan(fail_at=(0,), error=RuntimeError), ["poll"])
        stream = BGPStream(
            data_interface=LiveDataInterface(
                source=faulty, max_empty_polls=1, poll_interval=0.0
            )
        )
        hub = StreamHub(stream)
        subscriber = hub.subscribe()
        with pytest.raises(RuntimeError):
            hub.run()
        assert hub.crashes == 1 and hub.restarts == 0 and hub.gave_up
        assert isinstance(subscriber.error, RuntimeError)

    def test_transient_faults_are_absorbed_below_the_supervisor(self):
        """With a retry policy on the poll path, scripted transient faults
        never become bridge crashes at all."""
        messages, expect = striped_feed(seconds=6, nets=("10.1",))
        broker = publish_feed(messages)
        plan = FaultPlan(fail_at=(0, 1, 3))  # InjectedFault is transient
        source = BMPKafkaDataSource(broker, topics=[TOPIC], group="transient.gw")
        interface = LiveDataInterface(
            source=inject_faults(source, plan, ["poll"]),
            max_empty_polls=2,
            poll_interval=0.0,
            retry_policy=RetryPolicy(max_retries=4, base=0.0),
            clock=SimulatedClock(0.0),
        )
        hub = StreamHub(BGPStream(data_interface=interface))
        subscriber = hub.subscribe(max_queued_windows=64)
        hub.run()
        prefixes, _, windows = delivered(subscriber)
        assert prefixes == expect["10.1"]
        assert interface.poll_retries == 3
        assert hub.crashes == 0
        assert sum(w.crash_before for w in windows) == 0

    def test_late_subscriber_to_a_dead_hub_sees_the_error(self):
        messages, _ = striped_feed(seconds=3, nets=("10.1",))
        plan = FaultPlan(fail_from=0, error=RuntimeError)
        hub = supervised_hub(messages, plan, max_restarts=0)
        with pytest.raises(RuntimeError):
            hub.run()
        late = hub.subscribe()
        assert late.finished
        assert isinstance(late.error, RuntimeError)


class TestAckRetention:
    def push_windows(self, subscriber, count, elems_per_window=1):
        for i in range(count):
            for j in range(elems_per_window):
                subscriber.offer(_elem(BASE_TS + i, f"10.0.{i}.0/24"))
        subscriber.flush()

    def test_popped_windows_are_retained_until_acked(self):
        subscriber = Subscriber(retain_unacked=True, max_queued_windows=16)
        self.push_windows(subscriber, 4)
        seen = [subscriber.pop_window() for _ in range(4)]
        assert subscriber.inflight_count == 4
        released = subscriber.ack(seen[1].end)
        assert released == 2
        assert subscriber.inflight_count == 2
        assert subscriber.acked_through == seen[1].end

    def test_requeue_replays_exactly_the_unacked_suffix_in_order(self):
        subscriber = Subscriber(retain_unacked=True, max_queued_windows=16)
        self.push_windows(subscriber, 5)
        seen = [subscriber.pop_window() for _ in range(5)]
        subscriber.ack(seen[2].end)  # client processed the first three
        assert subscriber.requeue_unacked() == 2
        replay = [subscriber.pop_window() for _ in range(2)]
        assert [w.start for w in replay] == [seen[3].start, seen[4].start]
        assert subscriber.pop_window() is None

    def test_ack_is_monotonic(self):
        subscriber = Subscriber(retain_unacked=True)
        self.push_windows(subscriber, 2)
        first = subscriber.pop_window()
        second = subscriber.pop_window()
        subscriber.ack(second.end)
        subscriber.ack(first.end)  # a stale ack must not regress
        assert subscriber.acked_through == second.end

    def test_inflight_overflow_sheds_oldest_with_gap_accounting(self):
        subscriber = Subscriber(retain_unacked=True, max_queued_windows=2)
        # Pop each window as it closes without ever acking: the in-flight
        # buffer is bounded at max_queued_windows, shedding oldest-first.
        for i in range(6):
            for _ in range(2):
                subscriber.offer(_elem(BASE_TS + i, f"10.0.{i}.0/24"))
            subscriber.flush()
            assert subscriber.pop_window() is not None
        assert subscriber.inflight_count == 2
        subscriber.requeue_unacked()
        survivors = []
        while (window := subscriber.pop_window()) is not None:
            survivors.append(window)
            subscriber.ack(window.end)
        total_gap = sum(w.gap_before for w in survivors)
        total_dropped = sum(w.dropped_elems for w in survivors)
        assert total_gap == 4  # four shed windows, all marked, never silent
        assert total_dropped == total_gap * 2  # two elems per shed window

    def test_non_retaining_subscriber_keeps_the_old_contract(self):
        subscriber = Subscriber()
        self.push_windows(subscriber, 3)
        while subscriber.pop_window() is not None:
            pass
        assert subscriber.inflight_count == 0
        assert subscriber.requeue_unacked() == 0

    def test_crash_markers_survive_the_retention_path(self):
        subscriber = Subscriber(retain_unacked=True, max_queued_windows=8)
        subscriber.offer(_elem(BASE_TS, "10.0.0.0/24"))
        subscriber.mark_crash()
        subscriber.offer(_elem(BASE_TS + 1, "10.0.1.0/24"))
        subscriber.flush()
        first = subscriber.pop_window()
        second = subscriber.pop_window()
        # The marker rides the first window *delivered* after the crash —
        # the one that was open when the bridge died and stayed open so the
        # restarted bridge could keep filling it without overlap.
        assert first.crash_before == 1
        assert first.has_gap
        assert second.crash_before == 0
        subscriber.requeue_unacked()
        replayed = [subscriber.pop_window() for _ in range(2)]
        assert [w.crash_before for w in replayed] == [1, 0]


def _routers_on_distinct_partitions(topic, count):
    by_partition = {}
    for i in range(100):
        by_partition.setdefault(topic.partition_for(f"rtr{i}.gw"), f"rtr{i}.gw")
    assert len(by_partition) == count == topic.num_partitions
    return list(by_partition.values())


def _elem(ts, prefix):
    """One matched elem via the real decode path (keeps BGPElem realistic)."""
    message = make_update(65001, prefix, ts)
    broker = MessageBroker()
    BMPFeedProducer(broker, router="elem.gw").publish(message)
    stream = BGPStream(
        data_interface=LiveDataInterface(broker=broker, max_empty_polls=1, poll_interval=0.0)
    )
    for record in stream.records():
        for elem in record.elems():
            return elem
    raise AssertionError("no elem decoded")
