"""Tests for the messaging substrate: topics, consumer groups, sync servers."""

from __future__ import annotations

import sys
import threading
import time
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.kafka.broker import MessageBroker, Topic
from repro.kafka.client import Consumer, Producer
from repro.kafka.sync import CompletenessSyncServer, TimeoutSyncServer, publish_bin_metadata
from repro.utils.timeutil import SimulatedClock


class TestTopic:
    def test_offsets_increase_per_partition(self):
        topic = Topic("t", num_partitions=1)
        first = topic.append("k", "a")
        second = topic.append("k", "b")
        assert (first.offset, second.offset) == (0, 1)

    def test_keyed_messages_land_in_same_partition(self):
        topic = Topic("t", num_partitions=4)
        partitions = {topic.append("stable-key", i).partition for i in range(10)}
        assert len(partitions) == 1

    def test_keyed_partitioning_is_stable_across_interpreters(self):
        # hash(str) is salted per process (PYTHONHASHSEED); a router must
        # land on the same partition every run, so the key goes through
        # crc32.  The constants pin the mapping itself.
        topic = Topic("t", num_partitions=8)
        assert topic.partition_for("rtr1.example") == zlib.crc32(b"rtr1.example") % 8
        assert [topic.partition_for(f"r{i}") for i in range(6)] == [7, 1, 3, 5, 6, 0]

    def test_read_from_offset(self):
        topic = Topic("t")
        for value in "abc":
            topic.append(None, value)
        assert [m.value for m in topic.read(0, 1)] == ["b", "c"]
        assert [m.value for m in topic.read(0, 0, max_messages=2)] == ["a", "b"]

    def test_requires_positive_partitions(self):
        with pytest.raises(ValueError):
            Topic("t", num_partitions=0)


class TestBrokerAndClients:
    def test_consumer_group_walks_forward(self):
        broker = MessageBroker()
        producer = Producer(broker, default_topic="data")
        for value in range(5):
            producer.send(value)
        consumer = Consumer(broker, group="g", topics=["data"])
        first = consumer.poll(max_messages=3)
        assert [m.value for m in first] == [0, 1, 2]
        second = consumer.poll()
        assert [m.value for m in second] == [3, 4]
        assert consumer.poll() == []
        assert consumer.lag() == 0

    def test_independent_groups_see_all_messages(self):
        broker = MessageBroker()
        producer = Producer(broker, default_topic="data")
        for value in range(3):
            producer.send(value)
        a = Consumer(broker, group="a", topics=["data"])
        b = Consumer(broker, group="b", topics=["data"])
        assert len(a.poll()) == 3
        assert len(b.poll()) == 3

    def test_uncommitted_poll_is_replayed(self):
        broker = MessageBroker()
        Producer(broker, default_topic="data").send("x")
        consumer = Consumer(broker, group="g", topics=["data"])
        assert len(consumer.poll(commit=False)) == 1
        assert len(consumer.poll()) == 1

    def test_seek_to_beginning_replays(self):
        broker = MessageBroker()
        producer = Producer(broker, default_topic="data")
        for value in range(4):
            producer.send(value)
        consumer = Consumer(broker, group="g", topics=["data"])
        consumer.poll()
        consumer.seek_to_beginning()
        assert len(consumer.poll()) == 4

    def test_producer_requires_topic(self):
        with pytest.raises(ValueError):
            Producer(MessageBroker()).send("x")

    def test_bounded_poll_interleaves_topics_round_robin(self):
        # Regression: with max_messages set, topics used to be drained in
        # list order, so a busy first topic starved the rest.
        broker = MessageBroker()
        busy = Producer(broker, default_topic="busy")
        quiet = Producer(broker, default_topic="quiet")
        for value in range(100):
            busy.send(f"busy-{value}")
        for value in range(3):
            quiet.send(f"quiet-{value}")
        consumer = Consumer(broker, group="g", topics=["busy", "quiet"])
        polled = consumer.poll(max_messages=6)
        assert len(polled) == 6
        by_topic = {m.value for m in polled if m.topic == "quiet"}
        assert by_topic == {"quiet-0", "quiet-1", "quiet-2"}
        # one message per topic per round while both topics have backlog
        assert [m.topic for m in polled[:4]] == ["busy", "quiet", "busy", "quiet"]

    def test_create_topic_rejects_partition_count_mismatch(self):
        # "Ensure it exists" (no count) tolerates anything; an explicit
        # count that contradicts the existing topic must not be dropped
        # silently.
        broker = MessageBroker()
        broker.create_topic("data", num_partitions=4)
        assert broker.create_topic("data").num_partitions == 4
        with pytest.raises(ValueError, match="4 partitions"):
            broker.create_topic("data", num_partitions=1)

    def test_bounded_poll_interleaves_partitions_round_robin(self):
        # Same starvation pattern one level down: within a topic, a busy
        # partition 0 must not starve the rest under a bounded budget.
        broker = MessageBroker()
        broker.create_topic("data", num_partitions=2)
        producer = Producer(broker, default_topic="data")
        topic = broker.topic("data")
        busy_partition = topic.partition_for("busy-router")
        quiet_key = next(
            f"r{i}"
            for i in range(100)
            if topic.partition_for(f"r{i}") != busy_partition
        )
        for value in range(50):
            producer.send(f"busy-{value}", key="busy-router")
        for value in range(3):
            producer.send(f"quiet-{value}", key=quiet_key)
        consumer = Consumer(broker, group="g", topics=["data"])
        polled = consumer.poll(max_messages=6)
        assert len(polled) == 6
        quiet_seen = {m.value for m in polled if m.partition != busy_partition}
        assert quiet_seen == {"quiet-0", "quiet-1", "quiet-2"}
        # commits stay contiguous per partition: the next poll continues
        # where the busy partition left off
        assert [m.value for m in consumer.poll(max_messages=3)] == [
            "busy-3",
            "busy-4",
            "busy-5",
        ]

    def test_bounded_poll_commits_only_returned_messages(self):
        broker = MessageBroker()
        producer = Producer(broker, default_topic="data")
        for value in range(10):
            producer.send(value)
        consumer = Consumer(broker, group="g", topics=["data"])
        assert [m.value for m in consumer.poll(max_messages=4)] == [0, 1, 2, 3]
        # the fetched-but-unreturned tail is re-read by the next poll
        assert [m.value for m in consumer.poll(max_messages=4)] == [4, 5, 6, 7]
        assert [m.value for m in consumer.poll()] == [8, 9]

    def test_bounded_poll_exhausts_all_topics(self):
        broker = MessageBroker()
        for topic in ("a", "b", "c"):
            producer = Producer(broker, default_topic=topic)
            for value in range(2):
                producer.send(f"{topic}-{value}")
        consumer = Consumer(broker, group="g", topics=["a", "b", "c"])
        assert len(consumer.poll(max_messages=100)) == 6
        assert consumer.poll(max_messages=100) == []

    def test_lag_counts_unconsumed(self):
        broker = MessageBroker()
        producer = Producer(broker, default_topic="data")
        for value in range(7):
            producer.send(value)
        consumer = Consumer(broker, group="g", topics=["data"])
        consumer.poll(max_messages=2)
        assert consumer.lag() == 5

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(), max_size=50), st.integers(1, 5))
    def test_every_message_delivered_exactly_once_per_group(self, values, batch):
        broker = MessageBroker()
        producer = Producer(broker, default_topic="data")
        for value in values:
            producer.send(value)
        consumer = Consumer(broker, group="g", topics=["data"])
        received = []
        while True:
            messages = consumer.poll(max_messages=batch)
            if not messages:
                break
            received.extend(m.value for m in messages)
        assert received == values


class TestLongPoll:
    """``Consumer.wait``: wake on publish, never on lag."""

    def test_wait_times_out_in_silence_on_simulated_time(self):
        broker = MessageBroker()
        consumer = Consumer(broker, group="g", topics=["data"])
        clock = SimulatedClock(100.0)
        assert consumer.poll() == []
        started = time.perf_counter()
        assert consumer.wait(30.0, clock) is False
        assert clock.now() == 130.0
        assert time.perf_counter() - started < 1.0  # no real time slept

    def test_publish_since_the_last_fetch_ends_the_wait_at_once(self):
        broker = MessageBroker()
        producer = Producer(broker, default_topic="data")
        consumer = Consumer(broker, group="g", topics=["data"])
        clock = SimulatedClock(0.0)
        assert consumer.poll() == []
        producer.send("x")
        assert consumer.wait(30.0, clock) is True
        assert clock.now() == 0.0  # woken, not timed out
        assert [m.value for m in consumer.poll()] == ["x"]
        assert consumer.wait(30.0, clock) is False

    def test_uncommitted_backlog_does_not_end_the_wait(self):
        # The wake condition is "published since my last fetch began", not
        # lag() > 0: messages left uncommitted on purpose must block, not
        # spin.
        broker = MessageBroker()
        Producer(broker, default_topic="data").send("held back")
        consumer = Consumer(broker, group="g", topics=["data"])
        assert len(consumer.poll(commit=False)) == 1
        assert consumer.lag() == 1
        started = time.perf_counter()
        assert consumer.wait(0.05) is False
        assert time.perf_counter() - started >= 0.04

    def test_wait_wakes_on_a_publish_from_another_thread(self):
        broker = MessageBroker()
        producer = Producer(broker, default_topic="data")
        consumer = Consumer(broker, group="g", topics=["data"])
        assert consumer.poll() == []
        publisher = threading.Timer(0.05, producer.send, args=("x",))
        publisher.start()
        try:
            started = time.perf_counter()
            assert consumer.wait(5.0) is True
            assert time.perf_counter() - started < 1.0
        finally:
            publisher.join(5)
        assert [m.value for m in consumer.poll()] == ["x"]

    def test_poll_with_timeout_blocks_for_the_first_message(self):
        broker = MessageBroker()
        producer = Producer(broker, default_topic="data")
        consumer = Consumer(broker, group="g", topics=["data"])
        publisher = threading.Timer(0.05, producer.send, args=("x",))
        publisher.start()
        try:
            started = time.perf_counter()
            assert [m.value for m in consumer.poll(timeout=5.0)] == ["x"]
            assert time.perf_counter() - started < 1.0
        finally:
            publisher.join(5)
        assert consumer.poll(timeout=0.01) == []

    def test_a_publish_during_the_fetch_is_not_a_lost_wakeup(self):
        # The sequence number is sampled before the fetch reads the log: a
        # message that lands after the read but before wait() still wakes.
        broker = MessageBroker()
        producer = Producer(broker, default_topic="data")
        consumer = Consumer(broker, group="g", topics=["data"])
        consumer.begin_fetch()
        empty = broker.consume("data", "g")
        producer.send("raced")
        assert empty == []
        assert consumer.wait(30.0, SimulatedClock(0.0)) is True

    def test_many_producers_never_lose_a_wakeup_or_a_message(self):
        # More producer threads than cores and a short switch interval.  A
        # lost update of the sequence number fails the count; a lost
        # notification strands the consumer in 5 s waits and fails the
        # time bound.
        producers, each = 8, 250
        broker = MessageBroker()
        broker.create_topic("data", num_partitions=4)
        consumer = Consumer(broker, group="g", topics=["data"])

        def produce(worker):
            for index in range(each):
                broker.produce("data", (worker, index), key=f"worker-{worker}")

        threads = [threading.Thread(target=produce, args=(w,)) for w in range(producers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            received = []
            deadline = time.perf_counter() + 20.0
            for thread in threads:
                thread.start()
            while time.perf_counter() < deadline:
                # The consumer's contract: drain until a poll comes back
                # empty, and only then wait.
                while batch := consumer.poll(max_messages=100):
                    received.extend(batch)
                if len(received) >= producers * each:
                    break
                consumer.wait(5.0)
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert time.perf_counter() < deadline - 15.0
        assert broker.publish_seq == producers * each
        values = [message.value for message in received]
        assert sorted(values) == [(w, i) for w in range(producers) for i in range(each)]
        for worker in range(producers):  # per-key order survives the interleave
            assert [i for w, i in values if w == worker] == list(range(each))
        assert consumer.wait(0.01) is False

    def test_reset_offsets_replays_one_topic_of_one_group(self):
        broker = MessageBroker()
        broker.create_topic("data", num_partitions=2)
        for index in range(6):
            broker.produce("data", index, key=f"k{index}")
            broker.produce("other", index)
        a = Consumer(broker, group="a", topics=["data", "other"])
        b = Consumer(broker, group="b", topics=["data"])
        assert len(a.poll()) == 12 and len(b.poll()) == 6
        broker.reset_offsets("a", "data")
        assert sorted(m.value for m in a.poll()) == list(range(6))
        assert b.poll() == []


class TestSyncServers:
    def _publish(self, broker, collector, interval, published_at):
        producer = Producer(broker)
        publish_bin_metadata(producer, collector, interval, diff_count=1, published_at=published_at)

    def test_completeness_waits_for_all_collectors(self):
        broker = MessageBroker()
        sync = CompletenessSyncServer(
            broker, "ioda", expected_collectors=["rrc0", "route-views2"], timeout=1800
        )
        self._publish(broker, "rrc0", 600, published_at=900)
        assert sync.step(now=901) == []
        self._publish(broker, "route-views2", 600, published_at=1000)
        ready = sync.step(now=1001)
        assert len(ready) == 1
        assert ready[0].interval_start == 600
        assert ready[0].complete
        # The decision is published on the application's sync topic.
        consumer = Consumer(broker, group="app", topics=[sync.ready_topic])
        assert len(consumer.poll()) == 1

    def test_completeness_timeout_releases_incomplete_bin(self):
        broker = MessageBroker()
        sync = CompletenessSyncServer(
            broker, "ioda", expected_collectors=["rrc0", "route-views2"], timeout=1800
        )
        self._publish(broker, "rrc0", 600, published_at=900)
        assert sync.step(now=1000) == []
        ready = sync.step(now=900 + 1800)
        assert len(ready) == 1
        assert not ready[0].complete

    def test_timeout_server_prioritises_latency(self):
        broker = MessageBroker()
        sync = TimeoutSyncServer(
            broker, "hijacks", expected_collectors=["rrc0", "route-views2"], timeout=120
        )
        self._publish(broker, "rrc0", 600, published_at=900)
        assert sync.step(now=950) == []
        ready = sync.step(now=1021)
        assert len(ready) == 1 and not ready[0].complete

    def test_each_bin_decided_once(self):
        broker = MessageBroker()
        sync = TimeoutSyncServer(broker, "app", expected_collectors=["rrc0"], timeout=60)
        self._publish(broker, "rrc0", 600, published_at=900)
        assert len(sync.step(now=1000)) == 1
        self._publish(broker, "rrc0", 600, published_at=1100)  # duplicate metadata
        assert sync.step(now=1200) == []
