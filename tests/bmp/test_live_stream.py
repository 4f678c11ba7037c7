"""End-to-end tests for the live BMP path: Kafka feed, stream, corsaro.

The load-bearing guarantee (ISSUE 5 acceptance): the same UPDATE sequence
delivered via BMP-over-broker yields an elem stream identical to the
MRT-file replay, at ``field_dict`` level, with filters and interning
applied.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import Community, CommunitySet
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bmp.convert import LIVE_PROJECT
from repro.bmp.messages import BMPMessage, BMPPeerHeader
from repro.bmp.source import (
    DEFAULT_BMP_TOPIC,
    BMPFeedProducer,
    BMPKafkaDataSource,
)
from repro.core.interfaces import (
    DEFAULT_MAX_POLL_MESSAGES,
    LiveDataInterface,
    SingleFileDataInterface,
    data_interface_names,
    make_data_interface,
)
from repro.core.record import RecordStatus
from repro.core.stream import BGPStream
from repro.kafka.broker import MessageBroker
from repro.mrt.records import BGP4MPMessage
from repro.mrt.writer import write_updates_dump
from repro.utils.timeutil import SimulatedClock

ROUTER = "rtr1.example"


def make_update(announce=(), withdraw=(), path="65001 65002 65010", communities=()):
    return BGPUpdate(
        announced=[Prefix.from_string(p) for p in announce],
        withdrawn=[Prefix.from_string(p) for p in withdraw],
        attributes=PathAttributes(
            as_path=ASPath.from_string(path),
            next_hop="10.1.2.3",
            communities=CommunitySet([Community(*c) for c in communities])
            if communities
            else None,
        ),
    )


def update_sequence():
    """(timestamp, peer_address, peer_asn, update) — two peers, mixed ops."""
    return [
        (1000, "10.1.2.3", 65001, make_update(announce=("203.0.113.0/24",))),
        (
            1010,
            "10.9.9.9",
            65009,
            make_update(
                announce=("198.51.100.0/24", "192.0.2.0/25"),
                path="65009 65010",
                communities=((65009, 300),),
            ),
        ),
        (1020, "10.1.2.3", 65001, make_update(withdraw=("203.0.113.0/24",))),
        (
            1030,
            "10.1.2.3",
            65001,
            make_update(announce=("203.0.113.0/24",), communities=((65001, 100), (65001, 200))),
        ),
    ]


def publish_sequence(broker, sequence, router=ROUTER):
    producer = BMPFeedProducer(broker, router=router)
    for timestamp, address, asn, update in sequence:
        peer = BMPPeerHeader(address=address, asn=asn, timestamp_sec=timestamp)
        producer.publish(BMPMessage.route_monitoring(peer, update))
    return producer


def mrt_dump_of(sequence, tmp_path):
    path = str(tmp_path / "updates.mrt")
    bodies = [
        (
            timestamp,
            BGP4MPMessage(
                peer_asn=asn,
                local_asn=0,
                peer_address=address,
                local_address="0.0.0.0",
                update=update,
            ),
        )
        for timestamp, address, asn, update in sequence
    ]
    write_updates_dump(path, bodies, compress=False)
    return path


def elem_signature(elem):
    return (str(elem.elem_type), elem.time, elem.peer_asn, elem.peer_address, elem.field_dict())


def live_stream(broker, **interface_options):
    interface = LiveDataInterface(
        broker=broker, max_empty_polls=1, poll_interval=0.0, **interface_options
    )
    return BGPStream(data_interface=interface)


class TestBMPKafkaDataSource:
    def test_round_trip_keyed_by_router(self):
        broker = MessageBroker()
        publish_sequence(broker, update_sequence())
        source = BMPKafkaDataSource(broker)
        pairs = source.poll()
        assert len(pairs) == 4
        assert {router for router, _ in pairs} == {ROUTER}
        assert all(message.is_valid for _, message in pairs)
        assert source.frames_decoded == 4
        assert source.poll() == []  # offsets committed

    def test_corrupt_frame_is_signalled_not_raised(self):
        broker = MessageBroker()
        producer = BMPFeedProducer(broker, router=ROUTER)
        good = BMPMessage.initiation([])
        producer.publish(good)
        producer.publish(good.encode()[:-2])  # truncated raw frame
        source = BMPKafkaDataSource(broker)
        pairs = source.poll()
        assert [message.is_valid for _, message in pairs] == [True, False]
        assert source.corrupt_frames == 1

    def test_seek_to_beginning_replays(self):
        broker = MessageBroker()
        publish_sequence(broker, update_sequence())
        source = BMPKafkaDataSource(broker)
        assert len(source.poll()) == 4
        source.seek_to_beginning()
        assert len(source.poll()) == 4

    def test_lag_and_default_topic(self):
        broker = MessageBroker()
        publish_sequence(broker, update_sequence())
        source = BMPKafkaDataSource(broker)
        assert source.topics == [DEFAULT_BMP_TOPIC]
        assert source.lag() == 4
        source.poll()
        assert source.lag() == 0


class TestLiveEquivalence:
    """BMP-over-broker and MRT-file replay must produce identical elems."""

    def equivalent_streams(self, tmp_path, filters=()):
        sequence = update_sequence()
        broker = MessageBroker()
        publish_sequence(broker, sequence)
        live = live_stream(broker)
        replay = BGPStream(
            data_interface=SingleFileDataInterface(
                mrt_dump_of(sequence, tmp_path),
                dump_type="updates",
                project=LIVE_PROJECT,
                collector=ROUTER,
            )
        )
        for stream in (live, replay):
            stream.add_interval_filter(900, 2000)
            for name, value in filters:
                stream.add_filter(name, value)
        return live, replay

    def test_unfiltered_equivalence(self, tmp_path):
        live, replay = self.equivalent_streams(tmp_path)
        live_elems = [elem_signature(e) for _, e in live.elems()]
        replay_elems = [elem_signature(e) for _, e in replay.elems()]
        assert live_elems == replay_elems
        assert len(live_elems) == 5  # 4 announcements + 1 withdrawal

    def test_equivalence_under_prefix_and_peer_filters(self, tmp_path):
        live, replay = self.equivalent_streams(
            tmp_path, filters=[("prefix-more", "203.0.113.0/24"), ("peer-asn", "65001")]
        )
        live_elems = [elem_signature(e) for _, e in live.elems()]
        replay_elems = [elem_signature(e) for _, e in replay.elems()]
        assert live_elems == replay_elems
        assert len(live_elems) == 3
        assert {s[3] for s in live_elems} == {"10.1.2.3"}

    def test_live_elems_are_interned(self, tmp_path):
        live, _ = self.equivalent_streams(tmp_path)
        elems = [e for _, e in live.elems()]
        first, last = elems[0], elems[-1]
        # same canonical AS path object through the stream's intern pool
        assert str(first.as_path) == str(last.as_path)
        assert first.as_path is last.as_path

    def test_record_metadata(self, tmp_path):
        sequence = update_sequence()
        broker = MessageBroker()
        publish_sequence(broker, sequence)
        records = list(live_stream(broker).records())
        assert all(r.project == LIVE_PROJECT for r in records)
        assert all(r.collector == ROUTER for r in records)
        assert all(r.router == ROUTER for r in records)
        assert [r.time for r in records] == [1000, 1010, 1020, 1030]


class TestBoundedWindows:
    def test_until_ts_closes_the_stream_deterministically(self):
        broker = MessageBroker()
        publish_sequence(broker, update_sequence())
        stream = live_stream(broker)
        stream.add_interval_filter(1000, 1015)
        times = [record.time for record in stream.records()]
        assert times == [1000, 1010]

    def test_empty_feed_terminates_on_max_empty_polls(self):
        stream = live_stream(MessageBroker())
        stream.add_interval_filter(0, None)
        assert list(stream.records()) == []

    def test_max_poll_messages_bounds_batches(self):
        broker = MessageBroker()
        publish_sequence(broker, update_sequence())
        interface = LiveDataInterface(
            broker=broker, max_empty_polls=1, poll_interval=0.0, max_poll_messages=1
        )
        batches = list(interface.record_batches(BGPStream().filters))
        assert [len(batch) for batch in batches] == [1, 1, 1, 1]

    def test_consecutive_windows_share_the_feed_without_loss(self):
        # Messages past until_ts must stay uncommitted in the log: a later
        # window on the same broker and consumer group (the next BGPCorsaro
        # bin) picks them up instead of silently losing everything fetched
        # by the poll that crossed the bin boundary.
        broker = MessageBroker()
        publish_sequence(broker, update_sequence())

        def window_times(start, end):
            stream = live_stream(broker)
            stream.add_interval_filter(start, end)
            return [record.time for record in stream.records()]

        assert window_times(1000, 1015) == [1000, 1010]
        assert window_times(1016, 1040) == [1020, 1030]

    def test_one_boundary_topic_does_not_close_the_window_early(self):
        # A held-back message on one topic must not end the window while
        # other topics still hold in-window messages that a bounded fetch
        # has not surfaced yet.
        broker = MessageBroker()
        ahead = BMPFeedProducer(broker, topic="feed-ahead", router="rtr-ahead")
        ahead.publish(
            BMPMessage.route_monitoring(
                BMPPeerHeader(address="10.9.9.9", asn=65009, timestamp_sec=2000),
                make_update(announce=("198.51.100.0/24",), path="65009 65010"),
            )
        )
        behind = BMPFeedProducer(broker, topic="feed-behind", router="rtr-behind")
        for i in range(10):
            peer = BMPPeerHeader(address="10.1.2.3", asn=65001, timestamp_sec=1000 + i)
            behind.publish(
                BMPMessage.route_monitoring(peer, make_update(announce=("203.0.113.0/24",)))
            )
        interface = LiveDataInterface(
            broker=broker,
            topics=["feed-ahead", "feed-behind"],
            max_empty_polls=1,
            poll_interval=0.0,
            max_poll_messages=4,
        )
        stream = BGPStream(data_interface=interface)
        stream.add_interval_filter(1000, 1500)
        assert [record.time for record in stream.records()] == list(range(1000, 1010))
        # ... and the held-back message surfaces in the next window
        follow_up = BGPStream(
            data_interface=LiveDataInterface(
                broker=broker,
                topics=["feed-ahead", "feed-behind"],
                max_empty_polls=1,
                poll_interval=0.0,
            )
        )
        follow_up.add_interval_filter(1501, 2500)
        assert [record.time for record in follow_up.records()] == [2000]

    def test_held_back_partition_heads_do_not_eat_the_poll_budget(self):
        # With more past-window partition heads than the poll budget, the
        # deferral cache must free the next fetch for the starved
        # partitions; otherwise the window closes having delivered nothing.
        broker = MessageBroker()
        topic = broker.create_topic("t", num_partitions=4)
        producer = BMPFeedProducer(broker, topic="t", num_partitions=4)
        router_on = {}
        i = 0
        while len(router_on) < 4:
            key = f"r{i}"
            i += 1
            router_on.setdefault(topic.partition_for(key), key)
        for partition, timestamp in [(0, 2000), (1, 2000), (2, 500), (3, 600)]:
            peer = BMPPeerHeader(address="10.1.2.3", asn=65001, timestamp_sec=timestamp)
            producer.publish(
                BMPMessage.route_monitoring(peer, make_update(announce=("203.0.113.0/24",))),
                router=router_on[partition],
            )

        def window_times(start, end):
            interface = LiveDataInterface(
                broker=broker,
                topics=["t"],
                max_empty_polls=1,
                poll_interval=0.0,
                max_poll_messages=2,
            )
            stream = BGPStream(data_interface=interface)
            stream.add_interval_filter(start, end)
            return sorted(record.time for record in stream.records())

        assert window_times(0, 1000) == [500, 600]
        assert window_times(1001, 3000) == [2000, 2000]

    def test_straddling_batch_does_not_close_the_window_on_other_partitions(self):
        # A straddling frame batch on one partition is consumed whole and
        # its overhang discarded — but that must not end the window while
        # another partition still holds an unfetched in-window message.
        broker = MessageBroker()
        topic = broker.create_topic("t", num_partitions=2)
        producer = BMPFeedProducer(broker, topic="t", num_partitions=2)
        router_on = {}
        i = 0
        while len(router_on) < 2:
            key = f"r{i}"
            i += 1
            router_on.setdefault(topic.partition_for(key), key)
        straddle = bytearray()
        for timestamp in (990, 1010):
            peer = BMPPeerHeader(address="10.1.2.3", asn=65001, timestamp_sec=timestamp)
            straddle += BMPMessage.route_monitoring(
                peer, make_update(announce=("203.0.113.0/24",))
            ).encode()
        producer.publish(bytes(straddle), router=router_on[0])
        peer = BMPPeerHeader(address="10.9.9.9", asn=65009, timestamp_sec=995)
        producer.publish(
            BMPMessage.route_monitoring(
                peer, make_update(announce=("198.51.100.0/24",), path="65009 65010")
            ),
            router=router_on[1],
        )
        interface = LiveDataInterface(
            broker=broker,
            topics=["t"],
            max_empty_polls=1,
            poll_interval=0.0,
            max_poll_messages=1,
        )
        stream = BGPStream(data_interface=interface)
        stream.add_interval_filter(0, 1000)
        assert sorted(record.time for record in stream.records()) == [990, 995]

    def test_boundary_frame_with_microseconds_belongs_to_the_window(self):
        # Records carry whole seconds: a frame at until_ts + microseconds
        # converts to record.time == until_ts and must be delivered in this
        # window, not held back (the next window's interval starts past it).
        broker = MessageBroker()
        producer = BMPFeedProducer(broker, router=ROUTER)
        peer = BMPPeerHeader(
            address="10.1.2.3", asn=65001, timestamp_sec=1000, timestamp_usec=500_000
        )
        producer.publish(
            BMPMessage.route_monitoring(peer, make_update(announce=("203.0.113.0/24",)))
        )
        stream = live_stream(broker)
        stream.add_interval_filter(900, 1000)
        assert [record.time for record in stream.records()] == [1000]

    def test_straddling_frame_batch_still_closes_the_window(self):
        # One Kafka message holding frames on both sides of the boundary
        # cannot be split by offset commits: it is consumed whole, the
        # overhang discarded, and the window still closes deterministically.
        broker = MessageBroker()
        producer = BMPFeedProducer(broker, router=ROUTER)
        frames = bytearray()
        for timestamp, address, asn, update in update_sequence():
            peer = BMPPeerHeader(address=address, asn=asn, timestamp_sec=timestamp)
            frames += BMPMessage.route_monitoring(peer, update).encode()
        producer.publish(bytes(frames))
        stream = live_stream(broker)
        stream.add_interval_filter(1000, 1015)
        assert [record.time for record in stream.records()] == [1000, 1010]

    def test_straddling_overhang_is_not_stranded_between_windows(self):
        # ISSUE 7 satellite: a Kafka message whose frames lie on both sides
        # of the boundary (sub-second stamps, 3 partitions, bounded budget)
        # is delivered whole but left *uncommitted* — the frames past the
        # boundary must surface in the next window, not vanish because the
        # straddler was committed and its overhang discarded.
        broker = MessageBroker()
        topic = broker.create_topic("t", num_partitions=3)
        producer = BMPFeedProducer(broker, topic="t", num_partitions=3)
        router_on = {}
        i = 0
        while len(router_on) < 3:
            key = f"r{i}"
            i += 1
            router_on.setdefault(topic.partition_for(key), key)
        for partition in range(3):
            frames = bytearray()
            for sec, usec in [(1000, 400_000 + partition), (1001, 200_000 + partition)]:
                peer = BMPPeerHeader(
                    address=f"10.0.{partition}.1",
                    asn=65001 + partition,
                    timestamp_sec=sec,
                    timestamp_usec=usec,
                )
                frames += BMPMessage.route_monitoring(
                    peer, make_update(announce=(f"203.0.{partition}.0/24",))
                ).encode()
            producer.publish(bytes(frames), router=router_on[partition])

        def window_times(start, end):
            interface = LiveDataInterface(
                broker=broker,
                topics=["t"],
                max_empty_polls=1,
                poll_interval=0.0,
                max_poll_messages=2,  # smaller than the partition count
            )
            stream = BGPStream(data_interface=interface)
            stream.add_interval_filter(start, end)
            return sorted(record.time for record in stream.records())

        assert window_times(0, 1000) == [1000, 1000, 1000]
        # The overhang frames (1001.2s) survive the window boundary.
        assert window_times(1001, 2000) == [1001, 1001, 1001]

    def test_straddler_repolls_do_not_redeliver_within_one_window(self):
        # The delivered-but-uncommitted straddler must be skipped by later
        # polls of the same window (no duplicate elems, no budget eaten)
        # while the window still drains deterministically.
        broker = MessageBroker()
        topic = broker.create_topic("t", num_partitions=2)
        producer = BMPFeedProducer(broker, topic="t", num_partitions=2)
        router_on = {}
        i = 0
        while len(router_on) < 2:
            key = f"r{i}"
            i += 1
            router_on.setdefault(topic.partition_for(key), key)
        straddle = bytearray()
        for sec in (998, 1002):
            peer = BMPPeerHeader(address="10.1.2.3", asn=65001, timestamp_sec=sec)
            straddle += BMPMessage.route_monitoring(
                peer, make_update(announce=("203.0.113.0/24",))
            ).encode()
        producer.publish(bytes(straddle), router=router_on[0])
        for sec in (995, 996, 997):
            peer = BMPPeerHeader(address="10.9.9.9", asn=65009, timestamp_sec=sec)
            producer.publish(
                BMPMessage.route_monitoring(
                    peer, make_update(announce=("198.51.100.0/24",), path="65009 65010")
                ),
                router=router_on[1],
            )
        interface = LiveDataInterface(
            broker=broker,
            topics=["t"],
            max_empty_polls=1,
            poll_interval=0.0,
            max_poll_messages=1,  # straddler seen on poll 1, peers later
        )
        stream = BGPStream(data_interface=interface)
        stream.add_interval_filter(0, 1000)
        times = sorted(record.time for record in stream.records())
        assert times == [995, 996, 997, 998]  # 998 exactly once, 1002 held
        # The straddling message is still uncommitted: its offset is the
        # committed position the next window's consumer resumes from.
        source = interface.source
        straddled_partition = next(iter(source._straddled_heads))[1]
        assert broker.committed_offset(
            source._consumer.group, "t", straddled_partition
        ) == next(iter(source._straddled_heads))[2]

    def test_all_partitions_deferred_with_exhausted_budget_still_drains(self):
        # ISSUE 7 satellite: every partition head lies past the boundary
        # and the poll budget is smaller than the partition count.  The
        # deferral cache must walk the heads over several polls, then set
        # window_drained so the (empty) window closes — held-back polls are
        # not "empty" polls, so termination hinges on the drained signal.
        broker = MessageBroker()
        topic = broker.create_topic("t", num_partitions=4)
        producer = BMPFeedProducer(broker, topic="t", num_partitions=4)
        router_on = {}
        i = 0
        while len(router_on) < 4:
            key = f"r{i}"
            i += 1
            router_on.setdefault(topic.partition_for(key), key)
        for partition in range(4):
            peer = BMPPeerHeader(
                address="10.1.2.3", asn=65001, timestamp_sec=2000 + partition
            )
            producer.publish(
                BMPMessage.route_monitoring(peer, make_update(announce=("203.0.113.0/24",))),
                router=router_on[partition],
            )

        def window_times(start, end, max_empty_polls):
            interface = LiveDataInterface(
                broker=broker,
                topics=["t"],
                max_empty_polls=max_empty_polls,
                poll_interval=0.0,
                max_poll_messages=2,
            )
            stream = BGPStream(data_interface=interface)
            stream.add_interval_filter(start, end)
            return sorted(record.time for record in stream.records())

        # max_empty_polls=None: only window_drained may end the window —
        # if the drained signal were wrong this would hang, not pass.
        assert window_times(0, 1000, max_empty_polls=None) == []
        assert window_times(1001, 3000, max_empty_polls=1) == [2000, 2001, 2002, 2003]

    def test_mixed_record_apis_work_live(self):
        def feed():
            broker = MessageBroker()
            publish_sequence(broker, update_sequence())
            return live_stream(broker)

        stream = feed()
        records = [stream.get_next_record()]
        records.extend(r for _, r in zip(range(2), stream.records()))
        records.extend(iter(stream.get_next_record, None))
        assert [r.time for r in records] == [1000, 1010, 1020, 1030]
        # Mixing the two APIs delivers the records() stream, record for record.
        assert [r.to_ascii() for r in records] == [r.to_ascii() for r in feed().records()]

    def test_corrupt_frame_surfaces_as_invalid_record(self):
        broker = MessageBroker()
        producer = publish_sequence(broker, update_sequence()[:1])
        producer.publish(b"\x09garbage-frame")
        records = list(live_stream(broker).records())
        assert [r.status for r in records] == [
            RecordStatus.VALID,
            RecordStatus.CORRUPTED_RECORD,
        ]


class CountingSource:
    """Counts ``poll`` calls; everything else is the wrapped source's."""

    def __init__(self, source):
        self._source = source
        self.polls = 0
        self.largest_poll = 0

    def __getattr__(self, name):
        return getattr(self._source, name)

    def poll(self, max_messages=None):
        self.polls += 1
        before = self._source._consumer.messages_consumed
        pairs = self._source.poll(max_messages)
        taken = self._source._consumer.messages_consumed - before
        self.largest_poll = max(self.largest_poll, taken)
        return pairs


def numbered_frame(index, router_index=0):
    """One Route Monitoring frame whose prefix encodes ``index``."""
    peer = BMPPeerHeader(
        address=f"10.0.{router_index}.1", asn=65001 + router_index, timestamp_sec=1000
    )
    prefix = f"10.{index >> 8 & 0xFF}.{index & 0xFF}.0/24"
    return BMPMessage.route_monitoring(peer, make_update(announce=(prefix,))).encode()


def batch_prefixes(batch):
    return [str(elem.prefix) for record in batch for elem in record.elems()]


class TestLongPoll:
    """The idle wait blocks on the partition log, not on a timer."""

    def test_a_publish_wakes_the_idle_feed_long_before_poll_interval(self):
        broker = MessageBroker()
        producer = BMPFeedProducer(broker, router=ROUTER)
        interface = LiveDataInterface(broker=broker, poll_interval=5.0, max_empty_polls=2)
        publisher = threading.Timer(0.05, producer.publish, args=(numbered_frame(7),))
        publisher.start()
        try:
            started = time.perf_counter()
            batch = next(interface.record_batches(BGPStream().filters))
            elapsed = time.perf_counter() - started
        finally:
            publisher.join(5)
        assert batch_prefixes(batch) == ["10.0.7.0/24"]
        assert elapsed < 1.0  # the parent slept the whole 5 s
        assert interface.poll_wakeups == {"data": 1, "timeout": 0}

    def test_no_lost_wakeup_and_no_spin_under_a_racing_producer(self):
        frames = 2000
        max_empty_polls = 3
        broker = MessageBroker()
        producer = BMPFeedProducer(broker, router=ROUTER)
        source = CountingSource(BMPKafkaDataSource(broker))
        interface = LiveDataInterface(
            source=source, poll_interval=0.3, max_empty_polls=max_empty_polls
        )
        gaps = random.Random(22)

        def produce():
            for index in range(frames):
                time.sleep(gaps.uniform(0.0, 0.002))
                producer.publish(numbered_frame(index))

        thread = threading.Thread(target=produce, daemon=True)
        thread.start()
        seen = []
        for batch in interface.record_batches(BGPStream().filters):
            seen.extend(batch_prefixes(batch))
        thread.join(10)
        assert not thread.is_alive()
        assert seen == [f"10.{i >> 8}.{i & 0xFF}.0/24" for i in range(frames)]
        # At most one extra poll per frame (a publish that raced the fetch
        # which already returned it), plus the silent polls ending the feed.
        assert source.polls <= 2 * frames + max_empty_polls + 2
        assert interface.poll_wakeups["timeout"] == max_empty_polls - 1

    def test_unconsumable_backlog_blocks_instead_of_spinning(self):
        # lag() stays > 0 and every poll comes back empty (think: messages
        # held back on purpose).  The wake condition is a publish, not lag,
        # so the loop makes one poll per poll_interval and then gives up.
        broker = MessageBroker()
        BMPFeedProducer(broker, router=ROUTER).publish(numbered_frame(1))

        class StuckSource(BMPKafkaDataSource):
            polls = 0

            def poll(self, max_messages=None):
                self.polls += 1
                self._consumer.begin_fetch()
                return []

        source = StuckSource(broker)
        interface = LiveDataInterface(source=source, poll_interval=0.05, max_empty_polls=3)
        started = time.perf_counter()
        assert list(interface.record_batches(BGPStream().filters)) == []
        assert time.perf_counter() - started >= 0.08  # two real timeouts
        assert source.lag() == 1
        assert source.polls == 3
        assert interface.poll_wakeups == {"data": 0, "timeout": 2}

    def test_a_wakeup_that_finds_nothing_is_not_silence(self):
        # A publish on a topic this consumer does not read wakes it (one
        # condition per broker); the empty poll that follows must not eat
        # into max_empty_polls, which counts poll_intervals of silence.
        broker = MessageBroker()
        producer = BMPFeedProducer(broker, router=ROUTER)
        interface = LiveDataInterface(broker=broker, poll_interval=5.0, max_empty_polls=2)

        def publish():
            broker.produce("some.other.topic", b"noise")
            time.sleep(0.05)
            producer.publish(numbered_frame(9))

        publisher = threading.Timer(0.05, publish)
        publisher.start()
        try:
            batch = next(interface.record_batches(BGPStream().filters))
        finally:
            publisher.join(5)
        assert batch_prefixes(batch) == ["10.0.9.0/24"]
        assert interface.poll_wakeups == {"data": 2, "timeout": 0}

    def test_a_source_without_wait_keeps_the_plain_sleep(self):
        class PollOnly:
            def poll(self, max_messages=None):
                return []

        clock = SimulatedClock(0.0)
        interface = LiveDataInterface(
            source=PollOnly(), clock=clock, poll_interval=30.0, max_empty_polls=3
        )
        assert list(interface.record_batches(BGPStream().filters)) == []
        assert clock.now() == 60.0

    def test_simulated_time_is_instant_and_deterministic(self):
        # Same batches and same final clock reading as before the long
        # poll: N empty polls, N - 1 intervals of simulated silence, and no
        # real time slept.
        broker = MessageBroker()
        publish_sequence(broker, update_sequence())
        clock = SimulatedClock(5000.0)
        interface = LiveDataInterface(
            broker=broker, clock=clock, poll_interval=30.0, max_empty_polls=4
        )
        started = time.perf_counter()
        batches = list(interface.record_batches(BGPStream().filters))
        assert time.perf_counter() - started < 1.0
        assert [[record.time for record in batch] for batch in batches] == [
            [1000, 1010, 1020, 1030]
        ]
        assert clock.now() == 5000.0 + 3 * 30.0
        assert interface.poll_wakeups == {"data": 0, "timeout": 3}

    def test_idle_waits_are_counted_and_timed_apart_from_polls(self):
        from repro.core import interfaces, metrics

        def readings():
            return (
                interfaces._poll_wakeups.labels("timeout").value(),
                metrics.stage_latency.labels("idle").snapshot()[2],
            )

        def run():
            interface = LiveDataInterface(
                broker=MessageBroker(),
                clock=SimulatedClock(0.0),
                poll_interval=30.0,
                max_empty_polls=3,
            )
            assert list(interface.record_batches(BGPStream().filters)) == []

        before = readings()
        run()
        assert readings() == before  # disabled: nothing recorded
        metrics.enable()
        try:
            run()
        finally:
            metrics.disable()
        assert readings() == (before[0] + 2, before[1] + 2)

    def test_stop_ends_an_idle_feed_within_one_poll_interval(self):
        interface = LiveDataInterface(broker=MessageBroker(), poll_interval=0.1)
        stream = BGPStream(data_interface=interface)
        stopper = threading.Timer(0.05, stream.stop)
        stopper.start()
        try:
            started = time.perf_counter()
            assert list(stream.records()) == []  # max_empty_polls=None: forever
            assert time.perf_counter() - started < 0.5
        finally:
            stopper.join(5)


class TestBoundedBacklog:
    """A backlog drains in polls of at most ``max_poll_messages``."""

    ROUTERS = 3
    FRAMES = 5000

    def backlog(self):
        broker = MessageBroker()
        broker.create_topic(DEFAULT_BMP_TOPIC, num_partitions=self.ROUTERS)
        topic = broker.topic(DEFAULT_BMP_TOPIC)
        # one router name per partition (first name seen wins)
        by_partition = {}
        for i in range(100):
            by_partition.setdefault(topic.partition_for(f"rtr{i}.example"), f"rtr{i}.example")
        routers = list(by_partition.values())
        assert len(routers) == self.ROUTERS
        producer = BMPFeedProducer(broker)
        for index in range(self.FRAMES):
            slot = index % self.ROUTERS
            producer.publish(numbered_frame(index, slot), router=routers[slot])
        return broker, routers

    def by_router(self, batches):
        order = {}
        for batch in batches:
            for record in batch:
                order.setdefault(record.router, []).extend(
                    str(elem.prefix) for elem in record.elems()
                )
        return order

    def test_default_bound_is_kafkas_max_poll_records(self):
        assert DEFAULT_MAX_POLL_MESSAGES == 500
        interface = LiveDataInterface(broker=MessageBroker())
        assert interface.max_poll_messages == 500
        unbounded = LiveDataInterface(broker=MessageBroker(), max_poll_messages=None)
        assert unbounded.max_poll_messages is None

    def test_backlog_drains_in_bounded_contiguous_batches(self):
        broker, routers = self.backlog()
        source = CountingSource(BMPKafkaDataSource(broker, group="bounded"))
        interface = LiveDataInterface(source=source, max_empty_polls=1, poll_interval=0.0)
        batches = []
        delivered = 0
        previous = [0] * self.ROUTERS
        for batch in interface.record_batches(BGPStream().filters):
            batches.append(batch)
            assert len(batch) <= DEFAULT_MAX_POLL_MESSAGES
            delivered += len(batch)
            committed = [
                broker.committed_offset("bounded", DEFAULT_BMP_TOPIC, partition)
                for partition in range(self.ROUTERS)
            ]
            # One frame per message: what is committed is exactly what has
            # been handed over, and no partition waits for another to drain.
            assert sum(committed) == delivered
            assert all(now > before for now, before in zip(committed, previous))
            previous = committed
        assert source.largest_poll == DEFAULT_MAX_POLL_MESSAGES
        assert source.polls == self.FRAMES // DEFAULT_MAX_POLL_MESSAGES + 1
        assert len(batches) == self.FRAMES // DEFAULT_MAX_POLL_MESSAGES

        unbounded = LiveDataInterface(
            broker=broker,
            group="unbounded",
            max_empty_polls=1,
            poll_interval=0.0,
            max_poll_messages=None,
        )
        whole = list(unbounded.record_batches(BGPStream().filters))
        assert [len(batch) for batch in whole] == [self.FRAMES]
        # Per-router (per-partition) order is what Kafka promises, and it
        # is the same; across routers the bounded read interleaves where
        # the unbounded one concatenates partitions.
        assert self.by_router(batches) == self.by_router(whole)
        assert sorted(self.by_router(whole)) == sorted(routers)
        flat = [p for batch in batches for p in batch_prefixes(batch)]
        assert sorted(flat) == sorted(p for batch in whole for p in batch_prefixes(batch))
        assert flat != [p for batch in whole for p in batch_prefixes(batch)]


class TestStreamConfiguration:
    def test_registry_names(self):
        assert {"broker", "csvfile", "sqlite", "singlefile", "kafka", "bmp"} <= set(
            data_interface_names()
        )

    def test_kafka_interface_by_name(self):
        broker = MessageBroker()
        publish_sequence(broker, update_sequence())
        stream = BGPStream(
            data_interface="kafka",
            interface_options={"broker": broker, "max_empty_polls": 1, "poll_interval": 0.0},
        )
        assert stream.is_live
        assert len(list(stream.records())) == 4

    def test_unknown_interface_name(self):
        with pytest.raises(ValueError, match="unknown data interface"):
            make_data_interface("carrier-pigeon")

    def test_interface_batches_guard(self):
        interface = LiveDataInterface(broker=MessageBroker())
        with pytest.raises(RuntimeError, match="record batches"):
            next(interface.batches(BGPStream().filters))

    def test_converter_and_converter_options_are_mutually_exclusive(self):
        from repro.bmp.convert import BMPRecordConverter

        with pytest.raises(ValueError, match="converter"):
            LiveDataInterface(
                broker=MessageBroker(),
                track_state=False,
                converter=BMPRecordConverter(),
            )

    def test_source_and_broker_are_mutually_exclusive(self):
        broker = MessageBroker()
        source = BMPKafkaDataSource(broker)
        with pytest.raises(ValueError):
            LiveDataInterface(source, broker=broker)
        with pytest.raises(ValueError):
            LiveDataInterface()


class TestPyBGPStreamLive:
    def test_listing1_idiom_over_live_feed(self):
        from repro.pybgpstream import BGPRecord, BGPStream as PyBGPStream

        broker = MessageBroker()
        publish_sequence(broker, update_sequence())
        stream = PyBGPStream(
            data_interface="kafka",
            interface_options={"broker": broker, "max_empty_polls": 1, "poll_interval": 0.0},
        )
        assert stream.is_live
        stream.add_filter("record-type", "updates")
        stream.add_interval_filter(900, 2000)
        stream.start()
        record = BGPRecord()
        seen = []
        while stream.get_next_record(record):
            elem = record.get_next_elem()
            while elem:
                seen.append((elem.type, elem.time, elem.fields.get("prefix")))
                elem = record.get_next_elem()
        assert len(seen) == 5
        assert seen[0] == ("A", 1000, "203.0.113.0/24")

    def test_named_interface_passthrough(self):
        from repro.pybgpstream import BGPStream as PyBGPStream

        broker = MessageBroker()
        publish_sequence(broker, update_sequence())
        stream = PyBGPStream(
            data_interface="kafka",
            interface_options={"broker": broker, "max_empty_polls": 1, "poll_interval": 0.0},
        )
        assert stream.is_live


class TestBGPReaderLive:
    def feed_file(self, tmp_path, include_session=True):
        peer = BMPPeerHeader(address="10.1.2.3", asn=65001, timestamp_sec=1000)
        messages = [BMPMessage.initiation([])]
        messages.append(
            BMPMessage.route_monitoring(peer, make_update(announce=("203.0.113.0/24",)))
        )
        if include_session:
            messages.append(BMPMessage.peer_down(peer, reason=4))
        path = tmp_path / "feed.bmp"
        path.write_bytes(b"".join(m.encode() for m in messages))
        return str(path)

    def run_reader(self, argv):
        import io

        from repro.core.reader import build_parser, run

        out = io.StringIO()
        status = run(build_parser().parse_args(argv), out)
        return status, out.getvalue().splitlines()

    def test_live_replay(self, tmp_path):
        status, lines = self.run_reader(["--live", self.feed_file(tmp_path)])
        assert status == 0
        assert any(line.startswith("A|1000|bmp|") for line in lines)
        # Peer Down synthesises the withdrawal then the state change
        assert any(line.startswith("W|1000|bmp|") for line in lines)
        assert any("ESTABLISHED|IDLE" in line for line in lines)

    def test_replay_output_is_byte_identical_to_the_parent(self, tmp_path):
        # A recorded file is one Kafka message however many frames it
        # holds, so the 500-message poll bound cannot re-order or split it.
        # The digest was taken from the commit before the bound existed.
        path = tmp_path / "long.bmp"
        path.write_bytes(b"".join(numbered_frame(i, i % 3) for i in range(1200)))
        status, lines = self.run_reader(["--live", str(path)])
        assert status == 0 and len(lines) == 1200
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "8159754565dc923dc4f60ce138204b29ccbab46a3782d387e17ad984d5bd60a1"

    def test_bmp_router_and_topic_knobs(self, tmp_path):
        status, lines = self.run_reader(
            [
                "--live",
                self.feed_file(tmp_path, include_session=False),
                "--bmp-topic",
                "custom.topic",
                "--bmp-router",
                "rtrX",
            ]
        )
        assert status == 0
        assert any("|rtrX|" in line for line in lines)

    def test_bmp_knobs_require_live(self, tmp_path):
        with pytest.raises(SystemExit, match="--live"):
            self.run_reader(["--archive", str(tmp_path), "--bmp-topic", "t"])


class TestLiveCorsaro:
    def test_bins_close_deterministically_with_until_ts(self):
        from repro.corsaro.pipeline import BGPCorsaro
        from repro.corsaro.plugins import StatsPlugin

        broker = MessageBroker()
        sequence = [
            (ts, "10.1.2.3", 65001, make_update(announce=(f"10.{i}.0.0/16",)))
            for i, ts in enumerate([1000, 1100, 1250, 1400, 1550])
        ]
        publish_sequence(broker, sequence)
        stream = live_stream(broker)
        stream.add_interval_filter(900, 1500)  # until_ts closes the last bin
        corsaro = BGPCorsaro(stream, [StatsPlugin()], bin_size=300)
        outputs = [o for o in corsaro.process() if o.interval_start != -1]
        assert [o.interval_start for o in outputs] == [900, 1200]
        # 1000/1100 land in bin 900, 1250/1400 in bin 1200; 1550 is past
        # until_ts and never reaches a plugin.
        assert [o.value.as_dict()["elems"] for o in outputs] == [2, 2]
