"""BMP codec throughput and live-path records/sec vs the MRT replay.

Two claims about the new live subsystem (ISSUE 5):

1. **codec throughput** — the RFC 7854 framing scan + body decode sustains
   a firehose-shaped stream of Route Monitoring frames (the message type
   that dominates a real feed by orders of magnitude);
2. **live-path rate** — delivering the same UPDATE sequence through the
   whole live stack (BMP encode → router-keyed Kafka topic → framing scan →
   record conversion → BGPStream filter pipeline) stays within a
   small constant factor of the equivalent MRT-file replay, i.e. the live
   mode is the same order of magnitude as the historical path it mirrors —
   and both paths emit the *identical* elem sequence, which is asserted
   before any timing.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import CommunitySet
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bmp.codec import scan_messages
from repro.bmp.messages import BMPMessage, BMPPeerHeader
from repro.bmp.source import BMPFeedProducer
from repro.core.interfaces import LiveDataInterface, SingleFileDataInterface
from repro.core.stream import BGPStream
from repro.kafka.broker import MessageBroker
from repro.mrt.records import BGP4MPMessage
from repro.mrt.writer import write_updates_dump

#: Feed shape: a few peers, many updates, a repeating attribute population
#: (live feeds repeat paths exactly as RIB dumps do).
PEERS = 4
UPDATE_MESSAGES = 4000
DISTINCT_PATHS = 120
DISTINCT_COMMUNITY_SETS = 60
ROUTER = "rtr1.bench"


@pytest.fixture(scope="module")
def update_feed():
    """One synthetic UPDATE sequence: (timestamp, peer_address, asn, update)."""
    rng = random.Random(20160202)
    paths = [
        ASPath.from_asns([rng.randrange(1, 65000) for _ in range(rng.randrange(3, 8))])
        for _ in range(DISTINCT_PATHS)
    ]
    community_sets = [
        CommunitySet.from_pairs(
            (rng.randrange(1, 65000), rng.randrange(0, 1000))
            for _ in range(rng.randrange(1, 4))
        )
        for _ in range(DISTINCT_COMMUNITY_SETS)
    ]
    prefixes = []
    seen = set()
    while len(prefixes) < 1500:
        text = f"{rng.randrange(1, 224)}.{rng.randrange(256)}.{rng.randrange(256)}.0/24"
        if text not in seen:
            seen.add(text)
            prefixes.append(Prefix.from_string(text))
    peers = [(f"10.0.0.{i + 1}", 64500 + i) for i in range(PEERS)]

    feed = []
    timestamp = 1_450_000_000
    for _ in range(UPDATE_MESSAGES):
        timestamp += rng.randrange(0, 2)
        address, asn = rng.choice(peers)
        update = BGPUpdate(
            announced=rng.sample(prefixes, rng.randrange(1, 4)),
            attributes=PathAttributes(
                as_path=rng.choice(paths),
                next_hop=address,
                communities=rng.choice(community_sets),
            ),
        )
        feed.append((timestamp, address, asn, update))
    return feed


@pytest.fixture(scope="module")
def bmp_wire(update_feed):
    """The feed as one back-to-back buffer of encoded BMP frames."""
    frames = []
    for timestamp, address, asn, update in update_feed:
        peer = BMPPeerHeader(address=address, asn=asn, timestamp_sec=timestamp)
        frames.append(BMPMessage.route_monitoring(peer, update).encode())
    return b"".join(frames)


@pytest.fixture(scope="module")
def mrt_dump(update_feed, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bmp-bench") / "updates.mrt")
    bodies = [
        (ts, BGP4MPMessage(asn, 0, address, "0.0.0.0", update))
        for ts, address, asn, update in update_feed
    ]
    write_updates_dump(path, bodies, compress=False)
    return path


def test_bmp_codec_decode_throughput(benchmark, bmp_wire):
    """Framing scan + full body decode over the wire buffer."""

    def scan():
        return scan_messages(bmp_wire)

    messages = benchmark(scan)
    assert len(messages) == UPDATE_MESSAGES
    assert all(m.is_valid for m in messages)
    seconds = benchmark.stats.stats.min
    benchmark.extra_info["messages"] = len(messages)
    benchmark.extra_info["mbytes"] = round(len(bmp_wire) / 1e6, 2)
    benchmark.extra_info["messages_per_sec"] = round(len(messages) / seconds)
    benchmark.extra_info["mbytes_per_sec"] = round(len(bmp_wire) / 1e6 / seconds, 1)


def _live_elems(broker):
    stream = BGPStream(
        data_interface=LiveDataInterface(broker=broker, max_empty_polls=1, poll_interval=0.0)
    )
    return [elem.to_ascii() for _, elem in stream.elems()]


def _replay_elems(mrt_dump):
    stream = BGPStream(
        data_interface=SingleFileDataInterface(
            mrt_dump, dump_type="updates", project="bmp", collector=ROUTER
        )
    )
    return [elem.to_ascii() for _, elem in stream.elems()]


def _publish(update_feed):
    broker = MessageBroker()
    producer = BMPFeedProducer(broker, router=ROUTER)
    for timestamp, address, asn, update in update_feed:
        peer = BMPPeerHeader(address=address, asn=asn, timestamp_sec=timestamp)
        producer.publish(BMPMessage.route_monitoring(peer, update))
    return broker


def test_live_path_matches_mrt_replay_rate(benchmark, update_feed, mrt_dump):
    """records/sec through the live stack vs the equivalent MRT replay."""
    # Equivalence first: identical elem sequences (the acceptance criterion).
    live_lines = _live_elems(_publish(update_feed))
    replay_lines = _replay_elems(mrt_dump)
    assert live_lines == replay_lines
    assert len(live_lines) >= UPDATE_MESSAGES

    # The Kafka publish is the collector's job, not the consumer's: prepare
    # one broker per timed round and measure the consuming side only
    # (poll → frame scan → convert → filter/intern pipeline).
    brokers = [_publish(update_feed) for _ in range(3)]

    def live_pass():
        live_pass.counter += 1
        source = LiveDataInterface(
            broker=brokers[live_pass.counter % len(brokers)],
            max_empty_polls=1,
            poll_interval=0.0,
        )
        source.source.seek_to_beginning()
        stream = BGPStream(data_interface=source)
        return sum(1 for _ in stream.records())

    live_pass.counter = -1

    records = benchmark.pedantic(live_pass, rounds=3, iterations=1)
    assert records == UPDATE_MESSAGES
    live_seconds = benchmark.stats.stats.min

    def replay_pass():
        stream = BGPStream(
            data_interface=SingleFileDataInterface(
                mrt_dump, dump_type="updates", project="bmp", collector=ROUTER
            )
        )
        return sum(1 for _ in stream.records())

    start = time.perf_counter()
    assert replay_pass() == UPDATE_MESSAGES
    replay_seconds = min(
        (time.perf_counter() - start, *(_timed(replay_pass) for _ in range(2)))
    )

    ratio = live_seconds / replay_seconds
    benchmark.extra_info["records"] = records
    benchmark.extra_info["live_records_per_sec"] = round(records / live_seconds)
    benchmark.extra_info["replay_records_per_sec"] = round(records / replay_seconds)
    benchmark.extra_info["live_vs_replay_ratio"] = round(ratio, 2)
    # Same order of magnitude: the live stack may pay for the Kafka hop and
    # the BMP scan, but must not be algorithmically worse than the replay.
    assert ratio < 5.0, f"live path {ratio:.1f}x slower than the MRT replay"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
