"""Gateway fan-out at scale: 1k+ subscribers off one decode loop (ISSUE 7).

The claim under test is the gateway's whole reason to exist: with N
subscribers the per-frame cost is one wire decode, one walk of the hub's
subscription index and one ``offer`` per subscriber that watches a covering
prefix — never N decodes, and never N probes.  The benchmark drives
:meth:`StreamHub.run`
synchronously (no sockets: the transport layer is exercised by the e2e
tests; here we measure the fan-out core) with 1024 filtered subscribers
plus one deliberately slow, never-draining subscriber, and asserts:

1. **decode-once** — the Kafka source decoded exactly one frame per
   published message and the decode tier counted each frame once,
   regardless of subscriber count;
2. **exact delivery** — every subscriber received precisely its /16 slice,
   in timestamp order;
3. **no stall** — the never-draining subscriber ends the run with a
   bounded queue and gap markers while the decode loop ran to completion;
4. **no wasted offers** — for this roster (pure ``prefix`` watchers plus
   one firehose) the hub offers exactly the elems it delivers.

A second, roster-churn variant retunes one subscriber every 64 records and
bounds the wall: index upkeep that scaled with the roster per *record*
(a staleness walk, a rebuild per record) could not hide under it.
"""

from __future__ import annotations

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bmp import BMPFeedProducer, BMPMessage, BMPPeerHeader
from repro.core import metrics
from repro.core.filters import FilterSet
from repro.core.interfaces import LiveDataInterface
from repro.core.stream import BGPStream
from repro.gateway.hub import StreamHub
from repro.kafka.broker import MessageBroker

SUBSCRIBERS = 1024
NETS = 64  # /16 nets; SUBSCRIBERS / NETS subscribers watch each
SECONDS = 64
PER_SECOND = 16  # updates per feed second → SECONDS * PER_SECOND frames
BASE_TS = 1_450_000_000

FRAMES = SECONDS * PER_SECOND
PER_NET = FRAMES // NETS
FANOUT = SUBSCRIBERS // NETS  # deliveries per elem

#: Conservative lower bound on delivered elems/s — an order of magnitude
#: below a warm local run (~50k/s), so only a real fan-out regression
#: trips it.
DELIVERED_PER_SEC_FLOOR = 5_000

#: Roster churn: one add_filter/remove_filter pair every this many records.
CHURN_EVERY = 64
#: Generous wall ceiling for the churn run (a warm local run takes ~0.5 s:
#: 16 index rebuilds over 1,025 subscribers).  An O(subscribers) staleness
#: check per record, or a rebuild per record, costs many times this.
CHURN_WALL_CEILING = 4.0


def build_hub():
    broker = MessageBroker()
    producer = BMPFeedProducer(broker, router="rtr1.bench")
    frame = 0
    for second in range(SECONDS):
        for _ in range(PER_SECOND):
            net = frame % NETS
            peer = BMPPeerHeader(
                address="10.0.0.1", asn=64500, timestamp_sec=BASE_TS + second
            )
            update = BGPUpdate(
                announced=[Prefix.from_string(f"10.{net}.{frame // NETS}.0/24")],
                attributes=PathAttributes(
                    as_path=ASPath.from_asns([64500, 3356, 15169]),
                    next_hop="10.0.0.1",
                ),
            )
            producer.publish(BMPMessage.route_monitoring(peer, update))
            frame += 1
    stream = BGPStream(
        data_interface=LiveDataInterface(broker=broker, max_empty_polls=1, poll_interval=0.0)
    )
    hub = StreamHub(stream)
    fast = [
        hub.subscribe(
            FilterSet().add("prefix", f"10.{i % NETS}.0.0/16"),
            max_queued_windows=SECONDS + 1,
            name=f"sub-{i}",
        )
        for i in range(SUBSCRIBERS)
    ]
    # One stalled consumer that never pops: it must not slow the bridge.
    slow = hub.subscribe(
        FilterSet(), max_queued_windows=2, coalesce_budget=PER_SECOND, name="stalled"
    )
    return hub, fast, slow


def test_gateway_fanout_1k_subscribers(benchmark):
    state = {}

    def setup():
        metrics.enable()
        metrics.reset_decode_counts()
        state["hub"], state["fast"], state["slow"] = build_hub()
        return (), {}

    def run_fanout():
        state["hub"].run()

    try:
        benchmark.pedantic(run_fanout, setup=setup, rounds=1)
    finally:
        metrics.disable()
    hub, fast, slow = state["hub"], state["fast"], state["slow"]

    # 1. Decode-once, asserted from both ends: the Kafka source's frame
    # counter and the decode tier's scan counter (what the CLI reports
    # under --decode-stats) each saw every frame exactly once — not
    # SUBSCRIBERS times.
    source = hub.stream._interface.source
    assert source.frames_decoded == FRAMES
    assert metrics.decode_counts()["bmp_frames_scanned"] == FRAMES
    assert hub.elems_seen == FRAMES
    assert hub.elems_delivered == FRAMES * FANOUT + slow.elems_matched

    # 2. Exact delivery: each subscriber got precisely its /16 slice, in
    # timestamp order, gapless.
    for i, subscriber in enumerate(fast):
        elems = [e for w in subscriber.drain() for e in w.elems]
        assert len(elems) == PER_NET
        assert all(str(e.prefix).startswith(f"10.{i % NETS}.") for e in elems)
        times = [e.time for e in elems]
        assert times == sorted(times)

    # 3. The stalled subscriber never blocked the bridge: the run finished,
    # its queue stayed bounded and its loss is marked, not silent.
    assert hub.finished
    snap = slow.snapshot()
    assert snap["elems_matched"] == FRAMES
    assert snap["ready"] <= 2
    remnants = slow.drain()
    assert sum(len(w.elems) for w in remnants) + snap["elems_dropped"] == FRAMES
    assert any(w.coalesced or w.has_gap for w in remnants)

    seconds = benchmark.stats.stats.min
    delivered_per_sec = hub.elems_delivered / seconds
    benchmark.extra_info["subscribers"] = SUBSCRIBERS + 1
    benchmark.extra_info["frames"] = FRAMES
    benchmark.extra_info["elems_delivered"] = hub.elems_delivered
    # 4. Every watcher here is a pure ``prefix`` term (or the firehose), so
    # the index names exactly the subscribers that match: no wasted offers.
    assert hub.elems_offered == hub.elems_delivered
    benchmark.extra_info["elems_offered"] = hub.elems_offered
    benchmark.extra_info["delivered_per_sec"] = round(delivered_per_sec)
    assert delivered_per_sec > DELIVERED_PER_SEC_FLOOR


def test_gateway_fanout_1k_subscribers_roster_churn(benchmark):
    """The same feed while one subscriber retunes every ``CHURN_EVERY``
    records: each change costs one index rebuild at the next record, and
    the records in between cost nothing that scales with the roster."""
    state = {}

    def setup():
        hub, fast, _slow = build_hub()
        churner = fast[0]  # watches 10.0.0.0/16; 10.200.0.0/16 is never fed
        records = hub.stream.records

        def churning():
            for index, record in enumerate(records()):
                if index % CHURN_EVERY == 0:
                    churner.add_filter("prefix", "10.200.0.0/16")
                    churner.remove_filter("prefix", "10.200.0.0/16")
                yield record

        hub.stream.records = churning
        state["hub"], state["fast"] = hub, fast
        return (), {}

    def run_fanout():
        state["hub"].run()

    benchmark.pedantic(run_fanout, setup=setup, rounds=1)
    hub, fast = state["hub"], state["fast"]
    # Churn that leaves the filters where they were changes nothing delivered.
    assert hub.elems_seen == FRAMES
    assert hub.elems_offered == hub.elems_delivered == FRAMES * FANOUT + FRAMES
    for subscriber in fast:
        assert sum(len(w.elems) for w in subscriber.drain()) == PER_NET
    seconds = benchmark.stats.stats.min
    benchmark.extra_info["subscribers"] = SUBSCRIBERS + 1
    benchmark.extra_info["filter_changes"] = 2 * (FRAMES // CHURN_EVERY)
    benchmark.extra_info["elems_offered"] = hub.elems_offered
    assert seconds < CHURN_WALL_CEILING
