#!/usr/bin/env python3
"""Live hijack monitoring over a BMP-over-Kafka feed (§3.3.2, §6).

The live half of the paper's pitch: instead of replaying dump files, a
BGPCorsaro pipeline consumes a near-realtime BMP feed à la OpenBMP — routers
publish RFC 7854 BMP messages onto a Kafka topic keyed by router, and
`BGPStream(data_interface=LiveDataInterface(...))` turns them into the
exact record/elem model of the historical path.

The script simulates one monitored router: a peer session comes up,
announces its table (the Peer Up RIB-in snapshot), a hijacker AS starts
originating a more-specific of a monitored prefix mid-stream, and the
session finally goes down (synthesising withdrawals for everything it had
announced).  A pfxmonitor plugin cut into 5-minute bins watches the
victim's address space; the origin-ASN count jumping from 1 to 2 exposes
the hijack, and the bounded window (`add_interval_filter(t0, t1)`) makes
the bins close deterministically even though the source is a live feed.

Run:  python examples/live_monitor.py
"""

from __future__ import annotations

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.message import BGPOpen, BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bmp import BMPFeedProducer, BMPMessage, BMPPeerHeader
from repro.core import BGPStream
from repro.core.interfaces import LiveDataInterface
from repro.corsaro import BGPCorsaro
from repro.corsaro.plugins import PrefixMonitorPlugin
from repro.kafka.broker import MessageBroker

ROUTER = "rtr1.example"
VICTIM_ASN = 65010
HIJACKER_ASN = 65666
VICTIM_PREFIX = "203.0.113.0/24"
HIJACKED_MORE_SPECIFIC = "203.0.113.128/25"
T0 = 1_450_000_000


def announce(peer, prefixes, origin):
    """One Route Monitoring message announcing ``prefixes`` from ``origin``."""
    update = BGPUpdate(
        announced=[Prefix.from_string(p) for p in prefixes],
        attributes=PathAttributes(
            as_path=ASPath.from_string(f"{peer.asn} 65002 {origin}"),
            next_hop=peer.address,
        ),
    )
    return BMPMessage.route_monitoring(peer, update)


def simulate_feed(broker: MessageBroker) -> None:
    """Publish the monitored router's BMP session onto the feed topic."""
    producer = BMPFeedProducer(broker, router=ROUTER)

    def peer_at(ts):
        return BMPPeerHeader(address="10.1.2.3", asn=65001, timestamp_sec=ts)

    # The feed opens; the monitored session reaches Established and
    # re-announces its Adj-RIB-In (the Peer Up RIB-in snapshot).
    producer.publish(BMPMessage.initiation([]))
    producer.publish(
        BMPMessage.peer_up(
            peer_at(T0),
            local_address="10.0.0.1",
            local_port=179,
            remote_port=40123,
            sent_open=BGPOpen(asn=65000, bgp_id="10.0.0.1"),
            received_open=BGPOpen(asn=65001, bgp_id="192.0.2.1"),
        )
    )
    producer.publish(
        announce(peer_at(T0 + 10), [VICTIM_PREFIX, "198.51.100.0/24"], VICTIM_ASN)
    )

    # 20 minutes in, the hijacker shows up on a more-specific.
    producer.publish(
        announce(peer_at(T0 + 1200), [HIJACKED_MORE_SPECIFIC], HIJACKER_ASN)
    )

    # 40 minutes in, the session dies: the converter synthesises explicit
    # withdrawals for everything the peer had announced, then a state elem.
    producer.publish(BMPMessage.peer_down(peer_at(T0 + 2400), reason=4))


def main() -> None:
    broker = MessageBroker()
    simulate_feed(broker)

    stream = BGPStream(
        data_interface=LiveDataInterface(broker=broker, max_empty_polls=1, poll_interval=0.0)
    )
    stream.add_interval_filter(T0, T0 + 3000)  # until_ts: bins close deterministically

    monitor = PrefixMonitorPlugin([Prefix.from_string(VICTIM_PREFIX)])
    corsaro = BGPCorsaro(stream, [monitor], bin_size=300)

    print(f"live pfxmonitor over {VICTIM_PREFIX} (bin = 300 s)")
    print("bin offset | unique prefixes | unique origin ASNs")
    for output in corsaro.process():
        if output.interval_start == -1:
            continue
        value = output.value
        marker = "  <-- hijack!" if value.unique_origin_asns > 1 else ""
        print(
            f"{output.interval_start - T0:>10} | {value.unique_prefixes:>15} "
            f"| {value.unique_origin_asns:>18}{marker}"
        )


if __name__ == "__main__":
    main()
