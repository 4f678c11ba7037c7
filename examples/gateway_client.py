#!/usr/bin/env python3
"""Two clients of the streaming gateway: SSE and WebSocket (ISSUE 7).

The gateway decodes one live BMP feed exactly once and fans it out to any
number of filtered subscribers.  This example starts an in-process gateway
over a synthetic feed (two peers announcing different address space), then
connects two stdlib-only clients:

* an **SSE** subscriber filtered to one /16 (a dashboard tailing one
  customer's space), reading ``text/event-stream`` windows;
* a **WebSocket** subscriber that starts with a peer-ASN filter and then
  *multiplexes its subscription live* — adding a prefix filter and
  removing the ASN filter mid-connection, acknowledged by the server.

No third-party packages: the WebSocket side uses the same RFC 6455 codec
the gateway itself ships (`repro.gateway.protocol`).

Run:  python examples/gateway_client.py
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.bmp import BMPFeedProducer, BMPMessage, BMPPeerHeader
from repro.core.interfaces import LiveDataInterface
from repro.core.stream import BGPStream
from repro.gateway import GatewayServer, StreamHub
from repro.gateway.protocol import OP_TEXT, WSFrameParser, encode_ws_frame
from repro.kafka.broker import MessageBroker


def build_feed() -> MessageBroker:
    """Two peers, 40 updates: 10.1/16 from AS 65001, 10.2/16 from AS 65002."""
    broker = MessageBroker()
    producer = BMPFeedProducer(broker, router="edge1.example")
    for i in range(20):
        for peer_asn, net in ((65001, "10.1"), (65002, "10.2")):
            peer = BMPPeerHeader(
                address=f"192.0.2.{peer_asn % 100}",
                asn=peer_asn,
                timestamp_sec=1_000_000 + i,
            )
            update = BGPUpdate(
                announced=[Prefix.from_string(f"{net}.{i}.0/24")],
                attributes=PathAttributes(
                    as_path=ASPath.from_asns([peer_asn, 3356, 15169]),
                    next_hop="192.0.2.1",
                ),
            )
            producer.publish(BMPMessage.route_monitoring(peer, update))
    return broker


async def sse_client(port: int) -> None:
    """Tail /stream/sse filtered to 10.1.0.0/16, window = 4 feed-seconds."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        b"GET /stream/sse?prefix=10.1.0.0/16&window=4 HTTP/1.1\r\n"
        b"Host: localhost\r\n\r\n"
    )
    await writer.drain()
    while True:
        line = await reader.readline()
        if not line:
            break
        if line.startswith(b"data: "):
            payload = json.loads(line[6:])
            if payload.get("type") == "end":
                break
            prefixes = [e["fields"]["prefix"] for e in payload["elems"]]
            print(
                f"[sse] window [{payload['window_start']}, "
                f"{payload['window_end']}): {len(prefixes)} elems "
                f"e.g. {prefixes[:3]}"
            )
    writer.close()


async def ws_client(port: int) -> None:
    """Subscribe via WebSocket, then retune the subscription live."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    key = base64.b64encode(os.urandom(16)).decode()
    writer.write(
        (
            "GET /stream/ws?peer-asn=65002&window=1000000 HTTP/1.1\r\n"
            "Host: localhost\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
        ).encode()
    )
    await writer.drain()
    await reader.readuntil(b"\r\n\r\n")  # 101 Switching Protocols

    def send(message: dict) -> None:
        writer.write(
            encode_ws_frame(json.dumps(message).encode(), OP_TEXT, mask=True)
        )

    # Multiplex: drop the ASN filter, watch one /16 instead — live, no
    # reconnect, acknowledged by the server.
    send({"action": "add_filter", "name": "prefix", "value": "10.1.0.0/16"})
    send({"action": "remove_filter", "name": "peer-asn", "value": "65002"})
    await writer.drain()

    parser = WSFrameParser()
    while True:
        data = await reader.read(4096)
        if not data:
            break
        done = False
        for opcode, payload in parser.feed(data):
            if opcode != OP_TEXT:
                continue
            message = json.loads(payload)
            if message.get("type") == "ack":
                print(f"[ws ] ack: {message['action']} {message['name']}={message['value']}")
            elif message.get("type") == "window":
                print(f"[ws ] window with {len(message['elems'])} elems")
            elif message.get("type") == "end":
                done = True
        if done:
            break
    writer.close()


async def main() -> None:
    stream = BGPStream(
        data_interface=LiveDataInterface(
            broker=build_feed(), max_empty_polls=20, poll_interval=0.01
        )
    )
    hub = StreamHub(stream)
    server = await GatewayServer(hub, port=0).start()
    print(f"gateway on 127.0.0.1:{server.port} — one decode loop, two clients")
    clients = asyncio.gather(sse_client(server.port), ws_client(server.port))
    await asyncio.sleep(0.05)  # let both subscribe before frames flow
    hub.start()
    await clients
    stats = hub.stats()
    print(
        f"decode happened once: {stats['frames_decoded']} frames decoded, "
        f"{stats['elems_delivered']} elem deliveries across "
        f"{server.connections_served} connections"
    )
    hub.stop()
    await server.close()


if __name__ == "__main__":
    asyncio.run(main())
