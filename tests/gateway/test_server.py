"""End-to-end gateway tests over real sockets (stdlib-only clients).

One bridge thread decodes the BMP-over-Kafka feed; N asyncio clients —
SSE and WebSocket — subscribe with their own filters.  Tests assert exact
filtered delivery in timestamp order, live subscription multiplexing with
acks, the /stats decode-once counters, and that a deliberately slow client
(tiny socket buffers, delayed reads) sees coalesced/gappy windows while a
fast peer on the same feed stays gapless and the decode loop finishes.
"""

from __future__ import annotations

import asyncio
import base64
import io
import json
import socket
import threading
import time

from repro.core import metrics
from repro.core.filters import FilterSet
from repro.core.intern import default_pool, reset_default_pool
from repro.core.elem import BGPElem, ElemType
from repro.gateway import cli
from repro.gateway.protocol import (
    OP_CLOSE,
    OP_TEXT,
    WSFrameParser,
    encode_ws_frame,
    websocket_accept,
)
from repro.gateway.server import SEND_BATCH_WINDOWS, GatewayServer

from test_hub import BASE_TS, live_hub, make_update, striped_feed

TIMEOUT = 30  # generous outer bound; everything real finishes in ms


async def await_subscribers(hub, count):
    while hub.subscriber_count < count:
        await asyncio.sleep(0.005)


async def open_client(port, rcvbuf=None):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.setblocking(False)
    loop = asyncio.get_running_loop()
    await loop.sock_connect(sock, ("127.0.0.1", port))
    return await asyncio.open_connection(sock=sock)


async def sse_events(reader, writer, query):
    """GET /stream/sse and read events until the end marker."""
    writer.write(f"GET /stream/sse?{query} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    assert b"200 OK" in head and b"text/event-stream" in head
    events = []
    while True:
        line = await reader.readline()
        if not line:
            break
        if line.startswith(b"data: "):
            payload = json.loads(line[6:])
            events.append(payload)
            if payload.get("type") == "end":
                break
    writer.close()
    return events


def window_prefixes(events):
    return [
        elem["fields"]["prefix"]
        for event in events
        if event.get("type") == "window"
        for elem in event["elems"]
    ]


class TestSSE:
    def test_disjoint_subscribers_get_exact_ordered_slices(self):
        messages, expect = striped_feed(seconds=10, nets=("10.1", "10.2"))
        hub = live_hub(messages)

        async def scenario():
            server = await GatewayServer(hub).start()
            try:

                async def client(net):
                    reader, writer = await open_client(server.port)
                    return await sse_events(
                        reader, writer, f"prefix={net}.0.0%2F16&window=2"
                    )

                results, _ = await asyncio.gather(
                    asyncio.gather(client("10.1"), client("10.2")),
                    _start_after(hub, 2),
                )
                return results
            finally:
                await server.close()

        results = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        for events, net in zip(results, ("10.1", "10.2")):
            assert window_prefixes(events) == expect[net]
            windows = [e for e in events if e.get("type") == "window"]
            starts = [w["window_start"] for w in windows]
            assert starts == sorted(starts)
            assert all(w["window_end"] - w["window_start"] == 2 for w in windows)
            times = [elem["time"] for w in windows for elem in w["elems"]]
            assert times == sorted(times)
            assert not any(
                key in w for w in windows for key in ("coalesced", "gap_before")
            )
            assert events[-1]["type"] == "end"
        assert hub.stats()["frames_decoded"] == len(messages)  # decoded once

    def test_interval_subscription_bounds_the_stream(self):
        messages, _ = striped_feed(seconds=8, nets=("10.1",))
        hub = live_hub(messages)

        async def scenario():
            server = await GatewayServer(hub).start()
            try:
                reader, writer = await open_client(server.port)
                events, _ = await asyncio.gather(
                    sse_events(
                        reader,
                        writer,
                        f"interval={BASE_TS + 2}%2C{BASE_TS + 5}",
                    ),
                    _start_after(hub, 1),
                )
                return events
            finally:
                await server.close()

        events = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        times = [e["time"] for w in events if w.get("type") == "window" for e in w["elems"]]
        assert times == [BASE_TS + 2, BASE_TS + 3, BASE_TS + 4, BASE_TS + 5]


class TestWebSocket:
    def test_stream_with_live_multiplexing_and_acks(self):
        messages, expect = striped_feed(seconds=8, nets=("10.1", "10.2"))
        hub = live_hub(messages)

        async def scenario():
            server = await GatewayServer(hub).start()
            try:
                reader, writer = await open_client(server.port)
                key = base64.b64encode(b"0123456789abcdef").decode()
                writer.write(
                    (
                        "GET /stream/ws?window=1000000 HTTP/1.1\r\nHost: x\r\n"
                        "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                        f"Sec-WebSocket-Key: {key}\r\n\r\n"
                    ).encode()
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"101 Switching Protocols" in head
                assert websocket_accept(key).encode() in head

                def control(message):
                    writer.write(
                        encode_ws_frame(json.dumps(message).encode(), OP_TEXT, mask=True)
                    )

                # Start wide open, then narrow to one /16 before frames flow.
                control({"action": "add_filter", "name": "prefix", "value": "10.1.0.0/16"})
                control({"action": "bogus"})
                await writer.drain()

                parser = WSFrameParser()
                received, closed = [], False
                acks_seen = 0

                async def pump():
                    nonlocal closed, acks_seen
                    while not closed:
                        data = await reader.read(4096)
                        if not data:
                            return
                        for opcode, payload in parser.feed(data):
                            if opcode == OP_CLOSE:
                                closed = True
                                return
                            if opcode != OP_TEXT:
                                continue
                            message = json.loads(payload)
                            received.append(message)
                            if message.get("type") in ("ack", "error"):
                                acks_seen += 1
                                if acks_seen == 2:
                                    started.set()

                started = asyncio.Event()

                async def start_when_acked():
                    await started.wait()
                    await _start_after(hub, 1)

                await asyncio.gather(pump(), start_when_acked())
                return received, closed
            finally:
                await server.close()

        received, closed = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        assert closed  # server sent a proper close frame after "end"
        acks = [m for m in received if m.get("type") == "ack"]
        errors = [m for m in received if m.get("type") == "error"]
        assert acks == [
            {"type": "ack", "action": "add_filter", "name": "prefix", "value": "10.1.0.0/16"}
        ]
        assert len(errors) == 1 and "bogus" in errors[0]["error"]
        windows = [m for m in received if m.get("type") == "window"]
        prefixes = [e["fields"]["prefix"] for w in windows for e in w["elems"]]
        assert prefixes == striped_feed(seconds=8, nets=("10.1", "10.2"))[1]["10.1"]
        assert received[-1]["type"] == "end"

    def test_ws_without_upgrade_header_is_rejected(self):
        hub = live_hub([make_update(65001, "10.1.0.0/24", BASE_TS)])

        async def scenario():
            server = await GatewayServer(hub).start()
            try:
                reader, writer = await open_client(server.port)
                writer.write(b"GET /stream/ws HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                return await reader.read()
            finally:
                await server.close()

        response = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        assert b"400 Bad Request" in response
        assert b"upgrade required" in response


class TestHTTPSurface:
    def request(self, hub, raw):
        async def scenario():
            server = await GatewayServer(hub).start()
            try:
                reader, writer = await open_client(server.port)
                writer.write(raw)
                await writer.drain()
                return await reader.read()
            finally:
                await server.close()

        return asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))

    def test_unknown_query_parameter_is_a_400(self):
        hub = live_hub([make_update(65001, "10.1.0.0/24", BASE_TS)])
        response = self.request(
            hub, b"GET /stream/sse?bogus=1 HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert b"400 Bad Request" in response
        assert b"unknown query parameter" in response

    def test_unknown_path_is_a_404_and_post_a_405(self):
        hub = live_hub([make_update(65001, "10.1.0.0/24", BASE_TS)])
        assert b"404 Not Found" in self.request(
            hub, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert b"405 Method Not Allowed" in self.request(
            hub, b"POST /stats HTTP/1.1\r\nHost: x\r\n\r\n"
        )

    def test_stats_reports_decode_once_counters(self):
        messages, _ = striped_feed(seconds=4, nets=("10.1",))
        hub = live_hub(messages)
        hub.run()  # feed fully decoded before the probe
        metrics.enable()
        try:
            response = self.request(hub, b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
        finally:
            metrics.disable()
        body = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert body["frames_decoded"] == len(messages)
        assert body["poll_wakeups"] == {"data": 0, "timeout": 0}
        assert body["records_seen"] == len(messages)
        assert body["finished"] is True
        assert "decode" in body  # decode counters ride along when enabled
        assert "intern" in body

    def test_stats_intern_counts_are_the_pools(self):
        """A subscriber that reads its elems interns their AS paths; /stats
        reports the pool's own tallies, not a copy only bgpreader made."""
        messages, _ = striped_feed(seconds=4, nets=("10.1",))
        reset_default_pool()
        metrics.enable()
        try:
            hub = live_hub(messages)
            subscriber = hub.subscribe(FilterSet().add("prefix", "10.1.0.0/16"))
            hub.run()
            assert [window.payload() for window in subscriber.drain()]
            response = self.request(hub, b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
        finally:
            metrics.disable()
        decode = json.loads(response.split(b"\r\n\r\n", 1)[1])["decode"]
        pool = default_pool().stats().values()
        probes = sum(stats["hits"] + stats["misses"] for stats in pool)
        assert probes > 0
        assert decode["intern_hits"] + decode["intern_misses"] == probes


class TestBackpressureEndToEnd:
    def test_slow_client_sees_gaps_while_fast_peer_is_gapless(self):
        seconds, per_second = 120, 4
        nets = tuple(f"10.{i + 1}" for i in range(per_second))
        messages, _ = striped_feed(seconds=seconds, nets=nets)
        hub = live_hub(messages)
        finished_before_slow_read = []

        async def scenario():
            # Tiny buffers: the slow client's unread bytes block its sender
            # coroutine almost immediately instead of hiding in the kernel.
            server = await GatewayServer(hub, socket_buffer=2048).start()
            try:

                async def fast():
                    reader, writer = await open_client(server.port)
                    return await sse_events(reader, writer, "window=1&max-queued=1000")

                async def slow():
                    reader, writer = await open_client(server.port, rcvbuf=4096)
                    writer.write(
                        b"GET /stream/sse?window=1&max-queued=3&coalesce-budget=24"
                        b" HTTP/1.1\r\nHost: x\r\n\r\n"
                    )
                    await writer.drain()
                    # Don't read anything until the whole feed has decoded:
                    # proves a stalled consumer cannot stall the bridge.
                    while not hub.finished:
                        await asyncio.sleep(0.01)
                    finished_before_slow_read.append(True)
                    events = []
                    while True:
                        line = await reader.readline()
                        if not line:
                            break
                        if line.startswith(b"data: "):
                            payload = json.loads(line[6:])
                            events.append(payload)
                            if payload.get("type") == "end":
                                break
                    writer.close()
                    return events

                (fast_events, slow_events), _ = await asyncio.gather(
                    asyncio.gather(fast(), slow()), _start_after(hub, 2)
                )
                return fast_events, slow_events
            finally:
                await server.close()

        fast_events, slow_events = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT * 2))
        assert finished_before_slow_read  # decode loop never waited for the client

        fast_windows = [e for e in fast_events if e.get("type") == "window"]
        assert len(window_prefixes(fast_events)) == len(messages)
        assert not any(
            key in w for w in fast_windows for key in ("coalesced", "gap_before", "dropped_elems")
        )

        slow_windows = [e for e in slow_events if e.get("type") == "window"]
        assert slow_events[-1]["type"] == "end"
        assert any("coalesced" in w or "gap_before" in w for w in slow_windows)
        # Exact wire-level accounting: every elem either arrived or is
        # counted by a gap marker on a delivered window.
        delivered = sum(len(w["elems"]) for w in slow_windows)
        dropped = sum(w.get("dropped_elems", 0) for w in slow_windows)
        assert delivered + dropped == len(messages)
        assert delivered < len(messages)  # backpressure actually engaged


class TestSenderFairness:
    def test_backlogged_connections_share_the_loop(self):
        # Wake-ups are edge-triggered and a keeping-up socket never suspends
        # in drain(), so a sender with a backlog takes it a bounded batch at
        # a time and hands the loop over in between — or its peers' first
        # windows wait for its last.
        hub = live_hub([make_update(65001, "10.1.0.0/24", BASE_TS)])
        server = GatewayServer(hub)
        backlog = 3 * SEND_BATCH_WINDOWS + 2
        subscribers = []
        for _ in range(2):
            subscriber = hub.subscribe(max_queued_windows=backlog)
            for second in range(backlog):
                subscriber.offer(
                    BGPElem(ElemType.ANNOUNCEMENT, BASE_TS + second, "10.0.0.1", 65001)
                )
            subscriber.flush(finished=True)
            subscribers.append(subscriber)
        turns = []

        async def send(index):
            async for batch in server._windows(subscribers[index], asyncio.Event()):
                turns.append((index, [window.start - BASE_TS for window in batch]))

        async def scenario():
            await asyncio.gather(send(0), send(1))

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        seconds = list(range(backlog))
        batches = [
            seconds[at : at + SEND_BATCH_WINDOWS] for at in range(0, backlog, SEND_BATCH_WINDOWS)
        ]
        assert turns == [(index, batch) for batch in batches for index in (0, 1)]


class TestCLI:
    def test_exit_when_drained_serves_a_recorded_feed(self, tmp_path):
        messages, expect = striped_feed(seconds=6, nets=("10.1", "10.2"))
        path = tmp_path / "frames.bmp"
        path.write_bytes(b"".join(m.encode() for m in messages))
        out = io.StringIO()
        args = cli.build_parser().parse_args(
            [
                "--live", str(path),
                "--port", "0",
                "--await-subscribers", "1",
                "--idle-polls", "3",
                "--poll-interval", "0.01",
                "--exit-when-drained",
                "--decode-stats",
            ]
        )
        result = {}

        def serve():
            result["code"] = cli.run(args, out)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.time() + TIMEOUT
        port = None
        while port is None and time.time() < deadline:
            for line in out.getvalue().splitlines():
                if "serving on" in line:
                    port = int(line.rsplit(":", 1)[1])
            time.sleep(0.01)
        assert port, f"no port line in {out.getvalue()!r}"

        with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT) as sock:
            sock.settimeout(TIMEOUT)
            sock.sendall(
                b"GET /stream/sse?prefix=10.1.0.0%2F16 HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            blob = b""
            while b'"type":"end"' not in blob:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                blob += chunk
        thread.join(timeout=TIMEOUT)
        assert not thread.is_alive()
        assert result["code"] == 0
        events = [
            json.loads(line[6:])
            for line in blob.decode().split("\n")
            if line.startswith("data: ")
        ]
        assert window_prefixes(events) == expect["10.1"]
        # --decode-stats prints the decode tally on exit.
        assert any(line.startswith("# ") and "frames" in line for line in out.getvalue().splitlines())


async def _start_after(hub, count):
    """Start the decode loop once ``count`` subscribers joined."""
    await await_subscribers(hub, count)
    hub.start()
