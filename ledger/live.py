"""The two live workloads: BMP frames → Kafka → hub → gateway → sockets.

The system under test is the hub and server exactly as ``repro.gateway.cli``
builds them (shipped defaults: 50 ms idle poll, lazy decode, interned), except
that the in-memory Kafka broker is ours so a generator thread can publish into
it while the gateway runs.  Everything shares one process (the broker is
in-memory), so the load generator is kept to two threads that do as little as
possible while the clock runs: a producer that publishes pre-encoded frames,
and one asyncio loop whose two socket clients only timestamp and store the
bytes they receive.  Payloads are parsed and checked after the clock stops.
Loopback only: no number here says anything about a real network.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import resource
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import inputs
import params
from spans import Tracer


TOPIC = "openbmp.bmp_raw"
ROUTER = "ledger-rtr"
PACED_SWITCH_INTERVAL = 0.0005
#: live-catchup's socket clients ask for a deep queue (the ``max-queued``
#: query knob), as a consumer resuming from a backlog would: the default of 8
#: windows is sized for a live feed, and one scheduling hiccup while the hub
#: runs flat out would coalesce windows and turn a capacity reading into a
#: failed one.  live-paced keeps the default.
CATCHUP_MAX_QUEUED = 1024


# ---------------------------------------------------------------------------
# The system under test
# ---------------------------------------------------------------------------


class TimedSource:
    """Traced runs only: wraps ``BMPKafkaDataSource.poll`` with a stopwatch."""

    def __init__(self, source, tracer: Tracer, root: int) -> None:
        self._source = source
        self._tracer = tracer
        self._root = root
        self.polls = self.empty_polls = self.frames = self.lag_max = 0
        self.poll_s = 0.0

    def __getattr__(self, name):
        return getattr(self._source, name)

    def poll(self, max_messages=None):
        self.lag_max = max(self.lag_max, self._source.lag())
        started = time.perf_counter()
        pairs = self._source.poll(max_messages)
        ended = time.perf_counter()
        self._tracer.add("bmp.source.poll", started, ended, self._root)
        self.polls += 1
        self.poll_s += ended - started
        self.frames += len(pairs)
        if not pairs:
            self.empty_polls += 1
        return pairs


def build_hub(broker, idle_polls: int, wrap_source=None):
    """``repro.gateway.cli.build_hub`` over a broker we can publish into."""
    from repro.bmp.source import BMPKafkaDataSource
    from repro.core.interfaces import LiveDataInterface
    from repro.core.stream import BGPStream
    from repro.gateway.hub import StreamHub

    def stream_factory() -> BGPStream:
        # LiveDataInterface(broker=..., topics=...) builds this same source.
        source = BMPKafkaDataSource(broker, topics=[TOPIC])
        interface = LiveDataInterface(
            source=source if wrap_source is None else wrap_source(source),
            max_empty_polls=idle_polls,
            poll_interval=params.GATEWAY_POLL_INTERVAL,
        )
        return BGPStream(data_interface=interface, interning=True, eager=None)

    return StreamHub(stream_factory=stream_factory, max_restarts=params.GATEWAY_MAX_RESTARTS)


class ServerThread:
    """The gateway's asyncio server on its own loop and thread (SUT side)."""

    def __init__(self, hub) -> None:
        self.hub = hub
        self.port = 0
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="gateway-server", daemon=True)

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(10) or self._error is not None:
            raise RuntimeError(f"gateway server did not start: {self._error}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except Exception as exc:  # surfaced by start()
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        from repro.gateway.server import GatewayServer

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await GatewayServer(
            self.hub,
            host="127.0.0.1",
            port=0,
            heartbeat_interval=params.GATEWAY_HEARTBEAT,
            session_ttl=params.GATEWAY_SESSION_TTL,
        ).start()
        self.port = server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.close()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10)
        if self._thread.is_alive():
            raise RuntimeError("gateway server thread did not stop")


# ---------------------------------------------------------------------------
# The load generator: two socket clients + one producer
# ---------------------------------------------------------------------------


async def _sse_client(port: int, knobs: str, sink: List[Tuple[float, bytes]]) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 26)
    try:
        writer.write(f"GET /stream/sse?name=sse{knobs} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode())
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")
        clock = time.perf_counter
        while True:
            event = await reader.readuntil(b"\n\n")
            sink.append((clock(), event))
            if not event.startswith(b"event: window"):
                return
    finally:
        writer.close()


async def _ws_client(port: int, prefix: str, knobs: str, sink: List[Tuple[float, bytes]]) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 26)
    try:
        key = base64.b64encode(os.urandom(16)).decode()
        writer.write(
            (
                f"GET /stream/ws?prefix={prefix}&name=ws{knobs} "
                "HTTP/1.1\r\nHost: localhost\r\nUpgrade: websocket\r\n"
                f"Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")
        clock = time.perf_counter
        while True:
            head = await reader.readexactly(2)
            opcode, length = head[0] & 0x0F, head[1] & 0x7F
            if length == 126:
                length = int.from_bytes(await reader.readexactly(2), "big")
            elif length == 127:
                length = int.from_bytes(await reader.readexactly(8), "big")
            payload = await reader.readexactly(length) if length else b""
            if opcode == 0x8:  # close
                return
            if opcode == 0x1:  # text: a window, or the final end/error frame
                sink.append((clock(), payload))
    finally:
        writer.close()


def _paced_producer(producer, frames: List[bytes], rate: float, t0: float, late: List[float]):
    """Open loop: frame ``i`` is due at ``t0 + i/rate`` no matter what."""
    clock, sleep, publish = time.perf_counter, time.sleep, producer.publish
    for index, frame in enumerate(frames):
        due = t0 + index / rate
        now = clock()
        while now < due:
            sleep(due - now)
            now = clock()
        late.append(now - due)
        publish(frame)


# ---------------------------------------------------------------------------
# One session: build the SUT, attach consumers, run, tear down
# ---------------------------------------------------------------------------


def run_session(
    feed: inputs.Feed,
    live: dict,
    paced: bool,
    sockets: bool = True,
    wrap_source=None,
) -> dict:
    """One gateway lifetime over ``feed``; returns raw timings and captures."""
    from repro.bmp.source import BMPFeedProducer
    from repro.core.filters import FilterSet
    from repro.kafka.broker import MessageBroker

    broker = MessageBroker()
    producer = BMPFeedProducer(broker, topic=TOPIC, router=ROUTER)
    if not paced:
        for frame in feed.frames:
            producer.publish(frame)
    # A paced feed ends after ``idle_polls`` silent polls; a backlog is done
    # at the first empty poll, which returns without sleeping.
    hub = build_hub(broker, live["idle_polls"] if paced else 1, wrap_source)

    # Socket-less subscribers give the fan-out its width; each drains itself
    # from its notifier, as a connection handler would.
    quiet = []
    for index, prefix in enumerate(feed.subscriber_prefixes):
        subscriber = hub.subscribe(FilterSet().add("prefix", prefix), name=f"quiet-{index}")
        subscriber.set_notifier(subscriber.drain)
        quiet.append(subscriber)
    direct = []
    if not sockets:
        # Hub-only run: the two socket clients become socket-less as well.
        for name, filters in (("sse", FilterSet()), ("ws", FilterSet().add("prefix", feed.ws_prefix))):
            subscriber = hub.subscribe(filters, max_queued_windows=CATCHUP_MAX_QUEUED, name=name)
            subscriber.set_notifier(subscriber.drain)
            direct.append(subscriber)

    captures: Dict[str, List[Tuple[float, bytes]]] = {"sse": [], "ws": []}
    late: List[float] = []
    timing = {"t_start": 0.0, "t_end": 0.0, "t0": 0.0}
    server = ServerThread(hub).start() if sockets else None
    expected_subscribers = len(quiet) + 2

    async def drive() -> None:
        clients = []
        if sockets:
            knobs = "" if paced else f"&max-queued={CATCHUP_MAX_QUEUED}"
            clients = [
                asyncio.ensure_future(_sse_client(server.port, knobs, captures["sse"])),
                asyncio.ensure_future(
                    _ws_client(server.port, feed.ws_prefix, knobs, captures["ws"])
                ),
            ]
            deadline = time.perf_counter() + 10
            while hub.subscriber_count < expected_subscribers:
                if time.perf_counter() > deadline:
                    raise RuntimeError("socket clients did not subscribe in time")
                await asyncio.sleep(0.005)
        generator = None
        timing["t_start"] = time.perf_counter()
        if paced:
            timing["t0"] = timing["t_start"] + 0.02
            generator = threading.Thread(
                target=_paced_producer,
                args=(producer, feed.frames, float(live["rate_fps"]), timing["t0"], late),
                name="loadgen",
                daemon=True,
            )
            generator.start()
        hub.start()
        if clients:
            await asyncio.wait_for(asyncio.gather(*clients), timeout=150)
        else:
            while not hub.finished:
                await asyncio.sleep(0.005)
        timing["t_end"] = time.perf_counter()
        if generator is not None:
            generator.join(10)
            if generator.is_alive():
                raise RuntimeError("load generator thread did not finish")

    # Generator and gateway share one interpreter lock.  At the default 5 ms
    # switch interval the producer waits whole intervals for its turn and
    # cannot hold a 0.5 ms schedule, so paced runs shorten it.
    switch_interval = sys.getswitchinterval()
    if paced:
        sys.setswitchinterval(PACED_SWITCH_INTERVAL)
    try:
        asyncio.run(drive())
    finally:
        sys.setswitchinterval(switch_interval)
        hub.stop(timeout=5.0)
        if server is not None:
            server.stop()

    # Counters of the subscribers we hold; the server has already released the
    # two socket subscribers, whose windows (and any loss markers) are in the
    # captures instead.
    snapshots = [subscriber.snapshot() for subscriber in quiet + direct]
    return {
        "captures": captures,
        "late": late,
        "t0": timing["t0"],
        "t_start": timing["t_start"],
        "wall": timing["t_end"] - timing["t_start"],
        "records_seen": hub.records_seen,
        "elems_seen": hub.elems_seen,
        "elems_delivered": hub.elems_delivered,
        "subscribers": expected_subscribers,
        "hub_error": hub.error,
        "windows_closed": sum(s["windows_closed"] for s in snapshots),
        "windows_coalesced": sum(s["windows_coalesced"] for s in snapshots),
        "elems_dropped": sum(s["elems_dropped"] for s in snapshots),
    }


# ---------------------------------------------------------------------------
# Correctness + latency, after the clock has stopped
# ---------------------------------------------------------------------------


def _decode(name: str, raw: bytes) -> dict:
    if name == "sse":
        raw = next(line for line in raw.split(b"\n") if line.startswith(b"data: "))[6:]
    return json.loads(raw)


def check_session(feed: inputs.Feed, live: dict, session: dict, paced: bool) -> dict:
    """Compare what each socket client received with what it was owed."""
    attempted = failed = bytes_out = elems_received = received = coalesced = dropped = 0
    latencies: List[float] = []
    first_window: List[float] = []
    last_closed = 0.0
    problems: List[str] = []
    rate = float(live["rate_fps"])
    for name, owed in feed.expected.items():
        capture = session["captures"][name]
        bytes_out += sum(len(raw) for _stamp, raw in capture)
        attempted += len(owed)
        owed_by_start = {window.start: window for window in owed}
        bad = seen = 0
        final = None
        for stamp, raw in capture:
            message = _decode(name, raw)
            if message.get("type") != "window":
                final = message.get("type")
                continue
            if not seen:
                first_window.append(stamp - session["t_start"])
            seen += 1
            received += 1
            window = owed_by_start.pop(message["window_start"], None)
            if window is None:
                bad += 1  # a window nobody owed this client (or a repeat)
                continue
            prefixes = [e["fields"]["prefix"] for e in message["elems"]]
            elems_received += len(prefixes)
            marked = any(message.get(k) for k in ("coalesced", "gap_before", "dropped_elems"))
            coalesced += message.get("coalesced", 0)
            dropped += message.get("dropped_elems", 0)
            wrong = prefixes != window.prefixes or message["window_end"] != window.start + 1
            late = False
            if paced and window.closing_frame is not None:
                due = session["t0"] + window.closing_frame / rate
                latency_ms = (stamp - due) * 1e3
                latencies.append(latency_ms)
                late = latency_ms > live["late_ms"]
                last_closed = max(last_closed, stamp)
            if marked or wrong or late:
                bad += 1
        bad += len(owed_by_start)  # owed but never received
        if final != "end":
            problems.append(f"{name}: stream did not finish with an end frame")
            bad = len(owed)
        if bad:
            problems.append(f"{name}: {bad} of {len(owed)} windows missing, marked, wrong or late")
        failed += min(bad, len(owed))
    if session["hub_error"] is not None:
        problems.append(f"hub error: {session['hub_error']!r}")
        failed = attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "latencies_ms": latencies,
        "first_window_s": min(first_window) if first_window else 0.0,
        "last_closed_s": last_closed - session["t0"],
        "bytes_out": bytes_out,
        "elems_received": elems_received,
        "windows_received": received,
        "windows_coalesced": coalesced,
        "elems_dropped": dropped,
    }


def _percentile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))]


# ---------------------------------------------------------------------------
# Untraced end-to-end measurement
# ---------------------------------------------------------------------------


def _paced_frames(live: dict, seconds: float) -> int:
    """Open loop at a fixed rate for the whole measuring time."""
    return max(live["frames_per_event_second"] * 4, int(live["rate_fps"] * seconds))


def setup(seed: int, scale: dict) -> Tuple[inputs.Feed, float]:
    """Generate the feed ``setup_reps`` times; returns the last + median wall."""
    walls, shas = [], set()
    for _rep in range(scale["setup_reps"]):
        started = time.perf_counter()
        feed = inputs.make_feed(seed, scale["live"])
        walls.append(time.perf_counter() - started)
        shas.add(feed.sha256)
    if len(shas) != 1:
        raise RuntimeError("live feed generation is not deterministic")
    return feed, statistics.median(walls)


def measure(
    workload: str, seed: int, seconds: float, scale: dict, inject_fault: bool = False
) -> dict:
    """One reading of a live workload.

    ``inject_fault`` discards one window a socket client received before the
    check runs, to show that the correctness gate can fail.
    """
    live = dict(scale["live"])
    paced = workload == "live-paced"
    if paced:
        live["frames"] = _paced_frames(live, seconds)
    feed, setup_s = setup(seed, dict(scale, live=live))

    sessions: List[dict] = []
    began = time.perf_counter()
    while not sessions or (
        not paced
        and (
            len(sessions) < scale["min_reps"]
            or time.perf_counter() - began + statistics.median(s["wall"] for s in sessions)
            <= seconds
        )
    ):
        session = run_session(feed, live, paced)
        if not sessions:
            # Peak RSS after one gateway lifetime, read before the captured
            # payloads are parsed so the checker's garbage is not charged.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if inject_fault:
            del session["captures"]["sse"][len(session["captures"]["sse"]) // 2]
        session["check"] = check_session(feed, live, session, paced)
        session["captures"] = None
        sessions.append(session)

    attempted = sum(s["check"]["attempted"] for s in sessions)
    failed = sum(s["check"]["failed"] for s in sessions)
    problems = sorted({p for s in sessions for p in s["check"]["problems"]})
    # The fastest drain: on a box whose clock speed wanders, interference only
    # ever adds time (see README, "Noise").
    wall = min(s["wall"] for s in sessions)
    frames = len(feed.frames)
    reading = {
        "workload": workload,
        "input_sha256": feed.sha256,
        "input": f"{frames} frames / {feed.elems} elems, {sessions[0]['subscribers']} subscribers "
        "(2 loopback sockets)",
        "passes": len(sessions),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb},
        "derived": {"failed_ops_pct": 100.0 * failed / max(1, attempted)},
    }
    e2e, derived = reading["end_to_end"], reading["derived"]
    if paced:
        session = sessions[0]
        latencies = session["check"]["latencies_ms"]
        if not latencies:
            raise RuntimeError(f"no window reached a socket client: {problems}")
        late_p50 = statistics.median(session["late"]) * 1e3
        reading["loop"] = f"open loop, {live['rate_fps']} frames/s, timed from each frame's due instant"
        # Frames whose windows closed, over the time it took to deliver them.
        closing = max(w.closing_frame or 0 for w in feed.expected["sse"])
        e2e["records_per_s"] = closing / session["check"]["last_closed_s"]
        e2e["result_latency_ms"] = statistics.median(latencies)
        derived["window_latency_p50_ms"] = e2e["result_latency_ms"]
        derived["window_latency_p99_ms"] = _percentile(latencies, 99)
        derived["window_latency_samples"] = len(latencies)
        derived["loadgen_send_late_p50_ms"] = late_p50
        derived["loadgen_send_late_p99_ms"] = _percentile(session["late"], 99) * 1e3
        if late_p50 > params.LOADGEN_LATE_LIMIT_MS:
            # The generator, not the gateway, was the limit: the reading says
            # nothing about the system, so it is invalid rather than slow.
            reading["invalid"] = (
                f"load generator ran {late_p50:.2f} ms late at the median "
                f"(limit {params.LOADGEN_LATE_LIMIT_MS} ms)"
            )
    else:
        reading["loop"] = "closed loop, whole backlog published before hub.start()"
        e2e["records_per_s"] = frames / wall
        e2e["result_latency_ms"] = min(s["check"]["first_window_s"] for s in sessions) * 1e3
        derived["frames_per_s"] = frames / wall
        derived["elems_per_s"] = (
            statistics.median(s["check"]["elems_received"] for s in sessions) / wall
        )
        derived["drain_s"] = wall
    return reading


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _isolated_layers(feed: inputs.Feed, tracer: Tracer) -> dict:
    """Each live layer's public call, alone, over the same frames."""
    from repro.bmp.codec import scan_buffer
    from repro.bmp.convert import BMPRecordConverter
    from repro.bmp.source import BMPFeedProducer
    from repro.core.filters import FilterSet
    from repro.core.intern import reset_default_pool
    from repro.gateway import protocol
    from repro.gateway.hub import Subscriber
    from repro.kafka.broker import MessageBroker
    from repro.kafka.client import Consumer

    clock = time.perf_counter
    out: Dict[str, float] = {}
    root = tracer.open("pass:isolated", clock())
    reset_default_pool()

    def span(name: str, started: float) -> float:
        ended = clock()
        tracer.add(name, started, ended, root)
        return ended - started

    broker = MessageBroker()
    producer = BMPFeedProducer(broker, topic=TOPIC, router=ROUTER)
    t = clock()
    for frame in feed.frames:
        producer.publish(frame)
    out["produce"] = span("kafka.produce", t)

    consumer = Consumer(broker, group="ledger-isolated", topics=[TOPIC])
    t = clock()
    polled = consumer.poll()
    out["poll"] = span("kafka.poll", t)

    t = clock()
    messages = [m for kafka_message in polled for m in scan_buffer(kafka_message.value)]
    out["scan"] = span("bmp.codec.scan_buffer", t)
    out["corrupt"] = sum(1 for m in messages if not m.is_valid)

    converter = BMPRecordConverter()
    t = clock()
    records = [r for m in messages for r in converter.convert(ROUTER, m)]
    out["convert"] = span("bmp.convert.convert", t)

    t = clock()
    elems = [e for r in records for e in r.elems()]
    out["elems"] = span("core.record.elems", t)
    out["elem_count"] = len(elems)

    subscribers = [Subscriber(FilterSet(), max_queued_windows=len(feed.frames), name="sse")]
    subscribers.append(
        Subscriber(FilterSet().add("prefix", feed.ws_prefix), max_queued_windows=len(feed.frames))
    )
    for prefix in feed.subscriber_prefixes:
        quiet = Subscriber(FilterSet().add("prefix", prefix))
        quiet.set_notifier(quiet.drain)
        subscribers.append(quiet)
    admitted = 0
    t = clock()
    for elem in elems:
        for subscriber in subscribers:
            if subscriber.offer(elem):
                admitted += 1
    out["offer"] = span("gateway.hub.offer", t)
    out["probes"] = len(elems) * len(subscribers)
    out["admitted"] = admitted
    for subscriber in subscribers[:2]:
        subscriber.flush()

    serialise = frame_s = 0.0
    wire_bytes = window_count = wire_elems = 0
    for index, subscriber in enumerate(subscribers[:2]):
        for window in subscriber.drain():
            t0 = clock()
            payload = window.payload()
            text = protocol.dumps(payload)
            t1 = clock()
            if index == 0:
                # sse_event() serialises again inside; what it costs beyond a
                # second dumps() is the framing.
                protocol.dumps(payload)
                t2 = clock()
                protocol.sse_event(payload, event="window")
                t3 = clock()
                framing = max(0.0, (t3 - t2) - (t2 - t1))
            else:
                protocol.encode_ws_frame(text.encode("utf-8"))
                t3 = clock()
                framing = t3 - t1
            tracer.add("gateway.protocol.serialise", t0, t1, root)
            tracer.add("gateway.protocol.frame", t1, t3, root)
            serialise += t1 - t0
            frame_s += framing
            wire_bytes += len(text)
            wire_elems += len(window.elems)
            window_count += 1
    out.update(serialise=serialise, frame=frame_s, wire_bytes=wire_bytes,
               wire_elems=wire_elems, windows=window_count)
    tracer.close(root, clock())
    return out


def trace(workload: str, seed: int, seconds: float, scale: dict, out_path: str) -> dict:
    """The traced run of a live workload."""
    live = dict(scale["live"])
    paced = workload == "live-paced"
    if paced:
        # Two paced sessions (reference + poll-timed) share the run's time.
        live["frames"] = _paced_frames(live, seconds / 2)
    feed = inputs.make_feed(seed, live)
    tracer = Tracer(f"{workload}-seed{seed}")
    frames = len(feed.frames)

    # 1. The reference: the untraced socket run.
    reference = run_session(feed, live, paced)
    checked = check_session(feed, live, reference, paced)
    reference["captures"] = None
    wall = reference["wall"]

    # 2. The same run with the poll boundary timed in place (poll counts only
    #    exist in situ), and a hub-only run beside it.
    root = tracer.open("pass:socket-run", time.perf_counter())
    sources: List[TimedSource] = []

    def wrap(source):
        sources.append(TimedSource(source, tracer, root))
        return sources[-1]

    traced = run_session(feed, live, paced, wrap_source=wrap)
    tracer.close(root, time.perf_counter())
    traced_check = check_session(feed, live, traced, paced)
    traced["captures"] = None
    source = sources[0]
    hub_only_wall = 0.0
    if not paced:
        t0 = time.perf_counter()
        hub_only = run_session(feed, live, paced, sockets=False)
        tracer.add("pass:hub-only", t0, time.perf_counter())
        hub_only_wall = hub_only["wall"]

    # 3. Each layer alone over the same frames.
    iso = _isolated_layers(feed, tracer)

    protocol_s = iso["serialise"] + iso["frame"]
    hub_side = {
        "kafka": iso["poll"],
        "bmp.codec": iso["scan"],
        "bmp.convert": iso["convert"],
        "core.record": iso["elems"],
        "gateway.hub": iso["offer"],
    }
    layers = dict(hub_side)
    layers["gateway.protocol"] = protocol_s
    # The poll that ends the feed returns without sleeping; every other empty
    # poll costs one poll_interval of sleep.
    sleeping_polls = max(0, source.empty_polls - 1)
    idle_s = sleeping_polls * params.GATEWAY_POLL_INTERVAL
    if paced:
        # The schedule fixes the wall: it is busy time + poll sleeps + slack.
        layers["gateway.server"] = 0.0
        layers["bmp.source"] = idle_s
        unattributed = wall - sum(layers.values())
        deliver_share = 0.0
    else:
        # Delivery = what the sockets add to a hub-only run, minus the
        # serialisation measured alone.
        layers["gateway.server"] = max(0.0, wall - hub_only_wall - protocol_s)
        layers["bmp.source"] = 0.0
        unattributed = hub_only_wall - sum(hub_side.values())
        deliver_share = 100.0 * (wall - hub_only_wall) / wall

    latencies = traced_check["latencies_ms"] if paced else []
    ref_latencies = checked["latencies_ms"] if paced else []
    per_layer = {
        "kafka.produce_us": iso["produce"] * 1e6 / frames,
        "kafka.poll_us_per_msg": iso["poll"] * 1e6 / frames,
        "kafka.lag_max": source.lag_max,
        "bmp.codec.scan_us_per_frame": iso["scan"] * 1e6 / frames,
        "bmp.codec.corrupt": iso["corrupt"],
        "bmp.source.poll_s": source.poll_s,
        "bmp.source.polls": source.polls,
        "bmp.source.frames_per_poll": source.frames / max(1, source.polls - source.empty_polls),
        "bmp.source.empty_poll_ratio": sleeping_polls / max(1, source.polls),
        "bmp.convert.us_per_frame": iso["convert"] * 1e6 / frames,
        "core.record.elems_s": iso["elems"],
        "core.record.elems": iso["elem_count"],
        "core.record.elems_per_record": iso["elem_count"] / frames,
        "gateway.hub.offer_ns": iso["offer"] * 1e9 / max(1, iso["probes"]),
        "gateway.hub.probes": reference["elems_seen"] * reference["subscribers"],
        "gateway.hub.match_ratio": reference["elems_delivered"]
        / max(1, reference["elems_seen"] * reference["subscribers"]),
        "gateway.hub.windows_closed": reference["windows_closed"] + checked["windows_received"],
        "gateway.hub.windows_coalesced": reference["windows_coalesced"]
        + checked["windows_coalesced"],
        "gateway.hub.elems_dropped": reference["elems_dropped"] + checked["elems_dropped"],
        "gateway.protocol.serialise_us_per_elem": iso["serialise"] * 1e6 / max(1, iso["wire_elems"]),
        "gateway.protocol.frame_us_per_window": iso["frame"] * 1e6 / max(1, iso["windows"]),
        "gateway.protocol.bytes_per_elem": iso["wire_bytes"] / max(1, iso["wire_elems"]),
        "gateway.server.deliver_share_pct": deliver_share,
        "gateway.server.bytes_out": checked["bytes_out"],
        "gateway.elems_per_s": checked["elems_received"] / wall,
        "gateway.window_latency_p50_ms": statistics.median(ref_latencies) if ref_latencies else 0.0,
        "gateway.window_latency_p99_ms": _percentile(ref_latencies, 99) if ref_latencies else 0.0,
        "gateway.window_latency_samples": len(ref_latencies),
        "loadgen.send_late_p50_ms": statistics.median(reference["late"]) * 1e3 if paced else 0.0,
        "loadgen.send_late_p99_ms": _percentile(reference["late"], 99) * 1e3 if paced else 0.0,
        "loadgen.offered_fps": frames / (frames / live["rate_fps"]) if paced else 0.0,
        "live.unattributed_pct": 100.0 * unattributed / wall,
        "trace.overhead_pct": 100.0 * (traced["wall"] - wall) / wall
        if not paced
        else (
            100.0 * (statistics.median(latencies) - statistics.median(ref_latencies))
            / statistics.median(ref_latencies)
        ),
    }
    for layer, layer_seconds in layers.items():
        per_layer[f"{layer}.share_pct"] = 100.0 * layer_seconds / wall

    tracer.write(out_path, {"wall_s": wall, "hub_only_wall_s": hub_only_wall, "frames": frames})
    return {
        "workload": workload,
        "input_sha256": feed.sha256,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "problems": checked["problems"],
        "per_layer": per_layer,
        "reference_wall_s": wall,
        "nesting_errors": tracer.nesting_errors(),
        "spans": len(tracer.spans),
        "trace_file": out_path,
    }
