"""Chaos equivalence: injected faults never silently change the stream.

Every test replays a recorded scenario twice — once
fault-free, once with scripted faults injected through
:mod:`repro.core.resilience` — and asserts the surviving end-to-end elem
sequence is *exactly* the fault-free sequence modulo explicitly marked
gaps:

* transient Kafka-consumer faults absorbed by the poll retry policy →
  byte-for-byte equivalence, zero markers;
* corrupted BMP frames → the fault-free sequence minus exactly the
  corrupted frames' elems, with the corruption *counted*, never silent;
* non-transient bridge crashes → supervised restarts resume from the
  consumer group's committed offsets: equivalence modulo ``crash_before``
  markers, no loss, no duplicates;
* and the acceptance run: a real SSE client that reconnects with its
  resume token across a forced hub restart misses nothing it had not
  already acked.
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.bmp import BMPFeedProducer
from repro.bmp.source import BMPKafkaDataSource
from repro.core.interfaces import LiveDataInterface
from repro.core.resilience import RetryPolicy
from repro.core.stream import BGPStream
from repro.gateway.hub import StreamHub
from repro.gateway.server import GatewayServer
from repro.kafka.broker import MessageBroker
from repro.utils.timeutil import SimulatedClock

from test_hub import BASE_TS, delivered, make_update, publish_feed, striped_feed
from tests.fault_injection import FaultPlan, inject_faults

TOPIC = "openbmp.bmp_raw"
TIMEOUT = 30  # generous outer bound; everything real finishes in seconds


def run_hub(broker, *, plans=(), group="chaos", retry_policy=None, max_restarts=8):
    """Run a (possibly fault-injected, supervised) hub over ``broker``.

    ``plans`` stack outermost-first: each wraps the source's ``poll`` with
    its own scripted faults, so one run can combine transient faults (to
    be absorbed by ``retry_policy``) with non-transient crashes (to be
    absorbed by the supervisor).  Returns the drained subscriber triple
    from :func:`delivered` plus the hub.
    """

    def stream_factory() -> BGPStream:
        source = BMPKafkaDataSource(broker, topics=[TOPIC], group=group)
        for plan in reversed(plans):
            source = inject_faults(source, plan, ["poll"])
        interface = LiveDataInterface(
            source=source,
            max_empty_polls=2,
            poll_interval=0.0,
            retry_policy=retry_policy,
            clock=SimulatedClock(0.0),
        )
        return BGPStream(data_interface=interface)

    hub = StreamHub(
        stream_factory=stream_factory,
        max_restarts=max_restarts,
        restart_backoff=RetryPolicy(max_retries=max_restarts, base=0.0),
        clock=SimulatedClock(0.0),
    )
    subscriber = hub.subscribe(max_queued_windows=64)
    hub.run()
    prefixes, times, windows = delivered(subscriber)
    return prefixes, times, windows, hub


class TestConsumerFaultEquivalence:
    def test_transient_consumer_faults_leave_the_sequence_untouched(self):
        messages, _ = striped_feed(seconds=8, nets=("10.1", "10.2"))
        reference, ref_times, _, _ = run_hub(publish_feed(messages), group="chaos.ref")

        plan = FaultPlan(fail_at=(0, 1, 3))  # InjectedFault is transient
        prefixes, times, windows, hub = run_hub(
            publish_feed(messages),
            plans=(plan,),
            group="chaos.transient",
            retry_policy=RetryPolicy(max_retries=4, base=0.0),
        )
        assert prefixes == reference  # exact: no loss, no duplicates
        assert times == ref_times
        assert plan.injected == 3
        assert hub.crashes == 0  # absorbed below the supervisor
        assert sum(w.crash_before for w in windows) == 0

    def test_crash_faults_are_equivalent_modulo_crash_markers(self):
        messages, _ = striped_feed(seconds=10, nets=("10.1", "10.2"))
        reference, ref_times, _, _ = run_hub(publish_feed(messages), group="chaos.ref2")

        transient = FaultPlan(fail_at=(0,))
        crashes = FaultPlan(fail_at=(1, 3), error=RuntimeError)
        prefixes, times, windows, hub = run_hub(
            publish_feed(messages),
            plans=(crashes, transient),  # crash plan guards the retry loop too
            group="chaos.crashes",
            retry_policy=RetryPolicy(max_retries=4, base=0.0),
        )
        assert prefixes == reference  # committed offsets are the resume point
        assert times == ref_times
        assert len(prefixes) == len(set(prefixes))  # nothing re-delivered
        assert crashes.injected == 2 and transient.injected == 1
        assert hub.crashes == 2 and hub.restarts == 2 and not hub.gave_up
        assert sum(w.crash_before for w in windows) == 2  # marked, never silent


class TestFrameCorruptionEquivalence:
    def test_corrupt_frames_cost_exactly_their_own_elems_and_are_counted(self):
        messages, _ = striped_feed(seconds=10, nets=("10.1",))
        reference, _, _, _ = run_hub(publish_feed(messages), group="chaos.ref3")

        corrupt_at = {3, 7}
        broker = MessageBroker()
        producer = BMPFeedProducer(broker, router="rtr1.gw")
        for i, message in enumerate(messages):
            raw = bytearray(message.encode())
            if i in corrupt_at:
                raw[5] = 0xEE  # msg-type byte: framing survives, body does not
            producer.publish(bytes(raw))

        prefixes, times, windows, hub = run_hub(broker, group="chaos.corrupt")
        lost = {f"10.1.{i}.0/24" for i in corrupt_at}
        assert prefixes == [p for p in reference if p not in lost]
        assert times == sorted(times)
        stats = hub.stats()
        assert stats["corrupt_frames"] == len(corrupt_at)  # signalled per frame
        assert stats["frames_decoded"] == len(messages) - len(corrupt_at)
        assert hub.crashes == 0  # corruption is data, not a bridge failure


async def open_client(port):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setblocking(False)
    loop = asyncio.get_running_loop()
    await loop.sock_connect(sock, ("127.0.0.1", port))
    return await asyncio.open_connection(sock=sock)


async def read_event(reader):
    """One SSE event as ``(event_id, payload)``; heartbeat comments skipped."""
    event_id, payload = None, None
    while True:
        line = await reader.readline()
        if not line:
            return None, None
        if line in (b"\n", b"\r\n"):
            if payload is not None:
                return event_id, payload
            event_id = None  # a heartbeat comment frame: keep reading
        elif line.startswith(b"id: "):
            event_id = line[4:].strip().decode()
        elif line.startswith(b"data: "):
            payload = json.loads(line[6:])


class TestReconnectAcrossHubRestart:
    def test_sse_client_resumes_with_cursor_across_a_forced_restart(self):
        """The acceptance run: connect, ack three windows by carrying their
        resume token, vanish; the bridge is crashed and restarted while the
        client is away; reconnecting with the token replays everything from
        the first unacked boundary — no loss, no duplicates, one marker."""
        part1 = [make_update(65001, f"10.1.{i}.0/24", BASE_TS + i) for i in range(6)]
        part2 = [make_update(65001, f"10.1.{i}.0/24", BASE_TS + i) for i in range(6, 12)]
        broker = MessageBroker()
        producer = BMPFeedProducer(broker, router="rtr1.gw")
        for message in part1:
            producer.publish(message)

        plan = FaultPlan()
        config = {"max_empty_polls": None}  # incarnation 1 polls forever

        def stream_factory() -> BGPStream:
            source = BMPKafkaDataSource(broker, topics=[TOPIC], group="reconnect.e2e")
            return BGPStream(
                data_interface=LiveDataInterface(
                    source=inject_faults(source, plan, ["poll"]),
                    max_empty_polls=config["max_empty_polls"],
                    poll_interval=0.002,
                )
            )

        hub = StreamHub(stream_factory=stream_factory, max_restarts=8)

        async def scenario():
            server = await GatewayServer(
                hub, heartbeat_interval=0.05, session_ttl=30.0
            ).start()
            try:
                # -- leg one: a durable session reads three windows, then
                # vanishes without closing cleanly.
                reader, writer = await open_client(server.port)
                writer.write(
                    b"GET /stream/sse?session=alpha&window=1&max-queued=64"
                    b" HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                await writer.drain()
                assert b"200 OK" in await reader.readuntil(b"\r\n\r\n")
                while hub.subscriber_count < 1:
                    await asyncio.sleep(0.005)
                hub.start()
                tokens, first_leg = [], []
                while len(first_leg) < 3:
                    event_id, payload = await read_event(reader)
                    assert payload["type"] == "window"
                    assert payload["resume"] == event_id  # the cursor rides the id: line
                    tokens.append(event_id)
                    first_leg.extend(e["fields"]["prefix"] for e in payload["elems"])
                writer.close()

                # Failing heartbeats surface the dead connection; the
                # session parks with its unacked windows retained.
                while (
                    "alpha" not in server._sessions
                    or server._sessions["alpha"].attached
                ):
                    await asyncio.sleep(0.01)

                # -- crash the bridge while the client is away.  The
                # rebuilt incarnation gets a finite idle budget so the
                # feed can end once part two drains.
                config["max_empty_polls"] = 400
                plan.error = RuntimeError
                plan.fail_at = frozenset({plan.calls + 2})
                while hub.restarts < 1:
                    await asyncio.sleep(0.01)
                for message in part2:
                    producer.publish(message)

                # -- leg two: reconnect with the last token seen.
                reader2, writer2 = await open_client(server.port)
                writer2.write(
                    f"GET /stream/sse?resume={tokens[-1]} HTTP/1.1\r\n"
                    f"Host: x\r\n\r\n".encode()
                )
                await writer2.drain()
                assert b"200 OK" in await reader2.readuntil(b"\r\n\r\n")
                second_leg, markers = [], 0
                while True:
                    _event_id, payload = await read_event(reader2)
                    if payload["type"] != "window":
                        final = payload
                        break
                    markers += payload.get("crash_before", 0)
                    second_leg.extend(e["fields"]["prefix"] for e in payload["elems"])
                writer2.close()
                return first_leg, second_leg, markers, final
            finally:
                await server.close()

        first_leg, second_leg, markers, final = asyncio.run(
            asyncio.wait_for(scenario(), TIMEOUT)
        )
        assert first_leg == [f"10.1.{i}.0/24" for i in range(3)]
        # Replay starts at the first boundary the client never acked:
        # windows 3-4 were in flight when it vanished, 5-11 arrived later.
        assert second_leg == [f"10.1.{i}.0/24" for i in range(3, 12)]
        assert markers == 1  # the restart is visible exactly once
        assert final["type"] == "end"  # recovered: a clean end ...
        assert final.get("crashes") == 1  # ... that still discloses the crash
        assert hub.crashes == 1 and hub.restarts == 1 and not hub.gave_up
