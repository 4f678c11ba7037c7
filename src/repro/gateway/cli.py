"""repro-gateway: serve a live BMP feed to many filtered subscribers.

Replays a recorded raw BMP frame stream (the ``bgpreader --live`` format)
through an in-memory Kafka broker, decodes it **once** in a bridge thread,
and fans the elems out over WebSocket (``/stream/ws``) and SSE
(``/stream/sse``) with per-client filters, event-time windows and
backpressure.  ``/stats`` reports the decode-once counters.

    python -m repro.gateway --live frames.bmp --port 8400 \
        --await-subscribers 1 --idle-polls 100

See ``examples/gateway_client.py`` for both client idioms.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import threading
from typing import IO, List, Optional

from repro.core import metrics
from repro.core.interfaces import LiveDataInterface
from repro.core.stream import BGPStream
from repro.gateway.hub import StreamHub
from repro.gateway.server import GatewayServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gateway",
        description="Fan a live BMP feed out to filtered WebSocket/SSE subscribers.",
    )
    source = parser.add_argument_group("data source")
    source.add_argument(
        "--live",
        required=True,
        help="path to a recorded raw BMP frame stream, replayed through an "
             "in-memory Kafka broker (OpenBMP-style feed)",
    )
    source.add_argument("--bmp-topic", default=None,
                        help="Kafka topic for the BMP frames (default: openbmp.bmp_raw)")
    source.add_argument("--bmp-router", default=None,
                        help="router name keying the feed (default: the file name)")

    serving = parser.add_argument_group("serving")
    serving.add_argument("--host", default="127.0.0.1")
    serving.add_argument("--port", type=int, default=8400,
                         help="TCP port (0 picks an ephemeral port; default: 8400)")
    serving.add_argument(
        "--await-subscribers", type=int, default=0, metavar="N",
        help="hold the decode loop until N subscribers connected "
             "(default: 0 = start immediately)",
    )
    serving.add_argument(
        "--idle-polls", type=int, default=None, metavar="N",
        help="end the feed after N consecutive empty polls "
             "(default: poll forever; replay demos want a small number)",
    )
    serving.add_argument(
        "--poll-interval", type=float, default=0.05,
        help="longest idle block, in seconds: an idle feed wakes on the next "
             "publish and looks at --idle-polls / shutdown at least this "
             "often (default: 0.05)",
    )
    serving.add_argument(
        "--exit-when-drained", action="store_true",
        help="shut the server down once the feed finished and every "
             "subscriber drained (replay/benchmark mode)",
    )
    serving.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="additionally serve the Prometheus /metrics exposition on a "
             "standalone scrape port (the gateway itself always serves "
             "GET /metrics on its main port once metrics are enabled); "
             "implies enabling the telemetry registry",
    )
    serving.add_argument(
        "--metrics", action="store_true",
        help="enable the telemetry registry without a standalone scrape "
             "port; GET /metrics on the main port serves the exposition",
    )

    engine = parser.add_argument_group("engine")
    engine.add_argument("--decode-stats", action="store_true",
                        help="enable the telemetry registry and print its "
                             "decode-tier counters as #-lines on exit (/stats "
                             "serves them while the registry is on)")

    resilience = parser.add_argument_group("resilience")
    resilience.add_argument(
        "--max-restarts", type=int, default=3, metavar="N",
        help="bridge crashes absorbed by supervised restart before the hub "
             "gives up and surfaces the error (default: 3)",
    )
    resilience.add_argument(
        "--heartbeat-interval", type=float, default=15.0, metavar="SECONDS",
        help="send-side silence before a keepalive frame (SSE comment / WS "
             "ping); 0 disables heartbeats (default: 15)",
    )
    resilience.add_argument(
        "--session-ttl", type=float, default=60.0, metavar="SECONDS",
        help="how long a disconnected session= subscription is retained for "
             "reconnect-with-cursor before it is reaped (default: 60)",
    )
    return parser


def build_hub(args: argparse.Namespace) -> StreamHub:
    """The live stream + hub for parsed CLI arguments (no sockets yet)."""
    from repro.bmp.source import DEFAULT_BMP_TOPIC, BMPFeedProducer
    from repro.kafka.broker import MessageBroker

    topic = args.bmp_topic or DEFAULT_BMP_TOPIC
    router = args.bmp_router or os.path.basename(args.live)
    broker = MessageBroker()
    producer = BMPFeedProducer(broker, topic=topic, router=router)
    try:
        with open(args.live, "rb") as handle:
            producer.publish(handle.read())
    except OSError as exc:
        raise SystemExit(f"repro-gateway: error: cannot read --live file: {exc}")

    def stream_factory() -> BGPStream:
        # Rebuilt after a bridge crash: the new source joins the same
        # broker + consumer group, so committed offsets are the resume
        # point and no message is lost or re-delivered.
        interface = LiveDataInterface(
            broker=broker,
            topics=[topic],
            max_empty_polls=args.idle_polls,
            poll_interval=args.poll_interval,
        )
        return BGPStream(data_interface=interface)

    return StreamHub(
        stream_factory=stream_factory,
        max_restarts=max(args.max_restarts, 0),
    )


async def _amain(args: argparse.Namespace, out: IO[str]) -> int:
    hub = build_hub(args)
    heartbeat = args.heartbeat_interval if args.heartbeat_interval > 0 else None
    server = await GatewayServer(
        hub,
        host=args.host,
        port=args.port,
        heartbeat_interval=heartbeat,
        session_ttl=args.session_ttl,
    ).start()
    print(f"# repro-gateway serving on {args.host}:{server.port}", file=out, flush=True)

    def launch_decode() -> None:
        if args.await_subscribers > 0:
            while hub.subscriber_count < args.await_subscribers:
                if stop_waiting.wait(0.02):
                    return
        hub.start()

    stop_waiting = threading.Event()
    launcher = threading.Thread(target=launch_decode, daemon=True)
    launcher.start()
    try:
        if args.exit_when_drained:
            while not hub.finished:
                await asyncio.sleep(0.05)
            # Let connected subscribers drain their queues before closing.
            while any(s.ready_count for s in hub.subscribers()):
                await asyncio.sleep(0.05)
        else:
            await server.serve_forever()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        stop_waiting.set()
        hub.stop(timeout=2.0)
        await server.close()
    return 0


def run(args: argparse.Namespace, out: IO[str]) -> int:
    observed = args.metrics or args.metrics_port is not None or args.decode_stats
    metrics_server = None
    if observed:
        metrics.enable()
        metrics.reset_decode_counts()
        if args.metrics_port is not None:
            metrics_server = metrics.start_metrics_server(args.metrics_port)
    try:
        return asyncio.run(_amain(args, out))
    finally:
        if metrics_server is not None:
            metrics_server.close()
        if observed:
            metrics.disable()
        if args.decode_stats:
            for line in metrics.decode_summary_lines():
                print(f"# {line}", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args, sys.stdout)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
