"""BGPReader: the ASCII command-line tool (§4.1).

Outputs, in ASCII, the BGPStream records and elems matching a set of filters
given via command-line options.  It is meant as a drop-in replacement for the
classic ``bgpdump`` tool (``--bgpdump-format`` switches the output to that
format) with the additional abilities to read many files / collectors /
projects in one process, to work in live mode, and to filter.

Because this reproduction has no network access, the data source is either a
local archive directory produced by the collector simulation (``--archive``),
a broker SQLite database (``--sqlite``), a CSV index (``--csv``), a single
MRT file (``--single-file``), or — for live mode — a recorded raw BMP frame
stream (``--live``, à la OpenBMP) which is replayed through an in-memory
Kafka broker and consumed by the live data interface.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, List, Optional

from repro.broker.broker import Broker
from repro.collectors.archive import Archive
from repro.core.interfaces import (
    BrokerDataInterface,
    CSVFileDataInterface,
    DataInterface,
    LiveDataInterface,
    SingleFileDataInterface,
    SQLiteDataInterface,
)
from repro.core import metrics
from repro.core.record import RecordStatus
from repro.core.stream import BGPStream


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgpreader",
        description="Output BGP records/elems matching a set of filters in ASCII form.",
    )
    source = parser.add_argument_group("data source")
    source.add_argument("--archive", help="path to a simulated archive directory")
    source.add_argument("--sqlite", help="path to a Broker SQLite database")
    source.add_argument("--csv", help="path to a CSV dump-file index")
    source.add_argument("--single-file", help="path to a single MRT dump file")
    source.add_argument(
        "--single-file-type",
        default="updates",
        choices=["ribs", "updates"],
        help="dump type of --single-file (default: updates)",
    )
    source.add_argument(
        "--live",
        help="live mode: path to a recorded raw BMP frame stream, replayed "
             "through an in-memory Kafka broker (OpenBMP-style feed)",
    )
    source.add_argument(
        "--bmp-topic",
        default=None,
        help="Kafka topic the BMP frames travel on (with --live; "
             "default: openbmp.bmp_raw)",
    )
    source.add_argument(
        "--bmp-router",
        default=None,
        help="router name keying the BMP feed (with --live; "
             "default: the --live file name)",
    )
    source.add_argument(
        "--page-size",
        type=int,
        default=None,
        help="files per Broker meta-data page (with --archive; enables "
             "cursor pagination of the meta-data pull)",
    )
    source.add_argument(
        "--cursor",
        default=None,
        help="opaque resume token from a previous paginated run (with "
             "--archive; the final '# next-cursor:' line of an interrupted "
             "run)",
    )

    filters = parser.add_argument_group("filters")
    filters.add_argument("-p", "--project", action="append", default=[], help="project name")
    filters.add_argument("-c", "--collector", action="append", default=[], help="collector name")
    filters.add_argument(
        "-t", "--type", action="append", default=[], choices=["ribs", "updates"],
        help="record type",
    )
    filters.add_argument(
        "-w", "--window", help="time interval START[,END]; omit END (or use -1) for live mode"
    )
    filters.add_argument("-k", "--prefix", action="append", default=[],
                         help="prefix filter (matches the prefix and any more-specific)")
    filters.add_argument("--prefix-exact", action="append", default=[],
                         help="prefix filter matching the exact prefix only")
    filters.add_argument("--prefix-more", action="append", default=[],
                         help="prefix filter matching the prefix and any more-specific")
    filters.add_argument("--prefix-less", action="append", default=[],
                         help="prefix filter matching the prefix and any less-specific")
    filters.add_argument("--prefix-any", action="append", default=[],
                         help="prefix filter matching any overlapping prefix")
    filters.add_argument("-j", "--peer-asn", action="append", default=[], help="peer ASN filter")
    filters.add_argument("-y", "--community", action="append", default=[],
                         help="community filter asn:value")
    filters.add_argument("-A", "--aspath", action="append", default=[],
                         help="regular expression matched against the AS path")

    engine = parser.add_argument_group("engine")
    # The process-pool engine is gone; the frozen ledger still passes these
    # two (ledger/hist.py:617-620) without checking the exit code, so they
    # stay parsed, hidden and ignored.
    engine.add_argument("--parallel", action="store_true", help=argparse.SUPPRESS)
    engine.add_argument("--workers", type=int, default=None, help=argparse.SUPPRESS)
    engine.add_argument(
        "--broker-cache", metavar="DIR", default=None,
        help="persistent decoded-segment cache directory: unchanged dump "
             "files replay their decoded records from here instead of "
             "re-decoding MRT, and newly decoded files are stored for the "
             "next run",
    )
    engine.add_argument(
        "--broker-cache-size", type=int, default=None, metavar="BYTES",
        help="on-disk budget of --broker-cache in bytes (least-recently-"
             "used segments are evicted beyond it; default: 512 MiB)",
    )

    output = parser.add_argument_group("output")
    output.add_argument("-r", "--show-records", action="store_true",
                        help="print record header lines in addition to elems")
    output.add_argument("-e", "--elems-only", action="store_true",
                        help="print elem lines only (default)")
    output.add_argument("--bgpdump-format", action="store_true",
                        help="emit bgpdump -m compatible lines")
    output.add_argument("--limit", type=int, default=None,
                        help="stop after printing this many elem lines")
    output.add_argument("--decode-stats", action="store_true",
                        help="print decode-tier counters (records scanned, bytes "
                             "viewed vs copied, attributes deferred vs decoded) as "
                             "#-prefixed lines after the stream ends")
    output.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                        help="enable the telemetry registry and serve it in "
                             "Prometheus text format on GET /metrics at this "
                             "port (127.0.0.1) for the duration of the run")
    output.add_argument("--metrics-log", type=float, default=None, metavar="SECONDS",
                        help="enable the telemetry registry and print a JSON "
                             "metrics snapshot line to stderr every SECONDS "
                             "(plus one final line when the stream ends)")
    return parser


def build_stream(args: argparse.Namespace) -> BGPStream:
    """Construct a configured BGPStream from parsed CLI arguments."""
    interface = _build_interface(args)
    stream = BGPStream(data_interface=interface, segment_cache=_build_segment_cache(args))
    for project in args.project:
        stream.add_filter("project", project)
    for collector in args.collector:
        stream.add_filter("collector", collector)
    for dump_type in args.type:
        stream.add_filter("record-type", dump_type)
    for prefix in args.prefix:
        stream.add_filter("prefix", prefix)
    for name in ("prefix-exact", "prefix-more", "prefix-less", "prefix-any"):
        for prefix in getattr(args, name.replace("-", "_")):
            stream.add_filter(name, prefix)
    for asn in args.peer_asn:
        stream.add_filter("peer-asn", asn)
    for community in args.community:
        stream.add_filter("community", community)
    for pattern in args.aspath:
        stream.add_filter("aspath", pattern)
    if args.window:
        start_text, _, end_text = args.window.partition(",")
        start = int(start_text)
        end: Optional[int] = int(end_text) if end_text else None
        stream.add_interval_filter(start, end)
    return stream


def _build_segment_cache(args: argparse.Namespace):
    """The optional persistent decoded-segment cache (``--broker-cache``)."""
    cache_dir = args.broker_cache
    cache_size = args.broker_cache_size
    if cache_dir is None:
        if cache_size is not None:
            raise SystemExit("bgpreader: error: --broker-cache-size requires --broker-cache")
        return None
    if args.live:
        raise SystemExit(
            "bgpreader: error: --broker-cache caches decoded dump files and "
            "does not apply to --live"
        )
    from repro.broker.segments import DEFAULT_MAX_BYTES, SegmentCache

    try:
        return SegmentCache(
            cache_dir, max_bytes=cache_size if cache_size is not None else DEFAULT_MAX_BYTES
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bgpreader: error: cannot open --broker-cache: {exc}")


def _build_interface(args: argparse.Namespace) -> DataInterface:
    sources = [
        bool(args.archive),
        bool(args.sqlite),
        bool(args.csv),
        bool(args.single_file),
        bool(args.live),
    ]
    if sum(sources) != 1:
        raise SystemExit(
            "exactly one of --archive / --sqlite / --csv / --single-file / --live is required"
        )
    if not args.live and (args.bmp_topic or args.bmp_router):
        raise SystemExit("bgpreader: error: --bmp-topic/--bmp-router require --live")
    if not args.archive and (args.page_size is not None or args.cursor is not None):
        raise SystemExit("bgpreader: error: --page-size/--cursor require --archive")
    if args.live:
        return _build_live_interface(args)
    if args.archive:
        broker = Broker(archives=[Archive(args.archive)])
        return BrokerDataInterface(
            broker, max_empty_polls=1, page_size=args.page_size, cursor=args.cursor
        )
    if args.sqlite:
        return SQLiteDataInterface(args.sqlite)
    if args.csv:
        return CSVFileDataInterface(args.csv)
    return SingleFileDataInterface(args.single_file, dump_type=args.single_file_type)


def _build_live_interface(args: argparse.Namespace) -> LiveDataInterface:
    """Replay a recorded raw BMP frame stream as an OpenBMP-style live feed.

    The file's back-to-back BMP frames are published as one Kafka message
    onto the feed topic, keyed by the router name; the live interface then
    consumes them exactly as it would a real near-realtime feed (a truncated
    or corrupt tail is signalled as a not-valid record, like a corrupted
    dump file).
    """
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
        raise SystemExit(f"bgpreader: error: cannot read --live file: {exc}")
    # The whole feed is already on the topic: one empty poll means done.
    return LiveDataInterface(
        broker=broker, topics=[topic], max_empty_polls=1, poll_interval=0.0
    )


def run(args: argparse.Namespace, out: IO[str]) -> int:
    """Run BGPReader, writing lines to ``out``; returns the exit status."""
    stats = args.decode_stats
    metrics_port = args.metrics_port
    metrics_log = args.metrics_log
    observed = stats or metrics_port is not None or metrics_log is not None
    metrics_server = None
    metrics_emitter = None
    if observed:
        metrics.enable()
        metrics.reset_decode_counts()
        if metrics_port is not None:
            metrics_server = metrics.start_metrics_server(metrics_port)
        if metrics_log is not None:
            metrics_emitter = metrics.MetricsLogEmitter(
                sys.stderr, interval=metrics_log
            ).start()
    try:
        return _run_stream(args, out)
    finally:
        if metrics_emitter is not None:
            metrics_emitter.stop()
        if metrics_server is not None:
            metrics_server.close()
        if observed:
            metrics.disable()
        if stats:
            for line in metrics.decode_summary_lines():
                print(f"# {line}", file=out)


def _run_stream(args: argparse.Namespace, out: IO[str]) -> int:
    stream = build_stream(args)
    status = _print_stream(args, stream, out)
    # A paginated pull that stopped early (e.g. --limit) leaves a resume
    # token; print it so the next invocation can pass it back as --cursor.
    cursor = getattr(stream._interface, "last_cursor", None)
    if cursor:
        print(f"# next-cursor: {cursor}", file=out)
    return status


def _print_stream(args: argparse.Namespace, stream: BGPStream, out: IO[str]) -> int:
    printed = 0
    for record in stream.records():
        if record.status != RecordStatus.VALID:
            print(f"# {record.to_ascii()}", file=out)
            continue
        if args.show_records:
            print(record.to_ascii(), file=out)
        for elem in record.filtered_elems():
            line = elem.to_bgpdump_ascii() if args.bgpdump_format else elem.to_ascii()
            print(line, file=out)
            printed += 1
            if args.limit is not None and printed >= args.limit:
                return 0
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args, sys.stdout)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
