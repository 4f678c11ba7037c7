"""Integration tests: paginated broker interface, broker replay,
segment-cached replay, broker telemetry, and the bgpreader cache/cursor
flags."""

from __future__ import annotations

import pytest

from repro.broker.broker import Broker
from repro.broker.segments import SegmentCache
from repro.core import metrics
from repro.core.filters import FilterSet
from repro.core.interfaces import BrokerDataInterface
from repro.core.reader import build_parser, run
from repro.core.stream import BGPStream


def _key(r):
    return (r.time, r.project, r.collector, r.dump_type, r.status, r.dump_position)


def _signature(stream):
    return [_key(r) for r in stream.records()]


class TestPaginatedInterface:
    def test_paginated_batches_match_unpaginated(self, core_archive, core_scenario):
        plain = BGPStream(data_interface=BrokerDataInterface(Broker(archives=[core_archive])))
        plain.add_interval_filter(core_scenario.start, core_scenario.end)
        paged = BGPStream(
            data_interface=BrokerDataInterface(Broker(archives=[core_archive]), page_size=2)
        )
        paged.add_interval_filter(core_scenario.start, core_scenario.end)
        assert _signature(paged) == _signature(plain)

    def test_last_cursor_resumes_the_pull(self, core_archive, core_scenario):
        # A short window span forces several windows so there is a
        # mid-stream cursor to resume from.
        interface = BrokerDataInterface(
            Broker(archives=[core_archive], window_span=1800), page_size=2
        )
        stream = BGPStream(data_interface=interface)
        stream.add_interval_filter(core_scenario.start, core_scenario.end)
        batches = interface.batches(stream.filters)
        first = next(batches)
        batches.close()
        assert interface.last_cursor is not None

        resumed_iface = BrokerDataInterface(
            Broker(archives=[core_archive], window_span=1800),
            page_size=2,
            cursor=interface.last_cursor,
        )
        resumed = BGPStream(data_interface=resumed_iface)
        resumed.add_interval_filter(core_scenario.start, core_scenario.end)
        rest_paths = {s.path for b in resumed_iface.batches(resumed.filters) for s in b}
        assert not {s.path for s in first} & rest_paths


def _added(before, after, name, labels):
    return after.get(name, {}).get(labels, 0) - before.get(name, {}).get(labels, 0)


class TestBrokerTelemetry:
    """The broker families count the queries the stream's interface makes."""

    def _measure(self, run):
        metrics.enable()
        try:
            before = metrics.metrics_snapshot()
            run()
            return before, metrics.metrics_snapshot()
        finally:
            metrics.disable()

    def test_historical_stream_counts_its_window_queries(self, core_archive, core_scenario):
        broker = Broker(archives=[core_archive], window_span=1800)
        stream = BGPStream(data_interface=BrokerDataInterface(broker))
        stream.add_interval_filter(core_scenario.start, core_scenario.end)
        records = []
        before, after = self._measure(lambda: records.extend(stream.records()))
        assert records
        label = '{method="get_window"}'
        windows = _added(before, after, "repro_broker_requests_total", label)
        assert windows >= 1
        assert windows == broker.queries_served
        assert _added(before, after, "repro_broker_request_latency_seconds", label) == windows

    def test_live_pull_counts_its_publication_queries(self, core_archive):
        broker = Broker(archives=[core_archive])
        interface = BrokerDataInterface(broker, max_empty_polls=1, poll_interval=0.0)
        batches = []
        before, after = self._measure(lambda: batches.extend(interface.batches(FilterSet())))
        assert batches  # the first poll sees the whole archive, the second nothing
        label = '{method="get_new_files"}'
        assert _added(before, after, "repro_broker_requests_total", label) == 2
        assert _added(before, after, "repro_broker_requests_total", '{method="get_window"}') == 0


class TestBrokerReplay:
    def test_broker_replay_matches_sequential_reference(self, core_archive, core_scenario):
        reference = BGPStream(
            data_interface=BrokerDataInterface(Broker(archives=[core_archive]))
        )
        reference.add_interval_filter(core_scenario.start, core_scenario.end)
        expected = [_key(r) for r in iter(reference.get_next_record, None)]
        replay = BGPStream(
            data_interface="broker",
            interface_options={"broker": Broker(archives=[core_archive])},
        )
        replay.add_interval_filter(core_scenario.start, core_scenario.end)
        assert _signature(replay) == expected


class TestSegmentCachedStream:
    def test_warm_replay_identical(self, tmp_path, core_archive, core_scenario):
        cache = SegmentCache(str(tmp_path / "segments"))

        def replay():
            stream = BGPStream(
                data_interface=BrokerDataInterface(Broker(archives=[core_archive])),
                segment_cache=cache,
            )
            stream.add_interval_filter(core_scenario.start, core_scenario.end)
            return _signature(stream)

        cold = replay()
        stores = cache.stats()["stores"]
        assert stores > 0
        warm = replay()
        assert warm == cold
        assert cache.stats()["hits"] >= stores


class TestReaderFlags:
    def test_broker_cache_flag_warms_across_invocations(self, tmp_path, core_archive):
        import io

        parser = build_parser()
        # No --limit: a truncated read abandons iteration mid-file and the
        # cache (correctly) stores nothing from incomplete reads.
        argv = [
            "--archive", core_archive.root,
            "--broker-cache", str(tmp_path / "segcache"),
        ]
        out1, out2 = io.StringIO(), io.StringIO()
        assert run(parser.parse_args(argv), out1) == 0
        assert run(parser.parse_args(argv), out2) == 0
        assert out1.getvalue() == out2.getvalue()
        cache = SegmentCache(str(tmp_path / "segcache"))
        assert cache.stats()["segments"] > 0

    def test_cache_size_requires_cache_dir(self):
        parser = build_parser()
        args = parser.parse_args(["--archive", "/tmp/x", "--broker-cache-size", "1024"])
        with pytest.raises(SystemExit):
            run(args, __import__("io").StringIO())

    def test_page_size_requires_archive(self, tmp_path):
        parser = build_parser()
        single = str(tmp_path / "f.mrt")
        open(single, "wb").close()
        args = parser.parse_args(["--single-file", single, "--page-size", "2"])
        with pytest.raises(SystemExit):
            run(args, __import__("io").StringIO())

    def test_paginated_archive_read_matches_plain(self, core_archive):
        import io

        parser = build_parser()
        plain_out, paged_out = io.StringIO(), io.StringIO()
        run(parser.parse_args(["--archive", core_archive.root]), plain_out)
        run(
            parser.parse_args(["--archive", core_archive.root, "--page-size", "2"]),
            paged_out,
        )
        assert paged_out.getvalue() == plain_out.getvalue()
