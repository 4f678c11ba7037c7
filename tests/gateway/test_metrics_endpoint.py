"""End-to-end /metrics: every tier shows up in one gateway scrape.

The acceptance test of the unified telemetry tier: with metrics enabled, a
live feed decodes through the hub, the broker data interface pulls a
window, a segment-cache lookup misses and a retry fires — then one
``GET /metrics`` over a real socket must return valid Prometheus text
exposition carrying at least one metric from each tier (decode, intern,
broker, segment cache, kafka, resilience, hub).
"""

from __future__ import annotations

import asyncio
import gc
import json
import re

from repro.core import metrics
from repro.core.filters import FilterSet
from repro.core.resilience import RetryPolicy
from repro.gateway.server import GatewayServer

from test_server import open_client
from test_hub import BASE_TS, live_hub, make_update, striped_feed

TIMEOUT = 30

#: One representative metric per tier the acceptance criterion names.
TIER_METRICS = {
    "decode": "repro_decode_records_scanned_total",
    "intern": "repro_intern_operations_total",
    "broker": "repro_broker_requests_total",
    "segment cache": "repro_segment_cache_events_total",
    "kafka": "repro_kafka_poll_latency_seconds",
    "resilience": "repro_resilience_retry_attempts_total",
    "hub": "repro_hub_records_total",
}

SAMPLE_LINE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (?:[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)


def exercise_other_tiers(tmp_path):
    """Touch the broker, segment-cache and resilience tiers directly."""
    from repro.broker.broker import Broker
    from repro.broker.db import MetadataDB
    from repro.broker.segments import SegmentCache
    from repro.core.interfaces import BrokerDataInterface
    from repro.core.resilience import TransientError

    # Broker tier: a bounded pull through the broker data interface, the
    # Broker's one client.  The window span covers the whole interval, so
    # the empty index answers one window and the pull ends.
    interface = BrokerDataInterface(Broker(db=MetadataDB(), window_span=3600))
    assert list(interface.batches(FilterSet().add_interval(0, 3600))) == []

    # Resilience tier: one call that fails transiently once, then succeeds.
    calls = []

    def flaky():
        calls.append(None)
        if len(calls) == 1:
            raise TransientError("injected")
        return "ok"

    assert RetryPolicy(max_retries=2, base=0.0).run(flaky) == "ok"

    # Segment-cache tier: one miss.
    cache = SegmentCache(str(tmp_path / "segcache"))

    class Spec:
        path = str(tmp_path / "never-stored.mrt")
        project = collector = dump_type = "x"
        timestamp = 0

    assert cache.load(Spec()) is None


class TestMetricsEndpoint:
    def test_gateway_scrape_covers_every_tier(self, tmp_path):
        # Hub/gateway families are bridged from *live* instances; reap any
        # hubs earlier tests left in reference cycles so they don't sum in.
        gc.collect()
        messages, _ = striped_feed(seconds=6, nets=("10.1", "10.2"))
        metrics.enable()
        before = metrics.metrics_snapshot()
        try:
            hub = live_hub(messages)
            # A firehose, a /16 watcher (half the feed) and one the index
            # offers the same half to but whose peer term admits a quarter.
            hub.subscribe(FilterSet())
            hub.subscribe(FilterSet().add("prefix", "10.1.0.0/16"))
            hub.subscribe(FilterSet().add("prefix", "10.1.0.0/16").add("peer-asn", "65001"))
            hub.run()  # decode the whole feed through the kafka source
            exercise_other_tiers(tmp_path)

            async def scenario():
                server = await GatewayServer(hub).start()
                try:
                    reader, writer = await open_client(server.port)
                    writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                    await writer.drain()
                    return await reader.read()
                finally:
                    await server.close()

            response = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        finally:
            metrics.disable()

        head, _, body_bytes = response.partition(b"\r\n\r\n")
        assert b"200 OK" in head
        assert b"text/plain; version=0.0.4" in head
        body = body_bytes.decode("utf-8")

        # Valid exposition: every non-comment line is a well-formed sample.
        for line in body.splitlines():
            assert line, "blank line in exposition"
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert SAMPLE_LINE_RE.match(line), f"malformed sample line: {line!r}"

        # At least one metric from each tier, as the issue demands.
        for tier, name in TIER_METRICS.items():
            assert f"# TYPE {name}" in body, f"{tier} tier missing ({name})"

        # And the pipeline actually flowed: nonzero hub + kafka + decode
        # + intern + broker + resilience + cache samples.
        def sample(pattern):
            match = re.search(pattern, body, flags=re.MULTILINE)
            assert match is not None, f"no sample matched {pattern!r}"
            return float(match.group(1))

        # Counters are process-wide and earlier tests count into them too:
        # exact claims are about what this scenario added.
        def added(name, labels=""):
            total = sample("^" + re.escape(name + labels) + r" (\d+)$")
            return total - before.get(name, {}).get(labels, 0)

        assert sample(r"^repro_hub_records_total (\d+)$") >= len(messages)
        assert sample(r'^repro_hub_elems_total\{kind="seen"\} (\d+)$') >= len(messages)
        # The fan-out's work is countable: offers made (index candidates)
        # sit between deliveries and the subscribers x elems product.
        assert hub.elems_seen == len(messages)
        assert hub.elems_offered == 2 * len(messages)
        assert hub.elems_delivered == 2 * len(messages) - len(messages) // 4
        offered = sample(r'^repro_hub_elems_total\{kind="offered"\} (\d+)$')
        delivered = sample(r'^repro_hub_elems_total\{kind="delivered"\} (\d+)$')
        assert offered >= hub.elems_offered
        assert hub.elems_delivered <= delivered <= offered
        assert hub.elems_offered < hub.elems_seen * hub.subscriber_count
        assert added("repro_kafka_frames_total", '{status="ok"}') == len(messages)
        assert sample(r"^repro_kafka_poll_latency_seconds_count (\d+)$") > 0
        assert sample(r"^repro_decode_bmp_frames_scanned_total (\d+)$") > 0
        assert re.search(r"^repro_intern_operations_total\{", body, flags=re.MULTILINE)
        assert added("repro_broker_requests_total", '{method="get_window"}') == 1
        assert added("repro_resilience_retry_attempts_total") == 1
        assert added("repro_segment_cache_events_total", '{event="miss"}') == 1
        assert sample(r'^repro_stage_latency_seconds_count\{stage="poll"\} (\d+)$') > 0
        assert sample(r'^repro_stage_latency_seconds_count\{stage="fanout"\} (\d+)$') > 0

    def test_metrics_endpoint_serves_zeros_when_disabled(self):
        hub = live_hub([make_update(65001, "10.1.0.0/24", BASE_TS)])

        async def scenario():
            server = await GatewayServer(hub).start()
            try:
                reader, writer = await open_client(server.port)
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                return await reader.read()
            finally:
                await server.close()

        response = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        body = response.partition(b"\r\n\r\n")[2].decode("utf-8")
        # Disabled metrics still scrape cleanly — families render (with
        # whatever bridged state exists), no errors, valid content type.
        assert b"200 OK" in response
        assert "# TYPE repro_hub_records_total counter" in body

    def test_stats_gains_uptime_and_session_depths(self):
        messages, _ = striped_feed(seconds=3, nets=("10.1",))
        hub = live_hub(messages)

        async def scenario():
            server = await GatewayServer(hub).start()
            try:
                # A durable session subscriber, still attached (feed not yet
                # started, so the session is live when /stats is sampled).
                sse_reader, sse_writer = await open_client(server.port)
                sse_writer.write(
                    b"GET /stream/sse?session=abc&window=1 HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                await sse_writer.drain()
                head = await sse_reader.readuntil(b"\r\n\r\n")
                assert b"200 OK" in head
                while hub.subscriber_count < 1:
                    await asyncio.sleep(0.005)

                reader, writer = await open_client(server.port)
                writer.write(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                response = await reader.read()
                sse_writer.close()
                return response
            finally:
                await server.close()

        response = asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))
        body = json.loads(response.split(b"\r\n\r\n", 1)[1])
        server_stats = body["server"]
        # Existing keys stay stable...
        assert set(server_stats) >= {"connections_served", "sessions", "sessions_reaped"}
        # ...and the new surface rides along.
        assert server_stats["uptime_seconds"] >= 0
        detail = server_stats["session_detail"]
        assert "abc" in detail
        assert set(detail["abc"]) == {"attached", "queued_windows", "unacked_windows"}
        assert detail["abc"]["attached"] is True
        assert detail["abc"]["queued_windows"] == 0
        assert detail["abc"]["unacked_windows"] == 0
