"""The telemetry registry: exactness under threads, exposition goldens."""

import json
import io
import threading
import urllib.request

import pytest

from repro.core import metrics
from repro.core.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def enabled():
    metrics.enable()
    yield
    metrics.disable()


# ---------------------------------------------------------------------------
# Concurrency exactness (the PR 7 intern-counter audit, applied here)
# ---------------------------------------------------------------------------


class TestConcurrencyExactness:
    THREADS = 8
    PER_THREAD = 25_000

    def test_counter_totals_exact_under_hammer(self, registry):
        counter = registry.counter("hammer_total", "Hammered.", labelnames=("lane",))
        barrier = threading.Barrier(self.THREADS)

        def hammer(lane):
            barrier.wait()
            for _ in range(self.PER_THREAD):
                counter.inc(lane=lane)
                counter.inc(2, lane="shared")

        threads = [
            threading.Thread(target=hammer, args=(f"lane{i}",))
            for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for i in range(self.THREADS):
            assert counter.labels(lane=f"lane{i}").value() == self.PER_THREAD
        # The shared child is the lost-update honeypot: 8 threads, one
        # series.  Per-thread shards make the total exact, not approximate.
        assert counter.labels(lane="shared").value() == self.THREADS * self.PER_THREAD * 2

    def test_histogram_counts_exact_under_hammer(self, registry):
        hist = registry.histogram("hammer_seconds", "Hammered.", buckets=(1.0, 10.0))
        barrier = threading.Barrier(self.THREADS)

        def hammer(offset):
            barrier.wait()
            for i in range(self.PER_THREAD):
                hist.observe(0.5 if i % 2 else 5.0)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        counts, total, count = hist.labels().snapshot()
        expected = self.THREADS * self.PER_THREAD
        assert count == expected
        assert counts[0] == expected // 2          # <= 1.0
        assert counts[1] == expected - expected // 2  # <= 10.0
        assert counts[2] == 0                      # +Inf overflow
        assert total == pytest.approx((0.5 + 5.0) * expected / 2)

    def test_gauge_inc_dec_locked(self, registry):
        gauge = registry.gauge("depth", "Depth.")
        barrier = threading.Barrier(self.THREADS)

        def churn():
            barrier.wait()
            for _ in range(10_000):
                gauge.inc()
                gauge.dec()

        threads = [threading.Thread(target=churn) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert gauge.labels().value() == 0


# ---------------------------------------------------------------------------
# Registration rules
# ---------------------------------------------------------------------------


class TestRegistration:
    def test_duplicate_names_rejected(self, registry):
        registry.counter("dup_total", "First.")
        with pytest.raises(ValueError, match="duplicate"):
            registry.counter("dup_total", "Second.")
        with pytest.raises(ValueError, match="duplicate"):
            registry.gauge("dup_total", "Different kind, same name.")

    def test_counter_requires_total_suffix(self, registry):
        with pytest.raises(ValueError, match="_total"):
            registry.counter("requests", "No suffix.")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.gauge("bad-name", "Dash.")
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.gauge("0leading", "Digit first.")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.gauge("ok_name", "Bad label.", labelnames=("bad-label",))
        with pytest.raises(ValueError, match="invalid label name"):
            registry.gauge("ok_name2", "Reserved label.", labelnames=("__reserved",))

    def test_counter_rejects_negative_and_wrong_labels(self, registry):
        counter = registry.counter("ops_total", "Ops.", labelnames=("kind",))
        with pytest.raises(ValueError, match="increase"):
            counter.inc(-1, kind="a")
        with pytest.raises(ValueError):
            counter.inc()  # missing label
        with pytest.raises(ValueError):
            counter.inc(kind="a", extra="b")

    def test_histogram_bucket_validation(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("h1_seconds", "Unsorted.", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h2_seconds", "Dup bounds.", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h3_seconds", "Empty.", buckets=())
        # A trailing +Inf is accepted and folded into the implicit bucket.
        hist = registry.histogram("h4_seconds", "Inf.", buckets=(1.0, float("inf")))
        assert hist.buckets == (1.0,)


# ---------------------------------------------------------------------------
# Exposition-format goldens
# ---------------------------------------------------------------------------


class TestExpositionFormat:
    def test_counter_golden(self, registry):
        counter = registry.counter("requests_total", "Requests served.")
        counter.inc(3)
        assert registry.exposition() == (
            "# HELP requests_total Requests served.\n"
            "# TYPE requests_total counter\n"
            "requests_total 3\n"
        )

    def test_label_escaping_golden(self, registry):
        gauge = registry.gauge("g", "Help with \\ and\nnewline.", labelnames=("path",))
        gauge.set(1, path='a"b\\c\nd')
        assert registry.exposition() == (
            "# HELP g Help with \\\\ and\\nnewline.\n"
            "# TYPE g gauge\n"
            'g{path="a\\"b\\\\c\\nd"} 1\n'
        )

    def test_label_declaration_order_golden(self, registry):
        counter = registry.counter(
            "ops_total", "Ops.", labelnames=("zebra", "alpha")
        )
        counter.inc(zebra="z", alpha="a")
        text = registry.exposition()
        # Labels render in declaration order, not alphabetical.
        assert 'ops_total{zebra="z",alpha="a"} 1' in text

    def test_histogram_cumulative_buckets_golden(self, registry):
        hist = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert registry.exposition() == (
            "# HELP lat_seconds Latency.\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.1"} 1\n'
            'lat_seconds_bucket{le="1"} 3\n'
            'lat_seconds_bucket{le="10"} 4\n'
            'lat_seconds_bucket{le="+Inf"} 5\n'
            "lat_seconds_sum 56.05\n"
            "lat_seconds_count 5\n"
        )

    def test_boundary_observation_is_inclusive(self, registry):
        hist = registry.histogram("b_seconds", "Boundary.", buckets=(1.0,))
        hist.observe(1.0)  # le="1.0" means <=, so it lands inside
        text = registry.exposition()
        assert 'b_seconds_bucket{le="1"} 1' in text
        assert 'b_seconds_bucket{le="+Inf"} 1' in text

    def test_labeled_histogram_buckets_carry_labels(self, registry):
        hist = registry.histogram(
            "s_seconds", "Stages.", labelnames=("stage",), buckets=(1.0,)
        )
        hist.observe(0.5, stage="poll")
        text = registry.exposition()
        assert 's_seconds_bucket{stage="poll",le="1"} 1' in text
        assert 's_seconds_sum{stage="poll"} 0.5' in text
        assert 's_seconds_count{stage="poll"} 1' in text

    def test_unlabeled_metrics_render_zero_without_activity(self, registry):
        registry.counter("idle_total", "Never touched.")
        registry.gauge("idle_depth", "Never touched.")
        text = registry.exposition()
        assert "idle_total 0" in text
        assert "idle_depth 0" in text

    def test_families_sorted_by_name(self, registry):
        registry.counter("zz_total", "Last.")
        registry.counter("aa_total", "First.")
        text = registry.exposition()
        assert text.index("aa_total") < text.index("zz_total")


# ---------------------------------------------------------------------------
# Enabled flag, spans, collectors
# ---------------------------------------------------------------------------


class TestEnableDisable:
    def test_module_flag_round_trip(self):
        assert metrics.enabled is False
        metrics.enable()
        try:
            assert metrics.enabled is True
        finally:
            metrics.disable()
        assert metrics.enabled is False

    def test_trace_span_noop_when_disabled(self):
        before = metrics.stage_latency.labels("poll").snapshot()[2]
        with metrics.trace_span("poll"):
            pass
        assert metrics.stage_latency.labels("poll").snapshot()[2] == before

    def test_trace_span_observes_when_enabled(self, enabled):
        before = metrics.stage_latency.labels("decode").snapshot()[2]
        with metrics.trace_span("decode"):
            pass
        assert metrics.stage_latency.labels("decode").snapshot()[2] == before + 1

    def test_trace_span_accepts_unknown_stage(self, enabled):
        with metrics.trace_span("custom_stage"):
            pass
        assert metrics.stage_latency.labels("custom_stage").snapshot()[2] >= 1


class TestCollectors:
    def test_unbound_collector_runs_each_collect(self, registry):
        gauge = registry.gauge("sampled", "Sampled.", collected=True)
        calls = []
        registry.add_collector(lambda: (calls.append(1), gauge.set(len(calls)))[0])
        registry.collect()
        registry.collect()
        assert len(calls) == 2
        assert gauge.labels().value() == 2

    def test_collected_metrics_reset_each_cycle(self, registry):
        counter = registry.counter("bridged_total", "Bridged.", collected=True)
        registry.add_collector(lambda: counter.add_total(7))
        assert "bridged_total 7" in registry.exposition()
        # Not 14: collected families reset before collectors repopulate.
        assert "bridged_total 7" in registry.exposition()

    def test_weakref_collector_pruned_with_owner(self, registry):
        gauge = registry.gauge("owned", "Owned.", collected=True)

        class Owner:
            def collect(self):
                gauge.inc(5)

        owner = Owner()
        registry.add_collector(Owner.collect, owner=owner)
        registry.collect()
        assert gauge.labels().value() == 5
        del owner
        registry.collect()
        assert gauge.labels().value() == 0  # reset, and nobody repopulated

    def test_snapshot_shape(self, registry):
        counter = registry.counter("s_total", "Snap.", labelnames=("kind",))
        counter.inc(kind="a")
        hist = registry.histogram("s_seconds", "Snap.", buckets=(1.0,))
        hist.observe(0.5)
        snap = registry.snapshot()
        assert snap["s_total"]['{kind="a"}'] == 1
        assert snap["s_seconds"][""] == 1
        assert snap["s_seconds"][":sum"] == 0.5


# ---------------------------------------------------------------------------
# The scrape server and the log emitter
# ---------------------------------------------------------------------------


class TestOutputSurfaces:
    def test_standalone_scrape_server(self, registry):
        registry.counter("scrape_total", "Scraped.").inc(4)
        server = metrics.start_metrics_server(0, registry=registry)
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics", timeout=5
            ) as response:
                assert response.status == 200
                assert "0.0.4" in response.headers["Content-Type"]
                body = response.read().decode("utf-8")
            assert "scrape_total 4" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=5
                )
        finally:
            server.close()

    def test_log_emitter_final_line(self, registry):
        registry.counter("emitted_total", "Emitted.").inc(2)
        out = io.StringIO()
        emitter = metrics.MetricsLogEmitter(out, interval=3600.0, registry=registry)
        emitter.start()
        emitter.stop()
        lines = [line for line in out.getvalue().splitlines() if line]
        assert len(lines) == 1
        body = json.loads(lines[0])
        assert body["event"] == "metrics"
        assert body["metrics"]["emitted_total"][""] == 2

    def test_log_emitter_rejects_bad_interval(self, registry):
        with pytest.raises(ValueError):
            metrics.MetricsLogEmitter(io.StringIO(), interval=0, registry=registry)
