"""Tests for the BGPCorsaro pipeline driver and the simple plugins."""

from __future__ import annotations

import pytest

from repro.corsaro.pipeline import BGPCorsaro
from repro.corsaro.plugin import Plugin, TaggedRecord
from repro.corsaro.plugins import (
    CommunityDiversityPlugin,
    ElemTypeTagger,
    MOASPlugin,
    PrefixMonitorPlugin,
    StatsPlugin,
    VisibilityPlugin,
)

from tests.corsaro.conftest import make_corsaro_stream


class _RecordingPlugin(Plugin):
    """Test helper: records every pipeline callback it receives."""

    name = "recorder"

    def __init__(self) -> None:
        self.started = []
        self.records = 0
        self.ended = []
        self.finished = False

    def start_interval(self, interval_start: int) -> None:
        self.started.append(interval_start)

    def process_record(self, tagged: TaggedRecord) -> None:
        self.records += 1

    def end_interval(self, interval_start: int) -> int:
        self.ended.append(interval_start)
        return self.records

    def finish(self) -> str:
        self.finished = True
        return "done"


class TestPipelineDriver:
    def test_bin_size_must_be_positive(self, corsaro_archive, corsaro_scenario):
        stream = make_corsaro_stream(
            corsaro_archive, corsaro_scenario.start, corsaro_scenario.end
        )
        with pytest.raises(ValueError):
            BGPCorsaro(stream, [], bin_size=0)

    def test_bins_are_aligned_contiguous_and_cover_the_stream(
        self, corsaro_archive, corsaro_scenario
    ):
        stream = make_corsaro_stream(
            corsaro_archive, corsaro_scenario.start, corsaro_scenario.end
        )
        plugin = _RecordingPlugin()
        corsaro = BGPCorsaro(stream, [plugin], bin_size=300)
        corsaro.run()
        assert plugin.started
        assert all(ts % 300 == 0 for ts in plugin.started)
        # started bins are contiguous.
        assert all(b - a == 300 for a, b in zip(plugin.started, plugin.started[1:]))
        # every started bin was ended.
        assert plugin.started == plugin.ended
        assert plugin.finished
        assert corsaro.records_processed > 0

    @pytest.mark.parametrize("filter_name", ["prefix-exact", "peer-asn"])
    def test_plugins_see_the_stream_filtered_elems(
        self, corsaro_archive, corsaro_scenario, filter_name
    ):
        """StatsPlugin counts exactly the elems ``stream.elems()`` yields."""

        def stream(*filters):
            built = make_corsaro_stream(
                corsaro_archive, corsaro_scenario.start, corsaro_scenario.end
            )
            for name, value in filters:
                built.add_filter(name, value)
            return built

        if filter_name == "peer-asn":
            value = str(corsaro_scenario.collectors[0].vps[0].asn)
        else:
            value = next(
                str(elem.prefix) for _, elem in stream().elems() if elem.prefix is not None
            )
        expected = sum(1 for _ in stream((filter_name, value)).elems())
        unfiltered = sum(1 for _ in stream().elems())
        assert 0 < expected < unfiltered

        stats = StatsPlugin()
        corsaro = BGPCorsaro(stream((filter_name, value)), [stats], bin_size=900)
        corsaro.run()
        assert sum(v.elems for v in corsaro.series_for("stats").values()) == expected

    def test_outputs_collected_per_plugin(self, corsaro_archive, corsaro_scenario):
        stream = make_corsaro_stream(
            corsaro_archive, corsaro_scenario.start, corsaro_scenario.end
        )
        stats = StatsPlugin()
        corsaro = BGPCorsaro(stream, [stats], bin_size=900)
        outputs = corsaro.run()
        assert outputs
        series = corsaro.series_for("stats")
        assert sum(v.records for v in series.values()) == corsaro.records_processed
        assert sum(v.elems for v in series.values()) > 0

    def test_stateless_plugin_tags_are_visible_downstream(
        self, corsaro_archive, corsaro_scenario
    ):
        class TagChecker(Plugin):
            name = "tag-checker"

            def __init__(self) -> None:
                self.tagged_records = 0
                self.records = 0

            def process_record(self, tagged: TaggedRecord) -> None:
                self.records += 1
                if tagged.has_tag(ElemTypeTagger.TYPES_TAG):
                    self.tagged_records += 1

        stream = make_corsaro_stream(
            corsaro_archive, corsaro_scenario.start, corsaro_scenario.end
        )
        checker = TagChecker()
        corsaro = BGPCorsaro(stream, [ElemTypeTagger(), checker], bin_size=900)
        corsaro.run()
        assert checker.records > 0
        assert checker.tagged_records == checker.records

    def test_stateless_plugins_produce_no_bin_output(self, corsaro_archive, corsaro_scenario):
        stream = make_corsaro_stream(
            corsaro_archive, corsaro_scenario.start, corsaro_scenario.end
        )
        corsaro = BGPCorsaro(stream, [ElemTypeTagger()], bin_size=900)
        assert corsaro.run() == []


class TestSimplePlugins:
    def test_stats_plugin_counts_by_collector(self, corsaro_archive, corsaro_scenario):
        stream = make_corsaro_stream(
            corsaro_archive, corsaro_scenario.start, corsaro_scenario.end
        )
        corsaro = BGPCorsaro(stream, [StatsPlugin()], bin_size=1800)
        corsaro.run()
        collectors = set()
        for output in corsaro.outputs_for("stats"):
            if output.interval_start < 0:
                continue
            collectors.update(output.value.records_per_collector)
        assert collectors == {c.name for c in corsaro_scenario.collectors}

    def test_visibility_plugin_counts_per_country(self, corsaro_archive, corsaro_scenario):
        topology = corsaro_scenario.topology
        prefix_countries = {}
        for asn in topology.asns():
            for prefix in topology.node(asn).all_prefixes:
                prefix_countries[prefix] = topology.node(asn).country
        stream = make_corsaro_stream(
            corsaro_archive, corsaro_scenario.start, corsaro_scenario.end
        )
        plugin = VisibilityPlugin(prefix_countries=prefix_countries)
        corsaro = BGPCorsaro(stream, [plugin], bin_size=1800)
        corsaro.run()
        outputs = [o.value for o in corsaro.outputs_for("visibility") if o.interval_start >= 0]
        assert outputs
        last = outputs[-1]
        assert last.visible_prefixes > 0
        assert sum(count for _, count in last.per_country) == last.visible_prefixes

    def test_community_diversity_plugin(self, corsaro_archive, corsaro_scenario):
        stream = make_corsaro_stream(
            corsaro_archive, corsaro_scenario.start, corsaro_scenario.end,
            **{"record-type": ["ribs"]},
        )
        plugin = CommunityDiversityPlugin()
        corsaro = BGPCorsaro(stream, [plugin], bin_size=3600)
        corsaro.run()
        outputs = [
            o.value
            for o in corsaro.outputs_for("community-diversity")
            if o.interval_start >= 0
        ]
        assert outputs
        final = outputs[-1]
        assert final.total_distinct_communities > 0
        assert 0 < final.vps_observing_fraction <= 1.0
        # Per-collector counts are at least as large as any of their VPs'.
        per_vp = dict(final.per_vp_asn_identifiers)
        per_collector = dict(final.per_collector_asn_identifiers)
        for (collector, _asn), count in per_vp.items():
            assert per_collector[collector] >= count


class TestMOASPlugin:
    def test_hijack_creates_moas_set(self, corsaro_archive, corsaro_scenario):
        hijack = next(
            e for e in corsaro_scenario.timeline.events if type(e).__name__ == "PrefixHijackEvent"
        )
        stream = make_corsaro_stream(
            corsaro_archive, corsaro_scenario.start, corsaro_scenario.end
        )
        plugin = MOASPlugin()
        corsaro = BGPCorsaro(stream, [plugin], bin_size=900)
        corsaro.run()
        outputs = {
            o.interval_start: o.value
            for o in corsaro.outputs_for("moas")
            if o.interval_start >= 0
        }
        during = [
            v for ts, v in outputs.items() if hijack.interval.start <= ts < hijack.interval.end
        ]
        assert during
        moas_during = max(v.moas_prefix_count for v in during)
        assert moas_during >= 1
        expected_set = frozenset({hijack.hijacker_asn, hijack.victim_asn})
        all_sets = set()
        for v in during:
            all_sets.update(v.moas_sets)
        assert expected_set in all_sets


class TestPrefixMonitorPlugin:
    def test_requires_ranges(self):
        with pytest.raises(ValueError):
            PrefixMonitorPlugin([])

    def test_origin_spike_during_hijack(self, corsaro_archive, corsaro_scenario):
        """The Figure 6 signal: unique origin count rises during the hijack."""
        hijack = next(
            e for e in corsaro_scenario.timeline.events if type(e).__name__ == "PrefixHijackEvent"
        )
        victim_ranges = list(corsaro_scenario.topology.node(hijack.victim_asn).prefixes)
        stream = make_corsaro_stream(
            corsaro_archive, corsaro_scenario.start, corsaro_scenario.end
        )
        plugin = PrefixMonitorPlugin(victim_ranges)
        corsaro = BGPCorsaro(stream, [plugin], bin_size=300)
        corsaro.run()
        series = {
            o.interval_start: o.value
            for o in corsaro.outputs_for("pfxmonitor")
            if o.interval_start >= 0
        }
        before = [
            v.unique_origin_asns
            for ts, v in series.items()
            if ts < hijack.interval.start - 300 and v.unique_prefixes > 0
        ]
        during = [
            v.unique_origin_asns
            for ts, v in series.items()
            if hijack.interval.start + 300 <= ts < hijack.interval.end
        ]
        assert before and during
        assert max(before) == 1
        assert max(during) == 2
