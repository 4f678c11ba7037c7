"""Tests for collectors, vantage points and end-to-end scenario generation."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.bgp.community import Community
from repro.bgp.prefix import Prefix
from repro.collectors.archive import Archive
from repro.collectors.collector import Collector
from repro.collectors.events import (
    OutageEvent,
    PrefixHijackEvent,
    RTBHEvent,
    SessionResetEvent,
)
from repro.collectors.projects import RIPE_RIS, ROUTEVIEWS, project_for_collector
from repro.collectors.routing import RouteType
from repro.collectors.scenario import ScenarioConfig, build_scenario
from repro.collectors.topology import ASRole
from repro.collectors.vantage_point import VantagePoint
from repro.mrt import read_dump
from repro.mrt.records import BGP4MPMessage, BGP4MPStateChange, PeerIndexTable, RIBPrefixRecord
from repro.utils.intervals import TimeInterval


class TestProjects:
    def test_periodicities_match_paper(self):
        assert ROUTEVIEWS.rib_period == 2 * 3600
        assert ROUTEVIEWS.updates_period == 15 * 60
        assert RIPE_RIS.rib_period == 8 * 3600
        assert RIPE_RIS.updates_period == 5 * 60

    def test_state_message_behaviour(self):
        assert RIPE_RIS.dumps_state_messages
        assert not ROUTEVIEWS.dumps_state_messages

    def test_collector_naming(self):
        assert ROUTEVIEWS.collector_name(2) == "route-views2"
        assert RIPE_RIS.collector_name(0) == "rrc0"
        assert project_for_collector("rrc12") is RIPE_RIS
        assert project_for_collector("route-views4") is ROUTEVIEWS
        with pytest.raises(KeyError):
            project_for_collector("mystery")


class TestVantagePoint:
    def test_full_feed_exports_everything(self, small_topology, small_computer):
        asn = small_topology.asns()[0]
        vp = VantagePoint(asn=asn, address="10.0.0.1", full_feed=True)
        table = vp.adj_rib_out(small_computer)
        assert set(table) == set(small_topology.all_prefixes())

    def test_partial_feed_is_a_strict_subset(self, small_topology, small_computer):
        # Pick a transit AS so it actually has customer routes.
        asn = next(
            a for a in small_topology.asns() if small_topology.node(a).role == ASRole.TRANSIT
        )
        full = VantagePoint(asn=asn, address="10.0.0.1", full_feed=True).adj_rib_out(small_computer)
        partial = VantagePoint(asn=asn, address="10.0.0.1", full_feed=False).adj_rib_out(
            small_computer
        )
        assert set(partial) < set(full)
        assert all(
            route.route_type in (RouteType.ORIGIN, RouteType.CUSTOMER)
            for route in partial.values()
        )

    def test_version_detection(self):
        assert VantagePoint(1, "10.0.0.1").version == 4
        assert VantagePoint(1, "2001:db8::1").version == 6


class TestCollector:
    def test_duplicate_vp_addresses_rejected(self):
        with pytest.raises(ValueError):
            Collector(
                "rrc0",
                RIPE_RIS,
                [VantagePoint(1, "10.0.0.1"), VantagePoint(2, "10.0.0.1")],
            )

    def test_peer_entries_align_with_vps(self, small_topology):
        vps = [VantagePoint(100, "10.0.0.1"), VantagePoint(101, "10.0.0.2")]
        collector = Collector("rrc0", RIPE_RIS, vps)
        entries = collector.peer_entries()
        assert [e.asn for e in entries] == [100, 101]
        assert collector.peer_index(vps[1]) == 1
        assert collector.vp_by_asn(101) is vps[1]
        assert collector.vp_by_asn(999) is None


class TestScenarioGeneration:
    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory, small_topology):
        """A small scenario with one of each event type, generated once."""
        config = ScenarioConfig(
            duration=2 * 3600,
            topology=None,  # unused: we pass the prebuilt topology
            vps_per_collector=4,
            churn_updates_per_vp_per_hour=30,
            seed=3,
        )
        config.topology = None
        start = config.start
        stub = next(
            a for a in small_topology.asns() if small_topology.node(a).role == ASRole.STUB
        )
        victim_prefix = small_topology.node(stub).prefixes[0]
        hijacker = next(a for a in small_topology.asns() if a != stub)
        provider = small_topology.providers(stub)[0]
        country = small_topology.node(stub).country
        events = [
            PrefixHijackEvent(
                interval=TimeInterval(start + 1800, start + 3600),
                hijacker_asn=hijacker,
                victim_asn=stub,
                prefixes=(victim_prefix,),
            ),
            OutageEvent(interval=TimeInterval(start + 4000, start + 5000), country=country),
            RTBHEvent(
                interval=TimeInterval(start + 600, start + 1200),
                customer_asn=stub,
                blackhole_prefix=Prefix.from_address(str(victim_prefix.address), 32),
                provider_asns=(provider,),
                communities=(Community(provider if provider <= 0xFFFF else 65535, 666),),
                propagating_providers=(provider,),
            ),
            SessionResetEvent(
                interval=TimeInterval(start + 5400, start + 5460), collector="rrc0", vp_asn=0
            ),
        ]
        scenario = build_scenario(config, events=events, topology=small_topology)
        # Patch the session-reset event to target a real VP of rrc0.
        rrc0 = scenario.collector("rrc0")
        reset = next(e for e in scenario.timeline.events if isinstance(e, SessionResetEvent))
        scenario.timeline.events.remove(reset)
        scenario.timeline.add(
            SessionResetEvent(
                interval=reset.interval, collector="rrc0", vp_asn=rrc0.vps[0].asn
            )
        )
        archive = Archive(str(tmp_path_factory.mktemp("archive")))
        files = scenario.generate(archive)
        return scenario, archive, files

    def test_dump_counts_follow_project_periodicities(self, generated):
        scenario, _, files = generated
        ris_updates = [f for f in files if f.project == "ris" and f.dump_type == "updates"]
        rv_updates = [f for f in files if f.project == "routeviews" and f.dump_type == "updates"]
        assert len(ris_updates) == scenario.config.duration // RIPE_RIS.updates_period
        assert len(rv_updates) == scenario.config.duration // ROUTEVIEWS.updates_period
        assert [f for f in files if f.dump_type == "ribs"]

    def test_all_dumps_parse_and_are_valid(self, generated):
        _, _, files = generated
        for dump in files:
            records = read_dump(dump.path)
            assert all(record.is_valid for record in records)

    def test_rib_dump_structure(self, generated):
        scenario, _, files = generated
        rib = next(f for f in files if f.dump_type == "ribs" and f.project == "ris")
        records = read_dump(rib.path)
        assert isinstance(records[0].body, PeerIndexTable)
        assert all(isinstance(r.body, RIBPrefixRecord) for r in records[1:])
        # Record timestamps are spread across the RIB walk (E2 in the paper).
        timestamps = [r.timestamp for r in records]
        assert max(timestamps) > min(timestamps)
        # Peer indexes reference the collector's VPs.
        collector = scenario.collector(rib.collector)
        peer_count = len(collector.vps)
        for record in records[1:]:
            for entry in record.body.entries:
                assert 0 <= entry.peer_index < peer_count

    def test_updates_dumps_timestamps_within_window(self, generated):
        _, _, files = generated
        for dump in files:
            if dump.dump_type != "updates":
                continue
            for record in read_dump(dump.path):
                assert dump.timestamp <= record.timestamp <= dump.interval_end

    def test_hijack_produces_moas_updates(self, generated):
        scenario, _, files = generated
        hijack = next(
            e for e in scenario.timeline.events if isinstance(e, PrefixHijackEvent)
        )
        target = hijack.prefixes[0]
        origins = set()
        for dump in files:
            if dump.dump_type != "updates":
                continue
            for record in read_dump(dump.path):
                if isinstance(record.body, BGP4MPMessage):
                    update = record.body.update
                    if target in update.all_announced:
                        origins.add(update.attributes.as_path.origin_asn)
        assert hijack.hijacker_asn in origins

    def test_outage_produces_withdrawals(self, generated):
        scenario, _, files = generated
        outage = next(e for e in scenario.timeline.events if isinstance(e, OutageEvent))
        outage_prefixes = set(outage.prefixes)
        withdrawn = set()
        for dump in files:
            if dump.dump_type != "updates":
                continue
            for record in read_dump(dump.path):
                if isinstance(record.body, BGP4MPMessage):
                    withdrawn.update(record.body.update.all_withdrawn)
        assert withdrawn & outage_prefixes

    def test_session_reset_state_messages_only_for_ris(self, generated):
        scenario, _, files = generated
        state_projects = set()
        for dump in files:
            if dump.dump_type != "updates":
                continue
            for record in read_dump(dump.path):
                if isinstance(record.body, BGP4MPStateChange):
                    state_projects.add(dump.project)
        assert state_projects == {"ris"}

    def test_rtbh_announcement_carries_blackhole_community(self, generated):
        scenario, _, files = generated
        rtbh = next(e for e in scenario.timeline.events if isinstance(e, RTBHEvent))
        seen_tagged = False
        for dump in files:
            if dump.dump_type != "updates":
                continue
            for record in read_dump(dump.path):
                if isinstance(record.body, BGP4MPMessage):
                    update = record.body.update
                    if rtbh.blackhole_prefix in update.all_announced:
                        if update.attributes.communities.matches_any(rtbh.communities):
                            seen_tagged = True
        assert seen_tagged

    def test_generation_is_deterministic(self, small_topology, tmp_path):
        config = ScenarioConfig(duration=1800, vps_per_collector=3, seed=5)
        first = build_scenario(config, topology=small_topology)
        second = build_scenario(config, topology=small_topology)
        updates_a = first.updates_for_collector(first.collectors[0])
        updates_b = second.updates_for_collector(second.collectors[0])
        assert [(t, vp.asn, kind) for t, vp, kind, _ in updates_a] == [
            (t, vp.asn, kind) for t, vp, kind, _ in updates_b
        ]


@pytest.mark.parametrize("module", ["repro.core.reader", "repro.core.stream", "repro.gateway.cli"])
def test_read_path_imports_do_not_load_the_simulator(module):
    """The read path reaches ``repro.collectors`` for the archive layout only;
    the simulator (and its networkx dependency) loads on first use.  The
    historical reader is one process and no sockets: it loads none of the
    pool/IPC machinery either (the gateway does — asyncio needs it)."""
    heavy = (
        ()
        if module == "repro.gateway.cli"
        else ("concurrent.futures", "multiprocessing", "logging", "socket", "subprocess")
    )
    probe = (
        f"import sys, {module}\n"
        "loaded = [m for m in sys.modules if m == 'networkx' or m in "
        "{'repro.collectors.' + n for n in "
        "('topology', 'routing', 'scenario', 'events', 'collector')}]\n"
        "assert not loaded, loaded\n"
        f"heavy = [m for m in {heavy!r} if m in sys.modules]\n"
        "assert not heavy, heavy\n"
        "from repro.collectors import build_scenario\n"
        "assert 'networkx' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", probe], check=True, env=env, timeout=60)


@pytest.mark.parametrize("module", ["repro.core.intern", "repro.core.metrics", "repro.bgp.aspath"])
def test_decode_layer_imports_do_not_load_the_stream(module):
    """``repro.core``'s package init is lazy (PEP 562), so the decode layers
    can import ``repro.core.intern`` / ``metrics`` without
    pulling in ``stream`` — which imports them back."""
    probe = (
        f"import sys, {module}\n"
        "loaded = [m for m in ('repro.core.stream', 'repro.core.record', "
        "'repro.mrt.records') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "from repro.core import BGPStream\n"
        "assert 'repro.core.stream' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", probe], check=True, env=env, timeout=60)
