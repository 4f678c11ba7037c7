"""Scenario generation: from a topology + events to a populated archive.

A :class:`Scenario` ties together the synthetic topology, the policy-routing
ground truth, a set of collectors with their vantage points, and an event
timeline.  ``generate()`` walks simulated time and makes every collector
write genuine MRT RIB and Updates dumps into an archive, with the project's
own periodicities and realistic publication latency — producing exactly the
kind of heterogeneous, distributed dataset libBGPStream is designed to
consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.community import CommunitySet
from repro.bgp.fsm import SessionState
from repro.bgp.prefix import Prefix
from repro.collectors.archive import Archive, DumpFile
from repro.collectors.collector import Collector, UpdateEntry
from repro.collectors.events import EventTimeline, OutageEvent, RTBHEvent, RoutingEvent
from repro.collectors.projects import PROJECTS
from repro.collectors.routing import Route, RouteComputer
from repro.collectors.topology import ASRole, ASTopology, TopologyConfig, generate_topology
from repro.collectors.vantage_point import VantagePoint
from repro.utils.timeutil import iter_bins


@dataclass
class ScenarioConfig:
    """Parameters of a collection scenario."""

    start: int = 1_451_606_400  # 2016-01-01 00:00 UTC
    duration: int = 4 * 3600
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    #: Number of collectors to instantiate per project.
    collectors_per_project: Dict[str, int] = field(
        default_factory=lambda: {"routeviews": 1, "ris": 1}
    )
    vps_per_collector: int = 8
    full_feed_fraction: float = 0.7
    #: Mean background (redundant) re-announcements per VP per hour.
    churn_updates_per_vp_per_hour: float = 60.0
    compress_dumps: bool = True
    include_ipv6: bool = True
    seed: int = 0

    @property
    def end(self) -> int:
        return self.start + self.duration


class Scenario:
    """A fully-instantiated scenario ready to generate dumps."""

    def __init__(
        self,
        config: ScenarioConfig,
        topology: ASTopology,
        collectors: List[Collector],
        timeline: EventTimeline,
    ) -> None:
        self.config = config
        self.topology = topology
        self.collectors = collectors
        self.timeline = timeline
        self.computer = RouteComputer(topology)
        self._rng = random.Random(config.seed ^ 0x5CE7A510)
        self._base_tables: Dict[Tuple[str, int], Dict[Prefix, Route]] = {}

    # -- convenience accessors -------------------------------------------------

    @property
    def start(self) -> int:
        return self.config.start

    @property
    def end(self) -> int:
        return self.config.end

    def collector(self, name: str) -> Collector:
        for collector in self.collectors:
            if collector.name == name:
                return collector
        raise KeyError(name)

    # -- routing state over time -------------------------------------------------

    def base_table(self, collector: Collector, vp: VantagePoint) -> Dict[Prefix, Route]:
        """The VP's Adj-RIB-out with no events active (cached)."""
        key = (collector.name, vp.asn)
        if key not in self._base_tables:
            self._base_tables[key] = vp.adj_rib_out(self.computer)
        return self._base_tables[key]

    def route_at(
        self, vp: VantagePoint, prefix: Prefix, timestamp: int
    ) -> Optional[Route]:
        """The route ``vp`` exports for ``prefix`` at ``timestamp`` (or None).

        Only consulted for event-affected prefixes; unaffected prefixes keep
        their base-table route throughout the scenario.
        """
        excluded = self.timeline.excluded_asns_at(timestamp)
        if prefix in self.timeline.withdrawn_prefixes_at(timestamp):
            return None

        # Remotely-triggered black-holing has per-VP visibility scope.
        for event in self.timeline.rtbh_events_at(timestamp):
            if event.blackhole_prefix == prefix:
                return self._rtbh_route(vp, event, excluded)

        candidates: List[Route] = []
        base_origin = self.topology.origin_of(prefix)
        if base_origin is not None and base_origin not in excluded:
            route = self.computer.route(vp.asn, prefix, origin=base_origin, excluded=excluded)
            if route is not None:
                candidates.append(route)
        extra_origin = self.timeline.extra_origins_at(timestamp).get(prefix)
        if extra_origin is not None and extra_origin not in excluded:
            route = self.computer.route(vp.asn, prefix, origin=extra_origin, excluded=excluded)
            if route is not None:
                candidates.append(route)
        if not candidates:
            return None
        best = candidates[0]
        for candidate in candidates[1:]:
            if _route_preferred(candidate, best):
                best = candidate
        if not vp.exports(best):
            return None
        return best

    def table_at(
        self, collector: Collector, vp: VantagePoint, timestamp: int
    ) -> Dict[Prefix, Route]:
        """The VP's full Adj-RIB-out at ``timestamp`` (base + event deltas)."""
        table = dict(self.base_table(collector, vp))
        for prefix in self.timeline.affected_prefixes():
            route = self.route_at(vp, prefix, timestamp)
            if route is None:
                table.pop(prefix, None)
            else:
                table[prefix] = route
        return table

    def vp_session_down(self, collector: Collector, vp: VantagePoint, timestamp: int) -> bool:
        for event in self.timeline.session_resets(collector.name):
            if event.vp_asn == vp.asn and event.active_at(timestamp):
                return True
        return False

    def _rtbh_route(
        self, vp: VantagePoint, event: RTBHEvent, excluded: Iterable[int]
    ) -> Optional[Route]:
        """The black-holed /32 as seen (or not) by ``vp``."""
        visible = False
        if vp.asn in event.provider_asns or vp.asn in event.propagating_providers:
            visible = True
        else:
            path = self.computer.paths_to_origin(event.customer_asn, excluded).get(vp.asn)
            if path is not None and any(
                asn in event.propagating_providers for asn in path.asns
            ):
                visible = True
        if not visible:
            return None
        base = self.computer.route(
            vp.asn, event.blackhole_prefix, origin=event.customer_asn, excluded=excluded
        )
        if base is None:
            return None
        return Route(
            prefix=base.prefix,
            as_path=base.as_path,
            next_hop=base.next_hop,
            communities=base.communities.union(CommunitySet(event.communities)),
            origin=base.origin,
            route_type=base.route_type,
        )

    # -- update-stream generation ---------------------------------------------------

    def updates_for_collector(self, collector: Collector) -> List[UpdateEntry]:
        """Every update entry a collector receives during the scenario."""
        entries: List[UpdateEntry] = []
        boundaries = self.timeline.boundaries(self.start, self.end)
        rng = random.Random((self.config.seed, collector.name).__hash__() & 0x7FFFFFFF)

        for vp in collector.vps:
            entries.extend(
                self._event_updates_for_vp(collector, vp, boundaries, rng)
            )
            entries.extend(self._churn_updates_for_vp(collector, vp, rng))
            entries.extend(self._session_updates_for_vp(collector, vp))
        entries.sort(key=lambda e: e[0])
        return entries

    def _event_updates_for_vp(
        self,
        collector: Collector,
        vp: VantagePoint,
        boundaries: Sequence[int],
        rng: random.Random,
    ) -> List[UpdateEntry]:
        entries: List[UpdateEntry] = []
        affected = sorted(self.timeline.affected_prefixes())
        if not affected:
            return entries
        current: Dict[Prefix, Optional[Route]] = {}
        base = self.base_table(collector, vp)
        for prefix in affected:
            current[prefix] = self.route_at(vp, prefix, self.start) or base.get(prefix)
        for boundary in boundaries:
            if boundary <= self.start:
                continue
            for prefix in affected:
                new_route = self.route_at(vp, prefix, boundary)
                old_route = current[prefix]
                if _routes_equal(new_route, old_route):
                    continue
                jitter = rng.randint(0, 20)
                timestamp = min(boundary + jitter, self.end)
                if new_route is None:
                    entries.append((timestamp, vp, "withdraw", prefix))
                else:
                    entries.append((timestamp, vp, "announce", new_route))
                current[prefix] = new_route
        return entries

    def _churn_updates_for_vp(
        self, collector: Collector, vp: VantagePoint, rng: random.Random
    ) -> List[UpdateEntry]:
        """Background redundant re-announcements (routing churn)."""
        entries: List[UpdateEntry] = []
        rate = self.config.churn_updates_per_vp_per_hour
        if rate <= 0:
            return entries
        base = self.base_table(collector, vp)
        if not base:
            return entries
        prefixes = sorted(base)
        expected = rate * self.config.duration / 3600.0
        count = max(0, int(rng.gauss(expected, expected ** 0.5))) if expected > 0 else 0
        for _ in range(count):
            timestamp = rng.randint(self.start, self.end - 1)
            prefix = prefixes[rng.randrange(len(prefixes))]
            entries.append((timestamp, vp, "announce", base[prefix]))
        return entries

    def _session_updates_for_vp(
        self, collector: Collector, vp: VantagePoint
    ) -> List[UpdateEntry]:
        """State messages and post-reset table bursts for session resets."""
        entries: List[UpdateEntry] = []
        for event in self.timeline.session_resets(collector.name):
            if event.vp_asn != vp.asn:
                continue
            down, up = event.interval.start, event.interval.end
            entries.append(
                (down, vp, "state", (SessionState.ESTABLISHED, SessionState.IDLE))
            )
            entries.append(
                (up, vp, "state", (SessionState.IDLE, SessionState.ESTABLISHED))
            )
            # The re-established VP re-announces its entire table.
            table = self.table_at(collector, vp, up)
            for offset, prefix in enumerate(sorted(table)):
                entries.append((up + 1 + offset // 200, vp, "announce", table[prefix]))
        return entries

    # -- dump generation ----------------------------------------------------------

    def generate(self, archive: Archive) -> List[DumpFile]:
        """Write every RIB and Updates dump of the scenario into ``archive``."""
        published: List[DumpFile] = []
        for collector in self.collectors:
            published.extend(self._generate_collector(archive, collector))
        return published

    def _generate_collector(self, archive: Archive, collector: Collector) -> List[DumpFile]:
        published: List[DumpFile] = []
        spec = collector.project
        compress = self.config.compress_dumps

        # Updates dumps: bucket the full update stream into dump windows.
        entries = self.updates_for_collector(collector)
        for window_start in iter_bins(self.start, self.end, spec.updates_period):
            window_end = window_start + spec.updates_period
            window_entries = [e for e in entries if window_start <= e[0] < window_end]
            published.append(
                collector.write_updates_dump(
                    archive, window_start, window_entries, compress=compress
                )
            )

        # RIB dumps: snapshot every VP table at each RIB period boundary.
        for rib_time in iter_bins(self.start, self.end, spec.rib_period):
            if rib_time < self.start:
                rib_time = self.start
            tables = {}
            for vp in collector.vps:
                if self.vp_session_down(collector, vp, rib_time):
                    continue
                tables[vp] = self.table_at(collector, vp, rib_time)
            published.append(
                collector.write_rib_dump(archive, rib_time, tables, compress=compress)
            )
        return published


# -----------------------------------------------------------------------------
# Scenario construction helpers
# -----------------------------------------------------------------------------


def build_scenario(
    config: ScenarioConfig | None = None,
    events: Iterable[RoutingEvent] = (),
    topology: ASTopology | None = None,
) -> Scenario:
    """Build a scenario: topology, collectors with VPs, and the event timeline.

    ``events`` may contain :class:`OutageEvent` instances with only a
    ``country`` set; the builder resolves them to the ASes and prefixes of
    that country in the generated topology.
    """
    config = config or ScenarioConfig()
    topology = topology or generate_topology(config.topology)
    rng = random.Random(config.seed)

    collectors = _build_collectors(config, topology, rng)
    timeline = EventTimeline(_resolve_events(events, topology))
    return Scenario(config, topology, collectors, timeline)


def _build_collectors(
    config: ScenarioConfig, topology: ASTopology, rng: random.Random
) -> List[Collector]:
    # Prefer transit and tier-1 ASes as vantage points (as in reality), and
    # never attach the same AS twice to the same collector.
    transit_like = [
        asn
        for asn in topology.asns()
        if topology.node(asn).role in (ASRole.TIER1, ASRole.TRANSIT)
    ]
    stubs = [asn for asn in topology.asns() if topology.node(asn).role == ASRole.STUB]

    collectors: List[Collector] = []
    for project_name, count in sorted(config.collectors_per_project.items()):
        spec = PROJECTS[project_name]
        for index in range(count):
            name = spec.collector_name(index)
            vp_count = min(config.vps_per_collector, len(transit_like) + len(stubs))
            pool = transit_like + stubs
            chosen = rng.sample(pool, vp_count)
            vps = []
            for order, asn in enumerate(sorted(chosen)):
                full_feed = rng.random() < config.full_feed_fraction
                address = f"10.{(asn >> 8) & 0xFF}.{asn & 0xFF}.{order + 1}"
                vps.append(VantagePoint(asn=asn, address=address, full_feed=full_feed))
            bgp_id = f"198.51.{100 + len(collectors)}.1"
            collectors.append(
                Collector(
                    name=name,
                    project=spec,
                    vps=vps,
                    bgp_id=bgp_id,
                    local_address=bgp_id,
                )
            )
    return collectors


def _resolve_events(
    events: Iterable[RoutingEvent], topology: ASTopology
) -> List[RoutingEvent]:
    resolved: List[RoutingEvent] = []
    for event in events:
        if isinstance(event, OutageEvent):
            asns = tuple(event.asns)
            if event.country and not asns:
                asns = tuple(topology.asns_by_country(event.country))
            prefixes = tuple(event.prefixes)
            if not prefixes:
                collected: List[Prefix] = []
                for asn in asns:
                    if asn in topology:
                        collected.extend(topology.node(asn).all_prefixes)
                prefixes = tuple(sorted(collected))
            resolved.append(
                OutageEvent(
                    interval=event.interval,
                    asns=asns,
                    prefixes=prefixes,
                    country=event.country,
                )
            )
        else:
            resolved.append(event)
    return resolved


def _route_preferred(candidate: Route, incumbent: Route) -> bool:
    c_key = (int(candidate.route_type), len(candidate.as_path), candidate.as_path.hops[1:2] or [0])
    i_key = (int(incumbent.route_type), len(incumbent.as_path), incumbent.as_path.hops[1:2] or [0])
    return c_key < i_key


def _routes_equal(a: Optional[Route], b: Optional[Route]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return (
        a.prefix == b.prefix
        and a.as_path == b.as_path
        and a.next_hop == b.next_hop
        and a.communities == b.communities
    )
