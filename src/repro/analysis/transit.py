"""Transit-AS fraction over time, IPv4 vs IPv6 (Figure 5c, §5).

A transit AS is one appearing in the middle of an AS path.  The paper's
observations: for IPv4, despite near-linear growth in the number of ASes,
the fraction of transit ASes stays roughly constant; for IPv6 the fraction
is larger (smaller edge adoption) and the total AS count grows fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.mapreduce import MapReduceDriver, Partition
from repro.collectors.archive import Archive
from repro.core.elem import ElemType
from repro.core.stream import BGPStream


@dataclass
class TransitResult:
    """Per-month AS counts and transit fractions for each IP version."""

    #: month -> {4: count, 6: count}
    total_asns: Dict[int, Dict[int, int]] = field(default_factory=dict)
    transit_asns: Dict[int, Dict[int, int]] = field(default_factory=dict)

    def months(self) -> List[int]:
        return sorted(self.total_asns)

    def transit_fraction(self, month: int, version: int) -> float:
        total = self.total_asns.get(month, {}).get(version, 0)
        transit = self.transit_asns.get(month, {}).get(version, 0)
        return transit / total if total else 0.0


def _map_partition(stream: BGPStream, partition: Partition):
    seen: Dict[int, Set[int]] = {4: set(), 6: set()}
    transit: Dict[int, Set[int]] = {4: set(), 6: set()}
    for _record, elem in stream.elems():
        if elem.elem_type != ElemType.RIB or elem.prefix is None or elem.as_path is None:
            continue
        version = elem.prefix.version
        hops = elem.as_path.hops
        seen[version].update(hops)
        if len(hops) > 2:
            transit[version].update(hops[1:-1])
    return seen, transit


def analyse_transit(
    archive: Archive,
    month_timestamps: Sequence[int],
    collectors: Optional[Sequence[str]] = None,
    window: int = 3600,
    workers: int = 4,
) -> TransitResult:
    """Run the Figure 5c analysis over monthly RIB dumps."""
    driver = MapReduceDriver(archive, _map_partition, workers=workers)
    partitions = driver.partitions_for(month_timestamps, collectors, window=window)
    result = TransitResult()
    seen_per_month: Dict[int, Dict[int, Set[int]]] = {}
    transit_per_month: Dict[int, Dict[int, Set[int]]] = {}
    for partition, (seen, transit) in driver.map(partitions):
        month = partition.interval_start
        month_seen = seen_per_month.setdefault(month, {4: set(), 6: set()})
        month_transit = transit_per_month.setdefault(month, {4: set(), 6: set()})
        for version in (4, 6):
            month_seen[version].update(seen[version])
            month_transit[version].update(transit[version])
    for month in month_timestamps:
        seen = seen_per_month.get(month, {4: set(), 6: set()})
        transit = transit_per_month.get(month, {4: set(), 6: set()})
        result.total_asns[month] = {4: len(seen[4]), 6: len(seen[6])}
        result.transit_asns[month] = {4: len(transit[4]), 6: len(transit[6])}
    return result
