"""Routing-table growth and full-feed classification (Figure 5a, §5).

For each monthly RIB snapshot, count the unique IPv4 prefixes in every VP's
Adj-RIB-out.  Partial-feed VPs show significantly smaller tables and skew
distributions; the paper defines full-feed VPs as those within 20 percentage
points of the per-month maximum, and that classification is reused by every
other analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.mapreduce import MapReduceDriver, Partition
from repro.collectors.archive import Archive
from repro.core.elem import ElemType
from repro.core.stream import BGPStream

#: A VP key in analysis outputs: (collector, peer ASN).
AnalysisVP = Tuple[str, int]


@dataclass
class RIBGrowthResult:
    """Per-month, per-VP routing-table sizes plus derived aggregates."""

    #: month timestamp -> {vp -> unique IPv4 prefix count}.
    per_vp: Dict[int, Dict[AnalysisVP, int]] = field(default_factory=dict)
    #: month timestamp -> overall unique IPv4 prefixes (union over VPs).
    overall: Dict[int, int] = field(default_factory=dict)
    #: month timestamp -> unique origin ASNs observed.
    unique_asns: Dict[int, int] = field(default_factory=dict)

    def months(self) -> List[int]:
        return sorted(self.per_vp)

    def max_table_size(self, month: int) -> int:
        sizes = self.per_vp.get(month, {})
        return max(sizes.values(), default=0)

    def full_feed_vps(self, month: int, within: float = 0.20) -> Set[AnalysisVP]:
        """VPs within ``within`` (fraction) of the month's maximum table size."""
        sizes = self.per_vp.get(month, {})
        maximum = self.max_table_size(month)
        if maximum == 0:
            return set()
        threshold = (1.0 - within) * maximum
        return {vp for vp, size in sizes.items() if size >= threshold}

    def partial_feed_vps(self, month: int, within: float = 0.20) -> Set[AnalysisVP]:
        sizes = self.per_vp.get(month, {})
        return set(sizes) - self.full_feed_vps(month, within)


def _map_partition(stream: BGPStream, partition: Partition):
    per_vp: Dict[AnalysisVP, Set] = {}
    origins: Set[int] = set()
    for _record, elem in stream.elems():
        if elem.elem_type != ElemType.RIB or elem.prefix is None:
            continue
        if elem.prefix.version != 4:
            continue
        vp = (elem.collector, elem.peer_asn)
        per_vp.setdefault(vp, set()).add(elem.prefix)
        if elem.origin_asn:
            origins.add(elem.origin_asn)
    return per_vp, origins


def analyse_rib_growth(
    archive: Archive,
    month_timestamps: Sequence[int],
    collectors: Optional[Sequence[str]] = None,
    window: int = 3600,
    workers: int = 4,
) -> RIBGrowthResult:
    """Run the Figure 5a analysis over monthly RIB dumps in ``archive``."""
    driver = MapReduceDriver(archive, _map_partition, workers=workers)
    partitions = driver.partitions_for(month_timestamps, collectors, window=window)
    result = RIBGrowthResult()
    union_per_month: Dict[int, Set] = {}
    origins_per_month: Dict[int, Set[int]] = {}
    for partition, (per_vp, origins) in driver.map(partitions):
        month = partition.interval_start
        month_vp = result.per_vp.setdefault(month, {})
        for vp, prefixes in per_vp.items():
            month_vp[vp] = max(month_vp.get(vp, 0), len(prefixes))
            union_per_month.setdefault(month, set()).update(prefixes)
        origins_per_month.setdefault(month, set()).update(origins)
    for month in month_timestamps:
        result.overall[month] = len(union_per_month.get(month, set()))
        result.unique_asns[month] = len(origins_per_month.get(month, set()))
        result.per_vp.setdefault(month, {})
    return result
