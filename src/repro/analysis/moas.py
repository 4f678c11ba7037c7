"""MOAS sets over time (Figure 5b, §5).

For each monthly snapshot, collect the set of origin ASes per prefix across
all VPs, and count the unique MOAS sets (sets of ASes jointly originating at
least one prefix) — overall and per collector.  The paper's headline
observation is that the overall aggregation always identifies significantly
more MOAS sets than any single collector, i.e. analysing data from as many
collectors as available matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.mapreduce import MapReduceDriver, Partition
from repro.bgp.prefix import Prefix
from repro.collectors.archive import Archive
from repro.core.elem import ElemType
from repro.core.stream import BGPStream


@dataclass
class MOASAnalysisResult:
    """MOAS sets per month, overall and per collector."""

    #: month -> set of MOAS sets (overall aggregation).
    overall: Dict[int, FrozenSet[FrozenSet[int]]] = field(default_factory=dict)
    #: month -> collector -> set of MOAS sets.
    per_collector: Dict[int, Dict[str, FrozenSet[FrozenSet[int]]]] = field(default_factory=dict)

    def months(self) -> List[int]:
        return sorted(self.overall)

    def overall_counts(self) -> List[Tuple[int, int]]:
        return [(month, len(self.overall[month])) for month in self.months()]

    def max_single_collector_count(self, month: int) -> int:
        per = self.per_collector.get(month, {})
        return max((len(sets) for sets in per.values()), default=0)


def _map_partition(stream: BGPStream, partition: Partition):
    origins_per_prefix: Dict[Prefix, Set[int]] = {}
    for _record, elem in stream.elems():
        if elem.elem_type != ElemType.RIB or elem.prefix is None:
            continue
        if elem.origin_asn is None:
            continue
        origins_per_prefix.setdefault(elem.prefix, set()).add(elem.origin_asn)
    return origins_per_prefix


def analyse_moas(
    archive: Archive,
    month_timestamps: Sequence[int],
    collectors: Optional[Sequence[str]] = None,
    window: int = 3600,
    workers: int = 4,
) -> MOASAnalysisResult:
    """Run the Figure 5b analysis over monthly RIB dumps."""
    driver = MapReduceDriver(archive, _map_partition, workers=workers)
    partitions = driver.partitions_for(month_timestamps, collectors, window=window)
    result = MOASAnalysisResult()
    merged: Dict[int, Dict[Prefix, Set[int]]] = {}
    per_collector_origins: Dict[int, Dict[str, Dict[Prefix, Set[int]]]] = {}
    for partition, origins_per_prefix in driver.map(partitions):
        month = partition.interval_start
        collector = partition.collector or "*"
        month_merge = merged.setdefault(month, {})
        month_collector = per_collector_origins.setdefault(month, {}).setdefault(collector, {})
        for prefix, origins in origins_per_prefix.items():
            month_merge.setdefault(prefix, set()).update(origins)
            month_collector.setdefault(prefix, set()).update(origins)
    for month in month_timestamps:
        result.overall[month] = _moas_sets(merged.get(month, {}))
        result.per_collector[month] = {
            collector: _moas_sets(prefix_origins)
            for collector, prefix_origins in per_collector_origins.get(month, {}).items()
        }
    return result


def _moas_sets(origins_per_prefix: Dict[Prefix, Set[int]]) -> FrozenSet[FrozenSet[int]]:
    return frozenset(
        frozenset(origins) for origins in origins_per_prefix.values() if len(origins) > 1
    )
