"""Atlas probes and probe selection.

The paper selects currently-active probes from (i) the visible AS neighbours
of the origin AS, (ii) ASes co-located in the same IXPs as the origin AS,
and (iii) the same country as the target IP — to account for potentially
invisible peripheral peering interconnections.  Probe availability
fluctuates, which the paper handles by discarding destinations whose probe
set changed between the two measurement rounds; the simulation models that
with a per-probe availability probability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set

from repro.collectors.topology import ASTopology


@dataclass(frozen=True)
class AtlasProbe:
    """One measurement probe hosted inside an AS."""

    probe_id: int
    asn: int
    country: str
    ixps: FrozenSet[int] = frozenset()


class ProbeSelector:
    """Builds a probe population over a topology and selects probes per target."""

    def __init__(
        self,
        topology: ASTopology,
        probes_per_as: int = 2,
        availability: float = 0.9,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.availability = availability
        self._rng = random.Random(seed)
        self.probes: List[AtlasProbe] = []
        probe_id = 1
        for asn in topology.asns():
            node = topology.node(asn)
            for _ in range(probes_per_as):
                self.probes.append(
                    AtlasProbe(probe_id=probe_id, asn=asn, country=node.country, ixps=node.ixps)
                )
                probe_id += 1

    # -- selection ----------------------------------------------------------------

    def select_for_target(
        self,
        origin_asn: int,
        target_country: Optional[str] = None,
        min_probes: int = 50,
        max_probes: int = 100,
    ) -> List[AtlasProbe]:
        """The paper's three-way selection, capped to ``max_probes``."""
        if origin_asn not in self.topology:
            return []
        node = self.topology.node(origin_asn)
        neighbour_asns = set(self.topology.neighbors(origin_asn))
        ixp_asns: Set[int] = set()
        for ixp in node.ixps:
            ixp_asns.update(self.topology.ixp_members(ixp))
        ixp_asns.discard(origin_asn)
        country = target_country or node.country

        selected: List[AtlasProbe] = []
        seen: Set[int] = set()
        for probe in self.probes:
            reason = (
                probe.asn in neighbour_asns
                or probe.asn in ixp_asns
                or probe.country == country
            )
            if not reason or probe.asn == origin_asn:
                continue
            if probe.probe_id in seen:
                continue
            selected.append(probe)
            seen.add(probe.probe_id)
        # Top up from the general population if the neighbourhood is small
        # (the paper varies 50-100 probes depending on origin connectivity).
        if len(selected) < min_probes:
            extras = [
                p for p in self.probes if p.probe_id not in seen and p.asn != origin_asn
            ]
            self._rng.shuffle(extras)
            selected.extend(extras[: min_probes - len(selected)])
        if len(selected) > max_probes:
            selected = selected[:max_probes]
        return selected

    def currently_active(self, probes: Sequence[AtlasProbe]) -> List[AtlasProbe]:
        """Model probe availability fluctuations between measurement rounds."""
        return [p for p in probes if self._rng.random() < self.availability]
