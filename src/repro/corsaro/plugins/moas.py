"""Multi-Origin-AS (MOAS) detection plugin (§5, Figure 5b; §6.2).

Tracks, for every prefix, the set of origin ASes observed announcing it
(across all VPs of the stream).  A prefix announced by more than one origin
at the same time is a MOAS prefix; the set of origins is a *MOAS set*.
Study and detection of MOAS prefixes underpins BGP-hijacking detection: most
common hijacks manifest as two or more ASes announcing exactly the same
prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.bgp.prefix import Prefix
from repro.core.elem import ElemType
from repro.corsaro.plugin import Plugin, TaggedRecord


@dataclass(frozen=True)
class MOASOutput:
    """Per-bin MOAS summary."""

    interval_start: int
    moas_prefix_count: int
    moas_sets: FrozenSet[FrozenSet[int]]
    #: prefix -> origin set, for MOAS prefixes only.
    moas_prefixes: Tuple[Tuple[Prefix, FrozenSet[int]], ...]

    @property
    def moas_set_count(self) -> int:
        return len(self.moas_sets)


class MOASPlugin(Plugin):
    """Detect Multi-Origin AS prefixes: a per-bin report of every prefix
    announced with more than one origin AS across the tracked VPs."""

    name = "moas"

    def __init__(self, per_collector: bool = False) -> None:
        #: Track origins per (collector?, prefix, VP): the VP dimension lets a
        #: withdrawal from one VP not erase what other VPs still announce.
        self.per_collector = per_collector
        self._origins: Dict[Tuple[str, Prefix], Dict[Tuple[str, int], Optional[int]]] = {}

    def _scope(self, collector: str) -> str:
        return collector if self.per_collector else "*"

    def process_record(self, tagged: TaggedRecord) -> None:
        collector = tagged.record.collector
        for elem in tagged.elems:
            if elem.prefix is None:
                continue
            scope = self._scope(collector)
            key = (scope, elem.prefix)
            vp = (collector, elem.peer_asn)
            if elem.elem_type in (ElemType.RIB, ElemType.ANNOUNCEMENT):
                self._origins.setdefault(key, {})[vp] = elem.origin_asn
            elif elem.elem_type == ElemType.WITHDRAWAL:
                self._origins.setdefault(key, {})[vp] = None

    def end_interval(self, interval_start: int) -> MOASOutput:
        return self.summary(interval_start)

    def summary(self, interval_start: int, scope: str = "*") -> MOASOutput:
        """MOAS summary for one scope ('*' = all collectors together)."""
        moas_prefixes = []
        moas_sets: Set[FrozenSet[int]] = set()
        for (key_scope, prefix), per_vp in self._origins.items():
            if key_scope != scope:
                continue
            origins = frozenset(o for o in per_vp.values() if o is not None)
            if len(origins) > 1:
                moas_prefixes.append((prefix, origins))
                moas_sets.add(origins)
        return MOASOutput(
            interval_start=interval_start,
            moas_prefix_count=len(moas_prefixes),
            moas_sets=frozenset(moas_sets),
            moas_prefixes=tuple(sorted(moas_prefixes, key=lambda item: item[0])),
        )
