"""Prefix-visibility plugin: per-origin and per-country visible prefixes.

This is the per-bin aggregation behind the Figure 10 style of analysis: how
many prefixes geolocated to a country (or originated by an AS) are visible
from the stream's vantage points.  A prefix counts as visible when at least
``min_vps`` full-feed VPs currently have a route to it, which protects the
signal from single-VP routing failures (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.bgp.prefix import Prefix
from repro.core.elem import ElemType
from repro.corsaro.plugin import Plugin, TaggedRecord


@dataclass(frozen=True)
class VisibilityOutput:
    """Per-bin visibility summary."""

    interval_start: int
    visible_prefixes: int
    per_origin: Tuple[Tuple[int, int], ...]  # (origin ASN, visible prefix count)
    per_country: Tuple[Tuple[str, int], ...]  # (country, visible prefix count)


class VisibilityPlugin(Plugin):
    """Track per-prefix visibility across VPs (§5 outage analysis): how
    many vantage points currently see each prefix, aggregated by country
    when a prefix→country mapping is supplied."""

    name = "visibility"

    def __init__(
        self,
        prefix_countries: Optional[Mapping[Prefix, str]] = None,
        min_vps: int = 1,
        full_feed_vps: Optional[Iterable[Tuple[str, int]]] = None,
    ) -> None:
        self.prefix_countries = dict(prefix_countries or {})
        self.min_vps = max(1, min_vps)
        #: Restrict the VP set considered (collector, peer ASN); None = all VPs.
        self.full_feed_vps = set(full_feed_vps) if full_feed_vps is not None else None
        #: prefix -> {vp: origin ASN or None}
        self._routes: Dict[Prefix, Dict[Tuple[str, int], Optional[int]]] = {}

    def _vp_allowed(self, collector: str, peer_asn: int) -> bool:
        if self.full_feed_vps is None:
            return True
        return (collector, peer_asn) in self.full_feed_vps

    def process_record(self, tagged: TaggedRecord) -> None:
        collector = tagged.record.collector
        for elem in tagged.elems:
            if elem.prefix is None:
                continue
            if not self._vp_allowed(collector, elem.peer_asn):
                continue
            vp = (collector, elem.peer_asn)
            if elem.elem_type in (ElemType.RIB, ElemType.ANNOUNCEMENT):
                self._routes.setdefault(elem.prefix, {})[vp] = elem.origin_asn
            elif elem.elem_type == ElemType.WITHDRAWAL:
                self._routes.setdefault(elem.prefix, {})[vp] = None

    def end_interval(self, interval_start: int) -> VisibilityOutput:
        per_origin: Dict[int, int] = {}
        per_country: Dict[str, int] = {}
        visible = 0
        for prefix, per_vp in self._routes.items():
            holders = [origin for origin in per_vp.values() if origin is not None]
            if len(holders) < self.min_vps:
                continue
            visible += 1
            # Attribute the prefix to its (majority) origin.
            origin = max(set(holders), key=holders.count)
            per_origin[origin] = per_origin.get(origin, 0) + 1
            country = self.prefix_countries.get(prefix)
            if country is not None:
                per_country[country] = per_country.get(country, 0) + 1
        return VisibilityOutput(
            interval_start=interval_start,
            visible_prefixes=visible,
            per_origin=tuple(sorted(per_origin.items())),
            per_country=tuple(sorted(per_country.items())),
        )
