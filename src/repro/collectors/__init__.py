"""Synthetic Internet and BGP data-collection infrastructure.

The original BGPStream consumes dumps published by the RouteViews and RIPE
RIS collector projects.  Neither those archives nor the Internet itself are
reachable in this environment, so this package builds the closest synthetic
equivalent end-to-end:

* :mod:`repro.collectors.topology` — an AS-level Internet with
  customer-provider / peer-peer relationships, prefix originations,
  countries and IXP co-location.
* :mod:`repro.collectors.routing` — Gao–Rexford policy routing: per-AS
  preferred paths (the Loc-RIB each router would install).
* :mod:`repro.collectors.vantage_point` — vantage points (full- or
  partial-feed) that export an Adj-RIB-out towards a collector.
* :mod:`repro.collectors.events` — scripted routing events (hijacks,
  outages, remotely-triggered black-holing, flapping, session resets).
* :mod:`repro.collectors.collector` — route collectors that maintain
  per-VP state and periodically write RIB and Updates dumps.
* :mod:`repro.collectors.archive` — the on-disk data-provider archive with
  RouteViews/RIS-style layout and publication latency.
* :mod:`repro.collectors.projects` — the RouteViews / RIPE RIS project
  parameters (dump periodicities, collector names).
* :mod:`repro.collectors.scenario` — orchestration: build a topology, run
  events over a time window, and populate an archive with genuine MRT dumps.
"""

import importlib

from repro.collectors.archive import Archive, DumpFile
from repro.collectors.projects import PROJECTS, ProjectSpec, ROUTEVIEWS, RIPE_RIS

#: The simulator's names and their submodules, imported on first access
#: (PEP 562): the read path (``bgpreader``, the gateway) reaches this
#: package for the archive layout and project tables only, and must not pay
#: for ``topology``'s networkx import.
_SIMULATOR_MODULES = {
    "ASNode": "topology",
    "ASRelationship": "topology",
    "ASRole": "topology",
    "ASTopology": "topology",
    "TopologyConfig": "topology",
    "generate_topology": "topology",
    "Route": "routing",
    "RouteComputer": "routing",
    "VantagePoint": "vantage_point",
    "EventTimeline": "events",
    "OutageEvent": "events",
    "PrefixFlapEvent": "events",
    "PrefixHijackEvent": "events",
    "RTBHEvent": "events",
    "SessionResetEvent": "events",
    "Collector": "collector",
    "Scenario": "scenario",
    "ScenarioConfig": "scenario",
    "build_scenario": "scenario",
}


def __getattr__(name: str):
    module = _SIMULATOR_MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "ASNode",
    "ASRelationship",
    "ASRole",
    "ASTopology",
    "TopologyConfig",
    "generate_topology",
    "Route",
    "RouteComputer",
    "VantagePoint",
    "PROJECTS",
    "ProjectSpec",
    "ROUTEVIEWS",
    "RIPE_RIS",
    "EventTimeline",
    "OutageEvent",
    "PrefixFlapEvent",
    "PrefixHijackEvent",
    "RTBHEvent",
    "SessionResetEvent",
    "Collector",
    "Archive",
    "DumpFile",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
]
