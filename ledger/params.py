"""Frozen workload parameters of the performance ledger.

Every number that shapes an input lives here and nowhere else, so that two
ledger readings taken months apart measured the same job.  ``FULL`` is what
``BENCHMARK.json`` runs; ``SMOKE`` is the same code at a scale the tier-1
self-test finishes in seconds.  Changing ``FULL`` starts a new ledger: the
first reading in ``README.md`` and the digests under ``expected/`` must be
re-taken with it.
"""

from __future__ import annotations

#: Scenario start (2016-01-01 00:00 UTC), the repo-wide synthetic epoch.
START = 1_451_606_400

#: The topology is one fixed synthetic Internet; ``--seed`` picks the vantage
#: points, the churn and the watched prefixes on it.  Seeding the topology
#: too would swing the prefix count by ~15% between seeds, which would show
#: up as spread in every size-dependent metric without exercising anything.
TOPOLOGY_SEED = 20160101

FULL = {
    "name": "full",
    "hist": {
        "duration": 2 * 3600,
        "topology": {"num_tier1": 4, "num_transit": 24, "num_stub": 160},
        "collectors_per_project": {"routeviews": 2, "ris": 2},
        "vps_per_collector": 8,
        "churn_updates_per_vp_per_hour": 300.0,
        # hist-cache-cold-warm replays the first hour only (RIBs + updates),
        # so that a cold+warm pair is short enough to repeat within one run.
        "cache_window": 3600,
        "watched_prefixes": 3,
    },
    "live": {
        "frames": 12_000,  # the live-catchup backlog (live-paced sends rate * seconds)
        # ~27% of the ~3.7k frames/s this gateway drains with 32 subscribers:
        # queues stay short, so latency measures the pipeline, not a backlog.
        "rate_fps": 1000,
        "frames_per_event_second": 50,  # 1 event-second = 50 ms wall at rate_fps
        "peers": 8,
        "nets": 32,  # /16 networks the NLRI are spread over
        "filtered_subscribers": 30,
        "idle_polls": 10,
        # A paced window later than this counts as failed.  40 windows behind
        # is a broken feed; full garbage collections alone stall this gateway
        # for 50-90 ms, and up to 0.7 s when they meet a slow phase of the box.
        "late_ms": 2000.0,
    },
    "setup_reps": 3,
    "min_reps": 3,
    "trace_rounds": 2,
}

SMOKE = {
    "name": "smoke",
    "hist": {
        "duration": 1800,
        "topology": {"num_tier1": 2, "num_transit": 4, "num_stub": 12},
        "collectors_per_project": {"routeviews": 1, "ris": 1},
        "vps_per_collector": 2,
        "churn_updates_per_vp_per_hour": 120.0,
        "cache_window": 900,
        "watched_prefixes": 2,
    },
    "live": {
        "frames": 600,
        "rate_fps": 1000,
        "frames_per_event_second": 50,
        "peers": 4,
        "nets": 8,
        "filtered_subscribers": 3,
        "idle_polls": 3,
        "late_ms": 2000.0,
    },
    "setup_reps": 1,
    "min_reps": 1,
    "trace_rounds": 1,
}

SCALES = {"full": FULL, "smoke": SMOKE}

#: Gateway defaults the live workloads must run with (``repro.gateway.cli``).
GATEWAY_POLL_INTERVAL = 0.05
GATEWAY_MAX_RESTARTS = 3
GATEWAY_HEARTBEAT = 15.0
GATEWAY_SESSION_TTL = 60.0

#: The open-loop generator may run this late at p99 before the run is
#: declared invalid (a generator problem, not a slow system).
LOADGEN_LATE_LIMIT_MS = 5.0
