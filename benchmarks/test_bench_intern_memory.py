"""Flyweight interning: elem-extraction throughput and peak memory.

A synthetic RIB replay in the shape §5–§6 of the paper dimensions the
framework for: a TABLE_DUMP_V2 dump whose entries repeat a small population
of distinct AS paths / community sets across many (VP × prefix) cells, plus
an Updates dump re-announcing a slice of the table.  The replay extracts
every elem and maintains a routing-table-matrix consumer (per-VP cells,
distinct-path tallies, ``same_route``-style comparisons) — the hot loop of
the RT plugin.

Two claims are benchmarked against the *uninterned* path (interning fully
off, as ``bgpreader --no-intern`` configures it):

1. **throughput** — interned elem extraction + consumption must be faster
   (canonical objects carry cached hashes and take identity fast paths in
   every dict/set/equality the consumer performs);
2. **peak memory** — a cold parse + replay retaining the RT matrix must
   allocate at least 30% less at peak (``tracemalloc``), because the
   duplicate path/community/prefix objects a RIB repeats millions of times
   become garbage at decode time instead of living in the matrix.

The interned and uninterned replays must also observe *identical* elem
sequences, which is asserted before any timing.
"""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import CommunitySet
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.core.intern import (
    InternPool,
    default_pool,
    parse_interning,
    reset_default_pool,
)
from repro.core.interfaces import DumpFileSpec
from repro.core.sorter import DumpFileReader
from repro.mrt.records import BGP4MPMessage, PeerEntry
from repro.mrt.writer import write_rib_dump, write_updates_dump

#: Population shape: many cells, few distinct values (a real RIB sits around
#: 60-100k distinct paths for ~1M prefixes; the ratio here is comparable).
PEERS = 4
PREFIXES = 3000
DISTINCT_PATHS = 250
DISTINCT_COMMUNITY_SETS = 120
UPDATE_MESSAGES = 600


@pytest.fixture(scope="module")
def rib_replay_specs(tmp_path_factory):
    """Write the synthetic RIB + Updates dumps once per benchmark session."""
    rng = random.Random(20160201)
    base = tmp_path_factory.mktemp("intern-replay")

    paths = [
        ASPath.from_asns(
            [rng.randrange(1, 65000) for _ in range(rng.randrange(3, 8))]
        )
        for _ in range(DISTINCT_PATHS)
    ]
    community_sets = [
        CommunitySet.from_pairs(
            (rng.randrange(1, 65000), rng.randrange(0, 1000))
            for _ in range(rng.randrange(1, 5))
        )
        for _ in range(DISTINCT_COMMUNITY_SETS)
    ]
    prefixes = []
    seen = set()
    while len(prefixes) < PREFIXES:
        text = f"{rng.randrange(1, 224)}.{rng.randrange(256)}.{rng.randrange(256)}.0/24"
        if text not in seen:
            seen.add(text)
            prefixes.append(Prefix.from_string(text))

    peers = [PeerEntry(f"10.0.0.{i}", f"10.0.0.{i}", 64500 + i) for i in range(PEERS)]
    tables = {
        index: {
            prefix: PathAttributes(
                as_path=rng.choice(paths),
                next_hop=f"10.0.0.{rng.randrange(1, 5)}",
                communities=rng.choice(community_sets),
            )
            for prefix in prefixes
        }
        for index in range(PEERS)
    }
    rib_path = str(base / "rib.mrt")
    write_rib_dump(rib_path, 1000, "198.51.100.9", peers, tables)

    messages = []
    timestamp = 2000
    for _ in range(UPDATE_MESSAGES):
        timestamp += rng.randrange(0, 3)
        peer = rng.choice(peers)
        attrs = PathAttributes(
            as_path=rng.choice(paths),
            next_hop=f"10.0.0.{rng.randrange(1, 5)}",
            communities=rng.choice(community_sets),
        )
        update = BGPUpdate(announced=rng.sample(prefixes, rng.randrange(1, 6)), attributes=attrs)
        messages.append(
            (timestamp, BGP4MPMessage(peer.asn, 65535, peer.address, "198.51.100.9", update))
        )
    upd_path = str(base / "updates.mrt")
    write_updates_dump(upd_path, messages)

    return [
        DumpFileSpec(rib_path, "ris", "rrc0", "ribs", 1000, 60),
        DumpFileSpec(upd_path, "ris", "rrc0", "updates", 2000, 300),
    ]


def _parse(specs, interning: bool):
    """Cold-parse the dumps into record lists (pool reset first)."""
    reset_default_pool()
    with parse_interning(interning):
        return [list(DumpFileReader(spec)) for spec in specs]


def _replay(record_lists, pool):
    """Extract every elem and run the RT-matrix-style consumer over it.

    The consumer does what the RT plugin and the §5 analyses do per elem:
    keyed cell updates, ``same_route``-style comparison, and per-path /
    per-community-set tallies (Figures 5b–5d) — each one a hash + equality
    over the path/communities values.
    """
    cells = {}
    path_tally = {}
    community_tally = {}
    observed_routes = set()
    route_changes = 0
    elems = 0
    for records in record_lists:
        for record in records:
            record.intern_pool = pool
            for elem in record.elems():
                elems += 1
                if elem.prefix is None:
                    continue
                key = (elem.peer_address, elem.prefix)
                route = (elem.as_path, elem.next_hop, elem.communities)
                existing = cells.get(key)
                if existing is None or existing != route:
                    route_changes += 1
                cells[key] = route
                observed_routes.add((elem.prefix, elem.as_path, elem.communities))
                path_tally[elem.as_path] = path_tally.get(elem.as_path, 0) + 1
                community_tally[elem.communities] = (
                    community_tally.get(elem.communities, 0) + 1
                )
    return cells, path_tally, route_changes, elems


def _elem_lines(record_lists, pool):
    lines = []
    for records in record_lists:
        for record in records:
            record.intern_pool = pool
            lines.extend(elem.to_ascii() for elem in record.elems())
    return lines


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_interned_replay_beats_uninterned_throughput(benchmark, rib_replay_specs):
    interned_records = _parse(rib_replay_specs, interning=True)
    # What BGPStream(interning=True) uses: the pool parse-time interning
    # filled, so elem-time canonicalisation takes the identity fast path.
    interned_pool = default_pool()
    uninterned_records = _parse(rib_replay_specs, interning=False)

    # Identical observable elem sequences first.
    assert _elem_lines(interned_records, interned_pool) == _elem_lines(uninterned_records, None)

    def interned_pass():
        return _replay(interned_records, interned_pool)

    def uninterned_pass():
        return _replay(uninterned_records, None)

    # Same consumer results either way.
    cells_a, tally_a, changes_a, elems_a = interned_pass()
    cells_b, tally_b, changes_b, elems_b = uninterned_pass()
    assert cells_a == cells_b and tally_a == tally_b
    assert (changes_a, elems_a) == (changes_b, elems_b)
    assert elems_a >= PEERS * PREFIXES

    # Min-of-5 on both sides: the min is the noise-robust statistic for a
    # CPU-bound loop on a shared CI runner.
    uninterned_seconds = min(_timed(uninterned_pass) for _ in range(5))
    benchmark.pedantic(interned_pass, rounds=5, iterations=1)
    interned_seconds = benchmark.stats.stats.min

    benchmark.extra_info["elems"] = elems_a
    benchmark.extra_info["distinct_paths"] = len(tally_a)
    benchmark.extra_info["uninterned_seconds"] = round(uninterned_seconds, 4)
    benchmark.extra_info["interned_seconds"] = round(interned_seconds, 4)
    benchmark.extra_info["speedup"] = round(uninterned_seconds / interned_seconds, 2)
    assert interned_seconds < uninterned_seconds


def test_interned_replay_cuts_peak_memory(benchmark, rib_replay_specs):
    """Cold parse + replay retaining the RT matrix: ≥30% lower peak RSS."""

    def peak_bytes(interning: bool) -> int:
        reset_default_pool()
        tracemalloc.start()
        try:
            with parse_interning(interning):
                record_lists = [list(DumpFileReader(spec)) for spec in rib_replay_specs]
            pool = InternPool() if interning else None
            retained = _replay(record_lists, pool)
            _, peak = tracemalloc.get_traced_memory()
            assert retained[3] > 0
        finally:
            tracemalloc.stop()
        return peak

    uninterned_peak = peak_bytes(False)
    interned_peak = benchmark.pedantic(lambda: peak_bytes(True), rounds=1, iterations=1)

    reduction = 1 - interned_peak / uninterned_peak
    benchmark.extra_info["uninterned_peak_mb"] = round(uninterned_peak / 1e6, 2)
    benchmark.extra_info["interned_peak_mb"] = round(interned_peak / 1e6, 2)
    benchmark.extra_info["peak_reduction"] = round(reduction, 3)
    assert reduction >= 0.30, (
        f"interned peak {interned_peak} vs uninterned {uninterned_peak} "
        f"({reduction:.1%} reduction; expected ≥30%)"
    )


def test_interned_sequences_identical_on_and_off(rib_replay_specs):
    """The acceptance cross-check: interning on and off emit the same elem
    sequence through a private pool (no timing, pure equivalence)."""
    reference = None
    for interning in (True, False):
        reset_default_pool()
        with parse_interning(interning):
            record_lists = [list(DumpFileReader(spec)) for spec in rib_replay_specs]
            lines = _elem_lines(record_lists, InternPool() if interning else None)
        if reference is None:
            reference = lines
        assert lines == reference
    assert reference
