"""Decoded-segment cache: warm broker replay vs cold decode (ISSUE 8).

The broker tier's segment cache persists each dump file's decoded records
as a columnar pickle segment keyed by the file's content signature.
Replaying a multi-collector window from the broker with a
warm cache skips MRT wire decode entirely — the claim benchmarked here is
that the warm replay beats a cold decode of the same window by at least
``SPEEDUP_FLOOR``x while yielding identical record *and* elem sequences.

The workload is the attribute-heavy update shape where wire decode
dominates (long prepended AS paths, large community sets — the same shape
as the lazy-decode benchmark), spread across three collectors so the
replay exercises the broker's multi-collector window merge.  Every elem's
prefix, path and communities are materialised: a replay that never reads
attributes is already served by the lazy tier, and the segment cache's
value is precisely the workloads that read everything.

Equivalence is asserted before any timing: the cold (cache-populating)
pass, the warm (cache-served) pass and an uncached reference replay must
flatten to the same sequence, elems included.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import CommunitySet
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.broker.broker import Broker
from repro.broker.segments import SegmentCache
from repro.collectors.archive import Archive
from repro.core.interfaces import BrokerDataInterface
from repro.core.stream import BGPStream
from repro.mrt.records import BGP4MPMessage
from repro.mrt.writer import write_updates_dump

SPEEDUP_FLOOR = 3.0

#: Three collectors across both projects: one broker window merges them all.
COLLECTORS = (("ris", "rrc0"), ("ris", "rrc1"), ("routeviews", "route-views0"))
UPDATES_PER_COLLECTOR = 1500
PATH_LENGTH = 64
COMMUNITIES_PER_SET = 160
DUMP_START = 1_000


def _heavy_updates(count):
    paths = [
        ASPath.from_asns([65001 + (i * 7 + j) % 3000 for j in range(PATH_LENGTH)])
        for i in range(150)
    ]
    community_sets = [
        CommunitySet.from_pairs(
            [(65000 + (i + j) % 200, j) for j in range(COMMUNITIES_PER_SET)]
        )
        for i in range(80)
    ]
    for i in range(count):
        prefix = Prefix.from_string(f"10.{(i >> 8) % 250}.{i % 250}.0/24")
        attributes = PathAttributes(
            origin=0,
            as_path=paths[i % len(paths)],
            next_hop=f"192.0.2.{i % 200 + 1}",
            communities=community_sets[i % len(community_sets)],
            med=5,
            local_pref=100,
            aggregator=(65010, "10.0.0.99"),
        )
        update = BGPUpdate(withdrawn=(), attributes=attributes, announced=(prefix,))
        yield (
            DUMP_START + i,
            BGP4MPMessage(65001, 64999, "192.0.2.1", "192.0.2.2", update),
        )


@pytest.fixture(scope="module")
def heavy_archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("broker-cache-archive")
    archive = Archive(str(root / "archive"))
    for project, collector in COLLECTORS:
        dump = str(root / f"{collector}.updates.mrt.gz")
        write_updates_dump(dump, _heavy_updates(UPDATES_PER_COLLECTOR))
        archive.publish(
            project, collector, "updates", DUMP_START,
            UPDATES_PER_COLLECTOR, dump, available_at=1,
        )
    return archive


def _stream(archive, segment_cache):
    stream = BGPStream(
        data_interface=BrokerDataInterface(Broker(archives=[archive])),
        segment_cache=segment_cache,
    )
    stream.add_interval_filter(DUMP_START, DUMP_START + UPDATES_PER_COLLECTOR + 10)
    return stream


def _replay_flat(archive, segment_cache=None):
    """Full replay rendering every elem to comparable values — the
    equivalence probe (untimed; rendering costs the same on every path)."""
    flat = []
    for record in _stream(archive, segment_cache).records():
        elems = tuple(
            (e.elem_type, e.time, str(e.prefix) if e.prefix else None,
             str(e.as_path) if e.as_path else None,
             len(e.communities) if e.communities else 0, e.peer_asn)
            for e in record.elems()
        )
        flat.append(
            (record.time, record.project, record.collector, record.dump_type,
             record.status, record.dump_position, elems)
        )
    return flat


def _replay_timed(archive, segment_cache=None):
    """The timed workload: touch every elem's prefix, path and communities
    (forcing the lazy tier to materialise them on the decode path) without
    the string rendering both paths would pay identically."""
    count = 0
    for record in _stream(archive, segment_cache).records():
        for elem in record.elems():
            if (elem.prefix, elem.as_path, elem.communities, elem.peer_asn):
                count += 1
    return count


def test_warm_segment_cache_beats_cold_decode(benchmark, tmp_path_factory, heavy_archive):
    cache = SegmentCache(str(tmp_path_factory.mktemp("segment-cache")))

    # Equivalence first: uncached reference, the cache-populating pass, and
    # one warm pass must render to the same record/elem sequence.
    reference = _replay_flat(heavy_archive)
    assert reference, "archive must produce records"

    populating = _replay_flat(heavy_archive, segment_cache=cache)
    assert populating == reference, "cache-populating pass diverged from cold decode"
    stored = cache.stats()["stores"]
    assert stored == len(COLLECTORS), "every dump file must persist a segment"

    warm = _replay_flat(heavy_archive, segment_cache=cache)
    assert warm == reference, "cache-served pass diverged from cold decode"
    assert cache.stats()["hits"] >= stored
    total_elems = sum(len(elems) for *_rest, elems in reference)
    total_records = len(reference)
    # Drop the flattened sequences before timing: three windows' worth of
    # rendered tuples alive on the heap is pure GC drag for both passes.
    del reference, populating, warm
    gc.collect()

    # Cold decode with no segment cache in play — the decode path a
    # first-ever replay of the window pays.
    start = time.perf_counter()
    assert _replay_timed(heavy_archive) == total_elems
    cold_seconds = time.perf_counter() - start

    # Timed warm replays: every file served from its persisted segment.
    def warm_replay():
        return _replay_timed(heavy_archive, segment_cache=cache)

    assert benchmark.pedantic(warm_replay, rounds=3, iterations=1) == total_elems
    warm_seconds = benchmark.stats.stats.min
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")

    stats = cache.stats()
    benchmark.extra_info["records"] = total_records
    benchmark.extra_info["segments"] = stats["segments"]
    benchmark.extra_info["cache_bytes"] = stats["bytes_used"]
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["warm_seconds"] = round(warm_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm segment-cache replay only {speedup:.2f}x faster than cold decode "
        f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s)"
    )
