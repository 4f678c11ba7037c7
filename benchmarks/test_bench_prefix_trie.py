"""Patricia trie vs linear prefix scans on a large watchlist (§3.1, §6.1).

Before the trie subsystem, every prefix-touching hot path scanned its
watchlist linearly: ``FilterSet.match_elem`` tested each filter prefix with
``Prefix.contains`` and ``PrefixMonitorPlugin`` tested each watched range
with ``Prefix.overlaps`` — O(watchlist) per elem.  The patricia trie
answers the same queries in O(prefix length).

This benchmark reconstructs the pre-change linear idioms verbatim and runs
both against the same ≥1k-prefix watchlist and the same query stream (a
mix of covered, covering and unrelated prefixes).  The trie path must (a)
produce identical match decisions and (b) beat the linear scan.
"""

from __future__ import annotations

import random
import time

from repro.bgp.prefix import Prefix
from repro.bgp.trie import PrefixTrie
from repro.core.filters import FilterSet

WATCHLIST_SIZE = 1500
QUERY_COUNT = 4000


def _watchlist():
    """≥1k watched /24 ranges spread over distinct /16 blocks."""
    rng = random.Random(2016)
    prefixes = set()
    while len(prefixes) < WATCHLIST_SIZE:
        block = rng.randrange(0, 220)
        mid = rng.randrange(0, 256)
        third = rng.randrange(0, 256)
        prefixes.add(Prefix.from_string(f"{block}.{mid}.{third}.0/24"))
    return sorted(prefixes)


def _queries(watchlist):
    """Covered, covering and unrelated query prefixes, shuffled."""
    rng = random.Random(1997)
    queries = []
    for watched in rng.sample(watchlist, QUERY_COUNT // 4):
        queries.append(Prefix.from_address(str(watched.address), 25))  # more specific
    for watched in rng.sample(watchlist, QUERY_COUNT // 4):
        queries.append(Prefix.from_address(str(watched.address), 16))  # less specific
    while len(queries) < QUERY_COUNT:  # mostly-miss traffic
        queries.append(
            Prefix.from_string(f"{rng.randrange(225, 255)}.{rng.randrange(256)}.0.0/20")
        )
    rng.shuffle(queries)
    return queries


def test_trie_overlap_beats_linear_scan(benchmark):
    """The pfxmonitor idiom: any(range.overlaps(prefix)) vs trie.overlaps."""
    watchlist = _watchlist()
    queries = _queries(watchlist)
    trie: PrefixTrie = PrefixTrie((p, None) for p in watchlist)

    def linear_pass():
        # Verbatim pre-change hot path of PrefixMonitorPlugin._watched.
        return [any(r.overlaps(q) for r in watchlist) for q in queries]

    def trie_pass():
        return [trie.overlaps(q) for q in queries]

    # The ~6 s linear reference runs once: the pass that proves identical
    # decisions is also the one timed (the gated ratio is ~300x, so
    # min-of-N on this side buys nothing).
    start = time.perf_counter()
    linear_decisions = linear_pass()
    linear_seconds = time.perf_counter() - start
    assert trie_pass() == linear_decisions
    decisions = benchmark.pedantic(trie_pass, rounds=3, iterations=1)
    trie_seconds = benchmark.stats.stats.min
    assert sum(decisions) > 0 and not all(decisions)

    speedup = linear_seconds / trie_seconds if trie_seconds > 0 else float("inf")
    benchmark.extra_info["watchlist"] = len(watchlist)
    benchmark.extra_info["queries"] = len(queries)
    benchmark.extra_info["linear_seconds"] = round(linear_seconds, 4)
    benchmark.extra_info["trie_seconds"] = round(trie_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert trie_seconds < linear_seconds


def test_trie_filter_matching_beats_linear_scan(benchmark):
    """The FilterSet idiom: any(p.contains(elem.prefix)) vs the trie walk."""
    watchlist = _watchlist()
    queries = _queries(watchlist)
    filters = FilterSet()
    for prefix in watchlist:
        filters.add("prefix", str(prefix))

    def linear_pass():
        # Verbatim pre-change hot path of FilterSet.match_elem.
        return [any(p.contains(q) for p in watchlist) for q in queries]

    def trie_pass():
        return [filters.match_prefix(q) for q in queries]

    start = time.perf_counter()
    linear_decisions = linear_pass()
    linear_seconds = time.perf_counter() - start
    assert trie_pass() == linear_decisions
    benchmark.pedantic(trie_pass, rounds=3, iterations=1)
    trie_seconds = benchmark.stats.stats.min

    benchmark.extra_info["watchlist"] = len(watchlist)
    benchmark.extra_info["queries"] = len(queries)
    benchmark.extra_info["linear_seconds"] = round(linear_seconds, 4)
    benchmark.extra_info["trie_seconds"] = round(trie_seconds, 4)
    benchmark.extra_info["speedup"] = round(linear_seconds / trie_seconds, 2)
    assert trie_seconds < linear_seconds


def test_trie_longest_match_throughput(benchmark):
    """Routing-table-style address lookups against the full watchlist."""
    watchlist = _watchlist()
    trie: PrefixTrie = PrefixTrie((p, str(p)) for p in watchlist)
    rng = random.Random(7)
    addresses = [f"{rng.randrange(0, 255)}.{rng.randrange(256)}.{rng.randrange(256)}.9"
                 for _ in range(QUERY_COUNT)]

    def lookups():
        return sum(1 for a in addresses if trie.lookup(a) is not None)

    hits = benchmark(lookups)
    assert 0 < hits < len(addresses)
    benchmark.extra_info["hit_rate"] = round(hits / len(addresses), 3)
