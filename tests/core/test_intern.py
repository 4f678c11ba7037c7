"""Unit tests for the flyweight intern pool (repro.core.intern)."""

from __future__ import annotations

import threading

import pytest

from repro.bgp.aspath import ASPath, ASPathSegment, SegmentType
from repro.bgp.community import Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.core.intern import InternPool, default_pool, reset_default_pool


class TestInternPoolBasics:
    def test_dedups_equal_values(self):
        pool = InternPool()
        a = ASPath.from_asns([701, 3356])
        b = ASPath.from_asns([701, 3356])
        assert a is not b
        assert pool.path(a) is a  # first sight: a becomes canonical
        assert pool.path(b) is a  # equal value: canonical returned

    def test_distinct_values_stay_distinct(self):
        pool = InternPool()
        a = pool.path(ASPath.from_asns([701, 3356]))
        b = pool.path(ASPath.from_asns([701, 3356, 15169]))
        assert a is not b and a != b

    def test_string_and_generic_kinds(self):
        pool = InternPool()
        t1 = pool.intern("custom-kind", (1, 2))
        assert pool.intern("custom-kind", (1, 2)) is t1
        assert pool.stats()["custom-kind"]["size"] == 1

    def test_path_interning_shares_segments(self):
        pool = InternPool()
        seg = ASPathSegment(SegmentType.AS_SET, (64512, 64513))
        p1 = pool.path(ASPath((ASPathSegment(SegmentType.AS_SEQUENCE, (701,)), seg)))
        p2 = pool.path(
            ASPath(
                (
                    ASPathSegment(SegmentType.AS_SEQUENCE, (3356,)),
                    ASPathSegment(SegmentType.AS_SET, (64512, 64513)),
                )
            )
        )
        assert p1 is not p2
        # The shared AS_SET segment is one object across both canonical paths.
        assert p1.segments[1] is p2.segments[1]

    def test_path_interning_identity_hit(self):
        pool = InternPool()
        path = pool.path(ASPath.from_asns([701, 3356, 15169]))
        assert pool.path(ASPath.from_asns([701, 3356, 15169])) is path
        assert pool.path(path) is path

    def test_communities_interning_shares_members(self):
        pool = InternPool()
        c1 = pool.communities(CommunitySet.from_pairs([(65535, 666), (3356, 1)]))
        c2 = pool.communities(CommunitySet.from_pairs([(65535, 666)]))
        assert pool.communities(CommunitySet.from_pairs([(65535, 666), (3356, 1)])) is c1
        # The member Community objects were interned too.
        member = next(iter(c2))
        assert pool.intern("community", Community(65535, 666)) is member

    def test_interned_equality_and_hash_semantics_preserved(self):
        pool = InternPool()
        raw = ASPath.from_asns([1, 2, 3])
        canonical = pool.path(ASPath.from_asns([1, 2, 3]))
        assert canonical == raw
        assert hash(canonical) == hash(raw)
        assert str(canonical) == str(raw)

    def test_flyweight_values_are_immutable(self):
        """Canonical objects are shared process-wide; mutation must raise
        (it would silently corrupt every holder and stale the cached hash)."""
        prefix = Prefix.from_string("10.0.0.0/8")
        path = ASPath.from_asns([701, 3356])
        communities = CommunitySet.from_pairs([(65535, 666)])
        community = Community(65535, 666)
        segment = path.segments[0]
        for obj, attr, value in [
            (prefix, "network", None),
            (path, "segments", ()),
            (segment, "asns", ()),
            (communities, "_communities", frozenset()),
            (community, "asn", 1),
            (prefix, "_hash", 0),
        ]:
            with pytest.raises(AttributeError):
                setattr(obj, attr, value)
            with pytest.raises(AttributeError):
                delattr(obj, attr)


class TestInternPoolBounds:
    def test_overflow_passes_values_through(self):
        pool = InternPool(max_entries=2)
        a = pool.intern("string", "a")
        b = pool.intern("string", "b")
        c = "c" * 2  # distinct object, pool full
        assert pool.intern("string", c) is c  # uninterned pass-through
        # existing still hit
        assert pool.intern("string", "a") is a and pool.intern("string", "b") is b
        stats = pool.stats()["string"]
        assert stats["size"] == 2
        assert stats["overflow"] >= 1

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            InternPool(max_entries=0)

    def test_stats_and_hit_rate(self):
        pool = InternPool()
        assert pool.hit_rate == 0.0
        pool.intern("string", "x")
        pool.intern("string", "x" + "")
        stats = pool.stats()["string"]
        assert stats == {"size": 1, "hits": 1, "misses": 1, "overflow": 0}
        assert 0.0 < pool.hit_rate <= 1.0
        assert "hit_rate" in repr(pool) or "entries" in repr(pool)

    def test_clear(self):
        pool = InternPool()
        pool.intern("string", "x")
        assert len(pool) == 1
        pool.clear()
        assert len(pool) == 0


class TestInternPoolConcurrencyAndTransport:
    def test_thread_safety_under_contention(self):
        pool = InternPool()
        values = [f"10.{i % 64}.0.0/16" for i in range(2000)]
        errors = []

        def worker():
            try:
                for text in values:
                    canonical = pool.intern("prefix", Prefix.from_string(text))
                    assert str(canonical) == text
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pool.stats()["prefix"]["size"] == 64

    def test_counters_exact_under_concurrent_hammering(self):
        # The gateway runs the pool genuinely multi-threaded (decode thread
        # + executor callbacks) and its decode-once assertions read stats(),
        # so hit/miss/overflow accounting must be exact — not best-effort —
        # under contention, including first-seen kinds and saturated kinds.
        pool = InternPool(max_entries=32)  # tiny cap => overflow path is hot
        n_threads, n_rounds = 8, 400
        values = [f"198.51.{i}.0/24" for i in range(32)]  # exactly the cap
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(seed):
            try:
                barrier.wait()
                for round_no in range(n_rounds):
                    for i, text in enumerate(values):
                        pool.intern("prefix", Prefix.from_string(text))
                        # Brand-new kind registered concurrently from every
                        # thread: the check-then-act window in registration
                        # must never drop a counter or raise.
                        pool.intern("flap", (seed + i + round_no) % 64)
                    if round_no % 50 == seed % 50:
                        pool.stats()  # concurrent reader
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = pool.stats()
        calls = n_threads * n_rounds * len(values)
        for kind in ("prefix", "flap"):
            s = stats[kind]
            assert s["hits"] + s["misses"] + s["overflow"] == calls, kind
        # The 32 prefixes fill their kind to the cap without overflowing;
        # the "flap" kind sees 64 distinct values and saturates at 32.
        assert stats["prefix"]["size"] == len(values)
        assert stats["prefix"]["misses"] == len(values)
        assert stats["prefix"]["overflow"] == 0
        assert stats["flap"]["size"] == 32  # cap respected
        assert stats["flap"]["misses"] == 32
        assert stats["flap"]["overflow"] >= (64 - 32) * n_rounds
        # Canonical identity is stable once inserted.
        first = pool.intern("prefix", Prefix.from_string(values[0]))
        assert pool.intern("prefix", Prefix.from_string(values[0])) is first


class TestProcessDefaults:
    def test_default_pool_is_a_singleton(self):
        reset_default_pool()
        pool = default_pool()
        assert default_pool() is pool
        reset_default_pool()
        assert default_pool() is not pool
