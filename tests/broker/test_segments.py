"""Tests for the persistent decoded-segment cache."""

from __future__ import annotations

import os

import pytest

from repro.core import metrics
from repro.broker.broker import Broker
from repro.broker.crawler import ArchiveCrawler
from repro.broker.db import MetadataDB
from repro.broker.segments import SegmentCache
from repro.core.interfaces import BrokerDataInterface, DumpFileSpec
from repro.core.sorter import DumpFileReader
from repro.core.stream import BGPStream


def _specs_for(archive):
    return [
        DumpFileSpec(
            path=e.path,
            project=e.project,
            collector=e.collector,
            dump_type=e.dump_type,
            timestamp=e.timestamp,
            duration=e.duration,
        )
        for e in archive.entries()
    ]


def _flatten(record):
    return (
        record.time,
        record.project,
        record.collector,
        record.dump_type,
        record.status,
        record.dump_position,
        tuple(
            (e.elem_type, e.time, str(e.prefix) if e.prefix else None,
             str(e.as_path) if e.as_path else None, e.peer_asn)
            for e in record.elems()
        ),
    )


class TestRoundtrip:
    def test_cached_records_identical_to_decoded(self, tmp_path, broker_archive):
        cache = SegmentCache(str(tmp_path / "cache"))
        spec = _specs_for(broker_archive)[0]
        cold = [_flatten(r) for r in DumpFileReader(spec, segment_cache=cache)]
        assert cache.stats()["stores"] == 1
        warm = [_flatten(r) for r in DumpFileReader(spec, segment_cache=cache)]
        assert cache.stats()["hits"] == 1
        plain = [_flatten(r) for r in DumpFileReader(spec)]
        assert cold == warm == plain

    def test_all_files_roundtrip(self, tmp_path, broker_archive):
        cache = SegmentCache(str(tmp_path / "cache"))
        for spec in _specs_for(broker_archive):
            cold = [_flatten(r) for r in DumpFileReader(spec, segment_cache=cache)]
            warm = [_flatten(r) for r in DumpFileReader(spec, segment_cache=cache)]
            assert cold == warm

    def test_abandoned_iteration_not_stored(self, tmp_path, broker_archive):
        cache = SegmentCache(str(tmp_path / "cache"))
        spec = _specs_for(broker_archive)[0]
        iterator = iter(DumpFileReader(spec, segment_cache=cache))
        next(iterator)
        iterator.close()
        assert cache.stats()["stores"] == 0


class TestInvalidation:
    def test_changed_file_misses(self, tmp_path, broker_archive):
        cache = SegmentCache(str(tmp_path / "cache"))
        spec = _specs_for(broker_archive)[0]
        source = str(tmp_path / "copy.mrt.gz")
        with open(spec.path, "rb") as src, open(source, "wb") as dst:
            dst.write(src.read())
        local = DumpFileSpec(source, spec.project, spec.collector,
                             spec.dump_type, spec.timestamp, spec.duration)
        list(DumpFileReader(local, segment_cache=cache))
        assert cache.stats()["stores"] == 1
        # Rewrite the file: the stale segment must not be served.
        with open(source, "ab") as handle:
            handle.write(b"\x00" * 16)
        os.utime(source, ns=(1, 1))
        list(DumpFileReader(local, segment_cache=cache))
        assert cache.stats()["hits"] == 0

    def test_corrupt_segment_file_is_a_miss(self, tmp_path, broker_archive):
        cache = SegmentCache(str(tmp_path / "cache"))
        spec = _specs_for(broker_archive)[0]
        baseline = [_flatten(r) for r in DumpFileReader(spec, segment_cache=cache)]
        (filename,) = [
            f for f in os.listdir(cache.root) if f.endswith(".seg")
        ]
        with open(os.path.join(cache.root, filename), "wb") as handle:
            handle.write(b"torn write garbage")
        recovered = [_flatten(r) for r in DumpFileReader(spec, segment_cache=cache)]
        assert recovered == baseline
        assert cache.stats()["hits"] == 0
        # The bad segment was dropped and re-stored by the recovery read.
        assert cache.stats()["stores"] == 2

    def test_corrupt_segment_is_quarantined_and_counted(self, tmp_path, broker_archive):
        cache = SegmentCache(str(tmp_path / "cache"))
        spec = _specs_for(broker_archive)[0]
        list(DumpFileReader(spec, segment_cache=cache))
        (filename,) = [f for f in os.listdir(cache.root) if f.endswith(".seg")]
        with open(os.path.join(cache.root, filename), "wb") as handle:
            handle.write(b"torn write garbage")
        metrics.enable()
        metrics.reset_decode_counts()
        try:
            list(DumpFileReader(spec, segment_cache=cache))
            # The torn file is preserved for forensics, not deleted ...
            assert os.path.exists(os.path.join(cache.root, filename + ".corrupt"))
            assert not os.path.exists(os.path.join(cache.root, filename + ".corrupt.seg"))
            # ... its manifest row is gone, and the event is counted.
            assert cache.corrupt == 1
            assert cache.stats()["corrupt"] == 1
            assert metrics.decode_counts()["segment_corrupt"] == 1
            assert "segment files corrupt:    1" in metrics.decode_summary_lines()
        finally:
            metrics.disable()

    def test_segment_of_another_layout_is_a_plain_miss(
        self, tmp_path, broker_archive, monkeypatch
    ):
        """The layout version is part of the key: a segment written under
        another ``SEGMENT_VERSION`` is never opened — a miss and a re-store,
        not a quarantine."""
        from repro.broker import segments

        cache = SegmentCache(str(tmp_path / "cache"))
        spec = _specs_for(broker_archive)[0]
        monkeypatch.setattr(segments, "SEGMENT_VERSION", segments.SEGMENT_VERSION - 1)
        baseline = [_flatten(r) for r in DumpFileReader(spec, segment_cache=cache)]
        monkeypatch.undo()
        replayed = [_flatten(r) for r in DumpFileReader(spec, segment_cache=cache)]
        assert replayed == baseline
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (0, 2, 2)
        assert stats["corrupt"] == 0
        assert not [f for f in os.listdir(cache.root) if f.endswith(".corrupt")]
        assert [_flatten(r) for r in DumpFileReader(spec, segment_cache=cache)] == baseline
        assert cache.stats()["hits"] == 1

    def test_missing_source_file_never_stored(self, tmp_path):
        cache = SegmentCache(str(tmp_path / "cache"))
        ghost = DumpFileSpec(str(tmp_path / "missing.mrt.gz"),
                             "ris", "rrc0", "updates", 0, 300)
        records = list(DumpFileReader(ghost, segment_cache=cache))
        assert len(records) == 1  # the CORRUPTED_SOURCE marker record
        assert cache.stats()["stores"] == 0


class TestEviction:
    def test_lru_eviction_respects_budget(self, tmp_path, broker_archive):
        specs = _specs_for(broker_archive)
        big = SegmentCache(str(tmp_path / "big"))
        sizes = []
        for spec in specs:
            list(DumpFileReader(spec, segment_cache=big))
        total = big.stats()["bytes_used"]
        assert total > 0
        # A cache half that size must evict but stay within budget.
        small = SegmentCache(str(tmp_path / "small"), max_bytes=max(total // 2, 1))
        for spec in specs:
            list(DumpFileReader(spec, segment_cache=small))
        stats = small.stats()
        assert stats["bytes_used"] <= small.max_bytes
        assert stats["evictions"] > 0
        assert stats["segments"] >= 1  # the newest segment always survives

    def test_clear_removes_everything(self, tmp_path, broker_archive):
        cache = SegmentCache(str(tmp_path / "cache"))
        for spec in _specs_for(broker_archive)[:2]:
            list(DumpFileReader(spec, segment_cache=cache))
        cache.clear()
        stats = cache.stats()
        assert stats["segments"] == 0 and stats["bytes_used"] == 0
        assert not [f for f in os.listdir(cache.root) if f.endswith(".seg")]

    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentCache(str(tmp_path / "cache"), max_bytes=0)


class TestProcessBoundaries:
    def test_caches_are_shared_by_path(self, tmp_path, broker_archive):
        """Two independently constructed caches on one directory (as two
        processes would open them): the second hits what the first stored."""
        root = str(tmp_path / "cache")
        spec = _specs_for(broker_archive)[0]
        list(DumpFileReader(spec, segment_cache=SegmentCache(root)))
        second = SegmentCache(root)
        assert [_flatten(r) for r in DumpFileReader(spec, segment_cache=second)] == [
            _flatten(r) for r in DumpFileReader(spec)
        ]
        assert second.hits == 1 and second.misses == 0


class TestProfilingCounters:
    def test_decode_stats_surface_hits_and_misses(self, tmp_path, broker_archive):
        cache = SegmentCache(str(tmp_path / "cache"))
        spec = _specs_for(broker_archive)[0]
        metrics.enable()
        metrics.reset_decode_counts()
        try:
            list(DumpFileReader(spec, segment_cache=cache))
            counts = metrics.decode_counts()
            assert (counts["segment_misses"], counts["segment_hits"]) == (1, 0)
            list(DumpFileReader(spec, segment_cache=cache))
            assert metrics.decode_counts()["segment_hits"] == 1
            assert "segment cache hits:       1" in metrics.decode_summary_lines()
        finally:
            metrics.disable()


class TestResumeWithoutRedecode:
    def test_interrupted_crawl_and_replay_redecodes_nothing_cached(
        self, tmp_path, broker_archive, broker_scenario
    ):
        """The PR's end-to-end acceptance path: an interrupted incremental
        crawl loses no files, and the resumed replay re-decodes nothing the
        segment cache already holds."""
        db_path = str(tmp_path / "broker.db")
        cache = SegmentCache(str(tmp_path / "segments"))
        start, end = broker_scenario.start, broker_scenario.end

        # --- first run: killed after one committed crawl batch ------------
        db = MetadataDB(db_path)
        real_apply = db.apply_crawl_batch
        commits = {"n": 0}

        def dying_apply(*args, **kwargs):
            if commits["n"] >= 1:
                raise RuntimeError("killed")
            commits["n"] += 1
            return real_apply(*args, **kwargs)

        db.apply_crawl_batch = dying_apply
        crawler = ArchiveCrawler(db, [broker_archive], batch_size=3)
        with pytest.raises(RuntimeError):
            crawler.crawl()
        db.apply_crawl_batch = real_apply

        # Replay (and cache) what the partial index already knows about.
        broker = Broker(db=db)
        partial = BGPStream(data_interface=BrokerDataInterface(broker), segment_cache=cache)
        partial.add_interval_filter(start, end)
        partial_records = sum(1 for _ in partial.records())
        assert partial_records > 0
        stored_before = cache.stats()["stores"]
        assert stored_before == db.count() == 3
        db.close()

        # --- restart: resume the crawl, replay the full window ------------
        db2 = MetadataDB(db_path)
        crawler2 = ArchiveCrawler(db2, [broker_archive], batch_size=3)
        crawler2.crawl()
        assert db2.count() == len(broker_archive.entries())  # nothing lost

        broker2 = Broker(db=db2)
        full = BGPStream(data_interface=BrokerDataInterface(broker2), segment_cache=cache)
        full.add_interval_filter(start, end)
        full_count = sum(1 for _ in full.records())
        assert full_count >= partial_records

        stats = cache.stats()
        # Every file cached before the kill replayed from its segment...
        assert stats["hits"] >= stored_before
        # ...and only the files the resumed crawl added were decoded anew.
        assert stats["stores"] == db2.count()
        baseline = BGPStream(data_interface=BrokerDataInterface(Broker(db=db2)))
        baseline.add_interval_filter(start, end)
        assert full_count == sum(1 for _ in baseline.records())
