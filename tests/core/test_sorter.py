"""Tests for dump-file reading, subset grouping and the multi-way merge."""

from __future__ import annotations

import csv
import gc
import os
import random
import tracemalloc
from collections import Counter

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.message import BGPUpdate
from repro.bgp.prefix import Prefix
from repro.core.interfaces import CSVFileDataInterface, DumpFileSpec
from repro.core.record import DumpPosition, RecordStatus
from repro.core.sorter import DumpFileReader, SortedRecordMerger
from repro.core.stream import BGPStream
from repro.mrt.parser import MRTDumpReader
from repro.mrt.records import BGP4MPMessage
from repro.mrt.writer import corrupt_file, write_updates_dump


def _write_updates(path, timestamps, peer_asn=64500):
    prefix = Prefix.from_string("192.0.2.0/24")
    attrs = PathAttributes(as_path=ASPath.from_asns([peer_asn, 15169]), next_hop="10.0.0.1")
    messages = [
        (
            ts,
            BGP4MPMessage(
                peer_asn, 65000, "10.0.0.1", "10.0.0.2",
                BGPUpdate(announced=[prefix], attributes=attrs),
            ),
        )
        for ts in timestamps
    ]
    write_updates_dump(path, messages)


def _spec(path, timestamp, duration=300, collector="rrc0", project="ris", dump_type="updates"):
    return DumpFileSpec(
        path=path,
        project=project,
        collector=collector,
        dump_type=dump_type,
        timestamp=timestamp,
        duration=duration,
    )


class TestDumpFileReader:
    def test_positions_and_annotations(self, tmp_path):
        path = str(tmp_path / "u.mrt")
        _write_updates(path, [100, 110, 120])
        records = list(DumpFileReader(_spec(path, 100)))
        assert [r.dump_position for r in records] == [
            DumpPosition.START,
            DumpPosition.MIDDLE,
            DumpPosition.END,
        ]
        assert all(r.project == "ris" and r.collector == "rrc0" for r in records)
        assert all(r.dump_type == "updates" for r in records)
        assert all(r.status == RecordStatus.VALID for r in records)

    def test_missing_file_yields_corrupted_source(self, tmp_path):
        records = list(DumpFileReader(_spec(str(tmp_path / "missing.mrt"), 0)))
        assert len(records) == 1
        assert records[0].status == RecordStatus.CORRUPTED_SOURCE
        assert records[0].time == 0  # falls back to the dump time
        assert list(records[0].elems()) == []

    def test_empty_file_yields_empty_source(self, tmp_path):
        path = str(tmp_path / "empty.mrt")
        write_updates_dump(path, [])
        records = list(DumpFileReader(_spec(path, 50)))
        assert len(records) == 1
        assert records[0].status == RecordStatus.EMPTY_SOURCE

    def test_truncated_file_yields_corrupted_record(self, tmp_path):
        path = str(tmp_path / "u.mrt")
        _write_updates(path, [100, 110, 120])
        corrupt_file(path, truncate_at=os.path.getsize(path) - 5)
        records = list(DumpFileReader(_spec(path, 100)))
        assert records[0].status == RecordStatus.VALID
        assert records[-1].status == RecordStatus.CORRUPTED_RECORD
        assert records[-1].dump_position == DumpPosition.END

    def test_single_record_dump_marked_end(self, tmp_path):
        path = str(tmp_path / "one.mrt")
        _write_updates(path, [42])
        records = list(DumpFileReader(_spec(path, 42)))
        assert len(records) == 1
        assert records[0].dump_position == DumpPosition.END


class TestSubsetGrouping:
    def test_figure3_style_grouping(self, tmp_path):
        """Files with overlapping intervals merge; disjoint ones do not."""
        # Two "collectors": RIS-style 5-minute files and RV-style 15-minute file,
        # then a later, disjoint file.
        layout = [
            (0, 300), (300, 300), (600, 300),   # rrc0 updates
            (0, 900),                            # route-views updates (overlaps all three)
            (3600, 300),                         # later, disjoint
        ]
        specs = []
        for index, (start, duration) in enumerate(layout):
            path = str(tmp_path / f"f{index}.mrt")
            _write_updates(path, [start + 10, start + duration - 10])
            specs.append(_spec(path, start, duration, collector=f"c{index}"))
        merger = SortedRecordMerger(specs)
        sizes = merger.subset_sizes()
        assert sizes == [4, 1]

    def test_empty_set(self):
        assert SortedRecordMerger([]).subsets() == []
        assert list(SortedRecordMerger([])) == []


class TestMultiWayMerge:
    def test_records_sorted_across_overlapping_files(self, tmp_path):
        specs = []
        expectations = []
        for index, timestamps in enumerate([[0, 60, 300], [30, 90, 250], [10, 200, 290]]):
            path = str(tmp_path / f"m{index}.mrt")
            _write_updates(path, timestamps, peer_asn=64500 + index)
            specs.append(_spec(path, 0, 300, collector=f"c{index}"))
            expectations.extend(timestamps)
        merged = list(SortedRecordMerger(specs))
        times = [r.time for r in merged]
        assert times == sorted(expectations)

    def test_merge_preserves_all_records(self, tmp_path):
        specs = []
        total = 0
        for index in range(5):
            timestamps = list(range(index, 100 + index, 7))
            path = str(tmp_path / f"n{index}.mrt")
            _write_updates(path, timestamps)
            specs.append(_spec(path, 0, 120, collector=f"c{index}"))
            total += len(timestamps)
        merged = list(SortedRecordMerger(specs))
        assert len(merged) == total

    def test_merge_with_unreadable_file_still_reports_it(self, tmp_path):
        good = str(tmp_path / "good.mrt")
        _write_updates(good, [10, 20])
        specs = [
            _spec(good, 0, 300, collector="good"),
            _spec(str(tmp_path / "missing.mrt"), 0, 300, collector="bad"),
        ]
        merged = list(SortedRecordMerger(specs))
        statuses = [r.status for r in merged]
        assert statuses.count(RecordStatus.CORRUPTED_SOURCE) == 1
        assert statuses.count(RecordStatus.VALID) == 2

    def test_equal_timestamp_merge_order_is_stable(self, tmp_path):
        """Equal-timestamp records resolve by file position, reproducibly."""
        specs = []
        for index in range(4):
            path = str(tmp_path / f"tie{index}.mrt")
            _write_updates(path, [100, 100, 200], peer_asn=64500 + index)
            specs.append(_spec(path, 0, 300, collector=f"c{index}"))
        reference = [(r.time, r.collector) for r in SortedRecordMerger(specs)]
        for _ in range(3):
            assert [(r.time, r.collector) for r in SortedRecordMerger(specs)] == reference
        # Ties resolve by file position: each file's run of equal timestamps
        # drains before the next file's (the head of file i keeps winning the
        # (time, index) tie until its timestamp advances).
        assert reference[:8] == [(100, f"c{i}") for i in range(4) for _ in range(2)]


def _record_key(record):
    """Full identity of a record for order-sensitive comparisons."""
    return (
        record.time,
        record.project,
        record.collector,
        record.dump_type,
        str(record.status),
        str(record.dump_position),
        record.mrt.encode() if record.mrt is not None else None,
    )


def _random_file_set(rng, directory):
    """A random set of overlapping/disjoint dump files; returns (specs, written).

    ``written`` is the multiset of (timestamp, peer_asn) pairs written into
    valid update records across all files.
    """
    specs = []
    written = []
    num_files = rng.randint(2, 8)
    for index in range(num_files):
        start = rng.randrange(0, 2000, 100)
        duration = rng.choice([100, 300, 900])
        count = rng.randint(0, 12)
        peer_asn = 64500 + index
        timestamps = sorted(rng.randint(start, start + duration - 1) for _ in range(count))
        suffix = ".mrt.gz" if rng.random() < 0.25 else ".mrt"
        path = str(directory / f"r{index}{suffix}")
        _write_updates(path, timestamps, peer_asn=peer_asn)
        specs.append(
            _spec(path, start, duration, collector=f"c{index}", project=rng.choice(["ris", "rv"]))
        )
        written.extend((ts, peer_asn) for ts in timestamps)
    return specs, written


class TestMergeProperties:
    """Randomized properties of the sorted merge (§3.3.4)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_merge_is_sorted_and_a_permutation_of_the_inputs(self, tmp_path, seed):
        rng = random.Random(seed)
        specs, written = _random_file_set(rng, tmp_path)
        merged = list(SortedRecordMerger(specs))

        times = [r.time for r in merged]
        assert times == sorted(times), "merged stream must be non-decreasing in time"

        valid = [r for r in merged if r.status == RecordStatus.VALID]
        observed = Counter((r.time, r.mrt.body.peer_asn) for r in valid)
        assert observed == Counter(written), "merge must be a permutation of the inputs"

        # Every record written is accounted for, plus exactly one
        # EMPTY_SOURCE marker per record-less file.
        empty_files = len(specs) - len({asn for _, asn in written})
        empties = sum(1 for r in merged if r.status == RecordStatus.EMPTY_SOURCE)
        assert empties == empty_files
        assert len(merged) == len(written) + empty_files


class TestFlatMemory:
    """A streaming reader holds no more than the open files (§3.3.3–§3.3.4):
    what it retains does not grow with the number of files already read."""

    FILES = 40
    RECORDS_PER_FILE = 200

    @pytest.mark.parametrize("through", ["mrt-reader", "stream"])
    def test_retained_memory_is_flat_in_files_read(self, tmp_path, through):
        paths = []
        for index in range(self.FILES):
            start = index * 1000
            path = str(tmp_path / f"u{index:02d}.mrt.gz")
            _write_updates(path, range(start, start + self.RECORDS_PER_FILE))
            paths.append((start, path))

        if through == "mrt-reader":

            def records():
                for _, path in paths:
                    with MRTDumpReader(path) as reader:
                        yield from reader

        else:
            index_csv = str(tmp_path / "index.csv")
            with open(index_csv, "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle).writerows(
                    ["ris", "rrc0", "updates", start, 1000, path] for start, path in paths
                )
            records = BGPStream(data_interface=CSVFileDataInterface(index_csv)).records

        def retained():
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tenth = self.FILES // 10 * self.RECORDS_PER_FILE
        tracemalloc.start()
        try:
            seen = 0
            for _ in records():  # every record is discarded at once
                seen += 1
                if seen == tenth:
                    after_first_tenth = retained()
            after_last_file = retained()
        finally:
            tracemalloc.stop()
        assert seen == self.FILES * self.RECORDS_PER_FILE
        assert after_last_file <= 1.25 * after_first_tenth, (after_first_tenth, after_last_file)
