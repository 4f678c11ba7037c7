"""Generating a sorted stream of records from many dump files (§3.3.4).

Collectors write records within one dump file in non-decreasing timestamp
order, but a stream usually spans many files with overlapping time intervals
(several collectors; RIBs and Updates together).  libBGPStream therefore:

1. splits the current dump-file set into disjoint subsets of files with
   (transitively) overlapping time intervals — so the expensive multi-way
   merge only ever sees the files that actually need merging; and
2. applies a multi-way merge to each subset, repeatedly extracting the
   record with the oldest timestamp among the open files.

:class:`DumpFileReader` adapts one MRT dump file into an iterator of
annotated :class:`~repro.core.record.BGPStreamRecord` objects (marking dump
start/end and signalling unreadable or corrupted dumps through the record
status), and :class:`SortedRecordMerger` implements the grouping + merge.
"""

from __future__ import annotations

import heapq
import time
from itertools import count
from typing import Iterator, List, Optional, Sequence

from repro.core import metrics
from repro.core.interfaces import DumpFileSpec
from repro.core.record import BGPStreamRecord, DumpPosition, RecordStatus
from repro.mrt.parser import MRTDumpReader, MRTParseError, file_signature
from repro.mrt.records import PeerIndexTable
from repro.utils.intervals import TimeInterval, group_overlapping


class DumpFileReader:
    """Iterate one dump file as annotated BGPStream records.

    * A file that cannot be opened yields exactly one record with
      ``CORRUPTED_SOURCE`` status.
    * An empty file yields one record with ``EMPTY_SOURCE`` status.
    * A corrupted record (or truncated tail) yields a record with
      ``CORRUPTED_RECORD`` status, and reading stops after it.
    * The first and last records of a readable dump are marked with the
      START / END dump positions so users can collate whole RIB dumps.

    ``segment_cache`` is an optional persistent decoded-segment cache
    (:class:`repro.broker.segments.SegmentCache`): a hit replays the file's
    annotated records without touching the MRT wire bytes; a miss reads
    normally and — if the iteration completes and the file is unchanged —
    stores the decoded segment for the next run.
    """

    def __init__(self, spec: DumpFileSpec, segment_cache=None) -> None:
        self.spec = spec
        self.segment_cache = segment_cache

    def __iter__(self) -> Iterator[BGPStreamRecord]:
        cache = self.segment_cache
        if cache is None:
            yield from self._timed_read()
            return
        signature = file_signature(self.spec.path)
        cached = cache.load(self.spec)
        if cached is not None:
            yield from cached
            return
        records: List[BGPStreamRecord] = []
        for record in self._timed_read():
            records.append(record)
            yield record
        # Store only complete, consistent reads: an abandoned iteration never
        # reaches this point, and a file replaced mid-read fails the
        # signature check.
        if signature is not None and signature == file_signature(self.spec.path):
            cache.store(self.spec, records, signature=signature)

    def _timed_read(self) -> Iterator[BGPStreamRecord]:
        """Iterate :meth:`_read`, feeding the per-file ``decode`` span.

        The span accumulates only the time spent *inside* the generator
        (one ``perf_counter`` pair per record pull) so consumer time does
        not pollute the decode-stage latency; one observation lands in
        ``repro_stage_latency_seconds{stage="decode"}`` per dump file.
        Disabled metrics take the plain path — zero added work.
        """
        if not metrics.enabled:
            yield from self._read()
            return
        inner = self._read()
        perf_counter = time.perf_counter
        spent = 0.0
        while True:
            started = perf_counter()
            try:
                record = next(inner)
            except StopIteration:
                spent += perf_counter() - started
                metrics.stage_latency.labels("decode").observe(spent)
                return
            spent += perf_counter() - started
            yield record

    def _read(self) -> Iterator[BGPStreamRecord]:
        spec = self.spec
        try:
            reader = MRTDumpReader(spec.path)
            reader.open()
        except MRTParseError:
            yield BGPStreamRecord(
                project=spec.project,
                collector=spec.collector,
                dump_type=spec.dump_type,
                dump_time=spec.timestamp,
                status=RecordStatus.CORRUPTED_SOURCE,
            )
            return

        peer_table: Optional[PeerIndexTable] = None
        previous: Optional[BGPStreamRecord] = None
        emitted_any = False
        try:
            for mrt in reader:
                if isinstance(mrt.body, PeerIndexTable):
                    peer_table = mrt.body
                status = (
                    RecordStatus.VALID if mrt.is_valid else RecordStatus.CORRUPTED_RECORD
                )
                record = BGPStreamRecord(
                    project=spec.project,
                    collector=spec.collector,
                    dump_type=spec.dump_type,
                    dump_time=spec.timestamp,
                    status=status,
                    dump_position=DumpPosition.MIDDLE,
                    mrt=mrt,
                    peer_table=peer_table,
                )
                if previous is None:
                    record.dump_position = DumpPosition.START
                else:
                    yield previous
                previous = record
                emitted_any = True
        finally:
            reader.close()

        if previous is not None:
            # A single-record dump is both start and end; END is the more
            # useful marker for collation, so it wins.
            previous.dump_position = DumpPosition.END
            yield previous
        if not emitted_any:
            yield BGPStreamRecord(
                project=spec.project,
                collector=spec.collector,
                dump_type=spec.dump_type,
                dump_time=spec.timestamp,
                status=RecordStatus.EMPTY_SOURCE,
            )


class SortedRecordMerger:
    """Group a dump-file set by overlapping intervals and merge each group.

    ``segment_cache`` forwards an optional persistent decoded-segment cache
    to every :class:`DumpFileReader` it opens.
    """

    def __init__(self, specs: Sequence[DumpFileSpec], segment_cache=None) -> None:
        self.specs = list(specs)
        self.segment_cache = segment_cache

    # -- grouping ------------------------------------------------------------

    def subsets(self) -> List[List[DumpFileSpec]]:
        """The disjoint subsets of files with overlapping time intervals.

        Files within a subset must be merged record-by-record; distinct
        subsets can simply be read one after the other.
        """
        if not self.specs:
            return []
        ordered = sorted(self.specs, key=lambda s: (s.timestamp, s.interval_end, s.path))
        # A dump covering [t, t+duration) holds records strictly before
        # t+duration, so two back-to-back dumps do not need merging; model
        # the file interval as closed on [t, t+duration-1].
        intervals = [
            TimeInterval(s.timestamp, max(s.timestamp, s.interval_end - 1)) for s in ordered
        ]
        return group_overlapping(ordered, intervals)

    # -- merging ----------------------------------------------------------------

    def __iter__(self) -> Iterator[BGPStreamRecord]:
        for subset in self.subsets():
            yield from self._merge_subset(subset)

    def _merge_subset(self, subset: Sequence[DumpFileSpec]) -> Iterator[BGPStreamRecord]:
        """Multi-way merge of the (already time-ordered) files of one subset."""
        if len(subset) == 1:
            yield from DumpFileReader(subset[0], segment_cache=self.segment_cache)
            return
        yield from merge_record_iterators(
            [iter(DumpFileReader(spec, segment_cache=self.segment_cache)) for spec in subset]
        )

    # -- introspection (used by benchmarks) ---------------------------------------

    def subset_sizes(self) -> List[int]:
        return [len(subset) for subset in self.subsets()]


def merge_record_iterators(
    iterators: Sequence[Iterator[BGPStreamRecord]],
) -> Iterator[BGPStreamRecord]:
    """Multi-way merge of per-file record iterators, oldest timestamp first.

    Repeatedly extracts the record with the oldest timestamp among the
    iterator heads (§3.3.4).  Equal timestamps resolve by iterator position
    and then by a monotonic sequence counter, so the merged order is stable
    and reproducible across runs.
    """
    sequence = count()
    heap: List[tuple] = []
    for index, iterator in enumerate(iterators):
        record = next(iterator, None)
        if record is not None:
            heap.append((record.time, index, next(sequence), record))
    heapq.heapify(heap)
    while heap:
        _, index, _, record = heapq.heappop(heap)
        yield record
        nxt = next(iterators[index], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt.time, index, next(sequence), nxt))
