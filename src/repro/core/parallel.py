"""Parallel, batched stream engine.

The paper dimensions libBGPStream for many collectors' worth of overlapping
dump files (§3.3.3–§3.3.4): the expensive part of producing a sorted stream
is *parsing* the dumps, not merging them.  The sequential sorter interleaves
the two — every heap pop resumes a parser generator.  This engine decouples
them:

1. each sorter subset's files are parsed **concurrently** in a
   :class:`~concurrent.futures.ProcessPoolExecutor` (the MRT decode is
   CPU-bound, so threads gain nothing under the GIL; with one worker the
   files are parsed in-process and no pool is created);
2. the pre-parsed per-file record lists are multi-way merged with the same
   :func:`~repro.core.sorter.merge_record_iterators` the sequential path
   uses — so both paths emit **identical record sequences**; and
3. records are delivered in timestamp-ordered **batches** (lists), which
   amortises per-record Python overhead across every downstream consumer.

Subsets are prefetched: while one subset's records are being delivered, the
next subsets' files are already parsing in the pool.

The engine degrades gracefully: a worker pool that cannot be created or that
breaks mid-run (sandboxes without ``fork``, unpicklable records, dead
workers) falls back to in-process parsing, never losing or reordering
records.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.core.interfaces import DumpFileSpec
from repro.core.record import BGPStreamRecord
from repro.core.sorter import (
    DEFAULT_BATCH_SIZE,
    DumpFileReader,
    SortedRecordMerger,
    batch_records,
    merge_record_iterators,
)

__all__ = [
    "ParallelConfig",
    "ParallelStreamEngine",
    "read_dump_file",
    "DEFAULT_BATCH_SIZE",
]

#: How many subsets ahead of the one being delivered to keep parsing.
PREFETCH_SUBSETS = 2


def read_dump_file(
    spec: DumpFileSpec,
    intern: Optional[bool] = None,
    segment_cache=None,
) -> List[BGPStreamRecord]:
    """Parse one dump file into a record list (the worker-pool task).

    ``intern`` forwards the parse-time flyweight-interning knob
    (:mod:`repro.core.intern`).  Each process-pool worker interns into its
    own process-wide pool (pools are rebuilt per worker); pickling the
    records back preserves the object sharing *within* each file's list, and
    the consumer-side elem pipeline re-canonicalises across files.

    Records parsed in-process carry zero-copy attribute views into the dump
    buffer; process-pool workers materialise on pickle, so the deferral win
    there is bounded to the worker side.

    ``segment_cache`` is an optional persistent decoded-segment cache
    (:class:`repro.broker.segments.SegmentCache`); it pickles by
    configuration, so process-pool workers reopen the same on-disk cache
    and a hit skips the MRT decode entirely.
    """
    return list(DumpFileReader(spec, intern=intern, segment_cache=segment_cache))


@dataclass(frozen=True)
class ParallelConfig:
    """Tuning knobs for the parallel batched engine.

    ``max_workers`` (default: the CPU count) sizes the process pool.  One
    worker means no pool at all: files are parsed in-process, but the
    stream is still delivered through the batched merge.
    """

    max_workers: Optional[int] = None
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Parse-time flyweight interning in the workers (``None`` follows each
    #: worker process's global switch; ``bgpreader --no-intern`` forces
    #: ``False`` so process-pool workers skip dedup too).
    intern: Optional[bool] = None
    #: Optional persistent decoded-segment cache
    #: (:class:`repro.broker.segments.SegmentCache`): warm replays of a
    #: window unpickle decoded segments instead of re-decoding MRT, in
    #: workers and fallback paths alike.
    segment_cache: Optional[object] = None

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    def resolved_workers(self) -> int:
        if self.max_workers is not None:
            return max(1, self.max_workers)
        return max(1, os.cpu_count() or 1)


class ParallelStreamEngine:
    """Produce the sorted stream of a dump-file set in parallel batches.

    The worker pool is created lazily on first use and reused across
    :meth:`iter_batches` calls (a stream pulls many meta-data windows
    through one engine; paying process startup per window would erase the
    win).  Call :meth:`close` — or use the engine as a context manager —
    to release the pool; a closed engine recreates it on next use.
    """

    def __init__(self, config: Optional[ParallelConfig] = None) -> None:
        self.config = config or ParallelConfig()
        #: Files parsed in-process because the pool failed (introspection).
        self.fallback_files = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_created = False

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the engine stays usable)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._executor_created = False

    def __enter__(self) -> "ParallelStreamEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API --------------------------------------------------------

    def iter_batches(
        self, specs: Sequence[DumpFileSpec], batch_size: Optional[int] = None
    ) -> Iterator[List[BGPStreamRecord]]:
        """Timestamp-ordered batches over the whole dump-file set.

        Flattening the batches yields exactly the record sequence of
        ``iter(SortedRecordMerger(specs))``.
        """
        size = self.config.batch_size if batch_size is None else batch_size
        return batch_records(self.iter_records(specs), size)

    def iter_records(self, specs: Sequence[DumpFileSpec]) -> Iterator[BGPStreamRecord]:
        """Record-at-a-time view of the merged stream."""
        for record_lists in self._parsed_subsets(specs):
            yield from merge_record_iterators([iter(lst) for lst in record_lists])

    # -- internals ---------------------------------------------------------

    def _parsed_subsets(
        self, specs: Sequence[DumpFileSpec]
    ) -> Iterator[List[List[BGPStreamRecord]]]:
        """Yield each subset's per-file record lists, parsing ahead."""
        subsets = SortedRecordMerger(specs).subsets()
        if not subsets:
            return
        executor = self._ensure_executor()
        if executor is None:
            for subset in subsets:
                yield [
                    read_dump_file(spec, self.config.intern, self.config.segment_cache)
                    for spec in subset
                ]
            return
        pending: List[List[Future]] = []
        ahead = PREFETCH_SUBSETS + 1
        for submitted in range(min(ahead, len(subsets))):
            pending.append(self._submit_subset(executor, subsets[submitted]))
        for current in range(len(subsets)):
            futures = pending.pop(0)
            nxt = current + len(pending) + 1
            if nxt < len(subsets):
                pending.append(self._submit_subset(executor, subsets[nxt]))
            yield [
                self._collect(future, spec)
                for future, spec in zip(futures, subsets[current])
            ]

    def _submit_subset(
        self, executor: ProcessPoolExecutor, subset: Sequence[DumpFileSpec]
    ) -> List[Future]:
        futures: List[Future] = []
        for spec in subset:
            try:
                futures.append(
                    executor.submit(
                        read_dump_file, spec, self.config.intern, self.config.segment_cache
                    )
                )
            except RuntimeError:
                # Pool already broken/shut down; park a pre-failed future so
                # _collect falls back to in-process parsing.
                failed: Future = Future()
                failed.set_exception(RuntimeError("worker pool unavailable"))
                futures.append(failed)
        return futures

    def _collect(self, future: Future, spec: DumpFileSpec) -> List[BGPStreamRecord]:
        try:
            return future.result()
        except Exception:
            # Broken pool, unpicklable payload, or a worker killed mid-task:
            # parse the file in the delivering process instead.
            self.fallback_files += 1
            return read_dump_file(spec, self.config.intern, self.config.segment_cache)

    def _ensure_executor(self) -> Optional[ProcessPoolExecutor]:
        """The process pool, or None to parse in-process (one worker, or a
        platform where the pool cannot be created)."""
        if not self._executor_created:
            self._executor_created = True
            workers = self.config.resolved_workers()
            if workers > 1:
                try:
                    self._executor = ProcessPoolExecutor(max_workers=workers)
                except (OSError, ValueError, ImportError):
                    pass
        return self._executor
