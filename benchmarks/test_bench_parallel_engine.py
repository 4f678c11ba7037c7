"""Parallel batched stream engine vs the sequential sorter (§3.3.3–§3.3.4).

The multi-collector event scenario (RIS + RouteViews style dumps with
overlapping intervals) is processed two ways:

* the **sequential sorter** — the paper-faithful reference path: stream each
  dump through the parser and multi-way merge the generator heads; and
* the **parallel batched engine** — per-subset fan-out of file parsing
  (in-process with one worker, a process pool otherwise), record delivery
  in timestamp-ordered batches.

The engine must emit the *identical* record sequence (same order, same
statuses), cold and on a repeated pass.  Cold wall-clock of both paths is
reported in ``extra_info`` and not gated: on a single-core box the engine
is at or below par (whole files are materialised before the merge, and the
pool pays pickling), which is what the ledger's ``core.parallel.speedup_x``
records in absolute terms.
"""

from __future__ import annotations

import time

from repro.broker.broker import Broker, BrokerQuery
from repro.core.interfaces import DumpFileSpec
from repro.core.parallel import ParallelConfig, ParallelStreamEngine
from repro.core.sorter import SortedRecordMerger
from repro.mrt import parser as mrt_parser


def _all_specs(event_archive, event_scenario):
    broker = Broker(archives=[event_archive])
    response = broker.get_window(
        BrokerQuery(interval_start=event_scenario.start, interval_end=event_scenario.end),
    )
    return [
        DumpFileSpec(
            path=f.path,
            project=f.project,
            collector=f.collector,
            dump_type=f.dump_type,
            timestamp=f.timestamp,
            duration=f.duration,
        )
        for f in response.files
    ]


def _record_key(record):
    return (record.time, record.project, record.collector, record.dump_type,
            str(record.status), str(record.dump_position))


def test_parallel_engine_emits_identical_record_sequence(event_archive, event_scenario):
    """Acceptance: both paths agree record-for-record on the shared fixtures."""
    specs = _all_specs(event_archive, event_scenario)
    reference = [_record_key(r) for r in SortedRecordMerger(specs)]
    assert reference, "scenario must produce records"
    for workers in (1, 2):
        with ParallelStreamEngine(ParallelConfig(max_workers=workers, batch_size=512)) as engine:
            mrt_parser.clear_index_cache()
            first = [_record_key(r) for b in engine.iter_batches(specs) for r in b]
            assert first == reference, f"{workers} worker(s): cold engine pass diverged"
            again = [_record_key(r) for b in engine.iter_batches(specs) for r in b]
            assert again == reference, f"{workers} worker(s): repeated engine pass diverged"
            assert engine.fallback_files == 0


def test_parallel_engine_cold_pass(benchmark, event_archive, event_scenario):
    """A cold in-process engine pass, timed next to the cold sequential sorter."""
    specs = _all_specs(event_archive, event_scenario)
    engine = ParallelStreamEngine(ParallelConfig(max_workers=1, batch_size=2048))

    mrt_parser.clear_index_cache()
    start = time.perf_counter()
    sequential_count = sum(1 for _ in SortedRecordMerger(specs))
    sequential_cold = time.perf_counter() - start

    def engine_read():
        return sum(len(batch) for batch in engine.iter_batches(specs))

    counts = benchmark.pedantic(
        engine_read, setup=mrt_parser.clear_index_cache, rounds=3, iterations=1
    )
    assert counts == sequential_count

    benchmark.extra_info["records"] = sequential_count
    benchmark.extra_info["sequential_cold_seconds"] = round(sequential_cold, 4)
    benchmark.extra_info["engine_cold_seconds"] = round(benchmark.stats.stats.min, 4)
