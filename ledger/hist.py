"""The three historical workloads: the ``bgpreader`` front door over an archive.

Untraced (end-to-end) runs spawn ``python -m repro.core.reader`` as a fresh
child per pass, stdout to a file that is hashed after the clock stops, so
in-process caches are as cold as they are for a user and peak RSS is the
child's own.  Traced runs replay the same job in-process with spans recorded
around each layer's public call, plus isolated passes that split the upstream
span (see ``README.md``, "How to read a trace").
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time
import zlib
from typing import Dict, List, Optional, Tuple

import inputs
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


_MRT_HEADER = struct.Struct("!IHHI")


# ---------------------------------------------------------------------------
# The job each workload runs
# ---------------------------------------------------------------------------


class Job:
    """One workload on one generated archive: CLI arguments + expectations."""

    def __init__(self, workload: str, seed: int, scale: dict, archive: str, manifest: dict):
        hist = scale["hist"]
        self.workload = workload
        self.archive = archive
        self.manifest = manifest
        self.cached = workload == "hist-cache-cold-warm"
        start, end = manifest["start"], manifest["end"]
        self.watched: List[str] = []
        if workload == "hist-updates-full":
            types: Tuple[str, ...] = ("updates",)
        elif workload == "hist-rib-filtered":
            types = ("ribs", "updates")
            self.watched = inputs.choose_watched_prefixes(manifest, seed, hist["watched_prefixes"])
        else:
            types = ("ribs", "updates")
            end = start + hist["cache_window"]
        self.records, elems = inputs.window_counts(manifest, types, end)
        self.total_elems = elems
        self.expected_elems = (
            inputs.watched_elems(manifest, self.watched) if self.watched else elems
        )
        # Dumps are selected by start time and hold records strictly before
        # their end, so "-w start,end-1" is exactly the dumps counted above.
        self.argv = ["--archive", archive, "--window", f"{start},{end - 1}"]
        if types == ("updates",):
            self.argv += ["--type", "updates"]
        for prefix in self.watched:
            self.argv += ["--prefix-more", prefix]

    def cli_argv(self, cache_dir: Optional[str] = None, extra: Tuple[str, ...] = ()) -> List[str]:
        argv = list(self.argv)
        if cache_dir is not None:
            argv += ["--broker-cache", cache_dir]
        return argv + list(extra)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: List[str], out_path: str) -> Tuple[float, float, int]:
    """One fresh ``bgpreader`` process; returns ``(wall_s, peak_rss_mb, exit)``."""
    with open(out_path, "wb") as sink:
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.core.reader"] + argv, stdout=sink, env=_child_env()
        )
        _pid, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, child.returncode


# ---------------------------------------------------------------------------
# Correctness: the output against the writer-side manifest
# ---------------------------------------------------------------------------


def check_output(path: str, job: Job) -> Tuple[int, str, List[str]]:
    """Returns ``(failed_ops, sha256, problems)`` for one output file."""
    digest = hashlib.sha256()
    elems = invalid = disorder = 0
    previous = 0
    with open(path, "rb") as handle:
        for line in handle:
            digest.update(line)
            if line.startswith(b"#"):
                invalid += 1
                continue
            elems += 1
            stamp = int(line.split(b"|", 2)[1])
            if stamp < previous:
                disorder += 1
            previous = stamp
    problems = []
    if invalid:
        problems.append(f"{invalid} non-VALID record lines")
    if disorder:
        problems.append(f"{disorder} elems out of time order")
    if elems != job.expected_elems:
        problems.append(f"{elems} elems printed, writer-side manifest says {job.expected_elems}")
    failed = invalid + disorder + abs(elems - job.expected_elems)
    return min(failed, job.records), digest.hexdigest(), problems


# ---------------------------------------------------------------------------
# Untraced end-to-end measurement
# ---------------------------------------------------------------------------


def setup(seed: int, scale: dict, workdir: str) -> Tuple[str, dict, float]:
    """Generate the archive ``setup_reps`` times; keep the last.

    Every repetition must produce the same ``input_sha256`` — the
    determinism check runs on every benchmark run, not only in a test.
    Returns ``(archive, manifest, median_setup_seconds)``.
    """
    walls, shas = [], set()
    for rep in range(scale["setup_reps"]):
        out_dir = os.path.join(workdir, "input")
        shutil.rmtree(out_dir, ignore_errors=True)
        archive, manifest, wall = inputs.generate_archive(seed, scale, out_dir)
        walls.append(wall)
        shas.add(manifest["input_sha256"])
    if len(shas) != 1:
        raise RuntimeError(f"input generation is not deterministic: {sorted(shas)}")
    return archive, manifest, statistics.median(walls)


def _truncate_one_dump(job: Job) -> None:
    """Fault injection: cut the window's largest updates dump in half."""
    paths = [
        os.path.join(job.archive, relpath)
        for relpath, entry in job.manifest["files"].items()
        if entry["type"] == "updates" and entry["timestamp"] == job.manifest["start"]
    ]
    victim = max(paths, key=os.path.getsize)
    with open(victim, "rb") as handle:
        data = handle.read()
    with open(victim, "wb") as handle:
        handle.write(data[: len(data) // 2])


def measure(
    workload: str,
    seed: int,
    seconds: float,
    scale: dict,
    workdir: str,
    expected_digest: Optional[str] = None,
    inject_fault: bool = False,
) -> dict:
    """Run passes of ``workload`` for about ``seconds``; return the reading.

    ``inject_fault`` damages the input after the manifest is written, to show
    that the correctness gate can fail (``run.py --inject-fault``).
    """
    archive, manifest, setup_s = setup(seed, scale, workdir)
    job = Job(workload, seed, scale, archive, manifest)
    if inject_fault:
        _truncate_one_dump(job)
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir, exist_ok=True)

    passes: List[dict] = []
    began = time.perf_counter()
    while len(passes) < scale["min_reps"] or (
        time.perf_counter() - began + statistics.median(p["wall"] for p in passes) <= seconds
    ):
        index = len(passes)
        if job.cached:
            cache_dir = os.path.join(workdir, f"cache-{index}")
            cold = run_cli(job.cli_argv(cache_dir), os.path.join(out_dir, f"cold-{index}.txt"))
            warm = run_cli(job.cli_argv(cache_dir), os.path.join(out_dir, f"warm-{index}.txt"))
            passes.append(
                {
                    "wall": cold[0] + warm[0],
                    "cold": cold[0],
                    "warm": warm[0],
                    "rss": max(cold[1], warm[1]),
                    "exit": cold[2] or warm[2],
                    "disk_mb": _dir_bytes(cache_dir) / 1e6,
                    "outputs": [f"cold-{index}.txt", f"warm-{index}.txt"],
                }
            )
            shutil.rmtree(cache_dir, ignore_errors=True)
        else:
            wall, rss, code = run_cli(job.cli_argv(), os.path.join(out_dir, f"pass-{index}.txt"))
            passes.append({"wall": wall, "rss": rss, "exit": code, "outputs": [f"pass-{index}.txt"]})

    # The clock has stopped: hash and check every output.
    problems: List[str] = []
    digests = set()
    worst = 0
    for entry in passes:
        if entry["exit"]:
            problems.append(f"bgpreader exited {entry['exit']}")
            worst = job.records
        for name in entry["outputs"]:
            failed, digest, found = check_output(os.path.join(out_dir, name), job)
            digests.add(digest)
            problems.extend(found)
            worst = max(worst, failed)
    # Every pass (cold and warm alike) must print the same bytes; a digest
    # mismatch fails all of the run's records, not only the differing lines.
    if len(digests) != 1:
        problems.append(f"{len(digests)} different output digests across passes")
        worst = job.records
    output_sha = sorted(digests)[0]
    if expected_digest is not None and output_sha != expected_digest:
        problems.append(f"output sha256 {output_sha[:16]} != checked-in {expected_digest[:16]}")
        worst = job.records

    # The fastest pass: on a box whose clock speed wanders, interference only
    # ever adds time (see README, "Noise").
    wall = min(p["wall"] for p in passes)
    reading = {
        "workload": workload,
        "loop": "closed loop, 1 reader, fresh process per pass",
        "input_sha256": manifest["input_sha256"],
        "output_sha256": output_sha,
        "input": f"{job.records} records / {job.total_elems} elems in window, "
        f"{job.expected_elems} elems pass the filters",
        "passes": len(passes),
        "attempted": job.records,
        "failed": worst,
        "problems": sorted(set(problems)),
        "end_to_end": {
            "setup_s": setup_s,
            "peak_rss_mb": max(p["rss"] for p in passes),
        },
        "derived": {},
    }
    e2e, derived = reading["end_to_end"], reading["derived"]
    if job.cached:
        cold = min(p["cold"] for p in passes)
        warm = min(p["warm"] for p in passes)
        # Two gates, one per half: the warm replay rate and the time the
        # cold (cache-filling) pass takes.  See README "End-to-end metrics".
        e2e["records_per_s"] = job.records / warm
        e2e["result_latency_ms"] = cold * 1e3
        derived["cold_records_per_s"] = job.records / cold
        derived["warm_records_per_s"] = job.records / warm
        derived["cache_disk_mb"] = statistics.median(p["disk_mb"] for p in passes)
    else:
        e2e["records_per_s"] = job.records / wall
        e2e["result_latency_ms"] = wall * 1e3
        derived["elems_per_s"] = job.total_elems / wall
        derived["us_per_record"] = wall * 1e6 / job.records
    derived["failed_ops_pct"] = 100.0 * worst / job.records
    return reading


def _dir_bytes(root: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# ---------------------------------------------------------------------------
# Traced run: per-layer numbers
# ---------------------------------------------------------------------------


def _reset_process_caches() -> None:
    """Make the next in-process pass as cold as a fresh ``bgpreader``."""
    from repro.core.intern import reset_default_pool
    from repro.mrt.parser import clear_index_cache

    clear_index_cache()
    reset_default_pool()


def _parse_args(argv: List[str]):
    from repro.core.reader import build_parser

    return build_parser().parse_args(argv)


def _untraced_pass(argv: List[str], sink_path: str) -> float:
    """The CLI's own loop, in-process, nothing recorded."""
    from repro.core import reader

    _reset_process_caches()
    with open(sink_path, "w", encoding="utf-8") as sink:
        started = time.perf_counter()
        reader.run(_parse_args(argv), sink)
        return time.perf_counter() - started


def _traced_pass(argv: List[str], sink_path: str, tracer: Tracer, phase: str) -> dict:
    """The CLI's loop re-written with a span around each layer call.

    ``to_ascii`` is called twice on each printed elem: the first call pays
    lazy attribute materialisation plus formatting, the second only
    formatting, so the difference is ``bgp.attributes`` and the second call
    is ``core.elem``.
    """
    from repro.core import profiling, reader
    from repro.core.record import RecordStatus

    _reset_process_caches()
    profiling.enable()
    clock = time.perf_counter
    add = tracer.add
    counts = {"records": 0, "elems": 0, "probes": 0, "printed": 0, "bytes": 0}
    with open(sink_path, "w", encoding="utf-8") as sink:
        t_begin = clock()
        root = tracer.open(f"pass:{phase}", t_begin)
        stream = reader.build_stream(_parse_args(argv))
        match = stream.filters.match_elem
        iterator = stream.records()
        t0 = clock()
        add("core.reader.build_stream", t_begin, t0, root)
        while True:
            record = next(iterator, None)
            t1 = clock()
            add("upstream.next", t0, t1, root)
            if record is None:
                break
            counts["records"] += 1
            if record.status != RecordStatus.VALID:
                print(f"# {record.to_ascii()}", file=sink)
                t0 = clock()
                add("core.reader.write", t1, t0, root)
                continue
            elems = list(record.elems())
            t2 = clock()
            matched = [elem for elem in elems if match(elem)]
            t3 = clock()
            lines = [elem.to_ascii() for elem in matched]
            t4 = clock()
            for elem in matched:
                elem.to_ascii()
            t5 = clock()
            for line in lines:
                print(line, file=sink)
            t0 = clock()
            add("core.record.elems", t1, t2, root)
            add("core.filters.match_elem", t2, t3, root)
            add("core.elem.to_ascii.first", t3, t4, root)
            add("core.elem.to_ascii.again", t4, t5, root)
            add("core.reader.write", t5, t0, root)
            counts["elems"] += len(elems)
            counts["probes"] += len(elems)
            counts["printed"] += len(lines)
            counts["bytes"] += sum(map(len, lines)) + len(lines)
        sink.flush()
        tracer.close(root, clock())
    stats = profiling.snapshot()
    profiling.record_intern_stats(stream.intern_pool)
    counts["lazy_elems"] = stats.lazy_elems
    counts["elems_materialised"] = stats.elems_materialised
    counts["segment_hits"] = stats.segment_hits
    counts["segment_misses"] = stats.segment_misses
    counts["intern_hits"] = stats.intern_hits
    counts["intern_misses"] = stats.intern_misses
    counts["intern_objects"] = len(stream.intern_pool) if stream.intern_pool is not None else 0
    counts["wall"] = tracer.spans[root][2] - tracer.spans[root][1]
    profiling.disable()
    return counts


def _list_specs(job: Job, tracer: Tracer) -> Tuple[List[list], float, float]:
    """Broker index + query, timed; returns the dump-file batches."""
    from repro.broker.broker import Broker
    from repro.collectors.archive import Archive
    from repro.core.interfaces import BrokerDataInterface
    from repro.core import reader

    filters = reader.build_stream(_parse_args(job.cli_argv())).filters
    clock = time.perf_counter
    t0 = clock()
    broker = Broker(archives=[Archive(job.archive)])
    broker.crawler.crawl(now=None)
    t1 = clock()
    batches = list(BrokerDataInterface(broker, max_empty_polls=1).batches(filters))
    t2 = clock()
    root = tracer.add("pass:broker", t0, t2)
    tracer.add("broker.index", t0, t1, root)
    tracer.add("broker.query", t1, t2, root)
    return batches, t1 - t0, t2 - t1


def _parse_layers(specs: list, tracer: Tracer) -> dict:
    """Three sweeps over the dump files: inflate alone, ``MRTDumpReader`` whole,
    body decode alone.  Each sweep starts cold and warms as a real run does.
    """
    from repro.mrt.constants import MRTType
    from repro.mrt.parser import MRTDumpReader
    from repro.mrt.records import MRTHeader, decode_record_body

    clock = time.perf_counter
    out = {"decompress": 0.0, "read_dump": 0.0, "decode": 0.0, "bytes": 0, "records": 0,
           "corrupt": 0}
    root = tracer.open("pass:mrt", clock())

    buffers = []
    for spec in specs:
        t0 = clock()
        with open(spec.path, "rb") as handle:
            data = zlib.decompress(handle.read(), wbits=31)
        t1 = clock()
        tracer.add("mrt.parser.inflate", t0, t1, root)
        out["decompress"] += t1 - t0
        out["bytes"] += len(data)
        buffers.append(data)

    # Streamed, not listed: holding a whole dump's records alive makes the
    # garbage collector work harder than it does under the merger.
    _reset_process_caches()
    for spec in specs:
        count = corrupt = 0
        t0 = clock()
        with MRTDumpReader(spec.path, use_index=False) as reader:
            for record in reader:
                count += 1
                if not record.is_valid:
                    corrupt += 1
        t1 = clock()
        tracer.add("mrt.parser.read_dump", t0, t1, root)
        out["read_dump"] += t1 - t0
        out["records"] += count
        out["corrupt"] += corrupt

    _reset_process_caches()
    for data in buffers:
        bodies = []
        offset, view = 0, memoryview(data)
        while offset + 12 <= len(data):
            stamp, raw_type, subtype, length = _MRT_HEADER.unpack_from(data, offset)
            header = MRTHeader(stamp, MRTType(raw_type), subtype)
            bodies.append((header, subtype, view[offset + 12 : offset + 12 + length]))
            offset += 12 + length
        t0 = clock()
        for header, subtype, body in bodies:
            decode_record_body(header, subtype, body)
        t1 = clock()
        tracer.add("mrt.records.decode_record_body", t0, t1, root)
        out["decode"] += t1 - t0
    tracer.close(root, clock())
    return out


def _merge_pass(batches: List[list], tracer: Tracer) -> dict:
    """``SortedRecordMerger`` alone over the pre-listed specs (no cache)."""
    from repro.core.sorter import SortedRecordMerger

    _reset_process_caches()
    clock = time.perf_counter
    subsets = fanin = 0
    t0 = clock()
    for batch in batches:
        for _record in SortedRecordMerger(batch):
            pass
    t1 = clock()
    for batch in batches:
        sizes = SortedRecordMerger(batch).subset_sizes()
        subsets += len(sizes)
        fanin = max([fanin] + sizes)
    tracer.add("core.sorter.merge", t0, t1)
    return {"wall": t1 - t0, "subsets": subsets, "max_fanin": fanin}


def _segment_layers(specs: list, cache_dir: str, tracer: Tracer) -> dict:
    """``SegmentCache.store`` / ``load`` alone, per dump file."""
    from repro.broker.segments import SegmentCache
    from repro.core.sorter import DumpFileReader
    from repro.mrt.parser import file_signature

    clock = time.perf_counter
    cache = SegmentCache(cache_dir)
    store = load = 0.0
    records_total = 0
    root = tracer.open("pass:segments", clock())
    try:
        for spec in specs:
            records = list(DumpFileReader(spec))
            # As in a real cold pass, the consumer has already printed (and so
            # materialised) every elem by the time the file's segment is stored.
            for record in records:
                for elem in record.elems():
                    elem.to_ascii()
            signature = file_signature(spec.path)
            t0 = clock()
            cache.store(spec, records, signature=signature)
            t1 = clock()
            loaded = cache.load(spec)
            t2 = clock()
            tracer.add("broker.segments.store", t0, t1, root)
            tracer.add("broker.segments.load", t1, t2, root)
            store += t1 - t0
            load += t2 - t1
            records_total += len(loaded or ())
        stats = cache.stats()
    finally:
        cache.close()
        tracer.close(root, clock())
    return {"store": store, "load": load, "bytes": stats["bytes_used"], "records": records_total}


def _first_byte_seconds(argv: List[str]) -> float:
    """Spawn → first output byte of a fresh ``bgpreader`` (then stop it)."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.core.reader"] + argv,
        stdout=subprocess.PIPE,
        env=_child_env(),
    )
    try:
        child.stdout.read(1)
        return time.perf_counter() - started
    finally:
        child.kill()
        child.stdout.close()
        child.wait()


def _import_seconds() -> float:
    """Interpreter start + ``repro.core.reader`` import + argument parsing."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.core.reader", "--help"],
        stdout=subprocess.DEVNULL,
        env=_child_env(),
        check=True,
    )
    return time.perf_counter() - started


def trace(workload: str, seed: int, scale: dict, workdir: str, out_path: str) -> dict:
    """The traced run of ``workload``: returns ``{"per_layer": {...}, ...}``."""
    archive, manifest, _wall = inputs.generate_archive(seed, scale, os.path.join(workdir, "input"))
    job = Job(workload, seed, scale, archive, manifest)
    sink = os.path.join(workdir, "sink.txt")
    nproc = os.cpu_count() or 1

    # 1. The reference: the untraced front door.
    phases = ["cold", "warm"] if job.cached else ["pass"]
    # Each timed comparison is repeated and the faster reading kept, so a slow
    # phase of the box is not mistaken for a property of the code.  The cached
    # workload runs everything twice already (cold, warm) and has no run time
    # left for a second round.
    rounds = 1 if job.cached else scale["trace_rounds"]
    cli_walls = {phase: float("inf") for phase in phases}
    failed = 0
    for round_no in range(rounds):
        cache_cli = os.path.join(workdir, f"cache-cli-{round_no}") if job.cached else None
        for phase in phases:
            wall, _rss, code = run_cli(job.cli_argv(cache_cli), sink)
            bad, _digest, _problems = check_output(sink, job)
            failed = max(failed, job.records if code else bad)
            cli_walls[phase] = min(cli_walls[phase], wall)
    wall_cli = sum(cli_walls.values())
    disk_mb = _dir_bytes(cache_cli) / 1e6 if job.cached else 0.0
    import_s = _import_seconds()
    startup_s = _first_byte_seconds(job.cli_argv())

    # 2. The same job in-process: untraced, then with spans.  The two are
    #    alternated and the faster of each kind kept, so that a slow phase of
    #    the box does not read as tracing overhead.
    untraced = traced_wall = float("inf")
    counts: Dict[str, float] = {}
    tracer = None
    for round_no in range(rounds):
        cache_dirs = [
            os.path.join(workdir, f"cache-{kind}-{round_no}") if job.cached else None
            for kind in ("untraced", "traced")
        ]
        untraced = min(
            untraced, sum(_untraced_pass(job.cli_argv(cache_dirs[0]), sink) for _ in phases)
        )
        attempt = Tracer(f"{workload}-seed{seed}")
        got = [_traced_pass(job.cli_argv(cache_dirs[1]), sink, attempt, p) for p in phases]
        wall = sum(g["wall"] for g in got)
        if wall < traced_wall:
            traced_wall, tracer = wall, attempt
            counts = {key: sum(g[key] for g in got) for key in got[0]}
    totals = tracer.totals()
    upstream = totals["upstream.next"] + totals["core.reader.build_stream"]

    # 3. Isolated passes that split the upstream span.
    batches, index_s, query_s = _list_specs(job, tracer)
    specs = [spec for batch in batches for spec in batch]
    parse = _parse_layers(specs, tracer)
    merge_info = _merge_pass(batches, tracer)
    segments = {"store": 0.0, "load": 0.0, "bytes": 0, "records": 0}
    if job.cached:
        segments = _segment_layers(specs, os.path.join(workdir, "cache-iso"), tracer)
    parallel_x = 0.0
    if workload == "hist-updates-full":
        par_wall, _rss, _code = run_cli(
            job.cli_argv(extra=("--parallel", "--workers", str(nproc))), sink
        )
        parallel_x = wall_cli / par_wall

    # 4. Layer self times.  Each pass of a phase pays the broker once.
    n_phase = len(phases)
    broker_s = (index_s + query_s) * n_phase
    scan_s = max(0.0, parse["read_dump"] - parse["decompress"] - parse["decode"])
    merge_self = max(0.0, merge_info["wall"] - parse["read_dump"]) * n_phase
    segment_s = segments["store"] + segments["load"]
    stream_self = max(0.0, upstream - broker_s - parse["read_dump"] - segment_s - merge_self)
    materialise = max(0.0, totals["core.elem.to_ascii.first"] - totals["core.elem.to_ascii.again"])
    layers = {
        "broker": broker_s,
        "mrt.parser": parse["decompress"] + scan_s,
        "mrt.records": parse["decode"],
        "broker.segments": segment_s,
        "core.sorter": merge_self,
        "core.stream": stream_self,
        "core.record": totals["core.record.elems"],
        "core.filters": totals["core.filters.match_elem"],
        "bgp.attributes": materialise,
        "core.elem": totals["core.elem.to_ascii.again"],
        "core.reader": totals["core.reader.write"] + import_s * n_phase,
    }
    attributed = sum(layers.values())

    elems = counts["elems"] or 1
    printed = counts["printed"] or 1
    lookups = counts["intern_hits"] + counts["intern_misses"]
    segment_probes = counts["segment_hits"] + counts["segment_misses"]
    per_layer = {
        "broker.index_s": index_s,
        "broker.query_s": query_s,
        "broker.files": len(specs),
        "mrt.parser.decompress_s": parse["decompress"],
        "mrt.parser.scan_s": scan_s,
        "mrt.parser.mb": parse["bytes"] / 1e6,
        "mrt.parser.records": parse["records"],
        "mrt.parser.corrupt": parse["corrupt"],
        "mrt.records.decode_s": parse["decode"],
        "mrt.records.us_per_record": parse["decode"] * 1e6 / max(1, parse["records"]),
        "core.sorter.merge_self_s": merge_self,
        "core.sorter.subsets": merge_info["subsets"],
        "core.sorter.max_fanin": merge_info["max_fanin"],
        "core.stream.self_s": stream_self,
        "core.record.elems_s": totals["core.record.elems"],
        "core.record.elems": counts["elems"] / n_phase,
        "core.record.elems_per_record": counts["elems"] / max(1, counts["records"]),
        "core.filters.match_s": totals["core.filters.match_elem"],
        "core.filters.probes": counts["probes"] / n_phase,
        "core.filters.pass_ratio": counts["printed"] / elems,
        "bgp.attributes.materialise_s": materialise,
        "bgp.attributes.materialised_ratio": counts["elems_materialised"]
        / max(1, counts["lazy_elems"]),
        "core.elem.format_s": totals["core.elem.to_ascii.again"],
        "core.elem.bytes_per_elem": counts["bytes"] / printed,
        "core.reader.write_s": totals["core.reader.write"],
        "core.reader.import_s": import_s,
        "core.reader.startup_s": startup_s,
        "core.intern.hit_ratio": counts["intern_hits"] / max(1, lookups),
        "core.intern.objects": counts["intern_objects"] / n_phase,
        "broker.segments.store_s": segments["store"],
        "broker.segments.load_s": segments["load"],
        "broker.segments.hit_ratio": counts["segment_hits"] / max(1, segment_probes),
        "broker.segments.bytes_per_record": segments["bytes"] / max(1, segments["records"]),
        "broker.segments.disk_mb": disk_mb,
        "broker.segments.cold_records_per_s": job.records / cli_walls["cold"] if job.cached else 0.0,
        "broker.segments.warm_records_per_s": job.records / cli_walls["warm"] if job.cached else 0.0,
        "core.parallel.speedup_x": parallel_x,
        "core.parallel.workers": nproc if parallel_x else 0,
        "hist.unattributed_pct": 100.0 * (wall_cli - attributed) / wall_cli,
        "trace.overhead_pct": 100.0 * (traced_wall - untraced) / untraced,
    }
    for layer, seconds in layers.items():
        per_layer[f"{layer}.share_pct"] = 100.0 * seconds / wall_cli

    trace_counts = dict(counts, wall_cli_s=wall_cli, wall_untraced_s=untraced)
    tracer.write(out_path, trace_counts)
    return {
        "workload": workload,
        "input_sha256": manifest["input_sha256"],
        "attempted": job.records,
        "failed": failed,
        "per_layer": per_layer,
        "reference_wall_s": wall_cli,
        "nesting_errors": tracer.nesting_errors(),
        "spans": len(tracer.spans),
        "trace_file": out_path,
    }
