#!/usr/bin/env python3
"""The performance ledger: one command, absolute numbers, checked outputs.

    python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1
                                                   # one run, one JSON line (the
                                                   # form BENCHMARK.json names)
    python3 ledger/run.py                          # every workload, 5 such runs each
    python3 ledger/run.py --trace                  # ... plus the per-layer table
    python3 ledger/run.py --aa                     # two sets back to back, compared

The forms without ``--workload`` repeat the first form in fresh child
processes, so a reading is the same thing whoever takes it.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root; this file emits exactly those names.  ``README.md`` beside
this file says what each workload and metric means and how to read a trace.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected", "digests.json")

sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import params  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Checked-in digests for the default seed
# ---------------------------------------------------------------------------


def read_expected() -> dict:
    """The checked-in digests, or a fresh table if they are from another Python.

    The generator draws from ``random`` and a pinned string hash, so digests
    are only comparable under the interpreter version they were recorded with.
    """
    tag = f"{sys.version_info.major}.{sys.version_info.minor}"
    try:
        with open(EXPECTED, encoding="utf-8") as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        recorded = {}
    return recorded if recorded.get("python") == tag else {"python": tag}


def record_expected(scale: dict, seed: int, reading: dict) -> None:
    recorded = read_expected()
    digests = {"input_sha256": reading["input_sha256"]}
    if "output_sha256" in reading:
        digests["output_sha256"] = reading["output_sha256"]
    recorded.setdefault(scale["name"], {}).setdefault(str(seed), {})[reading["workload"]] = digests
    os.makedirs(os.path.dirname(EXPECTED), exist_ok=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


def run_one(
    workload: str, seed: int, seconds: float, traced: bool, scale: dict, inject_fault: bool = False
) -> dict:
    """One run: set-up, measurement, correctness check.  Returns the reading."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    trace_path = os.path.join(OUT, f"trace-{workload}.json")
    expected = read_expected().get(scale["name"], {}).get(str(seed), {}).get(workload, {})
    try:
        if workload.startswith("hist-"):
            import hist

            if traced:
                reading = hist.trace(workload, seed, scale, workdir, trace_path)
            else:
                reading = hist.measure(
                    workload, seed, seconds, scale, workdir, expected.get("output_sha256"),
                    inject_fault,
                )
        else:
            import live

            if traced:
                reading = live.trace(workload, seed, seconds, scale, trace_path)
            else:
                reading = live.measure(workload, seed, seconds, scale, inject_fault)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reading.setdefault("problems", [])
    want = expected.get("input_sha256")
    if want is not None and want != reading["input_sha256"]:
        reading["problems"].append(
            f"input sha256 {reading['input_sha256'][:16]} != checked-in {want[:16]}"
        )
        reading["failed"] = reading["attempted"]
    reading["digest_checked"] = bool(expected)
    reading["correct"] = (
        reading["failed"] == 0 and not reading["problems"] and "invalid" not in reading
    )
    return reading


def metric_values(reading: dict, spec: dict, traced: bool) -> dict:
    """The reading as ``{name: {"value", "unit"}}`` for every declared metric."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    values = reading["per_layer"] if traced else reading["end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"ledger: metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload never enters did no work: time, counts and shares 0.
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def print_reading(reading: dict, metrics: dict) -> None:
    print(f"# workload        {reading['workload']}")
    if "loop" in reading:
        print(f"# load            {reading['loop']}; loopback only")
    if "input" in reading:
        print(f"# input           {reading['input']}")
    print(f"# input_sha256    {reading['input_sha256']}")
    if "output_sha256" in reading:
        checked = "matches checked-in digest" if reading["digest_checked"] else "no checked-in digest for this seed"
        print(f"# output_sha256   {reading['output_sha256']} ({checked})")
    if "passes" in reading:
        print(f"# passes          {reading['passes']}")
    for name, entry in metrics.items():
        # Of the per-layer table only the layers this workload entered.
        if entry["value"] or "per_layer" not in reading:
            print(f"{name:44s} {entry['value']:16.4f} {entry['unit']}")
    for name, value in reading.get("derived", {}).items():
        print(f"  ({name:41s} {value:16.4f})")
    print(f"# operations      attempted {reading['attempted']}, failed {reading['failed']}")
    if "invalid" in reading:
        print(f"# INVALID         {reading['invalid']}")
    for problem in reading["problems"]:
        print(f"# PROBLEM         {problem}")
    if "trace_file" in reading:
        print(
            f"# trace           {reading['spans']} spans, {reading['nesting_errors']} nesting "
            f"errors -> {os.path.relpath(reading['trace_file'], ROOT)}"
        )
    print("# claim           null (this command measures; it claims no gain)")


def driver_run(args, spec: dict, scale: dict) -> int:
    """``--workload``: one run, the contract's JSON object as the last line."""
    traced = bool(args.trace)
    reading = run_one(args.workload, args.seed, args.seconds, traced, scale, args.inject_fault)
    metrics = metric_values(reading, spec, traced)
    print_reading(reading, metrics)
    # live-paced sends rate * seconds frames: its input depends on --seconds,
    # so it has no digest to pin.
    if args.record_expected and args.workload != "live-paced":
        record_expected(scale, args.seed, reading)
    # Everything above, machine-readable, for the forms that repeat this one.
    print("# reading " + json.dumps(reading))
    print(
        json.dumps(
            {
                "correct": reading["correct"],
                "attempted": int(reading["attempted"]),
                "failed": int(reading["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if reading["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload, repeated: the ledger reading and the A/A comparison
# ---------------------------------------------------------------------------


def child_run(args, workload: str, traced: bool) -> dict:
    """The ``--workload`` form in a fresh process; returns its reading."""
    argv = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(traced)),
    ]
    if args.smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("# reading ")]
    if not lines:
        raise SystemExit(f"ledger: {workload} produced no reading (exit {done.returncode})")
    reading = json.loads(lines[-1][len("# reading "):])
    reading["report"] = "\n".join(
        line for line in done.stdout.splitlines()[:-1] if not line.startswith("# reading ")
    )
    return reading


def summarise(spec: dict, readings: list) -> dict:
    """Medians over the runs of one workload."""
    return {
        "end_to_end": {
            m["name"]: statistics.median(r["end_to_end"][m["name"]] for r in readings)
            for m in spec["end_to_end"]
        },
        "derived": {
            name: statistics.median(r["derived"][name] for r in readings)
            for name in readings[0]["derived"]
        },
        "attempted": sum(r["attempted"] for r in readings),
        "failed": sum(r["failed"] for r in readings),
        "correct": all(r["correct"] for r in readings),
        "problems": sorted({p for r in readings for p in r["problems"]}),
        "input_sha256": sorted({r["input_sha256"] for r in readings}),
        "input": readings[0].get("input", ""),
        "loop": readings[0].get("loop", ""),
    }


def announce(label: str, workload: str, rep: int, reps: int, reading: dict) -> None:
    values = "  ".join(f"{name}={value:.4g}" for name, value in reading["end_to_end"].items())
    print(f"# {label} {workload} rep {rep + 1}/{reps}: {values}", flush=True)


def print_set(spec: dict, result: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload, entry in result.items():
        print(f"\n== {workload}: {entry['loop']}; loopback only")
        print(f"   input: {entry['input']}")
        print(f"   input_sha256: {', '.join(entry['input_sha256'])}")
        for name, value in entry["end_to_end"].items():
            print(f"   {name:42s} {value:16.4f} {units[name]}")
        for name, value in entry["derived"].items():
            print(f"   ({name:40s} {value:16.4f})")
        pct = 100.0 * entry["failed"] / max(1, entry["attempted"])
        print(f"   {'failed_ops_pct':42s} {pct:16.4f} % ({entry['failed']}/{entry['attempted']})")
        for problem in entry["problems"]:
            print(f"   PROBLEM: {problem}")


def full_run(args, spec: dict, scale: dict) -> int:
    order = [w["name"] for w in spec["workloads"]]
    result = {}
    for workload in order:
        readings = []
        for rep in range(args.reps):
            readings.append(child_run(args, workload, False))
            announce("run", workload, rep, args.reps, readings[-1])
        result[workload] = summarise(spec, readings)
    print_set(spec, result)
    layers = {}
    if args.trace:
        for workload in order:
            reading = child_run(args, workload, True)
            print(f"\n== {workload}: traced run, reference wall {reading['reference_wall_s']:.3f} s")
            print(reading["report"])
            layers[workload] = metric_values(reading, spec, True)
            result[workload]["correct"] = result[workload]["correct"] and reading["correct"]
            result[workload]["nesting_errors"] = reading["nesting_errors"]
    ok = all(entry["correct"] for entry in result.values())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summary = {
        "seed": args.seed,
        "scale": scale["name"],
        "reps": args.reps,
        "workloads": {
            workload: {
                "end_to_end": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in entry["end_to_end"].items()
                },
                "per_layer": layers.get(workload, {}),
                "derived": entry["derived"],
                "attempted": entry["attempted"],
                "failed": entry["failed"],
                "input_sha256": entry["input_sha256"],
                "nesting_errors": entry.get("nesting_errors"),
            }
            for workload, entry in result.items()
        },
        "correct": ok,
        "claim": None,
    }
    print()
    print(json.dumps(summary))
    return 0 if ok else 1


def aa_run(args, spec: dict) -> int:
    """Two sets of the same code; every metric x workload must agree.

    The sets are interleaved run by run (A B, then B A, ...; the workload order
    reverses every round) so that a slow phase of the box falls on both, as it
    must when a later change is compared with its parent.
    """
    order = [w["name"] for w in spec["workloads"]]
    readings = {label: {workload: [] for workload in order} for label in "AB"}
    for rep in range(args.reps):
        for workload in order if rep % 2 == 0 else order[::-1]:
            for label in "AB" if rep % 2 == 0 else "BA":
                readings[label][workload].append(child_run(args, workload, False))
                announce(label, workload, rep, args.reps, readings[label][workload][-1])
    first = {workload: summarise(spec, readings["A"][workload]) for workload in order}
    second = {workload: summarise(spec, readings["B"][workload]) for workload in order}
    ok = True
    print(f"\n{'workload':22s} {'metric':20s} {'A':>14s} {'B':>14s} {'diff':>8s} {'bound':>7s}")
    for workload in order:
        a, b = first[workload], second[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["end_to_end"][name], b["end_to_end"][name]
            # Relative difference of B against A, positive = B is worse.
            worse = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
            verdict = "" if abs(worse) <= metric["bound"] else "  DISAGREE"
            ok = ok and not verdict
            print(
                f"{workload:22s} {name:20s} {va:14.4f} {vb:14.4f} {100 * worse:7.2f}% "
                f"{100 * metric['bound']:6.1f}%{verdict}"
            )
        same_input = a["input_sha256"] == b["input_sha256"] and len(a["input_sha256"]) == 1
        clean = a["failed"] == 0 and b["failed"] == 0 and a["correct"] and b["correct"]
        print(
            f"{workload:22s} input_sha256 {'identical' if same_input else 'DIFFERS'}; "
            f"failed ops {a['failed']}+{b['failed']}"
        )
        ok = ok and same_input and clean
    print(json.dumps({"aa_agrees": ok, "claim": None}))
    return 0 if ok else 1


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"ledger: the system under test is missing ({SRC}/repro); nothing to measure")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload once (driver form)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=None, help="measuring time per run (default: run_seconds)"
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="traced run for the per-layer metrics (with --workload: instead of the "
             "end-to-end run; without: in addition to it)",
    )
    parser.add_argument("--reps", type=int, default=5, help="runs per workload (default 5, min 3)")
    parser.add_argument("--aa", action="store_true", help="run two full sets and compare them")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test scale)")
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="with --workload: damage the input (a truncated dump / a dropped window) to "
             "show the correctness gate failing; the run must exit non-zero",
    )
    parser.add_argument(
        "--record-expected", action="store_true",
        help="with --workload: write this run's digests to ledger/expected/digests.json",
    )
    args = parser.parse_args(argv)
    scale = params.SMOKE if args.smoke else params.FULL
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else float(spec["run_seconds"])
    if not args.smoke:
        args.reps = max(3, args.reps)
    if args.workload:
        return driver_run(args, spec, scale)
    if args.aa:
        return aa_run(args, spec)
    return full_run(args, spec, scale)


if __name__ == "__main__":
    sys.exit(main())
