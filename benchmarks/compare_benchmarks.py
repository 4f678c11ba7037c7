"""Compare a pytest-benchmark JSON run against a committed baseline.

The CI ``benchmark-regression`` job runs the trie and intern
benchmark files with ``--benchmark-json`` and feeds the result here next to
the committed ``BENCH_PR*.json`` baseline.  A benchmark regresses when its
median exceeds ``--max-ratio`` times the baseline median (2x by default —
generous, because the baseline and the CI runner are different machines;
the gate catches algorithmic regressions, not scheduler noise).

Usage::

    python benchmarks/compare_benchmarks.py BASELINE.json CURRENT.json \
        [--max-ratio 2.0] [--pattern trie --pattern intern]

Patterns are substrings of the benchmark ``fullname``; with no pattern,
every benchmark present in both files is compared.  Benchmarks present in
only one file are reported but never fail the gate (new benchmarks have no
baseline yet; retired ones have no current run).

Refreshing the baseline: rerun the same pytest command with
``--benchmark-json=BENCH_PR<N>.json`` on the reference machine and commit the
file (see docs/BENCHMARKS.md for the full recipe).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List


def load_medians(path: str) -> Dict[str, float]:
    with open(path) as handle:
        data = json.load(handle)
    medians: Dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        # Defensive: a malformed or truncated entry (no fullname, missing
        # stats) must degrade to "that benchmark has no data here", not
        # crash the whole gate with a KeyError.
        name = bench.get("fullname")
        median = bench.get("stats", {}).get("median")
        if name is None or median is None:
            continue
        medians[name] = median
    return medians


def compare(
    baseline: Dict[str, float],
    current: Dict[str, float],
    patterns: List[str],
    max_ratio: float,
) -> int:
    def selected(name: str) -> bool:
        return not patterns or any(p in name for p in patterns)

    names = sorted(n for n in (set(baseline) | set(current)) if selected(n))
    if not names:
        print("error: no benchmarks matched", file=sys.stderr)
        return 2

    failures = 0
    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  {'ratio':>7}")
    for name in names:
        base = baseline.get(name)
        cur = current.get(name)
        if base is None or cur is None:
            # One-sided benchmarks never fail the gate: an addition has no
            # baseline yet, a retired one no current run.
            missing = "new benchmark, no baseline" if base is None else "not run"
            print(f"{name:<{width}}  {'-':>10}  {'-':>10}  [{missing}]")
            continue
        ratio = cur / base if base > 0 else float("inf")
        verdict = "ok"
        if ratio > max_ratio:
            verdict = f"REGRESSION (>{max_ratio}x)"
            failures += 1
        print(f"{name:<{width}}  {base:>10.5f}  {cur:>10.5f}  {ratio:>6.2f}x  {verdict}")
    if failures:
        print(f"\n{failures} benchmark(s) regressed beyond {max_ratio}x", file=sys.stderr)
        return 1
    print("\nno benchmark regressions")
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON (e.g. BENCH_PR8.json)")
    parser.add_argument("current", help="freshly produced --benchmark-json output")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when current median exceeds baseline by this factor")
    parser.add_argument("--pattern", action="append", default=[],
                        help="only compare benchmarks whose fullname contains this "
                             "substring (repeatable)")
    args = parser.parse_args(argv)
    return compare(
        load_medians(args.baseline), load_medians(args.current), args.pattern, args.max_ratio
    )


if __name__ == "__main__":
    sys.exit(main())
