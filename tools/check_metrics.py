"""CI gate for the telemetry registry (stdlib-only, no pytest needed).

Imports every instrumented tier so all metric families register, then
walks the default registry and fails on:

* duplicate metric names (also enforced at registration time — this is
  the belt-and-braces re-check across the fully imported tree);
* names or label names outside the Prometheus grammar
  (``[a-zA-Z_:][a-zA-Z0-9_:]*`` / ``[a-zA-Z_][a-zA-Z0-9_]*``);
* counters whose name lacks the conventional ``_total`` suffix;
* histograms whose bucket bounds are not strictly increasing;
* a registry that renders an invalid text exposition (smoke-parse of
  HELP/TYPE/sample lines);
* a family missing from the catalog in ``docs/OBSERVABILITY.md``, and a
  catalog row naming a family that no instrumented tier registers;
* a family the ``--decode-stats`` / ``/stats`` rendering reads
  (``metrics.DECODE_STATS_SERIES``) that nothing registered.

Run from the repo root::

    PYTHONPATH=src python tools/check_metrics.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: A catalog table row's first cell: ``| `repro_...` |``.
CATALOG_ROW_RE = re.compile(r"^\| `(repro_[a-zA-Z0-9_:]*)` \|", re.MULTILINE)
SAMPLE_LINE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (?:[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)

#: The metric catalog every registered family must appear in.
CATALOG = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"

#: Importing these pulls in every instrumented tier, so the registry holds
#: the full metric catalog by the time we walk it.
INSTRUMENTED_MODULES = (
    "repro.core.metrics",
    "repro.mrt.parser",
    "repro.bmp.codec",
    "repro.bgp.attributes",
    "repro.core.record",
    "repro.core.resilience",
    "repro.core.interfaces",
    "repro.core.sorter",
    "repro.core.stream",
    "repro.broker.broker",
    "repro.broker.segments",
    "repro.bmp.source",
    "repro.gateway.hub",
    "repro.gateway.server",
)


def check_registry() -> list:
    """Every violation found while walking the default registry."""
    import importlib

    for module in INSTRUMENTED_MODULES:
        importlib.import_module(module)
    from repro.core import metrics

    problems = []
    families = metrics.default_registry().metrics()
    if not families:
        problems.append("registry is empty — instrumented tiers did not register")
    seen = set()
    for metric in families:
        name = metric.name
        if name in seen:
            problems.append(f"duplicate metric name {name!r}")
        seen.add(name)
        if not METRIC_NAME_RE.match(name):
            problems.append(f"invalid Prometheus metric name {name!r}")
        if metric.kind == "counter" and not name.endswith("_total"):
            problems.append(f"counter {name!r} lacks the _total suffix")
        if not metric.help:
            problems.append(f"metric {name!r} has no help text")
        for label in metric.labelnames:
            if not LABEL_NAME_RE.match(label) or label.startswith("__"):
                problems.append(f"metric {name!r} has invalid label name {label!r}")
        if metric.kind == "histogram":
            uppers = list(metric.buckets)
            if sorted(uppers) != uppers or len(set(uppers)) != len(uppers):
                problems.append(f"histogram {name!r} buckets are not strictly increasing")
    problems.extend(check_exposition(metrics.exposition()))
    registry = metrics.default_registry()
    problems.extend(check_catalog(registry, CATALOG.read_text(encoding="utf-8")))
    problems.extend(check_decode_stats(registry, metrics.DECODE_STATS_SERIES))
    return problems


def check_catalog(registry, catalog: str) -> list:
    """Families missing from the catalog, and catalog rows nothing registers."""
    problems = [
        f"metric {metric.name!r} is missing from docs/OBSERVABILITY.md"
        for metric in registry.metrics()
        if f"`{metric.name}`" not in catalog
    ]
    problems.extend(
        f"docs/OBSERVABILITY.md lists {name!r}, which no instrumented tier registers"
        for name in CATALOG_ROW_RE.findall(catalog)
        if registry.get(name) is None
    )
    return problems


def check_decode_stats(registry, series: dict) -> list:
    """Families the ``--decode-stats`` rendering reads that are not registered."""
    names = sorted({name for name, _labels in series.values()})
    return [
        f"--decode-stats reads {name!r}, which no instrumented tier registers"
        for name in names
        if registry.get(name) is None
    ]


def check_exposition(text: str) -> list:
    """Smoke-parse a text exposition; returns line-level violations."""
    problems = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            problems.append(f"exposition line {lineno}: blank line")
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        if line.startswith("#"):
            problems.append(f"exposition line {lineno}: unknown comment {line!r}")
            continue
        if not SAMPLE_LINE_RE.match(line):
            problems.append(f"exposition line {lineno}: malformed sample {line!r}")
    if text and not text.endswith("\n"):
        problems.append("exposition does not end with a newline")
    return problems


def main() -> int:
    problems = check_registry()
    if problems:
        for problem in problems:
            print(f"check_metrics: {problem}", file=sys.stderr)
        print(f"check_metrics: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    from repro.core import metrics

    count = len(metrics.default_registry().metrics())
    print(f"check_metrics: {count} metric families ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
