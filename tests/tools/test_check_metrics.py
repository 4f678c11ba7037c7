"""tools/check_metrics.py: the registry linter passes on the real tree and
catches planted violations in its exposition smoke-parser."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load(name, relpath):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


check_metrics = _load("check_metrics", "tools/check_metrics.py")


class TestCheckRegistry:
    def test_real_registry_is_clean(self):
        assert check_metrics.check_registry() == []

    def test_cli_exits_zero(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_metrics.py")],
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "metric families ok" in result.stdout


class TestCatalogChecks:
    def test_undocumented_family_flagged(self):
        from repro.core.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("documented_total", "Listed.")
        registry.counter("undocumented_total", "Not listed.")
        problems = check_metrics.check_catalog(registry, "| `documented_total` | counter |")
        assert len(problems) == 1
        assert "undocumented_total" in problems[0]

    def test_stale_catalog_row_flagged(self):
        from repro.core.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("repro_live_total", "Listed and registered.")
        catalog = (
            "| `repro_live_total` | counter | — |\n"
            "| `repro_gone_total` | counter | — |\n"
            "Prose may still mention `repro_prose_total`.\n"
        )
        problems = check_metrics.check_catalog(registry, catalog)
        assert len(problems) == 1
        assert "repro_gone_total" in problems[0]

    def test_unregistered_decode_stats_family_flagged(self):
        from repro.core.metrics import DECODE_STATS_SERIES, MetricsRegistry

        registry = MetricsRegistry()
        assert check_metrics.check_decode_stats(registry, DECODE_STATS_SERIES)
        for name in {name for name, _labels in DECODE_STATS_SERIES.values()}:
            registry.counter(name, "Present.")
        assert check_metrics.check_decode_stats(registry, DECODE_STATS_SERIES) == []
        series = dict(DECODE_STATS_SERIES, typo=("repro_decode_recods_total", ()))
        problems = check_metrics.check_decode_stats(registry, series)
        assert len(problems) == 1
        assert "repro_decode_recods_total" in problems[0]


class TestExpositionParser:
    def test_clean_exposition_passes(self):
        text = (
            "# HELP x_total Things.\n"
            "# TYPE x_total counter\n"
            'x_total{kind="a"} 3\n'
        )
        assert check_metrics.check_exposition(text) == []

    def test_blank_line_flagged(self):
        problems = check_metrics.check_exposition("x_total 1\n\ny_total 2\n")
        assert any("blank line" in p for p in problems)

    def test_malformed_sample_flagged(self):
        problems = check_metrics.check_exposition("not a sample line\n")
        assert any("malformed sample" in p for p in problems)

    def test_unknown_comment_flagged(self):
        problems = check_metrics.check_exposition("# WAT x_total counter\n")
        assert any("unknown comment" in p for p in problems)

    def test_missing_trailing_newline_flagged(self):
        problems = check_metrics.check_exposition("x_total 1")
        assert any("newline" in p for p in problems)
