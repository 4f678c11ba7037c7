"""Self-test of the performance ledger at ``--smoke`` scale.

Runs the real command in child processes (nothing of the ledger is imported
into the test process), so what is checked is what a user or the driver gets.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(LEDGER)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_ledger(*argv):
    done = subprocess.run(
        [sys.executable, os.path.join(LEDGER, "run.py"), "--smoke", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_summary():
    code, out, err = run_ledger("--trace", "--reps", "1")
    assert code == 0, out[-2000:] + err[-2000:]
    return json.loads(out.strip().splitlines()[-1])


def test_every_declared_name_is_emitted_with_its_unit_and_no_other(spec, smoke_summary):
    assert smoke_summary["claim"] is None
    assert smoke_summary["correct"] is True
    assert list(smoke_summary["workloads"]) == [w["name"] for w in spec["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        assert all(NAME.match(name) for name in declared)
        for workload, entry in smoke_summary["workloads"].items():
            emitted = {name: value["unit"] for name, value in entry[kind].items()}
            assert emitted == declared, (workload, kind)
    assert all(NAME.match(w["name"]) for w in spec["workloads"])


def test_end_to_end_metrics_are_never_zero_and_no_operation_failed(smoke_summary):
    for workload, entry in smoke_summary["workloads"].items():
        assert entry["attempted"] > 0 and entry["failed"] == 0, workload
        for name, value in entry["end_to_end"].items():
            assert value["value"] > 0, (workload, name)


def test_every_per_layer_metric_is_produced_by_some_workload(spec, smoke_summary):
    produced = {
        name
        for entry in smoke_summary["workloads"].values()
        for name, value in entry["per_layer"].items()
        if value["value"] != 0
    }
    # Counters of things that must not happen stay 0 on a healthy run.
    quiet = {
        "mrt.parser.corrupt",
        "bmp.codec.corrupt",
        "gateway.hub.windows_coalesced",
        "gateway.hub.elems_dropped",
    }
    missing = {m["name"] for m in spec["per_layer"]} - produced - quiet
    # At this scale a layer's residual self time can clamp to exactly 0.
    assert not {name for name in missing if not name.startswith(("core.sorter", "core.stream"))}


def test_traced_runs_write_well_formed_nested_spans(spec, smoke_summary):
    for workload in smoke_summary["workloads"]:
        assert smoke_summary["workloads"][workload]["nesting_errors"] == 0
        path = os.path.join(LEDGER, "out", f"trace-{workload}.json")
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["columns"] == ["name", "start_us", "end_us", "parent"]
        spans = trace["spans"]
        assert spans
        for name_id, start, end, parent in spans:
            assert 0 <= name_id < len(trace["names"])
            assert end >= start
            if parent >= 0:
                _pname, pstart, pend, _pparent = spans[parent]
                assert pstart <= start and end <= pend


def driver_line(*argv):
    code, out, err = run_ledger(*argv)
    assert out.strip(), err[-2000:]
    return code, json.loads(out.strip().splitlines()[-1])


def test_driver_form_prints_the_contract_object(spec):
    code, line = driver_line("--workload", "live-catchup", "--seed", "7", "--seconds", "0.2",
                             "--trace", "0")
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {n: v["unit"] for n, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }


@pytest.mark.parametrize("workload", ["hist-updates-full", "live-paced"])
def test_a_damaged_input_fails_operations_and_the_exit_code(workload):
    # hist: one dump file truncated after the manifest was written;
    # live: one window a socket client received is dropped before the check.
    code, line = driver_line("--workload", workload, "--seconds", "0.2", "--trace", "0",
                             "--inject-fault")
    assert code != 0
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]
