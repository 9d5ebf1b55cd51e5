"""Tests of the benchmark itself: metric names and units, gate evaluation,
span structure and the command-line contract.  They run smoke-sized
workloads and never assert timings.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import blockaudit as ba  # noqa: E402
from blockaudit import audit, splits as sp  # noqa: E402

import run  # noqa: E402
from tracer import Span, span_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module", params=list(WORKLOADS))
def records(request, tmp_path_factory):
    workload = WORKLOADS[request.param].smoke()
    out = {}
    for trace in (False, True):
        workdir = tmp_path_factory.mktemp(f"{request.param}-{int(trace)}")
        out[trace] = run.measure(workload, workload.default_seed, 0.0,
                                 trace, workdir)
    return request.param, out


def _check_summary(record: dict, declared: dict[str, str]):
    line = json.loads(run.summary_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert line["failed"] == sum(bool(g) for g in record["gate_failures"])
    assert line["correct"] == (line["failed"] == 0)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)
        assert np.isfinite(metric["value"])


def test_untraced_run_reports_every_end_to_end_metric(records):
    _, rec = records
    _check_summary(rec[False], _declared("end_to_end"))
    assert "spans" not in rec[False]
    machine = rec[False]["machine"]
    for key in ("nproc", "blas", "blas_threads", "python", "numpy", "scipy"):
        assert machine[key] is not None, key


def test_traced_run_reports_every_layer_metric(records):
    _, rec = records
    _check_summary(rec[True], _declared("per_layer"))


def test_gates_are_evaluated_per_call(records):
    _, rec = records
    for r in rec.values():
        assert len(r["gate_failures"]) == r["attempted"]
        for fails in r["gate_failures"]:
            assert all(isinstance(f, str) for f in fails)


def test_span_tree_is_well_formed(records):
    name, rec = records
    spans = rec[True]["spans"]
    assert spans
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert set(s) == {"id", "name", "parent", "run", "start", "end"}
        assert s["start"] <= s["end"]
        assert s["run"] == "setup" or s["run"].startswith("call-")
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["id"] < s["id"]
            assert parent["run"] == s["run"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    roots = {s["name"] for s in spans if s["parent"] is None}
    if name == "audit_cli":
        assert roots == {"cli.main"}
    else:
        assert roots == {"synthgen.generate_session", "audit.run_grid",
                         "audit.issue_verdict"}


def test_audit_cli_call_counts(records):
    name, rec = records
    if name != "audit_cli":
        pytest.skip("counts asserted for the CLI path only")
    m = rec[True]["metrics"]
    # main grid + relabel + ablation baseline + two cutoffs
    assert m["audit.run_grid.calls"]["value"] == 5.0
    # main, relabel, baseline, then highpass + notch for each cutoff
    assert m["dsp.apply_filter.calls"]["value"] == 7.0
    assert m["dataset.save_session.bytes"]["value"] == \
        m["dataset.load_session.bytes"]["value"]


def test_tracer_restores_the_program(records):
    for fn in (audit.run_grid, audit.segment, ba.KnnModel.__init__,
               ba.LinearModel.predict):
        assert not hasattr(fn, "__wrapped__")


def test_self_time_subtracts_child_spans():
    spans = [
        Span(0, "outer", None, "call-0", 0.0, 10.0),
        Span(1, "inner", 0, "call-0", 1.0, 3.0),
        Span(2, "inner", 0, "call-0", 4.0, 8.0),
        Span(3, "leaf", 2, "call-0", 5.0, 6.0),
    ]
    stats = span_stats(spans)
    assert stats["outer"] == {"calls": 1.0, "busy_s": 10.0, "self_s": 4.0}
    assert stats["inner"] == {"calls": 2.0, "busy_s": 6.0, "self_s": 5.0}
    assert stats["leaf"]["self_s"] == 1.0


def _cell(accuracy, n_test=40, classes=20, p=0.5, block_p=0.5, error=None):
    return audit.CellResult(
        accuracy=accuracy, n_test=n_test, n_correct=int(accuracy * n_test),
        p_value=p, num_classes=classes, error=error, block_p_value=block_p,
    )


def _c1_result(bd_block_p: float) -> audit.GridResult:
    cells = {}
    for regime in (sp.WITHIN_BLOCK, sp.BLOCK_DISJOINT):
        for w in (440.0, 1.0):
            for ch in (96, 8):
                for kind in ("knn", "svm"):
                    if regime == sp.WITHIN_BLOCK:
                        cell = _cell(0.95, p=1e-9, block_p=None)
                    else:
                        cell = _cell(0.05, block_p=bd_block_p)
                    cells[("notch", regime, w, ch, kind)] = cell
    return audit.GridResult(cells, (440.0, 1.0), (96, 8), ("knn", "svm"),
                            ("notch",), (sp.WITHIN_BLOCK, sp.BLOCK_DISJOINT), 0)


def test_c1_gate_passes_and_fails_on_block_disjoint_p():
    w = WORKLOADS["c1_grid"]
    good = _c1_result(0.5)
    assert w.gate(w, (good, audit.issue_verdict(good))) == []
    bad = _c1_result(0.001)
    fails = w.gate(w, (bad, audit.issue_verdict(bad)))
    assert any("block p" in f for f in fails)


def test_c2_gate_flags_failed_and_above_chance_cells():
    w = WORKLOADS["c2_grid4"]
    key = ("notch", sp.WITHIN_BLOCK, 440.0, 48)
    cells = {
        key + ("knn",): _cell(0.03, block_p=None),
        key + ("svm",): _cell(0.0, error="ValueError: x"),
        key + ("mlp",): _cell(0.2, p=1e-5, block_p=None),
    }
    result = audit.GridResult(cells, (440.0,), (48,), ("knn", "svm", "mlp"),
                              ("notch",), (sp.WITHIN_BLOCK,), 0)
    fails = w.gate(w, (result, None))
    assert len(fails) == 2


def test_cli_gate_reports_nonzero_exit(tmp_path):
    w = WORKLOADS["audit_cli"]
    assert w.gate(w, (1, tmp_path)) == ["blockaudit audit exited with 1"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "c1_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
