"""Span recorder that wraps blockaudit's public functions from outside.

The program under test is not modified: :class:`Tracer` replaces functions
at the module or class attribute their callers look up, records one span per
call (name, start, end, parent span, run id) in memory, and restores the
originals on exit.  Spans nest through a plain stack, so the tracer assumes
single-threaded grids (``run_grid(threads=1)``, the program's default).

Where a name is imported into another module (``audit`` imports
``segment``; ``cli`` imports ``load_session`` and ``save_session``), the copy
in the importing module is the one wrapped.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

# The classifier kinds of the audit grid; every kind gets the same metrics.
CLASSIFIER_KINDS = ("knn", "svm", "mlp", "cnn1d")

Counter = Callable[[tuple, dict, Any], dict[str, float]]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Tracer:
    """Records spans and counts for calls into wrapped functions."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[tuple[str, str], float] = field(
        default_factory=lambda: defaultdict(float)
    )
    run: str = ""
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)

    def wrap(self, owner: Any, attr: str, name: str,
             counter: Counter | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``.

        ``counter(args, kwargs, result)`` returns work counts for the call,
        which are summed per run under ``<name>.<count>``.
        """
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            span = Span(
                id=len(tracer.spans), name=name,
                parent=tracer._stack[-1] if tracer._stack else None,
                run=tracer.run, start=time.perf_counter(),
            )
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = time.perf_counter()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[(span.run, f"{name}.{key}")] += value
            return result

        wrapper.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _file_bytes(path) -> dict[str, float]:
    return {"bytes": float(os.path.getsize(path))}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install_blockaudit(tracer: Tracer) -> None:
    """Wrap every public function on the audit paths of the benchmark."""
    from blockaudit import (
        audit, classifiers, cli, config, dsp, features, report, splits,
        synthgen,
    )

    def fit_elems(index: int, name: str) -> Counter:
        return lambda a, k, r: {
            "input_elems": float(_arg(a, k, index, name).size)
        }

    def channel_samples(a, k, r):
        data = _arg(a, k, 1, "data")
        array = getattr(data, "samples", getattr(data, "trials", data))
        return {"channel_samples": float(array.size)}

    def grid_cells(a, k, result):
        cells = result.cells.values()
        return {"cells": float(len(cells)),
                "cells_failed": float(sum(not c.ok for c in cells))}

    def report_bytes(a, k, written):
        return {"bytes": float(sum(os.path.getsize(p) for p in written))}

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(config, "load_config", "config.load_config")
    tracer.wrap(synthgen, "generate_session", "synthgen.generate_session")
    tracer.wrap(cli, "save_session", "dataset.save_session",
                lambda a, k, r: _file_bytes(_arg(a, k, 1, "path")))
    tracer.wrap(cli, "load_session", "dataset.load_session",
                lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")))
    tracer.wrap(audit, "segment", "dataset.segment")
    tracer.wrap(dsp, "apply_filter", "dsp.apply_filter", channel_samples)
    tracer.wrap(dsp, "zscore", "dsp.zscore")
    tracer.wrap(dsp, "power_spectrum", "dsp.power_spectrum")
    tracer.wrap(features, "crop_windows", "features.crop_windows")
    tracer.wrap(features, "fisher_scores", "features.fisher_scores")
    for fn in ("split_within_block", "split_block_disjoint", "loso_round_robin"):
        tracer.wrap(splits, fn, "splits.plan")
    tracer.wrap(classifiers.KnnModel, "__init__", "classifiers.knn.fit",
                fit_elems(1, "train_x"))
    tracer.wrap(classifiers, "train_svm", "classifiers.svm.fit",
                fit_elems(0, "train_x"))
    tracer.wrap(classifiers, "train_mlp", "classifiers.mlp.fit",
                fit_elems(0, "train_x"))
    tracer.wrap(classifiers, "train_cnn1d", "classifiers.cnn1d.fit",
                fit_elems(0, "train_x"))
    for cls, kind in ((classifiers.KnnModel, "knn"),
                      (classifiers.LinearModel, "svm"),
                      (classifiers.MlpModel, "mlp"),
                      (classifiers.Cnn1dModel, "cnn1d")):
        tracer.wrap(cls, "predict", f"classifiers.{kind}.predict")
    tracer.wrap(audit, "run_grid", "audit.run_grid", grid_cells)
    tracer.wrap(audit, "relabel_analysis", "audit.relabel_analysis")
    tracer.wrap(audit, "highpass_ablation", "audit.highpass_ablation")
    tracer.wrap(audit, "issue_verdict", "audit.issue_verdict")
    tracer.wrap(audit, "binomial_p_vs_chance", "audit.binomial_p_vs_chance")
    tracer.wrap(report, "emit_audit_report", "report.emit_audit_report",
                report_bytes)


def span_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive busy time and self time.

    Self time is a span's duration minus that of its direct child spans,
    which never overlap because calls are single-threaded.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}
    )
    for s in spans:
        st = stats[s.name]
        busy = s.end - s.start
        st["calls"] += 1
        st["busy_s"] += busy
        st["self_s"] += busy - child_time[s.id]
    return stats


def layer_metrics(tracer: Tracer, setup_run: str,
                  call_runs: list[str]) -> dict[str, float]:
    """The per-layer metrics of one benchmark run.

    Layers of the timed call are averaged over ``call_runs``; the set-up
    layers (session synthesis and writing) come from ``setup_run``.  A layer
    the workload never calls reads 0.
    """
    per = len(call_runs)
    timed = span_stats([s for s in tracer.spans if s.run in call_runs])
    setup = span_stats([s for s in tracer.spans if s.run == setup_run])

    def stat(name: str, key: str) -> float:
        return timed[name][key] / per if name in timed else 0.0

    def count(key: str) -> float:
        return sum(tracer.counts.get((r, key), 0.0) for r in call_runs) / per

    m: dict[str, float] = {}
    for kind in CLASSIFIER_KINDS:
        fit, pred = f"classifiers.{kind}.fit", f"classifiers.{kind}.predict"
        m[f"{fit}_calls"] = stat(fit, "calls")
        m[f"{fit}_s"] = stat(fit, "busy_s")
        m[f"{fit}_input_elems"] = count(f"{fit}.input_elems")
        m[f"{pred}_s"] = stat(pred, "busy_s")
    for name in ("dsp.apply_filter", "dsp.zscore", "features.crop_windows",
                 "features.fisher_scores", "splits.plan", "audit.run_grid",
                 "audit.binomial_p_vs_chance", "cli.main"):
        m[f"{name}.calls"] = stat(name, "calls")
        m[f"{name}.busy_s"] = stat(name, "busy_s")
    for name in ("audit.run_grid", "cli.main"):
        m[f"{name}.self_s"] = stat(name, "self_s")
    for name in ("dataset.segment", "dataset.load_session",
                 "dsp.power_spectrum", "report.emit_audit_report",
                 "config.load_config"):
        m[f"{name}.busy_s"] = stat(name, "busy_s")
    m["dsp.apply_filter.channel_samples"] = count(
        "dsp.apply_filter.channel_samples")
    m["audit.cells"] = count("audit.run_grid.cells")
    m["audit.cells_failed"] = count("audit.run_grid.cells_failed")
    for name in ("dataset.load_session", "report.emit_audit_report"):
        m[f"{name}.bytes"] = count(f"{name}.bytes")
    for name in ("synthgen.generate_session", "dataset.save_session"):
        m[f"{name}.busy_s"] = setup[name]["busy_s"] if name in setup else 0.0
    m["dataset.save_session.bytes"] = tracer.counts.get(
        (setup_run, "dataset.save_session.bytes"), 0.0)
    return m
