"""The three benchmark workloads and their correctness gates.

Each workload turns a seed into an input session (``setup``), runs one audit
on it (``call``, the timed part) and checks the outcome against the
acceptance-test thresholds (``gate``, which returns the failed checks).
Only the session depends on the seed; the audit settings of a workload are
fixed, so a claim can be re-checked on a seed nobody tuned against.

Why each workload exists:

* ``c1_grid`` -- the criterion-1 reduced grid on a block-design session.
  The primal SVM does most of the work, so a Gram-space or kNN-distance
  change shows here.  It keeps the acceptance test's 96 channels at
  1.024 kHz (43,296 features per trial at 440 ms, so features far outnumber
  trials), because the within-block SVM reaches the 0.90 gate after 50
  epochs at lr 3e-5 only with that many features.
* ``c2_grid4`` -- the criterion-2 grid with all four classifiers on a
  rapid-event session.  The CNN does most of the work and the SVM little,
  so an SVM-only change should leave it unchanged.
* ``audit_cli`` -- ``blockaudit audit`` from a ``.baud`` on disk to
  ``verdict.json``, with relabeling and a two-cutoff highpass ablation.  It
  runs five grids and seven full-session filter passes, so sharing work
  across the audit plan shows here.

Sessions are smaller than the acceptance criteria's (``c1_grid`` has 10
instead of 40 classes, ``c2_grid4`` 200 instead of 800 trials) and
``audit_cli`` uses 8 classes at 32 channels, so that one call takes seconds
and a run reports the median of several calls.  On a 2-vCPU virtual machine
with bursty hypervisor steal time, single calls of 20-30 s spread by 13-19%
(quartile distance over the median) across ten runs.
"""
from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import blockaudit as ba
from blockaudit import audit, cli, splits as sp, synthgen

ACCEPTANCE_TRAIN = ba.TrainConfig(seed=0, epochs=50, batch_size=64,
                                  learning_rate=3e-5)
ALPHA = 0.01


@dataclass(frozen=True)
class SessionShape:
    """Size of a synthetic session; ``block_count`` set means rapid-event."""

    classes: int
    trials_per_class: int
    channels: int
    sample_rate: float
    blocks_per_class: int = 1
    block_count: int | None = None
    stimulus_ms: float = 500.0
    blank_ms: float = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    shape: SessionShape
    setup: Callable[["Workload", int, Path], Any]
    call: Callable[["Workload", Any, Path], Any]
    gate: Callable[["Workload", Any], list[str]]
    grid: ba.GridSpec | None = None
    audit_seed: int | None = None

    def smoke(self) -> "Workload":
        """A seconds-sized variant with the same code path, for tests."""
        return replace(self, **SMOKE[self.name])


def _generate(shape: SessionShape, seed: int) -> ba.Session:
    if shape.block_count is None:
        schedule = synthgen.make_block_schedule(
            shape.classes, shape.trials_per_class, shape.stimulus_ms,
            shape.blank_ms, seed=seed, blocks_per_class=shape.blocks_per_class,
        )
    else:
        schedule = synthgen.make_rapid_event_schedule(
            shape.classes, shape.trials_per_class, shape.block_count,
            shape.stimulus_ms, shape.blank_ms, seed=seed,
        )
    return synthgen.generate_session(
        schedule, channels=shape.channels, sample_rate=shape.sample_rate,
        drift=ba.DriftParams(), evoked=ba.EvokedParams(),
        subject_id="s01", seed=seed,
    )


def _grid_setup(w: Workload, seed: int, workdir: Path) -> ba.Session:
    return _generate(w.shape, seed)


def _grid_call(w: Workload, session: ba.Session, workdir: Path):
    result = audit.run_grid(session, w.grid)
    return result, audit.issue_verdict(result)


def _c1_gate(w: Workload, outcome) -> list[str]:
    result, verdict = outcome
    fails = []
    if verdict.status is not ba.VerdictStatus.CONTAMINATED:
        fails.append(f"verdict {verdict.status.value}, want CONTAMINATED")
    all_ch = w.shape.channels
    for kind in ("knn", "svm"):
        cell = result.cells[("notch", sp.WITHIN_BLOCK, 440.0, all_ch, kind)]
        if not cell.accuracy >= 0.90:
            fails.append(f"{kind} within-block 440 ms accuracy "
                         f"{cell.accuracy:.3f} < 0.90")
    for key, cell in result.cells.items():
        if key[1] != sp.BLOCK_DISJOINT:
            continue
        if not cell.ok or cell.block_p_value is None:
            fails.append(f"block-disjoint cell {key} has no block p-value "
                         f"({cell.error})")
        elif cell.block_p_value < ALPHA:
            fails.append(f"block-disjoint cell {key} block p "
                         f"{cell.block_p_value:.4f} < {ALPHA}")
    cell = result.cells[("notch", sp.WITHIN_BLOCK, 1.0, 8, "svm")]
    if not (cell.accuracy >= 3.0 * cell.chance and cell.p_value < ALPHA):
        fails.append(f"svm 1 ms 8 ch accuracy {cell.accuracy:.3f} "
                     f"(p {cell.p_value:.2e}) not >= 3x chance at p < {ALPHA}")
    return fails


def _c2_gate(w: Workload, outcome) -> list[str]:
    result, _ = outcome
    fails = []
    for key, cell in result.cells.items():
        if not cell.ok:
            fails.append(f"cell {key} failed: {cell.error}")
        elif cell.chance_p < ALPHA:
            fails.append(f"cell {key} above chance: accuracy "
                         f"{cell.accuracy:.3f}, p {cell.chance_p:.4f}")
    return fails


def _synth_args(shape: SessionShape, seed: int, out: Path) -> list[str]:
    return [
        "synth", "--out", str(out), "--seed", str(seed),
        "--classes", str(shape.classes),
        "--trials-per-class", str(shape.trials_per_class),
        "--blocks-per-class", str(shape.blocks_per_class),
        "--channels", str(shape.channels),
        "--sample-rate", f"{shape.sample_rate:g}",
        "--stimulus-ms", f"{shape.stimulus_ms:g}",
        "--blank-ms", f"{shape.blank_ms:g}",
    ]


def _cli(argv: list[str]) -> int:
    # the CLI reports progress on stdout, which carries the benchmark result
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def _cli_setup(w: Workload, seed: int, workdir: Path) -> Path:
    sessions = workdir / "sessions"
    code = _cli(_synth_args(w.shape, seed, sessions))
    if code != 0:
        raise RuntimeError(f"blockaudit synth exited with {code}")
    return sessions / "s01_block.baud"


REPORT_FILES = ("grid.csv", "grid.json", "verdict.json", "relabel.csv",
                "relabel.json", "ablation.csv", "spectra.csv", "manifest.json")


def _cli_call(w: Workload, baud: Path, workdir: Path):
    # a fresh directory per call, so a call's gate never sees older reports
    out = Path(tempfile.mkdtemp(prefix="report-", dir=workdir))
    code = _cli([
        "audit", "--input", str(baud), "--out", str(out),
        "--seed", str(w.audit_seed), "--relabel",
        "--highpass-cutoffs", "14,5",
    ])
    return code, out


def _cli_gate(w: Workload, outcome) -> list[str]:
    code, out = outcome
    if code != 0:
        return [f"blockaudit audit exited with {code}"]
    fails = [f"{name} not written" for name in REPORT_FILES
             if not (out / name).is_file()]
    verdict_path = out / "verdict.json"
    if not verdict_path.is_file():
        return fails
    verdict = json.loads(verdict_path.read_text())
    if verdict["status"] != "CONTAMINATED":
        fails.append(f"verdict {verdict['status']}, want CONTAMINATED")
    drops = [e["value"] for e in verdict["evidence"]
             if e["name"] == "highpass_drop_14hz"]
    if not drops or not drops[0] >= 0.40:
        fails.append(f"highpass_drop_14hz {drops} not >= 0.40")
    return fails


def _criterion1_grid(rate: float, train: ba.TrainConfig) -> ba.GridSpec:
    return ba.GridSpec(
        classifiers=("knn", "svm"),
        windows_ms=(440.0, 1.0),
        channel_counts=(0, 8),
        splits=(
            ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),
            ba.SplitSpec(sp.BLOCK_DISJOINT, (0.6, 0.2, 0.2)),
        ),
        filter_configs=(
            ba.FilterConfig(
                name="notch",
                filters=(ba.FilterSpec.notch(49.0, 51.0, rate, 2),),
                zscore_scope="train_statistics",
            ),
        ),
        seed=2024,
        train_config=train,
        svm_l2=1e-3,
    )


def _criterion2_grid(rate: float, epochs: int) -> ba.GridSpec:
    return replace(
        _criterion1_grid(rate, replace(ACCEPTANCE_TRAIN, epochs=epochs)),
        classifiers=("knn", "svm", "mlp", "cnn1d"),
        windows_ms=(440.0,),
        channel_counts=(0,),
        splits=(ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),),
        seed=303,
    )


_C1 = SessionShape(classes=10, trials_per_class=50, channels=96,
                   sample_rate=1024.0, blocks_per_class=5)
_C2 = SessionShape(classes=20, trials_per_class=10, channels=48,
                   sample_rate=512.0, block_count=20)
_CLI = SessionShape(classes=8, trials_per_class=24, channels=32,
                    sample_rate=1024.0, blocks_per_class=4)

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("c1_grid", 101, _C1, _grid_setup, _grid_call, _c1_gate,
                 grid=_criterion1_grid(_C1.sample_rate, ACCEPTANCE_TRAIN)),
        Workload("c2_grid4", 202, _C2, _grid_setup, _grid_call, _c2_gate,
                 grid=_criterion2_grid(_C2.sample_rate, epochs=10)),
        Workload("audit_cli", 7, _CLI, _cli_setup, _cli_call, _cli_gate,
                 audit_seed=11),
    )
}

_SMOKE_TRAIN = replace(ACCEPTANCE_TRAIN, epochs=2)
SMOKE: dict[str, dict] = {
    "c1_grid": dict(
        shape=SessionShape(classes=4, trials_per_class=20, channels=16,
                           sample_rate=256.0, blocks_per_class=5),
        grid=_criterion1_grid(256.0, _SMOKE_TRAIN),
    ),
    "c2_grid4": dict(
        shape=SessionShape(classes=4, trials_per_class=20, channels=8,
                           sample_rate=512.0, block_count=8),
        grid=_criterion2_grid(512.0, epochs=1),
    ),
    "audit_cli": dict(
        shape=SessionShape(classes=4, trials_per_class=16, channels=8,
                           sample_rate=256.0, blocks_per_class=4),
    ),
}
