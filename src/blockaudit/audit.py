"""Grid orchestration and the contamination verdict.

``run_grid`` evaluates every (filter config, split regime, window, channel
count, classifier) cell of a :class:`GridSpec` on a session, with all
fitting steps (z-score statistics, Fisher ranking, model training) restricted
to training indices and checked against the test set by an instrumentation
assertion.  ``relabel_analysis`` and ``highpass_ablation`` are the two
follow-up probes; ``issue_verdict`` turns the named results into one of
CONTAMINATED / CLEAN_SIGNAL / NO_SIGNAL / INCONCLUSIVE.

Randomness is funneled through ``GridSpec.seed`` and expanded with
``numpy.random.SeedSequence`` keyed on the cell coordinate: splits depend on
(seed, regime index), crop offsets on (seed, window index), and training on
(seed, regime, window, channels, classifier indices).  Filter configs do not
enter the derivation, so ablations are exactly paired.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import product
from typing import Sequence

import numpy as np
from scipy import stats as _stats

from . import classifiers as clf
from . import dsp, features, splits as splits_mod
from .dataset import Session, TrialMatrix, concat_trials, segment


class LeakageError(AssertionError):
    """A fitting step touched test-set trials."""


# seed-derivation kind codes
_SEED_SPLIT, _SEED_CROP, _SEED_TRAIN = 0, 1, 2


def _derive_seed(base: int, kind: int, *indices: int) -> int:
    ss = np.random.SeedSequence((int(base), kind) + tuple(int(i) for i in indices))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class SplitSpec:
    """One split regime axis entry."""

    regime: str
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if self.regime not in (
            splits_mod.WITHIN_BLOCK,
            splits_mod.BLOCK_DISJOINT,
            splits_mod.LEAVE_ONE_SUBJECT_OUT,
        ):
            raise ValueError(f"unknown split regime {self.regime!r}")


@dataclass(frozen=True)
class FilterConfig:
    """A preprocessing arm: filters to apply plus the z-score scope.

    The canonical stage order is filter -> segment -> z-score
    (``zscore_stage="after_filter"``).  ``zscore_stage="before_filter"``
    reproduces the unconventional segment -> z-score -> filter order for
    comparison runs: filtering then happens per trial window inside each
    cell.
    """

    name: str
    filters: tuple[dsp.FilterSpec, ...] = ()
    zscore_scope: str = "train_statistics"
    mode: str = "zero_phase"
    zscore_stage: str = "after_filter"

    def __post_init__(self):
        if self.zscore_stage not in ("after_filter", "before_filter"):
            raise ValueError(f"unknown zscore_stage {self.zscore_stage!r}")


@dataclass(frozen=True)
class GridSpec:
    """Axes and settings of one audit grid."""

    classifiers: tuple[str, ...] = ("knn", "svm")
    windows_ms: tuple[float, ...] = (440.0,)
    channel_counts: tuple[int, ...] = (0,)  # 0 means "all channels"
    splits: tuple[SplitSpec, ...] = (
        SplitSpec(splits_mod.WITHIN_BLOCK),
        SplitSpec(splits_mod.BLOCK_DISJOINT),
    )
    filter_configs: tuple[FilterConfig, ...] = (FilterConfig(name="raw"),)
    seed: int = 0
    start_offset_ms: float = 40.0
    base_window_ms: float | None = None  # defaults to max(windows_ms)
    fisher_feature: str = "window_mean"
    knn_k: int = 7
    svm_l2: float = 1e-3
    mlp_hidden: int = 128
    train_config: clf.TrainConfig = field(default_factory=clf.TrainConfig)
    cnn_kernels: int = 8
    cnn_kernel_len: int = 32
    cnn_pool_len: int = 128
    cnn_pool_stride: int = 64

    def __post_init__(self):
        known = {"knn", "svm", "mlp", "cnn1d"}
        bad = set(self.classifiers) - known
        if bad or not self.classifiers:
            raise ValueError(f"classifiers must be a non-empty subset of {known}")
        if not self.windows_ms or not self.channel_counts or not self.splits:
            raise ValueError("grid axes must be non-empty")
        if not self.filter_configs:
            raise ValueError("at least one filter config is required")

    @property
    def segmentation_window_ms(self) -> float:
        return self.base_window_ms or max(self.windows_ms)


@dataclass(frozen=True)
class CellResult:
    """Outcome of one grid cell (or its recorded failure).

    ``p_value`` is the exact two-sided binomial test of the per-trial correct
    count against chance.  When every test block carries a single true label
    (block designs, relabeled data), trials of a block are not independent,
    so the cell also carries a cluster-robust variant: one majority-vote
    prediction per test block, exactly Bernoulli(1/C) under the no-signal
    null, tested the same way (``block_p_value``).
    """

    accuracy: float
    n_test: int
    n_correct: int
    p_value: float
    num_classes: int
    confusion: np.ndarray | None = None
    error: str | None = None
    n_train: int = 0
    n_test_blocks: int | None = None
    n_blocks_correct: int | None = None
    block_p_value: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def chance(self) -> float:
        return 1.0 / self.num_classes if self.num_classes else float("nan")

    @property
    def chance_p(self) -> float:
        """Cluster-robust p against chance when defined, else the trial one."""
        return self.block_p_value if self.block_p_value is not None else self.p_value


CellKey = tuple[str, str, float, int, str]  # (filter, regime, window, channels, clf)


@dataclass(frozen=True)
class GridResult:
    """All evaluated cells plus the axes they were drawn from."""

    cells: dict[CellKey, CellResult]
    windows_ms: tuple[float, ...]
    channel_counts: tuple[int, ...]
    classifiers: tuple[str, ...]
    filter_names: tuple[str, ...]
    regimes: tuple[str, ...]
    seed: int

    def by_regime(self, regime: str) -> dict[CellKey, CellResult]:
        return {k: v for k, v in self.cells.items() if k[1] == regime and v.ok}

    def best_cell(self, regime: str) -> tuple[CellKey, CellResult] | None:
        ok = self.by_regime(regime)
        if not ok:
            return None
        return max(ok.items(), key=lambda kv: (kv[1].accuracy, kv[0]))

    def to_dict(self) -> dict:
        return {
            "windows_ms": list(self.windows_ms),
            "channel_counts": list(self.channel_counts),
            "classifiers": list(self.classifiers),
            "filter_names": list(self.filter_names),
            "regimes": list(self.regimes),
            "seed": self.seed,
            "cells": [
                {
                    "filter": k[0],
                    "regime": k[1],
                    "window_ms": k[2],
                    "channels": k[3],
                    "classifier": k[4],
                    "accuracy": v.accuracy,
                    "n_test": v.n_test,
                    "n_correct": v.n_correct,
                    "p_value": v.p_value,
                    "num_classes": v.num_classes,
                    "n_train": v.n_train,
                    "n_test_blocks": v.n_test_blocks,
                    "n_blocks_correct": v.n_blocks_correct,
                    "block_p_value": v.block_p_value,
                    "error": v.error,
                }
                for k, v in sorted(self.cells.items())
            ],
        }


def binomial_p_vs_chance(n_correct: int, n_test: int, chance: float) -> float:
    """Exact two-sided binomial test p-value against the chance rate."""
    return float(_stats.binomtest(n_correct, n_test, chance).pvalue)


def _check_no_leakage(fit_indices: set[int], test_indices: np.ndarray) -> None:
    overlap = fit_indices.intersection(int(i) for i in test_indices)
    if overlap:
        raise LeakageError(
            f"fitting touched {len(overlap)} test trial(s): "
            f"{sorted(overlap)[:5]}..."
        )


def _sessions_to_matrix(
    data: Session | TrialMatrix | Sequence[Session],
    fc: FilterConfig,
    spec: GridSpec,
) -> TrialMatrix:
    if isinstance(data, TrialMatrix):
        return data
    sessions = [data] if isinstance(data, Session) else list(data)
    mats = []
    for s in sessions:
        if fc.zscore_stage == "after_filter":
            for fspec in fc.filters:
                s = dsp.apply_filter(dsp.design_filter(fspec), s, mode=fc.mode)
        # before_filter: trials are filtered after normalization, per cell
        mats.append(segment(s, spec.start_offset_ms, spec.segmentation_window_ms))
    return mats[0] if len(mats) == 1 else concat_trials(mats)


def _build_plans(
    matrix: TrialMatrix, split: SplitSpec, seed: int
) -> list[splits_mod.SplitPlan]:
    if split.regime == splits_mod.WITHIN_BLOCK:
        return [splits_mod.split_within_block(matrix, split.fractions, seed)]
    if split.regime == splits_mod.BLOCK_DISJOINT:
        return [splits_mod.split_block_disjoint(matrix, split.fractions, seed)]
    return splits_mod.loso_round_robin(matrix)


def _train_cell_model(kind, x_train, y_train, spec, train_seed, num_classes):
    cfg = replace(spec.train_config, seed=train_seed)
    if kind == "knn":
        return clf.KnnModel(x_train, y_train, k=spec.knn_k)
    if kind == "svm":
        return clf.train_svm(x_train, y_train, cfg, l2=spec.svm_l2)
    if kind == "mlp":
        return clf.train_mlp(x_train, y_train, hidden=spec.mlp_hidden, config=cfg)
    cnn_cfg = clf.Cnn1dConfig(
        kernels=spec.cnn_kernels,
        kernel_len=spec.cnn_kernel_len,
        pool_len=spec.cnn_pool_len,
        pool_stride=spec.cnn_pool_stride,
        classes=num_classes,
    )
    return clf.train_cnn1d(x_train, cnn_cfg, cfg, labels=y_train)


def _error_cell(num_classes: int, exc: Exception) -> CellResult:
    return CellResult(
        accuracy=float("nan"), n_test=0, n_correct=0, p_value=float("nan"),
        num_classes=num_classes, error=f"{type(exc).__name__}: {exc}",
    )


def _block_outcomes(
    preds: np.ndarray, labels: np.ndarray, blocks: np.ndarray, num_classes: int
) -> tuple[int, int] | None:
    """(n blocks, n blocks whose majority prediction is correct), or None
    when some test block mixes true labels (block units undefined)."""
    n_blocks = 0
    n_right = 0
    for b in np.unique(blocks):
        rows = blocks == b
        truth = np.unique(labels[rows])
        if truth.size != 1:
            return None
        votes = np.bincount(preds[rows], minlength=num_classes)
        n_blocks += 1
        n_right += int(votes.argmax() == truth[0])
    return n_blocks, n_right


class _CellAccumulator:
    """Pools per-plan test outcomes of one cell (LOSO has several plans)."""

    def __init__(self, num_classes: int):
        self.confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
        self.n_test = 0
        self.n_train = 0
        self.num_classes = num_classes
        self.error: Exception | None = None
        self.blocks: tuple[int, int] | None = (0, 0)

    def add(self, confusion: np.ndarray, n_train: int,
            block_outcomes: tuple[int, int] | None):
        self.confusion += confusion
        self.n_test += int(confusion.sum())
        self.n_train += n_train
        if self.blocks is not None and block_outcomes is not None:
            self.blocks = (
                self.blocks[0] + block_outcomes[0],
                self.blocks[1] + block_outcomes[1],
            )
        else:
            self.blocks = None

    def result(self) -> CellResult:
        if self.error is not None:
            return _error_cell(self.num_classes, self.error)
        n_correct = int(np.trace(self.confusion))
        accuracy = n_correct / self.n_test
        chance = 1.0 / self.num_classes
        block_fields: dict = {}
        if self.blocks is not None and self.blocks[0] > 0:
            block_fields = {
                "n_test_blocks": self.blocks[0],
                "n_blocks_correct": self.blocks[1],
                "block_p_value": binomial_p_vs_chance(
                    self.blocks[1], self.blocks[0], chance
                ),
            }
        return CellResult(
            accuracy=accuracy, n_test=self.n_test, n_correct=n_correct,
            p_value=binomial_p_vs_chance(n_correct, self.n_test, chance),
            num_classes=self.num_classes, confusion=self.confusion,
            n_train=self.n_train, **block_fields,
        )


def _evaluate_group(
    base: TrialMatrix,
    plans: list[splits_mod.SplitPlan],
    spec: GridSpec,
    fc: FilterConfig,
    window_ms: float,
    crop_seed: int,
    train_seeds: dict[tuple[int, str], int],
    num_classes: int,
) -> dict[tuple[int, str], CellResult]:
    """All (channel count, classifier) cells sharing one (filter, split,
    window) combination: crop, normalize, and rank once per plan."""
    inner = list(train_seeds.keys())
    acc = {key: _CellAccumulator(num_classes) for key in inner}
    try:
        if window_ms < base.window_samples / base.sample_rate * 1000.0:
            policy = features.WindowPolicy.random(window_ms, seed=crop_seed)
        else:
            policy = features.WindowPolicy.fixed(window_ms, offset_ms=0.0)
        cropped = features.crop_windows(base, policy)
    except ValueError as exc:
        return {key: _error_cell(num_classes, exc) for key in inner}

    for plan in plans:
        try:
            fit_touched: set[int] = set()
            if fc.zscore_scope == "train_statistics":
                matrix = dsp.zscore(
                    cropped, "train_statistics", train_indices=plan.train
                )
                fit_touched.update(int(i) for i in matrix.trial_indices[plan.train])
            else:
                matrix = dsp.zscore(cropped, fc.zscore_scope)
            if fc.zscore_stage == "before_filter":
                for fspec in fc.filters:
                    matrix = dsp.apply_filter(
                        dsp.design_filter(fspec), matrix, mode=fc.mode
                    )
            train_matrix = matrix.take(plan.train)
            fit_touched.update(int(i) for i in train_matrix.trial_indices)
            ranking = features.fisher_scores(train_matrix, spec.fisher_feature)
            _check_no_leakage(fit_touched, matrix.trial_indices[plan.test])
        except LeakageError:
            raise
        except ValueError as exc:
            for key in inner:
                acc[key].error = exc
            continue
        y_train = matrix.labels[plan.train]
        y_test = matrix.labels[plan.test]
        for channels in dict.fromkeys(ch for ch, _ in inner):
            m = channels if channels > 0 else matrix.channels
            try:
                top = ranking.order[:m]
                if m > matrix.channels:
                    raise ValueError(
                        f"channel count {m} exceeds {matrix.channels}"
                    )
                x_train3 = matrix.trials[plan.train][:, top, :]
                x_test3 = matrix.trials[plan.test][:, top, :]
            except ValueError as exc:
                for key in inner:
                    if key[0] == channels:
                        acc[key].error = exc
                continue
            x_train = x_train3.reshape(x_train3.shape[0], -1)
            x_test = x_test3.reshape(x_test3.shape[0], -1)
            for key in (k for k in inner if k[0] == channels):
                kind = key[1]
                if acc[key].error is not None:
                    continue
                try:
                    xt, xe = (
                        (x_train3, x_test3) if kind == "cnn1d" else (x_train, x_test)
                    )
                    model = _train_cell_model(
                        kind, xt, y_train, spec, train_seeds[key], num_classes
                    )
                    preds = model.predict(xe)
                    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
                    np.add.at(conf, (y_test, preds), 1)
                    acc[key].add(
                        conf, y_train.size,
                        _block_outcomes(
                            preds, y_test, matrix.block_ids[plan.test], num_classes
                        ),
                    )
                except (ValueError, clf.TrainingDiverged) as exc:
                    acc[key].error = exc
    return {key: a.result() for key, a in acc.items()}


def run_grid(
    data: Session | TrialMatrix | Sequence[Session],
    spec: GridSpec,
    label_mode: str = "stimulus",
    threads: int = 1,
) -> GridResult:
    """Evaluate the full grid on a session (or pooled sessions).

    ``label_mode="block"`` relabels trials by block before anything else
    (the relabeling probe).  Cell failures are recorded in the cell, never
    raised; a leakage violation is always raised.  With the same spec, data,
    and seed the result is identical regardless of ``threads``.
    """
    if max(spec.windows_ms) > spec.segmentation_window_ms:
        raise ValueError("windows_ms exceed the segmentation window")
    base_by_fc: dict[str, TrialMatrix] = {}
    for fc in spec.filter_configs:
        matrix = _sessions_to_matrix(data, fc, spec)
        if label_mode == "block":
            matrix = splits_mod.relabel_blocks(matrix)
        elif label_mode != "stimulus":
            raise ValueError(f"unknown label_mode {label_mode!r}")
        base_by_fc[fc.name] = matrix
    ref = base_by_fc[spec.filter_configs[0].name]
    num_classes = int(ref.labels.max()) + 1

    plans_by_regime: dict[str, list[splits_mod.SplitPlan]] = {}
    for si, split in enumerate(spec.splits):
        plans_by_regime[split.regime] = _build_plans(
            ref, split, _derive_seed(spec.seed, _SEED_SPLIT, si)
        )

    groups = []
    for (fi, fc), (si, split), (wi, w) in product(
        enumerate(spec.filter_configs),
        enumerate(spec.splits),
        enumerate(spec.windows_ms),
    ):
        train_seeds = {
            (ch, kind): _derive_seed(spec.seed, _SEED_TRAIN, si, wi, ci, ki)
            for (ci, ch), (ki, kind) in product(
                enumerate(spec.channel_counts), enumerate(spec.classifiers)
            )
        }
        groups.append((fc, split, w, wi, train_seeds))

    def _run(group):
        fc, split, w, wi, train_seeds = group
        return _evaluate_group(
            base_by_fc[fc.name],
            plans_by_regime[split.regime],
            spec, fc, w,
            crop_seed=_derive_seed(spec.seed, _SEED_CROP, wi),
            train_seeds=train_seeds,
            num_classes=num_classes,
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run, groups))
    else:
        results = [_run(g) for g in groups]

    cells = {}
    for (fc, split, w, _, _), group_cells in zip(groups, results):
        for (ch, kind), res in group_cells.items():
            key = (fc.name, split.regime, w, ch if ch > 0 else ref.channels, kind)
            cells[key] = res
    return GridResult(
        cells=cells,
        windows_ms=spec.windows_ms,
        channel_counts=tuple(
            ch if ch > 0 else ref.channels for ch in spec.channel_counts
        ),
        classifiers=spec.classifiers,
        filter_names=tuple(fc.name for fc in spec.filter_configs),
        regimes=tuple(s.regime for s in spec.splits),
        seed=spec.seed,
    )


def relabel_analysis(
    data: Session | Sequence[Session],
    spec: GridSpec,
    threads: int = 1,
) -> GridResult:
    """Grid run with block-identity labels under within-block splits.

    The probe of the relabeling test: on data whose stimulus classes are
    intermixed, high accuracy here means the classifier reads block state,
    not stimuli.
    """
    sessions = [data] if isinstance(data, Session) else list(data)
    n_blocks = sum(len(s.block_ids()) for s in sessions)
    if n_blocks < 2:
        raise ValueError("relabeling needs at least 2 blocks")
    forced = replace(
        spec,
        splits=tuple(
            s for s in spec.splits if s.regime == splits_mod.WITHIN_BLOCK
        )
        or (SplitSpec(splits_mod.WITHIN_BLOCK),),
    )
    return run_grid(data, forced, label_mode="block", threads=threads)


@dataclass(frozen=True)
class AblationResult:
    """Paired grids: a baseline and one grid per highpass cutoff."""

    baseline: GridResult
    by_cutoff: dict[float, GridResult]

    def delta(self, cutoff_hz: float) -> dict[CellKey, float]:
        """Per-cell accuracy drop (baseline minus highpassed), ok cells only."""
        hp = self.by_cutoff[cutoff_hz]
        out = {}
        for key, base_cell in self.baseline.cells.items():
            hp_cell = hp.cells.get(key)
            if hp_cell is not None and base_cell.ok and hp_cell.ok:
                out[key] = base_cell.accuracy - hp_cell.accuracy
        return out


def highpass_ablation(
    data: Session | Sequence[Session],
    cutoffs_hz: Sequence[float],
    base_spec: GridSpec,
    threads: int = 1,
) -> AblationResult:
    """Re-run the identical grid with a highpass prepended per cutoff.

    Training seeds, splits, and crop offsets are shared with the baseline,
    so per-cell deltas isolate the effect of removing DC/VLF content.
    """
    sessions = [data] if isinstance(data, Session) else list(data)
    rate = sessions[0].sample_rate
    for c in cutoffs_hz:
        if not 0 < c < rate / 2:
            raise ValueError(f"cutoff {c} Hz outside (0, Nyquist)")
    baseline = run_grid(data, base_spec, threads=threads)
    by_cutoff = {}
    for cutoff in cutoffs_hz:
        hp = dsp.FilterSpec.highpass(cutoff, rate, order=2)
        spec_hp = replace(
            base_spec,
            filter_configs=tuple(
                replace(fc, filters=(hp,) + fc.filters)
                for fc in base_spec.filter_configs
            ),
        )
        by_cutoff[float(cutoff)] = run_grid(data, spec_hp, threads=threads)
    return AblationResult(baseline=baseline, by_cutoff=by_cutoff)


# ---------------------------------------------------------------------------
# Verdict
# ---------------------------------------------------------------------------

class VerdictStatus(Enum):
    CONTAMINATED = "CONTAMINATED"
    CLEAN_SIGNAL = "CLEAN_SIGNAL"
    NO_SIGNAL = "NO_SIGNAL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class VerdictConfig:
    """Decision thresholds; the formalization of the qualitative contrasts."""

    alpha: float = 0.01
    high_multiple: float = 3.0       # "high" accuracy >= multiple x chance
    comparable_points: float = 0.10  # |within - disjoint| for CLEAN_SIGNAL


@dataclass(frozen=True)
class Finding:
    name: str
    value: float | str
    detail: str


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    evidence: tuple[Finding, ...]

    def __post_init__(self):
        if not self.evidence:
            raise ValueError("a verdict needs at least one evidence item")

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "evidence": [
                {"name": f.name, "value": f.value, "detail": f.detail}
                for f in self.evidence
            ],
        }


def _above_chance(cell: CellResult, cfg: VerdictConfig) -> bool:
    # cluster-robust where block units exist, else per-trial
    return cell.chance_p < cfg.alpha and cell.accuracy > cell.chance


def _high(cell: CellResult, cfg: VerdictConfig) -> bool:
    return (
        cell.accuracy >= cfg.high_multiple * cell.chance
        and cell.p_value < cfg.alpha
    )


def _cell_label(key: CellKey) -> str:
    return f"{key[4]} w={key[2]}ms ch={key[3]} [{key[0]}]"


def issue_verdict(
    main: GridResult,
    relabel: GridResult | None = None,
    ablation: AblationResult | None = None,
    vlf_fraction: float | None = None,
    config: VerdictConfig = VerdictConfig(),
) -> Verdict:
    """Deterministic decision over the named analyses.

    Requires both within-block and block-disjoint cells in ``main``;
    anything missing yields INCONCLUSIVE with the reason in evidence.
    Rules: contaminated when some within-block cell is high (>=
    ``high_multiple`` x chance, p < alpha) while every block-disjoint cell
    sits at chance; clean when both regimes are above chance and their best
    cells agree within ``comparable_points``; no-signal when both regimes
    are at chance.
    """
    evidence: list[Finding] = []
    wb = main.by_regime(splits_mod.WITHIN_BLOCK)
    bd = main.by_regime(splits_mod.BLOCK_DISJOINT)
    if not wb or not bd:
        missing = []
        if not wb:
            missing.append(splits_mod.WITHIN_BLOCK)
        if not bd:
            missing.append(splits_mod.BLOCK_DISJOINT)
        return Verdict(
            status=VerdictStatus.INCONCLUSIVE,
            evidence=(
                Finding(
                    name="missing_analyses",
                    value=", ".join(missing),
                    detail="required split regimes absent or all-failed",
                ),
            ),
        )

    wb_key, wb_best = main.best_cell(splits_mod.WITHIN_BLOCK)
    bd_key, bd_best = main.best_cell(splits_mod.BLOCK_DISJOINT)
    evidence.append(
        Finding(
            name="within_block_best",
            value=round(wb_best.accuracy, 4),
            detail=f"{_cell_label(wb_key)}, p={wb_best.p_value:.3e}, "
            f"chance={wb_best.chance:.4f}",
        )
    )
    evidence.append(
        Finding(
            name="block_disjoint_best",
            value=round(bd_best.accuracy, 4),
            detail=f"{_cell_label(bd_key)}, p={bd_best.p_value:.3e}, "
            f"chance={bd_best.chance:.4f}",
        )
    )
    if vlf_fraction is not None:
        evidence.append(
            Finding(
                name="vlf_fraction",
                value=round(float(vlf_fraction), 4),
                detail="fraction of raw power below the VLF cutoff",
            )
        )
    if relabel is not None:
        rl = relabel.best_cell(splits_mod.WITHIN_BLOCK)
        if rl is not None:
            evidence.append(
                Finding(
                    name="relabel_within_block_best",
                    value=round(rl[1].accuracy, 4),
                    detail=f"block-identity labels, {_cell_label(rl[0])}, "
                    f"p={rl[1].p_value:.3e}",
                )
            )
    if ablation is not None:
        for cutoff in sorted(ablation.by_cutoff):
            deltas = ablation.delta(cutoff)
            wb_deltas = {k: v for k, v in deltas.items() if k[1] == splits_mod.WITHIN_BLOCK}
            if wb_deltas:
                key, drop = max(wb_deltas.items(), key=lambda kv: (kv[1], kv[0]))
                evidence.append(
                    Finding(
                        name=f"highpass_drop_{cutoff:g}hz",
                        value=round(drop, 4),
                        detail=f"largest within-block accuracy drop, {_cell_label(key)}",
                    )
                )

    wb_high = any(_high(c, config) for c in wb.values())
    bd_all_chance = all(not _above_chance(c, config) for c in bd.values())
    wb_all_chance = all(not _above_chance(c, config) for c in wb.values())
    bd_above = _above_chance(bd_best, config)
    wb_above = _above_chance(wb_best, config)

    if wb_high and bd_all_chance:
        status = VerdictStatus.CONTAMINATED
        evidence.append(
            Finding(
                name="rule",
                value="within_block high, block_disjoint at chance",
                detail=f"high >= {config.high_multiple}x chance at "
                f"alpha={config.alpha}",
            )
        )
    elif (
        wb_above
        and bd_above
        and abs(wb_best.accuracy - bd_best.accuracy) <= config.comparable_points
    ):
        status = VerdictStatus.CLEAN_SIGNAL
        evidence.append(
            Finding(
                name="rule",
                value="both regimes above chance and comparable",
                detail=f"|delta| <= {config.comparable_points}",
            )
        )
    elif wb_all_chance and bd_all_chance:
        status = VerdictStatus.NO_SIGNAL
        evidence.append(
            Finding(name="rule", value="both regimes at chance",
                    detail=f"alpha={config.alpha}")
        )
    else:
        status = VerdictStatus.INCONCLUSIVE
        evidence.append(
            Finding(
                name="rule",
                value="no decision rule matched",
                detail="mixed evidence; inspect the grid",
            )
        )
    return Verdict(status=status, evidence=tuple(evidence))
