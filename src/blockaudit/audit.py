"""Grid orchestration and the contamination verdict.

``run_grid`` evaluates every (filter config, split regime, window, channel
count, classifier) cell of a :class:`GridSpec` on a session, with all
fitting steps (z-score statistics, Fisher ranking, model training) restricted
to training indices.  The rows the z-score statistics and the Fisher ranking
read, and the exact matrix each model is fitted on, are checked against the
plan's test trial ids; an overlap raises :class:`LeakageError`.  Every cell
goes through one preprocessing order: filter the whole session zero-phase,
cut trials at the longest grid window, crop to the cell's window, z-score,
rank channels by the Fisher score of their window means, fit.  The split
plans come first: ``check_grid`` builds them from the sessions' events alone,
so a design the splits cannot serve fails before any sample is filtered.
``relabel_analysis`` (the grid on sessions relabeled by block) and
``highpass_ablation`` are the two follow-up probes; ``issue_verdict`` turns
the named results into one of CONTAMINATED / CLEAN_SIGNAL / NO_SIGNAL /
INCONCLUSIVE.  Each cell is scored from its pooled test rows by ``stats``.

Randomness is funneled through ``GridSpec.seed`` and expanded with
``numpy.random.SeedSequence`` keyed on the cell coordinate: splits depend on
(seed, regime index), crop offsets on (seed, window index), and training on
(seed, regime, window, channels, classifier indices).  Filter configs do not
enter the derivation, so ablations are exactly paired.
"""
from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, field, fields, replace
from enum import Enum
from itertools import product
from typing import Sequence

import numpy as np

from . import classifiers as clf
from . import dsp, features, splits as splits_mod, stats
from ._checks import check_integer, check_real
from .dataset import Session, TrialMatrix, check_window, concat_trials, segment
from .stats import binomial_p_vs_chance


class LeakageError(AssertionError):
    """A fitting step touched test-set trials."""


# the classifier axis's names, in the order the config schema lists them
CLASSIFIERS = ("knn", "svm", "mlp", "cnn1d")

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
        if self.regime not in splits_mod.REGIMES:
            raise ValueError(f"unknown split regime {self.regime!r}")
        splits_mod._check_fractions(self.fractions)


@dataclass(frozen=True)
class FilterConfig:
    """A preprocessing arm: filters applied zero-phase to the whole session
    before it is cut into trials.  Every arm z-scores with training
    statistics; ``zscore_scope`` is kept only as a keyword that accepts
    that one value, and is not a field."""

    name: str
    filters: tuple[dsp.FilterSpec, ...] = ()
    zscore_scope: InitVar[str] = "train_statistics"

    def __post_init__(self, zscore_scope):
        if zscore_scope != "train_statistics":
            raise ValueError(
                f"zscore_scope={zscore_scope!r}: every arm z-scores with "
                "train_statistics"
            )


@dataclass(frozen=True)
class GridSpec:
    """Axes and settings of one audit grid.

    Trials are cut at ``max(windows_ms)``; a window shorter in samples is a
    random per-trial crop of that cut, and any other window is the cut.
    ``train_config.seed`` is never read: each cell trains with a seed
    derived from ``seed`` and the cell's coordinate.
    """

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
    knn_k: int = 7
    svm_l2: float = 1e-3
    mlp_hidden: int = 128
    train_config: clf.TrainConfig = field(default_factory=clf.TrainConfig)
    cnn_kernels: int = 8
    cnn_kernel_len: int = 32
    cnn_pool_len: int = 128
    cnn_pool_stride: int = 64

    def __post_init__(self):
        if set(self.classifiers) - set(CLASSIFIERS) or not self.classifiers:
            raise ValueError(
                f"classifiers must be a non-empty subset of {CLASSIFIERS}")
        check_integer("seed", self.seed, 0)
        for name in ("knn_k", "mlp_hidden", "cnn_kernels", "cnn_kernel_len",
                     "cnn_pool_len", "cnn_pool_stride"):
            check_integer(name, getattr(self, name), 1)
        check_real("svm_l2", self.svm_l2, ge=0)
        check_real("start_offset_ms", self.start_offset_ms, ge=0)
        if not self.windows_ms or not self.channel_counts or not self.splits:
            raise ValueError("grid axes must be non-empty")
        if not self.filter_configs:
            raise ValueError("at least one filter config is required")
        # cells are keyed by these values, so a repeat would overwrite cells
        for axis, values in (
            ("classifiers", self.classifiers),
            ("windows_ms", self.windows_ms),
            ("channel_counts", self.channel_counts),
            ("splits", tuple(s.regime for s in self.splits)),
            ("filter_configs", tuple(fc.name for fc in self.filter_configs)),
        ):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"grid axis {axis} repeats {value!r}")
        for i, w in enumerate(self.windows_ms):
            check_real(f"windows_ms[{i}]", w, gt=0)
        for i, c in enumerate(self.channel_counts):
            check_integer(f"channel_counts[{i}]", c, 0)


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
# a CellKey's entries as grid.json names them
_CELL_KEY_NAMES = ("filter", "regime", "window_ms", "channels", "classifier")
# CellResult fields kept in memory only; grid.json carries all the others
_IN_MEMORY_ONLY = ("confusion",)


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
        """The ``grid.json`` document: each axis field as a list, ``seed``,
        and one entry per cell in key order.  A cell entry names its
        coordinate by ``_CELL_KEY_NAMES`` and carries every
        :class:`CellResult` field but those of ``_IN_MEMORY_ONLY``."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in doc.items():
            if isinstance(value, tuple):
                doc[name] = list(value)
        doc["cells"] = [
            {
                **dict(zip(_CELL_KEY_NAMES, k)),
                **{f.name: getattr(v, f.name) for f in fields(v)
                   if f.name not in _IN_MEMORY_ONLY},
            }
            for k, v in sorted(self.cells.items())
        ]
        return doc


def _check_no_leakage(fit_indices, test_indices: np.ndarray) -> None:
    """Raise LeakageError if a fit's trial ids (array or set) hit a test id."""
    overlap = np.intersect1d(np.fromiter(fit_indices, np.int64), test_indices)
    if overlap.size:
        raise LeakageError(
            f"fitting touched {overlap.size} test trial(s): "
            f"{overlap[:5].tolist()}..."
        )


def _filter_and_segment(
    session: Session, fc: FilterConfig, spec: GridSpec
) -> TrialMatrix:
    # the filtered session is freed on return, before the grid runs
    for fspec in fc.filters:
        session = dsp.apply_filter(dsp.design_filter(fspec), session)
    return segment(session, spec.start_offset_ms, max(spec.windows_ms))


def _sessions(data: Session | Sequence[Session]) -> list[Session]:
    return [data] if isinstance(data, Session) else list(data)


def check_grid(
    data: Session | Sequence[Session], spec: GridSpec
) -> list[list[splits_mod.SplitPlan]]:
    """The split plans of every regime of ``spec``, in order, built from the
    sessions' events alone.

    Raises ValueError, before any sample is filtered, if the grid cannot
    run on these sessions: a session without events, a window
    (``start_offset_ms`` plus the longest window) past the end of some
    event, sessions whose channel counts or sample rates differ, a ``cnn1d``
    kernel or pooling window longer than the shortest window allows, or a
    split regime the trial design cannot satisfy (too few blocks per class,
    trials per block or subjects, or blocks too small to leave a test
    trial).  The plans are the ones :func:`run_grid` uses: the split
    functions read only labels, block ids and subject ids."""
    sessions = _sessions(data)
    for s in sessions:
        check_window(s, spec.start_offset_ms, max(spec.windows_ms))
    if "cnn1d" in spec.classifiers:
        rate = sessions[0].sample_rate
        shortest = min(spec.windows_ms)
        width = int(round(shortest * rate / 1000.0))
        if width < spec.cnn_kernel_len:
            raise ValueError(
                f"cnn1d kernel of {spec.cnn_kernel_len} samples is longer "
                f"than the shortest window, {shortest:g} ms = {width} "
                f"samples at {rate:g} Hz"
            )
        try:
            _cnn_config(spec, classes=2).pooled_points(width)
        except ValueError as exc:
            raise ValueError(
                f"cnn1d on the shortest window, {shortest:g} ms = {width} "
                f"samples at {rate:g} Hz: {exc}"
            ) from None
    # each trial's label, block and subject as the grid's matrix carries
    # them, with an empty sample stack of the session's channel count, so
    # that concat_trials rejects sessions whose channel counts differ
    design = concat_trials(
        [
            TrialMatrix(
                trials=np.empty((len(s.events), s.channels, 0), dtype=np.float32),
                labels=[ev.class_label for ev in s.events],
                block_ids=[ev.block_id for ev in s.events],
                subject_ids=np.array([s.subject_id] * len(s.events)),
                window_samples=0,
                sample_rate=s.sample_rate,
            )
            for s in sessions
        ]
    )
    return [
        _build_plans(design, split, _derive_seed(spec.seed, _SEED_SPLIT, si))
        for si, split in enumerate(spec.splits)
    ]


def _build_plans(
    matrix: TrialMatrix, split: SplitSpec, seed: int
) -> list[splits_mod.SplitPlan]:
    if split.regime == splits_mod.WITHIN_BLOCK:
        return splits_mod.split_within_block(matrix, split.fractions, seed)
    if split.regime == splits_mod.BLOCK_DISJOINT:
        return splits_mod.split_block_disjoint(matrix, split.fractions, seed)
    return splits_mod.loso_round_robin(matrix)


def _train_cell_model(kind, x_train, y_train, spec, train_seed, num_classes):
    cfg = replace(spec.train_config, seed=train_seed)
    if kind == "knn":
        return clf.KnnModel(x_train, y_train, k=spec.knn_k)
    if kind == "svm":
        return clf.train_svm(x_train, y_train, cfg, l2=spec.svm_l2)
    if kind == "mlp":
        return clf.train_mlp(x_train, y_train, hidden=spec.mlp_hidden, config=cfg)
    return clf.train_cnn1d(x_train, y_train, _cnn_config(spec, num_classes), cfg)


def _cnn_config(spec: GridSpec, classes: int) -> clf.Cnn1dConfig:
    return clf.Cnn1dConfig(
        kernels=spec.cnn_kernels,
        kernel_len=spec.cnn_kernel_len,
        pool_len=spec.cnn_pool_len,
        pool_stride=spec.cnn_pool_stride,
        classes=classes,
    )


def _error_cell(num_classes: int, exc: Exception) -> CellResult:
    return CellResult(
        accuracy=float("nan"), n_test=0, n_correct=0, p_value=float("nan"),
        num_classes=num_classes, error=f"{type(exc).__name__}: {exc}",
    )


class _CellAccumulator:
    """Fits one cell on each plan (LOSO has several) and scores it once, on
    the plans' test rows pooled; a block id is tested in one plan only."""

    def __init__(self, kind: str, train_seed: int, num_classes: int):
        self.kind = kind
        self.train_seed = train_seed
        self.n_train = 0
        self.num_classes = num_classes
        self.error: Exception | None = None
        # (true labels, predictions, block ids) of each plan's test rows
        self.tested: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def fit_and_score(
        self, train: TrialMatrix, test: TrialMatrix, spec: GridSpec
    ) -> None:
        """Fit on ``train``, predict ``test`` and pool the outcome; a failure
        becomes the cell's error, and a failed cell is not fitted again."""
        if self.error is not None:
            return
        x_train, x_test = train.trials, test.trials
        if self.kind != "cnn1d":
            x_train = x_train.reshape(x_train.shape[0], -1)
            x_test = x_test.reshape(x_test.shape[0], -1)
        try:
            model = _train_cell_model(
                self.kind, x_train, train.labels, spec, self.train_seed,
                self.num_classes,
            )
            preds = model.predict(x_test)
        except (ValueError, clf.TrainingDiverged) as exc:
            self.error = exc
            return
        self.n_train += train.num_trials
        self.tested.append((test.labels, preds, test.block_ids))

    def result(self) -> CellResult:
        if self.error is not None:
            return _error_cell(self.num_classes, self.error)
        labels, preds, block_ids = map(np.concatenate, zip(*self.tested))
        confusion = stats.confusion(labels, preds, self.num_classes)
        n_test, n_correct = labels.size, int(np.trace(confusion))
        chance = 1.0 / self.num_classes
        blocks = stats.block_votes(labels, preds, block_ids, self.num_classes)
        block_fields: dict = {}
        if blocks is not None:
            n_blocks, n_right = blocks
            block_fields = dict(
                n_test_blocks=n_blocks, n_blocks_correct=n_right,
                block_p_value=binomial_p_vs_chance(n_right, n_blocks, chance),
            )
        return CellResult(
            accuracy=n_correct / n_test, n_test=n_test, n_correct=n_correct,
            p_value=binomial_p_vs_chance(n_correct, n_test, chance),
            num_classes=self.num_classes, confusion=confusion,
            n_train=self.n_train, **block_fields,
        )


def _evaluate_group(
    base: TrialMatrix,
    plans: list[splits_mod.SplitPlan],
    spec: GridSpec,
    window_ms: float,
    crop_seed: int,
    train_seeds: dict[tuple[int, str], int],
    num_classes: int,
) -> dict[tuple[int, str], CellResult]:
    """All (channel count, classifier) cells sharing one (filter, split,
    window) combination: crop once; per plan, z-score the train and test
    rows, rank once and put both in ranking order in place, so each channel
    count is a prefix, selected once for all its classifiers."""
    by_channels: dict[int, list[_CellAccumulator]] = {}
    for (channels, kind), seed in train_seeds.items():
        by_channels.setdefault(channels, []).append(
            _CellAccumulator(kind, seed, num_classes)
        )
    try:
        cropped = features.crop_windows(base, window_ms, crop_seed)
    except ValueError as exc:
        return {key: _error_cell(num_classes, exc) for key in train_seeds}

    for plan in plans:
        test_ids = cropped.trial_indices[plan.test]
        # the z-score statistics and the Fisher ranking read these rows
        _check_no_leakage(cropped.trial_indices[plan.train], test_ids)
        try:
            train, test = dsp.zscore(cropped, plan.train, plan.test)
            ranking = features.fisher_scores(train)
            # zscore gathered these two stacks for this plan alone; never
            # reorder base or cropped, which is base at full width
            features.order_channels(train, ranking)
            features.order_channels(test, ranking)
        except ValueError as exc:
            for cells in by_channels.values():
                for cell in cells:
                    cell.error = exc
            continue
        for channels, cells in by_channels.items():
            try:
                fit_input, test_input = (
                    features.select_channels(m, channels)
                    for m in (train, test)
                )
            except ValueError as exc:
                for cell in cells:
                    cell.error = exc
                continue
            # the exact rows every model of this channel count is fitted on
            _check_no_leakage(fit_input.trial_indices, test_ids)
            for cell in cells:
                cell.fit_and_score(fit_input, test_input, spec)
    return {
        (channels, cell.kind): cell.result()
        for channels, cells in by_channels.items()
        for cell in cells
    }


def run_grid(data: Session | Sequence[Session], spec: GridSpec) -> GridResult:
    """Evaluate the full grid on a session (or pooled sessions).

    The split plans come from :func:`check_grid`, so a grid it rejects
    raises before any filter runs; after that, cell failures are recorded
    in the cell, never raised, and a leakage violation is always raised.
    The C distinct class labels are renumbered 0..C-1 in label order
    before any fit, so chance is 1/C however the classes are numbered.
    numpy's OpenBLAS is held to one thread for the call, so that no idle
    BLAS worker spins under the filter's or the CNN's threads; only products
    past the size gate of ``classifiers._OneBlasThread.released`` get the
    previous count back.  It is restored on return or raise.
    """
    with clf._one_blas_thread:
        sessions = _sessions(data)
        plans = check_grid(sessions, spec)
        bases = [
            concat_trials([_filter_and_segment(s, fc, spec) for s in sessions])
            for fc in spec.filter_configs
        ]
        classes, labels = np.unique(bases[0].labels, return_inverse=True)
        bases = [b.replace(labels=labels) for b in bases]
        ref = bases[0]
        num_classes = classes.size
        # 0 means all channels; a count that repeats once resolved is evaluated
        # once, under the training-seed index of its last occurrence
        channel_index = {
            ch or ref.channels: ci
            for ci, ch in enumerate(spec.channel_counts)
        }

        cells = {}
        for (fi, fc), (si, split), (wi, w) in product(
            enumerate(spec.filter_configs),
            enumerate(spec.splits),
            enumerate(spec.windows_ms),
        ):
            train_seeds = {
                (ch, kind): _derive_seed(spec.seed, _SEED_TRAIN, si, wi, ci, ki)
                for (ch, ci), (ki, kind) in product(
                    channel_index.items(), enumerate(spec.classifiers)
                )
            }
            group = _evaluate_group(
                bases[fi], plans[si], spec, w,
                crop_seed=_derive_seed(spec.seed, _SEED_CROP, wi),
                train_seeds=train_seeds,
                num_classes=num_classes,
            )
            for (ch, kind), res in group.items():
                cells[(fc.name, split.regime, w, ch, kind)] = res
        return GridResult(
            cells=cells,
            windows_ms=spec.windows_ms,
            channel_counts=tuple(channel_index),
            classifiers=spec.classifiers,
            filter_names=tuple(fc.name for fc in spec.filter_configs),
            regimes=tuple(s.regime for s in spec.splits),
            seed=spec.seed,
        )


def relabel_analysis(
    data: Session | Sequence[Session],
    spec: GridSpec,
) -> GridResult:
    """Grid run on :func:`~blockaudit.splits.relabel_blocks`'s sessions,
    under within-block splits.

    The probe of the relabeling test: on data whose stimulus classes are
    intermixed, high accuracy here means the classifier reads block state,
    not stimuli.
    """
    sessions = splits_mod.relabel_blocks(_sessions(data))
    if len({ev.class_label for s in sessions for ev in s.events}) < 2:
        raise ValueError("relabeling needs at least 2 blocks")
    forced = replace(
        spec,
        splits=tuple(
            s for s in spec.splits if s.regime == splits_mod.WITHIN_BLOCK
        )
        or (SplitSpec(splits_mod.WITHIN_BLOCK),),
    )
    return run_grid(sessions, forced)


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


def check_cutoffs(cutoffs_hz: Sequence[float], sample_rate: float) -> None:
    """Raise ValueError unless every highpass cutoff lies in (0, Nyquist)
    and none repeats (results are keyed by cutoff)."""
    for i, c in enumerate(cutoffs_hz):
        if not 0 < c < sample_rate / 2:
            raise ValueError(f"cutoff {c} Hz outside (0, Nyquist)")
        if c in cutoffs_hz[:i]:
            raise ValueError(f"cutoff {c} Hz repeats")


def highpass_ablation(
    data: Session | Sequence[Session],
    cutoffs_hz: Sequence[float],
    base_spec: GridSpec,
) -> AblationResult:
    """Re-run the identical grid with a highpass prepended per cutoff.

    Training seeds, splits, and crop offsets are shared with the baseline,
    so per-cell deltas isolate the effect of removing DC/VLF content.
    """
    rate = _sessions(data)[0].sample_rate
    check_cutoffs(cutoffs_hz, rate)
    baseline = run_grid(data, base_spec)
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
        by_cutoff[float(cutoff)] = run_grid(data, spec_hp)
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

    def __post_init__(self):
        check_real("alpha", self.alpha, gt=0, lt=1)
        check_real("high_multiple", self.high_multiple, gt=0)
        check_real("comparable_points", self.comparable_points, ge=0)


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
            "evidence": [asdict(f) for f in self.evidence],
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


def _failed_cells(grid: GridResult) -> list[Finding]:
    """One ``failed_cells`` finding when some cell failed, else none."""
    failed = sorted(k for k, c in grid.cells.items() if not c.ok)
    if not failed:
        return []
    first = failed[0]
    return [
        Finding(
            name="failed_cells",
            value=len(failed),
            detail=f"first: {_cell_label(first)} {first[1]}: "
            f"{grid.cells[first].error}",
        )
    ]


def _best_finding(name: str, best: tuple[CellKey, CellResult],
                  prefix: str = "", chance: bool = True) -> Finding:
    """A best cell's rounded accuracy, with its label and trial p."""
    key, cell = best
    detail = f"{prefix}{_cell_label(key)}, p={cell.p_value:.3e}"
    if chance:
        detail += f", chance={cell.chance:.4f}"
    return Finding(name=name, value=round(cell.accuracy, 4), detail=detail)


def issue_verdict(
    main: GridResult,
    relabel: GridResult | None = None,
    ablation: AblationResult | None = None,
    vlf_fraction: float | None = None,
    config: VerdictConfig = VerdictConfig(),
) -> Verdict:
    """Deterministic decision over the named analyses.

    Requires both within-block and block-disjoint cells in ``main``;
    anything missing yields INCONCLUSIVE with one ``missing_analyses``
    finding.  Otherwise the evidence is, in order: ``within_block_best``,
    ``block_disjoint_best``, ``vlf_fraction``, ``relabel_within_block_best``
    and one ``highpass_drop_<cutoff>hz`` per cutoff, ascending (each of the
    last three only when its analysis is given), then one ``rule``.  The
    rules are tried in order and the first that holds decides:
    CONTAMINATED when some within-block cell is high (>= ``high_multiple``
    x chance, p < alpha) while every block-disjoint cell sits at chance;
    CLEAN_SIGNAL when both regimes' best cells are above chance and agree
    within ``comparable_points``; NO_SIGNAL when both regimes are at
    chance; else INCONCLUSIVE.  When some cell of ``main`` failed, the
    evidence ends with a ``failed_cells`` finding: their count, and the
    first one's label and error.
    """
    wb = main.by_regime(splits_mod.WITHIN_BLOCK)
    bd = main.by_regime(splits_mod.BLOCK_DISJOINT)
    missing = [
        regime
        for regime, cells in ((splits_mod.WITHIN_BLOCK, wb),
                              (splits_mod.BLOCK_DISJOINT, bd))
        if not cells
    ]
    if missing:
        return Verdict(
            status=VerdictStatus.INCONCLUSIVE,
            evidence=(
                Finding(
                    name="missing_analyses",
                    value=", ".join(missing),
                    detail="required split regimes absent or all-failed",
                ),
                *_failed_cells(main),
            ),
        )

    wb_best = main.best_cell(splits_mod.WITHIN_BLOCK)
    bd_best = main.best_cell(splits_mod.BLOCK_DISJOINT)
    evidence = [
        _best_finding("within_block_best", wb_best),
        _best_finding("block_disjoint_best", bd_best),
    ]
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
                _best_finding("relabel_within_block_best", rl,
                              prefix="block-identity labels, ", chance=False)
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

    wb_cell, bd_cell = wb_best[1], bd_best[1]
    wb_all_chance = all(not _above_chance(c, config) for c in wb.values())
    bd_all_chance = all(not _above_chance(c, config) for c in bd.values())
    # (status, holds, rule, detail); the first row that holds decides
    rules = (
        (VerdictStatus.CONTAMINATED,
         any(_high(c, config) for c in wb.values()) and bd_all_chance,
         "within_block high, block_disjoint at chance",
         f"high >= {config.high_multiple}x chance at alpha={config.alpha}"),
        (VerdictStatus.CLEAN_SIGNAL,
         _above_chance(wb_cell, config) and _above_chance(bd_cell, config)
         and abs(wb_cell.accuracy - bd_cell.accuracy) <= config.comparable_points,
         "both regimes above chance and comparable",
         f"|delta| <= {config.comparable_points}"),
        (VerdictStatus.NO_SIGNAL,
         wb_all_chance and bd_all_chance,
         "both regimes at chance",
         f"alpha={config.alpha}"),
        (VerdictStatus.INCONCLUSIVE,
         True,
         "no decision rule matched",
         "mixed evidence; inspect the grid"),
    )
    status, _, rule, detail = next(row for row in rules if row[1])
    evidence.append(Finding(name="rule", value=rule, detail=detail))
    evidence.extend(_failed_cells(main))
    return Verdict(status=status, evidence=tuple(evidence))
