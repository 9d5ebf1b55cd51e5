"""Window cropping and Fisher-score channel ranking.

These are the two ablation axes of the audit grid: shrink the analysis
window (optionally at a random per-trial offset) and restrict to the
channels that look most class-discriminative on the training set.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import TrialMatrix


class DegenerateChannelWarning(UserWarning):
    """A channel had zero within-class variance everywhere; ranked last."""


@dataclass(frozen=True)
class WindowPolicy:
    """How to place a sub-window inside each trial.

    ``mode="fixed"`` starts every trial's window at ``offset_ms``;
    ``mode="random_uniform"`` draws an i.i.d. uniform offset per trial from
    the valid range, seeded for reproducibility.
    """

    window_ms: float
    mode: str = "fixed"
    offset_ms: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.window_ms <= 0:
            raise ValueError("window_ms must be > 0")
        if self.mode not in ("fixed", "random_uniform"):
            raise ValueError(f"unknown offset mode {self.mode!r}")
        if self.mode == "random_uniform" and self.seed is None:
            raise ValueError("random_uniform policy needs a seed")
        if self.mode == "fixed" and self.offset_ms < 0:
            raise ValueError("offset_ms must be >= 0")

    @classmethod
    def fixed(cls, window_ms: float, offset_ms: float = 0.0) -> "WindowPolicy":
        return cls(window_ms=window_ms, mode="fixed", offset_ms=offset_ms)

    @classmethod
    def random(cls, window_ms: float, seed: int) -> "WindowPolicy":
        return cls(window_ms=window_ms, mode="random_uniform", seed=seed)


@dataclass(frozen=True)
class ChannelRanking:
    """Per-channel Fisher scores plus the channel order, best first."""

    scores: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        order = np.asarray(self.order, dtype=np.int64)
        if scores.ndim != 1 or order.shape != scores.shape:
            raise ValueError("scores and order must be 1-D and same length")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if not np.array_equal(np.sort(order), np.arange(scores.size)):
            raise ValueError("order must be a permutation of channel indices")
        scores.setflags(write=False)
        order.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "order", order)


def crop_windows(trials: TrialMatrix, policy: WindowPolicy) -> TrialMatrix:
    """Reduce every trial to the policy's window.

    Random offsets are drawn i.i.d. uniform over the admissible range from
    the policy seed, so a fixed seed reproduces the exact same crops.
    """
    rate = trials.sample_rate
    width = int(round(policy.window_ms * rate / 1000.0))
    if width < 1:
        raise ValueError(f"window of {policy.window_ms} ms is empty at {rate} Hz")
    if width > trials.window_samples:
        raise ValueError(
            f"window {width} samples exceeds trial length {trials.window_samples}"
        )
    n = trials.num_trials
    max_start = trials.window_samples - width
    if policy.mode == "fixed":
        start = int(round(policy.offset_ms * rate / 1000.0))
        if start > max_start:
            raise ValueError("fixed offset pushes the window past the trial end")
        starts = np.full(n, start, dtype=np.int64)
    else:
        rng = np.random.default_rng(policy.seed)
        starts = rng.integers(0, max_start + 1, size=n, dtype=np.int64)
    cols = starts[:, None] + np.arange(width)[None, :]
    cropped = trials.trials[
        np.arange(n)[:, None, None],
        np.arange(trials.channels)[None, :, None],
        cols[:, None, :],
    ]
    return trials.replace(trials=cropped, window_samples=width)


def _fisher_from_features(x: np.ndarray, labels: np.ndarray):
    """Fisher score per column of a trials x features matrix.

    score = sum_c n_c (mu_c - mu)^2 / sum_c n_c var_c with population
    variances.  Returns (scores, degenerate_mask); degenerate columns (zero
    denominator) get score 0.
    """
    classes = np.unique(labels)
    mu = x.mean(axis=0)
    num = np.zeros(x.shape[1])
    den = np.zeros(x.shape[1])
    for c in classes:
        xc = x[labels == c]
        nc = xc.shape[0]
        num += nc * (xc.mean(axis=0) - mu) ** 2
        den += nc * xc.var(axis=0)  # population
    degenerate = den == 0.0
    scores = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, den))
    return scores, degenerate


def fisher_scores(
    trials: TrialMatrix, feature: str = "window_mean"
) -> ChannelRanking:
    """Rank channels by Fisher score of a per-channel scalar feature.

    ``feature="window_mean"`` scores each channel's mean amplitude over the
    analysis window (the default; with drifting data this is the feature the
    contamination lives in).  ``feature="per_sample"`` scores every
    channel-time point and averages the scores over time per channel.

    Degenerate channels (zero within-class variance everywhere) are given
    score 0 and ranked after all others; remaining ties break toward the
    lower channel index.  Call this on training trials only.
    """
    if trials.num_trials == 0:
        raise ValueError("empty trial matrix")
    labels = trials.labels
    if np.unique(labels).size < 2:
        raise ValueError("Fisher ranking needs at least 2 classes")
    x = trials.trials.astype(np.float64, copy=False)
    if feature == "window_mean":
        scores, degenerate = _fisher_from_features(x.mean(axis=2), labels)
    elif feature == "per_sample":
        n, ch, w = x.shape
        per_point, deg_points = _fisher_from_features(
            x.reshape(n, ch * w), labels
        )
        per_point = per_point.reshape(ch, w)
        deg_points = deg_points.reshape(ch, w)
        scores = per_point.mean(axis=1)
        degenerate = deg_points.all(axis=1)
    else:
        raise ValueError(f"unknown fisher feature {feature!r}")
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} degenerate channel(s) ranked last",
            DegenerateChannelWarning,
            stacklevel=2,
        )
    # primary: score desc; then non-degenerate first; then low channel index
    order = np.lexsort(
        (np.arange(scores.size), degenerate.astype(int), -scores)
    )
    return ChannelRanking(scores=scores, order=order)


def select_channels(
    trials: TrialMatrix, ranking: ChannelRanking, m: int
) -> TrialMatrix:
    """Keep the top-m channels of the ranking, in ranking order."""
    if not 1 <= m <= trials.channels:
        raise ValueError(f"m={m} out of range 1..{trials.channels}")
    if ranking.order.size != trials.channels:
        raise ValueError("ranking does not match this matrix's channel count")
    # np.take writes a C-contiguous result; trials[:, top, :] would not be,
    # and TrialMatrix would copy it a second time to make it so
    return trials.replace(trials=np.take(trials.trials, ranking.order[:m], axis=1))
