"""Window cropping and Fisher-score channel ranking.

These are the two ablation axes of the audit grid: shrink the analysis
window (at a random per-trial offset) and restrict to the channels that
look most class-discriminative on the training set.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import TrialMatrix


class DegenerateChannelWarning(UserWarning):
    """A channel had zero within-class variance everywhere; ranked last."""


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


def crop_windows(trials: TrialMatrix, window_ms: float, seed: int) -> TrialMatrix:
    """Reduce every trial to a ``window_ms`` window at a random offset.

    A window as wide in samples as the trials returns ``trials`` itself.
    Otherwise each trial's start is drawn i.i.d. uniform over the admissible
    range from ``seed``, so a fixed seed reproduces the exact same crops.
    """
    rate = trials.sample_rate
    width = int(round(window_ms * rate / 1000.0))
    if width < 1:
        raise ValueError(f"window of {window_ms} ms is empty at {rate} Hz")
    if width > trials.window_samples:
        raise ValueError(
            f"window {width} samples exceeds trial length {trials.window_samples}"
        )
    if width == trials.window_samples:
        return trials
    max_start = trials.window_samples - width
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, max_start + 1, size=trials.num_trials, dtype=np.int64)
    # (N, ch, max_start + 1, width) view; one gather picks each trial's start
    windows = np.lib.stride_tricks.sliding_window_view(trials.trials, width, axis=2)
    cropped = windows[np.arange(trials.num_trials), :, starts]
    return trials.replace(trials=cropped, window_samples=width)


def fisher_scores(trials: TrialMatrix) -> ChannelRanking:
    """Rank channels by the Fisher score of their mean over the window.

    With drifting data the window mean is the feature the contamination
    lives in.  score = sum_c n_c (mu_c - mu)^2 / sum_c n_c var_c with
    population variances.  Degenerate channels (zero within-class variance)
    are given score 0 and ranked after all others; remaining ties break
    toward the lower channel index.  Call this on training trials only.
    """
    if trials.num_trials == 0:
        raise ValueError("empty trial matrix")
    labels = trials.labels
    if np.unique(labels).size < 2:
        raise ValueError("Fisher ranking needs at least 2 classes")
    x = trials.trials.mean(axis=2, dtype=np.float64)
    mu = x.mean(axis=0)
    num = np.zeros(x.shape[1])
    den = np.zeros(x.shape[1])
    for c in np.unique(labels):
        xc = x[labels == c]
        nc = xc.shape[0]
        num += nc * (xc.mean(axis=0) - mu) ** 2
        den += nc * xc.var(axis=0)  # population
    degenerate = den == 0.0
    scores = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, den))
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


def order_channels(trials: TrialMatrix, ranking: ChannelRanking) -> None:
    """Put the channels of ``trials`` in ranking order, in place.

    Rewrites the stack one trial at a time, through a (channels, W)
    temporary, so no second stack is made.  Pass only rows gathered for
    this use (``dsp.zscore``'s results, say), never a matrix another caller
    holds; a stack that is a view of another array raises ValueError.
    """
    if ranking.order.size != trials.channels:
        raise ValueError("ranking does not match this matrix's channel count")
    x = trials.trials
    if not x.flags.owndata:
        raise ValueError("order_channels needs a stack that owns its data")
    x.setflags(write=True)
    try:
        for trial in x:
            trial[...] = trial[ranking.order]
    finally:
        x.setflags(write=False)


def select_channels(trials: TrialMatrix, m: int) -> TrialMatrix:
    """Keep the first m channels, the top m once :func:`order_channels` has
    put them in ranking order.  All channels share the stack, uncopied."""
    if not 1 <= m <= trials.channels:
        raise ValueError(f"m={m} out of range 1..{trials.channels}")
    # the prefix is a view; TrialMatrix copies it into a C-contiguous stack
    # unless it is all channels, which is contiguous already
    return trials.replace(trials=trials.trials[:, :m])
