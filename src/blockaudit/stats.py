"""Scoring of a grid cell's test predictions, per trial and with one majority
vote per test block; every count is one :func:`tally`."""
from __future__ import annotations

import numpy as np
from scipy import stats as _stats


def tally(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``shape`` int64 counts of the ``(rows[i], cols[i])`` pairs."""
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return counts


def confusion(truth: np.ndarray, preds: np.ndarray, num_classes: int) -> np.ndarray:
    """(num_classes, num_classes) counts of (true, predicted) pairs."""
    return tally(truth, preds, (num_classes, num_classes))


def block_votes(truth: np.ndarray, preds: np.ndarray, blocks: np.ndarray,
                num_classes: int) -> tuple[int, int] | None:
    """(n blocks, n blocks whose majority vote is their true label; a tie
    votes the smallest class), or None when some block mixes true labels."""
    ids, rows = np.unique(blocks, return_inverse=True)
    labels = tally(rows, truth, (ids.size, num_classes))
    if (np.count_nonzero(labels, axis=1) > 1).any():
        return None
    votes = tally(rows, preds, labels.shape).argmax(axis=1)
    return ids.size, int(np.count_nonzero(votes == labels.argmax(axis=1)))


def binomial_p_vs_chance(n_correct: int, n_test: int, chance: float) -> float:
    """Exact two-sided binomial test p-value against the chance rate."""
    return float(_stats.binomtest(n_correct, n_test, chance).pvalue)
