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


def _search(a: np.ndarray, d: float, lo: int, hi: int) -> int:
    """The index i in lo..hi with ``a[i] <= d < a[i + 1]``, by the
    comparisons of scipy's ``_binary_search_for_binom_tst``; ``a`` ascends
    over lo..hi."""
    while lo < hi:
        mid = lo + (hi - lo) // 2
        if a[mid] < d:
            lo = mid + 1
        elif a[mid] > d:
            hi = mid - 1
        else:
            return mid
    return lo if a[lo] <= d else lo - 1


def binomial_p_vs_chance(n_correct: int, n_test: int, chance: float) -> float:
    """Exact two-sided binomial test p-value against the chance rate.

    Bit for bit ``scipy.stats.binomtest(n_correct, n_test, chance).pvalue``:
    scipy's two-sided search for the far tail runs over one ``binom.pmf``
    call on 0..n, and one ``binom.cdf`` and one ``binom.sf`` call sum the
    two tails.
    """
    k, n, p = n_correct, n_test, chance
    if not (0 <= k <= n and n >= 1 and 0 <= p <= 1):
        raise ValueError(f"binomial test of {k} of {n} at chance {p!r} needs "
                         "0 <= n_correct <= n_test, n_test >= 1 and chance in [0, 1]")
    if k == p * n:
        return 1.0
    binom = _stats.binom
    pmf = binom.pmf(np.arange(n + 1), n, p)
    d = pmf[k] * (1 + 1e-7)  # scipy's relative tolerance
    if k < p * n:
        # the first index above the mode whose pmf is <= d starts the far tail
        ix = _search(-pmf, -d, int(np.ceil(p * n)), n)
        far = n - ix + int(d == pmf[ix])
        pval = binom.cdf(k, n, p) + binom.sf(n - far, n, p)
    else:
        # the last index below the mode whose pmf is <= d ends the far tail
        ix = _search(pmf, d, 0, int(np.floor(p * n)))
        pval = binom.cdf(ix, n, p) + binom.sf(k - 1, n, p)
    return float(min(1.0, pval))
