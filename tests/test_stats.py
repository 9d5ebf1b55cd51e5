import numpy as np
import pytest
from scipy import stats as scipy_stats

from blockaudit import stats


def block_votes_oracle(truth, preds, blocks, num_classes):
    """One block at a time: its single true label, and its vote counted."""
    n_blocks = n_right = 0
    for b in np.unique(blocks):
        rows = blocks == b
        labels = np.unique(truth[rows])
        if labels.size != 1:
            return None
        votes = [int(np.sum(preds[rows] == c)) for c in range(num_classes)]
        n_blocks += 1
        n_right += int(votes.index(max(votes)) == labels[0])
    return n_blocks, n_right


def pure_blocks(rng, n_blocks, num_classes, first_block=0):
    """(truth, preds, block ids) of blocks that each carry one true label."""
    sizes = rng.integers(1, 9, n_blocks)
    block_ids = np.repeat(np.arange(first_block, first_block + n_blocks), sizes)
    truth = np.repeat(rng.integers(0, num_classes, n_blocks), sizes)
    preds = rng.integers(0, num_classes, block_ids.size)
    order = rng.permutation(block_ids.size)  # rows of a block need not be adjacent
    return truth[order], preds[order], block_ids[order]


class TestTally:
    def test_counts_pairs(self):
        counts = stats.tally(np.array([0, 1, 1, 2, 1]), np.array([1, 0, 0, 2, 2]),
                             (3, 4))
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(
            counts, [[0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 1, 0]])

    def test_no_pairs(self):
        counts = stats.tally(np.array([], int), np.array([], int), (2, 3))
        np.testing.assert_array_equal(counts, np.zeros((2, 3)))


class TestConfusion:
    def test_rows_sum_to_class_counts(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 5, 200)
        preds = rng.integers(0, 5, 200)
        confusion = stats.confusion(truth, preds, 5)
        np.testing.assert_array_equal(confusion.sum(axis=1),
                                      np.bincount(truth, minlength=5))
        assert np.trace(confusion) == np.sum(truth == preds)


class TestBlockVotes:
    def test_mixed_block_is_undefined(self):
        truth = np.array([0, 0, 1, 1, 1])
        preds = np.array([0, 0, 1, 1, 1])
        blocks = np.array([0, 0, 1, 1, 0])  # block 0 holds labels 0 and 1
        assert stats.block_votes(truth, preds, blocks, 2) is None

    def test_tie_goes_to_the_smallest_class(self):
        truth = np.array([1, 1, 1, 1, 2, 2])
        preds = np.array([2, 1, 2, 1, 0, 2])
        blocks = np.array([3, 3, 3, 3, 7, 7])
        # block 3 ties 1 vs 2 -> 1, right; block 7 ties 0 vs 2 -> 0, wrong
        assert stats.block_votes(truth, preds, blocks, 3) == (2, 1)

    def test_no_rows(self):
        empty = np.array([], dtype=np.int64)
        assert stats.block_votes(empty, empty, empty, 4) == (0, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_block_by_block_count(self, seed):
        rng = np.random.default_rng(seed)
        truth, preds, blocks = pure_blocks(rng, 12, 4)
        assert (stats.block_votes(truth, preds, blocks, 4)
                == block_votes_oracle(truth, preds, blocks, 4))
        # one more row in the first row's block, with another true label
        truth = np.append(truth, (truth[0] + 1) % 4)
        preds = np.append(preds, 0)
        blocks = np.append(blocks, blocks[0])
        assert block_votes_oracle(truth, preds, blocks, 4) is None
        assert stats.block_votes(truth, preds, blocks, 4) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_disjoint_parts_pool_to_their_sum(self, seed):
        # block ids offset per part, as concat_trials and LOSO plans give them
        rng = np.random.default_rng(seed)
        parts, first = [], 0
        for n_blocks in rng.integers(1, 6, 3):
            parts.append(pure_blocks(rng, n_blocks, 3, first))
            first += int(n_blocks)
        each = [stats.block_votes(*part, 3) for part in parts]
        pooled = stats.block_votes(*map(np.concatenate, zip(*parts)), 3)
        assert pooled == (sum(n for n, _ in each), sum(r for _, r in each))


def test_binomial_p_vs_chance():
    assert stats.binomial_p_vs_chance(5, 10, 0.5) == 1.0
    assert stats.binomial_p_vs_chance(10, 10, 0.1) == pytest.approx(1e-10)


CLASS_COUNTS = (2, 3, 4, 6, 8, 10, 16, 20, 32, 40)


def _binomtest_cases():
    """(k, n, classes): every k of every n in 1..200, each n with one class
    count in turn (and every class count up to n = 30); then, for a few
    larger n, k in strides and around the chance count, for every class
    count."""
    for n in range(1, 201):
        counts = CLASS_COUNTS if n <= 30 else (CLASS_COUNTS[n % len(CLASS_COUNTS)],)
        for c in counts:
            for k in range(n + 1):
                yield k, n, c
    for n in (257, 400, 1000):
        for c in CLASS_COUNTS:
            near = range(max(0, n // c - 6), min(n, n // c + 6) + 1)
            for k in sorted(set(range(0, n + 1, 9)) | set(near) | {n}):
                yield k, n, c


def test_binomial_p_vs_chance_is_binomtest_bit_for_bit():
    mismatches = [
        (k, n, c) for k, n, c in _binomtest_cases()
        if stats.binomial_p_vs_chance(k, n, 1.0 / c)
        != scipy_stats.binomtest(k, n, 1.0 / c).pvalue
    ]
    assert mismatches == []


@pytest.mark.parametrize("k, n, chance", [(-1, 5, 0.5), (6, 5, 0.5),
                                          (0, 0, 0.5), (2, 5, 1.5)])
def test_binomial_p_vs_chance_rejects_what_binomtest_rejects(k, n, chance):
    with pytest.raises(ValueError):
        scipy_stats.binomtest(k, n, chance)
    with pytest.raises(ValueError):
        stats.binomial_p_vs_chance(k, n, chance)
