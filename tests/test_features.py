import numpy as np
import pytest

from blockaudit import (
    ChannelRanking,
    TrialMatrix,
    crop_windows,
    fisher_scores,
    order_channels,
    select_channels,
)
from blockaudit.features import DegenerateChannelWarning


def matrix(trials, labels, rate=1000.0):
    trials = np.asarray(trials, dtype=np.float64)
    n = trials.shape[0]
    return TrialMatrix(
        trials=trials,
        labels=np.asarray(labels, dtype=np.int64),
        block_ids=np.zeros(n, dtype=np.int64),
        subject_ids=np.array(["s"] * n),
        window_samples=trials.shape[2],
        sample_rate=rate,
    )


def fisher_oracle(features, labels):
    """Direct per-column evaluation: sum_c n_c (mu_c - mu)^2 over
    sum_c n_c var_c, population variances, plain Python loops."""
    n, d = features.shape
    scores = []
    for v in range(d):
        col = features[:, v]
        mu = sum(col) / n
        num = 0.0
        den = 0.0
        for c in sorted(set(labels.tolist())):
            vals = [col[i] for i in range(n) if labels[i] == c]
            nc = len(vals)
            mc = sum(vals) / nc
            num += nc * (mc - mu) ** 2
            den += nc * sum((x - mc) ** 2 for x in vals) / nc
        scores.append(num / den if den else 0.0)
    return np.array(scores)


class TestFisher:
    def test_worked_example(self):
        # class A values {0,1}, class B {2,3}: numerator 4, denominator 1
        trials = np.array([[[0.0]], [[1.0]], [[2.0]], [[3.0]]])
        tm = matrix(trials, [0, 0, 1, 1])
        ranking = fisher_scores(tm)
        assert ranking.scores[0] == pytest.approx(4.0)

    def test_equal_class_means_score_zero(self):
        trials = np.array([[[0.0]], [[2.0]], [[1.0]], [[1.0]]])
        tm = matrix(trials, [0, 0, 1, 1])
        assert fisher_scores(tm).scores[0] == pytest.approx(0.0)

    def test_matches_direct_oracle(self):
        # acceptance-grade equivalence on many small random datasets
        rng = np.random.default_rng(0)
        for trial in range(100):
            classes = rng.integers(2, 6)
            channels = rng.integers(1, 11)
            n = int(rng.integers(classes * 2, 40))
            labels = np.concatenate(
                [np.arange(classes), rng.integers(0, classes, n - classes)]
            )
            trials = rng.standard_normal((n, channels, 4))
            tm = matrix(trials, labels)
            got = fisher_scores(tm).scores
            want = fisher_oracle(trials.mean(axis=2), labels)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_float32_window_means_match_float64_copy(self):
        # window means are taken in float64 without a float64 copy of the
        # stack; the scores equal those of the copied stack bit for bit
        rng = np.random.default_rng(14)
        stack = (50.0 + rng.standard_normal((60, 8, 451))).astype(np.float32)
        labels = np.arange(60) % 4
        tm = TrialMatrix(
            trials=stack, labels=labels, block_ids=np.zeros(60, dtype=np.int64),
            subject_ids=np.array(["s"] * 60), window_samples=451,
            sample_rate=1024.0,
        )
        copied_means = stack.astype(np.float64).mean(axis=2)
        want = fisher_scores(matrix(copied_means[:, :, None], labels))
        got = fisher_scores(tm)
        assert got.scores.tobytes() == want.scores.tobytes()
        np.testing.assert_array_equal(got.order, want.order)

    def test_random_labels_scores_small(self):
        # permutation oracle: with random labels and many trials the max
        # score stays below the null threshold estimated by permutation
        rng = np.random.default_rng(1)
        trials = rng.standard_normal((400, 6, 8))
        labels = rng.integers(0, 4, 400)
        observed = fisher_scores(matrix(trials, labels)).scores.max()
        null_max = []
        feats = trials.mean(axis=2)
        for _ in range(50):
            null_max.append(
                fisher_oracle(feats, rng.permutation(labels)).max()
            )
        assert observed <= np.quantile(null_max, 0.99) * 2.0

    def test_degenerate_channel_ranked_last(self):
        rng = np.random.default_rng(2)
        trials = rng.standard_normal((8, 3, 1))
        trials[:, 1, :] = 5.0  # constant channel: zero within-class variance
        tm = matrix(trials, [0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.warns(DegenerateChannelWarning):
            ranking = fisher_scores(tm)
        assert ranking.order[-1] == 1
        assert ranking.scores[1] == 0.0
        assert np.isfinite(ranking.scores).all()

    def test_needs_two_classes(self):
        tm = matrix(np.zeros((3, 2, 4)), [0, 0, 0])
        with pytest.raises(ValueError, match="2 classes"):
            fisher_scores(tm)

    def test_ties_break_to_lower_index(self):
        trials = np.zeros((4, 3, 2))
        trials[:, 0, :] = [[0], [1], [2], [3]]
        trials[:, 1, :] = [[0], [1], [2], [3]]  # identical to channel 0
        trials[:, 2, :] = [[0], [1], [2], [3]]
        tm = matrix(trials, [0, 0, 1, 1])
        order = fisher_scores(tm).order
        np.testing.assert_array_equal(order, [0, 1, 2])


class TestSelectChannels:
    @staticmethod
    def _ordered(seed=4):
        """(unordered trials, ranking, the matrix put in ranking order)"""
        rng = np.random.default_rng(seed)
        trials = rng.standard_normal((10, 5, 3))
        labels = rng.integers(0, 2, 10)
        labels[:2] = [0, 1]
        tm = matrix(trials.copy(), labels)
        ranking = fisher_scores(tm)
        order_channels(tm, ranking)
        return trials, ranking, tm

    def test_full_selection_is_rank_permutation(self):
        trials, ranking, tm = self._ordered()
        out = select_channels(tm, 5)
        np.testing.assert_array_equal(out.trials, trials[:, ranking.order, :])
        assert np.shares_memory(out.trials, tm.trials)  # no copy

    @pytest.mark.parametrize("m", [1, 3])
    def test_prefix_of_ordered_stack_equals_take(self, m):
        trials, ranking, tm = self._ordered()
        out = select_channels(tm, m)
        assert np.array_equal(out.trials, np.take(trials, ranking.order[:m], axis=1))
        assert out.trials.flags.c_contiguous and not out.trials.flags.writeable
        assert not np.shares_memory(out.trials, tm.trials)

    def test_single_best_channel(self):
        trials = np.zeros((6, 2, 2))
        trials[:3, 1, :] = 10.0  # channel 1 separates the classes
        tm = matrix(trials + np.random.default_rng(5).normal(0, 0.1, (6, 2, 2)),
                    [0, 0, 0, 1, 1, 1])
        ranking = fisher_scores(tm)
        best = tm.trials[:, 1].copy()
        order_channels(tm, ranking)
        out = select_channels(tm, 1)
        assert out.channels == 1
        assert ranking.order[0] == 1
        np.testing.assert_array_equal(out.trials[:, 0], best)

    def test_nested_selection_consistent(self):
        rng = np.random.default_rng(6)
        trials = rng.standard_normal((20, 6, 2))
        labels = rng.integers(0, 3, 20)
        labels[:3] = [0, 1, 2]
        tm = matrix(trials, labels)
        order_channels(tm, fisher_scores(tm))
        # top-3 of the top-5 equals top-3 directly
        three_direct = select_channels(tm, 3)
        three_nested = select_channels(select_channels(tm, 5), 3)
        np.testing.assert_array_equal(three_direct.trials, three_nested.trials)

    def test_m_out_of_range(self):
        tm = matrix(np.zeros((2, 2, 2)), [0, 1])
        with pytest.raises(ValueError, match="out of range"):
            select_channels(tm, 3)
        with pytest.raises(ValueError, match="out of range"):
            select_channels(tm, 0)


class TestOrderChannels:
    def test_reorders_every_trial_and_stays_read_only(self):
        rng = np.random.default_rng(8)
        trials = rng.standard_normal((7, 4, 5)).astype(np.float32)
        tm = matrix(trials, [0, 1] * 3 + [0]).replace(trials=trials.copy())
        ranking = ChannelRanking(scores=np.arange(4.0), order=[2, 0, 3, 1])
        stack = tm.trials
        order_channels(tm, ranking)
        assert tm.trials is stack
        assert np.array_equal(stack, trials[:, [2, 0, 3, 1]])
        assert not stack.flags.writeable

    def test_ranking_of_another_width_raises(self):
        tm = matrix(np.zeros((2, 3, 2)), [0, 1])
        ranking = ChannelRanking(scores=np.zeros(2), order=[1, 0])
        with pytest.raises(ValueError, match="channel count"):
            order_channels(tm, ranking)

    def test_view_of_another_stack_raises(self):
        # a prefix view shares the stack it came from; reordering it would
        # write through to a matrix another caller holds
        tm = matrix(np.arange(12.0).reshape(2, 3, 2), [0, 1])
        view = tm.replace(trials=tm.trials[:, :3])
        ranking = ChannelRanking(scores=np.zeros(3), order=[2, 1, 0])
        with pytest.raises(ValueError, match="owns its data"):
            order_channels(view, ranking)
        np.testing.assert_array_equal(tm.trials, np.arange(12.0).reshape(2, 3, 2))


class TestCropWindows:
    def test_identity_crop(self):
        rng = np.random.default_rng(8)
        tm = matrix(rng.standard_normal((5, 2, 40)), rng.integers(0, 2, 5))
        out = crop_windows(tm, 40.0, seed=0)
        assert out is tm

    def test_full_width_in_samples_is_identity(self):
        # 440 ms at 1024 Hz is 451 samples (440.43 ms): the same width as a
        # 440 ms cut, so the crop is the cut itself, not a copy
        rng = np.random.default_rng(13)
        tm = matrix(rng.standard_normal((3, 2, 451)), [0, 1, 0], rate=1024.0)
        assert 440.0 < tm.window_samples / tm.sample_rate * 1000.0
        assert crop_windows(tm, 440.0, seed=3) is tm

    def test_random_crop_is_per_trial_slice(self):
        rng = np.random.default_rng(12)
        tm = matrix(rng.standard_normal((6, 3, 40)), rng.integers(0, 2, 6))
        out = crop_windows(tm, 15.0, seed=4)
        starts = np.random.default_rng(4).integers(0, 26, size=6)
        want = [t[:, s : s + 15] for t, s in zip(tm.trials, starts)]
        np.testing.assert_array_equal(out.trials, want)

    def test_single_sample_window(self):
        rng = np.random.default_rng(9)
        tm = matrix(rng.standard_normal((5, 2, 440)), rng.integers(0, 2, 5))
        out = crop_windows(tm, 1.0, seed=0)
        assert out.window_samples == 1

    def test_random_offsets_deterministic(self):
        rng = np.random.default_rng(10)
        tm = matrix(rng.standard_normal((20, 2, 50)), rng.integers(0, 2, 20))
        a = crop_windows(tm, 20.0, seed=5)
        b = crop_windows(tm, 20.0, seed=5)
        np.testing.assert_array_equal(a.trials, b.trials)
        c = crop_windows(tm, 20.0, seed=6)
        assert not np.array_equal(a.trials, c.trials)

    def test_offsets_cover_valid_range(self):
        tm = matrix(np.tile(np.arange(30.0), (300, 1, 1)), np.zeros(300))
        out = crop_windows(tm, 10.0, seed=1)
        starts = out.trials[:, 0, 0]
        assert starts.min() == 0.0 and starts.max() == 20.0

    def test_window_too_long(self):
        tm = matrix(np.zeros((2, 1, 10)), [0, 1])
        with pytest.raises(ValueError, match="exceeds"):
            crop_windows(tm, 20.0, seed=0)
