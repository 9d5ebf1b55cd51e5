from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockaudit import (
    SplitPlan,
    TrialEvent,
    TrialMatrix,
    concat_trials,
    loso_round_robin,
    relabel_blocks,
    segment,
    split_block_disjoint,
    split_within_block,
)

from conftest import make_session


def matrix(labels, blocks, subjects=None, seed=0):
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    rng = np.random.default_rng(seed)
    return TrialMatrix(
        trials=rng.standard_normal((n, 2, 4)),
        labels=labels,
        block_ids=np.asarray(blocks, dtype=np.int64),
        subject_ids=np.array(subjects if subjects is not None else ["s"] * n),
        window_samples=4,
        sample_rate=100.0,
    )


def block_design(n_classes, blocks_per_class, trials_per_block):
    labels, blocks = [], []
    b = 0
    for c in range(n_classes):
        for _ in range(blocks_per_class):
            labels += [c] * trials_per_block
            blocks += [b] * trials_per_block
            b += 1
    return matrix(labels, blocks)


def left_out(plan):
    """The rows a plan neither trains nor tests on: the dealt middle share."""
    return np.setdiff1d(np.arange(plan.num_trials),
                        np.union1d(plan.train, plan.test))


def largest_remainder_oracle(n, fractions):
    """Floor allocation plus one-by-one assignment of leftovers to the
    largest remainders (any tie order)."""
    quotas = [n * f for f in fractions]
    counts = [int(q) for q in quotas]
    order = sorted(range(3), key=lambda i: quotas[i] - counts[i], reverse=True)
    for i in range(n - sum(counts)):
        counts[order[i]] += 1
    return counts


class TestWithinBlock:
    def test_fifty_trial_blocks_split_40_5_5(self):
        tm = block_design(4, 1, 50)
        (plan,) = split_within_block(tm, (0.8, 0.1, 0.1), seed=0)
        for b in range(4):
            rows = np.flatnonzero(tm.block_ids == b)
            assert np.intersect1d(plan.train, rows).size == 40
            assert np.intersect1d(left_out(plan), rows).size == 5
            assert np.intersect1d(plan.test, rows).size == 5

    def test_every_test_block_in_train(self):
        tm = block_design(5, 2, 7)
        (plan,) = split_within_block(tm, (0.6, 0.2, 0.2), seed=1)
        train_blocks = set(tm.block_ids[plan.train])
        for t in plan.test:
            assert tm.block_ids[t] in train_blocks

    def test_deterministic(self):
        tm = block_design(3, 2, 10)
        (a,) = split_within_block(tm, (0.8, 0.1, 0.1), seed=7)
        (b,) = split_within_block(tm, (0.8, 0.1, 0.1), seed=7)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_rounding_matches_largest_remainder(self):
        tm = block_design(1, 1, 13)
        (plan,) = split_within_block(tm, (0.6, 0.2, 0.2), seed=2)
        counts = sorted([plan.train.size, left_out(plan).size, plan.test.size],
                        reverse=True)
        oracle = sorted(largest_remainder_oracle(13, (0.6, 0.2, 0.2)),
                        reverse=True)
        assert counts == oracle

    def test_small_block_rejected(self):
        tm = matrix([0, 1, 0], [0, 0, 1])
        with pytest.raises(ValueError, match=">= 3"):
            split_within_block(tm, (0.8, 0.1, 0.1), seed=0)

    def test_bad_fractions(self):
        tm = block_design(2, 1, 10)
        with pytest.raises(ValueError, match="fractions"):
            split_within_block(tm, (0.5, 0.2, 0.2), seed=0)


class TestBlockDisjoint:
    def test_three_singleton_class_blocks(self):
        tm = block_design(1, 3, 4)
        (plan,) = split_block_disjoint(tm, (1 / 3, 1 / 3, 1 / 3), seed=0)
        assert plan.train.size == left_out(plan).size == plan.test.size == 4

    def test_block_ids_disjoint_across_partitions(self):
        tm = block_design(4, 4, 5)
        (plan,) = split_block_disjoint(tm, (0.5, 0.25, 0.25), seed=3)
        tr = set(tm.block_ids[plan.train])
        va = set(tm.block_ids[left_out(plan)])
        te = set(tm.block_ids[plan.test])
        assert tr & te == set() and tr & va == set() and va & te == set()

    def test_stratified_every_class_in_train(self):
        tm = block_design(6, 3, 4)
        (plan,) = split_block_disjoint(tm, (0.6, 0.2, 0.2), seed=4)
        assert set(tm.labels[plan.train]) == set(range(6))

    def test_rapid_event_40_blocks_32_4_4(self):
        rng = np.random.default_rng(5)
        labels = rng.permutation(np.repeat(np.arange(8), 40))
        blocks = np.repeat(np.arange(40), 8)
        tm = matrix(labels, blocks)
        (plan,) = split_block_disjoint(tm, (0.8, 0.1, 0.1), seed=5)
        assert len(set(tm.block_ids[plan.train])) == 32
        assert len(set(tm.block_ids[left_out(plan)])) == 4
        assert len(set(tm.block_ids[plan.test])) == 4

    def test_too_few_blocks_per_class(self):
        tm = block_design(3, 2, 5)
        with pytest.raises(ValueError, match=">= 3 blocks"):
            split_block_disjoint(tm, (0.6, 0.2, 0.2), seed=0)


class TestNoTestTrial:
    """A holdout whose fractions round every group's test share to 0 names
    the regime, the fractions and the largest group it dealt."""

    @pytest.mark.parametrize("split, tm, fractions, tail", [
        (split_within_block, block_design(2, 3, 3), (0.8, 0.1, 0.1),
         "a test share of 0.1 rounds to 0 on at most 3 trials per block"),
        # blocks of 3, 4 and 5 trials: the largest is named
        (split_within_block, matrix([0] * 12, [0] * 3 + [1] * 4 + [2] * 5),
         (0.9, 0.05, 0.05),
         "a test share of 0.05 rounds to 0 on at most 5 trials per block"),
        (split_block_disjoint, block_design(2, 3, 4), (0.8, 0.1, 0.1),
         "a test share of 0.1 rounds to 0 on at most 3 blocks per class"),
        # rapid-event: every block holds both classes, dealt as one group
        (split_block_disjoint, matrix([0, 1, 0] * 4, np.repeat(np.arange(4), 3)),
         (0.9, 0.05, 0.05),
         "a test share of 0.05 rounds to 0 on at most 4 blocks"),
    ], ids=["within_block", "within_block_mixed_sizes", "block_disjoint",
            "block_disjoint_rapid"])
    def test_message_names_regime_fractions_and_group_size(
        self, split, tm, fractions, tail
    ):
        regime = split.__name__.removeprefix("split_")
        want = (f"{regime} split with fractions {fractions} leaves no test "
                f"trial: {tail}")
        for seed in range(4):
            with pytest.raises(ValueError) as exc:
                split(tm, fractions, seed)
            assert str(exc.value) == want


class TestLeaveOneSubjectOut:
    def test_complement_pair(self):
        tm = matrix([0, 1, 0, 1], [0, 0, 1, 1],
                    subjects=["a", "a", "b", "b"])
        _, plan = loso_round_robin(tm)
        np.testing.assert_array_equal(plan.test, [2, 3])
        np.testing.assert_array_equal(plan.train, [0, 1])
        assert left_out(plan).size == 0

    def test_round_robin_covers_each_subject_once(self):
        subjects = ["a"] * 3 + ["b"] * 3 + ["c"] * 3
        tm = matrix([0, 1, 0] * 3, [0] * 3 + [1] * 3 + [2] * 3, subjects)
        plans = loso_round_robin(tm)
        assert [set(tm.subject_ids[p.test]) for p in plans] == [
            {"a"}, {"b"}, {"c"}]
        covered = np.sort(np.concatenate([p.test for p in plans]))
        np.testing.assert_array_equal(covered, np.arange(9))

    def test_needs_two_subjects(self):
        tm = matrix([0, 1], [0, 1], subjects=["a", "a"])
        with pytest.raises(ValueError, match="2 subjects"):
            loso_round_robin(tm)


class TestPlanInvariants:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SplitPlan(train=np.array([0, 1]), test=np.array([1]), num_trials=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            SplitPlan(train=np.array([0]), test=np.array([9]), num_trials=3)

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SplitPlan(train=np.array([0, 1]), test=np.array([], dtype=int),
                      num_trials=3)


@st.composite
def designs(draw):
    """A random block or rapid-event design, its subjects and a fraction
    triple: blocks of 3-6 trials, 3-5 blocks per class, 1-3 subjects
    assigned block by block."""
    n_classes = draw(st.integers(1, 4))
    per_class = draw(st.integers(3, 5))
    size = draw(st.integers(3, 6))
    rapid = n_classes > 1 and draw(st.booleans())
    n_blocks = n_classes * per_class
    if rapid:
        # every block holds every class
        labels = np.concatenate([
            np.resize(np.random.default_rng(b).permutation(n_classes), size)
            for b in range(n_blocks)
        ])
    else:
        labels = np.repeat(np.arange(n_classes), per_class * size)
    blocks = np.repeat(np.arange(n_blocks), size)
    owners = draw(st.lists(st.sampled_from("pqr"), min_size=n_blocks,
                           max_size=n_blocks))
    subjects = np.repeat(owners, size)
    weights = np.array(draw(st.tuples(*[st.integers(1, 4)] * 3)), dtype=float)
    return matrix(labels, blocks, subjects), tuple(weights / weights.sum())


def check_plan(plan, tm):
    for part in (plan.train, plan.test):
        assert part.size and np.all(np.diff(part) > 0)
        assert part.min() >= 0 and part.max() < tm.num_trials
    assert np.intersect1d(plan.train, plan.test).size == 0
    assert plan.num_trials == tm.num_trials


class TestPlanProperties:
    @settings(max_examples=60, deadline=None)
    @given(designs(), st.integers(0, 2**32 - 1))
    def test_holdout_regimes_return_one_plan(self, design, seed):
        tm, fractions = design
        for split in (split_within_block, split_block_disjoint):
            try:
                plans = split(tm, fractions, seed)
            except ValueError as exc:
                # a deal that leaves every test share empty
                assert "leaves no test trial" in str(exc)
                continue
            (plan,) = plans
            check_plan(plan, tm)
            train_blocks = set(tm.block_ids[plan.train])
            test_blocks = set(tm.block_ids[plan.test])
            if split is split_within_block:
                assert test_blocks <= train_blocks
            else:
                sides = (plan.train, plan.test, left_out(plan))
                for b in np.unique(tm.block_ids):
                    rows = np.flatnonzero(tm.block_ids == b)
                    assert sum(np.isin(rows, side).all() for side in sides) == 1

    @settings(max_examples=60, deadline=None)
    @given(designs())
    def test_loso_holds_out_each_subject_once(self, design):
        tm, _ = design
        names = sorted(set(tm.subject_ids))
        if len(names) < 2:
            with pytest.raises(ValueError, match="2 subjects"):
                loso_round_robin(tm)
            return
        plans = loso_round_robin(tm)
        assert len(plans) == len(names)
        for plan, name in zip(plans, names):
            check_plan(plan, tm)
            np.testing.assert_array_equal(
                plan.test, np.flatnonzero(tm.subject_ids == name))
            np.testing.assert_array_equal(
                plan.train, np.flatnonzero(tm.subject_ids != name))


def session(labels, blocks, subject="s", seed=0):
    """A 2-channel session of 4-sample trials at 100 Hz, one per label."""
    events = [
        TrialEvent(i, int(c), int(b), 4 * i, 4)
        for i, (c, b) in enumerate(zip(labels, blocks))
    ]
    return make_session(channels=2, total=4 * len(events), events=events,
                        seed=seed, subject=subject)


def relabeled_labels(sessions):
    return [[ev.class_label for ev in s.events]
            for s in relabel_blocks(sessions)]


class TestRelabelBlocks:
    def test_block_design_is_renaming(self):
        tm = block_design(3, 1, 4)
        (labels,) = relabeled_labels([session(tm.labels, tm.block_ids)])
        labels = np.asarray(labels)
        # same partition of trials, up to label names
        for b in range(3):
            assert np.unique(labels[tm.block_ids == b]).size == 1
        assert np.unique(labels).size == 3

    def test_rapid_event_labels_become_block_ids(self):
        labels = [0, 1, 2, 0, 1, 2]
        blocks = [0, 0, 0, 1, 1, 1]
        assert relabeled_labels([session(labels, blocks)]) == [[0, 0, 0, 1, 1, 1]]

    def test_data_bit_exact(self):
        tm = block_design(2, 2, 3)
        original = session(tm.labels, tm.block_ids)
        (out,) = relabel_blocks([original])
        assert out.samples.tobytes() == original.samples.tobytes()
        assert (out.sample_rate, out.subject_id) == (
            original.sample_rate, original.subject_id)
        # every event field but the label is kept
        assert [replace(ev, class_label=0) for ev in out.events] == [
            replace(ev, class_label=0) for ev in original.events]

    def test_single_block_yields_one_class(self):
        assert relabeled_labels([session([0, 1, 2], [7, 7, 7])]) == [[0, 0, 0]]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(
            st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True),
            st.lists(st.integers(1, 3), min_size=4, max_size=4),
            st.lists(st.integers(0, 3), min_size=12, max_size=12),
        ),
        min_size=1, max_size=3,
    ))
    def test_pooled_labels_are_dense_pooled_block_ids(self, layouts):
        # per session: its block ids in onset order, each block's size and
        # the trials' stimulus labels
        sessions = []
        for i, (block_ids, sizes, classes) in enumerate(layouts):
            blocks = np.repeat(block_ids, sizes[: len(block_ids)])
            sessions.append(session(classes[: blocks.size], blocks,
                                    subject=f"s{i}", seed=i))
        relabeled = relabel_blocks(sessions)

        def pool(ss):
            return concat_trials([segment(s, 0.0, 40.0) for s in ss])

        before, after = pool(sessions), pool(relabeled)
        np.testing.assert_array_equal(
            after.labels, np.unique(before.block_ids, return_inverse=True)[1]
        )
        np.testing.assert_array_equal(after.block_ids, before.block_ids)
        assert after.trials.tobytes() == before.trials.tobytes()
        for s, r in zip(sessions, relabeled):
            assert r.samples.tobytes() == s.samples.tobytes()
