"""Split regimes and the block relabeling transform.

Three regimes cover the leakage spectrum: ``within_block`` reproduces the
flawed protocol (every test trial shares its block with training trials),
``block_disjoint`` puts each block whole on one side (leakage-free), and
``leave_one_subject_out`` holds out entire subjects; each returns a list of
train/test plans.  The holdout regimes deal train, a middle share and test by
``fractions``: the middle share is left out of every fit and test, and is
dealt only to keep every plan as it is until the grid cross-fits folds.  The
split functions read only a matrix's labels, block
ids and subject ids, so building a plan on a matrix with an empty sample
stack checks a design before any sample is processed.  ``relabel_blocks``
rewrites each session's class labels to block identity, the probe that
exposes what a classifier is really keying on.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import Session, TrialMatrix

WITHIN_BLOCK = "within_block"
BLOCK_DISJOINT = "block_disjoint"
LEAVE_ONE_SUBJECT_OUT = "leave_one_subject_out"
REGIMES = (WITHIN_BLOCK, BLOCK_DISJOINT, LEAVE_ONE_SUBJECT_OUT)


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint train and test rows of ``num_trials``; other rows are left out."""

    train: np.ndarray
    test: np.ndarray
    num_trials: int

    def __post_init__(self):
        for name in ("train", "test"):
            arr = np.sort(np.asarray(getattr(self, name), dtype=np.int64))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        union = np.concatenate([self.train, self.test])
        if union.size != np.unique(union).size:
            raise ValueError("split partitions overlap")
        if union.size and (union.min() < 0 or union.max() >= self.num_trials):
            raise ValueError("split indices out of range")
        if self.train.size == 0 or self.test.size == 0:
            raise ValueError("train and test must be non-empty")


def _check_fractions(fractions) -> np.ndarray:
    f = np.asarray(fractions, dtype=np.float64)
    if f.shape != (3,) or np.any(f <= 0) or abs(f.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be 3 positive numbers summing to 1")
    return f


def _apportion(n: int, fractions: np.ndarray, rng) -> np.ndarray:
    """Largest-remainder rounding of n * fractions; remainder ties are
    broken in an order drawn from rng."""
    quotas = n * fractions
    counts = np.floor(quotas).astype(np.int64)
    remainder = quotas - counts
    tie_break = rng.permutation(len(fractions))
    order = np.lexsort((tie_break, -remainder))
    for i in range(int(n - counts.sum())):
        counts[order[i % len(order)]] += 1
    # a partitioned group that sends trials to test must feed train too
    if counts[2] > 0 and counts[0] == 0:
        donor = 2 if counts[2] > 1 or counts[1] == 0 else 1
        counts[donor] -= 1
        counts[0] += 1
    return counts


def _deal(
    groups: list[np.ndarray], fractions: np.ndarray, seed: int,
    regime: str, items: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Deal every group's items into (train, test): apportion the group into
    three shares, shuffle it, and cut it; the middle share is left out.

    Raise ValueError naming ``regime``, the fractions and the largest group,
    of ``items``, when every group's test share rounds to 0."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for group in groups:
        counts = _apportion(group.size, fractions, rng)
        shuffled = rng.permutation(group)
        train.append(shuffled[: counts[0]])
        test.append(shuffled[counts[0] + counts[1]:])
    test = np.concatenate(test)
    if test.size == 0:
        raise ValueError(
            f"{regime} split with fractions {tuple(fractions.tolist())} leaves "
            f"no test trial: a test share of {fractions[2]:g} rounds to 0 on "
            f"at most {max(g.size for g in groups)} {items}"
        )
    return np.concatenate(train), test


def _check_block_sizes(block_ids: np.ndarray) -> np.ndarray:
    """The distinct blocks; raise unless each holds at least 3 trials."""
    blocks, sizes = np.unique(block_ids, return_counts=True)
    if np.any(sizes < 3):
        small = np.argmax(sizes < 3)
        raise ValueError(
            f"block {blocks[small]} has {sizes[small]} trials; need >= 3 to stratify"
        )
    return blocks


def split_within_block(
    trials: TrialMatrix, fractions=(0.8, 0.1, 0.1), seed: int = 0
) -> list[SplitPlan]:
    """One plan: stratified random assignment inside every block.

    By construction every test trial's block contributes trials to the
    training set: the contaminated regime.  Each block needs at least 3
    trials.
    """
    f = _check_fractions(fractions)
    blocks = _check_block_sizes(trials.block_ids)
    groups = [np.flatnonzero(trials.block_ids == block) for block in blocks]
    train, test = _deal(groups, f, seed, WITHIN_BLOCK, "trials per block")
    return [SplitPlan(train=train, test=test, num_trials=trials.num_trials)]


def _block_groups(
    labels: np.ndarray, block_ids: np.ndarray
) -> tuple[list[np.ndarray], str]:
    """The block ids that block-disjoint splitting deals, one group per
    class on block-design data, else one group, and what a group holds;
    raise if a group is too small to deal into its three shares."""
    blocks = np.unique(block_ids)
    block_labels = [np.unique(labels[block_ids == b]) for b in blocks]
    if all(bl.size == 1 for bl in block_labels):
        block_class = np.array([int(bl[0]) for bl in block_labels])
        groups = [blocks[block_class == c] for c in np.unique(block_class)]
        for g in groups:
            if g.size < 3:
                raise ValueError(
                    "block-disjoint stratification needs >= 3 blocks per "
                    f"class; a class has only {g.size}"
                )
        return groups, "blocks per class"
    if blocks.size < 3:
        raise ValueError("block-disjoint split needs >= 3 blocks")
    return [blocks], "blocks"


def split_block_disjoint(
    trials: TrialMatrix, fractions=(0.8, 0.1, 0.1), seed: int = 0
) -> list[SplitPlan]:
    """One plan that puts each block whole on one side (no block leaks).

    On block-design data, blocks are stratified by class so every class
    appears in the training set, which requires at least 3 blocks per class.
    Rapid-event (mixed) blocks are apportioned globally and need at least 3
    blocks overall.
    """
    f = _check_fractions(fractions)
    groups, items = _block_groups(trials.labels, trials.block_ids)
    train, test = (
        np.flatnonzero(np.isin(trials.block_ids, part))
        for part in _deal(groups, f, seed, BLOCK_DISJOINT, items)
    )
    return [SplitPlan(train=train, test=test, num_trials=trials.num_trials)]


def loso_round_robin(trials: TrialMatrix) -> list[SplitPlan]:
    """One plan per subject, in sorted subject order: test on that subject's
    trials, train on every other subject's."""
    subjects = np.asarray(trials.subject_ids).astype(str)
    names = np.unique(subjects)
    if names.size < 2:
        raise ValueError("leave-one-subject-out needs >= 2 subjects")
    return [
        SplitPlan(
            train=np.flatnonzero(subjects != name),
            test=np.flatnonzero(subjects == name),
            num_trials=trials.num_trials,
        )
        for name in names
    ]


def relabel_blocks(sessions: Sequence[Session]) -> list[Session]:
    """The sessions with each event's class label replaced by its block's
    index among all blocks.

    Blocks are numbered in the order :func:`~blockaudit.dataset.concat_trials`
    pools them: session by session, by block id within a session.  Samples
    and every other event field are untouched.  On block-design data this is
    only a renaming; on rapid-event data the new labels are uncorrelated with
    the stimulus.
    """
    out = []
    first = 0
    for s in sessions:
        blocks = sorted({ev.block_id for ev in s.events})
        index = {b: i for i, b in enumerate(blocks, start=first)}
        first += len(blocks)
        events = [replace(ev, class_label=index[ev.block_id]) for ev in s.events]
        out.append(replace(s, events=events))
    return out
