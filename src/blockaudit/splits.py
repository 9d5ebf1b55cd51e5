"""Split regimes and the block relabeling transform.

Three regimes cover the leakage spectrum: ``within_block`` reproduces the
flawed protocol (every test trial shares its block with training trials),
``block_disjoint`` assigns whole blocks to one partition (leakage-free), and
``leave_one_subject_out`` holds out entire subjects.  The split functions
read only a matrix's labels, block ids and subject ids, so building a plan
on a matrix with an empty sample stack checks a design before any sample is
processed.  ``relabel_blocks`` rewrites each session's class labels to
block identity, the probe that exposes what a classifier is really keying
on.
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
    """Disjoint train/validation/test indices under a named regime."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    regime: str
    num_trials: int
    held_out_subject: str | None = None

    def __post_init__(self):
        for name in ("train", "validation", "test"):
            arr = np.sort(np.asarray(getattr(self, name), dtype=np.int64))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        parts = [self.train, self.validation, self.test]
        union = np.concatenate(parts)
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
    groups: list[np.ndarray], fractions: np.ndarray, seed: int
) -> list[np.ndarray]:
    """Deal every group's items into (train, validation, test): apportion the
    group, shuffle it, and cut it at the apportioned counts."""
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    for group in groups:
        counts = _apportion(group.size, fractions, rng)
        shuffled = rng.permutation(group)
        for part, chunk in zip(parts, np.split(shuffled, np.cumsum(counts)[:2])):
            part.append(chunk)
    return [np.concatenate(p) for p in parts]


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
) -> SplitPlan:
    """Stratified random assignment inside every block.

    By construction every test trial's block contributes trials to the
    training set: the contaminated regime.  Each block needs at least 3
    trials.
    """
    f = _check_fractions(fractions)
    blocks = _check_block_sizes(trials.block_ids)
    groups = [np.flatnonzero(trials.block_ids == block) for block in blocks]
    train, val, test = _deal(groups, f, seed)
    return SplitPlan(
        train=train, validation=val, test=test,
        regime=WITHIN_BLOCK, num_trials=trials.num_trials,
    )


def _block_groups(labels: np.ndarray, block_ids: np.ndarray) -> list[np.ndarray]:
    """The block ids that block-disjoint splitting deals, one group per
    class on block-design data, else one group; raise if a group is too
    small to deal into train, validation and test."""
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
        return groups
    if blocks.size < 3:
        raise ValueError("block-disjoint split needs >= 3 blocks")
    return [blocks]


def split_block_disjoint(
    trials: TrialMatrix, fractions=(0.8, 0.1, 0.1), seed: int = 0
) -> SplitPlan:
    """Assign whole blocks to exactly one partition (no block leaks).

    On block-design data, blocks are stratified by class so every class
    appears in the training set, which requires at least 3 blocks per class.
    Rapid-event (mixed) blocks are apportioned globally and need at least 3
    blocks overall.
    """
    f = _check_fractions(fractions)
    groups = _block_groups(trials.labels, trials.block_ids)
    train, val, test = (
        np.flatnonzero(np.isin(trials.block_ids, part))
        for part in _deal(groups, f, seed)
    )
    return SplitPlan(
        train=train, validation=val, test=test,
        regime=BLOCK_DISJOINT, num_trials=trials.num_trials,
    )


def split_leave_one_subject_out(
    trials: TrialMatrix, held_out_subject: str
) -> SplitPlan:
    """Test on one subject, train on all others; no validation set."""
    subjects = np.asarray(trials.subject_ids).astype(str)
    if np.unique(subjects).size < 2:
        raise ValueError("leave-one-subject-out needs >= 2 subjects")
    mask = subjects == str(held_out_subject)
    if not mask.any():
        raise ValueError(f"unknown subject {held_out_subject!r}")
    return SplitPlan(
        train=np.flatnonzero(~mask),
        validation=np.array([], dtype=np.int64),
        test=np.flatnonzero(mask),
        regime=LEAVE_ONE_SUBJECT_OUT,
        num_trials=trials.num_trials,
        held_out_subject=str(held_out_subject),
    )


def loso_round_robin(trials: TrialMatrix) -> list[SplitPlan]:
    """One leave-one-subject-out plan per subject, in sorted subject order."""
    subjects = sorted(set(np.asarray(trials.subject_ids).astype(str)))
    return [split_leave_one_subject_out(trials, s) for s in subjects]


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
