"""Synthetic session generation under block or rapid-event schedules.

The contamination mechanism is modeled as slow per-block state: every block
gets a fresh per-channel DC offset plus a within-block random walk, both
uncorrelated with stimulus class.  An optional class-evoked template (a
windowed sine burst with a class-specific channel weighting) provides the
control case of a genuine, band-limited stimulus response.

Everything is a pure function of (inputs, seed); identical calls produce
bit-identical sessions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DesignKind, Session, TrialEvent


@dataclass(frozen=True)
class DriftParams:
    """Block-level contaminant amplitudes (all standard deviations).

    ``dc_sigma`` scales the per-block per-channel constant offset,
    ``walk_sigma`` the per-sample random-walk step (the walk restarts at
    every block boundary), and ``noise_sigma`` the white noise floor.
    Defaults are calibrated to reproduce the contamination regime at desk
    scale, not fitted to any particular recording.
    """

    dc_sigma: float = 5.0
    walk_sigma: float = 0.05
    noise_sigma: float = 1.0

    def __post_init__(self):
        if min(self.dc_sigma, self.walk_sigma, self.noise_sigma) < 0:
            raise ValueError("drift amplitudes must be >= 0")


@dataclass(frozen=True)
class EvokedParams:
    """Class-evoked template: a half-sine-windowed tone burst at each onset.

    ``center_hz`` places the burst's energy; the default 30 Hz puts it in the
    20-40 Hz band so it survives the highpass cutoffs used by the audit.
    Templates are drawn only at a positive ``amplitude`` (default 0: none).
    """

    amplitude: float = 0.0
    template_ms: float = 150.0
    center_hz: float = 30.0

    def __post_init__(self):
        if not self.amplitude >= 0:
            raise ValueError("evoked amplitude must be >= 0")
        if not self.template_ms > 0:
            raise ValueError("template_ms must be > 0")


@dataclass(frozen=True)
class Schedule:
    """Presentation plan: ordered blocks of class labels plus timing."""

    design: DesignKind
    classes: int
    trials_per_class: int
    blocks: tuple[tuple[int, tuple[int, ...]], ...]
    stimulus_ms: float
    blank_ms: float

    def __post_init__(self):
        object.__setattr__(
            self,
            "blocks",
            tuple((int(b), tuple(int(c) for c in labels)) for b, labels in self.blocks),
        )
        total = sum(len(labels) for _, labels in self.blocks)
        if total != self.classes * self.trials_per_class:
            raise ValueError(
                f"schedule has {total} trials, expected "
                f"{self.classes * self.trials_per_class}"
            )
        counts = np.zeros(self.classes, dtype=int)
        for _, labels in self.blocks:
            for c in labels:
                if not 0 <= c < self.classes:
                    raise ValueError(f"class label {c} out of range")
                counts[c] += 1
            if self.design is DesignKind.BLOCK and len(set(labels)) > 1:
                raise ValueError("block design requires single-class blocks")
        if np.any(counts != self.trials_per_class):
            raise ValueError("every class must appear trials_per_class times")
        if self.stimulus_ms <= 0 or self.blank_ms < 0:
            raise ValueError("stimulus_ms must be > 0 and blank_ms >= 0")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def make_block_schedule(
    classes: int,
    trials_per_class: int,
    stimulus_ms: float,
    blank_ms: float,
    seed: int,
    blocks_per_class: int = 1,
) -> Schedule:
    """Block design: each block presents a single class back to back.

    With the default ``blocks_per_class=1`` this yields one block per class
    (``classes`` blocks of ``trials_per_class`` stimuli) with the block order
    shuffled by ``seed``.  Setting ``blocks_per_class > 1`` splits each
    class's trials over several equally sized blocks, which is what
    block-disjoint evaluation needs (it requires at least 3 blocks per class
    to put every class in train, the left-out middle share, and test).
    """
    if classes < 2 or trials_per_class < 1:
        raise ValueError("need classes >= 2 and trials_per_class >= 1")
    if blocks_per_class < 1 or trials_per_class % blocks_per_class:
        raise ValueError("blocks_per_class must divide trials_per_class")
    per_block = trials_per_class // blocks_per_class
    rng = np.random.default_rng(seed)
    class_seq = [c for c in range(classes) for _ in range(blocks_per_class)]
    order = rng.permutation(len(class_seq))
    blocks = tuple(
        (i, tuple([int(class_seq[j])] * per_block)) for i, j in enumerate(order)
    )
    return Schedule(
        design=DesignKind.BLOCK,
        classes=classes,
        trials_per_class=trials_per_class,
        blocks=blocks,
        stimulus_ms=stimulus_ms,
        blank_ms=blank_ms,
    )


def make_rapid_event_schedule(
    classes: int,
    trials_per_class: int,
    block_count: int,
    stimulus_ms: float,
    blank_ms: float,
    seed: int,
) -> Schedule:
    """Rapid-event design: classes randomly intermixed within blocks.

    Every stimulus appears exactly once over the whole schedule; the pooled
    stimuli are shuffled by ``seed`` and dealt into ``block_count`` blocks of
    equal size, so per-block class composition is random.
    """
    if classes < 2 or trials_per_class < 1:
        raise ValueError("need classes >= 2 and trials_per_class >= 1")
    total = classes * trials_per_class
    if block_count < 1 or total % block_count:
        raise ValueError(
            f"block_count {block_count} must divide total trials {total}"
        )
    per_block = total // block_count
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(classes), trials_per_class))
    blocks = tuple(
        (b, tuple(int(c) for c in labels[b * per_block : (b + 1) * per_block]))
        for b in range(block_count)
    )
    return Schedule(
        design=DesignKind.RAPID_EVENT,
        classes=classes,
        trials_per_class=trials_per_class,
        blocks=blocks,
        stimulus_ms=stimulus_ms,
        blank_ms=blank_ms,
    )


def _evoked_templates(
    evoked: EvokedParams, classes: int, channels: int, sample_rate: float, rng
) -> np.ndarray | None:
    """Per-class (channels, template_samples) bursts, or None at amplitude 0."""
    if not evoked.amplitude > 0:
        return None
    width = int(round(evoked.template_ms * sample_rate / 1000.0))
    if width < 2:
        raise ValueError("evoked template is shorter than two samples")
    t = np.arange(width) / sample_rate
    envelope = np.sin(np.pi * np.arange(width) / (width - 1))
    burst = envelope * np.sin(2.0 * np.pi * evoked.center_hz * t)
    weights = rng.standard_normal((classes, channels)) / np.sqrt(channels)
    return evoked.amplitude * weights[:, :, None] * burst[None, None, :]


def generate_session(
    schedule: Schedule,
    channels: int,
    sample_rate: float,
    drift: DriftParams,
    evoked: EvokedParams,
    subject_id: str,
    seed: int,
) -> Session:
    """Render a schedule into a continuous recording.

    Per block: one DC offset per channel (std ``dc_sigma``), one random walk
    per channel restarting at the block boundary (step std ``walk_sigma``),
    white noise everywhere (std ``noise_sigma``), and, at a positive evoked
    amplitude, the class template added at each trial onset.  Blanking after
    each block is generated but carries no events.
    """
    if channels < 1:
        raise ValueError("channels must be >= 1")
    if not sample_rate > 0:
        raise ValueError("sample_rate must be > 0")
    stim = int(round(schedule.stimulus_ms * sample_rate / 1000.0))
    blank = int(round(schedule.blank_ms * sample_rate / 1000.0))
    if stim < 1:
        raise ValueError("stimulus shorter than one sample at this rate")
    rng = np.random.default_rng(seed)
    templates = _evoked_templates(
        evoked, schedule.classes, channels, sample_rate, rng
    )
    if templates is not None and templates.shape[2] > stim:
        raise ValueError("evoked template longer than the stimulus interval")

    total = sum(len(labels) * stim + blank for _, labels in schedule.blocks)
    samples = np.empty((channels, total), dtype=np.float32)
    events = []
    cursor = 0
    trial_id = 0
    for block_id, labels in schedule.blocks:
        span = len(labels) * stim + blank
        seg = rng.standard_normal((channels, span)) * drift.noise_sigma
        if drift.dc_sigma > 0:
            seg += rng.standard_normal((channels, 1)) * drift.dc_sigma
        if drift.walk_sigma > 0:
            steps = rng.standard_normal((channels, span)) * drift.walk_sigma
            seg += np.cumsum(steps, axis=1)
        for i, label in enumerate(labels):
            onset = i * stim
            if templates is not None:
                width = templates.shape[2]
                seg[:, onset : onset + width] += templates[label]
            events.append(
                TrialEvent(
                    trial_id=trial_id,
                    class_label=int(label),
                    block_id=int(block_id),
                    onset_sample=cursor + onset,
                    length_samples=stim,
                )
            )
            trial_id += 1
        samples[:, cursor : cursor + span] = seg
        cursor += span
    return Session(
        samples=samples,
        sample_rate=sample_rate,
        subject_id=subject_id,
        events=tuple(events),
    )
