"""Domain types, on-disk container format, and trial segmentation.

A recording is a :class:`Session`: a channels x samples float32 matrix plus an
ordered list of :class:`TrialEvent` markers (stimulus onsets with class and
block annotations).  Sessions are persisted in a small custom container
("BAUD" magic, JSON header, raw float32 payload) so that round trips are
bit-exact.  :func:`segment` cuts a session into the fixed-width trial windows
(:class:`TrialMatrix`) that every downstream analysis consumes.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from ._checks import check_real

MAGIC = b"BAUD"
CONTAINER_VERSION = 1

# magic(4) + version u16 LE + header length u32 LE
_PREAMBLE = struct.Struct("<4sHI")


class ContainerError(ValueError):
    """Raised for malformed or inconsistent container files."""


class DesignKind(Enum):
    """Experimental schedule family."""

    BLOCK = "block"
    RAPID_EVENT = "rapid_event"


@dataclass(frozen=True)
class TrialEvent:
    """One stimulus presentation within a continuous recording."""

    trial_id: int
    class_label: int
    block_id: int
    onset_sample: int
    length_samples: int

    def __post_init__(self):
        if self.length_samples <= 0:
            raise ValueError(f"trial {self.trial_id}: length_samples must be > 0")
        if self.class_label < 0:
            raise ValueError(f"trial {self.trial_id}: class_label must be >= 0")
        if self.block_id < 0:
            raise ValueError(f"trial {self.trial_id}: block_id must be >= 0")
        if self.onset_sample < 0:
            raise ValueError(f"trial {self.trial_id}: onset_sample must be >= 0")


def check_finite(samples: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite sample of a
    (channels, T) array by channel and sample.  Checked one channel at a
    time, so no array-sized boolean mask is allocated."""
    for ch, row in enumerate(samples):
        finite = np.isfinite(row)
        if not finite.all():
            t = int(np.argmin(finite))
            raise ValueError(
                f"non-finite sample {row[t]} at channel {ch}, sample {t}"
            )


@dataclass(frozen=True)
class Session:
    """Continuous multichannel recording plus trial metadata.

    Parameters
    ----------
    samples : ndarray, shape (channels, T), float32
        Signed amplitudes in arbitrary units; NaN or infinite samples are
        rejected with a message naming the first such channel and sample.
    sample_rate : float
        Sampling rate in Hz, finite and > 0.
    subject_id : str
        Identifier of the recorded subject.
    events : tuple of TrialEvent
        Trial markers, ordered by onset, non-overlapping, contained in [0, T).

    Sessions are immutable: the sample array is marked read-only so they can
    be shared freely across workers.
    """

    samples: np.ndarray
    sample_rate: float
    subject_id: str
    events: tuple[TrialEvent, ...]

    def __post_init__(self):
        check_real("sample_rate", self.sample_rate, gt=0)
        samples = np.asarray(self.samples)
        if samples.ndim != 2:
            raise ValueError("samples must be a channels x T matrix")
        if samples.dtype != np.float32:
            samples = samples.astype(np.float32)
        samples = np.ascontiguousarray(samples)
        check_finite(samples)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "events", tuple(self.events))
        self._validate_events()

    def _validate_events(self):
        t_total = self.num_samples
        prev_end = 0
        prev_onset = -1
        seen_blocks: dict[int, int] = {}
        last_block = None
        for ev in self.events:
            if ev.onset_sample < prev_onset:
                raise ValueError("events must be ordered by onset")
            if ev.onset_sample < prev_end:
                raise ValueError(
                    f"trial {ev.trial_id}: events overlap (onset {ev.onset_sample} "
                    f"< previous end {prev_end})"
                )
            if ev.onset_sample + ev.length_samples > t_total:
                raise ValueError(
                    f"trial {ev.trial_id}: event out of bounds "
                    f"(end {ev.onset_sample + ev.length_samples} > T {t_total})"
                )
            if ev.block_id != last_block:
                if ev.block_id in seen_blocks:
                    raise ValueError(
                        f"block {ev.block_id} is not contiguous in onset order"
                    )
                seen_blocks[ev.block_id] = ev.onset_sample
                last_block = ev.block_id
            prev_onset = ev.onset_sample
            prev_end = ev.onset_sample + ev.length_samples

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.num_samples / self.sample_rate


# ---------------------------------------------------------------------------
# Container I/O
# ---------------------------------------------------------------------------

def write_container(path: str | Path, header: dict, payload: bytes) -> None:
    """Write the generic BAUD envelope: preamble + JSON header + raw payload."""
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    with open(path, "wb") as fh:
        fh.write(_PREAMBLE.pack(MAGIC, CONTAINER_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def read_container(path: str | Path) -> tuple[dict, bytes]:
    """Read a BAUD envelope, returning (header, payload)."""
    with open(path, "rb") as fh:
        preamble = fh.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise ContainerError(f"{path}: truncated preamble")
        magic, version, header_len = _PREAMBLE.unpack(preamble)
        if magic != MAGIC:
            raise ContainerError(f"{path}: bad magic {magic!r}")
        if version != CONTAINER_VERSION:
            raise ContainerError(f"{path}: unsupported container version {version}")
        header_bytes = fh.read(header_len)
        if len(header_bytes) < header_len:
            raise ContainerError(f"{path}: truncated header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"{path}: malformed header: {exc}") from exc
        if not isinstance(header, dict):
            raise ContainerError(f"{path}: malformed header: not a JSON object")
        payload = fh.read()
    return header, payload


def save_session(session: Session, path: str | Path) -> None:
    """Persist a session; ``load_session`` reproduces it bit-exactly.

    The payload is channel-major little-endian float32, so the file size is
    exactly ``preamble + len(header) + channels * num_samples * 4`` bytes.
    """
    header = {
        "channels": session.channels,
        "sample_rate_hz": session.sample_rate,
        "subject_id": session.subject_id,
        "num_samples": session.num_samples,
        "events": [
            {
                "trial_id": ev.trial_id,
                "class_label": ev.class_label,
                "block_id": ev.block_id,
                "onset_sample": ev.onset_sample,
                "length_samples": ev.length_samples,
            }
            for ev in session.events
        ],
    }
    payload = np.ascontiguousarray(session.samples, dtype="<f4").tobytes()
    write_container(path, header, payload)


_SESSION_KEYS = {"channels", "sample_rate_hz", "subject_id", "num_samples", "events"}


def load_session(path: str | Path) -> Session:
    """Load a session container, validating all invariants.

    Raises
    ------
    ContainerError
        On bad magic/version, malformed header, or a payload whose size does
        not match ``channels * num_samples`` float32 values.
    ValueError
        If the decoded events violate session invariants, or a sample is NaN
        or infinite; the message names the file, and for a non-finite sample
        the first such channel and sample.
    """
    header, payload = read_container(path)
    missing = _SESSION_KEYS - header.keys()
    if missing:
        raise ContainerError(f"{path}: malformed header: missing {sorted(missing)}")
    channels = int(header["channels"])
    num_samples = int(header["num_samples"])
    expected = channels * num_samples * 4
    if len(payload) != expected:
        raise ContainerError(
            f"{path}: payload is {len(payload)} bytes, expected {expected} "
            f"({channels} channels x {num_samples} samples)"
        )
    samples = np.frombuffer(payload, dtype="<f4").reshape(channels, num_samples)
    try:
        try:
            events = tuple(
                TrialEvent(
                    trial_id=int(ev["trial_id"]),
                    class_label=int(ev["class_label"]),
                    block_id=int(ev["block_id"]),
                    onset_sample=int(ev["onset_sample"]),
                    length_samples=int(ev["length_samples"]),
                )
                for ev in header["events"]
            )
        except (KeyError, TypeError) as exc:
            raise ContainerError(f"{path}: malformed header: bad event entry") from exc
        return Session(
            samples=samples,
            sample_rate=float(header["sample_rate_hz"]),
            subject_id=str(header["subject_id"]),
            events=events,
        )
    except ContainerError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Trial matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialMatrix:
    """Segmented trials: an (N, channels, W) stack plus per-trial metadata.

    ``trial_indices`` keeps each trial's position in the originating pool so
    that fit/test bookkeeping (the leakage guard) survives cropping, channel
    selection, and normalization.
    """

    trials: np.ndarray
    labels: np.ndarray
    block_ids: np.ndarray
    subject_ids: np.ndarray
    window_samples: int
    sample_rate: float
    trial_indices: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        trials = np.asarray(self.trials)
        if trials.ndim != 3:
            raise ValueError("trials must be (N, channels, W)")
        n = trials.shape[0]
        if trials.shape[2] != self.window_samples:
            raise ValueError("window_samples does not match trials shape")
        labels = np.asarray(self.labels, dtype=np.int64)
        blocks = np.asarray(self.block_ids, dtype=np.int64)
        subjects = np.asarray(self.subject_ids)
        if labels.shape != (n,) or blocks.shape != (n,) or subjects.shape != (n,):
            raise ValueError("per-trial metadata must have shape (N,)")
        if n and labels.min() < 0:
            raise ValueError("labels must be >= 0")
        indices = self.trial_indices
        if indices is None:
            indices = np.arange(n, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.shape != (n,):
            raise ValueError("trial_indices must have shape (N,)")
        trials = np.ascontiguousarray(trials)
        trials.setflags(write=False)
        for name, arr in (
            ("trials", trials),
            ("labels", labels),
            ("block_ids", blocks),
            ("subject_ids", subjects),
            ("trial_indices", indices),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_trials(self) -> int:
        return self.trials.shape[0]

    @property
    def channels(self) -> int:
        return self.trials.shape[1]

    @property
    def num_classes(self) -> int:
        """Number of distinct labels present."""
        return int(np.unique(self.labels).size)

    def replace(self, **changes) -> "TrialMatrix":
        """Return a copy with the given fields swapped out."""
        return replace(self, **changes)

    def take(
        self,
        indices: np.ndarray | Sequence[int],
        trials: np.ndarray | None = None,
    ) -> "TrialMatrix":
        """Row subset (copies; the new matrix keeps the original indices).

        ``trials``, when given, is the stack of those rows as the caller
        already gathered (and transformed) it, and is used as is.
        """
        idx = np.asarray(indices, dtype=np.int64)
        return self.replace(
            trials=self.trials[idx] if trials is None else trials,
            labels=self.labels[idx],
            block_ids=self.block_ids[idx],
            subject_ids=self.subject_ids[idx],
            trial_indices=self.trial_indices[idx],
        )


def check_window(
    session: Session, start_offset_ms: float, window_ms: float
) -> tuple[int, int]:
    """``(offset, width)`` in samples of the window :func:`segment` cuts.

    Both are rounded against the session's rate.  Raises ValueError unless
    the session has events and the window fits inside every one of them,
    and so inside the recording.  It reads the events only, never the
    samples.
    """
    check_real("start_offset_ms", start_offset_ms, ge=0)
    if not session.events:
        raise ValueError("session has no events to segment")
    rate = session.sample_rate
    offset = int(round(start_offset_ms * rate / 1000.0))
    width = int(round(window_ms * rate / 1000.0))
    if width < 1:
        raise ValueError(f"window of {window_ms} ms is empty at {rate} Hz")
    for ev in session.events:
        if offset + width > ev.length_samples:
            raise ValueError(
                f"trial {ev.trial_id}: window {offset}+{width} samples exceeds "
                f"event length {ev.length_samples}"
            )
    return offset, width


def segment(
    session: Session, start_offset_ms: float, window_ms: float
) -> TrialMatrix:
    """Cut one fixed-width window per event, time-locked to each onset.

    The window starts ``start_offset_ms`` after stimulus onset and spans
    ``window_ms``; both are converted to sample counts by rounding against
    the session's rate.  Each window must fit inside its event and inside the
    recording (see :func:`check_window`).

    Returns a matrix whose rows never alias session memory.
    """
    offset, width = check_window(session, start_offset_ms, window_ms)
    n = len(session.events)
    trials = np.empty((n, session.channels, width), dtype=session.samples.dtype)
    labels = np.empty(n, dtype=np.int64)
    blocks = np.empty(n, dtype=np.int64)
    for i, ev in enumerate(session.events):
        start = ev.onset_sample + offset
        trials[i] = session.samples[:, start : start + width]
        labels[i] = ev.class_label
        blocks[i] = ev.block_id
    subjects = np.array([session.subject_id] * n)
    return TrialMatrix(
        trials=trials,
        labels=labels,
        block_ids=blocks,
        subject_ids=subjects,
        window_samples=width,
        sample_rate=session.sample_rate,
    )


def concat_trials(matrices: Sequence[TrialMatrix]) -> TrialMatrix:
    """Pool trial matrices (e.g. multiple subjects) into one.

    A single matrix is returned as it is.  Otherwise channel counts, window
    widths, and sample rates must agree; trial indices are re-based so they
    stay unique across the pooled matrix, and each matrix's block ids are
    offset by one more than the largest id before it, so blocks from
    different sessions never collide (block ids are >= 0).
    """
    if not matrices:
        raise ValueError("nothing to concatenate")
    first = matrices[0]
    if len(matrices) == 1:
        return first
    for m in matrices[1:]:
        if m.channels != first.channels or m.window_samples != first.window_samples:
            raise ValueError("trial matrices disagree on channels or window")
        if m.sample_rate != first.sample_rate:
            raise ValueError("trial matrices disagree on sample rate")
    trials = np.concatenate([m.trials for m in matrices], axis=0)
    labels = np.concatenate([m.labels for m in matrices])
    subjects = np.concatenate([np.asarray(m.subject_ids, dtype=object) for m in matrices])
    block_parts = []
    offset = 0
    for m in matrices:
        block_parts.append(m.block_ids + offset)
        if m.num_trials:
            offset += int(m.block_ids.max()) + 1
    blocks = np.concatenate(block_parts)
    return TrialMatrix(
        trials=trials,
        labels=labels,
        block_ids=blocks,
        subject_ids=subjects,
        window_samples=first.window_samples,
        sample_rate=first.sample_rate,
        trial_indices=np.arange(trials.shape[0], dtype=np.int64),
    )
