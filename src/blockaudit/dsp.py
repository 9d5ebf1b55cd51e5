"""Filtering, resampling, rereferencing, normalization, and spectra.

Filters are Butterworth designs with the -3.01 dB points on the cutoffs,
held as second-order-section (SOS) arrays.  ``scipy.signal`` both designs
them (``butter``) and applies them (``sosfilt``/``sosfiltfilt``).

The convention throughout is population (divide-by-n) standard deviation.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import signal as _signal

from .dataset import Session, TrialEvent, TrialMatrix


class ConstantChannelWarning(UserWarning):
    """A channel with zero variance was z-scored to zeros."""


class FilterKind(Enum):
    LOWPASS = "lowpass"
    HIGHPASS = "highpass"
    BANDPASS = "bandpass"
    NOTCH = "notch"          # band-stop


@dataclass(frozen=True)
class FilterSpec:
    """A filter request: kind, prototype order, band edges, sample rate.

    ``order`` is the analog prototype order (band transforms double the pole
    count; zero-phase application squares the magnitude response on top).
    The passband convention: lowpass uses ``high_hz``, highpass uses
    ``low_hz``, bandpass passes [low_hz, high_hz], notch stops it.
    """

    kind: FilterKind
    order: int
    sample_rate: float
    low_hz: float | None = None
    high_hz: float | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("filter order must be >= 1")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be > 0")
        nyq = self.sample_rate / 2.0
        for name, f in (("low_hz", self.low_hz), ("high_hz", self.high_hz)):
            if f is not None and not 0 < f < nyq:
                raise ValueError(f"{name}={f} must lie in (0, {nyq}) Hz")
        if self.kind in (FilterKind.BANDPASS, FilterKind.NOTCH):
            if self.low_hz is None or self.high_hz is None:
                raise ValueError(f"{self.kind.value} needs low_hz and high_hz")
            if not self.low_hz < self.high_hz:
                raise ValueError("low_hz must be < high_hz")
        elif self.kind is FilterKind.LOWPASS and self.high_hz is None:
            raise ValueError("lowpass needs high_hz")
        elif self.kind is FilterKind.HIGHPASS and self.low_hz is None:
            raise ValueError("highpass needs low_hz")

    @classmethod
    def lowpass(cls, cutoff_hz, sample_rate, order=2):
        return cls(FilterKind.LOWPASS, order, sample_rate, high_hz=cutoff_hz)

    @classmethod
    def highpass(cls, cutoff_hz, sample_rate, order=2):
        return cls(FilterKind.HIGHPASS, order, sample_rate, low_hz=cutoff_hz)

    @classmethod
    def bandpass(cls, low_hz, high_hz, sample_rate, order=2):
        return cls(FilterKind.BANDPASS, order, sample_rate, low_hz, high_hz)

    @classmethod
    def notch(cls, low_hz, high_hz, sample_rate, order=2):
        return cls(FilterKind.NOTCH, order, sample_rate, low_hz, high_hz)


def design_filter(spec: FilterSpec) -> np.ndarray:
    """The (n, 6) second-order-section array of a :class:`FilterSpec`.

    ``scipy.signal.butter`` pre-warps the edges before the bilinear map, so
    the -3.01 dB points land exactly on the requested cutoffs.  A notch is a
    band-stop Butterworth of the given prototype order.
    """
    if spec.kind is FilterKind.LOWPASS:
        edges = spec.high_hz
    elif spec.kind is FilterKind.HIGHPASS:
        edges = spec.low_hz
    else:
        edges = (spec.low_hz, spec.high_hz)
    btype = "bandstop" if spec.kind is FilterKind.NOTCH else spec.kind.value
    return _signal.butter(
        spec.order, edges, btype=btype, output="sos", fs=spec.sample_rate
    )


def frequency_response(
    sos: np.ndarray, freqs_hz: np.ndarray, sample_rate: float
) -> np.ndarray:
    """Complex response H(e^{j 2 pi f / fs}) of an SOS array at given frequencies."""
    # float, so sosfreqz never reads a whole-number frequency as a point count
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    return _signal.sosfreqz(sos, worN=freqs, fs=sample_rate)[1]


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

def _filter_array(
    sos: np.ndarray, x: np.ndarray, mode: str, out_dtype=None
) -> np.ndarray:
    if x.shape[-1] == 0:
        raise ValueError("cannot filter empty input")
    if mode == "causal":
        y = _signal.sosfilt(sos, x.astype(np.float64, copy=False), axis=-1)
    elif mode == "zero_phase":
        padlen = min(3 * (2 * len(sos) + 1), x.shape[-1] - 1)
        y = _signal.sosfiltfilt(
            sos, x.astype(np.float64, copy=False), axis=-1, padlen=padlen
        )
    else:
        raise ValueError(f"unknown filter mode {mode!r}")
    return y.astype(out_dtype or x.dtype, copy=False)


def apply_filter(
    sos: np.ndarray,
    data: Session | np.ndarray,
    mode: str = "zero_phase",
):
    """Filter per channel along time.

    ``mode="causal"`` is a single forward pass; ``mode="zero_phase"`` runs
    forward then time-reversed (zero group delay, squared magnitude).
    Accepts a Session or a bare (..., T) array and returns the same
    shape/type.  The audit grid filters whole sessions zero-phase, before
    they are cut into trials, so no trial edge adds a filter transient.
    """
    if isinstance(data, Session):
        out = np.empty_like(data.samples)
        for start in range(0, data.channels, 8):  # bound peak memory
            sl = slice(start, start + 8)
            out[sl] = _filter_array(sos, data.samples[sl], mode, np.float32)
        return Session(
            samples=out,
            sample_rate=data.sample_rate,
            subject_id=data.subject_id,
            events=data.events,
        )
    return _filter_array(sos, np.asarray(data), mode)


def downsample(session: Session, factor: int) -> Session:
    """Decimate by an integer factor after an anti-alias lowpass.

    The guard filter is a zero-phase Butterworth lowpass of order 8 with
    cutoff at 0.8x the new Nyquist.  ``factor=1`` returns the session
    untouched.  Event onsets and lengths are rescaled by integer division.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be an integer >= 1")
    factor = int(factor)
    if factor == 1:
        return session
    new_rate = session.sample_rate / factor
    spec = FilterSpec.lowpass(0.8 * new_rate / 2.0, session.sample_rate, order=8)
    filtered = apply_filter(design_filter(spec), session, mode="zero_phase")
    events = []
    for ev in session.events:
        length = ev.length_samples // factor
        if length < 1:
            raise ValueError(
                f"trial {ev.trial_id}: event shorter than decimation factor"
            )
        events.append(
            TrialEvent(
                trial_id=ev.trial_id,
                class_label=ev.class_label,
                block_id=ev.block_id,
                onset_sample=ev.onset_sample // factor,
                length_samples=length,
            )
        )
    return Session(
        samples=filtered.samples[:, ::factor].copy(),
        sample_rate=new_rate,
        subject_id=session.subject_id,
        events=tuple(events),
    )


def rereference(session: Session, reference_channels: list[int]) -> Session:
    """Subtract the mean of the reference channels and drop them."""
    refs = sorted(set(int(c) for c in reference_channels))
    if not refs:
        raise ValueError("reference channel list is empty")
    if refs[0] < 0 or refs[-1] >= session.channels:
        raise ValueError(f"reference channel out of range 0..{session.channels - 1}")
    if len(refs) == session.channels:
        raise ValueError("cannot reference away every channel")
    ref_signal = session.samples[refs].mean(axis=0, dtype=np.float64)
    keep = [c for c in range(session.channels) if c not in set(refs)]
    out = (session.samples[keep].astype(np.float64) - ref_signal).astype(np.float32)
    return Session(
        samples=out,
        sample_rate=session.sample_rate,
        subject_id=session.subject_id,
        events=session.events,
    )


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def zscore(
    trials: TrialMatrix,
    scope: str = "per_trial_channel",
    train_indices: np.ndarray | None = None,
) -> TrialMatrix:
    """Standardize trials to zero mean, unit population std.

    One normalization, two ways to take its statistics.
    ``per_trial_channel`` takes a mean and std per trial and channel over
    the trial's own window.  ``train_statistics`` takes one mean and std per
    channel over all samples of the rows named by ``train_indices`` and
    applies them to every trial, which is the leakage-safe scope for
    split-based evaluation.  Either way, a zero std maps its values to zeros
    and raises a :class:`ConstantChannelWarning` instead of dividing by zero.
    Float32 and float64 trials keep their dtype; any other dtype (integer
    trials, say) comes back as float64.
    """
    if trials.num_trials == 0:
        raise ValueError("empty trial matrix")
    x = trials.trials
    if scope == "per_trial_channel":
        fit, axes, what = x, 2, "trial-channel(s)"
    elif scope == "train_statistics":
        if train_indices is None:
            raise ValueError("train_statistics scope needs train_indices")
        idx = np.asarray(train_indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("train_indices is empty")
        fit, axes, what = x[idx], (0, 2), "channel(s) in the training statistics"
    else:
        raise ValueError(f"unknown zscore scope {scope!r}")
    # statistics accumulate in float64; normalization stays in the data dtype
    mean = fit.mean(axis=axes, keepdims=True, dtype=np.float64)
    std = fit.std(axis=axes, keepdims=True, dtype=np.float64)  # population
    degenerate = std == 0.0
    dtype = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
    out = (x - mean.astype(dtype)) / np.where(degenerate, 1.0, std).astype(dtype)
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} constant {what} z-scored to zeros",
            ConstantChannelWarning,
            stacklevel=2,
        )
        out[np.broadcast_to(degenerate, out.shape)] = 0.0
    return trials.replace(trials=out)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSpectrum:
    """One-sided averaged power spectrum, per channel.

    Normalized so that ``power.sum(axis=1)`` approximates the mean square of
    the analyzed signal (Parseval), making fractions of total power
    meaningful.
    """

    freqs: np.ndarray
    power: np.ndarray  # (channels, bins)

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        if power.ndim != 2 or power.shape[1] != freqs.size:
            raise ValueError("power must be (channels, len(freqs))")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(power < 0):
            raise ValueError("power must be nonnegative")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "power", power)


def _welch_segments(x: np.ndarray, nperseg: int, hop: int):
    total = x.shape[-1]
    for start in range(0, total - nperseg + 1, hop):
        yield x[..., start : start + nperseg]


def power_spectrum(
    data: Session | np.ndarray,
    segment_samples: int,
    overlap_fraction: float = 0.5,
    sample_rate: float | None = None,
) -> PowerSpectrum:
    """Welch-averaged one-sided periodogram with a periodic Hann window.

    ``segment_samples`` must not exceed the available length.
    """
    if isinstance(data, Session):
        x = data.samples
        fs = data.sample_rate
    else:
        x = np.atleast_2d(np.asarray(data))
        if sample_rate is None:
            raise ValueError("sample_rate is required for bare arrays")
        fs = sample_rate
    nperseg = int(segment_samples)
    if nperseg < 2:
        raise ValueError("segment_samples must be >= 2")
    if x.shape[-1] < nperseg:
        raise ValueError("segment_samples exceeds available samples")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must be in [0, 1)")
    hop = max(1, int(round(nperseg * (1.0 - overlap_fraction))))

    n = np.arange(nperseg)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / nperseg)  # periodic Hann
    win_power = float(np.sum(window**2))

    nbins = nperseg // 2 + 1
    acc = np.zeros((x.shape[0], nbins), dtype=np.float64)
    count = 0
    for seg in _welch_segments(x.astype(np.float64, copy=False), nperseg, hop):
        spec = np.fft.rfft(seg * window, axis=-1)
        p = (spec.real**2 + spec.imag**2) / (nperseg * win_power)
        # one-sided: double everything except DC (and Nyquist when even)
        p[..., 1 : nbins - 1 if nperseg % 2 == 0 else nbins] *= 2.0
        acc += p
        count += 1
    if count == 0:
        raise ValueError("no full segment fits the data")
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / fs)
    return PowerSpectrum(freqs=freqs, power=np.maximum(acc / count, 0.0))


def vlf_fraction(spectrum: PowerSpectrum, cutoff_hz: float) -> float:
    """Fraction of total power (all channels pooled) below ``cutoff_hz``."""
    if not cutoff_hz < spectrum.freqs[-1]:
        raise ValueError("cutoff_hz must be below the top frequency bin")
    total = float(spectrum.power.sum())
    if total == 0.0:
        return 0.0
    below = float(spectrum.power[:, spectrum.freqs < cutoff_hz].sum())
    return below / total
