"""Filtering, resampling, rereferencing, normalization, and spectra.

Filters are Butterworth designs with the -3.01 dB points on the cutoffs,
held as second-order-section (SOS) arrays that ``scipy.signal.butter``
designs.  They run on scipy's compiled SOS kernel, the private
``scipy.signal._sosfilt._sosfilt`` that ``sosfilt`` calls after copying its
input.  It filters in place, so each filter thread pads and filters every
row it handles in one reused float64 buffer.  Rows are filtered one channel
per task on up to 2 threads (``_threads.worker_threads``, the rule the CNN's
chunk loops share), and the output is bit-identical to
``sosfiltfilt``/``sosfilt`` row by row; the tests check that, which guards
the private import.  The Welch spectrum splits the channels over the same
worker threads; each thread sums its own channels' segments in segment
order, so the spectrum is bit-identical to a serial pass.

The convention throughout is population (divide-by-n) standard deviation.
The z-score statistics accumulate in float64 a few trials at a time, and
the Welch spectrum promotes one segment at a time, so neither makes a
float64 copy of the trials or the session.
"""
from __future__ import annotations

import numbers
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import signal as _signal
# filters a C-contiguous (rows, T) float64 array in place, without the GIL
from scipy.signal._sosfilt import _sosfilt as _sos_kernel

from ._threads import worker_threads
from .dataset import Session, TrialEvent, TrialMatrix, check_finite


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

def _filter_rows(sos: np.ndarray, rows: np.ndarray, out: np.ndarray,
                 mode: str) -> None:
    """Filter each row of the (rows, T) ``rows`` into the same row of ``out``
    by ``sosfiltfilt``'s recipe (``sosfilt``'s when causal): odd extension,
    and each pass's steady-state initial conditions scaled by its first
    sample.  Each thread reuses one padded row and one reversal row."""
    num_samples = rows.shape[-1]
    n = len(sos)
    zero_phase = mode == "zero_phase"
    pad = min(3 * (2 * n + 1), num_samples - 1) if zero_phase else 0
    zi = _signal.sosfilt_zi(sos).reshape(1, n, 2) if zero_phase else None
    length = num_samples + 2 * pad
    local = threading.local()

    def filter_row(r: int) -> None:
        if not hasattr(local, "bufs"):
            local.bufs = np.empty((2, 1, length))
        ext, rev = local.bufs
        row = ext[0]
        row[pad:pad + num_samples] = rows[r]
        if pad:
            # odd extension: 2 x[0] - x[pad:0:-1] and 2 x[-1] - x[-2:-pad-2:-1]
            np.subtract(2 * row[pad], row[2 * pad:pad:-1], out=row[:pad])
            np.subtract(2 * row[pad + num_samples - 1],
                        row[pad + num_samples - 2:num_samples - 2:-1],
                        out=row[pad + num_samples:])
        # the kernel updates its (1, n, 2) state in place, so each pass
        # gets a fresh one; a causal pass starts at rest, as sosfilt does
        if not zero_phase:
            _sos_kernel(sos, ext, np.zeros((1, n, 2)))
            out[r] = row
            return
        _sos_kernel(sos, ext, zi * row[0])
        rev[0] = row[::-1]
        _sos_kernel(sos, rev, zi * row[-1])
        out[r] = rev[0, pad:pad + num_samples][::-1]

    with ThreadPoolExecutor(max_workers=worker_threads()) as pool:
        # list() reads every result, so a worker's exception is raised
        list(pool.map(filter_row, range(len(rows))))


def apply_filter(
    sos: np.ndarray,
    data: Session | np.ndarray,
    mode: str = "zero_phase",
):
    """Filter per channel along time.

    ``mode="causal"`` is a single forward pass (``sosfilt``);
    ``mode="zero_phase"`` runs forward then time-reversed (``sosfiltfilt``
    with ``padlen=min(3(2n+1), T-1)``: zero group delay, squared magnitude).
    Accepts a Session or a bare (..., T) array and returns the same
    shape/type.  A bare float32 or float64 array keeps its dtype; any other
    dtype (integers, say) comes back as float64.  The audit grid filters
    whole sessions zero-phase, before they are cut into trials, so no trial
    edge adds a filter transient.

    Each channel (each row of a bare array) is one task on up to 2 threads,
    never more than the CPUs this process may run on: the worker rule
    (``_threads.worker_threads``) that the CNN's chunk loops share.  The passes run in float64 on scipy's
    SOS kernel (see the module docstring), in place in one reused padded
    row per thread; the output is bit-identical to ``sosfiltfilt``/
    ``sosfilt`` on each row, cast to the output dtype.  A bad ``sos``, an
    unknown mode or an empty input raises ``ValueError`` before any thread
    starts.
    """
    if mode not in ("causal", "zero_phase"):
        raise ValueError(f"unknown filter mode {mode!r}")
    # checked as sosfilt checks it; the kernel needs it C-contiguous
    sos = np.ascontiguousarray(np.atleast_2d(np.asarray(sos, dtype=np.float64)))
    if sos.ndim != 2 or sos.shape[1] != 6:
        raise ValueError("sos array must be shape (n_sections, 6)")
    if not np.all(sos[:, 3] == 1):
        raise ValueError("sos[:, 3] should be all ones")
    x = data.samples if isinstance(data, Session) else np.asarray(data)
    if x.size == 0:
        raise ValueError("cannot filter empty input")
    if x.ndim == 0:
        raise ValueError("cannot filter a 0-d input")
    dtype = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty(rows.shape, dtype)
    _filter_rows(sos, rows, out, mode)
    if not isinstance(data, Session):
        return out.reshape(x.shape)
    return Session(
        samples=out,
        sample_rate=data.sample_rate,
        subject_id=data.subject_id,
        events=data.events,
    )


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
    """Subtract the mean of the reference channels and drop them.

    The float64 reference is subtracted from one kept channel at a time, so
    no float64 copy of the session is made."""
    refs = sorted(set(int(c) for c in reference_channels))
    if not refs:
        raise ValueError("reference channel list is empty")
    if refs[0] < 0 or refs[-1] >= session.channels:
        raise ValueError(f"reference channel out of range 0..{session.channels - 1}")
    if len(refs) == session.channels:
        raise ValueError("cannot reference away every channel")
    ref_signal = session.samples[refs].mean(axis=0, dtype=np.float64)
    keep = sorted(set(range(session.channels)) - set(refs))
    out = np.empty((len(keep), session.num_samples), dtype=np.float32)
    for row, ch in zip(out, keep):
        # a float64 difference, rounded once to float32 as it is stored
        np.subtract(session.samples[ch], ref_signal, out=row, casting="unsafe")
    return Session(
        samples=out,
        sample_rate=session.sample_rate,
        subject_id=session.subject_id,
        events=session.events,
    )


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

# bytes of float64 deviations held at once while taking a z-score's variance
_CHUNK_BYTES = 2**19


def _mean_std(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 per-channel mean and population std of ``part`` over all its
    rows and samples.  The std is two-pass, so it does not cancel on DC
    offsets; its squared deviations are taken a few trials at a time in one
    reused float64 buffer of at most ``_CHUNK_BYTES``."""
    mean = part.mean(axis=(0, 2), keepdims=True, dtype=np.float64)
    step = max(1, _CHUNK_BYTES // (part[0].size * 8))
    buf = np.empty((min(step, len(part)),) + part.shape[1:])
    sq = np.empty(part.shape[:2] + (1,))
    for s in range(0, len(part), step):
        chunk = part[s:s + step]
        d = np.subtract(chunk, mean, out=buf[:len(chunk)])
        d *= d
        d.sum(axis=2, keepdims=True, out=sq[s:s + step])
    return mean, np.sqrt(sq.sum(axis=0, keepdims=True) / (part.size // mean.size))


def zscore(
    trials: TrialMatrix, train: np.ndarray, test: np.ndarray
) -> tuple[TrialMatrix, TrialMatrix]:
    """Standardize the ``train`` rows and the ``test`` rows of ``trials``
    with training statistics; return them as ``(train, test)``.

    One mean and one population std per channel are taken over all samples
    of the ``train`` rows and applied to the train and the test rows alike,
    so no statistic of a test row reaches either set.  Only those rows are
    normalized: each set is gathered once and normalized in place, and rows
    in neither set (the middle share a split leaves out, say) are never
    read.  The statistics accumulate in float64 a few trials at a time, so
    no float64 copy of the trials is made; normalization stays in the data
    dtype.  A zero std maps its channel to zeros and raises a
    :class:`ConstantChannelWarning` instead of dividing by zero.  Float32
    and float64 trials keep their dtype; any other dtype (integer trials,
    say) is gathered as float64.
    """
    if trials.num_trials == 0:
        raise ValueError("empty trial matrix")
    rows = [np.asarray(r, dtype=np.int64) for r in (train, test)]
    if rows[0].size == 0:
        raise ValueError("train rows are empty")
    x = trials.trials
    dtype = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
    out = []
    for idx in rows:
        part = x.take(idx, axis=0).astype(dtype, copy=False)
        if not out:  # the statistics come from the train rows alone
            mean, std = _mean_std(part)
            constant = std == 0.0
        # normalization stays in the data dtype, in place
        part -= mean.astype(dtype)
        part /= np.where(constant, 1.0, std).astype(dtype)
        if constant.any():
            np.copyto(part, 0.0, where=constant)
        out.append(trials.take(idx, trials=part))
    if constant.any():
        warnings.warn(
            f"{int(constant.sum())} constant channel(s) in the training "
            "statistics z-scored to zeros",
            ConstantChannelWarning,
            stacklevel=2,
        )
    return out[0], out[1]


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
        for name, a in (("freqs", freqs), ("power", power)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(power < 0):
            raise ValueError("power must be nonnegative")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "power", power)


def power_spectrum(
    data: Session | np.ndarray,
    segment_samples: int,
    overlap_fraction: float = 0.5,
    sample_rate: float | None = None,
) -> PowerSpectrum:
    """Welch-averaged one-sided periodogram with a periodic Hann window.

    ``segment_samples`` must be an integer >= 2 that does not exceed the
    available length.  A bare (channels, T) array needs a finite
    ``sample_rate`` > 0, and a NaN or infinite sample is rejected with its
    channel and sample named, as :class:`Session` does.

    The channels are split into contiguous groups, one per worker thread
    (``_threads.worker_threads``, the rule the filter and the CNN share).
    Each thread sums its own channels' segments in segment order, so the
    spectrum is bit-identical to a serial pass over all channels at once.
    """
    if isinstance(data, Session):
        x = data.samples
        fs = data.sample_rate
    else:
        x = np.atleast_2d(np.asarray(data))
        if sample_rate is None:
            raise ValueError("sample_rate is required for bare arrays")
        if not 0 < sample_rate < np.inf:
            raise ValueError(f"sample_rate={sample_rate!r} must be finite and > 0")
        check_finite(x)
        fs = sample_rate
    if not (isinstance(segment_samples, numbers.Integral) and segment_samples >= 2):
        raise ValueError(
            f"segment_samples={segment_samples!r} must be an integer >= 2")
    nperseg = int(segment_samples)
    if x.shape[-1] < nperseg:
        raise ValueError("segment_samples exceeds available samples")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must be in [0, 1)")
    hop = max(1, int(round(nperseg * (1.0 - overlap_fraction))))
    starts = range(0, x.shape[-1] - nperseg + 1, hop)

    n = np.arange(nperseg)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / nperseg)  # periodic Hann
    scale = nperseg * float(np.sum(window**2))
    nbins = nperseg // 2 + 1
    # one-sided: double everything except DC (and Nyquist when even)
    doubled = slice(1, nbins - 1 if nperseg % 2 == 0 else nbins)
    acc = np.zeros((x.shape[0], nbins), dtype=np.float64)

    def accumulate(lo: int, hi: int) -> None:
        # numpy only, so no traced blockaudit call runs off the main thread
        for start in starts:
            # the float64 window promotes each segment exactly, so no float64
            # copy of the whole session is made
            spec = np.fft.rfft(x[lo:hi, start:start + nperseg] * window, axis=-1)
            p = (spec.real**2 + spec.imag**2) / scale
            p[:, doubled] *= 2.0
            acc[lo:hi] += p

    workers = max(1, min(worker_threads(), x.shape[0]))
    bounds = [x.shape[0] * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # list() reads every result, so a worker's exception is raised
        list(pool.map(accumulate, bounds[:-1], bounds[1:]))
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / fs)
    return PowerSpectrum(freqs=freqs, power=np.maximum(acc / len(starts), 0.0))


def vlf_fraction(spectrum: PowerSpectrum, cutoff_hz: float) -> float:
    """Fraction of total power (all channels pooled) below ``cutoff_hz``,
    which must be finite, > 0 and below the top frequency bin."""
    if not 0 < cutoff_hz < np.inf:
        raise ValueError(f"cutoff_hz={cutoff_hz!r} must be finite and > 0")
    if not cutoff_hz < spectrum.freqs[-1]:
        raise ValueError("cutoff_hz must be below the top frequency bin")
    total = float(spectrum.power.sum())
    if total == 0.0:
        return 0.0
    below = float(spectrum.power[:, spectrum.freqs < cutoff_hz].sum())
    return below / total
