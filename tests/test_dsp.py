import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from blockaudit import (
    FilterKind,
    FilterSpec,
    TrialEvent,
    apply_filter,
    design_filter,
    downsample,
    frequency_response,
    power_spectrum,
    rereference,
    vlf_fraction,
    zscore,
)
from blockaudit import dsp
from blockaudit.dsp import ConstantChannelWarning, PowerSpectrum

from conftest import make_session

FS = 1024.0


def mag_db(cascade, freqs, fs=FS):
    return 20.0 * np.log10(np.abs(frequency_response(cascade, np.asarray(freqs), fs)))


class TestDesign:
    @pytest.mark.parametrize(
        "spec",
        [
            FilterSpec.lowpass(71.0, FS, 2),
            FilterSpec.lowpass(200.0, FS, 8),
            FilterSpec.highpass(14.0, FS, 2),
            FilterSpec.highpass(5.0, FS, 3),
            FilterSpec.bandpass(14.0, 71.0, FS, 2),
            FilterSpec.notch(49.0, 51.0, FS, 2),
        ],
        ids=["lp2", "lp8", "hp2", "hp3", "bp2", "bs2"],
    )
    def test_cutoff_magnitude(self, spec):
        # Butterworth definition: -3.0103 dB at every band edge
        cascade = design_filter(spec)
        cuts = [c for c in (spec.low_hz, spec.high_hz) if c is not None]
        db = mag_db(cascade, cuts)
        np.testing.assert_allclose(db, -3.0103, atol=0.1)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize(
        "kind,kw,scipy_args",
        [
            ("lowpass", {"high_hz": 80.0}, {"Wn": 80.0, "btype": "lowpass"}),
            ("highpass", {"low_hz": 12.0}, {"Wn": 12.0, "btype": "highpass"}),
            ("bandpass", {"low_hz": 10.0, "high_hz": 60.0},
             {"Wn": [10.0, 60.0], "btype": "bandpass"}),
            ("notch", {"low_hz": 45.0, "high_hz": 55.0},
             {"Wn": [45.0, 55.0], "btype": "bandstop"}),
        ],
    )
    def test_matches_reference_design(self, order, kind, kw, scipy_args):
        # the FilterSpec kind, edges and order reach scipy's Butterworth intact
        spec = FilterSpec(FilterKind(kind), order, FS, **kw)
        cascade = design_filter(spec)
        freqs = np.linspace(0.5, FS / 2 - 1.0, 503)
        mine = np.abs(frequency_response(cascade, freqs, FS))
        sos = sp_signal.butter(order, fs=FS, output="sos", **scipy_args)
        _, href = sp_signal.sosfreqz(sos, worN=freqs, fs=FS)
        np.testing.assert_allclose(mine, np.abs(href), atol=1e-7)

    def test_bandpass_dc_exactly_zero(self):
        cascade = design_filter(FilterSpec.bandpass(14.0, 71.0, FS, 2))
        h0 = frequency_response(cascade, np.array([0.0]), FS)[0]
        assert h0 == 0.0  # numerator carries exact roots at z = 1

    def test_notch_depth_at_50hz(self):
        cascade = design_filter(FilterSpec.notch(49.0, 51.0, FS, 2))
        assert mag_db(cascade, [50.0])[0] <= -20.0

    def test_all_sections_stable(self):
        for spec in (
            FilterSpec.lowpass(400.0, FS, 8),
            FilterSpec.highpass(1.0, FS, 4),
            FilterSpec.notch(49.0, 51.0, FS, 2),
            FilterSpec.bandpass(1.0, 500.0, FS, 3),
        ):
            for row in design_filter(spec):
                # poles strictly inside the unit circle
                poles = np.roots(row[3:])
                assert np.all(np.abs(poles) < 1.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="order"):
            FilterSpec.lowpass(10.0, FS, 0)
        with pytest.raises(ValueError):
            FilterSpec.lowpass(FS / 2, FS, 2)  # cutoff at Nyquist
        with pytest.raises(ValueError, match="low_hz must be <"):
            FilterSpec.bandpass(60.0, 20.0, FS, 2)


class TestApply:
    def test_zero_input_zero_output(self):
        cascade = design_filter(FilterSpec.bandpass(14.0, 71.0, FS, 2))
        x = np.zeros((3, 256))
        for mode in ("causal", "zero_phase"):
            np.testing.assert_array_equal(apply_filter(cascade, x, mode), 0.0)

    def test_identity_cascade(self):
        ident = np.array([[1, 0, 0, 1, 0, 0.]])
        x = np.zeros(64)
        x[10] = 1.0
        np.testing.assert_allclose(apply_filter(ident, x, "causal"), x)

    @pytest.mark.parametrize("mode,min_db", [("causal", 20.0), ("zero_phase", 40.0)])
    def test_notch_attenuates_50hz(self, mode, min_db):
        # oracle: steady-state RMS against the cascade's frequency response
        cascade = design_filter(FilterSpec.notch(49.0, 51.0, FS, 2))
        t = np.arange(int(FS * 8)) / FS
        x = np.sin(2 * np.pi * 50.0 * t)
        y = apply_filter(cascade, x, mode)
        core = slice(int(FS * 3), int(FS * 5))  # past transients
        atten = 20 * np.log10(
            np.sqrt(np.mean(x[core] ** 2)) / np.sqrt(np.mean(y[core] ** 2))
        )
        assert atten >= min_db

    def test_zero_phase_squares_magnitude(self):
        # at the cutoff: -3 dB causal, -6 dB zero-phase
        cascade = design_filter(FilterSpec.lowpass(50.0, FS, 2))
        t = np.arange(int(FS * 10)) / FS
        x = np.sin(2 * np.pi * 50.0 * t)
        core = slice(int(FS * 4), int(FS * 6))
        rms_in = np.sqrt(np.mean(x[core] ** 2))
        for mode, expected in (("causal", -3.0103), ("zero_phase", -6.0206)):
            y = apply_filter(cascade, x, mode)
            level = 20 * np.log10(np.sqrt(np.mean(y[core] ** 2)) / rms_in)
            assert abs(level - expected) < 0.1

    def test_linearity(self):
        cascade = design_filter(FilterSpec.bandpass(10.0, 60.0, FS, 2))
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 512))
        a, b = 0.7, -1.3
        lhs = apply_filter(cascade, a * x + b * y, "zero_phase")
        rhs = a * apply_filter(cascade, x, "zero_phase") + b * apply_filter(
            cascade, y, "zero_phase"
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_session_and_trials_dispatch(self, tiny_session):
        cascade = design_filter(FilterSpec.highpass(5.0, tiny_session.sample_rate, 2))
        filtered = apply_filter(cascade, tiny_session)
        assert filtered.samples.shape == tiny_session.samples.shape
        assert filtered.events == tiny_session.events

    def test_empty_input_rejected(self):
        cascade = design_filter(FilterSpec.lowpass(50.0, FS, 2))
        with pytest.raises(ValueError, match="empty"):
            apply_filter(cascade, np.zeros((2, 0)))
        empty = make_session(channels=3, total=0, rate=FS, events=())
        with pytest.raises(ValueError, match="empty"):
            apply_filter(cascade, empty)

    def test_bad_input_rejected_before_any_thread_starts(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("a filter thread pool was started")

        monkeypatch.setattr(dsp, "ThreadPoolExecutor", no_threads)
        sos = design_filter(FilterSpec.lowpass(50.0, FS, 2))
        session = make_session(channels=3, total=256, rate=FS, events=())
        bad_shape = sos[:, :5]
        bad_a0 = sos.copy()
        bad_a0[0, 3] = 2.0
        for data in (session, session.samples):
            with pytest.raises(ValueError, match=r"shape \(n_sections, 6\)"):
                apply_filter(bad_shape, data)
            with pytest.raises(ValueError, match="all ones"):
                apply_filter(bad_a0, data)
            with pytest.raises(ValueError, match="unknown filter mode"):
                apply_filter(sos, data, "acausal")
        with pytest.raises(ValueError, match="empty"):
            apply_filter(sos, np.zeros((0, 256)))
        with pytest.raises(ValueError, match="0-d"):
            apply_filter(sos, np.float64(1.0))

    def test_integer_input_returns_float64(self):
        sos = design_filter(FilterSpec.highpass(5.0, 100.0, 2))
        x = np.arange(40) % 7
        for mode in ("causal", "zero_phase"):
            y = apply_filter(sos, x, mode)
            assert y.dtype == np.float64
            assert np.array_equal(y, apply_filter(sos, x.astype(np.float64), mode))
            # a cast back to the integer input dtype would truncate them
            assert not np.array_equal(y, np.trunc(y))

    @pytest.mark.parametrize("mode", ["causal", "zero_phase"])
    def test_session_equals_per_row_scipy_bit_for_bit(self, mode):
        # 13 channels, so the filter threads do not split them evenly; a
        # short switch interval makes the threads interleave often
        session = make_session(channels=13, total=3000, rate=FS, events=(),
                               seed=11)
        sos = design_filter(FilterSpec.bandpass(14.0, 71.0, FS, 2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = apply_filter(sos, session, mode).samples
        finally:
            sys.setswitchinterval(interval)
        assert out.dtype == np.float32
        for ch, row in enumerate(session.samples.astype(np.float64)):
            if mode == "causal":
                y = sp_signal.sosfilt(sos, row)
            else:
                y = sp_signal.sosfiltfilt(sos, row, padlen=3 * (2 * len(sos) + 1))
            assert np.array_equal(out[ch], y.astype(np.float32)), ch
        # and equal to filtering the whole (channels, T) stack in one call
        whole = apply_filter(sos, session.samples, mode)
        assert whole.dtype == np.float32
        assert np.array_equal(out, whole)

    @pytest.mark.parametrize("order", [1, 2, 8])
    @pytest.mark.parametrize("kind", list(FilterKind))
    def test_every_kind_order_and_length_equals_scipy_bit_for_bit(
        self, kind, order
    ):
        # order 8 is downsample's anti-alias guard; T = 1 has no padding,
        # and every T <= 3(2n+1) pads by T - 1 samples
        spec = FilterSpec(kind, order, FS, low_hz=14.0, high_hz=71.0)
        sos = design_filter(spec)
        full_pad = 3 * (2 * len(sos) + 1)
        rng = np.random.default_rng(order)
        for total in (1, 2, 5, full_pad, full_pad + 1, 700):
            x = rng.standard_normal((2, 3, total)) * 40.0 + 7.0
            for mode in ("causal", "zero_phase"):
                out = apply_filter(sos, x, mode)
                assert out.shape == x.shape and out.dtype == np.float64
                for idx in np.ndindex(x.shape[:-1]):
                    if mode == "causal":
                        y = sp_signal.sosfilt(sos, x[idx])
                    else:
                        y = sp_signal.sosfiltfilt(
                            sos, x[idx], padlen=min(full_pad, total - 1)
                        )
                    assert np.array_equal(out[idx], y), (total, mode, idx)


class TestDownsample:
    def test_factor_one_identity(self, tiny_session):
        assert downsample(tiny_session, 1) is tiny_session

    def test_rate_and_events_rescaled(self):
        events = (TrialEvent(0, 0, 0, 100, 2000),)
        session = make_session(channels=2, total=4096, rate=4096.0, events=events)
        out = downsample(session, 4)
        assert out.sample_rate == 1024.0
        assert out.num_samples == 1024
        assert out.events[0].onset_sample == 25
        assert out.events[0].length_samples == 500

    def test_alias_suppression(self):
        # oracle: spectrum of a 600 Hz tone decimated from 4096 to 1024 Hz;
        # the 424 Hz alias must sit >= 40 dB below the input tone power
        rate = 4096.0
        t = np.arange(int(rate * 4)) / rate
        x = np.sin(2 * np.pi * 600.0 * t).astype(np.float32)[None, :]
        session = make_session(channels=1, total=x.shape[1], rate=rate, events=())
        session = type(session)(samples=x, sample_rate=rate, subject_id="s",
                                events=())
        out = downsample(session, 4)
        spec_in = power_spectrum(session, 4096, 0.5)
        spec_out = power_spectrum(out, 1024, 0.5)
        p_in = spec_in.power[0][np.argmin(np.abs(spec_in.freqs - 600.0))]
        p_alias = spec_out.power[0][np.argmin(np.abs(spec_out.freqs - 424.0))]
        assert 10 * np.log10(p_alias / p_in) <= -40.0

    def test_bad_factor(self, tiny_session):
        with pytest.raises(ValueError, match="factor"):
            downsample(tiny_session, 0)


class TestRereference:
    def test_zero_reference_keeps_data(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((3, 50)).astype(np.float32)
        data[2] = 0.0
        session = make_session(channels=3, total=50, events=())
        session = type(session)(samples=data, sample_rate=100.0,
                                subject_id="s", events=())
        out = rereference(session, [2])
        np.testing.assert_allclose(out.samples, data[:2], atol=1e-7)

    def test_identical_channels_cancel(self):
        x = np.random.default_rng(2).standard_normal(40).astype(np.float32)
        session = type(make_session())(samples=np.stack([x, x]),
                                       sample_rate=100.0, subject_id="s",
                                       events=())
        out = rereference(session, [1])
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-7)

    def test_mean_of_two_references(self):
        # direct arithmetic oracle: ch0 - mean(ch1, ch2)
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 30)).astype(np.float32)
        session = type(make_session())(samples=data, sample_rate=100.0,
                                       subject_id="s", events=())
        out = rereference(session, [1, 2])
        np.testing.assert_allclose(
            out.samples[0], data[0] - (data[1] + data[2]) / 2.0, atol=1e-6
        )

    def test_equals_the_float64_formula_bit_for_bit(self):
        data = (np.random.default_rng(4).standard_normal((6, 500)) * 30.0
                + 5.0).astype(np.float32)
        session = type(make_session())(samples=data, sample_rate=100.0,
                                       subject_id="s", events=())
        out = rereference(session, [4, 1])
        ref = data[[1, 4]].mean(axis=0, dtype=np.float64)
        expected = (data[[0, 2, 3, 5]].astype(np.float64) - ref).astype(np.float32)
        assert out.samples.dtype == np.float32
        assert np.array_equal(out.samples, expected)

    def test_peak_memory_is_the_output_plus_a_few_float64_rows(self):
        x = np.random.default_rng(6).standard_normal((16, 65536)).astype(np.float32)
        session = type(make_session())(samples=x, sample_rate=256.0,
                                       subject_id="s", events=())
        tracemalloc.start()
        try:
            out = rereference(session, [0, 9])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 copy of the 14 kept channels alone would be 7 MiB
        assert peak < out.samples.nbytes + 4 * x.shape[1] * 8

    def test_errors(self, tiny_session):
        with pytest.raises(ValueError, match="empty"):
            rereference(tiny_session, [])
        with pytest.raises(ValueError, match="range"):
            rereference(tiny_session, [5])


# one case, under the id it had while zscore also took a per-trial scope
_TRAIN_AXES = pytest.mark.parametrize("axes", [(0, 2)],
                                      ids=["train_statistics-axes1"])


class TestZscore:
    def test_train_statistics_scope(self):
        rng = np.random.default_rng(6)
        tm = _matrix(rng.standard_normal((6, 2, 32)) * 2.0 + 5.0)
        train, test = zscore(tm, np.arange(3), np.arange(3, 6))
        fit = tm.trials[:3].astype(np.float64)
        mean = fit.mean(axis=(0, 2))
        std = fit.std(axis=(0, 2))
        expected = (tm.trials - mean[None, :, None]) / std[None, :, None]
        np.testing.assert_allclose(
            np.concatenate([train.trials, test.trials]), expected, atol=1e-12
        )

    def test_returns_only_the_requested_rows_and_leaves_input_untouched(self):
        rng = np.random.default_rng(9)
        tm = _matrix(rng.standard_normal((6, 2, 16)))
        before = tm.trials.copy()
        train, test = zscore(tm, [4, 0, 2], [5])
        np.testing.assert_array_equal(train.trial_indices, [4, 0, 2])
        np.testing.assert_array_equal(test.trial_indices, [5])
        np.testing.assert_array_equal(test.labels, tm.labels[[5]])
        np.testing.assert_array_equal(tm.trials, before)
        assert zscore(tm, [0, 1], [])[1].num_trials == 0

    def test_train_statistics_constant_channel_zeroed_with_warning(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 2, 16))
        x[:2, 1] = 3.0  # constant over the training rows only
        assert np.all(x[2:, 1].std(axis=1) > 0)
        tm = _matrix(x)
        with pytest.warns(ConstantChannelWarning, match="training statistics"):
            train, test = zscore(tm, [0, 1], [2, 3])
        np.testing.assert_array_equal(train.trials[:, 1], 0.0)
        np.testing.assert_array_equal(test.trials[:, 1], 0.0)
        assert np.all(train.trials[:, 0] != 0.0)
        assert np.all(test.trials[:, 0] != 0.0)

    @_TRAIN_AXES
    def test_float32_equals_the_formula_bit_for_bit(self, axes):
        rng = np.random.default_rng(8)
        x = (rng.standard_normal((6, 3, 40)) * 2.0 + 5.0).astype(np.float32)
        train, test = np.array([0, 2, 3]), np.array([1, 5])
        out_train, out_test = zscore(_matrix(x).replace(trials=x), train, test)
        mean = x[train].mean(axis=axes, keepdims=True, dtype=np.float64)
        std = x[train].std(axis=axes, keepdims=True, dtype=np.float64)
        expected = (x - mean.astype(np.float32)) / std.astype(np.float32)
        assert out_train.trials.dtype == out_test.trials.dtype == np.float32
        assert np.array_equal(out_train.trials, expected[train])
        assert np.array_equal(out_test.trials, expected[test])

    @_TRAIN_AXES
    def test_int64_returns_float64_formula(self, axes):
        x = np.arange(12, dtype=np.int64).reshape(2, 1, 6)
        train, test = np.array([0]), np.array([1])
        out_train, out_test = zscore(_matrix(x).replace(trials=x), train, test)
        mean = x[train].mean(axis=axes, keepdims=True, dtype=np.float64)
        std = x[train].std(axis=axes, keepdims=True, dtype=np.float64)
        expected = (x - mean) / std
        assert out_train.trials.dtype == out_test.trials.dtype == np.float64
        assert np.array_equal(out_train.trials, expected[train])
        assert np.array_equal(out_test.trials, expected[test])

    @_TRAIN_AXES
    def test_float32_across_chunks_equals_the_formula_bit_for_bit(self, axes):
        # 4 rows per chunk: 11 train rows span chunks of 4, 4 and 3
        channels = 3
        samples = dsp._CHUNK_BYTES // (4 * channels * 8)
        rng = np.random.default_rng(11)
        x = (rng.standard_normal((14, channels, samples)) * 2.0 + 5.0
             ).astype(np.float32)
        train, test = np.arange(11)[::-1], np.array([13, 11, 12])
        assert len(train) > 2 * (dsp._CHUNK_BYTES // (x[0].size * 8))
        out_train, out_test = zscore(_matrix(x).replace(trials=x), train, test)
        expected = _formula(x, axes, train)
        assert np.array_equal(out_train.trials, expected[train])
        assert np.array_equal(out_test.trials, expected[test])

    @_TRAIN_AXES
    @pytest.mark.parametrize("rows, rows_per_chunk", [
        (7, 3), (1, 3), (5, 0.5),
    ], ids=["uneven", "single_row", "row_larger_than_budget"])
    def test_chunk_edges_equal_the_formula(
        self, monkeypatch, axes, rows, rows_per_chunk
    ):
        rng = np.random.default_rng(12)
        x = (rng.standard_normal((rows + 2, 2, 48)) * 3.0 - 4.0).astype(np.float32)
        monkeypatch.setattr(dsp, "_CHUNK_BYTES", int(rows_per_chunk * 2 * 48 * 8))
        train, test = np.arange(rows), np.arange(rows, rows + 2)
        out_train, out_test = zscore(_matrix(x).replace(trials=x), train, test)
        expected = _formula(x, axes, train)
        assert np.array_equal(out_train.trials, expected[train])
        assert np.array_equal(out_test.trials, expected[test])
        # float64 statistics may differ from numpy's in their last bits only
        x64 = x.astype(np.float64)
        train64, test64 = zscore(_matrix(x64), train, test)
        expected64 = _formula(x64, axes, train)
        np.testing.assert_allclose(train64.trials, expected64[train], rtol=1e-12,
                                   atol=1e-12)
        np.testing.assert_allclose(test64.trials, expected64[test], rtol=1e-12,
                                   atol=1e-12)

    def test_train_constant_channel_zeroed_in_every_chunk(self, monkeypatch):
        monkeypatch.setattr(dsp, "_CHUNK_BYTES", 2 * 2 * 16 * 8)  # 2 rows
        x = np.random.default_rng(14).standard_normal((12, 2, 16))
        x[:5, 1] = 3.0  # constant over the 5 training rows only
        with pytest.warns(ConstantChannelWarning,
                          match="^1 constant channel.s. in the training"):
            train, test = zscore(_matrix(x), np.arange(5), np.arange(5, 12))
        np.testing.assert_array_equal(train.trials[:, 1], 0.0)
        np.testing.assert_array_equal(test.trials[:, 1], 0.0)
        assert np.all(train.trials[:, 0] != 0.0)
        assert np.all(test.trials[:, 0] != 0.0)

    def test_float32_peak_memory_is_the_outputs_plus_one_chunk(self):
        x = np.random.default_rng(15).standard_normal((64, 16, 512)).astype(np.float32)
        tm = _matrix(x).replace(trials=x)
        train, test = np.arange(48), np.arange(48, 64)
        tracemalloc.start()
        try:
            zscore(tm, train, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 copy of the 48 train rows alone would be 3 MiB
        assert peak < x.nbytes + dsp._CHUNK_BYTES

    def test_train_statistics_requires_indices(self):
        tm = _matrix(np.zeros((2, 1, 4)))
        with pytest.raises(TypeError, match="train"):
            zscore(tm)
        with pytest.raises(ValueError, match="train rows are empty"):
            zscore(tm, [], [0])


def _formula(x, axes, train):
    """Every row of ``x`` z-scored by numpy's float64 mean and std of the
    ``train`` rows, then normalized in the dtype of ``x``."""
    mean = x[train].mean(axis=axes, keepdims=True, dtype=np.float64)
    std = x[train].std(axis=axes, keepdims=True, dtype=np.float64)
    return (x - mean.astype(x.dtype)) / std.astype(x.dtype)


def _matrix(trials):
    from blockaudit import TrialMatrix

    trials = np.asarray(trials, dtype=np.float64)
    n = trials.shape[0]
    return TrialMatrix(
        trials=trials,
        labels=np.zeros(n, dtype=np.int64),
        block_ids=np.zeros(n, dtype=np.int64),
        subject_ids=np.array(["s"] * n),
        window_samples=trials.shape[2],
        sample_rate=256.0,
    )


class TestPowerSpectrum:
    def test_bin_centered_tone(self):
        # analytic oracle: periodic Hann spreads a bin-centered tone over
        # exactly three bins, 2/3 of the power in the center
        fs, n = 256.0, 512
        t = np.arange(n * 8) / fs
        freq = 16 * fs / n  # exactly bin 16
        x = np.sin(2 * np.pi * freq * t)[None, :]
        spec = power_spectrum(x, n, 0.5, sample_rate=fs)
        total = spec.power[0].sum()
        k = int(np.argmax(spec.power[0]))
        assert spec.freqs[k] == pytest.approx(freq)
        assert spec.power[0, k] / total == pytest.approx(2.0 / 3.0, abs=1e-9)
        lobe = spec.power[0, k - 1 : k + 2].sum() / total
        assert lobe >= 0.999999

    def test_parseval_white_noise(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 65536))
        spec = power_spectrum(x, 1024, 0.5, sample_rate=256.0)
        total = spec.power.sum(axis=1)
        np.testing.assert_allclose(total, x.var(axis=1), rtol=0.02)

    def test_white_noise_flat(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 1 << 18))
        spec = power_spectrum(x, 256, 0.5, sample_rate=256.0)
        inner = spec.power[0, 1:-1]  # DC/Nyquist carry half-width bins
        assert inner.max() / inner.min() < 2.0

    def test_zero_signal(self):
        spec = power_spectrum(np.zeros((1, 512)), 128, 0.5, sample_rate=100.0)
        np.testing.assert_array_equal(spec.power, 0.0)

    def test_float32_equals_its_float64_cast_bit_for_bit(self):
        session = make_session(channels=3, total=5000, seed=16)
        x = session.samples
        assert x.dtype == np.float32
        spec32 = power_spectrum(session, 512, 0.5)
        spec64 = power_spectrum(x.astype(np.float64), 512, 0.5,
                                sample_rate=session.sample_rate)
        assert np.array_equal(spec32.power, spec64.power)
        assert np.array_equal(spec32.freqs, spec64.freqs)

    def test_peak_memory_below_a_float64_copy_of_the_session(self):
        x = np.random.default_rng(17).standard_normal((16, 65536)).astype(np.float32)
        tracemalloc.start()
        try:
            power_spectrum(x, 1024, 0.5, sample_rate=256.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes

    def test_segment_too_long(self):
        with pytest.raises(ValueError, match="exceeds"):
            power_spectrum(np.zeros((1, 64)), 128, 0.5, sample_rate=100.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_named(self, bad):
        x = np.zeros((3, 512))
        x[2, 100] = bad
        with pytest.raises(ValueError,
                           match=f"non-finite sample {bad} at channel 2, sample 100"):
            power_spectrum(x, 128, 0.5, sample_rate=100.0)

    @pytest.mark.parametrize("rate", [0.0, np.inf, np.nan, -5.0])
    def test_sample_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="sample_rate=.* must be finite and > 0"):
            power_spectrum(np.zeros((1, 512)), 128, 0.5, sample_rate=rate)

    @pytest.mark.parametrize("seg", [256.9, 256.0, 1])
    def test_segment_samples_must_be_an_integer_of_at_least_two(self, seg):
        with pytest.raises(ValueError,
                           match=f"segment_samples={seg!r} must be an integer >= 2"):
            power_spectrum(np.zeros((1, 512)), seg, 0.5, sample_rate=100.0)

    @staticmethod
    def _serial_reference(x, nperseg, hop):
        """The Welch sum over every channel at once, one segment at a time."""
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
        scale = nperseg * float(np.sum(window**2))
        acc = np.zeros((x.shape[0], nperseg // 2 + 1))
        count = 0
        for start in range(0, x.shape[1] - nperseg + 1, hop):
            spec = np.fft.rfft(x[:, start:start + nperseg] * window, axis=-1)
            p = (spec.real**2 + spec.imag**2) / scale
            p[:, 1:nperseg // 2 if nperseg % 2 == 0 else None] *= 2.0
            acc += p
            count += 1
        return np.maximum(acc / count, 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 3, 32])
    @pytest.mark.parametrize("nperseg", [256, 255])
    def test_threaded_equals_serial_reference_bit_for_bit(self, channels, dtype,
                                                          nperseg):
        x = np.random.default_rng(channels).standard_normal(
            (channels, 5000)).astype(dtype)
        spec = power_spectrum(x, nperseg, 0.5, sample_rate=256.0)
        hop = int(round(nperseg * 0.5))
        assert np.array_equal(spec.power, self._serial_reference(x, nperseg, hop))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), channels=st.integers(1, 12))
    def test_permuting_channels_permutes_the_spectrum(self, seed, channels):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((channels, 1024)).astype(np.float32)
        order = rng.permutation(channels)
        spec = power_spectrum(x, 128, 0.5, sample_rate=100.0)
        permuted = power_spectrum(x[order], 128, 0.5, sample_rate=100.0)
        assert np.array_equal(permuted.power, spec.power[order])
        assert np.array_equal(permuted.freqs, spec.freqs)

    @pytest.mark.parametrize("field", ["freqs", "power"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spectrum_rejected(self, field, bad):
        parts = {"freqs": np.array([0.0, 1.0, 2.0]), "power": np.ones((2, 3))}
        parts[field][..., -1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PowerSpectrum(**parts)


class TestVlfFraction:
    def test_dc_only(self):
        x = np.ones((1, 1024))
        spec = power_spectrum(x, 256, 0.5, sample_rate=256.0)
        assert vlf_fraction(spec, 5.0) == pytest.approx(1.0)

    def test_bandpassed_signal_has_no_vlf(self):
        # filter-response oracle: 14-71 Hz noise leaves < 1% below 5 Hz
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 1 << 16))
        cascade = design_filter(FilterSpec.bandpass(14.0, 71.0, FS, 2))
        y = apply_filter(cascade, x, "zero_phase")
        spec = power_spectrum(y, 2048, 0.5, sample_rate=FS)
        assert vlf_fraction(spec, 5.0) < 0.01

    def test_white_noise_half(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 1 << 18))
        spec = power_spectrum(x, 512, 0.5, sample_rate=256.0)
        assert vlf_fraction(spec, 64.0) == pytest.approx(0.5, abs=0.02)

    def test_cutoff_above_range_rejected(self):
        spec = power_spectrum(np.ones((1, 256)), 64, 0.5, sample_rate=100.0)
        with pytest.raises(ValueError, match="cutoff"):
            vlf_fraction(spec, 51.0)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, np.nan, np.inf])
    def test_cutoff_must_be_finite_and_positive(self, cutoff):
        spec = power_spectrum(np.ones((1, 256)), 64, 0.5, sample_rate=100.0)
        with pytest.raises(ValueError,
                           match=f"cutoff_hz={cutoff!r} must be finite and > 0"):
            vlf_fraction(spec, cutoff)
