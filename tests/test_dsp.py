import numpy as np
import pytest
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
from blockaudit.dsp import ConstantChannelWarning

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

    def test_errors(self, tiny_session):
        with pytest.raises(ValueError, match="empty"):
            rereference(tiny_session, [])
        with pytest.raises(ValueError, match="range"):
            rereference(tiny_session, [5])


class TestZscore:
    def test_two_point_channel(self):
        tm = _matrix(np.array([[[1.0, 3.0]]]))
        out = zscore(tm, "per_trial_channel")
        np.testing.assert_allclose(out.trials[0, 0], [-1.0, 1.0])

    def test_constant_channel_zeroed_with_warning(self):
        tm = _matrix(np.full((1, 1, 8), 7.0))
        with pytest.warns(ConstantChannelWarning):
            out = zscore(tm, "per_trial_channel")
        np.testing.assert_array_equal(out.trials, 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        tm = _matrix(rng.standard_normal((5, 3, 64)))
        once = zscore(tm, "per_trial_channel")
        twice = zscore(once, "per_trial_channel")
        np.testing.assert_allclose(once.trials, twice.trials, atol=1e-12)

    def test_moments(self):
        rng = np.random.default_rng(5)
        tm = _matrix(rng.standard_normal((4, 2, 128)) * 3.0 + 1.0)
        out = zscore(tm, "per_trial_channel")
        assert np.abs(out.trials.mean(axis=2)).max() < 1e-9
        assert np.abs(out.trials.std(axis=2) - 1.0).max() < 1e-9

    def test_train_statistics_scope(self):
        rng = np.random.default_rng(6)
        tm = _matrix(rng.standard_normal((6, 2, 32)) * 2.0 + 5.0)
        out = zscore(tm, "train_statistics", train_indices=np.arange(3))
        fit = tm.trials[:3].astype(np.float64)
        mean = fit.mean(axis=(0, 2))
        std = fit.std(axis=(0, 2))
        expected = (tm.trials - mean[None, :, None]) / std[None, :, None]
        np.testing.assert_allclose(out.trials, expected, atol=1e-12)

    def test_train_statistics_constant_channel_zeroed_with_warning(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 2, 16))
        x[:2, 1] = 3.0  # constant over the training rows only
        with pytest.warns(ConstantChannelWarning, match="training statistics"):
            out = zscore(_matrix(x), "train_statistics", train_indices=[0, 1])
        np.testing.assert_array_equal(out.trials[:, 1], 0.0)
        assert np.all(out.trials[:2, 0] != 0.0)

    @pytest.mark.parametrize("scope, axes", [
        ("per_trial_channel", 2), ("train_statistics", (0, 2)),
    ])
    def test_float32_equals_the_formula_bit_for_bit(self, scope, axes):
        rng = np.random.default_rng(8)
        x = (rng.standard_normal((6, 3, 40)) * 2.0 + 5.0).astype(np.float32)
        train = np.array([0, 2, 3])
        out = zscore(_matrix(x).replace(trials=x), scope, train_indices=train)
        fit = x[train] if scope == "train_statistics" else x
        mean = fit.mean(axis=axes, keepdims=True, dtype=np.float64)
        std = fit.std(axis=axes, keepdims=True, dtype=np.float64)
        expected = (x - mean.astype(np.float32)) / std.astype(np.float32)
        assert out.trials.dtype == np.float32
        assert np.array_equal(out.trials, expected)

    @pytest.mark.parametrize("scope, axes", [
        ("per_trial_channel", 2), ("train_statistics", (0, 2)),
    ])
    def test_int64_returns_float64_formula(self, scope, axes):
        x = np.arange(12, dtype=np.int64).reshape(2, 1, 6)
        train = np.array([0])
        out = zscore(_matrix(x).replace(trials=x), scope, train_indices=train)
        fit = x[train] if scope == "train_statistics" else x
        mean = fit.mean(axis=axes, keepdims=True, dtype=np.float64)
        std = fit.std(axis=axes, keepdims=True, dtype=np.float64)
        assert out.trials.dtype == np.float64
        assert np.array_equal(out.trials, (x - mean) / std)

    def test_train_statistics_requires_indices(self):
        tm = _matrix(np.zeros((2, 1, 4)))
        with pytest.raises(ValueError, match="train_indices"):
            zscore(tm, "train_statistics")


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

    def test_segment_too_long(self):
        with pytest.raises(ValueError, match="exceeds"):
            power_spectrum(np.zeros((1, 64)), 128, 0.5, sample_rate=100.0)


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
