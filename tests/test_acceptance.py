"""Acceptance gate: every exit criterion at its stated tolerance.

The contamination criteria run on synthetic sessions at the prescribed
scale (40 classes, 50 trials/class, 96 channels, 1.024 kHz for the
block-design session).  Chance checks on block-structured test sets use the
cluster-robust block-level exact binomial test (one majority prediction per
test block); within-block test sets on intermixed labels use the per-trial
test.  Run with ``pytest -s tests/test_acceptance.py`` for the per-criterion
lines.
"""
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import blockaudit as ba
from blockaudit import dsp, splits as sp
from blockaudit.cli import main as cli_main
from blockaudit.config import DEFAULTS, build_grid_spec

from conftest import gradient_check

CHANCE40 = 1.0 / 40.0


@pytest.fixture(scope="module")
def block_session():
    """Criterion-1 session: drift-only block design, 40 classes x 50 trials,
    96 channels at 1.024 kHz (5 blocks per class so block-disjoint splits can
    stratify every class into train/val/test)."""
    schedule = ba.make_block_schedule(
        40, 50, stimulus_ms=500.0, blank_ms=1000.0, seed=101,
        blocks_per_class=5,
    )
    return ba.generate_session(
        schedule, channels=96, sample_rate=1024.0,
        drift=ba.DriftParams(), evoked=ba.EvokedParams(),
        subject_id="s01", seed=101,
    )


def reduced_grid_spec(rate, **overrides):
    """`blockaudit audit`'s default grid at ``rate``, with grid seed 2024."""
    grid = build_grid_spec(DEFAULTS["audit"]["grid"], rate, seed=2024)
    return replace(grid, **overrides)


@pytest.fixture(scope="module")
def block_grid(block_session):
    t0 = time.time()
    result = ba.run_grid(block_session, reduced_grid_spec(1024.0))
    result_runtime = time.time() - t0
    return result, result_runtime


class TestCriterion1Contamination:
    def test_within_block_knn_and_svm_high(self, block_grid):
        result, _ = block_grid
        for kind in ("knn", "svm"):
            cell = result.cells[("notch", sp.WITHIN_BLOCK, 440.0, 96, kind)]
            assert cell.accuracy >= 0.90, f"{kind} within-block {cell.accuracy}"

    def test_block_disjoint_every_classifier_at_chance(self, block_grid):
        result, _ = block_grid
        bd = result.by_regime(sp.BLOCK_DISJOINT)
        assert bd, "no block-disjoint cells"
        for key, cell in bd.items():
            assert cell.block_p_value is not None, key
            assert cell.block_p_value >= 0.01, (key, cell.accuracy,
                                                cell.block_p_value)

    def test_verdict_contaminated(self, block_grid):
        result, _ = block_grid
        assert ba.issue_verdict(result).status is ba.VerdictStatus.CONTAMINATED

    def test_runtime_within_budget(self, block_grid):
        _, runtime = block_grid
        assert runtime <= 600.0, f"reduced grid took {runtime:.0f}s"


@pytest.fixture(scope="module")
def rapid_session():
    schedule = ba.make_rapid_event_schedule(
        40, 20, block_count=40, stimulus_ms=500.0, blank_ms=1000.0, seed=202
    )
    return ba.generate_session(
        schedule, channels=48, sample_rate=512.0,
        drift=ba.DriftParams(), evoked=ba.EvokedParams(),
        subject_id="s01", seed=202,
    )


class TestCriterion2Relabeling:
    def test_block_labels_svm_high(self, rapid_session):
        spec = reduced_grid_spec(
            512.0, classifiers=("svm",), windows_ms=(440.0,),
            channel_counts=(0,),
            splits=(ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),),
            seed=303,
        )
        result = ba.relabel_analysis(rapid_session, spec)
        cell = next(iter(result.cells.values()))
        assert cell.num_classes == 40  # one label per block
        assert cell.accuracy >= 0.90

    def test_true_labels_all_classifiers_at_chance(self, rapid_session):
        spec = reduced_grid_spec(
            512.0, classifiers=("knn", "svm", "mlp", "cnn1d"),
            windows_ms=(440.0,), channel_counts=(0,),
            splits=(ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),),
            seed=303,
            train_config=ba.TrainConfig(seed=0, epochs=10, batch_size=64,
                                        learning_rate=3e-5),
        )
        result = ba.run_grid(rapid_session, spec)
        for key, cell in result.cells.items():
            assert cell.ok, (key, cell.error)
            assert cell.chance_p >= 0.01, (key, cell.accuracy, cell.chance_p)


class TestCriterion3HighpassAblation:
    def test_drift_drops_at_14hz(self, block_session):
        spec = reduced_grid_spec(
            1024.0, classifiers=("svm",), windows_ms=(440.0,),
            channel_counts=(0,),
            splits=(ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),),
        )
        ablation = ba.highpass_ablation(block_session, [14.0], spec)
        key = ("notch", sp.WITHIN_BLOCK, 440.0, 96, "svm")
        drop = ablation.delta(14.0)[key]
        assert drop >= 0.40, f"drop {drop:.3f}"

    def test_evoked_control_survives_5hz(self):
        schedule = ba.make_block_schedule(10, 12, 500.0, 1000.0, seed=55)
        session = ba.generate_session(
            schedule, channels=24, sample_rate=512.0,
            drift=ba.DriftParams(0.0, 0.0, 1.0),
            evoked=ba.EvokedParams(amplitude=2.0, template_ms=150.0,
                                   center_hz=30.0),
            subject_id="s01", seed=55,
        )
        spec = reduced_grid_spec(
            512.0, classifiers=("svm",), windows_ms=(440.0,),
            channel_counts=(0,),
            splits=(ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),),
            seed=66,
        )
        ablation = ba.highpass_ablation(session, [5.0], spec)
        key = ("notch", sp.WITHIN_BLOCK, 440.0, 24, "svm")
        drop = ablation.delta(5.0)[key]
        assert drop <= 0.05, f"evoked drop {drop:.3f}"


class TestCriterion4WindowChannelInsensitivity:
    def test_one_ms_eight_channels_svm(self, block_grid):
        result, _ = block_grid
        cell = result.cells[("notch", sp.WITHIN_BLOCK, 1.0, 8, "svm")]
        assert cell.accuracy >= 3.0 * CHANCE40
        assert cell.p_value < 0.01


class TestCriterion5DspCorrectness:
    def test_butterworth_cutoff_magnitude(self):
        fs = 1024.0
        specs = [
            ba.FilterSpec.lowpass(71.0, fs, 2),
            ba.FilterSpec.lowpass(200.0, fs, 8),
            ba.FilterSpec.highpass(14.0, fs, 2),
            ba.FilterSpec.highpass(5.0, fs, 4),
            ba.FilterSpec.bandpass(14.0, 71.0, fs, 2),
            ba.FilterSpec.notch(49.0, 51.0, fs, 2),
        ]
        for spec in specs:
            cascade = ba.design_filter(spec)
            cuts = [c for c in (spec.low_hz, spec.high_hz) if c is not None]
            mags = np.abs(ba.frequency_response(cascade, np.array(cuts), fs))
            db = 20.0 * np.log10(mags)
            assert np.all(np.abs(db + 3.0103) <= 0.1), spec

    def test_bandpass_dc_gain_zero(self):
        cascade = ba.design_filter(ba.FilterSpec.bandpass(14.0, 71.0, 1024.0, 2))
        assert ba.frequency_response(cascade, np.array([0.0]), 1024.0)[0] == 0.0

    @pytest.mark.parametrize("mode,min_db", [("causal", 20.0),
                                             ("zero_phase", 40.0)])
    def test_notch_depth(self, mode, min_db):
        fs = 1024.0
        cascade = ba.design_filter(ba.FilterSpec.notch(49.0, 51.0, fs, 2))
        t = np.arange(int(fs * 8)) / fs
        x = np.sin(2 * np.pi * 50.0 * t)
        y = ba.apply_filter(cascade, x, mode)
        core = slice(int(fs * 3), int(fs * 5))
        atten = 20 * np.log10(np.sqrt(np.mean(x[core] ** 2))
                              / np.sqrt(np.mean(y[core] ** 2)))
        assert atten >= min_db

    def test_parseval_within_2_percent(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 1 << 16))
        spec = dsp.power_spectrum(x, 1024, 0.5, sample_rate=512.0)
        np.testing.assert_allclose(spec.power.sum(axis=1), x.var(axis=1),
                                   rtol=0.02)

    def test_decimation_alias_suppression(self):
        rate = 4096.0
        t = np.arange(int(rate * 4)) / rate
        tone = np.sin(2 * np.pi * 600.0 * t).astype(np.float32)[None, :]
        session = ba.Session(samples=tone, sample_rate=rate, subject_id="s",
                             events=())
        out = dsp.downsample(session, 4)
        spec_in = dsp.power_spectrum(session, 4096, 0.5)
        spec_out = dsp.power_spectrum(out, 1024, 0.5)
        p_in = spec_in.power[0][np.argmin(np.abs(spec_in.freqs - 600.0))]
        p_alias = spec_out.power[0][np.argmin(np.abs(spec_out.freqs - 424.0))]
        assert 10 * np.log10(p_alias / p_in) <= -40.0


class TestCriterion6NumericalOptimization:
    def test_mlp_gradient_check(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 5))
        y = rng.integers(0, 3, 6)
        model = ba.MlpModel.init(5, 7, 3, seed=1)
        assert gradient_check(model, x, y, epsilon=1e-3) < 1e-4

    def test_cnn_gradient_check(self):
        rng = np.random.default_rng(1)
        cfg = ba.Cnn1dConfig(kernels=2, kernel_len=4, pool_len=6,
                             pool_stride=3, classes=3)
        model = ba.Cnn1dModel(cfg, channels=2, width=16, seed=2)
        x = rng.standard_normal((4, 2, 16))
        y = rng.integers(0, 3, 4)
        assert gradient_check(model, x, y, epsilon=1e-3) < 1e-4

    def test_cnn_forward_shapes(self):
        cfg = ba.Cnn1dConfig(classes=40)
        assert cfg.conv_length(440) == 409
        assert cfg.pooled_points(440) == 5

    def test_ridge_gradient_norm(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((120, 16))
        y = rng.standard_normal((120, 8))
        reg = ba.train_ridge_regressor(x, y, l2=1e-2)
        from conftest import ridge_objective_gradient_norm

        assert ridge_objective_gradient_norm(reg, x, y) < 1e-8


class TestCriterion7FisherOracle:
    def test_hundred_seeded_datasets(self):
        from test_features import fisher_oracle, matrix

        rng = np.random.default_rng(7)
        for _ in range(100):
            classes = int(rng.integers(2, 6))
            channels = int(rng.integers(1, 11))
            n = int(rng.integers(classes * 2, 50))
            labels = np.concatenate(
                [np.arange(classes), rng.integers(0, classes, n - classes)]
            )
            trials = rng.standard_normal((n, channels, 3))
            got = ba.fisher_scores(matrix(trials, labels)).scores
            want = fisher_oracle(trials.mean(axis=2), labels)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


class TestCriterion8CodebookAttack:
    def test_transfer_parity_over_five_seeds(self):
        raws, regs = [], []
        for seed in range(5):
            cb = ba.generate_codebook(40, 50, 6, dim=128, seed=seed)
            targets = ba.average_over_subjects(cb)
            source = ba.make_clustered_features(40, 50, dim=1000,
                                                seed=seed + 1000)
            train_rows = source.rows("train")
            regressor = ba.train_ridge_regressor(
                source.vectors[train_rows], targets[train_rows], l2=1e-2
            )
            target = ba.make_clustered_features(30, 40, dim=1000,
                                                seed=seed + 2000)
            raw, reg = ba.transfer_svm_compare(
                regressor, target,
                train_config=ba.TrainConfig(seed=seed, epochs=50,
                                            learning_rate=1e-4),
            )
            raws.append(raw)
            regs.append(reg)
            test_rows = target.rows("test")
            intra, inter = ba.intra_inter_distances(
                regressor.predict(target.vectors[test_rows]),
                target.labels[test_rows],
            )
            assert intra < inter, f"seed {seed}: class structure lost"
        assert abs(np.mean(raws) - np.mean(regs)) <= 0.03, (raws, regs)


class TestCriterion9DeterminismAndLeakage:
    def test_audit_replay_bit_identical(self, tmp_path):
        synth_out = tmp_path / "sessions"
        assert cli_main([
            "synth", "--out", str(synth_out), "--seed", "7",
            "--classes", "6", "--trials-per-class", "20",
            "--blocks-per-class", "4", "--channels", "16",
            "--sample-rate", "256", "--blank-ms", "500",
        ]) == 0
        report = tmp_path / "report"
        config = {
            "schema_version": 1,
            "inputs": [str(synth_out / "s01_block.baud")],
            "out": str(report),
            "seed": 11,
            "grid": {
                "classifiers": ["knn", "svm"],
                "windows_ms": [440.0, 100.0],
                "channel_counts": [0, 8],
                "train": {"epochs": 40, "learning_rate": 3e-5},
            },
            "relabel": True,
            "highpass_cutoffs_hz": [14.0],
            "spectrum": {"segment_samples": 1024},
        }
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps(config))
        assert cli_main(["audit", "--config", str(cfg)]) == 0

        replay = tmp_path / "replay"
        manifest = json.loads((report / "manifest.json").read_text())
        manifest["config"]["out"] = str(replay)
        cfg2 = tmp_path / "replay.json"
        cfg2.write_text(json.dumps(manifest))
        assert cli_main(["audit", "--config", str(cfg2)]) == 0
        for name in ("grid.csv", "grid.json", "verdict.json", "relabel.csv",
                     "ablation.csv", "spectra.csv"):
            assert (report / name).read_bytes() == (replay / name).read_bytes()
        verdict = json.loads((report / "verdict.json").read_text())
        assert verdict["status"] == "CONTAMINATED"

    def test_leakage_guard_is_live(self, drift_session):
        # the guard actually fires when a fitting step sees test trials
        from types import SimpleNamespace

        from blockaudit.audit import LeakageError, _evaluate_group

        matrix = ba.segment(drift_session, 40.0, 440.0)
        spec = reduced_grid_spec(256.0, classifiers=("knn",),
                                 windows_ms=(440.0,), channel_counts=(0,),
                                 filter_configs=(ba.FilterConfig(name="raw"),))
        rigged = SimpleNamespace(
            train=np.arange(matrix.num_trials),
            test=np.arange(5),
        )
        with pytest.raises(LeakageError):
            _evaluate_group(matrix, [rigged], spec, 440.0, crop_seed=0,
                            train_seeds={(0, "knn"): 0},
                            num_classes=matrix.num_classes)


RELEASED = os.environ.get("BLOCKAUDIT_RELEASED_DATA")


@pytest.mark.skipif(
    not RELEASED,
    reason="optional external replication: set BLOCKAUDIT_RELEASED_DATA to a "
    "directory of converted .baud sessions from the released recordings",
)
class TestCriterion10ExternalReplication:
    def test_within_block_svm_and_highpass(self):
        from pathlib import Path

        paths = sorted(Path(RELEASED).glob("*.baud"))
        assert paths, "no .baud files found"
        sessions = [ba.load_session(p) for p in paths]
        rate = sessions[0].sample_rate
        spec = reduced_grid_spec(
            rate, classifiers=("svm",), windows_ms=(440.0,),
            channel_counts=(0,),
            splits=(ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),),
        )
        ablation = ba.highpass_ablation(sessions, [14.0], spec)
        key = next(iter(ablation.baseline.cells))
        base = ablation.baseline.cells[key].accuracy
        hp = ablation.by_cutoff[14.0].cells[key].accuracy
        assert abs(base - 0.940) <= 0.03
        assert abs(hp - 0.324) <= 0.05
