import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockaudit import audit as audit_mod
from blockaudit import dsp, load_session, save_session
from blockaudit.cli import main
from blockaudit.config import ConfigError, load_config, validate_config
from blockaudit.dataset import read_container, write_container


AUDIT_GRID = {
    "classifiers": ["knn", "svm"],
    "windows_ms": [440.0],
    "channel_counts": [0, 4],
    "splits": [
        {"regime": "within_block", "fractions": [0.8, 0.1, 0.1]},
        {"regime": "block_disjoint", "fractions": [0.5, 0.25, 0.25]},
    ],
    "filter_configs": [{"name": "raw", "filters": []}],
    "train": {"epochs": 40, "learning_rate": 3e-5},
}


def synth_args(out, extra=()):
    return [
        "synth", "--out", str(out), "--seed", "5", "--classes", "5",
        "--trials-per-class", "16", "--blocks-per-class", "4",
        "--channels", "12", "--sample-rate", "256", "--stimulus-ms", "500",
        "--blank-ms", "500", *extra,
    ]


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(synth_args(out)) == 0
    return out


class TestSynth:
    def test_writes_session_and_manifest(self, session_dir):
        session = load_session(session_dir / "s01_block.baud")
        assert session.channels == 12
        assert len(session.events) == 80
        assert len(set(e.block_id for e in session.events)) == 20
        manifest = json.loads((session_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["classes"] == 5

    def test_same_seed_identical_files(self, session_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(synth_args(out2)) == 0
        assert (session_dir / "s01_block.baud").read_bytes() == (
            out2 / "s01_block.baud"
        ).read_bytes()

    def test_rapid_event_design(self, tmp_path):
        out = tmp_path / "re"
        assert main(synth_args(out, ["--design", "rapid-event",
                                     "--block-count", "8"])) == 0
        session = load_session(out / "s01_rapid_event.baud")
        blocks = {}
        for ev in session.events:
            blocks.setdefault(ev.block_id, set()).add(ev.class_label)
        assert any(len(cls) > 1 for cls in blocks.values())

    def test_multiple_subjects(self, tmp_path):
        out = tmp_path / "multi"
        assert main(synth_args(out, ["--subjects", "a,b"])) == 0
        assert (out / "a_block.baud").exists()
        assert (out / "b_block.baud").exists()


class TestPreprocess:
    def test_downsample_and_filter(self, session_dir, tmp_path):
        out = tmp_path / "pre.baud"
        code = main([
            "preprocess", "--input", str(session_dir / "s01_block.baud"),
            "--out", str(out), "--downsample", "2", "--highpass", "1.0",
        ])
        assert code == 0
        session = load_session(out)
        assert session.sample_rate == 128.0

    def test_rereference(self, session_dir, tmp_path):
        out = tmp_path / "rr.baud"
        code = main([
            "preprocess", "--input", str(session_dir / "s01_block.baud"),
            "--out", str(out), "--rereference", "10,11",
        ])
        assert code == 0
        assert load_session(out).channels == 10

    def test_missing_input_is_operational_error(self, tmp_path):
        code = main(["preprocess", "--input", str(tmp_path / "nope.baud"),
                     "--out", str(tmp_path / "o.baud")])
        assert code == 1


@pytest.fixture(scope="module")
def report_dir(session_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    config = {
        "schema_version": 1,
        "inputs": [str(session_dir / "s01_block.baud")],
        "out": str(out),
        "seed": 9,
        "grid": AUDIT_GRID,
        "highpass_cutoffs_hz": [14.0],
        "spectrum": {"segment_samples": 1024},
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["audit", "--config", str(cfg_path)]) == 0
    return out


class TestAudit:
    def test_report_files_exist(self, report_dir):
        for name in ("grid.csv", "grid.json", "verdict.json", "ablation.csv",
                     "spectra.csv", "manifest.json"):
            assert (report_dir / name).exists(), name

    def test_verdict_contaminated(self, report_dir):
        verdict = json.loads((report_dir / "verdict.json").read_text())
        assert verdict["status"] == "CONTAMINATED"
        assert any(f["name"] == "vlf_fraction" for f in verdict["evidence"])

    def test_csv_matches_verdict_digits(self, report_dir):
        verdict = json.loads((report_dir / "verdict.json").read_text())
        best = {f["name"]: f["value"] for f in verdict["evidence"]}
        csv_text = (report_dir / "grid.csv").read_text()
        assert f"{best['within_block_best']:.4f}" in csv_text

    def test_grid_csv_layout(self, report_dir):
        lines = (report_dir / "grid.csv").read_text().strip().splitlines()
        assert lines[0] == "filter,split,window_ms,channels,knn,svm"
        # rows: 1 filter x 2 splits x 1 window x 2 channel counts
        assert len(lines) == 1 + 4

    def test_manifest_replay_bit_identical(self, report_dir, tmp_path):
        replay_dir = tmp_path / "replay"
        manifest = json.loads((report_dir / "manifest.json").read_text())
        manifest["config"]["out"] = str(replay_dir)
        replay_cfg = tmp_path / "replay.json"
        replay_cfg.write_text(json.dumps(manifest))
        assert main(["audit", "--config", str(replay_cfg)]) == 0
        for name in ("grid.csv", "grid.json", "verdict.json", "ablation.csv",
                     "spectra.csv"):
            assert (report_dir / name).read_bytes() == (
                replay_dir / name
            ).read_bytes(), name

    def test_manifest_records_the_resolved_grid(self, session_dir, tmp_path):
        # the config leaves out a split's fractions and a filter's order;
        # the manifest records what ran
        grid = dict(
            AUDIT_GRID,
            splits=[{"regime": "within_block"}, AUDIT_GRID["splits"][1]],
            filter_configs=[{"name": "lp",
                             "filters": [{"kind": "lowpass", "high_hz": 100}]}],
        )
        run = tmp_path / "run"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "seed": 9, "out": str(run), "grid": grid,
            "inputs": [str(session_dir / "s01_block.baud")],
        }))
        assert main(["audit", "--config", str(cfg)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        recorded = manifest["config"]["grid"]
        assert recorded["splits"][0]["fractions"] == list(
            audit_mod.SplitSpec("within_block").fractions
        )
        arm = recorded["filter_configs"][0]
        assert "zscore_scope" not in arm
        assert arm["filters"] == [
            {"kind": "lowpass", "order": 2, "low_hz": None, "high_hz": 100},
        ]
        assert recorded["knn_k"] == audit_mod.GridSpec().knn_k
        assert recorded["train"]["epochs"] == 40

        replay = tmp_path / "replay"
        manifest["config"]["out"] = str(replay)
        cfg.write_text(json.dumps(manifest))
        assert main(["audit", "--config", str(cfg)]) == 0
        for path in sorted(run.iterdir()):
            text = path.read_text()
            if path.name == "manifest.json":
                text = text.replace(str(run), str(replay))
            assert (replay / path.name).read_text() == text, path.name

    def test_manifest_with_threads_rejected(self, report_dir, tmp_path, capsys):
        manifest = json.loads((report_dir / "manifest.json").read_text())
        manifest["config"]["out"] = str(tmp_path / "replay")
        manifest["config"]["threads"] = 1
        cfg = tmp_path / "old_manifest.json"
        cfg.write_text(json.dumps(manifest))
        assert main(["audit", "--config", str(cfg)]) == 2
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("path, key, old_default", [
        (("grid",), "fisher_feature", "window_mean"),
        (("grid",), "base_window_ms", None),
        (("grid", "filter_configs", 0), "mode", "zero_phase"),
        (("grid", "filter_configs", 0), "zscore_stage", "after_filter"),
        (("grid", "filter_configs", 0), "zscore_scope", "train_statistics"),
        (("grid", "train"), "weight_decay", 0.0),
    ], ids=["fisher_feature", "base_window_ms", "mode", "zscore_stage",
            "zscore_scope", "weight_decay"])
    def test_manifest_with_removed_grid_key_rejected(
        self, report_dir, tmp_path, capsys, path, key, old_default
    ):
        # a manifest written before the grid had one preprocessing order
        manifest = json.loads((report_dir / "manifest.json").read_text())
        manifest["config"]["out"] = str(tmp_path / "replay")
        node = manifest["config"]
        for part in path:
            node = node[part]
        node[key] = old_default
        cfg = tmp_path / "old_manifest.json"
        cfg.write_text(json.dumps(manifest))
        assert main(["audit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"at {'/'.join(map(str, path))}:" in err
        assert f"'{key}' was unexpected" in err

    @pytest.mark.parametrize("axis, value", [
        ("channel_counts", -3), ("windows_ms", 0.0),
    ], ids=["negative_channels", "zero_window"])
    def test_bad_grid_axis_value_exit_2(self, session_dir, tmp_path, capsys,
                                        axis, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "out": str(tmp_path / "r"),
            "grid": dict(AUDIT_GRID, **{axis: [value]}),
            "inputs": [str(session_dir / "s01_block.baud")],
        }))
        assert main(["audit", "--config", str(cfg)]) == 2
        assert f"grid/{axis}/0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_repeated_grid_axis_exit_2(self, session_dir, tmp_path, capsys):
        grid = dict(AUDIT_GRID, splits=AUDIT_GRID["splits"][:1] * 2)
        cfg = tmp_path / "repeat.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "out": str(tmp_path / "r"), "grid": grid,
            "inputs": [str(session_dir / "s01_block.baud")],
        }))
        assert main(["audit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "grid axis splits repeats 'within_block'" in err

    @pytest.fixture
    def grid_calls(self, monkeypatch):
        """Every run_grid and apply_filter call an audit makes."""
        calls = []
        for module, name in ((audit_mod, "run_grid"), (dsp, "apply_filter")):
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return calls

    def test_bad_fractions_exit_2_before_any_grid(self, session_dir, tmp_path,
                                                  capsys, grid_calls):
        grid = dict(AUDIT_GRID, splits=[
            {"regime": "within_block", "fractions": [0.5, 0.5, 0.5]},
        ])
        cfg = tmp_path / "fractions.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "out": str(tmp_path / "r"), "grid": grid,
            "inputs": [str(session_dir / "s01_block.baud")],
        }))
        assert main(["audit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "fractions must be" in err
        assert grid_calls == []

    def test_cutoff_above_nyquist_exit_2_before_any_grid(
        self, session_dir, tmp_path, capsys, grid_calls
    ):
        # the 256 Hz session's Nyquist is 128 Hz
        code = main(["audit", "--input", str(session_dir / "s01_block.baud"),
                     "--out", str(tmp_path / "r"), "--relabel",
                     "--highpass-cutoffs", "14,500"])
        assert code == 2
        err = capsys.readouterr().err
        assert "at highpass_cutoffs_hz: cutoff 500.0 Hz outside (0, Nyquist)" in err
        assert grid_calls == []
        assert not (tmp_path / "r").exists()

    def test_repeated_cutoff_exit_2_before_any_grid(
        self, session_dir, tmp_path, capsys, grid_calls
    ):
        # a repeat used to run a whole grid whose result was then overwritten
        code = main(["audit", "--input", str(session_dir / "s01_block.baud"),
                     "--out", str(tmp_path / "r"),
                     "--highpass-cutoffs", "14,5,14"])
        assert code == 2
        err = capsys.readouterr().err
        assert "at highpass_cutoffs_hz: cutoff 14.0 Hz repeats" in err
        assert grid_calls == []
        assert not (tmp_path / "r").exists()

    def test_non_finite_config_number_exit_2(self, session_dir, tmp_path,
                                             capsys, grid_calls):
        # json.loads reads NaN, and schema bounds compare false on it: a NaN
        # alpha used to turn CONTAMINATED into NO_SIGNAL
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "out": str(tmp_path / "r"),
            "inputs": [str(session_dir / "s01_block.baud")],
            "verdict": {"alpha": float("nan")},
        }))
        assert "NaN" in cfg.read_text()
        assert main(["audit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "at verdict/alpha: not a finite number" in err
        assert grid_calls == []

    def test_too_few_blocks_exit_2_before_any_grid(self, tmp_path, capsys,
                                                   grid_calls):
        sessions = tmp_path / "one_block"
        assert main(synth_args(sessions, ["--blocks-per-class", "1"])) == 0
        cfg = tmp_path / "blocks.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "out": str(tmp_path / "r"), "grid": AUDIT_GRID,
            "inputs": [str(sessions / "s01_block.baud")],
        }))
        assert main(["audit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert ("at grid: block-disjoint stratification needs >= 3 blocks per "
                "class; a class has only 1") in err
        assert grid_calls == []
        assert not (tmp_path / "r").exists()

    def test_blocks_too_small_for_a_test_trial_exit_2_before_any_grid(
        self, tmp_path, capsys, grid_calls
    ):
        # 0.8/0.1/0.1 of a 3-trial block deals all 3 trials to train; this
        # used to pass the design check and fail after the first filter pass
        sessions = tmp_path / "small_blocks"
        assert main(synth_args(sessions, [
            "--classes", "4", "--trials-per-class", "3",
            "--blocks-per-class", "1",
        ])) == 0
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "out": str(tmp_path / "r"),
            "grid": {"splits": [{"regime": "within_block"}]},
            "inputs": [str(sessions / "s01_block.baud")],
        }))
        assert main(["audit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert ("invalid audit config at grid: within_block split with "
                "fractions (0.8, 0.1, 0.1) leaves no test trial: a test share "
                "of 0.1 rounds to 0 on at most 3 trials per block") in err
        assert grid_calls == []
        assert not (tmp_path / "r").exists()

    def test_cnn_kernel_longer_than_window_exit_2_before_any_grid(
        self, session_dir, tmp_path, capsys, grid_calls
    ):
        grid = dict(AUDIT_GRID, classifiers=["knn", "cnn1d"],
                    cnn={"kernel_len": 500})
        cfg = tmp_path / "kernel.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "out": str(tmp_path / "r"), "grid": grid,
            "inputs": [str(session_dir / "s01_block.baud")],
        }))
        assert main(["audit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        # 440 ms at 256 Hz is 113 samples
        assert ("at grid: cnn1d kernel of 500 samples is longer than the "
                "shortest window, 440 ms = 113 samples at 256 Hz") in err
        assert grid_calls == []
        assert not (tmp_path / "r").exists()

    def test_cnn_window_too_short_to_pool_exit_2_before_any_grid(
        self, session_dir, tmp_path, capsys, grid_calls
    ):
        grid = dict(AUDIT_GRID, classifiers=["knn", "cnn1d"])
        cfg = tmp_path / "pool.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "out": str(tmp_path / "r"), "grid": grid,
            "inputs": [str(session_dir / "s01_block.baud")],
        }))
        assert main(["audit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        # 440 ms at 256 Hz is 113 samples, 82 conv points for a 32-sample
        # kernel, fewer than one 128-point pooling window
        assert ("invalid audit config at grid: cnn1d on the shortest window, "
                "440 ms = 113 samples at 256 Hz: conv output 82 shorter than "
                "pool length 128") in err
        assert grid_calls == []
        assert not (tmp_path / "r").exists()

    def test_window_longer_than_event_exit_2_before_any_grid(
        self, session_dir, tmp_path, capsys, grid_calls
    ):
        grid = dict(AUDIT_GRID, windows_ms=[440.0, 800.0])
        cfg = tmp_path / "window.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "out": str(tmp_path / "r"), "grid": grid,
            "inputs": [str(session_dir / "s01_block.baud")],
        }))
        assert main(["audit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        # 500 ms events at 256 Hz are 128 samples; 40 ms + 800 ms is 10 + 205
        assert ("invalid audit config at grid: trial 0: window 10+205 samples "
                "exceeds event length 128") in err
        assert grid_calls == []
        assert not (tmp_path / "r").exists()

    def test_missing_input_error(self, tmp_path):
        code = main(["audit", "--input", str(tmp_path / "m.baud"),
                     "--out", str(tmp_path / "r")])
        assert code == 1

    def test_non_finite_sample_named_and_exit_1(self, session_dir, tmp_path,
                                                capsys):
        good = load_session(session_dir / "s01_block.baud")
        path = tmp_path / "nan.baud"
        save_session(good, path)
        # the payload is channel-major float32 and ends the file
        data = bytearray(path.read_bytes())
        at = len(data) - (good.channels - 3) * good.num_samples * 4 + 100 * 4
        data[at : at + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="channel 3, sample 100"):
            load_session(path)
        code = main(["audit", "--input", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite sample nan at channel 3, sample 100" in err
        assert "INCONCLUSIVE" not in err

    def test_negative_block_id_named_and_exit_1(self, session_dir, tmp_path,
                                                capsys):
        # a negative id would merge blocks of different sessions in the pool
        header, payload = read_container(session_dir / "s01_block.baud")
        first = header["events"][0]["block_id"]
        for ev in header["events"]:
            if ev["block_id"] == first:
                ev["block_id"] = -1
        path = tmp_path / "negative.baud"
        write_container(path, header, payload)
        code = main(["audit", "--input", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}: trial 0: block_id must be >= 0" in err
        assert not (tmp_path / "r").exists()

    def test_multi_subject_loso(self, tmp_path):
        sessions = tmp_path / "multi"
        assert main(synth_args(sessions, ["--subjects", "a,b"])) == 0
        out = tmp_path / "loso"
        config = {
            "schema_version": 1,
            "inputs": [str(sessions / "a_block.baud"),
                       str(sessions / "b_block.baud")],
            "out": str(out),
            "grid": {
                "classifiers": ["knn"],
                "windows_ms": [440.0],
                "channel_counts": [0],
                "splits": [{"regime": "leave_one_subject_out"}],
            },
        }
        cfg = tmp_path / "loso.json"
        cfg.write_text(json.dumps(config))
        assert main(["audit", "--config", str(cfg)]) == 0
        grid = json.loads((out / "grid.json").read_text())
        cell = grid["cells"][0]
        assert cell["n_test"] == 160  # both subjects held out once


def test_reports_identical_under_one_and_two_blas_threads(session_dir, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "blockaudit.cli", "audit",
             "--input", str(session_dir / "s01_block.baud"), "--out", str(out),
             "--relabel", "--highpass-cutoffs", "14,5"],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        reports[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    one, two = reports["1"], reports["2"]
    assert sorted(one) == sorted(two) and len(one) == 8
    for name in sorted(set(one) - {"manifest.json"}):
        assert one[name] == two[name], name
    manifests = [json.loads(r["manifest.json"]) for r in (one, two)]
    assert [m["config"].pop("out") for m in manifests] == [
        str(tmp_path / "blas1"), str(tmp_path / "blas2")]
    assert manifests[0] == manifests[1]


_FOUR_CLASSIFIER_GRID = """
import json
import blockaudit as ba
from blockaudit import splits as sp
schedule = ba.make_rapid_event_schedule(4, 20, 8, 500.0, 200.0, seed=4)
session = ba.generate_session(
    schedule, channels=8, sample_rate=512.0, drift=ba.DriftParams(),
    evoked=ba.EvokedParams(), subject_id="s01", seed=4)
spec = ba.GridSpec(
    classifiers=("knn", "svm", "mlp", "cnn1d"), windows_ms=(440.0,),
    channel_counts=(0,),
    splits=(ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),),
    filter_configs=(ba.FilterConfig(name="raw"),), seed=17,
    train_config=ba.TrainConfig(seed=0, epochs=3, learning_rate=1e-3))
print(json.dumps(ba.run_grid(session, spec).to_dict(), sort_keys=True))
"""


def test_four_classifier_grid_identical_under_one_and_two_blas_threads():
    # the grid holds OpenBLAS to one thread; a product past the size gate
    # gets the held-over count back
    src = str(Path(__file__).resolve().parents[1] / "src")
    grids = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _FOUR_CLASSIFIER_GRID],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        grids[threads] = proc.stdout
    cells = json.loads(grids["1"])["cells"]
    assert sorted({c["classifier"] for c in cells}) == ["cnn1d", "knn", "mlp", "svm"]
    assert not any(c["error"] for c in cells)
    assert grids["1"] == grids["2"]


class TestCodebookCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "cb"
        config = {
            "schema_version": 1,
            "out": str(out),
            "seed": 3,
            "seeds": 2,
            "codebook": {"classes": 8, "instances_per_class": 6,
                         "subjects": 3, "dim": 16},
            "source_features": {"dim": 60},
            "transfer": {"classes": 5, "per_class": 10},
            "svm": {"epochs": 40, "learning_rate": 1e-4},
        }
        cfg_path = tmp_path / "cb.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["codebook", "--config", str(cfg_path)]) == 0
        doc = json.loads((out / "codebook.json").read_text())
        assert len(doc["runs"]) == 2
        assert "transfer_accuracy_raw" in doc["summary"]
        assert doc["summary"]["transfer_accuracy_raw"]["mean"] > 0.5


class TestSpectrumCommand:
    def test_csv_written(self, session_dir, tmp_path):
        out = tmp_path / "spec.csv"
        code = main([
            "spectrum", "--input", str(session_dir / "s01_block.baud"),
            "--out", str(out), "--segment-samples", "512",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("freq_hz,ch0")
        assert len(lines) == 1 + 512 // 2 + 1


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="invalid"):
            validate_config("synth", {"schema_version": 1, "out": "x",
                                      "bogus": 1})

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError):
            validate_config("synth", {"schema_version": 99, "out": "x"})

    def test_bad_regime_rejected(self):
        cfg = {
            "schema_version": 1, "inputs": ["x"], "out": "y",
            "grid": {"splits": [{"regime": "nope"}]},
        }
        with pytest.raises(ConfigError, match="grid/splits"):
            validate_config("audit", cfg)

    def test_cli_reports_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "bogus": True}))
        assert main(["synth", "--config", str(bad), "--out",
                     str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag, value, where", [
        ("--dc-sigma", "nan", "drift/dc_sigma"),
        ("--sample-rate", "inf", "sample_rate"),
    ])
    def test_non_finite_flag_exit_2(self, tmp_path, capsys, flag, value, where):
        out = tmp_path / "s"
        assert main(synth_args(out, [flag, value])) == 2
        assert f"at {where}: not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_list_entry_named(self):
        cfg = {"schema_version": 1, "inputs": ["x"], "out": "y",
               "highpass_cutoffs_hz": [14.0, float("-inf")]}
        with pytest.raises(ConfigError, match="at highpass_cutoffs_hz/1:"):
            validate_config("audit", cfg)

    @pytest.mark.parametrize("command, doc, where", [
        ("synth", {"classes": 6.0}, "classes"),
        ("spectrum", {"segment_samples": 256.0}, "segment_samples"),
        ("audit", {"grid": dict(AUDIT_GRID, train={"epochs": 50.0})},
         "grid/train/epochs"),
        ("audit", {"seed": 11.0}, "seed"),
    ], ids=["synth_classes", "spectrum_segment", "grid_epochs", "seed"])
    def test_integral_float_at_integer_key_exit_2(
        self, session_dir, tmp_path, capsys, command, doc, where
    ):
        out = tmp_path / "out"
        baud = str(session_dir / "s01_block.baud")
        inputs = {"synth": {}, "spectrum": {"input": baud},
                  "audit": {"inputs": [baud]}}[command]
        cfg = tmp_path / "float.json"
        cfg.write_text(json.dumps(
            {"schema_version": 1, "out": str(out), **inputs, **doc}))
        assert main([command, "--config", str(cfg)]) == 2
        assert f"at {where}: " in capsys.readouterr().err
        assert not out.exists()

    def test_evoked_amplitude_in_config_equals_flag(self, tmp_path):
        by_flag, by_file = tmp_path / "flag", tmp_path / "file"
        assert main(synth_args(by_flag, ["--evoked-amplitude", "2.5"])) == 0
        cfg = tmp_path / "evoked.json"
        cfg.write_text(json.dumps({"schema_version": 1,
                                   "evoked": {"amplitude": 2.5}}))
        assert main(synth_args(by_file, ["--config", str(cfg)])) == 0
        quiet = tmp_path / "quiet"
        assert main(synth_args(quiet)) == 0
        flag = (by_flag / "s01_block.baud").read_bytes()
        assert (by_file / "s01_block.baud").read_bytes() == flag
        assert (quiet / "s01_block.baud").read_bytes() != flag

    def test_evoked_enabled_key_exit_2(self, session_dir, tmp_path, capsys):
        # a config, or a manifest written while evoked had an on/off switch
        manifest = json.loads((session_dir / "manifest.json").read_text())
        manifest["config"]["out"] = str(tmp_path / "replay")
        manifest["config"]["evoked"]["enabled"] = True
        cfg = tmp_path / "old_manifest.json"
        cfg.write_text(json.dumps(manifest))
        assert main(["synth", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "at evoked:" in err and "'enabled' was unexpected" in err
        assert not (tmp_path / "replay").exists()

    def test_defaults_merge_and_validate(self):
        cfg = load_config("synth", None, {"out": "/tmp/x", "classes": 6})
        assert cfg["classes"] == 6
        assert cfg["trials_per_class"] == 50  # default preserved


# One argv per row and the (command, config path, overrides) it hands to
# load_config; across a command's rows every flag of its --help appears.
FLAG_CASES = [
    (
        ["synth", "--config", "c.json", "--out", "rep/", "--seed", "3",
         "--design", "rapid-event", "--classes", "4", "--trials-per-class", "6",
         "--blocks-per-class", "2", "--block-count", "5", "--channels", "8",
         "--sample-rate", "256", "--stimulus-ms", "400", "--blank-ms", "100",
         "--dc-sigma", "4", "--walk-sigma", "0.1", "--noise-sigma", "2",
         "--evoked-amplitude", "0.5", "--evoked-template-ms", "120",
         "--evoked-center-hz", "25", "--subjects", "a,b"],
        ("synth", Path("c.json"), {
            "out": "rep", "seed": 3, "design": "rapid_event", "classes": 4,
            "trials_per_class": 6, "blocks_per_class": 2, "block_count": 5,
            "channels": 8, "sample_rate": 256.0, "stimulus_ms": 400.0,
            "blank_ms": 100.0,
            "drift": {"dc_sigma": 4.0, "walk_sigma": 0.1, "noise_sigma": 2.0},
            "evoked": {"amplitude": 0.5, "template_ms": 120.0,
                       "center_hz": 25.0},
            "subjects": ["a", "b"],
        }),
    ),
    (
        ["preprocess", "--config", "c.json", "--input", "in.baud",
         "--out", "pre/x.baud", "--downsample", "2", "--rereference", "0,1",
         "--notch", "49,51", "--bandpass", "1,40", "--highpass", "0.5",
         "--lowpass", "100", "--order", "3", "--mode", "causal"],
        ("preprocess", Path("c.json"), {
            "input": "in.baud", "out": "pre/x.baud", "downsample_factor": 2,
            "rereference": [0, 1], "mode": "causal",
            "filters": [
                {"kind": "notch", "order": 3, "low_hz": 49.0, "high_hz": 51.0},
                {"kind": "bandpass", "order": 3, "low_hz": 1.0, "high_hz": 40.0},
                {"kind": "highpass", "order": 3, "low_hz": 0.5},
                {"kind": "lowpass", "order": 3, "high_hz": 100.0},
            ],
        }),
    ),
    (
        ["preprocess", "--highpass", "1"],
        ("preprocess", None,
         {"filters": [{"kind": "highpass", "order": 2, "low_hz": 1.0}]}),
    ),
    (
        ["audit", "--config", "c.json", "--input", "a.baud",
         "--input", "./b.baud", "--out", "rep/", "--seed", "11",
         "--no-relabel", "--highpass-cutoffs", "14,,5"],
        ("audit", Path("c.json"), {
            "inputs": ["a.baud", "b.baud"], "out": "rep", "seed": 11,
            "relabel": False, "highpass_cutoffs_hz": [14.0, 5.0],
        }),
    ),
    (["audit", "--relabel"], ("audit", None, {"relabel": True})),
    (["audit"], ("audit", None, {})),
    (
        ["codebook", "--config", "c.json", "--out", "cb/", "--seed", "3",
         "--seeds", "2"],
        ("codebook", Path("c.json"), {"out": "cb", "seed": 3, "seeds": 2}),
    ),
    (
        ["spectrum", "--config", "c.json", "--input", "s.baud",
         "--out", "spec.csv", "--segment-samples", "512", "--overlap", "0.25",
         "--vlf-cutoff", "4"],
        ("spectrum", Path("c.json"), {
            "input": "s.baud", "out": "spec.csv", "segment_samples": 512,
            "overlap_fraction": 0.25, "vlf_cutoff_hz": 4.0,
        }),
    ),
]


class TestFlags:
    @pytest.mark.parametrize("argv, expected", FLAG_CASES,
                             ids=[" ".join(a[:2]) for a, _ in FLAG_CASES])
    def test_flags_become_config_overrides(self, argv, expected, monkeypatch):
        calls = []

        def record(command, path, overrides):
            calls.append((command, path, overrides))
            raise ConfigError("recorded")

        monkeypatch.setattr("blockaudit.config.load_config", record)
        assert main(argv) == 2
        [(command, path, overrides)] = calls
        # the JSON text also pins int against float
        assert (command, path, json.dumps(overrides, sort_keys=True)) == (
            expected[0], expected[1], json.dumps(expected[2], sort_keys=True)
        )

    @pytest.mark.parametrize(
        "command", ["synth", "preprocess", "audit", "codebook", "spectrum"]
    )
    def test_flag_cases_cover_every_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        used = {a for argv, _ in FLAG_CASES if argv[0] == command
                for a in argv if a.startswith("--")}
        assert listed - {"--help"} == used

    @pytest.mark.parametrize("argv", [
        ["audit", "--highpass-cutoffs", "14,x"],
        ["preprocess", "--rereference", "a"],
    ])
    def test_malformed_list_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err
