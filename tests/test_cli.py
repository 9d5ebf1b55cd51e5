import json

import numpy as np
import pytest

from blockaudit import Session, load_session, save_session
from blockaudit.cli import main
from blockaudit.config import ConfigError, load_config, validate_config


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

    def test_missing_input_error(self, tmp_path):
        code = main(["audit", "--input", str(tmp_path / "m.baud"),
                     "--out", str(tmp_path / "r")])
        assert code == 1

    def test_non_finite_sample_named_and_exit_1(self, session_dir, tmp_path,
                                                capsys):
        good = load_session(session_dir / "s01_block.baud")
        samples = good.samples.copy()
        samples[3, 100] = np.nan
        path = tmp_path / "nan.baud"
        save_session(Session(samples=samples, sample_rate=good.sample_rate,
                             subject_id=good.subject_id, events=good.events),
                     path)
        with pytest.raises(ValueError, match="channel 3, sample 100"):
            load_session(path)
        code = main(["audit", "--input", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite sample nan at channel 3, sample 100" in err
        assert "INCONCLUSIVE" not in err

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

    def test_defaults_merge_and_validate(self):
        cfg = load_config("synth", None, {"out": "/tmp/x", "classes": 6})
        assert cfg["classes"] == 6
        assert cfg["trials_per_class"] == 50  # default preserved
