import json

import numpy as np
import pytest

import blockaudit as ba
from blockaudit import splits as sp
from blockaudit.audit import GridResult, issue_verdict
from blockaudit.dsp import PowerSpectrum
from blockaudit.report import (
    ablation_csv_text,
    emit_audit_report,
    fmt_accuracy,
    grid_csv_text,
    spectra_csv_text,
)


def empty_grid():
    return GridResult(
        cells={}, windows_ms=(), channel_counts=(), classifiers=("knn", "svm"),
        filter_names=(), regimes=(), seed=0,
    )


class TestGridCsv:
    def test_empty_grid_header_only(self):
        text = grid_csv_text(empty_grid())
        assert text == "filter,split,window_ms,channels,knn,svm\n"

    def test_empty_grid_verdict_inconclusive(self):
        verdict = issue_verdict(empty_grid())
        assert verdict.status is ba.VerdictStatus.INCONCLUSIVE

    def test_two_by_two_grid_has_four_rows(self, drift_session):
        spec = ba.GridSpec(
            classifiers=("knn",),
            windows_ms=(440.0, 100.0),
            channel_counts=(0, 4),
            splits=(ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),),
            filter_configs=(ba.FilterConfig(name="raw"),),
            seed=1,
        )
        result = ba.run_grid(drift_session, spec)
        lines = grid_csv_text(result).strip().splitlines()
        assert lines[0] == "filter,split,window_ms,channels,knn"
        assert len(lines) == 1 + 4

    def test_errored_cells_rendered_na(self, drift_session):
        spec = ba.GridSpec(
            classifiers=("knn",),
            windows_ms=(440.0, 1.0),  # 1 ms is empty at 256 Hz
            channel_counts=(0,),
            splits=(ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),),
            filter_configs=(ba.FilterConfig(name="raw"),),
            seed=1,
        )
        result = ba.run_grid(drift_session, spec)
        assert ",n/a" in grid_csv_text(result)

    def test_accuracy_formatting_stable(self):
        assert fmt_accuracy(0.95249) == "0.9525"


class TestOtherCsv:
    def test_spectra_csv(self):
        spectrum = ba.power_spectrum(np.ones((2, 256)), 64, 0.5,
                                     sample_rate=128.0)
        lines = spectra_csv_text(spectrum).strip().splitlines()
        assert lines[0] == "freq_hz,ch0,ch1"
        assert len(lines) == 1 + 33

    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-12, 1.0, 1e12, 1e300])
    def test_spectra_csv_equals_the_per_value_formatter(self, scale):
        rng = np.random.default_rng(3)
        power = scale * rng.random((3, 9))
        power[1, 4] = 0.0
        spectrum = PowerSpectrum(freqs=np.linspace(0.0, 1e3 / 3, 9), power=power)
        lines = ["freq_hz,ch0,ch1,ch2"] + [
            f"{f:.6f}," + ",".join(f"{power[i, j]:.6e}" for i in range(3))
            for j, f in enumerate(spectrum.freqs)
        ]
        assert spectra_csv_text(spectrum) == "\n".join(lines) + "\n"

    def test_ablation_csv(self, drift_session):
        spec = ba.GridSpec(
            classifiers=("knn",),
            windows_ms=(440.0,),
            channel_counts=(0,),
            splits=(ba.SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),),
            filter_configs=(ba.FilterConfig(name="raw"),),
            seed=1,
        )
        ablation = ba.highpass_ablation(drift_session, [14.0], spec)
        lines = ablation_csv_text(ablation).strip().splitlines()
        assert lines[0].startswith("cutoff_hz,")
        assert len(lines) == 2
        assert lines[1].startswith("14,raw,within_block,440,16,knn,")


class TestAuditBundle:
    @pytest.mark.parametrize("optional, names", [
        (False, ["grid.csv", "grid.json", "verdict.json", "manifest.json"]),
        (True, ["grid.csv", "grid.json", "verdict.json", "relabel.csv",
                "relabel.json", "ablation.csv", "spectra.csv",
                "manifest.json"]),
    ])
    def test_written_paths_in_order(self, tmp_path, optional, names):
        grid = empty_grid()
        extra = {}
        if optional:
            extra = dict(
                relabel=grid,
                ablation=ba.AblationResult(baseline=grid,
                                           by_cutoff={14.0: grid}),
                spectrum=PowerSpectrum(freqs=np.arange(3.0),
                                       power=np.ones((2, 3))),
            )
        written = emit_audit_report(tmp_path / "rep", {"seed": 0}, grid,
                                    issue_verdict(grid), **extra)
        assert written == [tmp_path / "rep" / name for name in names]
        assert sorted(p.name for p in (tmp_path / "rep").iterdir()) == sorted(names)

    def test_json_files_indented_sorted_and_newline_terminated(self, tmp_path):
        grid = empty_grid()
        emit_audit_report(tmp_path, {"seed": 0, "a": [1]}, grid,
                          issue_verdict(grid), relabel=grid)
        for name in ("grid.json", "verdict.json", "relabel.json",
                     "manifest.json"):
            text = (tmp_path / name).read_text()
            doc = json.loads(text)
            assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
