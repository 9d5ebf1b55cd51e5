"""Report emission: grid CSV/JSON, verdict JSON, spectra CSV, manifest.

Every report directory is self-describing: ``manifest.json`` carries the
full resolved configuration plus seeds and the artifact version, and
re-running the command from it reproduces every file byte for byte.  All
floats go through fixed formatters so CSV cells and verdict evidence agree
digit for digit.
"""
from __future__ import annotations

import json
from pathlib import Path

from . import __version__
from .audit import AblationResult, GridResult, Verdict
from .config import SCHEMA_VERSION
from .dsp import PowerSpectrum


def fmt_accuracy(x: float) -> str:
    return f"{x:.4f}"


def _write_text(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def grid_csv_text(grid: GridResult) -> str:
    """Table-style layout: rows window x channels, one column per classifier."""
    lines = ["filter,split,window_ms,channels," + ",".join(grid.classifiers)]
    for fname in grid.filter_names:
        for regime in grid.regimes:
            for w in grid.windows_ms:
                for ch in grid.channel_counts:
                    row = [fname, regime, f"{w:g}", str(ch)]
                    for kind in grid.classifiers:
                        cell = grid.cells.get((fname, regime, w, ch, kind))
                        if cell is None or not cell.ok:
                            row.append("n/a")
                        else:
                            row.append(fmt_accuracy(cell.accuracy))
                    lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def ablation_csv_text(ablation: AblationResult) -> str:
    lines = [
        "cutoff_hz,filter,split,window_ms,channels,classifier,"
        "baseline,highpassed,drop"
    ]
    for cutoff in sorted(ablation.by_cutoff):
        hp = ablation.by_cutoff[cutoff]
        for key, drop in sorted(ablation.delta(cutoff).items()):
            fname, regime, w, ch, kind = key
            lines.append(
                ",".join(
                    [
                        f"{cutoff:g}", fname, regime, f"{w:g}", str(ch), kind,
                        fmt_accuracy(ablation.baseline.cells[key].accuracy),
                        fmt_accuracy(hp.cells[key].accuracy),
                        fmt_accuracy(drop),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def spectra_csv_text(spectrum: PowerSpectrum) -> str:
    header = "freq_hz," + ",".join(
        f"ch{i}" for i in range(spectrum.power.shape[0])
    )
    lines = [header]
    for j, f in enumerate(spectrum.freqs):
        vals = ",".join(f"{spectrum.power[i, j]:.6e}"
                        for i in range(spectrum.power.shape[0]))
        lines.append(f"{f:.6f},{vals}")
    return "\n".join(lines) + "\n"


def write_manifest(path: Path, command: str, config: dict) -> Path:
    doc = {
        "artifact_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
    }
    return _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def emit_audit_report(
    out_dir: str | Path,
    config: dict,
    main: GridResult,
    verdict: Verdict,
    relabel: GridResult | None = None,
    ablation: AblationResult | None = None,
    spectrum: PowerSpectrum | None = None,
) -> list[Path]:
    """Write the audit bundle; returns the paths written."""
    out = Path(out_dir)
    written = [
        _write_text(out / "grid.csv", grid_csv_text(main)),
        _write_text(
            out / "grid.json",
            json.dumps(main.to_dict(), indent=2, sort_keys=True) + "\n",
        ),
        _write_text(
            out / "verdict.json",
            json.dumps(verdict.to_dict(), indent=2, sort_keys=True) + "\n",
        ),
    ]
    if relabel is not None:
        written.append(_write_text(out / "relabel.csv", grid_csv_text(relabel)))
        written.append(
            _write_text(
                out / "relabel.json",
                json.dumps(relabel.to_dict(), indent=2, sort_keys=True) + "\n",
            )
        )
    if ablation is not None:
        written.append(
            _write_text(out / "ablation.csv", ablation_csv_text(ablation))
        )
    if spectrum is not None:
        written.append(_write_text(out / "spectra.csv", spectra_csv_text(spectrum)))
    written.append(write_manifest(out / "manifest.json", "audit", config))
    return written
