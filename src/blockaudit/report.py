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


def write_json(path: Path, doc) -> Path:
    """The one JSON layout of every report: indented, keys sorted, and a
    final newline."""
    return _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
    """One row per frequency bin: the frequency, then each channel's power.

    Each row is one ``%``-format over that row's values, which formats each
    value as ``f"{v:.6e}"`` does (``f"{f:.6f}"`` for the frequency)."""
    channels = spectrum.power.shape[0]
    lines = ["freq_hz," + ",".join(f"ch{i}" for i in range(channels))]
    row = "%.6f" + ",%.6e" * channels
    for f, power in zip(spectrum.freqs.tolist(), spectrum.power.T):
        lines.append(row % (f, *power.tolist()))
    return "\n".join(lines) + "\n"


def write_manifest(path: Path, command: str, config: dict) -> Path:
    doc = {
        "artifact_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
    }
    return write_json(path, doc)


def emit_audit_report(
    out_dir: str | Path,
    config: dict,
    main: GridResult,
    verdict: Verdict,
    relabel: GridResult | None = None,
    ablation: AblationResult | None = None,
    spectrum: PowerSpectrum | None = None,
) -> list[Path]:
    """Write the audit bundle; returns the paths written, in the order
    ``grid.csv``, ``grid.json``, ``verdict.json``, ``relabel.csv``,
    ``relabel.json``, ``ablation.csv``, ``spectra.csv``, ``manifest.json``
    (each optional file only when its analysis is given)."""
    out = Path(out_dir)
    written = []
    for name, grid in (("grid", main), ("relabel", relabel)):
        if grid is None:
            continue
        written.append(_write_text(out / f"{name}.csv", grid_csv_text(grid)))
        written.append(write_json(out / f"{name}.json", grid.to_dict()))
        if name == "grid":
            written.append(write_json(out / "verdict.json", verdict.to_dict()))
    if ablation is not None:
        written.append(
            _write_text(out / "ablation.csv", ablation_csv_text(ablation))
        )
    if spectrum is not None:
        written.append(_write_text(out / "spectra.csv", spectra_csv_text(spectrum)))
    written.append(write_manifest(out / "manifest.json", "audit", config))
    return written
