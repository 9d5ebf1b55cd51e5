"""Command-line entry points: synth, preprocess, audit, codebook, spectrum.

Exit codes signal operational failure only (0 done, 1 runtime error, 2 bad
usage/config); the audit verdict lives in ``verdict.json``, never in the
exit code.  Each command accepts ``--config`` (JSON, see
``blockaudit.config.SCHEMAS``); every other flag overrides the config key
named by its dest, and the manifest a command writes replays to identical
results.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import codebook as codebook_mod
from . import config as config_mod
from . import dsp, report, synthgen
from .classifiers import TrainConfig
from .dataset import load_session, save_session


def _parse_pair(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LOW,HIGH")
    return parts[0], parts[1]


def _split(kind):
    """argparse type: a comma-separated list of ``kind``, empty parts dropped."""
    def parse(text: str) -> list:
        return [kind(part) for part in text.split(",") if part]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _path(text: str) -> str:
    """argparse type: a path as the config records it (``rep/`` -> ``rep``)."""
    return str(Path(text))


def _build_parser() -> argparse.ArgumentParser:
    """Each flag's dest is the config key it overrides (dotted for a nested
    key), and a flag that is not given leaves no attribute behind."""
    parser = argparse.ArgumentParser(
        prog="blockaudit",
        description="Audit block-design contamination in trial-structured "
        "classification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", type=Path)
        return cmd

    synth = command("synth", "generate synthetic session files")
    synth.add_argument("--out", type=_path)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--design", type=lambda text: text.replace("-", "_"),
                       choices=["block", "rapid_event"])
    synth.add_argument("--classes", type=int)
    synth.add_argument("--trials-per-class", type=int)
    synth.add_argument("--blocks-per-class", type=int)
    synth.add_argument("--block-count", type=int)
    synth.add_argument("--channels", type=int)
    synth.add_argument("--sample-rate", type=float)
    synth.add_argument("--stimulus-ms", type=float)
    synth.add_argument("--blank-ms", type=float)
    synth.add_argument("--dc-sigma", type=float, dest="drift.dc_sigma")
    synth.add_argument("--walk-sigma", type=float, dest="drift.walk_sigma")
    synth.add_argument("--noise-sigma", type=float, dest="drift.noise_sigma")
    synth.add_argument("--evoked-amplitude", type=float, dest="evoked.amplitude")
    synth.add_argument("--evoked-template-ms", type=float,
                       dest="evoked.template_ms")
    synth.add_argument("--evoked-center-hz", type=float, dest="evoked.center_hz")
    synth.add_argument("--subjects", type=_split(str), help="comma-separated ids")

    pre = command("preprocess", "filter/resample/rereference a session")
    pre.add_argument("--input", type=_path)
    pre.add_argument("--out", type=_path)
    pre.add_argument("--downsample", type=int, dest="downsample_factor")
    pre.add_argument("--rereference", type=_split(int),
                     help="comma-separated channel indices")
    # the filter flags are not config keys: _cmd_preprocess assembles them
    pre.add_argument("--notch", type=_parse_pair, metavar="LOW,HIGH")
    pre.add_argument("--bandpass", type=_parse_pair, metavar="LOW,HIGH")
    pre.add_argument("--highpass", type=float)
    pre.add_argument("--lowpass", type=float)
    pre.add_argument("--order", type=int, default=2)
    pre.add_argument("--mode", choices=["zero_phase", "causal"])

    aud = command("audit", "run the contamination audit")
    aud.add_argument("--input", type=_path, action="append", dest="inputs")
    aud.add_argument("--out", type=_path)
    aud.add_argument("--seed", type=int)
    aud.add_argument("--relabel", action=argparse.BooleanOptionalAction)
    aud.add_argument("--highpass-cutoffs", type=_split(float),
                     dest="highpass_cutoffs_hz",
                     help="comma-separated cutoffs in Hz")

    cb = command("codebook", "run the random-codebook attack")
    cb.add_argument("--out", type=_path)
    cb.add_argument("--seed", type=int)
    cb.add_argument("--seeds", type=int)

    spec = command("spectrum", "Welch power spectrum of a session")
    spec.add_argument("--input", type=_path)
    spec.add_argument("--out", type=_path)
    spec.add_argument("--segment-samples", type=int)
    spec.add_argument("--overlap", type=float, dest="overlap_fraction")
    spec.add_argument("--vlf-cutoff", type=float, dest="vlf_cutoff_hz")
    return parser


def _load_config(command: str, flags: dict) -> dict:
    """Defaults <- ``--config`` file <- flags, validated; ``flags`` maps each
    given flag's dest (the config key, dotted when nested) to its value."""
    path = flags.pop("config", None)
    overrides: dict = {}
    for dest, value in flags.items():
        *parents, key = dest.split(".")
        node = overrides
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = value
    return config_mod.load_config(command, path, overrides)


def _cmd_synth(flags: dict) -> int:
    if "evoked.amplitude" in flags:
        flags["evoked.enabled"] = True
    cfg = _load_config("synth", flags)

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    drift_params = synthgen.DriftParams(**cfg["drift"])
    evoked_params = synthgen.EvokedParams(**cfg["evoked"])
    paths = []
    for i, subject in enumerate(cfg["subjects"]):
        seed = cfg["seed"] + i
        if cfg["design"] == "block":
            schedule = synthgen.make_block_schedule(
                cfg["classes"], cfg["trials_per_class"],
                cfg["stimulus_ms"], cfg["blank_ms"], seed=seed,
                blocks_per_class=cfg["blocks_per_class"],
            )
        else:
            block_count = cfg["block_count"] or cfg["classes"]
            schedule = synthgen.make_rapid_event_schedule(
                cfg["classes"], cfg["trials_per_class"], block_count,
                cfg["stimulus_ms"], cfg["blank_ms"], seed=seed,
            )
        session = synthgen.generate_session(
            schedule, cfg["channels"], cfg["sample_rate"],
            drift_params, evoked_params, subject_id=subject, seed=seed,
        )
        path = out_dir / f"{subject}_{cfg['design']}.baud"
        save_session(session, path)
        paths.append(str(path))
        print(f"wrote {path} ({session.channels} ch, {session.num_samples} samples, "
              f"{len(session.events)} trials)")
    report.write_manifest(out_dir / "manifest.json", "synth", cfg)
    (out_dir / "files.json").write_text(json.dumps({"sessions": paths}, indent=2) + "\n")
    return 0


def _cmd_preprocess(flags: dict) -> int:
    order = flags.pop("order")
    filters = []
    for kind in ("notch", "bandpass"):
        if kind in flags:
            low, high = flags.pop(kind)
            filters.append({"kind": kind, "order": order,
                            "low_hz": low, "high_hz": high})
    if "highpass" in flags:
        filters.append({"kind": "highpass", "order": order,
                        "low_hz": flags.pop("highpass")})
    if "lowpass" in flags:
        filters.append({"kind": "lowpass", "order": order,
                        "high_hz": flags.pop("lowpass")})
    if filters:
        flags["filters"] = filters
    cfg = _load_config("preprocess", flags)

    session = load_session(cfg["input"])
    if cfg["downsample_factor"]:
        session = dsp.downsample(session, cfg["downsample_factor"])
    if cfg["rereference"]:
        session = dsp.rereference(session, cfg["rereference"])
    for fdict in cfg["filters"]:
        spec = config_mod.build_filter_spec(fdict, session.sample_rate)
        session = dsp.apply_filter(dsp.design_filter(spec), session, mode=cfg["mode"])
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_session(session, out)
    print(f"wrote {out} ({session.channels} ch @ {session.sample_rate:g} Hz)")
    return 0


def _cmd_audit(flags: dict) -> int:
    cfg = _load_config("audit", flags)

    sessions = [load_session(p) for p in cfg["inputs"]]
    rate = sessions[0].sample_rate
    spec = config_mod.build_grid_spec(cfg["grid"], rate, cfg["seed"])
    try:
        audit_mod.check_cutoffs(cfg["highpass_cutoffs_hz"], rate)
    except ValueError as exc:
        raise config_mod.ConfigError(
            f"invalid audit config at highpass_cutoffs_hz: {exc}"
        ) from exc
    data = sessions[0] if len(sessions) == 1 else sessions

    print(f"running grid: {len(spec.classifiers)} classifiers x "
          f"{len(spec.windows_ms)} windows x {len(spec.channel_counts)} channel "
          f"counts x {len(spec.splits)} splits x {len(spec.filter_configs)} "
          f"filter configs")
    main = audit_mod.run_grid(data, spec)

    relabel_result = None
    if cfg["relabel"]:
        relabel_result = audit_mod.relabel_analysis(data, spec)

    ablation = None
    if cfg["highpass_cutoffs_hz"]:
        ablation = audit_mod.highpass_ablation(
            data, cfg["highpass_cutoffs_hz"], spec
        )

    seg = min(cfg["spectrum"]["segment_samples"], sessions[0].num_samples)
    spectrum = dsp.power_spectrum(
        sessions[0], seg, cfg["spectrum"]["overlap_fraction"]
    )
    vlf = dsp.vlf_fraction(spectrum, cfg["spectrum"]["vlf_cutoff_hz"])

    verdict = audit_mod.issue_verdict(
        main,
        relabel=relabel_result,
        ablation=ablation,
        vlf_fraction=vlf,
        config=audit_mod.VerdictConfig(**cfg["verdict"]),
    )
    written = report.emit_audit_report(
        cfg["out"], cfg, main, verdict,
        relabel=relabel_result, ablation=ablation, spectrum=spectrum,
    )
    for path in written:
        print(f"wrote {path}")
    print(f"verdict: {verdict.status.value}")
    return 0


def _cmd_codebook(flags: dict) -> int:
    cfg = _load_config("codebook", flags)

    cb_cfg, src_cfg, tr_cfg = cfg["codebook"], cfg["source_features"], cfg["transfer"]
    runs = []
    for i in range(cfg["seeds"]):
        seed = cfg["seed"] + i
        cb = codebook_mod.generate_codebook(
            cb_cfg["classes"], cb_cfg["instances_per_class"], cb_cfg["subjects"],
            dim=cb_cfg["dim"], seed=seed, noise_variance=cb_cfg["noise_variance"],
        )
        targets = codebook_mod.average_over_subjects(cb)
        source = codebook_mod.make_clustered_features(
            cb_cfg["classes"], cb_cfg["instances_per_class"],
            dim=src_cfg["dim"], noise_sigma=src_cfg["noise_sigma"],
            seed=seed + 1000, train_fraction=src_cfg["train_fraction"],
        )
        train_rows = source.rows("train")
        test_rows = source.rows("test")
        regressor = codebook_mod.train_ridge_regressor(
            source.vectors[train_rows], targets[train_rows], l2=cfg["ridge_l2"]
        )
        mse = float(
            np.mean((regressor.predict(source.vectors[test_rows])
                     - targets[test_rows]) ** 2)
        )
        target = codebook_mod.make_clustered_features(
            tr_cfg["classes"], tr_cfg["per_class"],
            dim=src_cfg["dim"], noise_sigma=tr_cfg["noise_sigma"],
            seed=seed + 2000, train_fraction=tr_cfg["train_fraction"],
        )
        acc_raw, acc_reg = codebook_mod.transfer_svm_compare(
            regressor, target,
            train_config=TrainConfig(
                seed=seed, epochs=cfg["svm"]["epochs"],
                learning_rate=cfg["svm"]["learning_rate"],
            ),
            svm_l2=cfg["svm"]["l2"],
        )
        reg_test = regressor.predict(target.vectors[target.rows("test")])
        intra, inter = codebook_mod.intra_inter_distances(
            reg_test, target.labels[target.rows("test")]
        )
        runs.append({
            "seed": seed,
            "held_out_mse": mse,
            "transfer_accuracy_raw": acc_raw,
            "transfer_accuracy_regressed": acc_reg,
            "regressed_intra_distance": intra,
            "regressed_inter_distance": inter,
        })
        print(f"seed {seed}: mse={mse:.4f} raw={acc_raw:.4f} reg={acc_reg:.4f}")

    def _agg(key):
        vals = [r[key] for r in runs]
        return {"mean": float(np.mean(vals)), "sd": float(np.std(vals))}

    summary = {key: _agg(key) for key in runs[0] if key != "seed"}
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "codebook.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=2, sort_keys=True)
        + "\n"
    )
    report.write_manifest(out_dir / "manifest.json", "codebook", cfg)
    print(f"wrote {out_dir / 'codebook.json'}")
    return 0


def _cmd_spectrum(flags: dict) -> int:
    cfg = _load_config("spectrum", flags)

    session = load_session(cfg["input"])
    seg = min(cfg["segment_samples"], session.num_samples)
    spectrum = dsp.power_spectrum(session, seg, cfg["overlap_fraction"])
    vlf = dsp.vlf_fraction(spectrum, cfg["vlf_cutoff_hz"])
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.spectra_csv_text(spectrum))
    print(f"wrote {out}")
    print(f"vlf_fraction(<{cfg['vlf_cutoff_hz']:g} Hz) = {vlf:.4f}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "audit": _cmd_audit,
    "codebook": _cmd_codebook,
    "spectrum": _cmd_spectrum,
}


def main(argv=None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    command = flags.pop("command")
    try:
        return _COMMANDS[command](flags)
    except config_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
