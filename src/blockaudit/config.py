"""Run configuration: defaults, JSON schemas, and domain-object builders.

Every CLI command validates its configuration against the published schema
below before doing any work; the same schema governs manifest replay.  All
randomness flows from the single top-level ``seed``.
"""
from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import jsonschema

from . import audit, classifiers, dsp, splits

SCHEMA_VERSION = 1

_FILTER_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["lowpass", "highpass", "bandpass", "notch"]},
        "order": {"type": "integer", "minimum": 1},
        "low_hz": {"type": ["number", "null"]},
        "high_hz": {"type": ["number", "null"]},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_TRAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "epochs": {"type": "integer", "minimum": 1},
        "batch_size": {"type": "integer", "minimum": 1},
        "learning_rate": {"type": "number", "exclusiveMinimum": 0},
        "momentum": {"type": "number", "minimum": 0, "maximum": 1},
        "weight_decay": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "classifiers": {
            "type": "array",
            "items": {"enum": ["knn", "svm", "mlp", "cnn1d"]},
            "minItems": 1,
        },
        "windows_ms": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
        },
        "channel_counts": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "splits": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "regime": {
                        "enum": [
                            splits.WITHIN_BLOCK,
                            splits.BLOCK_DISJOINT,
                            splits.LEAVE_ONE_SUBJECT_OUT,
                        ]
                    },
                    "fractions": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 3,
                        "maxItems": 3,
                    },
                },
                "required": ["regime"],
                "additionalProperties": False,
            },
            "minItems": 1,
        },
        "filter_configs": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "filters": {"type": "array", "items": _FILTER_SCHEMA},
                    "zscore_scope": {
                        "enum": ["train_statistics", "per_trial_channel"]
                    },
                },
                "required": ["name"],
                "additionalProperties": False,
            },
            "minItems": 1,
        },
        "start_offset_ms": {"type": "number", "minimum": 0},
        "knn_k": {"type": "integer", "minimum": 1},
        "svm_l2": {"type": "number", "minimum": 0},
        "mlp_hidden": {"type": "integer", "minimum": 1},
        "train": _TRAIN_SCHEMA,
        "cnn": {
            "type": "object",
            "properties": {
                "kernels": {"type": "integer", "minimum": 1},
                "kernel_len": {"type": "integer", "minimum": 1},
                "pool_len": {"type": "integer", "minimum": 1},
                "pool_stride": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

SCHEMAS: dict[str, dict] = {
    "synth": {
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "seed": {"type": "integer"},
            "out": {"type": "string"},
            "design": {"enum": ["block", "rapid_event"]},
            "classes": {"type": "integer", "minimum": 2},
            "trials_per_class": {"type": "integer", "minimum": 1},
            "blocks_per_class": {"type": "integer", "minimum": 1},
            "block_count": {"type": ["integer", "null"], "minimum": 1},
            "stimulus_ms": {"type": "number", "exclusiveMinimum": 0},
            "blank_ms": {"type": "number", "minimum": 0},
            "channels": {"type": "integer", "minimum": 1},
            "sample_rate": {"type": "number", "exclusiveMinimum": 0},
            "drift": {
                "type": "object",
                "properties": {
                    "dc_sigma": {"type": "number", "minimum": 0},
                    "walk_sigma": {"type": "number", "minimum": 0},
                    "noise_sigma": {"type": "number", "minimum": 0},
                },
                "additionalProperties": False,
            },
            "evoked": {
                "type": "object",
                "properties": {
                    "enabled": {"type": "boolean"},
                    "amplitude": {"type": "number", "minimum": 0},
                    "template_ms": {"type": "number", "exclusiveMinimum": 0},
                    "center_hz": {"type": "number", "exclusiveMinimum": 0},
                },
                "additionalProperties": False,
            },
            "subjects": {
                "type": "array", "items": {"type": "string"}, "minItems": 1,
            },
        },
        "required": ["schema_version", "out"],
        "additionalProperties": False,
    },
    "preprocess": {
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "input": {"type": "string"},
            "out": {"type": "string"},
            "downsample_factor": {"type": ["integer", "null"], "minimum": 1},
            "rereference": {
                "type": ["array", "null"], "items": {"type": "integer"},
            },
            "filters": {"type": "array", "items": _FILTER_SCHEMA},
            "mode": {"enum": ["zero_phase", "causal"]},
        },
        "required": ["schema_version", "input", "out"],
        "additionalProperties": False,
    },
    "audit": {
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "seed": {"type": "integer"},
            "out": {"type": "string"},
            "inputs": {"type": "array", "items": {"type": "string"}, "minItems": 1},
            "grid": _GRID_SCHEMA,
            "relabel": {"type": "boolean"},
            "highpass_cutoffs_hz": {"type": "array", "items": {"type": "number"}},
            "spectrum": {
                "type": "object",
                "properties": {
                    "segment_samples": {"type": "integer", "minimum": 2},
                    "overlap_fraction": {
                        "type": "number", "minimum": 0, "exclusiveMaximum": 1,
                    },
                    "vlf_cutoff_hz": {"type": "number", "exclusiveMinimum": 0},
                },
                "additionalProperties": False,
            },
            "verdict": {
                "type": "object",
                "properties": {
                    "alpha": {"type": "number", "exclusiveMinimum": 0},
                    "high_multiple": {"type": "number", "exclusiveMinimum": 0},
                    "comparable_points": {"type": "number", "minimum": 0},
                },
                "additionalProperties": False,
            },
        },
        "required": ["schema_version", "inputs", "out"],
        "additionalProperties": False,
    },
    "codebook": {
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "seed": {"type": "integer"},
            "seeds": {"type": "integer", "minimum": 1},
            "out": {"type": "string"},
            "codebook": {
                "type": "object",
                "properties": {
                    "classes": {"type": "integer", "minimum": 1},
                    "instances_per_class": {"type": "integer", "minimum": 1},
                    "subjects": {"type": "integer", "minimum": 1},
                    "dim": {"type": "integer", "minimum": 1},
                    "noise_variance": {"type": "number", "minimum": 0},
                },
                "additionalProperties": False,
            },
            "source_features": {
                "type": "object",
                "properties": {
                    "dim": {"type": "integer", "minimum": 1},
                    "noise_sigma": {"type": "number", "minimum": 0},
                    "train_fraction": {
                        "type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1,
                    },
                },
                "additionalProperties": False,
            },
            "transfer": {
                "type": "object",
                "properties": {
                    "classes": {"type": "integer", "minimum": 2},
                    "per_class": {"type": "integer", "minimum": 2},
                    "noise_sigma": {"type": "number", "minimum": 0},
                    "train_fraction": {
                        "type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1,
                    },
                },
                "additionalProperties": False,
            },
            "ridge_l2": {"type": "number", "minimum": 0},
            "svm": {
                "type": "object",
                "properties": {
                    "epochs": {"type": "integer", "minimum": 1},
                    "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                    "l2": {"type": "number", "minimum": 0},
                },
                "additionalProperties": False,
            },
        },
        "required": ["schema_version", "out"],
        "additionalProperties": False,
    },
    "spectrum": {
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "input": {"type": "string"},
            "out": {"type": "string"},
            "segment_samples": {"type": "integer", "minimum": 2},
            "overlap_fraction": {
                "type": "number", "minimum": 0, "exclusiveMaximum": 1,
            },
            "vlf_cutoff_hz": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["schema_version", "input", "out"],
        "additionalProperties": False,
    },
}

DEFAULTS: dict[str, dict] = {
    "synth": {
        "schema_version": SCHEMA_VERSION,
        "seed": 0,
        "design": "block",
        "classes": 40,
        "trials_per_class": 50,
        "blocks_per_class": 1,
        "block_count": None,
        "stimulus_ms": 500.0,
        "blank_ms": 10000.0,
        "channels": 96,
        "sample_rate": 1024.0,
        "drift": {"dc_sigma": 5.0, "walk_sigma": 0.05, "noise_sigma": 1.0},
        "evoked": {
            "enabled": False, "amplitude": 0.0,
            "template_ms": 150.0, "center_hz": 30.0,
        },
        "subjects": ["s01"],
    },
    "preprocess": {
        "schema_version": SCHEMA_VERSION,
        "downsample_factor": None,
        "rereference": None,
        "filters": [],
        "mode": "zero_phase",
    },
    "audit": {
        "schema_version": SCHEMA_VERSION,
        "seed": 0,
        "grid": {
            "classifiers": ["knn", "svm"],
            "windows_ms": [440.0, 1.0],
            "channel_counts": [0, 8],
            "splits": [
                {"regime": splits.WITHIN_BLOCK, "fractions": [0.8, 0.1, 0.1]},
                {"regime": splits.BLOCK_DISJOINT, "fractions": [0.6, 0.2, 0.2]},
            ],
            "filter_configs": [
                {
                    "name": "notch",
                    "filters": [
                        {"kind": "notch", "low_hz": 49.0, "high_hz": 51.0, "order": 2}
                    ],
                    "zscore_scope": "train_statistics",
                }
            ],
            "start_offset_ms": 40.0,
            "knn_k": 7,
            "svm_l2": 1e-3,
            "mlp_hidden": 128,
            "train": {
                "epochs": 50, "batch_size": 64, "learning_rate": 3e-5,
                "momentum": 0.9, "weight_decay": 0.0,
            },
            "cnn": {
                "kernels": 8, "kernel_len": 32, "pool_len": 128, "pool_stride": 64,
            },
        },
        "relabel": False,
        "highpass_cutoffs_hz": [],
        "spectrum": {
            "segment_samples": 4096, "overlap_fraction": 0.5, "vlf_cutoff_hz": 5.0,
        },
        "verdict": {"alpha": 0.01, "high_multiple": 3.0, "comparable_points": 0.10},
    },
    "codebook": {
        "schema_version": SCHEMA_VERSION,
        "seed": 0,
        "seeds": 1,
        "codebook": {
            "classes": 40, "instances_per_class": 50, "subjects": 6,
            "dim": 128, "noise_variance": 4.0,
        },
        "source_features": {"dim": 1000, "noise_sigma": 0.25, "train_fraction": 0.8},
        "transfer": {
            "classes": 30, "per_class": 40,
            "noise_sigma": 0.25, "train_fraction": 0.8,
        },
        "ridge_l2": 1e-2,
        "svm": {"epochs": 50, "learning_rate": 1e-4, "l2": 1e-4},
    },
    "spectrum": {
        "schema_version": SCHEMA_VERSION,
        "segment_samples": 4096,
        "overlap_fraction": 0.5,
        "vlf_cutoff_hz": 5.0,
    },
}


class ConfigError(ValueError):
    """Configuration failed schema validation or file loading."""


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(command: str, path: str | Path | None, overrides: dict) -> dict:
    """Merge defaults <- config file <- flag overrides, then validate."""
    merged = copy.deepcopy(DEFAULTS.get(command, {"schema_version": SCHEMA_VERSION}))
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if isinstance(doc, dict) and "config" in doc and "command" in doc:
            doc = doc["config"]  # manifest replay
        merged = _deep_merge(merged, doc)
    merged = _deep_merge(merged, overrides)
    validate_config(command, merged)
    return merged


def _non_finite_paths(node, path: str = ""):
    """Yield the key path of every NaN or infinity in a config tree."""
    if isinstance(node, float) and not math.isfinite(node):
        yield path
    elif isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _non_finite_paths(value, f"{path}/{key}" if path else str(key))


def validate_config(command: str, config: dict) -> None:
    """Check ``config`` against the command's schema; JSON Schema bounds
    compare false on NaN, so non-finite numbers are rejected first."""
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    bad = next(_non_finite_paths(config), None)
    if bad is not None:
        raise ConfigError(f"invalid {command} config at {bad}: not a finite number")
    try:
        jsonschema.validate(config, SCHEMAS[command])
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"invalid {command} config at {path}: {exc.message}")


# ---------------------------------------------------------------------------
# Builders from validated config dicts to domain objects
# ---------------------------------------------------------------------------

def build_filter_spec(d: dict, sample_rate: float) -> dsp.FilterSpec:
    return dsp.FilterSpec(
        kind=dsp.FilterKind(d["kind"]),
        order=int(d.get("order", 2)),
        sample_rate=sample_rate,
        low_hz=d.get("low_hz"),
        high_hz=d.get("high_hz"),
    )


def build_grid_spec(grid: dict, sample_rate: float, seed: int) -> audit.GridSpec:
    """The audit grid of a validated config; an invalid grid, such as a
    repeated axis entry, a negative channel count, a window that is not
    positive or a filter edge above Nyquist, raises ConfigError."""
    train = grid["train"]
    try:
        return audit.GridSpec(
            classifiers=tuple(grid["classifiers"]),
            windows_ms=tuple(float(w) for w in grid["windows_ms"]),
            channel_counts=tuple(int(c) for c in grid["channel_counts"]),
            splits=tuple(
                audit.SplitSpec(
                    regime=s["regime"],
                    fractions=tuple(s.get("fractions", [0.8, 0.1, 0.1])),
                )
                for s in grid["splits"]
            ),
            filter_configs=tuple(
                audit.FilterConfig(
                    name=fc["name"],
                    filters=tuple(
                        build_filter_spec(f, sample_rate)
                        for f in fc.get("filters", [])
                    ),
                    zscore_scope=fc.get("zscore_scope", "train_statistics"),
                )
                for fc in grid["filter_configs"]
            ),
            seed=seed,
            start_offset_ms=float(grid["start_offset_ms"]),
            knn_k=int(grid["knn_k"]),
            svm_l2=float(grid["svm_l2"]),
            mlp_hidden=int(grid["mlp_hidden"]),
            train_config=classifiers.TrainConfig(
                seed=seed,
                epochs=int(train["epochs"]),
                batch_size=int(train["batch_size"]),
                learning_rate=float(train["learning_rate"]),
                momentum=float(train["momentum"]),
                weight_decay=float(train["weight_decay"]),
            ),
            cnn_kernels=int(grid["cnn"]["kernels"]),
            cnn_kernel_len=int(grid["cnn"]["kernel_len"]),
            cnn_pool_len=int(grid["cnn"]["pool_len"]),
            cnn_pool_stride=int(grid["cnn"]["pool_stride"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid audit config at grid: {exc}") from exc

