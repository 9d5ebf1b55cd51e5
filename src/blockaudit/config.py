"""Run configuration: defaults, JSON schemas, and domain-object builders.

Every CLI command validates its configuration against the published schema
below before doing any work; the same schema governs manifest replay.  All
randomness flows from the single top-level ``seed``.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict
from enum import Enum
from pathlib import Path

import jsonschema

from . import audit, classifiers, dsp, splits, synthgen
from ._checks import is_integer

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
    },
    "additionalProperties": False,
}

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "classifiers": {
            "type": "array",
            "items": {"enum": list(audit.CLASSIFIERS)},
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
                    "regime": {"enum": list(splits.REGIMES)},
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

# the Welch spectrum settings of `spectrum`, and of `audit` under "spectrum"
_SPECTRUM_SCHEMA = {
    "segment_samples": {"type": "integer", "minimum": 2},
    "overlap_fraction": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
    "vlf_cutoff_hz": {"type": "number", "exclusiveMinimum": 0},
}
_SPECTRUM_DEFAULTS = {
    "segment_samples": 4096, "overlap_fraction": 0.5, "vlf_cutoff_hz": 5.0,
}

SCHEMAS: dict[str, dict] = {
    "synth": {
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "seed": {"type": "integer", "minimum": 0},
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
            "seed": {"type": "integer", "minimum": 0},
            "out": {"type": "string"},
            "inputs": {"type": "array", "items": {"type": "string"}, "minItems": 1},
            "grid": _GRID_SCHEMA,
            "relabel": {"type": "boolean"},
            "highpass_cutoffs_hz": {"type": "array", "items": {"type": "number"}},
            "spectrum": {
                "type": "object",
                "properties": _SPECTRUM_SCHEMA,
                "additionalProperties": False,
            },
            "verdict": {
                "type": "object",
                "properties": {
                    "alpha": {"type": "number", "exclusiveMinimum": 0,
                              "exclusiveMaximum": 1},
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
            "seed": {"type": "integer", "minimum": 0},
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
            **_SPECTRUM_SCHEMA,
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
        "drift": asdict(synthgen.DriftParams()),
        "evoked": asdict(synthgen.EvokedParams()),
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
        # the audit's own choices: every value the grid leaves out is the
        # default of the dataclass that uses it (GridSpec, SplitSpec, ...)
        "grid": {
            "windows_ms": [440.0, 1.0],
            "channel_counts": [0, 8],
            "splits": [
                {"regime": splits.WITHIN_BLOCK},
                {"regime": splits.BLOCK_DISJOINT, "fractions": [0.6, 0.2, 0.2]},
            ],
            "filter_configs": [
                {
                    "name": "notch",
                    "filters": [{"kind": "notch", "low_hz": 49.0, "high_hz": 51.0}],
                }
            ],
            "train": {"learning_rate": 3e-5},
        },
        "relabel": False,
        "highpass_cutoffs_hz": [],
        "spectrum": dict(_SPECTRUM_DEFAULTS),
        "verdict": asdict(audit.VerdictConfig()),
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
    "spectrum": {"schema_version": SCHEMA_VERSION, **_SPECTRUM_DEFAULTS},
}


def _strict_validator(schema: dict):
    """The schema's validator, with "integer" the settings' integer rule:
    JSON Schema's own check also takes an integral float such as ``6.0``."""
    cls = jsonschema.validators.validator_for(schema)
    checker = cls.TYPE_CHECKER.redefine("integer", lambda _, v: is_integer(v))
    return jsonschema.validators.extend(cls, type_checker=checker)(schema)


# one validator per command, built once: a call checks the config against
# its schema, not the schema against the metaschema
_VALIDATORS = {
    command: _strict_validator(schema) for command, schema in SCHEMAS.items()
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
    exc = jsonschema.exceptions.best_match(_VALIDATORS[command].iter_errors(config))
    if exc is not None:
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


def _typed(value, schema: dict):
    """A validated config value with the Python types its schema names:
    arrays become tuples and a JSON ``440`` "number" becomes ``440.0``."""
    if isinstance(value, dict):
        return {k: _typed(v, schema["properties"][k]) for k, v in value.items()}
    if isinstance(value, list):
        return tuple(_typed(v, schema["items"]) for v in value)
    return float(value) if schema.get("type") == "number" else value


def _filter_config(fc: dict, sample_rate: float) -> audit.FilterConfig:
    if "filters" in fc:
        specs = tuple(build_filter_spec(f, sample_rate) for f in fc["filters"])
        fc = dict(fc, filters=specs)
    return audit.FilterConfig(**fc)


def build_grid_spec(grid: dict, sample_rate: float, seed: int) -> audit.GridSpec:
    """The audit grid of a validated config; a key the grid leaves out takes
    the default of the dataclass that uses it.  An invalid grid, such as a
    repeated axis entry, a negative channel count, a window that is not
    positive or a filter edge above Nyquist, raises ConfigError."""
    try:
        kw = _typed(grid, _GRID_SCHEMA)
        kw.update({f"cnn_{k}": v for k, v in kw.pop("cnn", {}).items()})
        if "train" in kw:
            kw["train_config"] = classifiers.TrainConfig(**kw.pop("train"))
        if "splits" in kw:
            kw["splits"] = tuple(audit.SplitSpec(**s) for s in kw["splits"])
        if "filter_configs" in kw:
            kw["filter_configs"] = tuple(
                _filter_config(fc, sample_rate) for fc in kw["filter_configs"]
            )
        return audit.GridSpec(seed=seed, **kw)
    except ValueError as exc:
        raise ConfigError(f"invalid audit config at grid: {exc}") from exc


def _json_fields(pairs) -> dict:
    return {
        k: list(v) if isinstance(v, tuple) else v.value if isinstance(v, Enum) else v
        for k, v in pairs
    }


def grid_config(spec: audit.GridSpec) -> dict:
    """The config grid of ``spec`` with every value resolved: the inverse of
    ``build_grid_spec``, whose arguments it leaves out (the seed, and the
    sample rate of each filter)."""
    grid = asdict(spec, dict_factory=_json_fields)
    del grid["seed"], grid["train_config"]["seed"]
    grid["train"] = grid.pop("train_config")
    cnn_keys = _GRID_SCHEMA["properties"]["cnn"]["properties"]
    grid["cnn"] = {k: grid.pop(f"cnn_{k}") for k in cnn_keys}
    for fc in grid["filter_configs"]:
        for f in fc["filters"]:
            del f["sample_rate"]
    return grid
