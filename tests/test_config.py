"""Config defaults and the grid's config round trip."""
import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockaudit import audit, splits as sp
from blockaudit.classifiers import TrainConfig
from blockaudit.config import (
    DEFAULTS,
    ConfigError,
    SCHEMAS,
    build_grid_spec,
    grid_config,
    validate_config,
)
from blockaudit.dsp import FilterKind, FilterSpec

RATES = (256.0, 512.0, 1024.0)


@st.composite
def filter_specs(draw, rate):
    kind = draw(st.sampled_from(list(FilterKind)))
    nyq = rate / 2.0
    low, high = sorted(draw(st.lists(
        st.floats(0.01, 0.99), min_size=2, max_size=2, unique=True,
    )))
    return FilterSpec(
        kind, draw(st.integers(1, 8)), rate,
        low_hz=None if kind is FilterKind.LOWPASS else low * nyq,
        high_hz=None if kind is FilterKind.HIGHPASS else high * nyq,
    )


@st.composite
def fractions(draw):
    a = draw(st.integers(1, 18))
    b = draw(st.integers(1, 19 - a))
    return (a / 20.0, b / 20.0, (20 - a - b) / 20.0)


@st.composite
def grid_specs(draw):
    rate = draw(st.sampled_from(RATES))
    positive = st.floats(1e-6, 1e3, allow_nan=False)
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1,
                          max_size=3, unique=True))
    spec = audit.GridSpec(
        classifiers=tuple(draw(st.lists(
            st.sampled_from(audit.CLASSIFIERS), min_size=1, unique=True,
        ))),
        windows_ms=tuple(draw(st.lists(positive, min_size=1, max_size=3,
                                       unique=True))),
        channel_counts=tuple(draw(st.lists(st.integers(0, 128), min_size=1,
                                           max_size=3, unique=True))),
        splits=tuple(
            audit.SplitSpec(regime, draw(fractions()))
            for regime in draw(st.lists(st.sampled_from(sp.REGIMES),
                                        min_size=1, unique=True))
        ),
        filter_configs=tuple(
            audit.FilterConfig(
                name,
                tuple(draw(st.lists(filter_specs(rate), max_size=2))),
            )
            for name in names
        ),
        seed=draw(st.integers(0, 2**31)),
        start_offset_ms=draw(st.floats(0.0, 500.0)),
        knn_k=draw(st.integers(1, 64)),
        svm_l2=draw(st.floats(0.0, 1.0)),
        mlp_hidden=draw(st.integers(1, 512)),
        train_config=TrainConfig(
            epochs=draw(st.integers(1, 100)),
            batch_size=draw(st.integers(1, 256)),
            learning_rate=draw(positive),
            momentum=draw(st.floats(0.0, 1.0)),
        ),
        cnn_kernels=draw(st.integers(1, 16)),
        cnn_kernel_len=draw(st.integers(1, 64)),
        cnn_pool_len=draw(st.integers(1, 256)),
        cnn_pool_stride=draw(st.integers(1, 128)),
    )
    return spec, rate


@settings(max_examples=100, deadline=None)
@given(grid_specs())
def test_grid_config_round_trips_through_json(spec_and_rate):
    spec, rate = spec_and_rate
    grid = json.loads(json.dumps(grid_config(spec)))
    # what a manifest records is a valid config that builds the same grid
    validate_config("audit", {"schema_version": 1, "inputs": ["x"],
                              "out": "y", "grid": grid})
    assert build_grid_spec(grid, rate, spec.seed) == spec


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_defaults_validate(command):
    schema = SCHEMAS[command]
    config = dict(DEFAULTS[command])
    for key in schema["required"]:
        if key not in config:
            array = schema["properties"][key].get("type") == "array"
            config[key] = ["x"] if array else "x"
    validate_config(command, config)


def _leaves(node, path=()):
    """(path, value) of every leaf; a list of objects is walked entry by
    entry, any other list is one leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _at(node, path):
    for part in path:
        node = node[part]
    return node


def test_default_grid_keeps_only_the_audits_own_choices():
    grid = DEFAULTS["audit"]["grid"]
    resolved = grid_config(build_grid_spec(grid, 1024.0, seed=0))
    library = grid_config(audit.GridSpec())
    for path, value in _leaves(grid):
        assert _at(resolved, path) == value, path
        if path[-1] == "regime":
            continue  # names the split entry that its position pairs
        try:
            other = _at(library, path)
        except (KeyError, IndexError):
            continue
        assert value != other, f"{'/'.join(map(str, path))} repeats {other!r}"


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_every_schema_is_valid(command):
    # validate_config no longer checks the schema on each call
    schema = SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("command, config", [
    ("synth", {"schema_version": 1, "out": "x", "bogus": 1}),
    ("synth", {"schema_version": 99, "out": "x"}),
    ("synth", {"schema_version": 1}),
    ("audit", {"schema_version": 1, "inputs": ["x"], "out": "y",
               "grid": {"splits": [{"regime": "nope"}]}}),
    ("audit", {"schema_version": 1, "inputs": ["x"], "out": "y",
               "grid": {"windows_ms": [440.0, -1.0], "knn_k": "7"}}),
    ("audit", {"schema_version": 1, "inputs": "x", "out": 3}),
], ids=["unknown_key", "schema_version", "missing_key", "bad_enum",
        "two_errors", "wrong_types"])
def test_error_text_is_jsonschemas_best_match(command, config):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(config, SCHEMAS[command])
    exc = expected.value
    path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
    with pytest.raises(ConfigError) as got:
        validate_config(command, config)
    assert str(got.value) == f"invalid {command} config at {path}: {exc.message}"


_SYNTH = {"schema_version": 1, "out": "x"}
_AUDIT = {"schema_version": 1, "inputs": ["x"], "out": "y"}


@pytest.mark.parametrize("command, config, where", [
    ("synth", dict(_SYNTH, classes=6.0), "classes"),
    ("synth", dict(_SYNTH, block_count=5.0), "block_count"),
    ("synth", dict(_SYNTH, channels=True), "channels"),
    ("spectrum", {"schema_version": 1, "input": "x", "out": "y",
                  "segment_samples": 256.0}, "segment_samples"),
    ("audit", dict(_AUDIT, seed=11.0), "seed"),
    ("audit", dict(_AUDIT, grid={"train": {"epochs": 50.0}}),
     "grid/train/epochs"),
    ("audit", dict(_AUDIT, grid={"channel_counts": [0, 8.0]}),
     "grid/channel_counts/1"),
    ("codebook", {"schema_version": 1, "out": "x", "seeds": 2.0}, "seeds"),
], ids=["synth_classes", "nullable_block_count", "bool", "segment_samples",
        "seed", "grid_epochs", "channel_count", "codebook_seeds"])
def test_integer_key_rejects_integral_float_and_bool(command, config, where):
    with pytest.raises(ConfigError, match=f"at {where}: .* is not of type"):
        validate_config(command, config)


def test_integer_key_accepts_int():
    validate_config("synth", dict(_SYNTH, classes=6, block_count=None))
    validate_config("audit", dict(_AUDIT, seed=2**40,
                                  grid={"train": {"epochs": 50}}))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_verdict_alpha_outside_open_unit_interval_rejected(alpha):
    with pytest.raises(ConfigError, match="at verdict/alpha:"):
        validate_config("audit", dict(_AUDIT, verdict={"alpha": alpha}))


def test_verdict_alpha_inside_open_unit_interval_accepted():
    validate_config("audit", dict(_AUDIT, verdict={"alpha": 0.5}))
