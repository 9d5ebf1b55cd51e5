"""The integer rule and the finite-range rule that every scalar setting is
checked by."""
import re

import numpy as np
import pytest

from blockaudit._checks import check_integer, check_real, is_integer


class TestIntegerRule:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint32(3)])
    def test_integer_types_accepted(self, value):
        assert is_integer(value)
        check_integer("knn_k", value, 1)

    @pytest.mark.parametrize("value", [True, False, np.True_, 2.0, 2.5,
                                       float("nan"), "3", None])
    def test_non_integer_rejected(self, value):
        assert not is_integer(value)
        with pytest.raises(ValueError) as exc:
            check_integer("knn_k", value, 1)
        assert str(exc.value) == f"knn_k={value!r} must be an integer >= 1"

    def test_low_bound_inclusive(self):
        check_integer("seed", 0, 0)
        with pytest.raises(ValueError) as exc:
            check_integer("seed", -1, 0)
        assert str(exc.value) == "seed=-1 must be an integer >= 0"


class TestFiniteRangeRule:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), np.float64("nan"),
                                       True, np.True_, "1.0", None])
    @pytest.mark.parametrize("bounds, want", [
        (dict(gt=0), "finite and > 0"),
        (dict(ge=0), "finite and >= 0"),
        (dict(gt=0, lt=1), "in (0, 1)"),
        (dict(ge=0, lt=1), "in [0, 1)"),
        (dict(ge=0, le=1), "in [0, 1]"),
    ])
    def test_non_finite_or_bool_rejected(self, value, bounds, want):
        with pytest.raises(ValueError) as exc:
            check_real("alpha", value, **bounds)
        assert str(exc.value) == f"alpha={value!r} must be {want}"

    @pytest.mark.parametrize("value, bounds", [
        (0.0, dict(gt=0)), (-1e-300, dict(ge=0)), (1.0, dict(gt=0, lt=1)),
        (1.0, dict(ge=0, lt=1)), (1.0 + 1e-12, dict(ge=0, le=1)),
    ])
    def test_edges_outside_rejected(self, value, bounds):
        with pytest.raises(ValueError, match=re.escape(f"x={value!r} must be")):
            check_real("x", value, **bounds)

    @pytest.mark.parametrize("value, bounds", [
        (1e-300, dict(gt=0)), (0, dict(ge=0)), (0.0, dict(ge=0, le=1)),
        (1, dict(ge=0, le=1)), (np.float32(0.5), dict(gt=0, lt=1)),
        (np.int64(3), dict(gt=0)), (1e308, dict(ge=0)),
    ])
    def test_finite_values_in_range_accepted(self, value, bounds):
        check_real("x", value, **bounds)
