"""The two rules every scalar setting is checked by: an integer rule and a
finite-range rule.

Config classes and settings arguments call them before any work, and both
raise ``ValueError("<name>=<value!r> must be <want>")``.  An integer is a
``numbers.Integral`` that is not a ``bool``, so ``np.int64(3)`` passes and
``True``, ``np.True_``, ``2.0`` and ``2.5`` fail.  A real is a
``numbers.Real`` that is not a ``bool``, and every range is written so that
NaN and ±inf fail it.
"""
from __future__ import annotations

import math
import numbers


def is_integer(value) -> bool:
    """True for an integer that is not a bool (the schema's "integer")."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer(name: str, value, low: int) -> None:
    """Raise unless ``value`` is an integer >= ``low``."""
    if not (is_integer(value) and value >= low):
        raise ValueError(f"{name}={value!r} must be an integer >= {low}")


def check_real(name: str, value, *, gt=None, ge=None, lt=math.inf,
               le=None) -> None:
    """Raise unless ``value`` is a real above its lower bound (``gt`` or
    ``ge``, one of which is given) and below its upper bound (``lt``, by
    default inf, or ``le``)."""
    # NaN fails every comparison, -inf the lower bound and inf the upper
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (value > gt if ge is None else value >= ge)
            and (value < lt if le is None else value <= le)):
        if le is None and lt == math.inf:
            want = f"finite and > {gt}" if ge is None else f"finite and >= {ge}"
        else:
            want = (f"in ({gt}" if ge is None else f"in [{ge}") + (
                f", {lt})" if le is None else f", {le}]")
        raise ValueError(f"{name}={value!r} must be {want}")
