"""No public callable takes a per-call setting.

The series tolerance and term budget change only inside
``config.override``, which checks every value; a power-series datum is
truncated by passing fewer coefficients; the operational check samples one
fixed grid; a profile's CSV has one number format.  This test walks
``mlpoly.__all__`` and fails if a function, or the ``__new__``,
``__init__``, ``__call__`` or a public method of a class, takes a
parameter named in ``REMOVED``, so a knob can come back only by editing
that set.
"""

import inspect
import math

import pytest

import mlpoly
from mlpoly.mittag_leffler import _sum_series

REMOVED = {"tol", "budget", "n_terms", "x_grid", "fmt"}


def _public_callables():
    for name in mlpoly.__all__:
        obj = getattr(mlpoly, name)
        if not inspect.isclass(obj):
            if callable(obj):
                yield name, obj
            continue
        members = ["__new__", "__init__", "__call__"]
        members += [m for m in dir(obj) if not m.startswith("_")]
        for member in members:
            fn = getattr(obj, member, None)
            if inspect.isfunction(fn) or inspect.ismethod(fn):
                yield f"{name}.{member}", fn


def test_no_public_callable_takes_a_removed_setting():
    found = {name: sorted(REMOVED & set(inspect.signature(fn).parameters))
             for name, fn in _public_callables()}
    assert {name: knobs for name, knobs in found.items() if knobs} == {}
    # the walk reaches the evaluators, the series classes and the records
    for name in ("ml_one", "wright", "MLSeries.__call__", "WrightSeries.__call__",
                 "solve_tf_diffusion", "plan", "residual", "mlp_operational_check",
                 "SolutionProfile.to_csv", "FracPoly.has_integer_exponents"):
        assert name in found


def test_series_engine_reads_the_settings():
    assert not {"tol", "budget"} & set(inspect.signature(_sum_series).parameters)


def test_a_per_call_tolerance_is_refused():
    # an unchecked tol = inf once returned E_0.5(1) = 2.128... with an infinite estimate
    with pytest.raises(TypeError):
        mlpoly.ml_one(0.5, 1.0, tol=math.inf)
