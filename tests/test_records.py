"""The record types: fields, construction, defaults, repr, immutability,
hashing and validation messages.

A record is an immutable value built from named fields, checked when it is
built.  These tests pin what a caller can see of one, so that a change of
how the records are implemented cannot change it.
"""

import inspect
import math

import pytest

from mlpoly import (
    DiffusionProblem,
    DomainError,
    EvalResult,
    FhpInitial,
    HermiteInitial,
    LaguerreMonomialInitial,
    LaguerreProblem,
    MLParams,
    MonomialInitial,
    PowerSeries,
    SeriesInitial,
    SolutionProfile,
    WrightInitial,
)
from mlpoly.verify import CheckResult

#: every record, its fields in order, those with a default, and one instance
RECORDS = [
    (EvalResult, "value abs_error_estimate terms_used", "", (1.5, 2e-16, 3)),
    (MLParams, "alpha beta gamma", "gamma", (0.5, 1.2)),
    (MonomialInitial, "n", "", (2,)),
    (HermiteInitial, "n a", "", (3, 0.5)),
    (FhpInitial, "n a", "", (3, 0.5)),
    (SeriesInitial, "coeffs", "", ((1.0, 0.5),)),
    (LaguerreMonomialInitial, "n", "", (2,)),
    (WrightInitial, "y", "", (0.5,)),
    (DiffusionProblem, "alpha k initial", "", (0.5, 1.0, MonomialInitial(2))),
    (LaguerreProblem, "alpha beta b initial", "", (0.5, 0.5, 1.0, WrightInitial(0.5))),
    (SolutionProfile, "grid values meta", "meta", ((0.0, 1.0), (2.0, 3.0))),
    (PowerSeries, "coeffs", "", ((1.0, 0.5),)),
    (CheckResult, "name passed max_err tol", "", ("gap", True, 0.0, 1e-12)),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults, args", RECORDS, ids=IDS)
def test_fields_and_defaults(cls, fields, defaults, args):
    params = inspect.signature(cls).parameters
    assert list(params) == fields.split()
    assert [name for name, p in params.items() if p.default is not p.empty] == defaults.split()


@pytest.mark.parametrize("cls, fields, defaults, args", RECORDS, ids=IDS)
def test_keyword_construction_equals_positional(cls, fields, defaults, args):
    record = cls(*args)
    assert cls(**dict(zip(fields.split(), args))) == record
    assert [getattr(record, name) for name in fields.split()[:len(args)]] == list(args)


@pytest.mark.parametrize("cls, fields, defaults, args", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, defaults, args):
    record = cls(*args)
    for name in fields.split():
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields, defaults, args", RECORDS, ids=IDS)
def test_equal_records_hash_equal(cls, fields, defaults, args):
    if cls is SolutionProfile:
        with pytest.raises(TypeError):  # its meta is a dict
            hash(cls(*args))
    else:
        assert hash(cls(*args)) == hash(cls(*args))


def test_repr():
    assert repr(EvalResult(1.5, 2e-16, 3)) == (
        "EvalResult(value=1.5, abs_error_estimate=2e-16, terms_used=3)")
    assert repr(MLParams(0.5, 1.2)) == "MLParams(alpha=0.5, beta=1.2, gamma=1.0)"
    assert repr(SolutionProfile([0, 1], [2, 3], {"n": 2})) == (
        "SolutionProfile(grid=(0.0, 1.0), values=(2.0, 3.0), meta={'n': 2})")
    assert repr(CheckResult("gap", True, 0.0, 1e-12)) == (
        "CheckResult(name='gap', passed=True, max_err=0.0, tol=1e-12)")


def test_defaults_are_not_shared():
    first, second = SolutionProfile((0.0,), (1.0,)), SolutionProfile((0.0,), (1.0,))
    assert first.meta == {} and first.meta is not second.meta
    assert MLParams(alpha=0.5, beta=1.2).gamma == 1.0


def test_sequences_are_stored_as_float_tuples():
    for coeffs in (SeriesInitial([1, 2]).coeffs, PowerSeries([1, 2]).coeffs):
        assert coeffs == (1.0, 2.0) and type(coeffs) is tuple
        assert all(type(c) is float for c in coeffs)
    profile = SolutionProfile([0, 1], [2, 3])
    assert (profile.grid, profile.values) == ((0.0, 1.0), (2.0, 3.0))
    assert type(profile.grid) is tuple and type(profile.values[0]) is float


def test_a_power_series_multiplies_only_a_power_series():
    series = PowerSeries((1.0, 2.0))
    assert (series * series).coeffs == (1.0, 4.0)
    for product in (lambda: series * 2, lambda: 2 * series):
        with pytest.raises(TypeError):
            product()


@pytest.mark.parametrize("build, message", [
    (lambda: EvalResult(1.0, -1e-3, 5), "abs_error_estimate must be nonnegative"),
    (lambda: MLParams(0.5, math.inf), "MLParams fields must be finite"),
    (lambda: MLParams(0.5, 1.0, math.nan), "MLParams fields must be finite"),
    (lambda: PowerSeries((1.0,)), "a PowerSeries needs order >= 1 (at least 2 coefficients)"),
    (lambda: PowerSeries((1.0, math.nan)), "coefficients must be finite"),
    (lambda: SolutionProfile((0.0, 1.0), (1.0,)),
     "grid and values must have equal length, got 2 vs 1"),
    (lambda: SolutionProfile((0.0, 0.0), (1.0, 2.0)), "grid must be strictly increasing"),
    (lambda: DiffusionProblem(0.5, 1.0, WrightInitial(0.5)),
     "unsupported initial datum: WrightInitial(y=0.5)"),
    (lambda: LaguerreProblem(0.5, 0.5, 1.0, HermiteInitial(2, 0.5)),
     "unsupported initial datum: HermiteInitial(n=2, a=0.5)"),
], ids=["eval-result", "ml-params-inf", "ml-params-nan", "series-order", "series-nan",
        "profile-length", "profile-grid", "diffusion-initial", "laguerre-initial"])
def test_validation_message(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message
