"""The exact rows shared across degrees: equal to the per-degree routes, bit for bit.

The polynomial layer builds each row that no degree changes once per
parameter set (the dyadic 1/Gamma row of the Mittag-Leffler polynomials, the
Hermite ratios m!/(m-2r)! and weights n!/(r! (n-2r)!), the fractional-binomial
rows) and reads it from
every degree.  These tests pin that every shared route gives the same bits
as the per-degree one, that the caches hold immutable rows in bounded
memory, and that each verify sweep keeps its draws.
"""

import collections
import inspect
import math
import random

import pytest

import mlpoly
from mlpoly import fractional_hermite, verify
from mlpoly._pcg import Generator
from mlpoly.fractional_hermite import (
    _fhp_table,
    _fhp_values,
    _frac_binom_row,
    _hermite_ratios,
    _hermite_weights,
    fhp_eval,
    oplus_power,
)
from mlpoly.gamma_core import _MAX_DEGREE, frac_binom
from mlpoly.ml_polynomials import _mlp_values, _rgamma_row, mlp_eval

from test_cache_order import _lru_caches


# -- the Mittag-Leffler polynomials of every degree -------------------------------


def test_all_degrees_equal_mlp_eval_bit_for_bit():
    rng = random.Random(19)
    draws = 0
    for _ in range(220):
        top = rng.randint(0, 60)
        alpha = rng.uniform(1e-3, 2.0)
        beta = rng.uniform(1e-3, 3.0)
        x = rng.uniform(-3.0, 3.0)
        y = rng.uniform(-3.0, 3.0)
        values = _mlp_values(top, alpha, beta, x, y)
        assert values == [mlp_eval(n, alpha, beta, x, y) for n in range(top + 1)]
        draws += x < 0.0 and y < 0.0
    assert draws > 20  # both arguments negative on a fair share of the draws


def test_all_degrees_at_the_edges():
    for args in ((0, 0.5, 1.0, 0.3, -0.2), (5, 2.0, 3.0, 0.0, 0.0), (7, 1.0, 1.0, -1.0, 1.0),
                 (12, 1, 2, 3, -1)):
        top = args[0]
        assert _mlp_values(*args) == [mlp_eval(n, *args[1:]) for n in range(top + 1)]


def test_all_degrees_refuse_at_the_first_degree_mlp_eval_refuses():
    # (-x)**n leaves the double range from n = 2 on
    with pytest.raises(mlpoly.FloatOverflowError) as shared:
        _mlp_values(6, 0.5, 1.0, 1e200, 1.0)
    with pytest.raises(mlpoly.FloatOverflowError) as single:
        [mlp_eval(n, 0.5, 1.0, 1e200, 1.0) for n in range(7)]
    assert str(shared.value) == str(single.value) == (
        "(-x)**2 exceeds the double-precision range at (-x) = -1e+200"
    )


# -- the fractional-binomial and Hermite-ratio rows ---------------------------------


@pytest.mark.parametrize("alpha", [1.0, 1, 0.999, 0.5, 0.137, 1e-3])
def test_frac_binom_row_equals_frac_binom_entry_by_entry(alpha):
    for n in range(0, 61):
        row = _frac_binom_row(n, alpha)
        assert row == tuple(frac_binom(n, r, alpha) for r in range(n + 1))


def test_frac_binom_rows_on_seeded_draws():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 80)
        alpha = rng.uniform(1e-3, 1.0)
        assert _frac_binom_row(n, alpha) == tuple(frac_binom(n, r, alpha) for r in range(n + 1))


def test_hermite_rows_are_the_exact_quotients():
    for m in (0, 1, 2, 9, 40, _MAX_DEGREE):
        half = range(m // 2 + 1)
        fm = math.factorial(m)
        assert _hermite_ratios(m) == tuple(float(fm // math.factorial(m - 2 * r)) for r in half)
        assert _hermite_weights(m) == tuple(
            float(fm // (math.factorial(r) * math.factorial(m - 2 * r))) for r in half
        )


def test_table_values_equal_fhp_eval_for_every_degree():
    rng = random.Random(3)
    for _ in range(60):
        top = rng.randint(0, 40)
        alpha = rng.uniform(0.05, 1.0)
        x = rng.uniform(-2.0, 2.0)
        y = rng.uniform(-2.0, 2.0)
        assert _fhp_values(top, alpha, x, y) == [fhp_eval(n, alpha, x, y) for n in range(top + 1)]
    assert _fhp_values(6, 1.0, 0.7, -0.4) == [fhp_eval(n, 1.0, 0.7, -0.4) for n in range(7)]


# -- immutable rows in bounded caches ---------------------------------------------


def test_every_cached_row_is_a_tuple():
    mantissas, exponent = _rgamma_row(12, 0.5, 1.2)
    assert type(mantissas) is tuple and type(exponent) is int
    assert type(_frac_binom_row(9, 0.4)) is tuple
    assert type(_frac_binom_row(9, 1.0)) is tuple
    assert type(_hermite_ratios(9)) is tuple
    assert type(_hermite_weights(9)) is tuple
    table = _fhp_table(range(9), 0.4)
    assert type(table.rgammas) is tuple
    assert type(table.ratios) is tuple and all(type(row) is tuple for row in table.ratios)


def test_every_row_cache_has_a_bound():
    caches = _lru_caches()  # verify, imported above, loads every module
    assert {"mlpoly.ml_polynomials._rgamma_row", "mlpoly.fractional_hermite._hermite_ratios",
            "mlpoly.fractional_hermite._hermite_weights", "mlpoly.fractional_hermite._frac_binom_row",
            "mlpoly.fractional_hermite._fhp_table"} <= set(caches)
    for name, cached in caches.items():
        if inspect.signature(cached.__wrapped__).parameters:  # not a one-entry cache
            assert cached.cache_info().maxsize is not None, name


def test_a_degree_past_the_factorial_range_pins_no_row():
    _rgamma_row.cache_clear()
    assert mlp_eval(3000, 0.5, 1.0, 0.01, 0.01) == 0.0
    assert _rgamma_row.cache_info().currsize == 0
    mlp_eval(_MAX_DEGREE, 0.5, 1.0, 0.01, 0.01)
    assert _rgamma_row.cache_info().currsize == 1

    _frac_binom_row.cache_clear()
    assert oplus_power(0.1, 0.1, 400, 0.5) == pytest.approx(0.0, abs=1e-300)
    assert _frac_binom_row.cache_info().currsize == 0


def test_equal_keys_of_another_type_get_their_own_row():
    # alpha = 2**60 as an int and as a float compare equal, but beta + alpha*r
    # differs between them; a typed key keeps the two rows apart
    _rgamma_row.cache_clear()
    _rgamma_row(2, 2**60, 1)
    _rgamma_row(2, float(2**60), 1)
    assert _rgamma_row.cache_info().currsize == 2


# -- the sweeps keep their draws ------------------------------------------------------

#: per suite at seed 0, n_max 10: each check's number of gaps, in the order
#: the checks first yield
SWEEP_SIZES = {
    "fhp-identities": {
        "fhp-low-order-closed-forms": 48, "fhp-classical-reduction": 55, "fhp-at-zero": 132,
        "fhp-forward-shift-x": 90, "fhp-forward-shift-y": 27, "fhp-egf": 102,
        "fhp-identity-hermite-seed": 550, "fhp-identity-oplus-seed": 550, "fhp-homogeneity": 440,
    },
    "mlp-gf": {
        "mlp-ogf": 30, "mlp-egf": 30, "mlp-one-var-reduction": 330, "konhauser-laguerre": 99,
        "mlp-prabhakar-consistency": 168, "mlp-operational": 3321,
    },
    "caputo": {
        "caputo-linearity": 20, "caputo-eigenfunction-truncation": 18, "caputo-l1-order": 20,
        "caputo-riemann-liouville-shift": 18,
    },
    "pde-residuals": {
        "tf-diffusion-residual": 66, "case-i-residual": 66, "case-ii-residual": 66,
        "series-residual": 33, "laguerre-residual": 63, "initial-condition-recovery": 60,
        "case-i-umbral-equality": 25, "case-ii-both-forms": 25,
        "subordination-term-consistency": 270,
    },
    "sheffer-ladder": {
        "ladder-raising-fhp": 99, "ladder-commutator": 297, "ladder-lowering-fhp": 90,
        "ladder-raising-mlp": 198, "ladder-lowering-mlp": 180, "appell-A-prime-consistency": 54,
        "h-cocycle": 40, "appell-specialization": 20,
    },
}


@pytest.mark.parametrize("suite", sorted(SWEEP_SIZES))
def test_each_sweep_yields_its_gaps(suite):
    sweep, _ = verify._CHECKS[suite]
    counts = collections.Counter(name for name, _ in sweep(Generator(0), 10))
    assert list(counts.items()) == list(SWEEP_SIZES[suite].items())


def test_the_residual_builds_no_fractional_binomial_row(monkeypatch):
    # the plain convolution sum needs no (+)_alpha route; the rows are shared
    # now, so the route is caught where it asks for one
    def refuse(*args):
        raise AssertionError("a (+)_alpha row was built")

    monkeypatch.setattr(fractional_hermite, "_frac_binom_row", refuse)
    for alpha in (0.3, 0.5):
        prob = mlpoly.DiffusionProblem(alpha, 1.0, mlpoly.FhpInitial(6, 0.3))
        assert mlpoly.residual(prob) <= mlpoly.config.RESIDUAL_TOL
    with pytest.raises(AssertionError, match="row was built"):
        mlpoly.solve_case_ii(6, 0.3, 0.5, 1.0, 0.2, 0.4)

