"""The one reciprocal-gamma row: every family reads rgamma(beta + alpha*r) to the bit.

``gamma_core._rgammas`` builds the row that the fractional Hermite
polynomials (beta = 1), the Mittag-Leffler polynomials and the Laguerre-type
solution sum against.  Each reader is compared here with a reference that
calls ``rgamma`` once per entry, as the readers did before they shared it.
"""

import math
import random
from fractions import Fraction

import pytest

from mlpoly.fokker_planck import _LaguerreMonomialPlan
from mlpoly.fractional_hermite import _FhpTable
from mlpoly.gamma_core import _MAX_DEGREE, _dyadic, _rgammas, rgamma
from mlpoly.ml_polynomials import _rgamma_row, mlp_coeffs
from mlpoly.sheffer import appell_A_fhp, appell_A_mlp


def _bits(values):
    return [float(v).hex() for v in values]


def _reference(top, alpha, beta):
    return [rgamma(beta + alpha * r) for r in range(top + 1)]


def _over_factorial(v, r):
    """v / r! rounded once, with the sign of v."""
    return math.copysign(float(Fraction(v) / math.factorial(r)), v)


def _draws(seed):
    """(top, alpha, beta) over top <= 60 and 170, 171, 400; alpha in (0, 2],
    a float beta in (0, 3] and the int betas 1 and 2."""
    rng = random.Random(seed)
    tops = [rng.randint(0, 60) for _ in range(12)] + [170, 171, 400]
    for top in tops:
        alpha = 2.0 - rng.uniform(0.0, 2.0)  # in (0, 2]
        for beta in (3.0 - rng.uniform(0.0, 3.0), 1, 2):
            yield top, alpha, beta


@pytest.mark.parametrize("seed", range(4))
def test_the_row_is_rgamma_entry_by_entry(seed):
    for top, alpha, beta in _draws(seed):
        row = _rgammas(top, alpha, beta)
        assert type(row) is tuple and len(row) == top + 1
        assert _bits(row) == _bits(_reference(top, alpha, beta)), (top, alpha, beta)
        mantissas, exponent = _dyadic(row)
        assert _rgamma_row(top, alpha, beta) == (tuple(mantissas), exponent)


@pytest.mark.parametrize("seed", range(4))
def test_every_reader_sees_the_per_entry_row(seed):
    rng = random.Random(100 + seed)
    for top, alpha, beta in _draws(seed):
        x = rng.uniform(-2.0, 2.0)
        # the Mittag-Leffler polynomial's coefficients and its EGF prefactor
        want = [
            (math.comb(top, r) * (-x) ** r * g, float(top - r))
            for r, g in enumerate(_reference(top, alpha, beta))
        ]
        got = mlp_coeffs(top, alpha, beta, x).terms
        assert [(c.hex(), mu) for c, mu in got] == [(c.hex(), mu) for c, mu in want[::-1] if c]
        order = max(top, 2)
        want = [_over_factorial((-x) ** r * g, r) for r, g in enumerate(_reference(order, alpha, beta))]
        assert _bits(appell_A_mlp(alpha, beta, x, order).coeffs) == _bits(want)
        # the fractional Hermite family's EGF prefactor (beta = 1)
        y = rng.uniform(-2.0, 2.0)
        want = [0.0] * (order + 1)
        for r, g in enumerate(_reference(order // 2, alpha, 1.0)):
            want[2 * r] = y ** r * g
        assert _bits(appell_A_fhp(alpha, y, order).coeffs) == _bits(want)
        if top > _MAX_DEGREE:  # the table and the plan refuse such a degree
            continue
        unit = alpha / 2.0  # in (0, 1]
        table = _FhpTable((top,), unit)
        assert _bits(table.rgammas) == _bits(_reference(top // 2, unit, 1.0))
        a, b = rng.uniform(0.01, 0.99), rng.uniform(0.01, 1.0)
        plan = _LaguerreMonomialPlan(top, a, b, 1.0)
        assert _bits(plan._rgammas_x) == _bits(_reference(top, a, 1.0))
        assert _bits(plan._rgammas_t) == _bits(rgamma(1.0 + b * (top - r)) for r in range(top + 1))
