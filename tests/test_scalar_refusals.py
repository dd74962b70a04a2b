"""Scalar routes that left the double range now refuse by name.

Each row below returned a non-finite value or raised a raw ``OverflowError``
before; a finite result keeps its bits.
"""

import math
import random

import pytest

from mlpoly import (
    DiffusionProblem,
    DomainError,
    FloatOverflowError,
    HermiteInitial,
    LaguerreMonomialInitial,
    LaguerreProblem,
    SeriesInitial,
    plan,
    solve_case_i,
    solve_laguerre_monomial,
    solve_tf_diffusion,
)
from mlpoly.gamma_core import ln_gamma
from mlpoly.mittag_leffler import wright
from mlpoly.ml_polynomials import konhauser, mlp_egf_closed, mlp_eval, mlp_one_var_reduction

INF = math.inf


@pytest.mark.parametrize("fn,args,error,message", [
    (konhauser, (40, 0.5, 1e300, 2.0, 0),
     FloatOverflowError, r"Gamma\(beta\+alpha\*n\) = Gamma\(1e\+300\) exceeds the double-precision range"),
    (mlp_egf_closed, (1e200, 1e308, 2, -1e200, 0.999999),
     FloatOverflowError, r"exp\(lam\*y\) exceeds the double-precision range"),
    (mlp_one_var_reduction, (40, 2.0, 5e-324, 1e300, INF), DomainError, "y must be finite, got inf"),
    (mlp_one_var_reduction, (4, 0.5, 1.0, 0.3, math.nan), DomainError, "y must be finite, got nan"),
    (solve_case_i, (3, -1e308, 0.5, 1.0, 0.0, 0.0),
     FloatOverflowError, r"the solution at \(x, t\) = \(0.0, 0.0\) is nan"),
    (solve_case_i, (3, -1e308, 0.5, 1.0, 0.3, 0.7),
     FloatOverflowError, r"the solution at \(x, t\) = \(0.3, 0.7\) is -inf"),
    (solve_laguerre_monomial, (12, 0.5, 0.5, 1.0, 1e51, 1e51), FloatOverflowError, "is nan"),
    (solve_tf_diffusion, (DiffusionProblem(0.5, 1.0, SeriesInitial([1e308, 1e308])), 1.0, 0.5),
     FloatOverflowError, "is inf: it leaves the double-precision range"),
])
def test_a_value_beyond_the_double_range_is_refused(fn, args, error, message):
    with pytest.raises(error, match=message):
        fn(*args)


def test_finite_results_keep_their_bits():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(0, 12)
        alpha, beta = rng.uniform(0.2, 0.95), rng.uniform(0.3, 2.0)
        x, y, lam = rng.uniform(0.0, 1.5), rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8)
        assert konhauser(n, alpha, beta, x, y) == (
            math.exp(ln_gamma(beta + alpha * n))
            * mlp_eval(n, alpha, beta, x ** alpha, y)
            / math.factorial(n)
        )
        assert mlp_egf_closed(lam, alpha, beta, x, y) == (
            math.exp(lam * y) * wright(alpha, beta, -lam * x).value
        )
        if y != 0.0:
            assert mlp_one_var_reduction(n, alpha, beta, x, y) == (
                y ** n * mlp_eval(n, alpha, beta, x / y, 1.0)
            )
        a, k, t = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.5)
        prob = DiffusionProblem(alpha, k, HermiteInitial(n, a))
        assert solve_case_i(n, a, alpha, k, x, t) == plan(prob).at(x, t)
        prob = LaguerreProblem(alpha, min(beta, 0.9), k, LaguerreMonomialInitial(n))
        assert solve_laguerre_monomial(n, alpha, min(beta, 0.9), k, x, t) == plan(prob).at(x, t)


def test_the_grid_routes_leave_the_check_to_the_output_gate():
    # a grid point beyond the double range is named by the CLI, not by the plan
    prob = DiffusionProblem(0.5, 1.0, HermiteInitial(3, -1e308))
    assert math.isnan(plan(prob).at(0.0, 0.0))
    assert math.isinf(plan(prob).along_x(0.7, [0.3])[0])
