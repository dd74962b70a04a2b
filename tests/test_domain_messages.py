"""Every parameter-domain refusal, by its exact message.

Each row calls a public function with one argument outside its domain and
names the :class:`DomainError` text it must raise, character for character.
The rows cover every entry point that checks a parameter domain, at the
boundaries 0 and 1, at a negative value and at NaN.

``UNCHANGED`` holds messages that must never change.  ``MENDED`` holds
inputs that a check written without NaN and infinity in mind lets through
(a non-finite integer argument reaches ``int()`` and raises a raw
``ValueError`` or ``OverflowError``; a NaN passes ``v < 0`` and comes back
as NaN, as a failed verification, or refused under another argument's
name; an infinite float passes ``v > 0`` and does the same), and the
integer check of ``frac_binom``, which names the one argument it refuses.
"""

import math
import operator
from fractions import Fraction

import pytest

from mlpoly import (
    DiffusionProblem,
    DomainError,
    FhpInitial,
    FloatOverflowError,
    FracPoly,
    LaguerreMonomialInitial,
    LaguerreProblem,
    MLParams,
    MLSeries,
    MonomialInitial,
    PowerSeries,
    SeriesInitial,
    SolutionProfile,
    WrightInitial,
    WrightSeries,
    appell_A_fhp,
    appell_A_mlp,
    appell_auxiliary,
    aux_v_h_fhp,
    aux_v_h_mlp,
    caputo_l1,
    caputo_monomial,
    caputo_poly,
    config,
    convolution_identity_i_rhs,
    convolution_identity_ii_rhs,
    fhp_at_zero,
    fhp_coeffs,
    fhp_eval,
    fhp_oplus_eval,
    frac_binom,
    frac_laguerre_apply,
    gamma,
    konhauser,
    levy_subordination_moment,
    ln_gamma,
    ml_one,
    ml_three,
    ml_two,
    mlp_coeffs,
    mlp_egf_closed,
    mlp_eval,
    mlp_ogf_closed,
    mlp_one_var_reduction,
    mlp_operational_check,
    oplus_power,
    plan,
    relaxation_cole_cole,
    relaxation_hn,
    residual,
    rgamma,
    rl_from_caputo,
    series_log_derivative,
    solve_case_i,
    solve_case_ii,
    solve_laguerre_monomial,
    solve_laguerre_wright,
    solve_tf_diffusion,
    stieltjes_moment,
    umbral_hermite_shift,
    wright,
)
from mlpoly.gamma_core import factorial_ratios

NAN = math.nan
INF = math.inf
MONOMIAL = DiffusionProblem(0.5, 1.0, MonomialInitial(2))
SAMPLES = [0.0, 1.0, 2.0, 3.0]


def _along_x(t):
    return plan(DiffusionProblem(0.5, 1.0, FhpInitial(2, 0.3))).along_x(t, [1.0])


# The residual of a monomial datum, under the names and argument order of the
# two functions that ``residual`` replaced, so that each row keeps its id.
def residual_tf_diffusion(n, alpha, k):
    return residual(DiffusionProblem(alpha, k, MonomialInitial(n)))


def residual_laguerre(n, alpha, beta, b):
    return residual(LaguerreProblem(alpha, beta, b, LaguerreMonomialInitial(n)))


UNCHANGED = [
    # gamma kernel
    (ln_gamma, (0.0,), "ln_gamma requires x > 0, got 0.0"),
    (ln_gamma, (NAN,), "x must be finite, got nan"),
    (rgamma, (INF,), "x must be finite, got inf"),
    (gamma, (0.0,), "gamma pole at x = 0.0"),
    (frac_binom, (3, 1, 0.0), "alpha must lie in (0, 1], got 0.0"),
    (frac_binom, (3, 1, NAN), "alpha must lie in (0, 1], got nan"),
    (frac_binom, (1, 3, 0.5), "require r <= n, got r=3 > n=1"),
    (stieltjes_moment, (1.0, 0.5), "alpha must lie in (0, 1), got 1.0"),
    (stieltjes_moment, (0.5, NAN), "sigma must be finite, got nan"),
    (levy_subordination_moment, (1.0, 2, 1.0), "beta must lie in (0, 1), got 1.0"),
    (levy_subordination_moment, (0.5, -1, 1.0), "m must be a nonnegative integer, got -1"),
    (levy_subordination_moment, (0.5, 2, 0.0), "t must be positive, got 0.0"),
    (levy_subordination_moment, (0.5, 2, NAN), "t must be positive, got nan"),
    # Caputo calculus
    (caputo_monomial, (1.0, 0.0), "Caputo order must lie in (0, 1), got 0.0"),
    (caputo_monomial, (1.0, 1.0), "Caputo order must lie in (0, 1), got 1.0"),
    (caputo_poly, (FracPoly.one(), NAN), "Caputo order must lie in (0, 1), got nan"),
    (caputo_l1, (SAMPLES, 0.0, 0.5, 3), "grid spacing must be positive, got 0.0"),
    (caputo_l1, (SAMPLES, 0.1, 0.5, 1), "need at least 2 grid points before t_index, got 1"),
    (caputo_l1, (SAMPLES, 0.1, 0.5, -1), "need at least 2 grid points before t_index, got -1"),
    (rl_from_caputo, (1.0, 1.0, 0.0, 0.5), "t must be positive, got 0.0"),
    (rl_from_caputo, (1.0, 1.0, 1.0, -0.5), "Caputo order must lie in (0, 1), got -0.5"),
    # series evaluators
    (MLParams, (0.0, 1.0), "alpha must be positive, got 0.0"),
    (ml_one, (-1.0, 1.0), "alpha must be positive, got -1.0"),
    (ml_two, (0.5, NAN, 1.0), "beta and z must be finite"),
    (ml_two, (0.5, 1.0, INF), "beta and z must be finite"),
    (wright, (NAN, 1.0, 1.0), "alpha must be positive, got nan"),
    (wright, (0.5, 1.0, NAN), "mu and z must be finite"),
    (MLSeries, (0.0, 1.0), "alpha must be positive, got 0.0"),
    (WrightSeries, (0.5, INF), "mu and z must be finite"),
    (ml_three, (0.5, 0.0, 1.0, 1.0), "beta must be positive here, got 0.0"),
    (ml_three, (0.5, 1.0, 1.0, NAN), "z must be finite"),
    (relaxation_cole_cole, (1.5, 1.0, 1.0), "alpha must lie in (0, 1], got 1.5"),
    (relaxation_cole_cole, (0.5, 0.0, 1.0), "tau must be positive, got 0.0"),
    (relaxation_cole_cole, (0.5, 1.0, -1.0), "t must be nonnegative, got -1.0"),
    (relaxation_hn, (0.0, 1.0, 1.0, 1.0), "alpha must lie in (0, 1], got 0.0"),
    (relaxation_hn, (0.5, 0.0, 1.0, 1.0), "beta must be positive, got 0.0"),
    (relaxation_hn, (0.5, 1.0, 1.0, -1.0), "t must be nonnegative, got -1.0"),
    # fractional Hermite polynomials
    (fhp_eval, (-1, 0.5, 1.0, 1.0), "n must be a nonnegative integer, got -1"),
    (fhp_eval, (2.5, 0.5, 1.0, 1.0), "n must be a nonnegative integer, got 2.5"),
    (fhp_eval, (3, 0.0, 1.0, 1.0), "alpha must lie in (0, 1], got 0.0"),
    (fhp_coeffs, (3, 1.5, 1.0), "alpha must lie in (0, 1], got 1.5"),
    (fhp_at_zero, (2, NAN, 1.0), "alpha must lie in (0, 1], got nan"),
    (oplus_power, (1.0, 1.0, 3, 0.0), "alpha must lie in (0, 1], got 0.0"),
    (umbral_hermite_shift, (3, 1.0, 1.0, 1.0, 1.0), "alpha must lie in (0, 1), got 1.0"),
    (convolution_identity_i_rhs, (-2, 1.0, 1.0, 1.0, 0.5), "n must be a nonnegative integer, got -2"),
    (convolution_identity_ii_rhs, (2, 1.0, 1.0, 1.0, NAN), "alpha must lie in (0, 1], got nan"),
    (fhp_oplus_eval, (3, 1.0, 1.0, 1.0, 0.0), "alpha must lie in (0, 1], got 0.0"),
    # Mittag-Leffler polynomials
    (mlp_eval, (3, 0.0, 1.0, 1.0, 1.0), "alpha must be positive, got 0.0"),
    (mlp_eval, (3, 0.5, -1.0, 1.0, 1.0), "beta must be positive, got -1.0"),
    (mlp_eval, (3, 0.5, 1.0, NAN, 1.0), "x must be finite, got nan"),
    (mlp_eval, (3, 0.5, 1.0, 1.0, INF), "y must be finite, got inf"),
    (mlp_coeffs, (-1, 0.5, 1.0, 1.0), "n must be a nonnegative integer, got -1"),
    (mlp_one_var_reduction, (-1, 0.5, 1.0, 1.0, 1.0), "n must be a nonnegative integer, got -1"),
    (konhauser, (2, 0.5, 0.0, 1.0, 1.0), "beta must be positive, got 0.0"),
    (mlp_ogf_closed, (0.1, NAN, 1.0, 1.0, 1.0), "alpha must be positive, got nan"),
    (mlp_egf_closed, (0.1, 0.5, 0.0, 1.0, 1.0), "beta must be positive, got 0.0"),
    (mlp_ogf_closed, (0.5, 0.5, 1.0, 1.0, INF), "|lambda*y| must be < 1, got inf"),
    (frac_laguerre_apply, (FracPoly.one(), 1.0), "alpha must lie in (0, 1), got 1.0"),
    (mlp_operational_check, (2, 0.0, 1.0), "alpha must lie in (0, 1), got 0.0"),
    # Appell/Sheffer machinery
    (appell_A_fhp, (0.0, 1.0, 4), "alpha must be positive, got 0.0"),
    (appell_A_fhp, (0.5, 1.0, 1), "order must be >= 2, got 1"),
    (appell_A_mlp, (0.5, -1.0, 1.0, 4), "beta must be positive, got -1.0"),
    (appell_A_mlp, (0.5, 1.0, 1.0, 0), "order must be >= 1, got 0"),
    (aux_v_h_fhp, (0.1, 0.5, NAN, 1.0), "alpha must be positive, got nan"),
    (aux_v_h_mlp, (0.1, 0.5, 0.5, 0.0, 1.0), "beta must be positive, got 0.0"),
    (series_log_derivative, (PowerSeries((0.0, 1.0)),),
     "series with zero constant term has no logarithmic derivative"),
    # fractional Cauchy problems
    (DiffusionProblem, (1.0, 1.0, MonomialInitial(2)), "alpha must lie in (0, 1), got 1.0"),
    (DiffusionProblem, (0.5, 0.0, MonomialInitial(2)), "diffusivity k must be positive, got 0.0"),
    (LaguerreProblem, (NAN, 0.5, 1.0, LaguerreMonomialInitial(2)), "alpha must lie in (0, 1), got nan"),
    (LaguerreProblem, (0.5, 1.5, 1.0, LaguerreMonomialInitial(2)), "beta must lie in (0, 1], got 1.5"),
    (LaguerreProblem, (0.5, 0.5, 0.0, LaguerreMonomialInitial(2)), "b must be positive, got 0.0"),
    # every plan takes t >= 0 (t = 0 gives the datum)
    (solve_tf_diffusion, (MONOMIAL, 1.0, NAN), "t must be nonnegative, got nan"),
    (solve_case_i, (2, 0.3, 0.5, 1.0, 1.0, -1.0), "t must be nonnegative, got -1.0"),
    (solve_case_ii, (2, 0.3, 0.0, 1.0, 1.0, 1.0), "alpha must lie in (0, 1), got 0.0"),
    (_along_x, (-1.0,), "t must be nonnegative, got -1.0"),
    (solve_laguerre_monomial, (-1, 0.5, 0.5, 1.0, 1.0, 1.0), "n must be a nonnegative integer, got -1"),
    (solve_laguerre_monomial, (2, 0.5, 0.5, 1.0, -1.0, 1.0), "x must be nonnegative, got -1.0"),
    (solve_laguerre_monomial, (2, 0.5, 0.5, 1.0, 1.0, -1.0), "t must be nonnegative, got -1.0"),
    (solve_laguerre_wright, (0.5, 0.0, 0.5, 1.0, 1.0, 1.0), "alpha must lie in (0, 1), got 0.0"),
    (solve_laguerre_wright, (0.5, 0.5, 0.5, 1.0, 1.0, NAN), "t must be nonnegative, got nan"),
    (residual_tf_diffusion, (3, 1.0, 1.0), "alpha must lie in (0, 1), got 1.0"),
    (residual_tf_diffusion, (3, 0.5, 0.0), "diffusivity k must be positive, got 0.0"),
    (residual_laguerre, (3, 0.5, 1.0, 1.0), "beta must lie in (0, 1), got 1.0"),
    (residual_laguerre, (3, 0.5, 0.5, NAN), "b must be positive, got nan"),
    # where a positive or nonnegative argument must also be finite, NaN and
    # -inf keep the range message, and an earlier argument's refusal wins
    (DiffusionProblem, (0.5, NAN, MonomialInitial(2)), "diffusivity k must be positive, got nan"),
    (mlp_eval, (3, NAN, 1.0, 1.0, 1.0), "alpha must be positive, got nan"),
    (konhauser, (2, 0.5, -INF, 1.0, 1.0), "beta must be positive, got -inf"),
    (MLSeries, (NAN, 1.0), "alpha must be positive, got nan"),
    (solve_laguerre_monomial, (2, 0.5, 0.5, 1.0, 1.0, -INF), "t must be nonnegative, got -inf"),
    (solve_laguerre_wright, (0.5, 0.5, 0.5, 1.0, -INF, 1.0), "x must be nonnegative, got -inf"),
    (solve_case_i, (2, 0.3, 0.5, 1.0, 1.0, -INF), "t must be nonnegative, got -inf"),
    (solve_tf_diffusion, (MONOMIAL, 1.0, -INF), "t must be nonnegative, got -inf"),
    (fhp_eval, (2, 1.5, 1.0, NAN), "alpha must lie in (0, 1], got 1.5"),
    (fhp_eval, (-1, 0.5, NAN, NAN), "n must be a nonnegative integer, got -1"),
]

MENDED = [
    # a degree or denominator that is no factor of n! (a raw ValueError or
    # ZeroDivisionError, or a float quotient such as 3! // 0.999999 = 6.0)
    (factorial_ratios, (-1, (2, 400)), "n must be a nonnegative integer, got -1"),
    (factorial_ratios, (40, (3, 0)), "denominator 0 does not divide 40!"),
    (factorial_ratios, (3, (0.999999, -INF, NAN)), "denominator 0.999999 does not divide 3!"),
    (factorial_ratios, (4, (-INF,)), "denominator -inf does not divide 4!"),
    (factorial_ratios, (5, (NAN,)), "denominator nan does not divide 5!"),
    # a non-finite integer argument
    (fhp_eval, (NAN, 0.5, 1.0, 1.0), "n must be a nonnegative integer, got nan"),
    (fhp_eval, (INF, 0.5, 1.0, 1.0), "n must be a nonnegative integer, got inf"),
    (frac_binom, (NAN, 1, 0.5), "n must be a nonnegative integer, got nan"),
    (levy_subordination_moment, (0.5, INF, 1.0), "m must be a nonnegative integer, got inf"),
    (appell_A_fhp, (0.5, 1.0, NAN), "order must be a nonnegative integer, got nan"),
    (oplus_power, (1.0, 1.0, NAN, 0.5), "n must be a nonnegative integer, got nan"),
    (caputo_l1, (SAMPLES, 0.1, 0.5, NAN), "t_index must be a nonnegative integer, got nan"),
    # frac_binom checks n and r one at a time, naming the one it refuses
    (frac_binom, (-1, 0, 0.5), "n must be a nonnegative integer, got -1"),
    (frac_binom, (3, 1.5, 0.5), "r must be a nonnegative integer, got 1.5"),
    # a NaN in a nonnegative argument
    (solve_laguerre_monomial, (2, 0.5, 0.5, 1.0, NAN, 1.0), "x must be nonnegative, got nan"),
    (solve_case_i, (2, 0.3, 0.5, 1.0, 1.0, NAN), "t must be nonnegative, got nan"),
    (solve_case_ii, (2, 0.3, 0.5, 1.0, 1.0, NAN), "t must be nonnegative, got nan"),
    (relaxation_cole_cole, (0.5, 1.0, NAN), "t must be nonnegative, got nan"),
    (relaxation_hn, (0.5, 1.0, 1.0, NAN), "t must be nonnegative, got nan"),
    (solve_laguerre_wright, (0.5, 0.5, 0.5, 1.0, NAN, 1.0), "x must be nonnegative, got nan"),
    # an infinite alpha or beta, refused under another argument's name or as a raw OverflowError
    (ml_two, (INF, 1.0, 1.0), "alpha must be finite, got inf"),
    (wright, (INF, 1.0, 1.0), "alpha must be finite, got inf"),
    (MLSeries, (INF, 1.0), "alpha must be finite, got inf"),
    (mlp_eval, (3, INF, 1.0, 1.0, 1.0), "alpha must be finite, got inf"),
    (mlp_eval, (3, 0.5, INF, 1.0, 1.0), "beta must be finite, got inf"),
    (konhauser, (2, INF, 1.0, 1.0, 1.0), "alpha must be finite, got inf"),
    (konhauser, (2, 0.5, INF, 1.0, 1.0), "beta must be finite, got inf"),
    (mlp_coeffs, (2, INF, 1.0, 0.5), "alpha must be finite, got inf"),
    (mlp_coeffs, (2, 0.5, INF, 0.5), "beta must be finite, got inf"),
    (relaxation_hn, (0.5, INF, 1.0, 1.0), "beta must be finite, got inf"),
    # a non-finite float that reached a solver and came back as NaN or inf
    (solve_laguerre_monomial, (2, 0.5, 0.5, 1.0, INF, 1.0), "x must be finite, got inf"),
    (solve_laguerre_monomial, (2, 0.5, 0.5, 1.0, 1.0, INF), "t must be finite, got inf"),
    (solve_laguerre_monomial, (2, 0.5, 0.5, INF, 1.0, 1.0), "b must be finite, got inf"),
    (DiffusionProblem, (0.5, INF, MonomialInitial(2)), "diffusivity k must be finite, got inf"),
    (fhp_eval, (2, 0.5, NAN, 1.0), "x must be finite, got nan"),
    (fhp_eval, (2, 0.5, 1.0, NAN), "y must be finite, got nan"),
    (solve_case_i, (2, NAN, 0.5, 1.0, 1.0, 1.0), "a must be finite, got nan"),
    (solve_case_i, (2, 0.3, 0.5, INF, 1.0, 1.0), "diffusivity k must be finite, got inf"),
    (solve_case_ii, (2, 0.3, 0.5, 1.0, 1.0, INF), "t must be finite, got inf"),
    (solve_laguerre_wright, (NAN, 0.5, 0.5, 1.0, 1.0, 1.0), "y_param must be finite, got nan"),
    (solve_laguerre_wright, (0.5, 0.5, 0.5, 1.0, INF, 1.0), "x must be finite, got inf"),
    (solve_laguerre_wright, (0.5, 0.5, 0.5, 1.0, 1.0, INF), "t must be finite, got inf"),
    (LaguerreProblem, (0.5, 0.5, INF, LaguerreMonomialInitial(2)), "b must be finite, got inf"),
    (relaxation_cole_cole, (0.5, 1.0, INF), "t must be finite, got inf"),
    (relaxation_hn, (0.5, 1.0, 1.0, INF), "t must be finite, got inf"),
    # an infinite tau made t/tau = 0, so the relaxation was 1.0 at every t
    (relaxation_cole_cole, (0.5, INF, 1.0), "tau must be finite, got inf"),
    (relaxation_hn, (0.5, 0.7, INF, 1.0), "tau must be finite, got inf"),
    (caputo_l1, ([0.0, NAN, 1.0], 0.1, 0.5, 2), "each sample must be finite, got nan"),
    (residual_tf_diffusion, (6, 1e-300, INF), "diffusivity k must be finite, got inf"),
    (residual_laguerre, (3, 0.5, 0.5, INF), "b must be finite, got inf"),
    (SeriesInitial, ((1.0, NAN),), "coeffs[1] must be finite, got nan"),
    # a non-finite float that reached the polynomial layer and came back as NaN or inf
    (convolution_identity_i_rhs, (4, 1.0, 0.3, NAN, 0.5), "w must be finite, got nan"),
    (convolution_identity_i_rhs, (4, 1.0, INF, 0.2, 0.5), "a must be finite, got inf"),
    (convolution_identity_ii_rhs, (4, 1.0, NAN, 0.2, 0.5), "a must be finite, got nan"),
    (convolution_identity_ii_rhs, (4, 1.0, 0.3, INF, 0.5), "w must be finite, got inf"),
    (fhp_oplus_eval, (4, 1.0, 0.2, NAN, 0.5), "a must be finite, got nan"),
    (fhp_oplus_eval, (4, 1.0, NAN, 0.3, 0.5), "w must be finite, got nan"),
    (umbral_hermite_shift, (4, NAN, 0.3, 0.2, 0.5), "x must be finite, got nan"),
    (umbral_hermite_shift, (4, 1.0, INF, 0.2, 0.5), "a must be finite, got inf"),
    (umbral_hermite_shift, (4, 1.0, 0.3, NAN, 0.5), "w must be finite, got nan"),
    (oplus_power, (NAN, 1.0, 3, 0.5), "x must be finite, got nan"),
    (oplus_power, (1.0, INF, 3, 0.5), "y must be finite, got inf"),
    (fhp_at_zero, (4, 0.5, NAN), "y must be finite, got nan"),
    (fhp_at_zero, (4, 0.5, INF), "y must be finite, got inf"),
    (levy_subordination_moment, (0.5, 2, INF), "t must be finite, got inf"),
    (rl_from_caputo, (5e-324, INF, 1e300, 0.999999), "g0 must be finite, got inf"),
    (rl_from_caputo, (NAN, 1.0, 1.0, 0.5), "caputo_value must be finite, got nan"),
    # a NaN argument of the Sheffer layer, refused as a NaN coefficient or under
    # the name of the series parameter it reached
    (appell_A_fhp, (0.5, NAN, 6), "y must be finite, got nan"),
    (appell_A_mlp, (0.5, 1.0, NAN, 4), "x must be finite, got nan"),
    (aux_v_h_fhp, (NAN, 2.0, 0.5, 1.0), "lam must be finite, got nan"),
    (aux_v_h_fhp, (0.1, 2.0, 0.5, NAN), "y must be finite, got nan"),
    (aux_v_h_mlp, (0.1, INF, 0.5, 1.0, 2.0), "y must be finite, got inf"),
    (aux_v_h_mlp, (0.1, 2.0, 0.5, 1.0, NAN), "x must be finite, got nan"),
    # x reached the coefficients unchecked (then "non-finite term (nan, 0.0)")
    (mlp_coeffs, (2, 0.5, 1.0, NAN), "x must be finite, got nan"),
    # a non-finite argument of a closed generating function, returned as inf or
    # refused under the name of the series it reached
    (mlp_egf_closed, (1.0, 0.5, 1.0, 0.0, INF), "y must be finite, got inf"),
    (mlp_egf_closed, (NAN, 0.5, 1.0, 0.0, 1.0), "lam must be finite, got nan"),
    (mlp_ogf_closed, (0.5, 0.5, 1.0, INF, 1.0), "x must be finite, got inf"),
    # an Appell order that no series can hold, with powers that neither overflow
    # nor raise: the list of powers grew until a raw MemoryError, after seconds
    (appell_A_fhp, (0.5, 1.0, 1e200), "order 1e+200 exceeds 4000, the largest Appell order"),
    (appell_A_fhp, (0.5, 1.0, 10 ** 9), "order 1000000000 exceeds 4000, the largest Appell order"),
    (appell_A_mlp, (1.0, 1.0, 0.999999, 1e308),
     "order 1e+308 exceeds 4000, the largest Appell order"),
    # a profile took a NaN grid point as strictly increasing (b <= a is False for NaN)
    (SolutionProfile, ([0.0, NAN, 1.0], [1.0, 2.0, 3.0]), "grid must be strictly increasing"),
]

HUGE = 10 ** 400  # a Python int with no float value

# An integer beyond the double range passed every finiteness check and failed
# later with a raw "OverflowError: int too large to convert to float"; it is
# now refused where it enters, by name.
BEYOND_FLOAT = [
    (fhp_eval, (2, 0.5, HUGE, 1.0), "x"),
    (mlp_coeffs, (2, 0.5, 1.0, HUGE), "x"),
    (oplus_power, (HUGE, 1.0, 3, 0.5), "x"),
    (solve_case_i, (2, 0.3, 0.5, 1.0, HUGE, 1.0), "x"),
    (solve_case_i, (2, 0.3, 0.5, HUGE, 1.0, 1.0), "diffusivity k"),
    (ml_one, (0.5, HUGE), "z"),
    (ml_two, (0.5, -HUGE, 1.0), "beta"),
    (ml_three, (0.5, 1.0, HUGE, 1.0), "gamma"),
    (wright, (0.5, 1.0, -HUGE), "z"),
    (appell_A_mlp, (0.5, 1.0, HUGE, 4), "x"),
    # a float() or math.isfinite() conversion that raised the raw error
    (FracPoly, ([(HUGE, 1.0)],), "a coefficient"),
    (FracPoly, ([(1.0, HUGE)],), "an exponent"),
    (FracPoly.__call__, (FracPoly([(1.0, 1.0)]), HUGE), "x"),
    (FracPoly.scale, (FracPoly([(1.0, 1.0)]), HUGE), "factor"),
    (PowerSeries, ((HUGE, 1.0),), "a coefficient"),
    (SolutionProfile, ([0.0, 1.0], [HUGE, 1.0], {}), "a value"),
    (caputo_monomial, (HUGE, 0.5), "exponent"),
    (konhauser, (2, 0.5, 1.0, HUGE, 1.0), "x"),
    (relaxation_cole_cole, (0.5, 1.0, HUGE), "t"),
    (relaxation_hn, (0.5, 0.7, 1.0, HUGE), "t"),
]


def _degree_overflow(name, n):
    return f"{name} = {n}: an integer factor {name}!/(...) exceeds the double-precision range"


def _binom_overflow(n, r, alpha):
    return (f"C_alpha(n, r) at n = {n!r}, r = {r!r}, alpha = {alpha!r}: a gamma value "
            "or the coefficient exceeds the double-precision range")


# A degree whose factorial leaves the double range (above 170) raised a raw
# "OverflowError: int too large to convert to float" where an exact factorial
# met a float; it is now refused by name before any factorial is built.  A
# power, a product, a gamma value or a residual coefficient beyond the range
# raised a raw OverflowError or came back as NaN or infinite.
OVERFLOWING = [
    (factorial_ratios, (171, (1,)), _degree_overflow("n", 171)),
    (residual_tf_diffusion, (400, 0.5, 1.0), _degree_overflow("n", 400)),
    (residual_laguerre, (200, 0.5, 0.5, 1.0), _degree_overflow("n", 200)),
    (fhp_at_zero, (400, 0.5, 1.0), _degree_overflow("n", 400)),
    (umbral_hermite_shift, (400, 1.0, 0.1, 0.1, 0.5), _degree_overflow("n", 400)),
    (konhauser, (200, 0.5, 1.0, 1.0, 1.0), _degree_overflow("n", 200)),
    (levy_subordination_moment, (0.5, 400, 1.0), _degree_overflow("m", 400)),
    (residual_tf_diffusion, (170, 0.5, 1e200),
     "k**85 exceeds the double-precision range at k = 1e+200"),
    (residual_laguerre, (12, 0.5, 0.5, 1e300),
     "b**12 exceeds the double-precision range at b = 1e+300"),
    (levy_subordination_moment, (0.3, 12, 1e308),
     "m! t**(beta*m) exceeds the double-precision range at t = 1e+308"),
    (stieltjes_moment, (5e-324, 0.3),
     "sigma/alpha exceeds the double-precision range at sigma = 0.3, alpha = 5e-324"),
    # a sum beyond the double range came back as inf or -inf
    (convolution_identity_i_rhs, (3, 0.3, 1e308, 1e300, 1.0),
     "the convolution sum is inf: it leaves the double-precision range"),
    (convolution_identity_ii_rhs, (3, -1e-300, -1e200, -1e308, 0.999999),
     "the convolution sum is inf: it leaves the double-precision range"),
    (fhp_oplus_eval, (3, 0.3, 1e308, 1e300, 1.0),
     "the (+)_alpha sum is inf: it leaves the double-precision range"),
    (umbral_hermite_shift, (2, 0.5, -1e308, -1e200, 0.3),
     "the umbral shift is -inf: it leaves the double-precision range"),
    (caputo_monomial, (1e308, 0.5),
     "log Gamma(1 + exponent) exceeds the double-precision range at exponent = 1e+308"),
    (rl_from_caputo, (0.0, 1.0, 5e-324, 0.999999),
     "t**-0.999999 exceeds the double-precision range at t = 5e-324"),
    (rl_from_caputo, (1.0, 1e300, 1e-30, 0.9),
     "the Riemann-Liouville value exceeds the double-precision range"),
    (gamma, (5e-324,), "Gamma(5e-324) exceeds the double-precision range at x = 5e-324"),
    (gamma, (-5e-324,), "Gamma(-5e-324) exceeds the double-precision range at x = -5e-324"),
    (mlp_egf_closed, (1e200, 0.5, 1.0, 0.0, 1e200),
     "exp(lam*y) exceeds the double-precision range at lam*y = inf"),
    (fhp_at_zero, (2, 1e-300, -1e308),
     "H[alpha]_2(0, -1e+308) is -inf: it leaves the double-precision range"),
    (fhp_at_zero, (170, 0.5, 1e3),
     "H[alpha]_170(0, 1000.0) is inf: it leaves the double-precision range"),
    (relaxation_hn, (0.3, 1e200, 1e-10, 1e200),
     "u**1e+200 exceeds the double-precision range at u = 9.999999999999946e+62"),
    # a binomial C(n, r) beyond the double range raised a raw OverflowError
    (mlp_coeffs, (1100, 0.5, 1.0, 0.5),
     "n = 1100: an integer factor n!/(...) exceeds the double-precision range"),
    # a coefficient C(n, r)*(-x)**r beyond the range was refused as bad input,
    # "non-finite term (nan, 16.0)", where it met a 1/Gamma that underflowed to 0
    (mlp_coeffs, (1000, 0.5, 1.0, 1.9),
     "the coefficient of x**755.0 exceeds the double-precision range"),
    # an overflowing series argument was refused under the series' own names
    (mlp_egf_closed, (1e200, 0.5, 1.0, 1e200, 0.0), "-lam*x exceeds the double-precision range"),
    (mlp_ogf_closed, (0.99, 0.5, 1.0, 1e308, 0.999),
     "-lam*x/(1-lam*y) exceeds the double-precision range"),
    # a 1/Gamma argument beta + alpha*r beyond the range was refused as the
    # gamma kernel's "x must be finite, got inf", naming no argument of the call
    (mlp_coeffs, (2, 1e308, 1.0, 0.5),
     "beta + alpha*2 exceeds the double-precision range at alpha = 1e+308, beta = 1.0"),
    (mlp_eval, (2, 1e308, 1.0, 0.5, 1.0),
     "beta + alpha*2 exceeds the double-precision range at alpha = 1e+308, beta = 1.0"),
    (mlp_coeffs, (3, 1e308, 1e308, 0.5),
     "beta + alpha*3 exceeds the double-precision range at alpha = 1e+308, beta = 1e+308"),
    (appell_A_mlp, (1e308, 1.0, 0.5, 4),
     "beta + alpha*4 exceeds the double-precision range at alpha = 1e+308, beta = 1.0"),
    (konhauser, (2, 1e308, 1.0, 0.5, 1.0),
     "beta + alpha*2 exceeds the double-precision range at alpha = 1e+308, beta = 1.0"),
    # a direct fractional-Hermite sum beyond the range came back as inf
    (fhp_eval, (12, 0.5, 1e25, 1e50),
     "H[alpha]_12(1e+25, 1e+50) is inf: it leaves the double-precision range"),
    (fhp_eval, (3, 1, -1.0, -1e308),
     "H[alpha]_3(-1.0, -1e+308) is inf: it leaves the double-precision range"),
    (fhp_eval, (2, 0.5, 1e154, 1e308),
     "H[alpha]_2(1e+154, 1e+308) is inf: it leaves the double-precision range"),
    # 2/(alpha*(x-1)) = inf times an underflowed E_(alpha,0) came back as NaN,
    # and an alpha*(x-1) that underflowed to 0 raised a raw ZeroDivisionError
    (aux_v_h_fhp, (5e-324, 2.0, 5e-324, -1e-300),
     "2/(alpha*(x-1)) * E_(alpha,0)/E_alpha exceeds the double-precision range"),
    (aux_v_h_fhp, (0.0, 1.1, 5e-324, 0.0),
     "2/(alpha*(x-1)) * E_(alpha,0)/E_alpha exceeds the double-precision range"),
    # a finite argument whose series argument overflowed was refused as an
    # infinite z, under the series' parameter names
    (solve_laguerre_wright, (1e300, 0.5, 0.5, 1.0, 1e20, 0.5),
     "-y*x**alpha exceeds the double-precision range"),
    (solve_laguerre_wright, (2.0, 0.5, 0.5, 1e308, 1.0, 1e10),
     "b*y*t**beta exceeds the double-precision range"),
    (relaxation_cole_cole, (0.5, 1e-300, 1e300), "(t/tau)**alpha exceeds the double-precision range"),
    (relaxation_hn, (0.5, 0.7, 1e-300, 1e300), "(t/tau)**alpha exceeds the double-precision range"),
    # log Gamma(beta+alpha*n) = inf came back as inf, since exp(inf) raises nothing
    (konhauser, (2, 1e307, 1.0, 0.5, 1.0),
     "Gamma(beta+alpha*n) = Gamma(2e+307) exceeds the double-precision range"),
    # h**-alpha raised a raw OverflowError; a difference of samples beyond the
    # range came back as -inf
    (caputo_l1, ([0.0, 1.0, 2.0], 5e-324, 0.99, 2),
     "h**-0.99 exceeds the double-precision range at h = 5e-324"),
    (caputo_l1, ([0.0, 1e308, -1e308], 1e-300, 0.5, 2),
     "the L1 sum is -inf: it leaves the double-precision range"),
    # two differences of opposite infinite sign raised a raw ValueError in math.fsum
    (caputo_l1, ([0.0, 1e308, -1e308, 1e308], 1e-3, 0.5, 3),
     "the L1 sum is nan: it leaves the double-precision range"),
    # a fractional binomial beyond the range raised a raw OverflowError, or came
    # back as NaN where the log-gamma terms overflowed to inf - inf; at alpha = 1
    # math.comb first built a 300 000-digit integer
    (frac_binom, (3000, 1500, 0.5), _binom_overflow(3000, 1500, 0.5)),
    (oplus_power, (1.0, 1.0, 3000, 0.5), _binom_overflow(3000, 1500, 0.5)),
    (frac_binom, (1100, 550, 1.0), _binom_overflow(1100, 550, 1.0)),
    (frac_binom, (HUGE, 1, 0.5), _binom_overflow(HUGE, 1, 0.5)),
    (oplus_power, (1.0, 1.0, 2100, 1.0), _binom_overflow(2100, 1050, 1.0)),
    (frac_binom, (1e307, 2.0, 0.5), _binom_overflow(1e307, 2.0, 0.5)),
    (frac_binom, (10 ** 6, 5 * 10 ** 5, 1.0), _binom_overflow(10 ** 6, 5 * 10 ** 5, 1.0)),
    # a degree past the binomial range built its rows first: a MemoryError at
    # n = 10**8, no answer at n = 10**400
    (mlp_coeffs, (10 ** 8, 0.5, 1.0, 0.5), _degree_overflow("n", 10 ** 8)),
    (mlp_coeffs, (HUGE, 0.5, 1.0, 0.5),
     f"beta + alpha*{HUGE} exceeds the double-precision range at alpha = 0.5, beta = 1.0"),
    # a merged coefficient, a power, a polynomial or series value, or a ratio of
    # the auxiliary functions beyond the range came back infinite or NaN, or
    # raised a raw OverflowError
    (operator.add, (FracPoly([(1e308, 2.0)]), FracPoly([(1e308, 2.0)])),
     "the coefficient of x**2.0 exceeds the double-precision range"),
    (FracPoly.__call__, (FracPoly([(1.0, 2.0)]), 1e300),
     "x**2.0 exceeds the double-precision range at x = 1e+300"),
    (FracPoly.__call__, (FracPoly([(1.0, 2.0)]), -1e300),
     "x**2.0 exceeds the double-precision range at x = -1e+300"),
    (FracPoly.__call__, (FracPoly([(1e308, 1.0), (-1e308, 2.0)]), 10.0),
     "the polynomial value is nan: it leaves the double-precision range"),
    (PowerSeries.__call__, (PowerSeries((1e308, 1e308)), 10.0),
     "the power series value is inf: it leaves the double-precision range"),
    (appell_auxiliary, (lambda u: 1e-308, lambda u: 1e308, 1.0, 2.0),
     "A'(x-1)/A(x-1) exceeds the double-precision range"),
]

# What has no residual: a Wright datum has no finite coefficient table, and
# beta = 1, which the Laguerre record accepts, no Caputo derivative in t.
RESIDUAL_REFUSED = [
    ("wright-datum", LaguerreProblem(0.5, 0.5, 1.0, WrightInitial(0.5)),
     "a Wright datum has no finite coefficient table, so no residual"),
    ("laguerre-beta-one", LaguerreProblem(0.5, 1.0, 1.0, LaguerreMonomialInitial(3)),
     "beta must lie in (0, 1), got 1.0"),
]


def _row_id(row):
    fn, args, _ = row
    shown = ("HUGE" if a is HUGE else repr(a) if isinstance(a, (int, float)) else type(a).__name__
             for a in args)
    return f"{fn.__name__.lstrip('_')}({','.join(shown)})"


@pytest.mark.parametrize("fn, args, message", UNCHANGED, ids=[_row_id(r) for r in UNCHANGED])
def test_domain_message_is_unchanged(fn, args, message):
    with pytest.raises(DomainError) as info:
        fn(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("fn, args, message", MENDED, ids=[_row_id(r) for r in MENDED])
def test_escaped_input_is_refused_by_name(fn, args, message):
    with pytest.raises(DomainError) as info:
        fn(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("fn, args, name", BEYOND_FLOAT,
                         ids=[f"{fn.__name__}-{name}" for fn, _, name in BEYOND_FLOAT])
def test_an_integer_beyond_the_float_range_is_named(fn, args, name):
    with pytest.raises(FloatOverflowError) as info:
        fn(*args)
    assert str(info.value) == f"{name} exceeds the double-precision range"


@pytest.mark.parametrize("fn, args, message", OVERFLOWING, ids=[_row_id(r) for r in OVERFLOWING])
def test_an_overflow_is_refused_by_name(fn, args, message):
    with pytest.raises(FloatOverflowError) as info:
        fn(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("prob, message", [r[1:] for r in RESIDUAL_REFUSED],
                         ids=[r[0] for r in RESIDUAL_REFUSED])
def test_a_problem_without_a_residual_is_refused(prob, message):
    with pytest.raises(DomainError) as info:
        residual(prob)
    assert str(info.value) == message


def test_a_tiny_alpha_leaves_the_laguerre_residual_exact():
    # was refused as a NaN coefficient: the Caputo factor of x**(alpha*i) was
    # snapped to 0 and multiplied b/alpha, which had overflowed to inf
    assert residual_laguerre(12, 1e-300, 0.3, 2) <= config.RESIDUAL_TOL


def test_a_factorial_beyond_the_float_range_divides_exactly():
    # was a raw OverflowError from dividing a float by 171!; beta = 1e308
    # makes every coefficient but the first underflow to zero
    coeffs = appell_A_mlp(0.3, 1e308, 1.5, 400).coeffs
    assert len(coeffs) == 401 and not any(coeffs)
    term = (-20.0) ** 171 * rgamma(1.5 + 0.3 * 171)
    assert appell_A_mlp(0.3, 1.5, 20.0, 200).coeffs[171] == float(Fraction(term) / math.factorial(171))
