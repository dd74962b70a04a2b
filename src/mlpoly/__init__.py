"""mlpoly: Mittag-Leffler functions, fractional Hermite and Mittag-Leffler
polynomials, Caputo calculus, and closed-form fractional diffusion solutions.

The public names are loaded on first use (PEP 562): ``import mlpoly`` loads
no submodule, and ``mlpoly.ml_one`` imports ``mlpoly.mittag_leffler`` and
nothing the Mittag-Leffler series does not need.
"""

import importlib

__version__ = "0.1.0"

#: each public name, by the module that defines it
_EXPORTS = {
    "caputo": ("caputo_l1", "caputo_monomial", "caputo_poly", "rl_from_caputo"),
    "errors": (
        "ConvergenceError",
        "DomainError",
        "FloatOverflowError",
        "IndeterminateFormError",
        "MLPolyError",
        "SingularityError",
        "VerificationError",
    ),
    "fokker_planck": (
        "DiffusionProblem",
        "FhpInitial",
        "GridPlan",
        "HermiteInitial",
        "LaguerreMonomialInitial",
        "LaguerreProblem",
        "MonomialInitial",
        "SeriesInitial",
        "SolutionProfile",
        "WrightInitial",
        "plan",
        "residual",
        "solve_case_i",
        "solve_case_ii",
        "solve_laguerre_monomial",
        "solve_laguerre_wright",
        "solve_tf_diffusion",
    ),
    "fracpoly": ("FracPoly",),
    "fractional_hermite": (
        "convolution_identity_i_rhs",
        "convolution_identity_ii_rhs",
        "fhp_at_zero",
        "fhp_coeffs",
        "fhp_eval",
        "fhp_oplus_eval",
        "oplus_power",
        "umbral_hermite_shift",
    ),
    "gamma_core": (
        "factorial_ratios",
        "frac_binom",
        "gamma",
        "levy_subordination_moment",
        "ln_gamma",
        "rgamma",
        "stieltjes_moment",
    ),
    "mittag_leffler": (
        "EvalResult",
        "MLParams",
        "MLSeries",
        "WrightSeries",
        "ml_one",
        "ml_three",
        "ml_two",
        "relaxation_cole_cole",
        "relaxation_hn",
        "wright",
    ),
    "ml_polynomials": (
        "frac_laguerre_apply",
        "konhauser",
        "mlp_coeffs",
        "mlp_egf_closed",
        "mlp_eval",
        "mlp_ogf_closed",
        "mlp_one_var_reduction",
        "mlp_operational_check",
    ),
    "sheffer": (
        "PowerSeries",
        "appell_A_fhp",
        "appell_A_mlp",
        "appell_auxiliary",
        "aux_v_h_fhp",
        "aux_v_h_mlp",
        "lowering_apply",
        "raising_apply",
        "series_log_derivative",
        "series_reciprocal",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups never reach this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
