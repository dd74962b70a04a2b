"""mlpoly: Mittag-Leffler functions, fractional Hermite and Mittag-Leffler
polynomials, Caputo calculus, and closed-form fractional diffusion solutions.
"""

from .caputo import caputo_l1, caputo_monomial, caputo_poly, rl_from_caputo
from .errors import (
    ConvergenceError,
    DomainError,
    FloatOverflowError,
    IndeterminateFormError,
    MLPolyError,
    SingularityError,
    VerificationError,
)
from .fokker_planck import (
    CaseIIPlan,
    CaseIPlan,
    DiffusionProblem,
    FhpInitial,
    GridPlan,
    HermiteInitial,
    LaguerreMonomialInitial,
    LaguerreMonomialPlan,
    LaguerreProblem,
    LaguerreWrightPlan,
    MonomialInitial,
    SeriesInitial,
    SolutionProfile,
    WrightInitial,
    residual_laguerre,
    residual_tf_diffusion,
    solve_case_i,
    solve_case_ii,
    solve_laguerre_monomial,
    solve_laguerre_wright,
    solve_tf_diffusion,
    tf_diffusion_plan,
)
from .fracpoly import FracPoly
from .fractional_hermite import (
    convolution_identity_i_rhs,
    convolution_identity_ii_rhs,
    fhp_at_zero,
    fhp_coeffs,
    fhp_eval,
    fhp_oplus_eval,
    oplus_power,
    umbral_hermite_shift,
)
from .gamma_core import (
    factorial_ratios,
    frac_binom,
    gamma,
    levy_subordination_moment,
    ln_gamma,
    rgamma,
    stieltjes_moment,
)
from .mittag_leffler import (
    EvalResult,
    MLParams,
    MLSeries,
    WrightSeries,
    ml_one,
    ml_three,
    ml_two,
    relaxation_cole_cole,
    relaxation_hn,
    wright,
)
from .ml_polynomials import (
    frac_laguerre_apply,
    konhauser,
    mlp_coeffs,
    mlp_egf_closed,
    mlp_eval,
    mlp_ogf_closed,
    mlp_one_var_reduction,
    mlp_operational_check,
)
from .sheffer import (
    PowerSeries,
    appell_A_fhp,
    appell_A_mlp,
    appell_auxiliary,
    aux_v_h_fhp,
    aux_v_h_mlp,
    lowering_apply,
    raising_apply,
    series_log_derivative,
    series_reciprocal,
)

__version__ = "0.1.0"
