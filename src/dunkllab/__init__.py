"""Numerical laboratory for rational Dunkl analysis.

Product reflection groups with weighted measures, Dunkl operators, the
Dunkl transform, heat-type kernels generated by powers of directional
Dunkl operators, and a harness of quantitative checks for their decay
and coercivity properties.
"""

from .errors import (AccuracyError, CapabilityError, ConfigError,
                     DomainTooSmallError, DunklLabError,
                     FitConvergenceError, InvalidRootSystemError,
                     SymbolError)
from .fitting import DecayFitReport, alternating_split, fit_decay_exponent
from .forms import BilinearFormSpec, form_a_s, form_b_s_eps, sobolev_norm_V
from .functions import (CallableFunction, GridSampled, PolyGauss, gaussian,
                        hermite_family, hermite_gauss, monomial_gauss,
                        radial_bump)
from .kernels import (KernelSpec, dunkl_translate, evaluate_q, freq_box_for,
                      heat_kernel, heat_kernel_two_point, q_on_grid,
                      translate_at_points, two_point_kernel)
from .measure import WeightedContext, ball_volume, weighted_norm
from .operators import apply_dunkl, apply_dunkl_iterated, dunkl_laplacian
from .quadrature import AxisRule, TensorGrid
from .report import VerificationReport, grid_metadata
from .root_systems import (ReflectionGroup, RootSystemSpec, orbit_distance,
                           orbit_distance_pairwise, product_z2, rank1)
from .runner import config_schema, list_checks, run, run_check
from .transform import (SpectralFunction, dunkl_convolve, dunkl_transform,
                        inverse_at_points, inverse_dunkl_transform,
                        plancherel_defect)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "CapabilityError", "ConfigError", "DomainTooSmallError",
    "DunklLabError", "FitConvergenceError", "InvalidRootSystemError",
    "SymbolError",
    "DecayFitReport", "alternating_split", "fit_decay_exponent",
    "BilinearFormSpec", "form_a_s", "form_b_s_eps", "sobolev_norm_V",
    "CallableFunction", "GridSampled", "PolyGauss", "gaussian",
    "hermite_family", "hermite_gauss", "monomial_gauss", "radial_bump",
    "KernelSpec", "dunkl_translate", "evaluate_q", "freq_box_for",
    "heat_kernel", "heat_kernel_two_point", "q_on_grid",
    "translate_at_points", "two_point_kernel",
    "WeightedContext", "ball_volume", "weighted_norm",
    "apply_dunkl", "apply_dunkl_iterated", "dunkl_laplacian",
    "AxisRule", "TensorGrid",
    "VerificationReport", "grid_metadata",
    "ReflectionGroup", "RootSystemSpec", "orbit_distance",
    "orbit_distance_pairwise", "product_z2", "rank1",
    "config_schema", "list_checks", "run", "run_check",
    "SpectralFunction", "dunkl_convolve", "dunkl_transform",
    "inverse_at_points", "inverse_dunkl_transform", "plancherel_defect",
    "__version__",
]
