"""hopf-flow: a numerical laboratory for the Hopf-fibration flow on E3.

The package implements the unit-speed vector field induced by the Hopf
map, its spherical-chart pushforward, a reduced (r, H) system with an
implicit modified-Bessel first integral, a closed-form parametric
generating function for first integrals of the full flow, and the
numerical machinery (adaptive Runge-Kutta integration, dual-number
differentiation, residual diagnostics) needed to measure every claimed
identity rather than assume it.
"""

from .diagnostics import relative_to_terms
from .dual import Dual, derivative, value
from .fields import (
    DerivedRates,
    SignReport,
    cartesian_ode,
    derived_rates,
    from_spherical,
    pushforward_sign,
    spherical_ode,
    to_spherical,
)
from .first_integral import (
    HReconstruction,
    RhoTable,
    UVPair,
    reconstruct_H,
    rho_table,
    uv_table,
    xi_substitution_residual,
)
from .integrator import Event, Trajectory, integrate
from .reduced_system import (
    FormSelection,
    ImplicitConstant,
    ReducedCurve,
    TurningPointError,
    h_rhs,
    implicit_constant,
    implicit_residual,
    psi_rhs,
    select_effective_form,
    solve_implicit,
    substitution_check,
    trace_h,
    trace_reduced,
    turning_locus,
)
from .special_functions import BesselQuad, bessel_quad
from .checks import ALLOWED_DISCREPANCIES, CHECK_NAMES, run_battery

__version__ = "0.1.0"

__all__ = [
    "ALLOWED_DISCREPANCIES",
    "BesselQuad",
    "CHECK_NAMES",
    "DerivedRates",
    "Dual",
    "Event",
    "FormSelection",
    "HReconstruction",
    "ImplicitConstant",
    "ReducedCurve",
    "RhoTable",
    "SignReport",
    "Trajectory",
    "TurningPointError",
    "UVPair",
    "bessel_quad",
    "cartesian_ode",
    "derivative",
    "derived_rates",
    "from_spherical",
    "h_rhs",
    "implicit_constant",
    "implicit_residual",
    "integrate",
    "pushforward_sign",
    "psi_rhs",
    "reconstruct_H",
    "relative_to_terms",
    "rho_table",
    "run_battery",
    "select_effective_form",
    "solve_implicit",
    "spherical_ode",
    "substitution_check",
    "to_spherical",
    "trace_h",
    "trace_reduced",
    "turning_locus",
    "uv_table",
    "value",
    "xi_substitution_residual",
]
