"""hopf-flow: a numerical laboratory for the Hopf-fibration flow on E3.

The package implements the unit-speed vector field induced by the Hopf
map, its spherical-chart pushforward, a reduced (r, H) system with an
implicit modified-Bessel first integral, a closed-form parametric
generating function for first integrals of the full flow, and the
numerical machinery (adaptive Runge-Kutta integration, dual-number
differentiation, residual diagnostics) needed to measure every claimed
identity rather than assume it.

Importing the package imports none of its modules: each exported name is
looked up in its defining module on first access (PEP 562), so a caller
pays only for the modules it reads.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_HOME = {name: module for module, names in {
    "checks": "ALLOWED_DISCREPANCIES CHECK_NAMES run_battery",
    "diagnostics": "relative_to_terms",
    "dual": "Dual derivative value",
    "fields": "DerivedRates SignReport cartesian_ode derived_rates "
              "from_spherical pushforward_sign spherical_ode to_spherical",
    "first_integral": "HReconstruction RhoTable UVPair reconstruct_H "
                      "rho_table uv_table xi_substitution_residual",
    "integrator": "Event Trajectory integrate",
    "reduced_system": "FormSelection ImplicitConstant ReducedCurve "
                      "TurningPointError h_rhs implicit_constant "
                      "implicit_residual psi_rhs select_effective_form "
                      "solve_implicit substitution_check trace_reduced "
                      "turning_locus",
    "special_functions": "BesselQuad bessel_quad",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
