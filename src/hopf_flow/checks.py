"""The verification battery behind `hopf-flow verify`.

Each named check only measures one contract of the package: it returns
its residuals and the details its entry carries.  run_battery alone
judges them: `summarize` folds each check's residuals into the check's
entry of the document under its name, its tolerance times tol_scale and
its documented flag, and a NaN or infinite residual fails the check
rather than the run; the entry's details also list the warnings the
check raised.  Checks are pure and deterministic and run one after
another, and call only the public functions of the modules they
measure.  The sampled ones (unit-norm, rate-identities' sphere probes,
turning-slope, dual-vs-fd) draw from random.Random streams with fixed
seeds, every draw lo + (hi - lo) * random(), so no numpy.random is
loaded; integrator-order fits its slope in closed form.  Those of
the parametric chain (legendre-identity, linear-pde-*,
parametric-relation-*, h-pde-*, phi-flow-derivative, gauge-invariance,
dual-vs-fd, branch-continuity) pass whole grids to the first_integral
functions in one array call each, and read each residual from the one
method of the table it is formed from (rho_table(...).pde_residual,
uv_table(...).relation_residual, reconstruct_H(...).h_pde_residual and
.phi_flow_derivative) or, in dual-vs-fd and branch-continuity,
rho_table's u and rho_psi; dual-vs-fd evaluates its four
finite-difference points (xi +- h, psi +- h) in one rho_raw call on a
(4, 100) stack.  The float path of the same functions is the bit-pinned
reference that the tests compare those arrays against.

The implicit relation is solved in one call per check:
implicit-inversion solves its three points in one solve_implicit call,
and reduced-substitution the 81 radii of its 27 triples on three curves
in another, each row with its curve's constant and a bracket centred on
the curve's tangent at its anchor.

Where several checks read the same intermediate, one run_battery call
computes it once and each check reads it from there: the 10x10
uv_table (legendre-identity, parametric-relation-*), the 20x20
rho_table (linear-pde-*) and the reconstruct_H of the twelve H-equation
states (h-pde-*, phi-flow-derivative).  Nothing is kept once the call
returns, and a check called on its own computes what it reads.

Four checks measure relations that are known not to hold in the form
printed in the source material; they are expected to report
"documented-discrepancy" and are allowlisted as such: only those
checks can get that verdict, and the battery passes when no entry is
"fail".
"""

from __future__ import annotations

import math
import random
import warnings
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from . import fields, first_integral, reduced_system, special_functions
from .diagnostics import summarize
from .integrator import integrate

SCHEMA = "hopf-flow-verify/1"

# The intermediates several checks read, by name, while run_battery runs;
# None outside it.
_RUN_SHARED: ContextVar[dict | None] = ContextVar("run_shared", default=None)


def _shared(name: str, compute: Callable[[], object]):
    """compute()'s result, computed once per run_battery call under name
    (simply computed outside one).  The warnings it raised are kept with
    it and raised again for every check that reads it, so each reader's
    entry lists them as if it had computed it."""
    shared = _RUN_SHARED.get()
    if shared is None:
        return compute()
    if name not in shared:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = compute()
        shared[name] = result, caught
    result, caught = shared[name]
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return result


# -- samplers ----------------------------------------------------------------
#
# Every random draw of the battery is lo + (hi - lo) * random() of one
# random.Random(seed), a stream Python keeps from version to version.


def _uniform_rows(seed: int, *bounds: tuple[float, float]) -> Iterator:
    """Endless rows of random.Random(seed)'s draws, one per (lo, hi) of
    bounds, each uniform on [lo, hi)."""
    draw = random.Random(seed).random
    spans = [(lo, hi - lo) for lo, hi in bounds]
    while True:
        yield tuple([lo + width * draw() for lo, width in spans])


def _sphere_points(seed: int, radius: float) -> Iterator:
    """Endless points uniform on the sphere of radius, each direction a
    point of the cube [-1, 1]^3 drawn until one lies in the unit ball."""
    for u in _uniform_rows(seed, *[(-1.0, 1.0)] * 3):
        n2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
        if 0.0 < n2 <= 1.0:
            yield tuple(c * (radius / math.sqrt(n2)) for c in u)


def _dual_vs_fd_probes() -> tuple[np.ndarray, np.ndarray]:
    """dual-vs-fd's 100 (xi, psi) probes as two arrays, xi drawn before
    psi in each."""
    rows = islice(_uniform_rows(55555, (0.15, 0.7), (0.5, 2.6)), 100)
    xi, psi = np.array(list(rows)).T
    return xi, psi


def _fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The least-squares slope of ys against xs; NaN unless two xs
    differ."""
    if len(set(xs)) < 2:
        return math.nan
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


# -- individual checks -------------------------------------------------------
#
# Each returns its residuals and the details its entry carries.


def _check_unit_norm():
    residuals = []
    for p in islice(_uniform_rows(314159, *[(-5.7, 5.7)] * 3), 2000):
        vx, vy, vz = fields.cartesian_ode(0.0, p)
        residuals.append(math.sqrt(vx * vx + vy * vy + vz * vz) - 1.0)
    return residuals, {}


def _micro_fd_rates(y: np.ndarray, quantities) -> list:
    """d q/dt at state y for each q of quantities, by central differences
    over one forward and one backward tiny re-integration."""
    h = 1e-5
    fwd = integrate(fields.cartesian_ode, y, (0.0, h), rel_tol=1e-12).y_end
    bwd = integrate(fields.cartesian_ode, y, (0.0, -h), rel_tol=1e-12).y_end
    return [(q(fwd) - q(bwd)) / (2.0 * h) for q in quantities]


def _check_rate_identities():
    residuals = []
    # Ten states along each of two orbits, finite differences against
    # the derived rates.
    for y0 in [(1.0, 0.2, 0.3), (0.5, -1.1, 2.0)]:
        traj = integrate(fields.cartesian_ode, np.asarray(y0, float),
                         (0.0, 8.0), rel_tol=1e-10)
        # The rows linspace(0, last, 10) truncates to, each once.
        last = len(traj.ts) - 1
        for i in sorted({int(k * (last / 9)) for k in range(9)} | {last}):
            y = traj.ys[i]
            rates = fields.derived_rates(y)
            fd, fd2 = _micro_fd_rates(y, (lambda s: math.atan2(s[1], s[0]),
                                          lambda s: s[0] ** 2 + s[1] ** 2))
            if y[0] ** 2 + y[1] ** 2 > 1e-3:
                # atan2 jumps by 2 pi across the negative x half-plane.
                err = fd - rates.rate_arctan
                err -= 2.0 * math.pi * round(err / (2.0 * math.pi))
                residuals.append(err)
            residuals.append((fd2 - rates.rate_r2)
                             / max(1.0, abs(rates.rate_r2)))
    on_sphere = 0
    for u in islice(_sphere_points(271828, 2.0), 200):
        if u[0] ** 2 + u[1] ** 2 < 1e-3:
            continue
        rate = fields.derived_rates(u).rate_arctan
        residuals.append(rate / 1e-8)  # scaled so tol maps to 1e-14
        on_sphere += 1
    return residuals, {"sphere_probes": on_sphere}


def _check_pushforward_sign():
    rep = fields.pushforward_sign()
    return [rep.max_residual], {"sigma": rep.sigma, "samples": rep.samples,
                                "consistent": rep.consistent}


def _check_pushforward_trajectories():
    residuals = []
    for start in [(1.0, 0.5, 0.25), (2.5, -1.0, 1.5)]:
        y0 = np.asarray(start, float)
        cart = integrate(fields.cartesian_ode, y0, (0.0, 5.0), rel_tol=1e-11)
        sph = integrate(fields.spherical_ode, fields.to_spherical(start),
                        (0.0, -5.0),  # sigma = -1 time adjustment
                        rel_tol=1e-11)
        ts = np.linspace(0.0, 5.0, 30)
        for yc, ys in zip(cart.sample(ts), sph.sample(-ts)):
            residuals.append(math.dist(fields.from_spherical(ys), tuple(yc)))
    return residuals, {}


def _check_bessel_wronskian():
    zs = np.geomspace(1e-3, special_functions.Z_MAX, 1000)
    return special_functions.bessel_quad(zs).wronskian_defect(), {}


_CURVES = ((1.0, 0.5, 4.0), (3.0, 0.2, 6.0), (5.0, 0.8, 5.6))


def _check_implicit_constant():
    sel = reduced_system.select_effective_form(_CURVES)
    return sel.spreads["continued"], {"curves": list(_CURVES),
                                      "form": sel.chosen,
                                      "spreads": sel.spreads}


def _check_implicit_inversion():
    # (2, 0.45) etc. sit away from the turning locus H = (r^2+4)^2/(64 r^2),
    # where the level curve would be tangent and the root unbracketable.
    r, h = np.array([(2.0, 0.45), (1.5, 0.35), (4.0, 0.6)]).T
    c = reduced_system.implicit_constant(r, h).c_effective
    h_back = reduced_system.solve_implicit(c, r, (h - 0.13, h + 0.21))
    return (h_back - h) / h, {}


def _check_reduced_substitution():
    # Solve the implicit relation for H on tight radius triples, then
    # feed them to the finite-difference substitution check in one call.
    # Root refinement is exact to 1e-12, so the FD error is set by the
    # triple half-width alone; anchors keep H well clear of the turning
    # locus.
    # Each bracket is centred on its curve's tangent at the anchor, which
    # stays within 0.061 of the curve over r0 +- 10%, half the bracket's
    # half-width: one solve_implicit call solves every triple.
    anchors = np.array([(1.2, 0.7), (2.5, 0.55), (4.0, 0.65)])
    delta = 1e-4
    c1s = reduced_system.implicit_constant(*anchors.T).c_effective
    rows = []  # (c1, r, lo, hi) of each radius of each triple
    for (r0, h0), c1 in zip(anchors.tolist(), c1s.tolist()):
        slope = reduced_system.h_rhs(r0, h0)
        for r in np.linspace(0.9 * r0, 1.1 * r0, 9).tolist():
            h_mid = h0 + slope * (r - r0)
            rows += [(c1, r + step, max(0.01, h_mid - 0.12),
                      min(0.9999, h_mid + 0.12))
                     for step in (-delta, 0.0, delta)]
    c1, radii, lo, hi = map(np.array, zip(*rows))
    hs = reduced_system.solve_implicit(c1, radii, (lo, hi), n_scan=8)
    return reduced_system.substitution_check(
        radii.reshape(-1, 3), np.arcsin(np.sqrt(hs)).reshape(-1, 3)), {
        "curves": len(anchors), "delta": delta}


def _check_turning_slope():
    slope = reduced_system.h_rhs(2.0, 1.0)
    residuals = [(slope + 1.0 / 3.0) * 3.0]
    draws = _uniform_rows(987654, (0.5, 8.0), (0.1, math.pi - 0.1))
    pairs = 0
    while pairs < 50:
        r, psi = next(draws)
        try:
            ph = reduced_system.psi_rhs(r, psi)
            hh = reduced_system.h_rhs(r, math.sin(psi) ** 2)
        except reduced_system.TurningPointError:
            continue
        chain = 2.0 * math.sin(psi) * math.cos(psi) * ph
        residuals.append((hh - chain) / max(1.0, abs(hh)))
        pairs += 1
    return residuals, {"chain_rule_pairs": pairs}


# Points per axis of the real-region grids of the uv_table checks
# (legendre-identity, parametric-relation-*) and of linear-pde-*.
_UV_GRID = 10
_RHO_GRID = 20


def _real_region_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n real-region (xi, psi) grid, xi-major, flattened."""
    xi, psi = np.meshgrid(np.linspace(0.12, 0.72, n),
                          np.linspace(0.3, math.pi - 0.3, n), indexing="ij")
    return xi.ravel(), psi.ravel()


def _grid_uv() -> first_integral.UVPair:
    """The uv_table of the _UV_GRID real-region grid, once per battery."""
    return _shared("uv_table", lambda: first_integral.uv_table(
        *_real_region_grid(_UV_GRID)))


def _check_legendre():
    uv = _grid_uv()
    return (np.abs(uv.v_xi - uv.xi * uv.u_xi)
            / np.maximum(1.0, np.abs(uv.xi * uv.u_xi))), {}


def _pde_grid_check(variant: str):
    table = _shared("rho_table", lambda: first_integral.rho_table(
        *_real_region_grid(_RHO_GRID)))
    return table.pde_residual(variant), {
        "variant": variant, "grid": f"{_RHO_GRID}x{_RHO_GRID}"}


def _relation_grid_check(reading: str):
    return _grid_uv().relation_residual(reading), {
        "reading": reading, "grid": f"{_UV_GRID}x{_UV_GRID}"}


# Parameter points whose reconstructed radius v(xi, psi) is positive,
# so they correspond to physical spherical states.
_H_PDE_POINTS = np.array([
    (0.2, 1.1), (0.2, 1.8), (0.2, 2.4), (0.35, 0.8), (0.35, 1.4), (0.35, 2.1),
    (0.5, 1.4), (0.5, 1.8), (0.5, 2.4), (0.65, 1.8), (0.65, 2.1), (0.65, 2.4)])


def _h_pde_states():
    """The radius v(xi0, psi) of each point, its psi, and a parameter
    bracket around xi0 (one array each, so one reconstruction serves)."""
    xi0, psi = _H_PDE_POINTS.T
    r = first_integral.rho_table(xi0, psi).v.real
    return r, psi, (0.7 * xi0, np.minimum(1.35 * xi0, 0.8))


def _h_reconstruction() -> first_integral.HReconstruction:
    """H's partials at the twelve states, once per battery."""
    def compute():
        r, psi, bracket = _h_pde_states()
        return first_integral.reconstruct_H(r, psi, bracket=bracket)
    return _shared("reconstruct_H", compute)


def _check_h_pde(reading: str):
    return _h_reconstruction().h_pde_residual(reading), {"reading": reading}


def _check_phi_flow():
    return _h_reconstruction().phi_flow_derivative(), {}


_F1_PROBE = (0.7, -0.3, 0.11, 2.0)


def _check_gauge():
    xi, psi = _real_region_grid(5)
    base = first_integral.rho_table(xi, psi).pde_residual("parametric")
    gauged = first_integral.rho_table(
        xi, psi, f1=_F1_PROBE).pde_residual("parametric")
    relation = first_integral.uv_table(xi, psi,
                                       f1=_F1_PROBE).relation_residual()
    return np.append(gauged - base, relation), {
        "pde_residual_bitwise_equal": bool(np.array_equal(base, gauged)),
        "f1": list(_F1_PROBE)}


def _check_dual_vs_fd():
    xi, psi = _dual_vs_fd_probes()
    h = 1e-6
    # Rows xi + h, xi - h, psi + h and psi - h, in one rho_raw call.
    step = np.array([[h, -h, 0.0, 0.0], [0.0, 0.0, h, -h]])[..., None]
    rho = first_integral.rho_raw(xi.astype(complex) + step[0], psi + step[1])
    fd_xi, fd_psi = (rho[0::2] - rho[1::2]) / (2.0 * h)
    table = first_integral.rho_table(xi, psi)
    residuals = [np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))
                 for fd, exact in ((fd_xi, table.u), (fd_psi, table.rho_psi))]
    return np.concatenate(residuals), {"probes": 100, "step": h}


def _check_branch_continuity():
    delta = 1e-9
    boundaries = (first_integral.DISC_XI_LOW, first_integral.DISC_XI_HIGH)
    # Axes: side of the boundary, boundary, psi.
    xi = np.multiply.outer((1.0 - delta, 1.0 + delta), boundaries)[..., None]
    lo, hi = first_integral.rho_table(xi, [0.7, 1.2, 1.9, 2.5]).rho_psi
    residuals = (np.abs(hi - lo) / np.maximum(1.0, np.abs(lo))).ravel()
    return residuals, {"delta": delta, "boundaries": list(boundaries)}


def _xi_sub_tests() -> list[tuple[Callable, float, float, float]]:
    from .dual import sin as dsin

    def e_phi(r, phi, x):
        return phi

    def e_radial(r, phi, x):
        return r * r * x + 0.3 * phi

    def e_trig(r, phi, x):
        return dsin(x) * r + phi * x

    cases = []
    for fn in (e_phi, e_radial, e_trig):
        for psi in (0.4, 0.9, 1.3):
            for r in (1.5, 3.0):
                cases.append((fn, r, 0.7, psi))
    return cases


def _check_xi_substitution():
    return [first_integral.xi_substitution_residual(r, phi, psi, fn)
            for fn, r, phi, psi in _xi_sub_tests()], {"test_functions": 3}


def _check_integrator_order():
    y0 = (1.0, 0.0, 0.0)
    span = (0.0, 4.0)
    ref = integrate(fields.cartesian_ode, y0, span, rel_tol=1e-13).y_end
    hs, errs = [], []
    for rt in (1e-6, 1e-8, 1e-10, 1e-12):
        traj = integrate(fields.cartesian_ode, y0, span, rel_tol=rt)
        err = math.dist(traj.y_end, ref)
        # An exact end point has no logarithm; a NaN one is kept, and
        # fails the fit.
        if err != 0.0:
            hs.append(span[1] / traj.naccept)
            errs.append(err)
    slope = _fit_slope(list(map(math.log, hs)), list(map(math.log, errs)))
    # 2^(3.5 - slope): by how much less than h^3.5 predicts the error
    # falls when the step halves; it passes (<= 1) exactly for a slope of
    # at least 3.5.  Capped at 2^64, which a NaN slope reads as too.
    excess = 3.5 - slope
    return [2.0 ** (excess if excess <= 64.0 else 64.0)], {
        "slope": slope, "steps": hs, "errors": errs}


@dataclass(frozen=True)
class CheckDef:
    """A named check: fn() measures (residuals, details); run_battery
    judges them against tol and the documented flag."""

    name: str
    fn: Callable[[], tuple[Sequence[float], dict]]
    tol: float
    documented: bool = False


CHECKS: tuple[CheckDef, ...] = (
    CheckDef("unit-norm", _check_unit_norm, 1e-12),
    CheckDef("rate-identities", _check_rate_identities, 1e-6),
    CheckDef("pushforward-sign", _check_pushforward_sign, 1e-11),
    CheckDef("pushforward-trajectories", _check_pushforward_trajectories, 1e-7),
    CheckDef("bessel-wronskian", _check_bessel_wronskian, 1e-11),
    CheckDef("implicit-constant", _check_implicit_constant, 1e-9),
    CheckDef("implicit-inversion", _check_implicit_inversion, 1e-9),
    CheckDef("reduced-substitution", _check_reduced_substitution, 1e-6),
    CheckDef("turning-slope", _check_turning_slope, 1e-12),
    CheckDef("legendre-identity", _check_legendre, 1e-12),
    CheckDef("linear-pde-parametric", partial(_pde_grid_check, "parametric"),
             1e-11),
    CheckDef("linear-pde-direct", partial(_pde_grid_check, "direct"), 1e-8,
             documented=True),
    CheckDef("parametric-relation-xi", partial(_relation_grid_check, "xi"),
             1e-10),
    CheckDef("parametric-relation-v", partial(_relation_grid_check, "v"),
             1e-8, documented=True),
    CheckDef("h-pde-xi", partial(_check_h_pde, "xi"), 1e-12),
    CheckDef("h-pde-v", partial(_check_h_pde, "v"), 1e-6, documented=True),
    CheckDef("phi-flow-derivative", _check_phi_flow, 1e-6, documented=True),
    CheckDef("gauge-invariance", _check_gauge, 1e-11),
    CheckDef("dual-vs-fd", _check_dual_vs_fd, 1e-6),
    CheckDef("branch-continuity", _check_branch_continuity, 1e-6),
    CheckDef("xi-substitution", _check_xi_substitution, 1e-12),
    CheckDef("integrator-order", _check_integrator_order, 1.0),
)

# Checks that measure relations that fail as printed; their
# documented-discrepancy verdict is expected and does not fail the
# battery.
ALLOWED_DISCREPANCIES = frozenset(c.name for c in CHECKS if c.documented)
CHECK_NAMES = tuple(c.name for c in CHECKS)


def run_battery(only: Sequence[str] | None = None,
                tol_scale: float = 1.0) -> dict:
    """Run the named checks (all by default) and aggregate a JSON document.

    tol_scale multiplies every check's tolerance; passing 1e-3 tightens
    all checks a thousandfold.  It must be finite and positive.  The
    document's "passed" is true iff no check fails.
    """
    if not (math.isfinite(tol_scale) and tol_scale > 0.0):
        raise ValueError(f"tolerance scale must be finite and positive, "
                         f"got {tol_scale!r}")
    by_name = {c.name: c for c in CHECKS}
    if only:
        unknown = [n for n in only if n not in by_name]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}; "
                             f"known: {', '.join(CHECK_NAMES)}")
        selected = [by_name[n] for n in CHECK_NAMES if n in set(only)]
    else:
        selected = list(CHECKS)

    entries = []
    shared = _RUN_SHARED.set({})
    try:
        for c in selected:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                residuals, details = c.fn()
            entries.append(summarize(
                c.name, residuals, c.tol * tol_scale, c.documented,
                {**details, "warnings": [str(w.message) for w in caught]}))
    finally:
        _RUN_SHARED.reset(shared)

    return {
        "schema": SCHEMA,
        "tol_scale": tol_scale,
        "allowed_discrepancies": sorted(ALLOWED_DISCREPANCIES),
        "passed": all(e["verdict"] != "fail" for e in entries),
        "checks": entries,
    }
