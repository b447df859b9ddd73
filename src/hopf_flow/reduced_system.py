"""Scalar reductions of the spherical flow and their implicit solution.

Dropping the azimuth from the spherical system leaves a planar flow in
(r, psi); eliminating the parameter gives the scalar ODE dpsi/dr, and
the substitution H = sin(psi)^2 turns it into a rational ODE dH/dr.  The
latter integrates implicitly through modified Bessel functions: along
any solution the combination

    C(r, H) = -[(4+r^2) K0(z) + 8 sqrt(H) r K1(z)]
              / [(4+r^2) I0(z) - 8 sqrt(H) r I1(z)],   z = sqrt(H) r / 2

is constant.  Two candidate sign conventions for the K1 term are
implemented ("continued", which evaluates K on the negative-argument
branch and absorbs the resulting constant i*pi imaginary part into the
constant, and "naive", which keeps K at positive argument); which one is
actually conserved is decided empirically by `select_effective_form`,
not assumed.  The conserved full constant is C + i*pi.

The coefficient of dH/dr vanishes on the turning locus
H = (r^2+4)^2 / (64 r^2), reachable (H <= 1) for r in [4-2*sqrt(3),
4+2*sqrt(3)]; there the graph H(r) folds and r-parametrized tracing must
hand over to the two-dimensional flow, which `trace_reduced` does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import bracketed_roots, relative_to_terms
from .fields import RADIUS_FLOOR, SIN_PSI_FLOOR
from .integrator import Event, Trajectory, integrate
from .special_functions import bessel_quad

EPS_TURN = 1e-8

# Margins for guard events while tracing (looser than EPS_TURN so the
# trace stops before evaluation would refuse).
_GUARD_MARGIN = 1e-6
_RESUME_MARGIN = 2e-6
_R_AWAY_MIN = 1e-3
_R_AWAY_MAX = 100.0

FORMS = ("continued", "naive")


class TurningPointError(ArithmeticError):
    """Evaluation too close to a vanishing-derivative-coefficient locus."""

    def __init__(self, r: float, value: float, locus: float, what: str):
        self.r = r
        self.value = value
        self.locus = locus
        super().__init__(
            f"{what} at r={r!r}: coefficient vanishes near {what}={locus!r} "
            f"(got {value!r})")


@dataclass(frozen=True)
class ReducedState:
    """Point of the reduced system with the psi-hemisphere made explicit.

    H determines psi only up to reflection; `upper` selects
    psi = pi - asin(sqrt(H)) instead of asin(sqrt(H)).
    """

    r: float
    h: float
    upper: bool = False

    def psi(self) -> float:
        base = math.asin(math.sqrt(self.h))
        return math.pi - base if self.upper else base


@dataclass(frozen=True)
class ImplicitConstant:
    """The conserved combination at one (r, H) sample.

    `c1` carries the full complex constant; `c_effective` its real part,
    which is the quantity compared across samples.  `denom` is the
    I-combination denominator (degenerate samples are refused upstream).
    """

    c1: complex
    c_effective: float
    r: float
    h: float
    z: float
    form: str
    denom: float


@dataclass(frozen=True)
class FormSelection:
    chosen: str
    spreads: dict[str, float]
    samples: int


@dataclass
class ReducedCurve:
    """Result of `trace_reduced`: segments in mixed parametrizations.

    rs/hs/psis concatenate the accepted sample points of every segment in
    traversal order.  `turning_crossings` counts folds passed through by
    handing over to the two-dimensional flow.
    """

    rs: np.ndarray
    hs: np.ndarray
    psis: np.ndarray
    segments: list[Trajectory] = field(default_factory=list)
    turning_crossings: int = 0
    reached: bool = False
    stop_note: str = ""


def turning_locus(r: float) -> float:
    """H value at which the dH/dr coefficient vanishes for this r."""
    return (r * r + 4.0) ** 2 / (64.0 * r * r)


def psi_rhs(r: float, psi: float) -> float:
    """dpsi/dr of the reduced scalar ODE."""
    if r <= 0.0:
        raise ValueError("need r > 0")
    sin_psi, cos_psi = math.sin(psi), math.cos(psi)
    c2 = cos_psi * cos_psi
    rr = r * r
    num = -sin_psi * (rr * rr - 24.0 * rr + 64.0 * rr * c2 + 16.0)
    den = r * cos_psi * (rr * rr - 56.0 * rr + 64.0 * rr * c2 + 16.0)
    scale = r * (rr * rr + 120.0 * rr + 16.0)
    if abs(den) <= EPS_TURN * scale:
        raise TurningPointError(r, psi, math.pi / 2.0, "psi")
    return num / den


def _h_rhs_raw(r: float, h: float) -> float:
    rr = r * r
    num = -2.0 * h * (rr * rr + 40.0 * rr - 64.0 * h * rr + 16.0)
    den = r * (rr * rr + 8.0 * rr - 64.0 * rr * h + 16.0)
    if den == 0.0:
        return math.inf if num >= 0 else -math.inf
    return num / den


def h_rhs(r: float, h: float) -> float:
    """dH/dr of the reduced ODE under H = sin(psi)^2."""
    if r <= 0.0:
        raise ValueError("need r > 0")
    rr = r * r
    den = r * (rr * rr + 8.0 * rr - 64.0 * rr * h + 16.0)
    scale = r * (rr * rr + 8.0 * rr + 16.0)
    if abs(den) <= EPS_TURN * scale:
        raise TurningPointError(r, h, turning_locus(r), "H")
    return _h_rhs_raw(r, h)


def h_residual_terms(r: float, h: float, dh_dr: float) -> list[float]:
    """Additive terms of the reduced ODE; their sum is the residual."""
    rr = r * r
    return [
        (r * rr * rr + 8.0 * r * rr - 64.0 * r * rr * h + 16.0 * r) * dh_dr,
        2.0 * h * rr * rr,
        80.0 * h * rr,
        -128.0 * h * h * rr,
        32.0 * h,
    ]


def substitution_check(rs, psis) -> float:
    """Max scaled residual of the H-form along a sampled psi(r) curve.

    H is taken as sin(psi)^2 and differentiated by central differences on
    the given grid; the curve is split wherever psi crosses pi/2 (the
    H-form folds there) and interior points of each piece are tested.
    """
    rs = np.asarray(rs, dtype=float)
    psis = np.asarray(psis, dtype=float)
    if rs.shape != psis.shape or rs.ndim != 1 or len(rs) < 3:
        raise ValueError("need matching 1-d arrays of length >= 3")
    hs = np.sin(psis) ** 2
    side = np.sign(psis - math.pi / 2.0)
    worst = 0.0
    seg_start = 0
    boundaries = list(np.nonzero(side[1:] * side[:-1] < 0)[0] + 1) + [len(rs)]
    for seg_end in boundaries:
        seg = slice(seg_start, seg_end)
        r_seg, h_seg = rs[seg], hs[seg]
        for i in range(1, len(r_seg) - 1):
            hp = r_seg[i + 1] - r_seg[i]
            hm = r_seg[i] - r_seg[i - 1]
            dh = (hm * hm * h_seg[i + 1] + (hp * hp - hm * hm) * h_seg[i]
                  - hp * hp * h_seg[i - 1]) / (hp * hm * (hp + hm))
            terms = h_residual_terms(float(r_seg[i]), float(h_seg[i]), float(dh))
            worst = max(worst, relative_to_terms(terms))
        seg_start = seg_end
    return worst


def _combination(r: float, h: float, form: str) -> tuple[float, float, float]:
    """(z, numerator, denominator) of C(r, H) = numerator / denominator."""
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if r <= 0.0 or not 0.0 < h <= 1.0:
        raise ValueError("need r > 0 and H in (0, 1]")
    z = 0.5 * math.sqrt(h) * r
    q = bessel_quad(z)  # raises outside (0, 60]
    a = 4.0 + r * r
    b = 8.0 * math.sqrt(h) * r
    k_sign = 1.0 if form == "continued" else -1.0
    return z, -(a * q.k0 + k_sign * b * q.k1), a * q.i0 - b * q.i1


def implicit_constant(r: float, h: float, form: str = "continued") -> ImplicitConstant:
    """The conserved Bessel combination at one (r, H) sample."""
    z, num, den = _combination(r, h, form)
    if abs(den) < 1e-300:
        raise ValueError(f"degenerate sample: I-combination vanishes at "
                         f"(r={r!r}, H={h!r})")
    c_eff = num / den
    c1 = complex(c_eff, math.pi if form == "continued" else 0.0)
    return ImplicitConstant(c1=c1, c_effective=c_eff, r=r, h=h, z=z,
                            form=form, denom=den)


def implicit_residual(c_effective: float, r: float, h: float,
                      form: str = "continued") -> float:
    """Scaled residual of the implicit relation at (r, H) for a given C."""
    z = 0.5 * math.sqrt(h) * r
    q = bessel_quad(z)
    a = 4.0 + r * r
    b = 8.0 * math.sqrt(h) * r
    k_sign = 1.0 if form == "continued" else -1.0
    terms = [c_effective * a * q.i0, -c_effective * b * q.i1,
             a * q.k0, k_sign * b * q.k1]
    return relative_to_terms(terms)


def _turning_guard_event(r0: float, h0: float) -> Event:
    rr0 = r0 * r0
    d0 = rr0 * rr0 + 8.0 * rr0 - 64.0 * rr0 * h0 + 16.0
    s0 = 1.0 if d0 >= 0.0 else -1.0

    def g(r: float, y: np.ndarray) -> float:
        h = float(y[0])
        rr = r * r
        d = rr * rr + 8.0 * rr - 64.0 * rr * h + 16.0
        return s0 * d / (rr * rr + 8.0 * rr + 16.0) - _GUARD_MARGIN

    return Event(fn=g, direction=-1, name="turning-locus")


def trace_h(r0: float, h0: float, r1: float,
            rel_tol: float = 1e-12) -> Trajectory:
    """Trace H(r) from (r0, h0) toward r1, stopping at guard events.

    Guard events: approach to the turning locus, H reaching 1 (the
    psi = pi/2 fold), H collapsing to 0.  The trajectory's stop reason
    and event name say which.
    """
    if r0 <= 0.0 or r1 <= 0.0:
        raise ValueError("radial span must stay positive")
    events = (
        _turning_guard_event(r0, h0),
        Event(fn=lambda r, y: float(y[0]) - 1.0, direction=1,
              name="h-ceiling"),
        Event(fn=lambda r, y: float(y[0]) - 1e-15, direction=-1,
              name="h-floor"),
    )
    traj = integrate(lambda r, y: np.array([_h_rhs_raw(r, float(y[0]))]),
                     [h0], (r0, r1), rel_tol=rel_tol, events=events)
    hs = traj.ys[:, 0]
    if hs.max() > 1.0 + 1e-9 or hs.min() < -1e-12:
        raise RuntimeError("H left [0, 1] without triggering a guard event")
    return traj


def reduced_time_ode(s: float, y: np.ndarray) -> np.ndarray:
    """Planar (r, psi) flow, time rescaled by the positive factor (r^2+4)^2.

    Same curves as the spherical system with the azimuth dropped; the
    rescaling keeps the right side polynomial and fold-friendly.
    """
    r, psi = float(y[0]), float(y[1])
    rr = r * r
    sin_psi, cos_psi = math.sin(psi), math.cos(psi)
    s2 = sin_psi * sin_psi
    dr = cos_psi * (rr * rr + 8.0 * rr - 64.0 * rr * s2 + 16.0)
    dpsi = -sin_psi * (rr * rr + 40.0 * rr - 64.0 * rr * s2 + 16.0) / r
    return np.array([dr, dpsi])


def _fold_clearance(r: float, psi: float) -> float:
    """Positive when clear of both folds and both chart floors."""
    rr = r * r
    h = math.sin(psi) ** 2
    d = rr * rr + 8.0 * rr - 64.0 * rr * h + 16.0
    d_scaled = abs(d) / (rr * rr + 8.0 * rr + 16.0)
    return min(d_scaled, 1.0 - h, h) - _RESUME_MARGIN


def trace_reduced(r0: float, psi0: float, r_target: float,
                  rel_tol: float = 1e-12, max_segments: int = 8,
                  max_param: float = 50.0) -> ReducedCurve:
    """Trace the reduced curve from (r0, psi0) toward r = r_target.

    Runs in r-parametrization while the graph H(r) is single-valued and
    hands over to the planar flow across folds (turning locus or the
    psi = pi/2 crossing), then resumes in r with the travel direction the
    fold imposes.  A target on the far side of a fold is unreachable
    along the physical curve; the result then reports reached=False with
    the traversed samples.
    """
    if not 0.0 < psi0 < math.pi:
        raise ValueError("psi0 must lie in (0, pi)")
    curve = ReducedCurve(rs=np.empty(0), hs=np.empty(0), psis=np.empty(0))
    rs: list[np.ndarray] = []
    psis: list[np.ndarray] = []
    r, psi = float(r0), float(psi0)
    # Initial travel direction: toward the target.
    direction = 1.0 if r_target >= r else -1.0

    def log_r_segment(traj: Trajectory, upper: bool) -> None:
        seg_r = traj.ts
        seg_h = np.clip(traj.ys[:, 0], 0.0, 1.0)
        seg_psi = np.arcsin(np.sqrt(seg_h))
        if upper:
            seg_psi = math.pi - seg_psi
        rs.append(seg_r)
        psis.append(seg_psi)
        curve.segments.append(traj)

    for _ in range(max_segments):
        if abs(r - r_target) <= 1e-12 * max(1.0, abs(r_target)):
            curve.reached = True
            break
        h = math.sin(psi) ** 2
        if _fold_clearance(r, psi) > 0.0:
            # Single-valued stretch: integrate dH/dr.
            if (r_target - r) * direction > 0.0:
                r_end = r_target
            else:
                r_end = _R_AWAY_MIN if direction < 0.0 else _R_AWAY_MAX
            traj = trace_h(r, h, r_end, rel_tol=rel_tol)
            upper = psi > math.pi / 2.0
            log_r_segment(traj, upper)
            r = traj.t_end
            h = float(np.clip(traj.y_end[0], 0.0, 1.0))
            base = math.asin(math.sqrt(h))
            psi = math.pi - base if upper else base
            if traj.stop_reason == "reached_end":
                if r_end == r_target:
                    curve.reached = True
                else:
                    curve.stop_note = "ran to the radial bound"
                break
            if traj.stop_reason == "step_underflow":
                curve.stop_note = "step underflow in r-parametrization"
                break
            if traj.event is not None and traj.event.name == "h-floor":
                curve.stop_note = "H collapsed to 0"
                break
            # Fold ahead: fall through to the planar flow.
        # Planar-flow hand-over across the fold.
        v = reduced_time_ode(0.0, np.array([r, psi]))
        if v[0] == 0.0 and v[1] == 0.0:
            curve.stop_note = "stationary point of the planar flow"
            break
        s_sign = 1.0 if v[0] * direction >= 0.0 else -1.0
        events = (
            Event(fn=lambda s, y: _fold_clearance(float(y[0]), float(y[1])),
                  direction=1, name="fold-cleared"),
            Event(fn=lambda s, y: float(y[0]) - r_target, direction=0,
                  name="target-radius"),
            Event(fn=lambda s, y: float(y[0]) - RADIUS_FLOOR, direction=-1,
                  name="radius-floor"),
            Event(fn=lambda s, y: abs(math.sin(float(y[1]))) - SIN_PSI_FLOOR,
                  direction=-1, name="axis"),
        )
        traj = integrate(reduced_time_ode, [r, psi],
                         (0.0, s_sign * max_param), rel_tol=rel_tol,
                         events=events)
        rs.append(traj.ys[:, 0].copy())
        psis.append(traj.ys[:, 1].copy())
        curve.segments.append(traj)
        r, psi = float(traj.y_end[0]), float(traj.y_end[1])
        if traj.stop_reason != "event":
            curve.stop_note = "planar flow exhausted its parameter budget"
            break
        last = traj.event.name
        if last == "target-radius":
            curve.reached = True
            break
        if last in ("radius-floor", "axis"):
            curve.stop_note = f"stopped at chart guard: {last}"
            break
        # Fold crossed; new travel direction is whatever the flow imposes.
        curve.turning_crossings += 1
        v = reduced_time_ode(0.0, np.array([r, psi]))
        direction = 1.0 if s_sign * v[0] >= 0.0 else -1.0
    else:
        curve.stop_note = "segment budget exhausted"

    if rs:
        curve.rs = np.concatenate(rs)
        curve.psis = np.concatenate(psis)
        curve.hs = np.sin(curve.psis) ** 2
    return curve


def select_effective_form(r0: float = 1.0, h0: float = 0.5, r1: float = 4.0,
                          n_samples: int = 24) -> FormSelection:
    """Decide which implicit-constant form is conserved, by measurement.

    Traces one tight-tolerance solution of the reduced ODE and computes
    the candidate constants at n_samples points; the form whose relative
    spread is below 1e-8 wins.  Ambiguity (both or neither constant)
    raises instead of guessing.
    """
    traj = trace_h(r0, h0, r1)
    if traj.stop_reason != "reached_end":
        raise RuntimeError("selection curve hit a guard event; "
                           "choose a clean span")
    r_grid = np.linspace(r0, r1, n_samples)
    h_grid = traj.sample(r_grid)[:, 0]
    spreads: dict[str, float] = {}
    for form in FORMS:
        vals = np.array([implicit_constant(float(r), float(h), form).c_effective
                         for r, h in zip(r_grid, h_grid)])
        spreads[form] = float((vals.max() - vals.min()) / abs(vals.mean()))
    constant = [f for f in FORMS if spreads[f] <= 1e-8]
    if len(constant) != 1:
        raise RuntimeError(f"constancy test is ambiguous: spreads={spreads!r}")
    return FormSelection(chosen=constant[0], spreads=spreads,
                         samples=n_samples)


def solve_implicit(c1, r: float, bracket: tuple[float, float],
                   form: str = "continued", n_scan: int = 64) -> float:
    """Solve the implicit relation for H at fixed r and constant c1.

    `c1` may be an ImplicitConstant, a complex value, or the effective
    real constant directly.  The bracket is scanned for sign changes of
    (C(r, H) - c1) times the I-combination denominator, which has the
    roots of C - c1 and none of its poles; each root is polished to
    |dH| <= 1e-12, and with several roots the one nearest the bracket
    midpoint is returned with a multiplicity warning.
    """
    if isinstance(c1, ImplicitConstant):
        target = c1.c_effective
    elif isinstance(c1, complex):
        target = c1.real
    else:
        target = float(c1)
    h_lo, h_hi = float(bracket[0]), float(bracket[1])
    if not h_lo < h_hi:
        raise ValueError("empty bracket")

    def g(h: float) -> float:
        try:
            _, num, den = _combination(r, h, form)
        except ValueError:
            return math.nan
        return num - target * den

    roots = bracketed_roots(g, h_lo, h_hi, n_scan, 1e-12)
    if not roots:
        raise _no_root_error(r, form, target,
                             np.linspace(h_lo, h_hi, n_scan + 1))
    mid = 0.5 * (h_lo + h_hi)
    if len(roots) > 1:
        warnings.warn(f"{len(roots)} roots in bracket; returning the one "
                      f"nearest the midpoint", stacklevel=2)
    return min(roots, key=lambda h: abs(h - mid))


def _no_root_error(r: float, form: str, target: float, grid) -> ValueError:
    """Why no root was bracketed: a tangency, or no crossing at all."""
    gaps = []
    for h in grid:
        try:
            gaps.append((float(h), implicit_constant(r, float(h), form)
                         .c_effective - target))
        except ValueError:
            continue
    if gaps:
        h_best, g_best = min(gaps, key=lambda t: abs(t[1]))
        if abs(g_best) <= 1e-2 * max(1.0, abs(target)):
            return ValueError(
                f"no sign change on the bracket, but |C - c1| dips to "
                f"{abs(g_best):.2e} near H={h_best:.6g}: the level curve "
                f"is tangent there (turning locus), so H(r) folds and "
                f"the root is not bracketable in H")
    return ValueError("no sign change on the bracket")
