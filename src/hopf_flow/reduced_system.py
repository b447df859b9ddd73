"""Scalar reductions of the spherical flow and their implicit solution.

Dropping the azimuth from the spherical system leaves a planar flow in
(r, psi); eliminating the parameter gives the scalar ODE dpsi/dr, and
the substitution H = sin(psi)^2 turns it into a rational ODE dH/dr.  The
latter integrates implicitly through modified Bessel functions: along
any solution the combination

    C(r, H) = -[(4+r^2) K0(z) + 8 sqrt(H) r K1(z)]
              / [(4+r^2) I0(z) - 8 sqrt(H) r I1(z)],   z = sqrt(H) r / 2

is constant.  The printed combination carries K at -z,

    C1 = -[a K0(-z) - b K1(-z)] / [a I0(z) - b I1(z)],
    a = 4 + r^2, b = 8 sqrt(H) r,

with K continued onto the negative axis through the upper half plane,
K_nu(z e^{i pi}) = (-1)^nu K_nu(z) - i pi I_nu(z).  The continuation
splits C1 into the real C above plus the constant i pi, so C is what
the package computes ("continued").  Reading K at +z instead ("naive",
K1 entering with a minus sign) is not conserved: `select_effective_form`
measures both along traced curves.

The coefficient of dH/dr vanishes on the turning locus
H = (r^2+4)^2 / (64 r^2), reachable (H <= 1) for r in [4-2*sqrt(3),
4+2*sqrt(3)]; there the graph H(r) folds and r-parametrized tracing must
hand over to the two-dimensional flow, which `trace_reduced` does.  That
planar flow, `reduced_time_ode`, and the dH/dr of its r-parametrized
stretches are ordinary functions under the `fields.inlined_field`
decorator, so `integrate` writes their bodies into its steps.  As in
`fields`, off its domain each returns slopes that are not finite (dH/dr
+-inf on the turning locus) and raises nothing.  Only `trace_reduced`
loads the integrator, when called, so `implicit` and `rho` never do.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .diagnostics import bracketed_roots, relative_to_terms
from .fields import RADIUS_FLOOR, SIN_PSI_FLOOR, inlined_field
from .special_functions import Z_MAX, bessel_quad

if TYPE_CHECKING:
    from .integrator import Trajectory

EPS_TURN = 1e-8

# Margins for guard events while tracing (looser than EPS_TURN so the
# trace stops before evaluation would refuse).
_GUARD_MARGIN = 1e-6
_RESUME_MARGIN = 2e-6
_R_AWAY_MIN = 1e-3
_R_AWAY_MAX = 100.0

# trace_reduced's budget: segments in all, and the planar-flow parameter
# span of one fold hand-over.
_MAX_SEGMENTS = 8
_MAX_PARAM = 50.0

# An array `_combination` costs ~0.12-0.4 ms below a few hundred points,
# more the more Bessel region pairs they span, and a float `_gap` ~8-12 us
# a point (crossover ~16 points in one pair, ~24-30 across three, on a
# 2-core host), so `solve_implicit` evaluates fewer points one by one.
_ARRAY_MIN_POINTS = 20

# A quarter of the largest float: the bound on a = 4 + r^2 and on its
# products with the Bessel values (see `_bessel_terms`).
_FLOAT_ROOM = 0.25 * sys.float_info.max

# The largest radius of the scalar slopes: r^5 <= 1e305 keeps
# r (r^4 + 120 r^2 + 16), the largest of their terms, in the float range.
_R_MAX = 1e61


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
class ImplicitConstant:
    """The conserved combination at (r, H): one sample, or arrays of them.

    `c1` carries the full complex constant, `c_effective` + i pi;
    `c_effective` is the quantity compared across samples.  From arrays,
    both are arrays, NaN at refused points.
    """

    c1: complex | np.ndarray
    c_effective: float | np.ndarray


@dataclass(frozen=True)
class FormSelection:
    """Result of `select_effective_form`: each form's relative spread on
    every curve, and the one form conserved on all of them (None when
    none or both are)."""

    chosen: str | None
    spreads: dict[str, list[float]]


@dataclass
class ReducedCurve:
    """Result of `trace_reduced`: segments in mixed parametrizations.

    rs/hs/psis concatenate the accepted sample points of every segment in
    traversal order, or hold the start point alone when there is none.
    `turning_crossings` counts folds passed through by handing over to
    the two-dimensional flow.
    """

    rs: np.ndarray
    hs: np.ndarray
    psis: np.ndarray
    segments: list[Trajectory] = field(default_factory=list)
    turning_crossings: int = 0
    reached: bool = False
    stop_note: str = ""


def check_radius(r: float, what: str = "r") -> None:
    """Raise ValueError, naming `what`, unless 0 < r <= 1e61, the radii
    every function here takes."""
    if not 0.0 < r <= _R_MAX:
        raise ValueError(f"need 0 < r <= {_R_MAX!r}, got {what}={r!r}")


def turning_locus(r: float) -> float:
    """H value at which the dH/dr coefficient vanishes for this r; at
    r <= 2^-513, where 64 r^2 <= 2^-1020, it is past the float range."""
    check_radius(r)
    if not r > 2.0 ** -513:
        raise ValueError(f"need r > 2^-513 for a finite locus, got r={r!r}")
    return (r * r + 4.0) ** 2 / (64.0 * r * r)


def psi_rhs(r: float, psi: float) -> float:
    """dpsi/dr of the reduced scalar ODE; an infinite psi raises
    ValueError naming it."""
    check_radius(r)
    if math.isinf(psi):
        raise ValueError(f"need a finite psi, got psi={psi!r}")
    sin_psi, cos_psi = math.sin(psi), math.cos(psi)
    c2 = cos_psi * cos_psi
    rr = r * r
    num = -sin_psi * (rr * rr - 24.0 * rr + 64.0 * rr * c2 + 16.0)
    den = r * cos_psi * (rr * rr - 56.0 * rr + 64.0 * rr * c2 + 16.0)
    scale = r * (rr * rr + 120.0 * rr + 16.0)
    if abs(den) <= EPS_TURN * scale:
        raise TurningPointError(r, psi, math.pi / 2.0, "psi")
    return num / den


# dH/dr as _trace_h integrates it, at (r, H = y[0]).  On the turning locus
# the slope is +-inf.
@inlined_field
def _dh_dr(r, y):
    (h,) = y
    rr = r * r
    num = -2.0 * h * (rr * rr + 40.0 * rr - 64.0 * h * rr + 16.0)
    den = r * (rr * rr + 8.0 * rr - 64.0 * rr * h + 16.0)
    if den == 0.0:
        return (math.inf if num >= 0 else -math.inf,)
    return (num / den,)


def h_rhs(r: float, h: float) -> float:
    """dH/dr of the reduced ODE under H = sin(psi)^2."""
    check_radius(r)
    rr = r * r
    q = rr * rr + 8.0 * rr - 64.0 * rr * h + 16.0
    scale = r * (rr * rr + 8.0 * rr + 16.0)
    if abs(r * q) <= EPS_TURN * scale:
        raise TurningPointError(r, h, turning_locus(r), "H")
    slope = _dh_dr(r, (h,))[0]
    # Where the numerator -2H (q + 32 r^2) left the float range through
    # its 128 H^2 r^2 term: the same slope, with no H^2 term.
    return (slope if math.isfinite(slope)
            else -2.0 * (h / r) * (1.0 + 32.0 * rr / q))


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


def substitution_check(rs, psis):
    """Scaled residual of the H-form at the middle radius of each triple.

    rs and psis share one shape (..., 3): three radii of a psi(r) curve
    and psi there.  H = sin(psi)^2, and dH/dr is the central difference
    over the triple.  Radii outside (0, 1e61] are refused, as the slopes
    refuse them, and so is a triple whose radii do not difference.  NaN
    where psi changes side of pi/2 inside the triple (the H-form folds
    there), where a psi is NaN or infinite, or where a term leaves the
    float range.  One triple gives a float, a stack an array of shape
    (...) with each triple's bits.
    """
    rs = np.asarray(rs, dtype=float)
    psis = np.asarray(psis, dtype=float)
    if rs.shape != psis.shape or rs.shape[-1:] != (3,):
        raise ValueError("need rs and psis of one shape (..., 3)")
    refused = ~((0.0 < rs) & (rs <= _R_MAX))
    if refused.any():
        check_radius(float(rs[refused][0]))
    # An infinite psi has no sine: it is NaN here.
    psis = np.where(np.isinf(psis), math.nan, psis)
    side = np.sign(psis - math.pi / 2.0)
    folds = (side[..., 1:] * side[..., :-1] < 0).any(axis=-1)
    r0, r1, r2 = np.moveaxis(rs, -1, 0)
    h0, h1, h2 = np.moveaxis(np.sin(psis) ** 2, -1, 0)
    hp, hm = r2 - r1, r1 - r0
    den = hp * hm * (hp + hm)
    flat = (den == 0.0) & ~folds
    if flat.any():
        raise ValueError(f"need three distinct radii to difference, "
                         f"got r={rs[flat][0].tolist()!r}")
    with np.errstate(all="ignore"):
        dh = (hm * hm * h2 + (hp * hp - hm * hm) * h1 - hp * hp * h0) / den
        residual = relative_to_terms(h_residual_terms(r1, h1, dh))
    residual = np.where(folds, math.nan, residual)
    return float(residual) if residual.ndim == 0 else residual


def _bessel_terms(r, h):
    """(a, b, Bessel quad at z) of C(r, H): z = sqrt(H) r / 2,
    a = 4 + r^2, b = 8 sqrt(H) r.

    A point (r and H both 0-d, as floats or numpy scalars) outside r > 0,
    H in (0, 1] or z in (0, Z_MAX] raises ValueError, as does one where
    a, or a product of a or b with a Bessel value, would leave the float
    range; sequences and arrays broadcast and give NaN there instead.
    """
    # Two Python floats, the root solves' case, skip the shape test.
    array = (type(r) is not float or type(h) is not float) and (
        np.ndim(r) or np.ndim(h))
    if array:
        r, h = np.broadcast_arrays(np.asarray(r, float), np.asarray(h, float))
        sqrt_h = np.sqrt(np.where((r > 0.0) & (h > 0.0) & (h <= 1.0), h,
                                  math.nan))
        # Points past the Bessel range drop out before r is squared, so a
        # huge r gives NaN without an overflow warning.
        r = np.where(0.5 * sqrt_h * r <= Z_MAX, r, math.nan)
    else:
        r, h = float(r), float(h)
        if r <= 0.0 or not 0.0 < h <= 1.0:
            raise ValueError("need r > 0 and H in (0, 1]")
        sqrt_h = math.sqrt(h)
    z = 0.5 * sqrt_h * r
    q = bessel_quad(z)  # a float outside (0, Z_MAX] raises
    # r^2 max(1, I0, K0) <= _FLOAT_ROOM keeps a I0 and a K0 near a quarter
    # of the largest float at most, and b I1 too (I1 <= I0, and b <= 8 r
    # <= r^2 once r >= 8), while b K1 = 16 z K1(z) <= 16: both
    # combinations stay finite.
    if array:
        r_max = np.sqrt(_FLOAT_ROOM / np.maximum(np.maximum(q.i0, q.k0), 1.0))
        r = np.where(r <= r_max, r, math.nan)
    elif r > math.sqrt(_FLOAT_ROOM / max(1.0, q.i0, q.k0)):
        raise ValueError(f"r={r!r} too large: 4 + r^2 times the Bessel "
                         f"values leaves the float range")
    return 4.0 + r * r, 8.0 * sqrt_h * r, q


def _combination(r, h):
    """(numerator, denominator) of C(r, H) = numerator / denominator,
    elementwise on arrays (see `_bessel_terms` for refused points)."""
    a, b, q = _bessel_terms(r, h)
    return -(a * q.k0 + b * q.k1), a * q.i0 - b * q.i1


def implicit_constant(r, h) -> ImplicitConstant:
    """The conserved Bessel combination at (r, H).

    A point (r and H 0-d) gives Python numbers and raises ValueError at a
    refused sample (see `_bessel_terms`) or where the I-combination
    vanishes.  Sequences and arrays broadcast, elementwise with the same
    bits as a point, and give NaN at those points instead.
    """
    num, den = _combination(r, h)
    if isinstance(num, np.ndarray):
        c_eff = np.divide(num, den, out=np.full(num.shape, math.nan),
                          where=np.abs(den) >= 1e-300)
        c1 = c_eff + 1j * np.where(np.isnan(c_eff), math.nan, math.pi)
        return ImplicitConstant(c1=c1, c_effective=c_eff)
    if abs(den) < 1e-300:
        raise ValueError(f"degenerate sample: I-combination vanishes at "
                         f"(r={r!r}, H={h!r})")
    c_eff = num / den
    return ImplicitConstant(c1=complex(c_eff, math.pi), c_effective=c_eff)


def implicit_residual(c_effective: float, r, h):
    """Scaled residual of the implicit relation at (r, H) for a given C.

    Elementwise on sequences and arrays of r and H, NaN at refused
    points.  Every term is divided by max(1, |C|): the ratio stays the
    same (bit for bit for |C| <= 1), and the C terms of any finite C stay
    in the float range.  Terms that still leave it give NaN, on arrays
    without a numpy warning."""
    a, b, q = _bessel_terms(r, h)
    scale = max(1.0, abs(c_effective))
    c = c_effective / scale
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [c * a * q.i0, -c * b * q.i1,
                 a / scale * q.k0, b / scale * q.k1]
        return relative_to_terms(terms)


def _locus_ratio(r: float, h: float) -> float:
    """Zero on the turning locus, positive on its small-H side."""
    rr = r * r
    return ((rr * rr + 8.0 * rr - 64.0 * rr * h + 16.0)
            / (rr * rr + 8.0 * rr + 16.0))


def _trace_h(r0: float, h0: float, r1: float, rel_tol: float) -> Trajectory:
    """Trace H(r) from (r0, h0) toward r1 until the turning locus nears,
    H reaches 1 (the psi = pi/2 fold) or H collapses to 0; the
    trajectory's event names which."""
    from .integrator import Event, integrate

    # The turning guard keeps the sign the locus function has at r0.
    s0 = 1.0 if _locus_ratio(r0, h0) >= 0.0 else -1.0
    events = (
        Event(fn=lambda r, y: s0 * _locus_ratio(r, y[0]) - _GUARD_MARGIN,
              direction=-1, name="turning-locus"),
        Event(fn=lambda r, y: y[0] - 1.0, direction=1, name="h-ceiling"),
        Event(fn=lambda r, y: y[0] - 1e-15, direction=-1, name="h-floor"),
    )
    traj = integrate(_dh_dr, [h0], (r0, r1), rel_tol=rel_tol,
                     events=events)
    hs = traj.ys[:, 0]
    if hs.max() > 1.0 + 1e-9 or hs.min() < -1e-12:
        raise RuntimeError("H left [0, 1] without triggering a guard event")
    return traj


@inlined_field
def reduced_time_ode(s, y):
    """Planar (r, psi) flow, time rescaled by the positive factor
    (r^2+4)^2.

    Same curves as the spherical system with the azimuth dropped; the
    rescaling keeps the right side polynomial and fold-friendly.
    """
    r, psi = y
    # At r = 0 or a psi past the float range: NaN slopes reject the step.
    if not (r != 0.0 and abs(psi) < math.inf):
        return (math.nan, math.nan)
    rr = r * r
    sin_psi, cos_psi = math.sin(psi), math.cos(psi)
    s2 = sin_psi * sin_psi
    dr = cos_psi * (rr * rr + 8.0 * rr - 64.0 * rr * s2 + 16.0)
    dpsi = -sin_psi * (rr * rr + 40.0 * rr - 64.0 * rr * s2 + 16.0) / r
    return dr, dpsi


def _fold_clearance(r: float, psi: float) -> float:
    """Positive when clear of both folds and both chart floors."""
    h = math.sin(psi) ** 2
    return min(abs(_locus_ratio(r, h)), 1.0 - h, h) - _RESUME_MARGIN


def trace_reduced(r0: float, psi0: float, r_target: float,
                  rel_tol: float = 1e-12) -> ReducedCurve:
    """Trace the reduced curve from (r0, psi0) toward r = r_target.

    Runs in r-parametrization while the graph H(r) is single-valued and
    hands over to the planar flow across folds (turning locus or the
    psi = pi/2 crossing), then resumes in r with the travel direction the
    fold imposes.  A target on the far side of a fold is unreachable
    along the physical curve; the result then reports reached=False with
    the traversed samples.
    """
    from .integrator import STOP_EVENT, STOP_REACHED_END, Event, integrate

    check_radius(r0, "r0")
    check_radius(r_target, "r_target")
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

    for _ in range(_MAX_SEGMENTS):
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
            traj = _trace_h(r, h, r_end, rel_tol)
            upper = psi > math.pi / 2.0
            log_r_segment(traj, upper)
            r = traj.t_end
            h = float(np.clip(traj.y_end[0], 0.0, 1.0))
            base = math.asin(math.sqrt(h))
            psi = math.pi - base if upper else base
            if traj.stop_reason == STOP_REACHED_END:
                if r_end == r_target:
                    curve.reached = True
                else:
                    curve.stop_note = "ran to the radial bound"
                break
            if traj.stop_reason != STOP_EVENT:  # step_underflow, max_steps
                curve.stop_note = (f"{traj.stop_reason.replace('_', ' ')} "
                                   f"in r-parametrization")
                break
            if traj.event == "h-floor":
                curve.stop_note = "H collapsed to 0"
                break
            # Fold ahead: fall through to the planar flow.
        # Planar-flow hand-over across the fold.
        v = reduced_time_ode(0.0, (r, psi))
        if v[0] == 0.0 and v[1] == 0.0:
            curve.stop_note = "stationary point of the planar flow"
            break
        s_sign = 1.0 if v[0] * direction >= 0.0 else -1.0
        events = (
            Event(fn=lambda s, y: _fold_clearance(*y), direction=1,
                  name="fold-cleared"),
            Event(fn=lambda s, y: y[0] - r_target, direction=0,
                  name="target-radius"),
            Event(fn=lambda s, y: y[0] - RADIUS_FLOOR, direction=-1,
                  name="radius-floor"),
            Event(fn=lambda s, y: abs(math.sin(y[1])) - SIN_PSI_FLOOR,
                  direction=-1, name="axis"),
        )
        traj = integrate(reduced_time_ode, [r, psi],
                         (0.0, s_sign * _MAX_PARAM), rel_tol=rel_tol,
                         events=events)
        rs.append(traj.ys[:, 0].copy())
        psis.append(traj.ys[:, 1].copy())
        curve.segments.append(traj)
        r, psi = float(traj.y_end[0]), float(traj.y_end[1])
        if traj.stop_reason != STOP_EVENT:
            curve.stop_note = ("planar flow exhausted its parameter budget"
                               if traj.stop_reason == STOP_REACHED_END else
                               f"{traj.stop_reason.replace('_', ' ')} in "
                               f"the planar flow")
            break
        if traj.event == "target-radius":
            curve.reached = True
            break
        if traj.event in ("radius-floor", "axis"):
            curve.stop_note = f"stopped at chart guard: {traj.event}"
            break
        # Fold crossed; new travel direction is whatever the flow imposes.
        curve.turning_crossings += 1
        v = reduced_time_ode(0.0, (r, psi))
        direction = 1.0 if s_sign * v[0] >= 0.0 else -1.0
    else:
        curve.stop_note = "segment budget exhausted"

    if not rs:
        rs, psis = [np.array([float(r0)])], [np.array([float(psi0)])]
    curve.rs = np.concatenate(rs)
    curve.psis = np.concatenate(psis)
    curve.hs = np.sin(curve.psis) ** 2
    return curve


def select_effective_form(
        curves: Sequence[tuple[float, float, float]]) -> FormSelection:
    """Measure which implicit-constant form is conserved.

    Traces each curve from (r0, h0) toward r1 with `trace_reduced` and
    evaluates both forms at its rows, every row of every curve in one
    array Bessel pass; an h0 outside (0, 1] raises ValueError naming it.
    A form's spread on a curve is (max - min) / |mean| of its constants
    there.  The form whose spread is at most 1e-8 on every curve is
    chosen; when none or both are, `chosen` is None.
    """
    for _, h0, _ in curves:
        if not 0.0 < h0 <= 1.0:
            raise ValueError(f"need 0 < h0 <= 1, got h0={h0!r}")
    traced = [trace_reduced(r0, math.asin(math.sqrt(h0)), r1)
              for r0, h0, r1 in curves]
    a, b, q = _bessel_terms(np.concatenate([c.rs for c in traced]),
                            np.concatenate([c.hs for c in traced]))
    den = a * q.i0 - b * q.i1
    cuts = np.cumsum([len(c.rs) for c in traced])[:-1]
    spreads = {}
    for form, k1_term in (("continued", b * q.k1), ("naive", -b * q.k1)):
        spreads[form] = [float((v.max() - v.min()) / abs(v.mean())) for v in
                         np.split(-(a * q.k0 + k1_term) / den, cuts)]
    conserved = [form for form, spread in spreads.items()
                 if all(s <= 1e-8 for s in spread)]
    return FormSelection(chosen=conserved[0] if len(conserved) == 1 else None,
                         spreads=spreads)


def solve_implicit(c_effective, r, bracket, n_scan: int = 64):
    """Solve the implicit relation for H at fixed r and effective constant.

    The bracket is scanned for sign changes of (C(r, H) - c_effective)
    times the I-combination denominator, which has the roots of
    C - c_effective and none of its poles; each root is polished to
    |dH| <= 1e-12, and with several roots the one nearest the bracket
    midpoint is returned with a multiplicity warning.

    `r`, `c_effective` and each end of `bracket` are floats or 1-d arrays,
    broadcast against each other: row k solves for H at r[k] with constant
    c_effective[k] in the bracket (lo[k], hi[k]) and keeps the root nearest
    that bracket's midpoint, with the bits of the same call on row k's
    floats.  `bracketed_roots` scans every row in one evaluation, brackets
    each sign change (signs compared, never multiplied) and refines all
    roots together as numpy lanes with `refine`'s bits, one evaluation per
    round; an evaluation of at least _ARRAY_MIN_POINTS points is one array
    pass, a smaller one goes point by point on the float path, with the same
    bits.  When every input is a float the result is a float, and no
    bracketed root raises ValueError; otherwise it is an array with NaN in
    the rows without a root.
    """
    inputs = (r, c_effective, bracket[0], bracket[1])
    if any(np.ndim(x) > 1 for x in inputs):
        raise ValueError("r, c_effective and the bracket ends must be "
                         "floats or 1-d arrays")
    try:
        rs, targets, h_lo, h_hi = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(x, dtype=float)) for x in inputs))
    except ValueError:
        raise ValueError(f"r, c_effective and the bracket ends do not "
                         f"broadcast: shapes "
                         f"{[np.shape(x) for x in inputs]}") from None
    if not (h_lo < h_hi).all():
        raise ValueError("empty bracket")

    def gap(rows: np.ndarray, h: np.ndarray):
        if h.size >= _ARRAY_MIN_POINTS:
            num, den = _combination(rs[rows], h)
            with np.errstate(over="ignore", invalid="ignore"):
                return num - targets[rows] * den
        return [_gap(r_k, h_k, target_k) for r_k, h_k, target_k in
                zip(rs[rows].tolist(), h.tolist(), targets[rows].tolist())]

    out, counts = bracketed_roots(gap, h_lo, h_hi, n_scan, 1e-12)
    if all(np.ndim(x) == 0 for x in inputs):
        if not counts[0]:
            # The scan points, inf or NaN where the width overflows.
            with np.errstate(over="ignore", invalid="ignore"):
                scan = np.linspace(h_lo[0], h_hi[0], n_scan + 1)
            raise _no_root_error(float(targets[0]), float(rs[0]), scan)
        if counts[0] > 1:
            warnings.warn(f"{counts[0]} roots in bracket; returning the "
                          f"one nearest the midpoint", stacklevel=2)
        return float(out[0])
    several = int(np.count_nonzero(counts > 1))
    if several:
        warnings.warn(f"{several} of {len(rs)} radii have several roots in "
                      f"the bracket; returning the one nearest the midpoint",
                      stacklevel=2)
    return out


def _gap(r: float, h: float, target: float) -> float:
    """C(r, H) - target times the I-combination, on the float path; NaN
    at a refused sample."""
    try:
        num, den = _combination(r, h)
    except ValueError:
        return math.nan
    return num - target * den


def _no_root_error(target: float, r: float, hs: np.ndarray) -> ValueError:
    """Why no root was bracketed: a tangency, or no crossing at all.

    Reads C - c1 at the points hs across the bracket; points that
    `implicit_constant` refuses (NaN) are skipped.
    """
    gaps = implicit_constant(r, hs).c_effective - target
    if not np.isnan(gaps).all():
        best = int(np.nanargmin(np.abs(gaps)))
        h_best, g_best = float(hs[best]), float(gaps[best])
        if abs(g_best) <= 1e-2 * max(1.0, abs(target)):
            return ValueError(
                f"no sign change on the bracket, but |C - c1| dips to "
                f"{abs(g_best):.2e} near H={h_best:.6g}: the level curve "
                f"is tangent there (turning locus), so H(r) folds and "
                f"the root is not bracketable in H")
    return ValueError("no sign change on the bracket")
