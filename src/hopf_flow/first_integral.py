"""The parametric first-integral chain for the reduced flow.

A first integral Phi(r, phi, psi) = c2*phi + H(r, psi) of the spherical
flow leads to a quasilinear PDE for H.  Trading H and r for two
functions u, v of a parameter xi (with u = rho_xi and v = xi*rho_xi -
rho, a Legendre-type substitution) collapses that PDE to a first-order
linear equation for a single generating function rho(xi, psi), which has
the closed form implemented here (nine explicit terms plus an arbitrary
polynomial gauge F1(xi)).  H(r, psi) is then recovered by eliminating
the parameter: find xi* with v(xi*, psi) = r and read off u(xi*, psi).

Everything is evaluated in complex arithmetic on principal branches;
realness is observed, never assumed.  The discriminant
16 xi^2 - 24 xi^4 + xi^6 under the square root changes sign at
xi = 2 sqrt(2) -/+ 2 (~0.8284 and ~4.8284); between these the square
root is imaginary and the arctan argument sits on or near the branch cut
of the principal arctan, which makes the raw rho value jump by a
locally-constant (gauge) amount across the boundary while psi-derivatives
stay continuous.

A point or a grid.  rho_table, uv_table and reconstruct_H follow the
rule of special_functions.bessel_quad: when every point argument is a
scalar, the call runs the float path (cmath and math) and returns Python
numbers; anything else broadcasts over numpy arrays.  The float path is
the bit-pinned reference that the tests freeze.  Array entries match it
to round-off, not bitwise, because numpy and libm round transcendentals
differently.  A float point raises ValueError where rho, u or v is not
finite, naming xi, and where rho_table's residuals are indeterminate; an
array holds NaN there.

Residual conventions.  Every residual is scaled by the largest additive
term at the point ("relative to terms").  Two variants of the linear PDE
are measured: pde_direct is the transport form

    A(xi,psi) rho_psi + xi B(xi,psi) + c2 (32 xi - 8 xi^3),

and pde_parametric is the form obtained by eliminating (u, v)
from the parametric relation,

    -A(xi,psi) rho_psi + B(xi,psi) + c2 (32 xi^2 - 8 xi^4),

with A = xi^4 sin(psi) - 8 xi^2 sin(psi) + 16 xi^2 sin(3 psi) + 16
sin(psi) and B = xi^5 cos(psi) - 8 xi^3 cos(psi) + 16 xi^3 cos(3 psi) +
16 xi cos(psi).  The closed-form rho satisfies the parametric variant to
round-off; the direct form shows a systematic order-one residual, which
this package measures and reports rather than hides.  Likewise the
parametric relation and the H-equation accept reading="xi" (coefficient
polynomials evaluated at the parameter) or reading="v" (evaluated at the
reconstructed radius): the chain closes at round-off under the xi
reading only, and both numbers are reported.

Each residual of the chain has one entry, a method of the result it is
formed from, so one table serves every residual read from it: the
parametric relation is uv_table(...).relation_residual(reading), and
the H-equation and the flow derivative of Phi are
reconstruct_H(...).h_pde_residual(reading) and
reconstruct_H(...).phi_flow_derivative().
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import bracketed_roots, relative_to_terms
from .dual import Dual, atan, cos, derivative, log, sin, sqrt, value
from .fields import spherical_ode

DISC_XI_LOW = 2.0 * math.sqrt(2.0) - 2.0
DISC_XI_HIGH = 2.0 * math.sqrt(2.0) + 2.0


def poly_eval(coeffs: Sequence[float], x):
    """Ascending-coefficient polynomial, generic over Dual/complex."""
    acc = 0.0
    for c in reversed(tuple(coeffs)):
        acc = acc * x + c
    return acc


def half_angle_tan(psi):
    """chi = tan(psi/2) in the stable half-angle form, exactly 1 at the
    equator; generic over Dual inputs.  An infinite float or complex psi
    raises ValueError naming it."""
    try:
        return sin(psi) / (1.0 + cos(psi))
    except ValueError:  # math's and cmath's domain error at an infinity
        raise ValueError(f"need a finite psi, got psi={psi!r}") from None


def rho_raw(xi, psi, c2=1.0, f1: Sequence[float] = ()):
    """The closed-form generating function, generic over Dual inputs.

    Callers must pass complex (or Dual-of-complex) xi whenever the
    discriminant can go negative; no promotion happens here.  At a pair
    of plain numbers (int, float or complex) it returns a finite number
    or raises ValueError naming xi and psi; arrays hold NaN or inf there.
    """
    if not (isinstance(xi, (int, float, complex))
            and isinstance(psi, (int, float, complex))):
        return _rho_terms(xi, psi, c2, f1)
    try:
        rho = _rho_terms(xi, psi, c2, f1)
    except (ArithmeticError, ValueError):  # math's zero divisor or domain
        rho = math.nan
    if not cmath.isfinite(rho):
        raise ValueError(f"rho is not finite at xi={xi!r}, psi={psi!r}")
    return rho


def _rho_terms(xi, psi, c2, f1):
    """rho_raw's nine terms and gauge polynomial, unguarded."""
    chi = half_angle_tan(psi)
    chi2 = chi * chi
    x2 = xi * xi
    x3 = x2 * xi
    x4 = x2 * x2
    x5 = x4 * xi
    x6 = x4 * x2
    d4 = 16.0 + 40.0 * x2 + x4
    p = (x4 * chi2 * chi2 + 2.0 * x4 * chi2 + x4 + 40.0 * x2 * chi2 * chi2
         - 176.0 * x2 * chi2 + 40.0 * x2 + 16.0 * chi2 * chi2
         + 32.0 * chi2 + 16.0)
    s = sqrt(16.0 * x2 - 24.0 * x4 + x6)
    q = (2.0 * chi2 * d4 + 32.0 - 176.0 * x2 + 2.0 * x4) / (32.0 * s)
    at = atan(q)
    log_chi = log(chi)
    return (x5 * log_chi / d4
            + 16.0 * x3 * log(p) / d4
            + 8.0 * x3 * log_chi / d4
            - xi * log(chi2 + 1.0)
            + 16.0 * xi * log_chi / d4
            - 64.0 * c2 * x6 * at / (d4 * s)
            - 8.0 * c2 * x4 * log_chi / d4
            + 256.0 * c2 * x4 * at / (d4 * s)
            + 32.0 * c2 * x2 * log_chi / d4
            + poly_eval(f1, xi))


def transport_coefficient(w, psi):
    """A(w, psi): the coefficient multiplying the psi-derivative."""
    sin_psi = sin(psi)
    sin_3psi = sin(3.0 * psi)
    w2 = w * w
    return w2 * w2 * sin_psi - 8.0 * w2 * sin_psi + 16.0 * w2 * sin_3psi + 16.0 * sin_psi


def source_coefficient(w, psi):
    """B(w, psi): the radial-derivative / source polynomial."""
    cos_psi = cos(psi)
    cos_3psi = cos(3.0 * psi)
    w2 = w * w
    w3 = w2 * w
    return (w2 * w3 * cos_psi - 8.0 * w3 * cos_psi + 16.0 * w3 * cos_3psi
            + 16.0 * w * cos_psi)


def _linear_pde_terms(xi, psi, c2, a, rho_psi, variant: str) -> list:
    """The additive terms of the linear PDE for rho (module docstring)."""
    cos_psi = cos(psi)
    cos_3psi = cos(3.0 * psi)
    if variant == "direct":
        return [a * rho_psi,
                xi ** 6 * cos_psi, -8.0 * xi ** 4 * cos_psi,
                16.0 * xi ** 4 * cos_3psi, 16.0 * xi ** 2 * cos_psi,
                -8.0 * c2 * xi ** 3, 32.0 * c2 * xi]
    return [-a * rho_psi,
            xi ** 5 * cos_psi, -8.0 * xi ** 3 * cos_psi,
            16.0 * xi ** 3 * cos_3psi, 16.0 * xi * cos_psi,
            32.0 * c2 * xi ** 2, -8.0 * c2 * xi ** 4]


@dataclass(frozen=True)
class RhoTable:
    """rho and the quantities derived from it: values at one point, or
    one array entry per point."""

    rho: complex | np.ndarray
    u: complex | np.ndarray
    v: complex | np.ndarray
    rho_psi: complex | np.ndarray
    pde_direct: float | np.ndarray
    pde_parametric: float | np.ndarray


def _grid(xi, psi):
    """xi and psi as floats for a scalar pair, else as broadcast float
    arrays; raises unless every xi > 0 and every psi lies in (0, pi) with
    chi = tan(psi/2) = sin(psi) / (1 + cos(psi)) finite and positive."""
    scalar = np.ndim(xi) == 0 and np.ndim(psi) == 0
    xi, psi = np.broadcast_arrays(np.asarray(xi, dtype=float),
                                  np.asarray(psi, dtype=float))
    # At the least double, 5e-324, chi rounds to 0; within ~1e-8 of pi
    # cos(psi) rounds to -1, and chi divides by zero.
    if not (np.all((math.ulp(0.0) < psi) & (psi < math.pi))
            and np.all(np.cos(psi) > -1.0)):
        raise ValueError("psi must lie in (0, pi): chi = tan(psi/2) "
                         "degenerates at the ends")
    if not np.all(xi > 0.0):
        raise ValueError("xi must be positive")
    return (float(xi), float(psi)) if scalar else (xi, psi)


def _finite_at_a_point(table):
    """table, but a float pair whose float path divides by zero, overflows
    or leaves u or v not finite raises ValueError naming xi."""
    @functools.wraps(table)
    def guarded(xi, psi, c2: float = 1.0, f1: Sequence[float] = ()):
        try:
            out = table(xi, psi, c2, f1)
            if np.ndim(out.u) or np.isfinite([out.u, out.v]).all():
                return out
        except ArithmeticError:
            pass
        raise ValueError(f"rho, u and v are not finite at xi={xi!r} "
                         f"(psi={psi!r})")
    return guarded


@_finite_at_a_point
def rho_table(xi, psi, c2: float = 1.0,
              f1: Sequence[float] = ()) -> RhoTable:
    """rho, u = rho_xi and v from one xi-seeded dual pass, rho_psi from
    one psi-seeded pass, and both linear-PDE residuals.

    The residuals are scaled relative to terms (module docstring).  The
    gauge term F1 never enters them (no xi-derivative of rho appears),
    which the gauge checks measure rather than assume.  A float pair
    raises ValueError where the transport coefficient vanishes and
    leaves rho_psi undetermined; arrays give NaN residuals there.
    """
    xi, psi = _grid(xi, psi)
    xi_c, f1 = xi + 0.0j, tuple(f1)
    with np.errstate(all="ignore"):
        a = transport_coefficient(xi, psi)
        vanishes = abs(a) < 1e-12 * (xi ** 4 + 8.0 * xi ** 2
                                     + 16.0 * xi ** 2 + 16.0)
        if isinstance(xi, float) and vanishes:
            raise ValueError("indeterminate point: transport coefficient "
                             "vanishes")
        rho, u, v = _uv_maps(xi_c, psi, c2, f1)
        rho_psi = rho_raw(xi_c, Dual(psi, 1.0), c2, f1).eps
        pde = [relative_to_terms(_linear_pde_terms(xi, psi, c2, a, rho_psi,
                                                   variant))
               for variant in ("direct", "parametric")]
        if not isinstance(xi, float):
            pde = [np.where(vanishes, math.nan, p) for p in pde]
        return RhoTable(rho=rho, u=u, v=v, rho_psi=rho_psi,
                        pde_direct=pde[0], pde_parametric=pde[1])


def _uv_maps(x, psi, c2, f1):
    """rho, u = rho_xi and v = x u - rho at x, from one dual pass."""
    out = rho_raw(Dual(x, 1.0 + 0.0j), psi, c2, f1)
    return out.val, out.eps, x * out.eps - out.val


def _check_reading(reading: str) -> None:
    if reading not in ("xi", "v"):
        raise ValueError(f"unknown reading {reading!r}")


@dataclass(frozen=True)
class UVPair:
    """u = rho_xi and v = xi rho_xi - rho with their exact partials at
    (xi, psi) for the slope c2: values at one point, or one array entry
    per point.  The parametric-relation residual is a function of it, so
    one table serves both readings."""

    xi: float | np.ndarray
    psi: float | np.ndarray
    u: complex | np.ndarray
    v: complex | np.ndarray
    u_xi: complex | np.ndarray
    u_psi: complex | np.ndarray
    v_xi: complex | np.ndarray
    v_psi: complex | np.ndarray
    c2: float

    def relation_residual(self, reading: str = "xi"):
        """Scaled residual of the parametric (u, v) relation.

        reading="xi" evaluates the coefficient polynomials at the
        parameter xi; reading="v" evaluates them at the reconstructed
        radius v(xi, psi) as the substitution rules would dictate.  The
        closed form satisfies the xi reading at round-off; the v reading
        does not (reported, not hidden).
        """
        _check_reading(reading)
        w = self.xi if reading == "xi" else self.v
        a = transport_coefficient(w, self.psi)
        b = source_coefficient(w, self.psi)
        return relative_to_terms([-a * self.u_psi * self.v_xi,
                                  a * self.u_xi * self.v_psi,
                                  b * self.u_xi,
                                  -8.0 * self.c2 * w ** 3 * self.v_xi,
                                  32.0 * self.c2 * w * self.v_xi])


@_finite_at_a_point
def uv_table(xi, psi, c2: float = 1.0, f1: Sequence[float] = ()) -> UVPair:
    """u, v and their four partials by exact forward-mode seeding, at a
    float pair or over broadcastable arrays.

    The psi-partials come from one pass seeding complex xi at the inner
    dual level and psi at the outer, the xi-partials from the u and v
    maps at Dual(xi, 1), so the identity v_xi = xi * u_xi is a
    measurement of the implementation (the product rule executes in
    floating point), not a restatement of the algebra."""
    xi, psi = _grid(xi, psi)
    xi_c, f1 = xi + 0.0j, tuple(f1)
    with np.errstate(all="ignore"):
        mixed = rho_raw(Dual(Dual(xi_c, 1.0 + 0.0j), Dual(0.0j, 0.0j)),
                        Dual(Dual(psi, 0.0), Dual(1.0, 0.0)), c2, f1)
        # mixed.val is Dual(rho, u), mixed.eps Dual(rho_psi, u_psi).
        v, v_psi = (xi_c * d.eps - d.val for d in (mixed.val, mixed.eps))
        _, u_dual, v_dual = _uv_maps(Dual(xi_c, 1.0 + 0.0j), psi, c2, f1)
        return UVPair(xi=xi, psi=psi, u=mixed.val.eps, v=v, u_xi=u_dual.eps,
                      u_psi=mixed.eps.eps, v_xi=v_dual.eps, v_psi=v_psi,
                      c2=c2)


def _reconstruct_xi(r, psi, c2: float, f1: Sequence[float], bracket,
                    n_scan: int):
    """xi* with v(xi*, psi) = r, elementwise over broadcast r, psi and
    bracket ends, returned with r and psi: floats when all four are
    scalars, else broadcast arrays.  `bracketed_roots` scans every
    bracket in one array pass of v, brackets each sign change (signs
    compared, never multiplied) and refines all roots to 1e-10 together
    as numpy lanes with `refine`'s bits, one array pass per round; of
    several roots the one nearest the bracket midpoint is taken, with a
    warning.  A float point without a root raises ValueError, an array
    row without one is NaN."""
    scalar = all(np.ndim(a) == 0 for a in (r, psi, *bracket))
    r, psi, lo, hi = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                           for a in (r, psi, *bracket)))
    if not np.all((0.0 < lo) & (lo < hi)):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    f1 = tuple(f1)
    r_rows, psi_rows, lo, hi = (a.ravel() for a in (r, psi, lo, hi))

    def v_gap(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """v(x, psi) - r of the given rows, refusing a complex v."""
        with np.errstate(all="ignore"):
            v = _uv_maps(x + 0.0j, psi_rows[rows], c2, f1)[2]
        off = np.abs(v.imag) > 1e-6 * np.maximum(1.0, np.abs(v))
        if off.any():
            raise ValueError(f"v is not real at xi={float(x[off][0])!r} "
                             f"(Im v = {float(v[off][0].imag)!r}): bracket "
                             f"leaves the real region")
        return v.real - r_rows[rows]

    xi_star, counts = bracketed_roots(v_gap, lo, hi, n_scan, 1e-10)
    if scalar and not counts[0]:
        raise ValueError("no root of v(xi, psi) = r in the bracket")
    for k, count in enumerate(counts.tolist()):
        if count > 1:
            warnings.warn(f"{count} parameter roots of v(xi, "
                          f"{psi_rows[k]}) = {r_rows[k]} in bracket; using "
                          f"the one nearest its midpoint", stacklevel=3)
    if scalar:
        return float(xi_star[0]), float(r), float(psi)
    return xi_star.reshape(r.shape), r, psi


@dataclass(frozen=True)
class HReconstruction:
    """H's partials at (r, psi), found through the parameter xi* with
    v(xi*, psi) = r: H_r = u_xi / v_xi and H_psi = u_psi - v_psi u_xi /
    v_xi at xi*.  Floats at one point, else arrays broadcast over r, psi
    and the bracket ends.  The H-equation and flow-derivative residuals
    are functions of it, so one reconstruction serves all of them."""

    r: float | np.ndarray
    psi: float | np.ndarray
    xi_star: float | np.ndarray
    h_r: complex | np.ndarray
    h_psi: complex | np.ndarray
    c2: float

    def h_pde_residual(self, reading: str = "xi"):
        """H_r and H_psi substituted into the quasilinear H-equation,
        scaled, with coefficients at the parameter (reading="xi") or at
        the radius r itself (reading="v")."""
        _check_reading(reading)
        w = self.xi_star if reading == "xi" else self.r
        c2 = self.c2
        return relative_to_terms([source_coefficient(w, self.psi) * self.h_r,
                                  -transport_coefficient(w, self.psi)
                                  * self.h_psi,
                                  -8.0 * c2 * w ** 3,
                                  32.0 * c2 * w])

    def phi_flow_derivative(self):
        """The scaled rate of change of Phi = c2 phi + H along the flow,
        with the velocity from spherical_ode one point at a time: zero
        means Phi is a first integral."""
        r, psi = self.r, self.psi
        # The spherical field does not depend on phi, so any phi serves.
        vel = np.array([spherical_ode(0.0, (a, 0.0, b))
                        for a, b in zip(np.ravel(r), np.ravel(psi))])
        vel = vel.T.reshape((3,) + np.shape(r))
        dr, dphi, dpsi = vel.tolist() if isinstance(r, float) else vel
        return relative_to_terms([self.h_r.real * dr, self.c2 * dphi,
                                  self.h_psi.real * dpsi])


def reconstruct_H(r, psi, c2: float = 1.0, f1: Sequence[float] = (),
                  bracket=(0.05, 0.8), n_scan: int = 60) -> HReconstruction:
    """Eliminate the parameter: xi* with v(xi*, psi) = r, then H's
    partials from uv_table at xi*.  r, psi and the bracket ends
    broadcast.  A float point raises ValueError where the bracket holds
    no root or v_xi vanishes at xi*; an array row is NaN in xi_star, h_r
    and h_psi there.  A bracket whose scan or refinement leaves the real
    region refuses the whole call."""
    xi_star, r, psi = _reconstruct_xi(r, psi, c2, f1, bracket, n_scan)
    # A rootless row is read at xi = 1, then blanked.
    uv = uv_table(np.nan_to_num(xi_star, nan=1.0), psi, c2, f1)
    singular = np.abs(uv.v_xi) < 1e-12 * np.maximum(1.0, np.abs(uv.u_xi))
    if isinstance(xi_star, float) and singular:
        raise ValueError("chain-rule singularity: v_xi vanishes at the "
                         "reconstructed parameter")
    with np.errstate(all="ignore"):
        h_r = uv.u_xi / uv.v_xi
        h_psi = uv.u_psi - uv.v_psi * uv.u_xi / uv.v_xi
    if not isinstance(xi_star, float):
        blank = np.isnan(xi_star) | singular
        xi_star, h_r, h_psi = (np.where(blank, math.nan, a)
                               for a in (xi_star, h_r, h_psi))
    return HReconstruction(r=r, psi=psi, xi_star=xi_star, h_r=h_r,
                           h_psi=h_psi, c2=c2)


def xi_substitution_residual(r: float, phi: float, psi: float,
                             test_fn: Callable) -> float:
    """Mismatch between the two coefficient forms of the transport PDE.

    `test_fn(r, phi, xi)` is any smooth test function, differentiated by
    dual numbers.  The form in (r, phi, xi) at xi = sin(psi) is compared
    against the form in (r, phi, psi) applied to test_fn(r, phi,
    sin(psi)); the measured equality factor between them is 1.  For
    psi >= pi/2 the substitution's square root returns |cos psi|, not
    cos(psi), so the forms genuinely part ways there; a warning points
    that out.
    """
    if psi >= math.pi / 2.0:
        warnings.warn("psi >= pi/2: sqrt(1 - xi^2) equals |cos psi|, which "
                      "differs from cos psi on this branch", stacklevel=2)
    xi = math.sin(psi)
    cos_psi = math.cos(psi)
    root = math.sqrt(max(0.0, 1.0 - xi * xi))

    e_r = value(derivative(lambda rr: test_fn(rr, phi, xi), r))
    e_phi = value(derivative(lambda ph: test_fn(r, ph, xi), phi))
    e_xi = value(derivative(lambda x: test_fn(r, phi, x), xi))

    r2 = r * r
    r3 = r2 * r
    r4 = r2 * r2
    r5 = r4 * r
    eq_xi_terms = [
        e_r * root * r5, 8.0 * e_r * root * r3, -64.0 * e_r * root * r3 * xi * xi,
        16.0 * e_r * root * r,
        -8.0 * e_phi * r3, 32.0 * e_phi * r,
        -e_xi * root * xi * r4, -40.0 * e_xi * root * xi * r2,
        64.0 * e_xi * root * xi ** 3 * r2, -16.0 * e_xi * root * xi,
    ]
    c2psi = cos_psi * cos_psi
    sin_psi = math.sin(psi)
    phi_psi = e_xi * cos_psi
    eq_psi_terms = [
        (-sin_psi * r4 + 24.0 * sin_psi * r2 - 64.0 * sin_psi * r2 * c2psi
         - 16.0 * sin_psi) * phi_psi,
        (-8.0 * r3 + 32.0 * r) * e_phi,
        (cos_psi * r5 - 56.0 * cos_psi * r3 + 64.0 * c2psi * cos_psi * r3
         + 16.0 * cos_psi * r) * e_r,
    ]
    return relative_to_terms(eq_xi_terms + [-t for t in eq_psi_terms])
