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
stay continuous.  RhoValue.near_branch_cut flags evaluations in that
regime.

Residual conventions.  Every residual is scaled by the largest additive
term at the point ("relative to terms").  Two variants of the linear PDE
are measured: variant="direct" is the transport form

    A(xi,psi) rho_psi + xi B(xi,psi) + c2 (32 xi - 8 xi^3),

and variant="parametric" is the form obtained by eliminating (u, v)
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
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import bracketed_roots, relative_to_terms
from .dual import Dual, atan, cos, derivative, log, sin, sqrt, value
from .fields import SphericalState, eval_spherical

DISC_XI_LOW = 2.0 * math.sqrt(2.0) - 2.0
DISC_XI_HIGH = 2.0 * math.sqrt(2.0) + 2.0


@dataclass(frozen=True)
class ParamPoint:
    """(xi, psi) evaluation point with the first-integral slope c2."""

    xi: float
    psi: float
    c2: float = 1.0

    @property
    def chi(self) -> float:
        # Half-angle form of tan(psi/2): stable on (0, pi) and exactly 1
        # at the floating-point pi/2.
        return math.sin(self.psi) / (1.0 + math.cos(self.psi))

    def __post_init__(self):
        if not 0.0 < self.psi < math.pi:
            raise ValueError("psi must lie in (0, pi): chi = tan(psi/2) "
                             "degenerates at the ends")
        if not self.xi > 0.0:
            raise ValueError("xi must be positive")


@dataclass(frozen=True)
class RhoValue:
    rho: complex
    rho_xi: complex
    region: str  # "real" | "complex" sign of the discriminant
    near_branch_cut: bool


@dataclass(frozen=True)
class UVPair:
    """u = rho_xi and v = xi rho_xi - rho with their exact partials."""

    u: complex
    v: complex
    u_xi: complex
    u_psi: complex
    v_xi: complex
    v_psi: complex


def poly_eval(coeffs: Sequence[float], x):
    """Ascending-coefficient polynomial, generic over Dual/complex."""
    acc = 0.0
    for c in reversed(tuple(coeffs)):
        acc = acc * x + c
    return acc


def rho_raw(xi, psi, c2=1.0, f1: Sequence[float] = ()):
    """The closed-form generating function, generic over Dual inputs.

    Callers must pass complex (or Dual-of-complex) xi whenever the
    discriminant can go negative; no promotion happens here.
    """
    chi = sin(psi) / (1.0 + cos(psi))  # tan(psi/2), stable half-angle form
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


def _discriminant(xi: float) -> float:
    x2 = xi * xi
    return 16.0 * x2 - 24.0 * x2 * x2 + x2 * x2 * x2


def _flags(xi: float, psi: float) -> tuple[str, bool]:
    disc = _discriminant(xi)
    x2 = xi * xi
    disc_scale = 16.0 * x2 + 24.0 * x2 * x2 + x2 * x2 * x2
    region = "real" if disc >= 0.0 else "complex"
    near = abs(disc) <= 1e-9 * disc_scale
    if not near:
        chi2 = (math.sin(psi) / (1.0 + math.cos(psi))) ** 2
        d4 = 16.0 + 40.0 * x2 + x2 * x2
        s = cmath.sqrt(disc)
        q = (2.0 * chi2 * d4 + 32.0 - 176.0 * x2 + 2.0 * x2 * x2) / (32.0 * s)
        # Principal arctan has cuts on the imaginary axis beyond +/-i.
        near = abs(q.real) <= 1e-6 * max(1.0, abs(q)) and abs(q.imag) >= 1.0 - 1e-6
    return region, near


def rho_eval(p: ParamPoint, f1: Sequence[float] = ()) -> RhoValue:
    """Closed-form rho and its exact xi-partial at one point."""
    seeded = rho_raw(Dual(complex(p.xi), 1.0 + 0.0j), p.psi, p.c2, f1)
    region, near = _flags(p.xi, p.psi)
    return RhoValue(rho=seeded.val, rho_xi=seeded.eps, region=region,
                    near_branch_cut=near)


def rho_psi_partial(p: ParamPoint, f1: Sequence[float] = ()) -> complex:
    """Exact psi-partial of rho by dual-number differentiation."""
    out = rho_raw(complex(p.xi), Dual(p.psi, 1.0), p.c2, f1)
    return complex(out.eps)


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


def _transport_vanishes(xi, a):
    """Whether A(xi, psi) = a is round-off, leaving rho_psi undetermined."""
    return abs(a) < 1e-12 * (xi ** 4 + 8.0 * xi ** 2 + 16.0 * xi ** 2 + 16.0)


def _linear_pde_terms(xi, psi, c2, a, rho_psi, variant: str) -> list:
    """The additive terms of the linear PDE for rho (module docstring)."""
    cos_psi = cos(psi)
    cos_3psi = cos(3.0 * psi)
    if variant == "direct":
        return [a * rho_psi,
                xi ** 6 * cos_psi, -8.0 * xi ** 4 * cos_psi,
                16.0 * xi ** 4 * cos_3psi, 16.0 * xi ** 2 * cos_psi,
                -8.0 * c2 * xi ** 3, 32.0 * c2 * xi]
    if variant == "parametric":
        return [-a * rho_psi,
                xi ** 5 * cos_psi, -8.0 * xi ** 3 * cos_psi,
                16.0 * xi ** 3 * cos_3psi, 16.0 * xi * cos_psi,
                32.0 * c2 * xi ** 2, -8.0 * c2 * xi ** 4]
    raise ValueError(f"unknown variant {variant!r}")


def linear_pde_residual(p: ParamPoint, f1: Sequence[float] = (),
                        variant: str = "direct") -> float:
    """Scaled residual of the linear PDE for rho at one point.

    variant="direct" is the transport form with source xi*B + c2(32 xi -
    8 xi^3); variant="parametric" the form the parametric elimination
    actually imposes (see module docstring).  The gauge term F1 never
    enters either (no xi-derivative of rho appears), which is measured
    rather than assumed by the F1-independence checks.
    """
    a = transport_coefficient(p.xi, p.psi)
    if _transport_vanishes(p.xi, a):
        raise ValueError("indeterminate point: transport coefficient vanishes")
    rp = rho_psi_partial(p, f1)
    return relative_to_terms(_linear_pde_terms(p.xi, p.psi, p.c2, a, rp,
                                               variant))


def _nested_pass(xi, psi, c2, f1):
    """rho, rho_xi, rho_psi and rho_xipsi from one two-variable pass.

    Complex xi is seeded at the inner dual level and psi at the outer
    level (sibling flat seeds would merge the two derivative channels).
    Scalars and broadcastable arrays alike.
    """
    xi_2 = Dual(Dual(xi, 1.0 + 0.0j), Dual(0.0j, 0.0j))
    psi_2 = Dual(Dual(psi, 0.0), Dual(1.0, 0.0))
    mixed = rho_raw(xi_2, psi_2, c2, f1)
    return mixed.val.val, mixed.val.eps, mixed.eps.val, mixed.eps.eps


@dataclass(frozen=True)
class RhoTable:
    """rho and the quantities derived from it, one array entry per point."""

    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    rho_psi: np.ndarray
    pde_direct: np.ndarray
    pde_parametric: np.ndarray


def _grid(xi, psi) -> tuple[np.ndarray, np.ndarray]:
    """xi and psi as broadcast float arrays, each point valid for ParamPoint."""
    xi, psi = np.broadcast_arrays(np.asarray(xi, dtype=float),
                                  np.asarray(psi, dtype=float))
    if not np.all((0.0 < psi) & (psi < math.pi)):
        raise ValueError("psi must lie in (0, pi): chi = tan(psi/2) "
                         "degenerates at the ends")
    if not np.all(xi > 0.0):
        raise ValueError("xi must be positive")
    return xi, psi


def rho_table(xi, psi, c2: float = 1.0,
              f1: Sequence[float] = ()) -> RhoTable:
    """rho, u, v, rho_psi and both linear-PDE residuals over whole arrays.

    xi and psi are broadcastable float arrays, each point valid for
    ParamPoint.  One nested dual pass serves every point, so the values
    match rho_eval, uv_from_rho and linear_pde_residual to round-off,
    not bitwise (numpy and libm round transcendentals differently).  A
    residual is NaN where the transport coefficient vanishes, the points
    at which linear_pde_residual raises.
    """
    xi, psi = _grid(xi, psi)
    xi_c = xi.astype(complex)
    with np.errstate(all="ignore"):
        rho, u, rho_psi, _ = _nested_pass(xi_c, psi, c2, tuple(f1))
        a = transport_coefficient(xi, psi)
        vanishes = _transport_vanishes(xi, a)
        pde = [np.where(vanishes, math.nan, relative_to_terms(
                   _linear_pde_terms(xi, psi, c2, a, rho_psi, variant)))
               for variant in ("direct", "parametric")]
        return RhoTable(rho=rho, u=u, v=xi_c * u - rho, rho_psi=rho_psi,
                        pde_direct=pde[0], pde_parametric=pde[1])


def _uv_maps(x, psi, c2, f1):
    """u(x) = rho_xi and v(x) = x u(x) - rho(x) from one dual pass at x."""
    out = rho_raw(Dual(x, 1.0 + 0.0j), psi, c2, f1)
    return out.eps, x * out.eps - out.val


def _uv_pair(xi, psi, c2, f1) -> UVPair:
    """u, v and their partials at complex xi, scalars or arrays alike.

    The psi-partials come from `_nested_pass`, the xi-partials from the
    u and v maps at Dual(xi, 1), so the identity v_xi = xi * u_xi is a
    measurement of the implementation (the product rule executes in
    floating point), not a restatement of the algebra."""
    rho, u, rho_psi, u_psi = _nested_pass(xi, psi, c2, f1)
    u_dual, v_dual = _uv_maps(Dual(xi, 1.0 + 0.0j), psi, c2, f1)
    return UVPair(u=u, v=xi * u - rho, u_xi=u_dual.eps, u_psi=u_psi,
                  v_xi=v_dual.eps, v_psi=xi * u_psi - rho_psi)


def uv_from_rho(p: ParamPoint, f1: Sequence[float] = ()) -> UVPair:
    """u, v and their four partials at one point by exact forward-mode
    seeding (`_uv_pair`)."""
    return _uv_pair(complex(p.xi), p.psi, p.c2, tuple(f1))


def uv_table(xi, psi, c2: float = 1.0, f1: Sequence[float] = ()) -> UVPair:
    """uv_from_rho over whole arrays (xi and psi as for rho_table): the
    same code, so the values match it to round-off, not bitwise."""
    xi, psi = _grid(xi, psi)
    with np.errstate(all="ignore"):
        return _uv_pair(xi.astype(complex), psi, c2, tuple(f1))


def _relation_residual(xi, psi, c2, uv: UVPair, reading: str):
    """The parametric relation's scaled residual; scalars or arrays."""
    if reading not in ("xi", "v"):
        raise ValueError(f"unknown reading {reading!r}")
    w = xi if reading == "xi" else uv.v
    a = transport_coefficient(w, psi)
    b = source_coefficient(w, psi)
    return relative_to_terms([-a * uv.u_psi * uv.v_xi,
                              a * uv.u_xi * uv.v_psi,
                              b * uv.u_xi,
                              -8.0 * c2 * w ** 3 * uv.v_xi,
                              32.0 * c2 * w * uv.v_xi])


def parametric_relation_residual(p: ParamPoint, f1: Sequence[float] = (),
                                 reading: str = "xi",
                                 uv: UVPair | None = None) -> float:
    """Scaled residual of the parametric (u, v) relation at one point.

    reading="xi" evaluates the coefficient polynomials at the parameter
    xi; reading="v" evaluates them at the reconstructed radius v(xi,psi)
    as the substitution rules would dictate.  The closed form satisfies
    the xi reading at round-off; the v reading does not (reported, not
    hidden).  A precomputed UVPair for the same point may be passed to
    avoid recomputing the partials.
    """
    if uv is None:
        uv = uv_from_rho(p, f1)
    return _relation_residual(complex(p.xi), p.psi, p.c2, uv, reading)


def _reconstruct_xi(r, psi, c2: float, f1: Sequence[float], bracket,
                    n_scan: int) -> np.ndarray:
    """xi* with v(xi*, psi) = r, elementwise over broadcast r, psi and
    bracket ends: one array pass scans every bracket, `bracketed_roots`
    refines each root on the scalar v to 1e-10, and of several roots the
    one nearest the bracket midpoint is taken, with a warning."""
    r, psi, lo, hi = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                           for a in (r, psi, *bracket)))
    if not np.all((0.0 < lo) & (lo < hi)):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    f1 = tuple(f1)

    def v_real(x, psi):
        with np.errstate(all="ignore"):
            x, v = np.broadcast_arrays(x, _uv_maps(x + 0.0j, psi, c2, f1)[1])
        off = np.abs(v.imag) > 1e-6 * np.maximum(1.0, np.abs(v))
        if off.any():
            raise ValueError(f"v is not real at xi={float(x[off][0])!r} "
                             f"(Im v = {float(v[off][0].imag)!r}): bracket "
                             f"leaves the real region")
        return v.real

    xs = lo[..., None] + (hi - lo)[..., None] * np.arange(n_scan + 1) / n_scan
    scan = v_real(xs, psi[..., None])
    xi_star = np.empty(r.shape)
    for k in np.ndindex(r.shape):
        roots = bracketed_roots(
            lambda x, r=float(r[k]), psi=float(psi[k]):
                float(v_real(x, psi)) - r,
            float(lo[k]), float(hi[k]), n_scan, 1e-10,
            fs=(scan[k] - r[k]).tolist())
        if not roots:
            raise ValueError("no root of v(xi, psi) = r in the bracket")
        if len(roots) > 1:
            warnings.warn(f"{len(roots)} parameter roots of v(xi, {psi[k]}) = "
                          f"{r[k]} in bracket; using the one nearest its "
                          f"midpoint", stacklevel=3)
        xi_star[k] = min(roots, key=lambda x: abs(x - 0.5 * (lo[k] + hi[k])))
    return xi_star


def _h_partials(uv: UVPair):
    """H_r = u_xi / v_xi and H_psi = u_psi - v_psi u_xi / v_xi."""
    if np.any(np.abs(uv.v_xi) < 1e-12 * np.maximum(1.0, np.abs(uv.u_xi))):
        raise ValueError("chain-rule singularity: v_xi vanishes at the "
                         "reconstructed parameter")
    return uv.u_xi / uv.v_xi, uv.u_psi - uv.v_psi * uv.u_xi / uv.v_xi


def _h_pde_residual(xi_star, r, psi, uv: UVPair, c2, reading: str):
    """The H-equation's scaled residual at the root xi* of radius r."""
    if reading not in ("xi", "v"):
        raise ValueError(f"unknown reading {reading!r}")
    h_r, h_psi = _h_partials(uv)
    w = xi_star if reading == "xi" else r
    return relative_to_terms([source_coefficient(w, psi) * h_r,
                              -transport_coefficient(w, psi) * h_psi,
                              -8.0 * c2 * w ** 3,
                              32.0 * c2 * w])


def h_pde_residual(r: float, psi: float, c2: float = 1.0,
                   f1: Sequence[float] = (), reading: str = "xi",
                   bracket: tuple[float, float] = (0.05, 0.8),
                   n_scan: int = 60) -> float:
    """End-to-end scaled residual of the H-equation at (r, psi).

    Reconstructs the parameter, forms H_r = u_xi / v_xi and
    H_psi = u_psi - v_psi u_xi / v_xi, and substitutes into the
    quasilinear H-equation with coefficients at the parameter
    (reading="xi") or at the radius r itself (reading="v").
    """
    xi_star = float(_reconstruct_xi(r, psi, c2, f1, bracket, n_scan))
    uv = uv_from_rho(ParamPoint(xi_star, psi, c2), f1)
    return _h_pde_residual(xi_star, r, psi, uv, c2, reading)


def _phi_flow_residual(uv: UVPair, c2, vel):
    """Scaled d Phi / dt from uv at the root and the flow velocity vel."""
    h_r, h_psi = _h_partials(uv)
    return relative_to_terms([h_r.real * vel.dr, c2 * vel.dphi,
                              h_psi.real * vel.dpsi])


def phi_flow_derivative(state: SphericalState, c2: float = 1.0,
                        f1: Sequence[float] = (),
                        bracket: tuple[float, float] = (0.05, 0.8)) -> float:
    """Scaled rate of change of Phi = c2 phi + H(r, psi) along the flow.

    H comes from the parametric reconstruction; the derivative uses the
    actual flow velocity, so this measures end to end whether Phi is
    conserved (zero means first integral).
    """
    xi_star = float(_reconstruct_xi(state.r, state.psi, c2, f1, bracket, 60))
    uv = uv_from_rho(ParamPoint(xi_star, state.psi, c2), f1)
    return _phi_flow_residual(uv, c2, eval_spherical(state))


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
