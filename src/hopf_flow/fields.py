"""The unit vector field induced by the Hopf map on Euclidean 3-space.

Two presentations of the same flow live here: the Cartesian right-hand
side on (x, y, z), and a spherical-coordinate system on (r, phi, psi)
with psi the colatitude measured from the +z axis.  The spherical system
as written runs in reversed time relative to the pushforward of the
Cartesian field; `pushforward_sign` measures that orientation factor
(it comes out -1) rather than assuming it.

A point is plain coordinates: any sequence of three floats (a tuple, a
list or an array row), (x, y, z) in the Cartesian chart and (r, phi, psi)
in the spherical one.  `cartesian_ode(t, p)` and `spherical_ode(t, s)` are
the one field per chart, in the integrator's signature; a caller probing
one point passes t = 0.0.  Both are ordinary functions under the
`integrator.inlined_field` decorator, so `integrate` writes their bodies
into its steps.  Results come back as tuples, of Python floats when the
point's coordinates are Python floats; `derived_rates` and
`pushforward_sign` return small named records.

The Cartesian field has unit Euclidean norm at every point, so its flow
parameter is arclength.  Two derived rates admit closed forms: the
azimuth rate d/dt atan2(y, x) equals 8 (s - 4) / (s + 4)^2 with
s = x^2 + y^2 + z^2, and the planar radius rate d/dt (x^2 + y^2) equals
64 z (x^2 + y^2) / (s + 4)^2.  The azimuth rate vanishes identically on
the sphere s = 4, where orbits close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrator import inlined_field

# Chart guards: spherical integration must stop before these floors.
RADIUS_FLOOR = 1e-6
SIN_PSI_FLOOR = 1e-8
# The Cartesian field divides by (s + 4)^2, s = |p|^2; below this bound on
# s + 4 that square, and s^2, stay finite.
_S_PLUS_4_MAX = 1e154
# sqrt(_S_PLUS_4_MAX): 1e77 * 1e77 is exactly 1e154 in floating point.
_COORD_MAX = 1e77


@dataclass(frozen=True)
class DerivedRates:
    """Closed-form rates along the Cartesian flow at one state.

    rate_arctan is NaN on the z-axis, where the azimuth is undefined.
    """

    rate_arctan: float
    rate_r2: float


@dataclass(frozen=True)
class SignReport:
    """Measured orientation between the two presentations of the flow.

    `sigma` is the factor in J V_cartesian = sigma V_spherical, J the
    Jacobian of the chart map.  `max_residual` is the worst componentwise
    mismatch under the sign most probes fit, relative to the larger speed,
    so a probe that fits the other sign shows its mismatch.  When no
    single sign fits every probe, `consistent` is False and sigma 0.
    """

    sigma: int
    max_residual: float
    samples: int
    consistent: bool = True


def _refuse_cartesian(x, y, z):
    """Raise the error of a Cartesian state outside the field's domain: a
    coordinate that is not finite, or |p|^2 + 4 at or past
    _S_PLUS_4_MAX."""
    if math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
        # float() so a list state and an array state read the same.
        raise ValueError(f"Cartesian state ({float(x)!r}, {float(y)!r}, "
                         f"{float(z)!r}) overflows the field: "
                         f"(|p|^2 + 4)^2 exceeds the float range")
    raise ValueError("non-finite Cartesian state")


@inlined_field
def cartesian_ode(t, p):
    """Unit-norm field (vx, vy, vz) at p = (x, y, z); t is unused (the
    field is autonomous)."""
    x, y, z = p
    # Each coordinate is bounded before anything is squared, so an array
    # state is refused without a numpy overflow warning.  NaN fails the
    # bound, and a finite |c| >= _COORD_MAX would fail the next guard.
    if not (abs(x) < _COORD_MAX and abs(y) < _COORD_MAX
            and abs(z) < _COORD_MAX):
        return _refuse_cartesian(x, y, z)
    s = x * x + y * y + z * z
    if not s + 4.0 < _S_PLUS_4_MAX:
        return _refuse_cartesian(x, y, z)
    d = (s + 4.0) ** 2
    return (8.0 * (4.0 * z * x - y * s + 4.0 * y) / d,
            8.0 * (4.0 * z * y + x * s - 4.0 * x) / d,
            (24.0 * x * x + 24.0 * y * y - 8.0 * z * z - s * s - 16.0) / d)


@inlined_field
def spherical_ode(t, s):
    """Spherical system (dr, dphi, dpsi) at s = (r, phi, psi): the
    reversed-time image of the Cartesian field.  It does not depend on
    phi or t."""
    r, phi, psi = s
    if r <= 0.0:
        raise ValueError("spherical evaluation requires r > 0")
    rr = r * r
    q = 16.0 + rr * (8.0 + rr)
    sin_psi = math.sin(psi)
    cos_psi = math.cos(psi)
    s2 = sin_psi * sin_psi
    dphi = -8.0 * (rr - 4.0) / q
    dr = (rr * rr + 8.0 * rr - 64.0 * rr * s2 + 16.0) * cos_psi / q
    dpsi = -sin_psi * (rr * rr + 40.0 * rr - 64.0 * rr * s2 + 16.0) / (r * q)
    return dr, dphi, dpsi


def to_spherical(p: Sequence[float]) -> tuple[float, float, float]:
    """Chart map (x, y, z) -> (r, phi, psi).  Raises at the origin; on the
    z-axis phi is 0 by convention and psi exactly 0 or pi."""
    x, y, z = p
    rho_sq = x * x + y * y
    r = math.sqrt(rho_sq + z * z)
    if r == 0.0:
        raise ValueError("origin: spherical chart undefined")
    if rho_sq == 0.0:
        return r, 0.0, 0.0 if z > 0 else math.pi
    return r, math.atan2(y, x), math.acos(z / r)


def from_spherical(s: Sequence[float]) -> tuple[float, float, float]:
    """Inverse chart map (r, phi, psi) -> (x, y, z)."""
    r, phi, psi = s
    sin_psi = math.sin(psi)
    return (r * sin_psi * math.cos(phi), r * sin_psi * math.sin(phi),
            r * math.cos(psi))


def derived_rates(p: Sequence[float]) -> DerivedRates:
    """Closed-form azimuth and planar-radius rates at p = (x, y, z)."""
    x, y, z = p
    if not (abs(x) < _COORD_MAX and abs(y) < _COORD_MAX
            and abs(z) < _COORD_MAX):
        _refuse_cartesian(x, y, z)
    s = x * x + y * y + z * z
    if not s + 4.0 < _S_PLUS_4_MAX:
        _refuse_cartesian(x, y, z)
    d = (s + 4.0) ** 2
    rho_sq = x * x + y * y
    rate_arctan = 8.0 * (s - 4.0) / d if rho_sq > 0.0 else math.nan
    return DerivedRates(rate_arctan=rate_arctan, rate_r2=64.0 * z * rho_sq / d)


def _pushforward_rates(p: Sequence[float]) -> tuple[float, float, float]:
    # Chain rule through r = |p|, phi = atan2(y,x), psi = acos(z/r).
    x, y, z = p
    vx, vy, vz = cartesian_ode(0.0, p)
    rho_sq = x * x + y * y
    if rho_sq == 0.0:
        raise ValueError("probe on the z-axis: azimuth rate undefined")
    r = math.sqrt(rho_sq + z * z)
    dr = (x * vx + y * vy + z * vz) / r
    dphi = (x * vy - y * vx) / rho_sq
    sin_psi = math.sqrt(rho_sq) / r
    dpsi = (dr * (z / r) - vz) / (r * sin_psi)
    return dr, dphi, dpsi


def default_probes() -> list[tuple[float, float, float]]:
    """Reproducible set of 100 off-axis probes with radii spread over
    (0.3, 8)."""
    rng = np.random.default_rng(20260819)
    probes = []
    while len(probes) < 100:
        p = rng.uniform(-4.0, 4.0, size=3)
        rho_sq = p[0] * p[0] + p[1] * p[1]
        r = math.sqrt(rho_sq + p[2] * p[2])
        if rho_sq > 0.01 and 0.3 < r < 8.0:
            probes.append(tuple(map(float, p)))
    return probes


def pushforward_sign() -> SignReport:
    """Measure the orientation factor between the two presentations.

    At each of the `default_probes` (x, y, z) the pushforward of the
    Cartesian velocity is compared against the spherical right-hand side
    at the image point under both candidate signs; one sign must win
    everywhere.  Every probe is scored under the sign most probes pick
    (-1 on a tie), and the worst relative mismatch is reported.
    Disagreement between probes yields an inconsistency report, not an
    exception.
    """
    probes = default_probes()
    # Per probe, the mismatch under sigma = +1 and under sigma = -1.
    scores = []
    for p in probes:
        push = _pushforward_rates(p)
        sph = spherical_ode(0.0, to_spherical(p))
        scale = max(map(abs, push + sph))
        scores.append((max(abs(a - b) for a, b in zip(push, sph)) / scale,
                       max(abs(a + b) for a, b in zip(push, sph)) / scale))
    n_plus = sum(p < m for p, m in scores)
    sigma = 1 if 2 * n_plus > len(scores) else -1
    worst = max(m if sigma < 0 else p for p, m in scores)
    consistent = n_plus in (0, len(scores))
    return SignReport(sigma=sigma if consistent else 0, max_residual=worst,
                      samples=len(probes), consistent=consistent)
