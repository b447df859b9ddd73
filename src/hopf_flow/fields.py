"""The unit vector field induced by the Hopf map on Euclidean 3-space.

Two presentations of the same flow live here: the Cartesian right-hand
side on (x, y, z), and a spherical-coordinate system on (r, phi, psi)
with psi the colatitude measured from the +z axis.  The spherical system
as written runs in reversed time relative to the pushforward of the
Cartesian field; `pushforward_sign` measures that orientation factor
(it comes out -1) rather than assuming it.

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

# Chart guards: spherical integration must stop before these floors.
RADIUS_FLOOR = 1e-6
SIN_PSI_FLOOR = 1e-8
# The Cartesian field divides by (s + 4)^2, s = |p|^2; below this bound on
# s + 4 that square, and s^2, stay finite.
_S_PLUS_4_MAX = 1e154


@dataclass(frozen=True)
class CartesianState:
    x: float
    y: float
    z: float
    t: float = 0.0

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class Velocity3:
    vx: float
    vy: float
    vz: float

    def norm(self) -> float:
        return math.sqrt(self.vx * self.vx + self.vy * self.vy + self.vz * self.vz)


@dataclass(frozen=True)
class SphericalState:
    """Point in the (r, phi, psi) chart, psi the colatitude in [0, pi].

    `on_axis` marks points where sin(psi) = 0 and the azimuth is a
    convention (0), not a measurement.  phi is stored unwrapped;
    reduce mod 2 pi only when reporting.
    """

    r: float
    phi: float
    psi: float
    on_axis: bool = False


@dataclass(frozen=True)
class SphericalVelocity:
    dr: float
    dphi: float
    dpsi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.dr, self.dphi, self.dpsi])


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
    mismatch under the winning sign, relative to the larger speed.  When
    no single sign fits every probe, `consistent` is False and sigma 0.
    """

    sigma: int
    max_residual: float
    samples: int
    consistent: bool = True


def _cartesian(x: float, y: float, z: float) -> tuple[float, float, float]:
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("non-finite Cartesian state")
    s = x * x + y * y + z * z
    if not s + 4.0 < _S_PLUS_4_MAX:
        # float() so a list state and an array state read the same.
        raise ValueError(f"Cartesian state ({float(x)!r}, {float(y)!r}, "
                         f"{float(z)!r}) overflows the field: "
                         f"(|p|^2 + 4)^2 exceeds the float range")
    d = (s + 4.0) ** 2
    return (8.0 * (4.0 * z * x - y * s + 4.0 * y) / d,
            8.0 * (4.0 * z * y + x * s - 4.0 * x) / d,
            (24.0 * x * x + 24.0 * y * y - 8.0 * z * z - s * s - 16.0) / d)


def eval_cartesian(p: CartesianState) -> Velocity3:
    """Unit-norm field at a point of R^3."""
    return Velocity3(*_cartesian(p.x, p.y, p.z))


def cartesian_ode(t: float, y: Sequence[float]) -> tuple[float, float, float]:
    """Integrator-facing signature; t is unused (the field is autonomous)."""
    return _cartesian(*y)


def _spherical(r: float, psi: float) -> tuple[float, float, float]:
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


def eval_spherical(s: SphericalState) -> SphericalVelocity:
    """Spherical system; reversed-time image of the Cartesian field."""
    return SphericalVelocity(*_spherical(s.r, s.psi))


def spherical_ode(t: float, y: Sequence[float]) -> tuple[float, float, float]:
    r, _, psi = y
    return _spherical(r, psi)


def to_spherical(p: CartesianState) -> SphericalState:
    """Chart map.  Raises at the origin; flags the z-axis (phi -> 0)."""
    x, y, z = p.x, p.y, p.z
    rho_sq = x * x + y * y
    r = math.sqrt(rho_sq + z * z)
    if r == 0.0:
        raise ValueError("origin: spherical chart undefined")
    if rho_sq == 0.0:
        return SphericalState(r=r, phi=0.0, psi=0.0 if z > 0 else math.pi,
                              on_axis=True)
    return SphericalState(r=r, phi=math.atan2(y, x), psi=math.acos(z / r))


def from_spherical(s: SphericalState) -> CartesianState:
    r, phi, psi = s.r, s.phi, s.psi
    sin_psi = math.sin(psi)
    return CartesianState(
        x=r * sin_psi * math.cos(phi),
        y=r * sin_psi * math.sin(phi),
        z=r * math.cos(psi),
    )


def derived_rates(p: CartesianState) -> DerivedRates:
    """Closed-form azimuth and planar-radius rates at a state."""
    s = p.norm_sq()
    d = (s + 4.0) ** 2
    rho_sq = p.x * p.x + p.y * p.y
    rate_arctan = 8.0 * (s - 4.0) / d if rho_sq > 0.0 else math.nan
    return DerivedRates(
        rate_arctan=rate_arctan,
        rate_r2=64.0 * p.z * rho_sq / d,
    )


def _pushforward_rates(p: CartesianState) -> SphericalVelocity:
    # Chain rule through r = |p|, phi = atan2(y,x), psi = acos(z/r).
    x, y, z = p.x, p.y, p.z
    v = eval_cartesian(p)
    rho_sq = x * x + y * y
    if rho_sq == 0.0:
        raise ValueError("probe on the z-axis: azimuth rate undefined")
    r = math.sqrt(rho_sq + z * z)
    dr = (x * v.vx + y * v.vy + z * v.vz) / r
    dphi = (x * v.vy - y * v.vx) / rho_sq
    sin_psi = math.sqrt(rho_sq) / r
    dpsi = (dr * (z / r) - v.vz) / (r * sin_psi)
    return SphericalVelocity(dr, dphi, dpsi)


def default_probes(n: int = 100, seed: int = 20260819) -> list[CartesianState]:
    """Reproducible off-axis probe set with radii spread over (0.3, 8)."""
    rng = np.random.default_rng(seed)
    probes = []
    while len(probes) < n:
        p = rng.uniform(-4.0, 4.0, size=3)
        rho_sq = p[0] * p[0] + p[1] * p[1]
        r = math.sqrt(rho_sq + p[2] * p[2])
        if rho_sq > 0.01 and 0.3 < r < 8.0:
            probes.append(CartesianState(*map(float, p)))
    return probes


def pushforward_sign(probe_set: list[CartesianState] | None = None) -> SignReport:
    """Measure the orientation factor between the two presentations.

    At each probe the pushforward of the Cartesian velocity is compared
    against the spherical right-hand side at the image point under both
    candidate signs; one sign must win everywhere, and its worst relative
    mismatch is reported.  Disagreement between probes yields an
    inconsistency report, not an exception.
    """
    if probe_set is None:
        probe_set = default_probes(100)
    votes: set[int] = set()
    worst = 0.0
    for p in probe_set:
        push = _pushforward_rates(p).as_array()
        sph = eval_spherical(to_spherical(p)).as_array()
        scale = max(np.max(np.abs(push)), np.max(np.abs(sph)))
        res_plus = float(np.max(np.abs(push - sph))) / scale
        res_minus = float(np.max(np.abs(push + sph))) / scale
        sign = 1 if res_plus < res_minus else -1
        votes.add(sign)
        worst = max(worst, min(res_plus, res_minus))
    if len(votes) != 1:
        return SignReport(sigma=0, max_residual=worst, samples=len(probe_set),
                          consistent=False)
    return SignReport(sigma=votes.pop(), max_residual=worst,
                      samples=len(probe_set))
