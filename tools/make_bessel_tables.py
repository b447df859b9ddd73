"""Write the Chebyshev tables of `hopf_flow.special_functions`.

Each table holds the coefficients a_k of f(t) = sum_k a_k T_k(t) on
t in [-1, 1] for one modified Bessel function, scaled or regularised, on
one region pair's interval of z, (0, 2], (2, 8] or (8, inf) (the maps
from z to t are listed in TABLES below and in the special_functions
docstring), highest order first, the order in which the Clenshaw
recurrence consumes them.  The coefficients come from
Gauss-Chebyshev projection of 40-digit mpmath values,

    a_k = (2 / N) sum_j f(cos theta_j) cos(k theta_j),
    theta_j = pi (j + 1/2) / N,  j = 0 .. N-1,

with a_0 halved, which is exact for polynomials of degree below N.  Both
functions of an interval share one length: the shortest whose dropped
tail sums to at most TAIL times the smallest |f| at the nodes.  With
DPS = 40, NODES = 48 and TAIL = 1e-17 the lengths are 10, 25 and 25 for
I and 11, 17 and 14 for K on the three intervals.

Run from the repository root (needs mpmath, a test dependency):

    python3 tools/make_bessel_tables.py

It rewrites src/hopf_flow/_bessel_tables.py.  The test suite re-runs
`tables()` and checks the committed file against it.
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp

DPS = 40
NODES = 48
TAIL = 1e-17
OUT = (Path(__file__).resolve().parents[1] / "src" / "hopf_flow"
       / "_bessel_tables.py")


def _i_low(z):
    return mp.besseli(0, z), mp.besseli(1, z) / z


def _i_mid(z):
    e = mp.exp(-z)
    return mp.besseli(0, z) * e, mp.besseli(1, z) * e / z


def _i_large(z):
    s = mp.exp(-z) * mp.sqrt(z)
    return mp.besseli(0, z) * s, mp.besseli(1, z) * s


def _k_small(z):
    log = mp.log(z / 2)
    return (mp.besselk(0, z) + log * mp.besseli(0, z),
            z * (mp.besselk(1, z) - log * mp.besseli(1, z)))


def _k_scaled(z):
    s = mp.exp(z) * mp.sqrt(z)
    return mp.besselk(0, z) * s, mp.besselk(1, z) * s


# (table name, z as a function of t, the order-0 and order-1 functions):
# one I and one K table on each region pair's interval.  On (0, 2] both
# are regular series in z**2; the I series needs no exponential scaling.
TABLES = (
    ("I_LOW", lambda t: mp.sqrt(2 * (t + 1)), _i_low),       # z in [0, 2]
    ("I_MID", lambda t: 3 * t + 5, _i_mid),                  # z in [2, 8]
    ("I_LARGE", lambda t: 16 / (t + 1), _i_large),           # z in [8, inf)
    ("K_SMALL", lambda t: mp.sqrt(2 * (t + 1)), _k_small),   # z in [0, 2]
    ("K_MID", lambda t: 16 / (3 * t + 5), _k_scaled),        # z in [2, 8]
    ("K_HIGH", lambda t: 16 / (t + 1), _k_scaled),           # z in [8, inf)
)


def _project(values: list, cosines: list) -> list:
    n = len(values)
    a = [2 * mp.fsum(v * c for v, c in zip(values, row)) / n
         for row in cosines]
    a[0] /= 2
    return a


def _length(a: list, floor) -> int:
    tail, n = mp.mpf(0), len(a)
    while n > 1 and tail + abs(a[n - 1]) <= TAIL * floor:
        n -= 1
        tail += abs(a[n])
    return n


def tables() -> dict[str, tuple[float, ...]]:
    """Every table, keyed by its name in _bessel_tables, as doubles,
    highest order first."""
    out = {}
    with mp.workdps(DPS):
        thetas = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
        nodes = [mp.cos(th) for th in thetas]
        cosines = [[mp.cos(k * th) for th in thetas] for k in range(NODES)]
        for name, z_of_t, fn in TABLES:
            pairs = [fn(z_of_t(t)) for t in nodes]
            coeffs = [_project([p[order] for p in pairs], cosines)
                      for order in (0, 1)]
            n = max(_length(a, min(abs(p[order]) for p in pairs))
                    for order, a in enumerate(coeffs))
            for order, a in enumerate(coeffs):
                key = f"{name[0]}{order}{name[1:]}"
                out[key] = tuple(float(c) for c in reversed(a[:n]))
    return out


def render(tabs: dict[str, tuple[float, ...]]) -> str:
    lines = [
        '"""Chebyshev coefficients of the scaled modified Bessel functions.',
        "",
        "Written by tools/make_bessel_tables.py; do not edit by hand.  Each",
        "tuple lists a_n, ..., a_1, a_0 of f(t) = sum_k a_k T_k(t) on",
        "t in [-1, 1], highest order first; special_functions documents",
        "each f and its map from z to t.",
        '"""',
        "",
    ]
    for key, coeffs in tabs.items():
        lines.append(f"{key} = (")
        lines.extend(f"    {c!r}," for c in coeffs)
        lines.append(")")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    OUT.write_text(render(tables()), encoding="ascii")
    print(f"wrote {OUT}")
