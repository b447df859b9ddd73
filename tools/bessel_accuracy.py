"""Print the accuracy of `hopf_flow.special_functions` against mpmath.

For each of I0, I1, K0 and K1, the largest relative error of
`bessel_quad` against 40-digit mpmath values over POINTS log-spaced
points in [1e-3, 300] (the grid the special_functions docstring quotes),
for each region pair and over the whole grid.

Run from the repository root (needs mpmath, a test dependency):

    PYTHONPATH=src python3 tools/bessel_accuracy.py
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from hopf_flow import special_functions as sf

DPS = 40
POINTS = 2000
NAMES = ("i0", "i1", "k0", "k1")
_FUNCTIONS = ((mp.besseli, 0), (mp.besseli, 1), (mp.besselk, 0),
              (mp.besselk, 1))


def errors(zs: np.ndarray) -> np.ndarray:
    """Relative errors of I0, I1, K0 and K1 at zs, one row each."""
    got = sf.bessel_quad(zs)[1:]
    with mp.workdps(DPS):
        return np.array([[float(abs(mp.mpf(g) / fn(order, z) - 1))
                          for g, z in zip(row.tolist(), zs.tolist())]
                         for row, (fn, order) in zip(got, _FUNCTIONS)])


def main() -> None:
    zs = np.geomspace(1e-3, sf.Z_MAX, POINTS)
    err = errors(zs)
    lo, hi = sf._SPLITS
    pairs = {f"(0, {lo:g}]": zs <= lo,
             f"({lo:g}, {hi:g}]": (zs > lo) & (zs <= hi),
             f"({hi:g}, {sf.Z_MAX:g}]": zs > hi, "all": zs > 0.0}
    print(f"{'pair':>12} {'points':>6} " + " ".join(f"{n:>9}" for n in NAMES))
    for label, mask in pairs.items():
        print(f"{label:>12} {int(mask.sum()):>6} "
              + " ".join(f"{row[mask].max():9.2e}" for row in err))


if __name__ == "__main__":
    main()
