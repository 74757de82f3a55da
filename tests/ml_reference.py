"""Arbitrary-precision Mittag-Leffler reference values, and their table.

The large-argument values cost about a minute of mpmath summation, so they
are tabulated once in ``ml_reference.json``.  Regenerate the table with

    python tests/ml_reference.py
"""

import cmath
import json
import math
from pathlib import Path

import mpmath as mp

TABLE = Path(__file__).with_name("ml_reference.json")

# (alpha, beta, z) of the large negative arguments the tests check
LARGE_NEGATIVE = [
    (alpha, beta, -q)
    for alpha in (1.2, 1.5, 1.9)
    for beta in (1.0, 2.0)
    for q in (15.0, 50.0, 400.0, 4000.0)
]

# alpha near both ends of (1, 2); near 1 the sum needs |z|^(1/alpha) terms,
# so |z| stays at most 400
NEAR_ENDS = [
    (alpha, beta, -q) for alpha in (1.05, 1.95) for beta in (1.0, 2.0) for q in (15.0, 50.0, 400.0)
]

# rays 0.01 and 0.05 rad either side of arg z = (2 - alpha) pi, where a root
# of s^alpha = z meets the branch cut
NEAR_CUT = [
    (alpha, 1.0, mod * cmath.exp(1j * ((2.0 - alpha) * math.pi + off)))
    for alpha in (1.25, 1.5)
    for off in (-0.05, -0.01, 0.01, 0.05)
    for mod in (12.0, 60.0)
]

# the largest argument of the configs/demo.ini observation map
DEMO_LARGEST = [(1.5, beta, -4345.888965098841) for beta in (1.0, 2.0)]

# alpha near 1, beta below 1 and |z| = 10, where the power series lost
# 8e-11, 3e-11 and 1.5e-12 to cancellation before the contour took over
SERIES_EDGE = [
    (1.0, 0.53, cmath.rect(10.0, 1.9)),
    (1.05, 0.5, cmath.rect(10.0, 2.5)),
    (1.1, 0.5, cmath.rect(10.0, 2.5)),
]

# alpha = 1 at |z| = 10 on and 0.05 rad either side of the negative axis,
# where the power series lost up to 1e-11 (beta = 1) and 9e-13 (beta = 2) to
# cancellation before the closed forms took over
NEGATIVE_AXIS = [
    (1.0, beta, z)
    for beta in (1.0, 2.0)
    for z in (-10.0, cmath.rect(10.0, math.pi - 0.05), cmath.rect(10.0, 0.05 - math.pi))
]

POINTS = LARGE_NEGATIVE + NEAR_ENDS + NEAR_CUT + DEMO_LARGEST + SERIES_EDGE + NEGATIVE_AXIS


def ml_reference(alpha, beta, z):
    """Arbitrary-precision series sum; the exponent budget tracks the term hump."""
    need = 50 + 2 * int(0.4343 * abs(z) ** (1.0 / alpha))
    with mp.workdps(need):
        am, bm, zm = mp.mpf(alpha), mp.mpf(beta), mp.mpc(z)
        total = mp.mpc(0)
        hump = abs(z) ** (1.0 / alpha)
        for k in range(6000):
            term = zm**k / mp.gamma(am * k + bm)
            total += term
            if abs(term) < mp.mpf(10) ** (-need + 8) and k > 5 and k > hump:
                break
        return complex(total)


def load_table() -> dict:
    """{(alpha, beta, z): E_{alpha,beta}(z)} as tabulated."""
    rows = json.loads(TABLE.read_text())
    return {
        (r["alpha"], r["beta"], complex(r["z"], r["z_im"]) if "z_im" in r else r["z"]):
        complex(r["re"], r["im"])
        for r in rows
    }


def main() -> None:
    rows = []
    for alpha, beta, z in POINTS:
        value = ml_reference(alpha, beta, z)
        arg = {"z": z} if isinstance(z, float) else {"z": z.real, "z_im": z.imag}
        rows.append({"alpha": alpha, "beta": beta, **arg, "re": value.real, "im": value.imag})
    TABLE.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
