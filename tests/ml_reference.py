"""Arbitrary-precision Mittag-Leffler reference values, and their table.

The large-argument values cost about a minute of mpmath summation, so they
are tabulated once in ``ml_reference.json``.  Regenerate the table with

    python tests/ml_reference.py
"""

import json
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
    return {(r["alpha"], r["beta"], r["z"]): complex(r["re"], r["im"]) for r in rows}


def main() -> None:
    rows = []
    for alpha, beta, z in LARGE_NEGATIVE:
        value = ml_reference(alpha, beta, z)
        rows.append({"alpha": alpha, "beta": beta, "z": z, "re": value.real, "im": value.imag})
    TABLE.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
