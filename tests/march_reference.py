"""The time-stepping march in 80-bit arithmetic, as a reference for rounding.

:func:`march_reference` marches the scheme of ``fracwave.solver.solve_timestep``
in ``np.longdouble`` (64-bit mantissa on x86), with a Gauss-Jordan inverse
of I + kappa0 A and a ``tensordot`` history summed newest first.  It takes the
weights of ``rl_weights``, kappa0 and the grid nodes as the program computes
them in double precision, so its difference to the program is the program's
rounding in the march alone, not in those inputs.  Every column of a block
marches at once; states come back as doubles shaped (times, *source.a.shape).
"""

import math

import numpy as np

from fracwave.elliptic import as_matrix
from fracwave.fraccalc import rl_weights

LD = np.longdouble


def gauss_jordan_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination with partial pivoting, in the
    dtype of ``mat`` (``np.linalg`` has no 80-bit routines)."""
    n = mat.shape[0]
    work = np.hstack([mat, np.eye(n, dtype=mat.dtype)])
    for c in range(n):
        p = c + int(np.argmax(np.abs(work[c:, c])))
        if work[p, c] == 0:
            raise np.linalg.LinAlgError("singular matrix")
        work[[c, p]] = work[[p, c]]
        work[c] /= work[c, c]
        others = np.arange(n) != c
        work[others] -= np.outer(work[others, c], work[c])
    return work[:, n:]


def march_reference(A, source, alpha: float, times, grid) -> np.ndarray:
    """States of the product-trapezoid march at ``times`` (grid nodes),
    computed in 80-bit arithmetic."""
    mat = as_matrix(A).astype(LD)
    n, K = mat.shape[0], grid.K
    w, c0 = (x.astype(LD) for x in rl_weights(alpha, K))
    kappa0 = LD(grid.dt**alpha / math.gamma(alpha + 2.0))
    step = gauss_jordan_inverse(np.eye(n, dtype=LD) + kappa0 * mat)
    t = grid.nodes.astype(LD)
    a = source.a.reshape(n, -1).astype(LD)
    b = source.b.reshape(n, -1).astype(LD)
    u = np.empty((K + 1, *a.shape), dtype=LD)
    gu = np.empty_like(u)  # A u_j, oldest first
    u[0] = a
    gu[0] = mat @ a
    for k in range(1, K + 1):
        hist = c0[k] * gu[0]
        if k >= 2:
            hist = hist + np.tensordot(w[1:k], gu[k - 1 : 0 : -1], axes=1)
        u[k] = step @ (a + b * t[k] - kappa0 * hist)
        gu[k] = mat @ u[k]
    idx = np.rint(np.asarray(times, dtype=float) / grid.dt).astype(int)
    return u[idx].astype(float).reshape(len(idx), *source.a.shape)
