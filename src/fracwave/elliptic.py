"""Finite-difference assembly of non-symmetric second-order elliptic operators.

Discretizes  A v = -( sum_ij d_i(a_ij d_j v) + sum_j b_j d_j v + c v )  on a
1D interval or 2D rectangle with homogeneous Dirichlet conditions, second-order
centered stencils, and midpoint averages of the diffusion coefficients.  One
assembly serves both dimensions: each axis adds its three-point stencil as
array slices at flat offsets 0 and +-stride (stride 1 for x, nx for y), with
advection entries computed as b / (2h); the 2D mixed term is Dx L Dy + Dy L Dx
with Kronecker-product difference matrices.  The sign convention matches the
evolution problem d_t^alpha(u - a - bt) = -A u: for vanishing advection and c
the assembled matrix is the (positive) Dirichlet Laplacian-type operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EllipticityError

__all__ = [
    "Mesh",
    "CoefficientField",
    "DiscreteOperator",
    "assemble",
    "check_ellipticity",
    "subdomain_indices",
    "as_matrix",
]


@dataclass(frozen=True)
class Mesh:
    """Uniform grid on an interval or rectangle; unknowns live on interior nodes.

    ``interior`` counts nodes per axis (boundary nodes carry the Dirichlet
    condition and are eliminated).  Interior nodes are ordered x-fastest:
    in 2D the flat index of (ix, iy) is iy * nx + ix.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    interior: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.interior):
            raise ValueError("lo, hi and interior must have matching lengths")
        if self.dimension not in (1, 2):
            raise ValueError(f"only 1D and 2D meshes are supported, got {self.dimension}D")
        for lo, hi in zip(self.lo, self.hi):
            if not hi > lo:
                raise ValueError(f"degenerate axis [{lo}, {hi}]")
        for n in self.interior:
            if n < 2:
                raise ValueError(f"need at least 2 interior nodes per axis, got {n}")

    @property
    def dimension(self) -> int:
        return len(self.interior)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n + 1) for lo, hi, n in zip(self.lo, self.hi, self.interior)
        )

    @property
    def size(self) -> int:
        return int(np.prod(self.interior))

    def axis_nodes(self, axis: int, with_boundary: bool = False) -> np.ndarray:
        n = self.interior[axis]
        full = np.linspace(self.lo[axis], self.hi[axis], n + 2)
        return full if with_boundary else full[1:-1]

    def interior_coordinates(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays of the N interior nodes, in flat ordering."""
        inner = (slice(1, -1),) * self.dimension
        return tuple(g[inner].ravel() for g in _full_grids(self))


def _full_grids(mesh: Mesh) -> tuple[np.ndarray, ...]:
    if mesh.dimension == 1:
        return (mesh.axis_nodes(0, with_boundary=True),)
    x = mesh.axis_nodes(0, with_boundary=True)
    y = mesh.axis_nodes(1, with_boundary=True)
    return np.meshgrid(x, y)  # (ny+2, nx+2)


def _sample(fn, grids) -> np.ndarray:
    if callable(fn):
        vals = np.asarray(fn(*grids), dtype=float)
        return np.broadcast_to(vals, grids[0].shape).copy()
    return np.full(grids[0].shape, float(fn))


@dataclass
class CoefficientField:
    """Coefficient samples on the full grid (boundary nodes included).

    Diffusion samples are needed at boundary-adjacent midpoints, hence the full
    grid.  ``a12`` is stored once (the matrix is symmetric by construction).
    """

    mesh: Mesh
    a11: np.ndarray
    a22: np.ndarray | None = None
    a12: np.ndarray | None = None
    b1: np.ndarray | None = None
    b2: np.ndarray | None = None
    c: np.ndarray | None = None

    def __post_init__(self):
        grids = _full_grids(self.mesh)
        shape = grids[0].shape
        d = self.mesh.dimension

        def fix(arr, default):
            if arr is None:
                return np.full(shape, float(default))
            arr = np.asarray(arr, dtype=float)
            if arr.shape != shape:
                raise ValueError(
                    f"coefficient samples must have full-grid shape {shape}, got {arr.shape}"
                )
            return arr

        self.a11 = fix(self.a11, 1.0)
        self.b1 = fix(self.b1, 0.0)
        self.c = fix(self.c, 0.0)
        if d == 2:
            self.a22 = fix(self.a22, 1.0)
            self.a12 = fix(self.a12, 0.0)
            self.b2 = fix(self.b2, 0.0)
        else:
            for name in ("a22", "a12", "b2"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} is meaningless on a 1D mesh")

    @classmethod
    def from_callables(
        cls,
        mesh: Mesh,
        a11=1.0,
        a22=1.0,
        a12=0.0,
        b1=0.0,
        b2=0.0,
        c=0.0,
    ) -> "CoefficientField":
        """Sample scalar constants or callables fn(x) / fn(x, y) on the full grid."""
        grids = _full_grids(mesh)
        kw = dict(a11=_sample(a11, grids), b1=_sample(b1, grids), c=_sample(c, grids))
        if mesh.dimension == 2:
            kw.update(
                a22=_sample(a22, grids), a12=_sample(a12, grids), b2=_sample(b2, grids)
            )
        return cls(mesh, **kw)


def check_ellipticity(coeffs: CoefficientField) -> float:
    """Minimum over nodes of the smallest eigenvalue of the diffusion matrix.

    Closed form for d <= 2: in 1D this is min a11; in 2D the smaller root of
    the 2x2 symmetric eigenproblem at each node.
    """
    if coeffs.mesh.dimension == 1:
        return float(np.min(coeffs.a11))
    tr = 0.5 * (coeffs.a11 + coeffs.a22)
    disc = np.sqrt((0.5 * (coeffs.a11 - coeffs.a22)) ** 2 + coeffs.a12**2)
    return float(np.min(tr - disc))


@dataclass
class DiscreteOperator:
    """Dense matrix form of A acting on interior-node vectors."""

    matrix: np.ndarray = field(repr=False)
    mesh: Mesh
    coefficients: CoefficientField = field(repr=False)

    def __post_init__(self):
        n = self.mesh.size
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match mesh size {n}"
            )


def as_matrix(A) -> np.ndarray:
    """Accept a DiscreteOperator or a plain square array."""
    mat = A.matrix if isinstance(A, DiscreteOperator) else np.asarray(A)
    mat = np.atleast_2d(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _centered_difference(n: int, h: float) -> np.ndarray:
    """1D centered first-difference matrix with Dirichlet ends."""
    return (np.eye(n, k=1) - np.eye(n, k=-1)) / (2 * h)


def _assemble(mesh: Mesh, coeffs: CoefficientField) -> np.ndarray:
    d = mesh.dimension
    inner = (slice(1, -1),) * d
    N = mesh.size
    R = np.zeros((N, N))
    node = np.arange(N)
    stride = 1
    # divergence-form principal part (midpoint coefficient averages) and
    # centered advection, one axis at a time; axis k is array axis d - 1 - k
    for axis, (a, b) in enumerate([(coeffs.a11, coeffs.b1), (coeffs.a22, coeffs.b2)][:d]):
        n, h = mesh.interior[axis], mesh.spacing[axis]

        def shifted(s):  # samples at interior nodes moved by s along this axis
            idx = list(inner)
            idx[d - 1 - axis] = slice(1 + s, n + 1 + s)
            return a[tuple(idx)].ravel()

        a_plus = 0.5 * (shifted(0) + shifted(1))
        a_minus = 0.5 * (shifted(0) + shifted(-1))
        bc = b[inner].ravel()
        R[node, node] += -(a_plus + a_minus) / h**2
        pos = node // stride % n
        up, down = node[pos < n - 1], node[pos > 0]
        R[up, up + stride] = (a_plus / h**2 + bc / (2 * h))[up]
        R[down, down - stride] = (a_minus / h**2 - bc / (2 * h))[down]
        stride *= n

    if d == 2 and np.any(coeffs.a12[inner] != 0.0):
        # mixed terms d_x(a12 d_y v) + d_y(a12 d_x v) as Dx L Dy + Dy L Dx with
        # L = diag(a12 at interior nodes); Dx, Dy are antisymmetric, so the
        # mixed block is exactly symmetric
        (nx, ny), (hx, hy) = mesh.interior, mesh.spacing
        Dx = np.kron(np.eye(ny), _centered_difference(nx, hx))
        Dy = np.kron(_centered_difference(ny, hy), np.eye(nx))
        lam = coeffs.a12[inner].ravel()
        R += Dx @ (lam[:, None] * Dy) + Dy @ (lam[:, None] * Dx)

    R[node, node] += coeffs.c[inner].ravel()
    return -R


def assemble(mesh: Mesh, coeffs: CoefficientField) -> DiscreteOperator:
    """Assemble the dense interior-node matrix of A.

    Raises :class:`EllipticityError` if the diffusion matrix is not uniformly
    positive definite over the sampled nodes.
    """
    if coeffs.mesh != mesh:
        raise ValueError("coefficient field was sampled on a different mesh")
    eps0 = check_ellipticity(coeffs)
    if not eps0 > 0.0:
        raise EllipticityError(
            f"diffusion matrix is not uniformly elliptic: min eigenvalue {eps0:.6g}"
        )
    mat = _assemble(mesh, coeffs)
    return DiscreteOperator(mat, mesh, coeffs)


def subdomain_indices(mesh: Mesh, box) -> np.ndarray:
    """Indices (ascending) of interior nodes inside a sub-box.

    ``box`` is (lo, hi) in 1D or ((lox, hix), (loy, hiy)) in 2D; membership is
    by closed-interval coordinate test with a small relative tolerance.
    Raises ValueError when the box misses every interior node.
    """
    if mesh.dimension == 1:
        boxes = (tuple(box),) if np.ndim(box[0]) == 0 else tuple(box)
    else:
        boxes = tuple(tuple(b) for b in box)
    if len(boxes) != mesh.dimension:
        raise ValueError(f"box spec has {len(boxes)} axes, mesh has {mesh.dimension}")
    coords = mesh.interior_coordinates()
    mask = np.ones(mesh.size, dtype=bool)
    for axis, ((blo, bhi), xs) in enumerate(zip(boxes, coords)):
        if not bhi > blo:
            raise ValueError(f"degenerate box on axis {axis}: [{blo}, {bhi}]")
        tol = 1e-12 * max(1.0, abs(mesh.hi[axis] - mesh.lo[axis]))
        mask &= (xs >= blo - tol) & (xs <= bhi + tol)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise ValueError(f"sub-box {boxes} contains no interior node")
    return idx
