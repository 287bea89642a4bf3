"""Discrete Dirichlet Laplacian, its exact spectral core, and the linear
solvers built on them.

The type-I discrete sine transform (DST-I) diagonalises L exactly
(Buzbee, Golub and Nielson 1970; Swarztrauber 1977). Two solvers live
here: preconditioned conjugate gradients for SPD systems, and a bordered
solver for the singular operator A = L - lambda0*I whose kernel is the
principal eigenvector, preconditioned by the DST inverse of A + k*u0 u0^T.
The bordered solve returns the unique kernel-orthogonal solution plus a
scalar multiplier xi equal to the kernel component of the right-hand
side, so callers can check solvability explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from .errors import ConvergenceError
from .mesh import Mesh, l2_norm

__all__ = [
    "SparseOperator",
    "BorderedSolution",
    "assemble_laplacian",
    "axis_eigenvalues",
    "dst",
    "spectral_inverse",
    "solve_spd",
    "bordered_solve",
]

Array = npt.NDArray[np.float64]
MatVec = Callable[[Array], Array]


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """Sparse symmetric operator in compressed-row storage."""

    n: int
    matrix: sp.csr_matrix
    symmetric: bool = True

    @property
    def row_offsets(self) -> npt.NDArray[np.int32]:
        return self.matrix.indptr

    @property
    def col_indices(self) -> npt.NDArray[np.int32]:
        return self.matrix.indices

    @property
    def values(self) -> Array:
        return self.matrix.data

    def apply(self, x: Array) -> Array:
        return self.matrix @ x

    def shifted(self, shift: float) -> "SparseOperator":
        """The operator minus shift times the identity (same sparsity)."""
        shifted = (self.matrix - shift * sp.identity(self.n, format="csr")).tocsr()
        shifted.sort_indices()
        return SparseOperator(n=self.n, matrix=shifted, symmetric=self.symmetric)

    def symmetry_defect(self) -> float:
        """Largest absolute entry of M - M^T."""
        d = self.matrix - self.matrix.T
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0


@dataclass(frozen=True, eq=False)
class BorderedSolution:
    """Kernel-orthogonal solution z of A z + xi*u0 = rhs with (z, u0) = 0."""

    z: Array
    xi: float
    residual_norm: float


def _laplacian_1d(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags_array([off, main, off], offsets=[-1, 0, 1]).tocsr()


def assemble_laplacian(mesh: Mesh) -> SparseOperator:
    """Second-order central-difference Laplacian with Dirichlet rows
    eliminated: 3-point stencil on intervals, 5-point on rectangles.
    """
    blocks = [_laplacian_1d(n, h) for n, h in zip(mesh.spec.resolution, mesh.h)]
    if mesh.dim == 1:
        L = blocks[0]
    else:
        l0, l1 = blocks
        i0 = sp.identity(l0.shape[0], format="csr")
        i1 = sp.identity(l1.shape[0], format="csr")
        L = (sp.kron(l0, i1) + sp.kron(i0, l1)).tocsr()
    L.sort_indices()
    return SparseOperator(n=mesh.n_nodes, matrix=L, symmetric=True)


def axis_eigenvalues(mesh: Mesh) -> list[Array]:
    """Eigenvalues 4/h^2 sin^2(j pi / (2(n+1))), j = 1..n, of each axis's
    3-point stencil; those of L are their sums, one per sine mode."""
    return [
        4.0 / h**2 * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
        for n, h in zip(mesh.spec.resolution, mesh.h)
    ]


def dst(mesh: Mesh, v: Array) -> Array:
    """Orthonormal DST-I of a node vector along every axis, each read off
    the FFT of the odd extension (0, x, 0, -reversed x): node values to
    sine-mode coefficients and back (the transform is its own inverse)."""
    x = mesh.grid(v)
    for axis in range(mesh.dim):
        x = np.moveaxis(x, axis, -1)
        n = x.shape[-1]
        odd = np.zeros(x.shape[:-1] + (2 * n + 2,))
        odd[..., 1 : n + 1] = x
        odd[..., n + 2 :] = -x[..., ::-1]
        x = np.moveaxis(np.fft.rfft(odd).imag[..., 1 : n + 1] * (-1.0 / np.sqrt(2.0 * (n + 1))), -1, axis)
    return x.ravel()


def spectral_inverse(mesh: Mesh, sigma: float, kernel_shift: float) -> MatVec:
    """Exact inverse of L - sigma + kernel_shift * q q^T, q the normalized
    principal sine mode: a DST, a diagonal scaling and a second DST."""
    diag = reduce(np.add.outer, axis_eigenvalues(mesh)).ravel() - sigma
    diag[0] += kernel_shift
    inv = 1.0 / diag
    return lambda r: dst(mesh, inv * dst(mesh, r))


def _cg(
    matvec: MatVec,
    b: Array,
    precondition: MatVec,
    rtol: float,
    atol: float,
    max_iter: int,
) -> tuple[Array, float, int]:
    """Conjugate gradients for SPD matvec, preconditioned by an SPD
    approximate inverse; stops at ||r|| <= max(rtol*||b||, atol).

    Returns (x, achieved absolute residual, iterations). If the target is
    below the rounding floor the best iterate seen is returned once the
    residual stops improving; callers decide whether that is an error.
    """
    target = max(rtol * float(np.sqrt(b @ b)), atol)
    x = np.zeros_like(b)
    r = b.copy()
    rr = float(r @ r)
    if np.sqrt(rr) <= target:
        return x, float(np.sqrt(rr)), 0
    stall_window = max(200, b.size)
    z = precondition(r)
    rz = float(r @ z)
    p = z
    best_x, best_rr, best_k = x.copy(), rr, 0
    for k in range(1, max_iter + 1):
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise ConvergenceError(
                "conjugate gradients hit non-positive curvature; operator is not SPD",
                residual=float(np.sqrt(rr)),
                iterations=k,
            )
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rr = float(r @ r)
        if np.sqrt(rr) <= target:
            return x, float(np.sqrt(rr)), k
        if rr < best_rr:
            best_x, best_rr, best_k = x.copy(), rr, k
        elif k - best_k > stall_window:
            # rounding floor reached; return the best iterate seen
            return best_x, float(np.sqrt(best_rr)), k
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return best_x, float(np.sqrt(best_rr)), max_iter


def solve_spd(
    op: SparseOperator,
    b: Array,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> Array:
    """Solve op x = b for SPD op with ||op x - b|| <= tol * max(1, ||b||).

    Raises ConvergenceError carrying the achieved residual when the
    iteration budget runs out.
    """
    b = np.asarray(b, dtype=float)
    if max_iter is None:
        max_iter = max(2000, 4 * op.n)
    x, resid, iters = _cg(op.apply, b, lambda r: r, rtol=tol, atol=tol, max_iter=max_iter)
    rel = resid / max(1.0, float(np.sqrt(b @ b)))
    if rel > tol:
        raise ConvergenceError("solve_spd did not converge", residual=rel, iterations=iters)
    return x


def solve_bordered_system(
    apply_op: MatVec,
    near_kernel: Array,
    col: Array,
    row: Array,
    f: Array,
    g: float,
    precondition: MatVec,
    rtol: float,
    atol: float,
    max_iter: int,
    kernel_shift: float = 1.0,
) -> tuple[Array, float]:
    """Solve the bordered system  [ A   col ] [x]   [f]
                                  [ row^T 0 ] [y] = [g]
    where A (given as a matvec) may be singular with near-kernel
    direction `near_kernel`.

    A is regularized to M = A + kernel_shift * q q^T with q the
    normalized near-kernel; M is SPD whenever A is positive semidefinite
    with its soft direction along q. Three CG solves with M,
    preconditioned by the SPD approximate inverse `precondition`, plus a
    2x2 Schur system recover (x, y); the row constraint is then enforced
    exactly by a rank-one correction along q. Each inner solve targets
    ||r|| <= max(rtol*||b||, atol).
    """
    q = near_kernel / np.sqrt(near_kernel @ near_kernel)

    def m_apply(v: Array) -> Array:
        return apply_op(v) + kernel_shift * (q @ v) * q

    def solve(b: Array, label: str) -> Array:
        x, resid, iters = _cg(m_apply, b, precondition, rtol=rtol, atol=atol, max_iter=max_iter)
        if resid > max(rtol * float(np.sqrt(b @ b)), atol):
            raise ConvergenceError(f"bordered solve stalled on the {label} system", resid, iters)
        return x

    a = solve(f, "rhs")
    bvec = solve(q, "kernel")
    if col is near_kernel or np.array_equal(col, near_kernel):
        d = np.sqrt(near_kernel @ near_kernel) * bvec
    else:
        d = solve(col, "border")

    # x = a + kernel_shift*t*bvec - y*d with t = q.x; two scalar
    # equations (the definition of t and the row constraint) close it
    lhs = np.array(
        [
            [1.0 - kernel_shift * (q @ bvec), q @ d],
            [kernel_shift * (row @ bvec), -(row @ d)],
        ]
    )
    rhs = np.array([q @ a, g - row @ a])
    t, y = np.linalg.solve(lhs, rhs)
    x = a + kernel_shift * t * bvec - y * d

    # enforce the row constraint exactly; the correction is O(rounding)
    defect = (row @ x - g) / (row @ q)
    x = x - defect * q
    return x, float(y)


def bordered_solve(
    A: SparseOperator,
    u0: Array,
    rhs: Array,
    mesh: Mesh,
    lambda0: float,
    tol: float = 1e-10,
    kernel_shift: float = 1.0,
) -> BorderedSolution:
    """Invert the singular operator A = L - lambda0 on the complement of u0.

    Solves A z + xi*u0 = rhs with (z, u0)_mesh = 0. xi reports the
    component of rhs along the kernel; it is NOT an error for xi to be
    nonzero -- callers needing exact solvability must test |xi|. CG takes
    one step, preconditioned by the exact inverse of A + kernel_shift*q q^T.

    Preconditions: u0 is the mesh-normalized principal sine mode and A u0 ~ 0.
    """
    rhs = np.asarray(rhs, dtype=float)
    nrm = l2_norm(mesh, u0)
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"u0 must be mesh-normalized, got ||u0|| = {nrm:.3e}")
    kres = l2_norm(mesh, A.apply(u0))
    if kres > 1e-6:
        raise ValueError(f"u0 is not a kernel vector of A (residual {kres:.3e})")

    row = mesh.quad_weights * u0  # row constraint: (z, u0)_mesh = 0
    precondition = spectral_inverse(mesh, lambda0, kernel_shift)
    # oversolve by 10x so the recombined residual stays within tol
    z, xi = solve_bordered_system(
        A.apply, u0, u0, row, rhs, 0.0, precondition, 0.1 * tol, 0.1 * tol, max(2000, 4 * A.n), kernel_shift
    )
    res = l2_norm(mesh, A.apply(z) + xi * u0 - rhs)
    return BorderedSolution(z=z, xi=xi, residual_norm=res)
