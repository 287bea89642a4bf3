"""Discrete Dirichlet Laplacian, its exact spectral core, and the linear
solvers built on them.

L is the matrix-free 3- or 5-point stencil; nothing is assembled. The
type-I discrete sine transform (DST-I) diagonalises it exactly (Buzbee,
Golub and Nielson 1970; Swarztrauber 1977), and L carries its
closed-form eigenvalues in the DST's coefficient order. Along an axis of
at most 512 nodes the DST is one BLAS product with the cached dense sine
matrix; longer axes use scipy.fft.dst, the package's only use of scipy.
Two solvers live here: preconditioned conjugate gradients for SPD
systems, and a bordered solver for operators A = L - sigma + (small
diagonal) whose near-kernel is the principal sine mode u0. The bordered
solve reads the u0 component of its solution off the row constraint and
runs CG with the projected operator P A, P = I - q q^T and
q = u0/||u0||, on the orthogonal complement of u0, where the DST inverse
of L - sigma with the principal mode zeroed is exact. `bordered_solve`
returns the unique kernel-orthogonal solution plus a scalar multiplier
xi equal to the kernel component of the right-hand side, so callers can
check solvability explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Callable

import numpy as np
import numpy.typing as npt

from .errors import ConvergenceError
from .mesh import Mesh, l2_norm

__all__ = [
    "Laplacian",
    "BorderedSolution",
    "dst",
    "spectral_inverse",
    "bordered_solve",
]

Array = npt.NDArray[np.float64]
MatVec = Callable[[Array], Array]


@dataclass(frozen=True, eq=False)
class Laplacian:
    """Matrix-free Dirichlet Laplacian: the 3-point (interval) or 5-point
    (rectangle) stencil on the grid shape, with 1/h^2 per axis."""

    shape: tuple[int, ...]
    inv_h2: tuple[float, ...]

    @staticmethod
    def of(mesh: Mesh) -> "Laplacian":
        return Laplacian(shape=mesh.spec.resolution, inv_h2=tuple(1.0 / h**2 for h in mesh.h))

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def eigenvalues(self) -> Array:
        """The eigenvalues of L in dst's coefficient order, principal first:
        sums over the axes of 4/h^2 sin^2(j pi / (2(n+1))), j = 1..n, the
        eigenvalues of each axis's 3-point stencil. Read-only."""
        axes = [
            4.0 * c * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
            for n, c in zip(self.shape, self.inv_h2)
        ]
        ev = reduce(np.add.outer, axes).ravel()
        ev.flags.writeable = False
        return ev

    def apply(self, v: Array) -> Array:
        """L v as a fresh array (callers hold earlier results), with one
        temporary per axis: the neighbours' values scaled by 1/h^2."""
        x = np.asarray(v).reshape(self.shape)
        out = x * (2.0 * sum(self.inv_h2))
        for c in self.inv_h2[:-1]:  # first axis of a rectangle
            scaled = c * x
            out[1:] -= scaled[:-1]
            out[:-1] -= scaled[1:]
        # the last axis on the flat, contiguous view; zeroing each row's end
        # entry in turn stops the shift coupling one row to the next
        c = self.inv_h2[-1]
        scaled = c * x
        scaled[..., -1] = 0.0
        flat, flat_scaled = out.reshape(-1), scaled.reshape(-1)
        flat[1:] -= flat_scaled[:-1]
        scaled[..., -1] = c * x[..., -1]
        scaled[..., 0] = 0.0
        flat[:-1] -= flat_scaled[1:]
        return flat


@dataclass(frozen=True, eq=False)
class BorderedSolution:
    """Kernel-orthogonal solution z of A z + xi*u0 = rhs with (z, u0) = 0."""

    z: Array
    xi: float
    residual_norm: float


# Axes up to this many nodes apply the DST-I as a dense sine-matrix product
# (one BLAS GEMM or GEMV); longer axes use scipy's FFT. With one BLAS thread
# the two cost the same near n = 500 in 1-D and 2-D, while the FFT length
# 2(n+1) often has a large prime factor and falls to Bluestein passes.
_SINE_MATRIX_MAX_N = 512


# Every mesh's corrector solve applies the DST, so a process that revisits
# several meshes rebuilds a matrix per visit once their distinct axis
# lengths outnumber the entries. 8 entries hold at most 16 MB (n = 512).
@lru_cache(maxsize=8)
def _sine_matrix(n: int) -> Array:
    """Orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi i j / (n+1)), i, j = 1..n:
    symmetric and its own inverse. Entries are read from one period of the
    sine table at the integer index (i*j) mod 2(n+1), so the argument is
    reduced exactly and only 2(n+1) sines are taken."""
    period = 2 * (n + 1)
    table = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.arange(period) / (n + 1))
    j = np.arange(1, n + 1)
    S = table[np.outer(j, j) % period]
    S.flags.writeable = False
    return S


def dst(L: Laplacian, v: Array) -> Array:
    """Orthonormal DST-I of a node vector along every axis: node values to
    sine-mode coefficients and back (the transform is its own inverse).
    Axes of at most _SINE_MATRIX_MAX_N nodes multiply by the cached sine
    matrix (symmetric, so no transpose): x @ S on the last axis, S @ x on
    the first axis of a 2-D grid; longer axes call scipy.fft.dst."""
    x = np.asarray(v).reshape(L.shape)
    for axis, n in enumerate(x.shape):
        if n <= _SINE_MATRIX_MAX_N:
            x = x @ _sine_matrix(n) if axis == x.ndim - 1 else _sine_matrix(n) @ x
        else:
            # imported here: scipy.fft adds about 0.2 s and 7 MB to start-up
            # and no axis within the sine-matrix limit needs it
            import scipy.fft

            x = scipy.fft.dst(x, type=1, norm="ortho", axis=axis)
    return x.ravel()


def spectral_inverse(L: Laplacian, sigma: float) -> MatVec:
    """Exact inverse of L - sigma on the orthogonal complement of the
    principal sine mode q, and zero along q: a DST, the diagonal
    1/(lambda_j - sigma) with the (1, ..., 1) mode zeroed, and a second DST."""
    inv = L.eigenvalues - sigma
    inv[0] = np.inf  # 1/inf = 0 zeroes q without a divide-by-zero warning
    np.divide(1.0, inv, out=inv)
    return lambda r: dst(L, inv * dst(L, r))


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


def solve_bordered_system(
    apply_op: MatVec,
    near_kernel: Array,
    col: Array,
    row: Array,
    f: Array,
    g: float,
    L: Laplacian,
    sigma: float,
    rtol: float,
    atol: float,
    max_iter: int,
) -> tuple[Array, float]:
    """Solve the bordered system  [ A   col ] [x]   [f]
                                  [ row^T 0 ] [y] = [g]
    where A (given as a matvec) may be singular with near-kernel
    direction `near_kernel`, the principal sine mode, and differs from
    L - sigma by at most a small diagonal.

    Preconditions: A is symmetric and row is parallel to q, the
    normalized near-kernel. The row then fixes the q component of x,
    c = g / (row.q), and x = c q + v with v orthogonal to q. With
    P = I - q q^T, CG on P A, preconditioned by the exact inverse of
    L - sigma on the complement of q, solves P A v1 = P (f - c A q) and,
    unless col is the near-kernel itself, P A v2 = P col. P A is SPD on
    that complement whenever A is positive there. The q component of the
    first block row gives y; A is symmetric, so (q, A v) = (A q, v) and
    x = c q + v1 - y v2. Each CG solve targets ||r|| <= max(rtol*||b||, atol).
    """
    q = near_kernel / np.sqrt(near_kernel @ near_kernel)
    precondition = spectral_inverse(L, sigma)

    def project(v: Array) -> Array:
        return v - (q @ v) * q

    def solve(b: Array, label: str) -> Array:
        x, resid, iters = _cg(
            lambda v: project(apply_op(v)), b, precondition, rtol=rtol, atol=atol, max_iter=max_iter
        )
        if resid > max(rtol * float(np.sqrt(b @ b)), atol):
            raise ConvergenceError(f"bordered solve stalled on the {label} system", resid, iters)
        return x

    c = g / (row @ q)
    aq = apply_op(q)
    r = f - c * aq
    v1 = solve(project(r), "rhs")
    if col is near_kernel or np.array_equal(col, near_kernel):
        v2 = np.zeros_like(v1)
    else:
        v2 = solve(project(col), "border")
    y = (q @ r - aq @ v1) / (q @ col - aq @ v2)
    return c * q + v1 - y * v2, float(y)


def bordered_solve(
    L: Laplacian,
    u0: Array,
    rhs: Array,
    mesh: Mesh,
    lambda0: float,
    tol: float = 1e-10,
) -> BorderedSolution:
    """Invert the singular operator A = L - lambda0 on the complement of u0.

    Solves A z + xi*u0 = rhs with (z, u0)_mesh = 0. xi reports the
    component of rhs along the kernel; it is NOT an error for xi to be
    nonzero -- callers needing exact solvability must test |xi|. One CG
    solve on the complement of u0, where its DST preconditioner is the
    exact inverse of A, takes one step.

    Preconditions: u0 is the mesh-normalized principal sine mode and A u0 ~ 0.
    """

    def apply_a(v: Array) -> Array:
        return L.apply(v) - lambda0 * v

    rhs = np.asarray(rhs, dtype=float)
    nrm = l2_norm(mesh, u0)
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"u0 must be mesh-normalized, got ||u0|| = {nrm:.3e}")
    kres = l2_norm(mesh, apply_a(u0))
    if kres > 1e-6:
        raise ValueError(f"u0 is not a kernel vector of L - lambda0 (residual {kres:.3e})")

    row = mesh.weight * u0  # row constraint: (z, u0)_mesh = 0
    # oversolve by 10x so the recombined residual stays within tol
    z, xi = solve_bordered_system(
        apply_a, u0, u0, row, rhs, 0.0, L, lambda0, 0.1 * tol, 0.1 * tol, max(2000, 4 * L.n)
    )
    res = l2_norm(mesh, apply_a(z) + xi * u0 - rhs)
    return BorderedSolution(z=z, xi=xi, residual_norm=res)
