"""Discrete Dirichlet Laplacian on the mirror-symmetric half grid, held
by its exact spectral core, and the linear solvers built on it.

The stencil, the principal sine mode and every branch of the problem are
invariant under the reflection of each axis, so the package works on
mirror-symmetric vectors alone: ceil(n/2) nodes per axis in the
orthonormal coordinates y = sqrt(m) u, m a node's mirror multiplicity, so
Euclidean dot products, and with them CG, every projection below and the
pairing weight * (f . g), are those of the full grid. `Laplacian`, the one
grid object, is the 3- or 5-point Dirichlet stencil on them, and it is
never applied as a stencil: the type-I discrete sine transform (DST-I)
diagonalises the full-grid stencil exactly (Buzbee, Golub and Nielson
1970; Swarztrauber 1977); on the half grid its odd-mode half T per axis
does, and L carries the odd-mode eigenvalues in T's coefficient order, so
L is the diagonal L.eigenvalues on the sine coefficients. Along an axis
of at most 512 nodes T is one BLAS product with a cached dense matrix;
longer axes take the DST-I from numpy's real FFT. L also keeps each
axis's full-grid stencil eigenvalues, whose sums are lambda0 and lambda1,
with no grid vector, and the node vector of the principal coefficient,
formed on first read.

Two solvers live here: preconditioned conjugate gradients, and one
bordered form [A col; e0^T 0][x; y] = [f; 0] in L's odd sine
coefficients, for A = L - sigma plus a small diagonal d on the node
values. There L - sigma is the diagonal L.eigenvalues - sigma, and u0,
A's near-kernel, is coefficient 0: the projection off u0 drops it, CG's
preconditioner is the diagonal's exact inverse, and d adds T(d * T^T c).
The corrector's `bordered_solve` has no d and needs no y, so its one CG
step is exact to rounding and runs no transform; a Newton step's CG
takes two transforms per iteration, and A e0 one more, from the cached
principal node vector, and the border column's CG stops where y allows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Callable

import numpy as np
import numpy.typing as npt

from .errors import ConvergenceError
from .mesh import DomainSpec

__all__ = ["Laplacian", "bordered_solve"]

Array = npt.NDArray[np.float64]
MatVec = Callable[[Array], Array]


@dataclass(frozen=True, eq=False)
class Laplacian:
    """Dirichlet Laplacian of spec's grid, the 3-point (interval) or
    5-point (rectangle) stencil with 1/h^2 per axis, on mirror-symmetric
    vectors in the coordinates y = sqrt(m) u of the first ceil(n/2) nodes
    per axis, held as its eigenvalues on the odd sine coefficients. It
    carries the grid: the spacing h, 1/h^2 and the one quadrature weight
    prod(h) of every node."""

    spec: DomainSpec

    @property
    def shape(self) -> tuple[int, ...]:
        """The full grid's interior nodes per axis."""
        return self.spec.resolution

    @cached_property
    def h(self) -> tuple[float, ...]:
        return self.spec.h

    @cached_property
    def inv_h2(self) -> tuple[float, ...]:
        return tuple(1.0 / h**2 for h in self.h)

    @cached_property
    def weight(self) -> float:
        """prod(h), the quadrature weight of every node: the pairing of node
        vectors f and g is weight * (f . g), the composite rectangle rule
        (the trapezoid rule for functions vanishing on the boundary)."""
        return math.prod(self.h)

    @cached_property
    def grid(self) -> tuple[int, ...]:
        """The shape of this operator's node vectors, ceil(n/2) per axis."""
        return tuple((n + 1) // 2 for n in self.shape)

    @property
    def n(self) -> int:
        return math.prod(self.grid)

    @cached_property
    def eigenvalues(self) -> Array:
        """The eigenvalues of L in `transform`'s coefficient order, principal
        first: sums over the axes of the odd entries j = 1, 3, ... of
        `axis_eigenvalues`, the odd modes. Read-only."""
        ev = reduce(np.add.outer, [axis[::2] for axis in self.axis_eigenvalues]).ravel()
        ev.flags.writeable = False
        return ev

    @cached_property
    def axis_eigenvalues(self) -> tuple[Array, ...]:
        """Each axis's full-grid 3-point stencil eigenvalues, j = 1..n."""
        return tuple(_stencil_eigenvalues(n, c) for n, c in zip(self.shape, self.inv_h2))

    def mode_eigenvalue(self, modes: tuple[int, ...]) -> float:
        """The eigenvalue of the full-grid sine mode (j_1, ..., j_d), j from
        1: the axes' eigenvalues summed in axis order."""
        return float(reduce(operator.add, [ev[j - 1] for ev, j in zip(self.axis_eigenvalues, modes)]))

    @cached_property
    def sqrt_multiplicity(self) -> Array:
        """sqrt(m) per node, the factor from nodal values to coordinates."""
        return reduce(np.multiply.outer, [_sqrt_multiplicity(n) for n in self.shape]).ravel()

    def transform(self, v: Array) -> Array:
        """Node vector to odd sine-mode coefficients: T along every axis."""
        return _sine_transform(self, v, inverse=False)

    def inverse_transform(self, c: Array) -> Array:
        """Odd sine-mode coefficients back to the node vector: T^T per axis."""
        return _sine_transform(self, c, inverse=True)

    @cached_property
    def principal_nodes(self) -> Array:
        """T^T e0, the node vector of the principal coefficient: the
        normalized sine mode u0 times sqrt(weight). Read-only."""
        v = self.inverse_transform(np.eye(1, self.n)[0])
        v.flags.writeable = False
        return v


def _stencil_eigenvalues(n: int, c: float) -> Array:
    """4c sin^2(j pi / (2(n+1))) for j = 1..n: the eigenvalues of an n-node
    3-point stencil with c = 1/h^2."""
    return 4.0 * c * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2


# Axes up to this many nodes apply T as a dense matrix product (one BLAS
# GEMM or GEMV); longer axes use the FFT. With one BLAS thread the dense T
# is faster up to about 800 nodes. Accuracy does not set the limit: the
# corrector, solved in the coefficients, is within 4e-15 of the full-grid
# oracle on either branch. It stays at 512 until the crossover is measured
# again, with the matrix cache bounded by bytes (ROADMAP.md item 22).
_SINE_MATRIX_MAX_N = 512


# Every corrector solve and Newton step applies these; 8 entries of each
# cache hold at most 4 MB (n = 512), 8 MB for T and its transpose.
@lru_cache(maxsize=8)
def _half_dst_matrix(n: int) -> Array:
    """The half-grid DST T, ceil(n/2) square and orthogonal: the odd-mode
    rows i = 1, 3, ... of the orthonormal DST-I matrix
    sqrt(2/(n+1)) sin(pi i j / (n+1)) over the first ceil(n/2) nodes j, each
    column scaled by sqrt(m). A mirror-symmetric u has no even modes, and
    its odd ones are T y for y = sqrt(m) u. Entries are read from one period
    of the sine table at the integer index (i*j) mod 2(n+1), so the argument
    is reduced exactly and only 2(n+1) sines are taken."""
    k = (n + 1) // 2
    period = 2 * (n + 1)
    table = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.arange(period) / (n + 1))
    T = table[np.outer(np.arange(1, n + 1, 2), np.arange(1, k + 1)) % period] * _sqrt_multiplicity(n)
    T.flags.writeable = False
    return T


@lru_cache(maxsize=8)
def _half_dst_matrix_transposed(n: int) -> Array:
    """T^T as a read-only C-contiguous copy: BLAS multiplies by T's transposed view 40-55 % slower."""
    T_t = np.ascontiguousarray(_half_dst_matrix(n).T)
    T_t.flags.writeable = False
    return T_t


def _sqrt_multiplicity(n: int) -> Array:
    """sqrt(m) over the first ceil(n/2) nodes of an n-node axis: sqrt(2),
    and 1 at the centre node of an odd axis, which is its own mirror."""
    r = np.full((n + 1) // 2, math.sqrt(2.0))
    if n % 2:
        r[-1] = 1.0
    return r


def _fold_axis(x: Array, axis: int, n: int) -> Array:
    """x with its n-node axis folded: the first ceil(n/2) nodes, times sqrt(m)."""
    k = (n + 1) // 2
    r = _sqrt_multiplicity(n).reshape((k,) + (1,) * (x.ndim - axis - 1))
    return x[(slice(None),) * axis + (slice(k),)] * r


def _unfold_axis(y: Array, axis: int, n: int) -> Array:
    """y with its folded axis restored to n nodes: y/sqrt(m), then its mirror image."""
    k = (n + 1) // 2
    head = (slice(None),) * axis
    r = _sqrt_multiplicity(n).reshape((k,) + (1,) * (y.ndim - axis - 1))
    out = np.empty(y.shape[:axis] + (n,) + y.shape[axis + 1 :])
    np.divide(y, r, out=out[head + (slice(k),)])
    out[head + (slice(k, None),)] = out[head + (slice(n // 2 - 1, None, -1),)]
    return out


def _sine_transform(L: Laplacian, v: Array, inverse: bool) -> Array:
    """L.transform, or L.inverse_transform when inverse: `_axis_transform`
    along every axis."""
    x = np.asarray(v).reshape(L.grid)
    for axis, n in enumerate(L.shape):
        x = _axis_transform(x, axis, n, inverse)
    return x.ravel()


def _axis_transform(x: Array, axis: int, n: int, inverse: bool) -> Array:
    """T, or T^T when inverse, along one folded n-node axis of x, its first
    or, in 2-D, its last. An axis of at most _SINE_MATRIX_MAX_N nodes takes
    one product with its cached T: T @ x (T^T @ x) on the first axis and
    x @ T^T (x @ T) on the last, by T^T's contiguous copy. Longer axes take
    the FFT."""
    if n > _SINE_MATRIX_MAX_N:
        return _fft_sine_transform(x, axis, n, inverse)
    T = _half_dst_matrix(n)
    if axis == 0:
        return (T.T if inverse else T) @ x
    return x @ (T if inverse else _half_dst_matrix_transposed(n))


def _fft_sine_transform(x: Array, axis: int, n: int, inverse: bool) -> Array:
    """T or T^T along one long axis: unfold it and keep the odd modes of its
    DST-I, or put the odd modes into the full coefficient vector and fold
    the DST-I of that."""
    odd = (slice(None),) * axis + (slice(None, None, 2),)
    if not inverse:
        return _dst1(_unfold_axis(x, axis, n), axis)[odd]
    modes = np.zeros(x.shape[:axis] + (n,) + x.shape[axis + 1 :])
    modes[odd] = x
    return _fold_axis(_dst1(modes, axis), axis, n)


def _dst1(a: Array, axis: int) -> Array:
    """The orthonormal DST-I along axis, its own inverse: the imaginary
    part of bins 1..n of the real FFT of the odd extension
    [0, a, 0, -a reversed], times -sqrt(1/(2(n+1)))."""
    n = a.shape[axis]
    zero = np.zeros(a.shape[:axis] + (1,) + a.shape[axis + 1 :])
    extension = np.concatenate([zero, a, zero, -np.flip(a, axis)], axis=axis)
    bins = (slice(None),) * axis + (slice(1, n + 1),)
    return np.fft.rfft(extension, axis=axis)[bins].imag * -math.sqrt(0.5 / (n + 1))


def _cg(
    matvec: MatVec, b: Array, precondition: Array, rtol: float, atol: float, max_iter: int
) -> tuple[Array, float, int]:
    """Conjugate gradients for SPD matvec, preconditioned by the SPD
    diagonal approximate inverse `precondition` (entrywise); stops at
    ||r|| <= max(rtol*||b||, atol). x, r and p are updated in place, and
    matvec's fresh result is the step's work vector, so a step allocates
    nothing else.

    Returns (x, achieved absolute residual, iterations). Raises
    ConvergenceError, with the best residual seen and the iterations spent,
    after max_iter iterations or once the residual has not improved for a
    stall window (a target below the rounding floor).
    """
    target = max(rtol * float(np.sqrt(b @ b)), atol)
    x = np.zeros_like(b)
    r = b.copy()
    rr = float(r @ r)
    if np.sqrt(rr) <= target:
        return x, float(np.sqrt(rr)), 0
    stall_window = max(200, b.size)
    p = precondition * r
    rz = float(r @ p)
    best_rr, best_k, k = rr, 0, 0
    while k < max_iter and k - best_k <= stall_window:
        k += 1
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            msg = "conjugate gradients hit non-positive curvature; operator is not SPD"
            raise ConvergenceError(msg, residual=float(np.sqrt(rr)), iterations=k)
        alpha = rz / pAp
        r -= np.multiply(Ap, alpha, out=Ap)
        x += np.multiply(p, alpha, out=Ap)
        rr = float(r @ r)
        if np.sqrt(rr) <= target:
            return x, float(np.sqrt(rr)), k
        if rr < best_rr:
            best_rr, best_k = rr, k
        z = np.multiply(precondition, r, out=Ap)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise ConvergenceError("conjugate gradients stopped short of their target", float(np.sqrt(best_rr)), k)


def solve_bordered_system(
    L: Laplacian, sigma: float, f: Array, col: Array | None, diag: Array | None, rtol: float, atol: float
) -> tuple[Array, float | None]:
    """Solve the bordered system  [ A     col ] [x]   [f]
                                  [ e0^T   0  ] [y] = [0]
    in L's odd sine coefficients (f, col and x), for x with no principal
    coefficient, where A = diag(L.eigenvalues - sigma) + T diag(diag) T^T
    is L - sigma plus a diagonal on the node values (None for none). f and
    col are projected in place: their coefficient 0 is zeroed.

    CG on P A, P dropping coefficient 0, preconditioned by the exact
    inverse of the diagonal on the other coefficients, solves P A v1 = P f
    and, unless col is None, P A v2 = P col; P A is SPD there whenever A
    is positive off the principal mode. y comes from coefficient 0 of the
    first block row, (e0, A v) = (A e0, v), and x = v1 - y v2. col None
    stands for the principal mode itself: x = v1 whatever y is, and y
    comes back as None. Each CG solve targets ||r|| <= max(rtol*||b||, atol)
    within max(2000, 4n) iterations, and one that stops short raises
    ConvergenceError. v2 enters x only as y v2, so its atol is
    max(atol, atol/(2 y_hat)), y_hat = |(f0 - (A e0, v1))/col0| being y
    without v2's term: the full atol where y_hat >= 1/2.
    """
    inv = L.eigenvalues - sigma
    inv[0] = np.inf  # 1/inf = 0 drops the principal mode without a divide-by-zero warning
    np.divide(1.0, inv, out=inv)
    max_iter = max(2000, 4 * L.n)

    def matvec(v: Array) -> Array:
        out = L.eigenvalues - sigma
        out *= v
        if diag is not None:
            out += L.transform(diag * L.inverse_transform(v))
            out[0] = 0.0
        return out

    def solve(b: Array, target: float) -> tuple[Array, float]:
        b0, b[0] = b[0], 0.0  # P b, in place
        return _cg(matvec, b, inv, rtol=rtol, atol=target, max_iter=max_iter)[0], b0

    v1, f0 = solve(f, atol)
    if col is None:
        return v1, None
    # A e0 off coefficient 0, which v1 and v2 lack: L - sigma is diagonal
    # there, so only the node diagonal contributes, T(diag * T^T e0)
    aq = np.zeros_like(f) if diag is None else L.transform(diag * L.principal_nodes)
    top = f0 - aq @ v1
    ratio = abs(float(col[0]) / float(top)) if top else math.inf  # 1/y_hat
    v2, col0 = solve(col, atol * max(1.0, 0.5 * ratio))
    y = top / (col0 - aq @ v2)
    return v1 - y * v2, float(y)


# rtol and atol of the corrector's CG: a tenth of 1e-10, so the residual of
# z stays within 1e-10
_CORRECTOR_TOL = 0.1 * 1e-10


def bordered_solve(L: Laplacian, rhs: Array, lambda0: float) -> Array:
    """The sine coefficients of z with (L - lambda0) z = P rhs and no
    principal component, P the projection off it, for rhs's coefficients
    (L.n of them, or a ValueError), which it projects in place: one CG
    step, exact to rounding."""
    if np.shape(rhs) != (L.n,):
        raise ValueError(f"rhs needs L.n = {L.n} coefficients, got {np.shape(rhs)}")
    return solve_bordered_system(L, lambda0, rhs, None, None, _CORRECTOR_TOL, _CORRECTOR_TOL)[0]
