import itertools
import math
import time
from functools import cached_property, lru_cache, reduce

import numpy as np
import pytest

from coexist import DomainSpec, Laplacian, apply, continuation, principal_eigenpair, solve_at_amplitude
from coexist.diagnostics import bifurcation_point

PI = math.pi
# the nonlinearity the benchmark's polynomial cases run
BENCHMARK_POLY = (0.0, -1.0, 0.5, 0.2, -0.1, 0.05)

# (criterion number, label, passed) tuples registered by test_acceptance
ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, label, ok in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")


def stencil(L, v) -> np.ndarray:
    """The full grid's stencil on a node vector v of the half-grid L:
    E^T K E v, v unfolded, `FullGrid.apply`, and folded back."""
    grid = FullGrid(L.spec)
    return grid.fold(grid.apply(L.unfold(v)))


def dense(L) -> np.ndarray:
    """The half-grid stencil E^T K E as a dense matrix, column j = stencil(L, e_j)."""
    return np.column_stack([stencil(L, e) for e in np.eye(L.n)])


def residual(U, lam, model, L) -> np.ndarray:
    """F(U, lambda) = K U - lambda U + V_L U - g(U) for a node vector U of
    the half-grid L, with the full grid's stencil K; identically zero on the
    trivial branch U = 0. g acts on the nodal values U/sqrt(m)."""
    r = L.sqrt_multiplicity
    return stencil(L, U) + (model.V_L - lam) * U - r * apply(model, U / r)


@lru_cache(maxsize=8)
def sine_matrix(n: int) -> np.ndarray:
    """Dense orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi j k / (n+1)),
    evaluated in long double: in float64 the unreduced arguments up to
    pi*n cost about eps*pi*n of accuracy, 2e-14 at n = 600."""
    j = np.arange(1, n + 1, dtype=np.longdouble)
    pi = 4 * np.arctan(np.longdouble(1))
    return (np.sqrt(2 / np.longdouble(n + 1)) * np.sin(pi * np.outer(j, j) / (n + 1))).astype(np.float64)


def tridiagonal(n: int, h: float) -> np.ndarray:
    """The dense 3-point Dirichlet stencil (2, -1, -1)/h^2 of one axis."""
    return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2


class FullGrid:
    """The full grid of a DomainSpec, written out from the definitions and
    sharing no code with coexist: the oracle for the half-grid `Laplacian`.

    Nodes are lexicographic in the axis index tuple (first axis slowest),
    each with the quadrature weight prod(h); the stencil is the Kronecker
    sum of the per-axis tridiagonal matrices, and the DST-I diagonalises it
    with the closed-form eigenvalues 4/h^2 sin^2(j pi / (2(n+1)))."""

    def __init__(self, spec: DomainSpec):
        self.shape = tuple(spec.resolution)
        self.h = tuple((hi - lo) / (n + 1) for (lo, hi), n in zip(spec.bounds, self.shape))
        self.weight = math.prod(self.h)
        self.n = math.prod(self.shape)
        axes = zip(spec.bounds, self.h, self.shape)
        self.coords = tuple(lo + h * np.arange(1, n + 1) for (lo, _), h, n in axes)
        # nodal values are the coordinates: the solvers in coexist run on
        # this grid as on the half grid
        self.sqrt_multiplicity = 1.0

    def dot(self, f, g) -> float:
        """The weighted pairing sum_i w f_i g_i."""
        return self.weight * float(np.dot(f, g))

    def norm(self, f) -> float:
        return math.sqrt(self.dot(f, f))

    def matrix(self):
        """The stencil kron(T0, I) + kron(I, T1) of the dense per-axis
        tridiagonal matrices, held sparse (`.toarray()` for small grids)."""
        import scipy.sparse as sp

        blocks = [tridiagonal(n, h) for n, h in zip(self.shape, self.h)]
        if len(blocks) == 1:
            return sp.csr_array(blocks[0])
        t0, t1 = blocks
        return sp.csr_array(sp.kron(t0, np.eye(len(t1))) + sp.kron(np.eye(len(t0)), t1))

    def apply(self, v) -> np.ndarray:
        """The Kronecker sum applied one axis at a time, each axis's rows
        as (2 u_i - u_(i-1) - u_(i+1))/h^2."""
        u = np.asarray(v, dtype=float).reshape(self.shape)
        out = np.zeros_like(u)
        for axis, h in enumerate(self.h):
            c = 1.0 / h**2
            x, y = np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)
            y += x * (2.0 * c)
            y[1:] -= c * x[:-1]
            y[:-1] -= c * x[1:]
        return out.ravel()

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The stencil's eigenvalues in the DST-I's coefficient order."""
        axes = [
            4.0 / h**2 * np.sin(np.arange(1, n + 1) * PI / (2 * (n + 1))) ** 2
            for n, h in zip(self.shape, self.h)
        ]
        return reduce(np.add.outer, axes).ravel()

    def transform(self, v) -> np.ndarray:
        """The orthonormal DST-I along every axis (its own inverse)."""
        x = np.asarray(v, dtype=float).reshape(self.shape)
        for axis, n in enumerate(self.shape):
            x = np.moveaxis(np.tensordot(sine_matrix(n), x, axes=(1, axis)), 0, axis)
        return x.ravel()

    inverse_transform = transform

    @cached_property
    def principal_nodes(self) -> np.ndarray:
        """The node vector of coefficient 0, the principal sine mode of unit
        Euclidean norm: what solve_at_amplitude reads of a `Laplacian`."""
        return self.inverse_transform(np.eye(1, self.n)[0])

    def sine_mode(self) -> np.ndarray:
        """The normalized principal sine mode prod_a sin(pi (x_a - lo_a) / len_a)."""
        v = reduce(np.multiply.outer, [np.sin(PI * np.arange(1, n + 1) / (n + 1)) for n in self.shape])
        v = v.ravel()
        return v / self.norm(v)

    def spectral_solve(self, rhs, sigma: float) -> np.ndarray:
        """The exact solution of (K - sigma) z = rhs on the complement of the
        principal sine mode, zero along it."""
        shifted = self.eigenvalues - sigma
        shifted[0] = np.inf
        inv = 1.0 / shifted
        return self.transform(inv * self.transform(rhs))

    def fold(self, u) -> np.ndarray:
        """A mirror-symmetric vector in half-grid coordinates: its first
        ceil(n/2) nodes per axis, times sqrt(m), m = 2 except at an odd
        axis's centre node, its own mirror."""
        x = np.asarray(u, dtype=float).reshape(self.shape)
        for axis, n in enumerate(self.shape):
            k = (n + 1) // 2
            m = np.full(k, 2.0)
            if n % 2:
                m[-1] = 1.0
            x = np.take(x, np.arange(k), axis=axis) * np.sqrt(m).reshape((k,) + (1,) * (x.ndim - axis - 1))
        return x.ravel()

    def embedding(self) -> np.ndarray:
        """The isometry from half-grid coordinates to mirror-symmetric
        full-grid vectors, one column per half-grid node: 1/sqrt(m) on each
        of the m nodes of its mirror orbit. E^T K E is the half-grid stencil."""
        cols = []
        for idx in np.ndindex(*[(n + 1) // 2 for n in self.shape]):
            orbit = set(itertools.product(*[{i, n - 1 - i} for i, n in zip(idx, self.shape)]))
            u = np.zeros(self.shape)
            for node in orbit:
                u[node] = 1.0 / math.sqrt(len(orbit))
            cols.append(u.ravel())
        return np.column_stack(cols)

    def half_grid_matrix(self) -> np.ndarray:
        """The stencil restricted to mirror-symmetric vectors, E^T K E: the
        dense oracle of the half-grid `Laplacian`."""
        E = self.embedding()
        return E.T @ (self.matrix() @ E)

    def is_symmetric(self, u) -> bool:
        """Whether u equals its mirror image along every axis, bit for bit."""
        x = np.asarray(u).reshape(self.shape)
        return all(np.array_equal(x, np.flip(x, axis)) for axis in range(x.ndim))

    def symmetric_vector(self, seed: int) -> np.ndarray:
        """A random vector symmetrised over the reflection of each axis."""
        x = np.random.default_rng(seed).standard_normal(self.shape)
        for axis in range(x.ndim):
            x = x + np.flip(x, axis)
        return x.ravel()


def weighted_norm(L, v) -> float:
    """The norm sqrt(w v.v) of a node vector of L."""
    return math.sqrt(L.weight * float(v @ v))


def psi3_sigma_form(grid: FullGrid, u0, z_s, eta: float) -> float:
    """mu_ss of psi_3 in the cross-check form computed from the vectors,
    4 eta (u0 z_s, u0) - 2 eta (u0^2, u0) (z_s, u0); the second term
    vanishes under the orthogonality constraint."""
    return 4.0 * eta * grid.dot(u0 * z_s, u0) - 2.0 * eta * grid.dot(u0 * u0, u0) * grid.dot(z_s, u0)


def vector_moments(grid: FullGrid, u0, z_hat) -> dict[str, float]:
    """I3, I4 and M_hat as weighted pairings of full-grid vectors, the
    oracle for the half-grid sums of `eigendata`."""
    return {
        "I3": grid.dot(u0 * u0, u0),
        "I4": grid.dot(u0 * u0 * u0, u0),
        "M_hat": grid.dot(u0 * z_hat, u0),
    }


class _NewtonStepCaptured(Exception):
    pass


def newton_system(model, L, U, lam) -> dict:
    """What solve_at_amplitude's first Newton step at (U, lam) passes to its
    bordered solve: sigma, f = -F and col = -U by their sine coefficients,
    and the node diagonal d, which makes the Jacobian L - lam + diag(d).
    The guess is U's coefficients, whose amplitude the pin keeps to
    rounding."""
    c = L.transform(U)
    captured = {}

    def capture(L_, sigma, f, col, diag, **kwargs):
        captured.update(sigma=sigma, f=f, col=col, diag=diag)
        raise _NewtonStepCaptured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "solve_bordered_system", capture)
        with pytest.raises(_NewtonStepCaptured):
            solve_at_amplitude(math.sqrt(L.weight) * float(c[0]), model, L, (c, lam))
    assert captured["sigma"] == lam
    return captured


def newton_diagonal(model, L, U, lam) -> np.ndarray:
    """The node diagonal d of solve_at_amplitude's first Newton step at (U, lam)."""
    return newton_system(model, L, U, lam)["diag"]


def interval(n: int) -> DomainSpec:
    return DomainSpec("interval", ((0.0, PI),), (n,))


@pytest.fixture(scope="session")
def spec100():
    return interval(100)


@pytest.fixture(scope="session")
def spec400():
    return interval(400)


@pytest.fixture(scope="session")
def grid400(spec400):
    return FullGrid(spec400)


@pytest.fixture(scope="session")
def lap400(spec400):
    return Laplacian.of(spec400)


@pytest.fixture(scope="session")
def eig400(lap400):
    t0 = time.perf_counter()
    pair = principal_eigenpair(lap400)
    return pair, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cr400(spec400):
    """The bifurcation-point checks, which carry
    lambda1 and the gap, and the time they took."""
    t0 = time.perf_counter()
    _, _, cr = bifurcation_point(spec400)
    return cr, time.perf_counter() - t0


@pytest.fixture(scope="session")
def spec2d_128():
    return DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (128, 128))


@pytest.fixture(scope="session")
def eig2d_128(spec2d_128):
    L = Laplacian.of(spec2d_128)
    t0 = time.perf_counter()
    pair = principal_eigenpair(L)
    return pair, time.perf_counter() - t0
