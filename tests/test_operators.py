import math

import numpy as np
import pytest

from coexist import (
    DomainSpec,
    Laplacian,
    bordered_solve,
    build_mesh,
    inner_product,
    l2_norm,
    principal_eigenpair,
)
from coexist.operators import _cg

from conftest import dense

PI = math.pi


def test_stencil_interval_resolution_3():
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (3,)))
    D = dense(Laplacian.of(mesh))
    np.testing.assert_allclose(np.diag(D), 32 / PI**2, rtol=1e-14)
    np.testing.assert_allclose(np.diag(D, 1), -16 / PI**2, rtol=1e-14)
    np.testing.assert_allclose(np.diag(D, -1), -16 / PI**2, rtol=1e-14)
    assert np.count_nonzero(D) == 3 * 3 - 2


def test_smallest_eigenvalue_matches_sine_mode_formula():
    # discrete identity: lambda_min = (2/h^2)(1 - cos(pi h / L)) on (0, L)
    n = 50
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (n,)))
    L = Laplacian.of(mesh)
    h = mesh.h[0]
    formula = 2.0 / h**2 * (1.0 - math.cos(PI * h / PI))
    dense_min = np.linalg.eigvalsh(dense(L))[0]
    assert dense_min == pytest.approx(formula, rel=1e-12)
    pair = principal_eigenpair(L, mesh, tol=1e-10)
    assert pair.eigenvalue == pytest.approx(formula, rel=1e-10)


def test_2d_smallest_eigenvalue_tends_to_2():
    errs = []
    for n in (8, 16, 32):
        mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (n, n)))
        L = Laplacian.of(mesh)
        pair = principal_eigenpair(L, mesh, tol=1e-10)
        errs.append(abs(pair.eigenvalue - 2.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


def test_symmetry_and_row_sums():
    mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (7, 5)))
    D = dense(Laplacian.of(mesh))
    assert np.array_equal(D, D.T)  # exactly symmetric
    sums = D.sum(axis=1)
    scale = np.max(np.abs(D))
    assert np.all(sums >= -1e-14 * scale)
    # rows not adjacent to the boundary sum to zero, the rest are positive
    n0, n1 = mesh.spec.resolution
    idx = np.arange(mesh.n_nodes)
    i0, i1 = idx // n1, idx % n1
    interior = (i0 > 0) & (i0 < n0 - 1) & (i1 > 0) & (i1 < n1 - 1)
    np.testing.assert_allclose(sums[interior], 0.0, atol=1e-11 * scale)
    assert np.all(sums[~interior] > 0)


def test_stencil_matches_kronecker_sum():
    # independent oracle: the Kronecker sum kron(T0, I) + kron(I, T1) of the
    # per-axis tridiagonal matrices, in lexicographic node order
    def tridiagonal(n, h):
        return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2

    for spec in (
        DomainSpec("interval", ((0.0, 1.0),), (5,)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (7, 5)),
        DomainSpec("rectangle", ((0.0, 1.0), (0.0, 3.0)), (3, 4)),
    ):
        mesh = build_mesh(spec)
        L = Laplacian.of(mesh)
        blocks = [tridiagonal(n, h) for n, h in zip(spec.resolution, mesh.h)]
        if len(mesh.h) == 1:
            want = blocks[0]
        else:
            t0, t1 = blocks
            want = np.kron(t0, np.eye(len(t1))) + np.kron(np.eye(len(t0)), t1)
        assert L.n == mesh.n_nodes
        assert np.array_equal(dense(L), want)
        # a general vector differs from the matrix product by rounding only
        v = np.random.default_rng(5).standard_normal(L.n)
        bound = 8 * np.finfo(float).eps * np.abs(want).sum(axis=1).max() * np.abs(v).max()
        np.testing.assert_allclose(L.apply(v), want @ v, rtol=0, atol=bound)


def test_apply_returns_a_fresh_array():
    # solve_bordered_system keeps one result while CG asks for the next
    L = Laplacian.of(build_mesh(DomainSpec("rectangle", ((0.0, 1.0), (0.0, 2.0)), (6, 9))))
    v = np.random.default_rng(4).standard_normal(L.n)
    kept = v.copy()
    first, second = L.apply(v), L.apply(v)
    assert not np.shares_memory(first, second) and not np.shares_memory(first, v)
    assert np.array_equal(first, second) and np.array_equal(v, kept)


# The SPD solves below run the CG kernel with the identity preconditioner
# to ||r|| <= tol * max(1, ||b||).


def identity(r):
    return r


def test_solve_spd_zero_rhs(lap400, mesh400):
    x, resid, iters = _cg(lap400.apply, np.zeros(mesh400.n_nodes), identity, rtol=1e-12, atol=1e-12, max_iter=2000)
    assert np.all(x == 0.0)
    assert resid == 0.0 and iters == 0


def test_solve_spd_diagonal_operator():
    c = 2.5
    n = 40
    b = np.linspace(-1, 1, n)
    x, _, _ = _cg(lambda v: c * v, b, identity, rtol=1e-14, atol=1e-14, max_iter=2000)
    np.testing.assert_allclose(x, b / c, rtol=1e-13)


def test_solve_spd_sine_eigenvector(lap400, mesh400):
    # -u'' = sin on (0, pi) has solution u = sin
    xs = mesh400.axis_coords[0]
    b = np.sin(xs)
    x, _, _ = _cg(lap400.apply, b, identity, rtol=1e-12, atol=1e-12, max_iter=2000)
    assert np.max(np.abs(x - b)) < 5e-5  # discretization error O(h^2)
    # involution: op @ x reproduces b
    res = l2_norm(mesh400, lap400.apply(x) - b)
    assert res <= 1e-12 * max(1.0, float(np.linalg.norm(b)))


def test_solve_spd_nonconvergence_error(lap400, mesh400):
    # an exhausted budget returns the best iterate, its residual and the
    # budget spent; callers decide whether that is an error
    b = np.ones(mesh400.n_nodes)
    x, resid, iters = _cg(lap400.apply, b, identity, rtol=1e-14, atol=1e-14, max_iter=3)
    assert resid > 1e-14 * np.linalg.norm(b)
    assert resid == pytest.approx(np.linalg.norm(lap400.apply(x) - b), rel=1e-6)
    assert iters == 3


@pytest.fixture(scope="module")
def kernel_setup(lap400, eig400, mesh400):
    pair, _ = eig400
    return lap400, pair.vector, pair.eigenvalue


def test_bordered_zero_rhs(kernel_setup, mesh400):
    L, u0, lam0 = kernel_setup
    sol = bordered_solve(L, u0, np.zeros(mesh400.n_nodes), mesh400, lam0, tol=1e-10)
    assert np.all(sol.z == 0.0)
    assert sol.xi == 0.0


def test_bordered_pure_kernel_rhs(kernel_setup, mesh400):
    L, u0, lam0 = kernel_setup
    sol = bordered_solve(L, u0, u0.copy(), mesh400, lam0, tol=1e-10)
    assert sol.xi == pytest.approx(1.0, abs=1e-9)
    assert l2_norm(mesh400, sol.z) < 1e-8
    assert sol.residual_norm <= 1e-10


def test_bordered_solvable_rhs_cubic_interaction(kernel_setup, mesh400):
    # rhs = mu_s*u0 + 1/2 g''(0) u0^2 for the cubic interaction is
    # kernel-orthogonal by construction of mu_s
    L, u0, lam0 = kernel_setup
    eta = 1.0
    mu_s = eta * inner_product(mesh400, u0 * u0, u0)
    rhs = mu_s * u0 - eta * u0 * u0
    assert abs(inner_product(mesh400, rhs, u0)) < 1e-12  # quadrature oracle
    sol = bordered_solve(L, u0, rhs, mesh400, lam0, tol=1e-10)
    assert abs(sol.xi) <= 1e-8
    assert abs(inner_product(mesh400, sol.z, u0)) <= 1e-10
    assert sol.residual_norm <= 1e-10 * max(1.0, l2_norm(mesh400, rhs))


def test_bordered_against_dense_saddle_oracle():
    # independent oracle: LAPACK solve of the dense augmented system
    n = 100
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (n,)))
    L = Laplacian.of(mesh)
    pair = principal_eigenpair(L, mesh, tol=1e-12)
    u0 = pair.vector
    eta = 1.0
    mu_s = eta * inner_product(mesh, u0 * u0, u0)
    rhs = mu_s * u0 - eta * u0 * u0

    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = dense(L) - pair.eigenvalue * np.eye(n)
    K[:n, n] = u0
    K[n, :n] = mesh.weight * u0
    direct = np.linalg.solve(K, np.concatenate([rhs, [0.0]]))
    z_oracle, xi_oracle = direct[:n], direct[n]

    sol = bordered_solve(L, u0, rhs, mesh, pair.eigenvalue, tol=1e-11)
    assert l2_norm(mesh, sol.z - z_oracle) < 1e-8
    assert sol.xi == pytest.approx(xi_oracle, abs=1e-8)


def test_bordered_rejects_bad_kernel(lap400, eig400, mesh400):
    pair, _ = eig400
    with pytest.raises(ValueError, match="normalized"):
        bordered_solve(lap400, 2.0 * pair.vector, np.zeros(mesh400.n_nodes), mesh400, pair.eigenvalue)
    with pytest.raises(ValueError, match="kernel"):
        # L itself (shift 0) has no kernel at all
        bordered_solve(lap400, pair.vector, np.zeros(mesh400.n_nodes), mesh400, 0.0)
