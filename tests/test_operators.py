import math

import numpy as np
import pytest
import scipy.sparse as sp

from coexist import (
    ConvergenceError,
    DomainSpec,
    SparseOperator,
    assemble_laplacian,
    bordered_solve,
    build_mesh,
    inner_product,
    l2_norm,
    principal_eigenpair,
    solve_spd,
)

PI = math.pi


def test_stencil_interval_resolution_3():
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (3,)))
    L = assemble_laplacian(mesh)
    dense = L.matrix.toarray()
    np.testing.assert_allclose(np.diag(dense), 32 / PI**2, rtol=1e-14)
    np.testing.assert_allclose(np.diag(dense, 1), -16 / PI**2, rtol=1e-14)
    np.testing.assert_allclose(np.diag(dense, -1), -16 / PI**2, rtol=1e-14)


def test_smallest_eigenvalue_matches_sine_mode_formula():
    # discrete identity: lambda_min = (2/h^2)(1 - cos(pi h / L)) on (0, L)
    n = 50
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (n,)))
    L = assemble_laplacian(mesh)
    h = mesh.h[0]
    formula = 2.0 / h**2 * (1.0 - math.cos(PI * h / PI))
    dense_min = np.linalg.eigvalsh(L.matrix.toarray())[0]
    assert dense_min == pytest.approx(formula, rel=1e-12)
    pair = principal_eigenpair(L, mesh, tol=1e-10)
    assert pair.eigenvalue == pytest.approx(formula, rel=1e-10)


def test_2d_smallest_eigenvalue_tends_to_2():
    errs = []
    for n in (8, 16, 32):
        mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (n, n)))
        L = assemble_laplacian(mesh)
        pair = principal_eigenpair(L, mesh, tol=1e-10)
        errs.append(abs(pair.eigenvalue - 2.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


def test_symmetry_and_row_sums():
    mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (7, 5)))
    L = assemble_laplacian(mesh)
    assert L.symmetric
    assert L.symmetry_defect() == 0.0
    sums = np.asarray(L.matrix.sum(axis=1)).ravel()
    scale = np.max(np.abs(L.values))
    assert np.all(sums >= -1e-14 * scale)
    # rows not adjacent to the boundary sum to zero, the rest are positive
    n0, n1 = mesh.spec.resolution
    idx = np.arange(mesh.n_nodes)
    i0, i1 = idx // n1, idx % n1
    interior = (i0 > 0) & (i0 < n0 - 1) & (i1 > 0) & (i1 < n1 - 1)
    np.testing.assert_allclose(sums[interior], 0.0, atol=1e-11 * scale)
    assert np.all(sums[~interior] > 0)


def test_csr_layout_exposed():
    mesh = build_mesh(DomainSpec("interval", ((0.0, 1.0),), (5,)))
    L = assemble_laplacian(mesh)
    assert L.row_offsets.shape == (6,)
    assert L.col_indices.shape == L.values.shape
    assert L.n == 5
    # every diagonal entry is stored
    for i in range(L.n):
        cols = L.col_indices[L.row_offsets[i] : L.row_offsets[i + 1]]
        assert i in cols


def test_solve_spd_zero_rhs(lap400, mesh400):
    x = solve_spd(lap400, mesh400.zeros(), tol=1e-12)
    assert np.all(x == 0.0)


def test_solve_spd_diagonal_operator():
    c = 2.5
    n = 40
    op = SparseOperator(n=n, matrix=sp.identity(n, format="csr") * c)
    b = np.linspace(-1, 1, n)
    x = solve_spd(op, b, tol=1e-14)
    np.testing.assert_allclose(x, b / c, rtol=1e-13)


def test_solve_spd_sine_eigenvector(lap400, mesh400):
    # -u'' = sin on (0, pi) has solution u = sin
    xs = mesh400.interior_nodes[:, 0]
    b = np.sin(xs)
    x = solve_spd(lap400, b, tol=1e-12)
    assert np.max(np.abs(x - b)) < 5e-5  # discretization error O(h^2)
    # involution: op @ x reproduces b
    res = l2_norm(mesh400, lap400.apply(x) - b)
    assert res <= 1e-12 * max(1.0, float(np.linalg.norm(b)))


def test_solve_spd_nonconvergence_error(lap400, mesh400):
    b = np.ones(mesh400.n_nodes)
    with pytest.raises(ConvergenceError) as err:
        solve_spd(lap400, b, tol=1e-14, max_iter=3)
    assert err.value.residual > 0
    assert err.value.iterations == 3


@pytest.fixture(scope="module")
def kernel_setup(lap400, eig400, mesh400):
    pair, _ = eig400
    A = lap400.shifted(pair.eigenvalue)
    return A, pair.vector, pair.eigenvalue


def test_bordered_zero_rhs(kernel_setup, mesh400):
    A, u0, lam0 = kernel_setup
    sol = bordered_solve(A, u0, mesh400.zeros(), mesh400, lam0, tol=1e-10)
    assert np.all(sol.z == 0.0)
    assert sol.xi == 0.0


def test_bordered_pure_kernel_rhs(kernel_setup, mesh400):
    A, u0, lam0 = kernel_setup
    sol = bordered_solve(A, u0, u0.copy(), mesh400, lam0, tol=1e-10)
    assert sol.xi == pytest.approx(1.0, abs=1e-9)
    assert l2_norm(mesh400, sol.z) < 1e-8
    assert sol.residual_norm <= 1e-10


def test_bordered_solvable_rhs_cubic_interaction(kernel_setup, mesh400):
    # rhs = mu_s*u0 + 1/2 g''(0) u0^2 for the cubic interaction is
    # kernel-orthogonal by construction of mu_s
    A, u0, lam0 = kernel_setup
    eta = 1.0
    mu_s = eta * inner_product(mesh400, u0 * u0, u0)
    rhs = mu_s * u0 - eta * u0 * u0
    assert abs(inner_product(mesh400, rhs, u0)) < 1e-12  # quadrature oracle
    sol = bordered_solve(A, u0, rhs, mesh400, lam0, tol=1e-10)
    assert abs(sol.xi) <= 1e-8
    assert abs(inner_product(mesh400, sol.z, u0)) <= 1e-10
    assert sol.residual_norm <= 1e-10 * max(1.0, l2_norm(mesh400, rhs))


def test_bordered_against_dense_saddle_oracle():
    # independent oracle: LAPACK solve of the dense augmented system
    n = 100
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (n,)))
    L = assemble_laplacian(mesh)
    pair = principal_eigenpair(L, mesh, tol=1e-12)
    u0 = pair.vector
    A = L.shifted(pair.eigenvalue)
    eta = 1.0
    mu_s = eta * inner_product(mesh, u0 * u0, u0)
    rhs = mu_s * u0 - eta * u0 * u0

    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = A.matrix.toarray()
    K[:n, n] = u0
    K[n, :n] = mesh.quad_weights * u0
    direct = np.linalg.solve(K, np.concatenate([rhs, [0.0]]))
    z_oracle, xi_oracle = direct[:n], direct[n]

    sol = bordered_solve(A, u0, rhs, mesh, pair.eigenvalue, tol=1e-11)
    assert l2_norm(mesh, sol.z - z_oracle) < 1e-8
    assert sol.xi == pytest.approx(xi_oracle, abs=1e-8)


def test_bordered_rejects_bad_kernel(lap400, eig400, mesh400):
    pair, _ = eig400
    A = lap400.shifted(pair.eigenvalue)
    with pytest.raises(ValueError, match="normalized"):
        bordered_solve(A, 2.0 * pair.vector, mesh400.zeros(), mesh400, pair.eigenvalue)
    with pytest.raises(ValueError, match="kernel"):
        # L itself has no kernel at all
        bordered_solve(lap400, pair.vector, mesh400.zeros(), mesh400, pair.eigenvalue)


def test_shifted_view_preserves_sparsity(lap400):
    A = lap400.shifted(1.0)
    assert A.n == lap400.n
    d = (lap400.matrix - A.matrix) - sp.identity(lap400.n, format="csr")
    assert abs(d).max() < 1e-14
