import math

import numpy as np
import pytest

from coexist import ConvergenceError, DomainSpec, Laplacian, bordered_solve, principal_eigenpair
from coexist.operators import _cg

from conftest import FullGrid, dense, weighted_norm as norm

PI = math.pi


def test_stencil_interval_resolution_3():
    # the half grid of 3 nodes: the end node (standing for both ends) and
    # the centre, coupled by sqrt(2)/h^2 both ways
    L = Laplacian.of(DomainSpec("interval", ((0.0, PI),), (3,)))
    D = dense(L)
    np.testing.assert_allclose(np.diag(D), 32 / PI**2, rtol=1e-14)
    np.testing.assert_allclose(np.diag(D, 1), -math.sqrt(2.0) * 16 / PI**2, rtol=1e-14)
    np.testing.assert_allclose(np.diag(D, -1), -math.sqrt(2.0) * 16 / PI**2, rtol=1e-14)
    assert np.count_nonzero(D) == 4


def test_smallest_eigenvalue_matches_sine_mode_formula():
    # discrete identity: lambda_min = (2/h^2)(1 - cos(pi h / L)) on (0, L)
    n = 50
    L = Laplacian.of(DomainSpec("interval", ((0.0, PI),), (n,)))
    h = L.h[0]
    formula = 2.0 / h**2 * (1.0 - math.cos(PI * h / PI))
    dense_min = np.linalg.eigvalsh(FullGrid(L.spec).matrix().toarray())[0]
    assert dense_min == pytest.approx(formula, rel=1e-12, abs=0)
    assert np.linalg.eigvalsh(dense(L))[0] == pytest.approx(formula, rel=1e-12, abs=0)
    pair = principal_eigenpair(L)
    assert pair.eigenvalue == pytest.approx(formula, rel=1e-10)


def test_2d_smallest_eigenvalue_tends_to_2():
    errs = []
    for n in (8, 16, 32):
        L = Laplacian.of(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (n, n)))
        pair = principal_eigenpair(L)
        errs.append(abs(pair.eigenvalue - 2.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


def test_stencil_matches_kronecker_sum():
    # independent oracle: the Kronecker sum kron(T0, I) + kron(I, T1) of the
    # per-axis tridiagonal matrices, in lexicographic node order, restricted
    # to mirror-symmetric vectors by the isometry E: L = E^T K E
    for spec in (
        DomainSpec("interval", ((0.0, 1.0),), (5,)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (7, 5)),
        DomainSpec("rectangle", ((0.0, 1.0), (0.0, 3.0)), (3, 4)),
    ):
        grid = FullGrid(spec)
        L = Laplacian.of(spec)
        E = grid.embedding()
        want = grid.half_grid_matrix()
        assert L.n == E.shape[1]
        eps = np.finfo(float).eps
        np.testing.assert_allclose(dense(L), want, rtol=0, atol=4 * eps * np.abs(want).max())


# The SPD solves below run the CG kernel on the full grid's stencil with
# the identity preconditioner, a diagonal of ones, to ||r|| <= tol * max(1, ||b||).


def test_solve_spd_zero_rhs(grid400):
    x, resid, iters = _cg(grid400.apply, np.zeros(grid400.n), np.ones(grid400.n), rtol=1e-12, atol=1e-12, max_iter=2000)
    assert np.all(x == 0.0)
    assert resid == 0.0 and iters == 0


def test_solve_spd_diagonal_operator():
    c = 2.5
    n = 40
    b = np.linspace(-1, 1, n)
    x, _, _ = _cg(lambda v: c * v, b, np.ones(n), rtol=1e-14, atol=1e-14, max_iter=2000)
    np.testing.assert_allclose(x, b / c, rtol=1e-13)


def test_solve_spd_sine_eigenvector(grid400):
    # -u'' = sin on (0, pi) has solution u = sin
    b = np.sin(grid400.coords[0])
    x, _, _ = _cg(grid400.apply, b, np.ones(b.size), rtol=1e-12, atol=1e-12, max_iter=2000)
    assert np.max(np.abs(x - b)) < 5e-5  # discretization error O(h^2)
    # involution: op @ x reproduces b
    assert grid400.norm(grid400.apply(x) - b) <= 1e-12 * max(1.0, float(np.linalg.norm(b)))


def test_solve_spd_nonconvergence_error(grid400):
    # an exhausted budget raises, carrying the best residual and the budget spent
    b = np.ones(grid400.n)
    with pytest.raises(ConvergenceError, match="stopped short") as err:
        _cg(grid400.apply, b, np.ones(b.size), rtol=1e-14, atol=1e-14, max_iter=3)
    assert 1e-14 * np.linalg.norm(b) < err.value.residual <= np.linalg.norm(b)
    assert err.value.iterations == 3


def test_solve_spd_stall_error(lap400):
    # L - lambda0 in its sine coefficients, diagonal and singular along the
    # principal mode, with the identity preconditioner: CG never reduces the
    # residual's component along that mode, and once the residual has not
    # improved for a stall window of max(200, n) iterations, it raises long
    # before max_iter
    b = np.random.default_rng(0).standard_normal(lap400.n)
    shifted = lap400.eigenvalues - lap400.eigenvalues[0]
    with pytest.raises(ConvergenceError, match="stopped short") as err:
        _cg(lambda c: shifted * c, b, np.ones(b.size), rtol=0.0, atol=0.0, max_iter=10**5)
    assert 200 < err.value.iterations < 10**5
    assert 0.0 < err.value.residual < np.linalg.norm(b)


@pytest.fixture(scope="module")
def kernel_setup(lap400, eig400):
    pair, _ = eig400
    return lap400, pair.vector, pair.eigenvalue


def test_bordered_zero_rhs(kernel_setup):
    L, u0, lam0 = kernel_setup
    z = bordered_solve(L, np.zeros(L.n), lam0)
    assert np.all(z == 0.0)


def test_bordered_pure_kernel_rhs(kernel_setup):
    # the projection off u0 leaves nothing to solve for
    L, u0, lam0 = kernel_setup
    z = L.inverse_transform(bordered_solve(L, L.transform(u0), lam0))
    assert norm(L, z) < 1e-8


def test_bordered_solvable_rhs_cubic_interaction(kernel_setup, grid400):
    # rhs = mu_s*u0 + 1/2 g''(0) u0^2 for the cubic interaction is
    # kernel-orthogonal by construction of mu_s
    L, u0, lam0 = kernel_setup
    eta = 1.0
    u = L.unfold(u0)
    mu_s = eta * grid400.dot(u * u, u)
    rhs = mu_s * u - eta * u * u
    assert abs(grid400.dot(rhs, u)) < 1e-12  # quadrature oracle
    z = L.inverse_transform(bordered_solve(L, L.transform(grid400.fold(rhs)), lam0))
    assert abs(L.weight * float(z @ u0)) <= 1e-10
    z = L.unfold(z)
    assert grid400.norm(grid400.apply(z) - lam0 * z - rhs) <= 1e-10 * max(1.0, grid400.norm(rhs))


def test_bordered_against_dense_saddle_oracle():
    # independent oracle: LAPACK solve of the dense augmented system on the full grid
    n = 100
    spec = DomainSpec("interval", ((0.0, PI),), (n,))
    grid, L = FullGrid(spec), Laplacian.of(spec)
    pair = principal_eigenpair(L)
    u0 = grid.sine_mode()
    eta = 1.0
    mu_s = eta * grid.dot(u0 * u0, u0)
    rhs = mu_s * u0 - eta * u0 * u0

    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = grid.matrix().toarray() - pair.eigenvalue * np.eye(n)
    K[:n, n] = u0
    K[n, :n] = grid.weight * u0
    direct = np.linalg.solve(K, np.concatenate([rhs, [0.0]]))
    z = L.inverse_transform(bordered_solve(L, L.transform(grid.fold(rhs)), pair.eigenvalue))
    assert grid.norm(L.unfold(z) - direct[:n]) < 1e-8


def test_bordered_solve_checks_lengths_against_the_operator(lap400, eig400):
    # L.n = ceil(n/2) coefficients, not the full grid's n
    pair, _ = eig400
    for rhs in (lap400.unfold(pair.vector), np.zeros(lap400.n + 1), np.zeros((lap400.n, 1))):
        with pytest.raises(ValueError, match=rf"rhs needs L\.n = {lap400.n} coefficients"):
            bordered_solve(lap400, rhs, pair.eigenvalue)


@pytest.mark.parametrize(
    "spec",
    [
        DomainSpec("interval", ((0.0, PI),), (400,)),
        DomainSpec("interval", ((0.0, PI),), (401,)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (95, 64)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (6, 700)),
    ],
)
def test_folded_bordered_solve_matches_full_grid(spec):
    # rhs = u0^2 is mirror-symmetric with kernel component (u0^2, u0), which
    # the projection drops; the oracle is the exact DST solve on the full grid
    grid, L = FullGrid(spec), Laplacian.of(spec)
    pair = principal_eigenpair(L)
    y0 = pair.vector
    u0 = L.unfold(y0)
    z_oracle = grid.spectral_solve(u0 * u0, pair.eigenvalue)
    z = bordered_solve(L, L.transform(y0 * y0 / L.sqrt_multiplicity), pair.eigenvalue)
    assert z.shape == (L.n,)
    z = L.unfold(L.inverse_transform(z))
    assert np.linalg.norm(z - z_oracle) <= 1e-13 * np.linalg.norm(z_oracle)
