"""The exact DST-I spectral core of the Dirichlet Laplacian and the
preconditioned solves built on it."""

import math

import numpy as np
import pytest

from coexist import DomainSpec, Laplacian, NonlinearityModel, run_analysis, trace_branch
from coexist.diagnostics import bifurcation_point
from coexist import operators
from coexist.continuation import DEFAULT_S_VALUES

from conftest import FullGrid, dense, sine_matrix, stencil, unfold

PI = math.pi

MESHES = {
    "interval-3": DomainSpec("interval", ((0.0, PI),), (3,)),
    "interval-400": DomainSpec("interval", ((0.0, PI),), (400,)),
    "square-48": DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (48, 48)),
    "rect-40x80": DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (40, 80)),
    # one axis on each side of operators._SINE_MATRIX_MAX_N
    "rect-6x700": DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (6, 700)),
}


@pytest.mark.parametrize(
    "spec",
    [
        MESHES["interval-3"],
        DomainSpec("interval", ((0.0, 1.0),), (17,)),
        DomainSpec("interval", ((0.0, PI),), (600,)),  # above the sine-matrix limit
        DomainSpec("interval", ((0.0, PI),), (1201,)),  # odd; FFT length 2(n+1) = 4 * 601, 601 prime
    ],
)
def test_dst_matches_dense_sine_matrix_1d(spec):
    # a mirror-symmetric vector has no even sine modes; T gives its odd ones
    grid, L = FullGrid(spec), Laplacian(spec)
    S = sine_matrix(grid.n)
    np.testing.assert_allclose(S @ S, np.eye(grid.n), atol=1e-14)
    u = grid.symmetric_vector(0)
    y = grid.fold(u)
    np.testing.assert_allclose(L.transform(y), (S @ u)[::2], rtol=0, atol=1e-14 * np.abs(u).sum())
    np.testing.assert_allclose(L.inverse_transform(L.transform(y)), y, rtol=0, atol=1e-14 * np.abs(u).sum())


def test_dst_matches_dense_sine_matrix_2d():
    spec = DomainSpec("rectangle", ((0.0, 1.0), (0.0, 2.0)), (5, 7))
    grid, L = FullGrid(spec), Laplacian(spec)
    S = np.kron(sine_matrix(5), sine_matrix(7))  # lexicographic, first axis slowest
    np.testing.assert_allclose(S @ S, np.eye(grid.n), atol=1e-14)
    u = grid.symmetric_vector(1)
    y = grid.fold(u)
    odd = (S @ u).reshape(5, 7)[::2, ::2].ravel()
    np.testing.assert_allclose(L.transform(y), odd, rtol=0, atol=1e-14 * np.abs(u).sum())
    np.testing.assert_allclose(L.inverse_transform(L.transform(y)), y, rtol=0, atol=1e-14 * np.abs(u).sum())


@pytest.mark.parametrize("shape", [(6, 700), (700, 6), (6, 701)], ids=["6x700", "700x6", "6x701"])
def test_dst_matches_dense_sine_matrix_long_axis_2d(shape):
    # the FFT on one axis (first or last, even or odd), the cached matrix
    # on the other; the oracle applies the dense sine matrix per axis
    spec = DomainSpec("rectangle", ((0.0, 1.0), (0.0, 2.0)), shape)
    grid, L = FullGrid(spec), Laplacian(spec)
    u = grid.symmetric_vector(2)
    y = grid.fold(u)
    odd = grid.transform(u).reshape(shape)[::2, ::2].ravel()
    np.testing.assert_allclose(L.transform(y), odd, rtol=0, atol=1e-14 * np.abs(u).sum())
    np.testing.assert_allclose(L.inverse_transform(L.transform(y)), y, rtol=0, atol=1e-14 * np.abs(u).sum())


@pytest.mark.parametrize("name", ["interval-3", "square-48", "rect-40x80"])
def test_sine_modes_diagonalise_assembled_laplacian(name):
    L = Laplacian(MESHES[name])
    A = FullGrid(MESHES[name]).half_grid_matrix()
    T = np.column_stack([L.transform(e) for e in np.eye(L.n)])
    np.testing.assert_allclose(T @ A @ T.T, np.diag(L.eigenvalues), atol=1e-12 * np.abs(A).max())


def test_eigenvalue_grid_is_cached_and_read_only():
    L = Laplacian(MESHES["rect-40x80"])
    ev = L.eigenvalues
    operators.bordered_solve(L, L.transform(np.ones(L.n)), float(ev[0]))
    assert L.eigenvalues is ev and not ev.flags.writeable
    assert ev[0] == ev.min()


@pytest.mark.parametrize("name", list(MESHES))
@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_spectral_inverse_is_exact(name, offset):
    # the coefficient solve with no diagonal: sigma = lambda0 is the
    # corrector's singular shift, lambda0 + 0.3 a Newton-step shift on the
    # branch. On the complement of q it inverts L - sigma, (L - sigma) x = P f;
    # the float64 rounding of (L - sigma) v alone bounds the error by about
    # eps * ||L|| / (lambda1 - sigma) ~ 1e-11 relative at n = 400; typical
    # errors sit an order of magnitude below that.
    grid, L = FullGrid(MESHES[name]), Laplacian(MESHES[name])
    q = grid.fold(grid.sine_mode())
    q = q / np.linalg.norm(q)
    lambda0 = sum(4.0 / h**2 * np.sin(PI / (2 * (n + 1))) ** 2 for n, h in zip(grid.shape, grid.h))
    sigma = lambda0 + offset
    v = np.random.default_rng(2).standard_normal(L.n)
    v -= (q @ v) * q
    x = L.inverse_transform(coefficient_solve(L, sigma, stencil(L, v) - sigma * v))
    assert np.linalg.norm(x - v) <= 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(coefficient_solve(L, sigma, q)) <= 1e-12


def coefficient_solve(L, sigma: float, rhs):
    """The coefficients of x with (L - sigma) x = P rhs and no principal
    coefficient, P the projection off the principal mode, for a node vector
    rhs: the bordered solve with no diagonal, at the corrector's CG target."""
    tol = operators._CORRECTOR_TOL
    return operators.solve_bordered_system(L, sigma, L.transform(rhs), None, None, rtol=tol, atol=tol)[0]


@pytest.mark.parametrize(
    "spec",
    [
        DomainSpec("interval", ((0.0, PI),), (50,)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (12, 16)),
    ],
)
def test_newton_bordered_solve_matches_dense_oracle(spec):
    # the Newton form: A = L - lam + diag(d) and a border column that is
    # not u0; the solution keeps the amplitude, (x, u0) = 0. The oracle is
    # the dense full-grid system with mirror-symmetric d, col and f.
    grid, (L, lambda0, _) = FullGrid(spec), bifurcation_point(spec)
    u0, lam = grid.sine_mode(), lambda0 + 0.2
    d = 0.1 * grid.symmetric_vector(3) / np.abs(grid.symmetric_vector(3)).max()
    col = -(0.1 * u0 + 0.025 * grid.symmetric_vector(4))
    row = grid.weight * u0
    f = grid.symmetric_vector(5)
    d_half = grid.fold(d) / L.sqrt_multiplicity  # a diagonal acts on nodal values
    x, y = operators.solve_bordered_system(
        L, lam, L.transform(grid.fold(f)), L.transform(grid.fold(col)), d_half, rtol=1e-13, atol=1e-14
    )
    x = unfold(L, L.inverse_transform(x))
    K = np.block(
        [
            [grid.matrix().toarray() + np.diag(d - lam), col[:, None]],
            [row[None, :], np.zeros((1, 1))],
        ]
    )
    want = np.linalg.solve(K, np.append(f, 0.0))
    np.testing.assert_allclose(x, want[:-1], rtol=0, atol=1e-10 * np.linalg.norm(want[:-1]))
    assert abs(y - want[-1]) <= 1e-10 * abs(want[-1])
    assert abs(row @ x) <= 1e-13 * np.linalg.norm(row) * np.linalg.norm(x)


@pytest.mark.parametrize("f0", [1e-4, 1.0])
def test_border_column_is_solved_as_far_as_y_needs(f0, monkeypatch):
    # x takes the column's solve v2 only as y v2, so v2's CG stops at
    # atol/(2|y|), y estimated as (f0 - (A e0, v1))/col0, and never below
    # atol; x stays within atol of a tight solve either way
    L, lambda0, _ = bifurcation_point(MESHES["interval-400"])
    rng = np.random.default_rng(7)
    sigma, atol = lambda0 + 0.2, 1e-6
    diag = rng.uniform(-1, 1, L.n)  # A stays positive off u0: lambda1 - sigma = 2.8
    f, col = 1e-3 * rng.standard_normal(L.n), rng.standard_normal(L.n)
    f[0], col[0] = f0, 1.0
    targets = []
    cg = operators._cg

    def recording_cg(*args, **kwargs):
        targets.append(kwargs["atol"])
        return cg(*args, **kwargs)

    monkeypatch.setattr(operators, "_cg", recording_cg)
    x, y = operators.solve_bordered_system(L, sigma, f.copy(), col.copy(), diag, rtol=0.0, atol=atol)
    tight, _ = operators.solve_bordered_system(L, sigma, f.copy(), col.copy(), diag, rtol=0.0, atol=1e-3 * atol)
    assert np.linalg.norm(x - tight) <= atol
    assert targets[0] == atol
    if f0 < 0.5:  # |y| small: the column's target is loosened by 1/(2|y|)
        assert abs(y) < 0.5 and targets[1] > atol
        assert targets[1] >= 0.5 * atol / abs(y) / 1.01
    else:  # |y| >= 1/2: the column gets the full target
        assert abs(y) >= 0.5 and targets[1] == atol


@pytest.mark.parametrize(
    "spec",
    [MESHES["interval-400"], DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (64, 64)), MESHES["rect-40x80"]],
)
def test_corrector_solves_take_at_most_two_iterations(spec, cg_log, monkeypatch):
    solves = []
    solve = operators.solve_bordered_system

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(operators, "solve_bordered_system", counting_solve)
    run_analysis(spec, NonlinearityModel.psi_k(3, 1.0))
    assert solves and len(cg_log) == len(solves)  # one CG solve per corrector
    assert max(cg_log) <= 2


def test_newton_iterations_per_step_do_not_grow_with_mesh(cg_log):
    per_step = {}
    for n in (32, 128):
        model = NonlinearityModel.psi_k(3, 1.0)
        analysis = run_analysis(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (n, n)), model)
        cg_log.clear()
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert len(branch.points) == len(DEFAULT_S_VALUES)
        steps = sum(p.newton_iters for p in branch.points)
        assert len(cg_log) <= 2 * steps
        per_step[n] = sum(cg_log) / steps
    assert per_step[128] <= per_step[32] + 1.0
    assert per_step[128] <= 20.0


# The folded grid: the mirror-symmetric subspace, ceil(n/2) nodes per axis
# in the coordinates y = sqrt(m) u.

FOLD_SPECS = {
    "interval-7": DomainSpec("interval", ((0.0, PI),), (7,)),
    "interval-8": DomainSpec("interval", ((0.0, 1.0),), (8,)),
    "interval-3": MESHES["interval-3"],
    "rect-5x8": DomainSpec("rectangle", ((0.0, 1.0), (0.0, 2.0)), (5, 8)),
    "rect-8x5": DomainSpec("rectangle", ((0.0, 2.0), (0.0, 1.0)), (8, 5)),
    "square-9": DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (9, 9)),
    "rect-6x700": MESHES["rect-6x700"],
}


@pytest.mark.parametrize("n", [3, 4, 7, 8, 400, 401, 511, 512])
def test_folded_sine_matrix_is_orthogonal(n):
    T = operators._half_dst_matrix(n)
    assert T.shape == ((n + 1) // 2,) * 2
    np.testing.assert_allclose(T @ T.T, np.eye(T.shape[0]), rtol=0, atol=1e-14)
    np.testing.assert_allclose(T.T @ T, np.eye(T.shape[0]), rtol=0, atol=1e-14)
    # the odd-mode rows of the long-double sine matrix over the first half
    # of the nodes, columns scaled by sqrt(m)
    k = (n + 1) // 2
    root_m = np.full(k, math.sqrt(2.0))
    if n % 2:
        root_m[-1] = 1.0  # the centre node is its own mirror
    np.testing.assert_allclose(T, sine_matrix(n)[::2, :k] * root_m, rtol=0, atol=1e-14)
    # a last axis's forward product takes T^T's read-only C-contiguous copy;
    # a first axis, the only one of an interval, takes T itself
    T_t = operators._half_dst_matrix_transposed(n)
    assert np.array_equal(T_t, T.T) and T_t.flags.c_contiguous and not T_t.flags.writeable
    x = np.random.default_rng(n).standard_normal(k)
    assert np.array_equal(operators._axis_transform(x, 0, n, False), T @ x)
    assert np.array_equal(operators._axis_transform(np.stack([x, -x]), 1, n, False), np.stack([x, -x]) @ T_t)


@pytest.mark.parametrize("name", list(FOLD_SPECS))
def test_folded_transform_diagonalises_folded_stencil(name):
    L = Laplacian(FOLD_SPECS[name])
    assert L.grid == tuple((n + 1) // 2 for n in L.shape)
    A = dense(L)
    np.testing.assert_allclose(A, A.T, rtol=0, atol=1e-14 * np.abs(A).max())
    T = np.column_stack([L.transform(e) for e in np.eye(L.n)])
    np.testing.assert_allclose(T @ T.T, np.eye(L.n), rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        np.column_stack([L.inverse_transform(e) for e in np.eye(L.n)]), T.T, rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(T @ A @ T.T, np.diag(L.eigenvalues), rtol=0, atol=1e-12 * np.abs(A).max())
    # the eigenvalues are the odd-mode entries of the full grid's
    grid = FullGrid(FOLD_SPECS[name])
    odd = grid.eigenvalues.reshape(grid.shape)[tuple(slice(None, None, 2) for _ in grid.shape)]
    np.testing.assert_allclose(L.eigenvalues, odd.ravel(), rtol=1e-15)


@pytest.mark.parametrize("name", list(FOLD_SPECS))
def test_fold_commutes_with_stencil_and_transform(name):
    grid, L = FullGrid(FOLD_SPECS[name]), Laplacian(FOLD_SPECS[name])
    u = grid.symmetric_vector(6)
    y = grid.fold(u)
    assert y.shape == (L.n,)
    scale = np.abs(grid.apply(u)).max()
    # L is the diagonal L.eigenvalues on T's coefficients: T^T diag T y is
    # the full grid's stencil, folded (within 1e-15 * scale measured)
    Ly = L.inverse_transform(L.eigenvalues * L.transform(y))
    np.testing.assert_allclose(Ly, grid.fold(grid.apply(u)), rtol=0, atol=1e-14 * scale)
    # a symmetric vector has no even sine modes; its odd ones are T y
    c = grid.transform(u).reshape(grid.shape)
    odd = tuple(slice(None, None, 2) for _ in grid.shape)
    np.testing.assert_allclose(L.transform(y), c[odd].ravel(), rtol=0, atol=1e-13 * np.abs(u).max())
    c[odd] = 0.0
    assert np.abs(c).max() <= 1e-13 * np.abs(u).max()


@pytest.mark.parametrize("name", list(FOLD_SPECS))
def test_fold_unfold_and_dot_products(name):
    grid, L = FullGrid(FOLD_SPECS[name]), Laplacian(FOLD_SPECS[name])
    u, v = grid.symmetric_vector(7), grid.symmetric_vector(8)
    back = unfold(L, grid.fold(u))
    assert back.shape == u.shape
    np.testing.assert_allclose(back, u, rtol=1e-15, atol=0)
    assert grid.is_symmetric(back)
    y = grid.fold(u)
    np.testing.assert_allclose(grid.fold(unfold(L, y)), y, rtol=1e-15, atol=0)
    assert grid.fold(u) @ grid.fold(v) == pytest.approx(u @ v, rel=1e-14, abs=0)
    assert grid.fold(u) @ grid.fold(u) == pytest.approx(u @ u, rel=1e-14, abs=0)


@pytest.mark.parametrize("name", ["interval-7", "interval-8", "rect-5x8", "square-9", "rect-6x700"])
def test_folded_spectral_inverse_is_exact(name):
    L = Laplacian(FOLD_SPECS[name])
    q = L.principal_nodes / np.linalg.norm(L.principal_nodes)
    sigma = float(L.eigenvalues[0]) + 0.3
    v = np.random.default_rng(9).standard_normal(L.n)
    v -= (q @ v) * q
    x = L.inverse_transform(coefficient_solve(L, sigma, stencil(L, v) - sigma * v))
    assert np.linalg.norm(x - v) <= 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(coefficient_solve(L, sigma, q)) <= 1e-12
