"""The exact DST-I spectral core of the Dirichlet Laplacian and the
preconditioned solves built on it."""

import math

import numpy as np
import pytest

from coexist import (
    DomainSpec,
    Laplacian,
    NonlinearityModel,
    build_mesh,
    principal_eigenpair,
    run_analysis,
    trace_branch,
)
from coexist import operators
from coexist.continuation import DEFAULT_S_VALUES
from coexist.operators import dst, spectral_inverse

from conftest import dense

PI = math.pi

MESHES = {
    "interval-3": DomainSpec("interval", ((0.0, PI),), (3,)),
    "interval-400": DomainSpec("interval", ((0.0, PI),), (400,)),
    "square-48": DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (48, 48)),
    "rect-40x80": DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (40, 80)),
    # one axis on each side of operators._SINE_MATRIX_MAX_N
    "rect-6x700": DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (6, 700)),
}


def sine_matrix(n: int) -> np.ndarray:
    """Dense orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi j k / (n+1)),
    evaluated in long double: in float64 the unreduced arguments up to
    pi*n cost about eps*pi*n of accuracy, 2e-14 at n = 600."""
    j = np.arange(1, n + 1, dtype=np.longdouble)
    pi = 4 * np.arctan(np.longdouble(1))
    return (np.sqrt(2 / np.longdouble(n + 1)) * np.sin(pi * np.outer(j, j) / (n + 1))).astype(np.float64)


@pytest.mark.parametrize(
    "spec",
    [
        MESHES["interval-3"],
        DomainSpec("interval", ((0.0, 1.0),), (17,)),
        DomainSpec("interval", ((0.0, PI),), (600,)),  # above the sine-matrix limit
    ],
)
def test_dst_matches_dense_sine_matrix_1d(spec):
    L = Laplacian.of(build_mesh(spec))
    S = sine_matrix(L.n)
    np.testing.assert_allclose(S @ S, np.eye(L.n), atol=1e-14)
    v = np.random.default_rng(0).standard_normal(L.n)
    np.testing.assert_allclose(dst(L, v), S @ v, rtol=0, atol=1e-14 * np.abs(v).sum())
    np.testing.assert_allclose(dst(L, dst(L, v)), v, rtol=0, atol=1e-14 * np.abs(v).sum())


def test_cached_sine_matrix_is_orthonormal():
    n = operators._SINE_MATRIX_MAX_N
    S = operators._sine_matrix(n)
    assert np.array_equal(S, S.T)
    np.testing.assert_allclose(S, sine_matrix(n), rtol=0, atol=1e-14)
    np.testing.assert_allclose(S @ S, np.eye(n), rtol=0, atol=1e-14)


def test_dst_matches_dense_sine_matrix_2d():
    L = Laplacian.of(build_mesh(DomainSpec("rectangle", ((0.0, 1.0), (0.0, 2.0)), (5, 7))))
    S = np.kron(sine_matrix(5), sine_matrix(7))  # lexicographic, first axis slowest
    np.testing.assert_allclose(S @ S, np.eye(L.n), atol=1e-14)
    v = np.random.default_rng(1).standard_normal(L.n)
    np.testing.assert_allclose(dst(L, v), S @ v, rtol=0, atol=1e-14 * np.abs(v).sum())
    np.testing.assert_allclose(dst(L, dst(L, v)), v, rtol=0, atol=1e-14 * np.abs(v).sum())


@pytest.mark.parametrize("name", ["interval-3", "square-48", "rect-40x80"])
def test_sine_modes_diagonalise_assembled_laplacian(name):
    L = Laplacian.of(build_mesh(MESHES[name]))
    A = dense(L)
    S = np.column_stack([dst(L, e) for e in np.eye(L.n)])
    np.testing.assert_allclose(S @ A @ S, np.diag(L.eigenvalues), atol=1e-12 * np.abs(A).max())


def test_eigenvalue_grid_is_cached_and_read_only():
    L = Laplacian.of(build_mesh(MESHES["rect-40x80"]))
    ev = L.eigenvalues
    spectral_inverse(L, float(ev[0]))
    assert L.eigenvalues is ev and not ev.flags.writeable
    assert ev[0] == ev.min()


@pytest.mark.parametrize("name", list(MESHES))
@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_spectral_inverse_is_exact(name, offset):
    # sigma = lambda0 is the corrector's singular shift, lambda0 + 0.3 a
    # Newton-step shift on the branch. On the complement of q the operator
    # inverts L - sigma; the float64 rounding of (L - sigma) v alone bounds
    # the error by about eps * ||L|| / (lambda1 - sigma) ~ 1e-11 relative
    # at n = 400; typical errors sit an order of magnitude below that.
    mesh = build_mesh(MESHES[name])
    L = Laplacian.of(mesh)
    q = np.ones(1)
    for n in mesh.spec.resolution:
        q = np.multiply.outer(q, np.sin(np.pi * np.arange(1, n + 1) / (n + 1)))
    q = q.ravel() / np.linalg.norm(q)
    lambda0 = sum(4.0 / h**2 * np.sin(PI / (2 * (n + 1))) ** 2 for n, h in zip(mesh.spec.resolution, mesh.h))
    sigma = lambda0 + offset
    precondition = spectral_inverse(L, sigma)
    v = np.random.default_rng(2).standard_normal(mesh.n_nodes)
    v -= (q @ v) * q
    assert np.linalg.norm(precondition(L.apply(v) - sigma * v) - v) <= 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(precondition(q)) <= 1e-12


@pytest.mark.parametrize(
    "spec",
    [
        DomainSpec("interval", ((0.0, PI),), (50,)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (12, 16)),
    ],
)
def test_newton_bordered_solve_matches_dense_oracle(spec):
    # the Newton form: A = L - lam + diag(d) and a border column that is
    # not u0; the solution keeps the amplitude, (x, u0) = 0
    mesh = build_mesh(spec)
    L = Laplacian.of(mesh)
    eig = principal_eigenpair(L, mesh)
    u0, lam = eig.vector, eig.eigenvalue + 0.2
    rng = np.random.default_rng(3)
    d = 0.1 * rng.uniform(-1.0, 1.0, mesh.n_nodes)
    col = -(0.1 * u0 + 0.05 * rng.standard_normal(mesh.n_nodes))
    row = mesh.weight * u0
    f = rng.standard_normal(mesh.n_nodes)
    x, y = operators.solve_bordered_system(
        lambda v: L.apply(v) + (d - lam) * v, u0, col, f, L, lam, rtol=1e-13, atol=1e-14
    )
    K = np.block(
        [
            [dense(L) + np.diag(d - lam), col[:, None]],
            [row[None, :], np.zeros((1, 1))],
        ]
    )
    want = np.linalg.solve(K, np.append(f, 0.0))
    np.testing.assert_allclose(x, want[:-1], rtol=0, atol=1e-10 * np.linalg.norm(want[:-1]))
    assert abs(y - want[-1]) <= 1e-10 * abs(want[-1])
    assert abs(row @ x) <= 1e-13 * np.linalg.norm(row) * np.linalg.norm(x)


@pytest.fixture
def cg_log(monkeypatch):
    """Iteration counts of every operators._cg call, in call order."""
    log = []
    cg = operators._cg

    def counting_cg(*args, **kwargs):
        out = cg(*args, **kwargs)
        log.append(out[2])
        return out

    monkeypatch.setattr(operators, "_cg", counting_cg)
    return log


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
    run_analysis(build_mesh(spec), NonlinearityModel.psi_k(3, 1.0))
    assert solves and len(cg_log) == len(solves)  # one CG solve per corrector
    assert max(cg_log) <= 2


def test_newton_iterations_per_step_do_not_grow_with_mesh(cg_log):
    per_step = {}
    for n in (32, 128):
        mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (n, n)))
        model = NonlinearityModel.psi_k(3, 1.0)
        analysis = run_analysis(mesh, model)
        cg_log.clear()
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert len(branch.points) == len(DEFAULT_S_VALUES)
        steps = sum(p.newton_iters for p in branch.points)
        assert len(cg_log) <= 2 * steps
        per_step[n] = sum(cg_log) / steps
    assert per_step[128] <= per_step[32] + 1.0
    assert per_step[128] <= 20.0
