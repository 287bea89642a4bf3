"""The exact DST-I spectral core of the Dirichlet Laplacian and the
preconditioned solves built on it."""

import math
from functools import reduce

import numpy as np
import pytest

from coexist import (
    DomainSpec,
    NonlinearityModel,
    assemble_laplacian,
    build_mesh,
    run_analysis,
    trace_branch,
)
from coexist import operators
from coexist.continuation import DEFAULT_S_VALUES
from coexist.operators import axis_eigenvalues, dst, spectral_inverse

PI = math.pi

MESHES = {
    "interval-3": DomainSpec("interval", ((0.0, PI),), (3,)),
    "interval-400": DomainSpec("interval", ((0.0, PI),), (400,)),
    "square-48": DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (48, 48)),
    "rect-40x80": DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (40, 80)),
}


def sine_matrix(n: int) -> np.ndarray:
    """Dense orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi j k / (n+1))."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


@pytest.mark.parametrize("spec", [MESHES["interval-3"], DomainSpec("interval", ((0.0, 1.0),), (17,))])
def test_dst_matches_dense_sine_matrix_1d(spec):
    mesh = build_mesh(spec)
    S = sine_matrix(mesh.n_nodes)
    np.testing.assert_allclose(S @ S, np.eye(mesh.n_nodes), atol=1e-14)
    v = np.random.default_rng(0).standard_normal(mesh.n_nodes)
    np.testing.assert_allclose(dst(mesh, v), S @ v, rtol=0, atol=1e-14 * np.abs(v).sum())
    np.testing.assert_allclose(dst(mesh, dst(mesh, v)), v, rtol=0, atol=1e-14 * np.abs(v).sum())


def test_dst_matches_dense_sine_matrix_2d():
    mesh = build_mesh(DomainSpec("rectangle", ((0.0, 1.0), (0.0, 2.0)), (5, 7)))
    S = np.kron(sine_matrix(5), sine_matrix(7))  # lexicographic, first axis slowest
    np.testing.assert_allclose(S @ S, np.eye(mesh.n_nodes), atol=1e-14)
    v = np.random.default_rng(1).standard_normal(mesh.n_nodes)
    np.testing.assert_allclose(dst(mesh, v), S @ v, rtol=0, atol=1e-14 * np.abs(v).sum())
    np.testing.assert_allclose(dst(mesh, dst(mesh, v)), v, rtol=0, atol=1e-14 * np.abs(v).sum())


@pytest.mark.parametrize("name", ["interval-3", "square-48", "rect-40x80"])
def test_sine_modes_diagonalise_assembled_laplacian(name):
    mesh = build_mesh(MESHES[name])
    L = assemble_laplacian(mesh).matrix.toarray()
    S = np.column_stack([dst(mesh, e) for e in np.eye(mesh.n_nodes)])
    modes = reduce(np.add.outer, axis_eigenvalues(mesh)).ravel()  # node order of dst's output
    np.testing.assert_allclose(S @ L @ S, np.diag(modes), atol=1e-12 * np.abs(L).max())


@pytest.mark.parametrize("name", list(MESHES))
@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_spectral_inverse_is_exact(name, offset):
    # sigma = lambda0 is the corrector's singular shift, lambda0 + 0.3 a
    # Newton-step shift on the branch; k = max(1, gap) as in the pipeline.
    # The float64 rounding of M v alone bounds the error by about
    # eps * ||M|| / lambda_min(M) ~ 1e-11 relative at n = 400; typical
    # errors sit an order of magnitude below that.
    mesh = build_mesh(MESHES[name])
    L = assemble_laplacian(mesh)
    q = np.ones(1)
    for n in mesh.spec.resolution:
        q = np.multiply.outer(q, np.sin(np.pi * np.arange(1, n + 1) / (n + 1)))
    q = q.ravel() / np.linalg.norm(q)
    axes = [
        4.0 / h**2 * np.sin(np.array([1, 2]) * PI / (2 * (n + 1))) ** 2
        for n, h in zip(mesh.spec.resolution, mesh.h)
    ]
    lambda0 = sum(ev[0] for ev in axes)
    gap = min(ev[1] - ev[0] for ev in axes)
    sigma, k = lambda0 + offset, max(1.0, gap)
    precondition = spectral_inverse(mesh, sigma, k)
    v = np.random.default_rng(2).standard_normal(mesh.n_nodes)
    Mv = L.apply(v) - sigma * v + k * (q @ v) * q
    assert np.linalg.norm(precondition(Mv) - v) <= 1e-12 * np.linalg.norm(v)


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
def test_corrector_solves_take_at_most_two_iterations(spec, cg_log):
    run_analysis(build_mesh(spec), NonlinearityModel.psi_k(3, 1.0))
    assert cg_log and max(cg_log) <= 2


def test_newton_iterations_per_step_do_not_grow_with_mesh(cg_log):
    per_step = {}
    for n in (32, 128):
        mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (n, n)))
        model = NonlinearityModel.psi_k(3, 1.0)
        analysis = run_analysis(mesh, model)
        cg_log.clear()
        branch = trace_branch(model, mesh, DEFAULT_S_VALUES, analysis=analysis)
        assert len(branch.points) == len(DEFAULT_S_VALUES)
        per_step[n] = sum(cg_log) / sum(p.newton_iters for p in branch.points)
    assert per_step[128] <= per_step[32] + 1.0
    assert per_step[128] <= 20.0
