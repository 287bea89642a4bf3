import math

import numpy as np
import pytest

from coexist import (
    ConvergenceError,
    DomainSpec,
    Laplacian,
    Tolerances,
    build_mesh,
    inner_product,
    l2_norm,
    principal_eigenpair,
    second_eigenpair,
    verify_crandall_rabinowitz,
)

PI = math.pi


def test_principal_eigenpair_interval_400(eig400, mesh400):
    pair, _ = eig400
    assert pair.eigenvalue == pytest.approx(1.0, abs=1e-4)
    # eigenfunction matches sqrt(2/pi) sin(x) pointwise
    xs = mesh400.interior_nodes[:, 0]
    exact = math.sqrt(2 / PI) * np.sin(xs)
    assert np.max(np.abs(pair.vector - exact)) < 1e-3


def test_principal_eigenpair_contracts(eig400, lap400, mesh400):
    pair, _ = eig400
    assert abs(l2_norm(mesh400, pair.vector) - 1.0) <= 1e-10
    assert np.all(pair.vector >= 0.0)
    assert pair.residual <= 1e-11  # the tolerance the fixture requested
    # Rayleigh-quotient consistency
    rq = inner_product(mesh400, pair.vector, lap400.apply(pair.vector))
    assert abs(pair.eigenvalue - rq) <= 1e-8


def test_second_eigenvalue_interval_400(second400, eig400, mesh400):
    (lam1, vec, res), _ = second400
    pair, _ = eig400
    assert lam1 == pytest.approx(4.0, abs=1e-3)
    assert lam1 - pair.eigenvalue == pytest.approx(3.0, abs=2e-3)
    # the second sine mode sqrt(2/pi) sin(2x), orthogonal to u0
    xs = mesh400.interior_nodes[:, 0]
    assert np.max(np.abs(vec - math.sqrt(2 / PI) * np.sin(2 * xs))) < 1e-3
    assert abs(inner_product(mesh400, vec, pair.vector)) <= 1e-12
    assert res <= 1e-10


def test_principal_eigenpair_square_small():
    mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (48, 48)))
    L = Laplacian.of(mesh)
    pair = principal_eigenpair(L, mesh, tol=1e-10)
    assert pair.eigenvalue == pytest.approx(2.0, abs=2e-3)
    assert np.all(pair.vector >= 0.0)


def test_second_eigenvalue_square_128(second2d_128, eig2d_128, mesh2d_128):
    (lam1, vec, res), _ = second2d_128
    pair, _ = eig2d_128
    # second eigenvalue of the square is 5 (multiplicity 2); the tie goes
    # to the first axis, i.e. the mode (2/pi) sin(2x) sin(y)
    assert lam1 == pytest.approx(5.0, abs=1e-2)
    assert lam1 - pair.eigenvalue == pytest.approx(3.0, abs=1e-2)
    x, y = mesh2d_128.interior_nodes.T
    assert np.max(np.abs(vec - (2 / PI) * np.sin(2 * x) * np.sin(y))) < 1e-3
    assert abs(inner_product(mesh2d_128, vec, pair.vector)) <= 1e-12
    assert res <= 1e-10


def test_minimal_mesh_eigensolve():
    # smallest admissible grid: 3 interior nodes, closed-form eigenvalue
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (3,)))
    L = Laplacian.of(mesh)
    pair = principal_eigenpair(L, mesh, tol=1e-12)
    h = PI / 4
    assert pair.eigenvalue == pytest.approx(2 / h**2 * (1 - math.cos(h)), rel=1e-12)


def test_anisotropic_rectangle():
    # (0, pi) x (0, 2 pi): lambda0 = 1 + 1/4, lambda1 = 1 + 1 (mode (1,2))
    mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (40, 80)))
    L = Laplacian.of(mesh)
    pair = principal_eigenpair(L, mesh, tol=1e-10)
    assert pair.eigenvalue == pytest.approx(1.25, abs=2e-3)
    lam1 = second_eigenpair(L, mesh, tol=1e-10).eigenvalue
    assert lam1 == pytest.approx(2.0, abs=5e-3)


def test_lambda0_refinement_order():
    errs = []
    for n in (50, 100, 200):
        mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (n,)))
        pair = principal_eigenpair(Laplacian.of(mesh), mesh, tol=1e-11)
        errs.append(abs(pair.eigenvalue - 1.0))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_cr_report_interval(eig400, second400, mesh400):
    pair, _ = eig400
    (lam1, _, _), _ = second400
    gap_tol = Tolerances().resolved_gap_tol(pair.eigenvalue)
    cr = verify_crandall_rabinowitz(pair.eigenvalue, lam1, pair.vector, mesh400, gap_tol)
    assert cr.gap == pytest.approx(3.0, abs=2e-3)
    assert cr.kernel_dim_ok and cr.transversality_ok
    assert cr.bifurcation_point_certified
    assert cr.transversality_value == pytest.approx(-1.0, abs=1e-10)


def test_cr_report_degenerate_gap(eig400, mesh400):
    pair, _ = eig400
    gap_tol = Tolerances().resolved_gap_tol(pair.eigenvalue)
    cr = verify_crandall_rabinowitz(pair.eigenvalue, pair.eigenvalue, pair.vector, mesh400, gap_tol)
    assert cr.gap == 0.0
    assert not cr.kernel_dim_ok
    assert not cr.bifurcation_point_certified


def test_cr_custom_gap_tol(eig400, second400, mesh400):
    pair, _ = eig400
    (lam1, _, _), _ = second400
    cr = verify_crandall_rabinowitz(pair.eigenvalue, lam1, pair.vector, mesh400, gap_tol=10.0)
    assert not cr.kernel_dim_ok


def test_unattainable_tolerance_raises():
    # the closed form's residual against the assembled L sits at the
    # rounding floor, far above 1e-16 and far below the default 1e-10
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (100,)))
    L = Laplacian.of(mesh)
    with pytest.raises(ConvergenceError) as err:
        principal_eigenpair(L, mesh, tol=1e-16)
    assert 1e-16 < err.value.residual < 1e-12
    with pytest.raises(ConvergenceError):
        second_eigenpair(L, mesh, tol=1e-16)


def test_determinism(mesh100):
    L = Laplacian.of(mesh100)
    p1 = principal_eigenpair(L, mesh100, tol=1e-10)
    p2 = principal_eigenpair(L, mesh100, tol=1e-10)
    assert p1.eigenvalue == p2.eigenvalue
    assert np.array_equal(p1.vector, p2.vector)
    s1 = second_eigenpair(L, mesh100, tol=1e-10)
    s2 = second_eigenpair(L, mesh100, tol=1e-10)
    assert s1.eigenvalue == s2.eigenvalue
    assert np.array_equal(s1.vector, s2.vector)
