import math
import sys

import numpy as np
import pytest

from coexist import DomainSpec, eigendata
from coexist.diagnostics import bifurcation_point, cr_report

from conftest import FullGrid, interval, principal_mode, unfold

PI = math.pi


def test_principal_eigenpair_interval_400(eig400, grid400):
    eig, _ = eig400
    assert eig.lambda0 == pytest.approx(1.0, abs=1e-4)
    # eigenfunction matches sqrt(2/pi) sin(x) pointwise
    exact = math.sqrt(2 / PI) * np.sin(grid400.coords[0])
    assert np.max(np.abs(unfold(eig.operator, principal_mode(eig.operator)) - exact)) < 1e-3


def test_principal_eigenpair_contracts(eig400, grid400):
    eig, _ = eig400
    u0 = unfold(eig.operator, principal_mode(eig.operator))
    assert abs(grid400.norm(u0) - 1.0) <= 1e-10
    assert np.all(u0 >= 0.0)
    # Rayleigh-quotient consistency, on the full grid's stencil
    rq = grid400.dot(u0, grid400.apply(u0))
    assert abs(eig.lambda0 - rq) <= 1e-8


def test_second_eigenvalue_interval_400(eig400):
    eig, _ = eig400
    assert eig.lambda1 == pytest.approx(4.0, abs=1e-3)
    assert eig.lambda1 - eig.lambda0 == pytest.approx(3.0, abs=2e-3)


def test_principal_eigenpair_square_small():
    eig = eigendata(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (48, 48)))
    assert eig.lambda0 == pytest.approx(2.0, abs=2e-3)
    assert np.all(principal_mode(eig.operator) >= 0.0)


def test_second_eigenvalue_square_128(eig2d_128):
    # second eigenvalue of the square is 5, with multiplicity 2
    eig, _ = eig2d_128
    assert eig.lambda1 == pytest.approx(5.0, abs=1e-2)
    assert eig.lambda1 - eig.lambda0 == pytest.approx(3.0, abs=1e-2)


@pytest.mark.parametrize(
    "spec",
    [
        DomainSpec("interval", ((0.0, PI),), (9,)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (7, 7)),
        # lambda1 from the longer axis: the second, then the first
        DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (6, 13)),
        DomainSpec("rectangle", ((0.0, 2 * PI), (0.0, PI)), (13, 6)),
    ],
    ids=["interval-9", "square-7x7", "rect-6x13", "rect-13x6"],
)
def test_lambda1_matches_dense_eigvalsh(spec):
    eig = eigendata(spec)
    want = np.linalg.eigvalsh(FullGrid(spec).matrix().toarray())
    assert eig.lambda1 == pytest.approx(want[1], rel=1e-12, abs=0)
    assert eig.lambda1 - eig.lambda0 == pytest.approx(want[1] - want[0], rel=1e-12, abs=0)


def test_minimal_mesh_eigensolve():
    # smallest admissible grid: 3 interior nodes, closed-form eigenvalue
    _, lambda0, _ = bifurcation_point(DomainSpec("interval", ((0.0, PI),), (3,)))
    h = PI / 4
    assert lambda0 == pytest.approx(2 / h**2 * (1 - math.cos(h)), rel=1e-12, abs=0)


def test_anisotropic_rectangle():
    # (0, pi) x (0, 2 pi): lambda0 = 1 + 1/4, lambda1 = 1 + 1 (mode (1,2))
    eig = eigendata(DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (40, 80)))
    assert eig.lambda0 == pytest.approx(1.25, abs=2e-3)
    assert eig.lambda1 == pytest.approx(2.0, abs=5e-3)


def test_lambda0_refinement_order():
    errs = []
    for n in (50, 100, 200):
        _, lambda0, _ = bifurcation_point(interval(n))
        errs.append(abs(lambda0 - 1.0))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_cr_report_interval(eig400):
    eig, _ = eig400
    cr = cr_report(eig.lambda0, eig.lambda1)
    assert cr["gap"] == eig.lambda1 - eig.lambda0 == pytest.approx(3.0, abs=2e-3)
    assert cr["kernel_dim_ok"] is True
    # the transversality value is the identity -(u0, u0) = -1, reported, not a check
    assert cr["transversality_value"] == -1.0
    u0 = principal_mode(eig.operator)
    assert eig.operator.weight * float(u0 @ u0) == pytest.approx(1.0, rel=1e-14, abs=0)


def test_cr_report_degenerate_gap(eig400):
    eig, _ = eig400
    cr = cr_report(eig.lambda0, eig.lambda0)
    assert cr["gap"] == 0.0
    assert not cr["kernel_dim_ok"]


def test_cr_gap_within_rounding_fails(eig400):
    # the kernel is one-dimensional on every box; only a gap that rounding
    # could make, a few eps * lambda0, fails the certificate
    eig, _ = eig400
    lam0, eps = eig.lambda0, sys.float_info.epsilon
    for lam1, ok in ((lam0 * (1 + 8 * eps), False), (lam0 * (1 + 1e-12), True)):
        assert cr_report(lam0, lam1)["kernel_dim_ok"] is ok


def test_determinism(spec100):
    e1, e2 = eigendata(spec100), eigendata(spec100)
    assert (e1.lambda0, e1.lambda1) == (e2.lambda0, e2.lambda1)
    assert np.array_equal(principal_mode(e1.operator), principal_mode(e2.operator))


def assert_meets_stencil_oracle(spec):
    """u0, unfolded to the full grid, against the full-grid stencil:
    normalized, and with a residual at the rounding of L v, a fraction of
    eps * lambda_max on every mesh below (0.29 to 0.38 measured)."""
    eig, grid = eigendata(spec), FullGrid(spec)
    u0 = unfold(eig.operator, principal_mode(eig.operator))
    assert grid.norm(u0) == pytest.approx(1.0, rel=4 * np.finfo(float).eps, abs=0)
    lambda_max = float(grid.eigenvalues[-1])
    assert grid.norm(grid.apply(u0) - eig.lambda0 * u0) <= 2 * np.finfo(float).eps * lambda_max


@pytest.mark.parametrize("n", [400, 2000, 10000])
def test_per_axis_certificate_is_the_stencil_residual_in_1d(n):
    # the sine mode is the stencil's exact eigenvector, so no certificate
    # is taken; 2000 and 10000 nodes raised at the former eigen_tol
    assert_meets_stencil_oracle(interval(n))


@pytest.mark.parametrize(
    "bounds, resolution",
    [
        (((0.0, PI), (0.0, PI)), (128, 128)),
        (((0.0, PI), (0.0, PI)), (127, 127)),
        (((0.0, PI), (0.0, 2 * PI)), (96, 192)),
        (((0.0, PI), (0.0, 2 * PI)), (95, 63)),
        (((0.0, PI), (0.0, 2 * PI)), (95, 64)),
        (((0.0, PI), (0.0, 2 * PI)), (6, 700)),
        (((0.0, 100.0), (0.0, 0.1)), (40, 30)),
    ],
    ids=["square-128", "square-127", "rect-96x192", "rect-95x63", "rect-95x64", "rect-6x700", "rect-long-thin"],
)
def test_per_axis_certificate_matches_stencil_residual_in_2d(bounds, resolution):
    assert_meets_stencil_oracle(DomainSpec("rectangle", bounds, resolution))


@pytest.mark.parametrize(
    "spec",
    [
        DomainSpec("interval", ((0.0, PI),), (3,)),
        DomainSpec("interval", ((0.0, PI),), (400,)),
        DomainSpec("interval", ((0.0, PI),), (2000,)),
        DomainSpec("interval", ((0.0, PI),), (10000,)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (3, 3)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (128, 128)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (127, 127)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (6, 13)),
        DomainSpec("rectangle", ((0.0, 2 * PI), (0.0, PI)), (13, 6)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (96, 192)),
        DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (6, 700)),
        DomainSpec("rectangle", ((0.0, 100.0), (0.0, 0.1)), (40, 30)),
    ],
    ids=lambda spec: "x".join(map(str, spec.resolution)),
)
def test_lambda_pair_matches_partition_oracle(spec):
    # per-axis sums, bit for bit the two smallest entries of the full grid
    _, lambda0, lambda1 = bifurcation_point(spec)
    cr = cr_report(lambda0, lambda1)
    ev = np.partition(FullGrid(spec).eigenvalues, 1)
    want0, want1 = float(ev[0]), float(ev[1])
    assert (lambda0, lambda1, cr["lambda0"], cr["lambda1"], cr["gap"]) == (want0, want1, want0, want1, want1 - want0)
