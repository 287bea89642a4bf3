import math
import time

import numpy as np
import pytest

from coexist import DomainSpec, Laplacian, Moments, Tolerances, build_mesh, inner_product, principal_eigenpair
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


def dense(L) -> np.ndarray:
    """The stencil as a dense matrix, column j = L.apply(e_j)."""
    return np.column_stack([L.apply(e) for e in np.eye(L.n)])


def psi3_sigma_form(mesh, u0, z_s, eta: float) -> float:
    """mu_ss of psi_3 in the cross-check form computed from the vectors,
    4 eta (u0 z_s, u0) - 2 eta (u0^2, u0) (z_s, u0); the second term
    vanishes under the orthogonality constraint."""
    return 4.0 * eta * inner_product(mesh, u0 * z_s, u0) - 2.0 * eta * inner_product(
        mesh, u0 * u0, u0
    ) * inner_product(mesh, z_s, u0)


def vector_moments(mesh, u0, z) -> Moments:
    """The moments as mesh inner products of full-grid vectors, the oracle
    for `Moments.of`'s sums in a Laplacian's own coordinates."""
    return Moments(
        I3=inner_product(mesh, u0 * u0, u0),
        I4=inner_product(mesh, u0 * u0 * u0, u0),
        M_zu=inner_product(mesh, u0 * z, u0),
        P_zu=inner_product(mesh, z, u0),
    )


def interval_mesh(n: int):
    return build_mesh(DomainSpec("interval", ((0.0, PI),), (n,)))


@pytest.fixture(scope="session")
def mesh100():
    return interval_mesh(100)


@pytest.fixture(scope="session")
def mesh400():
    return interval_mesh(400)


@pytest.fixture(scope="session")
def lap400(mesh400):
    return Laplacian.of(mesh400)


@pytest.fixture(scope="session")
def eig400(lap400, mesh400):
    t0 = time.perf_counter()
    pair = principal_eigenpair(lap400, mesh400, tol=1e-11)
    return pair, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cr400(mesh400):
    """The bifurcation-point checks at default tolerances, which carry
    lambda1 and the gap, and the time they took."""
    t0 = time.perf_counter()
    _, _, cr = bifurcation_point(mesh400, Tolerances())
    return cr, time.perf_counter() - t0


@pytest.fixture(scope="session")
def mesh2d_128():
    return build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (128, 128)))


@pytest.fixture(scope="session")
def lap2d_128(mesh2d_128):
    return Laplacian.of(mesh2d_128)


@pytest.fixture(scope="session")
def eig2d_128(lap2d_128, mesh2d_128):
    t0 = time.perf_counter()
    pair = principal_eigenpair(lap2d_128, mesh2d_128, tol=1e-10)
    return pair, time.perf_counter() - t0

