import math
import time

import numpy as np
import pytest

from coexist import (
    DomainSpec,
    Laplacian,
    build_mesh,
    inner_product,
    principal_eigenpair,
    second_eigenpair,
)

PI = math.pi

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
def second400(lap400, eig400, mesh400):
    pair, _ = eig400
    t0 = time.perf_counter()
    second = second_eigenpair(lap400, mesh400, tol=1e-10)
    return (second.eigenvalue, second.vector, second.residual), time.perf_counter() - t0


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


@pytest.fixture(scope="session")
def second2d_128(lap2d_128, eig2d_128, mesh2d_128):
    pair, _ = eig2d_128
    t0 = time.perf_counter()
    second = second_eigenpair(lap2d_128, mesh2d_128, tol=1e-10)
    return (second.eigenvalue, second.vector, second.residual), time.perf_counter() - t0
