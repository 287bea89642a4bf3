import math
import time

import pytest

from coexist import (
    DomainSpec,
    assemble_laplacian,
    build_mesh,
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
    return assemble_laplacian(mesh400)


@pytest.fixture(scope="session")
def eig400(lap400, mesh400):
    t0 = time.perf_counter()
    pair = principal_eigenpair(lap400, mesh400, tol=1e-11)
    return pair, time.perf_counter() - t0


@pytest.fixture(scope="session")
def second400(lap400, eig400, mesh400):
    pair, _ = eig400
    t0 = time.perf_counter()
    lam1, vec, res = second_eigenpair(lap400, pair.vector, mesh400, tol=1e-10)
    return (lam1, vec, res), time.perf_counter() - t0


@pytest.fixture(scope="session")
def mesh2d_128():
    return build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (128, 128)))


@pytest.fixture(scope="session")
def lap2d_128(mesh2d_128):
    return assemble_laplacian(mesh2d_128)


@pytest.fixture(scope="session")
def eig2d_128(lap2d_128, mesh2d_128):
    t0 = time.perf_counter()
    pair = principal_eigenpair(lap2d_128, mesh2d_128, tol=1e-10)
    return pair, time.perf_counter() - t0


@pytest.fixture(scope="session")
def second2d_128(lap2d_128, eig2d_128, mesh2d_128):
    pair, _ = eig2d_128
    t0 = time.perf_counter()
    lam1, vec, res = second_eigenpair(lap2d_128, pair.vector, mesh2d_128, tol=1e-10)
    return (lam1, vec, res), time.perf_counter() - t0
