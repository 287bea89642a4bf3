"""Default-tolerance runs off the (0, pi) fixtures: domains whose length
or resolution moves lambda0 and 1/h^2 far from those of the rest of the
suite."""

import math

import pytest

from coexist import ConvergenceError, CoexistenceType, DomainSpec, NonlinearityModel, build_mesh, run_analysis

PI = math.pi

# The absolute default eigen_tol = 1e-10 lies below the rounding floor of
# the residual ||L v - lambda v|| once 1/h^2 reaches ~4e5; tolerances that
# scale with lambda0 and 1/h^2 are ROADMAP.md item 4.
ROUNDING_FLOOR = pytest.mark.xfail(
    strict=True,
    raises=ConvergenceError,
    reason="absolute eigen_tol is below the eigen-residual rounding floor (ROADMAP.md item 4)",
)


@pytest.mark.parametrize(
    "spec, model, expected",
    [
        (DomainSpec("interval", ((0.0, 1.0),), (400,)), NonlinearityModel.psi_k(3, 1.0), CoexistenceType.VI),
        (
            DomainSpec("rectangle", ((0.0, 1.0), (0.0, 1.0)), (64, 64)),
            NonlinearityModel.psi_k(4, 1.0),
            CoexistenceType.I,
        ),
    ],
    ids=["unit-interval-400-psi3", "unit-square-64-psi4"],
)
def test_unit_domains_classify(spec, model, expected):
    assert run_analysis(build_mesh(spec), model).diagnostics.ctype is expected


@ROUNDING_FLOOR
@pytest.mark.parametrize("n", [2000, 10000])
def test_fine_interval_classifies(n):
    mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (n,)))
    result = run_analysis(mesh, NonlinearityModel.psi_k(3, 1.0))
    assert result.diagnostics.ctype is CoexistenceType.VI
