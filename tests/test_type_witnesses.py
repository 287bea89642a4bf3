"""Witnesses of the types IV, V, VII and VIII through the whole pipeline.

With g = c2 u^2 + c3 u^3, mu_s = -c2 I3 and mu_ss = -2 c3 I4 - 8 c2^2 M_hat.
c2 = -1 or +1 gives mu_s > 0 or < 0. c3 = -0.1 makes mu_ss positive (types
IV and VII); c3 = -4 c2^2 M_hat / I4, from the mesh's own moments, cancels
mu_ss (types V and VIII), and the cancellation leaves rounding that the
type must read as zero at any scale of c2, here also 1e-3 and 37.
"""

import math

import pytest

from coexist import CoexistenceType, DomainSpec, NonlinearityModel, eigendata, run_analysis, trace_branch
from coexist.continuation import DEFAULT_S_VALUES

PI = math.pi

DOMAINS = {
    "interval-400": DomainSpec("interval", ((0.0, PI),), (400,)),
    "rect-96x192": DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (96, 192)),
}

# (c2, whether c3 cancels mu_ss) -> type
WITNESSES = {
    (-1.0, False): CoexistenceType.IV,
    (1.0, False): CoexistenceType.VII,
    (-1.0, True): CoexistenceType.V,
    (1.0, True): CoexistenceType.VIII,
    (1e-3, True): CoexistenceType.VIII,
    (37.0, True): CoexistenceType.VIII,
}
IDS = [str(t) if abs(c2) == 1.0 else f"{t}-c2={c2:g}" for (c2, _), t in WITNESSES.items()]


@pytest.fixture(scope="module", params=list(DOMAINS))
def spec(request):
    return DOMAINS[request.param]


@pytest.mark.parametrize("c2, cancel", list(WITNESSES), ids=IDS)
def test_witness_classifies_and_traces(spec, c2, cancel):
    # u -> c2 u maps the model to c2 = 1: the branch at amplitude s is the
    # c2 = 1 branch at c2 s, its residual over c2, and a and b carry c2 and
    # c2^2. Amplitudes and the bounds scaled so keep the trace of |c2| > 1
    # as local and as tight as at c2 = 1; Newton's stop scales with ||U||
    scale = max(1.0, abs(c2))
    eig = eigendata(spec)
    c3 = -4.0 * c2 * c2 * eig.M_hat / eig.I4 if cancel else -0.1
    analysis = run_analysis(spec, NonlinearityModel.polynomial((0.0, c2, c3)))
    d = analysis.diagnostics
    assert d.ctype is WITNESSES[(c2, cancel)]

    branch = trace_branch(analysis, [s / scale for s in DEFAULT_S_VALUES])
    assert len(branch.points) == len(DEFAULT_S_VALUES) and not branch.truncations
    assert abs(branch.fit.a - d.mu_s) <= 1e-12 * scale
    assert abs(2 * branch.fit.b - d.mu_ss) <= 1e-10 * scale**2
