"""Property sweep over valid domains: every psi_k classification is
right, or a ConfigError where lambda1 and lambda0 round together, whatever
the domain's length, aspect ratio or resolution.

The reference type follows from the closed-form sign pair of
g = -eta u^(k-1): mu_s = eta I3 and mu_ss = -8 eta^2 M_hat for k = 3
(I3, M_hat > 0), mu_s = 0 and mu_ss = 2 eta I4 for k = 4 (I4 > 0), and
mu_s = mu_ss = 0 for k >= 5.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, example, given, settings, strategies as st

from coexist import CoexistenceType, ConfigError, DomainSpec, NonlinearityModel, run_analysis

REFERENCE = {
    (3, 1): CoexistenceType.VI,
    (3, -1): CoexistenceType.IX,
    (4, 1): CoexistenceType.I,
    (4, -1): CoexistenceType.III,
}

lengths = st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 10.0**e)
intervals = st.builds(
    lambda length, n: DomainSpec("interval", ((0.0, length),), (n,)), lengths, st.integers(3, 2000)
)
rectangles = st.builds(
    lambda lx, ly, nx, ny: DomainSpec("rectangle", ((0.0, lx), (0.0, ly)), (nx, ny)),
    lengths,
    lengths,
    st.integers(3, 256),
    st.integers(3, 256),
)


# On (0, 0.1) at 20 and 50 nodes psi_3 read V (VIII) while a zero band of
# 1e-6 lambda0 = 9.9e-4 judged mu_ss = -3.0e-4; the explicit examples keep
# those cases first. A ConfigError is the refusal of a kernel gap that
# rounds to zero; no valid domain raises anything else.
@settings(
    derandomize=True, database=None, phases=[Phase.explicit, Phase.generate], max_examples=60, deadline=None
)
@given(spec=st.one_of(intervals, rectangles), k=st.integers(3, 8), sign=st.sampled_from([1, -1]))
@example(spec=DomainSpec("interval", ((0.0, 0.1),), (20,)), k=3, sign=1)
@example(spec=DomainSpec("interval", ((0.0, 0.1),), (50,)), k=3, sign=1)
def test_psi_k_type_is_right_or_a_typed_error(spec, k, sign):
    model = NonlinearityModel.psi_k(k, float(sign))
    try:
        ctype = run_analysis(spec, model).diagnostics.ctype
    except ConfigError:
        return
    assert ctype is REFERENCE.get((k, sign), CoexistenceType.II), (spec, k, sign)
