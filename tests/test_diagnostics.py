import math

import numpy as np
import pytest

from coexist import (
    CoexistenceSide,
    CoexistenceType,
    DomainSpec,
    NonlinearityModel,
    SolvabilityError,
    ConfigError,
    Moments,
    bordered_solve,
    build_mesh,
    classify,
    compute_z_s,
    derivative_at_zero,
    diagnose,
    eigendata,
    inner_product,
    l2_norm,
    psi_k_table,
    run_analysis,
)
from coexist.diagnostics import Tolerances

from conftest import dense, psi3_sigma_form

PI = math.pi
I3_EXACT = (2 / PI) ** 1.5 * (4 / 3)  # (u0^2, u0) on (0, pi)
I4_EXACT = 3 / (2 * PI)  # (u0^3, u0) on (0, pi)


@pytest.fixture(scope="module")
def eigdata(lap400, eig400, mesh400):
    pair, _ = eig400
    return lap400, pair


@pytest.fixture(scope="module")
def eig(mesh400):
    return eigendata(mesh400, Tolerances(eigen_tol=1e-11))


def _is_plus_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) == 1.0


class TestClassify:
    @pytest.mark.parametrize(
        "mu_s, mu_ss, expected",
        [
            (0.0, 1.0, CoexistenceType.I),
            (0.0, 0.0, CoexistenceType.II),
            (0.0, -1.0, CoexistenceType.III),
            (1.0, 1.0, CoexistenceType.IV),
            (1.0, 0.0, CoexistenceType.V),
            (1.0, -1.0, CoexistenceType.VI),
            (-1.0, 1.0, CoexistenceType.VII),
            (-1.0, 0.0, CoexistenceType.VIII),
            (-1.0, -1.0, CoexistenceType.IX),
        ],
    )
    def test_all_nine_sign_pairs(self, mu_s, mu_ss, expected):
        assert classify(mu_s, mu_ss, zero_tol=1e-6) is expected

    def test_quartic_positive_coupling_case(self):
        assert classify(0.0, 0.95, 1e-6) is CoexistenceType.I

    def test_degenerate_case(self):
        assert classify(0.0, 0.0, 1e-6) is CoexistenceType.II

    def test_table_lookup_case(self):
        assert classify(-0.7, -0.3, 1e-6) is CoexistenceType.IX

    def test_zero_tolerance_band(self):
        assert classify(5e-7, 1.0, 1e-6) is CoexistenceType.I
        assert classify(5e-6, 1.0, 1e-6) is CoexistenceType.IV

    def test_zero_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            classify(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("mu_s, mu_ss", [(float("nan"), 1.0), (0.0, float("nan"))])
    def test_nan_has_no_sign(self, mu_s, mu_ss):
        with pytest.raises(ValueError, match="NaN"):
            classify(mu_s, mu_ss, 1e-6)


class TestMuS:
    def test_cubic_interaction_closed_form(self, eig):
        mu_s = diagnose(eig, NonlinearityModel.psi_k(3, 1.0), Tolerances()).mu_s
        assert mu_s == pytest.approx(I3_EXACT, abs=1e-4)

    def test_quartic_interaction_exactly_zero(self, eig):
        assert _is_plus_zero(diagnose(eig, NonlinearityModel.psi_k(4, 3.0), Tolerances()).mu_s)

    @pytest.mark.parametrize("v_l", [-2.0, 1.0, 3.0])
    def test_linear_model_zero(self, eig, v_l):
        assert _is_plus_zero(diagnose(eig, NonlinearityModel.linear(v_l), Tolerances()).mu_s)


def test_diagnose_does_no_vector_work(eig, monkeypatch):
    # every model's diagnostics are arithmetic on the per-mesh moments:
    # no inner product runs and the result holds no mesh vector
    def no_inner_product(*args, **kwargs):
        raise AssertionError("diagnose took an inner product")

    monkeypatch.setattr("coexist.diagnostics.inner_product", no_inner_product)
    for model in (
        NonlinearityModel.psi_k(3, 1.0),
        NonlinearityModel.psi_k(3, -1.0),
        NonlinearityModel.psi_k(4, 1.0),
        NonlinearityModel.linear(2.0),
        NonlinearityModel.polynomial([0.5, 1.0, -0.5]),
        NonlinearityModel.free(),
    ):
        d = diagnose(eig, model, Tolerances())
        assert not any(isinstance(v, np.ndarray) for v in vars(d).values()), model


class TestCorrector:
    def test_quartic_zero_rhs_gives_zero(self, eig):
        # g''(0) = 0 (-0.0 for the cubic at eta = 0): the corrector
        # vanishes and its moments are exactly +0.0
        for model in (NonlinearityModel.psi_k(4, 1.0), NonlinearityModel.psi_k(3, 0.0)):
            d = diagnose(eig, model, Tolerances())
            assert np.all(derivative_at_zero(model, 2) * eig.z_hat == 0.0)
            assert all(_is_plus_zero(x) for x in (d.mu_s, d.moments.M_zu, d.moments.P_zu)), model

    def test_free_model_gives_zero(self, eig):
        d = diagnose(eig, NonlinearityModel.free(), Tolerances())
        assert np.all(derivative_at_zero(NonlinearityModel.free(), 2) * eig.z_hat == 0.0)
        assert all(_is_plus_zero(x) for x in (d.mu_s, d.mu_ss, d.moments.M_zu, d.moments.P_zu))

    def test_cubic_corrector_orthogonal(self, eigdata, mesh400):
        L, pair = eigdata
        sol = compute_z_s(L, pair.vector, mesh400, pair.eigenvalue)
        assert abs(inner_product(mesh400, sol.z, pair.vector)) <= 1e-10
        assert l2_norm(mesh400, sol.z) > 1e-3  # genuinely nonzero
        assert abs(sol.xi) <= 1e-8

    def test_cubic_corrector_against_dense_oracle(self):
        # z_s = g''(0) z_hat against a dense solve of the model's own
        # corrector equation A z_s = mu_s u0 + 1/2 g''(0) u0^2, (z_s, u0) = 0
        model = NonlinearityModel.psi_k(3, 1.0)
        for spec in (
            DomainSpec("interval", ((0.0, PI),), (100,)),
            DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (12, 16)),
        ):
            mesh = build_mesh(spec)
            tol = Tolerances(eigen_tol=1e-12)
            eig = eigendata(mesh, tol)
            d = diagnose(eig, model, tol)
            u0, n = eig.eigenpair.vector, mesh.n_nodes

            K = np.zeros((n + 1, n + 1))
            K[:n, :n] = dense(eig.operator) - eig.eigenpair.eigenvalue * np.eye(n)
            K[:n, n] = u0
            K[n, :n] = mesh.quad_weights * u0
            g2 = derivative_at_zero(model, 2)
            rhs = d.mu_s * u0 + 0.5 * g2 * u0**2
            direct = np.linalg.solve(K, np.concatenate([rhs, [0.0]]))
            assert l2_norm(mesh, g2 * eig.z_hat - direct[:n]) < 1e-8, spec

    def test_unnormalized_eigenpair_raises_solvability(self, eigdata, mesh400):
        # within the normalization check's 1e-6, yet (u0^2 - I3 u0, u0)
        # no longer vanishes: the multiplier exceeds solvability_tol
        L, pair = eigdata
        with pytest.raises(SolvabilityError):
            compute_z_s(L, pair.vector * (1 + 5e-7), mesh400, pair.eigenvalue)


class TestMuSS:
    def test_quartic_closed_form(self, eigdata, mesh400):
        _, pair = eigdata
        model = NonlinearityModel.psi_k(4, 1.0)
        z = np.zeros(mesh400.n_nodes)
        mu_ss = Moments.of(mesh400, pair.vector, z).mu_ss(model, 0.0)
        assert mu_ss == pytest.approx(3 / PI, abs=1e-3)

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_higher_powers_vanish(self, eig, k):
        d = diagnose(eig, NonlinearityModel.psi_k(k, 1.0), Tolerances())
        assert abs(d.mu_ss) <= 1e-10

    def test_cubic_matches_sigma_form(self, eigdata, eig, mesh400):
        _, pair = eigdata
        eta = 1.0
        model = NonlinearityModel.psi_k(3, eta)
        mu_ss = diagnose(eig, model, Tolerances()).mu_ss
        z = derivative_at_zero(model, 2) * eig.z_hat
        sigma = psi3_sigma_form(mesh400, pair.vector, z, eta)
        assert mu_ss == pytest.approx(sigma, abs=1e-8)
        # the constrained term of sigma is itself numerically zero
        second_term = 2 * eta * inner_product(mesh400, pair.vector**2, pair.vector) * inner_product(
            mesh400, z, pair.vector
        )
        assert abs(second_term) <= 1e-10


def test_cubic_mu_ss_against_fourier_series_oracle(eig):
    # Fully independent oracle: expand the corrector in the Dirichlet
    # sine basis on (0, pi). With u0 = c sin x (c^2 = 2/pi) and
    # I_n = integral of sin^2(x) sin(nx) = -4/(n(n^2-4)), the corrector
    # modes are z_n = -eta c^2 (2/pi) I_n / (n^2 - 1) for odd n >= 3, so
    #
    #   mu_ss = 4 eta (u0 z, u0)
    #         = -eta^2 (2/pi)^3 * 64 * sum 1/(n^2 (n^2-4)^2 (n^2-1)).
    series = sum(
        1.0 / (n**2 * (n**2 - 4) ** 2 * (n**2 - 1)) for n in range(3, 200, 2)
    )
    oracle = -((2 / PI) ** 3) * 64.0 * series

    mu_ss = diagnose(eig, NonlinearityModel.psi_k(3, 1.0), Tolerances()).mu_ss
    assert mu_ss == pytest.approx(oracle, abs=1e-5)


class TestRawFormOracle:
    """Re-derive mu_s and mu_ss from the raw projections, keeping the
    V_L terms and solving for the second corrector, and check that the
    cancellation baked into the closed forms is real."""

    @pytest.mark.parametrize(
        "model",
        [
            NonlinearityModel.polynomial([1.5, -0.8, 0.6]),
            NonlinearityModel.polynomial([-2.0, 1.0, 0.0, 0.3]),
            NonlinearityModel.linear(2.5),
        ],
    )
    def test_raw_forms_match_closed_forms(self, eigdata, eig, mesh400, model):
        L, pair = eigdata
        u0 = pair.vector
        v_l = model.V_L
        g2 = derivative_at_zero(model, 2)
        g3 = derivative_at_zero(model, 3)
        # shift by lambda0 of the *linearized* operator: the closed forms
        # are invariant to V_L because lambda = m + V_L absorbs it
        d = diagnose(eig, model, Tolerances())
        mu_s, z_s, mu_ss = d.mu_s, g2 * eig.z_hat, d.mu_ss

        # raw first-order relation: 2 mu_s = -(d2g, u0) + 2 (V_L z_s, u0)
        d2g = g2 * u0 * u0 + 2.0 * v_l * z_s
        raw_mu_s = 0.5 * (-inner_product(mesh400, d2g, u0) + 2.0 * v_l * inner_product(mesh400, z_s, u0))
        assert raw_mu_s == pytest.approx(mu_s, abs=1e-9)

        # second corrector: A z_ss = mu_ss u0 + 2 mu_s z_s + g3/3 u0^3 + 2 g2 u0 z_s
        rhs_zss = mu_ss * u0 + 2.0 * mu_s * z_s + (g3 / 3.0) * u0**3 + 2.0 * g2 * u0 * z_s
        sol = bordered_solve(L, u0, rhs_zss, mesh400, pair.eigenvalue, tol=1e-10)
        assert abs(sol.xi) <= 1e-8  # solvable by the choice of mu_ss
        z_ss = sol.z

        # raw second-order relation keeps the V_L z_ss terms
        d3g = g3 * u0**3 + 6.0 * g2 * u0 * z_s + 3.0 * v_l * z_ss
        raw_mu_ss = (
            -inner_product(mesh400, d3g, u0)
            - 6.0 * mu_s * inner_product(mesh400, z_s, u0)
            + 3.0 * v_l * inner_product(mesh400, z_ss, u0)
        ) / 3.0
        assert raw_mu_ss == pytest.approx(mu_ss, abs=1e-8)


class TestScalingCovariance:
    def test_cubic_scaling(self, eig):
        def diag(eta):
            d = diagnose(eig, NonlinearityModel.psi_k(3, eta), Tolerances())
            return d.mu_s, d.mu_ss

        mu_s_1, mu_ss_1 = diag(1.0)
        mu_s_2, mu_ss_2 = diag(2.0)
        assert mu_s_2 == pytest.approx(2 * mu_s_1, rel=1e-13)
        assert mu_ss_2 == pytest.approx(4 * mu_ss_1, rel=1e-9)

    def test_quartic_scaling(self, eigdata, mesh400):
        _, pair = eigdata
        z = np.zeros(mesh400.n_nodes)
        moments = Moments.of(mesh400, pair.vector, z)
        m1 = moments.mu_ss(NonlinearityModel.psi_k(4, 1.0), 0.0)
        m2 = moments.mu_ss(NonlinearityModel.psi_k(4, 2.0), 0.0)
        assert m2 == pytest.approx(2 * m1, rel=1e-13)


class TestPipeline:
    def test_quartic_positive(self, mesh400):
        d = run_analysis(mesh400, NonlinearityModel.psi_k(4, 1.0)).diagnostics
        assert d.ctype is CoexistenceType.I
        assert d.m_coexistence_side is CoexistenceSide.ABOVE
        assert d.mu_s == 0.0
        assert d.moments.I4 == pytest.approx(I4_EXACT, abs=1e-4)

    def test_quartic_negative(self, mesh400):
        d = run_analysis(mesh400, NonlinearityModel.psi_k(4, -1.0)).diagnostics
        assert d.ctype is CoexistenceType.III
        assert d.m_coexistence_side is CoexistenceSide.BELOW

    def test_seventh_power(self, mesh400):
        d = run_analysis(mesh400, NonlinearityModel.psi_k(7, 1.0)).diagnostics
        assert d.ctype is CoexistenceType.II
        assert d.m_coexistence_side is CoexistenceSide.DEGENERATE

    def test_cubic_two_sided_with_inferred_note(self, mesh400):
        d = run_analysis(mesh400, NonlinearityModel.psi_k(3, 1.0)).diagnostics
        assert d.ctype is CoexistenceType.VI
        assert d.m_coexistence_side is CoexistenceSide.TWO_SIDED
        assert any("inferred" in w for w in d.warnings)

    @pytest.mark.parametrize("v_l", [-5.0, -2.0, 1.0, 3.0, 5.0])
    def test_linear_cancellation(self, mesh400, v_l):
        d = run_analysis(mesh400, NonlinearityModel.linear(v_l)).diagnostics
        assert abs(d.mu_s) <= 1e-9
        assert abs(d.mu_ss) <= 1e-9
        assert d.ctype is CoexistenceType.II

    def test_orthogonality_across_models(self, mesh400):
        for model in (
            NonlinearityModel.psi_k(3, 1.0),
            NonlinearityModel.psi_k(3, -0.5),
            NonlinearityModel.polynomial([0.5, 1.0, -0.5]),
            NonlinearityModel.linear(2.0),
        ):
            d = run_analysis(mesh400, model).diagnostics
            assert abs(d.moments.P_zu) <= 1e-10

    def test_m_at_bifurcation(self, mesh400):
        res = run_analysis(mesh400, NonlinearityModel.linear(2.0))
        assert res.m_at_bifurcation == res.cr_report.lambda0 - 2.0

    def test_boundary_warning_near_zero_tol(self, mesh400):
        # polynomial with a tiny quadratic coefficient puts mu_s right at
        # the classification band edge
        c2 = -1.5e-6 / I3_EXACT
        d = run_analysis(mesh400, NonlinearityModel.polynomial([0.0, c2])).diagnostics
        assert any("zero_tol" in w for w in d.warnings)

    def test_square_domain_cubic_interaction(self):
        # the full pipeline on a 2D domain: u0 = (2/pi) sin(x) sin(y),
        # (u0^2, u0) = (2/pi)^3 (4/3)^2 in the continuum
        mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (40, 40)))
        d = run_analysis(mesh, NonlinearityModel.psi_k(3, 1.0)).diagnostics
        expected_i3 = (2 / PI) ** 3 * (4 / 3) ** 2
        assert d.lambda0 == pytest.approx(2.0, abs=2e-3)
        assert d.mu_s == pytest.approx(expected_i3, rel=1e-2)
        assert abs(d.moments.P_zu) <= 1e-10
        assert d.m_coexistence_side is CoexistenceSide.TWO_SIDED

    def test_square_domain_quartic_interaction(self):
        # (u0^3, u0) = (2/pi)^4 (3 pi/8)^2 in the continuum
        mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (40, 40)))
        d = run_analysis(mesh, NonlinearityModel.psi_k(4, 1.0)).diagnostics
        expected_mu_ss = 2 * (2 / PI) ** 4 * (3 * PI / 8) ** 2
        assert d.mu_s == 0.0
        assert d.mu_ss == pytest.approx(expected_mu_ss, rel=1e-2)
        assert d.ctype is CoexistenceType.I

    def test_offset_interval(self):
        # translation invariance: same spectrum and diagnostics on (1, 1+pi)
        mesh = build_mesh(DomainSpec("interval", ((1.0, 1.0 + PI),), (200,)))
        d = run_analysis(mesh, NonlinearityModel.psi_k(3, 1.0)).diagnostics
        assert d.lambda0 == pytest.approx(1.0, abs=1e-3)
        assert d.mu_s == pytest.approx(I3_EXACT, abs=1e-3)

    def test_refinement_order_mu_quantities(self):
        # mu_s for the cubic interaction superconverges (O(h^4)); check
        # that each refinement is at least second order or at the floor
        errs = []
        for n in (50, 100, 200):
            mesh = build_mesh(DomainSpec("interval", ((0.0, PI),), (n,)))
            d = run_analysis(mesh, NonlinearityModel.psi_k(3, 1.0), Tolerances(eigen_tol=1e-11)).diagnostics
            errs.append(abs(d.mu_s - I3_EXACT))
        for e_coarse, e_fine in zip(errs, errs[1:]):
            assert e_fine <= max(e_coarse / 2**1.9, 1e-10)


@pytest.fixture(scope="module")
def table(mesh400):
    return psi_k_table(mesh400, [3, 4, 5, 6], [1.0])


class TestInteractionTable:
    def test_cubic_row(self, table, mesh400, eig400):
        pair, _ = eig400
        row = table[0]
        assert row.k == 3
        assert row.mu_s == pytest.approx(I3_EXACT, abs=1e-4)
        # projection columns: -2 eta (u0^2,u0) and -12 eta (u0 z_s, u0)
        assert row.proj2 == pytest.approx(-2 * I3_EXACT, abs=1e-4)
        assert row.ctype is CoexistenceType.VI

    def test_quartic_row(self, table):
        row = table[1]
        assert row.mu_s == 0.0
        assert row.mu_ss == pytest.approx(2 * I4_EXACT, abs=1e-3)
        assert row.proj2 == 0.0
        assert row.proj3 == pytest.approx(-6 * I4_EXACT, abs=1e-3)
        assert row.ctype is CoexistenceType.I

    @pytest.mark.parametrize("idx", [2, 3])
    def test_high_power_rows(self, table, idx):
        row = table[idx]
        assert row.mu_s == 0.0
        assert abs(row.mu_ss) <= 1e-10
        assert row.proj2 == 0.0 and abs(row.proj3) <= 1e-10
        assert row.ctype is CoexistenceType.II

    def test_cubic_proj3_consistent_with_corrector(self, table, mesh400, lap400, eig400):
        pair, _ = eig400
        # the cubic model's own corrector equation, solved directly
        model = NonlinearityModel.psi_k(3, 1.0)
        g2 = derivative_at_zero(model, 2)
        mu_s = -0.5 * g2 * inner_product(mesh400, pair.vector**2, pair.vector)
        rhs = mu_s * pair.vector + 0.5 * g2 * pair.vector**2
        z = bordered_solve(lap400, pair.vector, rhs, mesh400, pair.eigenvalue).z
        expected = -12.0 * inner_product(mesh400, pair.vector * z, pair.vector)
        assert table[0].proj3 == pytest.approx(expected, rel=1e-8)

    def test_rows_match_run_analysis(self, mesh400):
        etas = [1.0, 2.5, -0.5, -3.0]
        ks = [3, 4, 5, 6, 7, 8]
        rows = psi_k_table(mesh400, ks, etas)
        assert [(r.eta, r.k) for r in rows] == [(eta, k) for eta in etas for k in ks]
        for row in rows:
            d = run_analysis(mesh400, NonlinearityModel.psi_k(row.k, row.eta)).diagnostics
            assert (row.mu_s, row.mu_ss, row.ctype) == (d.mu_s, d.mu_ss, d.ctype)

    def test_negative_eta_flips_quartic(self, mesh400):
        rows = psi_k_table(mesh400, [4], [-1.0])
        assert rows[0].ctype is CoexistenceType.III

    def test_zero_eta_everything_degenerate(self, mesh400):
        for row in psi_k_table(mesh400, [3, 4, 5], [0.0]):
            assert row.ctype is CoexistenceType.II

    def test_k_range_validated(self, mesh400):
        for k_list in ([2], [True]):
            with pytest.raises(ValueError, match="3..8"):
                psi_k_table(mesh400, k_list, [1.0])
        with pytest.raises(ConfigError, match="integer"):
            psi_k_table(mesh400, [3.9], [1.0])
