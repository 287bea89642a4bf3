import math

import numpy as np
import pytest

from coexist import (
    ConvergenceError,
    DomainSpec,
    NonlinearityModel,
    build_mesh,
    fit_local_expansion,
    inner_product,
    jacobian_apply,
    l2_norm,
    residual,
    run_analysis,
    solve_at_amplitude,
    trace_branch,
)
from coexist.continuation import DEFAULT_S_VALUES, Branch, BranchPoint

PI = math.pi


@pytest.fixture(scope="module")
def quartic(mesh400):
    return run_analysis(mesh400, NonlinearityModel.psi_k(4, 1.0))


@pytest.fixture(scope="module")
def cubic100(mesh100):
    return run_analysis(mesh100, NonlinearityModel.psi_k(3, 1.0))


class TestResidual:
    def test_trivial_branch_identically_zero(self, quartic, mesh400):
        U = np.zeros(mesh400.n_nodes)
        for lam in np.linspace(quartic.diagnostics.lambda0 - 1, quartic.diagnostics.lambda0 + 1, 7):
            F = residual(U, lam, quartic.model, quartic.operator)
            assert np.all(F == 0.0)

    def test_linear_model_kernel_direction(self, mesh400):
        res = run_analysis(mesh400, NonlinearityModel.linear(1.5))
        u0 = res.eigenpair.vector
        F = residual(0.7 * u0, res.eigenpair.eigenvalue, res.model, res.operator)
        # kernel direction of the shifted operator: residual at eigen accuracy
        assert l2_norm(mesh400, F) <= 1e-8

    def test_quartic_small_amplitude_direct_evaluation(self, quartic, mesh400):
        u0 = quartic.eigenpair.vector
        lam0 = quartic.eigenpair.eigenvalue
        F = residual(0.1 * u0, lam0, quartic.model, quartic.operator)
        # F = (L - lam0)(0.1 u0) + eta (0.1 u0)^3: dominated by the cubic term
        expected = 1e-3 * u0**3
        assert l2_norm(mesh400, F - expected) <= 1e-8


class TestJacobian:
    def test_kernel_at_origin(self, quartic, mesh400):
        u0 = quartic.eigenpair.vector
        out = jacobian_apply(np.zeros(mesh400.n_nodes), quartic.eigenpair.eigenvalue, quartic.model, quartic.operator)(u0)
        assert l2_norm(mesh400, out) <= 1e-8

    def test_free_model_is_shifted_operator(self, mesh400):
        res = run_analysis(mesh400, NonlinearityModel.free())
        rng = np.random.default_rng(5)
        d = rng.standard_normal(mesh400.n_nodes)
        lam = 1.3
        out = jacobian_apply(rng.standard_normal(mesh400.n_nodes), lam, res.model, res.operator)(d)
        np.testing.assert_allclose(out, res.operator.apply(d) - lam * d, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_differences(self, cubic100, mesh100, seed):
        rng = np.random.default_rng(seed)
        U = rng.uniform(-1, 1, mesh100.n_nodes)
        lam = cubic100.eigenpair.eigenvalue + rng.uniform(-1, 1)
        d = rng.standard_normal(mesh100.n_nodes)
        d /= np.linalg.norm(d)
        eps = 1e-5
        fd = (
            residual(U + eps * d, lam, cubic100.model, cubic100.operator)
            - residual(U - eps * d, lam, cubic100.model, cubic100.operator)
        ) / (2 * eps)
        jd = jacobian_apply(U, lam, cubic100.model, cubic100.operator)(d)
        assert np.max(np.abs(jd - fd)) < 1e-6


class TestSolveAtAmplitude:
    def test_quartic_lambda_matches_expansion(self, quartic, mesh400):
        d = quartic.diagnostics
        pt = solve_at_amplitude(
            0.1,
            quartic.model,
            quartic.operator,
            mesh400,
            quartic.eigenpair.vector,
            d.lambda0,
            d.mu_s,
            d.mu_ss,
        )
        assert pt.lam == pytest.approx(1.0 + 0.5 * (3 / PI) * 0.01, abs=5e-4)
        assert pt.residual <= 1e-10
        assert abs(inner_product(mesh400, pt.U, quartic.eigenpair.vector) - 0.1) <= 1e-10

    def test_quartic_parity(self, quartic, mesh400):
        d = quartic.diagnostics
        args = (quartic.model, quartic.operator, mesh400, quartic.eigenpair.vector, d.lambda0, d.mu_s, d.mu_ss)
        plus = solve_at_amplitude(0.1, *args)
        minus = solve_at_amplitude(-0.1, *args)
        assert abs(plus.lam - minus.lam) <= 1e-8
        assert np.max(np.abs(plus.U + minus.U)) <= 1e-8

    @pytest.mark.parametrize("s", [-0.5, -0.1, 0.25, 0.5])
    def test_linear_model_stays_on_eigenline(self, mesh400, s):
        res = run_analysis(mesh400, NonlinearityModel.linear(-0.5))
        d = res.diagnostics
        pt = solve_at_amplitude(
            s, res.model, res.operator, mesh400, res.eigenpair.vector, d.lambda0, d.mu_s, d.mu_ss
        )
        assert pt.lam == pytest.approx(d.lambda0, abs=1e-8)

    def test_warm_start_at_solution_takes_no_step(self, quartic, mesh400):
        d = quartic.diagnostics
        args = (quartic.model, quartic.operator, mesh400, quartic.eigenpair.vector, d.lambda0, d.mu_s, d.mu_ss)
        pt = solve_at_amplitude(0.1, *args)
        again = solve_at_amplitude(0.1, *args, initial=(pt.U, pt.lam))
        assert again.newton_iters == 0
        assert again.lam == pt.lam

    def test_zero_amplitude_rejected(self, quartic, mesh400):
        d = quartic.diagnostics
        with pytest.raises(ValueError, match="trivial"):
            solve_at_amplitude(
                0.0,
                quartic.model,
                quartic.operator,
                mesh400,
                quartic.eigenpair.vector,
                d.lambda0,
                d.mu_s,
                d.mu_ss,
            )

    def test_divergence_carries_history(self, quartic, mesh400):
        d = quartic.diagnostics
        with pytest.raises(ConvergenceError) as err:
            solve_at_amplitude(
                0.1,
                quartic.model,
                quartic.operator,
                mesh400,
                quartic.eigenpair.vector,
                d.lambda0,
                d.mu_s,
                d.mu_ss,
                newton_tol=1e-15,
                max_iters=1,
            )
        assert err.value.iterations == 1
        assert err.value.residual > 0


class TestTraceBranch:
    def test_quartic_supercritical(self, quartic):
        branch = trace_branch(quartic, DEFAULT_S_VALUES)
        assert len(branch.points) == 10
        assert not branch.truncations
        assert all(p.lam > branch.lambda0 for p in branch.points)
        s_list = [p.s for p in branch.points]
        assert s_list == sorted(s_list)

    def test_quartic_subcritical_mirror(self, mesh400):
        analysis = run_analysis(mesh400, NonlinearityModel.psi_k(4, -1.0))
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert all(p.lam < branch.lambda0 for p in branch.points)

    def test_cubic_lambda_sign_follows_s(self, cubic100):
        branch = trace_branch(cubic100, DEFAULT_S_VALUES)
        for p in branch.points:
            assert math.copysign(1, p.lam - branch.lambda0) == math.copysign(1, p.s)

    def test_amplitude_constraint_everywhere(self, quartic, mesh400):
        branch = trace_branch(quartic, DEFAULT_S_VALUES)
        u0 = quartic.eigenpair.vector
        for p in branch.points:
            assert abs(inner_product(mesh400, p.U, u0) - p.s) <= 1e-10
            assert p.residual <= 1e-10

    def test_square_domain_branch(self):
        # the Newton/bordered machinery on a 2D mesh
        mesh = build_mesh(DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (24, 24)))
        analysis = run_analysis(mesh, NonlinearityModel.psi_k(4, 1.0))
        branch = trace_branch(analysis, [-0.08, -0.04, 0.04, 0.08])
        assert not branch.truncations
        assert all(p.lam > branch.lambda0 for p in branch.points)
        assert all(p.residual <= 1e-10 for p in branch.points)

    @pytest.mark.parametrize(
        "bounds, resolution, k, eta",
        [
            (((0.0, PI), (0.0, PI)), (128, 128), 3, 1.0),
            (((0.0, PI), (0.0, 2 * PI)), (96, 192), 4, -1.0),
        ],
    )
    def test_predictor_converges_in_one_newton_step(self, bounds, resolution, k, eta):
        mesh = build_mesh(DomainSpec("rectangle", bounds, resolution))
        analysis = run_analysis(mesh, NonlinearityModel.psi_k(k, eta))
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert len(branch.points) == len(DEFAULT_S_VALUES)
        assert all(p.newton_iters == 1 for p in branch.points)
        assert all(p.residual <= 1e-10 for p in branch.points)

    def test_input_validation(self, quartic):
        with pytest.raises(ValueError, match="0"):
            trace_branch(quartic, [-0.1, 0.0, 0.1])
        with pytest.raises(ValueError, match="increasing"):
            trace_branch(quartic, [0.1, 0.05])

    def test_truncation_recorded_not_raised(self, quartic):
        # starve Newton so every point diverges: both legs truncate and
        # the events are recorded on the branch
        branch = trace_branch(quartic, [-0.04, -0.02, 0.02, 0.04], newton_tol=1e-15, max_iters=0)
        assert len(branch.points) == 0
        assert len(branch.truncations) == 2
        assert all("truncated" in t for t in branch.truncations)
        assert branch.fit is None


class TestFit:
    def test_quartic_fit(self, quartic):
        branch = trace_branch(quartic, DEFAULT_S_VALUES)
        fit = branch.fit
        assert abs(fit.a) <= 1e-3
        assert fit.b == pytest.approx(0.5 * 3 / PI, rel=0.02)
        assert fit.rms <= 1e-3

    def test_cubic_fit(self, mesh400):
        analysis = run_analysis(mesh400, NonlinearityModel.psi_k(3, 1.0))
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert branch.fit.a == pytest.approx(analysis.diagnostics.mu_s, rel=0.01)

    def test_polynomial_with_offset_linear_part(self, mesh400):
        # nonzero V_L shifts m but not lambda; the branch fit must still
        # reproduce the diagnostics
        model = NonlinearityModel.polynomial([1.5, -0.8, 0.6])
        analysis = run_analysis(mesh400, model)
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        d = analysis.diagnostics
        assert not branch.truncations
        assert branch.fit.a == pytest.approx(d.mu_s, rel=0.01)
        assert 2 * branch.fit.b == pytest.approx(d.mu_ss, abs=max(5e-3, 0.02 * abs(d.mu_ss)))

    def test_linear_fit_degenerate(self, mesh400):
        analysis = run_analysis(mesh400, NonlinearityModel.linear(1.0))
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert abs(branch.fit.a) <= 1e-6
        assert abs(branch.fit.b) <= 1e-6

    def test_insufficient_points_rejected(self, quartic):
        points = tuple(
            BranchPoint(s=s, lam=1.0, U=np.zeros(3), residual=0.0, newton_iters=1) for s in (0.1, 0.2, 0.3)
        )
        branch = Branch(points=points, model=quartic.model, lambda0=1.0)
        with pytest.raises(ValueError, match="5"):
            fit_local_expansion(branch)
