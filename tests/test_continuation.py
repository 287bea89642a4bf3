import math

import numpy as np
import pytest

from coexist import (
    ConvergenceError,
    DomainSpec,
    NonlinearityModel,
    fit_local_expansion,
    run_analysis,
    solve_at_amplitude,
    trace_branch,
)
from coexist import continuation, operators
from coexist.continuation import DEFAULT_S_VALUES, Branch, BranchPoint
from coexist.nonlinearity import derivative_at_zero

from conftest import FullGrid, newton_diagonal, newton_system, residual, stencil, weighted_norm as norm

PI = math.pi


@pytest.fixture(scope="module")
def quartic(spec400):
    return run_analysis(spec400, NonlinearityModel.psi_k(4, 1.0))


@pytest.fixture(scope="module")
def cubic100(spec100):
    return run_analysis(spec100, NonlinearityModel.psi_k(3, 1.0))


class TestResidual:
    # the full-grid residual of conftest, the oracle of Newton's F

    def test_trivial_branch_identically_zero(self, quartic):
        L = quartic.operator
        U = np.zeros(L.n)
        for lam in np.linspace(quartic.cr_report.lambda0 - 1, quartic.cr_report.lambda0 + 1, 7):
            F = residual(U, lam, quartic.model, L)
            assert np.all(F == 0.0)

    def test_linear_model_kernel_direction(self, spec400):
        res = run_analysis(spec400, NonlinearityModel.linear(1.5))
        L, u0 = res.operator, res.eigenpair.vector
        F = residual(0.7 * u0, res.eigenpair.eigenvalue, res.model, L)
        # kernel direction of the shifted operator: residual at eigen accuracy
        assert norm(L, F) <= 1e-8

    def test_quartic_small_amplitude_direct_evaluation(self, quartic, grid400):
        L, u0 = quartic.operator, quartic.eigenpair.vector
        lam0 = quartic.eigenpair.eigenvalue
        F = L.unfold(residual(0.1 * u0, lam0, quartic.model, L))
        # F = (L - lam0)(0.1 u0) + eta (0.1 u0)^3: dominated by the cubic term
        expected = 1e-3 * L.unfold(u0) ** 3
        assert grid400.norm(F - expected) <= 1e-8

    @pytest.mark.parametrize(
        "bounds, resolution",
        [(((0.0, PI),), (101,)), (((0.0, PI), (0.0, 2 * PI)), (12, 17)), (((0.0, PI), (0.0, 2 * PI)), (6, 700))],
    )
    def test_newton_residual_matches_full_grid(self, bounds, resolution):
        # Newton forms F in sine coefficients, (L.eigenvalues + V_L - lam) c
        # - T(sqrt(m) g(U/sqrt(m))); at the nodes it is the stencil's F
        kind = "interval" if len(bounds) == 1 else "rectangle"
        L = run_analysis(DomainSpec(kind, bounds, resolution), NonlinearityModel.psi_k(3, 1.0)).operator
        model = NonlinearityModel.polynomial([0.3, -0.7, 1.1, 0.4])
        U = np.random.default_rng(11).uniform(-1, 1, L.n)
        lam = 2.5
        F = -L.inverse_transform(newton_system(model, L, U, lam)["f"])
        want = residual(U, lam, model, L)
        assert np.linalg.norm(F - want) <= 1e-13 * np.linalg.norm(want)


class TestJacobian:
    # Newton's Jacobian is L - lambda + diag(d), d the node diagonal its
    # bordered solve is given (conftest.newton_diagonal)

    def test_kernel_at_origin(self, quartic):
        # d = V_L - g'(U) vanishes at U = 0 (3e-12 at U = 1e-6 u0), leaving
        # L - lambda0, whose kernel is u0
        L, u0 = quartic.operator, quartic.eigenpair.vector
        lam0 = quartic.eigenpair.eigenvalue
        d = newton_diagonal(quartic.model, L, 1e-6 * u0, lam0 + 0.5)
        assert norm(L, stencil(L, u0) + (d - lam0) * u0) <= 1e-8

    def test_free_model_is_shifted_operator(self, spec400):
        res = run_analysis(spec400, NonlinearityModel.free())
        L = res.operator
        U = np.random.default_rng(5).standard_normal(L.n)
        assert np.all(newton_diagonal(res.model, L, U, 1.3) == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_differences(self, cubic100, seed):
        L = cubic100.operator
        rng = np.random.default_rng(seed)
        U = rng.uniform(-1, 1, L.n)
        lam = cubic100.eigenpair.eigenvalue + rng.uniform(-1, 1)
        d = rng.standard_normal(L.n)
        d /= np.linalg.norm(d)
        eps = 1e-5
        fd = (
            residual(U + eps * d, lam, cubic100.model, L) - residual(U - eps * d, lam, cubic100.model, L)
        ) / (2 * eps)
        diag = newton_diagonal(cubic100.model, L, U, lam)
        jd = stencil(L, d) + (diag - lam) * d
        assert np.max(np.abs(jd - fd)) < 1e-6


def amplitude_coefficients(L, s):
    """The sine coefficients of s*u0: s/sqrt(w) at coefficient 0."""
    return np.eye(1, L.n)[0] * (s / math.sqrt(L.weight))


def expansion_guess(analysis, s):
    """U = s*u0 by its coefficients, with lambda from the second-order
    local expansion."""
    d = analysis.diagnostics
    c = amplitude_coefficients(analysis.operator, s)
    return c, analysis.cr_report.lambda0 + d.mu_s * s + 0.5 * d.mu_ss * s * s


class TestSolveAtAmplitude:
    def test_quartic_lambda_matches_expansion(self, quartic, grid400):
        pt = solve_at_amplitude(0.1, quartic.model, quartic.operator, expansion_guess(quartic, 0.1))
        assert pt.lam == pytest.approx(1.0 + 0.5 * (3 / PI) * 0.01, abs=5e-4)
        assert pt.residual <= 1e-10
        unfold = quartic.operator.unfold
        assert abs(grid400.dot(unfold(pt.U), unfold(quartic.eigenpair.vector)) - 0.1) <= 1e-10

    def test_quartic_parity(self, quartic):
        args = (quartic.model, quartic.operator)
        plus = solve_at_amplitude(0.1, *args, expansion_guess(quartic, 0.1))
        minus = solve_at_amplitude(-0.1, *args, expansion_guess(quartic, -0.1))
        assert abs(plus.lam - minus.lam) <= 1e-8
        assert np.max(np.abs(plus.U + minus.U)) <= 1e-8

    @pytest.mark.parametrize("s", [-0.5, -0.1, 0.25, 0.5])
    def test_linear_model_stays_on_eigenline(self, spec400, s):
        res = run_analysis(spec400, NonlinearityModel.linear(-0.5))
        args = (res.model, res.operator)
        pt = solve_at_amplitude(s, *args, expansion_guess(res, s))
        assert pt.lam == pytest.approx(res.cr_report.lambda0, abs=1e-8)

    def test_warm_start_at_solution_takes_no_step(self, quartic):
        args = (quartic.model, quartic.operator)
        pt = solve_at_amplitude(0.1, *args, expansion_guess(quartic, 0.1))
        again = solve_at_amplitude(0.1, *args, (pt.coefficients, pt.lam))
        assert again.newton_iters == 0
        assert again.lam == pt.lam

    def test_one_step_point_evaluates_the_residual_twice(self, quartic, monkeypatch):
        # at the guess and at the corrected point, g once each; the amplitude
        # needs no re-pinning, so no evaluation follows the loop. Each
        # evaluation takes two transforms, each CG iteration two, and A e0
        # one, from the principal node vector cached on L
        _ = quartic.operator.principal_nodes
        calls, transforms, cg_iters = [], [], []
        g, transform, cg = continuation.apply, operators._sine_transform, operators._cg
        monkeypatch.setattr(continuation, "apply", lambda *args: calls.append(1) or g(*args))
        monkeypatch.setattr(operators, "_sine_transform", lambda *a, **k: transforms.append(1) or transform(*a, **k))

        def counting_cg(*args, **kwargs):
            out = cg(*args, **kwargs)
            cg_iters.append(out[2])
            return out

        monkeypatch.setattr(operators, "_cg", counting_cg)
        branch = trace_branch(quartic, [0.02])
        assert [p.newton_iters for p in branch.points] == [1]
        assert len(calls) == 2
        assert len(cg_iters) == 2 and len(transforms) == 2 + 2 * sum(cg_iters) + 1 + 2

    def test_guess_off_the_amplitude_is_pinned(self, quartic, grid400):
        L, u0 = quartic.operator, quartic.eigenpair.vector
        s = 0.1
        guess = (L.transform(2 * s * u0), expansion_guess(quartic, s)[1])
        pt = solve_at_amplitude(s, quartic.model, L, guess)
        assert pt.residual <= 1e-10
        assert abs(grid400.dot(L.unfold(pt.U), L.unfold(u0)) - s) <= 1e-14

    def test_zero_amplitude_rejected(self, quartic):
        with pytest.raises(ValueError, match="trivial"):
            solve_at_amplitude(0.0, quartic.model, quartic.operator, expansion_guess(quartic, 0.0))

    def test_divergence_carries_history(self, quartic, monkeypatch):
        # lambda guessed at lambda0, off by mu_ss s^2/2: Newton needs two
        # steps to reach the rounding floor, and is allowed one
        monkeypatch.setattr(continuation, "_MAX_NEWTON_STEPS", 1)
        L = quartic.operator
        with pytest.raises(ConvergenceError, match="did not converge") as err:
            solve_at_amplitude(0.1, quartic.model, L, (amplitude_coefficients(L, 0.1), quartic.cr_report.lambda0))
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

    def test_quartic_subcritical_mirror(self, spec400):
        analysis = run_analysis(spec400, NonlinearityModel.psi_k(4, -1.0))
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert all(p.lam < branch.lambda0 for p in branch.points)

    def test_cubic_lambda_sign_follows_s(self, cubic100):
        branch = trace_branch(cubic100, DEFAULT_S_VALUES)
        for p in branch.points:
            assert math.copysign(1, p.lam - branch.lambda0) == math.copysign(1, p.s)

    def test_amplitude_constraint_everywhere(self, quartic, grid400):
        branch = trace_branch(quartic, DEFAULT_S_VALUES)
        u0 = quartic.operator.unfold(quartic.eigenpair.vector)
        for p in branch.points:
            assert abs(grid400.dot(p.U, u0) - p.s) <= 1e-10
            assert p.residual <= 1e-10

    def test_square_domain_branch(self):
        # the Newton/bordered machinery on a 2D mesh
        spec = DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (24, 24))
        analysis = run_analysis(spec, NonlinearityModel.psi_k(4, 1.0))
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
        analysis = run_analysis(DomainSpec("rectangle", bounds, resolution), NonlinearityModel.psi_k(k, eta))
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert len(branch.points) == len(DEFAULT_S_VALUES)
        assert all(p.newton_iters == 1 for p in branch.points)
        assert all(p.residual <= 1e-10 for p in branch.points)

    def test_input_validation(self, quartic):
        with pytest.raises(ValueError, match="0"):
            trace_branch(quartic, [-0.1, 0.0, 0.1])
        with pytest.raises(ValueError, match="increasing"):
            trace_branch(quartic, [0.1, 0.05])

    def test_truncation_recorded_not_raised(self, quartic, monkeypatch):
        # starve Newton of steps so every point diverges: both legs
        # truncate and the events are recorded on the branch
        monkeypatch.setattr(continuation, "_MAX_NEWTON_STEPS", 0)
        branch = trace_branch(quartic, [-0.04, -0.02, 0.02, 0.04])
        assert len(branch.points) == 0
        assert len(branch.truncations) == 2
        assert all("truncated" in t for t in branch.truncations)
        assert branch.fit is None


def full_grid_trace(analysis, grid: FullGrid, s_values):
    """The oracle: trace_branch's legs and predictor, with u0 and z_hat of
    the full grid, each point solved by solve_at_amplitude on the full
    grid's sine coefficients, from the predictor's node vector."""
    u0, lambda0, d = grid.sine_mode(), analysis.eigenpair.eigenvalue, analysis.diagnostics
    z_hat = grid.spectral_solve(0.5 * (u0 * u0 - grid.dot(u0 * u0, u0) * u0), lambda0)
    points = {}
    for leg in (sorted((s for s in s_values if s < 0), reverse=True), [s for s in s_values if s > 0]):
        w, c = derivative_at_zero(analysis.model, 2) * z_hat, 0.5 * d.mu_ss
        for s in leg:
            guess = (grid.transform(s * u0 + s * s * w), lambda0 + d.mu_s * s + c * s * s)
            pt = solve_at_amplitude(s, analysis.model, grid, guess)
            points[s] = pt
            w, c = (pt.U - s * u0) / (s * s), (pt.lam - lambda0 - d.mu_s * s) / (s * s)
    return points


SQUARE = ((0.0, PI), (0.0, PI))
RECT = ((0.0, PI), (0.0, 2 * PI))


class TestFoldedTrace:
    @pytest.mark.parametrize(
        "bounds, resolution, k, eta",
        [
            pytest.param(((0.0, PI),), (400,), 3, 1.0, id="interval-400"),
            pytest.param(((0.0, PI),), (401,), 4, -1.0, id="interval-401"),
            pytest.param(SQUARE, (128, 128), 3, 1.0, id="square-128"),
            pytest.param(SQUARE, (127, 127), 4, 1.0, id="square-127"),
            pytest.param(RECT, (96, 192), 4, -1.0, id="rect-96x192"),
            pytest.param(RECT[::-1], (192, 96), 3, -1.0, id="rect-192x96"),
            pytest.param(RECT, (95, 64), 3, 1.0, id="rect-95x64"),
            # the long axis runs the FFT branch of the transforms
            pytest.param(RECT, (6, 700), 3, 1.0, id="rect-6x700"),
        ],
    )
    def test_matches_full_grid_oracle(self, bounds, resolution, k, eta):
        kind = "interval" if len(bounds) == 1 else "rectangle"
        spec = DomainSpec(kind, bounds, resolution)
        grid = FullGrid(spec)
        analysis = run_analysis(spec, NonlinearityModel.psi_k(k, eta))
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        oracle = full_grid_trace(analysis, grid, DEFAULT_S_VALUES)
        assert [p.s for p in branch.points] == list(DEFAULT_S_VALUES)
        for p in branch.points:
            want = oracle[p.s]
            assert p.newton_iters == want.newton_iters == 1
            assert abs(p.lam - want.lam) <= 1e-12
            assert np.linalg.norm(p.U - want.U) <= 1e-12 * np.linalg.norm(want.U)
            # a full-grid vector equal to its mirror image bit for bit
            assert grid.is_symmetric(p.U)

    def test_node_lengths_are_checked_against_the_operator(self, quartic):
        # the guess has L.n coefficients, ceil(n/2), not the full grid's n
        L = quartic.operator
        with pytest.raises(ValueError, match="guess has shape"):
            solve_at_amplitude(0.1, quartic.model, L, (L.unfold(L.principal_nodes), 1.0))

    def test_stalled_linear_solve_truncates_the_branch(self, quartic, monkeypatch):
        # CG on the folded grid given no iterations: the bordered solve's
        # stall check raises, and Newton reports the failed step with the
        # CG's own message and numbers
        cg = operators._cg
        monkeypatch.setattr(operators, "_cg", lambda *args, **kwargs: cg(*args, **{**kwargs, "max_iter": 0}))
        branch = trace_branch(quartic, [-0.02, 0.02])
        assert not branch.points
        assert len(branch.truncations) == 2
        for t in branch.truncations:
            assert "failed in the linear solve: conjugate gradients stopped short of their target" in t
            assert "after 0 iterations); Newton stopped (residual=" in t


class TestOddTrace:
    # an odd g makes F(-U, lambda) = -F(U, lambda) bit for bit, so on
    # symmetric amplitudes the s < 0 leg is the s > 0 leg mirrored

    @pytest.fixture
    def solved(self, monkeypatch):
        calls = []
        solve = continuation.solve_at_amplitude
        monkeypatch.setattr(continuation, "solve_at_amplitude", lambda s, *args: calls.append(s) or solve(s, *args))
        return calls

    @pytest.mark.parametrize(
        "bounds, resolution, model",
        [
            pytest.param(((0.0, PI),), (400,), NonlinearityModel.psi_k(4, 1.0), id="psi4-interval-400"),
            pytest.param(((0.0, PI),), (401,), NonlinearityModel.psi_k(6, -1.0), id="psi6-interval-401"),
            pytest.param(RECT, (96, 192), NonlinearityModel.psi_k(4, -1.0), id="psi4-rect-96x192"),
            pytest.param(RECT, (25, 47), NonlinearityModel.polynomial([0.3, 0.0, -1.0, 0.0, 0.2]), id="odd-poly-25x47"),
        ],
    )
    def test_mirrored_leg_equals_a_solved_one(self, bounds, resolution, model, solved):
        kind = "interval" if len(bounds) == 1 else "rectangle"
        analysis = run_analysis(DomainSpec(kind, bounds, resolution), model)
        positives = [s for s in DEFAULT_S_VALUES if s > 0]
        negatives = [s for s in DEFAULT_S_VALUES if s < 0]
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert solved == positives and not branch.truncations
        # amplitudes of one sign are not symmetric: that leg is solved
        leg = trace_branch(analysis, negatives)
        assert solved == positives + negatives[::-1]
        assert [p.s for p in branch.points] == list(DEFAULT_S_VALUES)
        for got, want in zip(branch.points[: len(negatives)], leg.points, strict=True):
            assert (got.s, got.lam, got.residual, got.newton_iters) == (want.s, want.lam, want.residual, want.newton_iters)
            assert np.array_equal(got.U, want.U)
        assert branch.fit is not None

    def test_even_g_solves_both_legs(self, cubic100, solved):
        trace_branch(cubic100, DEFAULT_S_VALUES)
        assert sorted(solved) == sorted(DEFAULT_S_VALUES)


class TestFit:
    def test_quartic_fit(self, quartic):
        branch = trace_branch(quartic, DEFAULT_S_VALUES)
        fit = branch.fit
        assert abs(fit.a) <= 1e-3
        assert fit.b == pytest.approx(0.5 * 3 / PI, rel=0.02)
        assert fit.rms <= 1e-3

    def test_cubic_fit(self, spec400):
        analysis = run_analysis(spec400, NonlinearityModel.psi_k(3, 1.0))
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert branch.fit.a == pytest.approx(analysis.diagnostics.mu_s, rel=0.01)

    def test_polynomial_with_offset_linear_part(self, spec400):
        # nonzero V_L shifts m but not lambda; the branch fit must still
        # reproduce the diagnostics
        model = NonlinearityModel.polynomial([1.5, -0.8, 0.6])
        analysis = run_analysis(spec400, model)
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        d = analysis.diagnostics
        assert not branch.truncations
        assert branch.fit.a == pytest.approx(d.mu_s, rel=0.01)
        assert 2 * branch.fit.b == pytest.approx(d.mu_ss, abs=max(5e-3, 0.02 * abs(d.mu_ss)))

    def test_linear_fit_degenerate(self, spec400):
        analysis = run_analysis(spec400, NonlinearityModel.linear(1.0))
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        assert abs(branch.fit.a) <= 1e-6
        assert abs(branch.fit.b) <= 1e-6

    def test_insufficient_points_rejected(self, quartic):
        points = tuple(
            BranchPoint(s=s, lam=1.0, U=np.zeros(3), residual=0.0, newton_iters=1) for s in (0.1, 0.2, 0.3)
        )
        branch = Branch(points=points, lambda0=1.0)
        with pytest.raises(ValueError, match="5"):
            fit_local_expansion(branch)
