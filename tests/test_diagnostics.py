import ast
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from coexist import (
    CoexistenceSide,
    CoexistenceType,
    DomainSpec,
    Laplacian,
    NonlinearityModel,
    ConfigError,
    bordered_solve,
    derivative_at_zero,
    diagnose,
    eigendata,
    psi_k_table,
    run_analysis,
    trace_branch,
)
import coexist
from coexist import diagnostics, operators
from coexist.cli import RunConfig, cmd_analyze
from coexist.continuation import DEFAULT_S_VALUES
from coexist.diagnostics import sign_with_tolerance

from conftest import BENCHMARK_POLY, FullGrid, principal_mode, psi3_sigma_form, unfold, vector_moments, z_hat_nodes

PI = math.pi
I3_EXACT = (2 / PI) ** 1.5 * (4 / 3)  # (u0^2, u0) on (0, pi)
I4_EXACT = 3 / (2 * PI)  # (u0^3, u0) on (0, pi)


@pytest.fixture(scope="module")
def eig(spec400):
    return eigendata(spec400)


def _is_plus_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) == 1.0


def table_type(mu_s: float, mu_ss: float, zero_tol: float) -> CoexistenceType:
    """The nine-cell table that `diagnose` indexes, read at the sign pair."""
    return diagnostics._TYPE_TABLE[(sign_with_tolerance(mu_s, zero_tol), sign_with_tolerance(mu_ss, zero_tol))]


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
        assert table_type(mu_s, mu_ss, zero_tol=1e-6) is expected

    def test_quartic_positive_coupling_case(self):
        assert table_type(0.0, 0.95, 1e-6) is CoexistenceType.I

    def test_degenerate_case(self):
        assert table_type(0.0, 0.0, 1e-6) is CoexistenceType.II

    def test_table_lookup_case(self):
        assert table_type(-0.7, -0.3, 1e-6) is CoexistenceType.IX

    def test_zero_tolerance_band(self):
        assert table_type(5e-7, 1.0, 1e-6) is CoexistenceType.I
        assert table_type(5e-6, 1.0, 1e-6) is CoexistenceType.IV

    @pytest.mark.parametrize("mu_s, mu_ss", [(float("nan"), 1.0), (0.0, float("nan"))])
    def test_nan_has_no_sign(self, mu_s, mu_ss):
        with pytest.raises(ValueError, match="NaN"):
            table_type(mu_s, mu_ss, 1e-6)


class TestMuS:
    def test_cubic_interaction_closed_form(self, eig):
        mu_s = diagnose(eig, NonlinearityModel.psi_k(3, 1.0)).mu_s
        assert mu_s == pytest.approx(I3_EXACT, abs=1e-4)

    def test_quartic_interaction_exactly_zero(self, eig):
        assert _is_plus_zero(diagnose(eig, NonlinearityModel.psi_k(4, 3.0)).mu_s)

    @pytest.mark.parametrize("v_l", [-2.0, 1.0, 3.0])
    def test_linear_model_zero(self, eig, v_l):
        assert _is_plus_zero(diagnose(eig, NonlinearityModel.linear(v_l)).mu_s)


def test_diagnose_does_no_vector_work(eig, spec400, monkeypatch):
    # every model's diagnostics are arithmetic on the per-mesh moments:
    # eigendata without its vectors serves, and the result holds no mesh vector
    analysis = run_analysis(spec400, NonlinearityModel.psi_k(3, 1.0))
    tables = []
    real = diagnostics.eigendata
    monkeypatch.setattr(diagnostics, "eigendata", lambda spec: tables.append(real(spec)) or tables[-1])
    psi_k_table(spec400, [3, 4], [1.0, -1.0])
    # the principal node vector is formed on first read, by the trace alone;
    # the trace holds U by its coefficients and reads no node vector of u0
    # or z_hat
    for eig_data in (analysis, tables[0]):
        assert "u0" not in vars(eig_data) and "principal_nodes" not in vars(eig_data.operator)
    trace_branch(analysis, DEFAULT_S_VALUES)
    assert "principal_nodes" in vars(analysis.operator)
    assert "u0" not in vars(analysis) and "z_hat" not in vars(analysis)

    eig = dataclasses.replace(eig, operator=None, z_hat_coefficients=None)
    for model in (
        NonlinearityModel.psi_k(3, 1.0),
        NonlinearityModel.psi_k(3, -1.0),
        NonlinearityModel.psi_k(4, 1.0),
        NonlinearityModel.linear(2.0),
        NonlinearityModel.polynomial([0.5, 1.0, -0.5]),
        NonlinearityModel.free(),
    ):
        d = diagnose(eig, model)
        assert not any(isinstance(v, np.ndarray) for v in vars(d).values()), model


def test_psi_k_table_builds_one_model_per_k_and_eta(spec400, monkeypatch):
    # the rows scale one model per k by eta: no model per row, and no
    # diagnose with its warning strings
    built, diagnosed = [], []
    post_init = NonlinearityModel.__post_init__
    monkeypatch.setattr(NonlinearityModel, "__post_init__", lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(diagnostics, "diagnose", lambda *args: diagnosed.append(args))
    k_list, eta_list = [3, 4, 5, 6, 7, 8], [1.0, -1.0, 0.0, 2.5]
    rows = psi_k_table(spec400, k_list, eta_list)
    assert len(rows) == len(k_list) * len(eta_list)
    assert 0 < len(built) <= len(k_list) + len(eta_list)
    assert diagnosed == []


class TestCorrector:
    def test_quartic_zero_rhs_gives_zero(self, eig):
        # g''(0) = 0 (-0.0 for the cubic at eta = 0): the corrector
        # vanishes, mu_s is exactly +0.0 and M_hat drops out of mu_ss
        for model in (NonlinearityModel.psi_k(4, 1.0), NonlinearityModel.psi_k(3, 0.0)):
            d = diagnose(eig, model)
            assert np.all(derivative_at_zero(model, 2) * z_hat_nodes(eig) == 0.0)
            assert _is_plus_zero(d.mu_s), model
            assert d.mu_ss == -derivative_at_zero(model, 3) * eig.I4 / 3.0 + 0.0, model

    def test_free_model_gives_zero(self, eig):
        d = diagnose(eig, NonlinearityModel.free())
        assert np.all(derivative_at_zero(NonlinearityModel.free(), 2) * z_hat_nodes(eig) == 0.0)
        assert all(_is_plus_zero(x) for x in (d.mu_s, d.mu_ss))

    def test_cubic_corrector_orthogonal(self, eig, grid400):
        L = eig.operator
        z, u0 = unfold(L, z_hat_nodes(eig)), unfold(L, principal_mode(L))
        assert abs(grid400.dot(z, u0)) <= 1e-10
        assert grid400.norm(z) > 1e-3  # genuinely nonzero

    def test_cubic_corrector_against_dense_oracle(self):
        # z_s = g''(0) z_hat against a dense solve of the model's own
        # corrector equation A z_s = mu_s u0 + 1/2 g''(0) u0^2, (z_s, u0) = 0
        model = NonlinearityModel.psi_k(3, 1.0)
        for spec in (
            DomainSpec("interval", ((0.0, PI),), (100,)),
            DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (12, 16)),
        ):
            grid = FullGrid(spec)
            eig = eigendata(spec)
            d = diagnose(eig, model)
            u0, n = grid.sine_mode(), grid.n

            K = np.zeros((n + 1, n + 1))
            K[:n, :n] = grid.matrix().toarray() - eig.lambda0 * np.eye(n)
            K[:n, n] = u0
            K[n, :n] = grid.weight * u0
            g2 = derivative_at_zero(model, 2)
            rhs = d.mu_s * u0 + 0.5 * g2 * u0**2
            direct = np.linalg.solve(K, np.concatenate([rhs, [0.0]]))
            assert grid.norm(g2 * unfold(eig.operator, z_hat_nodes(eig)) - direct[:n]) < 1e-8, spec


# The corrector runs on the mirror-symmetric half grid; the exact DST solve
# on the full grid is its oracle. One axis of 6x700 (the last) and of 700x6
# (the first) is over the sine-matrix limit, so its half-grid transform
# takes the FFT branch.
FOLDED_CORRECTOR_SPECS = {
    "interval-400": DomainSpec("interval", ((0.0, PI),), (400,)),
    "interval-401": DomainSpec("interval", ((0.0, PI),), (401,)),
    "square-128": DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (128, 128)),
    "square-127": DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (127, 127)),
    "rect-96x192": DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (96, 192)),
    "rect-95x64": DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (95, 64)),
    "rect-6x700": DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (6, 700)),
    "rect-700x6": DomainSpec("rectangle", ((0.0, 2 * PI), (0.0, PI)), (700, 6)),
}


def full_grid_eigendata(eig, grid: FullGrid):
    """eig's moments on the full grid, and its z_hat: u0 unfolded, z_hat
    from the exact DST solve on the full-grid stencil and the moments taken
    over every node."""
    u0 = unfold(eig.operator, principal_mode(eig.operator))
    rhs = 0.5 * (u0 * u0 - grid.dot(u0 * u0, u0) * u0)
    z = grid.spectral_solve(rhs, eig.lambda0)
    return dataclasses.replace(eig, **vector_moments(grid, u0, z)), z


@pytest.mark.parametrize("name", list(FOLDED_CORRECTOR_SPECS))
def test_folded_corrector_matches_full_grid_oracle(name):
    spec = FOLDED_CORRECTOR_SPECS[name]
    grid = FullGrid(spec)
    eig = eigendata(spec)
    oracle, z_oracle = full_grid_eigendata(eig, grid)
    assert z_hat_nodes(eig).shape == principal_mode(eig.operator).shape == (eig.operator.n,)
    assert eig.operator.n == math.prod((n + 1) // 2 for n in spec.resolution)
    z = unfold(eig.operator, z_hat_nodes(eig))
    # the corrector is exact in the sine coefficients, so z_hat and M_hat
    # carry only the rounding of the transforms and the sums
    assert np.linalg.norm(z - z_oracle) <= 4e-15 * np.linalg.norm(z_oracle)
    assert grid.is_symmetric(z)

    # the eigen stage against the full grid's closed-form sine mode and eigenvalue
    assert eig.lambda0 == grid.eigenvalues[0]
    sine = grid.sine_mode()
    assert np.linalg.norm(unfold(eig.operator, principal_mode(eig.operator)) - sine) <= 1e-15 * np.linalg.norm(sine)
    # I3 and I4 are half-grid sums, the oracle's are over every node
    assert eig.I3 == pytest.approx(oracle.I3, rel=4e-15, abs=0)
    assert eig.I4 == pytest.approx(oracle.I4, rel=4e-15, abs=0)
    assert eig.M_hat == pytest.approx(oracle.M_hat, rel=4e-15, abs=0)
    # (z_hat, u0) = 0 is the solve's constraint, so mu_ss carries no term of it
    assert abs(eig.operator.weight * float(z_hat_nodes(eig) @ principal_mode(eig.operator))) <= 1e-17

    models = [NonlinearityModel.psi_k(k, eta) for k in (3, 4, 5, 6) for eta in (1.0, -1.0)]
    for model in models + [NonlinearityModel.polynomial(list(BENCHMARK_POLY))]:
        got, want = diagnose(eig, model), diagnose(oracle, model)
        assert got.ctype is want.ctype, model.describe()


def full_grid_arrays(run, n_nodes: int) -> list[tuple[int, ...]]:
    """Run run() and return the shapes of the arrays with n_nodes entries
    that a coexist function held in a local variable (or a list or tuple
    there) at any line, or returned."""
    package = os.path.dirname(coexist.__file__)
    shapes = []

    def check(values):
        for v in values:
            for a in v if isinstance(v, (list, tuple)) else (v,):
                if isinstance(a, np.ndarray) and a.size == n_nodes:
                    shapes.append(a.shape)

    def local(frame, event, arg):
        check(frame.f_locals.values())
        if event == "return":
            check([arg])
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return shapes


@pytest.mark.parametrize("name", ["square-128", "square-127", "rect-96x192", "rect-95x64", "rect-6x700"])
def test_per_mesh_stage_forms_no_full_grid_array(name, tmp_path):
    # rectangles only: on an interval the axis is the grid, and the
    # certificate's sine vector has n_nodes entries by design
    spec = FOLDED_CORRECTOR_SPECS[name]
    cfg = RunConfig(domain=spec, model=NonlinearityModel.psi_k(3, 1.0))
    for run in (
        lambda: eigendata(spec),
        lambda: psi_k_table(spec, [3, 4, 5, 6, 7, 8], [1.0, -1.0]),
        lambda: cmd_analyze(cfg, out_dir=str(tmp_path)),
    ):
        assert full_grid_arrays(run, math.prod(spec.resolution)) == []


@pytest.mark.parametrize("n", [3, 4, 7, 8, 400, 511, 512, 513, 701, 1024, 2000, 10000])
def test_square_coefficients_match_the_transform(n):
    # u0^2's closed-form sine coefficients per axis against the half-grid
    # transform of the folded v^2, on the dense (n <= 512) and FFT branches
    length = 2.5
    h = length / (n + 1)
    v = np.sin(PI * h * np.arange(1, n + 1) / length)
    v /= math.sqrt(h * float(v @ v))
    want = operators._axis_transform(operators._fold_axis(v * v, 0, n), 0, n, False)
    got = diagnostics._square_coefficients(n, length)
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "spec",
    [
        FOLDED_CORRECTOR_SPECS["interval-400"],
        DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (256, 256)),
        FOLDED_CORRECTOR_SPECS["rect-6x700"],
        DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (512, 512)),
    ],
    ids=["interval-400", "square-256", "rect-6x700", "rect-512x512"],
)
def test_eigendata_runs_no_grid_transform_and_no_stencil(spec, monkeypatch):
    # the corrector is solved in the sine coefficients, with u0^2's in closed
    # form; z_hat's node vector costs one inverse transform, which no command
    # pays. L has no stencil to apply
    calls = []
    for name in ("transform", "inverse_transform"):
        method = getattr(Laplacian, name)

        def counting(self, v, _name=name, _method=method):
            calls.append(_name)
            return _method(self, v)

        monkeypatch.setattr(Laplacian, name, counting)
    transform, axis_transform = operators._sine_transform, operators._axis_transform
    monkeypatch.setattr(operators, "_sine_transform", lambda *a, **kw: calls.append("grid") or transform(*a, **kw))
    monkeypatch.setattr(operators, "_axis_transform", lambda *a: calls.append("axis") or axis_transform(*a))
    eig = eigendata(spec)
    assert calls == []
    z_hat_nodes(eig)
    assert calls == ["inverse_transform", "grid"] + ["axis"] * len(spec.resolution)


def test_no_function_gives_a_tolerance_a_default():
    # no function in the package gives a tolerance parameter a default of
    # its own: each bound lives beside the one check that uses it
    offenders = []
    for path in sorted(Path(coexist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            offenders += [f"{path.name}:{node.lineno} {a.arg}" for a in defaulted if a.arg.endswith("tol")]
    assert offenders == []


class TestMuSS:
    def test_quartic_closed_form(self, eig):
        mu_ss = diagnose(eig, NonlinearityModel.psi_k(4, 1.0)).mu_ss
        assert mu_ss == pytest.approx(3 / PI, abs=1e-3)

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_higher_powers_vanish(self, eig, k):
        d = diagnose(eig, NonlinearityModel.psi_k(k, 1.0))
        assert abs(d.mu_ss) <= 1e-10

    def test_cubic_matches_sigma_form(self, eig, grid400):
        eta = 1.0
        model = NonlinearityModel.psi_k(3, eta)
        mu_ss = diagnose(eig, model).mu_ss
        u0 = unfold(eig.operator, principal_mode(eig.operator))
        z = derivative_at_zero(model, 2) * unfold(eig.operator, z_hat_nodes(eig))
        sigma = psi3_sigma_form(grid400, u0, z, eta)
        assert mu_ss == pytest.approx(sigma, abs=1e-8)
        # the constrained term of sigma is itself numerically zero
        second_term = 2 * eta * grid400.dot(u0**2, u0) * grid400.dot(z, u0)
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

    mu_ss = diagnose(eig, NonlinearityModel.psi_k(3, 1.0)).mu_ss
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
    def test_raw_forms_match_closed_forms(self, eig, grid400, model):
        u0 = grid400.sine_mode()
        v_l = model.V_L
        g2 = derivative_at_zero(model, 2)
        g3 = derivative_at_zero(model, 3)
        # shift by lambda0 of the *linearized* operator: the closed forms
        # are invariant to V_L because lambda = m + V_L absorbs it
        d = diagnose(eig, model)
        mu_s, z_s, mu_ss = d.mu_s, g2 * unfold(eig.operator, z_hat_nodes(eig)), d.mu_ss

        # raw first-order relation: 2 mu_s = -(d2g, u0) + 2 (V_L z_s, u0)
        d2g = g2 * u0 * u0 + 2.0 * v_l * z_s
        raw_mu_s = 0.5 * (-grid400.dot(d2g, u0) + 2.0 * v_l * grid400.dot(z_s, u0))
        assert raw_mu_s == pytest.approx(mu_s, abs=1e-9)

        # second corrector: A z_ss = mu_ss u0 + 2 mu_s z_s + g3/3 u0^3 + 2 g2 u0 z_s
        # solved by the exact DST solve on the full grid; the solvability
        # multiplier is the rhs's kernel component
        rhs_zss = mu_ss * u0 + 2.0 * mu_s * z_s + (g3 / 3.0) * u0**3 + 2.0 * g2 * u0 * z_s
        assert abs(grid400.dot(rhs_zss, u0)) <= 1e-8  # solvable by the choice of mu_ss
        z_ss = grid400.spectral_solve(rhs_zss, eig.lambda0)

        # raw second-order relation keeps the V_L z_ss terms
        d3g = g3 * u0**3 + 6.0 * g2 * u0 * z_s + 3.0 * v_l * z_ss
        raw_mu_ss = (
            -grid400.dot(d3g, u0) - 6.0 * mu_s * grid400.dot(z_s, u0) + 3.0 * v_l * grid400.dot(z_ss, u0)
        ) / 3.0
        assert raw_mu_ss == pytest.approx(mu_ss, abs=1e-8)


class TestScalingCovariance:
    def test_cubic_scaling(self, eig):
        def diag(eta):
            d = diagnose(eig, NonlinearityModel.psi_k(3, eta))
            return d.mu_s, d.mu_ss

        mu_s_1, mu_ss_1 = diag(1.0)
        mu_s_2, mu_ss_2 = diag(2.0)
        assert mu_s_2 == pytest.approx(2 * mu_s_1, rel=1e-13, abs=0)
        assert mu_ss_2 == pytest.approx(4 * mu_ss_1, rel=1e-9)

    def test_quartic_scaling(self, eig):
        # g''(0) = 0: the corrector's moment drops out
        m1 = diagnose(eig, NonlinearityModel.psi_k(4, 1.0)).mu_ss
        m2 = diagnose(eig, NonlinearityModel.psi_k(4, 2.0)).mu_ss
        assert m2 == pytest.approx(2 * m1, rel=1e-13, abs=0)


class TestPipeline:
    def test_quartic_positive(self, spec400):
        res = run_analysis(spec400, NonlinearityModel.psi_k(4, 1.0))
        d = res.diagnostics
        assert d.ctype is CoexistenceType.I
        assert d.m_coexistence_side is CoexistenceSide.ABOVE
        assert d.mu_s == 0.0
        assert res.I4 == pytest.approx(I4_EXACT, abs=1e-4)

    def test_quartic_negative(self, spec400):
        d = run_analysis(spec400, NonlinearityModel.psi_k(4, -1.0)).diagnostics
        assert d.ctype is CoexistenceType.III
        assert d.m_coexistence_side is CoexistenceSide.BELOW

    def test_seventh_power(self, spec400):
        d = run_analysis(spec400, NonlinearityModel.psi_k(7, 1.0)).diagnostics
        assert d.ctype is CoexistenceType.II
        assert d.m_coexistence_side is CoexistenceSide.DEGENERATE

    def test_cubic_two_sided_with_inferred_note(self, spec400):
        d = run_analysis(spec400, NonlinearityModel.psi_k(3, 1.0)).diagnostics
        assert d.ctype is CoexistenceType.VI
        assert d.m_coexistence_side is CoexistenceSide.TWO_SIDED
        assert any("inferred" in w for w in d.warnings)

    @pytest.mark.parametrize("v_l", [-5.0, -2.0, 1.0, 3.0, 5.0])
    def test_linear_cancellation(self, spec400, v_l):
        d = run_analysis(spec400, NonlinearityModel.linear(v_l)).diagnostics
        assert abs(d.mu_s) <= 1e-9
        assert abs(d.mu_ss) <= 1e-9
        assert d.ctype is CoexistenceType.II

    def test_orthogonality_across_models(self, spec400):
        for model in (
            NonlinearityModel.psi_k(3, 1.0),
            NonlinearityModel.psi_k(3, -0.5),
            NonlinearityModel.polynomial([0.5, 1.0, -0.5]),
            NonlinearityModel.linear(2.0),
        ):
            # the model's corrector z_s = g''(0) z_hat, against u0
            res = run_analysis(spec400, model)
            z_s = derivative_at_zero(model, 2) * z_hat_nodes(res)
            assert abs(res.operator.weight * float(z_s @ principal_mode(res.operator))) <= 1e-10

    def test_m_at_bifurcation(self, spec400):
        res = run_analysis(spec400, NonlinearityModel.linear(2.0))
        assert res.m_at_bifurcation == res.lambda0 - 2.0

    def test_tiny_quadratic_classifies_by_its_sign(self, spec400):
        # I3 and M_hat are positive, so g = c2 u^2 has mu_s = -c2 I3 > 0 and
        # mu_ss = -8 c2^2 M_hat < 0 for every c2 < 0, though c2^2
        # underflows here and mu_ss reads 0.0
        d = run_analysis(spec400, NonlinearityModel.polynomial([0.0, -1e-200])).diagnostics
        assert d.mu_s > 0.0 and d.mu_ss == 0.0
        assert d.ctype is CoexistenceType.VI
        assert not any("competing" in w for w in d.warnings)

    @pytest.mark.parametrize(
        "cancel, expected, other",
        [(True, CoexistenceType.V, {"IV", "VI"}), (False, CoexistenceType.IV, {"IV"})],
    )
    def test_competing_terms_warning_names_both_types(self, eig, cancel, expected, other):
        # g = -u^2 + c3 u^3 with c3 < 0: mu_ss = -2 c3 I4 - 8 M_hat is a
        # difference of two terms, and c3 = -4 M_hat / I4 cancels it
        c3 = -4.0 * eig.M_hat / eig.I4 if cancel else -0.1
        d = diagnose(eig, NonlinearityModel.polynomial([0.0, -1.0, c3]))
        assert d.ctype is expected
        [warning] = [w for w in d.warnings if "competing" in w]
        assert "rounding bound" in warning
        assert any(f"candidate types V and {t}" in warning for t in other)
        # "zero within" only where mu_ss is: otherwise the sign is the discrete one
        assert ("zero within" in warning) is cancel
        assert ("decided at the discrete level" in warning) is not cancel

    def test_competing_terms_decided_beyond_their_bound(self, spec400):
        # g = u^2 + c3 u^3 with c3 = -4 M_hat / I4 of the continuum, where
        # mu_ss = 0 (type VIII); the discrete M_hat exceeds it, so mu_ss is
        # -4.8e-7 at 400 nodes, far beyond its rounding bound 1.6e-17
        d = run_analysis(spec400, NonlinearityModel.polynomial([0.0, 1.0, -9.6763e-3])).diagnostics
        assert d.ctype is CoexistenceType.IX
        [warning] = [w for w in d.warnings if "competing" in w]
        assert f"mu_ss = {d.mu_ss:.3e}" in warning and "-4.815e-07" in warning
        assert "beyond their rounding bound 1.641e-17" in warning
        assert "zero within" not in warning
        assert "decided at the discrete level, between candidate types VIII and IX" in warning

    def test_square_domain_cubic_interaction(self):
        # the full pipeline on a 2D domain: u0 = (2/pi) sin(x) sin(y),
        # (u0^2, u0) = (2/pi)^3 (4/3)^2 in the continuum
        spec = DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (40, 40))
        model = NonlinearityModel.psi_k(3, 1.0)
        res = run_analysis(spec, model)
        d = res.diagnostics
        expected_i3 = (2 / PI) ** 3 * (4 / 3) ** 2
        assert res.lambda0 == pytest.approx(2.0, abs=2e-3)
        assert d.mu_s == pytest.approx(expected_i3, rel=1e-2)
        z_s = derivative_at_zero(model, 2) * z_hat_nodes(res)
        assert abs(res.operator.weight * float(z_s @ principal_mode(res.operator))) <= 1e-10
        assert d.m_coexistence_side is CoexistenceSide.TWO_SIDED

    def test_square_domain_quartic_interaction(self):
        # (u0^3, u0) = (2/pi)^4 (3 pi/8)^2 in the continuum
        spec = DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (40, 40))
        d = run_analysis(spec, NonlinearityModel.psi_k(4, 1.0)).diagnostics
        expected_mu_ss = 2 * (2 / PI) ** 4 * (3 * PI / 8) ** 2
        assert d.mu_s == 0.0
        assert d.mu_ss == pytest.approx(expected_mu_ss, rel=1e-2)
        assert d.ctype is CoexistenceType.I

    def test_offset_interval(self):
        # translation invariance: same spectrum and diagnostics on (1, 1+pi)
        spec = DomainSpec("interval", ((1.0, 1.0 + PI),), (200,))
        res = run_analysis(spec, NonlinearityModel.psi_k(3, 1.0))
        assert res.lambda0 == pytest.approx(1.0, abs=1e-3)
        assert res.diagnostics.mu_s == pytest.approx(I3_EXACT, abs=1e-3)

    def test_refinement_order_mu_quantities(self):
        # mu_s for the cubic interaction superconverges (O(h^4)); check
        # that each refinement is at least second order or at the floor
        errs = []
        for n in (50, 100, 200):
            spec = DomainSpec("interval", ((0.0, PI),), (n,))
            d = run_analysis(spec, NonlinearityModel.psi_k(3, 1.0)).diagnostics
            errs.append(abs(d.mu_s - I3_EXACT))
        for e_coarse, e_fine in zip(errs, errs[1:]):
            assert e_fine <= max(e_coarse / 2**1.9, 1e-10)


@pytest.fixture(scope="module")
def table(spec400):
    return psi_k_table(spec400, [3, 4, 5, 6], [1.0])


class TestInteractionTable:
    def test_cubic_row(self, table):
        row = table[0]
        assert row.k == 3
        assert row.mu_s == pytest.approx(I3_EXACT, abs=1e-4)
        # -2 mu_s and -3 mu_ss project the second and third s-derivatives
        # of g(u) onto u0: -2 eta (u0^2,u0) and -12 eta (u0 z_s, u0) here
        assert -2 * row.mu_s == pytest.approx(-2 * I3_EXACT, abs=1e-4)
        assert row.ctype is CoexistenceType.VI

    def test_quartic_row(self, table):
        row = table[1]
        assert row.mu_s == 0.0
        assert row.mu_ss == pytest.approx(2 * I4_EXACT, abs=1e-3)
        assert -2 * row.mu_s == 0.0
        assert -3 * row.mu_ss == pytest.approx(-6 * I4_EXACT, abs=1e-3)
        assert row.ctype is CoexistenceType.I

    @pytest.mark.parametrize("idx", [2, 3])
    def test_high_power_rows(self, table, idx):
        row = table[idx]
        assert row.mu_s == 0.0
        assert abs(row.mu_ss) <= 1e-10
        assert -2 * row.mu_s == 0.0 and abs(-3 * row.mu_ss) <= 1e-10
        assert row.ctype is CoexistenceType.II

    def test_cubic_proj3_consistent_with_corrector(self, table, grid400, lap400, eig400):
        eig, _ = eig400
        # the cubic model's own corrector equation, solved directly
        model = NonlinearityModel.psi_k(3, 1.0)
        g2 = derivative_at_zero(model, 2)
        u0 = unfold(lap400, principal_mode(lap400))
        mu_s = -0.5 * g2 * grid400.dot(u0**2, u0)
        rhs = mu_s * u0 + 0.5 * g2 * u0**2
        rhs = lap400.transform(grid400.fold(rhs))
        z = unfold(lap400, lap400.inverse_transform(bordered_solve(lap400, rhs, eig.lambda0)))
        expected = -12.0 * grid400.dot(u0 * z, u0)
        assert -3 * table[0].mu_ss == pytest.approx(expected, rel=1e-8)

    def test_rows_match_run_analysis(self, spec400):
        etas = [1.0, 2.5, -0.5, -3.0]
        ks = [3, 4, 5, 6, 7, 8]
        rows = psi_k_table(spec400, ks, etas)
        assert [(r.eta, r.k) for r in rows] == [(eta, k) for eta in etas for k in ks]
        for row in rows:
            d = run_analysis(spec400, NonlinearityModel.psi_k(row.k, row.eta)).diagnostics
            assert (row.mu_s, row.mu_ss, row.ctype) == (d.mu_s, d.mu_ss, d.ctype)

    @pytest.mark.parametrize(
        "spec",
        [
            DomainSpec("interval", ((0.0, PI),), (400,)),
            DomainSpec("rectangle", ((0.0, PI), (0.0, 2 * PI)), (25, 47)),
        ],
        ids=["interval-400", "rect-25x47"],
    )
    def test_rows_equal_diagnose_bit_for_bit(self, spec):
        # every row is the per-model diagnose on the shared eigendata, to
        # the bit and the sign of zero, across vanishing, tiny and large eta
        etas = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 4.0, -4.0, 1e150]
        ks = [3, 4, 5, 6, 7, 8]
        eig = eigendata(spec)
        rows = psi_k_table(spec, ks, etas)
        assert len(rows) == len(etas) * len(ks)
        for row, (eta, k) in zip(rows, [(eta, k) for eta in etas for k in ks]):
            d = diagnose(eig, NonlinearityModel.psi_k(k, eta))
            assert (row.k, row.eta) == (k, eta) and math.copysign(1.0, row.eta) == math.copysign(1.0, eta)
            for got, want in ((row.mu_s, d.mu_s), (row.mu_ss, d.mu_ss)):
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (k, eta)
            assert row.ctype is d.ctype, (k, eta)

        # psi_3's mu_ss overflows at eta = 1e200: the same message on both paths
        with pytest.raises(ConfigError) as table_error:
            psi_k_table(spec, [4, 5, 3, 6], [1.0, 1e200])
        with pytest.raises(ConfigError) as diagnose_error:
            diagnose(eig, NonlinearityModel.psi_k(3, 1e200))
        assert "not finite" in str(table_error.value)
        assert str(table_error.value) == str(diagnose_error.value)

    def test_negative_eta_flips_quartic(self, spec400):
        rows = psi_k_table(spec400, [4], [-1.0])
        assert rows[0].ctype is CoexistenceType.III

    def test_zero_eta_everything_degenerate(self, spec400):
        for row in psi_k_table(spec400, [3, 4, 5], [0.0]):
            assert row.ctype is CoexistenceType.II

    @pytest.mark.parametrize("eta", [math.inf, -math.inf, math.nan, "1.0", True])
    def test_bad_eta_fails_as_its_model_does(self, spec400, eta, monkeypatch):
        # each eta is checked once, before the eigen stage, with the model's message
        with pytest.raises(ConfigError) as model_error:
            NonlinearityModel.psi_k(5, eta)
        monkeypatch.setattr(diagnostics, "eigendata", lambda spec: pytest.fail("eigen stage ran"))
        with pytest.raises(ConfigError) as table_error:
            psi_k_table(spec400, [5, 3], [1.0, eta])
        assert str(table_error.value) == str(model_error.value)

    def test_k_range_validated(self, spec400, monkeypatch):
        for k_list in ([2], [True]):
            with pytest.raises(ValueError, match="3..8"):
                psi_k_table(spec400, k_list, [1.0])
        # a k that is not an integer fails as its model does, before the eigen stage
        monkeypatch.setattr(diagnostics, "eigendata", lambda spec: pytest.fail("eigen stage ran"))
        for k in (3.9, "3", None):
            with pytest.raises(ConfigError, match=r"^model\.k must be an integer, got "):
                psi_k_table(spec400, [4, k], [1.0])
