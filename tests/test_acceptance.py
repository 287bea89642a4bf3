"""Acceptance suite: one test per criterion, each registering a
pass/fail line that is printed in the terminal summary.

Run with `pytest tests/test_acceptance.py -v`.
"""

import json
import math
import time

import numpy as np
import pytest

from coexist import (
    DomainSpec,
    Laplacian,
    NonlinearityModel,
    derivative_at_zero,
    diagnose,
    eigendata,
    principal_eigenpair,
    run_analysis,
    trace_branch,
)
from coexist.cli import cmd_trace, load_config
from coexist.continuation import DEFAULT_S_VALUES

from conftest import ACCEPTANCE_RESULTS, newton_diagonal, psi3_sigma_form, residual, stencil

PI = math.pi
MU_S_PSI3 = (2 / PI) ** 1.5 * (4 / 3)  # 0.677265...
MU_SS_PSI4 = 3 / PI  # 0.954930...
ORDER_FLOOR = 1e-10  # errors below this are at the solver/rounding floor
EPS = np.finfo(float).eps


def record(num: int, label: str, failures: list) -> None:
    ACCEPTANCE_RESULTS.append((num, label, not failures))
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


@pytest.fixture(scope="module")
def branches(spec400):
    """Analysis + traced branch for the four diagnostics-vs-branch models."""
    out = {}
    for k, eta in [(3, 1.0), (3, -0.5), (4, 1.0), (4, -1.0)]:
        model = NonlinearityModel.psi_k(k, eta)
        analysis = run_analysis(spec400, model)
        t0 = time.perf_counter()
        branch = trace_branch(analysis, DEFAULT_S_VALUES)
        out[(k, eta)] = (analysis, branch, time.perf_counter() - t0)
    return out


def test_criterion_1_eigenpair_oracle(eig400, cr400, eig2d_128):
    failures = []
    pair, t_pair = eig400
    if abs(pair.eigenvalue - 1.0) > 1e-4:
        failures.append(f"lambda0 1D = {pair.eigenvalue} not within 1e-4 of 1")
    cr, t_cr = cr400
    if abs(cr.lambda1 - 4.0) > 1e-3:
        failures.append(f"lambda1 1D = {cr.lambda1} not within 1e-3 of 4")
    pair2d, t_2d = eig2d_128
    if abs(pair2d.eigenvalue - 2.0) > 1e-3:
        failures.append(f"lambda0 2D = {pair2d.eigenvalue} not within 1e-3 of 2")
    for name, t in [("1D principal", t_pair), ("1D bifurcation point", t_cr), ("2D principal", t_2d)]:
        if t >= 5.0:
            failures.append(f"{name} took {t:.1f}s (target < 5s)")
    record(1, "eigenpair oracle", failures)


def test_criterion_2_interaction_table_numbers(spec400, grid400):
    failures = []
    eig = eigendata(spec400)
    u0 = eig.operator.unfold(eig.eigenpair.vector)

    # cubic interaction
    m3 = NonlinearityModel.psi_k(3, 1.0)
    d3 = diagnose(eig, m3)
    mu_s3, mu_ss3 = d3.mu_s, d3.mu_ss
    if abs(mu_s3 - MU_S_PSI3) > 1e-3:
        failures.append(f"psi3 mu_s = {mu_s3} not within 1e-3 of {MU_S_PSI3}")
    # independent oracle: the sigma form on the corrector vector g''(0) z_hat
    z3 = derivative_at_zero(m3, 2) * eig.operator.unfold(eig.z_hat)
    sigma = psi3_sigma_form(grid400, u0, z3, 1.0)
    if abs(mu_ss3 - sigma) > 1e-8:
        failures.append(f"psi3 mu_ss = {mu_ss3} differs from sigma form {sigma}")
    constrained_term = 2.0 * grid400.dot(u0 * u0, u0) * grid400.dot(z3, u0)
    if abs(constrained_term) > 1e-10:
        failures.append(f"sigma's (z_s, u0) term = {constrained_term} above 1e-10")

    # quartic interaction
    m4 = NonlinearityModel.psi_k(4, 1.0)
    d4 = diagnose(eig, m4)
    mu_s4, mu_ss4 = d4.mu_s, d4.mu_ss
    if mu_s4 != 0.0 or math.copysign(1.0, mu_s4) != 1.0:
        failures.append(f"psi4 mu_s = {mu_s4}, expected exact +0.0")
    if abs(mu_ss4 - MU_SS_PSI4) > 1e-3:
        failures.append(f"psi4 mu_ss = {mu_ss4} not within 1e-3 of {MU_SS_PSI4}")

    # powers 5..7 fully degenerate
    for k in (5, 6, 7):
        mk = NonlinearityModel.psi_k(k, 1.0)
        dk = diagnose(eig, mk)
        if abs(dk.mu_s) > 1e-10 or abs(dk.mu_ss) > 1e-10:
            failures.append(f"psi{k} diagnostics not within 1e-10 of 0")
        d = run_analysis(spec400, mk).diagnostics
        if str(d.ctype) != "II":
            failures.append(f"psi{k} type {d.ctype}, expected II")

    # quartic type assignment by coupling sign
    for eta, expected in [(1.0, "I"), (-1.0, "III"), (0.0, "II")]:
        d = run_analysis(spec400, NonlinearityModel.psi_k(4, eta)).diagnostics
        if str(d.ctype) != expected:
            failures.append(f"psi4 eta={eta}: type {d.ctype}, expected {expected}")
    record(2, "interaction-family table", failures)


def test_criterion_3_degenerate_models(spec400):
    failures = []
    lambda0_seen = set()
    cases = [NonlinearityModel.free()] + [NonlinearityModel.linear(v) for v in (-2.0, -0.5, 1.0, 3.0)]
    for model in cases:
        res = run_analysis(spec400, model)
        d = res.diagnostics
        if abs(d.mu_s) > 1e-9 or abs(d.mu_ss) > 1e-9:
            failures.append(f"{model.describe()}: mu_s={d.mu_s}, mu_ss={d.mu_ss} not within 1e-9")
        if str(d.ctype) != "II":
            failures.append(f"{model.describe()}: type {d.ctype}, expected II")
        if res.m_at_bifurcation != res.cr_report.lambda0 - model.V_L:
            failures.append(f"{model.describe()}: m != lambda0 - V_L exactly")
        lambda0_seen.add(res.cr_report.lambda0)
    if len(lambda0_seen) != 1:
        failures.append(f"lambda0 varied across V_L values: {lambda0_seen}")
    record(3, "degenerate interactions", failures)


def test_criterion_4_diagnostics_branch_consistency(branches):
    failures = []
    for (k, eta), (analysis, branch, elapsed) in branches.items():
        d = analysis.diagnostics
        fit = branch.fit
        if branch.truncations:
            failures.append(f"psi{k} eta={eta}: branch truncated {branch.truncations}")
            continue
        a_tol = max(1e-3, 0.01 * abs(d.mu_s))
        b_tol = max(5e-3, 0.02 * abs(d.mu_ss))
        if abs(fit.a - d.mu_s) > a_tol:
            failures.append(f"psi{k} eta={eta}: |a - mu_s| = {abs(fit.a - d.mu_s):.2e} > {a_tol:.2e}")
        if abs(2 * fit.b - d.mu_ss) > b_tol:
            failures.append(f"psi{k} eta={eta}: |2b - mu_ss| = {abs(2 * fit.b - d.mu_ss):.2e} > {b_tol:.2e}")
        if elapsed >= 30.0:
            failures.append(f"psi{k} eta={eta}: trace took {elapsed:.1f}s (target < 30s)")
    record(4, "diagnostics-branch consistency", failures)


def test_criterion_5_coexistence_side(branches):
    failures = []
    analysis, branch, _ = branches[(4, 1.0)]
    if not all(p.lam > analysis.cr_report.lambda0 for p in branch.points):
        failures.append("psi4 eta=+1: found branch points with lambda <= lambda0")
    analysis, branch, _ = branches[(4, -1.0)]
    if not all(p.lam < analysis.cr_report.lambda0 for p in branch.points):
        failures.append("psi4 eta=-1: found branch points with lambda >= lambda0")
    record(5, "co-existence side", failures)


def test_criterion_6_invariant_suite(branches, spec400, spec100, grid400, tmp_path):
    failures = []
    eig = eigendata(spec400)
    u0 = eig.operator.unfold(eig.eigenpair.vector)

    # solvability of the unit corrector: its right-hand side 1/2 (u0^2 - I3 u0),
    # with the pipeline's I3, has no u0 component beyond rounding, and z_hat
    # is the exact DST solve on the full grid; orthogonality of z_s across a model zoo
    rhs = 0.5 * (u0 * u0 - eig.I3 * u0)
    kernel, rounding = abs(grid400.dot(rhs, u0)), 16 * EPS * grid400.dot(np.abs(rhs), np.abs(u0))
    if kernel > rounding:
        failures.append(f"unit corrector: solvability multiplier {kernel:.2e} above rounding {rounding:.2e}")
    z_exact = grid400.spectral_solve(rhs, eig.eigenpair.eigenvalue)
    z_err = np.linalg.norm(eig.operator.unfold(eig.z_hat) - z_exact) / np.linalg.norm(z_exact)
    if z_err > 1e-13:
        failures.append(f"unit corrector: relative error {z_err:.2e} against the exact DST solve above 1e-13")
    zoo = [
        NonlinearityModel.psi_k(3, 1.0),
        NonlinearityModel.psi_k(3, -0.5),
        NonlinearityModel.psi_k(4, 1.0),
        NonlinearityModel.linear(2.0),
        NonlinearityModel.polynomial([0.5, 1.0, -0.5]),
    ]
    for model in zoo:
        z_s = derivative_at_zero(model, 2) * eig.operator.unfold(eig.z_hat)
        if abs(grid400.dot(z_s, u0)) > 1e-10:
            failures.append(f"{model.describe()}: corrector orthogonality above 1e-10")

    # parity of the quartic branch under s -> -s
    _, branch, _ = branches[(4, 1.0)]
    by_s = {round(p.s, 10): p for p in branch.points}
    for s in (0.02, 0.06, 0.10):
        plus, minus = by_s[s], by_s[-s]
        if abs(plus.lam - minus.lam) > 1e-8:
            failures.append(f"parity: lambda(+{s}) vs lambda(-{s}) differ above 1e-8")
        if np.max(np.abs(plus.U + minus.U)) > 1e-8:
            failures.append(f"parity: U(+{s}) != -U(-{s}) above 1e-8")

    # Newton's Jacobian, L - lambda + diag(d) with the diagonal d that its
    # bordered solve is given, vs central differences over 100 random states
    Lap100 = Laplacian.of(spec100)
    model_cycle = zoo + [NonlinearityModel.psi_k(6, 2.0)]
    rng = np.random.default_rng(2024)
    eps = 1e-5
    worst = 0.0
    for i in range(100):
        model = model_cycle[i % len(model_cycle)]
        U = rng.uniform(-1, 1, Lap100.n)
        lam = 1.0 + rng.uniform(-1, 1)
        dirn = rng.standard_normal(Lap100.n)
        dirn /= np.linalg.norm(dirn)
        fd = (
            residual(U + eps * dirn, lam, model, Lap100)
            - residual(U - eps * dirn, lam, model, Lap100)
        ) / (2 * eps)
        jd = stencil(Lap100, dirn) + (newton_diagonal(model, Lap100, U, lam) - lam) * dirn
        worst = max(worst, float(np.max(np.abs(jd - fd))))
    if worst > 1e-6:
        failures.append(f"jacobian vs central differences: worst deviation {worst:.2e} above 1e-6")

    # determinism: identical configs produce byte-identical CSV
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "domain": {"kind": "interval", "bounds": [[0.0, PI]], "resolution": [100]},
                "model": {"kind": "psi_k", "k": 3, "eta": 1.0},
            }
        )
    )
    cmd_trace(load_config(cfg_path), out_dir=str(tmp_path / "r1"))
    cmd_trace(load_config(cfg_path), out_dir=str(tmp_path / "r2"))
    if (tmp_path / "r1/branch.csv").read_bytes() != (tmp_path / "r2/branch.csv").read_bytes():
        failures.append("two identical runs produced different CSV bytes")
    record(6, "invariant suite", failures)


def test_criterion_7_convergence_orders():
    failures = []
    errors = {"lambda0": [], "mu_s_psi3": [], "mu_ss_psi4": []}
    for n in (100, 200, 400):
        eig = eigendata(DomainSpec("interval", ((0.0, PI),), (n,)))
        errors["lambda0"].append(abs(eig.eigenpair.eigenvalue - 1.0))
        mu_s = diagnose(eig, NonlinearityModel.psi_k(3, 1.0)).mu_s
        errors["mu_s_psi3"].append(abs(mu_s - MU_S_PSI3))
        mu_ss = diagnose(eig, NonlinearityModel.psi_k(4, 1.0)).mu_ss
        errors["mu_ss_psi4"].append(abs(mu_ss - MU_SS_PSI4))

    for name, errs in errors.items():
        for e_coarse, e_fine in zip(errs, errs[1:]):
            # one-sided order test: each refinement must reduce the error
            # at order >= 1.9 unless both levels sit at the rounding floor
            if e_fine > max(e_coarse / 2**1.9, ORDER_FLOOR):
                failures.append(
                    f"{name}: error sequence {errs} is neither order >= 1.9 nor below floor {ORDER_FLOOR}"
                )
                break
    record(7, "convergence orders", failures)
