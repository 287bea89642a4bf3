#!/usr/bin/env python3
# Trace the nontrivial branch and validate the local expansion against it.
#
# The diagnostics predict lambda(s) ~ lambda0 + mu_s*s + mu_ss*s^2/2 near
# the bifurcation point. Here the actual branch is computed point by point
# (Newton on the amplitude-constrained system), a quadratic is fitted to
# the computed lambda(s), and the fitted coefficients are compared with
# the predicted derivatives. Agreement to a fraction of a percent is the
# numerical confirmation that the two derivative formulas describe the
# real branch.

import math
import pathlib

from coexist import DomainSpec, NonlinearityModel, run_analysis, trace_branch
from coexist.cli import write_branch_csv
from coexist.continuation import DEFAULT_S_VALUES

PI = math.pi
spec = DomainSpec("interval", ((0.0, PI),), (400,))
out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

for k, eta in [(4, 1.0), (4, -1.0), (3, 1.0)]:
    model = NonlinearityModel.psi_k(k, eta)
    analysis = run_analysis(spec, model)
    d = analysis.diagnostics
    branch = trace_branch(analysis, DEFAULT_S_VALUES)
    fit = branch.fit

    print(f"== {model.describe()} ==")
    print(f"predicted: mu_s = {d.mu_s:+.6f}, mu_ss = {d.mu_ss:+.6f}  (type {d.ctype})")
    print(f"fitted:    a    = {fit.a:+.6f}, 2b    = {2 * fit.b:+.6f}  (rms {fit.rms:.1e})")
    print(f"agreement: |a - mu_s| = {abs(fit.a - d.mu_s):.2e}, |2b - mu_ss| = {abs(2 * fit.b - d.mu_ss):.2e}")

    # U is the half-grid vector, whose mirror image along each axis is the
    # full grid's; its coordinates keep dot products, so sqrt(weight U.U)
    # is the full grid's norm
    L = analysis.operator
    print(f"{'s':>6s} {'lambda - lambda0':>18s} {'||U||':>10s} {'newton':>6s}")
    for p in branch.points:
        norm = math.sqrt(L.weight * float(p.U @ p.U))
        print(f"{p.s:+6.2f} {p.lam - analysis.lambda0:+18.10f} {norm:10.6f} {p.newton_iters:6d}")

    csv_path = out_dir / f"branch_psi{k}_eta{eta:+g}.csv"
    write_branch_csv(csv_path, branch, L)
    print(f"csv written to {csv_path}")
    print()

print("the quartic branches are one-sided parabolas (all points above or all")
print("below lambda0, by the sign of the coupling); the cubic branch crosses")
print("lambda0 linearly, so the co-existing state sits on the side selected")
print("by the sign of the amplitude.")
