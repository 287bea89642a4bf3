#!/usr/bin/env python3
# Classify the local co-existence geometry for a zoo of interactions.
#
# The classification lives on two numbers: the slope mu_s(0) and the
# curvature mu_ss(0) of lambda(s) at the bifurcation point. Their sign
# pair selects one of nine types, laid out row by sign of mu_s
# (0, +, -) and column by sign of mu_ss (+, 0, -). Types with mu_s = 0
# describe a one-sided transition from single existence to co-existence;
# types with mu_s != 0 have two solutions co-existing on one side.

import math

from coexist import DomainSpec, NonlinearityModel, run_analysis

PI = math.pi
spec = DomainSpec("interval", ((0.0, PI),), (400,))

zoo = [
    NonlinearityModel.free(),
    NonlinearityModel.linear(2.0),
    NonlinearityModel.psi_k(3, 1.0),
    NonlinearityModel.psi_k(3, -0.5),
    NonlinearityModel.psi_k(4, 1.0),
    NonlinearityModel.psi_k(4, -1.0),
    NonlinearityModel.psi_k(6, 1.0),
    NonlinearityModel.polynomial([0.0, 0.5, -1.0]),
]

print(f"{'interaction':36s} {'mu_s(0)':>12s} {'mu_ss(0)':>12s} {'type':>5s}  side")
for model in zoo:
    d = run_analysis(spec, model).diagnostics
    print(
        f"{model.describe():36s} {d.mu_s:+12.6f} {d.mu_ss:+12.6f} {str(d.ctype):>5s}  {d.m_coexistence_side}"
    )

print()
print("notes:")
print(" - the free and linear cases sit exactly on type II: the branch is the")
print("   vertical eigen-line and the nonlinearity is invisible to both numbers;")
print(" - a quartic interaction flips between supercritical (I, branch above")
print("   lambda0) and subcritical (III, below) with the sign of the coupling;")
print(" - a cubic interaction tilts the branch (mu_s != 0): two states co-exist")
print("   on one side of lambda0, which side depending on sign(s).")
