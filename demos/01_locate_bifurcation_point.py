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
from functools import reduce

import numpy as np

from coexist import DomainSpec, eigendata
from coexist.diagnostics import cr_report

PI = math.pi

for label, spec, exact in [
    ("interval (0, pi), 400 nodes", DomainSpec("interval", ((0.0, PI),), (400,)), (1.0, 4.0)),
    ("square (0, pi)^2, 64^2 nodes", DomainSpec("rectangle", ((0.0, PI), (0.0, PI)), (64, 64)), (2.0, 5.0)),
]:
    print(f"== {label} ==")
    eig = eigendata(spec)
    print(f"lambda0 = {eig.lambda0:.8f}   (continuum {exact[0]})")
    print(f"lambda1 = {eig.lambda1:.8f}   (continuum {exact[1]})")
    # u0 is the sine mode prod_a sin(pi i_a/(n_a+1)) at the nodes, normalized:
    # the stencil's exact eigenvector at every resolution, so there is no
    # eigen residual to certify.
    u0 = reduce(np.multiply.outer, [np.sin(PI * np.arange(1, n + 1) / (n + 1)) for n in spec.resolution]).ravel()
    u0 /= math.sqrt(eig.operator.weight * float(u0 @ u0))
    print(f"eigenfunction min = {np.min(u0):.2e} (positive)")

    cr = cr_report(eig.lambda0, eig.lambda1)
    print(f"spectral gap          = {cr['gap']:.6f}  -> kernel is one-dimensional: {cr['kernel_dim_ok']}")
    print(f"transversality value  = {cr['transversality_value']:+.6f}  (identity: -(u0, u0) = -1)")
    print(f"bifurcation point certified at (lambda0, 0): {cr['kernel_dim_ok']}")
    print()
