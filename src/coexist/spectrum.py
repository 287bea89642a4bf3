"""The principal eigenpair of the discrete Laplacian, and the checks
that certify the bifurcation point.

On a uniform product grid the Dirichlet Laplacian's eigenvectors are
products of sines, sin(j pi i / (n+1)) per axis, with eigenvalues
sum_axes 4/h^2 sin^2(j pi / (2(n+1))). The principal pair is the
closed-form (1, ..., 1) mode, built and certified per axis against each
axis's full-grid 3-point stencil (`Laplacian.axis_apply`), so no
full-grid vector is formed and the pair comes in L's half-grid
coordinates. lambda0 and lambda1, the gap's other end, are sums of
per-axis eigenvalues (`Laplacian.mode_eigenvalue`), with no eigenvalue
grid and no eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import numpy.typing as npt

from .errors import ConvergenceError
from .operators import Laplacian

__all__ = [
    "Eigenpair",
    "CRReport",
    "principal_eigenpair",
    "verify_crandall_rabinowitz",
]

Array = npt.NDArray[np.float64]

# a gap over this many eps * lambda0 tells lambda1 from lambda0 in floating
# point; only rounding merges them, as lambda0 < lambda1 on every box
_GAP_MARGIN = 16.0


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """Eigenvalue, normalized eigenvector, eigen-residual norm, and factors:
    one vector per axis over its n nodes, whose product is u's nodal values."""

    eigenvalue: float
    vector: Array
    residual: float
    factors: tuple[Array, ...]


@dataclass(frozen=True)
class CRReport:
    """Outcome of the simple-eigenvalue bifurcation-point checks.

    kernel_dim_ok certifies a one-dimensional kernel through the spectral
    gap, and is the certificate. transversality_value is the kernel
    projection of the mixed derivative, -(u0, u0), reported as the
    identity it is: -1 for the normalized u0, so it is not a check.
    """

    lambda0: float
    lambda1: float
    gap: float
    kernel_dim_ok: bool
    transversality_value: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def principal_eigenpair(L: Laplacian, tol: float) -> Eigenpair:
    """Smallest eigenvalue of L and its positive, normalized eigenfunction:
    the sine mode prod_a sin(pi (x_a - lo_a) / len_a), a node vector of L.
    Raises ConvergenceError when its residual against the stencil exceeds
    tol (rounding in L v alone exceeds tol).

    Everything is per axis: the eigenvalue sums the axes' principal
    eigenvalues lambda_a, and the mode is the product of sine vectors v_a
    over the axis's n nodes x_a, each normalized with its own h_a. The
    residual of the product is sum_a r_a x v_(b != a) with
    r_a = L_a v_a - lambda_a v_a against the axis's full-grid 3-point
    stencil L_a, so its squared norm is
    sum_a ||r_a||^2 + sum_(a != b) (r_a, v_a)(r_b, v_b): in 1-D exactly
    the residual against the full-grid stencil, and never taken on the
    half grid, whose rounding is smaller."""
    vs, rr, rv = [], [], []
    for axis, (n, (lo, hi), h) in enumerate(zip(L.shape, L.spec.bounds, L.h)):
        x = lo + h * np.arange(1, n + 1)
        v = np.sin(np.pi * (x - lo) / (hi - lo))
        v = v / math.sqrt(h * float(v @ v))
        r = L.axis_apply(axis, v) - L.axis_eigenvalues[axis][0] * v
        vs.append(v)
        rr.append(h * float(r @ r))
        rv.append(h * float(r @ v))
    res = math.sqrt(sum(rr) + (sum(rv) * sum(rv) - sum(d * d for d in rv)))
    if res > tol:
        raise ConvergenceError(f"principal sine mode misses eigen tolerance {tol:.1e} against L", res, 0)
    return Eigenpair(L.mode_eigenvalue((1,) * len(vs)), L.outer(vs), res, tuple(vs))


def verify_crandall_rabinowitz(lambda0: float, lambda1: float, u0: Array, L: Laplacian) -> CRReport:
    """Check the bifurcation-point conditions at (lambda0, 0).

    On a box lambda0 = lambda_(1,...,1) lies strictly below every other
    per-axis sum, so the kernel is one-dimensional. kernel_dim_ok says the
    floating-point gap lambda1 - lambda0 shows it, exceeding
    _GAP_MARGIN * eps * lambda0; it fails only where lambda1 and lambda0
    round to one number. The transversality value, the kernel projection
    of the mixed derivative applied to u0, is -(u0, u0): -1 for the
    normalized u0, a node vector of L, so it is reported and never tested.
    """
    gap = lambda1 - lambda0
    u0 = np.asarray(u0, dtype=float)
    return CRReport(
        lambda0=lambda0,
        lambda1=lambda1,
        gap=gap,
        kernel_dim_ok=bool(gap > _GAP_MARGIN * np.finfo(float).eps * lambda0),
        transversality_value=-L.weight * float(u0 @ u0),
    )
