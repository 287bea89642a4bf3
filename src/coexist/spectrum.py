"""The principal eigenpair of the discrete Laplacian, and the
bifurcation-point checks.

On a uniform product grid the Dirichlet Laplacian's eigenvectors are
products of sines, sin(j pi i / (n+1)) per axis, with eigenvalues
sum_axes 4/h^2 sin^2(j pi / (2(n+1))). The principal pair is the
closed-form (1, ..., 1) mode: the full-grid stencil's exact eigenvector
at every n (LeVeque 2007, chapters 2 and 3), so there is nothing to
certify and no residual is taken. Its eigenvalue is a sum of per-axis
eigenvalues. Its node vector in L's half-grid coordinates is L's
principal coefficient scaled to unit norm, formed on first read. lambda1,
the gap's other end, is a sum of per-axis eigenvalues too
(`Laplacian.mode_eigenvalue`), with no eigenvalue grid and no
eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
import numpy.typing as npt

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
    """The principal eigenvalue of operator, and its normalized
    eigenvector u0 as a node vector of operator, formed on first read."""

    eigenvalue: float
    operator: Laplacian

    @cached_property
    def vector(self) -> Array:
        """u0's node vector: the principal coefficient's, over sqrt(weight)."""
        return self.operator.principal_nodes / math.sqrt(self.operator.weight)


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


def principal_eigenpair(L: Laplacian) -> Eigenpair:
    """Smallest eigenvalue of L, the sum of the axes' principal
    eigenvalues, with its positive, normalized eigenfunction, the sine mode
    prod_a sin(pi (x_a - lo_a) / len_a), formed on first read."""
    return Eigenpair(L.mode_eigenvalue((1,) * len(L.shape)), L)


def verify_crandall_rabinowitz(lambda0: float, lambda1: float) -> CRReport:
    """Check the bifurcation-point conditions at (lambda0, 0).

    On a box lambda0 = lambda_(1,...,1) lies strictly below every other
    per-axis sum, so the kernel is one-dimensional. kernel_dim_ok says the
    floating-point gap lambda1 - lambda0 shows it, exceeding
    _GAP_MARGIN * eps * lambda0; it fails only where lambda1 and lambda0
    round to one number. The transversality value, the kernel projection
    of the mixed derivative applied to u0, is -(u0, u0) = -1 for the
    normalized u0: reported and never tested.
    """
    gap = lambda1 - lambda0
    return CRReport(
        lambda0=lambda0,
        lambda1=lambda1,
        gap=gap,
        kernel_dim_ok=bool(gap > _GAP_MARGIN * np.finfo(float).eps * lambda0),
        transversality_value=-1.0,
    )
