"""The principal eigenpair of the discrete Laplacian, and the checks
that certify the bifurcation point.

On a uniform product grid the Dirichlet Laplacian's eigenvectors are
products of sines, sin(j pi i / (n+1)) per axis, with eigenvalues
sum_axes 4/h^2 sin^2(j pi / (2(n+1))), the grid `Laplacian.eigenvalues`.
The principal pair is the closed-form (1, ..., 1) mode, certified by its
residual against the stencil L; lambda1, the gap's other end, is read
off the eigenvalue grid with no eigenvector.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np
import numpy.typing as npt

from .errors import ConvergenceError
from .mesh import Mesh, inner_product, l2_norm
from .operators import Laplacian

__all__ = [
    "Eigenpair",
    "CRReport",
    "principal_eigenpair",
    "verify_crandall_rabinowitz",
]

Array = npt.NDArray[np.float64]


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """Eigenvalue, mesh-normalized eigenvector, and eigen-residual norm."""

    eigenvalue: float
    vector: Array
    residual: float


@dataclass(frozen=True)
class CRReport:
    """Outcome of the simple-eigenvalue bifurcation-point checks.

    kernel_dim_ok certifies a one-dimensional kernel through the
    spectral gap; transversality_value is the kernel projection of the
    mixed derivative, which equals -(u0, u0) = -1 under normalization.
    """

    lambda0: float
    lambda1: float
    gap: float
    kernel_dim_ok: bool
    transversality_value: float
    transversality_ok: bool

    @property
    def bifurcation_point_certified(self) -> bool:
        return self.kernel_dim_ok and self.transversality_ok

    def to_dict(self) -> dict:
        return asdict(self)


def principal_eigenpair(L: Laplacian, mesh: Mesh, tol: float = 1e-10) -> Eigenpair:
    """Smallest eigenvalue of L, L.eigenvalues[0], and its positive,
    mesh-normalized eigenfunction: the sine mode
    prod_a sin(pi (x_a - lo_a) / len_a). Raises ConvergenceError when its
    residual against the stencil L exceeds tol (L is not this mesh's
    Laplacian, or rounding in L v alone exceeds tol)."""
    lam = float(L.eigenvalues[0])
    axes = zip(mesh.axis_coords, mesh.spec.bounds)
    v = reduce(np.multiply.outer, [np.sin(np.pi * (x - lo) / (hi - lo)) for x, (lo, hi) in axes]).ravel()
    v = v / l2_norm(mesh, v)
    res = l2_norm(mesh, L.apply(v) - lam * v)
    if res > tol:
        raise ConvergenceError(f"principal sine mode misses eigen tolerance {tol:.1e} against L", res, 0)
    return Eigenpair(eigenvalue=lam, vector=v, residual=res)


def verify_crandall_rabinowitz(
    lambda0: float,
    lambda1: float,
    u0: Array,
    mesh: Mesh,
    gap_tol: float,
    trans_tol: float = 1e-6,
) -> CRReport:
    """Check the three bifurcation-point conditions at (lambda0, 0).

    Kernel dimension one is certified by the gap lambda1 - lambda0
    exceeding gap_tol (`Tolerances.resolved_gap_tol`). The transversality
    value is the kernel projection of the mixed derivative applied to u0,
    i.e. -(u0, u0), which must be bounded away from zero.
    """
    gap = lambda1 - lambda0
    trans = -inner_product(mesh, u0, u0)
    return CRReport(
        lambda0=lambda0,
        lambda1=lambda1,
        gap=gap,
        kernel_dim_ok=bool(gap > gap_tol),
        transversality_value=trans,
        transversality_ok=bool(abs(trans) > trans_tol),
    )
