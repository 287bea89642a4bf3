"""Principal and second eigenpairs of the discrete Laplacian, and the
checks that certify the bifurcation point.

On a uniform product grid the Dirichlet Laplacian's eigenvectors are
products of sines, sin(j pi i / (n+1)) per axis, with eigenvalues
sum_axes 4/h^2 sin^2(j pi / (2(n+1))). Both eigenpairs are these closed
forms; each is certified by its residual against the stencil L.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np
import numpy.typing as npt

from .errors import ConvergenceError
from .mesh import Mesh, inner_product, l2_norm
from .operators import Laplacian, axis_eigenvalues

__all__ = [
    "Eigenpair",
    "CRReport",
    "principal_eigenpair",
    "second_eigenpair",
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


def _sine_mode(L: Laplacian, mesh: Mesh, modes: tuple[int, ...], tol: float) -> Eigenpair:
    """The mesh-normalized sine mode prod_a sin(j_a pi (x_a - lo_a) / len_a),
    j_a = modes[a]. Raises ConvergenceError when its residual against the
    stencil L exceeds tol (L is not this mesh's Laplacian, or rounding in
    L v alone exceeds tol)."""
    lam = float(sum(ev[j - 1] for ev, j in zip(axis_eigenvalues(mesh), modes)))
    axes = zip(modes, mesh.axis_coords, mesh.spec.bounds)
    v = reduce(np.multiply.outer, [np.sin(j * np.pi * (x - lo) / (hi - lo)) for j, x, (lo, hi) in axes]).ravel()
    v = v / l2_norm(mesh, v)
    res = l2_norm(mesh, L.apply(v) - lam * v)
    if res > tol:
        raise ConvergenceError(f"sine mode {modes} misses eigen tolerance {tol:.1e} against L", res, 0)
    return Eigenpair(eigenvalue=lam, vector=v, residual=res)


def principal_eigenpair(L: Laplacian, mesh: Mesh, tol: float = 1e-10) -> Eigenpair:
    """Smallest eigenvalue of L and its positive, mesh-normalized
    eigenfunction: the sine mode (1, ..., 1)."""
    return _sine_mode(L, mesh, (1,) * mesh.dim, tol)


def second_eigenpair(L: Laplacian, mesh: Mesh, tol: float = 1e-10) -> Eigenpair:
    """Smallest eigenvalue of L on the complement of the principal
    eigenvector, with its mesh-normalized eigenvector. Eigenvalues grow
    with each mode index, so this is mode index 2 on the axis whose step
    costs least, the first on the square's tie."""
    axis = int(np.argmin([ev[1] - ev[0] for ev in axis_eigenvalues(mesh)]))
    return _sine_mode(L, mesh, tuple(2 if a == axis else 1 for a in range(mesh.dim)), tol)


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
