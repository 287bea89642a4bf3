"""Uniform interior grids on intervals and rectangles, with the discrete
L2 inner product used by every pairing in the package.

Boundary values are homogeneous Dirichlet, so only interior nodes carry
unknowns and the quadrature is the composite rectangle rule with weight
h^d per node (exactly the trapezoid rule for functions vanishing on the
boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .errors import ConfigError, as_number

__all__ = ["DomainSpec", "Mesh", "build_mesh", "inner_product", "l2_norm"]

Array = npt.NDArray[np.float64]

_AXES_FOR_KIND = {"interval": 1, "rectangle": 2}


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned product domain: an interval or a rectangle.

    bounds holds one (lo, hi) pair per axis; resolution the number of
    interior nodes per axis.
    """

    kind: str
    bounds: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]

    def __post_init__(self):
        bounds = tuple(tuple(as_number(b, "domain.bounds") for b in ax) for ax in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        resolution = tuple(as_number(n, "domain.resolution", integer=True) for n in self.resolution)
        object.__setattr__(self, "resolution", resolution)

    def validate(self) -> None:
        if self.kind not in _AXES_FOR_KIND:
            raise ConfigError(f"kind must be 'interval' or 'rectangle', got {self.kind!r}")
        d = _AXES_FOR_KIND[self.kind]
        if len(self.bounds) != d or len(self.resolution) != d:
            raise ConfigError(
                f"kind {self.kind!r} needs {d} axis entries, got "
                f"{len(self.bounds)} bounds and {len(self.resolution)} resolutions"
            )
        for ax, (lo, hi) in enumerate(self.bounds):
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ConfigError(f"bounds[{ax}] must be finite with positive length, got ({lo}, {hi})")
        for ax, n in enumerate(self.resolution):
            if n < 3:
                raise ConfigError(f"resolution[{ax}] must be >= 3, got {n}")
        # the stencil scales by 1/h^2, and the residual norms of the solves
        # square values up to its largest eigenvalue, sum 4/h^2
        hs = [(hi - lo) / (n + 1) for (lo, hi), n in zip(self.bounds, self.resolution)]
        lam_max = sum(4.0 / (h * h) if h * h > 0.0 else math.inf for h in hs)
        if not math.isfinite(lam_max * lam_max):
            raise ConfigError(
                f"grid spacing h = {hs} is too small: the stencil's largest eigenvalue "
                f"sum 4/h^2 = {lam_max:.3g} overflows when squared"
            )

    @property
    def dim(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform grid of interior nodes with per-node quadrature weights.

    Node ordering is lexicographic in the axis index tuple (first axis
    slowest), which fixes the summation order of all inner products.
    """

    spec: DomainSpec
    interior_nodes: Array  # shape (n_nodes, dim)
    h: tuple[float, ...]
    quad_weights: Array  # shape (n_nodes,)
    axis_coords: tuple[Array, ...] = field(repr=False, default=())

    @property
    def n_nodes(self) -> int:
        return self.interior_nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.spec.dim

    def zeros(self) -> Array:
        return np.zeros(self.n_nodes)


def build_mesh(spec: DomainSpec) -> Mesh:
    """Build the uniform interior grid for spec.

    Spacing is h = length/(resolution+1) per axis; every node carries the
    weight prod(h). Raises ConfigError naming the offending field when
    the spec is invalid.
    """
    spec.validate()
    axis_coords = []
    hs = []
    for (lo, hi), n in zip(spec.bounds, spec.resolution):
        h = (hi - lo) / (n + 1)
        hs.append(h)
        axis_coords.append(lo + h * np.arange(1, n + 1))
    grids = np.meshgrid(*axis_coords, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    w = float(np.prod(hs)) * np.ones(nodes.shape[0])
    return Mesh(
        spec=spec,
        interior_nodes=nodes,
        h=tuple(hs),
        quad_weights=w,
        axis_coords=tuple(axis_coords),
    )


def _check_length(mesh: Mesh, f: Array, name: str) -> Array:
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.n_nodes,):
        raise ValueError(f"{name} has shape {f.shape}, expected ({mesh.n_nodes},)")
    return f


def inner_product(mesh: Mesh, f: Array, g: Array) -> float:
    """Discrete L2 pairing sum_i w_i f_i g_i.

    The pointwise product is formed before weighting so that the result
    is bit-for-bit symmetric in (f, g); the summation order is numpy's
    fixed pairwise order over ascending node index.
    """
    f = _check_length(mesh, f, "f")
    g = _check_length(mesh, g, "g")
    return float(np.dot(mesh.quad_weights, f * g))


def l2_norm(mesh: Mesh, f: Array) -> float:
    """sqrt(inner_product(mesh, f, f)); zero iff f == 0."""
    f = _check_length(mesh, f, "f")
    return float(np.sqrt(np.dot(mesh.quad_weights, f * f)))
