"""Uniform interior grids on intervals and rectangles, with the discrete
L2 inner product used by every pairing in the package.

Boundary values are homogeneous Dirichlet, so only interior nodes carry
unknowns and the quadrature is the composite rectangle rule with the one
weight prod(h) on every node (exactly the trapezoid rule for functions
vanishing on the boundary), so a mesh stores that scalar, not a vector.
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
        # the residual norms square L v, which is at most the stencil's largest
        # eigenvalue sum 4/h^2 times the normalized sine mode's peak, whose
        # square is prod 2/len
        hs = [(hi - lo) / (n + 1) for (lo, hi), n in zip(self.bounds, self.resolution)]
        lam_max = sum(4.0 / (h * h) if h * h > 0.0 else math.inf for h in hs)
        squared = lam_max * lam_max * math.prod(2.0 / (hi - lo) for lo, hi in self.bounds)
        if not math.isfinite(squared):
            raise ConfigError(
                f"grid spacing h = {hs} is too small: the residual norms square "
                f"(sum 4/h^2)^2 * prod 2/len = {squared:.3g}, which overflows"
            )

    @property
    def dim(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform grid of interior nodes, each with the quadrature weight
    prod(h). The grid is its per-axis coordinates; no node table is formed.

    Node ordering is lexicographic in the axis index tuple (first axis
    slowest), the flat order of every node vector.
    """

    spec: DomainSpec
    h: tuple[float, ...]
    weight: float
    axis_coords: tuple[Array, ...] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return math.prod(self.spec.resolution)

    @property
    def dim(self) -> int:
        return self.spec.dim


def build_mesh(spec: DomainSpec) -> Mesh:
    """Build the uniform interior grid for spec.

    Spacing is h = length/(resolution+1) per axis; every node carries the
    weight prod(h). Raises ConfigError naming the offending field when
    the spec is invalid.
    """
    spec.validate()
    hs = tuple((hi - lo) / (n + 1) for (lo, hi), n in zip(spec.bounds, spec.resolution))
    axis_coords = tuple(b[0] + h * np.arange(1, n + 1) for b, h, n in zip(spec.bounds, hs, spec.resolution))
    return Mesh(spec=spec, h=hs, weight=math.prod(hs), axis_coords=axis_coords)


def _check_length(mesh: Mesh, f: Array, name: str) -> Array:
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.n_nodes,):
        raise ValueError(f"{name} has shape {f.shape}, expected ({mesh.n_nodes},)")
    return f


def inner_product(mesh: Mesh, f: Array, g: Array) -> float:
    """Discrete L2 pairing sum_i w f_i g_i = w * (f . g), with the one
    weight w = prod(h) applied to the dot product.

    The dot product forms each f_i g_i = g_i f_i and sums them in the same
    order whichever argument comes first, so the result is bit-for-bit
    symmetric in (f, g); no weighted temporary is formed.
    """
    f = _check_length(mesh, f, "f")
    g = _check_length(mesh, g, "g")
    return mesh.weight * float(f @ g)


def l2_norm(mesh: Mesh, f: Array) -> float:
    """sqrt(inner_product(mesh, f, f)); zero iff f == 0."""
    f = _check_length(mesh, f, "f")
    return math.sqrt(mesh.weight * float(f @ f))
