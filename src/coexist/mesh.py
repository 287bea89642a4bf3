"""The domain of a problem: an interval or a rectangle, and its uniform
grid of interior nodes.

Boundary values are homogeneous Dirichlet, so only interior nodes carry
unknowns, and the spacing is h = length/(resolution+1) per axis. A spec
checks itself when built, so an invalid one cannot exist. The grid itself
is `operators.Laplacian(spec)`, the package's one grid object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, as_number

__all__ = ["DomainSpec", "stencil_bound"]

_AXES_FOR_KIND = {"interval": 1, "rectangle": 2}


def stencil_bound(h) -> float:
    """sum 4/h^2 over the axes' spacings h, above every stencil eigenvalue."""
    return sum(4.0 / (x * x) if x * x > 0.0 else math.inf for x in h)


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned product domain: an interval or a rectangle.

    bounds holds one (lo, hi) pair per axis; resolution the number of
    interior nodes per axis. Raises ConfigError naming the offending field
    when the spec is invalid.
    """

    kind: str
    bounds: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]

    def __post_init__(self):
        bounds = tuple(tuple(as_number(b, "domain.bounds") for b in ax) for ax in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        resolution = tuple(as_number(n, "domain.resolution", integer=True) for n in self.resolution)
        object.__setattr__(self, "resolution", resolution)
        if self.kind not in _AXES_FOR_KIND:
            raise ConfigError(f"kind must be 'interval' or 'rectangle', got {self.kind!r}")
        d = _AXES_FOR_KIND[self.kind]
        if len(self.bounds) != d or len(self.resolution) != d:
            raise ConfigError(
                f"kind {self.kind!r} needs {d} axis entries, got "
                f"{len(self.bounds)} bounds and {len(self.resolution)} resolutions"
            )
        for ax, pair in enumerate(self.bounds):
            if len(pair) != 2:
                raise ConfigError(f"bounds[{ax}] must be a (lo, hi) pair, got {list(pair)}")
            lo, hi = pair
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ConfigError(f"bounds[{ax}] must be finite with positive length, got ({lo}, {hi})")
        for ax, n in enumerate(self.resolution):
            if n < 3:
                raise ConfigError(f"resolution[{ax}] must be >= 3, got {n}")
        # Newton's ||F|| in `continuation` squares L U, formed as
        # L.eigenvalues times U's sine coefficients, whose squares sum to
        # those of L U's nodal values; for U = s u0, |s| <= 1, a nodal value
        # is at most stencil_bound times the normalized sine mode's peak,
        # whose square is prod 2/len
        hs = self.h
        lam_max = stencil_bound(hs)
        squared = lam_max * lam_max * math.prod(2.0 / (hi - lo) for lo, hi in self.bounds)
        if not math.isfinite(squared):
            raise ConfigError(
                f"grid spacing h = {list(hs)} is too small: Newton's residual norm squares L U, "
                f"up to (sum 4/h^2)^2 * prod 2/len = {squared:.3g}, which overflows"
            )

    @property
    def h(self) -> tuple[float, ...]:
        """The grid spacing length/(resolution+1) per axis."""
        return tuple((hi - lo) / (n + 1) for (lo, hi), n in zip(self.bounds, self.resolution))
