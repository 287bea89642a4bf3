"""Trace the nontrivial solution branch through the bifurcation point
and check it against the local expansion lambda(s) ~ lambda0 + mu_s*s
+ 1/2*mu_ss*s^2.

Points are parametrized by the amplitude s = (U, u0), where u0 is the
normalized principal sine mode; as in the paper, U = s*u0 + s*z with
(z, u0) = 0. Each point pins its guess to the amplitude s once, and every
Newton correction solves the bordered system [J, -U; u0^T, 0] for a
correction orthogonal to u0, so the amplitude holds by construction and
Newton converges on ||F|| alone. Near a simple bifurcation this
parametrization cannot fold back, so no arclength machinery is needed.
Newton holds U by its sine coefficients c, U = T^T c, from the predictor
to the converged point. There L is the diagonal L.eigenvalues and u0 is
coefficient 0, so the amplitude pin sets one coefficient and
F's coefficients are (L.eigenvalues + V_L - lambda) c - T(g(U)): only
the nonlinearity is evaluated at the nodes, the usual pseudo-spectral
split (Boyd 2001). The bordered solve runs CG in the same coefficients
off the principal one, where L - lambda preconditions exactly: the
Jacobian J differs from it by the small diagonal g'(0) - g'(U), so the
iterations do not grow with N.

Each point starts from a second-order predictor U = s*u0 + s^2*w,
lambda = lambda0 + mu_s*s + s^2*c. A leg's first point takes w = z_s =
g''(0)*z_hat, the corrector the analysis already solved, and c =
1/2*mu_ss; every later point takes w and c from its converged inward
neighbour. The guess is then accurate to the branch's own order, and
about one Newton step reaches the stop.

Newton stops at F's rounding floor, ||F|| <= _NEWTON_MARGIN eps (sum 4/h^2)
||U||: L U is formed to eps times ||L|| ||U||, and sum 4/h^2 bounds ||L||.
T is orthogonal, so the norms of the coefficients are those of the nodes.
Each step's bordered solve targets half that floor, so the linear error
never keeps Newton from it (Dembo, Eisenstat and Steihaug 1982).

The problem commutes with the reflection of each axis and u0 is
invariant, so by the local uniqueness of the Crandall-Rabinowitz branch
(Golubitsky, Stewart and Schaeffer 1988) the branch is mirror-symmetric.
Every Newton step therefore runs on the Laplacian's half grid, ceil(n/2)
nodes per axis, whose sine coefficients the analysis already holds z_hat
in, and trace_branch unfolds each converged U once. The half-grid
coordinates sqrt(m) u keep the full grid's dot products, so only the
nonlinearity reads nodal values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .diagnostics import AnalysisResult
from .errors import ConfigError, ConvergenceError
from .mesh import stencil_bound
from .nonlinearity import NonlinearityModel, apply, apply_derivative, derivative_at_zero
from .operators import Laplacian, solve_bordered_system

__all__ = [
    "BranchPoint",
    "BranchFit",
    "Branch",
    "solve_at_amplitude",
    "trace_branch",
    "fit_local_expansion",
    "fit_supported",
]

Array = npt.NDArray[np.float64]

DEFAULT_S_VALUES = (-0.10, -0.08, -0.06, -0.04, -0.02, 0.02, 0.04, 0.06, 0.08, 0.10)
# Newton stops at ||F|| <= this many eps * (sum 4/h^2) * ||U||, F's rounding floor
_NEWTON_MARGIN = 64.0
# Newton steps a point may take before it counts as diverged
_MAX_NEWTON_STEPS = 25
# the smallest |s| must move lambda by more than this many ulps of lambda0
_AMPLITUDE_ULPS = 4.0
# highest power of s in the local-expansion fit, when the points allow it
_FIT_DEGREE = 6


@dataclass(frozen=True, eq=False)
class BranchPoint:
    s: float
    lam: float
    U: Array
    residual: float
    newton_iters: int
    # U's sine coefficients in the operator's transform, while Newton holds them
    coefficients: Array | None = None


@dataclass(frozen=True)
class BranchFit:
    """Least-squares coefficients a and b of s and s^2 in the polynomial
    fit of lambda(s) - lambda0 (see fit_local_expansion), and the rms of
    its residuals."""

    a: float
    b: float
    rms: float

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "rms": self.rms}


@dataclass(frozen=True, eq=False)
class Branch:
    points: tuple[BranchPoint, ...]
    lambda0: float
    fit: BranchFit | None = None
    truncations: tuple[str, ...] = ()


def solve_at_amplitude(s: float, model: NonlinearityModel, L: Laplacian, guess: tuple[Array, float]) -> BranchPoint:
    """Newton-solve F(U, lambda) = 0 with (U, u0) = s from guess =
    (coefficients, lambda), such as trace_branch's predictor.

    U is held by its sine coefficients c in L's transform, U = T^T c, and
    u0 is coefficient 0 over sqrt(L.weight), so the amplitude is
    sqrt(L.weight) c[0]: the guess is pinned once by c[0] = s/sqrt(L.weight).
    Each evaluation forms U once and reads g at its nodal values
    U/sqrt(m): F's coefficients are
    (L.eigenvalues + V_L - lambda) c - T(sqrt(m) g(U/sqrt(m))). Every
    Newton correction then solves the bordered system in those
    coefficients with no principal coefficient, so the amplitude holds by
    construction and Newton stops on ||F|| alone, at its rounding floor (h
    from L.h). The point's U is the node vector of its coefficients, which
    it carries too.
    Raises ConvergenceError, carrying the final residual and the number of
    iterations taken, after _MAX_NEWTON_STEPS steps, when a step's linear
    solve fails (its own message kept), and when a value overflows or
    turns NaN.
    """
    if s == 0.0:
        raise ValueError("s must be nonzero; s = 0 is the trivial branch")
    c = np.array(guess[0], dtype=float)
    if c.shape != (L.n,):
        raise ValueError(f"guess has shape {c.shape}, expected ({L.n},), one coefficient per node of L")
    w, r = L.weight, L.sqrt_multiplicity
    floor_per_norm = _NEWTON_MARGIN * np.finfo(float).eps * stencil_bound(L.h)
    res, iters = math.nan, 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            c[0], lam = s / math.sqrt(w), float(guess[1])
            for iters in range(_MAX_NEWTON_STEPS + 1):
                U = L.inverse_transform(c)
                nodal = U / r
                F = (L.eigenvalues + (model.V_L - lam)) * c - L.transform(r * apply(model, nodal))
                res = math.sqrt(w * float(F @ F))
                floor = floor_per_norm * math.sqrt(w * float(c @ c))
                if res <= floor:
                    break
                if iters == _MAX_NEWTON_STEPS:
                    raise ConvergenceError(
                        f"Newton iteration at s={s:g} did not converge", residual=res, iterations=iters
                    )
                # dF/dU = L - lambda + diag(V_L - g'(U)), g' read at the nodal values
                diag = model.V_L - apply_derivative(model, nodal)
                try:  # CG's target is Euclidean, F's norm weighted
                    dc, dlam = solve_bordered_system(L, lam, -F, -c, diag, rtol=0.0, atol=0.5 * floor / math.sqrt(w))
                except ConvergenceError as exc:
                    msg = f"Newton step at s={s:g} failed in the linear solve: {exc}; Newton stopped"
                    raise ConvergenceError(msg, residual=res, iterations=iters) from exc
                c = c + dc
                lam = lam + dlam
    except FloatingPointError as exc:
        raise ConvergenceError(
            f"Newton iteration at s={s:g} met a non-finite value ({exc})", residual=res, iterations=iters
        ) from exc
    return BranchPoint(s=float(s), lam=lam, U=U, residual=res, newton_iters=iters, coefficients=c)


def trace_branch(analysis: AnalysisResult, s_values) -> Branch:
    """Solve along the given amplitudes for the analysis's model and domain,
    outward from s = 0 on each side, each point from the second-order
    predictor U = s*u0 + s^2*w, lambda = lambda0 + mu_s*s + s^2*c. Each
    leg starts at w = g''(0)*analysis.z_hat and c = 1/2*mu_ss, the s^2
    coefficients of the local expansion; after each converged point
    w = (U - s*u0)/s^2 and c = (lambda - lambda0 - mu_s*s)/s^2.

    Newton runs on the mirror-symmetric subspace, where the branch lies,
    in the sine coefficients of `analysis.operator`'s half grid, which
    z_hat is already in: the predictor is s^2 times w's coefficients, whose
    coefficient 0 the amplitude pin replaces by s*u0's. Each converged U is
    unfolded once, so every BranchPoint.U is a full-grid vector, and its
    coefficients are dropped. Newton stops at F's rounding floor.

    For odd g (no even power) F(-U, lambda) = -F(U, lambda) bit for bit:
    on symmetric s_values the s < 0 leg is the s > 0 leg mirrored, -s and
    -U, and is solved only where the s > 0 leg truncates.

    Raises ConfigError when |mu_s| |s| + |mu_ss| s^2/2 at the smallest |s|
    is within _AMPLITUDE_ULPS ulps of lambda0 (unless mu_s = mu_ss = 0):
    lambda(s) - lambda0 is not resolved there. A diverged point, or one
    whose predictor overflows or turns NaN, truncates its side of the
    branch; the event is recorded on the Branch rather than raised.
    """
    s_values = [float(s) for s in s_values]
    if any(s == 0.0 for s in s_values):
        raise ValueError("s_values must not contain 0")
    if sorted(s_values) != s_values or len(set(s_values)) != len(s_values):
        raise ValueError("s_values must be strictly increasing")

    model, d, L = analysis.model, analysis.diagnostics, analysis.operator
    lambda0 = analysis.eigenpair.eigenvalue
    s_min = min((abs(s) for s in s_values), default=math.inf)
    shift, bound = abs(d.mu_s) * s_min + abs(d.mu_ss) * s_min * s_min / 2, _AMPLITUDE_ULPS * math.ulp(lambda0)
    if (d.mu_s or d.mu_ss) and shift <= bound:
        raise ConfigError(
            f"|s| = {s_min:g} moves lambda by |mu_s||s| + |mu_ss|s^2/2 = {shift:.3e}, within "
            f"{_AMPLITUDE_ULPS:g} ulps of lambda0 ({bound:.3e}): lambda(s) - lambda0 is not resolved"
        )

    negatives, positives = [s for s in s_values[::-1] if s < 0], [s for s in s_values if s > 0]
    z_s = derivative_at_zero(model, 2) * analysis.z_hat_coefficients

    def leg(amplitudes: list[float]) -> tuple[list[BranchPoint], list[str]]:
        points, w, c = [], z_s, 0.5 * d.mu_ss
        for s in amplitudes:
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    pt = solve_at_amplitude(s, model, L, ((s * s) * w, lambda0 + d.mu_s * s + c * s * s))
                    w = pt.coefficients / (s * s)  # coefficient 0 is the pin's
                    c = (pt.lam - lambda0 - d.mu_s * s) / (s * s)
            except (ConvergenceError, FloatingPointError) as exc:
                return points, [f"branch truncated at s={s:g}: {exc}"]
            points.append(dataclasses.replace(pt, U=L.unfold(pt.U), coefficients=None))
        return points, []

    points, truncations = leg(positives)
    if not any(model.coeffs[1::2]) and negatives == [-s for s in positives] and not truncations:
        points += [dataclasses.replace(p, s=-p.s, U=-p.U) for p in points]  # odd g: the mirror image
    else:
        negative, cut = leg(negatives)
        points, truncations = negative + points, cut + truncations

    points.sort(key=lambda p: p.s)
    branch = Branch(points=tuple(points), lambda0=lambda0, truncations=tuple(truncations))
    try:
        return dataclasses.replace(branch, fit=fit_local_expansion(branch))
    except ValueError:
        return branch


def fit_supported(s_values) -> bool:
    """Whether amplitudes s can carry the local-expansion fit: at least
    five of them, with both signs of s represented."""
    s = np.asarray(s_values, dtype=float)
    return s.size >= 5 and bool(np.any(s > 0) and np.any(s < 0))


def fit_local_expansion(branch: Branch) -> BranchFit:
    """Least-squares fit of lambda(s) - branch.lambda0 against s, s^2, ...,
    s^p with p = min(6, number of points - 1); a and b are the s and s^2
    coefficients. The higher powers take up the s^3 to s^6 terms of the
    branch, which bias a and b of a fit on (s, s^2) alone by up to 1e-2 on
    |s| <= 0.1. The powers of s/max|s| condition the design; the
    coefficients are rescaled after.

    Requires at least five points with both signs of s represented.
    """
    s = np.array([p.s for p in branch.points])
    if not fit_supported(s):
        raise ValueError("fit needs >= 5 branch points spanning both signs of s")
    y = np.array([p.lam for p in branch.points]) - branch.lambda0
    scale = float(np.max(np.abs(s)))
    design = np.vander(s / scale, min(_FIT_DEGREE, s.size - 1) + 1, increasing=True)[:, 1:]
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    rms = float(np.sqrt(np.mean((y - design @ coef) ** 2)))
    return BranchFit(a=float(coef[0]) / scale, b=float(coef[1]) / scale**2, rms=rms)
