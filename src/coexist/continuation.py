"""Trace the nontrivial solution branch through the bifurcation point
and check it against the local expansion lambda(s) ~ lambda0 + mu_s*s
+ 1/2*mu_ss*s^2.

Points are parametrized by the amplitude s = (U, u0), where u0 is the
mesh-normalized principal sine mode; as in the paper, U = s*u0 + s*z with
(z, u0) = 0. Each point pins its guess to the amplitude s once, and every
Newton correction solves the bordered system [J, -U; u0^T, 0] for a
correction orthogonal to u0, so the amplitude holds by construction and
Newton converges on ||F|| alone. Near a simple bifurcation this
parametrization cannot fold back, so no arclength machinery is needed.
The bordered solve runs CG on the complement of u0, preconditioned with
the exact DST inverse of L - lambda there: the Jacobian J differs from it
by the small diagonal g'(0) - g'(U), so the iterations do not grow with N.

Each point starts from a second-order predictor U = s*u0 + s^2*w,
lambda = lambda0 + mu_s*s + s^2*c. A leg's first point takes w = z_s =
g''(0)*z_hat, the corrector the analysis already solved, and c =
1/2*mu_ss; every later point takes w and c from its converged inward
neighbour. The guess is then accurate to the branch's own order, and one
Newton step reaches newton_tol.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .diagnostics import AnalysisResult
from .errors import ConvergenceError
from .mesh import Mesh, inner_product, l2_norm
from .nonlinearity import NonlinearityModel, apply, apply_derivative, derivative_at_zero
from .operators import Laplacian, MatVec, solve_bordered_system

__all__ = [
    "BranchPoint",
    "BranchFit",
    "Branch",
    "residual",
    "jacobian_apply",
    "solve_at_amplitude",
    "trace_branch",
    "fit_local_expansion",
    "fit_supported",
]

Array = npt.NDArray[np.float64]

DEFAULT_S_VALUES = (-0.10, -0.08, -0.06, -0.04, -0.02, 0.02, 0.04, 0.06, 0.08, 0.10)
# relative target of each Newton step's bordered solve; its absolute target
# follows from newton_tol
_LINEAR_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class BranchPoint:
    s: float
    lam: float
    U: Array
    residual: float
    newton_iters: int


@dataclass(frozen=True)
class BranchFit:
    """Least-squares coefficients of lambda(s) - lambda0 ~ a*s + b*s^2."""

    a: float
    b: float
    rms: float

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "rms": self.rms}


@dataclass(frozen=True, eq=False)
class Branch:
    points: tuple[BranchPoint, ...]
    model: NonlinearityModel
    lambda0: float
    fit: BranchFit | None = None
    truncations: tuple[str, ...] = ()


def residual(U: Array, lam: float, model: NonlinearityModel, L: Laplacian) -> Array:
    """F(U, lambda) = L U - lambda U + V_L U - g(U); identically zero on
    the trivial branch U = 0."""
    return L.apply(U) + (model.V_L - lam) * U - apply(model, U)


def jacobian_apply(U: Array, lam: float, model: NonlinearityModel, L: Laplacian) -> MatVec:
    """The action of dF/dU at (U, lambda): d -> (L - lambda + V_L - g'(U)) d,
    with the diagonal evaluated once so g'(U) is not recomputed per call.

    At U = 0 this reduces to L - lambda since g'(0) = V_L.
    """
    diag = (model.V_L - lam) - apply_derivative(model, U)
    return lambda d: L.apply(d) + diag * d


def solve_at_amplitude(
    s: float,
    model: NonlinearityModel,
    L: Laplacian,
    mesh: Mesh,
    u0: Array,
    guess: tuple[Array, float],
    newton_tol: float = 1e-10,
    max_iters: int = 25,
) -> BranchPoint:
    """Newton-solve F(U, lambda) = 0 with (U, u0) = s from guess = (U, lambda),
    such as trace_branch's predictor.

    Precondition: u0 is mesh-normalized, (u0, u0) = 1. The guess is pinned
    once to the amplitude, U + (s - (U, u0))*u0; every Newton correction
    then solves the bordered system with its correction orthogonal to u0,
    so the amplitude holds by construction and convergence is judged on
    ||F|| alone. Inner bordered solves run at relative tolerance
    _LINEAR_RTOL with an absolute target well below newton_tol, so the
    linear error never limits the Newton residual. Raises ConvergenceError
    carrying the final residual and the number of iterations taken.
    """
    if s == 0.0:
        raise ValueError("s must be nonzero; s = 0 is the trivial branch")
    U, lam = guess[0] + (s - inner_product(mesh, guess[0], u0)) * u0, float(guess[1])
    # Euclidean absolute target: newton_tol is a mesh-norm tolerance and
    # ||v||_mesh = sqrt(w) * ||v||_2 on uniform grids
    linear_atol = 0.02 * newton_tol / np.sqrt(mesh.weight)

    for iters in range(max_iters + 1):
        F = residual(U, lam, model, L)
        res = l2_norm(mesh, F)
        if res <= newton_tol:
            break
        if iters == max_iters:
            raise ConvergenceError(
                f"Newton iteration at s={s:g} did not converge", residual=res, iterations=iters
            )
        try:
            dU, dlam = solve_bordered_system(
                jacobian_apply(U, lam, model, L), u0, -U, -F, L, lam, rtol=_LINEAR_RTOL, atol=linear_atol
            )
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"Newton step at s={s:g} failed in the linear solve", residual=res, iterations=iters
            ) from exc
        U = U + dU
        lam = lam + dlam
    return BranchPoint(s=float(s), lam=lam, U=U, residual=res, newton_iters=iters)


def trace_branch(
    analysis: AnalysisResult,
    s_values,
    newton_tol: float = 1e-10,
    max_iters: int = 25,
) -> Branch:
    """Solve along the given amplitudes for the analysis's model and mesh,
    outward from s = 0 on each side, each point from the second-order
    predictor U = s*u0 + s^2*w, lambda = lambda0 + mu_s*s + s^2*c. Each
    leg starts at w = g''(0)*analysis.z_hat and c = 1/2*mu_ss, the s^2
    coefficients of the local expansion; after each converged point
    w = (U - s*u0)/s^2 and c = (lambda - lambda0 - mu_s*s)/s^2.

    A diverged point truncates its side of the branch; the event is
    recorded on the Branch rather than raised.
    """
    s_values = [float(s) for s in s_values]
    if any(s == 0.0 for s in s_values):
        raise ValueError("s_values must not contain 0")
    if sorted(s_values) != s_values or len(set(s_values)) != len(s_values):
        raise ValueError("s_values must be strictly increasing")

    model, mesh, u0 = analysis.model, analysis.mesh, analysis.eigenpair.vector
    lambda0 = analysis.eigenpair.eigenvalue
    d = analysis.diagnostics

    points: list[BranchPoint] = []
    truncations: list[str] = []
    negatives = sorted((s for s in s_values if s < 0), reverse=True)
    positives = sorted(s for s in s_values if s > 0)
    z_s = derivative_at_zero(model, 2) * analysis.z_hat
    for leg in (negatives, positives):
        w, c = z_s, 0.5 * d.mu_ss
        for s in leg:
            predicted = (s * u0 + (s * s) * w, lambda0 + d.mu_s * s + c * s * s)
            try:
                pt = solve_at_amplitude(
                    s, model, analysis.operator, mesh, u0, predicted,
                    newton_tol=newton_tol, max_iters=max_iters,
                )
            except ConvergenceError as exc:
                truncations.append(f"branch truncated at s={s:g}: {exc}")
                break
            points.append(pt)
            w = (pt.U - s * u0) / (s * s)
            c = (pt.lam - lambda0 - d.mu_s * s) / (s * s)

    points.sort(key=lambda p: p.s)
    branch = Branch(points=tuple(points), model=model, lambda0=lambda0, truncations=tuple(truncations))
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
    """Least-squares fit of lambda(s) - branch.lambda0 against (s, s^2).

    Requires at least five points with both signs of s represented.
    """
    s = np.array([p.s for p in branch.points])
    if not fit_supported(s):
        raise ValueError("fit needs >= 5 branch points spanning both signs of s")
    y = np.array([p.lam for p in branch.points]) - branch.lambda0
    design = np.column_stack([s, s * s])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    rms = float(np.sqrt(np.mean((y - design @ coef) ** 2)))
    return BranchFit(a=float(coef[0]), b=float(coef[1]), rms=rms)
