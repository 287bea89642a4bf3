"""Trace the nontrivial solution branch through the bifurcation point
and check it against the local expansion lambda(s) ~ lambda0 + mu_s*s
+ 1/2*mu_ss*s^2.

Points are parametrized by the amplitude s = (U, u0): for each requested
s the pair (U, lambda) solves the discrete problem F(U, lambda) = 0
together with the amplitude constraint. Near a simple bifurcation this
parametrization cannot fold back, so no arclength machinery is needed.
Each Newton step solves a bordered system with the (possibly nearly
singular) Jacobian on the complement of u0, by CG preconditioned with the
exact DST inverse of L - lambda there: the Jacobian differs from it by
the small diagonal g'(0) - g'(U), so the iterations do not grow with N.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .diagnostics import AnalysisResult
from .errors import ConvergenceError
from .mesh import Mesh, inner_product, l2_norm
from .nonlinearity import NonlinearityModel, apply, apply_derivative
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
    lambda0: float,
    mu_s: float,
    mu_ss: float,
    newton_tol: float = 1e-10,
    max_iters: int = 25,
    linear_rtol: float = 1e-8,
    U_init: Array | None = None,
) -> BranchPoint:
    """Newton-solve F(U, lambda) = 0 with (U, u0) = s.

    The initial guess is U = s*u0 with lambda from the second-order
    expansion unless a warm start is supplied. Inner bordered solves run
    at relative tolerance linear_rtol with an absolute target well below
    newton_tol, so the linear error never limits the Newton residual.
    Raises ConvergenceError carrying the final residual and the number
    of iterations taken.
    """
    if s == 0.0:
        raise ValueError("s must be nonzero; s = 0 is the trivial branch")
    U = (s * u0) if U_init is None else U_init.copy()
    lam = lambda0 + mu_s * s + 0.5 * mu_ss * s * s
    row = mesh.quad_weights * u0
    # Euclidean absolute target: newton_tol is a mesh-norm tolerance and
    # ||v||_mesh = sqrt(w) * ||v||_2 on uniform grids
    linear_atol = 0.02 * newton_tol / np.sqrt(float(mesh.quad_weights[0]))

    iters = 0
    res = np.inf
    for iters in range(max_iters + 1):
        F = residual(U, lam, model, L)
        cres = inner_product(mesh, U, u0) - s
        res = l2_norm(mesh, F)
        if res <= newton_tol and abs(cres) <= newton_tol:
            break
        if iters == max_iters:
            raise ConvergenceError(
                f"Newton iteration at s={s:g} did not converge", residual=res, iterations=iters
            )
        try:
            dU, dlam = solve_bordered_system(
                jacobian_apply(U, lam, model, L), u0, -U, row, -F, -cres, mesh, lam,
                rtol=linear_rtol, atol=linear_atol, max_iter=max(2000, 4 * L.n),
            )
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"Newton step at s={s:g} failed in the linear solve", residual=res, iterations=iters
            ) from exc
        U = U + dU
        lam = lam + float(dlam)

    # pin the amplitude constraint exactly; the residual change is O(eps)
    U = U + (s - inner_product(mesh, U, u0)) * u0
    res = l2_norm(mesh, residual(U, lam, model, L))
    return BranchPoint(s=float(s), lam=float(lam), U=U, residual=res, newton_iters=iters)


def trace_branch(
    analysis: AnalysisResult,
    s_values,
    newton_tol: float = 1e-10,
    max_iters: int = 25,
    linear_rtol: float = 1e-8,
) -> Branch:
    """Solve along the given amplitudes for the analysis's model and mesh,
    warm-starting each point from its inward neighbour on the same side
    of s = 0.

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
    for leg in (negatives, positives):
        prev: BranchPoint | None = None
        for s in leg:
            warm = None if prev is None else prev.U * (s / prev.s)
            try:
                pt = solve_at_amplitude(
                    s,
                    model,
                    analysis.operator,
                    mesh,
                    u0,
                    lambda0,
                    d.mu_s,
                    d.mu_ss,
                    newton_tol=newton_tol,
                    max_iters=max_iters,
                    linear_rtol=linear_rtol,
                    U_init=warm,
                )
            except ConvergenceError as exc:
                truncations.append(f"branch truncated at s={s:g}: {exc}")
                break
            points.append(pt)
            prev = pt

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
