"""Branch diagnostics at the bifurcation point and the nine-type
classification of co-existence.

With the branch written as u = s*u0 + s*z, (z, u0) = 0, and
mu(s) = lambda(s) - lambda0, the two numbers that decide the local
geometry are

    mu_s(0)  = -1/2 * g''(0) * I3
    mu_ss(0) = -1/3 * g'''(0) * I4 - 2*g''(0)^2 * M_hat

with I3 = (u0^2, u0), I4 = (u0^3, u0) and M_hat = (u0*z_hat, u0). The
unit corrector z_hat solves A z_hat = 1/2*(u0^2 - I3*u0) on the
complement of u0 (A = L - lambda0). The corrector equation
A z_s = mu_s(0)*u0 + 1/2*g''(0)*u0^2 is linear in g''(0), so every
model's corrector is z_s = g''(0)*z_hat, with M_zu = g''(0)*M_hat; z_s
itself is never formed. The V_L contributions cancel identically for
constant V_L, so they never appear in these closed forms; the raw forms
including them are exercised in the test suite as an independent
cross-check.

Every command runs the same two steps: `eigendata` (the stencil L, the
closed-form eigenpairs and the bifurcation-point checks of
`bifurcation_point`, then z_hat and its moments) once per mesh, then
`diagnose` (mu_s, the moments, mu_ss, the type) once per model, as
scalar arithmetic on g''(0), g'''(0) and the per-mesh moments.

The sign pair (sign mu_s, sign mu_ss) indexes the nine co-existence
types: rows in the order (0, +, -), columns in the order (+, 0, -).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import ConfigError, SolvabilityError
from .mesh import Mesh, inner_product
from .nonlinearity import NonlinearityModel, derivative_at_zero
from .operators import BorderedSolution, Laplacian, bordered_solve
from .spectrum import CRReport, Eigenpair, principal_eigenpair, second_eigenpair, verify_crandall_rabinowitz

__all__ = [
    "CoexistenceType",
    "CoexistenceSide",
    "Moments",
    "BifurcationDiagnostics",
    "Tolerances",
    "EigenData",
    "AnalysisResult",
    "compute_z_s",
    "classify",
    "sign_with_tolerance",
    "bifurcation_point",
    "eigendata",
    "diagnose",
    "run_analysis",
    "psi_k_table",
    "TableRow",
]

Array = npt.NDArray[np.float64]


class CoexistenceType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"
    VIII = "VIII"
    IX = "IX"

    def __str__(self) -> str:  # CSV/report cell
        return self.value


# (sign mu_s, sign mu_ss) -> type; rows (0, +, -) x columns (+, 0, -)
_TYPE_TABLE = {
    (0, 1): CoexistenceType.I,
    (0, 0): CoexistenceType.II,
    (0, -1): CoexistenceType.III,
    (1, 1): CoexistenceType.IV,
    (1, 0): CoexistenceType.V,
    (1, -1): CoexistenceType.VI,
    (-1, 1): CoexistenceType.VII,
    (-1, 0): CoexistenceType.VIII,
    (-1, -1): CoexistenceType.IX,
}


class CoexistenceSide(enum.Enum):
    """Which side of lambda0 the nontrivial branch occupies near s = 0."""

    ABOVE = "above_lambda0"
    BELOW = "below_lambda0"
    TWO_SIDED = "two_sided"
    DEGENERATE = "degenerate"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Moments:
    """Inner products entering the diagnostics.

    I3 = (u0^2, u0), I4 = (u0^3, u0), M_zu = (u0*z, u0) and
    P_zu = (z, u0) for a corrector z: z_hat on EigenData, z_s = g''(0)
    z_hat on BifurcationDiagnostics. P_zu vanishes by the orthogonality
    constraint and is kept as a consistency indicator.
    """

    I3: float
    I4: float
    M_zu: float
    P_zu: float

    @staticmethod
    def of(mesh: Mesh, u0: Array, z: Array) -> "Moments":
        return Moments(
            I3=inner_product(mesh, u0 * u0, u0),
            I4=inner_product(mesh, u0 * u0 * u0, u0),
            M_zu=inner_product(mesh, u0 * z, u0),
            P_zu=inner_product(mesh, z, u0),
        )

    def mu_ss(self, model: NonlinearityModel, mu_s: float) -> float:
        """Second derivative of mu(s) at s = 0, in the V_L-cancelled form."""
        g2 = derivative_at_zero(model, 2)
        g3 = derivative_at_zero(model, 3)
        # + 0.0 normalizes a possible -0.0 when every term vanishes
        return -g3 * self.I4 / 3.0 - 2.0 * g2 * self.M_zu - 2.0 * mu_s * self.P_zu + 0.0

    def to_dict(self) -> dict:
        return {"I3": self.I3, "I4": self.I4, "M_zu": self.M_zu, "P_zu": self.P_zu}


@dataclass(frozen=True)
class BifurcationDiagnostics:
    lambda0: float
    mu_s: float
    mu_ss: float
    moments: Moments
    ctype: CoexistenceType
    m_coexistence_side: CoexistenceSide
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "mu_s": self.mu_s,
            "mu_ss": self.mu_ss,
            "moments": self.moments.to_dict(),
            "type": str(self.ctype),
            "m_coexistence_side": str(self.m_coexistence_side),
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class Tolerances:
    """Solver and classification tolerances used by the pipeline."""

    eigen_tol: float = 1e-10
    linear_tol: float = 1e-10
    newton_tol: float = 1e-10
    zero_tol: float | None = None  # None: 1e-6 * max(1, |lambda0|)
    gap_tol: float | None = None  # None: 1e-6 * lambda0
    solvability_tol: float = 1e-8

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is None and f.default is None:
                continue  # resolved from lambda0
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
                raise ConfigError(f"tolerance {f.name} must be a finite number > 0, got {v!r}")

    def resolved_zero_tol(self, lambda0: float) -> float:
        return self.zero_tol if self.zero_tol is not None else 1e-6 * max(1.0, abs(lambda0))

    def resolved_gap_tol(self, lambda0: float) -> float:
        return self.gap_tol if self.gap_tol is not None else 1e-6 * abs(lambda0)


def compute_z_s(
    L: Laplacian,
    u0: Array,
    mesh: Mesh,
    lambda0: float,
    linear_tol: float = 1e-10,
    solvability_tol: float = 1e-8,
) -> BorderedSolution:
    """Unit corrector z_hat at s = 0: solves A z_hat = 1/2 (u0^2 - I3 u0)
    with (z_hat, u0) = 0, where A = L - lambda0 and I3 = (u0^2, u0).
    Every model's corrector is z_s = g''(0) z_hat.

    The right-hand side is kernel-orthogonal when u0 is the normalized
    kernel vector, so the returned multiplier must be ~0; a larger value
    signals an unconverged or unnormalized eigenpair and raises.
    """
    rhs = 0.5 * (u0 * u0 - inner_product(mesh, u0 * u0, u0) * u0)
    sol = bordered_solve(L, u0, rhs, mesh, lambda0, tol=linear_tol)
    if abs(sol.xi) > solvability_tol:
        raise SolvabilityError("solvability violated in the corrector solve", xi=sol.xi)
    return sol


def sign_with_tolerance(x: float, zero_tol: float) -> int:
    """-1, 0 or +1, with |x| <= zero_tol collapsing to 0; NaN has no sign."""
    if math.isnan(x):
        raise ValueError("cannot take the sign of NaN")
    if abs(x) <= zero_tol:
        return 0
    return 1 if x > 0 else -1


def classify(mu_s: float, mu_ss: float, zero_tol: float) -> CoexistenceType:
    """Map the sign pair (mu_s, mu_ss) to one of the nine types."""
    if zero_tol <= 0:
        raise ValueError("zero_tol must be positive")
    return _TYPE_TABLE[(sign_with_tolerance(mu_s, zero_tol), sign_with_tolerance(mu_ss, zero_tol))]


def _coexistence_side(s_s: int, s_ss: int) -> CoexistenceSide:
    if s_s != 0:
        return CoexistenceSide.TWO_SIDED
    if s_ss > 0:
        return CoexistenceSide.ABOVE
    if s_ss < 0:
        return CoexistenceSide.BELOW
    return CoexistenceSide.DEGENERATE


def _classification_warnings(mu_s: float, mu_ss: float, zero_tol: float, s_s: int, s_ss: int) -> list[str]:
    """Flag classifications that sit within a factor 2 of the zero band,
    naming both candidate types; s_s and s_ss are the signs of mu_s and
    mu_ss under zero_tol."""
    base = _TYPE_TABLE[(s_s, s_ss)]
    warnings = []
    for name, value, this_sign, is_second in (("mu_s", mu_s, s_s, False), ("mu_ss", mu_ss, s_ss, True)):
        if value != 0.0 and 0.5 * zero_tol <= abs(value) <= 2.0 * zero_tol:
            alt_sign = 0 if this_sign != 0 else (1 if value > 0 else -1)
            alt = _TYPE_TABLE[(s_s, alt_sign)] if is_second else _TYPE_TABLE[(alt_sign, s_ss)]
            warnings.append(
                f"{name} = {value:.3e} lies within a factor 2 of zero_tol = {zero_tol:.3e}; "
                f"candidate types {base} and {alt}"
            )
    return warnings


@dataclass(frozen=True, eq=False)
class EigenData:
    """The per-mesh stage: the matrix-free stencil L, the principal pair
    (lambda0, u0), the bifurcation-point checks, which carry lambda1, and
    the unit corrector z_hat with Moments.of(mesh, u0, z_hat), whose M_zu
    and P_zu are M_hat and P_hat."""

    mesh: Mesh
    operator: Laplacian
    eigenpair: Eigenpair
    cr_report: CRReport
    z_hat: Array
    moments_hat: Moments


@dataclass(frozen=True, eq=False)
class AnalysisResult(EigenData):
    """Everything the pipeline computes for one (mesh, model) pair."""

    model: NonlinearityModel
    diagnostics: BifurcationDiagnostics

    @property
    def m_at_bifurcation(self) -> float:
        """Mass parameter at the bifurcation point: m = lambda0 - V_L."""
        return self.cr_report.lambda0 - self.model.V_L


def bifurcation_point(mesh: Mesh, tolerances: Tolerances) -> tuple[Laplacian, Eigenpair, CRReport]:
    """Build the stencil L, take the closed-form principal and second
    eigenpairs certified against it, and check the bifurcation point.
    The second pair is certified at max(eigen_tol, 1e-10), so an eigen_tol
    below 1e-10 tightens only the principal pair."""
    tolerances.validate()
    L = Laplacian.of(mesh)
    pair = principal_eigenpair(L, mesh, tol=tolerances.eigen_tol)
    cr = verify_crandall_rabinowitz(
        pair.eigenvalue,
        second_eigenpair(L, mesh, tol=max(tolerances.eigen_tol, 1e-10)).eigenvalue,
        pair.vector,
        mesh,
        gap_tol=tolerances.resolved_gap_tol(pair.eigenvalue),
    )
    return L, pair, cr


def eigendata(mesh: Mesh, tolerances: Tolerances | None = None) -> EigenData:
    """`bifurcation_point`, then the unit corrector z_hat (the one
    corrector solve per mesh) and its moments."""
    tol = tolerances or Tolerances()
    L, pair, cr = bifurcation_point(mesh, tol)
    z_hat = compute_z_s(L, pair.vector, mesh, pair.eigenvalue, tol.linear_tol, tol.solvability_tol).z
    return EigenData(
        mesh=mesh,
        operator=L,
        eigenpair=pair,
        cr_report=cr,
        z_hat=z_hat,
        moments_hat=Moments.of(mesh, pair.vector, z_hat),
    )


def diagnose(eig: EigenData, model: NonlinearityModel, tolerances: Tolerances) -> BifurcationDiagnostics:
    """mu_s, the moments of z_s = g''(0) z_hat and mu_ss, then the type,
    for one model on eigendata shared across models: scalar arithmetic on
    g''(0), g'''(0) and eig.moments_hat, with no solve and no vector."""
    lambda0 = eig.eigenpair.eigenvalue
    g2 = derivative_at_zero(model, 2)
    unit = eig.moments_hat
    # + 0.0 keeps a vanishing g''(0) at +0.0, whatever the moment's sign
    mu_s = -0.5 * g2 * unit.I3 + 0.0
    moments = dataclasses.replace(unit, M_zu=g2 * unit.M_zu + 0.0, P_zu=g2 * unit.P_zu + 0.0)
    mu_ss = moments.mu_ss(model, mu_s)

    zero_tol = tolerances.resolved_zero_tol(lambda0)
    s_s = sign_with_tolerance(mu_s, zero_tol)
    s_ss = sign_with_tolerance(mu_ss, zero_tol)
    warnings = _classification_warnings(mu_s, mu_ss, zero_tol, s_s, s_ss)
    if s_s != 0:
        warnings.append(
            "two solutions co-exist on one side of lambda0 near the bifurcation point; "
            "the branch geometry for this type is inferred from the sign pair"
        )

    return BifurcationDiagnostics(
        lambda0=lambda0,
        mu_s=mu_s,
        mu_ss=mu_ss,
        moments=moments,
        ctype=_TYPE_TABLE[(s_s, s_ss)],
        m_coexistence_side=_coexistence_side(s_s, s_ss),
        warnings=tuple(warnings),
    )


def run_analysis(
    mesh: Mesh,
    model: NonlinearityModel,
    tolerances: Tolerances | None = None,
) -> AnalysisResult:
    """Full pipeline: eigendata, then diagnose."""
    tol = tolerances or Tolerances()
    eig = eigendata(mesh, tol)
    return AnalysisResult(**vars(eig), model=model, diagnostics=diagnose(eig, model, tol))


@dataclass(frozen=True)
class TableRow:
    """One interaction-family row: projections of the second and third
    s-derivatives of g(u) onto u0, the two branch derivatives, and the
    resulting type."""

    k: int
    eta: float
    proj2: float
    proj3: float
    mu_s: float
    mu_ss: float
    ctype: CoexistenceType


def psi_k_table(
    mesh: Mesh,
    k_list: list[int],
    eta_list: list[float],
    tolerances: Tolerances | None = None,
) -> list[TableRow]:
    """Diagnostics across the power-interaction family g = -eta*u^(k-1),
    one row per (eta, k), etas outermost.

    The eigen stage and the unit corrector run once and are shared by
    every row; k must be an integer in 3..8 (k = 2 is the linear
    interaction, handled by the linear kind).
    """
    for k in k_list:
        if not 3 <= k <= 8:
            raise ValueError(f"k_list entries must lie in 3..8, got {k}")
    # built before the eigen stage, so a non-integer k fails first
    models = [NonlinearityModel.psi_k(k, eta) for eta in eta_list for k in k_list]
    tol = tolerances or Tolerances()
    eig = eigendata(mesh, tol)

    rows = []
    for model in models:
        d = diagnose(eig, model, tol)
        g2 = derivative_at_zero(model, 2)
        # V_L = 0 for every k >= 3, so the derivative projections close
        # without a second corrector.
        proj3 = derivative_at_zero(model, 3) * d.moments.I4 + 6.0 * g2 * d.moments.M_zu
        rows.append(
            TableRow(
                k=model.k,
                eta=model.eta,
                proj2=g2 * d.moments.I3,
                proj3=proj3,
                mu_s=d.mu_s,
                mu_ss=d.mu_ss,
                ctype=d.ctype,
            )
        )
    return rows
