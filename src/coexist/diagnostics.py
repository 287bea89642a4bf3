"""Branch diagnostics at the bifurcation point and the nine-type
classification of co-existence.

With the branch written as u = s*u0 + s*z, (z, u0) = 0, and
mu(s) = lambda(s) - lambda0, the two numbers that decide the local
geometry are

    mu_s(0)  = -1/2 * g''(0) * (u0^2, u0)
    mu_ss(0) = -1/3 * g'''(0) * (u0^3, u0) - 2*g''(0) * (u0*z_s, u0)
               - 2*mu_s(0) * (z_s, u0)

where z_s solves the corrector equation A z_s = mu_s(0)*u0
+ 1/2*g''(0)*u0^2 on the complement of u0 (A = L - lambda0). The V_L
contributions cancel identically for constant V_L, so they never appear
in these closed forms; the raw forms including them are exercised in the
test suite as an independent cross-check.

The sign pair (sign mu_s, sign mu_ss) indexes the nine co-existence
types: rows in the order (0, +, -), columns in the order (+, 0, -).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import ConfigError, SolvabilityError
from .mesh import Mesh, inner_product
from .nonlinearity import NonlinearityModel, derivative_at_zero
from .operators import BorderedSolution, SparseOperator, assemble_laplacian, bordered_solve
from .spectrum import CRReport, Eigenpair, principal_eigenpair, second_eigenvalue, verify_crandall_rabinowitz

__all__ = [
    "CoexistenceType",
    "CoexistenceSide",
    "Moments",
    "BifurcationDiagnostics",
    "Tolerances",
    "AnalysisResult",
    "compute_mu_s",
    "compute_z_s",
    "compute_mu_ss",
    "psi3_sigma_form",
    "classify",
    "sign_with_tolerance",
    "run_analysis",
    "run_diagnostics",
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

    I3 = (u0^2, u0), I4 = (u0^3, u0), M_zu = (u0*z_s, u0),
    P_zu = (z_s, u0) -- the last vanishes by the orthogonality
    constraint and is kept as a consistency indicator.
    """

    I3: float
    I4: float
    M_zu: float
    P_zu: float

    def to_dict(self) -> dict:
        return {"I3": self.I3, "I4": self.I4, "M_zu": self.M_zu, "P_zu": self.P_zu}


@dataclass(frozen=True, eq=False)
class BifurcationDiagnostics:
    lambda0: float
    mu_s: float
    mu_ss: float
    z_s: Array
    moments: Moments
    ctype: CoexistenceType
    m_coexistence_side: CoexistenceSide
    sigma: float | None = None  # psi^3 cross-check form, when applicable
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "mu_s": self.mu_s,
            "mu_ss": self.mu_ss,
            "moments": self.moments.to_dict(),
            "type": str(self.ctype),
            "m_coexistence_side": str(self.m_coexistence_side),
            "sigma": self.sigma,
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
        for name in ("eigen_tol", "linear_tol", "newton_tol", "solvability_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"tolerance {name} must be > 0")
        for name in ("zero_tol", "gap_tol"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigError(f"tolerance {name} must be > 0")

    def resolved_zero_tol(self, lambda0: float) -> float:
        return self.zero_tol if self.zero_tol is not None else 1e-6 * max(1.0, abs(lambda0))

    def resolved_gap_tol(self, lambda0: float) -> float:
        return self.gap_tol if self.gap_tol is not None else 1e-6 * abs(lambda0)


def compute_mu_s(u0: Array, model: NonlinearityModel, mesh: Mesh) -> float:
    """First derivative of mu(s) at s = 0; no linear solve needed."""
    g2 = derivative_at_zero(model, 2)
    if g2 == 0.0:
        return 0.0
    return -0.5 * g2 * inner_product(mesh, u0 * u0, u0)


def compute_z_s(
    A: SparseOperator,
    u0: Array,
    model: NonlinearityModel,
    mesh: Mesh,
    mu_s: float,
    lambda0: float,
    linear_tol: float = 1e-10,
    solvability_tol: float = 1e-8,
    kernel_shift: float = 1.0,
) -> BorderedSolution:
    """Corrector z_s at s = 0: solves A z_s = mu_s*u0 + 1/2 g''(0) u0^2
    with (z_s, u0) = 0, where A = L - lambda0.

    The right-hand side is kernel-orthogonal by the choice of mu_s, so
    the returned multiplier must be ~0; a larger value signals an
    inconsistent mu_s or an unconverged eigenpair and raises.
    """
    g2 = derivative_at_zero(model, 2)
    rhs = mu_s * u0 + 0.5 * g2 * u0 * u0
    if not np.any(rhs):
        return BorderedSolution(z=np.zeros_like(u0), xi=0.0, residual_norm=0.0)
    sol = bordered_solve(A, u0, rhs, mesh, lambda0, tol=linear_tol, kernel_shift=kernel_shift)
    if abs(sol.xi) > solvability_tol:
        raise SolvabilityError("solvability violated in the corrector solve", xi=sol.xi)
    return sol


def compute_mu_ss(
    u0: Array,
    z_s: Array,
    model: NonlinearityModel,
    mesh: Mesh,
    mu_s: float,
) -> float:
    """Second derivative of mu(s) at s = 0, in the V_L-cancelled form."""
    g2 = derivative_at_zero(model, 2)
    g3 = derivative_at_zero(model, 3)
    i4 = inner_product(mesh, u0 * u0 * u0, u0)
    m_zu = inner_product(mesh, u0 * z_s, u0)
    p_zu = inner_product(mesh, z_s, u0)
    # + 0.0 normalizes a possible -0.0 when every term vanishes
    return -g3 * i4 / 3.0 - 2.0 * g2 * m_zu - 2.0 * mu_s * p_zu + 0.0


def psi3_sigma_form(u0: Array, z_s: Array, eta: float, mesh: Mesh) -> float:
    """mu_ss in the cubic-interaction cross-check form
    4*eta*(u0*z_s, u0) - 2*eta*(u0^2, u0)*(z_s, u0).

    The second term vanishes under the orthogonality constraint; it is
    evaluated anyway so tests can assert that it does.
    """
    return 4.0 * eta * inner_product(mesh, u0 * z_s, u0) - 2.0 * eta * inner_product(
        mesh, u0 * u0, u0
    ) * inner_product(mesh, z_s, u0)


def sign_with_tolerance(x: float, zero_tol: float) -> int:
    """-1, 0 or +1, with |x| <= zero_tol collapsing to 0."""
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


def _classification_warnings(mu_s: float, mu_ss: float, zero_tol: float) -> list[str]:
    """Flag classifications that sit within a factor 2 of the zero band,
    naming both candidate types."""
    s_s = sign_with_tolerance(mu_s, zero_tol)
    s_ss = sign_with_tolerance(mu_ss, zero_tol)
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
class AnalysisResult:
    """Everything the pipeline computes for one (mesh, model) pair."""

    mesh: Mesh
    model: NonlinearityModel
    operator: SparseOperator
    eigenpair: Eigenpair
    lambda1: float
    cr_report: CRReport
    diagnostics: BifurcationDiagnostics

    @property
    def m_at_bifurcation(self) -> float:
        """Mass parameter at the bifurcation point: m = lambda0 - V_L."""
        return self.cr_report.lambda0 - self.model.V_L


def run_analysis(
    mesh: Mesh,
    model: NonlinearityModel,
    tolerances: Tolerances | None = None,
) -> AnalysisResult:
    """Full pipeline: eigenpairs -> bifurcation-point checks -> mu_s ->
    corrector -> mu_ss -> classification."""
    tol = tolerances or Tolerances()
    tol.validate()
    L = assemble_laplacian(mesh)
    pair = principal_eigenpair(L, mesh, tol=tol.eigen_tol)
    lam1 = second_eigenvalue(L, pair.vector, mesh, tol=max(tol.eigen_tol, 1e-10))
    cr = verify_crandall_rabinowitz(
        pair.eigenvalue,
        lam1,
        pair.vector,
        mesh,
        gap_tol=tol.resolved_gap_tol(pair.eigenvalue),
    )

    u0 = pair.vector
    mu_s = compute_mu_s(u0, model, mesh)
    A = L.shifted(pair.eigenvalue)
    corrector = compute_z_s(
        A,
        u0,
        model,
        mesh,
        mu_s,
        pair.eigenvalue,
        linear_tol=tol.linear_tol,
        solvability_tol=tol.solvability_tol,
        kernel_shift=max(1.0, cr.gap),
    )
    z_s = corrector.z
    mu_ss = compute_mu_ss(u0, z_s, model, mesh, mu_s)

    zero_tol = tol.resolved_zero_tol(pair.eigenvalue)
    ctype = classify(mu_s, mu_ss, zero_tol)
    s_s = sign_with_tolerance(mu_s, zero_tol)
    s_ss = sign_with_tolerance(mu_ss, zero_tol)
    side = _coexistence_side(s_s, s_ss)

    warnings = _classification_warnings(mu_s, mu_ss, zero_tol)
    if s_s != 0:
        warnings.append(
            "two solutions co-exist on one side of lambda0 near the bifurcation point; "
            "the branch geometry for this type is inferred from the sign pair"
        )

    sigma_form = None
    if model.kind == "psi_k" and model.k == 3:
        sigma_form = psi3_sigma_form(u0, z_s, model.eta, mesh)

    diag = BifurcationDiagnostics(
        lambda0=pair.eigenvalue,
        mu_s=mu_s,
        mu_ss=mu_ss,
        z_s=z_s,
        moments=Moments(
            I3=inner_product(mesh, u0 * u0, u0),
            I4=inner_product(mesh, u0 * u0 * u0, u0),
            M_zu=inner_product(mesh, u0 * z_s, u0),
            P_zu=inner_product(mesh, z_s, u0),
        ),
        ctype=ctype,
        m_coexistence_side=side,
        sigma=sigma_form,
        warnings=tuple(warnings),
    )
    return AnalysisResult(
        mesh=mesh,
        model=model,
        operator=L,
        eigenpair=pair,
        lambda1=lam1,
        cr_report=cr,
        diagnostics=diag,
    )


def run_diagnostics(
    mesh: Mesh,
    model: NonlinearityModel,
    tolerances: Tolerances | None = None,
) -> BifurcationDiagnostics:
    return run_analysis(mesh, model, tolerances).diagnostics


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
    eta: float,
    tolerances: Tolerances | None = None,
) -> list[TableRow]:
    """Diagnostics across the power-interaction family g = -eta*u^(k-1).

    Eigen-data is computed once and shared across rows; k must lie in
    3..8 (k = 2 is the linear interaction, handled by the linear kind).
    """
    for k in k_list:
        if not 3 <= int(k) <= 8:
            raise ValueError(f"k_list entries must lie in 3..8, got {k}")
    tol = tolerances or Tolerances()
    tol.validate()
    L = assemble_laplacian(mesh)
    pair = principal_eigenpair(L, mesh, tol=tol.eigen_tol)
    u0 = pair.vector
    A = L.shifted(pair.eigenvalue)
    zero_tol = tol.resolved_zero_tol(pair.eigenvalue)

    rows = []
    for k in k_list:
        model = NonlinearityModel.psi_k(int(k), eta)
        g2 = derivative_at_zero(model, 2)
        g3 = derivative_at_zero(model, 3)
        mu_s = compute_mu_s(u0, model, mesh)
        z_s = compute_z_s(
            A, u0, model, mesh, mu_s, pair.eigenvalue,
            linear_tol=tol.linear_tol, solvability_tol=tol.solvability_tol,
        ).z
        mu_ss = compute_mu_ss(u0, z_s, model, mesh, mu_s)
        # V_L = 0 for every k >= 3, so the derivative projections close
        # without a second corrector.
        proj2 = g2 * inner_product(mesh, u0 * u0, u0)
        proj3 = g3 * inner_product(mesh, u0 * u0 * u0, u0) + 6.0 * g2 * inner_product(
            mesh, u0 * z_s, u0
        )
        rows.append(
            TableRow(
                k=int(k),
                eta=eta,
                proj2=proj2,
                proj3=proj3,
                mu_s=mu_s,
                mu_ss=mu_ss,
                ctype=classify(mu_s, mu_ss, zero_tol),
            )
        )
    return rows
