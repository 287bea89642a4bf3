"""Branch diagnostics at the bifurcation point and the nine-type
classification of co-existence.

With the branch written as u = s*u0 + s*z, (z, u0) = 0, and
mu(s) = lambda(s) - lambda0, the two numbers that decide the local
geometry are

    mu_s(0)  = -1/2 * g''(0) * I3
    mu_ss(0) = -1/3 * g'''(0) * I4 - 2*g''(0)^2 * M_hat

with I3 = (u0^2, u0), I4 = (u0^3, u0) and M_hat = (u0*z_hat, u0). The
unit corrector z_hat solves A z_hat = 1/2*(u0^2 - I3*u0) on the
complement of u0 (A = L - lambda0); that right-hand side is orthogonal
to u0 by the choice of I3, so the one `bordered_solve` forms no
multiplier to check. The corrector equation
A z_s = mu_s(0)*u0 + 1/2*g''(0)*u0^2 is linear in g''(0), so every
model's corrector is z_s = g''(0)*z_hat and (u0*z_s, u0) = g''(0)*M_hat;
z_s itself is never formed. (z_hat, u0) = 0 is the constraint the solve
imposes, so no term of mu_ss carries it. The V_L contributions cancel
identically for constant V_L, so they never appear in these closed
forms; the raw forms including them are exercised in the test suite as
an independent cross-check.

Every command runs the same two steps: `eigendata` once per domain, then
`diagnose` (mu_s, mu_ss, the type) once per model, as scalar arithmetic
on g''(0), g'''(0) and the three per-mesh numbers. `eigendata` takes L,
lambda0, lambda1 and the bifurcation-point checks from
`bifurcation_point`, then the moments in closed form, with no node
vector and no transform: u0 is a product of per-axis sine vectors, so I3
and I4 are products of per-axis sine sums, and u0^2's sine coefficients
are the outer product of per-axis closed forms. A is diagonal in those
coefficients, where z_hat is solved and M_hat is one dot product. u0's
node vector and z_hat's, one inverse transform each, are formed when
first read; no command reads them, as the trace holds the branch by its
sine coefficients.

The sign pair (sign mu_s, sign mu_ss) indexes the nine co-existence
types: rows in the order (0, +, -), columns in the order (+, 0, -). On a
box I3, I4 and M_hat are positive (u0 > 0, and A is positive on the
complement of u0), so the pair follows from the signs of g''(0) and
g'''(0): sign mu_s = -sign g''(0), and sign mu_ss = -sign g'''(0) when
g''(0) = 0 and -1 when g'''(0) >= 0. Only when g''(0) != 0 and
g'''(0) < 0 do the two terms of mu_ss compete; there |mu_ss| within
_SIGN_MARGIN eps of the terms' magnitudes is rounding and reads as zero,
and a warning names both candidate types.

`Tolerances` is the one tolerance policy: the trace's "consistent"
bounds resolve there, and no other function gives a tolerance a default.
The transversality value -(u0, u0) is -1 for the normalized u0, an
identity that is reported and not tested; the gap is the certificate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import numpy.typing as npt

from .errors import ConfigError
from .mesh import DomainSpec
from .nonlinearity import NonlinearityModel, derivative_at_zero
from .operators import Laplacian, bordered_solve
from .spectrum import CRReport, Eigenpair, principal_eigenpair, verify_crandall_rabinowitz

__all__ = [
    "CoexistenceType",
    "CoexistenceSide",
    "BifurcationDiagnostics",
    "Tolerances",
    "EigenData",
    "AnalysisResult",
    "sign_with_tolerance",
    "bifurcation_point",
    "eigendata",
    "diagnose",
    "run_analysis",
    "psi_k_table",
    "TableRow",
]

Array = npt.NDArray[np.float64]

# |mu_ss| at most this many eps times the magnitudes of its two competing
# terms is their rounding, and reads as zero
_SIGN_MARGIN = 4.0


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
class BifurcationDiagnostics:
    mu_s: float
    mu_ss: float
    ctype: CoexistenceType
    m_coexistence_side: CoexistenceSide
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "mu_s": self.mu_s,
            "mu_ss": self.mu_ss,
            "type": str(self.ctype),
            "m_coexistence_side": str(self.m_coexistence_side),
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class Tolerances:
    """Every threshold the pipeline judges by: the trace's fit bounds
    (methods, not fields). The eigenpair, the sign pair, the kernel gap and
    Newton's stop take none: they follow from the box's structure and are
    judged only against rounding. Solver-internal targets, such as CG's
    stall window or the corrector's CG target, stay next to their
    solvers."""

    def resolved_a_tol(self, mu_s: float) -> float:
        """Bound on |a - mu_s|, the traced fit's slope against mu_s(0)."""
        return max(1e-3, 0.01 * abs(mu_s))

    def resolved_twob_tol(self, mu_ss: float) -> float:
        """Bound on |2b - mu_ss|, the traced fit's curvature against mu_ss(0)."""
        return max(5e-3, 0.02 * abs(mu_ss))


def sign_with_tolerance(x: float, zero_tol: float) -> int:
    """-1, 0 or +1, with |x| <= zero_tol collapsing to 0; NaN has no sign."""
    if math.isnan(x):
        raise ValueError("cannot take the sign of NaN")
    if abs(x) <= zero_tol:
        return 0
    return 1 if x > 0 else -1


def _coexistence_side(s_s: int, s_ss: int) -> CoexistenceSide:
    if s_s != 0:
        return CoexistenceSide.TWO_SIDED
    if s_ss > 0:
        return CoexistenceSide.ABOVE
    if s_ss < 0:
        return CoexistenceSide.BELOW
    return CoexistenceSide.DEGENERATE


@dataclass(frozen=True, eq=False)
class EigenData:
    """The per-mesh stage: the Laplacian L, which carries the
    grid, the principal pair (lambda0, u0), the bifurcation-point checks,
    which carry lambda1, the unit corrector z_hat by its sine coefficients,
    and the three moments I3 = (u0^2, u0), I4 = (u0^3, u0) and
    M_hat = (u0*z_hat, u0) that mu_s and mu_ss are computed from. u0 and
    z_hat are in L's half-grid coordinates; `operator.unfold` gives their
    full-grid vectors."""

    operator: Laplacian
    eigenpair: Eigenpair
    cr_report: CRReport
    z_hat_coefficients: Array
    I3: float
    I4: float
    M_hat: float

    @cached_property
    def z_hat(self) -> Array:
        """z_hat's node vector: one inverse transform, taken when first read."""
        return self.operator.inverse_transform(self.z_hat_coefficients)


@dataclass(frozen=True, eq=False)
class AnalysisResult(EigenData):
    """Everything the pipeline computes for one (domain, model) pair."""

    model: NonlinearityModel
    diagnostics: BifurcationDiagnostics

    @property
    def m_at_bifurcation(self) -> float:
        """Mass parameter at the bifurcation point: m = lambda0 - V_L."""
        return self.cr_report.lambda0 - self.model.V_L


def bifurcation_point(spec: DomainSpec) -> tuple[Laplacian, Eigenpair, CRReport]:
    """Build the stencil L of spec's grid, take its closed-form principal
    eigenpair, read lambda1 as the smallest full-grid eigenvalue with mode
    2 on one axis, and check the bifurcation point."""
    L = Laplacian.of(spec)
    pair = principal_eigenpair(L)
    d = len(L.shape)
    lambda1 = min(L.mode_eigenvalue(tuple(2 if b == a else 1 for b in range(d))) for a in range(d))
    return L, pair, verify_crandall_rabinowitz(pair.eigenvalue, lambda1)


def _square_coefficients(n: int, length: float) -> Array:
    """The odd sine coefficients (`Laplacian.transform`'s order along one
    n-node axis of the given length) of v^2, v = sqrt(2/length)
    sin(pi i/(n+1)) being u0's normalized factor on that axis: with
    a_j = pi j/(2(n+1)) over odd j and D = pi/(n+1), the coefficient is
    -(2/length) sqrt(1/(2(n+1))) sin^2 D cos a_j / (sin a_j (sin^2 a_j - sin^2 D)),
    the DST-I of (1 - cos 2 D i)/length summed as cotangents over one
    denominator, so nothing cancels."""
    a = np.pi * np.arange(1, n + 1, 2) / (2 * (n + 1))
    sin_a, sin2_d = np.sin(a), math.sin(np.pi / (n + 1)) ** 2
    return (-2.0 / length * math.sqrt(0.5 / (n + 1)) * sin2_d) * np.cos(a) / (sin_a * (sin_a * sin_a - sin2_d))


def eigendata(spec: DomainSpec) -> EigenData:
    """`bifurcation_point`, then the moments and the unit corrector z_hat
    (the one corrector solve per domain) in L's sine coefficients, with no
    node vector: per axis of length len and n nodes, theta = pi/(n+1),
    I3 = prod h (2/len)^(3/2) (3 cot(theta/2) - cot(3 theta/2))/4 and
    I4 = prod 3/(2 len) are u0's sine sums, u0^2 has the coefficients
    s = outer_a `_square_coefficients`, z_hat is half the solution of
    A z = s off the principal coefficient (I3 u0's only one), and
    M_hat = w s.z_hat, w = L.weight. Raises ConfigError before the solve
    when lambda1 and lambda0 round together, where `verify` exits 2."""
    L, pair, cr = bifurcation_point(spec)
    if not cr.kernel_dim_ok:
        raise ConfigError(
            f"lambda1 - lambda0 = {cr.gap:.3e} is rounding at lambda0 = {cr.lambda0:.6g}: the kernel is not certified"
        )
    I3 = I4 = 1.0
    squares = []
    for n, (lo, hi), h in zip(L.shape, spec.bounds, L.h):
        theta = np.pi / (n + 1)
        I3 *= h * (2.0 / (hi - lo)) ** 1.5 * (3.0 / math.tan(theta / 2) - 1.0 / math.tan(1.5 * theta)) / 4.0
        I4 *= 3.0 / (2.0 * (hi - lo))
        squares.append(_square_coefficients(n, hi - lo))
    sq = reduce(np.multiply.outer, squares).ravel()
    z_hat = bordered_solve(L, sq, pair.eigenvalue)
    z_hat *= 0.5
    M_hat = L.weight * float(sq @ z_hat)
    return EigenData(operator=L, eigenpair=pair, cr_report=cr, z_hat_coefficients=z_hat, I3=I3, I4=I4, M_hat=M_hat)


def diagnose(eig: EigenData, model: NonlinearityModel) -> BifurcationDiagnostics:
    """mu_s and mu_ss, then the type, for one model on eigendata shared
    across models: scalar arithmetic on g''(0), g'''(0) and eig's I3, I4
    and M_hat, with no solve and no vector. Raises ConfigError when mu_s
    or mu_ss is not finite: the model's coefficients are too large for the
    arithmetic."""
    g2, g3 = derivative_at_zero(model, 2), derivative_at_zero(model, 3)
    # + 0.0 keeps a vanishing g''(0) at +0.0, whatever the moment's sign;
    # g2 * M_hat is (u0*z_s, u0) for the corrector z_s = g''(0) z_hat
    mu_s = -0.5 * g2 * eig.I3 + 0.0
    mu_ss = -g3 * eig.I4 / 3.0 - 2.0 * g2 * (g2 * eig.M_hat + 0.0) + 0.0
    for name, value in (("mu_s", mu_s), ("mu_ss", mu_ss)):
        if not math.isfinite(value):
            raise ConfigError(
                f"{name} = {value} is not finite: the coefficients of {model.describe()} overflow it"
            )

    # I3, I4, M_hat > 0: the signs follow from g2 and g3, unless g2 != 0
    # and g3 < 0, where -g3 I4/3 > 0 competes with -2 g2^2 M_hat < 0
    s_s = -sign_with_tolerance(g2, 0.0)
    s_ss = -sign_with_tolerance(g3, 0.0) if g2 == 0.0 else -1
    warnings = []
    if g2 != 0.0 and g3 < 0.0:
        bound = _SIGN_MARGIN * np.finfo(float).eps * (-g3 * eig.I4 / 3.0 + 2.0 * g2 * g2 * eig.M_hat)
        s_ss = sign_with_tolerance(mu_ss, bound)
        warnings.append(
            f"mu_ss = {mu_ss:.3e} is the difference of two competing terms, zero within their rounding "
            f"bound {bound:.3e}: candidate types {_TYPE_TABLE[(s_s, 0)]} and "
            f"{_TYPE_TABLE[(s_s, 1 if mu_ss > 0 else -1)]}"
        )
    if s_s != 0:
        warnings.append(
            "two solutions co-exist on one side of lambda0 near the bifurcation point; "
            "the branch geometry for this type is inferred from the sign pair"
        )

    return BifurcationDiagnostics(
        mu_s=mu_s,
        mu_ss=mu_ss,
        ctype=_TYPE_TABLE[(s_s, s_ss)],
        m_coexistence_side=_coexistence_side(s_s, s_ss),
        warnings=tuple(warnings),
    )


def run_analysis(spec: DomainSpec, model: NonlinearityModel) -> AnalysisResult:
    """Full pipeline: eigendata, then diagnose."""
    eig = eigendata(spec)
    return AnalysisResult(**vars(eig), model=model, diagnostics=diagnose(eig, model))


@dataclass(frozen=True)
class TableRow:
    """One interaction-family row: the two branch derivatives and the
    resulting type."""

    k: int
    eta: float
    mu_s: float
    mu_ss: float
    ctype: CoexistenceType


def psi_k_table(spec: DomainSpec, k_list: list[int], eta_list: list[float]) -> list[TableRow]:
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
    eig = eigendata(spec)

    rows = []
    for model in models:
        d = diagnose(eig, model)
        rows.append(TableRow(k=model.k, eta=model.eta, mu_s=d.mu_s, mu_ss=d.mu_ss, ctype=d.ctype))
    return rows
