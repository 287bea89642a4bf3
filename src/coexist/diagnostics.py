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
mu_s, mu_ss and the type once per model, as scalar arithmetic on g''(0),
g'''(0) and the three per-mesh numbers (`diagnose` adds the warnings; the
table scales psi_k(k, 1)'s g''(0) and g'''(0) by eta). `eigendata` takes L,
lambda0 and lambda1 from `bifurcation_point`, then the moments in
closed form, with no node vector and no transform: u0 is a product of per-axis sine vectors, so I3
and I4 are products of per-axis sine sums, and u0^2's sine coefficients
are the outer product of per-axis closed forms. A is diagonal in those
coefficients, where z_hat is solved and M_hat is one dot product.

The sign pair (sign mu_s, sign mu_ss) indexes the nine co-existence
types: rows in the order (0, +, -), columns in the order (+, 0, -). On a
box I3, I4 and M_hat are positive (u0 > 0, and A is positive on the
complement of u0), so the pair follows from the signs of g''(0) and
g'''(0): sign mu_s = -sign g''(0), and sign mu_ss = -sign g'''(0) when
g''(0) = 0 and -1 when g'''(0) >= 0. Only when g''(0) != 0 and
g'''(0) < 0 do the two terms of mu_ss compete; there |mu_ss| within
_SIGN_MARGIN eps of the terms' magnitudes is rounding and reads as zero,
and a warning names both candidate types.

The bifurcation point (lambda0, 0) is simple when the kernel is
one-dimensional (Crandall and Rabinowitz 1971), which holds on every box:
lambda0 = lambda_(1,...,1) lies below every other per-axis sum. The
report's certificate kernel_dim_ok says the floating-point gap
lambda1 - lambda0 shows it, and every command refuses a domain where it
does not. The transversality value -(u0, u0) is -1 for the normalized
u0, an identity that is reported and not tested.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np
import numpy.typing as npt

from .errors import ConfigError, as_number
from .mesh import DomainSpec
from .nonlinearity import NonlinearityModel, derivative_at_zero
from .operators import Laplacian, bordered_solve

__all__ = [
    "CoexistenceType",
    "CoexistenceSide",
    "BifurcationDiagnostics",
    "EigenData",
    "AnalysisResult",
    "sign_with_tolerance",
    "bifurcation_point",
    "cr_report",
    "eigendata",
    "diagnose",
    "run_analysis",
    "psi_k_table",
    "TableRow",
]

Array = npt.NDArray[np.float64]

_EPS = np.finfo(float).eps
# |mu_ss| at most this many eps times the magnitudes of its two competing
# terms is their rounding, and reads as zero
_SIGN_MARGIN = 4.0
# a gap over this many eps * lambda0 tells lambda1 from lambda0 in floating
# point; only rounding merges them, as lambda0 < lambda1 on every box
_GAP_MARGIN = 16.0


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
    """The per-mesh stage: the Laplacian L, which carries the grid, the
    principal eigenvalue lambda0 and the next one, lambda1, the unit
    corrector z_hat by its sine coefficients, and the three moments
    I3 = (u0^2, u0), I4 = (u0^3, u0) and M_hat = (u0*z_hat, u0) that mu_s
    and mu_ss are computed from. u0's node vector is
    operator.principal_nodes / sqrt(operator.weight), and z_hat's is
    operator.inverse_transform(z_hat_coefficients)."""

    operator: Laplacian
    lambda0: float
    lambda1: float
    z_hat_coefficients: Array
    I3: float
    I4: float
    M_hat: float


@dataclass(frozen=True, eq=False)
class AnalysisResult(EigenData):
    """Everything the pipeline computes for one (domain, model) pair."""

    model: NonlinearityModel
    diagnostics: BifurcationDiagnostics

    @property
    def m_at_bifurcation(self) -> float:
        """Mass parameter at the bifurcation point: m = lambda0 - V_L."""
        return self.lambda0 - self.model.V_L


def cr_report(lambda0: float, lambda1: float) -> dict:
    """The report's bifurcation-point block: lambda0, lambda1, the gap, the
    certificate kernel_dim_ok (gap > _GAP_MARGIN eps lambda0, false only where
    the two round to one number) and the transversality value, the identity -1."""
    gap = lambda1 - lambda0
    return {
        "lambda0": lambda0,
        "lambda1": lambda1,
        "gap": gap,
        "kernel_dim_ok": bool(gap > _GAP_MARGIN * _EPS * lambda0),
        "transversality_value": -1.0,
    }


def bifurcation_point(spec: DomainSpec) -> tuple[Laplacian, float, float]:
    """The stencil L of spec's grid, lambda0, the sum of the axes'
    principal eigenvalues, and lambda1, the smallest full-grid eigenvalue
    with mode 2 on one axis: per-axis sums, with no eigenvalue grid."""
    L = Laplacian(spec)
    d = len(L.shape)
    lambda1 = min(L.mode_eigenvalue(tuple(2 if b == a else 1 for b in range(d))) for a in range(d))
    return L, L.mode_eigenvalue((1,) * d), lambda1


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
    when lambda1 and lambda0 round together."""
    L, lambda0, lambda1 = bifurcation_point(spec)
    cr = cr_report(lambda0, lambda1)
    if not cr["kernel_dim_ok"]:
        raise ConfigError(
            f"lambda1 - lambda0 = {cr['gap']:.3e} is rounding at lambda0 = {lambda0:.6g}: the kernel is not certified"
        )
    I3 = I4 = 1.0
    squares = []
    for n, (lo, hi), h in zip(L.shape, spec.bounds, L.h):
        theta = np.pi / (n + 1)
        I3 *= h * (2.0 / (hi - lo)) ** 1.5 * (3.0 / math.tan(theta / 2) - 1.0 / math.tan(1.5 * theta)) / 4.0
        I4 *= 3.0 / (2.0 * (hi - lo))
        squares.append(_square_coefficients(n, hi - lo))
    sq = reduce(np.multiply.outer, squares).ravel()
    z_hat = bordered_solve(L, sq, lambda0)
    z_hat *= 0.5
    M_hat = L.weight * float(sq @ z_hat)
    return EigenData(operator=L, lambda0=lambda0, lambda1=lambda1, z_hat_coefficients=z_hat, I3=I3, I4=I4, M_hat=M_hat)


def _mu_and_signs(eig: EigenData, g2: float, g3: float, describe) -> tuple:
    """mu_s, mu_ss, the sign pair and the competing terms' rounding bound
    (None where they do not compete): the scalar core of `diagnose` and
    `psi_k_table`. A non-finite mu_s or mu_ss is a ConfigError naming describe()."""
    # + 0.0 keeps a vanishing g''(0) at +0.0, whatever the moment's sign;
    # g2 * M_hat is (u0*z_s, u0) for the corrector z_s = g''(0) z_hat
    mu_s = -0.5 * g2 * eig.I3 + 0.0
    mu_ss = -g3 * eig.I4 / 3.0 - 2.0 * g2 * (g2 * eig.M_hat + 0.0) + 0.0
    for name, value in (("mu_s", mu_s), ("mu_ss", mu_ss)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} = {value} is not finite: the coefficients of {describe()} overflow it")

    # I3, I4, M_hat > 0: the signs follow from g2 and g3, unless g2 != 0
    # and g3 < 0, where -g3 I4/3 > 0 competes with -2 g2^2 M_hat < 0
    s_s = -sign_with_tolerance(g2, 0.0)
    if g2 != 0.0 and g3 < 0.0:
        bound = _SIGN_MARGIN * _EPS * (-g3 * eig.I4 / 3.0 + 2.0 * g2 * g2 * eig.M_hat)
        return mu_s, mu_ss, (s_s, sign_with_tolerance(mu_ss, bound)), bound
    return mu_s, mu_ss, (s_s, -sign_with_tolerance(g3, 0.0) if g2 == 0.0 else -1), None


def diagnose(eig: EigenData, model: NonlinearityModel) -> BifurcationDiagnostics:
    """mu_s, mu_ss, the type and the warnings for one model on eigendata
    shared across models: `_mu_and_signs` on g''(0), g'''(0) and eig's I3,
    I4 and M_hat, with no solve and no vector. Raises ConfigError when mu_s
    or mu_ss is not finite: the model's coefficients overflow the arithmetic."""
    g2, g3 = derivative_at_zero(model, 2), derivative_at_zero(model, 3)
    mu_s, mu_ss, (s_s, s_ss), bound = _mu_and_signs(eig, g2, g3, model.describe)
    warnings = []
    if bound is not None:
        zero = s_ss == 0
        warnings.append(
            f"mu_ss = {mu_ss:.3e} is the difference of two competing terms, {'zero within' if zero else 'beyond'} "
            f"their rounding bound {bound:.3e}: {'' if zero else 'its sign is decided at the discrete level, between '}"
            f"candidate types {_TYPE_TABLE[(s_s, 0)]} and {_TYPE_TABLE[(s_s, 1 if mu_ss > 0 else -1)]}"
        )
    if s_s != 0:
        warnings.append(
            "two solutions co-exist on one side of lambda0 near the bifurcation point; "
            "the branch geometry for this type is inferred from the sign pair"
        )
    ctype, side = _TYPE_TABLE[(s_s, s_ss)], _coexistence_side(s_s, s_ss)
    return BifurcationDiagnostics(mu_s, mu_ss, ctype, side, tuple(warnings))


def run_analysis(spec: DomainSpec, model: NonlinearityModel) -> AnalysisResult:
    """Full pipeline: eigendata, then diagnose."""
    eig = eigendata(spec)
    return AnalysisResult(**vars(eig), model=model, diagnostics=diagnose(eig, model))


class TableRow(NamedTuple):
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

    One eigen stage and unit corrector serve every row; k must be an
    integer in 3..8 (k = 2 is the linear kind). psi_k(k, 1) gives g''(0)
    and g'''(0), which eta scales exactly (factors -2, -6 or 0); each row
    is `diagnose`'s scalar core on them, with no warning strings.
    """
    for k in k_list:
        if isinstance(k, numbers.Real) and not 3 <= k <= 8:
            raise ValueError(f"k_list entries must lie in 3..8, got {k}")
    # before the eigen stage, so a bad k or eta fails first: a non-finite eta by its model's error
    models = [NonlinearityModel.psi_k(k, 1.0) for k in k_list]
    units = [(m.k, derivative_at_zero(m, 2), derivative_at_zero(m, 3)) for m in models]
    etas = [as_number(eta, "model.eta") for eta in eta_list] if units else []
    etas = [eta if math.isfinite(eta) else NonlinearityModel.psi_k(k_list[0], eta).eta for eta in etas]
    eig = eigendata(spec)

    def row(k: int, eta: float, g2: float, g3: float) -> TableRow:
        # an overflowing row builds its model only to name it
        mu_s, mu_ss, signs, _ = _mu_and_signs(eig, g2, g3, lambda: NonlinearityModel.psi_k(k, eta).describe())
        return TableRow(k, eta, mu_s, mu_ss, _TYPE_TABLE[signs])

    return [row(k, eta, g2 * eta, g3 * eta) for eta in etas for k, g2, g3 in units]
