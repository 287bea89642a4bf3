"""Interaction models g(u) = V(u)*u and their derivatives at u = 0.

The package works with g directly rather than V: every formula consumes
g and its low-order derivatives, and V = g/u has a removable singularity
at the origin. Four kinds are supported:

  free        g(u) = 0
  linear      g(u) = V_L * u
  psi_k       g(u) = -eta * u**(k-1),   2 <= k <= 1000
  polynomial  g(u) = sum_{j=1..6} c_j * u**j

Every kind is a polynomial with no constant term, and a model carries
it as the coefficient tuple (c_1, ..., c_d): () for free, (V_L,) for
linear, (0, ..., 0, -eta) of length k-1 for psi_k. The kind matters
only to construction, to_dict and describe; the evaluators read only
the coefficients. g^(r)(0) = r! c_r, and g and g' are in-place Horner
loops, so integer powers of u are exact repeated products, never
numpy's pow: they are bitwise odd or even under u -> -u, and negative
bases take no slow path. g(0) = 0, so u = 0 solves the master problem
at every parameter value. Vectors in stay vectors out (float dtype).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .errors import ConfigError, as_number

__all__ = ["NonlinearityModel", "derivative_at_zero", "apply", "apply_derivative"]

Array = npt.NDArray[np.float64]

# each kind's descriptor fields besides "kind"
_FIELDS = {"free": (), "linear": ("V_L",), "psi_k": ("k", "eta"), "polynomial": ("coeffs",)}
_KINDS = tuple(_FIELDS)
_MAX_POLY_DEGREE = 6
# psi_k holds k - 1 coefficients and takes k - 2 products per evaluation
_MAX_K = 1000


@dataclass(frozen=True)
class NonlinearityModel:
    """An interaction g given by its kind and that kind's fields.
    Construction derives coeffs = (c_1, ..., c_d), g(u) = sum_j c_j u^j,
    the only form the evaluators read, and V_L = g'(0) = c_1."""

    kind: str
    k: int = 0
    eta: float = 0.0
    V_L: float = 0.0
    coeffs: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown nonlinearity kind {self.kind!r}; expected one of {_KINDS}")
        for name in ("k", "eta", "V_L"):
            object.__setattr__(self, name, as_number(getattr(self, name), f"model.{name}", integer=name == "k"))
        if self.kind == "psi_k":
            if not 2 <= self.k <= _MAX_K:
                raise ConfigError(f"psi_k needs integer k >= 2 and <= {_MAX_K}, got {self.k}")
            # k = 2 is the linear interaction in disguise: g = -eta*u
            coeffs = (0.0,) * (self.k - 2) + (-self.eta,)
        elif self.kind == "polynomial":
            coeffs = tuple(as_number(c, "model.coeffs") for c in self.coeffs)
            if not 1 <= len(coeffs) <= _MAX_POLY_DEGREE:
                raise ConfigError(
                    f"polynomial expects 1..{_MAX_POLY_DEGREE} coefficients, got {len(coeffs)}"
                )
        else:
            coeffs = (self.V_L,) if self.kind == "linear" else ()
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "V_L", coeffs[0] if coeffs else 0.0)
        if not all(math.isfinite(c) for c in (self.eta, *coeffs)):
            raise ConfigError(f"model coefficients must be finite, got eta={self.eta}, coeffs={list(coeffs)}")

    # --- constructors -------------------------------------------------
    @staticmethod
    def free() -> "NonlinearityModel":
        return NonlinearityModel(kind="free")

    @staticmethod
    def linear(V_L: float) -> "NonlinearityModel":
        return NonlinearityModel(kind="linear", V_L=V_L)

    @staticmethod
    def psi_k(k: int, eta: float) -> "NonlinearityModel":
        return NonlinearityModel(kind="psi_k", k=k, eta=eta)

    @staticmethod
    def polynomial(coeffs) -> "NonlinearityModel":
        return NonlinearityModel(kind="polynomial", coeffs=tuple(coeffs))

    @staticmethod
    def from_dict(d: dict) -> "NonlinearityModel":
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigError("model descriptor must be an object with a 'kind' field")
        kind = d["kind"]
        if not isinstance(kind, str) or kind not in _FIELDS:
            raise ConfigError(f"unknown nonlinearity kind {kind!r}; expected one of {_KINDS}")
        unknown = set(d) - {"kind", *_FIELDS[kind]}
        if unknown:
            raise ConfigError(f"unknown model fields for kind {kind!r}: {sorted(unknown)}")
        try:
            if kind == "free":
                return NonlinearityModel.free()
            if kind == "linear":
                return NonlinearityModel.linear(d["V_L"])
            if kind == "psi_k":
                return NonlinearityModel.psi_k(d["k"], d["eta"])
            return NonlinearityModel.polynomial(d["coeffs"])
        except KeyError as exc:
            raise ConfigError(f"model kind {kind!r} is missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"model kind {kind!r} has a malformed field: {exc}") from None

    def to_dict(self) -> dict:
        if self.kind == "free":
            return {"kind": "free"}
        if self.kind == "linear":
            return {"kind": "linear", "V_L": self.V_L}
        if self.kind == "psi_k":
            return {"kind": "psi_k", "k": self.k, "eta": self.eta}
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}

    def describe(self) -> str:
        if self.kind == "free":
            return "free (g = 0)"
        if self.kind == "linear":
            return f"linear (g = {self.V_L:g}*u)"
        if self.kind == "psi_k":
            return f"psi^{self.k} (g = -({self.eta:g})*u^{self.k - 1})"
        return f"polynomial (coeffs {list(self.coeffs)})"


def derivative_at_zero(model: NonlinearityModel, order: int) -> float:
    """g'(0), g''(0) or g'''(0): order! * c_order, zero beyond the degree.

    For psi_k the ladder is g'(0) = -eta only at k=2, g''(0) = -2*eta
    only at k=3, g'''(0) = -6*eta only at k=4, and zero in every other
    slot; for k >= 5 all three vanish.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    c = model.coeffs
    return math.factorial(order) * c[order - 1] if order <= len(c) else 0.0


def _horner(a: tuple[float, ...], U: Array) -> Array:
    """sum_i a[i] * U**i by in-place Horner steps, so every power of U is
    an exact repeated product; zero coefficients cost no addition."""
    U = np.asarray(U, dtype=float)
    out = np.full_like(U, a[-1] if a else 0.0)
    for c in reversed(a[:-1]):
        out *= U
        if c:
            out += c
    return out


def apply(model: NonlinearityModel, U: Array) -> Array:
    """Pointwise g(U)."""
    return _horner((0.0, *model.coeffs), U)


def apply_derivative(model: NonlinearityModel, U: Array) -> Array:
    """Pointwise g'(U), consistent with derivative_at_zero at U = 0."""
    return _horner(tuple(j * c for j, c in enumerate(model.coeffs, 1)), U)
