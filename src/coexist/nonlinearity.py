"""Interaction models g(u) = V(u)*u and their derivatives at u = 0.

The package works with g directly rather than V: every formula consumes
g and its low-order derivatives, and V = g/u has a removable singularity
at the origin. Four kinds are supported:

  free        g(u) = 0
  linear      g(u) = V_L * u
  psi_k       g(u) = -eta * u**(k-1),   k >= 2
  polynomial  g(u) = sum_{j=1..6} c_j * u**j

g(0) = 0 holds for every kind, so u = 0 solves the master problem at
every parameter value. All coefficients are real; vectors in stay
vectors out with the same (float) dtype. Integer powers of u are exact
repeated products, never numpy's pow: they are bitwise odd or even
under u -> -u, and negative bases take no slow path.
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


@dataclass(frozen=True)
class NonlinearityModel:
    kind: str
    k: int = 0
    eta: float = 0.0
    V_L: float = 0.0
    poly_coeffs: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown nonlinearity kind {self.kind!r}; expected one of {_KINDS}")
        for name in ("k", "eta", "V_L"):
            object.__setattr__(self, name, as_number(getattr(self, name), f"model.{name}", integer=name == "k"))
        if self.kind == "psi_k":
            if self.k < 2:
                raise ConfigError(f"psi_k needs integer k >= 2, got {self.k}")
            # k = 2 is the linear interaction in disguise: g = -eta*u
            object.__setattr__(self, "V_L", -self.eta if self.k == 2 else 0.0)
        elif self.kind == "polynomial":
            coeffs = tuple(as_number(c, "model.coeffs") for c in self.poly_coeffs)
            if not 1 <= len(coeffs) <= _MAX_POLY_DEGREE:
                raise ConfigError(
                    f"polynomial expects 1..{_MAX_POLY_DEGREE} coefficients, got {len(coeffs)}"
                )
            object.__setattr__(self, "poly_coeffs", coeffs)
            object.__setattr__(self, "V_L", coeffs[0])
        elif self.kind == "free":
            object.__setattr__(self, "V_L", 0.0)
        if not all(math.isfinite(c) for c in (self.eta, self.V_L, *self.poly_coeffs)):
            raise ConfigError(
                f"model coefficients must be finite, got eta={self.eta}, V_L={self.V_L}, "
                f"coeffs={list(self.poly_coeffs)}"
            )

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
        return NonlinearityModel(kind="polynomial", poly_coeffs=tuple(coeffs))

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
        return {"kind": "polynomial", "coeffs": list(self.poly_coeffs)}

    def describe(self) -> str:
        if self.kind == "free":
            return "free (g = 0)"
        if self.kind == "linear":
            return f"linear (g = {self.V_L:g}*u)"
        if self.kind == "psi_k":
            return f"psi^{self.k} (g = -({self.eta:g})*u^{self.k - 1})"
        return f"polynomial (coeffs {list(self.poly_coeffs)})"


def derivative_at_zero(model: NonlinearityModel, order: int) -> float:
    """g'(0), g''(0) or g'''(0) in closed form.

    For psi_k the ladder is g'(0) = -eta only at k=2, g''(0) = -2*eta
    only at k=3, g'''(0) = -6*eta only at k=4, and zero in every other
    slot; for k >= 5 all three vanish.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    if model.kind == "free":
        return 0.0
    if model.kind == "linear":
        return model.V_L if order == 1 else 0.0
    factorial = (1.0, 2.0, 6.0)[order - 1]
    if model.kind == "psi_k":
        return -factorial * model.eta if model.k - 1 == order else 0.0
    c = model.poly_coeffs
    return factorial * c[order - 1] if len(c) >= order else 0.0


def _power(U: Array, p: int) -> Array:
    """U**p for an integer p >= 0 as a fresh array of repeated in-place
    products."""
    if p == 0:
        return np.ones_like(U)
    out = U.copy()
    for _ in range(p - 1):
        out *= U
    return out


def apply(model: NonlinearityModel, U: Array) -> Array:
    """Pointwise g(U)."""
    U = np.asarray(U, dtype=float)
    if model.kind == "free":
        return np.zeros_like(U)
    if model.kind == "linear":
        return model.V_L * U
    if model.kind == "psi_k":
        out = _power(U, model.k - 1)
        out *= -model.eta
        return out
    out = np.zeros_like(U)
    for j in range(len(model.poly_coeffs), 0, -1):
        out = (out + model.poly_coeffs[j - 1]) * U
    return out


def apply_derivative(model: NonlinearityModel, U: Array) -> Array:
    """Pointwise g'(U), consistent with derivative_at_zero at U = 0."""
    U = np.asarray(U, dtype=float)
    if model.kind == "free":
        return np.zeros_like(U)
    if model.kind == "linear":
        return np.full_like(U, model.V_L)
    if model.kind == "psi_k":
        out = _power(U, model.k - 2)
        out *= -model.eta * (model.k - 1)
        return out
    out = np.zeros_like(U)
    for j in range(len(model.poly_coeffs), 1, -1):
        out = (out + j * model.poly_coeffs[j - 1]) * U
    return out + model.poly_coeffs[0]
