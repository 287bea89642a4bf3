"""Exception types shared across the package, and the strict number
conversion that configuration parsing raises ConfigError from."""

import numbers

__all__ = ["CoexistError", "ConfigError", "ConvergenceError"]


class CoexistError(Exception):
    """Base class for all package errors."""


class ConfigError(CoexistError):
    """Invalid domain spec, model descriptor, or run configuration."""


class ConvergenceError(CoexistError):
    """An iterative solver failed to reach its tolerance.

    Carries the achieved residual and the iteration count so callers can
    report how far the solve got.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual={residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


def as_number(x, field: str, integer: bool = False) -> float | int:
    """x as a float, or as an int for an integer field. A bool, a string, or
    a float in an integer field (even 3.0) is a ConfigError, not a cast."""
    if type(x) is (int if integer else float):
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral if integer else numbers.Real):
        raise ConfigError(f"{field} must be {'an integer' if integer else 'a number'}, got {x!r}")
    return int(x) if integer else float(x)
