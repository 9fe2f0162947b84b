"""Exception taxonomy shared across the package.

Every error raised on a documented failure path derives from NestQuadError so
callers (and the CLI exit-code mapping) can distinguish failure classes
without string matching.
"""

from __future__ import annotations

__all__ = [
    "NestQuadError",
    "ParameterError",
    "CapacityError",
    "UnsupportedFamilyError",
    "NumericalError",
    "ConvergenceError",
    "FeasibilityError",
    "IntegrityError",
    "SchemaError",
    "EvaluationError",
]


class NestQuadError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(NestQuadError, ValueError):
    """An argument is outside its documented domain."""


class CapacityError(NestQuadError, ValueError):
    """A recurrence table or rule is too short for the requested degree."""


class UnsupportedFamilyError(NestQuadError, ValueError):
    """The operation is not defined for the given weight family."""


class NumericalError(NestQuadError, RuntimeError):
    """A numerical kernel failed (eigensolver, SVD, degenerate Jacobian)."""


class ConvergenceError(NestQuadError, RuntimeError):
    """The optimizer exhausted its search without certifying a rule.

    Carries the best residual norm seen so the caller can report how close
    the search came, and the search's ``OptimizerState.attempts``.
    """

    def __init__(self, message: str, best_residual: float = float("nan"),
                 attempts=()):
        super().__init__(message)
        self.best_residual = best_residual
        self.attempts = attempts


class FeasibilityError(NestQuadError, RuntimeError):
    """A converged iterate still violates node bounds or the weight floor."""


class IntegrityError(NestQuadError, ValueError):
    """A stored rule failed re-verification against its own certificate."""


class SchemaError(NestQuadError, ValueError):
    """A serialized record does not match the expected schema."""


class EvaluationError(NestQuadError, RuntimeError):
    """An integrand returned a value that is not one finite real number.
    Carries the node."""

    def __init__(self, message: str, node=None):
        super().__init__(message)
        self.node = node
