"""Shared exception types."""


class KzfoxError(Exception):
    """Base class for all package errors."""


class DomainError(KzfoxError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ShapeError(KzfoxError, ValueError):
    """Operands disagree in generator count, truncation degree or backend."""


class ValidationError(KzfoxError, ValueError):
    """Geometric input violates a required invariant (degeneracy, cusp, ...)."""


class CompositionError(KzfoxError, ValueError):
    """Paths with mismatched anchors cannot be composed."""


class AccuracyError(KzfoxError, RuntimeError):
    """A numerical routine could not reach the requested accuracy."""
