"""Exception types raised by validation and domain checks."""

from __future__ import annotations


class EntropyKitError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitian(EntropyKitError):
    """Matrix is not equal to its conjugate transpose within tolerance."""


class NotPositive(EntropyKitError):
    """Operator has an eigenvalue below the negative tolerance."""


class DimMismatch(EntropyKitError):
    """Operands have incompatible dimensions."""


class InvalidIndex(EntropyKitError):
    """Entropic index or integer argument outside its admissible range."""


class DomainError(EntropyKitError):
    """Scalar or array argument outside the function's domain."""


class FloatRange(DomainError):
    """A value that is defined at the arguments leaves the float range."""


class OutOfValidity(EntropyKitError):
    """Requested bound evaluated outside its proven validity region."""


class IncompleteMeasurement(EntropyKitError):
    """Measurement or resolution operators do not sum to the identity."""


class NotDiagonal(EntropyKitError):
    """Matrix has off-diagonal entries beyond tolerance."""


class PureState(EntropyKitError):
    """State is pure where an impure state is required."""
