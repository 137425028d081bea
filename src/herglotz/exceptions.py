# exceptions.py - exception classes used across the library
#
# Every failure mode that callers may want to distinguish gets its own
# class; the CLI maps these onto distinct exit statuses.

__all__ = [
    "DimensionError",
    "NotHermitianError",
    "NotPsdError",
    "FactorizationMismatchError",
    "SingularBlockError",
    "DomainError",
    "OutOfBallError",
    "RangeCompatibilityError",
    "FixtureError",
    "InsufficientDataError",
    "ProblemFormatError",
]


class DimensionError(ValueError):
    """Input has the wrong shape (non-square, mismatched blocks, bad index)."""


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NotPsdError(ValueError):
    """A matrix required to be positive semidefinite has a negative eigenvalue
    beyond tolerance, or coefficient data is infeasible."""


class FactorizationMismatchError(ValueError):
    """Two factorizations that should reproduce the same matrix disagree."""


class SingularBlockError(ValueError):
    """A block that must be inverted is numerically singular or the shift
    is too small to condition it."""


class DomainError(ValueError):
    """Evaluation point outside the declared domain of the function."""


class OutOfBallError(ValueError):
    """Contraction parameter exceeds unit operator norm, or a contraction
    or ball candidate has a non-finite entry."""


class RangeCompatibilityError(ValueError):
    """Coefficient does not factor through the range of the base factor;
    the data cannot come from the intended positive structure."""


class FixtureError(ValueError):
    """A realization violates its structural invariants (non-isometric
    internal map or non-skew constant term)."""


class InsufficientDataError(ValueError):
    """Not enough coefficients are available for the requested order."""


class ProblemFormatError(ValueError):
    """Problem file cannot be parsed or violates the schema."""
