"""Shared exception types.

Most errors are precondition violations and therefore subclass ValueError;
``TooLarge`` subclasses RuntimeError because it signals a resource cap rather
than bad input, and ``DecodeFailure`` is an expected control-flow outcome of
bounded-distance decoding.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivisionByZero(DomainError, ZeroDivisionError):
    """Inversion or division by the zero element."""


class NotPrimitive(ValueError):
    """Polynomial is not primitive (its root does not generate the group)."""


class NotABasis(ValueError):
    """The supplied elements do not form a basis."""


class LengthMismatch(ValueError):
    """Vectors/codes have incompatible lengths."""


class FieldMismatch(ValueError):
    """Operands belong to different fields."""


class BadComplement(ValueError):
    """The supplied complement vectors do not complete to an invertible matrix."""


class TooLarge(RuntimeError):
    """An enumeration cap would be exceeded."""


class Degenerate(ValueError):
    """A quotient C/B with C = B has no nonzero coset to minimize over."""


class NotOrthogonal(ValueError):
    """Vectors required to be orthogonal are not."""


class ZeroEntry(ValueError):
    """A vector required to have all-nonzero entries has a zero coordinate."""


class DuplicatePoint(ValueError):
    """Evaluation points of a GRS code must be pairwise distinct."""


class ZeroMultiplier(ValueError):
    """Column multipliers of a GRS code must be nonzero."""


class BadDimension(ValueError):
    """Code dimension out of range."""


class DimensionConflict(ValueError):
    """Requested nested pair dimensions are incompatible."""


class DecodeFailure(Exception):
    """Bounded-distance decoding found no error pattern within the radius."""


class RankDeficient(ValueError):
    """A matrix required to be full rank is not."""


class PremiseViolation(ValueError):
    """The premises of the enlargement construction are not met."""


class BadField(ValueError):
    """The field does not have the structure required by the construction."""


class BadLength(ValueError):
    """Requested code length out of range."""


class ConditionViolation(ValueError):
    """One of the construction conditions (A)/(B)/(C) failed; the message
    identifies which."""


class EmptyFeasibleSet(ValueError):
    """No parameter point satisfies the optimization constraint."""


class BelowRateFloor(ValueError):
    """The requested rate is below the validity floor of the bound."""
