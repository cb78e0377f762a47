"""Construction, concatenation, decoding and distance analysis of CSS code
pairs over finite fields.

The package is organized bottom-up:

* :mod:`cssconcat.galois` -- arithmetic in GF(p^e) and extensions GF(q^k),
  traces, companion matrices, multiplication-matrix homomorphism, dual and
  self-dual bases.
* :mod:`cssconcat.matrix` -- dense exact linear algebra over a finite field.
* :mod:`cssconcat.codes` -- linear codes, CSS pairs and the paired coset
  generators, brute-force distance oracles.
* :mod:`cssconcat.outer_grs` -- generalized Reed-Solomon outer codes with a
  bounded-distance syndrome decoder.
* :mod:`cssconcat.concat` -- the two-level concatenation of an inner CSS pair
  with an outer pair over the extension field, including the structured
  parity-check matrix.
* :mod:`cssconcat.decode` -- the two-stage syndrome decoder.
* :mod:`cssconcat.channel_sim` -- additive channels, Monte-Carlo harness,
  error-exponent and union-bound calculators.
* :mod:`cssconcat.enlarge` -- Steane enlargement of dual-containing codes.
* :mod:`cssconcat.bounds` -- closed-form rate/distance bound curves.
"""

from .errors import (
    BadComplement,
    BadDimension,
    BadField,
    BadLength,
    BelowRateFloor,
    ConditionViolation,
    DecodeFailure,
    Degenerate,
    DimensionConflict,
    DomainError,
    DuplicatePoint,
    EmptyFeasibleSet,
    FieldMismatch,
    LengthMismatch,
    NotABasis,
    NotOrthogonal,
    NotPrimitive,
    PremiseViolation,
    RankDeficient,
    TooLarge,
    ZeroEntry,
    ZeroMultiplier,
)
from .galois import Field, Extension

__all__ = [
    "Field",
    "Extension",
    "BadComplement",
    "BadDimension",
    "BadField",
    "BadLength",
    "BelowRateFloor",
    "ConditionViolation",
    "DecodeFailure",
    "Degenerate",
    "DimensionConflict",
    "DomainError",
    "DuplicatePoint",
    "EmptyFeasibleSet",
    "FieldMismatch",
    "LengthMismatch",
    "NotABasis",
    "NotOrthogonal",
    "NotPrimitive",
    "PremiseViolation",
    "RankDeficient",
    "TooLarge",
    "ZeroEntry",
    "ZeroMultiplier",
]

__version__ = "0.1.0"
