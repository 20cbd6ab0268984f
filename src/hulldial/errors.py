"""Exception types raised across the toolkit.

Every library-specific failure derives from HulldialError so callers can
catch broadly.  Plain builtins are used where Python already has the right
vocabulary: ZeroDivisionError for inverting zero, IndexError for bad
coordinate indices, ValueError for malformed scalar inputs.
"""

from __future__ import annotations


class HulldialError(Exception):
    """Base class for all toolkit errors."""


class NotPrimeError(HulldialError):
    """Field characteristic is not a prime number."""


class CapExceededError(HulldialError):
    """Requested object is larger than the configured enumeration cap."""


class SpecMismatchError(HulldialError):
    """Operands belong to different fields."""


class OddExtensionError(HulldialError):
    """Conjugation/norm requested on a field whose extension degree is odd."""


class NoSuchElementError(HulldialError):
    """No field element satisfies the requested property."""


class MalformedCodeError(HulldialError):
    """A code file lacks a key, or holds a value of the wrong type or shape."""


class ShapeMismatchError(HulldialError):
    """Matrix or vector dimensions are incompatible."""


class RankDeficientError(HulldialError):
    """A full-rank matrix was required but not supplied."""


class BadGaloisIndexError(HulldialError):
    """Galois dual index l outside [0, e-1]."""


class BadPermutationError(HulldialError):
    """Sequence is not a permutation of the coordinate range."""


class TooLargeToEnumerateError(HulldialError):
    """Exact enumeration would exceed the codeword cap; no estimate is given."""


class NotSelfOrthogonalError(HulldialError):
    """Operation requires a self-orthogonal code."""


class BadTargetError(HulldialError):
    """Target hull dimension outside the attainable range."""


class SmallFieldError(HulldialError):
    """The field has no scaling constant x with x^(p^sigma + 1) != 1 for the form's twist."""


class VerificationFailedError(HulldialError):
    """Internal post-condition check failed; indicates an inconsistency."""


class DuplicateEvalPointsError(HulldialError):
    """Evaluation points of a GRS code must be pairwise distinct."""


class ZeroMultiplierError(HulldialError):
    """Column multipliers / weight-vector entries must all be nonzero."""


class BadDimensionError(HulldialError):
    """Requested code dimension outside the construction's valid range."""


class NotADivisorError(HulldialError):
    """Subgroup index must divide the multiplicative group order."""


class BadFamilyParamsError(HulldialError):
    """Family parameters violate the family's stated constraints."""


class BadFieldError(HulldialError):
    """Base field size is not an admissible prime power."""
