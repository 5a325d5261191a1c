"""Exception types shared across the package.

Names follow the operation contracts: constructors and matrix routines raise
these rather than bare ValueErrors so callers can tell a bad input from a bug.
"""

from __future__ import annotations


class CodedPirError(Exception):
    """Base class for all package errors."""


# --- field / matrix layer ---------------------------------------------------

class NonPrime(CodedPirError):
    """Field characteristic is not prime."""


class DegreeOutOfRange(CodedPirError):
    """Extension degree outside the supported 1..8 range."""


class DimensionMismatch(CodedPirError):
    """Matrix shapes incompatible for the requested operation."""


class FieldMismatch(CodedPirError):
    """Operands live in incompatible fields (no subfield embedding)."""


class RankDeficient(CodedPirError):
    """Linear system has no unique solution."""


# --- code layer --------------------------------------------------------------

class RankDeficientGenerator(CodedPirError):
    """Generator matrix rows are linearly dependent."""


class DecodeFailure(CodedPirError):
    """Decoding failed: no codeword fits the symbols, or a plan is invalid.

    `word` is the index of the first failing word when a batch decode fails
    on a word (None otherwise).
    """

    def __init__(self, *args, word: int | None = None):
        super().__init__(*args)
        self.word = word


class NotCorrectable(DecodeFailure):
    """Erasure pattern is not correctable by the code."""


class TooLarge(CodedPirError):
    """Requested enumeration exceeds the desk-scale guard."""


class EmptySupport(CodedPirError):
    """Puncturing/shortening onto an empty coordinate set."""


# --- code families -----------------------------------------------------------

class DuplicatePoint(CodedPirError):
    """GRS evaluation points are not distinct."""


class ZeroMultiplier(CodedPirError):
    """GRS column multiplier is zero."""


class BadOrder(CodedPirError):
    """Reed-Muller order/variable count out of range."""


class NotDivisor(CodedPirError):
    """Cyclic generator polynomial does not divide x^n - 1."""


class NotMdsCompliant(CodedPirError):
    """Assembled MDS parity-check matrix does not define an MDS code."""


class BadDimensions(CodedPirError):
    """Locality-code parameters are inconsistent."""


class NonBinary(CodedPirError):
    """UUV construction requires a binary component code."""


# --- rate matrices / protocols -----------------------------------------------

class KappaEqualsNu(CodedPirError):
    """Rate formula undefined for kappa = nu."""


class NotCoveringOrbit(CodedPirError):
    """Automorphism images do not cover every coordinate exactly once."""


class NotAutomorphism(CodedPirError):
    """Permutation does not preserve the codeword set."""


class ShapeMismatch(CodedPirError):
    """Inconsistent matrix shapes for the Lambda/E conversion."""


class NoValidSwap(CodedPirError):
    """No feasible swap found in the locality E-matrix construction."""


class InvalidLambda(CodedPirError):
    """Matrix fails the achievable-rate-matrix conditions."""


class RateOneProduct(CodedPirError):
    """Hadamard product code has rate one; the colluding protocol cannot run."""


class StructureViolation(CodedPirError):
    """Protocol-3 setup violates a structural condition."""


class OrderOverflow(CodedPirError):
    """Reed-Muller orders exceed the variable count."""


class BadParams(CodedPirError):
    """Inconsistent storage-system parameters."""
