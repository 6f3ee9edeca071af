"""Exception types shared across the package."""


class PavError(Exception):
    """Base class for all library-specific errors."""


class InvalidPath(PavError, ValueError):
    """A step sequence is not a valid nonnegative lattice excursion."""


class OddLength(InvalidPath):
    """The step sequence has odd length."""


class BadStep(InvalidPath):
    """A step entry is neither +1 nor -1 (text: neither 'U' nor 'D')."""


class NotBalanced(InvalidPath):
    """The walk does not end at height 0."""


class NegativeExcursion(InvalidPath):
    """The walk dips below height 0."""


class TooLarge(PavError, ValueError):
    """Input size exceeds a guard limit for exhaustive computation."""


class IndexOutOfRange(PavError, IndexError):
    """A 1-indexed position or 0..n index is outside its valid range."""


class EmptySet(PavError, ValueError):
    """An index set argument that must be nonempty is empty."""


class Not321Avoiding(PavError, ValueError):
    """Input permutation contains a 321 pattern where a 321-avoider is required."""


class Not231Avoiding(PavError, ValueError):
    """Input permutation contains a 231 pattern where a 231-avoider is required."""


class NotReconstructible(PavError, RuntimeError):
    """Internal inconsistency: a derived path, table or count failed an invariant check."""


class RangeError(PavError, ValueError):
    """A numeric parameter is outside the formula's domain."""


class DomainError(PavError, ValueError):
    """Parameters outside the domain of a limit formula."""


class BadConfig(PavError, ValueError):
    """An experiment configuration is malformed."""
