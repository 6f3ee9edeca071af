"""Exception types shared across the package, and the one rule for
integer and real input: a bool, float or string is refused, never cast."""

import numbers
import operator
import sys

import numpy as np


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


def integer(value, name: str, error=ValueError, lo=None, hi=None) -> int:
    """value as an int, numpy integers included, in lo..hi when given.
    A bool, a float such as 2.0 and a string raise error naming name."""
    if isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be an integer, not {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, not {value!r}") from None
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in {lo}..{hi}"
        raise error(f"{name} must be {bound}, not {value}")
    return value


def integers(values, name: str, error=ValueError) -> np.ndarray:
    """values as a 1-d array of integer dtype, not copied when it is one; an
    empty sequence of any dtype is empty int64, and a bool entry is refused."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise error(f"{name} must be a 1-d sequence, not {arr.ndim}-d")
    if arr.dtype.kind not in "iu" and arr.size:
        raise error(f"{name} must be integers, not {arr.dtype}")
    if holds_bool(values):
        raise error(f"{name} must be integers, not bools")
    return arr if arr.size else arr.astype(np.int64)


def holds_bool(values) -> bool:
    """Whether a 1-d sequence, not an ndarray (its dtype shows it), holds a
    bool, numpy's or a 0-d array's too, which numpy promotes among numbers."""
    return not isinstance(values, np.ndarray) and any(
        isinstance(v, bool) or getattr(v, "dtype", None) == bool for v in values)


def real(value, name: str, error=ValueError) -> float:
    """value as a finite float, ints and numpy reals included; a bool, a
    string, an infinity and a NaN raise error naming name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, not {value!r}")
    if not abs(value) <= sys.float_info.max:  # also NaN and ints beyond float range
        raise error(f"{name} must be finite, not {value!r}")
    return float(value)
