"""Permutations: pattern containment, exceedance process, interpolated
exceedance functions, and scalar statistics (inversions, max deficit).

Each pattern class has one membership rule: `avoids_321`, which
`bij321.inverse` applies, and `bij231.inverse`, which `avoids_231` asks.

Permutations are 1-indexed bijections on {1..n}; the text format is the
space-separated image list, e.g. "2 1 6 3 10 4 5 7 8 9".  Integer lines
(permutations, and the parent labels of `trees.OrderedTree`) are read by
`ints_from_text` and printed by `ints_to_text`.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import IndexOutOfRange, Not231Avoiding, integer, integers
from .scaled import ScaledFunction, sorted_unique


# numpy's wording for a token beyond int64, kept so that `error:` lines
# read the same whichever way a line is converted.
_TOO_LARGE = "Python int too large to convert to C long"


def ints_from_text(text: str) -> np.ndarray:
    """The int64 values of a line of ASCII digits separated by spaces or
    tabs.  Any other character (a sign, an underscore, a non-ASCII digit
    or separator) raises ValueError; a value beyond int64, OverflowError.
    Leading zeros are allowed at any length.

    Token bounds come from one digit mask over the line's bytes, and the
    values from Horner's rule over the last 19 places of every token.
    """
    if not text.isascii() or text.encode().translate(None, b"0123456789 \t"):
        raise ValueError("expected ASCII digits separated by spaces or tabs")
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    digit = np.concatenate(([False], raw >= ord("0"), [False]))
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    start, end = edges[0::2], edges[1::2]
    size = end - start
    # 10**19 > 2**63: a nonzero digit 20 or more places from the end overflows
    long = size > 19
    if long.any():
        head = np.column_stack((start[long], end[long] - 19)).ravel()
        if np.logical_or.reduceat(raw > ord("0"), head)[::2].any():
            raise OverflowError(_TOO_LARGE)
    vals = np.zeros(size.size, dtype=np.uint64)  # 19 digits fit in uint64
    for k in range(min(int(size.max(initial=0)), 19), 0, -1):
        d = raw.take(end - k)  # never below -len(raw); masked where k > size
        d -= ord("0")
        d *= size >= k
        vals *= 10
        vals += d
    if vals.max(initial=0) > np.iinfo(np.int64).max:
        raise OverflowError(_TOO_LARGE)
    return vals.astype(np.int64)


def ints_to_text(values) -> str:
    """The line of nonnegative integers that `ints_from_text` reads back:
    decimal, no leading zeros, one space between values.

    Row i of a (count, width + 1) byte array holds a space and then the
    digits of values[i], filled by repeated division by 10; one mask
    keeps the space and the digits from the leading one on, and the kept
    bytes are decoded once.
    """
    x = integers(values, "values")
    if x.size == 0:
        return ""
    if x.min() < 0:
        raise ValueError(f"values must be nonnegative, not {x.min()}")
    width = len(str(int(x.max())))
    cols = np.empty((x.size, width + 1), dtype=np.uint8)
    keep = np.empty((x.size, width + 1), dtype=bool)
    cols[:, 0] = ord(" ")
    keep[:, 0] = True
    for j in range(width, 0, -1):
        keep[:, j] = x > 0  # False left of the leading digit
        q = x // 10
        cols[:, j] = x - 10 * q + ord("0")
        x = q
    keep[:, width] = True  # the units digit, of 0 too
    return cols[keep][1:].tobytes().decode()


class Permutation:
    """Immutable permutation of {1..n}, n >= 1.  The constructor copies
    its input, checks it and freezes the copy."""

    __slots__ = ("_images",)

    def __init__(self, images):
        if isinstance(images, Permutation):
            arr = images._images
        elif isinstance(images, str):
            arr = ints_from_text(images)
        else:
            arr = integers(images, "images")
        if arr.size == 0 or arr.min() < 1 or arr.max() > arr.size:
            raise ValueError("images must be a bijection on 1..n, n >= 1")
        arr = np.array(arr, dtype=np.int64)
        seen = np.zeros(arr.size + 1, dtype=bool)
        seen[arr] = True
        if not seen[1:].all():
            raise ValueError("images must be a bijection on 1..n")
        arr.setflags(write=False)
        self._images = arr

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(1, integer(n, "n") + 1))

    @property
    def images(self) -> np.ndarray:
        return self._images

    @property
    def n(self) -> int:
        return int(self._images.size)

    def __call__(self, i: int) -> int:
        """pi(i) for 1 <= i <= n."""
        i = integer(i, "i", IndexOutOfRange, 1, self.n)
        return int(self._images[i - 1])

    def to_text(self) -> str:
        return ints_to_text(self._images)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Permutation([{self.to_text()}])"

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.n == other.n and bool(np.all(self._images == other._images))

    def __hash__(self):
        return hash(self._images.tobytes())


def contains_pattern(perm: Permutation, pattern: Permutation) -> bool:
    """Brute-force pattern containment for patterns of size <= 4.

    True iff some index subsequence of perm is order-isomorphic to the
    pattern.  O(n^k); this is the reference implementation the fast
    checkers are tested against.
    """
    k = pattern.n
    if k > 4:
        raise ValueError("brute-force checker accepts patterns of size <= 4")
    rel = [
        (r, s, pattern(r + 1) < pattern(s + 1))
        for r, s in combinations(range(k), 2)
    ]
    vals = perm.images
    for idx in combinations(range(perm.n), k):
        if all((vals[idx[r]] < vals[idx[s]]) == want for r, s, want in rel):
            return True
    return False


def avoids_321(perm: Permutation) -> bool:
    """Whether perm avoids 321: its exceedance values (pi(i) > i)
    increase, and so do its remaining values.  O(n).

    Two increasing sequences hold no 321.  If exceedance values fall,
    pi(i) > pi(j) > j with i < j, a value below pi(j) lies right of j
    (1..j holds at most j - 1 of them); if remaining values fall,
    pi(j) < pi(i) <= i, a value above pi(i) lies left of i.
    """
    images = perm.images
    exceeds = images > np.arange(1, perm.n + 1)
    # compress is several times faster than a boolean index on such masks
    values, rest = np.compress(exceeds, images), np.compress(~exceeds, images)
    return bool((values[1:] > values[:-1]).all() and (rest[1:] > rest[:-1]).all())


def avoids_231(perm: Permutation) -> bool:
    """Whether perm avoids 231: the 231-avoiders are exactly the images
    of the excursion bijection, so this asks whether `bij231.inverse`
    accepts perm.  O(n).
    """
    from .bij231 import inverse  # it imports this module
    try:
        inverse(perm)
    except Not231Avoiding:
        return False
    return True


def exceedance(perm: Permutation, i: int) -> int:
    """E(i) = pi(i) - i for 1 <= i <= n, and E(0) = 0."""
    i = integer(i, "i", IndexOutOfRange, 0, perm.n)
    return int(perm.images[i - 1]) - i if i else 0


def exceedance_process(perm: Permutation) -> np.ndarray:
    """The full vector (E(0), E(1), ..., E(n))."""
    n = perm.n
    out = np.empty(n + 1, dtype=np.int64)
    out[0] = 0
    out[1:] = perm.images - np.arange(1, n + 1)
    return out


def exceedance_sets(perm: Permutation) -> tuple[np.ndarray, np.ndarray]:
    """(E_plus, E_minus): indices in 0..n with E(i) >= 0 resp. E(i) <= 0.

    Both contain 0; n always lands in E_minus since pi(n) <= n.
    """
    e = exceedance_process(perm)
    return np.flatnonzero(e >= 0), np.flatnonzero(e <= 0)


def scaled_function(perm: Permutation, indices) -> ScaledFunction:
    """Linear interpolation through {(a/n, E(a)/sqrt(2n)) : a in indices}.

    Anchor knots (0,0) and (1,0) are added when 0 or n is absent, making
    the function total on [0,1] and matching the zero boundary of the
    limit object; an empty index set gives the zero function.  Indices
    that are not a 1-d integer sequence raise ValueError.
    """
    n = perm.n
    a = sorted_unique(integers(indices, "indices").astype(np.int64, copy=False))
    if a.size and (a[0] < 0 or a[-1] > n):
        raise IndexOutOfRange("indices must lie in 0..n")
    a = a[a > 0]  # E(0) = 0 is the anchor knot
    y = np.concatenate(([0.0], (perm.images[a - 1] - a) / np.sqrt(2 * n)))
    a = np.concatenate(([0], a))
    if a[-1] != n:
        a = np.concatenate((a, [n]))
        y = np.concatenate((y, [0.0]))
    return ScaledFunction(a, n, y)


def inversions(perm: Permutation) -> int:
    """Number of pairs i < j with pi(j) < pi(i), one bit of the values at a
    time, top bit first.  O(n log n).

    At bit k the values v = pi - 1 sit grouped by their higher bits, each
    group in its original order.  Every lower group is full, so group g
    fills slots g 2^(k+1) onward.  A pair whose values first differ at
    bit k is an inversion iff its set-bit value comes first: a cumsum
    counts the set-bit values before each clear-bit value in its group,
    and a stable partition on bit k orders the next level.
    """
    v = perm.images - 1
    slot = np.arange(v.size)
    count = 0
    for k in reversed(range((v.size - 1).bit_length())):
        bit = (v >> k) & 1
        before = np.cumsum(bit) - bit  # set-bit values before each slot
        start = slot & -(2 << k)  # first slot of each slot's group
        ahead = before - before[start]  # the same, within the group
        count += int(ahead.sum() - ahead @ bit)  # summed over clear bits
        dest = np.where(bit == 1, start + (1 << k) + ahead, slot - ahead)
        v[dest] = v.copy()
    return count


def max_deficit(perm: Permutation) -> int:
    """m(pi) = max_i (i - pi(i)); zero for the identity, never negative."""
    n = perm.n
    return int(np.max(np.arange(1, n + 1) - perm.images))
