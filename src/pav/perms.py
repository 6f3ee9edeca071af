"""Permutations: pattern containment, exceedance process, interpolated
exceedance functions, and scalar statistics (inversions, max deficit).

Each pattern class has one membership rule: `avoids_321`, which
`bij321.inverse` applies, and `bij231.inverse`, which `avoids_231` asks.

Permutations are 1-indexed bijections on {1..n}; the text format is the
space-separated image list, e.g. "2 1 6 3 10 4 5 7 8 9".  Integer lines
(permutations, and the parent labels of `trees.OrderedTree`) are read by
`ints_from_text`, eight digits of every token per pass, and printed by
`ints_to_text` from rows of digits whose leading zeros are NUL bytes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import IndexOutOfRange, Not231Avoiding, integer, integers
from .scaled import ScaledFunction, sorted_unique


# numpy's wording for a token beyond int64, kept so that `error:` lines
# read the same whichever way a line is converted.
_TOO_LARGE = "Python int too large to convert to C long"

# _LAST[k] keeps the low nibble of the last k bytes of a little-endian
# 8-byte window: the values of its last k digits, k = 0..8.
_LAST = np.array([(2**64 - 2 ** (64 - 8 * k)) & 0x0F0F0F0F0F0F0F0F for k in range(9)],
                 dtype=np.uint64)


def ints_from_text(text: str) -> np.ndarray:
    """The int64 values of a line of ASCII digits separated by spaces or
    tabs.  Any other character (a sign, an underscore, a non-ASCII digit
    or separator) raises ValueError; a value beyond int64, OverflowError.
    Leading zeros are allowed at any length.

    Token bounds come from one digit mask over the line's bytes.  The last
    19 places of every token are read as up to three little-endian 8-byte
    windows ending at its last digit, each gathered for all tokens by one
    index into an unaligned view of every window of the line.  A mask per
    window keeps the token's own digits, and three multiply-shift steps
    join its eight (pairs, then quads, then the eight), so the number of
    whole-array passes grows with the windows, not with the places.
    """
    data = text.encode()
    if not text.isascii() or data.translate(None, b"0123456789 \t"):
        raise ValueError("expected ASCII digits separated by spaces or tabs")
    raw = np.frombuffer(data, dtype=np.uint8)
    digit = np.zeros(raw.size + 2, dtype=bool)  # with a non-digit at either end
    np.greater_equal(raw, ord("0"), out=digit[1:-1])
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    start, end = edges[0::2], edges[1::2]
    size = end - start
    top = int(size.max(initial=1))
    if top > 19:  # 10**19 > 2**63: a nonzero digit 20 or more places from the end overflows
        long = size > 19
        head = np.column_stack((start[long], end[long] - 19)).ravel()
        if np.logical_or.reduceat(raw > ord("0"), head)[::2].any():
            raise OverflowError(_TOO_LARGE)
    windows = -(-min(top, 19) // 8)
    at = end + (24 - 8 * windows)  # where each token's most significant window starts
    size -= 8 * (windows - 1)  # the token's digits in that window, before clipping to 0..8
    # freed first: under this heap peak malloc keeps its pages mapped from
    # call to call, instead of trimming them and faulting them back in
    del digit, edges, start, end
    # every 8-byte window of the line behind 24 zero bytes; the one ending
    # 8j bytes before a token's end starts at byte end + 16 - 8j
    line = np.ndarray((raw.size + 17,), dtype="<u8", buffer=bytes(24) + data, strides=(1,))
    for j in range(windows):  # below 10**19 < 2**64: places from 20 on hold 0
        w = line[at]  # indexed, not taken: take would copy every window first
        w &= _LAST.take(size, mode="clip")
        w *= 10 << 8 | 1  # 10 a + b of each byte pair, in its high byte
        w >>= 8
        w &= 0x00FF00FF00FF00FF
        w *= 100 << 16 | 1  # 100 a + b of each pair of 16-bit lanes, in the high lane
        w >>= 16
        w &= 0x0000FFFF0000FFFF
        w *= 10000 << 32 | 1  # 10**4 a + b of the two 32-bit halves, in the high one
        w >>= 32
        vals = vals * 10**8 + w if j else w
        at += 8
        size += 8
    if vals.max(initial=0) > np.iinfo(np.int64).max:
        raise OverflowError(_TOO_LARGE)
    return vals.astype(np.int64)


def ints_to_text(values) -> str:
    """The line of nonnegative integers that `ints_from_text` reads back:
    decimal, no leading zeros, one space between values.  A value below 0
    or above 2**63 - 1 raises ValueError.

    Row i of a (count, width + 1) byte array holds a space and then the
    digits of values[i], written by repeated division by 10 in uint32
    (uint64 from width 10); a leading zero is written as NUL, as is the
    first row's space, and one `bytes.translate` drops every NUL.
    """
    x = integers(values, "values")
    if x.size == 0:
        return ""
    if x.min() < 0:
        raise ValueError(f"values must be nonnegative, not {x.min()}")
    top = int(x.max())
    if top > np.iinfo(np.int64).max:
        raise ValueError(f"values must be at most 2**63 - 1, not {top}")
    width = len(str(top))
    x = x.astype(np.uint32 if width < 10 else np.uint64)
    rows = np.full((x.size, width + 1), ord(" "), dtype=np.uint8)
    rows[0, 0] = 0  # no space before the first value
    q = x // 10
    rows[:, width] = x - 10 * q + ord("0")  # the units digit, of 0 too
    for j in range(width - 1, 0, -1):  # NUL left of the leading digit
        x, q = q, q // 10
        np.multiply(x - 10 * q + ord("0"), x > 0, out=rows[:, j], casting="unsafe")
    return rows.tobytes().translate(None, b"\0").decode()


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
