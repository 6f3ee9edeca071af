"""Piecewise-linear functions on [0,1] with exact rational knot abscissae.

Knot positions are stored as integer numerators over a single shared
denominator, so knots coming from different grids (x/(2n) for scaled
paths, a/n for exceedance interpolations) never collide or drift when
two functions are compared; only the ordinates are floating point.  One
evaluator serves every caller: on a block [lo, hi) of the lattice x/den,
ScaledFunction.eval_lattice evaluates in O(hi - lo) after one binary
search, so a caller can sweep the whole lattice in cache-sized blocks.
sup_distance, the union-grid sup over two functions' knots, is the
oracle the coupling sweeps are checked against bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import holds_bool, integer, integers


class ScaledFunction:
    """Linear interpolation through knots (t_num[i]/t_den, y[i]).

    Invariants: t_num is strictly increasing, starts at 0 and ends at
    t_den, so the function is total on [0,1].  The constructor is the one
    way in: it copies both arrays, checks them and freezes the copies.
    """

    __slots__ = ("t_num", "t_den", "y")

    def __init__(self, t_num, t_den: int, y):
        t_num = np.array(integers(t_num, "t_num"), dtype=np.int64)
        t_den = integer(t_den, "t_den", lo=1)
        arr = np.asarray(y)
        if t_num.shape != arr.shape:
            raise ValueError("knot arrays must be of equal length")
        if holds_bool(y) or not (arr.dtype.kind in "fiu" and np.isfinite(arr).all()):
            raise ValueError("y must be finite reals")
        y = np.array(arr, dtype=np.float64)
        if t_num.size < 2:
            raise ValueError("need at least the two endpoint knots")
        if t_num[0] != 0 or t_num[-1] != t_den:
            raise ValueError("knots must span [0,1] exactly")
        if np.any(np.diff(t_num) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        t_num.setflags(write=False)
        y.setflags(write=False)
        self.t_num = t_num
        self.t_den = t_den
        self.y = y

    def __len__(self) -> int:
        return int(self.t_num.size)

    def __neg__(self) -> "ScaledFunction":
        return ScaledFunction(self.t_num, self.t_den, -self.y)

    def eval_lattice(self, den: int, lo: int, hi: int):
        """The values at x/den for the lattice block lo <= x < hi, where
        0 <= lo < hi <= den + 1 and den is a multiple of t_den, in
        O(hi - lo + log len(self)).  A lattice point on a knot gets the
        stored ordinate bit for bit.

        One binary search finds the segment of lo and the last knot before
        hi; the segment of each later lattice point is that of lo plus the
        count of interior knots passed on the way, a block-local cumsum.
        """
        if den % self.t_den != 0:
            raise ValueError("den must be a multiple of the knot denominator")
        m = den // self.t_den
        if not 0 <= lo < hi <= den + 1:
            raise ValueError(f"lattice block [{lo}, {hi}) must lie in 0..{den}")
        # interior knot t is at or before the lattice point x iff t <= x // m
        inner = self.t_num[1:-1]
        first, last = np.searchsorted(inner, (lo // m, (hi - 1) // m), side="right")
        own = self.t_num[first:last + 2] * m  # knots of the segments first..last
        idx = np.zeros(hi - lo, dtype=np.intp)
        idx[own[1:-1] - lo] = 1
        np.cumsum(idx, out=idx)  # x = den lands in the last segment, at w = 1
        x = np.arange(lo, hi, dtype=np.float64)
        return self._interpolate(own, self.y[first:last + 2], idx, x)

    @staticmethod
    def _interpolate(own, y, idx, x):
        """y0 * (1 - w) + y1 * w at x[i]/den on segment idx[i], through the
        knots own/den and ordinates y; overwrites x.

        Numerators below 2**53 are exact in float64, so w equals numpy's
        int64 true-divide bit for bit, without its slow casting loop.
        """
        own = own.astype(np.float64)
        buf = own[idx]
        w = np.subtract(x, buf, out=x)
        w /= np.take(np.diff(own), idx, out=buf, mode="clip")  # idx is in range
        y1 = np.take(y[1:], idx, out=buf, mode="clip")
        y1 *= w
        np.subtract(1.0, w, out=w)
        y0 = y[idx]
        y0 *= w
        y0 += y1
        return y0

    def __repr__(self):
        return f"ScaledFunction({len(self)} knots, den={self.t_den})"


def sup_distance(f: ScaledFunction, g: ScaledFunction) -> float:
    """Exact sup-norm distance sup_t |f(t) - g(t)| over [0,1].

    For piecewise-linear f and g the difference is piecewise linear with
    breakpoints contained in the union of the two knot sets, so the
    supremum is attained at a union knot; no grid discretization enters.
    """
    lcm = math.lcm(f.t_den, g.t_den)
    owns = [h.t_num * (lcm // h.t_den) for h in (f, g)]
    grid = sorted_unique(np.concatenate(owns))
    # a grid point's segment: the count of interior knots at or before it
    fv, gv = (h._interpolate(own, h.y, np.searchsorted(own[1:-1], grid, side="right"),
                             grid.astype(np.float64)) for h, own in zip((f, g), owns))
    return float(np.max(np.abs(fv - gv)))


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-d integer array (np.unique's result).

    np.unique and np.union1d are not used: numpy >= 2.3 dedupes integers
    through a hash table, about 40x slower than a sort on these
    near-consecutive knot arrays.
    """
    a = np.sort(a, kind="stable")  # timsort merges presorted runs in linear time
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]

