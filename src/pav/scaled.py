"""Piecewise-linear functions on [0,1] with exact rational knot abscissae.

Knot positions are stored as integer numerators over a single shared
denominator, so knots coming from different grids (x/(2n) for scaled
paths, a/n for exceedance interpolations) never collide or drift when
two functions are compared; only the ordinates are floating point.  One
kernel, _interpolate, finds each lattice point's segment and gives its
value: eval_lattice applies it to a block [lo, hi) of the lattice x/den,
sup_distance to the union grid of two functions' knots, and the coupling
sweeps (experiments) to their candidate lattice points, from integer
knots and with no ScaledFunction.  Its weights are exact only while the
lattice denominator is below 2**53, so larger ones are refused.
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
        0 <= lo < hi <= den + 1, den < 2**53 and den is a multiple of
        t_den, by _interpolate.  A lattice point on a knot gets the stored
        ordinate bit for bit.
        """
        den, lo, hi = integer(den, "den", lo=1), integer(lo, "lo"), integer(hi, "hi")
        if den % self.t_den != 0:
            raise ValueError("den must be a multiple of the knot denominator")
        if den >= 2**53:
            raise ValueError(f"den={den} must be below 2**53, where the weights are exact")
        if not 0 <= lo < hi <= den + 1:
            raise ValueError(f"lattice block [{lo}, {hi}) must lie in 0..{den}")
        return _interpolate(self.t_num, self.y, den // self.t_den, np.arange(lo, hi), 1.0)

    def __repr__(self):
        return f"ScaledFunction({len(self)} knots, den={self.t_den})"


def sup_distance(f: ScaledFunction, g: ScaledFunction) -> float:
    """Exact sup-norm distance sup_t |f(t) - g(t)| over [0,1].

    For piecewise-linear f and g the difference is piecewise linear with
    breakpoints contained in the union of the two knot sets, so the
    supremum is attained at a union knot; no grid discretization enters.
    The knots' common denominator must be below 2**53.
    """
    lcm = math.lcm(f.t_den, g.t_den)
    if lcm >= 2**53:
        raise ValueError(f"the common knot denominator {lcm} must be below 2**53, "
                         "where the weights are exact")
    grid = sorted_unique(np.concatenate([h.t_num * (lcm // h.t_den) for h in (f, g)]))
    fv, gv = (_interpolate(h.t_num, h.y, lcm // h.t_den, grid, 1.0) for h in (f, g))
    return float(np.max(np.abs(fv - gv)))


def _interpolate(t, y, m: int, x, scale) -> np.ndarray:
    """The values at the ascending int64 lattice points x (at least one)
    of the interpolation through the knots (m t, y / scale), t strictly
    increasing int64 from 0 to at least max(x) / m, m t below 2**53.

    A point's segment is the count of interior knots at or before it;
    only the knots of the segments from x[0]'s to x[-1]'s are read.  The
    value is y0 * (1 - w) + y1 * w with w = (x - x0) / (x1 - x0): the
    numerators are exact in float64, so w equals numpy's int64
    true-divide bit for bit, without its slow casting loop, and a point
    on a knot gets that knot's ordinate.
    """
    idx = np.searchsorted(t[1:-1], x // m, side="right")
    first, last = idx[0], idx[-1]
    idx -= first
    own = (m * t[first:last + 2]).astype(np.float64)
    y = y[first:last + 2] / scale
    w = x.astype(np.float64)  # the one float copy of x, overwritten by w
    buf = own[idx]
    np.subtract(w, buf, out=w)
    w /= np.take(np.diff(own), idx, out=buf, mode="clip")  # idx is in range
    y1 = np.take(y[1:], idx, out=buf, mode="clip")
    y1 *= w
    np.subtract(1.0, w, out=w)
    y0 = y[idx]
    y0 *= w
    y0 += y1
    return y0


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-d integer array (np.unique's
    result), a itself when it is strictly increasing.

    np.unique and np.union1d are not used: numpy >= 2.3 dedupes integers
    through a hash table, about 40x slower than a sort on these
    near-consecutive knot arrays.
    """
    if (a[1:] > a[:-1]).all():  # index sets come sorted: no copy
        return a
    a = np.sort(a, kind="stable")  # timsort merges presorted runs in linear time
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]

