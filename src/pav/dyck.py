"""Dyck paths: validation, enumeration, exact uniform sampling, and the
run/excursion decompositions consumed by the bijections.

A path of semilength n is a sequence of 2n steps in {+1,-1} whose height
profile starts and ends at 0 and never goes negative.  Positions x are
0-indexed (0..2n); run and excursion indices are 1-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadStep,
    InvalidPath,
    NegativeExcursion,
    NotBalanced,
    NotReconstructible,
    OddLength,
    TooLarge,
    integer,
    integers,
)
from .rng import as_generator
from .scaled import ScaledFunction


class DyckPath:
    """Immutable Dyck path.

    The constructor is the one way to build a path, from a U/D string,
    an integer sequence or another path: it copies its input, checks it
    and freezes it.  Steps are held as a read-only int8 array of +1/-1
    beside the height profile gamma(0..2n) the check computes; the run
    and excursion tables are computed once on demand and cached.
    """

    __slots__ = ("_steps", "_heights", "_runs", "_excursions")

    def __init__(self, steps):
        if isinstance(steps, DyckPath):
            steps = steps._steps
        arr = (_steps_from_text(steps) if isinstance(steps, str)
               else integers(steps, "steps", BadStep))
        if arr.size % 2 != 0:
            raise OddLength(f"length {arr.size} is odd")
        if not (np.abs(arr) == 1).all():
            raise BadStep("steps must be +1 or -1")
        h = np.zeros(arr.size + 1, dtype=np.int64)
        h[1:] = arr  # cast first: an int8 -> int64 cumsum is 2.5x slower
        np.add.accumulate(h, out=h)
        if h[-1] != 0:
            raise NotBalanced(f"endpoint height {int(h[-1])} != 0")
        if h.min() < 0:
            x = int(np.argmax(h < 0))
            raise NegativeExcursion(f"gamma({x}) = {int(h[x])} < 0")
        self._steps = np.array(arr, dtype=np.int8)
        self._steps.setflags(write=False)
        h.setflags(write=False)
        self._heights = h
        self._runs = None
        self._excursions = None

    @property
    def steps(self) -> np.ndarray:
        return self._steps

    @property
    def n(self) -> int:
        """Semilength: number of up-steps."""
        return self._steps.size // 2

    @property
    def heights(self) -> np.ndarray:
        """gamma(x) for x = 0..2n (int64, read-only)."""
        return self._heights

    def to_text(self) -> str:
        return self._steps.tobytes().translate(_TEXT_OF_STEP).decode()

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        t = self.to_text()
        return f"DyckPath({t!r})" if len(t) <= 40 else f"DyckPath(n={self.n})"

    def __eq__(self, other):
        if not isinstance(other, DyckPath):
            return NotImplemented
        return self._steps.size == other._steps.size and bool(
            np.all(self._steps == other._steps)
        )

    def __hash__(self):
        return hash(self._steps.tobytes())


# the int8 steps +1 and -1 are the bytes 0x01 and 0xff
_TEXT_OF_STEP = bytes.maketrans(b"\x01\xff", b"UD")
_STEP_OF_TEXT = bytes.maketrans(b"UD", b"\x01\xff")


def _steps_from_text(text: str) -> np.ndarray:
    raw = text.encode()
    if not text.isascii() or raw.translate(None, b"UD"):
        bad = set(text) - {"U", "D"}
        raise BadStep(f"unexpected step characters: {sorted(bad)!r}")
    return np.frombuffer(raw.translate(_STEP_OF_TEXT), dtype=np.int8)


def from_text(text: str) -> DyckPath:
    """Parse a U/D string such as 'UUDUDD'."""
    return DyckPath(text)


ENUMERATE_LIMIT = 16


def enumerate_all(n: int):
    """Yield every Dyck path of semilength n exactly once.

    Order is lexicographic on the step string with U < D, so U^nD^n comes
    first and (UD)^n last.  Guarded at n <= 16: the count is the n-th
    Catalan number, ~35M at the limit.
    """
    n = integer(n, "n", lo=0)
    if n > ENUMERATE_LIMIT:
        raise TooLarge(f"n={n} exceeds enumeration guard {ENUMERATE_LIMIT}")

    buf = np.empty(2 * n, dtype=np.int8)

    def rec(pos: int, height: int):
        if pos == 2 * n:
            yield DyckPath(buf)
            return
        ups = (pos + height) // 2
        if ups < n:
            buf[pos] = 1
            yield from rec(pos + 1, height + 1)
        if height > 0:
            buf[pos] = -1
            yield from rec(pos + 1, height - 1)

    yield from rec(0, 0)


def sample_uniform(n: int, seed) -> DyckPath:
    """Draw an exactly uniform Dyck path of semilength n.

    Cycle-lemma construction: shuffle n up-steps and n+1 down-steps,
    rotate to just after the first prefix-sum minimum (the unique
    rotation that stays nonnegative until the final step lands at -1),
    and drop that final down-step.  Single O(n) pass, no rejection.

    ``seed`` may be a 64-bit int (an independent substream is derived
    from it) or a numpy Generator to draw from an existing stream.
    """
    n = integer(n, "n", lo=1)
    rng = as_generator(seed)
    walk = np.empty(2 * n + 2, dtype=np.int64)  # walk[0] = 0 is the empty prefix
    walk[0] = 0
    walk[1:n + 1] = 1
    walk[n + 1:] = -1
    # Fisher-Yates makes the same draws at any dtype; numpy swaps int64 fastest
    rng.shuffle(walk[1:])
    np.cumsum(walk, out=walk)  # walk[i]: the sum of the first i shuffled steps
    k = int(np.argmin(walk[1:]))  # first position attaining the minimum
    # the rotation after step k, less its final step: steps k+1..2n, then 0..k-1
    rotated = np.empty(2 * n, dtype=np.int8)
    np.subtract(walk[k + 2:], walk[k + 1:-1], out=rotated[:2 * n - k], casting="unsafe")
    np.subtract(walk[1:k + 1], walk[:k], out=rotated[2 * n - k:], casting="unsafe")
    del walk  # freed before the path's int64 heights are built
    try:
        return DyckPath(rotated)
    except InvalidPath as exc:  # also a dropped step other than -1
        raise NotReconstructible(f"cycle-lemma rotation is not a Dyck path: {exc}") from exc


@dataclass(frozen=True)
class RunDecomposition:
    """Maximal runs of a path: a_i up-run lengths, d_i down-run lengths,
    prefix sums A_i, D_i, and the run heights y_i = A_i - D_i.

    Arrays are 0-based storage for the 1-indexed quantities: a[i-1] is
    a_i, etc.  The run heights satisfy y_i = gamma(A_i + D_i), since
    position A_i + D_i is where the i-th down-run ends.
    """

    n: int
    a: np.ndarray
    d: np.ndarray
    A: np.ndarray
    D: np.ndarray

    @property
    def m(self) -> int:
        """Number of up-runs (equals number of down-runs)."""
        return int(self.a.size)

    @property
    def y(self) -> np.ndarray:
        """y_i = A_i - D_i for i = 1..m."""
        return self.A - self.D

    def set_A(self) -> np.ndarray:
        """The index set {A_1, ..., A_{m-1}} (excludes A_m = n)."""
        return self.A[:-1]

    def set_D(self) -> np.ndarray:
        """The index set {D_1, ..., D_{m-1}} (excludes D_m = n)."""
        return self.D[:-1]

    def complement_A(self) -> np.ndarray:
        """{1..n} minus the shifted set 1 + {A_1..A_{m-1}}, ascending."""
        mask = np.ones(self.n + 1, dtype=bool)
        mask[self.set_A() + 1] = False
        return np.flatnonzero(mask[1:]) + 1

    def complement_D(self) -> np.ndarray:
        """{1..n} minus {D_1..D_{m-1}}, ascending."""
        mask = np.ones(self.n + 1, dtype=bool)
        mask[self.set_D()] = False
        return np.flatnonzero(mask[1:]) + 1


def from_runs(up, down) -> DyckPath:
    """The path U^up[0] D^down[0] ... U^up[m-1] D^down[m-1] (a zero
    length merges the runs beside it).  Raises BadStep on non-integer or
    negative run lengths or unequal run counts; the DyckPath constructor
    checks the rest."""
    up, down = integers(up, "up", BadStep), integers(down, "down", BadStep)
    m = up.size
    if down.size != m:
        raise BadStep("up and down run counts differ")
    lengths = np.empty(2 * m, dtype=np.int64)
    lengths[0::2] = up
    lengths[1::2] = down
    if (lengths < 0).any():
        raise BadStep("run lengths must be nonnegative")
    return DyckPath(np.repeat(np.tile(np.array([1, -1], dtype=np.int8), m), lengths))


def runs(path: DyckPath) -> RunDecomposition:
    """Run-length decomposition (m = 0 runs for the empty path), cached on it read-only."""
    if path._runs is not None:
        return path._runs
    ends = np.concatenate(([0], path.steps, [0]), dtype=np.int8)  # a run starts at a change
    bounds = np.flatnonzero(ends[1:] != ends[:-1])
    lengths = np.diff(bounds)
    # A valid path starts with an up-run and ends with a down-run, so the
    # runs strictly alternate U,D,U,D,... with an even count.
    a = lengths[0::2]
    d = lengths[1::2]
    rd = RunDecomposition(n=path.n, a=a, d=d, A=np.cumsum(a), D=np.cumsum(d))
    for arr in (rd.a, rd.d, rd.A, rd.D):
        arr.setflags(write=False)
    path._runs = rd
    return rd


@dataclass(frozen=True)
class ExcursionTable:
    """Per-up-step excursion parameters.

    v[i-1] is the position after the i-th up-step, h[i-1] the height
    there, l[i-1] the (even) length of the excursion it opens.  The
    excursion occupies positions [v_i - 1, v_i - 1 + l_i].  The arrays
    are read-only: the table is cached on its path and shared by every
    caller.
    """

    n: int
    v: np.ndarray
    h: np.ndarray
    l: np.ndarray

    def intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """(start, end) position arrays of each excursion."""
        start = self.v - 1
        return start, start + self.l

    def fringe_sizes(self) -> np.ndarray:
        """l_i / 2: vertex count of the fringe subtree rooted at v_i."""
        return self.l >> 1


def excursions(path: DyckPath) -> ExcursionTable:
    """(v_i, h_i, l_i) for all n excursions, computed once per path in
    O(n log n) and cached on it.

    Closing rule: the excursion opened by the up-step at position s ends
    at the path's next visit to height gamma(s).  One stable argsort of
    gamma(0..2n) lists each height's visits in order, so that visit
    follows s in it.
    """
    if path._excursions is not None:
        return path._excursions
    gamma = path.heights
    # Heights are O(sqrt n) on uniform paths; below 2**16 numpy's stable
    # argsort is a radix sort.
    order = np.argsort(gamma.astype(np.min_scalar_type(gamma.max())), kind="stable")
    after = np.empty_like(order)
    after[order[:-1]] = order[1:]  # an up-step's start is never a height's last visit
    del order  # freed before the table is built
    start = np.flatnonzero(path.steps == 1)  # the position before each up-step
    v = start + 1
    table = ExcursionTable(n=path.n, v=v, h=gamma[v], l=after[start] - start)
    if np.any(table.l & 1):  # an excursion returns to its level: even length
        raise NotReconstructible("odd excursion length: corrupted path state")
    for arr in (table.v, table.h, table.l):
        arr.setflags(write=False)
    path._excursions = table
    return table


def max_height(path: DyckPath) -> int:
    """M(gamma) = max_x gamma(x)."""
    return int(path.heights.max())


def scaled_path(path: DyckPath) -> ScaledFunction:
    """t -> gamma(2nt)/sqrt(2n) as a piecewise-linear function on [0,1],
    with knots at every lattice abscissa x/(2n)."""
    n = path.n
    if n < 1:
        raise ValueError("n must be >= 1")
    two_n = 2 * n
    return ScaledFunction(
        np.arange(two_n + 1, dtype=np.int64),
        two_n,
        path.heights / np.sqrt(two_n),
    )
