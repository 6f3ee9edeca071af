"""Moderate-deviation regularity conditions on Dyck paths.

Four conditions are evaluated exactly as stated, with strict
inequalities and fractional-power thresholds resolved in exact integer
arithmetic (0.4 n^0.6 becomes 3125 v^5 < 32 n^3, etc.), so boundary
cases can never flip on floating-point noise:

  (a) max gamma(x) < 0.4 n^0.6
  (b) |gamma(x)-gamma(y)| < 0.5 n^0.4 whenever |x-y| < 2 n^0.6
  (c) |A_i-A_j-2(i-j)| < 0.1|i-j|^0.6 whenever |i-j| >= n^0.3
  (d) the same for the down-run prefix sums D

At desk scale the conditions typically fail (the (a) threshold sits
below the typical max height until n is astronomically large), so the
checker's value is exactness plus the conditional lemmas it gates:
frequency estimates are a diagnostic, not a target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dyck import DyckPath, runs


# ---------------------------------------------------------------------------
# exact threshold arithmetic

# Each threshold is coef * n^exp with rational coef and exp.
HEIGHT = (Fraction(2, 5), Fraction(3, 5))  # (a): 0.4 n^0.6
SPREAD = (Fraction(1, 2), Fraction(2, 5))  # (b): 0.5 n^0.4
REACH = (Fraction(2), Fraction(3, 5))  # (b): pairs with |x - y| < 2 n^0.6
PAIR = (Fraction(1, 10), Fraction(3, 5))  # (c)/(d): 0.1 |i - j|^0.6
MIN_GAP = (Fraction(1), Fraction(3, 10))  # (c)/(d): pairs with |i - j| >= n^0.3


def below(v: int, n: int, coef: Fraction | int, exp: Fraction) -> bool:
    """v < coef * n^exp, exactly, for nonnegative integers v, n and coef > 0.

    With exp = p/q this is (coef.den * v)^q < coef.num^q * n^p, so
    0.4 n^0.6 becomes 3125 v^5 < 32 n^3.
    """
    p, q = exp.numerator, exp.denominator
    return (coef.denominator * v) ** q < coef.numerator**q * n**p


def largest_below(n: int, coef: Fraction | int, exp: Fraction) -> int:
    """Largest integer v >= 0 with v < coef * n^exp (0 if there is none)."""
    v = max(0, int(coef * n**exp))  # float seed; the loops make it exact
    while below(v + 1, n, coef, exp):
        v += 1
    while v > 0 and not below(v, n, coef, exp):
        v -= 1
    return v


def min_gap_0x3(n: int) -> int:
    """Smallest integer g >= 1 with g >= n^0.3."""
    return largest_below(n, *MIN_GAP) + 1


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PetrovReport:
    """Outcome of the four conditions on one path.

    witnesses holds, for each failed condition, one violating tuple that
    re-verifies against the literal inequality; margins holds per
    condition the worst-case slack threshold-minus-value (negative when
    failed).  A passing margin is the exact minimum slack, a failing one
    the slack of the witness.
    """

    n: int
    m: int
    cond_a: bool
    cond_b: bool
    cond_c: bool
    cond_d: bool
    witnesses: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def all_hold(self) -> bool:
        return self.cond_a and self.cond_b and self.cond_c and self.cond_d

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "conditions": {
                "a": self.cond_a,
                "b": self.cond_b,
                "c": self.cond_c,
                "d": self.cond_d,
            },
            "all_hold": self.all_hold,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
            "margins": {
                k: (v if v == v and abs(v) != float("inf") else None)
                for k, v in self.margins.items()
            },
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# sliding-window machinery (vectorized O(n))


def _sliding_extreme(x: np.ndarray, width: int, op) -> np.ndarray:
    """op (np.maximum or np.minimum) over every window of `width`
    consecutive entries, 1 <= width <= x.size.

    Two-block prefix/suffix trick: cut x into blocks of `width`; a window
    is the suffix run of the block holding its start plus the prefix run
    of the block holding its end.  Both runs lie inside the window, so the
    padding that fills the last block is never read.
    """
    blocks = np.concatenate((x, x[: -x.size % width])).reshape(-1, width)
    pre = op.accumulate(blocks, axis=1).ravel()
    suf = np.empty_like(blocks)
    op.accumulate(blocks[:, ::-1], axis=1, out=suf[:, ::-1])  # suf stays in x's order
    nwin = x.size - width + 1
    return op(suf.ravel()[:nwin], pre[width - 1 : width - 1 + nwin])


def _window_range_max(x: np.ndarray, width: int) -> tuple[int, int]:
    """(max over windows of (max-min), window start index achieving it)."""
    hi = _sliding_extreme(x, width, np.maximum)
    lo = _sliding_extreme(x, width, np.minimum)
    ranges = hi - lo
    w = int(np.argmax(ranges))
    return int(ranges[w]), w


def _gap_max(x: np.ndarray, g: int) -> tuple[int, int]:
    """(max |x[t+g]-x[t]|, argmax t) over all pairs at distance exactly g."""
    d = np.abs(x[g:] - x[:-g])
    t = int(np.argmax(d))
    return int(d[t]), t


# ---------------------------------------------------------------------------
# the checker


def check_petrov(path: DyckPath) -> PetrovReport:
    """Evaluate conditions (a)-(d) on a path.

    Conditions (a) and (b) are O(n) vectorized; the pair conditions (c)/(d)
    are decided by _pair_condition.  All threshold comparisons are exact,
    and a passing condition's margin is its exact minimum slack.
    """
    n = path.n
    if n < 1:
        raise ValueError("n must be >= 1")
    gamma = path.heights
    rd = runs(path)
    m = rd.m
    witnesses: dict = {}
    margins: dict = {}
    notes: list[str] = []

    # (a)
    x_max = int(np.argmax(gamma))
    g_max = int(gamma[x_max])
    cond_a = below(g_max, n, *HEIGHT)
    margins["a"] = 0.4 * n**0.6 - g_max
    if not cond_a:
        witnesses["a"] = (x_max, g_max)

    # (b): all pairs |x - y| < 2 n^0.6, i.e. gap <= W
    w_gap = largest_below(n, *REACH)
    worst_range, w_start = _window_range_max(gamma, w_gap + 1)
    cond_b = below(worst_range, n, *SPREAD)
    margins["b"] = 0.5 * n**0.4 - worst_range
    if not cond_b:
        block = gamma[w_start : w_start + w_gap + 1]
        x = w_start + int(np.argmax(block))
        y = w_start + int(np.argmin(block))
        witnesses["b"] = (x, y, int(gamma[x]), int(gamma[y]))

    # (c)/(d): pairs of run indices at gap >= n^0.3
    g0 = min_gap_0x3(n)
    idx = np.arange(1, m + 1, dtype=np.int64)
    holds = {}
    for name, series in (("c", rd.A - 2 * idx), ("d", rd.D - 2 * idx)):
        if m - 1 < g0:
            notes.append(f"({name}) vacuous: no index pairs at gap >= n^0.3")
        holds[name], wit, margins[name] = _pair_condition(series, g0)
        if wit is not None:
            witnesses[name] = wit

    return PetrovReport(
        n=n,
        m=m,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=holds["c"],
        cond_d=holds["d"],
        witnesses=witnesses,
        margins=margins,
        notes=tuple(notes),
    )


def _pair_condition(series: np.ndarray, g0: int):
    """Check |B_i - B_j| < 0.1 |i-j|^0.6 for every gap >= g0, exactly.

    Returns (ok, witness, margin) as a gap-by-gap enumeration would: the
    witness (i, j, |B_i - B_j|) is the worst pair at the smallest failing
    gap, and the margin is that gap's slack, or on success the minimum
    slack over all gaps.

    Gaps are taken in intervals [lo, hi] on a geometric grid.  The windowed
    range R(hi) (max |B_i - B_j| over gaps <= hi) bounds every gap of the
    interval while the threshold grows with the gap, so an interval is
    skipped when R(hi) < 0.1 lo^0.6 certifies it and its slack bound
    0.1 lo^0.6 - R(hi) cannot lower the margin found so far.  Every other
    interval is scanned gap by gap.
    """
    margin = float("inf")
    for lo, hi in _gap_intervals(g0, series.size - 1):
        if margin < float("inf"):  # a skip needs a margin to compare against
            envelope, _ = _window_range_max(series, hi + 1)
            if below(envelope, lo, *PAIR) and 0.1 * lo**0.6 - envelope >= margin:
                continue
        for g in range(lo, hi + 1):
            worst, t = _gap_max(series, g)
            if not below(worst, g, *PAIR):
                return False, (t + 1, t + 1 + g, worst), 0.1 * g**0.6 - worst
            margin = min(margin, 0.1 * g**0.6 - worst)
    return True, None, margin


def _gap_intervals(g0: int, top: int):
    """Consecutive gap intervals [lo, hi] covering g0..top, growing by 1.5x."""
    lo = hi = g0
    while lo <= top:
        yield lo, hi
        lo, hi = hi + 1, min(top, max(hi + 1, int(hi * 1.5)))


# ---------------------------------------------------------------------------
# derived regularity claims gated on the conditions


@dataclass(frozen=True)
class VoucherReport:
    """Derived claims checked on a path where the conditions hold.

    When the path fails the conditions the claims are not asserted:
    vacuous is True and ok is True by convention (flagged).
    """

    applicable: bool
    vacuous: bool
    ok: bool
    y_edge_ok: bool
    increments_ok: bool
    y_increment_ok: bool
    window_hits_d: bool
    window_hits_complement: bool


def check_voucher(path: DyckPath, petrov_report: PetrovReport | None = None) -> VoucherReport:
    """Verify the derived claims:

      - y_i < n^0.4 for i < n^0.6 and for i > m - n^0.6,
      - a_i, d_i < n^0.18 for all i (hence |y_i - y_{i-1}| < n^0.18),
      - every window of >= n^0.3 consecutive indices in {1..n} meets both
        the set {D_i} and its complement.

    All comparisons exact; claims are only asserted when the conditions
    hold on the path.
    """
    if petrov_report is None:
        petrov_report = check_petrov(path)
    if not petrov_report.all_hold:
        return VoucherReport(
            applicable=False, vacuous=True, ok=True,
            y_edge_ok=True, increments_ok=True, y_increment_ok=True,
            window_hits_d=True, window_hits_complement=True,
        )
    n = path.n
    rd = runs(path)
    m = rd.m

    # every claim is v < threshold, monotone in v: one test on each max
    def all_below(values, exp):
        return values.size == 0 or below(int(values.max()), n, 1, exp)

    near = largest_below(n, 1, Fraction(3, 5))  # i < n^0.6 iff i <= near
    y = rd.y  # y_i sits at y[i - 1]: the edge runs are i <= near and i >= m - near
    y_edge_ok = all_below(np.concatenate((y[:near], y[max(0, m - 1 - near) :])), Fraction(2, 5))

    increments_ok = all_below(rd.a, Fraction(9, 50)) and all_below(rd.d, Fraction(9, 50))
    y_steps = np.abs(np.diff(y, prepend=0))
    y_increment_ok = all_below(y_steps, Fraction(9, 50))

    # a window of `window` indices in 1..n misses a set iff the set, fenced
    # by 0 and n + 1, has a gap > window
    window = min_gap_0x3(n)
    window_hits_d, window_hits_comp = (
        int(np.diff(s, prepend=0, append=n + 1).max()) <= window
        for s in (rd.set_D(), rd.complement_D())
    )

    ok = y_edge_ok and increments_ok and y_increment_ok and window_hits_d and window_hits_comp
    return VoucherReport(
        applicable=True, vacuous=False, ok=ok,
        y_edge_ok=y_edge_ok, increments_ok=increments_ok,
        y_increment_ok=y_increment_ok,
        window_hits_d=window_hits_d, window_hits_complement=window_hits_comp,
    )


# ---------------------------------------------------------------------------
# Monte Carlo frequency diagnostic


def petrov_frequency(n: int, replicates: int, seed: int, workers: int = 1) -> dict:
    """Fraction of uniform paths of semilength n passing all conditions,
    with per-condition failure rates: the "petrov" experiment's means.

    Deterministic given (n, replicates, seed) regardless of workers.
    """
    from .experiments import ExperimentConfig, run_experiment  # it imports this module

    config = ExperimentConfig(theorem_id="petrov", n_grid=(n,), replicates=replicates, seed=seed)
    mean = {row["statistic"]: row["mean"] for row in run_experiment(config, workers).results}
    return {
        "n": config.n_grid[0],
        "replicates": config.replicates,
        "frequency_all": mean["all_hold"],
        "failure_rate": {k: 1.0 - mean[f"cond_{k}"] for k in "abcd"},
    }
