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

import numpy as np

from .dyck import DyckPath, runs
from .errors import EmptySample

_I64_MIN = np.iinfo(np.int64).min
_I64_MAX = np.iinfo(np.int64).max


# ---------------------------------------------------------------------------
# exact threshold arithmetic


def lt_04_n06(v: int, n: int) -> bool:
    """v < 0.4 * n^0.6, exactly."""
    return 3125 * v**5 < 32 * n**3


def lt_05_n04(v: int, n: int) -> bool:
    """v < 0.5 * n^0.4, exactly."""
    return 32 * v**5 < n**2


def lt_2_n06(v: int, n: int) -> bool:
    """v < 2 * n^0.6, exactly."""
    return v**5 < 32 * n**3


def lt_01_g06(v: int, g: int) -> bool:
    """v < 0.1 * g^0.6, exactly."""
    return 10**5 * v**5 < g**3


def ge_n03(g: int, n: int) -> bool:
    """g >= n^0.3, exactly."""
    return g**10 >= n**3


def lt_n04(v: int, n: int) -> bool:
    """v < n^0.4, exactly."""
    return v**5 < n**2


def lt_n06(v: int, n: int) -> bool:
    """v < n^0.6, exactly."""
    return v**5 < n**3


def lt_n018(v: int, n: int) -> bool:
    """v < n^0.18, exactly."""
    return v**50 < n**9


def _largest(pred, n: int, hint: float) -> int:
    """Largest nonnegative integer v with pred(v, n), seeded by a float."""
    v = max(0, int(hint))
    while pred(v + 1, n):
        v += 1
    while v > 0 and not pred(v, n):
        v -= 1
    return v


def min_gap_0x3(n: int) -> int:
    """Smallest integer g >= 1 with g >= n^0.3."""
    g = max(1, int(n**0.3))
    while not ge_n03(g, n):
        g += 1
    while g > 1 and ge_n03(g - 1, n):
        g -= 1
    return g


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PetrovReport:
    """Outcome of the four conditions on one path.

    witnesses holds, for each failed condition, one violating tuple that
    re-verifies against the literal inequality; margins holds per
    condition the worst-case slack threshold-minus-value (negative when
    failed).  For the pair conditions in fast mode a passing margin is a
    certified lower bound rather than the exact minimum.
    """

    n: int
    m: int
    cond_a: bool
    cond_b: bool
    cond_c: bool
    cond_d: bool
    witnesses: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    mode: str = "enumerated"
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
            "mode": self.mode,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# sliding-window machinery (vectorized O(n))


def _sliding_extreme(x: np.ndarray, width: int, kind: str) -> np.ndarray:
    """Max or min over every contiguous window of the given width.

    Two-block prefix/suffix trick: each window spans at most two blocks
    of size `width`, so its extreme is the max/min of one suffix run and
    one prefix run.
    """
    op = np.maximum if kind == "max" else np.minimum
    fill = _I64_MIN if kind == "max" else _I64_MAX
    length = x.size
    if width >= length:
        return np.array([x.max() if kind == "max" else x.min()], dtype=np.int64)
    pad = (-length) % width
    xp = np.concatenate([x, np.full(pad, fill, dtype=np.int64)])
    blocks = xp.reshape(-1, width)
    pre = op.accumulate(blocks, axis=1).ravel()
    suf = op.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    nwin = length - width + 1
    return op(suf[:nwin], pre[width - 1 : width - 1 + nwin])


def _window_range_max(x: np.ndarray, width: int) -> tuple[int, int]:
    """(max over windows of (max-min), window start index achieving it)."""
    hi = _sliding_extreme(x, width, "max")
    lo = _sliding_extreme(x, width, "min")
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


def check_petrov(path: DyckPath, pair_mode: str = "auto") -> PetrovReport:
    """Evaluate conditions (a)-(d) on a path.

    pair_mode selects how the pair conditions (c)/(d) are computed:
    "enumerate" checks every gap (O(m^2) worst case), "fast" prunes gap
    intervals with a monotone range envelope on a geometric grid, and
    "auto" enumerates below m = 2000.  Conditions (a) and (b) are always
    O(n) vectorized.  All threshold comparisons are exact.
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
    cond_a = lt_04_n06(g_max, n)
    margins["a"] = 0.4 * n**0.6 - g_max
    if not cond_a:
        witnesses["a"] = (x_max, g_max)

    # (b): all pairs |x - y| < 2 n^0.6, i.e. gap <= W
    w_gap = _largest(lt_2_n06, n, 2 * n**0.6)
    worst_range, w_start = _window_range_max(gamma, w_gap + 1)
    cond_b = lt_05_n04(worst_range, n)
    margins["b"] = 0.5 * n**0.4 - worst_range
    if not cond_b:
        block = gamma[w_start : w_start + w_gap + 1]
        x = w_start + int(np.argmax(block))
        y = w_start + int(np.argmin(block))
        witnesses["b"] = (x, y, int(gamma[x]), int(gamma[y]))

    # (c)/(d): pairs of run indices at gap >= n^0.3
    g0 = min_gap_0x3(n)
    if pair_mode == "auto":
        pair_mode = "enumerate" if m < 2000 else "fast"
    idx = np.arange(1, m + 1, dtype=np.int64)
    for name, series in (("c", rd.A - 2 * idx), ("d", rd.D - 2 * idx)):
        if m - 1 < g0:
            margins[name] = float("inf")
            notes.append(f"({name}) vacuous: no index pairs at gap >= n^0.3")
            ok = True
        elif pair_mode == "enumerate":
            ok, wit, margin = _pair_condition_enumerate(series, g0)
            margins[name] = margin
            if not ok:
                witnesses[name] = wit
        else:
            ok, wit, margin = _pair_condition_fast(series, g0)
            margins[name] = margin
            if not ok:
                witnesses[name] = wit
        if name == "c":
            cond_c = ok
        else:
            cond_d = ok

    return PetrovReport(
        n=n,
        m=m,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=cond_c,
        cond_d=cond_d,
        witnesses=witnesses,
        margins=margins,
        mode=pair_mode,
        notes=tuple(notes),
    )


def _pair_condition_enumerate(series: np.ndarray, g0: int):
    """Check |B_i - B_j| < 0.1 |i-j|^0.6 for every gap >= g0, exactly."""
    m = series.size
    margin = float("inf")
    for g in range(g0, m):
        worst, t = _gap_max(series, g)
        if not lt_01_g06(worst, g):
            return False, (t + 1, t + 1 + g, worst), 0.1 * g**0.6 - worst
        margin = min(margin, 0.1 * g**0.6 - worst)
    return True, None, margin


def _pair_condition_fast(series: np.ndarray, g0: int):
    """Grid-pruned pair check.

    The windowed range R(g) (max |B_i - B_j| over gaps <= g) is
    nondecreasing while the threshold 0.1 g^0.6 grows, so an interval of
    gaps [lo, hi] is safe whenever R(hi) < 0.1 lo^0.6; only unsafe
    intervals are enumerated gap by gap.
    """
    m = series.size
    top = m - 1
    grid = [g0]
    while grid[-1] < top:
        grid.append(min(top, max(grid[-1] + 1, int(grid[-1] * 1.5))))
    margin = float("inf")
    lo = g0
    for hi in grid:
        if hi < lo:
            continue
        envelope, _ = _window_range_max(series, hi + 1)
        if lt_01_g06(envelope, lo):
            margin = min(margin, 0.1 * lo**0.6 - envelope)
        else:
            for g in range(lo, hi + 1):
                worst, t = _gap_max(series, g)
                if not lt_01_g06(worst, g):
                    return False, (t + 1, t + 1 + g, worst), 0.1 * g**0.6 - worst
                margin = min(margin, 0.1 * g**0.6 - worst)
        lo = hi + 1
    return True, None, margin


def check_petrov_oracle(path: DyckPath) -> PetrovReport:
    """Literal quantifier enumeration of all four conditions.

    Every stated pair is visited (gap by gap); intended as the test
    oracle and for small inputs only: O(n * n^0.6 + m^2).
    """
    n = path.n
    gamma = path.heights
    rd = runs(path)
    m = rd.m
    witnesses: dict = {}
    margins: dict = {}
    notes: list[str] = []

    x_max = int(np.argmax(gamma))
    g_max = int(gamma[x_max])
    cond_a = lt_04_n06(g_max, n)
    margins["a"] = 0.4 * n**0.6 - g_max
    if not cond_a:
        witnesses["a"] = (x_max, g_max)

    w_gap = _largest(lt_2_n06, n, 2 * n**0.6)
    worst_range = 0
    wit_b = None
    for g in range(1, min(w_gap, gamma.size - 1) + 1):
        worst, t = _gap_max(gamma, g)
        if worst > worst_range:
            worst_range = worst
            wit_b = (t, t + g, int(gamma[t]), int(gamma[t + g]))
    cond_b = lt_05_n04(worst_range, n)
    margins["b"] = 0.5 * n**0.4 - worst_range
    if not cond_b:
        witnesses["b"] = wit_b

    g0 = min_gap_0x3(n)
    idx = np.arange(1, m + 1, dtype=np.int64)
    results = {}
    for name, series in (("c", rd.A - 2 * idx), ("d", rd.D - 2 * idx)):
        if m - 1 < g0:
            results[name] = True
            margins[name] = float("inf")
            notes.append(f"({name}) vacuous: no index pairs at gap >= n^0.3")
            continue
        ok, wit, margin = _pair_condition_enumerate(series, g0)
        results[name] = ok
        margins[name] = margin
        if not ok:
            witnesses[name] = wit

    return PetrovReport(
        n=n,
        m=m,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=results["c"],
        cond_d=results["d"],
        witnesses=witnesses,
        margins=margins,
        mode="oracle",
        notes=tuple(notes),
    )


def witness_violates(path: DyckPath, condition: str, witness: tuple) -> bool:
    """Re-evaluate a reported witness against the literal inequality."""
    n = path.n
    gamma = path.heights
    rd = runs(path)
    if condition == "a":
        x, val = witness
        return int(gamma[x]) == val and not lt_04_n06(val, n)
    if condition == "b":
        x, y, gx, gy = witness
        gap = abs(x - y)
        return (
            int(gamma[x]) == gx
            and int(gamma[y]) == gy
            and lt_2_n06(gap, n)
            and not lt_05_n04(abs(gx - gy), n)
        )
    if condition in ("c", "d"):
        i, j, dev = witness
        prefix = rd.A if condition == "c" else rd.D
        g = abs(j - i)
        actual = abs(int(prefix[j - 1] - prefix[i - 1]) - 2 * (j - i))
        return actual == dev and ge_n03(g, n) and not lt_01_g06(dev, g)
    raise ValueError(f"unknown condition {condition!r}")


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
    n = path.n
    rd = runs(path)
    m = rd.m

    if not petrov_report.all_hold:
        return VoucherReport(
            applicable=False, vacuous=True, ok=True,
            y_edge_ok=True, increments_ok=True, y_increment_ok=True,
            window_hits_d=True, window_hits_complement=True,
        )

    i_arr = np.arange(1, m + 1, dtype=np.int64)
    y = rd.y
    edge = np.array(
        [lt_n06(int(i), n) or lt_n06(int(m - i), n) for i in i_arr], dtype=bool
    )
    y_edge_ok = all(lt_n04(int(v), n) for v in y[edge])

    increments_ok = all(lt_n018(int(v), n) for v in rd.a) and all(
        lt_n018(int(v), n) for v in rd.d
    )
    y_steps = np.abs(np.diff(np.concatenate(([0], y))))
    y_increment_ok = all(lt_n018(int(v), n) for v in y_steps)

    window = min_gap_0x3(n)
    d_set = rd.set_D()
    if window > n:
        window_hits_d = window_hits_comp = True
    else:
        fenced = np.concatenate(([0], d_set, [n + 1]))
        max_hole = int(np.max(np.diff(fenced))) - 1  # longest run missing D
        window_hits_d = max_hole < window
        if d_set.size == 0:
            max_streak = 0
        else:
            breaks = np.nonzero(np.diff(d_set) != 1)[0]
            ends = np.concatenate((breaks, [d_set.size - 1]))
            starts = np.concatenate(([0], breaks + 1))
            max_streak = int(np.max(ends - starts)) + 1  # longest run inside D
        window_hits_comp = max_streak < window

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

    if replicates < 1:
        raise EmptySample("replicates must be >= 1")
    config = ExperimentConfig(theorem_id="petrov", n_grid=(n,), replicates=replicates, seed=seed)
    mean = {row["statistic"]: row["mean"] for row in run_experiment(config, workers).results}
    return {
        "n": n,
        "replicates": replicates,
        "frequency_all": mean["all_hold"],
        "failure_rate": {k: 1.0 - mean[f"cond_{k}"] for k in "abcd"},
    }
