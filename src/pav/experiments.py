"""Monte Carlo and exact-formula experiments that turn the asymptotic
statements into finite-n convergence measurements.

Each replicate is a pure function of (master seed, n, replicate index),
so reports are bitwise reproducible at any worker count.  Sup distances
between the scaled path and the interpolated exceedance functions are
exact maxima over the lattice x/(2n), which holds every knot of both.
They are computed from the integer knots (a, E(a)) of the forward
map's image (perms._knots), with no ScaledFunction: a run of the lattice
is swept, in cache-sized blocks, only if an integer bound on its values
in units of 1/sqrt(2n) reaches the best, so the result is the whole
sweep's bit for bit.  Exact targets come from closed forms: the moment
oracle's E[sum_x gamma(x)] = (4^n - binom(2n+1, n)) / C_n, and the
subtree theorem's E[hat_xi_k] = k (2n+3-2k) T_k / (2 (n+1) C_n) - 1/2
with T_k = C_{k-1} binom(2(n+1-k), n+1-k), its tail sum telescoped.
Limit constants enter only through the acceptance tests.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bij231, bij321
from ._version import __version__
from .dyck import DyckPath, excursions, max_height, sample_uniform
from .errors import BadConfig, DomainError, NotReconstructible, TooLarge, integer, integers, real
from .parallel import effective_workers, replicate_map
from .perms import _knots, exceedance_process, max_deficit
from .petrov import check_petrov
from .rng import as_generator, substream
from .scaled import _interpolate, sorted_unique
from .trees import catalan, expected_hat_xi, subtree_size_limit


# ---------------------------------------------------------------------------
# pathwise statistics


# Lattice points per block of the coupling sweeps: the sparse index sets of
# random_index leave long candidate runs, up to all 2n + 1 points.
LATTICE_BLOCK = 1 << 14


def _sweep_runs(path: DyckPath, t: np.ndarray, e: np.ndarray, op):
    """(starts, stops) of the lattice runs [start, stop), in order, that
    hold the maximum over x = 0..2n of |op(G, f)| at x/(2n), op np.add or
    np.subtract and f through the knots (t/n, e/sqrt(2n)) (perms._knots):
    the maximal runs of consecutive candidate segments of f, each with its
    end knots.

    In units of 1/sqrt(2n) the knot values d = |op(gamma(2a), E(a))| are
    integers.  A +-1 walk strays at most L/2 steps from its chord over L
    steps, so the integer max(d0, d1) + L // 2 bounds a segment of L
    lattice steps; it is a candidate iff that reaches max(d).  A swept value
    lies within 32 * 2**-53 * n units of the exact one, under 1/2 for
    n < 2**47 (test_sups_within_the_error_bound_of_the_integer_oracle):
    the knot attaining max(d) ends a candidate, so a run holds it, and it
    sweeps above every point outside.
    """
    d = op(path.heights[::2][t], e)
    np.abs(d, out=d)
    bound = np.maximum(d[:-1], d[1:])
    bound += t[1:]  # L // 2 = a1 - a0
    bound -= t[:-1]
    edge = 2 * t[np.flatnonzero(np.diff(bound >= d.max(), prepend=False, append=False))]
    return edge[::2], edge[1::2] + 1


def _mirror_runs(e: np.ndarray):
    """(starts, stops) of the runs [start, stop) of 0..n, in order, that
    hold the maximum of |F_plus + F_minus| at a/n, e = E(0..n) the
    exceedances of a 321-avoiding permutation.

    Every a is a knot of F_plus (E(a) >= 0) or of F_minus (E(a) <= 0), so
    both are knots where E(a) = 0, and the sum is 0 there.  A maximal run
    of E > 0 lies inside one segment of F_minus, a run of E < 0 inside one
    of F_plus (a run through n ends on F_plus' anchor (n, 0)), and on a
    321-avoider E never falls along such a run: its exceedance values
    increase, and so do its other values (perms.avoids_321).  So, with c0
    and c1 the other function's end values and E running from e0 to e1,
    the sum lies in [min(c) + e0, max(c) + e1] on the run: |sum| is at most
    max(max(c) + e1, -min(c) - e0) there, at least min(c) + e1 at its last
    point and at least -max(c) - e0 at its first.  A run is a candidate iff
    its upper bound reaches the largest lower bound; all are integers in
    units of 1/sqrt(2n), so by _sweep_runs' error bound the sweep finds the
    whole sweep's maximum.  A fall along a run, which no 321-avoider has,
    raises NotReconstructible.
    """
    sign = (e > 0).view(np.int8)
    sign -= e < 0
    cut = np.ones(e.size + 1, dtype=bool)  # runs start at 0 and at each change of sign
    np.not_equal(sign[1:], sign[:-1], out=cut[1:-1])
    falls = e[1:] < e[:-1]
    if np.greater(falls, cut[1:-1], out=falls).any():
        raise NotReconstructible("exceedances fall along a run of one sign: the image holds a 321")
    edge = np.flatnonzero(cut)  # run j is [edge[j], edge[j + 1])
    del sign, cut, falls
    # first: E at each run's first point, then F_plus' anchor value 0 at n + 1;
    # last: 0, then E at each run's last point.  A run's c0 is the previous
    # run's last value and its c1 the next run's first.
    first, last = np.zeros(edge.size, dtype=np.int64), np.zeros(edge.size, dtype=np.int64)
    np.take(e, edge[:-1], out=first[:-1], mode="clip")  # in range: unbuffered
    np.take(e, edge[1:] - 1, out=last[1:], mode="clip")
    zero = np.flatnonzero(first[:-1] == 0)  # the runs of E = 0, the one at 0 among them
    e0, c1, c0, e1 = first[:-1], first[1:], last[:-1], last[1:]
    lo, hi = np.minimum(c0, c1), np.maximum(c0, c1)  # c0 and c1 are spent
    lower = lo + e1
    lo += e0
    np.negative(np.add(hi, e0, out=e0), out=e0)
    np.maximum(lower, e0, out=lower)  # max(lo + e1, -(hi + e0))
    lower[zero] = 0  # the sum is 0 on them
    upper = np.add(hi, e1, out=hi)
    np.maximum(upper, np.negative(lo, out=lo), out=upper)  # max(hi + e1, -(lo + e0))
    keep = upper >= lower.max()
    keep[zero] = False
    return edge[:-1][keep], edge[1:][keep]


def _sweep(runs, values) -> float:
    """max |values(x)| over the lattice points x of the runs (starts,
    stops), in blocks of at most LATTICE_BLOCK points; values maps the
    int64 x to a fresh float64 array."""
    starts, stops = runs
    ends = np.cumsum(stops - starts)  # the runs' points, laid end to end
    shift = stops - ends  # from a point's place in that row to its x
    total = int(ends[-1]) if ends.size else 0
    best = 0.0
    for lo in range(0, total, LATTICE_BLOCK):
        at = np.arange(lo, min(lo + LATTICE_BLOCK, total))
        v = values(at + shift[np.searchsorted(ends, at, side="right")])
        best = max(best, np.abs(v, out=v).max())
    return float(best)


def _lattice_sup(path: DyckPath, t: np.ndarray, e: np.ndarray, op) -> float:
    """max over x = 0..2n of |op(G, f)| at x/(2n), G = heights / sqrt(2n)
    and f through the knots (t/n, e/sqrt(2n)) (scaled._interpolate): a
    whole sweep's bits, from a sweep of the runs that can hold it."""
    scale = np.sqrt(2 * path.n)
    return _sweep(_sweep_runs(path, t, e, op),
                  lambda x: op(path.heights[x] / scale, _interpolate(t, e, 2, x, scale)))


def coupling_321(path: DyckPath) -> tuple[float, float, float]:
    """Sup distances between the scaled path and the two exceedance
    interpolations of its 321-avoiding image.

    Returns (sup|G - F_plus|, sup|G + F_minus|, sup|F_plus + F_minus|);
    all three tend to zero in probability for uniform paths.

    They equal sup_distance(G, F_plus), sup_distance(G, -F_minus) and
    sup_distance(F_plus, -F_minus) bit for bit, G = scaled_path(path).
    Every knot lies on the lattice x/(2n), x = 0..2n, so the sups are
    maxima over that lattice: G's values are its ordinates, negation is
    exact, and a - (-b) == a + b in IEEE arithmetic.  The first two sweep
    only the runs of segments, with their end knots, whose integer bound
    in units of 1/sqrt(2n) reaches the largest knot value (_sweep_runs).
    F_plus + F_minus has its knots at the even points x = 2a, the union
    grid of that pair, so its sup is a maximum over a/n (2p/2q == p/q in
    IEEE arithmetic); there one of the pair takes its ordinate, which
    _interpolate returns exactly, and only the runs whose integer bound
    reaches the best are swept (_mirror_runs).
    """
    tau = bij321.forward(path)
    e = exceedance_process(tau)
    runs = _mirror_runs(e)  # before the knots: its temporaries peak beside tau alone
    plus, minus = _knots(tau, np.flatnonzero(e >= 0)), _knots(tau, np.flatnonzero(e <= 0))
    del tau, e
    scale = np.sqrt(2 * path.n)
    mirror = _sweep(runs, lambda a: (_interpolate(*plus, 1, a, scale)
                                     + _interpolate(*minus, 1, a, scale)))
    return (_lattice_sup(path, *plus, np.subtract), _lattice_sup(path, *minus, np.add), mirror)


def se_set(path: DyckPath, c: float, alpha: float) -> np.ndarray:
    """Indices i in 1..n whose fringe subtree has at most c*n^alpha
    vertices (the "short excursion" set)."""
    c, alpha, n = real(c, "c"), real(alpha, "alpha"), path.n
    power = _no_overflow(lambda: n**alpha, "alpha", alpha, "n**alpha", n)
    bound = _no_overflow(lambda: c * power, "c", c, "c * n**alpha", n)
    return np.nonzero(excursions(path).fringe_sizes() <= bound)[0] + 1


def _no_overflow(power, name: str, value: float, formula: str, n: int, error=ValueError) -> float:
    """power(), formula at n, unless it overflows (0.0**-a too): then error names name=value."""
    try:
        if math.isfinite(out := power()):
            return out
    except (OverflowError, ZeroDivisionError):
        pass
    raise error(f"{name}={value!r} makes {formula} overflow at n={n}")


def coupling_231(path: DyckPath, index_set) -> float:
    """sup over [0,1] of |scaled path + interpolation of the 231-image's
    exceedance over the given index set|.

    An empty index set gives the anchor-only zero function.

    Equals sup_distance(scaled_path(path), -f) bit for bit: every knot
    lies on the lattice x/(2n), G's values there are its ordinates, and
    a - (-b) == a + b in IEEE arithmetic.  The sup sweeps only the runs of
    segments, with their end knots, whose integer bound in units of
    1/sqrt(2n) reaches the largest knot value (_sweep_runs); the empty
    set's one segment is the whole lattice.
    """
    return _lattice_sup(path, *_knots(bij231.forward(path), index_set), np.add)


def random_index_set(n: int, count: int, seed) -> np.ndarray:
    """count i.i.d. uniform draws from {1..n}, deduplicated and sorted."""
    n, count = integer(n, "n", lo=1), integer(count, "count", lo=0)
    return sorted_unique(as_generator(seed).integers(1, n + 1, size=count))


def height_vs_contour(path: DyckPath) -> float:
    """max_i |gamma(2i) - depth(v_i)| / sqrt(n) over i = 0..n, n >= 1."""
    n = path.n
    if n < 1:
        raise ValueError("n must be >= 1")
    et = excursions(path)
    gamma = path.heights
    diffs = np.abs(gamma[2 * np.arange(1, n + 1)] - et.h)
    return float(diffs.max() / math.sqrt(n))


# ---------------------------------------------------------------------------
# moment estimates and their exact oracle


def moment_replicate(path: DyckPath) -> tuple[float, float]:
    """(inversions/n^1.5, max height/sqrt(2n)) for one path.

    The 231-image sigma has inv(sigma) = (sum_x gamma(x) - n) / 2, its
    path's area, so the count is O(n).  The pathwise identity
    max = 1 + max-deficit is checked on every path; a violation would
    mean corrupted bijection state.
    """
    n = path.n
    m_path = max_height(path)
    if m_path != 1 + max_deficit(bij231.forward(path)):
        raise NotReconstructible("max height != 1 + max deficit on a sampled path")
    inversions = (int(path.heights.sum()) - n) // 2
    return inversions / n**1.5, m_path / math.sqrt(2 * n)


ORACLE_LIMIT = 256


def exact_moment_oracle(n: int) -> tuple[Fraction, Fraction]:
    """Exact (E[sum_x gamma(x)], E[max gamma]) over uniform paths of
    semilength n, with unbounded integers.

    The area is the closed form E[sum_x gamma(x)] = (4^n - binom(2n+1, n))
    / C_n; the maximum sums its tails, E[max] = sum_{h<n} (C_n - N(h)) / C_n,
    from exact strip counts N(h) = #paths staying within [0, h], via double
    reflection, which must reach C_n at h = n.  Guarded at n <= 256.
    """
    n = integer(n, "n", lo=1)
    if n > ORACLE_LIMIT:
        raise TooLarge(f"n={n} exceeds oracle guard {ORACLE_LIMIT}")
    c_n = catalan(n)
    if (within := _paths_within(n, n)) != c_n:
        raise NotReconstructible(f"strip counts reach {within} paths, not C_{n}")
    total_max = sum(c_n - _paths_within(n, h) for h in range(n))
    e_area = Fraction(4**n - math.comb(2 * n + 1, n), c_n)
    return e_area, Fraction(total_max, c_n)


def _paths_within(n: int, h: int) -> int:
    """Number of Dyck paths of semilength n with max height <= h.

    Double-reflection count for walks 0 -> 0 confined to [0, h]:
    sum_k [ binom(2n, n - k(h+2)) - binom(2n, n - k(h+2) - (h+1)) ].
    """
    period = h + 2
    total = 0
    k = -(n // period) - 1
    while k * period <= n + period:
        a = n - k * period
        total += math.comb(2 * n, a) if 0 <= a <= 2 * n else 0
        b = a - (h + 1)
        total -= math.comb(2 * n, b) if 0 <= b <= 2 * n else 0
        k += 1
    return total


# ---------------------------------------------------------------------------
# experiment harness


def _thm231(path: DyckPath, stream, cfg) -> dict[str, float]:
    n, b = path.n, se_set(path, cfg.c, cfg.alpha)
    return {
        "coupling": coupling_231(path, b),
        "excluded_count": float(n - b.size),
        "se_large": 1.0 if b.size > n - n ** (0.75 + cfg.epsilon) else 0.0,
    }


def _random_index(path: DyckPath, stream, cfg) -> dict[str, float]:
    b = random_index_set(path.n, int(cfg.c * path.n**cfg.alpha), stream)  # drawn after the path
    return {"coupling": coupling_231(path, b), "index_count": float(b.size)}


def _petrov(path: DyckPath, stream, cfg) -> dict[str, float]:
    report = check_petrov(path)  # means of pass indicators: frequencies
    out = {f"cond_{k}": float(getattr(report, f"cond_{k}")) for k in "abcd"}
    out["all_hold"] = float(report.all_hold)
    return out


# theorem id -> (statistic, the real options its run reads).  A statistic
# maps (path, substream, config) to named values, the path drawn first from
# the substream (_replicate); subtree is exact, with no statistic.
THEOREMS = {
    "thm321": (lambda path, stream, cfg: dict(zip(
        ("d_plus", "d_minus", "d_mirror"), coupling_321(path))), ()),
    "thm231": (_thm231, ("c", "alpha", "epsilon")),
    "random_index": (_random_index, ("c", "alpha")),
    "height": (lambda path, stream, cfg: {"height_vs_contour": height_vs_contour(path)}, ()),
    "moments": (lambda path, stream, cfg: dict(zip(
        ("inversions_scaled", "max_scaled"), moment_replicate(path))), ()),
    "petrov": (_petrov, ()),
    "subtree": (None, ("c", "alpha")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.  Construction is the
    one way in: it checks every field and stores it normalized."""

    theorem_id: str
    n_grid: tuple[int, ...]
    replicates: int
    seed: int
    c: float = 1.0
    alpha: float = 0.4
    epsilon: float = 0.05
    keep_raw: bool = False

    def __post_init__(self):
        if self.theorem_id not in THEOREMS:
            raise BadConfig(f"unknown theorem_id {self.theorem_id!r}")
        grid = tuple(integer(v, "n_grid", BadConfig, lo=1)
                     for v in integers(self.n_grid, "n_grid", BadConfig))
        if not grid:
            raise BadConfig("n_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise BadConfig("n_grid must be strictly increasing")
        replicates = integer(self.replicates, "replicates", BadConfig, lo=1)
        seed = integer(self.seed, "seed", BadConfig)
        reals = {name: real(getattr(self, name), name, BadConfig)
                 for name in ("c", "alpha", "epsilon")}
        if not isinstance(self.keep_raw, bool):
            raise BadConfig(f"keep_raw must be a bool, not {self.keep_raw!r}")
        n, (c, alpha, eps) = grid[-1], reals.values()  # an overflow shows at the grid's top
        _no_overflow(lambda: n**alpha, "alpha", alpha, "n**alpha", n, BadConfig)
        _no_overflow(lambda: c * n**alpha, "c", c, "c * n**alpha", n, BadConfig)
        _no_overflow(lambda: n ** (0.75 + eps), "epsilon", eps, "n**(0.75 + epsilon)", n, BadConfig)
        if self.theorem_id in ("subtree", "random_index"):  # floor(c n^alpha) is a count
            for size in grid:
                if (k := int(c * size**alpha)) < 1:
                    raise BadConfig(f"threshold floor(c*n^alpha) = {k} < 1 at n={size}")
                if self.theorem_id == "subtree" and k > size + 1:  # a tree has n + 1 vertices
                    raise BadConfig(f"threshold floor(c*n^alpha) = {k} > n + 1 at n={size}")
        if self.theorem_id == "subtree":  # the limit's own domain, which the run would refuse
            try:
                subtree_size_limit(c, alpha)
            except DomainError as exc:
                raise BadConfig(str(exc)) from exc
        for name, value in dict(n_grid=grid, replicates=replicates, seed=seed, **reals).items():
            object.__setattr__(self, name, value)  # the dataclass is frozen


@dataclass
class ExperimentReport:
    """Aggregated statistics plus the raw values when retained."""

    config: ExperimentConfig
    results: list = field(default_factory=list)
    raw: list = field(default_factory=list)  # (n, replicate, statistic, value)
    wall_seconds: float = 0.0

    def rows(self, statistic: str | None = None, n: int | None = None) -> list:
        out = self.results
        if statistic is not None:
            out = [r for r in out if r["statistic"] == statistic]
        if n is not None:
            out = [r for r in out if r["n"] == n]
        return out

    def as_dict(self, include_timing: bool = True) -> dict:
        return {
            "config": dataclasses.asdict(self.config),
            "results": self.results,
            "meta": {
                "seed": self.config.seed,
                "version": __version__,
                "wall_seconds": self.wall_seconds if include_timing else 0.0,
            },
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.as_dict(include_timing), sort_keys=True, indent=2)

    def save_raw_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("n,replicate,statistic,value\n")
            for n, r, stat, val in self.raw:
                fh.write(f"{n},{r},{stat},{val!r}\n")


def _replicate(config: ExperimentConfig, item) -> dict[str, float]:
    n, r = item
    stream = substream(config.seed, n, r)
    return THEOREMS[config.theorem_id][0](sample_uniform(n, stream), stream, config)


def _subtree_rows(config: ExperimentConfig) -> list:
    rows = []
    limit = subtree_size_limit(config.c, config.alpha)
    for n in config.n_grid:
        k = int(config.c * n**config.alpha)  # in 1..n + 1: validated
        ratio = float(expected_hat_xi(n, k)) / n ** (1.0 - config.alpha / 2.0)
        for stat, val in (
            ("hat_xi_ratio", ratio),
            ("limit_value", limit),
            ("abs_error", abs(ratio - limit)),
        ):
            rows.append(_aggregate_row(n, stat, [val]))
    return rows


def _aggregate_row(n: int, statistic: str, values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    q25, med, q75 = np.quantile(arr, [0.25, 0.5, 0.75])
    return {
        "n": int(n),
        "statistic": statistic,
        "mean": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "median": float(med),
        "q25": float(q25),
        "q75": float(q75),
        "count": int(arr.size),
    }


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run the configured experiment over n_grid x replicates.

    Replicates run in one process pool per run (deterministic per-replicate
    substreams, aggregation in replicate order), so the report content is
    identical at any worker count; wall_seconds is the only volatile field.
    """
    workers = effective_workers(workers)
    start = time.perf_counter()
    report = ExperimentReport(config=config)

    if config.theorem_id == "subtree":
        report.results = _subtree_rows(config)
    else:
        reps = config.replicates
        items = [(n, r) for n in config.n_grid for r in range(reps)]
        per_rep = replicate_map(functools.partial(_replicate, config), items, workers)
        for i, n in enumerate(config.n_grid):
            block = per_rep[i * reps:(i + 1) * reps]
            for stat in sorted(block[0]):
                values = [d[stat] for d in block]
                report.results.append(_aggregate_row(n, stat, values))
                if config.keep_raw:
                    report.raw.extend((n, r, stat, float(v)) for r, v in enumerate(values))
    report.wall_seconds = time.perf_counter() - start
    return report
