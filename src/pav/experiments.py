"""Monte Carlo and exact-formula experiments that turn the asymptotic
statements into finite-n convergence measurements.

Each replicate is a pure function of (master seed, n, replicate index),
so reports are bitwise reproducible at any worker count.  Sup distances
between the scaled path and the interpolated exceedance functions are
exact maxima over the lattice x/(2n), which holds every knot of both.
A segment between exceedance knots is swept, with its end knots and in
cache-sized blocks, only if a bound on its values reaches the largest
value at a knot, so the result is the whole sweep's bit for bit.  Exact
targets come from closed forms: the moment oracle's E[sum_x gamma(x)] =
(4^n - binom(2n+1, n)) / C_n, and the subtree theorem's E[hat_xi_k] =
k (2n+3-2k) T_k / (2 (n+1) C_n) - 1/2 with T_k = C_{k-1}
binom(2(n+1-k), n+1-k), its tail sum telescoped.  Limit constants enter
only through the acceptance tests.
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
from .perms import exceedance_sets, max_deficit, scaled_function
from .petrov import check_petrov
from .rng import as_generator, substream
from .scaled import ScaledFunction, sorted_unique
from .trees import catalan, expected_hat_xi, subtree_size_limit


# ---------------------------------------------------------------------------
# pathwise statistics


# Lattice points per block of the coupling sweeps.  At n = 1e5 the candidate
# runs of d_plus and d_minus cover a median of 51 and 42 of the 200,001 points,
# so the blocks bound the mirror sweep over all n + 1 points a/n: coupling_321's
# traced peak is 5.77 MiB, the forward map's (2**16: 6.82, unblocked: 8.40).
LATTICE_BLOCK = 1 << 14


def _sweep_runs(path: DyckPath, f: ScaledFunction, op) -> list:
    """The lattice runs [start, stop), in order, that hold the maximum over
    x = 0..2n of |op(G, f)| at x/(2n), op np.add or np.subtract: the maximal
    runs of consecutive candidate segments of f, each with its end knots.

    In units of 1/sqrt(2n), f's ordinates are exceedances E, |E| <= n:
    E = rint(y sqrt(2n)) must give y back bit for bit (else
    NotReconstructible).  A +-1 walk strays at most L/2 steps from its chord
    over L steps, so the integer max(d0, d1) + L // 2 bounds a segment of L
    lattice steps, d = |op(gamma, E)| at its knots; it is a candidate iff
    that reaches max(d).  A swept value lies within 32 * 2**-53 * n units of
    the exact one, under 1/2 for n < 2**47: the knot attaining max(d) ends a
    candidate, so a run holds it, and it sweeps above every point outside.
    """
    den = 2 * path.n
    scale = np.sqrt(den)
    e = np.rint(f.y * scale)
    if not np.array_equal(e / scale, f.y):
        raise NotReconstructible("ordinates are not integers over sqrt(2n)")
    x = f.t_num * (den // f.t_den)
    d = np.abs(op(path.heights[x], e, out=e), out=e)
    bound = np.maximum(d[:-1], d[1:])
    bound += np.diff(x) >> 1  # L // 2
    edge = x[np.flatnonzero(np.diff(bound >= d.max(), prepend=False, append=False))]
    return list(zip(edge[::2].tolist(), (edge[1::2] + 1).tolist()))


def _sweep(den: int, runs, f: ScaledFunction, g, op) -> float:
    """max |op(g, f)| at x/den over x in the lattice runs [start, stop), in
    blocks of at most LATTICE_BLOCK points; g(lo, hi) gives the other
    function's values on the block [lo, hi), a fresh array op overwrites."""
    best = 0.0
    for start, stop in runs:
        for lo in range(start, stop, LATTICE_BLOCK):
            hi = min(lo + LATTICE_BLOCK, stop)
            v = g(lo, hi)
            op(v, f.eval_lattice(den, lo, hi), out=v)
            best = max(best, np.abs(v, out=v).max())
    return float(best)


def _lattice_sup(path: DyckPath, f: ScaledFunction, op) -> float:
    """max over x = 0..2n of |op(G, f)| at x/(2n), G = heights / sqrt(2n):
    a whole sweep's bits, from a sweep of the runs that can hold it."""
    den = 2 * path.n
    scale = np.sqrt(den)
    return _sweep(den, _sweep_runs(path, f, op), f,
                  lambda lo, hi: path.heights[lo:hi] / scale, op)


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
    grid of that pair; it is swept at a/n, whose values are those at
    2a/(2n) bit for bit, since 2p/2q == p/q in IEEE arithmetic.
    """
    tau = bij321.forward(path)
    n = path.n
    f_plus, f_minus = (scaled_function(tau, e) for e in exceedance_sets(tau))
    return (_lattice_sup(path, f_plus, np.subtract), _lattice_sup(path, f_minus, np.add),
            _sweep(n, [(0, n + 1)], f_minus, functools.partial(f_plus.eval_lattice, n), np.add))


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
    return _lattice_sup(path, scaled_function(bij231.forward(path), index_set), np.add)


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


# theorem id -> (path, substream, config) -> statistics, the path drawn first
# from the substream (_replicate); workers look it up by id
REPLICATES = {
    "thm321": lambda path, stream, cfg: dict(zip(
        ("d_plus", "d_minus", "d_mirror"), coupling_321(path))),
    "thm231": _thm231,
    "random_index": _random_index,
    "height": lambda path, stream, cfg: {"height_vs_contour": height_vs_contour(path)},
    "moments": lambda path, stream, cfg: dict(zip(
        ("inversions_scaled", "max_scaled"), moment_replicate(path))),
    "petrov": _petrov,
}
THEOREMS = (*REPLICATES, "subtree")  # subtree is exact: no replicates


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

    def save(self, path, include_timing: bool = True) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(include_timing))
            fh.write("\n")

    def save_raw_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("n,replicate,statistic,value\n")
            for n, r, stat, val in self.raw:
                fh.write(f"{n},{r},{stat},{val!r}\n")


def _replicate(config: ExperimentConfig, item) -> dict[str, float]:
    n, r = item
    stream = substream(config.seed, n, r)
    return REPLICATES[config.theorem_id](sample_uniform(n, stream), stream, config)


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


def run_experiment(config: ExperimentConfig, workers: int | None = 1) -> ExperimentReport:
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
