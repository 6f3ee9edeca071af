"""Monte Carlo and exact-formula experiments that turn the asymptotic
statements into finite-n convergence measurements.

Each replicate is a pure function of (master seed, n, replicate index),
so reports are bitwise reproducible at any worker count.  Sup distances
between the scaled path and the interpolated exceedance functions are
exact maxima over the lattice x/(2n), which holds every knot of both,
swept in cache-sized blocks.  Exact targets come from closed forms:
the moment oracle's E[sum_x gamma(x)] = (4^n - binom(2n+1, n)) / C_n,
and the subtree theorem's E[hat_xi_k] = k (2n+3-2k) T_k / (2 (n+1) C_n)
- 1/2 with T_k = C_{k-1} binom(2(n+1-k), n+1-k), its tail sum
telescoped.  Limit constants enter only through the acceptance tests.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bij231, bij321
from ._version import __version__
from .dyck import DyckPath, excursions, max_height, sample_uniform
from .errors import BadConfig, NotReconstructible, TooLarge
from .parallel import effective_workers, replicate_map
from .perms import exceedance_sets, max_deficit, scaled_function
from .petrov import check_petrov
from .rng import as_generator, substream
from .scaled import ScaledFunction, sorted_unique
from .trees import catalan, expected_hat_xi, subtree_size_limit


# ---------------------------------------------------------------------------
# pathwise statistics


# Lattice points per block of the coupling sweeps.  Block temporaries this
# size are reused from the allocator's heap, where full-lattice ones were
# freshly mapped and faulted in on every call.  At n = 1e5, blocks of 2**11
# lose to per-block overhead, 2**14 and 2**15 are fastest, and 2**16 brings
# the page faults back.
LATTICE_BLOCK = 1 << 14


def _lattice_blocks(path: DyckPath):
    """(lo, hi, G on x in [lo, hi)) over the lattice x = 0..2n in blocks of
    LATTICE_BLOCK, an even size, so every block starts at an even x.  G is
    the scaled path: heights / sqrt(2n), the bits of scaled_path(path).y."""
    den = 2 * path.n
    scale = np.sqrt(den)
    for lo in range(0, den + 1, LATTICE_BLOCK):
        hi = min(lo + LATTICE_BLOCK, den + 1)
        yield lo, hi, path.heights[lo:hi] / scale


def coupling_321(path: DyckPath) -> tuple[float, float, float]:
    """Sup distances between the scaled path and the two exceedance
    interpolations of its 321-avoiding image.

    Returns (sup|G - F_plus|, sup|G + F_minus|, sup|F_plus + F_minus|);
    all three tend to zero in probability for uniform paths.

    Each value equals the matching sup_distance / sup_sum call bit for
    bit.  Every knot lies on the lattice x/(2n), x = 0..2n, so the sups are
    maxima over that lattice, swept in blocks (ScaledFunction.eval_lattice):
    G's values are its ordinates, negation is exact, and F_plus + F_minus
    has its knots at the even points, the union grid of that pair.
    """
    tau = bij321.forward(path)
    den = 2 * path.n
    f_plus, f_minus = (scaled_function(tau, e) for e in exceedance_sets(tau))
    d_plus = d_minus = d_mirror = 0.0
    for lo, hi, g in _lattice_blocks(path):
        fp = f_plus.eval_lattice(den, lo, hi)
        fm = f_minus.eval_lattice(den, lo, hi)
        mirror = np.add(fp[::2], fm[::2])
        d_mirror = max(d_mirror, np.abs(mirror, out=mirror).max())
        d_plus = max(d_plus, np.abs(np.subtract(g, fp, out=fp), out=fp).max())
        d_minus = max(d_minus, np.abs(np.add(g, fm, out=fm), out=fm).max())
    return float(d_plus), float(d_minus), float(d_mirror)


def se_set(path: DyckPath, c: float, alpha: float) -> np.ndarray:
    """Indices i in 1..n whose fringe subtree has at most c*n^alpha
    vertices (the "short excursion" set)."""
    sizes = excursions(path).fringe_sizes()
    bound = c * path.n**alpha
    return np.nonzero(sizes <= bound)[0] + 1


def coupling_231(path: DyckPath, index_set) -> float:
    """sup over [0,1] of |scaled path + interpolation of the 231-image's
    exceedance over the given index set|.

    An empty index set degenerates to the anchor-only zero function.

    Equals sup_sum(scaled_path(path), f) bit for bit: every knot lies on
    the lattice x/(2n), swept in blocks (eval_lattice), G's values there
    are its ordinates, and a - (-b) == a + b in IEEE arithmetic.
    """
    sigma = bij231.forward(path)
    index_set = np.asarray(index_set, dtype=np.int64)
    if index_set.size == 0:
        f = ScaledFunction(np.array([0, path.n]), path.n, np.zeros(2))
    else:
        f = scaled_function(sigma, index_set)
    den = 2 * path.n
    d = 0.0
    for lo, hi, g in _lattice_blocks(path):
        fv = f.eval_lattice(den, lo, hi)
        d = max(d, np.abs(np.add(g, fv, out=fv), out=fv).max())
    return float(d)


def random_index_set(n: int, count: int, seed) -> np.ndarray:
    """count i.i.d. uniform draws from {1..n}, deduplicated and sorted."""
    rng = as_generator(seed)
    return sorted_unique(rng.integers(1, n + 1, size=count))


def height_vs_contour(path: DyckPath) -> float:
    """max_i |gamma(2i) - depth(v_i)| / sqrt(n) over i = 0..n."""
    n = path.n
    et = excursions(path)
    gamma = path.heights
    diffs = np.abs(gamma[2 * np.arange(1, n + 1)] - et.h)
    return float(diffs.max() / math.sqrt(n))


# ---------------------------------------------------------------------------
# moment estimates and their exact oracle


def moment_replicate(n: int, seed) -> tuple[float, float]:
    """(inversions/n^1.5, max height/sqrt(2n)) for one uniform path.

    The 231-image sigma has inv(sigma) = (sum_x gamma(x) - n) / 2, its
    path's area, so the count is O(n).  The pathwise identity
    max = 1 + max-deficit is checked on every draw; a violation would
    mean corrupted bijection state.
    """
    path = sample_uniform(n, seed)
    sigma = bij231.forward(path)
    m_path = max_height(path)
    if m_path != 1 + max_deficit(sigma):
        raise NotReconstructible("max height != 1 + max deficit on a sampled path")
    inversions = (int(path.heights.sum()) - n) // 2
    return inversions / n**1.5, m_path / math.sqrt(2 * n)


ORACLE_LIMIT = 256


def exact_moment_oracle(n: int) -> tuple[Fraction, Fraction]:
    """Exact (E[sum_x gamma(x)], E[max gamma]) over uniform paths of
    semilength n, with unbounded integers.

    The area is the closed form E[sum_x gamma(x)] = (4^n - binom(2n+1, n))
    / C_n; the maximum comes from exact strip counts N(h) = #paths
    staying within [0, h], via double reflection, which must reach C_n
    at h = n.  Guarded at n <= 256.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ORACLE_LIMIT:
        raise TooLarge(f"n={n} exceeds oracle guard {ORACLE_LIMIT}")
    c_n = catalan(n)
    prev = _paths_within(n, 0)
    total_max = 0
    for h in range(1, n + 1):
        cur = _paths_within(n, h)
        total_max += h * (cur - prev)
        prev = cur
    if prev != c_n:
        raise NotReconstructible(f"strip counts reach {prev} paths, not C_{n}")
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


def _thm231(n: int, stream, cfg) -> dict[str, float]:
    path = sample_uniform(n, stream)
    b = se_set(path, cfg.c, cfg.alpha)
    return {
        "coupling": coupling_231(path, b),
        "excluded_count": float(n - b.size),
        "se_large": 1.0 if b.size > n - n ** (0.75 + cfg.epsilon) else 0.0,
    }


def _random_index(n: int, stream, cfg) -> dict[str, float]:
    path = sample_uniform(n, stream)
    b = random_index_set(n, max(1, int(cfg.c * n**cfg.alpha)), stream)
    return {"coupling": coupling_231(path, b), "index_count": float(b.size)}


def _petrov(n: int, stream, cfg) -> dict[str, float]:
    report = check_petrov(sample_uniform(n, stream))  # means of pass indicators: frequencies
    out = {f"cond_{k}": float(getattr(report, f"cond_{k}")) for k in "abcd"}
    out["all_hold"] = float(report.all_hold)
    return out


# theorem id -> (n, substream, config) -> statistics; workers look it up by id
REPLICATES = {
    "thm321": lambda n, stream, cfg: dict(zip(
        ("d_plus", "d_minus", "d_mirror"), coupling_321(sample_uniform(n, stream)))),
    "thm231": _thm231,
    "random_index": _random_index,
    "height": lambda n, stream, cfg: {
        "height_vs_contour": height_vs_contour(sample_uniform(n, stream))},
    "moments": lambda n, stream, cfg: dict(zip(
        ("inversions_scaled", "max_scaled"), moment_replicate(n, stream))),
    "petrov": _petrov,
}
THEOREMS = (*REPLICATES, "subtree")  # subtree is exact: no replicates


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    theorem_id: str
    n_grid: tuple[int, ...]
    replicates: int
    seed: int
    c: float = 1.0
    alpha: float = 0.4
    epsilon: float = 0.05
    keep_raw: bool = False

    def validated(self) -> "ExperimentConfig":
        if self.theorem_id not in THEOREMS:
            raise BadConfig(f"unknown theorem_id {self.theorem_id!r}")
        grid = tuple(_integer("n_grid", v) for v in self.n_grid)
        if not grid or any(v < 1 for v in grid):
            raise BadConfig("n_grid must be nonempty positive integers")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise BadConfig("n_grid must be strictly increasing")
        replicates = _integer("replicates", self.replicates)
        if self.theorem_id != "subtree" and replicates < 1:
            raise BadConfig("replicates must be >= 1")
        reals = {name: float(getattr(self, name)) for name in ("c", "alpha", "epsilon")}
        for name, value in reals.items():
            if not math.isfinite(value):
                raise BadConfig(f"{name} must be finite, not {value!r}")
        n, alpha = grid[-1], reals["alpha"]  # an overflow anywhere in the grid shows at its top
        for name, formula, power in (
            ("alpha", "n**alpha", lambda: n**alpha),
            ("c", "c * n**alpha", lambda: reals["c"] * n**alpha),
            ("epsilon", "n**(0.75 + epsilon)", lambda: n ** (0.75 + reals["epsilon"])),
        ):
            try:
                overflow = not math.isfinite(power())
            except OverflowError:
                overflow = True
            if overflow:
                raise BadConfig(f"{name}={reals[name]!r} makes {formula} overflow at n={n}")
        return dataclasses.replace(
            self, n_grid=grid, replicates=replicates, seed=_integer("seed", self.seed),
            keep_raw=bool(self.keep_raw), **reals,
        )


def _integer(name: str, value) -> int:
    """value as an int; a float such as 2.7 is rejected, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadConfig(f"{name} must be an integer, not {value!r}") from None


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
    return REPLICATES[config.theorem_id](n, substream(config.seed, n, r), config)


def _subtree_rows(config: ExperimentConfig) -> list:
    rows = []
    limit = subtree_size_limit(config.c, config.alpha)
    for n in config.n_grid:
        k = int(config.c * n**config.alpha)
        if k < 1:
            raise BadConfig(f"threshold floor(c*n^alpha) = {k} < 1 at n={n}")
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
    config = config.validated()
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
