"""Acceptance suite: the exit criteria of the build, one test per
criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is seeded;
reruns are bit-identical.  Expected wall time is a few minutes, most of
it in the n = 1e5 Monte Carlo criteria (7, 8).
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

import pav
from pav import bij231, bij321, trees
from pav.experiments import (
    ExperimentConfig,
    exact_moment_oracle,
    run_experiment,
    se_set,
)
from pav.perms import Permutation, contains_pattern, inversions, max_deficit
from pav.petrov import check_petrov
from pav.rng import substream
from test_bij321 import check_exceedance_sign
from test_petrov import assert_matches_oracle

P321 = Permutation([3, 2, 1])
P231 = Permutation([2, 3, 1])


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[A{num:02d}] FAIL - {title}: {exc}")
                raise
            print(f"[A{num:02d}] PASS - {title}" + (f" ({detail})" if detail else ""))

        return run

    return wrap


@criterion(1, "bijection completeness onto both avoidance classes, n <= 8")
def test_a01_bijection_completeness():
    for n in range(1, 9):
        c_n = pav.catalan(n)
        taus, sigmas = set(), set()
        for path in pav.enumerate_all(n):
            tau = bij321.forward(path)
            sigma = bij231.forward(path)
            assert not contains_pattern(tau, P321)
            assert not contains_pattern(sigma, P231)
            taus.add(tau)
            sigmas.add(sigma)
        assert len(taus) == c_n
        assert len(sigmas) == c_n
    return "all images distinct and pattern-checked by brute force"


@criterion(2, "roundtrips both directions, exhaustive n <= 8 plus 1e4 paths at n = 1e3")
def test_a02_roundtrips():
    for n in range(1, 9):
        for path in pav.enumerate_all(n):
            tau = bij321.forward(path)
            sigma = bij231.forward(path)
            assert bij321.inverse(tau) == path
            assert bij231.inverse(sigma) == path
            # and back through the permutation side
            assert bij321.forward(bij321.inverse(tau)) == tau
            assert bij231.forward(bij231.inverse(sigma)) == sigma
    rng = substream(20_240_201)
    for _ in range(10_000):
        path = pav.sample_uniform(1000, rng)
        assert bij321.inverse(bij321.forward(path)) == path
        assert bij231.inverse(bij231.forward(path)) == path
    return "exact equality on every tested path"


FIG5_HEIGHTS = [0, 1, 0, 1, 2, 3, 4, 3, 2, 3, 4, 5, 6, 5, 4, 5, 4, 3, 2, 1, 0]


@criterion(3, "published example values reproduced exactly")
def test_a03_figures():
    fig5 = pav.DyckPath(np.diff(FIG5_HEIGHTS))
    assert bij321.forward(fig5).to_text() == "2 1 6 3 10 4 5 7 8 9"
    et = pav.excursions(pav.from_text("UUUDUUDUUUDDUDDDDUDD"))
    assert (int(et.v[5]), int(et.h[5]), int(et.l[5])) == (8, 4, 8)
    return "20-step image and excursion triple (8, 4, 8)"


def _identities_hold(path):
    n = path.n
    et = pav.excursions(path)
    sigma = bij231.forward(path)
    heights = et.h
    sizes = et.fringe_sizes()
    # max = 1 + max deficit
    assert pav.max_height(path) == 1 + max_deficit(sigma)
    # i - sigma(i) = height - fringe size
    lhs = np.arange(1, n + 1) - sigma.images
    assert np.array_equal(lhs, heights - sizes)
    # inversions = path length - (n+1) + 1
    assert inversions(sigma) == int(heights.sum()) - n
    # exceedance sign dichotomy of the run bijection
    assert check_exceedance_sign(path)


@criterion(4, "pathwise identities, exhaustive n <= 8 plus 1e4 paths at n = 1e3")
def test_a04_identities():
    for n in range(1, 9):
        for path in pav.enumerate_all(n):
            _identities_hold(path)
    rng = substream(40_40)
    for _ in range(10_000):
        _identities_hold(pav.sample_uniform(1000, rng))
    return "max/deficit, inversions/path length, height/size, sign dichotomy"


@criterion(5, "exact fringe-count expectation equals enumeration mean, n <= 8, all k")
def test_a05_expected_xi_exact():
    for n in range(0, 9):
        c_n = pav.catalan(n)
        totals = np.zeros(n + 2, dtype=object)
        for path in pav.enumerate_all(n):
            if n == 0:
                totals[1] += 1
                continue
            sizes = pav.excursions(path).fringe_sizes()
            for s in sizes:
                totals[s] += 1
            totals[n + 1] += 1  # the whole tree
        for k in range(1, n + 2):
            assert trees.expected_xi(n, k) == Fraction(int(totals[k]), c_n), (n, k)
    return "exact rational equality for every (n, k)"


@criterion(6, "normalized expected large-subtree counts approach their limits")
def test_a06_subtree_asymptotics():
    details = []
    for c, alpha in ((1.0, 0.5), (0.5, 1.0)):
        limit = trees.subtree_size_limit(c, alpha)
        errors = []
        for n in (100, 1000, 10_000, 100_000):
            k = int(c * n**alpha)
            ratio = float(trees.expected_hat_xi(n, k)) / n ** (1 - alpha / 2)
            errors.append(abs(ratio - limit))
        assert all(b < a for a, b in zip(errors, errors[1:])), (c, alpha, errors)
        assert errors[-1] / limit < 0.10, (c, alpha, errors[-1] / limit)
        details.append(f"(c={c}, alpha={alpha}): rel err at 1e5 = {errors[-1]/limit:.2e}")
    return "; ".join(details)


INV_TARGET = math.sqrt(math.pi) / 2  # 0.8862...
MAX_TARGET = math.sqrt(math.pi / 2)  # 1.2533...


@criterion(7, "moment constants: exact-oracle validation then Monte Carlo at n = 1e5")
def test_a07_moment_constants():
    # The raw exact ratios at n <= 256 sit ~5-7% below the limits (the
    # corrections are Theta(n^-1/2)), so the constants are validated by
    # cancelling that term: r_extrap = 2 r(4n) - r(n) from the exact
    # oracle at n = 64 and 256 must land within 3% of each limit.
    ratios = {}
    for n in (64, 256):
        e_area, e_max = exact_moment_oracle(n)
        ratios[n] = (
            float(e_area) / (2 * n) ** 1.5,
            float(e_max) / math.sqrt(2 * n),
        )
    # pin the oracle itself at n = 64 (exact values, frozen)
    e_area64, e_max64 = exact_moment_oracle(64)
    assert e_area64 == Fraction(
        146374277003479057195291220460860327453,
        184239584937908329739504521356773475,
    )
    assert e_max64 == Fraction(
        94188711765329050710942802176925142, 7369583397516333189580180854270939
    )
    area_extrap = 2 * ratios[256][0] - ratios[64][0]
    max_extrap = 2 * ratios[256][1] - ratios[64][1]
    # E[inversions]/n^1.5 -> sqrt(2) * lim E[sum gamma]/(2n)^1.5
    inv_extrap = math.sqrt(2) * area_extrap
    assert abs(inv_extrap - INV_TARGET) / INV_TARGET < 0.03
    assert abs(max_extrap - MAX_TARGET) / MAX_TARGET < 0.03

    cfg = ExperimentConfig(
        theorem_id="moments", n_grid=(100_000,), replicates=2000, seed=777
    )
    report = run_experiment(cfg, workers=2)  # the report is the same at any count (A12)
    inv_row = report.rows(statistic="inversions_scaled")[0]
    inv_mean = inv_row["mean"]
    max_mean = report.rows(statistic="max_scaled")[0]["mean"]
    assert abs(inv_mean - INV_TARGET) / INV_TARGET < 0.05, inv_mean
    assert abs(max_mean - MAX_TARGET) / MAX_TARGET < 0.03, max_mean
    # The exact finite-n target: E[inv] = (E[sum gamma] - n) / 2 with the
    # closed-form area (4^n - binom(2n+1, n)) / C_n.
    n = 100_000
    e_area = Fraction(4**n - math.comb(2 * n + 1, n), pav.catalan(n))
    inv_exact = float((e_area - n) / 2) / n**1.5
    inv_se = inv_row["sd"] / math.sqrt(inv_row["count"])
    z = (inv_mean - inv_exact) / inv_se
    assert abs(z) <= 4, (inv_mean, inv_exact, inv_se)
    return (
        f"oracle-extrapolated ({inv_extrap:.4f}, {max_extrap:.4f}); "
        f"MC means ({inv_mean:.4f}, {max_mean:.4f}) vs ({INV_TARGET:.4f}, {MAX_TARGET:.4f}); "
        f"inversions z = {z:+.2f} against exact {inv_exact:.6f}"
    )


TREND_GRID = (1000, 10_000, 100_000)
TREND_REPLICATES = 200


def _medians(report, statistic):
    return [r["median"] for r in report.rows(statistic=statistic)]


@criterion(8, "coupling medians strictly decrease along n = 1e3, 1e4, 1e5")
def test_a08_invariance_trends():
    decreasing = lambda xs: all(b < a for a, b in zip(xs, xs[1:]))
    details = []

    cfg = ExperimentConfig(
        theorem_id="thm321", n_grid=TREND_GRID, replicates=TREND_REPLICATES, seed=8001
    )
    rep = run_experiment(cfg, workers=2)  # the report is the same at any count (A12)
    for stat in ("d_plus", "d_minus", "d_mirror"):
        med = _medians(rep, stat)
        assert decreasing(med), (stat, med)
        details.append(f"{stat} {med[-1]:.3f}")

    cfg = ExperimentConfig(
        theorem_id="thm231", n_grid=TREND_GRID, replicates=TREND_REPLICATES,
        seed=8002, c=1.0, alpha=0.4,
    )
    med = _medians(run_experiment(cfg, workers=2), "coupling")
    assert decreasing(med), ("thm231", med)
    details.append(f"d_231 {med[-1]:.3f}")

    cfg = ExperimentConfig(
        theorem_id="random_index", n_grid=TREND_GRID, replicates=TREND_REPLICATES,
        seed=8003, c=1.0, alpha=0.2,
    )
    med = _medians(run_experiment(cfg, workers=2), "coupling")
    assert decreasing(med), ("random_index", med)
    details.append(f"d_rand {med[-1]:.3f}")

    cfg = ExperimentConfig(
        theorem_id="height", n_grid=TREND_GRID, replicates=TREND_REPLICATES, seed=8004
    )
    med = _medians(run_experiment(cfg, workers=2), "height_vs_contour")
    assert decreasing(med), ("height", med)
    details.append(f"height {med[-1]:.3f}")
    return ", ".join(details) + " at n = 1e5"


@criterion(9, "excluded-set size matches the exact formula within 3 SE at n = 1e5")
def test_a09_se_set_size():
    n = 100_000
    c, alpha, eps = 1.0, 0.4, 0.05
    k = int(c * n**alpha)  # = 100
    target = float(trees.expected_hat_xi(n, k + 1))
    rng = substream(9009)
    excluded = []
    large = 0
    for _ in range(200):
        path = pav.sample_uniform(n, rng)
        b = se_set(path, c, alpha)
        excluded.append(n - b.size)
        large += b.size > n - n ** (0.75 + eps)
    excluded = np.asarray(excluded, dtype=np.float64)
    se = excluded.std(ddof=1) / math.sqrt(excluded.size)
    assert abs(excluded.mean() - target) <= 3 * se, (excluded.mean(), target, se)
    return (
        f"mean {excluded.mean():.1f} vs exact {target:.1f} (SE {se:.1f}); "
        f"freq(|SE| > n - n^0.8) = {large / 200:.3f}"
    )


@criterion(10, "regularity checker agrees with its oracle; gated bounds never violated")
def test_a10_petrov():
    for n in range(1, 9):
        for path in pav.enumerate_all(n):
            assert_matches_oracle(path)
    rng = substream(10_010)
    held = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        path = pav.sample_uniform(n, rng)
        assert_matches_oracle(path)
        rep = check_petrov(path)
        if rep.all_hold:
            held += 1
            assert rep.voucher.ok
            assert bij321.coupling_bounds(path).bounds_hold
    # The conditions are expected to fail on every sampled path at this
    # scale; assert and record the vacuity, then exercise the gated
    # bounds on a crafted regular family where all conditions hold.
    assert held == 0
    crafted = 0
    for k in (25, 250, 2500):
        path = pav.from_text("UUDD" * k)
        rep = check_petrov(path)
        assert rep.all_hold
        assert rep.voucher.ok
        assert bij321.coupling_bounds(path).bounds_hold
        crafted += 1
    return (
        f"1008 checker/oracle agreements; sampled paths vacuous ({held} held), "
        f"{crafted} crafted regular paths exercise the gated bounds"
    )


@criterion(11, "sampler uniformity: chi-square over the 14 paths at n = 4")
def test_a11_sampler_uniformity():
    paths = [p.to_text() for p in pav.enumerate_all(4)]
    index = {t: i for i, t in enumerate(paths)}
    counts = np.zeros(len(paths), dtype=np.int64)
    rng = substream(11_011)
    draws = 100_000
    for _ in range(draws):
        counts[index[pav.sample_uniform(4, rng).to_text()]] += 1
    stat, p_value = scipy.stats.chisquare(counts)
    assert p_value > 0.001, (stat, p_value)
    return f"chi2 = {stat:.2f}, p = {p_value:.4f} over {draws} draws"


@criterion(12, "byte-identical reports at worker counts 1, 4, 16")
def test_a12_determinism_across_workers():
    cfg = ExperimentConfig(
        theorem_id="thm321", n_grid=(200, 400), replicates=12, seed=1212
    )
    texts = {
        w: run_experiment(cfg, workers=w).to_json(include_timing=False)
        for w in (1, 4, 16)
    }
    assert texts[1] == texts[4] == texts[16]
    return f"{len(texts[1])} bytes, identical across 1/4/16 workers"
