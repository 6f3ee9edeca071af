"""Coupling statistics, moment oracle, and the experiment harness."""

import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pav
from pav import bij231, bij321, dyck, parallel, petrov
from pav.errors import BadConfig, NotReconstructible, TooLarge
from pav.experiments import (
    LATTICE_BLOCK,
    THEOREMS,
    ExperimentConfig,
    coupling_231,
    coupling_321,
    exact_moment_oracle,
    height_vs_contour,
    moment_replicate,
    random_index_set,
    run_experiment,
    se_set,
    _mirror_runs,
    _paths_within,
    _sweep_runs,
)
from pav.perms import _knots, exceedance_process, exceedance_sets, inversions, scaled_function
from pav.rng import substream
from pav.scaled import sup_distance


# 2n + 1 lattice points in B - 1, B + 1, 2B - 1 and 2B + 1 (2n + 1 is odd,
# the block size B even): one point short of a block edge or one past it
BLOCK_EDGES = [(LATTICE_BLOCK // 2 - 1, 8), (LATTICE_BLOCK // 2, 9),
               (LATTICE_BLOCK - 1, 10), (LATTICE_BLOCK, 11)]


def assert_321_is_public_sups(path):
    g = pav.dyck.scaled_path(path)
    tau = pav.bij321.forward(path)
    f_plus, f_minus = (scaled_function(tau, e) for e in exceedance_sets(tau))
    want = (sup_distance(g, f_plus), sup_distance(g, -f_minus), sup_distance(f_plus, -f_minus))
    assert coupling_321(path) == want


def assert_231_is_sup_sum(path, seed):
    """On the se_set, a random set, the full set and the empty set."""
    n = path.n
    g = pav.dyck.scaled_path(path)
    sigma = bij231.forward(path)
    index_sets = (
        se_set(path, 1.0, 0.4),
        random_index_set(n, max(1, n // 3), substream(seed, 1)),
        np.arange(1, n + 1),
    )
    for b in index_sets:
        assert coupling_231(path, b) == sup_distance(g, -scaled_function(sigma, b))
    zero = pav.ScaledFunction(np.array([0, n]), n, np.zeros(2))
    assert coupling_231(path, np.array([], dtype=np.int64)) == sup_distance(g, -zero)


@st.composite
def tent_path_and_knots(draw):
    """A path of tents U^h D^h and a random subset of the tent bases as the
    index set: on a segment spanning whole tents, G's deviation from its
    chord reaches L/2 at an apex, where the segment bound is tight."""
    heights = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    bases = np.cumsum(heights)[:-1]
    keep = draw(st.lists(st.booleans(), min_size=bases.size, max_size=bases.size))
    path = pav.from_text("".join("U" * h + "D" * h for h in heights))
    return path, bases[np.array(keep, dtype=bool)]


@st.composite
def path_and_index_set(draw):
    """Sampled paths at small sizes and at the block edges, with sparse
    random_index-style sets (every segment a candidate), the empty set (one
    segment over the whole lattice), the se_set and the full set; or tents."""
    if draw(st.booleans()):
        return draw(tent_path_and_knots())
    seed = draw(st.integers(0, 2**32))
    n = draw(st.one_of(st.integers(1, 400), st.sampled_from(
        [LATTICE_BLOCK // 2 - 1, LATTICE_BLOCK // 2, LATTICE_BLOCK - 1, LATTICE_BLOCK,
         LATTICE_BLOCK + 1])))
    path = pav.sample_uniform(n, substream(seed))
    kind = draw(st.sampled_from(["sparse", "empty", "se_set", "full"]))
    if kind == "sparse":
        return path, random_index_set(n, draw(st.integers(1, 8)), substream(seed, 1))
    if kind == "empty":
        return path, np.array([], dtype=np.int64)
    if kind == "se_set":
        return path, se_set(path, 1.0, 0.4)
    return path, np.arange(1, n + 1)


def sweep_runs(path, perm, indices, op) -> list:
    """_sweep_runs on the knots of scaled_function(perm, indices), as a list
    of (start, stop) pairs."""
    starts, stops = _sweep_runs(path, *_knots(perm, indices), op)
    return list(zip(starts.tolist(), stops.tolist()))


class TestCandidateSegments:
    @given(path_and_index_set())
    @settings(max_examples=60, deadline=None)
    def test_couplings_equal_sup_distance_bit_for_bit(self, case):
        path, b = case
        g = pav.dyck.scaled_path(path)
        assert coupling_231(path, b) == sup_distance(g, -scaled_function(bij231.forward(path), b))
        assert_321_is_public_sups(path)

    def test_candidates_cover_under_one_percent_at_1e5(self):
        n = 100_000
        path = pav.sample_uniform(n, substream(0))
        tau = pav.bij321.forward(path)
        e_plus, e_minus = exceedance_sets(tau)
        sigma, b = bij231.forward(path), se_set(path, 1.0, 0.4)
        for perm, indices, op in ((tau, e_plus, np.subtract), (tau, e_minus, np.add),
                                  (sigma, b, np.add)):
            covered = sum(stop - start for start, stop in sweep_runs(path, perm, indices, op))
            assert 0 < covered < 0.01 * (2 * n + 1)

    @given(path_and_index_set())
    @settings(max_examples=60, deadline=None)
    def test_runs_hold_the_lattice_maximum(self, case):
        path, b = case
        n = path.n
        g = path.heights / np.sqrt(2 * n)
        tau, sigma = pav.bij321.forward(path), bij231.forward(path)
        e_plus, e_minus = exceedance_sets(tau)
        for perm, indices, op in ((sigma, b, np.add), (tau, e_plus, np.subtract),
                                  (tau, e_minus, np.add)):
            f = scaled_function(perm, indices)
            values = np.abs(op(g, f.eval_lattice(2 * n, 0, 2 * n + 1)))  # every lattice point
            knots = set((2 * f.t_num).tolist())
            runs = sweep_runs(path, perm, indices, op)
            last = 0
            for start, stop in runs:
                assert last <= start < stop  # disjoint, increasing and not empty
                assert start in knots and stop - 1 in knots
                last = stop
            assert max(values[start:stop].max() for start, stop in runs) == values.max()

    @given(path_and_index_set())
    @settings(max_examples=60, deadline=None)
    def test_runs_match_the_integer_oracle(self, case):
        # the maximal runs of segments whose bound max(d0, d1) + L/2 reaches
        # max(d), d = |gamma(2a) -+ E(a)| at the knots a, in Python ints
        path, b = case
        n = path.n
        gamma = path.heights.tolist()
        tau, sigma = pav.bij321.forward(path), bij231.forward(path)
        cases = [(sigma, b, 1)] + [(tau, e, s) for e, s in zip(exceedance_sets(tau), (-1, 1))]
        for perm, indices, sign in cases:
            images, kept = perm.images.tolist(), set(indices.tolist())
            knots = sorted(kept | {0, n})
            d = [abs(gamma[2 * a] + sign * (images[a - 1] - a if a in kept and a else 0))
                 for a in knots]
            top = max(d)
            reach = [max(d[i], d[i + 1]) + knots[i + 1] - knots[i] >= top  # L/2 = a1 - a0
                     for i in range(len(knots) - 1)]
            want = []
            for keep, run in itertools.groupby(range(len(reach)), key=reach.__getitem__):
                if keep:
                    run = list(run)
                    want.append((2 * knots[run[0]], 2 * knots[run[-1] + 1] + 1))
            assert sweep_runs(path, perm, indices, np.subtract if sign < 0 else np.add) == want

    def test_segment_whose_bound_ties_best_is_swept(self):
        # tents of height 2 between knots on the floor, sqrt(2n) = 4: in units
        # of 1/4 the middle knot's E is 2 = max(d), and the outer segments'
        # bound 0 + 4/2 = 2 ties it exactly, so they are swept
        path = pav.from_text("UUDD" * 4)
        starts, stops = _sweep_runs(path, np.array([0, 2, 4, 6, 8]), np.array([0, 0, 2, 0, 0]),
                                    np.add)
        assert list(zip(starts.tolist(), stops.tolist())) == [(0, 17)]

    def test_tent_bound_is_tight(self):
        # one tent, knots only at its ends: the apex is n = L/2 steps above
        # the chord, so the sup is the segment's bound exactly
        n = 50
        path = pav.from_text("U" * n + "D" * n)
        assert sweep_runs(path, bij231.forward(path), [], np.add) == [(0, 2 * n + 1)]
        assert coupling_231(path, []) == n / math.sqrt(2 * n)


def mirror_oracle(e: list) -> list:
    """The candidate runs of the mirror sweep in Python ints: the maximal
    runs of one nonzero sign of E(0..n), each with the other function's
    values c0, c1 at the points beside it (0 past n, F_plus' anchor) and
    E's least and largest value on it; a run is a candidate iff its upper
    bound reaches the largest lower bound."""
    runs = []
    for sign, group in itertools.groupby(range(len(e)), key=lambda a: (e[a] > 0) - (e[a] < 0)):
        points = list(group)
        if sign:
            runs.append((points[0], points[-1] + 1))
    bounds = []
    for start, stop in runs:
        c = (e[start - 1], e[stop] if stop < len(e) else 0)
        low, high = min(e[start:stop]), max(e[start:stop])
        bounds.append((max(max(c) + high, -min(c) - low), max(min(c) + high, -max(c) - low)))
    best = max((lower for _, lower in bounds), default=0)
    return [run for run, (upper, _) in zip(runs, bounds) if upper >= best]


def mirror_runs(path) -> list:
    starts, stops = _mirror_runs(exceedance_process(pav.bij321.forward(path)))
    return list(zip(starts.tolist(), stops.tolist()))


class TestMirrorRuns:
    """The mirror sup |F_plus + F_minus| sweeps only the runs of one sign
    of E whose integer bound reaches the best (_mirror_runs)."""

    @given(path_and_index_set())
    @settings(max_examples=60, deadline=None)
    def test_runs_hold_the_lattice_maximum(self, case):
        self.assert_runs_hold_the_lattice_maximum(case[0])

    @pytest.mark.parametrize("n,seed", BLOCK_EDGES)
    def test_runs_hold_the_lattice_maximum_at_block_edges(self, n, seed):
        self.assert_runs_hold_the_lattice_maximum(pav.sample_uniform(n, substream(seed)))

    @given(tent_path_and_knots())
    @settings(max_examples=30, deadline=None)
    def test_runs_hold_the_lattice_maximum_on_tents(self, case):
        self.assert_runs_hold_the_lattice_maximum(case[0])

    @staticmethod
    def assert_runs_hold_the_lattice_maximum(path):
        n = path.n
        tau = pav.bij321.forward(path)
        f_plus, f_minus = (scaled_function(tau, e) for e in exceedance_sets(tau))
        values = np.abs(f_plus.eval_lattice(n, 0, n + 1) + f_minus.eval_lattice(n, 0, n + 1))
        e = exceedance_process(tau)
        runs = mirror_runs(path)
        last = 0
        for start, stop in runs:
            assert last <= start < stop  # disjoint, increasing and not empty
            assert len(set(np.sign(e[start:stop]).tolist()) - {0}) == 1 and 0 not in e[start:stop]
            last = stop
        swept = max((values[start:stop].max() for start, stop in runs), default=0.0)
        assert swept == values.max()
        assert coupling_321(path)[2] == values.max()

    @given(path_and_index_set())
    @settings(max_examples=60, deadline=None)
    def test_runs_match_the_integer_oracle(self, case):
        path = case[0]
        e = exceedance_process(pav.bij321.forward(path)).tolist()
        assert mirror_runs(path) == mirror_oracle(e)

    def test_runs_match_the_integer_oracle_on_every_small_path(self):
        for n in range(1, 9):
            for path in pav.enumerate_all(n):
                e = exceedance_process(pav.bij321.forward(path)).tolist()
                assert mirror_runs(path) == mirror_oracle(e)

    def test_run_whose_bound_ties_best_is_swept(self):
        # E = 0, 1, -1, 2, -1, -1: the runs {1}, {2}, {3} and {4, 5} each have
        # upper bound 1, and at 3, where F_plus has its knot 2 and F_minus is
        # -1 on its segment from (2, -1) to (4, -1), the sum is 1 exactly:
        # the best lower bound 1 ties every upper bound, and all are swept
        path = pav.from_text("UDUUUDDUDD")
        e = exceedance_process(pav.bij321.forward(path)).tolist()
        assert e == [0, 1, -1, 2, -1, -1]
        assert mirror_runs(path) == mirror_oracle(e) == [(1, 2), (2, 3), (3, 4), (4, 6)]
        assert coupling_321(path)[2] == pytest.approx(1 / math.sqrt(10))

    def test_mirror_sweeps_under_one_percent_at_1e5(self):
        n = 100_000
        runs = mirror_runs(pav.sample_uniform(n, substream(0)))
        assert 0 < sum(stop - start for start, stop in runs) < 0.01 * (n + 1)

    def test_falling_exceedances_raise(self, monkeypatch):
        # 4 3 1 2 holds 321: its exceedance values 4, 3 fall, and E = 3, 1
        # falls along the run of E > 0 at 1, 2, where the bounds need it to rise
        monkeypatch.setattr(bij321, "forward", lambda path: pav.Permutation([4, 3, 1, 2]))
        with pytest.raises(NotReconstructible):
            coupling_321(pav.from_text("UDUDUDUD"))


def exact_sup(pairs) -> Fraction:
    """max over the lattice points x of |f(x) + g(x)|, f and g given by
    their integer knots (x_i, v_i) and linear between them, in Fractions."""
    def at(knots, x):
        for (x0, v0), (x1, v1) in zip(knots, knots[1:]):
            if x0 <= x <= x1:
                return v0 + Fraction((v1 - v0) * (x - x0), x1 - x0)
        raise AssertionError(f"{x} lies outside the knots")

    f, g = pairs
    return max(abs(at(f, x) + at(g, x)) for x in range(f[-1][0] + 1))


def interpolation_knots(perm, indices, sign=1, step=1) -> list:
    """The knots (step * a, sign * E(a)) of scaled_function(perm, indices)
    in units of 1/sqrt(2n), with its anchors (0, 0) and (n, 0)."""
    n, kept = perm.n, set(int(a) for a in indices)
    points = sorted(kept | {0, n})
    return [(step * a, sign * (perm(a) - a) if a in kept and a else 0) for a in points]


def within_error_bound(value: float, exact: Fraction, n: int) -> bool:
    """|value - exact / sqrt(2n)| <= 32 * 2**-53 * n / sqrt(2n), squared out
    in Fractions: exact - b <= value sqrt(2n) <= exact + b."""
    v, b = Fraction(value), Fraction(32 * n, 2**53)
    square = v * v * 2 * n
    return square <= (exact + b) ** 2 and (exact - b <= 0 or square >= (exact - b) ** 2)


def test_sups_within_the_error_bound_of_the_exact_sups():
    """On every path with n <= 8, each of the four coupling sups lies within
    32 * 2**-53 * n units of 1/sqrt(2n) of the exact sup, taken over the
    union knots in Fractions from the paths and the images alone."""
    for n in range(1, 9):
        for seed, path in enumerate(pav.enumerate_all(n)):
            gamma = [(x, int(h)) for x, h in enumerate(path.heights)]
            tau, sigma = pav.bij321.forward(path), bij231.forward(path)
            e = [0] + [tau(a) - a for a in range(1, n + 1)]
            plus = [a for a in range(n + 1) if e[a] >= 0]
            minus = [a for a in range(n + 1) if e[a] <= 0]
            want = (exact_sup((gamma, interpolation_knots(tau, plus, -1, 2))),
                    exact_sup((gamma, interpolation_knots(tau, minus, 1, 2))),
                    exact_sup((interpolation_knots(tau, plus), interpolation_knots(tau, minus))))
            for got, exact in zip(coupling_321(path), want):
                assert within_error_bound(got, exact, n)
            for b in (se_set(path, 1.0, 0.4), random_index_set(n, 2, substream(seed))):
                exact = exact_sup((gamma, interpolation_knots(sigma, b.tolist(), 1, 2)))
                assert within_error_bound(coupling_231(path, b), exact, n)


def segment_sums(perm, kept, step) -> tuple:
    """(S, L) at each lattice point x = 0..step n, int64: L = x1 - x0 and
    S = E0 (x1 - x) + E1 (x - x0) over x's segment [x0, x1] of the
    interpolation through the knots (step a, E(a) = perm(a) - a) for a in
    kept, anchored at (0, 0) and (step n, 0) when 0 or n is absent, so that
    it takes the value S / L in units of 1/sqrt(2n).  A point's segment is
    the one it starts, the last point's the last one; each point finds its
    x0 by a running maximum over the knots, not by a binary search."""
    n = perm.n
    e = np.concatenate(([0], perm.images - np.arange(1, n + 1)))
    a = np.union1d(kept, [0, n]).astype(np.int64)
    knots, values = step * a, np.where(np.isin(a, kept), e[a], 0)
    start = np.zeros(step * n + 1, dtype=np.int64)
    start[knots[:-1]] = knots[:-1]
    x0 = np.maximum.accumulate(start)
    after, value = np.zeros_like(start), np.zeros_like(start)
    after[knots[:-1]], value[knots] = knots[1:], values
    x1, x = after[x0], np.arange(step * n + 1)
    return value[x0] * (x1 - x) + value[x1] * (x - x0), x1 - x0


def exact_max(num, *dens) -> Fraction:
    """max over the points of |num| / prod(dens), exact: the float quotients,
    each within a few ulps of its exact value, pick the points that may hold
    it, and Python ints compare those."""
    q = np.abs(num).astype(np.float64)
    for den in dens:
        q /= den
    near = np.flatnonzero(q >= q.max() * (1 - 1e-9))
    return max(Fraction(abs(int(num[i])), math.prod(int(den[i]) for den in dens)) for i in near)


@st.composite
def paths_to_1e5(draw):
    """Sampled paths with n up to 1e5, with an index set for the 231 sup as
    in path_and_index_set."""
    seed = draw(st.integers(0, 2**32))
    n = draw(st.one_of(st.integers(1, 400), st.integers(401, 100_000), st.just(100_000)))
    path = pav.sample_uniform(n, substream(seed))
    kind = draw(st.sampled_from(["sparse", "empty", "se_set", "full"]))
    b = {"sparse": lambda: random_index_set(n, draw(st.integers(1, 8)), substream(seed, 1)),
         "empty": lambda: np.array([], dtype=np.int64),
         "se_set": lambda: se_set(path, 1.0, 0.4),
         "full": lambda: np.arange(1, n + 1)}[kind]()
    return path, b


def integer_oracle(path, b) -> tuple:
    """The exact four coupling sups, in units of 1/sqrt(2n), from integer
    numerators at every lattice point: L gamma(x) -+ S(x) over L for a sup
    against the scaled path, and for the mirror L_minus S_plus + L_plus
    S_minus over L_plus L_minus, at the points a of the lattice a/n.  Every
    numerator is below 2**53 for n <= 1e5, so int64 holds it exactly."""
    gamma = path.heights.astype(np.int64)
    tau, sigma = bij321.forward(path), bij231.forward(path)
    e = exceedance_process(tau)
    plus, minus = np.flatnonzero(e >= 0), np.flatnonzero(e <= 0)
    (s_plus, l_plus), (s_minus, l_minus) = (segment_sums(tau, k, 2) for k in (plus, minus))
    (m_plus, d_plus), (m_minus, d_minus) = (segment_sums(tau, k, 1) for k in (plus, minus))
    s, l = segment_sums(sigma, b, 2)
    return (exact_max(l_plus * gamma - s_plus, l_plus),
            exact_max(l_minus * gamma + s_minus, l_minus),
            exact_max(d_minus * m_plus + d_plus * m_minus, d_plus, d_minus),
            exact_max(l * gamma + s, l))


def test_integer_oracle_equals_the_fraction_oracle():
    """On every path with n <= 6, the four sups of exact_sup's union knots."""
    for n in range(1, 7):
        for seed, path in enumerate(pav.enumerate_all(n)):
            gamma = [(x, int(h)) for x, h in enumerate(path.heights)]
            tau, sigma = pav.bij321.forward(path), bij231.forward(path)
            e = exceedance_process(tau).tolist()
            plus = [a for a in range(n + 1) if e[a] >= 0]
            minus = [a for a in range(n + 1) if e[a] <= 0]
            b = random_index_set(n, 2, substream(seed))
            want = (exact_sup((gamma, interpolation_knots(tau, plus, -1, 2))),
                    exact_sup((gamma, interpolation_knots(tau, minus, 1, 2))),
                    exact_sup((interpolation_knots(tau, plus), interpolation_knots(tau, minus))),
                    exact_sup((gamma, interpolation_knots(sigma, b.tolist(), 1, 2))))
            assert integer_oracle(path, b) == want


@given(paths_to_1e5())
@settings(max_examples=40, deadline=None)
def test_sups_within_the_error_bound_of_the_integer_oracle(case):
    """Each of the four coupling sups lies within 32 * 2**-53 * n units of
    1/sqrt(2n) of the integer oracle's exact sup."""
    path, b = case
    got = (*coupling_321(path), coupling_231(path, b))
    for value, exact in zip(got, integer_oracle(path, b)):
        assert within_error_bound(value, exact, path.n), (value, exact)


class TestCoupling321:
    def test_smallest_path(self):
        d_plus, d_minus, d_mirror = coupling_321(pav.from_text("UD"))
        assert d_plus == pytest.approx(1 / math.sqrt(2))
        assert d_minus == pytest.approx(1 / math.sqrt(2))
        assert d_mirror == 0.0

    def test_single_run_worst_case(self):
        # identity image: both interpolations vanish, distance is the peak
        for n in (3, 10, 50):
            d_plus, _, d_mirror = coupling_321(pav.from_text("U" * n + "D" * n))
            assert d_plus == pytest.approx(n / math.sqrt(2 * n))
            assert d_mirror == 0.0

    @pytest.mark.parametrize("n,seed", [
        (1, 0), (7, 1), (300, 2), (2000, 3), (5000, 4), *BLOCK_EDGES])
    def test_equals_public_sups_bit_for_bit(self, n, seed):
        assert_321_is_public_sups(pav.sample_uniform(n, substream(seed)))

    def test_equals_public_sups_on_every_small_path(self):
        for n in range(1, 9):
            for path in pav.enumerate_all(n):
                assert_321_is_public_sups(path)

    def test_nonnegative_and_finite(self):
        rng = substream(1)
        for _ in range(20):
            vals = coupling_321(pav.sample_uniform(int(rng.integers(1, 300)), rng))
            assert all(0 <= v < 50 for v in vals)


def traced_peak_mib(fn) -> float:
    """Peak of the memory traced while fn runs; numpy reports its buffers
    to tracemalloc, so the count is deterministic."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestCouplingMemory:
    def test_no_full_size_lattice_temporaries(self):
        """At n = 1e5 a lattice-sized float64 array is 1.5 MiB.  Measured
        peaks are 5.38 (321) and 3.15 MiB (231), reached before any sweep:
        in the mirror's run bounds, beside tau and E, and in the candidate
        bounds beside the knots.  The sweeps visit so few points that one
        block for the whole lattice (LATTICE_BLOCK = 2**30) leaves both
        peaks as they are; blocks bound the long runs of sparse sets."""
        path = pav.sample_uniform(100_000, substream(0))
        path.heights, pav.excursions(path)  # cached on the path beforehand
        b = se_set(path, 1.0, 0.4)
        assert traced_peak_mib(lambda: coupling_321(path)) < 6.0
        assert traced_peak_mib(lambda: coupling_231(path, b)) < 5.0


class TestSeSet:
    def test_full_when_threshold_large(self):
        p = pav.sample_uniform(40, 2)
        assert list(se_set(p, 1.0, 1.0)) == list(range(1, 41))

    def test_sawtooth_all_small(self):
        p = pav.from_text("UD" * 30)
        assert se_set(p, 1.0, 0.01).size == 30

    def test_counts_match_hat_xi(self):
        from pav.trees import from_contour, hat_xi

        rng = substream(3)
        for _ in range(20):
            n = int(rng.integers(2, 200))
            p = pav.sample_uniform(n, rng)
            c, alpha = 1.0, 0.4
            k = int(c * n**alpha)
            excluded = n - se_set(p, c, alpha).size
            assert excluded == hat_xi(from_contour(p), k + 1)


class TestCoupling231:
    def test_sawtooth_exact(self):
        for n in (1, 5, 100):
            p = pav.from_text("UD" * n)
            val = coupling_231(p, np.arange(1, n + 1))
            assert val == pytest.approx(1 / math.sqrt(2 * n))

    def test_empty_set_gives_path_sup(self):
        p = pav.from_text("UUDD")
        assert coupling_231(p, np.array([], dtype=np.int64)) == pytest.approx(2 / 2)

    def test_non_integer_index_set_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            coupling_231(pav.sample_uniform(4, 0), [1.5, 2.5])

    @pytest.mark.parametrize("n,seed", [
        (1, 0), (2, 5), (7, 1), (57, 6), (1000, 2), (5000, 4), *BLOCK_EDGES])
    def test_equals_sup_sum_bit_for_bit(self, n, seed):
        assert_231_is_sup_sum(pav.sample_uniform(n, substream(seed)), seed)

    def test_equals_sup_sum_on_every_small_path(self):
        for n in range(1, 9):
            for seed, path in enumerate(pav.enumerate_all(n)):
                assert_231_is_sup_sum(path, seed)


class TestRandomIndexSet:
    def test_empty(self):
        assert random_index_set(10, 0, 1).size == 0

    def test_deterministic(self):
        a = random_index_set(1000, 50, 7)
        b = random_index_set(1000, 50, 7)
        assert np.array_equal(a, b)

    def test_range_and_dedup(self):
        s = random_index_set(50, 500, 3)
        assert s.min() >= 1 and s.max() <= 50
        assert np.all(np.diff(s) > 0)


class TestHeightVsContour:
    def test_smallest(self):
        assert height_vs_contour(pav.from_text("UD")) == 1.0

    def test_sawtooth_n100(self):
        assert height_vs_contour(pav.from_text("UD" * 100)) == pytest.approx(1 / 10)


# Each entry point that needs n >= 1 refuses the empty path by naming n;
# runs and excursions take it (TestRuns, TestExcursionTable).
@pytest.mark.parametrize("call", [
    bij321.forward, bij231.forward, coupling_321, lambda path: coupling_231(path, []),
    bij321.coupling_bounds, moment_replicate, height_vs_contour, dyck.scaled_path,
    petrov.check_petrov,
], ids=["bij321.forward", "bij231.forward", "coupling_321", "coupling_231",
        "coupling_bounds", "moment_replicate", "height_vs_contour", "scaled_path",
        "check_petrov"])
def test_empty_path_refused_by_name(call):
    message = r"^(n must be|images must be a bijection on 1\.\.n, n) >= 1$"
    with pytest.raises(ValueError, match=message):
        call(pav.DyckPath(""))


def area_dp(n):
    """Oracle: exact E[sum_x gamma(x)] by a forward DP carrying (path
    count, accumulated height sum) per lattice point, O(n^2) big-integer
    updates."""
    counts = {0: 1}
    sums = {0: 0}
    for _ in range(2 * n):
        new_counts: dict[int, int] = {}
        new_sums: dict[int, int] = {}
        for y, cnt in counts.items():
            s = sums[y]
            for y2 in (y - 1, y + 1):
                if y2 < 0:
                    continue
                new_counts[y2] = new_counts.get(y2, 0) + cnt
                new_sums[y2] = new_sums.get(y2, 0) + s + y2 * cnt
        counts, sums = new_counts, new_sums
    assert counts[0] == pav.catalan(n)
    return Fraction(sums[0], counts[0])


class TestExactMomentOracle:
    @pytest.mark.parametrize("n", [*range(1, 33), 64, 100, 255, 256])
    def test_area_against_dp(self, n):
        assert exact_moment_oracle(n)[0] == area_dp(n)

    def test_n1(self):
        assert exact_moment_oracle(1) == (Fraction(1), Fraction(1))

    def test_n2(self):
        assert exact_moment_oracle(2) == (Fraction(3), Fraction(3, 2))

    def test_against_enumeration(self):
        for n in range(1, 9):
            paths = list(pav.enumerate_all(n))
            area = Fraction(sum(int(p.heights.sum()) for p in paths), len(paths))
            mx = Fraction(sum(pav.max_height(p) for p in paths), len(paths))
            assert exact_moment_oracle(n) == (area, mx)

    def test_strip_counts_against_enumeration(self):
        for n in range(1, 9):
            paths = list(pav.enumerate_all(n))
            for h in range(n + 1):
                brute = sum(1 for p in paths if pav.max_height(p) <= h)
                assert _paths_within(n, h) == brute

    @pytest.mark.parametrize("n", [1, 2, 17, 100, 256])
    def test_max_tail_sum_equals_the_telescoped_counts(self, n):
        """sum_h h (N(h) - N(h-1)), the per-height sum, over C_n."""
        counts = [_paths_within(n, h) for h in range(n + 1)]
        total = sum(h * (counts[h] - counts[h - 1]) for h in range(1, n + 1))
        assert exact_moment_oracle(n)[1] == Fraction(total, pav.catalan(n))

    def test_area_closed_form(self):
        # total area over all paths is 4^n - binom(2n+1, n)
        for n in (1, 5, 20, 64):
            ea, _ = exact_moment_oracle(n)
            assert ea == Fraction(4**n - math.comb(2 * n + 1, n), pav.catalan(n))

    def test_guard(self):
        with pytest.raises(TooLarge):
            exact_moment_oracle(257)


def area_inversions(path) -> int:
    """The inversion count moment_replicate reads off the path's area."""
    return (int(path.heights.sum()) - path.n) // 2


class TestMoments:
    def test_area_identity_exhaustive(self):
        for n in range(1, 11):
            for p in pav.enumerate_all(n):
                assert area_inversions(p) == inversions(bij231.forward(p))

    @given(st.integers(1, 2000), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_area_identity_property(self, n, seed):
        p = pav.sample_uniform(n, substream(seed))
        assert area_inversions(p) == inversions(bij231.forward(p))

    @pytest.mark.parametrize("text", ["UD" * 100_000, "U" * 100_000 + "D" * 100_000],
                             ids=["sawtooth", "tent"])
    def test_area_identity_extremes(self, text):
        p = pav.from_text(text)
        assert area_inversions(p) == inversions(bij231.forward(p))

    def test_area_identity_large(self):
        for r in range(3):
            p = pav.sample_uniform(100_000, substream(77, r))
            assert area_inversions(p) == inversions(bij231.forward(p))

    def test_replicate_counts_inversions_of_the_image(self):
        for r in range(5):
            path = pav.sample_uniform(500, substream(4, 500, r))
            inv, _ = moment_replicate(path)
            assert inv == inversions(bij231.forward(path)) / 500**1.5

    def test_exhaustive_mean_inversions_n2(self):
        vals = [inversions(bij231.forward(p)) for p in pav.enumerate_all(2)]
        assert sorted(vals) == [0, 1]
        assert np.mean(vals) == 0.5

    def test_identity_enforced_each_replicate(self):
        cfg = ExperimentConfig(theorem_id="moments", n_grid=(200,), replicates=10, seed=3,
                               keep_raw=True)
        report = run_experiment(cfg)
        raw = {(r, stat): v for (_, r, stat, v) in report.raw}
        for r in range(10):
            inv, mx = moment_replicate(pav.sample_uniform(200, substream(3, 200, r)))
            assert raw[r, "inversions_scaled"] == inv and raw[r, "max_scaled"] == mx
        assert report.rows(statistic="max_scaled")[0]["mean"] > 0

    def test_empty(self):
        with pytest.raises(BadConfig, match="replicates must be >= 1"):
            ExperimentConfig(theorem_id="moments", n_grid=(100,), replicates=0, seed=1)


class TestHarness:
    def test_unknown_theorem(self):
        with pytest.raises(BadConfig):
            ExperimentConfig(theorem_id="nope", n_grid=(10,), replicates=1, seed=0)

    def test_bad_grid(self):
        with pytest.raises(BadConfig):
            ExperimentConfig(theorem_id="moments", n_grid=(10, 10), replicates=1, seed=0)
        with pytest.raises(BadConfig):
            ExperimentConfig(theorem_id="moments", n_grid=(), replicates=1, seed=0)

    def test_zero_replicates(self):
        with pytest.raises(BadConfig):
            ExperimentConfig(theorem_id="height", n_grid=(10,), replicates=0, seed=0)

    @pytest.mark.parametrize("field,value", [
        ("replicates", 2.7),
        ("seed", 1.9),
        ("n_grid", (10.5,)),
    ])
    def test_rejects_non_integral_instead_of_truncating(self, field, value):
        kwargs = dict(theorem_id="thm321", n_grid=(10,), replicates=2, seed=1)
        kwargs[field] = value
        with pytest.raises(BadConfig):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("field", ["c", "alpha", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_reals(self, field, value):
        kwargs = dict(theorem_id="thm231", n_grid=(10,), replicates=2, seed=1)
        kwargs[field] = value
        with pytest.raises(BadConfig, match=field):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("reals,message", [
        ({"alpha": 1e308}, "alpha=1e+308 makes n**alpha overflow at n=10"),
        ({"c": 1e308, "alpha": 1.0}, "c=1e+308 makes c * n**alpha overflow at n=10"),
        ({"c": -1e308, "alpha": 1.0}, "c=-1e+308 makes c * n**alpha overflow at n=10"),
        ({"epsilon": 1e308}, "epsilon=1e+308 makes n**(0.75 + epsilon) overflow at n=10"),
    ])
    def test_rejects_overflowing_reals_by_name(self, reals, message):
        with pytest.raises(BadConfig) as exc:
            ExperimentConfig(theorem_id="thm231", n_grid=(2, 10), replicates=2, seed=1, **reals)
        assert str(exc.value) == message

    @pytest.mark.parametrize("theorem", ["subtree", "random_index"])
    @pytest.mark.parametrize("c,alpha", [(0.0, 0.4), (-3.0, 0.4), (1.0, -1.0)])
    def test_rejects_a_count_below_one(self, theorem, c, alpha):
        with pytest.raises(BadConfig, match=r"floor\(c\*n\^alpha\) = -?\d+ < 1 at n=10"):
            ExperimentConfig(theorem_id=theorem, n_grid=(10,), replicates=1, seed=0,
                             c=c, alpha=alpha)

    @pytest.mark.parametrize("c,alpha,message", [  # each once built, then its run raised
        (1.0, 2.0, "threshold floor(c*n^alpha) = 10000 > n + 1 at n=100"),
        (1.5, 0.99, "threshold floor(c*n^alpha) = 143 > n + 1 at n=100"),
        (0.01, 2.0, "alpha must lie in (0, 1]"),
        (1.01, 1.0, "alpha = 1 requires c <= 1"),
    ])
    def test_subtree_refuses_what_its_run_would(self, c, alpha, message):
        with pytest.raises(BadConfig) as exc:
            ExperimentConfig(theorem_id="subtree", n_grid=(100,), replicates=1, seed=0,
                             c=c, alpha=alpha)
        assert str(exc.value) == message

    def test_report_schema(self):
        cfg = ExperimentConfig(theorem_id="thm321", n_grid=(100,), replicates=3, seed=7)
        report = run_experiment(cfg)
        payload = json.loads(report.to_json())
        assert set(payload) == {"config", "results", "meta"}
        assert set(payload["meta"]) == {"seed", "version", "wall_seconds"}
        row = payload["results"][0]
        assert set(row) == {"n", "statistic", "mean", "sd", "median", "q25", "q75", "count"}
        stats = {r["statistic"] for r in payload["results"]}
        assert stats == {"d_plus", "d_minus", "d_mirror"}

    def test_reproducible_bytes(self):
        cfg = ExperimentConfig(theorem_id="thm321", n_grid=(100,), replicates=1, seed=7)
        a = run_experiment(cfg).to_json(include_timing=False)
        b = run_experiment(cfg).to_json(include_timing=False)
        assert a == b

    def test_worker_invariance(self):
        cfg = ExperimentConfig(theorem_id="moments", n_grid=(50, 80), replicates=6, seed=9)
        a = run_experiment(cfg, workers=1).to_json(include_timing=False)
        b = run_experiment(cfg, workers=3).to_json(include_timing=False)
        assert a == b

    def test_subtree_exact_mode(self):
        cfg = ExperimentConfig(
            theorem_id="subtree", n_grid=(100, 1000), replicates=1, seed=0, c=1.0, alpha=0.5
        )
        report = run_experiment(cfg)
        errs = [r["mean"] for r in report.rows(statistic="abs_error")]
        assert errs[1] < errs[0]
        for r in report.results:
            assert r["count"] == 1 and r["sd"] == 0.0

    def test_raw_csv(self, tmp_path):
        cfg = ExperimentConfig(
            theorem_id="height", n_grid=(20,), replicates=4, seed=1, keep_raw=True
        )
        report = run_experiment(cfg)
        out = tmp_path / "raw.csv"
        report.save_raw_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,replicate,statistic,value"
        assert len(lines) == 1 + 4

    def test_aggregates_recomputable_from_raw(self):
        cfg = ExperimentConfig(
            theorem_id="thm321", n_grid=(60,), replicates=9, seed=4, keep_raw=True
        )
        report = run_experiment(cfg)
        for row in report.results:
            vals = [
                v for (n, r, stat, v) in report.raw
                if n == row["n"] and stat == row["statistic"]
            ]
            assert len(vals) == row["count"]
            assert row["mean"] == pytest.approx(np.mean(vals), abs=0)
            assert row["median"] == np.quantile(vals, 0.5)

    def test_se_large_row_present(self):
        cfg = ExperimentConfig(
            theorem_id="thm231", n_grid=(200,), replicates=5, seed=2, epsilon=0.05
        )
        report = run_experiment(cfg)
        stats = {r["statistic"] for r in report.results}
        assert stats == {"coupling", "excluded_count", "se_large"}


class _RecordingPool:
    """Serial stand-in for ProcessPoolExecutor that records each pool size."""

    sizes: list = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


class TestPool:
    @pytest.mark.parametrize("cpus,workers,n_items,size", [
        (3, 8, 10, 3),
        (8, 2, 10, 2),
        (8, 8, 5, 5),
        (8, 8, 1, None),
        (1, 4, 10, None),
    ])
    def test_pool_size_clamped(self, monkeypatch, recording_pool, cpus, workers, n_items, size):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)  # the host, not this process
        out = parallel.replicate_map(abs, range(-n_items, 0), workers)
        assert out == list(range(n_items, 0, -1))
        assert recording_pool.sizes == ([] if size is None else [size])

    @pytest.mark.parametrize("cpus,size", [(3, 3), (None, None)])
    def test_cpu_count_without_affinity(self, monkeypatch, recording_pool, cpus, size):
        monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
        assert parallel.replicate_map(abs, range(-10, 0), 8) == list(range(10, 0, -1))
        assert recording_pool.sizes == ([] if size is None else [size])

    @pytest.mark.parametrize("workers", [0, -4, 2.5, 2.0, "2"])
    def test_rejects_worker_count(self, workers):
        with pytest.raises(BadConfig, match="^--threads must be"):
            parallel.replicate_map(abs, range(3), workers)
        cfg = ExperimentConfig(theorem_id="subtree", n_grid=(10,), replicates=1, seed=0)
        with pytest.raises(BadConfig):
            run_experiment(cfg, workers=workers)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the settings are glibc's")
    def test_heap_pages_reused(self):
        # A fresh interpreter, whose malloc thresholds no earlier test moved.
        # 3 MiB is mapped afresh (768 page faults) at glibc's defaults, and
        # under numpy's 4 MiB huge-page cut-off.
        code = (
            "import resource, numpy as np\n"
            "from pav import parallel\n"
            "parallel.replicate_map(abs, range(1), 1)\n"
            "assert parallel._keep_heap_resident()\n"
            "np.ones(3 << 17)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "np.ones(3 << 17)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(pav.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env=env)
        assert int(out.stdout) < 100

    def test_heap_trimmed_before_fork(self, monkeypatch, recording_pool):
        calls = []
        monkeypatch.setattr(parallel, "_LIBC", SimpleNamespace(malloc_trim=calls.append))
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(2)))
        parallel.replicate_map(abs, range(4), 1)
        assert calls == []
        parallel.replicate_map(abs, range(4), 2)
        assert calls == [0] and recording_pool.sizes == [2]

    def test_one_pool_per_grid(self, monkeypatch, recording_pool):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(4)))
        cfg = ExperimentConfig(theorem_id="height", n_grid=(10, 20, 30), replicates=3, seed=2)
        pooled = run_experiment(cfg, workers=4).to_json(include_timing=False)
        assert recording_pool.sizes == [4]
        assert pooled == run_experiment(cfg, workers=1).to_json(include_timing=False)


@pytest.mark.parametrize("theorem", sorted(t for t, (statistic, _) in THEOREMS.items()
                                     if statistic))
def test_registry_bytes_equal_across_workers(theorem):
    cfg = ExperimentConfig(theorem_id=theorem, n_grid=(20,), replicates=2, seed=11)
    one = run_experiment(cfg, workers=1).to_json(include_timing=False)
    assert run_experiment(cfg, workers=2).to_json(include_timing=False) == one


# SHA-256 of repr(report.raw) with keep_raw, n_grid (1000, 10000), 8 replicates,
# seed 17.  The bit-for-bit tests above compare the sweeps with sup_distance,
# which shares the kernel scaled._interpolate with them, so a change to the
# interpolation inside the integer oracle's bound shows only here and in
# test_perms.py's comparisons with eval_rational_int_divide.
RAW_SHA256 = {
    "thm321": "224fc72d5d96306b6050e1c965e27f5832ac6ed6acd757d38c7d694b287007f9",
    "thm231": "7c469dbd3f1610a0c6554a748afaa7d73c629b55cb75e0d826dc0968e56cb5cc",
    "random_index": "922ed08523b981d50cb6ced54823dc753c576e4504ac63352865ca55e766f860",
}


@pytest.mark.parametrize("theorem", sorted(RAW_SHA256))
def test_raw_values_frozen(theorem):
    cfg = ExperimentConfig(theorem_id=theorem, n_grid=(1000, 10000), replicates=8, seed=17,
                           keep_raw=True)
    raw = repr(run_experiment(cfg).raw).encode()
    assert hashlib.sha256(raw).hexdigest() == RAW_SHA256[theorem]


# random_index is left out: it draws its own index set from the stream, so
# its statistic is not a function of the path alone
@pytest.mark.parametrize("theorem", ["height", "moments", "petrov", "thm231", "thm321"])
def test_small_n_means_match_exact_means(theorem):
    """The exact mean of each statistic over all C_8 = 1430 paths of
    semilength 8, against a seeded Monte Carlo run: |z| <= 4 with the exact
    standard deviation, and equal means for a statistic constant on them."""
    n, reps = 8, 4000
    cfg = ExperimentConfig(theorem_id=theorem, n_grid=(n,), replicates=reps, seed=4242)
    exact = [THEOREMS[theorem][0](path, None, cfg) for path in pav.enumerate_all(n)]
    assert len(exact) == pav.catalan(n)
    for row in run_experiment(cfg, workers=2).results:
        values = np.array([d[row["statistic"]] for d in exact])
        sd = values.std()
        if sd == 0:
            assert row["mean"] == values[0], row
        else:
            z = (row["mean"] - values.mean()) / (sd / math.sqrt(reps))
            print(f"{theorem} {row['statistic']}: z = {z:+.2f} against exact {values.mean():.6f}")
            assert abs(z) <= 4, (row["statistic"], z)
