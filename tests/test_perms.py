"""Permutation statistics, pattern checks, and scaled exceedance
functions."""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pav
from pav.errors import IndexOutOfRange
from pav.perms import (
    Permutation,
    avoids_231,
    avoids_321,
    contains_pattern,
    exceedance,
    exceedance_process,
    exceedance_sets,
    inversions,
    max_deficit,
    scaled_function,
)
from pav.rng import substream
from pav.scaled import ScaledFunction, sup_distance

P321 = Permutation([3, 2, 1])
P231 = Permutation([2, 3, 1])

perm_strategy = st.integers(1, 60).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def random_perm(n, seed):
    return Permutation(substream(seed).permutation(n) + 1)


def prefix_max_avoids_321(perm: Permutation) -> bool:
    """Oracle for avoids_321: a position is a candidate middle when some
    earlier value exceeds it; perm contains 321 iff a later value drops
    below the largest middle seen so far."""
    v = perm.images
    prefix_max = np.maximum.accumulate(np.concatenate(([0], v[:-1])))
    mid_max = np.maximum.accumulate(np.where(v < prefix_max, v, 0))
    return not bool(np.any(v[1:] < mid_max[:-1]))


def stack_avoids_231(perm: Permutation) -> bool:
    """Oracle for avoids_231: perm avoids 231 iff one stack sorts it.  The
    popped values (those with a later larger value) are the candidate
    2s; any later smaller value completes a 231."""
    stack: list[int] = []
    best = 0  # largest popped value so far
    for x in perm.images.tolist():
        if x < best:
            return False
        while stack and stack[-1] < x:
            best = stack.pop()
        stack.append(x)
    return True


def transposed(perm: Permutation, data) -> Permutation:
    """perm with two positions, or the adjacent values k and k+1, swapped
    (drawn from hypothesis data)."""
    images, n = perm.images.copy(), perm.n
    if data.draw(st.booleans(), label="swap values"):
        k = data.draw(st.integers(1, n - 1), label="k")
        i, j = np.flatnonzero((images == k) | (images == k + 1))
    else:
        i = data.draw(st.integers(0, n - 1), label="i")
        j = data.draw(st.integers(0, n - 1), label="j")
    images[[i, j]] = images[[j, i]]
    return Permutation(images)


class TestPermutationType:
    def test_text_roundtrip(self):
        p = Permutation("2 1 6 3 10 4 5 7 8 9")
        assert p.to_text() == "2 1 6 3 10 4 5 7 8 9"
        assert p(5) == 10

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])
        with pytest.raises(ValueError):
            Permutation([0, 1])
        with pytest.raises(ValueError):
            Permutation([])

    @pytest.mark.parametrize("images", [
        np.array([1.7, 2.2]),  # truncates to 1 2
        np.array([1.0, 2.0]),
        np.array([True]),
    ])
    def test_rejects_instead_of_coercing(self, images):
        with pytest.raises(ValueError):
            Permutation(images)

    @pytest.mark.parametrize("wrap", [lambda a: a, lambda a: a[:], memoryview])
    def test_caller_array_stays_writable_and_unshared(self, wrap):
        a = np.array([2, 1, 3])
        p = Permutation(wrap(a))
        a[0] = 5
        assert p.to_text() == "2 1 3"

    def test_copies_a_permutation(self):
        p = Permutation("2 3 1")
        q = Permutation(p)
        assert q == p and not np.shares_memory(q.images, p.images)
        assert not q.images.flags.writeable

    def test_accepts_any_integer_dtype(self):
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            assert Permutation(np.array([2, 3, 1], dtype=dtype)).to_text() == "2 3 1"

    def test_call_range(self):
        with pytest.raises(IndexOutOfRange):
            Permutation([1])(2)


class TestPatterns:
    def test_figure_image_avoids_321(self):
        tau = Permutation("2 1 6 3 10 4 5 7 8 9")
        assert not contains_pattern(tau, P321)
        assert avoids_321(tau)

    def test_pattern_itself(self):
        assert contains_pattern(P321, P321)
        assert contains_pattern(P231, P231)

    def test_312_avoids_231(self):
        assert avoids_231(Permutation([3, 1, 2]))
        assert not contains_pattern(Permutation([3, 1, 2]), P231)

    def test_identity_avoids_both(self):
        ident = Permutation.identity(8)
        assert avoids_321(ident) and avoids_231(ident)

    def test_size4_patterns_accepted(self):
        assert contains_pattern(Permutation([2, 4, 1, 3]), Permutation([2, 4, 1, 3]))
        with pytest.raises(ValueError):
            contains_pattern(Permutation([1]), Permutation([1, 2, 3, 4, 5]))

    def test_exhaustive_agreement_to_7(self):
        for n in range(1, 8):
            for images in permutations(range(1, n + 1)):
                perm = Permutation(images)
                assert avoids_321(perm) == (not contains_pattern(perm, P321))
                assert avoids_231(perm) == (not contains_pattern(perm, P231))

    def test_rules_match_oracles_to_8(self):
        for n in range(1, 9):
            for images in permutations(range(1, n + 1)):
                perm = Permutation(images)
                assert avoids_321(perm) == prefix_max_avoids_321(perm)
                assert avoids_231(perm) == stack_avoids_231(perm)

    @pytest.mark.parametrize("rule, oracle, forward", [
        (avoids_321, prefix_max_avoids_321, pav.bij321.forward),
        (avoids_231, stack_avoids_231, pav.bij231.forward),
    ])
    @given(st.integers(2, 10_000), st.integers(0, 10_000), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rules_match_oracles_on_images(self, rule, oracle, forward, n, seed, swap, data):
        """On images, and on images with one transposition (of positions
        or of the adjacent values k, k+1): near misses, which uniformly
        random permutations seldom are."""
        perm = forward(pav.sample_uniform(n, substream(seed)))
        if swap:
            perm = transposed(perm, data)
        assert rule(perm) == oracle(perm)
        assert swap or rule(perm)


class TestExceedance:
    def test_identity(self):
        ident = Permutation.identity(5)
        assert all(exceedance(ident, i) == 0 for i in range(6))

    def test_values(self):
        p = Permutation([2, 3, 1])
        assert [exceedance(p, i) for i in range(4)] == [0, 1, 1, -2]

    def test_figure_row(self):
        tau = Permutation("2 1 6 3 10 4 5 7 8 9")
        assert exceedance(tau, 5) == 5

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            exceedance(Permutation([1, 2]), 3)

    @given(perm_strategy)
    @settings(max_examples=80, deadline=None)
    def test_sums_to_zero(self, images):
        assert int(exceedance_process(Permutation(images)).sum()) == 0

    def test_sets(self):
        plus, minus = exceedance_sets(Permutation([2, 3, 1]))
        assert list(plus) == [0, 1, 2]
        assert list(minus) == [0, 3]

    def test_sets_identity(self):
        plus, minus = exceedance_sets(Permutation.identity(4))
        assert list(plus) == list(minus) == [0, 1, 2, 3, 4]

    @given(perm_strategy)
    @settings(max_examples=60, deadline=None)
    def test_set_structure(self, images):
        perm = Permutation(images)
        plus, minus = exceedance_sets(perm)
        n = perm.n
        assert 0 in plus and 0 in minus
        assert n in minus  # pi(n) <= n always
        assert set(plus) | set(minus) == set(range(n + 1))


class TestScaledFunction:
    def test_identity_constant_zero(self):
        f = scaled_function(Permutation.identity(6), range(7))
        assert np.all(f.y == 0.0)

    def test_e_plus_knots(self):
        perm = Permutation([2, 3, 1])
        plus, _ = exceedance_sets(perm)
        f = scaled_function(perm, plus)
        assert list(f.t_num) == [0, 1, 2, 3] and f.t_den == 3
        assert f.y[1] == 1 / np.sqrt(6) and f.y[2] == 1 / np.sqrt(6)
        assert f.y[3] == 0.0  # anchor added at t=1

    def test_figure_knot(self):
        tau = Permutation("2 1 6 3 10 4 5 7 8 9")
        rd = pav.runs(pav.bij321.inverse(tau))
        subset = np.concatenate(([0], rd.set_D()))
        f = scaled_function(tau, subset)
        val = f.eval_lattice(10, 5, 6)[0]
        assert val == 5 / np.sqrt(20)

    def test_empty_set(self):
        # [] is float64 in numpy; an empty set has no value to coerce
        for n in (1, 3):
            for empty in ([], (), np.array([], dtype=bool)):
                f = scaled_function(random_perm(n, 2), empty)
                assert f.t_num.tolist() == [0, n] and f.t_den == n
                assert f.y.tolist() == [0.0, 0.0]

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            scaled_function(Permutation([1, 2]), [3])

    @pytest.mark.parametrize("indices", [[1.7, 3.2], [True, True], ["2"], [2.0]])
    def test_non_integer_indices_rejected(self, indices):
        # once truncated to knots [0, 1, 3, n], read as [0, 1, n] or parsed as [0, 2, n]
        with pytest.raises(ValueError, match="integers"):
            scaled_function(random_perm(5, 1), indices)

    def test_numpy_integer_dtypes_accepted(self):
        perm = random_perm(6, 4)
        want = scaled_function(perm, [2, 5])
        for dtype in (np.uint8, np.int32, np.uint64):
            f = scaled_function(perm, np.array([5, 2], dtype=dtype))
            assert f.t_num.tolist() == want.t_num.tolist() and f.y.tolist() == want.y.tolist()

    def test_eval_at_knot_exact(self):
        perm = random_perm(37, 5)
        plus, _ = exceedance_sets(perm)
        f = scaled_function(perm, plus)
        again = f.eval_lattice(f.t_den, 0, f.t_den + 1)[f.t_num]
        assert np.array_equal(again, f.y)


def eval_rational_int_divide(f, nums, den):
    """Reference kernel: weights by numpy's int64 true-divide."""
    own = f.t_num * (den // f.t_den)
    idx = np.clip(np.searchsorted(own, nums, side="right") - 1, 0, own.size - 2)
    w = (nums - own[idx]) / (own[idx + 1] - own[idx])
    return f.y[idx] * (1.0 - w) + f.y[idx + 1] * w


@st.composite
def knot_functions(draw):
    """Random ScaledFunctions: 2-knot functions and long single segments
    included, ordinates zero, negative or positive."""
    t_den = draw(st.one_of(st.integers(1, 300), st.integers(10_000, 100_000)))
    interior = draw(st.sets(st.integers(1, max(1, t_den - 1)), max_size=60))
    t_num = np.array([0, *sorted(interior - {t_den}), t_den])
    ordinate = st.one_of(st.just(0.0), st.floats(-1e9, 1e9))
    y = draw(st.lists(ordinate, min_size=t_num.size, max_size=t_num.size))
    return ScaledFunction(t_num, t_den, y)


def joined_blocks(f, den, cuts):
    """eval_lattice over the blocks [0, c_1), [c_1, c_2), ..., [c_k, den + 1)."""
    bounds = [0, *sorted(set(cuts) - {0, den + 1}), den + 1]
    return np.concatenate([f.eval_lattice(den, lo, hi) for lo, hi in zip(bounds, bounds[1:])])


class TestEvalLattice:
    @given(knot_functions(), st.sampled_from([1, 2, 3]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_eval_rational_bytes(self, f, mult, data):
        den = f.t_den * mult
        on_knots = data.draw(st.lists(st.sampled_from((f.t_num * mult).tolist()), max_size=8))
        off_knots = data.draw(st.lists(st.integers(1, den), max_size=8))
        want = eval_rational_int_divide(f, np.arange(den + 1), den).tobytes()
        assert f.eval_lattice(den, 0, den + 1).tobytes() == want
        assert joined_blocks(f, den, on_knots + off_knots).tobytes() == want

    def test_every_block_of_a_small_function(self):
        f = ScaledFunction([0, 2, 3, 7, 9], 9, [0.0, -1.5, 2.0, 1e-9, 0.0])
        for den in (9, 18):
            want = eval_rational_int_divide(f, np.arange(den + 1), den)
            for lo in range(den + 1):
                for hi in range(lo + 1, den + 2):
                    got = f.eval_lattice(den, lo, hi)
                    assert got.tobytes() == want[lo:hi].tobytes(), (den, lo, hi)

    def test_single_long_segment(self):
        f = ScaledFunction([0, 100_000], 100_000, [-2.5, 0.0])
        for den in (100_000, 300_000):
            got = f.eval_lattice(den, 0, den + 1)
            assert got[0] == -2.5 and got[-1] == 0.0
            assert got.tobytes() == eval_rational_int_divide(f, np.arange(den + 1), den).tobytes()
            assert joined_blocks(f, den, range(0, den, 8192)).tobytes() == got.tobytes()

    def test_den_not_a_multiple(self):
        f = ScaledFunction([0, 2, 3], 3, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="multiple"):
            f.eval_lattice(4, 0, 5)

    @pytest.mark.parametrize("lo,hi", [(-1, 2), (0, 8), (3, 3), (4, 2)])
    def test_block_outside_the_lattice(self, lo, hi):
        f = ScaledFunction([0, 2, 3], 3, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="lattice block"):
            f.eval_lattice(6, lo, hi)


class TestScaledFunctionConstructor:
    @pytest.mark.parametrize("t_num,t_den", [
        ([0, 1.7, 3], 3),  # the knot 1.7 truncates to 1
        (np.array([0.0, 3.0]), 3),
        (np.array([False, True]), 1),
        ([0, 3], 3.0),
        ([0, 3], 2.9),
    ])
    def test_rejects_instead_of_coercing(self, t_num, t_den):
        with pytest.raises(ValueError):
            ScaledFunction(t_num, t_den, np.zeros(len(t_num)))

    @pytest.mark.parametrize("wrap", [lambda a: a, lambda a: a[:], memoryview])
    def test_caller_arrays_stay_writable_and_unshared(self, wrap):
        t, y = np.array([0, 3]), np.array([0.0, 1.0])
        f = ScaledFunction(wrap(t), 3, wrap(y))
        t[0], y[0] = 1, 5.0
        assert f.t_num.tolist() == [0, 3] and f.y.tolist() == [0.0, 1.0]

    def test_copy_keyword_is_rejected(self):
        # one way in: no knob adopts the caller's arrays unchecked or uncopied
        t, y = np.array([0, 3]), np.array([0.0, 1.0])
        with pytest.raises(TypeError):
            ScaledFunction(t, 3, y, copy=False)
        f = ScaledFunction(t, 3, y)
        assert t.flags.writeable and y.flags.writeable
        assert not (f.t_num.flags.writeable or f.y.flags.writeable)
        assert not (np.shares_memory(f.t_num, t) or np.shares_memory(f.y, y))

    def test_accepts_any_integer_dtype(self):
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            f = ScaledFunction(np.array([0, 2, 3], dtype=dtype), np.int64(3), [0.0, 1.0, 0.0])
            assert f.t_num.dtype == np.int64 and f.t_den == 3 and type(f.t_den) is int


def pl_function(seed):
    rng = substream(seed)
    den = int(rng.integers(1, 30))
    k = int(rng.integers(0, den + 1))
    nums = np.unique(np.concatenate(([0, den], rng.integers(0, den + 1, size=k))))
    return ScaledFunction(nums, den, rng.normal(size=nums.size))


def sup_distance_union1d(f, g):
    """Reference kernel: the union grid built by np.union1d."""
    lcm = math.lcm(f.t_den, g.t_den)
    grid = np.union1d(f.t_num * (lcm // f.t_den), g.t_num * (lcm // g.t_den))
    fv, gv = (eval_rational_int_divide(h, grid, lcm) for h in (f, g))
    return float(np.max(np.abs(fv - gv)))


class TestSupDistance:
    def test_equal_functions(self):
        f = pl_function(1)
        assert sup_distance(f, f) == 0.0

    def test_linear_vs_zero(self):
        f = ScaledFunction([0, 1], 1, [0.0, 1.0])
        g = ScaledFunction([0, 1], 1, [0.0, 0.0])
        assert sup_distance(f, g) == 1.0

    def test_offset_peaks(self):
        f = ScaledFunction([0, 2, 4], 4, [0.0, 1.0, 0.0])
        g = ScaledFunction([0, 1, 4], 4, [0.0, 1.0, 0.0])
        assert sup_distance(f, g) == pytest.approx(0.5)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, s1, s2):
        f, g = pl_function(s1), pl_function(s2)
        assert sup_distance(f, g) == sup_distance(g, f)

    @given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_triangle(self, s1, s2, s3):
        f, g, h = pl_function(s1), pl_function(s2), pl_function(s3)
        assert sup_distance(f, h) <= sup_distance(f, g) + sup_distance(g, h) + 1e-12

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_equals_union1d_oracle(self, s1, s2):
        f, g = pl_function(s1), pl_function(s2)
        assert sup_distance(f, g) == sup_distance_union1d(f, g)

    @given(st.integers(1, 2000), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_coupling_functions_equal_union1d_oracle(self, n, seed):
        path = pav.sample_uniform(n, substream(seed))
        g = pav.dyck.scaled_path(path)
        tau = pav.bij321.forward(path)
        f_plus, f_minus = (scaled_function(tau, e) for e in exceedance_sets(tau))
        sigma = pav.bij231.forward(path)
        f_se = scaled_function(sigma, pav.experiments.se_set(path, 1.0, 0.4))
        for f, h in ((g, f_plus), (g, -f_minus), (f_plus, -f_minus), (g, -f_se)):
            assert sup_distance(f, h) == sup_distance_union1d(f, h)


def inversions_bruteforce(perm: Permutation) -> int:
    """O(n^2) oracle for inversions: every pair compared."""
    a = perm.images
    i, j = np.triu_indices(a.size, k=1)
    return int(np.sum(a[i] > a[j]))


class TestInversionsAndDeficit:
    def test_examples(self):
        assert inversions(Permutation.identity(5)) == 0
        assert inversions(Permutation([3, 1, 2])) == 2
        assert inversions(Permutation([4, 3, 2, 1])) == 6

    @given(perm_strategy)
    @settings(max_examples=80, deadline=None)
    def test_against_bruteforce(self, images):
        perm = Permutation(images)
        assert inversions(perm) == inversions_bruteforce(perm)

    def test_exhaustive_against_bruteforce(self):
        for n in range(1, 8):
            for images in permutations(range(1, n + 1)):
                perm = Permutation(images)
                assert inversions(perm) == inversions_bruteforce(perm), images

    def test_large_against_bruteforce(self):
        # sizes on either side of a power of two: the top bit's one group
        # is full, nearly full or holds a single set-bit value
        for n in (127, 128, 129, 700, 1023, 1024, 1025):
            for seed in range(3):
                perm = random_perm(n, seed)
                assert inversions(perm) == inversions_bruteforce(perm), (n, seed)

    def test_reversal(self):
        n = 10**5
        assert inversions(Permutation(np.arange(n, 0, -1))) == n * (n - 1) // 2

    def test_max_deficit(self):
        assert max_deficit(Permutation.identity(4)) == 0
        assert max_deficit(Permutation([3, 2, 1])) == 2
        assert max_deficit(Permutation([2, 3, 1])) == 2

    @given(perm_strategy)
    @settings(max_examples=50, deadline=None)
    def test_deficit_nonnegative(self, images):
        assert max_deficit(Permutation(images)) >= 0
