"""Core path machinery: validation, enumeration, sampling, runs,
excursions, scaling."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pav
from pav import dyck
from pav.errors import (
    BadStep,
    NegativeExcursion,
    NotBalanced,
    OddLength,
    TooLarge,
)
from pav.rng import as_generator, substream

# Catalan numbers from the convolution recurrence, independent of the library.
CATALAN = [1]
for _n in range(16):
    CATALAN.append(sum(CATALAN[i] * CATALAN[_n - i] for i in range(_n + 1)))


def random_path(n, seed):
    return pav.sample_uniform(n, substream(seed))


class TestValidate:
    def test_smallest(self):
        p = pav.DyckPath("UD")
        assert p.n == 1
        assert list(p.heights) == [0, 1, 0]

    def test_uudd(self):
        assert list(pav.DyckPath("UUDD").heights) == [0, 1, 2, 1, 0]

    def test_dips_below_zero(self):
        with pytest.raises(NegativeExcursion):
            pav.DyckPath("UDDU")

    def test_unbalanced(self):
        with pytest.raises(NotBalanced):
            pav.DyckPath("UDUU")

    def test_odd_length(self):
        with pytest.raises(OddLength):
            pav.DyckPath("UDU")

    def test_bad_char(self):
        with pytest.raises(BadStep):
            pav.DyckPath("UX")

    def test_bad_step_value(self):
        with pytest.raises(BadStep):
            pav.DyckPath([1, 2, -1, -1])
        with pytest.raises(BadStep):  # a negative run length
            dyck.from_runs([2, 1], [-1, 4])
        with pytest.raises(BadStep, match="up and down run counts differ"):
            dyck.from_runs([1], [1, 0])

    def test_steps_from_numbers(self):
        assert pav.DyckPath([1, 1, -1, -1]) == pav.from_text("UUDD")

    @pytest.mark.parametrize("steps", [
        np.array([257, -257]),  # wraps to +1, -1 in int8
        np.array([1.5, -1.9]),  # truncates to +1, -1
        np.array([1.0, -1.0]),
    ])
    def test_rejects_instead_of_coercing(self, steps):
        with pytest.raises(BadStep):
            pav.DyckPath(steps)

    def test_no_unchecked_public_constructor(self):
        # DU: balanced +-1 steps that dip below zero at once
        steps = np.array([-1, 1], dtype=np.int8)
        with pytest.raises(TypeError):
            pav.DyckPath(steps, validated=True)
        with pytest.raises(NegativeExcursion):
            pav.DyckPath(steps)

    def test_empty_path_is_valid(self):
        assert pav.DyckPath("").n == 0
        assert dyck.from_runs(np.array([], dtype=np.int64), []) == pav.DyckPath("")

    def test_immutability(self):
        p = pav.from_text("UUDD")
        with pytest.raises(ValueError):
            p.steps[0] = -1

    @pytest.mark.parametrize("wrap", [lambda a: a, lambda a: a[:], memoryview])
    def test_caller_array_stays_writable_and_unshared(self, wrap):
        a = np.array([1, 1, -1, -1], dtype=np.int8)
        p = pav.DyckPath(wrap(a))
        a[0] = -1
        assert p.to_text() == "UUDD"


def assert_one_way_in(path, *callers):
    """The path's arrays are consistent and frozen; each caller array is
    still writable and shares no memory with them."""
    steps, heights = path.steps, path.heights
    assert heights.tolist() == [0, *np.cumsum(steps).tolist()]
    assert not (steps.flags.writeable or heights.flags.writeable)
    for arr in callers:
        assert arr.flags.writeable
        assert not (np.shares_memory(arr, steps) or np.shares_memory(arr, heights))


class TestOneWayIn:
    """Every library route that builds a path goes through the constructor,
    which copies, checks and freezes."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_every_route(self, n, seed):
        p = random_path(n, seed)
        assert_one_way_in(p)
        assert_one_way_in(pav.from_text(p.to_text()))
        for dtype in (np.int8, np.int64):
            steps = p.steps.astype(dtype)
            assert_one_way_in(pav.DyckPath(steps), steps)
        assert not np.shares_memory(pav.DyckPath(p).steps, p.steps)
        for bij in (pav.bij321, pav.bij231):
            images = bij.forward(p).images.copy()
            q = bij.inverse(pav.Permutation(images))
            assert q == p
            assert_one_way_in(q, images)
        parents = pav.trees.from_contour(p).parent.copy()
        q = pav.trees.to_contour(pav.trees.OrderedTree(parents))
        assert q == p
        assert_one_way_in(q, parents)
        paths = list(pav.enumerate_all(min(n, 5)))
        assert len(set(paths)) == len(paths) == CATALAN[min(n, 5)]
        for q in paths:
            assert_one_way_in(q)


class TestEnumerate:
    def test_n0(self):
        assert [p.n for p in pav.enumerate_all(0)] == [0]

    def test_counts_match_catalan(self):
        for n in range(9):
            paths = list(pav.enumerate_all(n))
            assert len(paths) == CATALAN[n]
            assert len(set(paths)) == CATALAN[n]

    def test_lexicographic_order_u_before_d(self):
        texts = [p.to_text() for p in pav.enumerate_all(3)]
        assert texts[0] == "UUUDDD"
        assert texts[-1] == "UDUDUD"
        key = [t.replace("U", "0").replace("D", "1") for t in texts]
        assert key == sorted(key)

    def test_all_valid(self):
        for p in pav.enumerate_all(6):
            pav.DyckPath(p.steps)

    def test_guard(self):
        with pytest.raises(TooLarge):
            next(pav.enumerate_all(17))


def sample_by_int8_shuffle(n, seed):
    """The cycle-lemma sampler as first written, kept as the oracle for the
    draws: shuffle an int8 buffer, rotate past the first prefix minimum and
    drop the final step."""
    rng = as_generator(seed)
    arr = np.empty(2 * n + 1, dtype=np.int8)
    arr[:n] = 1
    arr[n:] = -1
    rng.shuffle(arr)
    k = int(np.argmin(np.cumsum(arr, dtype=np.int64)))
    return np.roll(arr, -(k + 1))[:-1]


# SHA-256 of sample_uniform(100_000, substream(0)).steps, as int8 bytes
STEPS_SHA256_1E5 = "b4c87b1b586ab39fb638d44d9f99c05dd4f21711e2a35682ddfdc98039020aac"


class TestSampleUniform:
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 100_000])
    def test_draws_match_int8_shuffle(self, n):
        for seed in (0, 2**63 + 5):  # an int seed derives its own substream
            assert np.array_equal(pav.sample_uniform(n, seed).steps,
                                  sample_by_int8_shuffle(n, seed))
        # from a Generator, consecutive draws leave the stream where the oracle does
        ours, theirs = substream(n, 4), substream(n, 4)
        for _ in range(3):
            assert np.array_equal(pav.sample_uniform(n, ours).steps,
                                  sample_by_int8_shuffle(n, theirs))
        assert ours.integers(2**62) == theirs.integers(2**62)

    def test_steps_frozen_across_versions(self):
        steps = pav.sample_uniform(100_000, substream(0)).steps
        assert hashlib.sha256(steps.tobytes()).hexdigest() == STEPS_SHA256_1E5

    def test_n1_only_path(self):
        for seed in range(5):
            assert pav.sample_uniform(1, seed).to_text() == "UD"

    def test_deterministic(self):
        a = pav.sample_uniform(50, 1234)
        b = pav.sample_uniform(50, 1234)
        assert a == b

    def test_distinct_seeds_differ(self):
        assert pav.sample_uniform(200, 1) != pav.sample_uniform(200, 2)

    def test_validity_bulk(self):
        rng = substream(3)
        for _ in range(200):
            p = pav.sample_uniform(int(rng.integers(1, 80)), rng)
            pav.DyckPath(p.steps)

    def test_n2_frequency(self):
        rng = substream(99)
        hits = sum(pav.sample_uniform(2, rng).to_text() == "UUDD" for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) < 0.02

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            pav.sample_uniform(0, 1)


FIG5_HEIGHTS = [0, 1, 0, 1, 2, 3, 4, 3, 2, 3, 4, 5, 6, 5, 4, 5, 4, 3, 2, 1, 0]


def fig5_path():
    return pav.DyckPath(np.diff(FIG5_HEIGHTS))


class TestRuns:
    def test_20_step_example(self):
        rd = pav.runs(fig5_path())
        assert list(rd.a) == [1, 4, 4, 1]
        assert list(rd.d) == [1, 2, 2, 5]
        assert list(rd.A) == [1, 5, 9, 10]
        assert list(rd.D) == [1, 3, 5, 10]

    def test_single_run(self):
        rd = pav.runs(pav.from_text("UUUDDD"))
        assert rd.m == 1
        assert list(rd.A) == [3] and list(rd.D) == [3]
        assert rd.set_D().size == 0

    def test_sawtooth(self):
        rd = pav.runs(pav.from_text("UDUDUD"))
        assert list(rd.A) == [1, 2, 3]
        assert list(rd.D) == [1, 2, 3]
        assert list(rd.y) == [0, 0, 0]

    def test_complements(self):
        rd = pav.runs(fig5_path())
        assert list(rd.complement_A()) == [1, 3, 4, 5, 7, 8, 9]
        assert list(rd.complement_D()) == [2, 4, 6, 7, 8, 9, 10]

    def test_empty_path_has_no_runs(self):
        rd = pav.runs(pav.DyckPath(""))
        assert rd.n == rd.m == 0
        for arr in (rd.a, rd.d, rd.A, rd.D, rd.set_A(), rd.complement_A(), rd.complement_D()):
            assert arr.dtype == np.int64 and arr.size == 0

    def test_cached_and_read_only(self):
        p = random_path(30, 1)
        rd = pav.runs(p)
        assert pav.runs(p) is rd
        for arr in (rd.a, rd.d, rd.A, rd.D):
            with pytest.raises(ValueError):
                arr[0] = 0

    @given(st.integers(1, 60), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_height_identity(self, n, seed):
        p = random_path(n, seed)
        rd = pav.runs(p)
        assert dyck.from_runs(rd.a, rd.d) == p
        assert np.array_equal(rd.y, p.heights[rd.A + rd.D])
        assert rd.A[-1] == rd.D[-1] == n
        assert np.all(rd.A >= rd.D)


class TestExcursions:
    def test_20_step_caption_values(self):
        et = pav.excursions(pav.from_text("UUUDUUDUUUDDUDDDDUDD"))
        assert (et.v[5], et.h[5], et.l[5]) == (8, 4, 8)

    def test_hand_evaluation(self):
        et = pav.excursions(pav.from_text("UUDUDD"))
        assert list(zip(et.v, et.h, et.l)) == [(1, 1, 6), (2, 2, 2), (4, 2, 2)]

    def test_sawtooth_all_trivial(self):
        et = pav.excursions(pav.from_text("UDUDUD"))
        assert np.all(et.l == 2) and np.all(et.h == 1)

    @given(st.integers(1, 50), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_defining_conditions(self, n, seed):
        p = random_path(n, seed)
        h = p.heights
        et = pav.excursions(p)
        start, end = et.intervals()
        assert np.array_equal(h[start], et.h - 1)
        assert np.array_equal(h[end], et.h - 1)
        for i in range(et.n):  # interior stays at or above the height
            seg = h[start[i] + 1 : end[i]]
            assert np.all(seg >= et.h[i])
            assert h[start[i] + 1] == et.h[i] and h[end[i] - 1] == et.h[i]

    @given(st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_laminar_and_total_length(self, n, seed):
        p = random_path(n, seed)
        et = pav.excursions(p)
        start, end = et.intervals()
        depth1 = et.h == 1
        assert int(et.l[depth1].sum()) == 2 * n
        for i in range(et.n):
            for j in range(i + 1, et.n):
                nested = start[i] < start[j] and end[j] <= end[i]
                disjoint = start[j] >= end[i]
                assert nested or disjoint


def excursions_by_stack(path):
    """Reference (v, h, l): each down-step closes the latest open up-step."""
    v, close, stack = [], [0] * path.n, []
    for x, step in enumerate(path.steps.tolist(), start=1):
        if step == 1:
            stack.append(len(v))
            v.append(x)
        else:
            close[stack.pop()] = x
    v = np.array(v, dtype=np.int64)
    return v, path.heights[v], np.array(close) - v + 1


class TestExcursionTable:
    @given(st.integers(1, 400), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equals_stack_oracle(self, n, seed):
        p = random_path(n, seed)
        et = pav.excursions(p)
        for got, want in zip((et.v, et.h, et.l), excursions_by_stack(p)):
            assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(9))
    def test_every_small_path_equals_stack_oracle(self, n):
        # n = 0: the empty path's table is empty
        for p in pav.enumerate_all(n):
            et = pav.excursions(p)
            assert et.n == n
            for got, want in zip((et.v, et.h, et.l), excursions_by_stack(p)):
                assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("height", [255, 256, 65_535, 65_536, 70_000])
    def test_tall_paths_equal_stack_oracle(self, height):
        # level dtypes switch at these heights (uint8, uint16, uint32)
        p = pav.from_text("UD" + "U" * height + "D" * height + "UUDD")
        et = pav.excursions(p)
        for got, want in zip((et.v, et.h, et.l), excursions_by_stack(p)):
            assert np.array_equal(got, want)

    def test_cached_and_read_only(self):
        p = random_path(30, 1)
        et = pav.excursions(p)
        assert pav.excursions(p) is et
        for arr in (et.v, et.h, et.l):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestMaxHeightAndScaling:
    def test_examples(self):
        assert pav.max_height(pav.from_text("UUUDDD")) == 3
        assert pav.max_height(pav.from_text("UDUDUD")) == 1
        assert pav.max_height(fig5_path()) == 6

    def test_scaled_knots_smallest(self):
        f = dyck.scaled_path(pav.from_text("UD"))
        assert list(f.t_num) == [0, 1, 2] and f.t_den == 2
        assert f.y[1] == 1 / np.sqrt(2)
        assert f.y[0] == f.y[2] == 0.0

    def test_scaled_peak(self):
        f = dyck.scaled_path(pav.from_text("UUDD"))
        assert f.t_num[2] / f.t_den == 0.5 and f.y[2] == 1.0

    @given(st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_boundary_zeros(self, n, seed):
        f = dyck.scaled_path(random_path(n, seed))
        assert f.t_num[0] == 0 and f.t_num[-1] == f.t_den
        assert f.y[0] == 0.0 and f.y[-1] == 0.0
