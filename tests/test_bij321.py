"""Run-sum bijection to 321-avoiders: figure values, roundtrips, sign
dichotomy, conditional coupling bounds."""

from itertools import chain, permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pav
from pav import bij321
from pav.dyck import from_runs
from pav.errors import BadStep, InvalidPath, Not321Avoiding
from pav.perms import Permutation, contains_pattern
from pav.petrov import check_petrov
from pav.rng import substream
from test_perms import prefix_max_avoids_321, transposed

P321 = Permutation([3, 2, 1])

FIG5_HEIGHTS = [0, 1, 0, 1, 2, 3, 4, 3, 2, 3, 4, 5, 6, 5, 4, 5, 4, 3, 2, 1, 0]
FIG5_IMAGE = "2 1 6 3 10 4 5 7 8 9"


def fig5_path():
    return pav.DyckPath(np.diff(FIG5_HEIGHTS))


def exceedance_runs(perm: Permutation):
    """(up, down) run lengths read off the exceedances of perm: up-runs
    from their images 1 + A_i, down-runs from their positions D_i."""
    n, images = perm.n, perm.images
    d_set = np.flatnonzero(images > np.arange(1, n + 1)) + 1
    return (np.diff(images[d_set - 1] - 1, prepend=0, append=n),
            np.diff(d_set, prepend=0, append=n))


def certificate_clauses(perm: Permutation) -> tuple[bool, bool]:
    """Whether the exceedance values increase, and whether the remaining
    values do."""
    images = perm.images
    exceeds = images > np.arange(1, perm.n + 1)
    return tuple(bool((np.diff(images[mask]) > 0).all()) for mask in (exceeds, ~exceeds))


def recompute_inverse(perm: Permutation) -> pav.DyckPath:
    """Oracle for bij321.inverse's certificate: rebuild the path from the
    exceedance runs, then require that it maps forward to perm."""
    try:
        path = from_runs(*exceedance_runs(perm))
        if bij321.forward(path) == perm:
            return path
    except InvalidPath:
        pass
    raise Not321Avoiding(f"input contains a 321 pattern: {perm}")


def inverse_outcome(perm: Permutation, inverse=bij321.inverse):
    """The path an inverse returns, or the message it rejects with."""
    try:
        return inverse(perm)
    except Not321Avoiding as exc:
        return str(exc)


def check_exceedance_sign(path) -> bool:
    """True iff tau(j) > j exactly on {D_1..D_{m-1}} and tau(j) <= j off it.

    This dichotomy holds for every Dyck path.
    """
    rd = pav.runs(path)
    tau = bij321.forward(path).images
    idx = np.arange(1, rd.n + 1, dtype=np.int64)
    exceed = idx[tau > idx]
    return bool(np.array_equal(exceed, rd.set_D()))


class TestForward:
    def test_20_step_example(self):
        assert bij321.forward(fig5_path()).to_text() == FIG5_IMAGE

    def test_single_run_gives_identity(self):
        assert bij321.forward(pav.from_text("UUUDDD")) == Permutation.identity(3)

    def test_sawtooth(self):
        assert bij321.forward(pav.from_text("UDUDUD")) == Permutation([2, 3, 1])

    def test_images_avoid_321_exhaustive(self):
        for n in range(1, 7):
            for p in pav.enumerate_all(n):
                assert not contains_pattern(bij321.forward(p), P321)

    def test_injective_onto_class_exhaustive(self):
        for n in range(1, 7):
            images = {bij321.forward(p) for p in pav.enumerate_all(n)}
            assert len(images) == pav.catalan(n)


class TestInverse:
    def test_20_step_example(self):
        assert bij321.inverse(Permutation(FIG5_IMAGE)) == fig5_path()

    def test_identity(self):
        assert bij321.inverse(Permutation.identity(3)) == pav.from_text("UUUDDD")

    def test_sawtooth(self):
        assert bij321.inverse(Permutation([2, 3, 1])) == pav.from_text("UDUDUD")

    def test_rejects_non_avoider(self):
        with pytest.raises(Not321Avoiding):
            bij321.inverse(Permutation([3, 2, 1]))

    def test_roundtrip_exhaustive(self):
        for n in range(1, 7):
            for p in pav.enumerate_all(n):
                assert bij321.inverse(bij321.forward(p)) == p

    def test_inverse_then_forward_exhaustive(self):
        """Accepted iff 321-avoiding, and an accepted input maps back: the
        outcome of the forward recompute."""
        rejected = 0
        for n in range(1, 8):
            for images in permutations(range(1, n + 1)):
                perm = Permutation(images)
                got = inverse_outcome(perm)
                assert got == inverse_outcome(perm, recompute_inverse)
                if contains_pattern(perm, P321):
                    assert got == f"input contains a 321 pattern: {perm}"
                    rejected += 1
                else:
                    assert bij321.forward(got) == perm
        assert rejected == sum(factorial(n) - pav.catalan(n) for n in range(1, 8))

    def test_roundtrip_random_large(self):
        rng = substream(21)
        for _ in range(25):
            p = pav.sample_uniform(1000, rng)
            assert bij321.inverse(bij321.forward(p)) == p

    @given(st.integers(1, 2000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, n, seed):
        p = pav.sample_uniform(n, substream(seed))
        assert bij321.inverse(bij321.forward(p)) == p

    @given(st.integers(2, 10_000), st.integers(0, 10_000), st.data())
    @settings(max_examples=150, deadline=None)
    def test_near_avoiders_match_the_avoidance_test(self, n, seed, data):
        """One transposition of an image (of positions or of the adjacent
        values k, k+1) often keeps the exceedance runs well formed, so the
        rejection falls to the remaining values."""
        perm = transposed(bij321.forward(pav.sample_uniform(n, substream(seed))), data)
        got = inverse_outcome(perm)
        assert got == inverse_outcome(perm, recompute_inverse)
        if prefix_max_avoids_321(perm):
            assert bij321.forward(got) == perm
        else:
            assert got == f"input contains a 321 pattern: {perm}"

    def test_each_certificate_clause_decides_a_case(self):
        """Each permutation passes one clause of the certificate and fails
        the other.  Without the failing clause, inverse would hand
        from_runs a negative up-run (4 3 1 2: the exceedance values fall)
        or accept a path that maps elsewhere (3 2 1: the remaining values
        fall)."""
        falling_exceedances = Permutation([4, 3, 1, 2])
        assert certificate_clauses(falling_exceedances) == (False, True)
        with pytest.raises(BadStep, match="nonnegative"):
            from_runs(*exceedance_runs(falling_exceedances))

        falling_rest = Permutation([3, 2, 1])
        assert certificate_clauses(falling_rest) == (True, False)
        path = from_runs(*exceedance_runs(falling_rest))
        assert path == pav.from_text("UUDUDD") and bij321.forward(path) != falling_rest

        for perm in (falling_exceedances, falling_rest):
            with pytest.raises(Not321Avoiding):
                recompute_inverse(perm)
            assert inverse_outcome(perm) == inverse_outcome(perm, recompute_inverse)


class TestExceedanceSign:
    def test_examples(self):
        assert check_exceedance_sign(pav.from_text("UD"))
        assert check_exceedance_sign(pav.from_text("UDUDUD"))
        assert check_exceedance_sign(fig5_path())

    def test_exhaustive(self):
        for n in range(1, 8):
            assert all(check_exceedance_sign(p) for p in pav.enumerate_all(n))

    def test_random_large(self):
        rng = substream(5)
        assert all(
            check_exceedance_sign(pav.sample_uniform(1000, rng))
            for _ in range(20)
        )


class TestCouplingBounds:
    def test_smallest_path_zero_errors(self):
        rep = bij321.coupling_bounds(pav.from_text("UD"))
        assert rep.max_d_error == 0 and rep.max_notd_error == 0

    def test_single_run_errors_are_heights(self):
        # no positions exceed, so the off-set error is max gamma(2j) = 2
        rep = bij321.coupling_bounds(pav.from_text("UUUDDD"))
        assert rep.max_d_error == 0
        assert rep.max_notd_error == 2

    def test_regular_path_bounds_hold(self):
        for k in (25, 100, 1000):
            p = pav.from_text("UUDD" * k)
            rep = bij321.coupling_bounds(p)
            assert check_petrov(p).all_hold
            assert rep.bounds_hold
            assert rep.max_d_error <= 1 and rep.max_notd_error <= 2

    def test_implication_on_random_paths(self):
        # each verdict is its literal integer inequality on every path; the
        # bounds are asserted where the conditions hold, which no path here
        # does.  Only the tall paths break a bound; at (60, 10) the run error
        # and at (80, 10) the d error lies between 7 n^0.4 and 10 n^0.4.
        rng = substream(31)
        small = (p for n in range(1, 9) for p in pav.enumerate_all(n))
        sampled = [pav.sample_uniform(int(rng.integers(1, 300)), rng) for _ in range(50)]
        tall = [pav.from_text("U" * a + "D" * b + "UD" * 5 + "U" * 10 + "D" * (a - b + 10))
                for a, b in ((60, 10), (80, 10), (200, 100))]
        held, verdicts = 0, set()
        for p in chain(small, sampled, tall):
            rep, n = bij321.coupling_bounds(p), p.n
            assert rep.d_within_bound == (rep.max_d_error**5 < 10**5 * n**2)
            assert rep.notd_within_bound == (rep.max_notd_error**5 < 10**5 * n**2)
            assert rep.run_within_bound == (rep.max_run_error**5 < 7**5 * n**2)
            verdicts.add((rep.d_within_bound, rep.notd_within_bound, rep.run_within_bound))
            if check_petrov(p).all_hold:
                held += 1
                assert rep.bounds_hold
        assert held == 0  # the crafted family covers non-vacuity
        assert [{v[i] for v in verdicts} for i in range(3)] == [{True, False}] * 3, verdicts
