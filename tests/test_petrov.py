"""Regularity conditions: exact thresholds, checker-vs-oracle agreement,
witnesses, derived claims, frequency diagnostic."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pav
from pav import petrov
from pav.errors import BadConfig
from pav.petrov import PetrovReport, below, check_petrov, petrov_frequency, slack
from pav.rng import substream


def conditions(report):
    return (report.cond_a, report.cond_b, report.cond_c, report.cond_d)


# The thresholds as hand-derived integer inequalities (coef, exp) -> test of
# v < coef * n^exp: the oracle for the single rule `below`.  The literal
# oracle below writes the same inequalities inline.
HAND_DERIVED = {
    (Fraction(2, 5), Fraction(3, 5)): lambda v, n: 3125 * v**5 < 32 * n**3,  # 0.4 n^0.6
    (Fraction(1, 2), Fraction(2, 5)): lambda v, n: 32 * v**5 < n**2,  # 0.5 n^0.4
    (2, Fraction(3, 5)): lambda v, n: v**5 < 32 * n**3,  # 2 n^0.6
    (Fraction(1, 10), Fraction(3, 5)): lambda v, g: 10**5 * v**5 < g**3,  # 0.1 g^0.6
    (1, Fraction(3, 10)): lambda g, n: not g**10 >= n**3,  # g >= n^0.3, negated
    (1, Fraction(2, 5)): lambda v, n: v**5 < n**2,  # n^0.4
    (1, Fraction(3, 5)): lambda v, n: v**5 < n**3,  # n^0.6
    (1, Fraction(9, 50)): lambda v, n: v**50 < n**9,  # n^0.18
    (10, Fraction(2, 5)): lambda v, n: v**5 < 10**5 * n**2,  # coupling bound 10 n^0.4
    (7, Fraction(2, 5)): lambda v, n: v**5 < 7**5 * n**2,  # coupling bound 7 n^0.4
}

# The (coef, exp) pairs petrov names: every regularity threshold of the package
NAMED = {name: pair for name, pair in vars(petrov).items()
         if name.isupper() and isinstance(pair, tuple)}

# The n values the threshold rules are checked at
N_VALUES = [*range(300), 1024, 10**5, 10**6 + 7, 2**40]


def signed(value: float, lhs: int, rhs: int) -> float:
    """The margin rule for the literal inequality lhs < rhs with float slack
    value: 0.0 at equality, else |value| (at least the least float) with
    the sign the inequality's outcome gives."""
    if lhs == rhs:
        return 0.0
    magnitude = abs(value) or math.ulp(0.0)
    return magnitude if lhs < rhs else -magnitude


def check_petrov_oracle(path) -> PetrovReport:
    """Literal quantifier enumeration of all four conditions.

    (a) and (b) visit every stated position and gap; (c) and (d) visit
    every stated index pair (i, j).  Thresholds are the hand-derived
    integer inequalities, so nothing is shared with the checker's kernels.
    The witness of (c)/(d) is the worst pair at the smallest failing gap
    (first i on ties) and the margins are float slacks under `signed`.
    For small inputs only: O(n * n^0.6 + m^2) Python steps.
    """
    n = path.n
    gamma = path.heights
    rd = pav.runs(path)
    witnesses: dict = {}
    margins: dict = {}
    notes: list[str] = []

    # (a) max gamma < 0.4 n^0.6
    x_max = int(np.argmax(gamma))
    g_max = int(gamma[x_max])
    cond_a = 3125 * g_max**5 < 32 * n**3
    margins["a"] = signed(0.4 * n**0.6 - g_max, 3125 * g_max**5, 32 * n**3)
    if not cond_a:
        witnesses["a"] = (x_max, g_max)

    # (b) |gamma(x) - gamma(y)| < 0.5 n^0.4 whenever 0 < y - x < 2 n^0.6
    worst_range, wit_b = 0, None
    gap = 1
    while gap < gamma.size and gap**5 < 32 * n**3:
        dev = np.abs(gamma[gap:] - gamma[:-gap])
        x = int(np.argmax(dev))
        if dev[x] > worst_range:
            worst_range = int(dev[x])
            wit_b = (x, x + gap, int(gamma[x]), int(gamma[x + gap]))
        gap += 1
    cond_b = 32 * worst_range**5 < n**2
    margins["b"] = signed(0.5 * n**0.4 - worst_range, 32 * worst_range**5, n**2)
    if not cond_b:
        witnesses["b"] = wit_b

    # (c)/(d) |B_i - B_j| < 0.1 |i-j|^0.6 whenever |i-j| >= n^0.3, B = A or D
    holds = {}
    for name, prefix in (("c", rd.A), ("d", rd.D)):
        b = [v - 2 * i for i, v in enumerate(prefix.tolist(), start=1)]
        worst_at: dict = {}  # gap -> (largest deviation, first i attaining it)
        for i in range(1, len(b) + 1):
            for j in range(i + 1, len(b) + 1):
                g = j - i
                if g**10 < n**3:
                    continue
                dev = abs(b[j - 1] - b[i - 1])
                if g not in worst_at or dev > worst_at[g][0]:
                    worst_at[g] = (dev, i)
        failing = [g for g, (dev, _) in worst_at.items() if 10**5 * dev**5 >= g**3]
        holds[name] = not failing
        if failing:
            g = min(failing)
            dev, i = worst_at[g]
            witnesses[name] = (i, i + g, dev)
            margins[name] = signed(0.1 * g**0.6 - dev, 10**5 * dev**5, g**3)
        else:
            margins[name] = min(
                (signed(0.1 * g**0.6 - dev, 10**5 * dev**5, g**3)
                 for g, (dev, _) in worst_at.items()), default=float("inf")
            )
        if not worst_at:
            notes.append(f"({name}) vacuous: no index pairs at gap >= n^0.3")

    return PetrovReport(
        n=n, m=rd.m, cond_a=cond_a, cond_b=cond_b, cond_c=holds["c"], cond_d=holds["d"],
        witnesses=witnesses, margins=margins, notes=tuple(notes),
    )


def witness_violates(path, condition: str, witness: tuple) -> bool:
    """Re-evaluate a reported witness against the literal inequality."""
    n = path.n
    gamma = path.heights
    rd = pav.runs(path)
    if condition == "a":
        x, val = witness
        return int(gamma[x]) == val and not 3125 * val**5 < 32 * n**3
    if condition == "b":
        x, y, gx, gy = witness
        gap = abs(x - y)
        return (
            int(gamma[x]) == gx
            and int(gamma[y]) == gy
            and gap**5 < 32 * n**3
            and not 32 * abs(gx - gy) ** 5 < n**2
        )
    if condition in ("c", "d"):
        i, j, dev = witness
        prefix = rd.A if condition == "c" else rd.D
        g = abs(j - i)
        actual = abs(int(prefix[j - 1] - prefix[i - 1]) - 2 * (j - i))
        return actual == dev and g**10 >= n**3 and not 10**5 * dev**5 < g**3
    raise ValueError(f"unknown condition {condition!r}")


def gap_enumeration(series, g0):
    """(witness, margin) of the pair condition, one gap at a time."""
    margin = float("inf")
    for g in range(g0, series.size):
        d = np.abs(series[g:] - series[:-g])
        t = int(np.argmax(d))
        worst = int(d[t])
        gap_slack = signed(0.1 * g**0.6 - worst, 10**5 * worst**5, g**3)
        if not 10**5 * worst**5 < g**3:
            return (t + 1, t + 1 + g, worst), gap_slack
        margin = min(margin, gap_slack)
    return None, margin


def assert_matches_oracle(path):
    """The checker agrees with the oracle on everything but (b)'s witness,
    which may be any worst pair and is re-verified instead."""
    rep, ora = check_petrov(path), check_petrov_oracle(path)
    assert conditions(rep) == conditions(ora), path.to_text()
    assert {k: repr(v) for k, v in rep.margins.items()} == {
        k: repr(v) for k, v in ora.margins.items()
    }, path.to_text()
    assert rep.notes == ora.notes
    assert rep.witnesses.keys() == ora.witnesses.keys()
    for cond, wit in rep.witnesses.items():
        if cond == "b":
            assert witness_violates(path, cond, wit), (cond, wit)
        else:
            assert wit == ora.witnesses[cond], (cond, wit, ora.witnesses[cond])


class TestExactThresholds:
    def test_power_comparisons(self):
        # spot checks against high-precision values of the thresholds
        assert below(0, 1, *petrov.HEIGHT)
        assert not below(1, 1, *petrov.HEIGHT)  # 1 >= 0.4
        assert below(4, 64, *petrov.HEIGHT)  # 0.4*64^0.6 = 4.85...
        assert not below(5, 64, *petrov.HEIGHT)
        assert below(2, 64, *petrov.SPREAD)  # 0.5*64^0.4 = 2.64...
        assert not below(3, 64, *petrov.SPREAD)
        assert below(1, 50, *petrov.PAIR)  # 0.1*50^0.6 = 1.04...
        assert not below(1, 46, *petrov.PAIR)  # 0.1*46^0.6 = 0.99...
        assert not below(4, 100, *petrov.MIN_GAP)  # 100^0.3 = 3.98...
        assert below(3, 100, *petrov.MIN_GAP)

    def test_boundary_exactness(self):
        # v = 0.4 n^0.6 exactly: n = 2^10 gives threshold 0.4*64 = 25.6
        n = 2**10
        assert below(25, n, *petrov.HEIGHT)
        assert not below(26, n, *petrov.HEIGHT)
        # strict inequality at an exact rational hit: n = 32 -> 0.5*32^0.4 = 2
        assert not below(2, 32, *petrov.SPREAD)
        assert below(1, 32, *petrov.SPREAD)

    def test_min_gap(self):
        assert petrov.min_gap_0x3(100) == 4
        assert petrov.min_gap_0x3(1) == 1
        assert petrov.min_gap_0x3(1000) == 8  # 1000^0.3 = 7.94...
        assert petrov.min_gap_0x3(2**10) == 8  # 1024^0.3 = 8 exactly

    @pytest.mark.parametrize("rule", list(HAND_DERIVED), ids=str)
    def test_single_rule_matches_hand_derived(self, rule):
        coef, exp = rule
        literal = HAND_DERIVED[rule]
        for n in N_VALUES:
            for v in range(200):
                assert below(v, n, coef, exp) == literal(v, n), (v, n)
            largest = petrov.largest_below(n, coef, exp)
            assert largest == 0 or literal(largest, n)
            assert not literal(largest + 1, n), n

    def test_every_named_pair_has_a_hand_derived_rule(self):
        assert len(NAMED) == 10
        assert set(NAMED.values()) == set(HAND_DERIVED)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_slack_signed_as_below(self, name):
        # the margin's sign is the verdict's, and 0.0 exactly at equality
        coef, exp = NAMED[name]
        ties = 0
        for n in N_VALUES:
            for v in range(200):
                s = slack(v, n, coef, exp)
                assert (s > 0) == below(v, n, coef, exp), (v, n)
                tie = not below(v, n, coef, exp) and (v / coef) ** exp.denominator == n**exp.numerator
                assert (s == 0.0) == tie, (v, n, s)
                ties += tie
        assert ties >= 1  # n = 0 ties at v = 0 for every pair


class TestCheckPetrov:
    def test_sawtooth_n3_fails_height(self):
        rep = check_petrov(pav.from_text("UDUDUD"))
        assert not rep.cond_a  # max 1 >= 0.4*3^0.6 = 0.773
        assert "a" in rep.witnesses

    def test_smallest_path_fails_height(self):
        rep = check_petrov(pav.from_text("UD"))
        assert not rep.cond_a  # 1 >= 0.4

    @pytest.mark.parametrize("text,cond", [
        ("U" * 8 + "D" * 8 + "UD" * 1016, "b"),  # 8 = 0.5 * 1024^0.4, float slack +1.8e-15
        ("U" * 50 + "D" * 50 + "UD" * 3075, "a"),  # 50 = 0.4 * 3125^0.6, float slack -7.1e-15
        ("UUDD" * 16, "b"),  # 2 = 0.5 * 32^0.4
    ])
    def test_margin_is_zero_at_an_exact_threshold(self, text, cond):
        rep = check_petrov(pav.from_text(text))
        assert getattr(rep, f"cond_{cond}") is False
        assert repr(rep.margins[cond]) == "0.0"
        assert cond in rep.witnesses

    def test_pair_conditions_vacuous_small_m(self):
        rep = check_petrov(pav.from_text("UUUDDD"))  # m = 1
        assert rep.cond_c and rep.cond_d
        assert any("vacuous" in note for note in rep.notes)

    def test_regular_family_all_hold(self):
        for k in (17, 100, 2500):
            rep = check_petrov(pav.from_text("UUDD" * k))
            assert rep.all_hold, (k, conditions(rep))

    def test_below_34_height_fails(self):
        rep = check_petrov(pav.from_text("UUDD" * 7))  # n = 14 < 0.4 n^0.6 cutoff
        assert not rep.cond_a

    def test_fast_vs_oracle_random(self):
        rng = substream(2024)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            assert_matches_oracle(pav.sample_uniform(n, rng))

    def test_fast_vs_oracle_exhaustive_small(self):
        for n in range(1, 9):
            for p in pav.enumerate_all(n):
                assert_matches_oracle(p)
        assert_matches_oracle(pav.from_text("UUDD" * 16))  # a tie in (b)

    def test_witnesses_reverify(self):
        rng = substream(7)
        seen = set()
        for _ in range(100):
            p = pav.sample_uniform(int(rng.integers(2, 300)), rng)
            rep = check_petrov(p)
            for cond, wit in rep.witnesses.items():
                assert witness_violates(p, cond, wit), (cond, wit)
                seen.add(cond)
        assert "a" in seen and "b" in seen  # random paths fail these reliably

    @given(
        st.integers(1, 600),
        st.lists(st.tuples(st.integers(0, 599), st.sampled_from([-1, 1])), max_size=6),
        st.integers(1, 150),
    )
    @settings(max_examples=300, deadline=None)
    def test_pair_scan_matches_gap_enumeration(self, size, steps, g0):
        # a few unit steps in a flat series: with g0 >= 47 such series can
        # pass with nonzero deviations, so intervals get skipped against a
        # margin that is not at the first gap
        series = np.zeros(size, dtype=np.int64)
        for at, step in steps:
            series[at:] += step
        assert repr(petrov._pair_condition(series, g0)) == repr(gap_enumeration(series, g0))

    def test_margin_is_exact_minimum(self):
        # two unit rises 160 apart: deviation 2 first appears at gap 160,
        # inside the grid interval [149, 222], whose slack bound
        # 0.1 * 149^0.6 - 2 = 0.013 is below the true minimum
        series = np.zeros(1000, dtype=np.int64)
        series[100:] += 1
        series[259:] += 1
        wit, margin = petrov._pair_condition(series, 66)
        assert wit is None
        assert margin == 0.1 * 160**0.6 - 2 == gap_enumeration(series, 66)[1]

    @pytest.mark.parametrize("size", [1, 2, 7, 12, 101])
    def test_sliding_extreme_matches_window_view(self, size):
        # widths 1 and size, divisors of the size and widths that leave
        # the last block padded
        x = substream(3, size).integers(-50, 50, size=size)
        for width in range(1, size + 1):
            view = np.lib.stride_tricks.sliding_window_view(x, width)
            for op, literal in ((np.maximum, view.max(axis=1)), (np.minimum, view.min(axis=1))):
                got = petrov._sliding_extreme(x, width, op)
                assert np.array_equal(got, literal), (size, width, op)

    def test_margins_sign_matches_outcome(self):
        p = pav.sample_uniform(400, 5)
        rep = check_petrov(p)
        for cond, ok in zip("abcd", conditions(rep)):
            margin = rep.margins[cond]
            if ok:
                assert margin > 0 or margin == float("inf")
            else:
                assert margin <= 0


class TestVoucher:
    def test_vacuous_flag_on_irregular_path(self):
        p = pav.sample_uniform(100, 3)
        rep = check_petrov(p).voucher
        assert rep is petrov.VACUOUS
        assert rep.vacuous and rep.ok

    def test_regular_family_claims_hold(self):
        for k in (25, 100, 1000):
            p = pav.from_text("UUDD" * k)
            rep = check_petrov(p).voucher
            assert not rep.vacuous and rep.ok

    def test_claims_carried_exactly_where_the_conditions_hold(self):
        paths = itertools.chain(
            (p for n in range(1, 9) for p in pav.enumerate_all(n)),
            (pav.from_text("UUDD" * k) for k in (16, 17, 25, 250)),
        )
        held = 0
        for p in paths:
            rep = check_petrov(p)
            expected = petrov._voucher(pav.runs(p)) if rep.all_hold else petrov.VACUOUS
            assert rep.voucher == expected
            assert rep.as_dict()["voucher"] == dataclasses.asdict(expected)
            held += rep.all_hold
        assert held == 3  # (UUDD)^16 fails (b) at its tie, 2 = 0.5 * 32^0.4

    def test_small_n_boundary(self):
        # all four conditions hold at n = 34 yet the increment claim
        # 2 < n^0.18 needs n >= 48: a genuine finite-size gap in the
        # derived claims, worth pinning down rather than hiding
        p = pav.from_text("UUDD" * 17)
        report = check_petrov(p)
        assert report.all_hold
        rep = report.voucher
        assert not rep.vacuous and not rep.increments_ok and not rep.ok

    def test_claims_match_literal_evaluation(self):
        # force the claims onto random and long-run paths, where their
        # outcomes vary, and evaluate each stated inequality element by
        # element and each window claim window by window
        rng = substream(99)
        small = (p for n in range(1, 10) for p in pav.enumerate_all(n))
        large = (pav.sample_uniform(int(rng.integers(1, 400)), rng) for _ in range(200))
        long_runs = (
            pav.from_text("UD" * a + "U" * b + "D" * b + "UD" * c)
            for a in (0, 3, 40) for b in (1, 5, 30) for c in (0, 7, 60)
        )
        seen, seen_windows = set(), set()
        for p in itertools.chain(small, large, long_runs):
            n, rd = p.n, pav.runs(p)
            y = rd.y.tolist()
            rep = petrov._voucher(rd)
            edge = [i for i in range(1, rd.m + 1) if i**5 < n**3 or (rd.m - i) ** 5 < n**3]
            assert rep.y_edge_ok == all(y[i - 1] ** 5 < n**2 for i in edge)
            runs_ok = all(v**50 < n**9 for v in [*rd.a.tolist(), *rd.d.tolist()])
            assert rep.increments_ok == runs_ok
            steps = [abs(b - a) for a, b in zip([0, *y], y)]
            assert rep.y_increment_ok == all(v**50 < n**9 for v in steps)
            # every window of >= n^0.3 indices in 1..n contains one of the
            # shortest such windows, so those are the ones to visit
            width = next(w for w in itertools.count(1) if w**10 >= n**3)
            windows = [range(s, s + width) for s in range(1, n - width + 2)]
            d_set = set(rd.D[:-1].tolist())  # {D_1..D_{m-1}}; D_m = n
            complement = set(range(1, n + 1)) - d_set
            assert rep.window_hits_d == all(not d_set.isdisjoint(w) for w in windows)
            assert rep.window_hits_complement == all(not complement.isdisjoint(w) for w in windows)
            seen.add(rep.y_edge_ok)
            seen_windows.add((rep.window_hits_d, rep.window_hits_complement))
        assert seen == {True, False}
        assert seen_windows == set(itertools.product((True, False), repeat=2))

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_edge_claim_boundary_run(self, mirrored):
        # n = 100: i < n^0.6 = 15.8 holds up to run 15, and y < n^0.4 = 6.3
        # fails from y = 7.  The only high valley follows run 15 (run m - 15
        # when mirrored), so the claim fails exactly because that run is an
        # edge run.
        text = "UD" * 14 + "U" * 8 + "D" + "U" + "D" * 8 + "UD" * 77
        if mirrored:
            text = text[::-1].translate(str.maketrans("UD", "DU"))
        p = pav.from_text(text)
        rep = petrov._voucher(pav.runs(p))
        assert (p.n, pav.runs(p).m) == (100, 93)
        assert not rep.y_edge_ok

    def test_window_violation_forces_condition_failure(self):
        # a long middle run creates a window of indices with no run
        # boundary in it; such a path must break a pair condition
        n_half = 600
        text = "UUDD" * (n_half // 4) + "U" * 80 + "D" * 80 + "UUDD" * (n_half // 4)
        p = pav.from_text(text)
        rd = pav.runs(p)
        gaps = np.diff(np.concatenate(([0], rd.set_D(), [p.n + 1]))) - 1
        window = petrov.min_gap_0x3(p.n)
        assert gaps.max() >= window  # the window claim is indeed violated
        assert not check_petrov(p).all_hold


class TestFrequency:
    def test_desk_scale_is_zero(self):
        out = petrov_frequency(1000, 30, seed=5)
        assert out["frequency_all"] == 0.0

    def test_determinism(self):
        a = petrov_frequency(200, 10, seed=1)
        b = petrov_frequency(200, 10, seed=1)
        assert a == b

    def test_empty_sample(self):
        with pytest.raises(BadConfig, match="replicates must be >= 1"):
            petrov_frequency(100, 0, seed=1)

    def test_numpy_integers_serialize(self):
        out = petrov_frequency(np.int64(20), np.int64(2), np.int64(0))
        assert json.dumps(out) == json.dumps(petrov_frequency(20, 2, 0))
        assert type(out["n"]) is int and type(out["replicates"]) is int

    @pytest.mark.parametrize("n,replicates,seed", [(5, 40, 3), (8, 25, 0)])
    def test_matches_direct_checks(self, n, replicates, seed):
        rows = np.array([
            conditions(check_petrov(pav.sample_uniform(n, substream(seed, n, r))))
            for r in range(replicates)
        ])
        out = petrov_frequency(n, replicates, seed, workers=2)
        assert out["frequency_all"] == rows.all(axis=1).mean()
        assert out["failure_rate"] == {k: 1.0 - rows[:, i].mean() for i, k in enumerate("abcd")}
        assert 0.0 < out["failure_rate"]["d"] < 1.0  # the sizes give fractional rates

    def test_trend_nondecreasing_at_desk_scale(self):
        freqs = [petrov_frequency(n, 10, seed=2)["frequency_all"] for n in (100, 1000)]
        assert freqs == sorted(freqs)  # all zeros here; larger n is out of reach
