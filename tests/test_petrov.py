"""Regularity conditions: exact thresholds, checker-vs-oracle agreement,
witnesses, derived claims, frequency diagnostic."""

import numpy as np
import pytest

import pav
from pav import petrov
from pav.errors import EmptySample
from pav.petrov import (
    check_petrov,
    check_petrov_oracle,
    check_voucher,
    petrov_frequency,
    witness_violates,
)
from pav.rng import substream


def conditions(report):
    return (report.cond_a, report.cond_b, report.cond_c, report.cond_d)


class TestExactThresholds:
    def test_power_comparisons(self):
        # spot checks against high-precision values of the thresholds
        assert petrov.lt_04_n06(0, 1)
        assert not petrov.lt_04_n06(1, 1)  # 1 >= 0.4
        assert petrov.lt_04_n06(4, 64)  # 0.4*64^0.6 = 4.85...
        assert not petrov.lt_04_n06(5, 64)
        assert petrov.lt_05_n04(2, 64)  # 0.5*64^0.4 = 2.64...
        assert not petrov.lt_05_n04(3, 64)
        assert petrov.lt_01_g06(1, 50)  # 0.1*50^0.6 = 1.04...
        assert not petrov.lt_01_g06(1, 46)  # 0.1*46^0.6 = 0.99...
        assert petrov.ge_n03(4, 100)  # 100^0.3 = 3.98...
        assert not petrov.ge_n03(3, 100)

    def test_boundary_exactness(self):
        # v = 0.4 n^0.6 exactly: n = 2^10 gives threshold 0.4*64 = 25.6
        n = 2**10
        assert petrov.lt_04_n06(25, n)
        assert not petrov.lt_04_n06(26, n)
        # strict inequality at an exact rational hit: n = 32 -> 0.5*32^0.4 = 2
        assert not petrov.lt_05_n04(2, 32)
        assert petrov.lt_05_n04(1, 32)

    def test_min_gap(self):
        assert petrov.min_gap_0x3(100) == 4
        assert petrov.min_gap_0x3(1) == 1
        assert petrov.min_gap_0x3(1000) == 8  # 1000^0.3 = 7.94...


class TestCheckPetrov:
    def test_sawtooth_n3_fails_height(self):
        rep = check_petrov(pav.from_text("UDUDUD"))
        assert not rep.cond_a  # max 1 >= 0.4*3^0.6 = 0.773
        assert "a" in rep.witnesses

    def test_smallest_path_fails_height(self):
        rep = check_petrov(pav.from_text("UD"))
        assert not rep.cond_a  # 1 >= 0.4

    def test_pair_conditions_vacuous_small_m(self):
        rep = check_petrov(pav.from_text("UUUDDD"))  # m = 1
        assert rep.cond_c and rep.cond_d
        assert any("vacuous" in note for note in rep.notes)

    def test_regular_family_all_hold(self):
        for k in (17, 100, 2500):
            rep = check_petrov(pav.from_text("UUDD" * k), pair_mode="fast")
            assert rep.all_hold, (k, conditions(rep))

    def test_below_34_height_fails(self):
        rep = check_petrov(pav.from_text("UUDD" * 7))  # n = 14 < 0.4 n^0.6 cutoff
        assert not rep.cond_a

    def test_fast_vs_oracle_random(self):
        rng = substream(2024)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            p = pav.sample_uniform(n, rng)
            fast = check_petrov(p, pair_mode="fast")
            oracle = check_petrov_oracle(p)
            assert conditions(fast) == conditions(oracle), p.to_text()

    def test_fast_vs_oracle_exhaustive_small(self):
        for n in range(1, 9):
            for p in pav.enumerate_all(n):
                assert conditions(check_petrov(p, pair_mode="fast")) == conditions(
                    check_petrov_oracle(p)
                )

    def test_witnesses_reverify(self):
        rng = substream(7)
        seen = set()
        for _ in range(100):
            p = pav.sample_uniform(int(rng.integers(2, 300)), rng)
            for mode in ("fast", "enumerate"):
                rep = check_petrov(p, pair_mode=mode)
                for cond, wit in rep.witnesses.items():
                    assert witness_violates(p, cond, wit), (cond, wit)
                    seen.add(cond)
        assert "a" in seen and "b" in seen  # random paths fail these reliably

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
        rep = check_voucher(p)
        assert not rep.applicable and rep.vacuous and rep.ok

    def test_regular_family_claims_hold(self):
        for k in (25, 100, 1000):
            p = pav.from_text("UUDD" * k)
            rep = check_voucher(p)
            assert rep.applicable and rep.ok

    def test_small_n_boundary(self):
        # all four conditions hold at n = 34 yet the increment claim
        # 2 < n^0.18 needs n >= 48: a genuine finite-size gap in the
        # derived claims, worth pinning down rather than hiding
        p = pav.from_text("UUDD" * 17)
        assert check_petrov(p).all_hold
        rep = check_voucher(p)
        assert rep.applicable and not rep.increments_ok and not rep.ok

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
        with pytest.raises(EmptySample):
            petrov_frequency(100, 0, seed=1)

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
