"""Coupling statistics, moment oracle, and the experiment harness."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pav
from pav import bij231, parallel
from pav.errors import BadConfig, TooLarge
from pav.experiments import (
    LATTICE_BLOCK,
    REPLICATES,
    ExperimentConfig,
    coupling_231,
    coupling_321,
    exact_moment_oracle,
    height_vs_contour,
    moment_replicate,
    random_index_set,
    run_experiment,
    se_set,
    _paths_within,
)
from pav.perms import exceedance_sets, inversions, scaled_function
from pav.rng import substream
from pav.scaled import sup_distance, sup_sum


# 2n + 1 lattice points in B - 1, B + 1, 2B - 1 and 2B + 1 (2n + 1 is odd,
# the block size B even): one point short of a block edge or one past it
BLOCK_EDGES = [(LATTICE_BLOCK // 2 - 1, 8), (LATTICE_BLOCK // 2, 9),
               (LATTICE_BLOCK - 1, 10), (LATTICE_BLOCK, 11)]


def assert_321_is_public_sups(path):
    g = pav.scaled_path(path)
    tau = pav.bij321.forward(path)
    f_plus, f_minus = (scaled_function(tau, e) for e in exceedance_sets(tau))
    want = (sup_distance(g, f_plus), sup_sum(g, f_minus), sup_sum(f_plus, f_minus))
    assert coupling_321(path) == want


def assert_231_is_sup_sum(path, seed):
    """On the se_set, a random set, the full set and the empty set."""
    n = path.n
    g = pav.scaled_path(path)
    sigma = bij231.forward(path)
    index_sets = (
        se_set(path, 1.0, 0.4),
        random_index_set(n, max(1, n // 3), substream(seed, 1)),
        np.arange(1, n + 1),
    )
    for b in index_sets:
        assert coupling_231(path, b) == sup_sum(g, scaled_function(sigma, b))
    zero = pav.ScaledFunction(np.array([0, n]), n, np.zeros(2))
    assert coupling_231(path, np.array([], dtype=np.int64)) == sup_sum(g, zero)


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
        peaks are 4.96 (321) and 3.78 MiB (231); full-lattice evaluation
        peaked at 13.7 and 12.8 MiB."""
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
            inv, _ = moment_replicate(500, substream(4, 500, r))
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
            inv, mx = moment_replicate(200, substream(3, 200, r))
            assert raw[r, "inversions_scaled"] == inv and raw[r, "max_scaled"] == mx
        assert report.rows(statistic="max_scaled")[0]["mean"] > 0

    def test_empty(self):
        cfg = ExperimentConfig(theorem_id="moments", n_grid=(100,), replicates=0, seed=1)
        with pytest.raises(BadConfig):
            run_experiment(cfg)


class TestHarness:
    def test_unknown_theorem(self):
        cfg = ExperimentConfig(theorem_id="nope", n_grid=(10,), replicates=1, seed=0)
        with pytest.raises(BadConfig):
            run_experiment(cfg)

    def test_bad_grid(self):
        cfg = ExperimentConfig(theorem_id="moments", n_grid=(10, 10), replicates=1, seed=0)
        with pytest.raises(BadConfig):
            run_experiment(cfg)
        cfg = ExperimentConfig(theorem_id="moments", n_grid=(), replicates=1, seed=0)
        with pytest.raises(BadConfig):
            run_experiment(cfg)

    def test_zero_replicates(self):
        cfg = ExperimentConfig(theorem_id="height", n_grid=(10,), replicates=0, seed=0)
        with pytest.raises(BadConfig):
            run_experiment(cfg)

    @pytest.mark.parametrize("field,value", [
        ("replicates", 2.7),
        ("seed", 1.9),
        ("n_grid", (10.5,)),
    ])
    def test_rejects_non_integral_instead_of_truncating(self, field, value):
        kwargs = dict(theorem_id="thm321", n_grid=(10,), replicates=2, seed=1)
        kwargs[field] = value
        with pytest.raises(BadConfig):
            ExperimentConfig(**kwargs).validated()

    @pytest.mark.parametrize("field", ["c", "alpha", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_reals(self, field, value):
        kwargs = dict(theorem_id="thm231", n_grid=(10,), replicates=2, seed=1)
        kwargs[field] = value
        with pytest.raises(BadConfig, match=field):
            ExperimentConfig(**kwargs).validated()

    @pytest.mark.parametrize("reals,message", [
        ({"alpha": 1e308}, "alpha=1e+308 makes n**alpha overflow at n=10"),
        ({"c": 1e308, "alpha": 1.0}, "c=1e+308 makes c * n**alpha overflow at n=10"),
        ({"c": -1e308, "alpha": 1.0}, "c=-1e+308 makes c * n**alpha overflow at n=10"),
        ({"epsilon": 1e308}, "epsilon=1e+308 makes n**(0.75 + epsilon) overflow at n=10"),
    ])
    def test_rejects_overflowing_reals_by_name(self, reals, message):
        config = ExperimentConfig(theorem_id="thm231", n_grid=(2, 10), replicates=2, seed=1,
                                  **reals)
        with pytest.raises(BadConfig) as exc:
            config.validated()
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
        with pytest.raises(BadConfig, match="--threads/PAV_THREADS"):
            parallel.replicate_map(abs, range(3), workers)
        cfg = ExperimentConfig(theorem_id="subtree", n_grid=(10,), replicates=1, seed=0)
        with pytest.raises(BadConfig):
            run_experiment(cfg, workers=workers)

    @pytest.mark.parametrize("env", ["0", "-1", "abc", "2.5"])
    def test_rejects_env_worker_count(self, monkeypatch, env):
        monkeypatch.setenv("PAV_THREADS", env)
        with pytest.raises(BadConfig, match="PAV_THREADS"):
            parallel.effective_workers(None)

    @pytest.mark.parametrize("env,workers", [("", 1), (" 3 ", 3)])
    def test_env_worker_count(self, monkeypatch, env, workers):
        monkeypatch.setenv("PAV_THREADS", env)
        assert parallel.effective_workers(None) == workers

    def test_one_pool_per_grid(self, monkeypatch, recording_pool):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(4)))
        cfg = ExperimentConfig(theorem_id="height", n_grid=(10, 20, 30), replicates=3, seed=2)
        pooled = run_experiment(cfg, workers=4).to_json(include_timing=False)
        assert recording_pool.sizes == [4]
        assert pooled == run_experiment(cfg, workers=1).to_json(include_timing=False)


@pytest.mark.parametrize("theorem", sorted(REPLICATES))
def test_registry_bytes_equal_across_workers(theorem):
    cfg = ExperimentConfig(theorem_id=theorem, n_grid=(20,), replicates=2, seed=11)
    one = run_experiment(cfg, workers=1).to_json(include_timing=False)
    assert run_experiment(cfg, workers=2).to_json(include_timing=False) == one
