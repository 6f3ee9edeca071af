"""The four benchmark workloads.

Each workload derives every input from its seed and exposes:

- ``op(i, tr)``: one op of the closed loop, made only of calls into public
  entry points (``run_experiment``, ``petrov_frequency``, the exact formulas,
  ``pav.cli.main``); each call is counted in the workload's ``Tally`` and,
  when ``tr`` is a ``Tracer``, gets a span;
- ``traced_op(i, tr)``: the same op, then the same work recomposed from the
  public calls the library makes, in the same order and with the same
  substreams, every call inside a span.  The recomposed statistics must
  equal the untraced ones bit for bit;
- ``w2()``: one run at two workers, which the caller times; its output is
  what ``check()`` compares with one worker;
- ``check()``: the output checks, which run outside every timed region.

``LAYER_METRICS`` names, per workload, the per-layer metrics of its traced
run.  A ``.ms`` metric is the median duration of the span of that name
without the suffix; ``layer_metrics()`` computes the others.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

from pav import bij231, bij321, cli, dyck, parallel, perms, petrov, rng, trees
from pav import experiments as ex
from pav.scaled import ScaledFunction, sup_distance
from spans import NULL

_OP, _WARMUP, _W2, _SIZES, _MALFORMED = 1, 2, 3, 4, 5


def op_seed(seed: int, tag: int, i: int) -> int:
    """A 63-bit seed that is a pure function of (workload seed, tag, i >= 0)."""
    state = np.random.SeedSequence([seed, tag, i]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def seed_of_op(seed: int, i: int) -> int:
    """Seed of op i; the untimed warm-up op is i = -1."""
    return op_seed(seed, _WARMUP, 0) if i < 0 else op_seed(seed, _OP, i)


class Tally:
    """Attempted and failed calls into public entry points.

    A call fails when it raises, or when its output fails its check; the
    latter also marks the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.wrong: list[str] = []

    def call(self, what: str, fn, *args, check=None, **kwargs):
        self.attempted += 1
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any raise out of an entry point is a failure
            self.failed += 1
            self.errors[f"{what}: {type(exc).__name__}"] += 1
            return None
        if check is not None and not check(out):
            self.failed += 1
            self.mark_wrong(what)
        return out

    def mark_wrong(self, what: str) -> None:
        if len(self.wrong) < 20:
            self.wrong.append(what)


def run_cli(argv, stdin: str = "") -> tuple[int, str, str]:
    """Call ``pav.cli.main`` in process with stdin, stdout and stderr redirected."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _means(report) -> dict:
    return {row["statistic"]: row["mean"] for row in report.results}


def _finite(report) -> bool:
    return bool(report.results) and all(math.isfinite(r["mean"]) for r in report.results)


def self_ms(tr, real: tuple[str, ...]) -> float:
    """Median over ops of (spans of the real entry-point calls) minus (the
    span of the same work recomposed from public calls), in CPU ms."""
    per_op: dict = {}
    for _, name, _, _, _, op, cpu_start, cpu_end in tr.spans:
        if name in real:
            per_op[op] = per_op.get(op, 0.0) + (cpu_end - cpu_start)
        elif name == "recomposed":
            per_op[op] = per_op.get(op, 0.0) - (cpu_end - cpu_start)
    return 1e3 * statistics.median(per_op.values())


class _Experiments:
    """Shared parts of the two Monte Carlo workloads."""

    name = ""
    theorems: tuple[str, ...] = ()

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.tally = Tally()
        self.n = 200 if quick else 100_000

    def config(self, theorem: str, seed: int, n_grid=None, replicates: int = 1):
        return ex.ExperimentConfig(theorem_id=theorem, n_grid=tuple(n_grid or (self.n,)),
                                   replicates=replicates, seed=seed)

    def _experiments(self, s: int, tr) -> list:
        return [
            tr.call("experiments.run_experiment", self.tally.call, t, ex.run_experiment,
                    self.config(t, s), check=_finite)
            for t in self.theorems
        ]

    def w2(self) -> int:
        """One run_experiment per configuration at workers=2; returns the
        number of replicates run."""
        self._w2_reports = [
            (cfg, self.tally.call(f"w2 {cfg.theorem_id}", ex.run_experiment, cfg, workers=2))
            for cfg in self.w2_configs()
        ]
        return sum(len(cfg.n_grid) * cfg.replicates for cfg, _ in self._w2_reports)

    def check(self) -> list[str]:
        """run_experiment JSON without timing is byte-identical at 1 and 2 workers."""
        bad = []
        for cfg, rep in self._w2_reports:
            one = ex.run_experiment(cfg, workers=1).to_json(include_timing=False)
            if rep is None or rep.to_json(include_timing=False) != one:
                bad.append(f"{cfg.theorem_id}: workers=2 JSON differs from workers=1")
        return bad

    def _sample(self, tr, seed: int):
        stream = tr.call("rng.substream", rng.substream, seed, self.n, 0)
        return tr.call("dyck.sample_uniform", dyck.sample_uniform, self.n, stream)

    def _compare(self, report, got: dict, what: str) -> None:
        if report is None or _means(report) != got:
            self.tally.mark_wrong(f"trace: recomposed {what} differs from run_experiment")


class McCoupling(_Experiments):
    """Coupling theorems: a one-replicate thm321 and thm231 per op."""

    name = "mc-coupling"
    theorems = ("thm321", "thm231")

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.w2_replicates = 2 if quick else 4
        self.sup_calls = self.sup_knots = 0
        self.first_op: dict = {}

    def op(self, i: int, tr=NULL):
        return self._experiments(seed_of_op(self.seed, i), tr)

    def w2_configs(self) -> list:
        s = op_seed(self.seed, _W2, 0)
        return [self.config(t, s, replicates=self.w2_replicates) for t in self.theorems]

    def _sup(self, tr, f: ScaledFunction, g: ScaledFunction) -> float:
        self.sup_calls += 1
        self.sup_knots += len(f) + len(g)
        return tr.call("scaled.sup_distance", sup_distance, f, g)

    def _thm321(self, tr, s: int):
        path = self._sample(tr, s)
        with tr.span("experiments.coupling_321"):
            tau = tr.call("bij321.forward", bij321.forward, path)
            g = tr.call("dyck.scaled_path", dyck.scaled_path, path)
            e_plus, e_minus = tr.call("perms.exceedance_sets", perms.exceedance_sets, tau)
            f_plus = tr.call("perms.scaled_function", perms.scaled_function, tau, e_plus)
            f_minus = tr.call("perms.scaled_function", perms.scaled_function, tau, e_minus)
            stats = {
                "d_plus": self._sup(tr, g, f_plus),
                "d_minus": self._sup(tr, g, -f_minus),
                "d_mirror": self._sup(tr, f_plus, -f_minus),
            }
        return stats, path

    def _thm231(self, tr, s: int, c: float = 1.0, alpha: float = 0.4, epsilon: float = 0.05):
        # c, alpha and epsilon are the ExperimentConfig defaults.
        n = self.n
        path = self._sample(tr, s)
        with tr.span("experiments.se_set"):
            table = tr.call("dyck.excursions", dyck.excursions, path)
            b = np.nonzero(table.fringe_sizes() <= c * n**alpha)[0] + 1
        with tr.span("experiments.coupling_231"):
            sigma = tr.call("bij231.forward", bij231.forward, path)
            if b.size:
                f = tr.call("perms.scaled_function", perms.scaled_function, sigma, b)
            else:
                f = ScaledFunction(np.array([0, n]), n, np.zeros(2))
            g = tr.call("dyck.scaled_path", dyck.scaled_path, path)
            coupling = self._sup(tr, g, -f)
        return {
            "coupling": coupling,
            "excluded_count": float(n - b.size),
            "se_large": 1.0 if b.size > n - n ** (0.75 + epsilon) else 0.0,
        }

    def traced_op(self, i: int, tr) -> None:
        s = seed_of_op(self.seed, i)
        reports = self.op(i, tr)
        calls, knots = self.sup_calls, self.sup_knots
        with tr.span("recomposed"):
            got321, path = self._thm321(tr, s)
            got231 = self._thm231(tr, s)
        # dyck.runs runs inside bij321.forward; one more call times it.
        tr.call("dyck.runs", dyck.runs, path)
        if not self.first_op:
            self.first_op = {"calls": self.sup_calls - calls, "knots": self.sup_knots - knots}
        self._compare(reports[0], got321, "thm321")
        self._compare(reports[1], got231, "thm231")

    def layer_metrics(self, tr) -> dict:
        return {
            "scaled.sup_distance.calls": (self.first_op["calls"], "count"),
            "scaled.sup_distance.knots": (self.first_op["knots"], "count"),
            "experiments.harness_ms": (self_ms(tr, ("experiments.run_experiment",)), "ms"),
        }


class McMoments(_Experiments):
    """Moment and regularity statistics: moments, height and one Petrov draw per op."""

    name = "mc-moments"
    theorems = ("moments", "height")

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.w2_grid = (20, 50, 200) if quick else (1000, 10_000, 100_000)
        self.w2_replicates = 2 if quick else 8

    def op(self, i: int, tr=NULL):
        s = seed_of_op(self.seed, i)
        out = self._experiments(s, tr)
        out.append(tr.call(
            "petrov.petrov_frequency", self.tally.call, "petrov_frequency",
            petrov.petrov_frequency, self.n, 1, s,
            check=lambda d: d["frequency_all"] in (0.0, 1.0),
        ))
        return out

    def w2_configs(self) -> list:
        return [self.config("moments", op_seed(self.seed, _W2, 0), self.w2_grid, self.w2_replicates)]

    def traced_op(self, i: int, tr) -> None:
        n = self.n
        s = seed_of_op(self.seed, i)
        moments, height, freq = self.op(i, tr)
        with tr.span("recomposed"):
            path = self._sample(tr, s)
            with tr.span("experiments.moment_replicate"):
                sigma = tr.call("bij231.forward", bij231.forward, path)
                m_path = tr.call("dyck.max_height", dyck.max_height, path)
                deficit = tr.call("perms.max_deficit", perms.max_deficit, sigma)
                inv = tr.call("perms.inversions", perms.inversions, sigma)
            got_moments = {"inversions_scaled": inv / n**1.5,
                           "max_scaled": m_path / math.sqrt(2 * n)}
            path = self._sample(tr, s)
            got_height = {"height_vs_contour": tr.call(
                "experiments.height_vs_contour", ex.height_vs_contour, path)}
            path = self._sample(tr, s)
            rep = tr.call("petrov.check_petrov", petrov.check_petrov, path)
        if m_path != 1 + deficit:
            self.tally.mark_wrong("trace: max height != 1 + max deficit")
        self._compare(moments, got_moments, "moments")
        self._compare(height, got_height, "height")
        got_freq = {
            "n": n,
            "replicates": 1,
            "frequency_all": float(rep.all_hold),
            "failure_rate": {k: 1.0 - float(getattr(rep, f"cond_{k}")) for k in "abcd"},
        }
        if freq != got_freq:
            self.tally.mark_wrong("trace: recomposed petrov_frequency differs")

    def traced_extra(self, tr) -> None:
        """Pool start and teardown: the w2 item count with a no-op function."""
        for _ in range(3):
            tr.call("parallel.replicate_map.fixed", parallel.replicate_map,
                    abs, range(self.w2_replicates), workers=2)

    def layer_metrics(self, tr) -> dict:
        real = ("experiments.run_experiment", "petrov.petrov_frequency")
        return {
            # wall time: the benchmark process mostly waits for the pool here
            "parallel.replicate_map.fixed_ms": (
                tr.median_ms("parallel.replicate_map.fixed", cpu=False), "ms"),
            "experiments.harness_ms": (self_ms(tr, real), "ms"),
        }


class ExactFormulas:
    """Exact big-integer expectations at seeded sizes: no sampling, no numpy."""

    name = "exact-formulas"

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.tally = Tally()
        lo_n, hi_n = (30, 60) if quick else (10_000, 11_000)
        lo_m, hi_m = (5, 12) if quick else (200, 256)
        sizes = np.random.default_rng(op_seed(seed, _SIZES, 0))
        # n is drawn without replacement and m cycles through shuffled copies
        # of its range, so every run covers the same spread of sizes.  The
        # two-worker grid takes the first four n, so no n repeats.
        ns = sizes.permutation(np.arange(lo_n, hi_n)).tolist()
        self.w2_grid = tuple(sorted(ns[:4]))
        self._n = ns[4:]
        self._m_range = np.arange(lo_m, hi_m + 1)
        self._m: list[int] = []
        self._warmup_sizes = (lo_n - 1, lo_m - 1)  # outside the ranges: nothing to reuse
        self.results: list = []  # (n, k, E[hat_xi_k], m, E[area]) per loop op
        self.first_bits = 0

    def sizes(self, i: int) -> tuple[int, int, int]:
        """(n, k = floor(n^0.4), m) of op i."""
        if i < 0:
            n, m = self._warmup_sizes
        else:
            while len(self._m) <= i:
                cycle = op_seed(self.seed, _SIZES, 1 + len(self._m) // len(self._m_range))
                self._m += np.random.default_rng(cycle).permutation(self._m_range).tolist()
            n, m = self._n[i % len(self._n)], self._m[i]
        return n, math.floor(n**0.4), m

    def op(self, i: int, tr=NULL):
        n, k, m = self.sizes(i)
        hat = tr.call("trees.expected_hat_xi", self.tally.call, "expected_hat_xi",
                      trees.expected_hat_xi, n, k,
                      check=lambda v: isinstance(v, Fraction) and v > 0)
        oracle = tr.call("experiments.exact_moment_oracle", self.tally.call,
                         "exact_moment_oracle", ex.exact_moment_oracle, m,
                         check=lambda v: v[0] > 0 and v[1] > 0)
        if i >= 0 and hat is not None and oracle is not None:
            self.results.append((n, k, hat, m, oracle[0]))
        return hat, oracle

    def traced_op(self, i: int, tr) -> None:
        # The op is two direct formula calls, so it is its own recomposition.
        with tr.span("recomposed"):
            hat, _ = self.op(i, tr)
        if hat is not None and not self.first_bits:
            self.first_bits = hat.numerator.bit_length() + hat.denominator.bit_length()

    def layer_metrics(self, tr) -> dict:
        return {"trees.expected_hat_xi.bits": (self.first_bits, "bits")}

    def _w2_config(self):
        return ex.ExperimentConfig(theorem_id="subtree", n_grid=self.w2_grid,
                                   replicates=1, seed=op_seed(self.seed, _W2, 0))

    def w2(self) -> int:
        """The subtree theorem (one exact expected_hat_xi per grid point) at workers=2."""
        self._w2_report = self.tally.call("w2 subtree", ex.run_experiment,
                                          self._w2_config(), workers=2)
        return len(self.w2_grid)

    def check(self) -> list[str]:
        bad = []
        for n, k, hat, m, area in self.results:
            if area != Fraction(4**m - math.comb(2 * m + 1, m), trees.catalan(m)):
                bad.append(f"exact_moment_oracle({m}) area != (4^m - C(2m+1,m))/C_m")
        for n, k, hat, m, area in self.results[:1] + self.results[-1:]:
            if hat - trees.expected_hat_xi(n, k + 1) != trees.expected_xi(n, k):
                bad.append(f"E[hat_xi_{k}] - E[hat_xi_{k + 1}] != E[xi_{k}] at n={n}")
            if abs(trees.expected_hat_xi_float(n, k) - float(hat)) > 1e-10 * float(hat):
                bad.append(f"expected_hat_xi({n}, {k}) differs from its float form")
        one = ex.run_experiment(self._w2_config(), workers=1).to_json(include_timing=False)
        if self._w2_report is None or self._w2_report.to_json(include_timing=False) != one:
            bad.append("subtree: workers=2 JSON differs from workers=1")
        return bad


_TOO_BIG = "99999999999999999999"  # above 2**63, so no int64 holds it


class CliRoundtrip:
    """Text pipelines through ``pav.cli.main``: sample, map both ways, check,
    and one malformed line per op.

    The int64-overflow line is a known defect: ``pav.cli.main`` lets its
    ``OverflowError`` escape.  It is sent once per run, outside every timed
    region, and counted in ``defect`` rather than ``tally``, so that the failed
    count of a run does not grow with the number of ops its time allows.
    """

    name = "cli-roundtrip"
    MALFORMED = ("bad-step", "contains-231")
    KNOWN_DEFECT = "int64-overflow"

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.tally = Tally()
        self.defect = Tally()
        self.n = 20 if quick else 10_000
        self.count = 2 if quick else 8
        self.w2_replicates = 4 if quick else 32
        self.first_op: dict = {}

    def malformed_line(self, i: int, kind: str, paths: str, perms231: str) -> tuple[list, str]:
        """argv and input line of op i's malformed call of the given kind."""
        pick = np.random.default_rng(op_seed(self.seed, _MALFORMED, max(i, 0)))
        if kind == "bad-step":
            line = paths.split("\n", 1)[0]
            at = int(pick.integers(max(1, len(line))))
            return ["map", "--from", "dyck", "--to", "321"], line[:at] + "X" + line[at + 1:]
        if kind == "contains-231":
            # values p+1, p+2, p at positions p..p+2 form a 231 near the end
            n = self.n
            p = int(pick.integers(max(1, n - n // 10), n - 1))
            vals = list(range(1, n + 1))
            vals[p - 1:p + 2] = [p + 1, p + 2, p]
            return ["map", "--from", "231", "--to", "dyck"], " ".join(map(str, vals))
        tokens = perms231.split("\n", 1)[0].split() or ["1"]
        tokens[int(pick.integers(len(tokens)))] = _TOO_BIG
        return ["map", "--from", "231", "--to", "dyck"], " ".join(tokens)

    def op(self, i: int, tr=NULL):
        s = seed_of_op(self.seed, i)

        def cli_call(span, what, argv, stdin="", check=None):
            out = tr.call(span, self.tally.call, what, run_cli, argv, stdin, check=check)
            return out[1] if out else ""

        def ok(r):
            return r[0] == 0

        s231 = cli_call("cli.sample", "sample",
                        ["sample", "--n", self.n, "--count", self.count, "--seed", s, "--as", "231"],
                        check=lambda r: ok(r) and r[1].count("\n") == self.count)
        paths = cli_call("cli.map", "map 231->dyck", ["map", "--from", "231", "--to", "dyck"],
                         s231, check=ok)
        t321 = cli_call("cli.map", "map dyck->321", ["map", "--from", "dyck", "--to", "321"],
                        paths, check=ok)
        cli_call("cli.check", "check 321", ["check", "--pattern", "321"], t321,
                 check=lambda r: ok(r) and r[1] == t321)
        cli_call("cli.map", "map 321->dyck", ["map", "--from", "321", "--to", "dyck"], t321,
                 check=lambda r: ok(r) and r[1] == paths)
        kind = self.MALFORMED[i % len(self.MALFORMED)]
        argv, line = self.malformed_line(i, kind, paths, s231)
        rejected = tr.call("cli.reject", self.reject, self.tally, kind, argv, line)
        if i == 0:
            self.first_op = {"seed": s, "perms231": s231, "paths": paths}
        return {"s231": s231, "paths": paths, "t321": t321,
                "rejected": rejected is None or rejected[0] != 0}

    @staticmethod
    def reject(tally: Tally, kind: str, argv: list, line: str):
        """One malformed line; it must exit 1 with an ``error:`` line."""
        return tally.call(f"reject {kind}", run_cli, argv, line,
                          check=lambda r: r[0] == 1 and r[2].startswith("error:"))

    def probe_known_defect(self) -> None:
        """Send the int64-overflow line once, into ``defect``; untimed."""
        first = self.first_op
        argv, line = self.malformed_line(0, self.KNOWN_DEFECT, first["paths"], first["perms231"])
        self.reject(self.defect, self.KNOWN_DEFECT, argv, line)

    def traced_extra(self, tr) -> None:
        self.probe_known_defect()

    def traced_op(self, i: int, tr) -> None:
        real = self.op(i, tr)
        with tr.span("recomposed"):
            got = self._recompose(i, seed_of_op(self.seed, i), tr)
        # avoids_231 runs inside bij231.inverse; one more call per line times it.
        for text in got["s231"].splitlines():
            tr.call("perms.avoids_231", perms.avoids_231, perms.Permutation(text))
        for key in real:
            if real[key] != got[key]:
                self.tally.mark_wrong(f"trace: recomposed {key} differs from pav.cli.main")

    def _recompose(self, i: int, s: int, tr) -> dict:
        def lines(texts):
            return "".join(t + "\n" for t in texts)

        def perm(text):
            return tr.call("perms.Permutation", perms.Permutation, text.strip())

        def perm_text(p):
            return tr.call("perms.to_text", p.to_text)

        def path_text(p):
            return tr.call("dyck.to_text", p.to_text)

        out231 = []
        for k in range(self.count):
            stream = tr.call("rng.substream", rng.substream, s, k)
            path = tr.call("dyck.sample_uniform", dyck.sample_uniform, self.n, stream)
            out231.append(perm_text(tr.call("bij231.forward", bij231.forward, path)))
        paths = lines(path_text(tr.call("bij231.inverse", bij231.inverse, perm(t)))
                      for t in out231)
        t321 = lines(perm_text(tr.call("bij321.forward", bij321.forward,
                                       tr.call("dyck.from_text", dyck.from_text, t.strip())))
                     for t in paths.splitlines())
        for t in t321.splitlines():
            if not tr.call("perms.avoids_321", perms.avoids_321, perm(t)):
                self.tally.mark_wrong("trace: a 321 image fails avoids_321")
        back = lines(path_text(tr.call("bij321.inverse", bij321.inverse, perm(t)))
                     for t in t321.splitlines())
        if back != paths:
            self.tally.mark_wrong("trace: recomposed 321 -> dyck round trip differs")
        kind = self.MALFORMED[i % len(self.MALFORMED)]
        argv, line = self.malformed_line(i, kind, paths, lines(out231))
        try:
            if argv[2] == "dyck":
                tr.call("dyck.from_text", dyck.from_text, line.strip())
            else:
                tr.call("bij231.inverse", bij231.inverse, perm(line))
            rejected = False
        except (ValueError, OverflowError):
            rejected = True
        return {"s231": lines(out231), "paths": paths, "t321": t321, "rejected": rejected}

    def layer_metrics(self, tr) -> dict:
        real = ("cli.sample", "cli.map", "cli.check", "cli.reject")
        return {"cli.self_ms": (self_ms(tr, real), "ms"),
                "cli.int64_overflow.failed": (self.defect.failed, "count")}

    def _w2_config(self):
        return ex.ExperimentConfig(theorem_id="thm231", n_grid=(self.n,),
                                   replicates=self.w2_replicates, seed=op_seed(self.seed, _W2, 0))

    def w2(self) -> int:
        """``pav experiment --threads 2`` through the CLI."""
        cfg = self._w2_config()
        argv = ["experiment", "--theorem", cfg.theorem_id, "--n-grid", self.n,
                "--replicates", cfg.replicates, "--seed", cfg.seed, "--threads", 2, "--no-timing"]
        self._w2_out = self.tally.call("w2 experiment", run_cli, argv, check=lambda r: r[0] == 0)
        return cfg.replicates

    def check(self) -> list[str]:
        self.probe_known_defect()
        bad = []
        first = self.first_op
        want_paths, want_231 = [], []
        for k in range(self.count):
            path = dyck.sample_uniform(self.n, rng.substream(first["seed"], k))
            want_paths.append(path.to_text() + "\n")
            want_231.append(bij231.forward(path).to_text() + "\n")
        if first["paths"] != "".join(want_paths):
            bad.append("cli: map 231 -> dyck differs from the sampled paths")
        if first["perms231"] != "".join(want_231):
            bad.append("cli: sample --as 231 differs from bij231.forward of the sampled paths")
        one = ex.run_experiment(self._w2_config(), workers=1).to_json(include_timing=False)
        if self._w2_out is None or self._w2_out[1] != one + "\n":
            bad.append("cli: experiment --threads 2 differs from run_experiment at workers=1")
        return bad


WORKLOADS = {w.name: w for w in (McCoupling, McMoments, ExactFormulas, CliRoundtrip)}

# Per-layer metrics of each workload's traced run.  Every workload also
# reports the wall-clock rate of its two-worker run and its traced rate.
_ALL = ["replicates_per_s.w2", "trace.ops_per_s"]
LAYER_METRICS = {
    "mc-coupling": [
        "rng.substream.ms", "dyck.sample_uniform.ms", "dyck.runs.ms",
        "dyck.excursions.ms", "dyck.scaled_path.ms", "perms.exceedance_sets.ms",
        "perms.scaled_function.ms", "scaled.sup_distance.ms",
        "scaled.sup_distance.calls", "scaled.sup_distance.knots",
        "bij321.forward.ms", "bij231.forward.ms", "experiments.se_set.ms",
        "experiments.coupling_321.ms", "experiments.coupling_231.ms",
        "experiments.harness_ms", *_ALL,
    ],
    "mc-moments": [
        "dyck.sample_uniform.ms", "bij231.forward.ms", "perms.inversions.ms",
        "perms.max_deficit.ms", "experiments.height_vs_contour.ms",
        "petrov.check_petrov.ms", "parallel.replicate_map.fixed_ms",
        "experiments.harness_ms", *_ALL,
    ],
    "exact-formulas": [
        "trees.expected_hat_xi.ms", "trees.expected_hat_xi.bits",
        "experiments.exact_moment_oracle.ms", *_ALL,
    ],
    "cli-roundtrip": [
        "cli.sample.ms", "cli.map.ms", "cli.check.ms", "cli.self_ms",
        "dyck.from_text.ms", "dyck.to_text.ms", "perms.Permutation.ms",
        "perms.to_text.ms", "perms.avoids_231.ms", "perms.avoids_321.ms",
        "bij231.inverse.ms", "bij321.inverse.ms", "cli.int64_overflow.failed", *_ALL,
    ],
}
