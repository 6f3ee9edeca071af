"""Command-line surface: formats, exit codes, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import re
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pav import bij231, dyck, perms, trees
from pav.cli import main
from pav.experiments import THEOREMS, ExperimentConfig, run_experiment
from pav.petrov import petrov_frequency
from pav.rng import substream
from pav.trees import EXACT_LIMIT, expected_hat_xi

FIG5_IMAGE = "2 1 6 3 10 4 5 7 8 9"
FIG5_PATH = "UDUUUUDDUUUUDDUDDDDD"


def run_cli(args, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(args)
        finally:
            sys.stdin = old
    else:
        code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def digits_value(digits):
    """The int of a decimal digit string of any length, converted in
    chunks that stay below CPython's int <-> str digit limit."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestSample:
    def test_smallest(self, capsys):
        code, out, _ = run_cli(["sample", "--n", "1", "--count", "1", "--seed", "0"], capsys=capsys)
        assert code == 0 and out == "UD\n"

    def test_deterministic(self, capsys):
        args = ["sample", "--n", "20", "--count", "5", "--seed", "3"]
        _, out1, _ = run_cli(args, capsys=capsys)
        _, out2, _ = run_cli(args, capsys=capsys)
        assert out1 == out2 and len(out1.splitlines()) == 5

    def test_as_231_all_avoid(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--n", "5", "--count", "50", "--seed", "1", "--as", "231"],
            capsys=capsys,
        )
        assert code == 0
        code2, out2, err2 = run_cli(
            ["check", "--pattern", "231"], stdin_text=out, capsys=capsys
        )
        assert code2 == 0 and out2 == out

    def test_negative_count_exit_1(self, capsys):
        code, out, err = run_cli(["sample", "--n", "3", "--count", "-2"], capsys=capsys)
        assert code == 1 and out == "" and err.startswith("error:")


class TestMap:
    def test_dyck_to_231(self, capsys):
        code, out, _ = run_cli(["map", "--from", "dyck", "--to", "231", "UUDUDD"], capsys=capsys)
        assert code == 0 and out == "3 1 2\n"

    def test_figure_roundtrip(self, capsys):
        code, out, _ = run_cli(["map", "--from", "321", "--to", "dyck", FIG5_IMAGE], capsys=capsys)
        assert code == 0 and out.strip() == FIG5_PATH
        code, out, _ = run_cli(["map", "--from", "dyck", "--to", "321", FIG5_PATH], capsys=capsys)
        assert code == 0 and out.strip() == FIG5_IMAGE

    def test_smallest_to_321(self, capsys):
        code, out, _ = run_cli(["map", "--from", "dyck", "--to", "321", "UD"], capsys=capsys)
        assert code == 0 and out == "1\n"

    def test_tree_roundtrip(self, capsys):
        code, out, _ = run_cli(["map", "--from", "dyck", "--to", "tree", "UUDUDD"], capsys=capsys)
        assert code == 0 and out == "0 1 1\n"
        code, out, _ = run_cli(["map", "--from", "tree", "--to", "dyck", "0 1 1"], capsys=capsys)
        assert code == 0 and out == "UUDUDD\n"

    def test_one_vertex_tree(self, capsys):
        code, out, err = run_cli(["map", "--from", "tree", "--to", "tree", ""], capsys=capsys)
        assert (code, out, err) == (0, "\n", "")

    @pytest.mark.parametrize("args", [
        ["stats"], ["stats", "--as", "tree"], ["map", "--from", "dyck", "--to", "321"],
        ["map", "--from", "dyck", "--to", "231"], ["map", "--from", "tree", "--to", "231"],
    ], ids=" ".join)
    def test_empty_path_has_no_permutation(self, capsys, args):
        # the empty path and the one-vertex tree are valid; a permutation needs n >= 1
        code, out, err = run_cli([*args, ""], capsys=capsys)
        assert (code, out, err) == (1, "", "error: images must be a bijection on 1..n, n >= 1\n")

    def test_stdin_lines(self, capsys):
        code, out, _ = run_cli(
            ["map", "--from", "dyck", "--to", "231"],
            stdin_text="UD\nUUDD\n",
            capsys=capsys,
        )
        assert code == 0 and out == "1\n2 1\n"

    def test_invalid_input_exit_1(self, capsys):
        code, _, err = run_cli(["map", "--from", "dyck", "--to", "231", "UDX"], capsys=capsys)
        assert code == 1 and "error" in err

    def test_non_avoider_exit_1(self, capsys):
        code, _, err = run_cli(["map", "--from", "231", "--to", "dyck", "2 3 1"], capsys=capsys)
        assert code == 1 and "231" in err

    def test_rejected_321_line_names_the_pattern(self, capsys):
        code, out, err = run_cli(["map", "--from", "321", "--to", "dyck", "3 2 1"],
                                 capsys=capsys)
        assert (code, out, err) == (1, "", "error: input contains a 321 pattern: 3 2 1\n")

    def test_rejected_231_lines_name_the_pattern(self, capsys):
        # "3 1 4 2" fails only the final forward check; the long line is
        # the identity with values 500 and 503 swapped (501 502 500 is a 231).
        near = list(range(1, 1001))
        near[499], near[502] = 503, 500
        for text in ("2 3 1", "3 1 4 2", " ".join(map(str, near))):
            code, out, err = run_cli(["map", "--from", "231", "--to", "dyck", text],
                                     capsys=capsys)
            assert (code, out) == (1, "")
            assert err.startswith("error: input contains a 231 pattern: ")

    def test_non_ascii_tree_exit_1(self, capsys):
        code, out, err = run_cli(["map", "--from", "tree", "--to", "dyck", "0 ０"], capsys=capsys)
        assert (code, out) == (1, "") and err.startswith("error: invalid tree")

    def test_int64_overflow_exit_1(self, capsys):
        for kind, text in (("231", "99999999999999999999"), ("tree", "0 99999999999999999999")):
            code, out, err = run_cli(["map", "--from", kind, "--to", "dyck", text], capsys=capsys)
            assert (code, out) == (1, "") and err.startswith("error: invalid")


class TestCheck:
    # Integer lines are ASCII digits separated by spaces or tabs: a
    # non-ASCII digit or separator, a sign or an underscore is an error,
    # not an int() coercion.
    @pytest.mark.parametrize("text", ["３ 2 1", "+3 2 1", "3\x1c2 1", "3\u20282 1",
                                      "1_0 2 3 4 5 6 7 8 9 1", "3 2 1\u3000"])
    def test_coercible_line_exit_1(self, capsys, text):
        for args, stdin_text in (([text], None), ([], text + "\n")):
            code, out, err = run_cli(["check", "--pattern", "231", *args], stdin_text,
                                     capsys=capsys)
            assert (code, out) == (1, "")
            assert err.startswith("error: invalid permutation") and err.count("\n") == 1

    def test_ascii_blanks_at_line_ends_are_dropped(self, capsys):
        code, out, _ = run_cli(["check", "--pattern", "231", " 3 2 1\t"], capsys=capsys)
        assert (code, out) == (0, "3 2 1\n")

    def test_contains_nonzero_exit(self, capsys):
        code, out, err = run_cli(["check", "--pattern", "231", "2 3 1"], capsys=capsys)
        assert code == 1 and out == "" and "contains" in err

    def test_avoider_passes_through(self, capsys):
        code, out, _ = run_cli(["check", "--pattern", "321", "1 2 3"], capsys=capsys)
        assert code == 0 and out == "1 2 3\n"


class TestStats:
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_inversions_match_the_count(self, capsys, n):
        paths = [dyck.sample_uniform(n, substream(11, n, i)) for i in range(5)]
        code, out, _ = run_cli(["stats", *(p.to_text() for p in paths)], capsys=capsys)
        assert code == 0
        counts = [json.loads(line)["inversions"] for line in out.splitlines()]
        assert counts == [perms.inversions(bij231.forward(p)) for p in paths]

    @pytest.mark.parametrize("paths", [
        [p for n in range(1, 9) for p in dyck.enumerate_all(n)],
        [dyck.sample_uniform(n, substream(12, n)) for n in (10**3, 10**4, 10**5)],
    ], ids=["exhaustive-n<=8", "sampled"])
    def test_path_length_matches_the_tree(self, capsys, paths):
        lines = "".join(p.to_text() + "\n" for p in paths)
        code, out, _ = run_cli(["stats"], lines, capsys=capsys)
        assert code == 0
        got = [json.loads(line)["path_length"] for line in out.splitlines()]
        assert got == [trees.stats(trees.from_contour(p)).path_length for p in paths]


class TestExpect:
    def test_xi_value(self, capsys):
        code, out, _ = run_cli(["expect", "xi", "--n", "2", "--k", "1"], capsys=capsys)
        assert code == 0 and out == "3/2 (1.5)\n"

    def test_hat_xi_value(self, capsys):
        code, out, _ = run_cli(["expect", "hat-xi", "--n", "2", "--k", "2"], capsys=capsys)
        assert code == 0 and out == "1/2 (0.5)\n"

    def test_limit(self, capsys):
        code, out, _ = run_cli(["expect", "limit", "--c", "1", "--alpha", "0.5"], capsys=capsys)
        assert code == 0
        assert abs(float(out) - 0.5641895835477563) < 1e-15

    def test_hat_xi_beyond_4300_digits(self, capsys):
        """CPython converts at most 4,300 digits of an int to str by default;
        this numerator has 4,856, and the process limit is left as it was."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(["expect", "hat-xi", "--n", "10000", "--k", "5000"],
                                 capsys=capsys)
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        fraction, approx = out.split(" ")
        num, den = (digits_value(part) for part in fraction.split("/"))
        exact = expected_hat_xi(10_000, 5000)
        assert Fraction(num, den) == exact and len(fraction.split("/")[0]) == 4856
        assert approx == f"({float(exact)!r})\n"

    def test_out_of_range_exit_1(self, capsys):
        code, _, err = run_cli(["expect", "xi", "--n", "2", "--k", "9"], capsys=capsys)
        assert code == 1

    @pytest.mark.parametrize("quantity", ["xi", "hat-xi"])
    def test_negative_n_named(self, capsys, quantity):
        code, out, err = run_cli(["expect", quantity, "--n", "-3", "--k", "1"], capsys=capsys)
        assert (code, out) == (1, "") and err.startswith("error: n=-3, ")

    @pytest.mark.parametrize("quantity", ["xi", "hat-xi"])
    def test_beyond_size_guard_exit_1(self, capsys, quantity):
        n = str(EXACT_LIMIT + 1)
        code, out, err = run_cli(["expect", quantity, "--n", n, "--k", "1"], capsys=capsys)
        assert (code, out) == (1, "") and err.startswith(f"error: n={n} exceeds ")

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_limit_non_finite_c_exit_1(self, capsys, c):
        code, out, err = run_cli(["expect", "limit", "--c", c], capsys=capsys)
        assert (code, out) == (1, "") and err.startswith("error:")


class TestPetrovCmd:
    def test_single_path_json(self, capsys):
        code, out, _ = run_cli(["petrov", "UDUDUD"], capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["conditions"]["a"] is False
        assert payload["all_hold"] is False
        assert "voucher" in payload

    def test_output_bytes_pinned(self, capsys):
        # every path with n <= 8, A10's 1,000 sampled paths, then the regular
        # family; the digest is the float margins' one, as none of these
        # paths sits at a tie that floats miss
        texts = [p.to_text() for n in range(1, 9) for p in dyck.enumerate_all(n)]
        rng = substream(10_010)
        texts += [dyck.sample_uniform(int(rng.integers(1, 201)), rng).to_text()
                  for _ in range(1000)]
        texts += ["UUDD" * k for k in (16, 17, 25, 250, 2500)]
        code, out, _ = run_cli(["petrov", *texts], capsys=capsys)
        lines = out.splitlines()
        assert (code, len(lines)) == (0, 3060)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest[:16] == "87a3b13fb4ba9b79"

    def test_pair_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["petrov", "--pair-mode", "fast", "UDUDUD"])
        assert exc.value.code == 2
        assert "mode" not in run_cli(["petrov", "UUDD" * 17], capsys=capsys)[1]

    def test_frequency_is_the_petrov_experiment(self, capsys):
        """petrov_frequency's numbers are one `pav experiment` away."""
        code, out, _ = run_cli(["experiment", "--theorem", "petrov", "--n-grid", "100",
                                "--replicates", "5", "--seed", "1", "--no-timing"], capsys=capsys)
        mean = {row["statistic"]: row["mean"] for row in json.loads(out)["results"]}
        freq = petrov_frequency(100, 5, 1)
        assert code == 0 and mean["all_hold"] == freq["frequency_all"] == 0.0
        assert {k: 1.0 - mean[f"cond_{k}"] for k in "abcd"} == freq["failure_rate"]


@pytest.mark.parametrize("args", [
    *(["petrov", option, "2", "UDUD"] for option in ("--n", "--replicates", "--seed", "--threads")),
    ["expect", "limit", "--n", "5"],
    ["expect", "xi", "--n", "5", "--k", "2", "--c", "3"],
    ["expect", "hat-xi", "--n", "5"],
    *(["experiment", "--theorem", theorem, "--n-grid", "10", "--replicates", "3", option, value]
      for theorem, option, value in (("height", "--c", "5"), ("thm321", "--alpha", "0.3"),
                                     ("random_index", "--epsilon", "0.1"),
                                     ("moments", "--epsilon", "0.1"))),
], ids=" ".join)
def test_option_the_command_does_not_read_is_a_usage_error(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2 and capsys.readouterr().out == ""


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_pipe_exits_1_without_a_message(capsys):
    with contextlib.redirect_stdout(ClosedPipe()):
        code = main(["sample", "--n", "3", "--count", "2"])
    assert (code, capsys.readouterr().err) == (1, "")


class TestExperimentCmd:
    def test_schema_and_determinism(self, capsys, tmp_path):
        args = [
            "experiment", "--theorem", "moments", "--n-grid", "1000",
            "--replicates", "10", "--seed", "3", "--no-timing",
        ]
        code, out1, _ = run_cli(args, capsys=capsys)
        assert code == 0
        payload = json.loads(out1)
        assert {r["statistic"] for r in payload["results"]} == {
            "inversions_scaled", "max_scaled",
        }
        _, out2, _ = run_cli(args, capsys=capsys)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["experiment", "--theorem", "height", "--n-grid", "50", "100",
             "--replicates", "2", "--seed", "1", "--out", str(out_file)],
            capsys=capsys,
        )
        assert code == 0 and out == ""
        payload = json.loads(out_file.read_text())
        assert [r["n"] for r in payload["results"]] == [50, 100]

    @pytest.mark.parametrize("flag", ["--out", "--keep-raw"])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_output_exit_1(self, capsys, tmp_path, flag, target):
        path = tmp_path / "missing" / "r.json" if target == "missing" else tmp_path
        code, out, err = run_cli(
            ["experiment", "--theorem", "height", "--n-grid", "10", "--replicates", "2",
             "--no-timing", flag, str(path)], capsys=capsys,
        )
        assert code == 1 and err.startswith("error: [Errno ") and err.count("\n") == 1
        assert str(path) in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("theorem,name,value", [
        ("thm231", "c", "nan"),
        ("random_index", "c", "inf"),
        ("thm231", "alpha", "nan"),
        ("thm231", "epsilon", "-inf"),
    ])
    def test_non_finite_real_exit_1(self, capsys, theorem, name, value):
        code, out, err = run_cli(
            ["experiment", "--theorem", theorem, "--n-grid", "10", "--replicates", "2",
             f"--{name}={value}"], capsys=capsys,
        )
        assert (code, out) == (1, "") and err.startswith(f"error: {name} must be finite")

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("theorem,reals", [
        ("thm231", ["--alpha", "1e308"]),  # n ** alpha
        ("thm231", ["--epsilon", "1e308"]),
        ("random_index", ["--alpha", "1e308"]),
        ("random_index", ["--c", "1e308", "--alpha", "1"]),  # int(inf)
    ])
    def test_overflowing_real_exit_1(self, capsys, theorem, reals, threads):
        code, out, err = run_cli(
            ["experiment", "--theorem", theorem, "--n-grid", "2", "--replicates", "2",
             "--threads", threads, *reals], capsys=capsys,
        )
        named = f"error: {reals[0][2:]}=1e+308 makes "  # the first option overflows
        assert (code, out) == (1, "") and err.startswith(named) and "Traceback" not in err

    @pytest.mark.parametrize("real", ["--c=0", "--c=-3", "--alpha=-1"])
    def test_index_count_below_one_exit_1(self, capsys, real):
        code, out, err = run_cli(
            ["experiment", "--theorem", "random_index", "--n-grid", "10", real], capsys=capsys
        )
        assert (code, out) == (1, "") and err.startswith("error: threshold floor(c*n^alpha)")

    def test_reals_reach_the_config(self, capsys):
        code, out, _ = run_cli(
            ["experiment", "--theorem", "thm231", "--n-grid", "10", "20", "--replicates", "3",
             "--seed", "4", "--c", "0.5", "--alpha", "0.3", "--epsilon", "0.1", "--no-timing"],
            capsys=capsys,
        )
        config = ExperimentConfig("thm231", (10, 20), 3, 4, c=0.5, alpha=0.3, epsilon=0.1)
        assert (code, out) == (0, run_experiment(config).to_json(include_timing=False) + "\n")

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_omitted_reals_keep_the_config_defaults(self, capsys, theorem):
        code, out, _ = run_cli(["experiment", "--theorem", theorem, "--n-grid", "10",
                                "--replicates", "2", "--no-timing"], capsys=capsys)
        config = ExperimentConfig(theorem, (10,), 2, 0)
        assert (code, out) == (0, run_experiment(config).to_json(include_timing=False) + "\n")
        assert {k: json.loads(out)["config"][k] for k in ("c", "alpha", "epsilon")} == {
            "c": 1.0, "alpha": 0.4, "epsilon": 0.05}

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_a_real_the_cli_refuses_moves_no_result(self, theorem):
        """The options an id refuses are the ones its run does not read."""
        base = ExperimentConfig(theorem, (10, 12), 2, 3)
        want = run_experiment(base).results
        for name in {"c", "alpha", "epsilon"} - set(THEOREMS[theorem][1]):
            moved = dataclasses.replace(base, **{name: getattr(base, name) - 0.5})
            assert run_experiment(moved).results == want, name

    @pytest.mark.parametrize("theorem,name", [
        (theorem, name) for theorem, (_, reads) in THEOREMS.items() for name in reads])
    def test_a_real_an_id_reads_moves_a_result(self, theorem, name):
        """The table lists no option that its theorem ignores."""
        base = ExperimentConfig(theorem, (10, 12), 2, 3)
        value = {"c": 2.0, "alpha": 0.5, "epsilon": -0.7}[name]  # -0.7: se_large can fall to 0
        moved = dataclasses.replace(base, **{name: value})
        assert run_experiment(moved).results != run_experiment(base).results

    def test_help_names_the_ids_that_read_each_real(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps the help
        for name in ("c", "alpha", "epsilon"):
            helped = re.search(rf"--{name} {name.upper()} (.*?) only", text).group(1)
            assert re.split(r", | and ", helped) == [
                theorem for theorem, (_, reads) in THEOREMS.items() if name in reads]

    def test_bad_theorem_exit_1(self, capsys):
        code, _, err = run_cli(
            ["experiment", "--theorem", "bogus", "--n-grid", "10"], capsys=capsys
        )
        assert code == 1 and "theorem" in err

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_bad_threads_exit_1(self, capsys, threads):
        code, out, err = run_cli(
            ["experiment", "--theorem", "height", "--n-grid", "10", "--threads", threads],
            capsys=capsys,
        )
        assert code == 1 and out == "" and err.startswith("error:")

    def test_out_file_bytes_equal_stdout(self, capsys, tmp_path):
        args = ["experiment", "--theorem", "height", "--n-grid", "20", "--replicates", "2",
                "--no-timing"]
        _, out, _ = run_cli(args, capsys=capsys)
        out_file = tmp_path / "report.json"
        run_cli([*args, "--out", str(out_file)], capsys=capsys)
        assert out_file.read_text() == out
        assert "output" not in json.loads(out)["config"]


def limit_address_space():
    # 1 GiB: enough to import numpy, and far below what the probes ask
    # for, so the allocation is refused at once and no memory is taken.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestProcessLevel:
    @pytest.mark.parametrize("args", [
        ["sample", "--n", "1000000000000", "--count", "1"],
        ["experiment", "--theorem", "random_index", "--n-grid", "1000", "--c", "1e12",
         "--threads", "1"],
        ["experiment", "--theorem", "random_index", "--n-grid", "1000", "--c", "1e12",
         "--threads", "2", "--replicates", "2"],
    ], ids=["sample", "experiment-serial", "experiment-pool"])
    def test_memory_error_exit_1(self, args):
        proc = subprocess.run(
            [sys.executable, "-m", "pav.cli", *args],
            capture_output=True, text=True, preexec_fn=limit_address_space, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pav.cli", "sample"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_pipeline(self):
        sample = subprocess.run(
            [sys.executable, "-m", "pav.cli", "sample", "--n", "4", "--count", "20",
             "--seed", "5", "--as", "321"],
            capture_output=True, text=True,
        )
        assert sample.returncode == 0
        check = subprocess.run(
            [sys.executable, "-m", "pav.cli", "check", "--pattern", "321"],
            input=sample.stdout, capture_output=True, text=True,
        )
        assert check.returncode == 0
        assert check.stdout == sample.stdout

    def test_stats_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pav.cli", "stats", "UUDUDD"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["n"] == 3
        assert payload["max_height"] == 2
        assert payload["inversions"] == 2
        assert payload["max_deficit"] == 1


KINDS = ("dyck", "321", "231", "tree")
LINE_COMMANDS = [
    *(["map", "--from", a, "--to", b] for a, b in itertools.product(KINDS, KINDS)),
    *(["stats", "--as", kind] for kind in KINDS),
    *(["check", "--pattern", pattern] for pattern in ("321", "231")),
    ["petrov"],
]
# Lines near each format: step letters, small and huge integers, signs,
# separators and stray characters, plus arbitrary text.
TOKENS = st.sampled_from(["U", "D", "UD", "UUDD", "0", "1", "2", "3", "7", "-1", "+2",
                          "99999999999999999999", "1e3", "x", "\t", "  "])
LINES = st.one_of(
    st.lists(TOKENS, max_size=12).map("".join),
    st.lists(st.integers(-3, 40).map(str), max_size=12).map(" ".join),
    st.text(max_size=30),
).filter(lambda line: "\n" not in line and "\r" not in line)


def run_lines(args, lines):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO("".join(line + "\n" for line in lines))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("args", LINE_COMMANDS, ids=" ".join)
@given(lines=st.lists(LINES, min_size=1, max_size=4))
@example(lines=["3\x1c2 1", "2\u20281"])  # str.split whitespace that str.splitlines breaks on
@settings(max_examples=40, deadline=None)
def test_any_line_keeps_the_exit_contract(args, lines):
    """Exit 0, or exit 1 with only `error:` / `contains <pattern>:` lines on
    stderr; an uncaught exception fails the test with its traceback."""
    code, _, err = run_lines(args, lines)
    allowed = ("error:", f"contains {args[-1]}:") if args[0] == "check" else ("error:",)
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        lines = err.split("\n")  # the CLI ends lines with \n only
        assert lines.pop() == "" and lines, err
        assert all(line.startswith(allowed) for line in lines), err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_command_lines():
    """The lines of the `sh` block under README's "## Command line", each
    with its backslash continuations joined."""
    block = README.read_text().split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1]
    return block.split("\n```", 1)[0].replace("\\\n", "").splitlines()


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_runs(line, tmp_path, monkeypatch):
    """Each `pav` command of the line exits 0, fed the stdout of the one
    before it through a pipe; files it writes land in tmp_path."""
    monkeypatch.chdir(tmp_path)
    tokens = shlex.split(line, comments=True)
    out = ""
    for is_pipe, group in itertools.groupby(tokens, lambda token: token == "|"):
        if not is_pipe:
            program, *args = group
            assert program == "pav"
            code, out, err = run_lines(args, out.splitlines())
            assert code == 0, err
