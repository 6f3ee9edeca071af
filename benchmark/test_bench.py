"""Tests of the benchmark itself, in its quick mode with tiny sizes.

    python3 -m pytest -q benchmark/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_workloads_match_benchmark_json():
    # BENCHMARK.json gates some of the workloads; the traced run covers all of them.
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)
    per_layer = [f"{w}.{m}" for w in NAMES for m in workloads.LAYER_METRICS[w]]
    assert per_layer == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                          "--trace", "0", "--quick"))
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_with_its_unit():
    result = _result(_run("--workload", "cli-roundtrip", "--seed", "3", "--seconds", "0.4",
                          "--trace", "1", "--quick"))
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_all_prints_every_metric_and_the_overhead():
    proc = _run("--workload", "all", "--seed", "2", "--seconds", "0.2", "--quick")
    assert proc.returncode == 0, proc.stderr
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f" {m['name']} " in proc.stdout and f" {m['unit']}\n" in proc.stdout
    assert "tracing overhead" in proc.stdout


def test_cli_overflow_line_counts_as_known_defect():
    wl = workloads.CliRoundtrip(5, quick=True)
    for i in range(2):  # one op of each malformed kind
        wl.op(i)
    assert (wl.tally.attempted, wl.tally.failed) == (12, 0)
    wl.probe_known_defect()
    assert (wl.defect.attempted, wl.defect.failed) == (1, 1)
    assert list(wl.defect.errors) == ["reject int64-overflow: OverflowError"]


def test_injected_exception_counts_in_failed_ratio(monkeypatch):
    wl = workloads.McCoupling(1, quick=True)

    def boom(config, workers=1):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.ex, "run_experiment", boom)
    wl.op(0)
    line = json.loads(run.result_line([wl.tally], {}, wl.tally.wrong))
    assert (line["attempted"], line["failed"], line["correct"]) == (2, 2, True)


def test_wrong_output_counts_as_failed_and_incorrect(monkeypatch):
    wl = workloads.ExactFormulas(1, quick=True)
    monkeypatch.setattr(workloads.trees, "expected_hat_xi", lambda n, k: -1)
    wl.op(0)
    line = json.loads(run.result_line([wl.tally], {}, wl.tally.wrong))
    assert (line["attempted"], line["failed"], line["correct"]) == (2, 1, False)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_recomposition_equals_untraced(workload):
    wl = workloads.WORKLOADS[workload](7, quick=True)
    tr = Tracer()
    for i in range(3):
        tr.op = i
        wl.traced_op(i, tr)
    if hasattr(wl, "traced_extra"):
        wl.traced_extra(tr)
    assert wl.tally.wrong == []
    metrics = wl.layer_metrics(tr)
    for metric in workloads.LAYER_METRICS[workload][:-2]:  # run.py adds the last two
        if metric not in metrics:
            assert tr.durations(metric[: -len(".ms")]), metric


def _shifted_substream(original):
    return lambda seed, *key: original(seed + 1, *key)


@pytest.mark.parametrize("workload, owner, name, perturb", [
    ("mc-coupling", workloads, "sup_distance", lambda f: lambda *a: f(*a) + 1e-12),
    ("mc-moments", workloads.perms, "inversions", lambda f: lambda *a: f(*a) + 1),
    ("cli-roundtrip", workloads.rng, "substream", _shifted_substream),
])
def test_a_perturbed_recomposition_is_caught(monkeypatch, workload, owner, name, perturb):
    # Each target is reached by the recomposition only, not by the library.
    monkeypatch.setattr(owner, name, perturb(getattr(owner, name)))
    wl = workloads.WORKLOADS[workload](7, quick=True)
    wl.traced_op(0, Tracer())
    assert wl.tally.failed == 0 and wl.tally.wrong


@pytest.mark.parametrize("workload", NAMES)
def test_output_checks_pass(workload):
    wl = workloads.WORKLOADS[workload](4, quick=True)
    for i in range(3):
        wl.op(i)
    wl.w2()
    assert wl.check() == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", NAMES[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
