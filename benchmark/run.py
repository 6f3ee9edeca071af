"""Benchmark of pav, driven from outside through its public functions.

One client process runs a closed loop on one worker: each op is one call
chain into the library, and the next op starts only when the previous one
has finished.

    python3 benchmark/run.py --workload mc-coupling --seed 1 --seconds 45 --trace 0

prints the end-to-end metrics of one workload; ``--trace 1`` instead makes
the traced run, which reports the per-layer metrics of all four workloads
(a quarter of ``--seconds`` each) and writes its spans under
``.bench_traces/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's details and provenance.  ``--workload all`` runs every
workload untraced, then the traced run, and prints every metric with its
unit and the tracing overhead.  NOTES.md describes the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9


def _import_pav():
    """Import pav from this checkout's src/, never from anywhere else."""
    if not (SRC / "pav" / "__init__.py").is_file():
        raise SystemExit(f"error: no pav sources at {SRC / 'pav'}")
    sys.path.insert(0, str(SRC))
    import pav

    if Path(pav.__file__).resolve().parent != (SRC / "pav").resolve():
        raise SystemExit(f"error: imported pav from {pav.__file__}, not from {SRC}")


def _git_revision() -> str | None:
    """HEAD of the checkout's .git, read without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    files = sorted((SRC / "pav").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "src_pav_lines": lines,
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_seconds(workload: str, repeats: int = SETUP_REPEATS) -> tuple[list, list]:
    """CPU and wall times of fresh interpreters that import pav and make the
    first call into each layer the workload uses; one untimed start goes
    first.  CPU time is user plus system time of the interpreter and the
    processes it waited for."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "first_call.py"), workload]
    cpu, wall = [], []
    for k in range(repeats + 1):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        took = perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if k:
            wall.append(took)
            cpu.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return cpu, wall


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent.
    Steal is time the hypervisor ran something else on this VM's CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q))


def run_untraced(wl, seconds: float, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """The closed loop for ``seconds`` of wall time, then the two-worker run,
    the set-up probes and the output checks.  Times are CPU times of the
    process doing the work (see NOTES.md); the details keep the wall-clock
    figures."""
    from pav import parallel

    wl.op(-1)  # warm-up op, untimed
    cpu, wall = [], []
    ticks = _cpu_ticks()
    start = end = perf_counter()
    i = 0
    while end - start < seconds:
        c0, t0 = process_time(), perf_counter()
        wl.op(i)
        end, c1 = perf_counter(), process_time()
        cpu.append(c1 - c0)
        wall.append(end - t0)
        i += 1
    loop_wall = end - start
    if ticks is not None:
        (steal0, total0), (steal1, total1) = ticks, _cpu_ticks()
        ticks = (steal1 - steal0) / max(1, total1 - total0)

    parallel.replicate_map(abs, range(2), workers=2)  # first pool start, untimed
    t0 = perf_counter()
    w2_rate = wl.w2() / (perf_counter() - t0)
    peak = _peak_rss_mb()

    setup_cpu, setup_wall = setup_seconds(wl.name, setup_repeats)
    bad = wl.check()
    metrics = {
        "setup_s": (statistics.median(setup_cpu), "s"),
        "op_ms.p50": (1e3 * _quantile(cpu, 0.5), "ms"),
        "op_ms.p90": (1e3 * _quantile(cpu, 0.9), "ms"),
        "ops_per_s": (len(cpu) / sum(cpu), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    details = {
        "ops": len(cpu),
        "samples_beyond_p90": sum(x > metrics["op_ms.p90"][0] / 1e3 for x in cpu),
        "op_cpu_ms": [1e3 * x for x in cpu],
        "wall": {
            "op_ms.p50": 1e3 * _quantile(wall, 0.5),
            "op_ms.p90": 1e3 * _quantile(wall, 0.9),
            "ops_per_s": len(wall) / loop_wall,
            "setup_s": statistics.median(setup_wall),
            "replicates_per_s.w2": w2_rate,
        },
        "oversubscribed_w2": len(os.sched_getaffinity(0)) < 2,
        "cpu_steal_share": ticks,
        "setup_cpu_s": setup_cpu,
        "checks_failed": bad,
    }
    return metrics, details


def run_traced(seed: int, seconds: float, quick: bool, first: str) -> tuple[dict, dict, list]:
    """Traced run over all workloads, ``first`` first, a quarter of the time each."""
    from spans import Tracer
    from workloads import LAYER_METRICS, WORKLOADS

    from pav import parallel

    order = [first] + [w for w in WORKLOADS if w != first]
    metrics, details, tallies, defects = {}, {}, [], []
    traces_dir = ROOT / ".bench_traces"
    traces_dir.mkdir(exist_ok=True)
    parallel.replicate_map(abs, range(2), workers=2)  # first pool start, untimed
    for name in order:
        wl = WORKLOADS[name](seed, quick)
        tr = Tracer()
        wl.op(-1)  # warm-up op, untraced
        deadline = perf_counter() + seconds / len(order)
        i = 0
        while i < 2 or perf_counter() < deadline:
            tr.op = i
            wl.traced_op(i, tr)
            i += 1
        tr.op = None
        if hasattr(wl, "traced_extra"):
            wl.traced_extra(tr)
        t0 = perf_counter()
        w2_rate = wl.w2() / (perf_counter() - t0)
        recomposed = tr.durations("recomposed")
        extra = {
            **wl.layer_metrics(tr),
            "replicates_per_s.w2": (w2_rate, "1/s"),
            "trace.ops_per_s": (len(recomposed) / sum(recomposed), "1/s"),
        }
        for metric in LAYER_METRICS[name]:
            if metric in extra:
                metrics[f"{name}.{metric}"] = extra[metric]
            else:
                metrics[f"{name}.{metric}"] = (tr.median_ms(metric[: -len(".ms")]), "ms")
        details[name] = {"traced_ops": i, "spans": len(tr.spans)}
        tr.dump(traces_dir / f"{name}-seed{seed}.json", {"workload": name, "seed": seed})
        tallies.append(wl.tally)
        if hasattr(wl, "defect"):
            defects.append(wl.defect)
    return metrics, details, tallies, defects


def result_line(tallies, metrics: dict, wrong: list) -> str:
    return json.dumps({
        "correct": not wrong,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args) -> int:
    from workloads import WORKLOADS

    if args.trace:
        metrics, details, tallies, defects = run_traced(args.seed, args.seconds, args.quick,
                                                        args.workload)
        bad = []
    else:
        wl = WORKLOADS[args.workload](args.seed, args.quick)
        metrics, details = run_untraced(wl, args.seconds, 2 if args.quick else SETUP_REPEATS)
        tallies = [wl.tally]
        defects = [wl.defect] if hasattr(wl, "defect") else []
        bad = details["checks_failed"]
    wrong = bad + [w for t in tallies for w in t.wrong]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    details.update({
        "workload": args.workload,
        "trace": args.trace,
        "failed_ratio": failed / attempted,
        "errors": {k: v for t in tallies for k, v in t.errors.items()},
        "known_defect": {
            "attempted": sum(t.attempted for t in defects),
            "failed": sum(t.failed for t in defects),
            "errors": {k: v for t in defects for k, v in t.errors.items()},
        },
        "wrong": wrong,
        "provenance": provenance(args.seed),
    })
    print(json.dumps({"details": details}))
    print(result_line(tallies, metrics, wrong))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then the traced run, as child processes."""
    from workloads import WORKLOADS

    def child(workload: str, trace: int) -> dict:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        if args.quick:
            cmd.append("--quick")
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT).stdout
        last, before = out.strip().splitlines()[-1], out.strip().splitlines()[-2]
        return {**json.loads(last), **json.loads(before)}

    ok = True
    untraced = {}
    for name in WORKLOADS:
        res = untraced[name] = child(name, 0)
        ok &= res["correct"]
        d = res["details"]
        print(f"{name}: {d['ops']} ops, failed {res['failed']}/{res['attempted']}"
              f" (failed_ratio {d['failed_ratio']:.4f}), correct={res['correct']}")
        if d["known_defect"]["attempted"]:
            print(f"  known defect: failed {d['known_defect']['failed']}"
                  f"/{d['known_defect']['attempted']} {d['known_defect']['errors']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:24s} {m['value']:14.4f} {m['unit']}")
    traced = child(next(iter(WORKLOADS)), 1)
    ok &= traced["correct"]
    print(f"traced run: correct={traced['correct']}")
    for metric, m in traced["metrics"].items():
        print(f"  {metric:56s} {m['value']:14.4f} {m['unit']}")
    print("tracing overhead (untraced vs traced ops_per_s):")
    for name, res in untraced.items():
        plain = res["metrics"]["ops_per_s"]["value"]
        with_spans = traced["metrics"][f"{name}.trace.ops_per_s"]["value"]
        print(f"  {name:16s} {plain:10.4f} -> {with_spans:10.4f} 1/s"
              f" ({100 * (plain - with_spans) / plain:+.2f}%)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_pav()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
