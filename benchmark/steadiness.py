"""Steadiness study: run workloads once per seed and report, for every
end-to-end metric, the median and the spread (third minus first quartile,
as statistics.quantiles(values, n=4) gives them, over the median) next to
the metric's bound in BENCHMARK.json.

    python3 benchmark/steadiness.py --seeds 1-10 --seconds 45 [--workloads mc-coupling,...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range such as 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", help="also append every run's last two stdout lines here")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(lo, hi + 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                check=True, capture_output=True, text=True, cwd=ROOT,
            ).stdout.strip().splitlines()
            result = json.loads(out[-1])
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(out[-2] + "\n" + out[-1] + "\n")
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"  {workload:15s} failed {sum(r['failed'] for r in runs)}"
              f" of {sum(r['attempted'] for r in runs)} attempted", flush=True)
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = spread(values)
            flag = "" if metric == "setup_s" or s < bound / 3 else "  <-- above bound/3"
            print(f"  {workload:15s} {metric:20s} median {statistics.median(values):12.4f}"
                  f"  spread {s:7.4f}  bound {bound}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
