"""Run-to-run spread of the end-to-end metrics, one workload after another.

    python3 perfbench/spread.py --runs 10 --seconds 25 [--workload NAME ...]

Runs ``run.py`` once per seed (``--runs`` seeds from ``--first-seed``) for
each workload, one run at a time, and prints each metric's median and its
interquartile range as a share of the median, next to the metric's bound
from ``BENCHMARK.json``. ``setup_s`` is included: its spread is reported
like the others', although only its median is compared between sets.
Every run's result line is appended to ``.perfbench_out/spread.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    worst = (0.0, "")
    for name in args.workload or workloads.NAMES:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench/run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True, cwd=ROOT, timeout=600)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(done.stdout, file=sys.stderr)
                return 1
            with open(log, "a") as handle:
                handle.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        for metric, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            worst = max(worst, (share / bounds[metric], f"{name} {metric}"))
            print(f"{name:12} {metric:12} median={median:<12.6g} iqr/median={share:.4f} "
                  f"bound={bounds[metric]} min={min(series):.6g} max={max(series):.6g}")
    print(f"largest spread as a share of its bound: {worst[0]:.3f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
