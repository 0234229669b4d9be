"""One-off growth record of the dense solver on handoff chains.

    PYTHONPATH=src python3 perfbench/scaling.py > perfbench/scaling.json

Times ``madtn.stn.solve`` on chain tasks of 10, 50 and 100 petals of 10
actions (202, 1002 and 2002 timepoints), as the median of a few solves,
and prints one JSON record that sets each beside the baseline measured
when the roadmap was written. Not a gated workload: the largest size
alone takes tens of seconds per solve.
"""
from __future__ import annotations

import json
import platform
import statistics
import sys
import time

import workloads
from madtn import compile_to_stn
from madtn.files import parse_daisy
from madtn.stn import solve

#: Roadmap baseline (Python 3.11, same chain family), seconds per solve.
ROADMAP_SECONDS = {202: 0.0175, 1002: 2.45, 2002: 28.3}
REPEATS = {202: 9, 1002: 3, 2002: 1}


def main() -> int:
    rows = []
    for petals in (10, 50, 100):
        daisy = parse_daisy(workloads.chain_task(1, petals=petals, actions=10)).daisy
        network = compile_to_stn(daisy)
        n = len(network)
        times = []
        for _ in range(REPEATS[n]):
            start = time.perf_counter()
            graph = solve(network)
            times.append(time.perf_counter() - start)
        if not graph.consistent:
            raise RuntimeError(f"chain of {n} points should be consistent")
        rows.append({
            "timepoints": n,
            "constraints": len(network.constraints),
            "solve_s_median": statistics.median(times),
            "solves": len(times),
            "roadmap_s": ROADMAP_SECONDS[n],
            "matrix_bytes_computed": 8 * n * n,
        })
    json.dump({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
    }, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
