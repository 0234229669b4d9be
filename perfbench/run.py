"""Benchmark of the ``madtn`` command line, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload packaging --seed 1 --seconds 25 --trace 0

One process drives the CLI in-process through ``madtn.cli.run_cli`` as a
closed loop with one client: the next invocation starts when the previous
one returns. A *pass* is the workload's command sequence (see
``workloads.py``). A run lasts ``--seconds`` of wall time: a warm-up pass,
the cold starts timed for ``setup_s``, a second warm-up pass, then
measured passes. Every output is checked outside the timed region
by ``reference.py``, which does not use the package; a non-zero exit or a
rejected output counts as a failed invocation.

Between invocations, outside the timed region, the reference kernels of
``calibrate.py`` measure how fast the shared machine runs at that moment.
Each invocation's time divided by the kernel time measured on both sides
of it is its time in reference units (``ref``); a pass's ``ref`` is the
sum over its invocations. The gated pass figures are in ``ref``, so that
other tenants' load, which slows the kernels as much as the CLI, cancels
out. The row prints the same figures in seconds too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: traced and untraced passes then alternate, so the run also measures
the tracing overhead, and the spans are written to
``.perfbench_out/spans-<workload>-<seed>.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it repeat those figures for a
reader and add the ungated ones: per-command medians, the median pass,
throughput and the failure ratio. Without the package sources under
``src/`` the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
#: Fresh interpreters timed for ``setup_s``, after one discarded warm-up.
COLD_STARTS = 21

COLD_START = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import madtn\n"
    "from madtn.files import load_daisy\n"
    "load_daisy(sys.argv[2])\n"
    "print(time.monotonic())\n"
)

#: The gated metrics. Pass times in seconds and the throughput are printed
#: but not gated: on a shared host they follow the other tenants' load.
END_TO_END_UNITS = {"setup_s": "s", "pass_ref_p50": "ref", "pass_ref_tail": "ref",
                    "peak_rss_mb": "MB"}


def nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it.

    Nearest-rank percentiles, never below the median: from 11 to 19
    samples that percentile would be under p50, so p50 is reported. With
    ten samples or fewer no percentile has ten above it, and the maximum
    is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = max(50, math.floor(100 * (n - 10) / n))
    return nearest_rank(ordered, pct), pct


class Bench:
    """Inputs, invocation and checking for one workload and seed."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path, cli):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = cli
        self.task = work / "task.json"
        self.task.write_text(json.dumps(workload.task, indent=2))
        self.profiles = None
        if workload.profiles is not None:
            self.profiles = work / "profiles.json"
            self.profiles.write_text(json.dumps(workload.profiles, indent=2))
        self.traces = work / "traces"
        self.traces.mkdir()
        self.model = reference.Model(workload.task)
        self.verified: dict[str, tuple[str, str]] = {}
        self.kernels = calibrate.Kernels()
        self.kernel_samples: list[tuple[float, float]] = []
        self.samples: dict[str, list[float]] = {c: [] for c in workload.commands}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def cold_start(self) -> float:
        """Wall time from starting a fresh interpreter to the task parsed."""
        argv = [sys.executable, "-c", COLD_START, str(ROOT / "src"), str(self.task)]
        began = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=120, cwd=self.work)
        return float(done.stdout) - began

    def invocations(self, index: int) -> list[list[str]]:
        """The argv of each invocation of pass ``index``."""
        task = str(self.task)
        first = self.seed * 100_000 + index * self.workload.runs
        argvs = []
        for command in self.workload.commands:
            if command == "simulate":
                argvs.append(["simulate", task, "--seed", str(first),
                              "--runs", str(self.workload.runs),
                              "--profiles", str(self.profiles), "--out", str(self.traces)])
            elif command == "analyze":
                argvs += [["analyze", task, str(self.traces / f"trace-{s}.json")]
                          for s in range(first, first + self.workload.runs)]
            elif command == "plan":
                argvs.append(["plan", task, "--limit", str(self.workload.limit)])
            else:
                argvs.append([command, task])
        return argvs

    def speed(self) -> float:
        """Reference kernel time now, weighted by the workload's mix."""
        interpreter, dense = self.kernels.measure()
        self.kernel_samples.append((interpreter, dense))
        share = self.workload.interpreter_share
        return share * interpreter + (1.0 - share) * dense

    def run_pass(self, index: int) -> tuple[float, float, list[tuple]]:
        """Run one pass; return its time in seconds and in reference units,
        and each invocation's record."""
        records = []
        wall = ref = 0.0
        before = self.speed()
        for argv in self.invocations(index):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli.run_cli(argv)
                except Exception as exc:  # counted as a failure, not fatal
                    code = f"raised {exc!r}"
                seconds = time.perf_counter() - start
            after = self.speed()
            wall += seconds
            ref += 2 * seconds / (before + after)
            before = after
            records.append((argv, seconds, code, out.getvalue(), err.getvalue()))
        return wall, ref, records

    def check_pass(self, records: list[tuple], measured: bool) -> None:
        for argv, seconds, code, out, err in records:
            problems = [f"exit status {code}: {err.strip()}"] if code != 0 else self.check(argv, out, err)
            if measured:
                self.attempted += 1
                self.samples[argv[0]].append(seconds)
                self.failed += bool(problems)
            self.problems += [f"{argv[0]}: {p}" for p in problems]
        for path in self.traces.iterdir():
            path.unlink()

    def check(self, argv: list[str], out: str, err: str) -> list[str]:
        try:
            return self.compare(argv, out, err)
        except Exception as exc:  # unreadable output is a failed invocation
            return [f"output could not be checked: {exc!r}"]

    def compare(self, argv: list[str], out: str, err: str) -> list[str]:
        command = argv[0]
        if command in ("simulate", "analyze"):
            return self.check_run(argv, out)
        if self.verified.get(command) == (out, err):
            return []  # identical to an output that already passed the reference
        if command == "validate":
            problems = reference.check_validate(self.model, out, err)
        elif err:
            problems = [f"unexpected diagnostics {err!r}"]
        elif command == "compile":
            problems = reference.check_compile(self.model, out)
        elif command == "schedule":
            problems = reference.check_schedule(self.model, out)
        else:
            problems = reference.check_plan(self.model, out, self.workload.limit)
        if not problems:
            self.verified[command] = (out, err)
        return problems

    def check_run(self, argv: list[str], out: str) -> list[str]:
        if argv[0] == "simulate":
            first, runs = int(argv[3]), int(argv[5])
            problems = reference.check_simulate(out, self.traces, first, runs)
            for seed in range(first, first + runs):
                trace = json.loads((self.traces / f"trace-{seed}.json").read_text())
                problems += reference.check_trace(self.model, trace, self.task.name, seed)
            return problems
        trace = json.loads(Path(argv[2]).read_text())
        return reference.check_report(self.model, trace, json.loads(out))


def measure(bench: Bench, seconds: float, traced=None, cold_starts=0):
    """``cold_starts`` set-up times, then a closed loop of passes, together
    lasting ``seconds`` of wall time.

    The cold starts come first, in one block, so that no pass runs just
    after another interpreter has filled the caches; a second warm-up pass
    follows them. With a tracer, even passes run traced and odd ones
    untraced. Returns each kind's passes as ``(seconds, ref)`` pairs, and
    the set-up times.
    """
    began = time.monotonic()
    bench.check_pass(bench.run_pass(0)[2], measured=False)
    setup: list[float] = []
    if cold_starts:
        bench.cold_start()  # the first may compile bytecode; not a user's cost
        setup = [bench.cold_start() for _ in range(cold_starts)]
        bench.check_pass(bench.run_pass(0)[2], measured=False)
    bench.kernel_samples.clear()
    passes: dict[str, list[tuple[float, float]]] = {"untraced": [], "traced": []}
    index = 1
    while time.monotonic() - began < seconds or not passes["untraced"] or (
            traced is not None and not passes["traced"]):
        kind = "traced" if traced is not None and index % 2 == 0 else "untraced"
        if kind == "traced":
            traced.install(index)
        try:
            wall, ref, records = bench.run_pass(index)
        finally:
            if kind == "traced":
                traced.uninstall()
        passes[kind].append((wall, ref))
        bench.check_pass(records, measured=True)
        index += 1
    return passes, setup


def end_to_end(bench: Bench, setup: list[float],
               passes: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """The gated metrics, and a row that adds the ungated ones."""
    walls = [wall for wall, _ in passes]
    refs = [ref for _, ref in passes]
    ref_tail, pct = tail(refs)
    wall_tail, _ = tail(walls)
    invoked = sum(len(s) for s in bench.samples.values())
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_ref_p50": statistics.median(refs),
        "pass_ref_tail": ref_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ops_per_s = invoked / sum(sum(s) for s in bench.samples.values())
    count = f"of {len(passes)} passes"
    row = [f"setup_s={metrics['setup_s']:.6g} s (median of {len(setup)} cold starts)"]
    row += [f"{command}_s={statistics.median(s):.6g} s (median of {len(s)})"
            for command, s in bench.samples.items()]
    row += [f"pass_ref_p50={metrics['pass_ref_p50']:.6g} ref ({count})",
            f"pass_ref_tail={ref_tail:.6g} ref (p{pct} {count})",
            f"pass_s_p50={statistics.median(walls):.6g} s ({count})",
            f"pass_s_tail={wall_tail:.6g} s (p{pct} {count})",
            f"kernel_interpreter_s={statistics.median(k for k, _ in bench.kernel_samples):.6g} s, "
            f"kernel_dense_s={statistics.median(k for _, k in bench.kernel_samples):.6g} s "
            f"(medians of {len(bench.kernel_samples)}; interpreter share "
            f"{bench.workload.interpreter_share})",
            f"ops_per_s={ops_per_s:.6g} 1/s",
            f"fail_ratio={bench.failed / bench.attempted:.6g} "
            f"({bench.failed} of {bench.attempted} invocations)",
            f"peak_rss_mb={metrics['peak_rss_mb']:.6g} MB"]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, row


def per_layer(bench: Bench, tracer, passes: dict[str, list[float]]) -> tuple[dict, list[str]]:
    """Per-pass layer figures from the traced passes, and a row of shares."""
    traced = [wall for wall, _ in passes["traced"]]
    count = len(traced)
    seconds, roots = tracer.layer_seconds()
    metrics: dict[str, tuple[float, str]] = {
        name: (total / count, "s") for name, total in seconds.items()}
    for name in tracing.COUNTS:
        metrics[name] = (tracer.counts[name] / count, "B" if "bytes" in name else "count")
    for name in tracing.MAXIMA:
        metrics[name] = (tracer.maxima.get(name, 0), "count")
    candidates = tracer.counts["planner.candidates"]
    traces = tracer.counts["simulate.traces"]
    metrics["planner.verified_ratio"] = (
        tracer.counts["planner.verified"] / candidates if candidates else 0.0, "ratio")
    metrics["simulate.infeasible_ratio"] = (
        tracer.counts["simulate.infeasible"] / traces if traces else 0.0, "ratio")
    pass_mean = sum(traced) / count
    metrics["trace.pass_s"] = (pass_mean, "s")
    metrics["trace.unattributed_s"] = ((sum(traced) - roots) / count, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(ref for _, ref in passes["traced"])
        / statistics.median(ref for _, ref in passes["untraced"]), "ratio")
    attributed = sum(metrics[m][0] for m in tracing.SELF_TIME_METRICS.values())
    if abs(attributed + metrics["trace.unattributed_s"][0] - pass_mean) > 1e-6 * pass_mean:
        raise RuntimeError("layer self times do not add up to the traced pass time")
    row = [f"traced passes={count}, untraced passes={len(passes['untraced'])}, "
           f"trace.pass_s={pass_mean:.6g} s"]
    shares = sorted(((v / pass_mean, m) for m, (v, u) in metrics.items()
                     if u == "s" and m != "trace.pass_s"), reverse=True)
    row += [f"{m}={metrics[m][0]:.6g} s ({share:.1%} of the pass)" for share, m in shares if share > 0]
    row += [f"{m}={v:.6g} {u}" for m, (v, u) in metrics.items() if u != "s"]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "madtn" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {src / 'madtn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import madtn.cli

    if Path(madtn.cli.__file__).resolve().parents[1] != src:
        print(f"perfbench: imported madtn from {madtn.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)  # keep the package's scratch files in the checkout
    try:
        bench = Bench(workloads.build(args.workload, args.seed, ROOT), args.seed, work, madtn.cli)
        if args.trace:
            tracer = tracing.Tracer()
            passes, _ = measure(bench, args.seconds, traced=tracer)
            metrics, row = per_layer(bench, tracer, passes)
            tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json")
        else:
            passes, setup = measure(bench, args.seconds, cold_starts=COLD_STARTS)
            metrics, row = end_to_end(bench, setup, passes["untraced"])
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    print(f"{args.workload} (seed {args.seed}):")
    for item in row:
        print(f"  {item}")
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
