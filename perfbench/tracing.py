"""Per-layer spans and counters for traced benchmark passes.

Nothing inside ``madtn`` is instrumented. Instead, ``Tracer.install``
rebinds the names each caller module imported (``madtn.cli.solve``,
``madtn.planner.solve``, ``madtn.simulate.compile_to_stn``, ...) to
wrappers that record a span around the call, and ``uninstall`` puts the
originals back. Interval-set operators are wrapped on the class, since
callers reach them through ``&`` and ``-`` rather than by name.

A span is ``(name, start, end, parent, pass id)``, kept in memory until
``write``. A layer's self time is its spans' durations minus the time
their child spans cover, so the self times of one pass plus the time
outside every ``cli`` span add up to the pass's wall time.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

#: Span name -> the per-layer metric its self time feeds.
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "files.parse_daisy": "files.parse_daisy_s",
    "files.parse_trace": "files.parse_trace_s",
    "files.write": "files.write_s",
    "files.report": "files.report_s",
    "daisy.validate": "daisy.validate_s",
    "daisy.compile": "daisy.compile_s",
    "stn.solve": "stn.solve_s",
    "stn.earliest_schedule": "stn.earliest_schedule_s",
    "stn.check_schedule": "stn.check_schedule_s",
    "planner": "planner.self_s",
    "simulate": "simulate.self_s",
    "fluency": "fluency.self_s",
    "intervals": "intervals.s",
}

#: Counters summed over a pass.
COUNTS = (
    "files.bytes_read", "files.bytes_written", "daisy.compile_calls",
    "stn.solve_calls", "stn.matrix_bytes_computed",
    "planner.candidates", "planner.verified", "simulate.traces",
    "simulate.events", "fluency.handoffs", "intervals.ops",
)

#: Sizes: the largest seen in any traced pass.
MAXIMA = ("daisy.timepoints", "daisy.constraints", "stn.solve_points_max")


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.pass_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._bind()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, *args)`` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1][0] if self.stack else -1
            self.stack.append((index, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.pass_id)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def inside(self, name: str) -> bool:
        """Whether the innermost open span is called ``name``."""
        return bool(self.stack) and self.stack[-1][1] == name

    def _max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    # -- patch table -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))

    def _bind(self) -> None:
        # ``madtn.simulate`` the attribute is the function the package
        # re-exports; the module itself comes from the import system.
        cli, daisy, files, intervals, planner, simulate, stn = (
            importlib.import_module(f"madtn.{name}") for name in (
                "cli", "daisy", "files", "intervals", "planner", "simulate", "stn"))

        def read_file(_result, path, *rest):
            self.counts["files.bytes_read"] += os.path.getsize(path)

        def compiled(network, *args):
            self.counts["daisy.compile_calls"] += 1
            self._max("daisy.timepoints", len(network))
            self._max("daisy.constraints", len(network.constraints))

        def solved(graph, *args):
            n = len(graph.points)
            self.counts["stn.solve_calls"] += 1
            self.counts["stn.matrix_bytes_computed"] += 8 * n * n
            self._max("stn.solve_points_max", n)

        def planned(orders, *args):
            self.counts["planner.verified"] += len(orders)

        def simulated(trace, *args):
            self.counts["simulate.traces"] += 1
            self.counts["simulate.events"] += len(trace.events)
            self.counts["simulate.infeasible"] += not trace.feasible

        def reported(report, *args):
            self.counts["fluency.handoffs"] += len(report.handoffs)

        self._patch(cli, "run_cli", self.wrap("cli", cli.run_cli))

        self._patch(files, "load_daisy", self.wrap("files.parse_daisy", files.load_daisy, read_file))
        self._patch(files, "load_trace", self.wrap("files.parse_trace", files.load_trace, read_file))
        self._patch(files, "trace_document", self.wrap("files.write", files.trace_document))
        self._patch(files, "save_document", self.wrap("files.write", files.save_document))
        self._patch(files, "report_document", self.wrap("files.report", files.report_document))
        self._patch(files, "dump_document", self._dump(files.dump_document))

        validate = self.wrap("daisy.validate", daisy.validate_daisy)
        self._patch(files, "validate_daisy", validate)
        self._patch(daisy, "validate_daisy", validate)
        self._patch(cli, "validation_warnings",
                    self.wrap("daisy.validate", cli.validation_warnings))
        compile_ = self.wrap("daisy.compile", daisy.compile_to_stn, compiled)
        for caller in (cli, planner, simulate):
            self._patch(caller, "compile_to_stn", compile_)

        solve = self.wrap("stn.solve", stn.solve, solved)
        for caller in (cli, planner, stn):
            self._patch(caller, "solve", solve)
        self._patch(cli, "earliest_schedule",
                    self.wrap("stn.earliest_schedule", cli.earliest_schedule))
        self._patch(simulate, "check_schedule",
                    self.wrap("stn.check_schedule", simulate.check_schedule))

        self._patch(cli, "enumerate_orders", self.wrap("planner", cli.enumerate_orders, planned))
        self._patch(cli, "greedy_assign", self.wrap("planner", cli.greedy_assign))
        extensions = planner.linear_extensions

        def counted_extensions(precedence, limit=None):
            return self._count_candidates(extensions(precedence, limit))

        self._patch(planner, "linear_extensions", counted_extensions)

        self._patch(cli, "simulate", self.wrap("simulate", cli.simulate, simulated))
        self._patch(cli, "fluency_report", self.wrap("fluency", cli.fluency_report, reported))

        for attr in ("__and__", "__sub__", "__or__"):
            self._patch(intervals.IntervalSet, attr,
                        self._interval_op(getattr(intervals.IntervalSet, attr)))
        self._patch(intervals, "_normalize", self._interval_op(intervals._normalize))

    def _count_candidates(self, orders):
        for order in orders:
            self.counts["planner.candidates"] += 1
            yield order

    def _dump(self, dump):
        """Serialization counts bytes; its time belongs to whoever asked.

        Inside ``save_document`` that is ``files.write``; called directly by
        the CLI it renders a report, so it opens a ``files.report`` span.
        """
        report = self.wrap("files.report", dump)

        def traced(document):
            if self.inside("files.write"):
                text = dump(document)
            else:
                text = report(document)
            self.counts["files.bytes_written"] += len(text.encode())
            return text

        return traced

    def _interval_op(self, fn):
        span = self.wrap("intervals", fn)

        @functools.wraps(fn)
        def traced(*args):
            if not self.inside("intervals"):
                self.counts["intervals.ops"] += 1
            return span(*args)

        return traced

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_seconds(self) -> tuple[dict[str, float], float]:
        """Self time per metric summed over all passes, and the root total."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        roots = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            totals[SELF_TIME_METRICS[name]] += end - start - covered[index]
            if parent < 0:
                roots += end - start
        return totals, roots

    def write(self, path: Path) -> None:
        names = sorted(SELF_TIME_METRICS)
        code = {name: i for i, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({
                "fields": ["name", "start", "end", "parent", "pass"],
                "names": names,
                "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                "counts": dict(self.counts),
                "maxima": self.maxima,
            }, handle)
