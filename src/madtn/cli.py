"""Command line interface over task documents.

Six subcommands cover the pipeline: ``validate`` a task document,
``compile`` it to check temporal consistency, ``schedule`` its earliest
execution, ``plan`` orderings and assignments, ``simulate`` executions into
trace documents, and ``analyze`` a trace into a fluency report.

Exit status is 0 on success, 1 on any domain failure (malformed document,
inconsistent network, deadlock, and so on), and 2 for usage errors. stdout
carries only the requested output; diagnostics, including the verdict of a
failed consistency check, go to stderr, so a failing invocation never
leaves a partial result on the output stream.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Sequence

from . import files
from .daisy import Daisy, _ordered_petals, compile_to_stn, validation_warnings
from .errors import MadtnError, MalformedOrderingError
from .fluency import FluencyReport, fluency_report
from .planner import enumerate_orders, greedy_assign
from .simulate import simulate
from .stn import STN, UNASSIGNED, earliest_schedule, solve

#: Environment variable that overrides where `simulate` writes trace files.
OUT_DIR_VAR = "MADTN_OUT_DIR"


def entry_point() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def run_cli(argv: Sequence[str]) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; keep its code.
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (MadtnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    Parsing leaves no state in it: each call gets a fresh namespace, the
    environment is read when a command runs, and help is laid out for the
    terminal when it is printed.
    """
    parser = argparse.ArgumentParser(
        prog="madtn",
        description="Model, schedule, simulate, and analyze collaborative tasks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="check a task document for structural violations"
    )
    validate.add_argument("task", help="path to a task document")
    validate.set_defaults(handler=_cmd_validate)

    compile_ = commands.add_parser(
        "compile", help="compile a task and report temporal consistency"
    )
    _add_compile_options(compile_)
    compile_.set_defaults(handler=_cmd_compile)

    schedule = commands.add_parser(
        "schedule", help="print the earliest consistent schedule"
    )
    _add_compile_options(schedule)
    schedule.set_defaults(handler=_cmd_schedule)

    plan = commands.add_parser(
        "plan", help="list feasible petal orderings and the agent assignment"
    )
    plan.add_argument("task", help="path to a task document")
    plan.add_argument(
        "--limit",
        type=int,
        default=1000,
        help="stop after this many verified orderings (default %(default)s)",
    )
    plan.set_defaults(handler=_cmd_plan)

    sim = commands.add_parser(
        "simulate", help="execute the task and write trace documents"
    )
    _add_compile_options(sim)
    sim.add_argument("--seed", type=int, required=True, help="seed of the first run")
    sim.add_argument(
        "--runs",
        type=int,
        default=1,
        metavar="N",
        help="number of runs, seeded consecutively from --seed (default 1)",
    )
    sim.add_argument(
        "--out",
        metavar="DIR",
        help=f"directory for trace files (default: ${OUT_DIR_VAR} or '.')",
    )
    sim.add_argument(
        "--profiles",
        metavar="FILE",
        help="per-agent behavior profiles (JSON); absent agents run punctually",
    )
    sim.set_defaults(handler=_cmd_simulate)

    analyze = commands.add_parser(
        "analyze", help="compute fluency metrics for a recorded trace"
    )
    analyze.add_argument("task", help="path to a task document")
    analyze.add_argument("trace", help="path to a trace document")
    analyze.add_argument(
        "--output",
        choices=["json", "text"],
        default="json",
        help="report format (default %(default)s)",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    return parser


def _add_compile_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("task", help="path to a task document")
    sub.add_argument(
        "--ordering",
        metavar="P1,P2,...",
        help="petal execution order, overriding the document's own",
    )
    sub.add_argument(
        "--transition",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="minimum repositioning time when an agent switches petals (default 0)",
    )


def _chosen_ordering(args, doc: files.DaisySpecDocument) -> tuple[str, ...] | None:
    if args.ordering is not None:
        return tuple(name.strip() for name in args.ordering.split(",") if name.strip())
    return doc.ordering


def _compile_task(args) -> tuple[Daisy, STN]:
    """The task ``args`` names and its network under the chosen options."""
    doc = files.load_daisy(args.task)
    stn = compile_to_stn(
        doc.daisy, ordering=_chosen_ordering(args, doc), transition_lower=args.transition
    )
    return doc.daisy, stn


def _cmd_validate(args) -> int:
    # Parsing already folds in model validation; reaching here means sound.
    doc = files.load_daisy(args.task)
    for warning in validation_warnings(doc.daisy):
        print(f"warning: {warning}", file=sys.stderr)
    # An ordering that is no permutation of the petals still parses, and plan
    # ignores it, but compile, schedule and simulate refuse it.
    try:
        _ordered_petals(doc.daisy, doc.ordering)
    except MalformedOrderingError as exc:
        print(f"warning: {exc}", file=sys.stderr)
    print("ok")
    return 0


def _cmd_compile(args) -> int:
    daisy, stn = _compile_task(args)
    graph = solve(stn)
    lines = [f"timepoints: {len(stn)}", f"constraints: {len(stn._rows)}"]
    if not graph.consistent:
        lines.append("consistent: no")
        for line in lines:
            print(line, file=sys.stderr)
        return 1
    lower, upper = graph.bounds(daisy.start, daisy.end)
    lines.append("consistent: yes")
    lines.append(f"task duration: [{lower:g}, {upper:g}]")
    for line in lines:
        print(line)
    return 0


def _cmd_schedule(args) -> int:
    daisy, stn = _compile_task(args)
    times = earliest_schedule(stn)
    sys.stdout.write("".join(
        f"{times[point]:12.6f}  {daisy.vertex_path(point)}\n" for point in stn.timepoints))
    return 0


def _cmd_plan(args) -> int:
    if args.limit < 0:
        print("error: --limit must be at least 0", file=sys.stderr)
        return 2
    doc = files.load_daisy(args.task)
    daisy = doc.daisy
    assigned = None
    if doc.capabilities is not None:
        assigned = greedy_assign(daisy, doc.capabilities)
        daisy = assigned
    else:
        unowned = [p.name for p in daisy.petals if p.owner == UNASSIGNED]
        if unowned:
            print(
                f"error: no capabilities table to assign unowned petals: "
                f"{', '.join(unowned)}",
                file=sys.stderr,
            )
            return 1
    lines = [", ".join(order) for order in enumerate_orders(daisy, limit=args.limit)]
    if assigned is not None:
        lines.append("assignment:")
        lines += [f"  {petal.name}: {petal.owner}" for petal in assigned.petals]
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    return 0


def _cmd_simulate(args) -> int:
    if args.runs < 1:
        print("error: --runs must be at least 1", file=sys.stderr)
        return 2
    doc = files.load_daisy(args.task)
    profiles = {}
    if args.profiles is not None:
        profiles = files.load_profiles(args.profiles)
    out_dir = Path(args.out if args.out is not None else os.environ.get(OUT_DIR_VAR, "."))
    reference = Path(args.task).name
    ordering = _chosen_ordering(args, doc)
    wrote = []  # printed once every run has succeeded, so a failure prints nothing
    for i in range(args.runs):
        seed = args.seed + i
        trace = simulate(
            doc.daisy,
            profiles=profiles,
            seed=seed,
            ordering=ordering,
            transition_lower=args.transition,
        )
        path = out_dir / f"trace-{seed}.json"
        files.save_document(files.TraceDocument(trace=trace, daisy=reference), path)
        wrote.append(f"wrote {path}\n")
    sys.stdout.write("".join(wrote))
    return 0


def _cmd_analyze(args) -> int:
    daisy = files.load_daisy(args.task).daisy
    trace = files.load_trace(args.trace).trace
    report = fluency_report(daisy, trace)
    # The JSON form refuses a non-finite figure, so text output does too.
    document = files.dump_document(report)
    if args.output == "json":
        sys.stdout.write(document)
    else:
        for line in _report_lines(report):
            print(line)
    return 0


def _report_lines(report: FluencyReport) -> list[str]:
    """Human-oriented rendering of a fluency report."""
    lines = [
        f"agents: {report.agents[0]}, {report.agents[1]}",
        f"window: [{report.window_start:g}, {report.window_end:g}], "
        f"makespan {report.makespan:g}s",
    ]
    for b in report.idle:
        lines.append(
            f"idle {b.agent}: {b.total:g}s"
            f" (waiting {b.waiting_time:g}s, resting {b.resting_time:g}s)"
        )
    ca = report.concurrent_activity_time
    ci = report.concurrent_inactivity_time
    lines.append(
        f"concurrent activity: {ca:g}s"
        f" ({report.fraction_of_makespan(ca):.1%} of makespan)"
    )
    lines.append(
        f"concurrent inactivity: {ci:g}s"
        f" ({report.fraction_of_makespan(ci):.1%} of makespan)"
    )
    for agent, spans in report.sole_activity.items():
        lines.append(f"sole activity {agent}: {spans.measure:g}s")
    lines.append("petal delays:")
    for d in report.petal_delays:
        lines.append(f"  {d.source_petal} -> {d.target_petal} ({d.agent}): {d.delay:g}s")
    lines.append(
        "delay by agent: "
        + ", ".join(f"{a} {report.delay_by_agent[a]:g}s" for a in report.agents)
    )
    lines.append("handoffs:")
    for h in report.handoffs:
        lines.append(
            f"  {h.source_petal}.{h.source_action}"
            f" -> {h.target_petal}.{h.target_action}: {h.state.value},"
            f" readiness {h.readiness_delay:g}s,"
            f" functional {h.functional_delay:g}s"
        )
    return lines
