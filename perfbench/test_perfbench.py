"""Tests of the benchmark's generators, reference checker and tracer.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import reference
import run
import tracing
import workloads
from madtn import compile_to_stn, earliest_schedule, enumerate_orders, fluency_report
from madtn.files import parse_daisy, parse_profiles, report_document
from madtn import simulate
from madtn.stn import solve

ROOT = Path(__file__).resolve().parent.parent


def parsed(task: dict):
    return parse_daisy(json.loads(json.dumps(task))).daisy


@pytest.mark.parametrize(
    "name, timepoints, constraints, handoffs",
    [
        ("packaging", 36, 51, 5),
        ("chain-400", 402, 547, 49),
        ("plan-orders", 98, 125, 6),
        ("montecarlo", 962, 1108, 30),
    ],
)
def test_workload_documents_parse_with_stated_sizes(name, timepoints, constraints, handoffs):
    workload = workloads.build(name, 3, ROOT)
    daisy = parsed(workload.task)
    network = compile_to_stn(daisy)
    assert len(network) == timepoints
    assert len(network.constraints) == constraints
    assert sum(c.kind.value == "handoff" for c in daisy.constraints) == handoffs
    if workload.profiles is not None:
        assert set(parse_profiles(workload.profiles)) == {"human", "robot"}


def test_chain_and_lanes_have_the_stated_shapes():
    chain = parsed(workloads.chain_task(3, petals=50, actions=4))
    assert [len(p.actions) for p in chain.petals] == [4] * 50
    assert [p.owner for p in chain.petals[:4]] == ["human", "robot", "human", "robot"]
    lanes = parsed(workloads.lanes_task(3, per_lane=30, actions=8))
    assert sum(p.owner == "human" for p in lanes.petals) == 30
    assert {len(p.actions) for p in lanes.petals} == {8}


def test_same_seed_same_documents():
    for name in workloads.NAMES:
        a, b = workloads.build(name, 5, ROOT), workloads.build(name, 5, ROOT)
        assert json.dumps(a.task) == json.dumps(b.task)
        assert json.dumps(a.profiles) == json.dumps(b.profiles)
    assert workloads.chain_task(1, 5, 3) != workloads.chain_task(2, 5, 3)


def test_makespan_bound_is_a_multiple_of_the_earliest_makespan():
    task = workloads.lanes_task(4, per_lane=6, actions=4, makespan_factor=1.1,
                                ranges=workloads.NARROW)
    bare = dict(task)
    del bare["makespan"]
    daisy = parsed(bare)
    earliest = earliest_schedule(compile_to_stn(daisy))[daisy.end]
    assert workloads.earliest_makespan(bare) == pytest.approx(earliest, abs=1e-9)
    assert task["makespan"] == [0.0, 1.1 * workloads.earliest_makespan(bare)]


def small_tasks():
    yield workloads.chain_task(7, petals=6, actions=3)
    yield workloads.lanes_task(7, per_lane=4, actions=3, makespan_factor=1.1,
                               ranges=workloads.NARROW)
    yield workloads.packaging_task(ROOT)


@pytest.mark.parametrize("task", list(small_tasks()))
def test_reference_agrees_with_the_package(task):
    model = reference.Model(task)
    daisy = parsed(task)
    network = compile_to_stn(daisy)
    assert len(model.constraints()) == len(network.constraints)
    times = reference.earliest(model)
    schedule = earliest_schedule(network)
    for vertex, point in zip(model.vertices, network.timepoints):
        assert times[model.index[vertex]] == pytest.approx(schedule[point], abs=1e-9)
    upper = solve(network).bounds(daisy.start, daisy.end)[1]
    assert reference.shortest(model.edges(), [0])[model.index["Ve"]] == pytest.approx(upper)
    expected = [", ".join(order) for order in enumerate_orders(daisy)]
    predicted = reference.expected_plan(model, 1000)
    assert predicted[:len(expected)] == expected


def test_reference_rejects_an_inconsistent_order():
    task = workloads.lanes_task(7, per_lane=4, actions=3, makespan_factor=1.0,
                                ranges=workloads.NARROW)
    model = reference.Model(task)
    daisy = parsed(task)
    verdicts = [(reference.consistent(model, order),
                 solve(compile_to_stn(daisy, ordering=order)).consistent)
                for order in list(reference.linear_extensions(model))[:200]]
    assert all(mine == theirs for mine, theirs in verdicts)
    assert any(not mine for mine, _ in verdicts)


def trace_and_report(task: dict, profiles: dict, seed: int):
    from madtn.files import trace_document, TraceDocument

    daisy = parsed(task)
    trace = simulate(daisy, profiles=parse_profiles(profiles), seed=seed)
    document = json.loads(json.dumps(trace_document(TraceDocument(trace, daisy="task.json"))))
    return document, report_document(fluency_report(daisy, trace))


def test_trace_and_report_checks_pass_and_catch_tampering():
    task = workloads.packaging_task(ROOT)
    model = reference.Model(task)
    flags = []
    for seed in range(12):
        trace, report = trace_and_report(task, workloads.packaging_profiles(1), seed)
        assert reference.check_trace(model, trace, "task.json", seed) == []
        assert reference.check_report(model, trace, report) == []
        flags.append(trace["feasible"])
    assert True in flags and False in flags

    trace["feasible"] = not trace["feasible"]
    assert reference.check_trace(model, trace, "task.json", seed)
    trace["feasible"] = not trace["feasible"]
    report["concurrent_activity"]["seconds"] += 1e-3
    assert reference.check_report(model, trace, report)
    trace["events"].pop()
    assert reference.check_trace(model, trace, "task.json", seed)


def test_command_checks_catch_wrong_output():
    model = reference.Model(workloads.chain_task(7, petals=6, actions=3))
    assert reference.check_compile(model, "timepoints: 38\n") != []
    assert reference.check_schedule(model, "0.000000  Vs\n") != []
    assert reference.check_plan(model, "P001, P000, P002, P003, P004, P005\n", 1000) != []
    assert reference.check_validate(model, "ok\n", "warning: x\n") != []


def test_tail_percentile_keeps_ten_samples_above():
    samples = [float(i) for i in range(1, 501)]
    assert run.tail(samples) == (490.0, 98)
    assert run.tail(samples[:11]) == (6.0, 50)
    assert run.tail(samples[:40]) == (30.0, 75)
    assert run.tail(samples[:4]) == (4.0, 100)


def test_pass_in_reference_units_divides_each_invocation_by_the_kernels(tmp_path):
    import madtn.cli as cli

    bench = run.Bench(workloads.build("plan-orders", 2, ROOT), 2, tmp_path, cli)
    bench.kernels.measure = lambda: (0.001, 0.003)  # share 0.5: 2 ms a ref
    wall, ref, records = bench.run_pass(1)
    assert [argv[0] for argv, *_ in records] == ["plan"]
    assert ref == pytest.approx(wall / 0.002, rel=1e-9)
    assert len(bench.kernel_samples) == 2  # before and after the one invocation


def test_tracer_self_times_cover_the_invocations(tmp_path):
    import madtn.cli as cli

    task = tmp_path / "task.json"
    task.write_text(json.dumps(workloads.chain_task(7, petals=6, actions=3)))
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("validate", "compile", "schedule", "plan"):
                assert cli.run_cli([command, str(task)]) == 0
    finally:
        tracer.uninstall()
    assert cli.solve is solve
    seconds, roots = tracer.layer_seconds()
    assert sum(seconds.values()) == pytest.approx(roots, rel=1e-9)
    assert tracer.counts["stn.solve_calls"] == 3
    assert tracer.counts["daisy.compile_calls"] == 3
    assert tracer.counts["planner.candidates"] == 1
    assert tracer.maxima["daisy.timepoints"] == 38


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, section, capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    code = run.main(["--workload", "packaging", "--seed", "1", "--seconds", "0.05",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
