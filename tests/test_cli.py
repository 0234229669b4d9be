"""End-to-end checks of the command line interface."""
from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import madtn
from madtn import (
    BehaviorProfile,
    compile_to_stn,
    packaged_example_path,
    parse_trace,
    run_cli,
    simulate,
    solve,
)

from fuzzing import field_paths, json_values, replaced, valid_documents

TASK = str(packaged_example_path())


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_accepts_the_packaged_task(capsys):
    code, out, err = run(capsys, "validate", TASK)
    assert code == 0
    assert out == "ok\n"
    assert err == ""


def test_validate_rejects_an_unsound_model(tmp_path, capsys):
    doc = json.loads(packaged_example_path().read_text())
    doc["constraints"][0]["lower"] = 0.5  # handoffs must have a zero lower
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    assert "model: " in err
    assert "lower bound must be exactly 0" in err


def test_validate_warns_about_mid_petal_handoffs(tmp_path, capsys):
    doc = {
        "agents": [{"id": "x"}, {"id": "y"}],
        "petals": [
            {
                "name": "supply",
                "owner": "x",
                "actions": [
                    {"name": "fetch", "lower": 1.0, "upper": 2.0},
                    {"name": "stow", "lower": 1.0, "upper": 2.0},
                ],
            },
            {
                "name": "consume",
                "owner": "y",
                "actions": [{"name": "use", "lower": 1.0, "upper": 3.0}],
            },
        ],
        "constraints": [
            {
                "kind": "handoff",
                "source": "supply.fetch.end",
                "target": "consume.use.start",
                "lower": 0.0,
                "upper": None,
            }
        ],
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0  # warnings do not fail validation
    assert out == "ok\n"
    assert err.startswith("warning:")
    assert "mid-petal" in err


def test_validate_warns_about_handoffs_into_mid_petal_actions(tmp_path, capsys):
    doc = {
        "agents": [{"id": "x"}, {"id": "y"}],
        "petals": [
            {"name": "supply", "owner": "x",
             "actions": [{"name": "fetch", "lower": 1.0, "upper": 2.0}]},
            {"name": "consume", "owner": "y",
             "actions": [{"name": "clear", "lower": 1.0, "upper": 2.0},
                         {"name": "use", "lower": 1.0, "upper": 3.0}]},
        ],
        "constraints": [{"kind": "handoff", "source": "supply.fetch.end",
                         "target": "consume.use.start", "lower": 0.0, "upper": None}],
    }
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(path)) == (
        0, "ok\n",
        "warning: handoff enters petal 'consume' at mid-petal action 'use'; "
        "delay readings at petal granularity will blur\n",
    )


PETALS = [p["name"] for p in json.loads(packaged_example_path().read_text())["petals"]]


@pytest.mark.parametrize("ordering", [PETALS[:2], [*PETALS, PETALS[0]]],
                         ids=["two-of-six", "repeated"])
def test_validate_warns_about_an_ordering_compile_refuses(tmp_path, capsys, ordering):
    doc = json.loads(packaged_example_path().read_text())
    doc["ordering"] = ordering
    path = tmp_path / "ordered.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0  # the document parses, and plan ignores the field
    assert out == "ok\n"
    assert err.startswith("warning: ordering must name each petal exactly once")
    assert err.count("\n") == 1
    code, out, compile_err = run(capsys, "compile", str(path))
    assert (code, out) == (1, "")
    assert compile_err == err.replace("warning:", "error:", 1)


@pytest.mark.parametrize("ordering", [PETALS[::-1], None], ids=["permutation", "absent"])
def test_validate_is_silent_on_a_permutation_or_no_ordering(tmp_path, capsys, ordering):
    doc = json.loads(packaged_example_path().read_text())
    if ordering is not None:
        doc["ordering"] = ordering
    path = tmp_path / "ordered.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (0, "ok\n", "")
    if ordering is not None:  # even one whose network is inconsistent
        code, out, err = run(capsys, "compile", str(path))
        assert (code, out) == (1, "")
        assert "consistent: no" in err


def test_domain_failures_go_to_stderr(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, out, err = run(capsys, "compile", str(garbled))
    assert code == 1
    assert out == ""
    assert "not valid JSON" in err


def test_analyze_rejects_non_finite_trace_times(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", TASK, "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    trace_file = tmp_path / "trace-0.json"
    doc = json.loads(trace_file.read_text())
    doc["start_time"] = float("nan")
    trace_file.write_text(json.dumps(doc))  # written as the bare token NaN
    code, out, err = run(capsys, "analyze", TASK, str(trace_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "start_time: expected a finite number" in err
    assert "Traceback" not in err


def doctored_traces(tmp_path, capsys):
    """Three traces of seed 1 that are not runs of the packaged task."""
    code, _, _ = run(capsys, "simulate", TASK, "--seed", "1", "--out", str(tmp_path))
    assert code == 0
    base = json.loads((tmp_path / "trace-1.json").read_text())
    ghost = json.loads(json.dumps(base))
    ghost["events"].append({"agent": "human", "petal": "Ghost", "action": "Haunt",
                            "start": 7.5, "end": 107.3})
    dropped = json.loads(json.dumps(base))
    dropped["events"] = [e for e in base["events"] if e["petal"] != "Pack Object C"]
    swapped = json.loads(json.dumps(base))
    for e in swapped["events"]:
        if (e["petal"], e["action"]) == ("Pack Object A", "Move to Object A"):
            e["agent"] = "human"
    return {"ghost": ghost, "dropped": dropped, "swapped": swapped}


def test_analyze_rejects_traces_that_do_not_cover_the_task(tmp_path, capsys):
    daisy = madtn.load_packaged_example().daisy
    for name, doc in doctored_traces(tmp_path, capsys).items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(madtn.CoverageError) as excinfo:
            madtn.validate_trace(daisy, parse_trace(doc).trace)
        for output in ("json", "text"):
            code, out, err = run(capsys, "analyze", TASK, str(path), "--output", output)
            assert (code, out) == (1, ""), name
            assert err == f"error: {excinfo.value}\n"


def test_analyze_rejects_events_before_start_time(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", TASK, "--seed", "1", "--out", str(tmp_path))
    assert code == 0
    trace_file = tmp_path / "trace-1.json"
    doc = json.loads(trace_file.read_text())
    doc["start_time"] = 3.0
    trace_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", TASK, str(trace_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: events[0].start: 0.0 is before start_time 3.0\n")
    assert "Traceback" not in err


def test_simulate_reports_a_time_that_overflows(tmp_path, capsys):
    # Two back-to-back actions of 1e308 s: the second one ends at infinity.
    task = tmp_path / "big.json"
    task.write_text(json.dumps({
        "agents": [{"id": "human"}, {"id": "robot"}],
        "petals": [{"name": "P", "owner": "robot", "actions": [
            {"name": "a", "lower": 1e308}, {"name": "b", "lower": 1e308}]}],
    }))
    code, out, err = run(capsys, "simulate", str(task), "--seed", "1", "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == "error: events[1].end: inf is not a finite number\n"
    assert list(tmp_path.iterdir()) == [task]  # no trace, no temporary file


def test_a_failing_run_of_many_leaves_stdout_empty(tmp_path, capsys):
    # h's two actions may each take up to 1.7e308 s; under uniform
    # durations seed 4 draws two that end at infinity, after seeds 1 to 3
    # have written their traces.
    task = tmp_path / "task.json"
    task.write_text(json.dumps({
        "agents": [{"id": "h"}, {"id": "r"}],
        "petals": [
            {"name": "P", "owner": "h", "actions": [
                {"name": "a", "lower": 0.0, "upper": 1.7e308},
                {"name": "b", "lower": 0.0, "upper": 1.7e308}]},
            {"name": "Q", "owner": "r", "actions": [{"name": "c", "lower": 1, "upper": 2}]},
        ],
    }))
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps({"h": {"duration_mode": "uniform"}}))
    out_dir = tmp_path / "d"
    out_dir.mkdir()
    code, out, err = run(
        capsys, "simulate", str(task), "--seed", "1", "--runs", "6",
        "--profiles", str(profiles), "--out", str(out_dir),
    )
    assert (code, out) == (1, "")
    assert err == "error: events[2].end: inf is not a finite number\n"
    assert sorted(p.name for p in out_dir.iterdir()) == [f"trace-{s}.json" for s in (1, 2, 3)]


def test_analyze_reports_a_makespan_that_overflows(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", TASK, "--seed", "1", "--out", str(tmp_path))
    assert code == 0
    trace_file = tmp_path / "trace-1.json"
    doc = json.loads(trace_file.read_text())
    doc["start_time"] = -1.7e308
    doc["events"][-1]["end"] = 1.7e308
    trace_file.write_text(json.dumps(doc))
    for flags in ((), ("--output", "text")):
        code, out, err = run(capsys, "analyze", TASK, str(trace_file), *flags)
        assert (code, out) == (1, ""), flags
        assert err == "error: window.makespan: inf is not a finite number\n", flags


def test_usage_errors_exit_2(capsys):
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate", TASK)[0] == 2
    assert run(capsys, "simulate", TASK)[0] == 2  # --seed is required
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "usage: madtn" in out


def test_compile_reports_consistency_and_duration(capsys):
    code, out, err = run(capsys, "compile", TASK)
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "timepoints: 36",
        "constraints: 51",
        "consistent: yes",
        "task duration: [7.5, 60]",
    ]


def test_compile_flags_an_impossible_deadline(tmp_path, capsys):
    doc = json.loads(packaged_example_path().read_text())
    doc["makespan"] = [0.0, 7.4]  # just under the handoff chain's 7.5
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compile", str(tight))
    assert code == 1
    assert out == ""  # a failed check leaves nothing on the result stream
    assert err.splitlines()[-1] == "consistent: no"


def test_schedule_prints_a_time_per_vertex(capsys):
    code, out, err = run(capsys, "schedule", TASK)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 36
    times = {}
    for line in lines:
        time_text, name = line.split(maxsplit=1)
        times[name] = float(time_text)
    assert times["Vs"] == 0.0
    assert times["Ve"] == pytest.approx(7.5)
    assert times["Retrieve Object A.Place Object A.end"] == pytest.approx(3.0)
    assert times["Deliver Package.Set Down Package.end"] == pytest.approx(7.5)


def test_schedule_honors_an_ordering_override(capsys):
    detour = (
        "Retrieve Object A,Pack Object A,Prepare and Pack Object B,"
        "Pack Object C,Seal Package,Deliver Package"
    )
    code, out, _ = run(capsys, "schedule", TASK, "--ordering", detour)
    assert code == 0
    line = next(
        l for l in out.splitlines()
        if l.endswith("Prepare and Pack Object B.Wrap Object B.start")
    )
    assert float(line.split()[0]) == pytest.approx(5.0)

    code, _, err = run(capsys, "schedule", TASK, "--ordering", "Pack Object A,ghost")
    assert code == 1
    assert err.startswith("error:")


def test_compile_accounts_for_transition_time(capsys, packaging):
    # Small gaps hide inside existing handoff waits; 2 s does not.
    code, out, _ = run(capsys, "compile", TASK, "--transition", "2")
    assert code == 0
    daisy = packaging.daisy
    graph = solve(compile_to_stn(daisy, transition_lower=2.0))
    lower, upper = graph.bounds(daisy.start, daisy.end)
    assert f"task duration: [{lower:g}, {upper:g}]" in out.splitlines()
    assert lower > 7.5


@pytest.mark.parametrize("command", ["compile", "schedule", "simulate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_transition_names_the_flag(tmp_path, capsys, command, value):
    extra = ["--seed", "1", "--out", str(tmp_path)] if command == "simulate" else []
    code, out, err = run(capsys, command, TASK, "--transition", value, *extra)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: transition lower bound {value} ")
    assert list(tmp_path.iterdir()) == []


def test_plan_lists_orders_then_the_assignment(capsys, packaging):
    code, out, err = run(capsys, "plan", TASK)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    marker = lines.index("assignment:")
    orders = lines[:marker]
    assert len(orders) == 12
    assert len(set(orders)) == 12
    assert orders[0] == (
        "Retrieve Object A, Prepare and Pack Object B, Pack Object A, "
        "Pack Object C, Seal Package, Deliver Package"
    )
    expected = [f"  {p.name}: {p.owner}" for p in packaging.daisy.petals]
    assert lines[marker + 1:] == expected

    code, out, _ = run(capsys, "plan", TASK, "--limit", "4")
    assert code == 0
    assert out.splitlines()[:4] == orders[:4]


def test_plan_limit_counts_verified_orders_and_may_not_be_negative(capsys):
    code, out, err = run(capsys, "plan", TASK, "--limit", "0")
    assert code == 0
    assert err == ""
    assert out.splitlines()[0] == "assignment:"

    code, out, err = run(capsys, "plan", TASK, "--limit", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: --limit must be at least 0\n"


def test_plan_without_capabilities_uses_the_declared_owners(tmp_path, capsys):
    doc = json.loads(packaged_example_path().read_text())
    del doc["capabilities"]
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc))
    code, out, err = run(capsys, "plan", str(plain))
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 12
    assert "assignment:" not in lines


def test_plan_needs_capabilities_when_petals_are_unowned(tmp_path, capsys):
    doc = json.loads(packaged_example_path().read_text())
    del doc["capabilities"]
    doc["petals"][0]["owner"] = None
    orphan = tmp_path / "orphan.json"
    orphan.write_text(json.dumps(doc))
    code, out, err = run(capsys, "plan", str(orphan))
    assert code == 1
    assert out == ""
    assert "no capabilities table" in err
    assert "Retrieve Object A" in err


def test_simulate_writes_deterministic_trace_files(tmp_path, capsys):
    code, out, err = run(
        capsys, "simulate", TASK, "--seed", "5", "--out", str(tmp_path)
    )
    assert code == 0
    assert err == ""
    path = tmp_path / "trace-5.json"
    assert out == f"wrote {path}\n"
    first = path.read_text()
    doc = parse_trace(first)
    assert doc.trace.seed == 5
    assert doc.daisy == "packaging.daisy.json"

    run(capsys, "simulate", TASK, "--seed", "5", "--out", str(tmp_path))
    assert path.read_text() == first  # byte-for-byte reproducible


def test_simulate_seeds_runs_consecutively(tmp_path, capsys):
    code, out, _ = run(
        capsys, "simulate", TASK, "--seed", "7", "--runs", "3",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert len(out.splitlines()) == 3
    seeds = []
    for name in ("trace-7.json", "trace-8.json", "trace-9.json"):
        seeds.append(parse_trace((tmp_path / name).read_text()).trace.seed)
    assert seeds == [7, 8, 9]

    code, out, err = run(capsys, "simulate", TASK, "--seed", "7", "--runs", "0")
    assert code == 2
    assert out == ""
    assert "--runs" in err


def test_simulate_out_dir_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MADTN_OUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "simulate", TASK, "--seed", "1")
    assert code == 0
    assert (tmp_path / "trace-1.json").exists()

    flagged = tmp_path / "flagged"
    flagged.mkdir()
    code, _, _ = run(capsys, "simulate", TASK, "--seed", "1", "--out", str(flagged))
    assert code == 0
    assert (flagged / "trace-1.json").exists()  # --out beats the environment


def test_one_parser_serves_every_call_without_leaking_state(tmp_path, monkeypatch, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    monkeypatch.setenv("MADTN_OUT_DIR", str(first))
    assert run(capsys, "simulate", TASK, "--seed", "1")[0] == 0
    monkeypatch.setenv("MADTN_OUT_DIR", str(second))
    assert run(capsys, "simulate", TASK, "--seed", "2")[0] == 0
    assert [p.name for p in first.iterdir()] == ["trace-1.json"]
    assert [p.name for p in second.iterdir()] == ["trace-2.json"]

    trace_file = str(first / "trace-1.json")
    code, out, _ = run(capsys, "analyze", TASK, trace_file, "--output", "text")
    assert code == 0
    assert out.startswith("agents: human, robot\n")
    code, out, _ = run(capsys, "analyze", TASK, trace_file)
    assert code == 0
    assert json.loads(out)["agents"] == ["human", "robot"]

    helps = [run(capsys, "--help") for _ in range(2)]
    assert [code for code, _, _ in helps] == [0, 0]
    assert helps[0] == helps[1]
    usages = [run(capsys, "simulate", TASK) for _ in range(2)]
    assert [code for code, _, _ in usages] == [2, 2]
    assert usages[0] == usages[1]


def test_simulate_reads_a_profiles_file(tmp_path, capsys, packaging):
    profiles_file = tmp_path / "profiles.json"
    profiles_file.write_text(json.dumps({"human": {"reaction_delay": 1.0}}))
    code, _, _ = run(
        capsys, "simulate", TASK, "--seed", "4",
        "--profiles", str(profiles_file), "--out", str(tmp_path),
    )
    assert code == 0
    written = parse_trace((tmp_path / "trace-4.json").read_text()).trace
    expected = simulate(
        packaging.daisy,
        profiles={"human": BehaviorProfile(reaction_delay=1.0)},
        seed=4,
    )
    assert written == expected


@pytest.mark.parametrize("agent", ["ghost", "humna"])
def test_simulate_refuses_a_profile_for_an_undeclared_agent(tmp_path, capsys, agent):
    profiles_file = tmp_path / "profiles.json"
    profiles_file.write_text(json.dumps({agent: {"duration_mode": "uniform"}}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run(
        capsys, "simulate", TASK, "--seed", "1",
        "--profiles", str(profiles_file), "--out", str(out_dir),
    )
    assert code == 1
    assert out == ""
    assert f"'{agent}'" in err
    assert "Traceback" not in err
    assert list(out_dir.iterdir()) == []


def test_analyze_emits_json_or_text(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", TASK, "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    trace_file = str(tmp_path / "trace-0.json")

    code, out, err = run(capsys, "analyze", TASK, trace_file)
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["agents"] == ["human", "robot"]
    assert report["window"]["makespan"] == pytest.approx(7.5)
    assert len(report["handoffs"]) == 4

    code, out, _ = run(capsys, "analyze", TASK, trace_file, "--output", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "agents: human, robot"
    assert any("makespan 7.5s" in l for l in lines)
    assert any(l.startswith("concurrent activity: 2.4s") for l in lines)
    assert any("Prepare and Pack Object B" in l and "stale" in l for l in lines)

    code, _, _ = run(capsys, "analyze", TASK, trace_file, "--output", "yaml")
    assert code == 2  # not a supported format


# Long tasks: each search below is deeper than Python's default recursion
# limit of 1 000, so a recursive search would crash with a traceback.
LONG = 1200


def handoff(source: str, target: str) -> dict:
    return {"kind": "handoff", "source": source, "target": target, "lower": 0.0}


def write_task(tmp_path, petals, constraints):
    doc = {
        "agents": [{"id": "x"}, {"id": "y"}],
        "petals": petals,
        "constraints": constraints,
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    return str(path)


def one_action_chain(tmp_path, closed: bool) -> str:
    petals = [
        {"name": f"p{i}", "owner": "xy"[i % 2], "actions": [{"name": "a", "lower": 1.0}]}
        for i in range(LONG)
    ]
    constraints = [handoff(f"p{i}.a.end", f"p{i + 1}.a.start") for i in range(LONG - 1)]
    if closed:
        constraints.append(handoff(f"p{LONG - 1}.a.end", "p0.a.start"))
    return write_task(tmp_path, petals, constraints)


def test_simulate_names_a_long_waiting_cycle(tmp_path, capsys):
    half = LONG // 2
    petals = [
        {"name": f"p{agent}", "owner": agent,
         "actions": [{"name": f"{agent}{i}", "lower": 1.0} for i in range(half)]}
        for agent in "xy"
    ]
    task = write_task(tmp_path, petals, [
        handoff(f"py.y{half - 1}.end", "px.x0.start"),
        handoff(f"px.x{half - 1}.end", "py.y0.start"),
    ])
    code, out, err = run(capsys, "simulate", task, "--seed", "1", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: deadlocked waiting cycle: px.x0 -> py.y{half - 1} -> ")
    assert err.count(" -> ") == LONG
    assert "Traceback" not in err


def test_plan_names_a_long_precedence_ring(tmp_path, capsys):
    code, out, err = run(capsys, "plan", one_action_chain(tmp_path, closed=True))
    assert code == 1
    assert out == ""
    ring = " -> ".join(f"p{i}" for i in range(LONG))
    assert err == f"error: cyclic petal precedence: {ring} -> p0\n"


def test_plan_orders_a_long_chain(tmp_path, capsys):
    code, out, err = run(capsys, "plan", one_action_chain(tmp_path, closed=False))
    assert code == 0
    assert out == ", ".join(f"p{i}" for i in range(LONG)) + "\n"
    assert err == ""


#: A valid task whose three zero-length petals P, Q and R each start at
#: least 0.9 ns before the previous one ends, round a ring. Every arc is
#: within TOLERANCE of zero, but the ring weighs -2.7 ns.
NEAR_ZERO_RING = {
    "agents": [{"id": "human"}, {"id": "robot"}],
    "petals": [
        {"name": name, "owner": "robot", "actions": [{"name": action, "lower": 0, "upper": 0}]}
        for name, action in (("P", "a"), ("Q", "b"), ("R", "c"))
    ] + [{"name": "T", "owner": "robot", "actions": [{"name": "t", "lower": 5, "upper": 6}]}],
    "constraints": [
        {"kind": "other", "source": source, "target": target, "lower": None, "upper": -9e-10}
        for source, target in (
            ("P.a.end", "Q.b.start"), ("Q.b.end", "R.c.start"), ("R.c.end", "P.a.start")
        )
    ],
}


def test_commands_end_on_a_ring_just_below_zero(tmp_path, capsys):
    task = tmp_path / "ring.json"
    task.write_text(json.dumps(NEAR_ZERO_RING))
    src = str(Path(madtn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outputs = {}
    for command in ("compile", "schedule", "plan"):
        done = subprocess.run(
            [sys.executable, "-m", "madtn", command, str(task)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode in (0, 1), (command, done.stderr)
        assert "Traceback" not in done.stderr
        outputs[command] = done.stdout
    orders = outputs["plan"].splitlines()
    assert orders  # otherwise the check below proves nothing
    for order in orders:
        code, out, err = run(capsys, "compile", str(task), "--ordering", order.replace(" ", ""))
        assert "consistent: yes" in out.splitlines(), (order, out, err)


@pytest.mark.parametrize("argv, status, last_line", [
    (["validate", "missing.json"], 1, "error: "),
    (["simulate", TASK], 2, "madtn simulate: error: the following arguments are required"),
], ids=["domain failure", "usage"])
def test_a_madtn_process_exits_with_the_status_of_its_failure(tmp_path, argv, status, last_line):
    src = str(Path(madtn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "madtn", *argv], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (status, "")
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].startswith(last_line)


#: Two lanes, R0 -> H0 and H1 -> R1, under a 2 s cap: each agent can run its
#: petals in one order only, so plan prints four of the six linear extensions.
LANES = Path(__file__).resolve().parent / "reports" / "lanes.daisy.json"


def test_every_order_plan_prints_for_two_lanes_compiles(capsys):
    code, out, err = run(capsys, "plan", str(LANES))
    assert (code, err) == (0, "")
    orders = out.splitlines()
    assert orders == ["R0, H1, H0, R1", "R0, H1, R1, H0", "H1, R0, H0, R1", "H1, R0, R1, H0"]
    for order in orders:
        code, out, err = run(capsys, "compile", str(LANES), "--ordering", order.replace(" ", ""))
        assert (code, err) == (0, "")
        assert "consistent: yes" in out.splitlines(), order


#: Agent, petal and action names with non-ASCII letters, a quote and a backslash.
NAMES_TASK = {
    "agents": [{"id": 'hümä"n\\'}, {"id": "rø\\bot"}],
    "petals": [
        {"name": 'Pé"tal\\1', "owner": 'hümä"n\\', "actions": [
            {"name": 'añ"a', "lower": 1, "upper": 2}, {"name": "b\\ü", "lower": 1, "upper": 2}]},
        {"name": "Rø\\2", "owner": "rø\\bot", "actions": [{"name": 'ç"c', "lower": 1, "upper": 2}]},
    ],
    "constraints": [{"kind": "handoff", "source": 'Pé"tal\\1.b\\ü.end',
                     "target": 'Rø\\2.ç"c.start', "lower": 0, "upper": None}],
}


@pytest.mark.parametrize("task, profiles, options, seed, runs", [
    (json.loads(packaged_example_path().read_text()),
     {"human": {"duration_mode": "uniform", "reaction_delay": 0.5},
      "robot": {"duration_mode": "truncated_normal"}}, [], 7, 3),
    (json.loads(LANES.read_text()),
     {"human": {"duration_mode": "uniform", "reaction_delay": 0.25,
                "anticipation_probability": 0.5, "anticipation_offset": 0.5},
      "robot": {"duration_mode": "truncated_normal", "anticipation_probability": 1.0,
                "anticipation_offset": 0.25}},
     ["--ordering", "H1,R1,H0,R0", "--transition", "0.5"], 3, 3),
    (NAMES_TASK, None, [], 11, 2),
], ids=["packaged", "lanes", "escaped names"])
def test_each_of_many_runs_writes_what_a_run_of_its_own_writes(
    tmp_path, capsys, task, profiles, options, seed, runs
):
    task_file = tmp_path / "task.json"
    task_file.write_text(json.dumps(task))
    if profiles is not None:
        (tmp_path / "profiles.json").write_text(json.dumps(profiles))
        options = [*options, "--profiles", str(tmp_path / "profiles.json")]
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    simulate_argv = ["simulate", str(task_file), *options]
    code, _, err = run(capsys, *simulate_argv, "--seed", str(seed), "--runs", str(runs),
                       "--out", str(together))
    assert (code, err) == (0, "")
    for run_seed in range(seed, seed + runs):
        assert run(capsys, *simulate_argv, "--seed", str(run_seed), "--out", str(alone))[0] == 0
        name = f"trace-{run_seed}.json"
        trace_text = (together / name).read_text(encoding="utf-8")
        assert trace_text == (alone / name).read_text(encoding="utf-8"), name
        code, report_text, err = run(capsys, "analyze", str(task_file), str(together / name))
        assert (code, err) == (0, "")
        # Both are the bytes json.dumps(indent=2) writes, names escaped to ASCII.
        for text in (trace_text, report_text):
            assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("blocked", ["missing directory", "regular file"])
def test_out_errors_name_the_directory(tmp_path, capsys, blocked):
    out_dir = tmp_path / "out"
    argv_out = f"{out_dir}{os.sep}"
    if blocked == "regular file":
        out_dir.write_text("not a directory\n")
        argv_out = str(out_dir)
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, "simulate", TASK, "--seed", "1", "--out", argv_out)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert str(out_dir) in err
    assert ".tmp" not in err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_an_out_target_that_is_a_directory_is_named_alone(tmp_path, capsys):
    (tmp_path / "trace-1.json").mkdir()
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, "simulate", TASK, "--seed", "1", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    target = str(tmp_path / "trace-1.json")
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {target!r}\n"
    assert ".tmp" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_undecodable_files_are_reported_by_name(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(bytes.fromhex("fffe7b7d"))
    for argv in (
        ("validate", str(bad)),
        ("analyze", TASK, str(bad)),
        ("simulate", TASK, "--seed", "0", "--profiles", str(bad), "--out", str(tmp_path)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"


# Every subcommand with the documents it reads; "{out}" is the trace directory.
CLI_READS = {
    "validate": (["validate", "{task}"], ["task"]),
    "compile": (["compile", "{task}"], ["task"]),
    "schedule": (["schedule", "{task}"], ["task"]),
    "plan": (["plan", "{task}", "--limit", "5"], ["task"]),
    "simulate": (
        ["simulate", "{task}", "--seed", "0", "--profiles", "{profiles}", "--out", "{out}"],
        ["task", "profiles"],
    ),
    "analyze": (["analyze", "{task}", "{trace}", "--output", "text"], ["task", "trace"]),
}
VALID = valid_documents()


def document_bytes(kind):
    """Arbitrary bytes, arbitrary JSON, or a valid document with one field replaced."""
    valid = VALID[kind]
    return st.one_of(
        st.binary(max_size=32),
        json_values.map(lambda value: json.dumps(value).encode()),
        st.tuples(st.sampled_from(list(field_paths(valid))), json_values).map(
            lambda case: json.dumps(replaced(valid, *case)).encode()
        ),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(name, kind) for name, (_, kinds) in CLI_READS.items() for kind in kinds]),
    st.data(),
)
def test_cli_returns_a_status_for_any_document(case, data):
    command, kind = case
    content = data.draw(document_bytes(kind), label=kind)
    with tempfile.TemporaryDirectory() as scratch:
        paths = {"out": scratch}
        for name, document in VALID.items():
            paths[name] = str(Path(scratch) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(document))
        Path(paths[kind]).write_bytes(content)
        argv = [arg.format(**paths) for arg in CLI_READS[command][0]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    assert code in (0, 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def overflowing_task(tmp_path):
    """The packaged task with two actions of at least 1e308 s under its 60 s cap."""
    doc = json.loads(packaged_example_path().read_text())
    petal = next(p for p in doc["petals"] if p["name"] == "Retrieve Object A")
    for action in petal["actions"][:2]:
        action["lower"], action["upper"] = 1e308, 1.5e308
    task = tmp_path / "overflow.json"
    task.write_text(json.dumps(doc))
    return str(task)


@pytest.mark.parametrize("command", ["compile", "schedule", "plan"])
def test_bounds_whose_sums_overflow_are_refused(tmp_path, capsys, command):
    task = overflowing_task(tmp_path)
    assert run(capsys, "validate", task)[0] == 0  # the document itself is sound
    code, out, err = run(capsys, command, task)
    assert (code, out) == (1, "")
    assert err.startswith("error: bounds too large to solve: their magnitudes sum to inf s")


@pytest.mark.parametrize("command", ["compile", "schedule"])
def test_a_transition_whose_sums_overflow_is_refused(capsys, command):
    code, out, err = run(capsys, command, TASK, "--transition", "1e308")
    assert (code, out) == (1, "")
    assert err.startswith("error: bounds too large to solve: their magnitudes sum to inf s")
