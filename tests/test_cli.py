"""End-to-end checks of the command line interface."""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
