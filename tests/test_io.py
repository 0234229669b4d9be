"""Document parsing, canonical serialization, and file round trips."""
from __future__ import annotations

import errno
import json
import math
import os
from dataclasses import replace
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from madtn import (
    GLOBAL_END_TOKEN,
    GLOBAL_START_TOKEN,
    INF,
    Action,
    BehaviorProfile,
    ConstraintKind,
    DocumentError,
    DurationMode,
    ExecutionEvent,
    ExternalConstraint,
    FluencyReport,
    HandoffDelays,
    HandoffState,
    IdleBreakdown,
    IntervalSet,
    InvertedBoundsError,
    NegativeDurationError,
    PetalDelay,
    TimePoint,
    Trace,
    TraceDocument,
    daisy_document,
    dump_document,
    fluency_report,
    load_daisy,
    load_profiles,
    load_trace,
    packaged_example_path,
    parse_daisy,
    parse_profiles,
    parse_trace,
    report_document,
    save_document,
    simulate,
    trace_document,
    validate_daisy,
)
from madtn import files as madtn_files

from test_fluency import daisy_of, sweep_traces

from fuzzing import field_paths, json_values, replaced, valid_documents


def tiny_doc(**overrides):
    doc = {
        "agents": [{"id": "x"}, {"id": "y"}],
        "petals": [
            {
                "name": "supply",
                "owner": "x",
                "actions": [{"name": "fetch", "lower": 1.0, "upper": 2.0}],
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
    doc.update(overrides)
    return doc


def failures(source):
    with pytest.raises(DocumentError) as excinfo:
        parse_daisy(source)
    return excinfo.value.errors


def test_tokens_are_the_global_vertex_names():
    assert GLOBAL_START_TOKEN == "Vs"
    assert GLOBAL_END_TOKEN == "Ve"


def test_parse_accepts_text_and_mappings_alike():
    doc = tiny_doc()
    from_mapping = parse_daisy(doc)
    from_text = parse_daisy(json.dumps(doc))
    assert daisy_document(from_mapping) == daisy_document(from_text)
    assert validate_daisy(from_mapping.daisy) == []


def test_canonical_form_is_a_fixed_point():
    text = packaged_example_path().read_text()
    once = dump_document(daisy_document(parse_daisy(text)))
    twice = dump_document(daisy_document(parse_daisy(once)))
    assert once == twice

    # An agent's display name defaults to its id.
    canonical = daisy_document(parse_daisy(tiny_doc()))
    assert canonical["agents"] == [{"id": "x", "name": "x"}, {"id": "y", "name": "y"}]
    assert daisy_document(parse_daisy(canonical)) == canonical


def test_a_constraint_endpoint_outside_the_task_is_not_written():
    parsed = parse_daisy(tiny_doc())
    daisy = parsed.daisy
    ghost = ExternalConstraint(ConstraintKind.OTHER, TimePoint("ghost"), daisy.end, 0.0)
    stray = replace(parsed, daisy=replace(daisy, constraints=(*daisy.constraints, ghost)))
    with pytest.raises(DocumentError) as raised:
        daisy_document(stray)
    assert len(raised.value.errors) == 1
    assert raised.value.errors[0].startswith("constraint endpoint: TimePoint('ghost'")


def test_makespan_shorthand_desugars_to_a_constraint():
    doc = tiny_doc(makespan=[0.0, 12.5])
    parsed = parse_daisy(doc)
    spans = [
        c for c in parsed.daisy.constraints if c.kind is ConstraintKind.MAKESPAN
    ]
    assert len(spans) == 1
    assert spans[0].source is parsed.daisy.start
    assert spans[0].target is parsed.daisy.end
    assert (spans[0].lower, spans[0].upper) == (0.0, 12.5)

    canonical = daisy_document(parsed)
    assert "makespan" not in canonical
    assert canonical["constraints"][-1] == {
        "kind": "makespan",
        "source": "Vs",
        "target": "Ve",
        "lower": 0.0,
        "upper": 12.5,
    }


def test_null_bounds_mean_infinity():
    doc = tiny_doc()
    doc["petals"][0]["actions"][0]["upper"] = None
    doc["constraints"][0]["lower"] = 0.0
    doc["constraints"][0]["upper"] = None
    parsed = parse_daisy(doc)
    assert parsed.daisy.petals[0].actions[0].upper == INF
    assert parsed.daisy.constraints[0].upper == INF
    # Infinite bounds go back out as null, never as a float.
    out = daisy_document(parsed)
    assert out["petals"][0]["actions"][0]["upper"] is None
    assert out["constraints"][0]["upper"] is None


def test_unknown_fields_are_rejected_with_their_paths():
    doc = tiny_doc(frobnicate=1)
    doc["petals"][0]["actions"][0]["speed"] = "fast"
    doc["agents"][1]["role"] = "lead"
    errors = failures(doc)
    assert "frobnicate: unknown field" in errors
    assert "petals[0].actions[0].speed: unknown field" in errors
    assert "agents[1].role: unknown field" in errors


def test_every_problem_is_reported_not_just_the_first():
    doc = tiny_doc()
    doc["agents"] = []
    doc["petals"][1]["actions"][0].pop("lower")
    doc["constraints"][0]["kind"] = "telepathy"
    errors = failures(doc)
    assert len(errors) >= 3
    assert any(e.startswith("agents:") for e in errors)
    assert any(e.startswith("petals[1].actions[0].lower") for e in errors)
    assert any(e.startswith("constraints[0].kind") for e in errors)


def test_model_violations_surface_at_parse_time():
    # The document is structurally fine, but the model inside it is not.
    doc = tiny_doc()
    doc["petals"][0]["owner"] = "ghost"
    errors = failures(doc)
    assert any(
        e == "model: petal 'supply' owner 'ghost' is not a declared agent"
        for e in errors
    )

    backwards = tiny_doc()
    backwards["constraints"][0]["source"] = "consume.use.start"
    backwards["constraints"][0]["target"] = "supply.fetch.end"
    assert any(e.startswith("model: ") for e in failures(backwards))


def test_vertex_paths_are_checked():
    bad_shape = tiny_doc()
    bad_shape["constraints"][0]["source"] = "nope"
    assert (
        "constraints[0].source: expected 'petal.action.start', 'petal.action.end', "
        "'Vs', or 'Ve', got 'nope'"
    ) in failures(bad_shape)

    bad_petal = tiny_doc()
    bad_petal["constraints"][0]["target"] = "missing.use.start"
    assert any("no petal named 'missing'" in e for e in failures(bad_petal))

    bad_action = tiny_doc()
    bad_action["constraints"][0]["target"] = "consume.chew.start"
    assert any("has no action 'chew'" in e for e in failures(bad_action))


def test_invalid_json_and_non_objects_are_document_errors():
    assert any("not valid JSON" in e for e in failures("{none of this parses"))
    assert any("top level" in e for e in failures("[1, 2, 3]"))
    assert failures("[" * 100_000) == ["not valid JSON: nested too deeply"]


def test_constraint_defaults():
    doc = tiny_doc()
    del doc["constraints"][0]["lower"]
    del doc["constraints"][0]["upper"]
    constraint = parse_daisy(doc).daisy.constraints[0]
    assert constraint.lower == 0.0
    assert constraint.upper == INF


def test_tags_round_trip_sorted():
    doc = tiny_doc()
    doc["petals"][0]["tags"] = ["tape", "box", "tape"]
    parsed = parse_daisy(doc)
    assert parsed.daisy.petals[0].tags == frozenset({"box", "tape"})
    out = daisy_document(parsed)
    assert out["petals"][0]["tags"] == ["box", "tape"]
    # Petals without tags still carry the field, as an empty list.
    assert out["petals"][1]["tags"] == []

    doc = tiny_doc()
    doc["petals"][0]["tags"] = ["box", 7]
    assert any("petals[0].tags[1]" in e for e in failures(doc))


def test_capabilities_and_ordering_are_cross_checked():
    doc = tiny_doc(
        capabilities={"x": {"supply": 0.9}, "ghost": {"supply": 0.1}},
        ordering=["consume", "supply"],
    )
    errors = failures(doc)
    assert any("'ghost' is not a declared agent" in e for e in errors)

    doc = tiny_doc(capabilities={"x": {"basement": 0.9}})
    assert any("is not a declared petal" in e for e in failures(doc))

    doc = tiny_doc(capabilities={"x": {"supply": -0.2}})
    assert any("scores may not be negative" in e for e in failures(doc))

    doc = tiny_doc(ordering=["consume", "attic"])
    assert any("ordering[1]" in e for e in failures(doc))

    good = parse_daisy(tiny_doc(ordering=["consume", "supply"]))
    assert good.ordering == ("consume", "supply")


def test_unassigned_owner_round_trips_as_null():
    doc = tiny_doc()
    doc["petals"][0]["owner"] = None
    parsed = parse_daisy(doc)
    assert parsed.daisy.petals[0].owner == "unassigned"
    assert daisy_document(parsed)["petals"][0]["owner"] is None


@pytest.mark.parametrize("parse, document, expected", [
    (parse_trace, {"agents": ["a"], "events": [], "feasible": "yes"},
     "feasible: expected true or false, got 'yes'"),
    (parse_daisy, replaced(tiny_doc(), ["makespan"], [1.0]),
     "makespan: expected a [lower, upper] pair"),
    (parse_daisy, replaced(tiny_doc(), ["comments"], 7), "comments: expected a string, got 7"),
    (parse_daisy, replaced(tiny_doc(), ["agents", 1], "y"), "agents[1]: expected an object"),
    (parse_daisy, replaced(tiny_doc(), ["petals", 0, "tags"], "box"),
     "petals[0].tags: expected a list of strings"),
    (parse_daisy, replaced(tiny_doc(), ["constraints"], {}),
     "constraints: expected a list of constraint objects"),
    (parse_daisy, replaced(tiny_doc(), ["capabilities"], {"x": 0.5}),
     "capabilities.x: expected an object keyed by petal name"),
    (parse_daisy, replaced(tiny_doc(), ["ordering"], "supply"),
     "ordering: expected a list of petal names"),
    (parse_daisy, replaced(tiny_doc(), ["agents", 0, "name"], 5),
     "agents[0].name: expected a string, got 5"),
    (parse_daisy, replaced(tiny_doc(), ["agents", 0], {"name": "X"}),
     "agents[0].id: expected a non-empty string, got None"),
    (parse_daisy, replaced(tiny_doc(), ["capabilities"], 5),
     "capabilities: expected an object keyed by agent id"),
])
def test_document_shape_errors_name_their_path(parse, document, expected):
    with pytest.raises(DocumentError) as excinfo:
        parse(document)
    assert expected in excinfo.value.errors


def test_canonical_form_writes_the_ordering_back():
    parsed = parse_daisy(tiny_doc(ordering=["consume", "supply"]))
    assert daisy_document(parsed)["ordering"] == ["consume", "supply"]
    assert "ordering" not in daisy_document(parse_daisy(tiny_doc()))


def test_trace_round_trip_is_exact(packaging):
    trace = simulate(
        packaging.daisy,
        profiles={
            "human": BehaviorProfile(
                duration_mode=DurationMode.UNIFORM, reaction_delay=0.37
            ),
            "robot": BehaviorProfile(duration_mode=DurationMode.TRUNCATED_NORMAL),
        },
        seed=99,
    )
    doc = TraceDocument(trace=trace, daisy="packaging.daisy.json", comments="run 99")
    text = dump_document(trace_document(doc))
    parsed = parse_trace(text)
    assert parsed.trace == trace  # float-exact, not approximate
    assert parsed.daisy == "packaging.daisy.json"
    assert parsed.comments == "run 99"
    assert dump_document(trace_document(parsed)) == text
    # The reference rides first in the document, before the run data.
    assert next(iter(json.loads(text))) == "daisy"


def test_trace_defaults_and_field_checks():
    parsed = parse_trace({"agents": ["a"], "events": []})
    assert parsed.trace.seed == 0
    assert parsed.trace.feasible is True
    assert parsed.trace.start_time == 0.0
    assert parsed.daisy is None
    assert "daisy" not in trace_document(parsed)

    with pytest.raises(DocumentError) as excinfo:
        parse_trace({"agents": ["a"], "events": [], "seed": True})
    assert any("seed" in e for e in excinfo.value.errors)

    with pytest.raises(DocumentError) as excinfo:
        parse_trace({"agents": [], "events": []})
    assert any("non-empty list" in e for e in excinfo.value.errors)

    with pytest.raises(DocumentError) as excinfo:
        parse_trace({"agents": ["a"], "events": [], "daisy": ""})
    assert any(e.startswith("daisy:") for e in excinfo.value.errors)


def test_trace_events_must_be_on_the_roster_and_in_order():
    def event(**overrides):
        base = {"agent": "a", "petal": "p", "action": "x", "start": 0.0, "end": 1.0}
        base.update(overrides)
        return base

    shuffled = {
        "agents": ["a"],
        "events": [event(action="y", start=2.0, end=3.0), event()],
    }
    with pytest.raises(DocumentError) as excinfo:
        parse_trace(shuffled)
    assert any("goes backwards" in e for e in excinfo.value.errors)

    stranger = {"agents": ["a"], "events": [event(agent="b")]}
    with pytest.raises(DocumentError) as excinfo:
        parse_trace(stranger)
    assert any("is not on the roster" in e for e in excinfo.value.errors)

    inverted = {"agents": ["a"], "events": [event(start=2.0, end=1.0)]}
    with pytest.raises(DocumentError) as excinfo:
        parse_trace(inverted)
    assert any("events[0]" in e and "before it starts" in e
               for e in excinfo.value.errors)

    typo = {"agents": ["a"], "events": [event(kind="start")]}
    with pytest.raises(DocumentError) as excinfo:
        parse_trace(typo)
    assert any("events[0].kind: unknown field" in e for e in excinfo.value.errors)

    # Events may start at the trace start but not before it; the window
    # would otherwise miss part of the activity it measures.
    early = {"agents": ["a"], "start_time": 2, "events": [
        event(), event(action="y", start=2.0, end=3.0)]}
    with pytest.raises(DocumentError) as excinfo:
        parse_trace(early)
    assert excinfo.value.errors == ["events[0].start: 0.0 is before start_time 2.0"]


def test_a_roster_that_names_an_agent_twice_is_rejected():
    repeated = {"agents": ["human", "human"], "events": [
        {"agent": "human", "petal": "H0", "action": "a", "start": 0.0, "end": 1.0}]}
    with pytest.raises(DocumentError) as excinfo:
        parse_trace(repeated)
    assert excinfo.value.errors == ["agents[1]: 'human' is already on the roster"]


def test_report_document_shape(packaging):
    daisy = packaging.daisy
    report = fluency_report(daisy, simulate(daisy))
    doc = report_document(report)
    assert list(doc) == [
        "agents",
        "window",
        "idle",
        "concurrent_activity",
        "concurrent_inactivity",
        "sole_activity",
        "petal_delays",
        "delay_by_agent",
        "handoffs",
    ]
    assert doc["window"]["makespan"] == pytest.approx(7.5)
    assert doc["concurrent_activity"]["seconds"] == pytest.approx(2.4)
    assert doc["concurrent_activity"]["intervals"] == [[0.0, 1.5], [3.0, 3.9]]
    assert [h["source"] for h in doc["handoffs"]] == [
        "Retrieve Object A.Place Object A",
        "Pack Object A.Place A in Box",
        "Prepare and Pack Object B.Place B in Box",
        "Seal Package.Tape Box Shut",
    ]
    assert [h["state"] for h in doc["handoffs"]] == [
        "blocked", "blocked", "stale", "blocked",
    ]
    # Everything in a report is finite, so strict JSON must serialize it.
    text = dump_document(doc)
    assert json.loads(text) == doc


def test_save_document_is_atomic_and_loads_back(tmp_path):
    source = parse_daisy(packaged_example_path().read_text())
    target = tmp_path / "task.json"
    save_document(daisy_document(source), target)
    reloaded = load_daisy(target)
    assert daisy_document(reloaded) == daisy_document(source)
    assert list(tmp_path.glob(".*.tmp")) == []

    # Overwriting in place keeps the file readable at every moment.
    save_document(daisy_document(reloaded), target)
    assert load_daisy(target).daisy.agent_ids == source.daisy.agent_ids

    trace = simulate(source.daisy, seed=3)
    trace_path = tmp_path / "trace.json"
    save_document(trace_document(TraceDocument(trace=trace)), trace_path)
    assert load_trace(trace_path).trace == trace


def test_a_failed_replace_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    target = tmp_path / "task.json"
    target.write_text("old\n")
    refusal = RuntimeError("replace refused")

    def refuse(source, destination):
        raise refusal

    monkeypatch.setattr(madtn_files.os, "replace", refuse)
    with pytest.raises(RuntimeError) as excinfo:
        save_document({"a": 1}, target)
    assert excinfo.value is refusal
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["task.json"]


def test_a_failed_cleanup_still_names_the_target(tmp_path, monkeypatch):
    target = tmp_path / "task.json"

    def refuse(*paths):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), *paths)

    def also_refuse(path):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(madtn_files.os, "replace", refuse)
    monkeypatch.setattr(madtn_files.os, "unlink", also_refuse)
    with pytest.raises(OSError) as excinfo:
        save_document({"a": 1}, target)
    assert (excinfo.value.errno, excinfo.value.filename) == (errno.EXDEV, str(target))
    reason = os.strerror(errno.EXDEV)
    assert str(excinfo.value) == f"[Errno {errno.EXDEV}] {reason}: {str(target)!r}"


def _holds_itself(container):
    if isinstance(container, dict):
        container["a"] = container
    else:
        container.append(container)
    return container


@pytest.mark.parametrize("container", [{}, []], ids=["dict", "list"])
def test_a_document_that_contains_itself_raises_what_json_raised(tmp_path, container):
    document = _holds_itself(container)
    with pytest.raises(ValueError) as excinfo:
        json.dumps(document)
    expected = str(excinfo.value)
    for write in (dump_document, lambda d: save_document(d, tmp_path / "doc.json")):
        with pytest.raises(ValueError) as excinfo:
            write(document)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == expected == "Circular reference detected"
    assert list(tmp_path.iterdir()) == []


def test_parse_profiles():
    profiles = parse_profiles(
        {
            "human": {"duration_mode": "uniform", "reaction_delay": 0.5},
            "robot": {"mean_fraction": 0.25, "stddev_fraction": 0.1},
        }
    )
    assert profiles["human"].duration_mode is DurationMode.UNIFORM
    assert profiles["human"].reaction_delay == 0.5
    assert profiles["robot"].mean_fraction == 0.25
    assert profiles["robot"].stddev_fraction == 0.1
    assert parse_profiles({"robot": {}})["robot"] == BehaviorProfile()

    with pytest.raises(DocumentError) as excinfo:
        parse_profiles(
            {
                "human": {"zeal": 11},
                "robot": {"duration_mode": "gamma"},
                "dog": {"anticipation_probability": 2.0},
                "cow": {"mean_fraction": 1.5},
                "cat": 7,
            }
        )
    errors = excinfo.value.errors
    assert any(e.startswith("human.zeal") for e in errors)
    assert any(e.startswith("robot.duration_mode") for e in errors)
    assert any(e.startswith("dog") for e in errors)
    assert any(e.startswith("cow") and "mean_fraction" in e for e in errors)
    assert any(e.startswith("cat") for e in errors)


def test_documents_are_read_as_utf8(tmp_path):
    profiles_path = tmp_path / "profiles.json"
    profiles_path.write_text('{"human": {"reaction_delay": 0.5}}', encoding="utf-8")
    assert load_profiles(profiles_path)["human"].reaction_delay == 0.5

    task = tiny_doc(comments="Überprüfung ✓")
    task_path = tmp_path / "task.json"
    task_path.write_bytes(json.dumps(task, ensure_ascii=False).encode("utf-8"))
    assert load_daisy(task_path).comments == "Überprüfung ✓"

    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    for load in (load_daisy, load_trace, load_profiles):
        with pytest.raises(DocumentError) as excinfo:
            load(undecodable)
        assert excinfo.value.errors == [
            f"{undecodable}: not UTF-8 text (invalid start byte at byte 0)"
        ]


def test_infinite_floats_never_reach_the_json_layer(packaging):
    # The packaged task has open-ended bounds; they must emit as null.
    text = dump_document(daisy_document(packaging))
    assert "Infinity" not in text
    assert math.inf not in json.loads(text).get("constraints", [{}])[0].values()


# Strings that escape, look like the joints between items of an indented
# list, or leave ASCII; keys of every type json accepts.
tricky_text = st.sampled_from(
    ['"', "\\", "a\nb", "},", "],", "},\n    {", "],\n  [", "é", "漢字", ""]
) | st.text(max_size=6)
scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | tricky_text
    | st.sampled_from(list(ConstraintKind))
)
keys = (
    tricky_text | st.sampled_from(list(ConstraintKind)) | st.integers()
    | st.floats() | st.booleans() | st.none()
)
flat_dicts = st.dictionaries(keys, scalars, min_size=1, max_size=4)
flat_lists = st.lists(scalars, min_size=1, max_size=4)
documents = st.recursive(
    scalars
    | st.lists(flat_dicts | st.just({}), max_size=4)
    | st.lists(flat_lists | st.just([]), max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_writer_matches_the_stdlib(value):
    try:
        expected = json.dumps(value, indent=2, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(DocumentError):
            dump_document(value)
    else:
        assert dump_document(value) == expected


#: Items of a list the writer may take in one encoder call: flat dicts and
#: lists, empty ones, and containers nested one level deeper.
list_items = (
    flat_dicts | flat_lists | st.just({}) | st.just([])
    | st.lists(flat_lists, max_size=2) | st.dictionaries(keys, flat_dicts, max_size=2)
    | st.booleans() | st.none()
)


@settings(max_examples=300, deadline=None)
@given(st.lists(list_items, max_size=5) | st.lists(flat_dicts, max_size=5)
       | st.lists(flat_lists | st.just([True, False]), max_size=5))
def test_lists_of_containers_are_written_as_the_stdlib_writes_them(value):
    try:
        expected = json.dumps(value, indent=2, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(DocumentError):
            dump_document(value)
    else:
        assert dump_document(value) == expected
        assert dump_document({"items": value, "more": [value]}) == json.dumps(
            {"items": value, "more": [value]}, indent=2) + "\n"


def test_written_documents_match_the_stdlib(packaging):
    def stdlib(document):
        return json.dumps(document, indent=2, allow_nan=False) + "\n"

    daisy = packaging.daisy
    profiles = {"human": BehaviorProfile(duration_mode=DurationMode.UNIFORM,
                                         reaction_delay=0.3)}
    written = [daisy_document(packaging)]
    for seed in range(5):
        trace = simulate(daisy, profiles=profiles, seed=seed)
        written.append(trace_document(TraceDocument(trace=trace, daisy="p.json")))
        written.append(report_document(fluency_report(daisy, trace)))
    for document in written:
        assert dump_document(document) == stdlib(document)


def test_non_finite_output_names_its_path():
    with pytest.raises(DocumentError) as excinfo:
        dump_document({"events": [{"end": 1.0}, {"end": 2.0}, {"end": math.inf}]})
    assert excinfo.value.errors == ["events[2].end: inf is not a finite number"]
    with pytest.raises(DocumentError) as excinfo:
        dump_document({"window": {"makespan": -math.inf}, "x": [[0.0, math.nan]]})
    assert excinfo.value.errors == ["window.makespan: -inf is not a finite number"]
    with pytest.raises(DocumentError) as excinfo:
        dump_document(math.nan)
    assert excinfo.value.errors == ["top level: nan is not a finite number"]
    with pytest.raises(DocumentError) as excinfo:
        dump_document({"a": {math.inf: 1}})
    assert excinfo.value.errors == ["a: key inf is not a finite number"]


def test_non_finite_numbers_are_rejected_with_their_paths():
    # Python's json reads NaN and Infinity tokens; the documents must not.
    trace = (
        '{"agents": ["a"], "start_time": NaN, "events": ['
        '{"agent": "a", "petal": "p", "action": "x", "start": Infinity, "end": -Infinity}]}'
    )
    with pytest.raises(DocumentError) as excinfo:
        parse_trace(trace)
    errors = excinfo.value.errors
    assert any(e.startswith("start_time: expected a finite number") for e in errors)
    assert any(e.startswith("events[0].start: expected a finite number") for e in errors)
    assert any(e.startswith("events[0].end: expected a finite number") for e in errors)

    with pytest.raises(DocumentError) as excinfo:
        parse_profiles('{"human": {"reaction_delay": NaN, "anticipation_offset": 1e999}}')
    errors = excinfo.value.errors
    assert any(e.startswith("human.reaction_delay: expected a finite number") for e in errors)
    assert any(e.startswith("human.anticipation_offset: expected a finite number")
               for e in errors)

    # An integer too large for a float is no number either.
    errors = failures(json.dumps(tiny_doc(makespan=[0.0, 10**400])))
    assert any(e.startswith("makespan[1]: expected a finite number or null") for e in errors)
    errors = failures(json.dumps(tiny_doc(makespan=[0.0, math.inf])))
    assert any(e.startswith("makespan[1]: expected a finite number or null") for e in errors)


# -- one complaint per departure from a valid action or event ---------------

#: Compares below ``inf`` as an integer, but overflows ``float()``.
BIG = 10**400
ACTION = {"name": "fetch", "lower": 1.0, "upper": 2.0}
EVENT = {"agent": "a", "petal": "p", "action": "x", "start": 0.0, "end": 1.0}
NO_ACTIONS = "petals[0]: petal 'supply' has no actions"


def changed(base, **fields):
    return {**base, **fields}


def dropped(base, key):
    return {k: v for k, v in base.items() if k != key}


# Each near-valid action object, and either the canonical action it parses to
# or the complaints about it. The outcomes were recorded before the parsers
# gained their fast path for well-formed objects, which must fall through to
# exactly these messages.
ACTION_OUTCOMES = {
    "plain": (ACTION, '{"name": "fetch", "lower": 1.0, "upper": 2.0}'),
    "int lower": (changed(ACTION, lower=1), '{"name": "fetch", "lower": 1.0, "upper": 2.0}'),
    "int upper": (changed(ACTION, upper=2), '{"name": "fetch", "lower": 1.0, "upper": 2.0}'),
    "int bounds": (changed(ACTION, lower=0, upper=2),
                   '{"name": "fetch", "lower": 0.0, "upper": 2.0}'),
    "negative zero lower": (changed(ACTION, lower=-0.0),
                            '{"name": "fetch", "lower": -0.0, "upper": 2.0}'),
    "zero lower": (changed(ACTION, lower=0.0), '{"name": "fetch", "lower": 0.0, "upper": 2.0}'),
    "equal bounds": (changed(ACTION, lower=2.0, upper=2.0),
                     '{"name": "fetch", "lower": 2.0, "upper": 2.0}'),
    "true lower": (changed(ACTION, lower=True), [
        "petals[0].actions[0].lower: expected a finite number or null, got True", NO_ACTIONS]),
    "true upper": (changed(ACTION, upper=True), [
        "petals[0].actions[0].upper: expected a finite number or null, got True", NO_ACTIONS]),
    "null lower": (changed(ACTION, lower=None), [
        "petals[0].actions[0]: action 'fetch' has negative minimum duration -inf", NO_ACTIONS]),
    "null upper": (changed(ACTION, upper=None), '{"name": "fetch", "lower": 1.0, "upper": null}'),
    "missing upper": (dropped(ACTION, "upper"), '{"name": "fetch", "lower": 1.0, "upper": null}'),
    "missing lower": (dropped(ACTION, "lower"), [
        "petals[0].actions[0].lower: required", NO_ACTIONS]),
    "missing name": (dropped(ACTION, "name"), [
        "petals[0].actions[0].name: expected a non-empty string, got None", NO_ACTIONS]),
    "nan lower": (changed(ACTION, lower=math.nan), [
        "petals[0].actions[0].lower: expected a finite number or null, got nan", NO_ACTIONS]),
    "nan upper": (changed(ACTION, upper=math.nan), [
        "petals[0].actions[0].upper: expected a finite number or null, got nan", NO_ACTIONS]),
    "inf lower": (changed(ACTION, lower=math.inf), [
        "petals[0].actions[0].lower: expected a finite number or null, got inf", NO_ACTIONS]),
    "inf upper": (changed(ACTION, upper=math.inf), [
        "petals[0].actions[0].upper: expected a finite number or null, got inf", NO_ACTIONS]),
    "-inf lower": (changed(ACTION, lower=-math.inf), [
        "petals[0].actions[0].lower: expected a finite number or null, got -inf", NO_ACTIONS]),
    "big lower": (changed(ACTION, lower=BIG), [
        f"petals[0].actions[0].lower: expected a finite number or null, got {BIG}", NO_ACTIONS]),
    "big upper": (changed(ACTION, upper=BIG), [
        f"petals[0].actions[0].upper: expected a finite number or null, got {BIG}", NO_ACTIONS]),
    "negative lower": (changed(ACTION, lower=-1.0), [
        "petals[0].actions[0]: action 'fetch' has negative minimum duration -1.0", NO_ACTIONS]),
    "inverted bounds": (changed(ACTION, lower=3.0, upper=2.0), [
        "petals[0].actions[0]: action 'fetch' duration bounds [3.0, 2.0] are inverted",
        NO_ACTIONS]),
    "string lower": (changed(ACTION, lower="1"), [
        "petals[0].actions[0].lower: expected a finite number or null, got '1'", NO_ACTIONS]),
    "empty name": (changed(ACTION, name=""), [
        "petals[0].actions[0].name: expected a non-empty string, got ''", NO_ACTIONS]),
    "int name": (changed(ACTION, name=5), [
        "petals[0].actions[0].name: expected a non-empty string, got 5", NO_ACTIONS]),
    "null name": (changed(ACTION, name=None), [
        "petals[0].actions[0].name: expected a non-empty string, got None", NO_ACTIONS]),
    "extra key": (changed(ACTION, kind="x"), ["petals[0].actions[0].kind: unknown field"]),
    "swapped key": (changed(dropped(ACTION, "upper"), kind=2.0),
                    ["petals[0].actions[0].kind: unknown field"]),
    "mapping": (MappingProxyType(ACTION), '{"name": "fetch", "lower": 1.0, "upper": 2.0}'),
    "list": ([1.0, 2.0], ["petals[0].actions[0]: expected an object", NO_ACTIONS]),
}


@pytest.mark.parametrize("item, expected", ACTION_OUTCOMES.values(), ids=ACTION_OUTCOMES)
def test_each_action_field_is_checked_once(item, expected):
    doc = {"agents": [{"id": "x"}],
           "petals": [{"name": "supply", "owner": "x", "actions": [item]}]}
    if isinstance(expected, list):
        assert failures(doc) == expected
    else:
        (action,) = daisy_document(parse_daisy(doc))["petals"][0]["actions"]
        assert json.dumps(action) == expected


EVENT_JSON = '{"agent": "a", "petal": "p", "action": "x", "start": 0.0, "end": 1.0}'

#: As ``ACTION_OUTCOMES``, for near-valid event objects of a trace.
EVENT_OUTCOMES = {
    "plain": (EVENT, EVENT_JSON),
    "int start": (changed(EVENT, start=0), EVENT_JSON),
    "int end": (changed(EVENT, end=1), EVENT_JSON),
    "negative zero start": (
        changed(EVENT, start=-0.0, end=0.0),
        '{"agent": "a", "petal": "p", "action": "x", "start": -0.0, "end": 0.0}'),
    "equal times": (
        changed(EVENT, start=1.0, end=1.0),
        '{"agent": "a", "petal": "p", "action": "x", "start": 1.0, "end": 1.0}'),
    "true end": (changed(EVENT, end=True), ["events[0].end: expected a finite number, got True"]),
    "null start": (changed(EVENT, start=None),
                   ["events[0].start: expected a finite number, got None"]),
    "missing end": (dropped(EVENT, "end"), ["events[0].end: expected a finite number, got None"]),
    "missing agent": (dropped(EVENT, "agent"),
                      ["events[0].agent: expected a non-empty string, got None"]),
    "nan start": (changed(EVENT, start=math.nan),
                  ["events[0].start: expected a finite number, got nan"]),
    "nan end": (changed(EVENT, end=math.nan), ["events[0].end: expected a finite number, got nan"]),
    "inf end": (changed(EVENT, end=math.inf), ["events[0].end: expected a finite number, got inf"]),
    "-inf start": (changed(EVENT, start=-math.inf),
                   ["events[0].start: expected a finite number, got -inf"]),
    "big end": (changed(EVENT, end=BIG), [f"events[0].end: expected a finite number, got {BIG}"]),
    "inverted times": (changed(EVENT, start=2.0, end=1.0),
                       ["events[0]: event for p.x ends at 1.0 before it starts at 2.0"]),
    "string start": (changed(EVENT, start="0"),
                     ["events[0].start: expected a finite number, got '0'"]),
    "empty petal": (changed(EVENT, petal=""),
                    ["events[0].petal: expected a non-empty string, got ''"]),
    "int action": (changed(EVENT, action=3),
                   ["events[0].action: expected a non-empty string, got 3"]),
    "stranger agent": (changed(EVENT, agent="b"), ["events[0].agent: 'b' is not on the roster"]),
    "extra key": (changed(EVENT, kind="start"), ["events[0].kind: unknown field"]),
    "swapped key": (changed(dropped(EVENT, "end"), kind=1.0), [
        "events[0].kind: unknown field", "events[0].end: expected a finite number, got None"]),
    "mapping": (MappingProxyType(EVENT), EVENT_JSON),
    "list": (["a", "p", "x", 0.0, 1.0], ["events[0]: expected an event object"]),
}


@pytest.mark.parametrize("item, expected", EVENT_OUTCOMES.values(), ids=EVENT_OUTCOMES)
def test_each_event_field_is_checked_once(item, expected):
    doc = {"agents": ["a"], "events": [item]}
    if isinstance(expected, list):
        with pytest.raises(DocumentError) as excinfo:
            parse_trace(doc)
        assert excinfo.value.errors == expected
    else:
        (event,) = trace_document(parse_trace(doc))["events"]
        assert json.dumps(event) == expected


# Direct construction: what each bound or time pair gives, or what it raises.
CONSTRUCTED_ACTIONS = {
    "floats": ((1.0, 2.0), (1.0, 2.0)),
    "ints": ((1, 2), (1, 2)),
    "default upper": ((1.0,), (1.0, INF)),
    "negative zero": ((-0.0, 0.0), (-0.0, 0.0)),
    "bools": ((False, True), (False, True)),
    "nan lower": ((math.nan, 1.0), (InvertedBoundsError, "action 'a' has NaN duration bounds")),
    "nan upper": ((1.0, math.nan), (InvertedBoundsError, "action 'a' has NaN duration bounds")),
    "negative": ((-1.0, 1.0), (
        NegativeDurationError, "action 'a' has negative minimum duration -1.0")),
    "inverted": ((2.0, 1.0), (
        InvertedBoundsError, "action 'a' duration bounds [2.0, 1.0] are inverted")),
    "infinite lower": ((INF, INF), (
        InvertedBoundsError, "action 'a' minimum duration may not be infinite")),
    "-inf lower": ((-INF, 1.0), (
        NegativeDurationError, "action 'a' has negative minimum duration -inf")),
    "big ints": ((BIG, BIG * 10), (OverflowError, "int too large to convert to float")),
    "string lower": (("1", 2.0), (TypeError, "must be real number, not str")),
    "none upper": ((1.0, None), (TypeError, "must be real number, not NoneType")),
}


@pytest.mark.parametrize("bounds, expected", CONSTRUCTED_ACTIONS.values(),
                         ids=CONSTRUCTED_ACTIONS)
def test_action_bounds_raise_what_they_always_raised(bounds, expected):
    if isinstance(expected[0], type):
        kind, message = expected
        with pytest.raises(kind) as excinfo:
            Action("a", *bounds)
        assert str(excinfo.value) == message
    else:
        action = Action("a", *bounds)
        assert repr((action.lower, action.upper)) == repr(expected)


CONSTRUCTED_EVENTS = {
    "floats": ((0.0, 1.0), None),
    "ints": ((0, 1), None),
    "equal": ((1.0, 1.0), None),
    "infinite": ((-INF, INF), None),
    "nan start": ((math.nan, 1.0), (ValueError, "event times may not be NaN: nan, 1.0")),
    "nan end": ((0.0, math.nan), (ValueError, "event times may not be NaN: 0.0, nan")),
    "inverted": ((2.0, 1.0), (ValueError, "event for p.x ends at 1.0 before it starts at 2.0")),
    "big ints": ((BIG, BIG * 10), (OverflowError, "int too large to convert to float")),
    "string start": (("0", 1.0), (TypeError, "must be real number, not str")),
    "none end": ((0.0, None), (TypeError, "must be real number, not NoneType")),
}


@pytest.mark.parametrize("times, expected", CONSTRUCTED_EVENTS.values(), ids=CONSTRUCTED_EVENTS)
def test_event_times_raise_what_they_always_raised(times, expected):
    if expected is None:
        event = ExecutionEvent("a", "p", "x", *times)
        assert repr((event.start, event.end)) == repr(times)
        return
    kind, message = expected
    with pytest.raises(kind) as excinfo:
        ExecutionEvent("a", "p", "x", *times)
    assert str(excinfo.value) == message


def proxied(node, keep=None):
    """``node`` with every object a ``MappingProxyType``: no parser fast path
    takes anything but a plain dict, so this forces the full checks. The
    value ``keep`` stays as it is, so that complaints quote it alike."""
    if node is keep:
        return node
    if isinstance(node, dict):
        return MappingProxyType({k: proxied(v, keep) for k, v in node.items()})
    if isinstance(node, list):
        return [proxied(item, keep) for item in node]
    return node


def parsed(parse, document):
    """What a parse gives: the canonical document, or the complaint."""
    write = daisy_document if parse is parse_daisy else trace_document
    try:
        return "parsed", json.dumps(write(parse(document)))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), getattr(exc, "errors", str(exc))


def dropped_at(document, path):
    """``document`` without the field at ``path`` (a list item stays)."""
    out = replaced(document, path, None)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict):
        del parent[path[-1]]
    return out


def fuzz_documents():
    documents = valid_documents()
    return [
        (parse, documents[kind], path)
        for parse, kind in ((parse_daisy, "task"), (parse_trace, "trace"),
                            (parse_profiles, "profiles"))
        for path in field_paths(documents[kind])
    ]


FUZZ_CASES = fuzz_documents()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_CASES), json_values)
def test_parsers_raise_only_document_errors(case, value):
    parse, document, path = case
    try:
        parse(replaced(document, path, value))
    except DocumentError:
        pass


#: Values near what a valid constraint, action or event holds, so that the
#: fast paths' guards are probed at their edges.
near_valid = st.sampled_from([
    "Vs", "Ve", "handoff", "other", "makespan", "",
    "Seal Package.Fold Flaps.start", "Retrieve Object A.Place Object A.end",
    "Seal Package.Fold Flaps.middle", "Seal Package.Unfold.start",
    0, 1, 0.0, -0.0, 2.5, -1.0, 1e308, 10**400, math.inf, -math.inf, math.nan,
    None, True, False, "human", "robot",
])


#: Fuzz cases inside the records the parsers have a fast path for.
RECORD_CASES = [
    case for case in FUZZ_CASES
    if case[0] is not parse_profiles and len(case[2]) > 2
    and (case[2][0] in ("constraints", "events") or "actions" in case[2])
]


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(RECORD_CASES),
    st.sampled_from(["replace", "drop", "rename"]),
    near_valid | json_values,
)
def test_fast_paths_agree_with_the_full_checks(case, edit, value):
    parse, document, path = case
    if edit == "replace":
        document = replaced(document, path, value)
    else:
        document = dropped_at(document, path)
        if edit == "rename" and len(path) > 1:
            parent = document
            for key in path[:-2]:
                parent = parent[key]
            if isinstance(parent[path[-2]], dict):
                parent[path[-2]]["spare"] = value
    assert parsed(parse, document) == parsed(parse, proxied(document, keep=value))


@pytest.mark.parametrize("fields", [
    {"kind": "handoff", "lower": 0.0, "spare": None},
    {"kind": "handoff", "lower": 0.0, "upper": None},
    {"kind": "other", "lower": -0.0, "upper": 5.0},
    {"kind": "other", "lower": 0, "upper": 5},
    {"kind": "other", "lower": 1.0, "upper": math.inf},
    {"kind": "other", "lower": -math.inf, "upper": 5.0},
    {"kind": "other", "lower": math.nan, "upper": 5.0},
    {"kind": "other", "lower": 1.0, "upper": math.nan},
    {"kind": "HANDOFF", "lower": 0.0, "upper": None},
], ids=["spare field", "plain", "negative zero", "ints", "infinite upper",
        "infinite lower", "nan lower", "nan upper", "bad kind"])
def test_constraint_guard_agrees_with_the_full_checks(fields):
    constraint = {"source": "supply.fetch.end", "target": "consume.use.start", **fields}
    document = tiny_doc(constraints=[constraint])
    assert parsed(parse_daisy, document) == parsed(parse_daisy, proxied(document))


def three_events(**changes):
    events = [
        {"agent": "a", "petal": "p", "action": "x", "start": 0.0, "end": 1.0},
        {"agent": "b", "petal": "q", "action": "y", "start": 0.5, "end": 2.0},
        {"agent": "a", "petal": "p", "action": "z", "start": 1.0, "end": 1.5},
    ]
    events[1].update(changes)
    return events


@pytest.mark.parametrize("document", [
    {"agents": ["a", "b"], "events": three_events()},
    {"agents": ["a", "b"], "events": three_events(start=-0.5)},
    {"agents": ["a", "b"], "events": three_events(start=0.0, end=0.0)},
    {"agents": ["a", "b"], "events": three_events(start=1.25)},
    {"agents": ["a", "b"], "start_time": 0.25, "events": three_events()},
    {"agents": ["a", "b"], "start_time": 0.75, "events": three_events()},
    {"agents": ["a", "b"], "start_time": "soon", "events": three_events()},
    {"agents": ["a"], "events": three_events()},
    {"agents": [], "events": three_events()},
    {"agents": ["a", ""], "events": three_events(agent="")},
    {"agents": ["a", "b"], "events": three_events(end=0.25)},
], ids=["plain", "backwards", "zero length", "overtakes the next", "start_time",
        "before start_time", "bad start_time", "off the roster", "no roster",
        "empty agent", "inverted"])
def test_event_guard_agrees_with_the_full_checks(document):
    assert parsed(parse_trace, document) == parsed(parse_trace, proxied(document))


# -- records written straight from their fields -------------------------------

#: Names that need escaping: non-ASCII letters, a quote, a backslash, control characters.
RECORD_NAMES = st.text(st.sampled_from('aé"\\\x00\x1f\n😀'), min_size=1, max_size=3)
#: Signed zeros, the smallest subnormal, near-overflow, non-finite, ints and plain floats.
RECORD_NUMBERS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan,
                     1.0, 2.5]),
    st.integers(-3, 3),
    st.floats(),
)


def written(record, dict_form):
    """``dump_document`` of the record and of its dict form, each text or complaint."""
    out = []
    for document in (record, dict_form(record)):
        try:
            out.append(dump_document(document))
        except DocumentError as exc:
            out.append(f"DocumentError: {exc}")
    return out


def assert_written_as_its_dict_form(record, dict_form):
    direct, reference = written(record, dict_form)
    assert direct == reference
    if not direct.startswith("DocumentError: "):
        assert direct == json.dumps(dict_form(record), indent=2, allow_nan=False) + "\n"


@st.composite
def record_traces(draw):
    """Trace documents built through the API: any roster, ties only names break."""
    names = st.sampled_from(draw(st.lists(RECORD_NAMES, min_size=1, max_size=3)))
    times = st.sampled_from(draw(st.lists(RECORD_NUMBERS, min_size=1, max_size=3)))
    events = []
    for agent, petal, action, one, other in draw(st.lists(
        st.tuples(names, names, names, times, times), max_size=6
    )):
        try:
            events.append(ExecutionEvent(agent, petal, action, *sorted((one, other))))
        except ValueError:  # a NaN time
            continue
    trace = Trace(
        events=tuple(draw(st.permutations(events))),
        agents=tuple(draw(st.lists(names, max_size=3))),
        seed=draw(st.one_of(st.integers(), st.integers(2**64, 2**70), st.booleans())),
        feasible=draw(st.booleans()),
        start_time=draw(RECORD_NUMBERS),
    )
    return TraceDocument(trace, daisy=draw(st.none() | RECORD_NAMES),
                         comments=draw(st.none() | st.text(max_size=4)))


TIED = Trace(events=(
    ExecutionEvent("r", "p", "b", 1.0, 2.0), ExecutionEvent("h", "p", "b", 1.0, 2.0),
    ExecutionEvent("h", "p", "a", 1.0, 2.0), ExecutionEvent("h", "o", "c", 1.0, 2.0),
), agents=("h", "r"), seed=0, feasible=True)


@settings(max_examples=500, deadline=None)
@given(record_traces())
@example(TraceDocument(TIED))
@example(TraceDocument(Trace(events=(), agents=(), seed=-1, feasible=False, start_time=3)))
@example(TraceDocument(Trace(events=(ExecutionEvent("h", "p", "a", 0, 1),), agents=("h",),
                             seed=2**70, feasible=True)))
@example(TraceDocument(Trace(events=(ExecutionEvent("h", "p", "a", 0.0, math.inf),),
                             agents=("h",), seed=0, feasible=True)))
# An agent id that is not a str cannot be escaped as a name: the dict form writes it.
@example(TraceDocument(Trace(events=(ExecutionEvent(1, "p", "a", 0.0, 1.0),), agents=(1,),
                             seed=0, feasible=True)))
# An int past the largest float has no finite float value: the dict form writes it.
@example(TraceDocument(Trace(events=(), agents=("h",), seed=0, feasible=True,
                             start_time=10**400)))
def test_trace_records_are_written_as_their_dict_form(doc):
    assert_written_as_its_dict_form(doc, trace_document)


@st.composite
def interval_sets(draw):
    ends = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-0.0, -math.inf, math.inf]))
    return IntervalSet.from_pairs(draw(st.lists(st.tuples(ends, ends), max_size=3)))


@st.composite
def built_reports(draw):
    """Reports built through the API: any figure, int measures, empty sets, one agent twice."""
    names = st.sampled_from(draw(st.lists(RECORD_NAMES, min_size=1, max_size=3)))
    agents = (draw(names), draw(names))
    return FluencyReport(
        agents=agents,
        window_start=draw(RECORD_NUMBERS),
        window_end=draw(RECORD_NUMBERS),
        makespan=draw(RECORD_NUMBERS),
        idle=tuple(IdleBreakdown(agent, *(draw(interval_sets()) for _ in range(3)))
                   for agent in agents),
        concurrent_activity=draw(interval_sets()),
        concurrent_inactivity=draw(interval_sets()),
        sole_activity={agent: draw(interval_sets()) for agent in agents},
        petal_delays=tuple(draw(st.lists(
            st.builds(PetalDelay, names, names, names, RECORD_NUMBERS), max_size=2
        ))),
        delay_by_agent={agent: draw(RECORD_NUMBERS) for agent in agents},
        handoffs=tuple(draw(st.lists(st.builds(
            HandoffDelays, names, names, names, names, names, names,
            *(RECORD_NUMBERS for _ in range(5)), st.sampled_from(HandoffState),
        ), max_size=2))),
    )


#: A report whose first agent id is the int 1, which only the dict form can write.
NUMBERED = FluencyReport(
    agents=(1, "h"), window_start=0.0, window_end=1.0, makespan=1.0,
    idle=tuple(IdleBreakdown(agent, IntervalSet(), IntervalSet(), IntervalSet())
               for agent in (1, "h")),
    concurrent_activity=IntervalSet.from_pairs([(0.0, 1.0)]),
    concurrent_inactivity=IntervalSet(), sole_activity={1: IntervalSet(), "h": IntervalSet()},
    petal_delays=(PetalDelay("p", "q", 1, 0.5),), delay_by_agent={1: 0.5, "h": 0.0},
    handoffs=(),
)


@settings(max_examples=500, deadline=None)
@given(built_reports())
@example(NUMBERED)
def test_built_reports_are_written_as_their_dict_form(report):
    assert_written_as_its_dict_form(report, report_document)


def test_a_report_whose_interval_measure_overflows_names_the_figure(packaging):
    report = fluency_report(packaging.daisy, simulate(packaging.daisy))
    report = replace(report, concurrent_activity=IntervalSet.from_pairs([(-1.7e308, 1.7e308)]))
    with pytest.raises(DocumentError) as excinfo:
        dump_document(report)
    assert str(excinfo.value) == "concurrent_activity.seconds: inf is not a finite number"


@settings(max_examples=500, deadline=None)
@given(sweep_traces())
def test_reports_of_two_agent_traces_are_written_as_their_dict_form(trace):
    assert_written_as_its_dict_form(fluency_report(daisy_of(trace), trace), report_document)


def test_records_are_written_without_their_dict_form(packaging, monkeypatch):
    # A simulated trace and its report hold only plain names and finite
    # floats, so neither record needs its dict form to be written.
    trace = simulate(packaging.daisy, seed=3)
    doc = TraceDocument(trace, daisy="packaging.daisy.json", comments="é")
    report = fluency_report(packaging.daisy, trace)
    expected = [dump_document(trace_document(doc)), dump_document(report_document(report))]

    def refused(_):
        raise AssertionError("the dict form was built")

    monkeypatch.setattr(madtn_files, "trace_document", refused)
    monkeypatch.setattr(madtn_files, "report_document", refused)
    assert [dump_document(doc), dump_document(report)] == expected


def test_a_broken_template_raises_instead_of_taking_the_dict_form(packaging, monkeypatch):
    # Only escaping a name that is not a str sends a record to its dict form;
    # a formatting error of the writer's own must show.
    trace = simulate(packaging.daisy, seed=3)
    report = fluency_report(packaging.daisy, trace)
    template = madtn_files._template
    monkeypatch.setattr(madtn_files, "_template", lambda keys, pad: template(keys[:-1], pad))
    for record in (TraceDocument(trace), report):
        with pytest.raises(TypeError, match="not all arguments converted"):
            dump_document(record)
