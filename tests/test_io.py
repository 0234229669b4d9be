"""Document parsing, canonical serialization, and file round trips."""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from madtn import (
    GLOBAL_END_TOKEN,
    GLOBAL_START_TOKEN,
    INF,
    BehaviorProfile,
    ConstraintKind,
    DocumentError,
    DurationMode,
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
    assert any("constraints[0].source" in e for e in failures(bad_shape))

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
