"""Execution semantics: punctual runs, sampling, anticipation, validation.

The packaged task's trace documents for three profile sets and seeds 0-4
are recorded in ``tests/golden/`` and must come out byte for byte. After an
intended change to simulation output, regenerate them with
``PYTHONPATH=src python tests/test_simulator.py``.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from madtn import (
    INF,
    Agent,
    BehaviorProfile,
    ConstraintKind,
    CoverageError,
    Daisy,
    DeadlockError,
    DurationMode,
    ExecutionEvent,
    ExternalConstraint,
    InconsistentOrderingError,
    Trace,
    build_action,
    build_petal,
    compile_to_stn,
    earliest_schedule,
    handoff_constraints,
    simulate,
    validate_trace,
)
from madtn.files import (
    TraceDocument,
    dump_document,
    load_packaged_example,
    packaged_example_path,
    parse_daisy,
    trace_document,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def punctual_earliest_run(daisy):
    """A punctual run, checked against the earliest schedule and the network."""
    trace = simulate(daisy)
    schedule = earliest_schedule(compile_to_stn(daisy))
    for petal in daisy.petals:
        for action in petal.actions:
            event = trace.event_of(petal.name, action.name)
            assert event.start == pytest.approx(schedule[action.start], abs=1e-9)
            assert event.end == pytest.approx(schedule[action.end], abs=1e-9)
    assert trace.feasible
    assert validate_trace(daisy, trace) == []
    return trace


def test_punctual_run_matches_the_earliest_schedule(packaging):
    trace = punctual_earliest_run(packaging.daisy)
    assert trace.makespan == pytest.approx(7.5)


def test_events_come_out_sorted_and_queryable(packaging):
    trace = simulate(packaging.daisy, seed=5)
    starts = [e.start for e in trace.events]
    assert starts == sorted(starts)
    assert len(trace.events) == 17  # one event per action
    assert len(trace.events_of("human")) == 9
    assert len(trace.events_of("robot")) == 8
    assert trace.time_of("Seal Package", "Fold Flaps", "start") < trace.time_of(
        "Seal Package", "Fold Flaps", "end"
    )
    with pytest.raises(KeyError):
        trace.event_of("Seal Package", "Shrink Wrap")
    with pytest.raises(KeyError):
        trace.time_of("Seal Package", "Fold Flaps", "middle")


def busy_profiles():
    return {
        "human": BehaviorProfile(
            duration_mode=DurationMode.UNIFORM, reaction_delay=0.6
        ),
        "robot": BehaviorProfile(
            duration_mode=DurationMode.TRUNCATED_NORMAL, reaction_delay=0.3
        ),
    }


def golden_profiles() -> dict[str, dict[str, BehaviorProfile]]:
    eager = BehaviorProfile(
        duration_mode=DurationMode.UNIFORM,
        reaction_delay=0.2,
        anticipation_probability=0.5,
        anticipation_offset=2.0,
    )
    return {
        "punctual": {},
        "busy": busy_profiles(),
        "eager": {"human": eager, "robot": eager},
    }


def golden_text(daisy, profile: str, seed: int) -> str:
    trace = simulate(daisy, profiles=golden_profiles()[profile], seed=seed)
    document = TraceDocument(trace=trace, daisy="packaging.daisy.json")
    return dump_document(trace_document(document))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("profile", ["punctual", "busy", "eager"])
def test_simulate_reproduces_its_recorded_traces(packaging, profile, seed):
    expected = (GOLDEN / f"packaging-{profile}-{seed}.json").read_bytes()
    assert golden_text(packaging.daisy, profile, seed).encode() == expected


def test_release_times_hold_actions_back():
    data = json.loads(packaged_example_path().read_text())
    release = next(c for c in data["constraints"] if c["source"] == "Vs")
    release["lower"] = 3.0
    trace = punctual_earliest_run(parse_daisy(data).daisy)
    assert trace.time_of("Prepare and Pack Object B", "Wrap Object B", "start") == 3.0


def test_traces_are_reproducible_bit_for_bit(packaging):
    daisy = packaging.daisy
    first = simulate(daisy, profiles=busy_profiles(), seed=42)
    second = simulate(daisy, profiles=busy_profiles(), seed=42)
    assert first.events == second.events
    assert first.feasible == second.feasible
    other = simulate(daisy, profiles=busy_profiles(), seed=43)
    assert other.events != first.events


def test_sampled_durations_stay_inside_the_action_bounds(packaging):
    daisy = packaging.daisy
    for mode in (DurationMode.UNIFORM, DurationMode.TRUNCATED_NORMAL):
        profiles = {
            "human": BehaviorProfile(duration_mode=mode),
            "robot": BehaviorProfile(duration_mode=mode),
        }
        for seed in range(5):
            trace = simulate(daisy, profiles=profiles, seed=seed)
            for petal in daisy.petals:
                for action in petal.actions:
                    event = trace.event_of(petal.name, action.name)
                    assert action.lower <= event.end - event.start <= action.upper


def test_lower_bound_mode_never_draws(packaging):
    daisy = packaging.daisy
    trace = simulate(daisy, seed=123)
    for petal in daisy.petals:
        for action in petal.actions:
            event = trace.event_of(petal.name, action.name)
            assert event.end == event.start + action.lower


def test_normal_fractions_pin_the_draw_when_spread_is_zero():
    work = build_action("work", 1.0, 5.0)
    daisy = Daisy(
        agents=(Agent("x"),),
        petals=(build_petal("p", [work], owner="x"),),
    )
    for fraction, expected in ((0.0, 1.0), (0.5, 3.0), (1.0, 5.0)):
        profile = BehaviorProfile(
            duration_mode=DurationMode.TRUNCATED_NORMAL,
            mean_fraction=fraction,
            stddev_fraction=0.0,
        )
        trace = simulate(daisy, profiles={"x": profile}, seed=4)
        event = trace.event_of("p", "work")
        assert event.end == event.start + expected


def test_unbounded_actions_run_at_their_minimum_even_when_sampling():
    open_ended = build_action("hold", 2.0)  # no upper bound
    petal = build_petal("watch", [open_ended], owner="x")
    daisy = Daisy(agents=(Agent("x"),), petals=(petal,))
    profile = BehaviorProfile(duration_mode=DurationMode.UNIFORM)
    trace = simulate(daisy, profiles={"x": profile}, seed=1)
    assert trace.time_of("watch", "hold", "end") == 2.0


def test_reaction_delays_shift_starts_without_breaking_feasibility(packaging):
    daisy = packaging.daisy
    trace = simulate(daisy, profiles=busy_profiles(), seed=11)
    assert trace.feasible
    assert validate_trace(daisy, trace) == []
    assert trace.makespan > 7.5


def test_anticipation_violates_the_handoff_and_is_flagged(packaging):
    daisy = packaging.daisy
    eager = BehaviorProfile(anticipation_probability=1.0, anticipation_offset=2.0)
    trace = simulate(daisy, profiles={"human": eager, "robot": eager}, seed=2)
    assert not trace.feasible

    # The receiver of the first handoff starts before the product exists.
    produced = trace.time_of("Retrieve Object A", "Place Object A", "end")
    consumed = trace.time_of("Pack Object A", "Move to Object A", "start")
    assert consumed < produced

    violated = validate_trace(daisy, trace)
    handoff_pairs = {
        (link.constraint.source, link.constraint.target)
        for link in handoff_constraints(daisy)
    }
    assert any((c.source, c.target) in handoff_pairs for c in violated)


def test_explicit_ordering_reshuffles_each_agents_queue(packaging):
    daisy = packaging.daisy
    order = ["Retrieve Object A", "Pack Object A", "Prepare and Pack Object B",
             "Pack Object C", "Seal Package", "Deliver Package"]
    trace = simulate(daisy, ordering=order)
    # The robot now fetches A into the box before wrapping B.
    assert trace.time_of("Pack Object A", "Move to Object A", "start") == pytest.approx(3.0)
    assert trace.time_of("Prepare and Pack Object B", "Wrap Object B", "start") == pytest.approx(5.0)
    assert trace.makespan == pytest.approx(9.0)
    assert trace.feasible
    assert validate_trace(daisy, trace, ordering=order) == []


def test_agents_missing_from_profiles_run_punctually(packaging):
    daisy = packaging.daisy
    slow_human = {"human": BehaviorProfile(reaction_delay=1.0)}
    trace = simulate(daisy, profiles=slow_human, seed=3)
    punctual = simulate(daisy, seed=3)
    # The robot's opening petal does not depend on the human at all.
    for action in ("Wrap Object B", "Place B in Box"):
        assert trace.event_of("Prepare and Pack Object B", action) == punctual.event_of(
            "Prepare and Pack Object B", action
        )
    assert trace.time_of("Retrieve Object A", "Walk to Shelf", "start") > 0.0


def test_substreams_keep_agents_independent():
    actions = lambda tag: [build_action(f"work-{tag}", 1.0, 5.0)]
    daisy = Daisy(
        agents=(Agent("x"), Agent("y")),
        petals=(
            build_petal("px", actions("x"), owner="x"),
            build_petal("py", actions("y"), owner="y"),
        ),
    )
    uniform = BehaviorProfile(duration_mode=DurationMode.UNIFORM)
    jittery = BehaviorProfile(
        duration_mode=DurationMode.TRUNCATED_NORMAL, reaction_delay=2.0
    )
    before = simulate(daisy, profiles={"x": uniform, "y": uniform}, seed=9)
    after = simulate(daisy, profiles={"x": uniform, "y": jittery}, seed=9)
    assert before.events_of("x") == after.events_of("x")
    assert before.events_of("y") != after.events_of("y")


def test_mutual_handoffs_deadlock_with_a_named_cycle():
    a1 = build_action("a1", 1.0)
    b1 = build_action("b1", 1.0)
    p = build_petal("p", [a1], owner="x")
    q = build_petal("q", [b1], owner="y")
    base = Daisy(agents=(Agent("x"), Agent("y")), petals=(p, q))
    daisy = Daisy(
        agents=base.agents,
        petals=base.petals,
        constraints=(
            ExternalConstraint(ConstraintKind.HANDOFF, a1.end, b1.start, 0.0, INF),
            ExternalConstraint(ConstraintKind.HANDOFF, b1.end, a1.start, 0.0, INF),
        ),
        start=base.start,
        end=base.end,
    )
    with pytest.raises(DeadlockError) as excinfo:
        simulate(daisy)
    message = str(excinfo.value)
    assert "p.a1" in message and "q.b1" in message


def doctored(trace, events):
    return Trace(
        events=tuple(events),
        agents=trace.agents,
        seed=trace.seed,
        feasible=trace.feasible,
        start_time=trace.start_time,
    )


def test_validate_trace_rejects_incomplete_coverage(packaging):
    daisy = packaging.daisy
    trace = simulate(daisy)
    with pytest.raises(CoverageError) as excinfo:
        validate_trace(daisy, doctored(trace, trace.events[:-1]))
    assert excinfo.value.missing
    assert not excinfo.value.extra


def test_validate_trace_rejects_duplicate_events(packaging):
    daisy = packaging.daisy
    trace = simulate(daisy)
    padded = (trace.events[0],) + trace.events
    with pytest.raises(CoverageError) as excinfo:
        validate_trace(daisy, doctored(trace, padded))
    assert excinfo.value.extra


def test_validate_trace_rejects_misattributed_events(packaging):
    daisy = packaging.daisy
    trace = simulate(daisy)
    swapped = list(trace.events)
    victim = swapped[0]
    swapped[0] = ExecutionEvent(
        agent="robot" if victim.agent == "human" else "human",
        petal=victim.petal,
        action=victim.action,
        start=victim.start,
        end=victim.end,
    )
    with pytest.raises(CoverageError) as excinfo:
        validate_trace(daisy, doctored(trace, swapped))
    assert excinfo.value.extra and excinfo.value.missing


def test_validate_trace_rejects_time_regressions(packaging):
    daisy = packaging.daisy
    trace = simulate(daisy)
    backwards = tuple(reversed(trace.events))
    with pytest.raises(InconsistentOrderingError):
        validate_trace(daisy, doctored(trace, backwards))


def test_profile_argument_validation():
    with pytest.raises(ValueError):
        BehaviorProfile(reaction_delay=-0.1)
    with pytest.raises(ValueError):
        BehaviorProfile(anticipation_probability=1.5)
    with pytest.raises(ValueError):
        BehaviorProfile(anticipation_offset=-1.0)
    with pytest.raises(ValueError):
        BehaviorProfile(duration_mode="gamma")
    with pytest.raises(ValueError):
        BehaviorProfile(mean_fraction=1.2)
    with pytest.raises(ValueError):
        BehaviorProfile(stddev_fraction=-0.5)


def test_events_must_run_forward():
    with pytest.raises(ValueError):
        ExecutionEvent(agent="x", petal="p", action="a", start=2.0, end=1.0)
    with pytest.raises(ValueError):
        ExecutionEvent(agent="x", petal="p", action="a", start=float("nan"), end=1.0)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    task = load_packaged_example().daisy
    for name in golden_profiles():
        for run in range(5):
            (GOLDEN / f"packaging-{name}-{run}.json").write_text(golden_text(task, name, run))
