"""Execution semantics: punctual runs, sampling, anticipation, validation.

The packaged task's trace documents for three profile sets and seeds 0-4
are recorded in ``tests/golden/``, as is ``lanes/runs.json``: runs of a two-lane
task under every duration mode, an explicit ordering and both kinds of
transition. All must come out byte for byte. After an intended change to
simulation output, regenerate them with
``PYTHONPATH=src python tests/test_simulator.py``.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from madtn import (
    INF,
    Action,
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
    UnknownAgentError,
    build_action,
    build_petal,
    check_schedule,
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
    load_trace,
    packaged_example_path,
    parse_daisy,
    trace_document,
)
from madtn.simulate import realized_times
from oracles import reference_simulate

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


def _lane_actions(*bounds):
    return [
        {"name": name, "lower": lower, "upper": upper}
        for name, (lower, upper) in zip("abc", bounds)
    ]


#: Two lanes with handoffs both ways (two of them into ``R2.a``), a release
#: from ``Vs`` and a wait after an action end, both with positive lower
#: bounds, a deadline and a negative lower bound that hold nothing back,
#: and bounded, degenerate and unbounded actions.
LANES = {
    "agents": [{"id": "human"}, {"id": "robot"}],
    "petals": [
        {"name": "H0", "owner": "human", "actions": _lane_actions((1.0, 2.0), (0.5, 1.5))},
        {"name": "R0", "owner": "robot", "actions": _lane_actions((1.0, 3.0), (0.25, None))},
        {"name": "H1", "owner": "human", "actions": _lane_actions((0.75, 1.25), (1.0, 1.0))},
        {"name": "R1", "owner": "robot", "actions": _lane_actions((0.5, 2.5), (1.0, 2.0))},
        {"name": "H2", "owner": "human", "actions": _lane_actions((1.0, 2.0))},
        {"name": "R2", "owner": "robot", "actions": _lane_actions((1.0, 2.0))},
    ],
    "constraints": [
        {"kind": "handoff", "source": "R0.b.end", "target": "H1.a.start"},
        {"kind": "handoff", "source": "H0.b.end", "target": "R1.a.start"},
        {"kind": "handoff", "source": "R1.b.end", "target": "H2.a.start"},
        {"kind": "handoff", "source": "H1.b.end", "target": "R2.a.start"},
        {"kind": "handoff", "source": "H0.b.end", "target": "R2.a.start"},
        {"kind": "other", "source": "Vs", "target": "R0.a.start", "lower": 0.8},
        {"kind": "other", "source": "H0.a.end", "target": "R1.b.start", "lower": 1.5},
        {"kind": "other", "source": "Vs", "target": "H2.a.end", "lower": None, "upper": 40.0},
        {"kind": "other", "source": "R0.a.start", "target": "H0.b.start", "lower": -1.0},
    ],
}

#: (ordering, transition) per configuration of the lanes runs.
LANES_CONFIGS = {
    "ordered": (("R0", "H1", "H0", "R1", "H2", "R2"), 0.5),
    "mapped": (None, {"human": 0.25, "robot": 0.75}),
}


def lanes_profiles() -> dict[str, dict[str, BehaviorProfile]]:
    return {
        "lower": {
            "human": BehaviorProfile(
                reaction_delay=0.4, anticipation_probability=1.0, anticipation_offset=0.75
            ),
            "robot": BehaviorProfile(anticipation_probability=0.5),
        },
        "mixed": {
            "human": BehaviorProfile(
                duration_mode=DurationMode.UNIFORM, reaction_delay=0.3,
                anticipation_probability=0.5, anticipation_offset=1.0,
            ),
            "robot": BehaviorProfile(
                duration_mode=DurationMode.TRUNCATED_NORMAL, reaction_delay=0.2,
                anticipation_probability=0.7, anticipation_offset=0.5,
                mean_fraction=0.4, stddev_fraction=0.3,
            ),
        },
        "swapped": {
            "human": BehaviorProfile(
                duration_mode=DurationMode.TRUNCATED_NORMAL, mean_fraction=0.7,
                stddev_fraction=0.25, anticipation_probability=0.3,
                anticipation_offset=2.0,
            ),
            "robot": BehaviorProfile(duration_mode=DurationMode.UNIFORM, reaction_delay=0.5),
        },
    }


def lanes_text() -> str:
    daisy = parse_daisy(LANES).daisy
    runs = {}
    for profile, profiles in lanes_profiles().items():
        for config, (ordering, transition) in LANES_CONFIGS.items():
            for seed in range(3):
                trace = simulate(daisy, profiles=profiles, seed=seed,
                                 ordering=ordering, transition_lower=transition)
                runs[f"{profile}/{config}/{seed}"] = trace_document(TraceDocument(trace=trace))
    return dump_document(runs)


def test_simulate_reproduces_its_recorded_lanes_runs():
    assert lanes_text().encode() == (GOLDEN / "lanes" / "runs.json").read_bytes()


def random_daisy(rng, shape: str) -> Daisy:
    """Lanes (each agent's petals declared in turn) or a chain (owners
    alternating), with random handoffs, gates and deadlines; some waits
    form a cycle."""
    agents = tuple(Agent(f"g{k}") for k in range(rng.randint(2, 3)))
    count = rng.randint(2, 6)
    owners = (
        [agents[k % len(agents)].id for k in range(count)] if shape == "chain"
        else sorted(rng.choice(agents).id for _ in range(count))
    )
    petals = []
    for k, owner in enumerate(owners):
        actions = []
        for j in range(rng.randint(1, 3)):
            lower = rng.choice((0.0, 0.5, 1.0, 1.25))
            upper = rng.choice((lower, lower + 0.75, lower + 2.0, INF))
            actions.append(build_action(f"a{j}", lower, upper))
        petals.append(build_petal(f"P{k}", actions, owner=owner))
    base = Daisy(agents=agents, petals=tuple(petals))
    vertices = [v for p in petals for a in p.actions for v in (a.start, a.end)]
    constraints = []
    for _ in range(rng.randint(0, count)):
        # Mostly forward in declaration order, so that most tasks can run.
        source, target = sorted(rng.sample(petals, 2), key=petals.index,
                                reverse=rng.random() < 0.1)
        constraints.append(ExternalConstraint(
            ConstraintKind.HANDOFF, rng.choice(source.actions).end,
            rng.choice(target.actions).start, 0.0, INF,
        ))
    for _ in range(rng.randint(0, 3)):
        source = rng.choice([base.start] + vertices)
        target = rng.choice(vertices)
        lower = rng.choice((-1.0, 0.0, 0.5, 1.5))
        constraints.append(ExternalConstraint(
            ConstraintKind.OTHER, source, target, lower, rng.choice((lower + 3.0, INF)),
        ))
    if rng.random() < 0.3:
        constraints.append(ExternalConstraint(
            ConstraintKind.MAKESPAN, base.start, base.end, 0.0, rng.choice((4.0, 40.0)),
        ))
    return Daisy(agents=agents, petals=base.petals, constraints=tuple(constraints),
                 start=base.start, end=base.end)


def random_profile(rng) -> BehaviorProfile:
    return BehaviorProfile(
        duration_mode=rng.choice(list(DurationMode)),
        reaction_delay=rng.choice((0.0, 0.0, 0.4)),
        anticipation_probability=rng.choice((0.0, 0.5, 1.0)),
        anticipation_offset=rng.choice((0.0, 0.75)),
        mean_fraction=rng.choice((0.0, 0.5, 0.8)),
        stddev_fraction=rng.choice((0.0, 1 / 6, 0.5)),
    )


def outcome(run, *args, **kwargs):
    """What a simulation gives: its events and verdict, or its exception."""
    try:
        trace = run(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return trace.events, trace.feasible, trace.agents, trace.seed


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["lanes", "chain"]))
def test_planned_runs_equal_the_reference_loop(rng, shape):
    daisy = random_daisy(rng, shape)
    names = [p.name for p in daisy.petals]
    orderings = [None, rng.sample(names, len(names)), rng.sample(names, len(names))]
    agent_ids = [a.id for a in daisy.agents]
    transitions = [0.0, rng.choice((0.5, 1.25)),
                   {a: rng.choice((0.0, 0.25, 1.0)) for a in rng.sample(agent_ids, 2)}]
    profiles = {a: random_profile(rng) for a in agent_ids if rng.random() < 0.8}
    # Calls alternate between orderings on one task, so a plan kept for one
    # ordering is asked for again after another's.
    for _ in range(2):
        for ordering in orderings:
            seed = rng.randrange(1000)
            transition = rng.choice(transitions)
            kwargs = dict(profiles=profiles, seed=seed, ordering=ordering,
                          transition_lower=transition)
            expected = outcome(reference_simulate, daisy, **kwargs)
            assert outcome(simulate, daisy, **kwargs) == expected


def test_the_reference_loop_reproduces_the_recorded_runs(packaging):
    daisy = parse_daisy(LANES).daisy
    profiles = lanes_profiles()["mixed"]
    ordering, transition = LANES_CONFIGS["ordered"]
    recorded = json.loads((GOLDEN / "lanes" / "runs.json").read_text())["mixed/ordered/1"]
    trace = reference_simulate(daisy, profiles=profiles, seed=1, ordering=ordering,
                               transition_lower=transition)
    assert trace_document(TraceDocument(trace=trace)) == recorded
    for seed in range(3):
        assert (reference_simulate(packaging.daisy, profiles=busy_profiles(), seed=seed)
                == simulate(packaging.daisy, profiles=busy_profiles(), seed=seed))


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


def test_a_wait_cycle_through_a_petal_is_named_in_full():
    # x1 waits 0.5 s after y1 ends, y1 waits for x2's product, and x2 comes
    # after x1 in its petal; z1 is free and runs.
    x1, x2 = build_action("x1", 1.0), build_action("x2", 1.0)
    y1, z1 = build_action("y1", 1.0), build_action("z1", 1.0)
    base = Daisy(
        agents=(Agent("x"), Agent("y"), Agent("z")),
        petals=(
            build_petal("p", [x1, x2], owner="x"),
            build_petal("q", [y1], owner="y"),
            build_petal("r", [z1], owner="z"),
        ),
    )
    daisy = Daisy(
        agents=base.agents,
        petals=base.petals,
        constraints=(
            ExternalConstraint(ConstraintKind.OTHER, y1.end, x1.start, 0.5, INF),
            ExternalConstraint(ConstraintKind.HANDOFF, x2.end, y1.start, 0.0, INF),
            ExternalConstraint(ConstraintKind.OTHER, z1.end, y1.start, 0.0, INF),
        ),
        start=base.start,
        end=base.end,
    )
    with pytest.raises(DeadlockError) as excinfo:
        simulate(daisy)
    assert str(excinfo.value) == "deadlocked waiting cycle: p.x1 -> q.y1 -> p.x2 -> p.x1"
    assert excinfo.value.cycle == ["p.x1", "q.y1", "p.x2", "p.x1"]


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


def count_compiles(monkeypatch):
    """Count the compiles ``simulate`` and ``validate_trace`` ask for."""
    module = importlib.import_module("madtn.simulate")
    calls = Counter()
    compile_ = module.compile_to_stn

    def counted(daisy, *args, **kwargs):
        calls[daisy] += 1
        return compile_(daisy, *args, **kwargs)

    monkeypatch.setattr(module, "compile_to_stn", counted)
    return calls


def test_one_network_serves_every_run_and_check(packaging, monkeypatch):
    daisy = packaging.daisy
    calls = count_compiles(monkeypatch)
    traces = [simulate(daisy, profiles=busy_profiles(), seed=seed) for seed in range(10)]
    assert validate_trace(daisy, traces[-1]) == []
    assert calls == {daisy: 1}

    simulate(daisy, seed=0, transition_lower=0.5)
    simulate(daisy, seed=1, transition_lower=0.5)
    assert calls == {daisy: 2}
    order = ["Retrieve Object A", "Pack Object A", "Prepare and Pack Object B",
             "Pack Object C", "Seal Package", "Deliver Package"]
    simulate(daisy, ordering=order)
    assert validate_trace(daisy, simulate(daisy, ordering=tuple(order)), ordering=order) == []
    assert calls == {daisy: 3}

    # Another task, even one with the same petals, compiles its own.
    other = daisy.with_petals(daisy.petals)
    simulate(other)
    assert calls == {daisy: 3, other: 1}


def test_a_network_a_caller_extends_changes_no_later_verdict(packaging):
    daisy = packaging.daisy
    ran = daisy.with_petals(daisy.petals)
    simulate(ran, seed=2)  # its network is kept before the caller compiles
    for task in (daisy, ran):
        stn = compile_to_stn(task)
        # A 1 s deadline that every run of the 7.5 s task misses.
        stn.constrain(task.start, task.end, 0.0, 1.0)
        trace = simulate(task, seed=2)
        assert check_schedule(stn, realized_times(task, trace))
        assert trace.feasible
        assert validate_trace(task, trace) == []
        assert compile_to_stn(task) is not stn


def test_profiles_must_name_declared_agents(packaging):
    ghost = {"ghost": BehaviorProfile(duration_mode=DurationMode.UNIFORM)}
    with pytest.raises(UnknownAgentError, match="'ghost'"):
        simulate(packaging.daisy, profiles=ghost)
    typo = {"robot": BehaviorProfile(), "humna": BehaviorProfile()}
    with pytest.raises(UnknownAgentError, match="'humna'"):
        simulate(packaging.daisy, profiles=typo)


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


@pytest.mark.parametrize("field", ["reaction_delay", "anticipation_offset", "stddev_fraction"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_profile_times_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        BehaviorProfile(**{field: value})


def test_a_negative_profile_time_keeps_its_message():
    with pytest.raises(ValueError) as raised:
        BehaviorProfile(reaction_delay=-0.5)
    assert str(raised.value) == "reaction_delay must be >= 0, got -0.5"


def test_events_must_run_forward():
    with pytest.raises(ValueError):
        ExecutionEvent(agent="x", petal="p", action="a", start=2.0, end=1.0)
    with pytest.raises(ValueError):
        ExecutionEvent(agent="x", petal="p", action="a", start=float("nan"), end=1.0)


def test_a_bell_far_wider_than_its_bounds_still_draws_inside_them(tmp_path):
    # Redrawing alone lands inside an action's bounds about once in 2.5e9
    # tries here; the run must end anyway, and every draw stay in bounds.
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps({"human": {"duration_mode": "truncated_normal",
                                              "stddev_fraction": 1e9}}))
    source = str(Path(importlib.import_module("madtn").__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "madtn", "simulate", str(packaged_example_path()), "--seed", "1",
         "--profiles", str(profiles), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": source},
    )
    assert done.returncode == 0, done.stderr
    daisy = load_packaged_example().daisy
    bounds = {(p.name, a.name): (a.lower, a.upper) for p in daisy.petals for a in p.actions}
    human = [e for e in load_trace(tmp_path / "trace-1.json").trace.events if e.agent == "human"]
    assert human
    for event in human:
        lower, upper = bounds[event.petal, event.action]
        assert lower - 1e-9 <= event.end - event.start <= upper + 1e-9


def test_a_bell_flat_over_the_bounds_draws_uniformly_inside_them():
    # With a standard deviation of 1e300 s both bounds of [1, 2] sit at the
    # bell's middle, where its CDF reads 0.5 at float precision.
    module = importlib.import_module("madtn.simulate")
    profile = BehaviorProfile(duration_mode="truncated_normal", stddev_fraction=1e300)

    def draws():
        rng = random.Random(5)
        return [module._draw_duration(Action("a", 1.0, 2.0), profile, rng) for _ in range(40)]

    first = draws()
    assert draws() == first
    assert all(1.0 <= d <= 2.0 for d in first)
    assert min(first) < 1.25 and max(first) > 1.75  # spread, not the mean alone


@pytest.mark.parametrize("redraws", [0, 100])
def test_truncated_normal_draws_have_the_truncated_mean(monkeypatch, redraws):
    # With no redraws every duration comes from the inverse-CDF fallback.
    module = importlib.import_module("madtn.simulate")
    monkeypatch.setattr(module, "_REDRAWS", redraws)
    profile = BehaviorProfile(duration_mode="truncated_normal", mean_fraction=0.0,
                              stddev_fraction=0.5)
    rng = random.Random(11)
    draws = [module._draw_duration(Action("a", 1.0, 3.0), profile, rng) for _ in range(20_000)]
    assert all(1.0 <= d <= 3.0 for d in draws)
    # N(1, 1) truncated to [1, 3]: mean 1 + (phi(0) - phi(2)) / (Phi(2) - Phi(0)).
    unit = statistics.NormalDist()
    expected = 1.0 + (unit.pdf(0.0) - unit.pdf(2.0)) / (unit.cdf(2.0) - unit.cdf(0.0))
    assert statistics.fmean(draws) == pytest.approx(expected, abs=0.02)


if __name__ == "__main__":
    (GOLDEN / "lanes").mkdir(parents=True, exist_ok=True)
    task = load_packaged_example().daisy
    for name in golden_profiles():
        for run in range(5):
            (GOLDEN / f"packaging-{name}-{run}.json").write_text(golden_text(task, name, run))
    (GOLDEN / "lanes" / "runs.json").write_text(lanes_text())
