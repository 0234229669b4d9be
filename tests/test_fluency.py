"""Fluency metrics: idle breakdowns, concurrency, and handoff delays."""
from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from madtn import (
    INF,
    Action,
    Agent,
    AgentCountError,
    BehaviorProfile,
    ConstraintKind,
    CoverageError,
    Daisy,
    DurationMode,
    ExecutionEvent,
    ExternalConstraint,
    HandoffState,
    IntervalSet,
    NonHandoffKindError,
    Petal,
    Trace,
    UnknownAgentError,
    activity_intervals,
    agent_idle_time,
    build_action,
    build_petal,
    concurrent_activity,
    concurrent_inactivity,
    fluency_report,
    handoff_delays,
    petal_functional_delay,
    simulate,
    window,
)


def hand_trace(agents, rows, start_time=0.0):
    """Build a trace from (agent, petal, action, start, end) rows."""
    events = tuple(
        sorted((ExecutionEvent(*row) for row in rows), key=lambda e: (e.start, e.end))
    )
    return Trace(
        events=events,
        agents=tuple(agents),
        seed=0,
        feasible=True,
        start_time=start_time,
    )


def test_activity_and_window_basics():
    trace = hand_trace(
        ["a", "b", "c"],
        [
            ("a", "p1", "setup", 0.0, 2.0),
            ("a", "p2", "finish", 3.0, 5.0),
            ("b", "q1", "assist", 1.0, 4.0),
        ],
    )
    assert list(window(trace)) == [(0.0, 5.0)]
    assert list(activity_intervals(trace, "a")) == [(0.0, 2.0), (3.0, 5.0)]
    assert activity_intervals(trace, "b").measure == 3.0
    assert activity_intervals(trace, "c").is_empty  # on the roster, never acted
    with pytest.raises(UnknownAgentError):
        activity_intervals(trace, "d")


def test_idle_splits_into_waiting_and_resting():
    # Idleness between two petals is rest; inside one petal it is waiting.
    between = hand_trace(
        ["a"],
        [("a", "p1", "x", 0.0, 2.0), ("a", "p2", "y", 3.0, 5.0)],
    )
    breakdown = agent_idle_time(between, "a")
    assert breakdown.total == 1.0
    assert breakdown.waiting_time == 0.0
    assert breakdown.resting_time == 1.0

    within = hand_trace(
        ["a"],
        [("a", "p1", "x", 0.0, 2.0), ("a", "p1", "y", 3.0, 5.0)],
    )
    breakdown = agent_idle_time(within, "a")
    assert breakdown.total == 1.0
    assert breakdown.waiting_time == 1.0
    assert breakdown.resting_time == 0.0
    assert list(breakdown.waiting) == [(2.0, 3.0)]


def test_concurrency_requires_exactly_two_agents():
    trace = hand_trace(
        ["a", "b"],
        [
            ("a", "p1", "setup", 0.0, 2.0),
            ("a", "p2", "finish", 3.0, 5.0),
            ("b", "q1", "assist", 1.0, 4.0),
        ],
    )
    assert list(concurrent_activity(trace)) == [(1.0, 2.0), (3.0, 4.0)]
    assert concurrent_inactivity(trace).is_empty

    crowded = hand_trace(["a", "b", "c"], [("a", "p1", "x", 0.0, 1.0)])
    with pytest.raises(AgentCountError):
        concurrent_activity(crowded)
    with pytest.raises(AgentCountError):
        concurrent_inactivity(crowded)


def test_pairwise_metrics_reject_a_roster_that_names_an_agent_twice():
    # A trace built through the API, which no parser has checked: one worker
    # alone must not be scored as working concurrently with itself.
    task = Daisy(agents=(Agent("human"),),
                 petals=(Petal("H0", (Action("a", 0.0),), owner="human"),))
    trace = hand_trace(["human", "human"], [("human", "H0", "a", 0.0, 1.0)])
    for metric in (concurrent_activity, concurrent_inactivity, lambda t: fluency_report(task, t)):
        with pytest.raises(AgentCountError, match=r"\['human', 'human'\]"):
            metric(trace)


def test_punctual_fixture_numbers(packaging):
    daisy = packaging.daisy
    trace = simulate(daisy)
    report = fluency_report(daisy, trace)

    assert report.agents == ("human", "robot")
    assert report.makespan == pytest.approx(7.5)
    human = report.idle_of("human")
    robot = report.idle_of("robot")
    # Human: 1.1 s before sealing plus the 1.5 s tail while the robot delivers.
    assert human.total == pytest.approx(2.6)
    assert human.waiting_time == pytest.approx(0.0)
    # Robot: 1.5 s until object A is placed, 1 s until the box is sealed.
    assert robot.total == pytest.approx(2.5)
    assert robot.waiting_time == pytest.approx(0.0)
    assert report.concurrent_activity_time == pytest.approx(2.4)
    assert report.concurrent_inactivity_time == pytest.approx(0.0)
    assert report.sole_activity["human"].measure == pytest.approx(2.5)
    assert report.sole_activity["robot"].measure == pytest.approx(2.6)
    assert report.fraction_of_makespan(report.concurrent_activity_time) == (
        pytest.approx(2.4 / 7.5)
    )
    with pytest.raises(UnknownAgentError):
        report.idle_of("drone")


def test_report_matches_a_straight_line_recomputation(packaging):
    # Recompute every aggregate with a plain event sweep: cut the window at
    # every event boundary, classify each segment by its midpoint, and sum.
    # No interval arithmetic, so it cross-checks the interval-set path.
    daisy = packaging.daisy
    trace = simulate(
        daisy,
        profiles={
            "human": BehaviorProfile(
                duration_mode=DurationMode.UNIFORM, reaction_delay=0.3
            ),
            "robot": BehaviorProfile(duration_mode=DurationMode.TRUNCATED_NORMAL),
        },
        seed=42,
    )
    report = fluency_report(daisy, trace)

    cuts = sorted(
        {trace.start_time, trace.end_time}
        | {e.start for e in trace.events}
        | {e.end for e in trace.events}
    )

    def active_at(agent, t):
        return any(e.start <= t < e.end for e in trace.events if e.agent == agent)

    spans = {}
    for agent in report.agents:
        mine = trace.events_of(agent)
        spans[agent] = [
            (
                min(e.start for e in mine if e.petal == petal),
                max(e.end for e in mine if e.petal == petal),
            )
            for petal in {e.petal for e in mine}
        ]

    both = neither = 0.0
    sole = {a: 0.0 for a in report.agents}
    idle = {a: 0.0 for a in report.agents}
    waiting = {a: 0.0 for a in report.agents}
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        length = hi - lo
        acting = {a: active_at(a, mid) for a in report.agents}
        if all(acting.values()):
            both += length
        elif not any(acting.values()):
            neither += length
        for agent in report.agents:
            if acting[agent]:
                if not all(acting.values()):
                    sole[agent] += length
            else:
                idle[agent] += length
                if any(s <= mid < e for s, e in spans[agent]):
                    waiting[agent] += length

    assert report.concurrent_activity_time == pytest.approx(both, abs=1e-9)
    assert report.concurrent_inactivity_time == pytest.approx(neither, abs=1e-9)
    for agent in report.agents:
        assert report.sole_activity[agent].measure == pytest.approx(
            sole[agent], abs=1e-9
        )
        breakdown = report.idle_of(agent)
        assert breakdown.total == pytest.approx(idle[agent], abs=1e-9)
        assert breakdown.waiting_time == pytest.approx(waiting[agent], abs=1e-9)

    starts = {(e.petal, e.action): e.start for e in trace.events}
    ends = {(e.petal, e.action): e.end for e in trace.events}
    sums = {a: 0.0 for a in report.agents}
    for record in report.petal_delays:
        source = daisy.petal(record.source_petal)
        target = daisy.petal(record.target_petal)
        expected = min(
            starts[(target.name, a.name)] for a in target.actions
        ) - max(ends[(source.name, a.name)] for a in source.actions)
        assert record.delay == pytest.approx(expected, abs=1e-9)
        sums[record.agent] += record.delay
    for agent in report.agents:
        assert report.delay_by_agent[agent] == pytest.approx(sums[agent], abs=1e-9)

    for record in report.handoffs:
        available = ends[(record.source_petal, record.source_action)]
        start = starts[(record.target_petal, record.target_action)]
        ready = trace.start_time
        for event in sorted(trace.events_of(record.target_agent),
                            key=lambda e: e.start):
            if (event.petal, event.action) == (
                record.target_petal, record.target_action,
            ):
                break
            ready = event.end
        assert record.product_available == pytest.approx(available, abs=1e-9)
        assert record.receiver_ready == pytest.approx(ready, abs=1e-9)
        if available - ready > 1e-9:
            expected_state = HandoffState.BLOCKED
        elif available - ready < -1e-9:
            expected_state = HandoffState.STALE
        else:
            expected_state = HandoffState.EXACT
        assert record.state is expected_state
        anchor = ready if expected_state is HandoffState.STALE else available
        assert record.functional_delay == pytest.approx(start - anchor, abs=1e-9)


def assorted_traces(packaging):
    daisy = packaging.daisy
    eager = BehaviorProfile(
        duration_mode=DurationMode.UNIFORM,
        anticipation_probability=1.0,
        anticipation_offset=1.5,
    )
    busy = BehaviorProfile(duration_mode=DurationMode.UNIFORM, reaction_delay=0.7)
    runs = [simulate(daisy)]
    for seed in range(4):
        runs.append(simulate(daisy, profiles={"human": busy, "robot": busy}, seed=seed))
        runs.append(simulate(daisy, profiles={"human": eager, "robot": eager}, seed=seed))
    return runs


def test_activity_partitions_the_window(packaging):
    for trace in assorted_traces(packaging):
        report = fluency_report(packaging.daisy, trace)
        pieces = (
            report.concurrent_activity_time
            + report.concurrent_inactivity_time
            + report.sole_activity["human"].measure
            + report.sole_activity["robot"].measure
        )
        assert pieces == pytest.approx(report.makespan, abs=1e-9)
        for agent in ("human", "robot"):
            idle = report.idle_of(agent)
            active = activity_intervals(trace, agent).measure
            assert idle.total + active == pytest.approx(report.makespan, abs=1e-9)
            assert idle.waiting_time + idle.resting_time == pytest.approx(
                idle.total, abs=1e-9
            )


def test_measures_are_invariant_under_time_shift(packaging):
    daisy = packaging.daisy
    trace = simulate(
        daisy,
        profiles={"human": BehaviorProfile(reaction_delay=0.5)},
        seed=8,
    )
    shifted = Trace(
        events=tuple(
            ExecutionEvent(e.agent, e.petal, e.action, e.start + 1000.0, e.end + 1000.0)
            for e in trace.events
        ),
        agents=trace.agents,
        seed=trace.seed,
        feasible=trace.feasible,
        start_time=trace.start_time + 1000.0,
    )
    base = fluency_report(daisy, trace)
    moved = fluency_report(daisy, shifted)
    assert moved.makespan == pytest.approx(base.makespan, abs=1e-9)
    assert moved.concurrent_activity_time == pytest.approx(
        base.concurrent_activity_time, abs=1e-9
    )
    assert moved.concurrent_inactivity_time == pytest.approx(
        base.concurrent_inactivity_time, abs=1e-9
    )
    for agent in ("human", "robot"):
        assert moved.idle_of(agent).total == pytest.approx(
            base.idle_of(agent).total, abs=1e-9
        )
        assert moved.idle_of(agent).waiting_time == pytest.approx(
            base.idle_of(agent).waiting_time, abs=1e-9
        )
        assert moved.sole_activity[agent].measure == pytest.approx(
            base.sole_activity[agent].measure, abs=1e-9
        )
    for before, after in zip(base.petal_delays, moved.petal_delays):
        assert after.delay == pytest.approx(before.delay, abs=1e-9)
    for before, after in zip(base.handoffs, moved.handoffs):
        assert after.readiness_delay == pytest.approx(before.readiness_delay, abs=1e-9)
        assert after.functional_delay == pytest.approx(
            before.functional_delay, abs=1e-9
        )
        assert after.state is before.state
        assert after.product_available == pytest.approx(
            before.product_available + 1000.0, abs=1e-9
        )


def test_petal_delays_follow_the_handoff_web(packaging):
    daisy = packaging.daisy
    punctual = petal_functional_delay(daisy, simulate(daisy))
    assert [(d.source_petal, d.target_petal, d.agent) for d in punctual] == [
        ("Retrieve Object A", "Pack Object A", "robot"),
        ("Pack Object A", "Seal Package", "human"),
        ("Prepare and Pack Object B", "Seal Package", "human"),
        ("Seal Package", "Deliver Package", "robot"),
    ]
    # Object B is wrapped long before sealing can begin; everything else
    # starts the moment its feeding petal ends.
    assert [d.delay for d in punctual] == pytest.approx([0.0, 0.0, 3.5, 0.0])

    hesitant = simulate(
        daisy,
        profiles={"human": BehaviorProfile(reaction_delay=1.0)},
        seed=4,
    )
    delayed = petal_functional_delay(daisy, hesitant)
    assert delayed[1].delay > 0.0  # the human reacted late to the sealing handoff

    eager = simulate(
        daisy,
        profiles={
            "human": BehaviorProfile(
                anticipation_probability=1.0, anticipation_offset=2.0
            )
        },
        seed=4,
    )
    assert petal_functional_delay(daisy, eager)[1].delay < 0.0


def test_same_owner_handoffs_stay_out_of_the_delay_metrics(packaging):
    # Pack Object C feeds Seal Package, but the human does both, so there
    # is nothing to hand over and no record in either delay listing.
    daisy = packaging.daisy
    trace = simulate(daisy)
    petal_pairs = {
        (d.source_petal, d.target_petal)
        for d in petal_functional_delay(daisy, trace)
    }
    assert ("Pack Object C", "Seal Package") not in petal_pairs
    handoff_pairs = {
        (r.source_petal, r.target_petal) for r in handoff_delays(daisy, trace)
    }
    assert ("Pack Object C", "Seal Package") not in handoff_pairs


def test_repeated_petal_pairs_get_one_record_per_handoff():
    cut = build_action("cut", 1.0, 2.0)
    polish = build_action("polish", 1.0, 2.0)
    fit = build_action("fit", 1.0, 2.0)
    close = build_action("close", 1.0, 2.0)
    base = Daisy(
        agents=(Agent("g"), Agent("r")),
        petals=(
            build_petal("shape", [cut, polish], owner="g"),
            build_petal("assemble", [fit, close], owner="r"),
        ),
    )
    daisy = Daisy(
        agents=base.agents,
        petals=base.petals,
        constraints=(
            ExternalConstraint(ConstraintKind.HANDOFF, cut.end, fit.start, 0.0, INF),
            ExternalConstraint(ConstraintKind.HANDOFF, polish.end, close.start, 0.0, INF),
        ),
        start=base.start,
        end=base.end,
    )
    trace = hand_trace(
        ["g", "r"],
        [
            ("g", "shape", "cut", 0.0, 1.0),
            ("g", "shape", "polish", 1.0, 2.0),
            ("r", "assemble", "fit", 1.0, 2.0),
            ("r", "assemble", "close", 2.5, 3.5),
        ],
    )
    records = petal_functional_delay(daisy, trace)
    assert len(records) == 2
    assert all(
        (r.source_petal, r.target_petal) == ("shape", "assemble") for r in records
    )
    # Both entries carry the same petal-level figure: fit starts 1 s before
    # polishing ends.
    assert [r.delay for r in records] == pytest.approx([-1.0, -1.0])
    # The action-level view still tells the two handoffs apart.
    first, second = handoff_delays(daisy, trace)
    assert (first.source_action, first.target_action) == ("cut", "fit")
    assert (second.source_action, second.target_action) == ("polish", "close")


def test_report_sums_delays_per_agent(packaging):
    daisy = packaging.daisy
    report = fluency_report(
        daisy,
        simulate(
            daisy,
            profiles={
                "human": BehaviorProfile(reaction_delay=1.0),
                "robot": BehaviorProfile(reaction_delay=0.5),
            },
            seed=6,
        ),
    )
    by_agent = {"human": 0.0, "robot": 0.0}
    for record in report.petal_delays:
        by_agent[record.agent] += record.delay
    assert report.delay_by_agent == pytest.approx(by_agent)


def pipeline_daisy(*, with_prep=True, handoff_lower=0.0):
    """Giver makes a part; receiver (optionally) preps, then takes it."""
    make = build_action("make", 1.0, 10.0)
    prep = build_action("prep", 1.0, 10.0)
    take = build_action("take", 1.0, 10.0)
    receive_actions = [prep, take] if with_prep else [take]
    base = Daisy(
        agents=(Agent("g"), Agent("r")),
        petals=(
            build_petal("give", [make], owner="g"),
            build_petal("receive", receive_actions, owner="r"),
        ),
    )
    return Daisy(
        agents=base.agents,
        petals=base.petals,
        constraints=(
            ExternalConstraint(
                ConstraintKind.HANDOFF, make.end, take.start, handoff_lower, INF
            ),
        ),
        start=base.start,
        end=base.end,
    )


def test_blocked_handoff():
    daisy = pipeline_daisy()
    trace = hand_trace(
        ["g", "r"],
        [
            ("g", "give", "make", 0.0, 5.0),
            ("r", "receive", "prep", 0.0, 1.0),
            ("r", "receive", "take", 5.0, 6.0),
        ],
    )
    (record,) = handoff_delays(daisy, trace)
    assert record.state is HandoffState.BLOCKED
    assert record.product_available == 5.0
    assert record.receiver_ready == 1.0
    assert record.receipt_start == 5.0
    assert record.readiness_delay == 4.0
    assert record.functional_delay == 0.0


def test_stale_handoff():
    daisy = pipeline_daisy()
    trace = hand_trace(
        ["g", "r"],
        [
            ("g", "give", "make", 0.0, 1.0),
            ("r", "receive", "prep", 0.0, 5.0),
            ("r", "receive", "take", 5.0, 6.0),
        ],
    )
    (record,) = handoff_delays(daisy, trace)
    assert record.state is HandoffState.STALE
    assert record.readiness_delay == -4.0
    # Start lag is measured against the receiver's own readiness here.
    assert record.functional_delay == 0.0


def test_exact_handoff_and_first_action_readiness():
    daisy = pipeline_daisy(with_prep=False)
    trace = hand_trace(
        ["g", "r"],
        [
            ("g", "give", "make", 0.0, 0.0),
            ("r", "receive", "take", 0.5, 2.0),
        ],
    )
    (record,) = handoff_delays(daisy, trace)
    # The receiving action is the agent's first, so readiness is the
    # trace start, which coincides with availability.
    assert record.receiver_ready == 0.0
    assert record.state is HandoffState.EXACT
    assert record.functional_delay == 0.5


def test_anticipation_shows_up_as_negative_functional_delay():
    daisy = pipeline_daisy()
    trace = hand_trace(
        ["g", "r"],
        [
            ("g", "give", "make", 0.0, 5.0),
            ("r", "receive", "prep", 0.0, 1.0),
            ("r", "receive", "take", 3.0, 6.0),
        ],
    )
    (record,) = handoff_delays(daisy, trace)
    assert record.state is HandoffState.BLOCKED
    assert record.functional_delay == -2.0


def test_nonzero_handoff_lower_bound_is_rejected():
    daisy = pipeline_daisy(handoff_lower=0.5)
    trace = hand_trace(
        ["g", "r"],
        [
            ("g", "give", "make", 0.0, 1.0),
            ("r", "receive", "prep", 0.0, 1.0),
            ("r", "receive", "take", 2.0, 3.0),
        ],
    )
    with pytest.raises(NonHandoffKindError):
        handoff_delays(daisy, trace)


def test_fixture_handoff_mix(packaging):
    daisy = packaging.daisy
    records = handoff_delays(daisy, simulate(daisy))
    assert [r.state for r in records] == [
        HandoffState.BLOCKED,  # object A reaches the robot mid-errand
        HandoffState.BLOCKED,  # the human waits for A to land in the box
        HandoffState.STALE,  # object B sat wrapped since second one
        HandoffState.BLOCKED,  # the robot waits for the tape
    ]
    assert [r.readiness_delay for r in records] == pytest.approx(
        [1.5, 1.1, -2.4, 1.0]
    )
    assert [r.functional_delay for r in records] == pytest.approx(
        [0.0, 0.0, 1.1, 0.0]
    )
    for record in records:
        assert record.source_agent != record.target_agent
    stale = records[2]
    assert stale.product_available == pytest.approx(1.5)
    assert stale.receiver_ready == pytest.approx(3.9)
    assert stale.receipt_start == pytest.approx(5.0)


def test_missing_handoff_action_is_a_coverage_error():
    daisy = pipeline_daisy()
    trace = hand_trace(
        ["g", "r"],
        [("g", "give", "make", 0.0, 1.0), ("r", "receive", "prep", 0.0, 1.0)],
    )
    with pytest.raises(CoverageError) as excinfo:
        handoff_delays(daisy, trace)
    assert "receive.take" in excinfo.value.missing


def test_repeated_action_records_are_a_coverage_error():
    trace = Trace(
        events=(
            ExecutionEvent("a", "p1", "x", 0.0, 1.0),
            ExecutionEvent("a", "p1", "x", 2.0, 3.0),
        ),
        agents=("a",),
        seed=0,
        feasible=True,
    )
    with pytest.raises(CoverageError) as excinfo:
        activity_intervals(trace, "a")
    assert "p1.x" in excinfo.value.extra


def test_every_trace_only_metric_refuses_a_repeated_action():
    trace = Trace(
        events=(
            ExecutionEvent("a", "p1", "x", 0.0, 1.0),
            ExecutionEvent("b", "p2", "y", 0.5, 1.0),
            ExecutionEvent("a", "p1", "x", 2.0, 3.0),
            ExecutionEvent("b", "p2", "y", 2.0, 3.0),
            ExecutionEvent("b", "p1", "x", 4.0, 5.0),
        ),
        agents=("a", "b"),
        seed=0,
        feasible=True,
    )
    for metric in (
        lambda: activity_intervals(trace, "a"),
        lambda: agent_idle_time(trace, "b"),
        lambda: concurrent_activity(trace),
        lambda: concurrent_inactivity(trace),
    ):
        with pytest.raises(CoverageError) as excinfo:
            metric()
        assert list(excinfo.value.missing) == []
        assert list(excinfo.value.extra) == ["p1.x", "p1.x", "p2.y"]


# The interval-set algebra is the reference for every set the sweep builds.
# Times come from a small pool, so events of one agent overlap, abut, have
# zero length and share endpoints of both zeros; ints stand in for floats;
# the trace start may fall after some events, as a trace built through the
# API allows; and some traces move by 1.7e9 s, as epoch timestamps do.
POOL = [-1.0, -0.5, -0.0, 0.0, 0, 0.5, 1.0, 1, 1.5, 2.0, 3.0]


@st.composite
def sweep_traces(draw):
    origin = draw(st.sampled_from([0.0, 1.7e9]))

    def at(time):
        return origin + time if origin else time

    rows = draw(st.lists(
        st.tuples(st.sampled_from("ab"), st.integers(0, 2),
                  st.sampled_from(POOL), st.sampled_from(POOL)),
        max_size=10,
    ))
    events = []
    for i, (agent, petal, one, other) in enumerate(rows):
        start, end = (one, other) if one <= other else (other, one)
        events.append(ExecutionEvent(agent, f"{agent}{petal}", f"x{i}", at(start), at(end)))
    start_time = at(draw(st.sampled_from(POOL)))
    return Trace(events=tuple(events), agents=("a", "b"), seed=0, feasible=True,
                 start_time=start_time)


def algebra_sets(trace, agent):
    """Activity, idle, waiting and resting by the interval-set algebra."""
    span = IntervalSet.single(trace.start_time, trace.end_time)
    mine = [e for e in trace.events if e.agent == agent]
    spans = {}
    for e in mine:
        lo, hi = spans.get(e.petal, (e.start, e.end))
        spans[e.petal] = (min(lo, e.start), max(hi, e.end))
    activity = IntervalSet.from_pairs((e.start, e.end) for e in mine)
    idle = span - activity
    within = IntervalSet.from_pairs(spans.values())
    return activity, idle, idle & within, idle - within


def exactly(spans):
    """Every endpoint with its type and sign, so 0.0 and -0.0 differ."""
    return [(type(t), t, math.copysign(1.0, t)) for pair in spans for t in pair]


def daisy_of(trace):
    """A task the trace is a run of: one petal per petal it names."""
    actions = {}
    for e in trace.events:
        actions.setdefault((e.petal, e.agent), []).append(Action(e.action, 0.0))
    return Daisy(
        agents=(Agent("a"), Agent("b")),
        petals=tuple(Petal(name, tuple(acts), owner=owner)
                     for (name, owner), acts in actions.items()),
    )


def api_trace(rows, start_time=0.0):
    """A trace of agents a and b with events in the order given."""
    return Trace(events=tuple(ExecutionEvent(*row) for row in rows), agents=("a", "b"),
                 seed=0, feasible=True, start_time=start_time)


@settings(max_examples=1000, deadline=None)
@given(sweep_traces())
@example(api_trace([  # the signed-zero trace of tests/reports: concurrent activity starts at -0.0
    ("b", "R0", "a", 0.0, 1.0), ("a", "H1", "a", -0.0, 1.5),
    ("a", "H0", "a", 1.0, 2.0), ("b", "R1", "a", 1.5, 2.5),
]))
@example(api_trace([  # a petal span starts at the first of two zero-length events at zero
    ("a", "a0", "x0", -0.0, -0.0), ("a", "a0", "x1", 0.0, 0.0), ("a", "a0", "x2", 1.0, 2.0),
], start_time=-1.0))
@example(api_trace([  # and one ends at the first of two
    ("a", "a0", "x0", -1.0, -0.5), ("a", "a0", "x1", -0.0, -0.0),
    ("a", "a0", "x2", 0.0, 0.0), ("b", "b0", "x3", 1.0, 2.0),
], start_time=-1.0))
def test_the_sweep_equals_the_interval_set_algebra(trace):
    a_sets, b_sets = algebra_sets(trace, "a"), algebra_sets(trace, "b")
    expected = {
        "concurrent activity": a_sets[0] & b_sets[0],
        "concurrent inactivity": a_sets[1] & b_sets[1],
        "sole a": a_sets[0] & b_sets[1],
        "sole b": b_sets[0] & a_sets[1],
    }
    report = fluency_report(daisy_of(trace), trace)
    got = {
        "concurrent activity": report.concurrent_activity,
        "concurrent inactivity": report.concurrent_inactivity,
        "sole a": report.sole_activity["a"],
        "sole b": report.sole_activity["b"],
    }
    for agent, sets in (("a", a_sets), ("b", b_sets)):
        breakdown = report.idle_of(agent)
        for name, spans, reference in zip(
            ("idle", "waiting", "resting"),
            (breakdown.idle, breakdown.waiting, breakdown.resting),
            sets[1:],
        ):
            got[f"{name} {agent}"], expected[f"{name} {agent}"] = spans, reference
    assert concurrent_activity(trace) == expected["concurrent activity"]
    assert concurrent_inactivity(trace) == expected["concurrent inactivity"]
    got["view concurrent activity"] = concurrent_activity(trace)
    got["view concurrent inactivity"] = concurrent_inactivity(trace)
    expected["view concurrent activity"] = expected["concurrent activity"]
    expected["view concurrent inactivity"] = expected["concurrent inactivity"]
    crowded = dataclasses.replace(trace, agents=("a", "b", "c"))
    for agent in ("a", "b", "c"):
        sets = algebra_sets(crowded, agent)
        breakdown = agent_idle_time(crowded, agent)
        got[f"view activity {agent}"] = activity_intervals(crowded, agent)
        expected[f"view activity {agent}"] = sets[0]
        for name, spans, reference in zip(
            ("idle", "waiting", "resting"),
            (breakdown.idle, breakdown.waiting, breakdown.resting),
            sets[1:],
        ):
            got[f"view {name} {agent}"], expected[f"view {name} {agent}"] = spans, reference
    for name in expected:
        assert exactly(got[name]) == exactly(expected[name]), name
    assert exactly([(report.window_end, report.makespan)]) == exactly(
        [(trace.end_time, trace.makespan)]
    )


def test_a_shared_zero_takes_its_sign_from_the_first_event_in_trace_order():
    # Two events of one agent differ only in the sign of their zero start. The
    # later one in trace order has the lower petal name, so events taken in
    # (start, end, petal, action) order would give activity the other zero.
    trace = api_trace([("a", "a1", "x0", -0.0, 1.0), ("a", "a0", "x1", 0.0, 1.0)])
    expected = IntervalSet.from_pairs([(-0.0, 1.0), (0.0, 1.0)])
    assert exactly(activity_intervals(trace, "a")) == exactly(expected) == exactly([(-0.0, 1.0)])
    assert exactly(fluency_report(daisy_of(trace), trace).sole_activity["a"]) == exactly(expected)
