"""Acceptance suite: the eight properties the package is judged by.

Each test is one criterion. A summary block after the pytest run prints a
[PASS] or [FAIL] line per criterion (see conftest.py); the prints inside
the tests carry the measured numbers for anyone running with -s.
"""
from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from madtn import (
    INF,
    Agent,
    BehaviorProfile,
    CapabilityTable,
    ConstraintKind,
    Daisy,
    DurationMode,
    ExecutionEvent,
    ExternalConstraint,
    HandoffState,
    Trace,
    activity_intervals,
    build_action,
    build_petal,
    compile_to_stn,
    earliest_schedule,
    enumerate_orders,
    fluency_report,
    greedy_assign,
    handoff_constraints,
    handoff_delays,
    minimal_network,
    packaged_example_path,
    parse_daisy,
    partial_order,
    run_cli,
    simulate,
    solve,
    validate_daisy,
    validate_trace,
)
from oracles import (
    brute_consistent,
    brute_difference_bounds,
    random_case,
    random_consistent_case,
)
from conftest import stn_from_tuples


def test_criterion_1_stn_oracle_equivalence():
    rng = random.Random(20260816)
    began = time.perf_counter()
    verdicts = {True: 0, False: 0}
    for _ in range(500):
        n, constraints = random_case(rng, max_points=6)
        solver = solve(stn_from_tuples(n, constraints)).consistent
        oracle = brute_consistent(n, constraints)
        assert solver == oracle, (n, constraints)
        verdicts[solver] += 1
    elapsed = time.perf_counter() - began
    # Both verdicts must actually occur or the comparison proves nothing.
    assert verdicts[True] > 0 and verdicts[False] > 0
    assert elapsed < 30.0
    print(
        f"criterion 1: 500/500 agreements "
        f"({verdicts[True]} consistent, {verdicts[False]} not) in {elapsed:.1f}s"
    )


def test_criterion_2_minimal_network_tightness():
    rng = random.Random(7)
    pairs_checked = 0
    for _ in range(200):
        n, constraints = random_consistent_case(rng, max_points=5)
        stn = stn_from_tuples(n, constraints)
        realized = brute_difference_bounds(n, constraints)
        assert realized is not None, (n, constraints)
        tight = minimal_network(stn)
        points = stn.timepoints
        index = {point: k for k, point in enumerate(points)}
        seen: set[tuple[int, int]] = set()
        for constraint in tight.constraints:
            i, j = index[constraint.source], index[constraint.target]
            assert (constraint.lower, constraint.upper) == realized[i][j], (
                n, constraints, i, j,
            )
            seen.add((min(i, j), max(i, j)))
            pairs_checked += 1
        # Connected cases imply finite bounds for every pair, so the
        # minimal network must cover them all.
        assert seen == {(i, j) for i in range(n) for j in range(i + 1, n)}
    print(f"criterion 2: 200 networks, {pairs_checked} pair bounds exact")


def test_criterion_3_packaging_fixture(tmp_path, capsys):
    task = packaged_example_path()
    doc = parse_daisy(task.read_text())
    assert validate_daisy(doc.daisy) == []
    assert run_cli(["validate", str(task)]) == 0
    assert run_cli(["compile", str(task)]) == 0
    capsys.readouterr()

    # The makespan floor is the heaviest petal chain through the handoff
    # web, each petal weighing its summed duration lower bounds. Recomputed
    # here from the raw constraints, without the compiler.
    weight = {p.name: sum(a.lower for a in p.actions) for p in doc.daisy.petals}
    feeds: dict[str, set[str]] = {name: set() for name in weight}
    for constraint in doc.daisy.constraints:
        if constraint.kind is not ConstraintKind.HANDOFF:
            continue
        source, _, _ = doc.daisy.locate(constraint.source)
        target, _, _ = doc.daisy.locate(constraint.target)
        feeds[source.name].add(target.name)

    def heaviest(name):
        return weight[name] + max(map(heaviest, feeds[name]), default=0.0)

    floor = max(map(heaviest, weight))
    assert floor == pytest.approx(7.5)

    raw = json.loads(task.read_text())

    def verdict(upper):
        raw["makespan"] = [0.0, upper]
        daisy = parse_daisy(raw).daisy
        return solve(compile_to_stn(daisy)).consistent

    assert verdict(floor)
    assert not verdict(floor - 0.1)

    raw["makespan"] = [0.0, floor - 0.1]
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(raw))
    assert run_cli(["compile", str(tight)]) == 1
    capsys.readouterr()
    print(f"criterion 3: verdict flips below the {floor:g}s chain bound")


def test_criterion_4_planner_completeness(packaging):
    daisy = packaging.daisy

    # Rebuild the precedence requirement from the raw constraints, without
    # the planner: the source petal of a handoff, or of any forward
    # cross-petal constraint, must run before the target petal.
    must_precede = set()
    for constraint in daisy.constraints:
        source = daisy.locate(constraint.source)
        target = daisy.locate(constraint.target)
        if source is None or target is None:
            continue
        source_petal, _, _ = source
        target_petal, _, _ = target
        if source_petal is target_petal:
            continue
        if constraint.kind is ConstraintKind.HANDOFF or constraint.lower > 0:
            must_precede.add((source_petal.name, target_petal.name))
    assert any(
        daisy.petal(a).owner != daisy.petal(b).owner for a, b in must_precede
    )  # the web crosses agents, so it is more than per-agent sequencing

    orders = [tuple(order) for order in enumerate_orders(daisy, limit=None)]

    def projections(order):
        return tuple(
            tuple(name for name in order if daisy.petal(name).owner == agent.id)
            for agent in daisy.agents
        )

    order_projections = {projections(order) for order in orders}
    names = [petal.name for petal in daisy.petals]
    admitted = []
    consistent_count = 0
    for perm in itertools.permutations(names):
        consistent = solve(compile_to_stn(daisy, ordering=perm)).consistent
        if consistent:
            consistent_count += 1
            # Compilation sequences each agent's own petals only, so
            # consistency is a property of the agent-wise projections;
            # every consistent interleaving must project onto the pair of
            # some enumerated order.
            assert projections(perm) in order_projections, perm
        rank = {name: k for k, name in enumerate(perm)}
        if any(rank[a] >= rank[b] for a, b in must_precede):
            continue
        if consistent:
            admitted.append(perm)

    # Enumeration returns exactly the consistent orders among those that
    # respect the cross-petal precedence web, in the same canonical order.
    assert orders == admitted
    assert len(orders) > 0
    precedence = partial_order(daisy)
    assert all(precedence.admits(order) for order in orders)
    print(
        f"criterion 4: {len(orders)} orders equal the filtered extensions; "
        f"all {consistent_count} consistent interleavings project onto them"
    )


def zero_anticipation_profiles(seed):
    uniform = BehaviorProfile(duration_mode=DurationMode.UNIFORM, reaction_delay=0.4)
    normal = BehaviorProfile(
        duration_mode=DurationMode.TRUNCATED_NORMAL, reaction_delay=0.2
    )
    cycle = (
        {},
        {"human": uniform, "robot": uniform},
        {"human": normal, "robot": normal},
        {"human": uniform, "robot": normal},
    )
    return cycle[seed % len(cycle)]


def test_criterion_5_simulation_determinism_and_feasibility(packaging):
    daisy = packaging.daisy
    for seed in range(100):
        profiles = zero_anticipation_profiles(seed)
        first = simulate(daisy, profiles=profiles, seed=seed)
        second = simulate(daisy, profiles=profiles, seed=seed)
        assert first == second, seed
        assert first.feasible, seed
        assert validate_trace(daisy, first) == [], seed

    punctual = simulate(daisy)
    schedule = earliest_schedule(compile_to_stn(daisy))
    for petal in daisy.petals:
        for action in petal.actions:
            for kind, point in (("start", action.start), ("end", action.end)):
                got = punctual.time_of(petal.name, action.name, kind)
                assert abs(got - schedule[point]) <= 1e-9
    assert abs(punctual.start_time - schedule[daisy.start]) <= 1e-9
    assert abs(punctual.end_time - schedule[daisy.end]) <= 1e-9
    print("criterion 5: 100 seeds reproducible and feasible, punctual run exact")


def shifted_copy(trace, offset):
    return Trace(
        events=tuple(
            ExecutionEvent(
                e.agent, e.petal, e.action, e.start + offset, e.end + offset
            )
            for e in trace.events
        ),
        agents=trace.agents,
        seed=trace.seed,
        feasible=trace.feasible,
        start_time=trace.start_time + offset,
    )


def criterion_6_traces(daisy):
    """A punctual run plus busy and anticipatory runs on seeds 0-3."""
    eager = BehaviorProfile(
        duration_mode=DurationMode.UNIFORM,
        anticipation_probability=1.0,
        anticipation_offset=1.5,
    )
    busy = BehaviorProfile(duration_mode=DurationMode.UNIFORM, reaction_delay=0.7)
    traces = [simulate(daisy)]
    for seed in range(4):
        traces.append(simulate(daisy, profiles={"human": busy, "robot": busy}, seed=seed))
        traces.append(
            simulate(daisy, profiles={"human": eager, "robot": eager}, seed=seed)
        )
    return traces


def test_criterion_6_metric_identities(packaging):
    daisy = packaging.daisy
    traces = criterion_6_traces(daisy)
    assert any(not t.feasible for t in traces)  # anticipatory runs included

    for trace in traces:
        report = fluency_report(daisy, trace)
        pieces = (
            report.concurrent_activity_time
            + report.concurrent_inactivity_time
            + report.sole_activity["human"].measure
            + report.sole_activity["robot"].measure
        )
        assert abs(pieces - report.makespan) <= 1e-9
        for agent in ("human", "robot"):
            active = activity_intervals(trace, agent).measure
            assert abs(report.idle_of(agent).total + active - report.makespan) <= 1e-9

        moved = fluency_report(daisy, shifted_copy(trace, 1000.0))
        assert abs(moved.makespan - report.makespan) <= 1e-9
        assert abs(moved.concurrent_activity_time - report.concurrent_activity_time) <= 1e-9
        assert (
            abs(moved.concurrent_inactivity_time - report.concurrent_inactivity_time)
            <= 1e-9
        )
        for agent in ("human", "robot"):
            assert abs(moved.idle_of(agent).total - report.idle_of(agent).total) <= 1e-9
            assert (
                abs(moved.sole_activity[agent].measure - report.sole_activity[agent].measure)
                <= 1e-9
            )
        for before, after in zip(report.petal_delays, moved.petal_delays):
            assert abs(after.delay - before.delay) <= 1e-9
        for before, after in zip(report.handoffs, moved.handoffs):
            assert abs(after.readiness_delay - before.readiness_delay) <= 1e-9
            assert abs(after.functional_delay - before.functional_delay) <= 1e-9
            assert after.state is before.state
    print(f"criterion 6: identities hold on {len(traces)} traces, shift-invariant")


@pytest.mark.parametrize("offset", [1e3, 1e6, 1.7e9])
def test_verdicts_hold_at_any_time_origin(packaging, offset):
    daisy = packaging.daisy
    assert validate_trace(daisy, shifted_copy(simulate(daisy), offset)) == []
    for trace in criterion_6_traces(daisy):
        moved = shifted_copy(trace, offset)
        assert validate_trace(daisy, moved) == validate_trace(daisy, trace)
        states = [h.state for h in fluency_report(daisy, trace).handoffs]
        assert [h.state for h in fluency_report(daisy, moved).handoffs] == states


def test_criterion_7_handoff_delay_cases(packaging):
    make = build_action("make", 1.0, 10.0)
    prep = build_action("prep", 1.0, 10.0)
    take = build_action("take", 1.0, 10.0)
    base = Daisy(
        agents=(Agent("g"), Agent("r")),
        petals=(
            build_petal("give", [make], owner="g"),
            build_petal("receive", [prep, take], owner="r"),
        ),
    )
    pipeline = Daisy(
        agents=base.agents,
        petals=base.petals,
        constraints=(
            ExternalConstraint(ConstraintKind.HANDOFF, make.end, take.start, 0.0, INF),
        ),
        start=base.start,
        end=base.end,
    )

    def run(rows):
        events = tuple(
            sorted(
                (ExecutionEvent(*row) for row in rows),
                key=lambda e: (e.start, e.end),
            )
        )
        trace = Trace(events=events, agents=("g", "r"), seed=0, feasible=True)
        (record,) = handoff_delays(pipeline, trace)
        return record

    blocked = run(
        [("g", "give", "make", 0.0, 5.0),
         ("r", "receive", "prep", 0.0, 1.0),
         ("r", "receive", "take", 5.0, 6.0)]
    )
    assert blocked.state is HandoffState.BLOCKED
    assert blocked.readiness_delay > 0
    assert blocked.functional_delay == blocked.receipt_start - blocked.product_available
    assert blocked.functional_delay == 0.0

    stale = run(
        [("g", "give", "make", 0.0, 1.0),
         ("r", "receive", "prep", 0.0, 5.0),
         ("r", "receive", "take", 5.0, 6.0)]
    )
    assert stale.state is HandoffState.STALE
    assert stale.readiness_delay < 0
    assert stale.functional_delay == stale.receipt_start - stale.receiver_ready
    assert stale.functional_delay >= 0.0

    # The shipped task exhibits both states in its punctual run: the robot
    # is still fetching A when it lands, while wrapped B sits waiting.
    daisy = packaging.daisy
    punctual_states = {r.state for r in handoff_delays(daisy, simulate(daisy))}
    assert HandoffState.BLOCKED in punctual_states
    assert HandoffState.STALE in punctual_states

    # An anticipating team shows negative functional delay somewhere, and
    # trace validation points at the broken handoff.
    eager = BehaviorProfile(anticipation_probability=1.0, anticipation_offset=2.0)
    trace = simulate(daisy, profiles={"human": eager, "robot": eager}, seed=2)
    assert not trace.feasible
    records = handoff_delays(daisy, trace)
    assert any(record.functional_delay < 0 for record in records)

    violated = validate_trace(daisy, trace)
    handoff_ends = {
        (link.constraint.source, link.constraint.target)
        for link in handoff_constraints(daisy)
    }
    assert any((c.source, c.target) in handoff_ends for c in violated)
    print("criterion 7: blocked, stale, and anticipatory cases all measure as defined")


def test_criterion_8_greedy_assignment_invariance():
    rng = random.Random(33)
    pool = ["ada", "bo", "cy", "dee"]
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    ties_seen = 0
    for _ in range(100):
        agent_ids = sorted(rng.sample(pool, rng.randint(2, 4)))
        petal_names = [f"p{k}" for k in range(rng.randint(2, 6))]
        daisy = Daisy(
            agents=tuple(Agent(a) for a in agent_ids),
            petals=tuple(
                build_petal(name, [build_action(f"do-{name}", 1.0)])
                for name in petal_names
            ),
        )
        scores = {
            agent: {petal: rng.choice(levels) for petal in petal_names}
            for agent in agent_ids
        }
        for petal in petal_names:
            if all(scores[agent][petal] == 0.0 for agent in agent_ids):
                scores[rng.choice(agent_ids)][petal] = 0.5

        expected = []
        for petal in petal_names:
            best = max(scores[agent][petal] for agent in agent_ids)
            winners = [a for a in agent_ids if scores[a][petal] == best]
            ties_seen += len(winners) > 1
            expected.append(min(winners))

        table = CapabilityTable(scores=scores)
        owners = [p.owner for p in greedy_assign(daisy, table).petals]
        assert owners == expected
        for factor in (1e-3, 0.5, 7.0, 1e3):
            rescaled = greedy_assign(daisy, table.scaled(factor))
            assert [p.owner for p in rescaled.petals] == owners

    assert ties_seen > 0  # the tie-break rule was actually exercised
    print(f"criterion 8: 100 tables stable under rescaling, {ties_seen} ties broken")
