"""Petal precedence, order enumeration, and greedy assignment."""
from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import pytest

from madtn import (
    INF,
    Agent,
    CapabilityTable,
    ConstraintKind,
    CyclicPrecedenceError,
    Daisy,
    ExternalConstraint,
    NoCapableAgentError,
    TimePoint,
    UnassignedPetalError,
    build_action,
    build_petal,
    compile_to_stn,
    earliest_schedule,
    enumerate_orders,
    greedy_assign,
    linear_extensions,
    parse_daisy,
    partial_order,
    solve,
)
from madtn import planner
from madtn import stn as stn_module
from madtn.stn import TOLERANCE, add_arc, fold_series
from madtn.cli import run_cli
from oracles import dense_distances
from same_bytes import _workloads


def test_fixture_precedence_is_the_handoff_web(packaging):
    precedence = partial_order(packaging.daisy)
    assert precedence.edges == {
        ("Retrieve Object A", "Pack Object A"),
        ("Pack Object A", "Seal Package"),
        ("Prepare and Pack Object B", "Seal Package"),
        ("Pack Object C", "Seal Package"),
        ("Seal Package", "Deliver Package"),
    }
    assert precedence.admits(
        ["Pack Object C", "Retrieve Object A", "Prepare and Pack Object B",
         "Pack Object A", "Seal Package", "Deliver Package"]
    )
    assert not precedence.admits(
        ["Deliver Package", "Retrieve Object A", "Prepare and Pack Object B",
         "Pack Object A", "Seal Package", "Pack Object C"]
    )


def test_same_owner_handoffs_still_order_petals(packaging):
    # The Pack C -> Seal transfer stays within the human's own petals; it
    # yields no cross-agent link but must still sequence the petals.
    daisy = packaging.daisy
    assert daisy.petal("Pack Object C").owner == daisy.petal("Seal Package").owner
    assert ("Pack Object C", "Seal Package") in partial_order(daisy).edges


def chained_daisy(*, lower):
    """Two one-action petals joined by an "other" constraint with ``lower``."""
    a = build_action("a", 1.0)
    b = build_action("b", 1.0)
    first = build_petal("first", [a], owner="x")
    second = build_petal("second", [b], owner="y")
    daisy = Daisy(agents=(Agent("x"), Agent("y")), petals=(first, second))
    return Daisy(
        agents=daisy.agents,
        petals=daisy.petals,
        constraints=(
            ExternalConstraint(ConstraintKind.OTHER, a.end, b.start, lower, INF),
        ),
        start=daisy.start,
        end=daisy.end,
    )


def test_positive_lower_bounds_order_petals_but_zero_does_not():
    assert partial_order(chained_daisy(lower=0.5)).edges == {("first", "second")}
    assert partial_order(chained_daisy(lower=0.0)).edges == set()
    assert partial_order(chained_daisy(lower=-2.0)).edges == set()


def test_linear_extensions_are_lexicographic_and_complete(packaging):
    precedence = partial_order(packaging.daisy)
    orders = list(linear_extensions(precedence))
    # Brute filter over all permutations gives the same set.
    expected = [
        p
        for p in itertools.permutations(precedence.petals)
        if precedence.admits(p)
    ]
    assert orders == sorted(orders, key=lambda o: [precedence.petals.index(n) for n in o])
    assert set(orders) == set(expected)
    assert len(orders) == len(expected)


def test_linear_extensions_honor_the_limit(packaging):
    precedence = partial_order(packaging.daisy)
    assert len(list(linear_extensions(precedence, limit=7))) == 7


def test_cyclic_precedence_is_reported():
    a1 = build_action("a1", 1.0)
    a2 = build_action("a2", 1.0)
    b1 = build_action("b1", 1.0)
    b2 = build_action("b2", 1.0)
    p = build_petal("p", [a1, a2], owner="x")
    q = build_petal("q", [b1, b2], owner="y")
    daisy = Daisy(agents=(Agent("x"), Agent("y")), petals=(p, q))
    daisy = Daisy(
        agents=daisy.agents,
        petals=daisy.petals,
        constraints=(
            ExternalConstraint(ConstraintKind.HANDOFF, a1.end, b1.start, 0.0, INF),
            ExternalConstraint(ConstraintKind.HANDOFF, b2.end, a2.start, 0.0, INF),
        ),
        start=daisy.start,
        end=daisy.end,
    )
    precedence = partial_order(daisy)
    assert precedence.find_cycle() is not None
    with pytest.raises(CyclicPrecedenceError) as excinfo:
        list(linear_extensions(precedence))
    assert set(excinfo.value.cycle) >= {"p", "q"}


def test_enumerate_orders_returns_only_consistent_extensions(packaging):
    daisy = packaging.daisy
    orders = enumerate_orders(daisy)
    # Seal is pinned fifth and Deliver sixth; the first four slots permute
    # freely except Retrieve A before Pack A: 4!/2 = 12.
    assert len(orders) == 12
    precedence = partial_order(daisy)
    for order in orders:
        assert precedence.admits(order)
        assert solve(compile_to_stn(daisy, ordering=order)).consistent
    assert enumerate_orders(daisy, limit=5) == orders[:5]
    assert orders[0] == tuple(p.name for p in daisy.petals)


def test_a_zero_limit_verifies_nothing(packaging):
    assert enumerate_orders(packaging.daisy, limit=0) == []
    assert list(linear_extensions(partial_order(packaging.daisy), limit=0)) == []


def test_enumerate_orders_drops_orders_the_network_rejects(packaging):
    # Capping the makespan at 8 seconds leaves only orders where the human
    # retrieves A before fetching C and the robot wraps B before packing A;
    # any detour projection needs at least 8.4 seconds.
    daisy = packaging.daisy
    capped = Daisy(
        agents=daisy.agents,
        petals=daisy.petals,
        constraints=tuple(
            c
            for c in daisy.constraints
            if c.kind is not ConstraintKind.MAKESPAN
        )
        + (
            ExternalConstraint(
                ConstraintKind.MAKESPAN, daisy.start, daisy.end, 0.0, 8.0
            ),
        ),
        start=daisy.start,
        end=daisy.end,
    )
    orders = enumerate_orders(capped)
    all_extensions = list(linear_extensions(partial_order(capped)))
    assert 0 < len(orders) < len(all_extensions)
    rejected = [o for o in all_extensions if tuple(o) not in set(orders)]
    for order in rejected:
        assert not solve(compile_to_stn(capped, ordering=order)).consistent


def minimal_task(agents, petal_names):
    petals = tuple(
        build_petal(name, [build_action(f"do-{name}", 1.0)]) for name in petal_names
    )
    return Daisy(agents=tuple(Agent(a) for a in agents), petals=petals)


def test_greedy_assign_picks_the_highest_scorer():
    daisy = minimal_task(["alice", "bob"], ["one", "two"])
    table = CapabilityTable(
        scores={
            "alice": {"one": 0.9, "two": 0.1},
            "bob": {"one": 0.5, "two": 0.8},
        }
    )
    assigned = greedy_assign(daisy, table)
    assert [p.owner for p in assigned.petals] == ["alice", "bob"]
    # The input task is untouched and actions are shared, not copied.
    assert all(p.owner == "unassigned" for p in daisy.petals)
    assert assigned.petals[0].actions == daisy.petals[0].actions


def test_greedy_assign_breaks_ties_toward_the_smallest_id():
    daisy = minimal_task(["zoe", "abe"], ["one"])
    table = CapabilityTable(scores={"zoe": {"one": 0.7}, "abe": {"one": 0.7}})
    assert greedy_assign(daisy, table).petals[0].owner == "abe"


def test_greedy_assign_leaves_preassigned_petals_alone():
    daisy = minimal_task(["alice", "bob"], ["one", "two"])
    daisy = daisy.with_petals(
        [daisy.petals[0].with_owner("bob"), daisy.petals[1]]
    )
    # "one" is preassigned to bob: alice's higher score does not move it,
    # and bob needs no capability entry to keep it.
    table = CapabilityTable(scores={"alice": {"one": 0.9, "two": 0.4}})
    assigned = greedy_assign(daisy, table)
    assert [p.owner for p in assigned.petals] == ["bob", "alice"]


def test_greedy_assign_requires_a_positive_score():
    daisy = minimal_task(["alice", "bob"], ["one"])
    table = CapabilityTable(scores={"alice": {"one": 0.0}, "bob": {"one": -3.0}})
    with pytest.raises(NoCapableAgentError):
        greedy_assign(daisy, table)


def test_assignment_is_invariant_under_positive_rescaling():
    daisy = minimal_task(["alice", "bob", "carol"], ["one", "two", "three"])
    table = CapabilityTable(
        scores={
            "alice": {"one": 0.2, "two": 0.9, "three": 0.4},
            "bob": {"one": 0.7, "two": 0.3, "three": 0.4},
            "carol": {"one": 0.7, "two": 0.1, "three": 0.5},
        }
    )
    baseline = [p.owner for p in greedy_assign(daisy, table).petals]
    assert baseline == ["bob", "alice", "carol"]  # the "one" tie goes to bob
    for factor in (1e-3, 0.25, 42.0, 1e6):
        scaled = [p.owner for p in greedy_assign(daisy, table.scaled(factor)).petals]
        assert scaled == baseline
    with pytest.raises(ValueError):
        table.scaled(0.0)


def test_fixture_capabilities_reproduce_the_shipped_owners(packaging):
    stripped = packaging.daisy.with_petals(
        [p.with_owner("unassigned") for p in packaging.daisy.petals]
    )
    assigned = greedy_assign(stripped, packaging.capabilities)
    assert [p.owner for p in assigned.petals] == [
        p.owner for p in packaging.daisy.petals
    ]


# -- incremental verification against the brute-force filter ------------------


def brute_orders(daisy):
    """Every linear extension whose compiled network is consistent."""
    return [
        order
        for order in linear_extensions(partial_order(daisy))
        if solve(compile_to_stn(daisy, ordering=order)).consistent
    ]


def dyadic(rng, low, high):
    return rng.randint(8 * low, 8 * high) / 8


def random_daisy(rng):
    """1-3 agents, 1-6 petals of 1-3 actions, and random cross-petal constraints.

    Bounds are multiples of 1/8, so every path sum is exact and verdicts
    never rest on rounding. Handoffs carry upper bounds or none, ``other``
    constraints may have negative lower and infinite upper bounds, and a
    makespan cap is optional.
    """
    agents = tuple(Agent(f"a{k}") for k in range(rng.randint(1, 3)))
    petals = []
    for k in range(rng.randint(1, 6)):
        actions = []
        for j in range(rng.randint(1, 3)):
            lower = dyadic(rng, 0, 3)
            upper = INF if rng.random() < 0.3 else lower + dyadic(rng, 0, 2)
            actions.append(build_action(f"x{j}", lower, upper))
        petals.append(build_petal(f"p{k}", actions, owner=rng.choice(agents).id))
    actions = [(petal, action) for petal in petals for action in petal.actions]
    constraints = []
    for _ in range(rng.randint(0, len(petals) + 2)):
        (p, a), (q, b) = rng.sample(actions, 2) if len(actions) > 1 else (actions[0],) * 2
        if p is not q and rng.random() < 0.5:
            upper = INF if rng.random() < 0.5 else dyadic(rng, 0, 4)
            constraints.append(
                ExternalConstraint(ConstraintKind.HANDOFF, a.end, b.start, 0.0, upper)
            )
        else:
            source = rng.choice([a.start, a.end])
            target = rng.choice([b.start, b.end])
            lower = dyadic(rng, -4, 4)
            upper = INF if rng.random() < 0.4 else lower + dyadic(rng, 0, 4)
            constraints.append(
                ExternalConstraint(ConstraintKind.OTHER, source, target, lower, upper)
            )
    start, end = TimePoint("task.start"), TimePoint("task.end")
    if rng.random() < 0.5:
        cap = dyadic(rng, 1, 4 * len(petals))
        constraints.append(ExternalConstraint(ConstraintKind.MAKESPAN, start, end, 0.0, cap))
    return Daisy(agents, tuple(petals), tuple(constraints), start=start, end=end)


def test_enumerate_orders_equals_the_brute_force_filter():
    rng = random.Random(0x0D3)
    seen = {"cyclic": 0, "none": 0, "some": 0, "all": 0, "many": 0}
    for _ in range(1000):
        daisy = random_daisy(rng)
        try:
            expected = brute_orders(daisy)
        except CyclicPrecedenceError as error:
            seen["cyclic"] += 1
            for limit in (0, 1, 3, None):
                with pytest.raises(CyclicPrecedenceError) as excinfo:
                    enumerate_orders(daisy, limit=limit)
                assert excinfo.value.cycle == error.cycle
            continue
        candidates = sum(1 for _ in linear_extensions(partial_order(daisy)))
        seen["none" if not expected else "all" if len(expected) == candidates else "some"] += 1
        seen["many"] += candidates >= 24
        for limit in (0, 1, 3, None):
            cut = expected if limit is None else expected[:limit]
            assert enumerate_orders(daisy, limit=limit) == cut, (limit, daisy)
    # Every kind of case must occur or the comparison proves little.
    assert min(seen.values()) >= 20, seen


def test_a_new_projection_meets_no_arc_of_the_last_one():
    # Three agents, one-second petals, no petal precedence. The "other"
    # constraints (lower bound 0) close a negative cycle through B when the
    # a-agent runs A2 before A1 and the c-agent runs C2 before C1:
    # A2.end <= A1.start <= B.start <= C2.start < C2.end <= C1.start <= A2.start.
    one_second = {name: build_action("work", 1.0, 1.0) for name in ("A1", "A2", "B", "C1", "C2")}
    petals = tuple(build_petal(name, [a], owner=name[0].lower()) for name, a in one_second.items())

    def no_later(first, then):
        return ExternalConstraint(
            ConstraintKind.OTHER, one_second[first].start, one_second[then].start, 0.0, INF
        )

    daisy = Daisy(
        (Agent("a"), Agent("b"), Agent("c")),
        petals,
        (no_later("A1", "B"), no_later("B", "C2"), no_later("C1", "A2")),
    )
    # The candidates starting with A1 leave the c-agent's C2 -> C1 arc in
    # place, and the next projection swaps A1 and A2 but also C1 and C2.
    # Placing A2 -> A1 next to that stale arc rejects a consistent order.
    orders = enumerate_orders(daisy, limit=None)
    assert orders == brute_orders(daisy)
    assert len(orders) == 90  # 120 candidates less the 30 running A2 and C2 first
    assert ("A2", "A1", "B", "C1", "C2") in orders


def projection(daisy, order):
    """Each agent's own petal sequence in ``order``, in ``daisy.agents`` order."""
    return tuple(
        tuple(name for name in order if daisy.petal(name).owner == agent.id)
        for agent in daisy.agents
    )


def count_add_arc(monkeypatch, daisy, limit):
    """``enumerate_orders`` with its ``add_arc`` calls counted per candidate."""
    drawn = []
    calls = Counter()
    extensions, add_arc = planner.linear_extensions, planner.add_arc

    def drawing(precedence, limit=None):
        for order in extensions(precedence, limit):
            drawn.append(order)
            yield order

    def counted(*args):
        calls[drawn[-1]] += 1
        return add_arc(*args)

    monkeypatch.setattr(planner, "linear_extensions", drawing)
    monkeypatch.setattr(planner, "add_arc", counted)
    return enumerate_orders(daisy, limit=limit), drawn, calls


def lanes_daisy(seed, per_lane):
    """Two lanes of four-action petals coupled as in ``perfbench``'s plan-orders.

    Position ``k`` hands off robot to human in the first half of the lanes and
    human to robot in the second; the makespan is capped at 1.1 times the
    declared order's. Actions take about a second, so the orders the cap
    admits depend on the shape alone.
    """
    rng = random.Random(seed)

    def lane(owner):
        petals = []
        for k in range(per_lane):
            actions = []
            for j in range(4):
                lower = rng.uniform(0.95, 1.05)
                actions.append(build_action(f"a{j}", lower, lower + rng.uniform(0.5, 1.5)))
            petals.append(build_petal(f"{owner[0].upper()}{k:02d}", actions, owner=owner))
        return petals

    pairs = list(zip(lane("human"), lane("robot")))
    handoffs = []
    for k, (human, robot) in enumerate(pairs):
        source, target = (robot, human) if 2 * k < per_lane else (human, robot)
        handoffs.append(ExternalConstraint(
            ConstraintKind.HANDOFF, source.last.end, target.first.start, 0.0, INF
        ))
    petals = tuple(p for pair in pairs for p in pair)
    daisy = Daisy((Agent("human"), Agent("robot")), petals, tuple(handoffs))
    makespan = earliest_schedule(compile_to_stn(daisy))[daisy.end]
    cap = ExternalConstraint(ConstraintKind.MAKESPAN, daisy.start, daisy.end, 0.0, 1.1 * makespan)
    return Daisy(daisy.agents, petals, (*handoffs, cap), start=daisy.start, end=daisy.end)


@pytest.mark.parametrize("seed", [1, 7])
def test_plan_orders_checks_each_projection_once(monkeypatch, seed):
    daisy = lanes_daisy(seed, per_lane=6)
    orders, drawn, calls = count_add_arc(monkeypatch, daisy, limit=100)
    assert len(orders) == 100 and len(drawn) == 194
    assert len({projection(daisy, order) for order in drawn}) == 64
    checked = [projection(daisy, order) for order in calls]
    assert len(checked) == len(set(checked))  # no projection is checked twice
    assert sum(calls.values()) <= 185  # 566 when one stack held every arc


def test_plan_orders_builds_no_constraint_per_arc(monkeypatch):
    # Sequencing arcs go straight onto the folded network, and the one
    # unsequenced compile writes rows, so no constraint is built at all.
    daisy = lanes_daisy(7, per_lane=6)
    built = 0
    check_bounds = stn_module.TemporalConstraint.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        check_bounds(self)

    monkeypatch.setattr(stn_module.TemporalConstraint, "__post_init__", counted)
    assert len(enumerate_orders(daisy, limit=100)) == 100
    assert built == 0  # 115 when the compile built its constraints, 300 when each arc did too


def test_precedence_cycles_are_raised_before_compile_errors():
    unowned = chained_daisy(lower=0.5)
    unowned = unowned.with_petals(
        [build_petal("first", unowned.petals[0].actions)] + list(unowned.petals[1:])
    )
    assert enumerate_orders(unowned, limit=0) == []
    with pytest.raises(UnassignedPetalError):
        enumerate_orders(unowned, limit=1)
    a, b = unowned.petals[0].first, unowned.petals[1].first
    ring = Daisy(
        agents=unowned.agents,
        petals=unowned.petals,
        constraints=unowned.constraints
        + (ExternalConstraint(ConstraintKind.HANDOFF, b.end, a.start, 0.0, INF),),
        start=unowned.start,
        end=unowned.end,
    )
    for limit in (0, 1, None):
        with pytest.raises(CyclicPrecedenceError):
            enumerate_orders(ring, limit=limit)


def test_enumerate_orders_compiles_and_solves_once(monkeypatch):
    # Six one-action petals, three per agent, no precedence: 720 candidates.
    # ``h2`` must end by 3 s, so it cannot run last of the human's petals.
    durations = {"h0": 2.0, "h1": 2.0, "h2": 1.0, "r0": 1.0, "r1": 2.0, "r2": 3.0}
    petals = tuple(
        build_petal(name, [build_action("work", lower, lower)], owner=name[0])
        for name, lower in durations.items()
    )
    start = TimePoint("task.start")
    deadline = ExternalConstraint(
        ConstraintKind.OTHER, start, petals[2].last.end, -INF, 3.0
    )
    daisy = Daisy((Agent("h"), Agent("r")), petals, (deadline,), start=start)
    expected = brute_orders(daisy)
    assert len(expected) == 480

    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(planner, "compile_to_stn", counting("compile", planner.compile_to_stn))
    monkeypatch.setattr(planner, "solve", counting("solve", planner.solve))
    assert enumerate_orders(daisy, limit=None) == expected
    assert calls == {"compile": 1, "solve": 1}


def test_enumerate_orders_checks_each_projection_once(monkeypatch):
    # The task of ``test_enumerate_orders_compiles_and_solves_once``.
    durations = {"h0": 2.0, "h1": 2.0, "h2": 1.0, "r0": 1.0, "r1": 2.0, "r2": 3.0}
    petals = tuple(
        build_petal(name, [build_action("work", lower, lower)], owner=name[0])
        for name, lower in durations.items()
    )
    start = TimePoint("task.start")
    deadline = ExternalConstraint(ConstraintKind.OTHER, start, petals[2].last.end, -INF, 3.0)
    daisy = Daisy((Agent("h"), Agent("r")), petals, (deadline,), start=start)
    orders, drawn, calls = count_add_arc(monkeypatch, daisy, limit=None)
    assert len(orders) == 480 and len(drawn) == 720
    checked = [projection(daisy, order) for order in calls]
    assert len(checked) == len(set(checked)) <= 36  # 3! x 3! projections
    assert sum(calls.values()) <= 70  # 1 692 when one stack held every arc


# -- the folded network ----------------------------------------------------------


def petal_ends(daisy):
    return [daisy.start, daisy.end] + [
        point for petal in daisy.petals for point in (petal.first.start, petal.last.end)
    ]


def test_folded_daisies_keep_distances_and_verdicts():
    rng = random.Random(0xF01D)
    seen = {"folded": 0, "sequencing": 0, "other": 0, "rejected": 0}
    for _ in range(1000):
        daisy = random_daisy(rng)
        graph = solve(compile_to_stn(daisy, sequenced=False))
        if not graph.consistent:
            continue
        full, potential = graph.arcs(), list(graph.potential)
        keep = {graph.position(point) for point in petal_ends(daisy)}
        arcs, reduced, position = fold_series(full, potential, keep)
        kept = [v for v, at in enumerate(position) if at is not None]
        seen["folded"] += len(kept) < len(full)
        rows = dense_distances(
            len(kept), [(u, v, -INF, w) for u, out in enumerate(arcs) for v, w in out]
        )[1]
        points = [graph.points[v] for v in kept]
        assert [[graph.distance(p, q) for q in points] for p in points] == rows
        # Sequencing arcs, from a petal's first start back to another's last
        # end, and arcs between any two kept vertices.
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                before, after = rng.choice(daisy.petals), rng.choice(daisy.petals)
                tail = graph.position(after.first.start)
                head = graph.position(before.last.end)
                weight = -dyadic(rng, 0, 2)
                seen["sequencing"] += 1
            else:
                tail, head, weight = rng.choice(kept), rng.choice(kept), dyadic(rng, -4, 4)
                seen["other"] += 1
            verdict = add_arc(full, potential, tail, head, weight)
            assert add_arc(arcs, reduced, position[tail], position[head], weight) == verdict
            seen["rejected"] += not verdict
    # Every kind of case must occur or the comparison proves little.
    assert min(seen.values()) >= 20, seen


def three_action_lanes(case):
    """Two agents with two petals of three actions each, and a 7 s bound.

    ``case`` names the inner vertex that must stay in the folded network:
    the two ends of a handoff between middle actions, the end of a middle
    action that must come by 7 s, or every inner vertex of ``H1``, whose
    actions last 2**-31 s at least: their lower bounds, each within
    TOLERANCE of the zero potential the solve leaves there, sum to below
    ``-TOLERANCE`` along the petal.
    """
    petals = {
        name: build_petal(
            name,
            [
                build_action(action, 2.0**-31 if (case, name) == ("light run", "H1") else 1.0, 2.0)
                for action in "abc"
            ],
            owner=name[0].lower(),
        )
        for name in ("H0", "R0", "H1", "R1")
    }
    h0, r0, h1, _ = petals.values()
    start, end = TimePoint("task.start"), TimePoint("task.end")
    if case == "mid-petal handoff":
        source, target = r0.actions[1].end, h0.actions[1].start
    else:
        source, target = r0.last.end, h0.first.start
    constraints = [ExternalConstraint(ConstraintKind.HANDOFF, source, target, 0.0, INF)]
    if case == "inner deadline":
        constraints.append(ExternalConstraint(ConstraintKind.OTHER, start, h0.actions[1].end, -INF, 7.0))
    else:
        constraints.append(ExternalConstraint(ConstraintKind.MAKESPAN, start, end, 0.0, 7.0))
    stays = {
        "mid-petal handoff": {source, target},
        "inner deadline": {h0.actions[1].end},
        "light run": {point for action in h1.actions for point in (action.start, action.end)},
    }[case]
    daisy = Daisy((Agent("h"), Agent("r")), tuple(petals.values()), tuple(constraints), start, end)
    return daisy, stays


@pytest.mark.parametrize("case", ["mid-petal handoff", "inner deadline", "light run"])
def test_plan_keeps_the_inner_vertices_it_needs(monkeypatch, case):
    daisy, stays = three_action_lanes(case)
    folds = []
    fold = planner.fold_series

    def recording(*args):
        folds.append(fold(*args))
        return folds[-1]

    monkeypatch.setattr(planner, "fold_series", recording)
    orders = enumerate_orders(daisy, limit=None)
    expected = brute_orders(daisy)
    assert orders == expected and 0 < len(expected) < 12
    (_, _, position), = folds
    points = compile_to_stn(daisy, sequenced=False).timepoints
    kept = {point for point, at in zip(points, position) if at is not None}
    assert stays <= kept
    assert len(kept) < len(points)  # other inner vertices did fold
    if case == "light run":
        # The solve leaves H1's labels at zero, where its run of three lower
        # bounds, folded, would weigh -3 * 2**-31 s.
        graph = solve(compile_to_stn(daisy, sequenced=False))
        assert {graph.potential[graph.position(point)] for point in stays} == {0.0}
        assert -3 * 2.0**-31 < -TOLERANCE


@pytest.mark.parametrize("seed", [1, 7])
def test_plan_orders_lowers_few_labels(monkeypatch, seed):
    daisy = lanes_daisy(seed, per_lane=6)
    lowered = []
    fall = stn_module._fall

    def counted(*args):
        labels, settled = fall(*args)
        lowered.append(len(labels))
        return labels, settled

    monkeypatch.setattr(stn_module, "_fall", counted)
    assert len(enumerate_orders(daisy, limit=100)) == 100
    # Seed 1 lowers 7 464 labels and seed 7 7 370 when every vertex is kept.
    assert sum(lowered) <= 2030


@pytest.mark.parametrize("seed", [5, 7])
def test_plan_on_a_handoff_chain_never_folds(monkeypatch, capsys, tmp_path, seed):
    # chain-400's task: each petal hands off to the next, so the one
    # candidate's sequencing arcs follow the handoffs and lower no label.
    document = _workloads().chain_task(seed, petals=50, actions=4)
    task = tmp_path / "chain.json"
    task.write_text(json.dumps(document))
    expected = brute_orders(parse_daisy(document).daisy)
    assert len(expected) == 1
    folds = []
    fold = planner.fold_series

    def recording(*args):
        folds.append(args)
        return fold(*args)

    monkeypatch.setattr(planner, "fold_series", recording)
    assert run_cli(["plan", str(task)]) == 0
    assert folds == []
    assert capsys.readouterr().out == "".join(f"{', '.join(order)}\n" for order in expected)
