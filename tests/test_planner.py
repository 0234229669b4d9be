"""Petal precedence, order enumeration, and greedy assignment."""
from __future__ import annotations

import itertools

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
    build_action,
    build_petal,
    compile_to_stn,
    enumerate_orders,
    greedy_assign,
    linear_extensions,
    partial_order,
    solve,
)


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
