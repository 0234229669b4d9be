"""Daisy model construction, validation, and compilation."""
from __future__ import annotations

import random
from collections import Counter

import pytest

from madtn import (
    INF,
    UNASSIGNED,
    Agent,
    ConstraintKind,
    Daisy,
    DaisySpecDocument,
    EmptyPetalError,
    ExternalConstraint,
    InvalidDaisyError,
    InvertedBoundsError,
    MalformedOrderingError,
    NegativeDurationError,
    UnassignedPetalError,
    UnknownTimePointError,
    build_action,
    build_petal,
    compile_to_stn,
    daisy_document,
    earliest_schedule,
    enumerate_orders,
    fluency_report,
    handoff_constraints,
    partial_order,
    simulate,
    solve,
    validate_daisy,
    validate_trace,
    validation_warnings,
)
from madtn.simulate import _start_gates
from madtn.stn import TimePoint
from conftest import stn_as_tuples
from oracles import brute_difference_bounds, reference_compile
from test_reference import TASKS
from test_planner import random_daisy


def two_petal_daisy(handoff_lower=0.0, makespan=(0.0, 6.0)):
    """Tiny fetch-then-use task: one action per agent, one handoff."""
    fetch = build_action("fetch", 1.0, 2.0)
    use = build_action("use", 1.0, 3.0)
    supply = build_petal("supply", [fetch], owner="robot")
    consume = build_petal("consume", [use], owner="human")
    daisy = Daisy(
        agents=(Agent("human"), Agent("robot")),
        petals=(supply, consume),
    )
    constraints = (
        ExternalConstraint(
            ConstraintKind.HANDOFF, fetch.end, use.start, handoff_lower, INF
        ),
        ExternalConstraint(
            ConstraintKind.MAKESPAN, daisy.start, daisy.end, makespan[0], makespan[1]
        ),
    )
    return Daisy(
        agents=daisy.agents,
        petals=daisy.petals,
        constraints=constraints,
        start=daisy.start,
        end=daisy.end,
    )


def test_action_bounds_are_validated():
    with pytest.raises(NegativeDurationError):
        build_action("bad", -1.0, 2.0)
    with pytest.raises(InvertedBoundsError):
        build_action("bad", 3.0, 2.0)
    with pytest.raises(InvertedBoundsError):
        build_action("bad", INF)
    unbounded = build_action("open-ended", 0.5)
    assert unbounded.upper == INF


def test_petal_must_have_actions():
    with pytest.raises(EmptyPetalError):
        build_petal("empty", [])


def test_valid_daisy_has_no_violations():
    assert validate_daisy(two_petal_daisy()) == []


def test_validation_catches_naming_and_ownership_problems():
    action = build_action("a", 1.0)
    daisy = Daisy(
        agents=(Agent("x"), Agent("x")),
        petals=(
            build_petal("p", [action], owner="x"),
            build_petal("p", [build_action("dot.ted", 1.0)], owner="ghost"),
        ),
    )
    violations = validate_daisy(daisy)
    assert any("declared more than once" in v for v in violations)
    assert any("used more than once" in v for v in violations)
    assert any("'ghost' is not a declared agent" in v for v in violations)
    assert any("dot-free" in v for v in violations)


def one_petal_daisy(agent="x", petal="p", bounds=None, makespan=None):
    """One agent's one-action petal, with an optional ``other`` constraint
    across the action and an optional makespan."""
    action = build_action("a", 1.0)
    daisy = Daisy(agents=(Agent(agent),), petals=(build_petal(petal, [action], owner=agent),))
    constraints = []
    if bounds is not None:
        constraints.append(
            ExternalConstraint(ConstraintKind.OTHER, action.start, action.end, *bounds)
        )
    if makespan is not None:
        constraints.append(
            ExternalConstraint(ConstraintKind.MAKESPAN, daisy.start, daisy.end, *makespan)
        )
    return Daisy(daisy.agents, daisy.petals, tuple(constraints),
                 start=daisy.start, end=daisy.end)


@pytest.mark.parametrize("daisy, expected", [
    (one_petal_daisy(agent="x.y"), "agent id 'x.y' must be non-empty and dot-free"),
    (one_petal_daisy(petal="p.q"), "petal name 'p.q' must be non-empty and dot-free"),
    (one_petal_daisy(bounds=(5.0, 3.0)), "other constraint bounds [5.0, 3.0] are inverted"),
    (one_petal_daisy(makespan=(-1.0, 9.0)),
     "makespan constraint lower bound must be non-negative, got -1.0"),
    (one_petal_daisy(bounds=(float("nan"), 3.0)), "other constraint has NaN bounds"),
    (one_petal_daisy(bounds=(INF, INF)),
     "other constraint bounds [inf, inf] admit no finite difference"),
    (one_petal_daisy(bounds=(-INF, -INF)),
     "other constraint bounds [-inf, -inf] admit no finite difference"),
    (one_petal_daisy(bounds=(0.0, float("nan"))), "other constraint has NaN bounds"),
])
def test_validation_names_each_broken_model_rule(daisy, expected):
    assert expected in validate_daisy(daisy)
    # Compiling writes rows unchecked, so validation must stop each of them.
    with pytest.raises(InvalidDaisyError) as raised:
        compile_to_stn(daisy)
    assert expected in raised.value.violations


def test_validation_catches_shared_and_duplicate_actions():
    action = build_action("shared", 1.0)
    daisy = Daisy(
        agents=(Agent("x"),),
        petals=(
            build_petal("p", [action], owner="x"),
            build_petal("q", [action], owner="x"),
        ),
    )
    assert any("appears in both petal" in v for v in validate_daisy(daisy))

    twice = build_action("twice", 1.0)
    other = build_action("twice", 1.0)
    daisy = Daisy(
        agents=(Agent("x"),),
        petals=(build_petal("p", [twice, other], owner="x"),),
    )
    assert any("appears twice in petal" in v for v in validate_daisy(daisy))


def test_handoff_orientation_is_enforced():
    fetch = build_action("fetch", 1.0, 2.0)
    use = build_action("use", 1.0, 3.0)
    daisy = Daisy(
        agents=(Agent("human"), Agent("robot")),
        petals=(
            build_petal("supply", [fetch], owner="robot"),
            build_petal("consume", [use], owner="human"),
        ),
        constraints=(
            ExternalConstraint(ConstraintKind.HANDOFF, fetch.start, use.end, 0.0, INF),
        ),
    )
    violations = validate_daisy(daisy)
    assert any("source must be an action end vertex" in v for v in violations)
    assert any("target must be an action start vertex" in v for v in violations)


def test_handoff_lower_bound_must_be_zero():
    violations = validate_daisy(two_petal_daisy(handoff_lower=0.5))
    assert any("lower bound must be exactly 0" in v for v in violations)


def test_handoff_may_not_stay_inside_one_petal():
    first = build_action("first", 1.0)
    second = build_action("second", 1.0)
    daisy = Daisy(
        agents=(Agent("x"),),
        petals=(build_petal("p", [first, second], owner="x"),),
        constraints=(
            ExternalConstraint(ConstraintKind.HANDOFF, first.end, second.start, 0.0, INF),
        ),
    )
    assert any("must cross petals" in v for v in validate_daisy(daisy))


def test_makespan_must_span_the_global_vertices():
    action = build_action("a", 1.0)
    daisy = Daisy(
        agents=(Agent("x"),),
        petals=(build_petal("p", [action], owner="x"),),
    )
    bad = Daisy(
        agents=daisy.agents,
        petals=daisy.petals,
        constraints=(
            ExternalConstraint(
                ConstraintKind.MAKESPAN, daisy.start, action.end, 0.0, 9.0
            ),
        ),
        start=daisy.start,
        end=daisy.end,
    )
    assert any("global start vertex to the global end" in v for v in validate_daisy(bad))


def test_constraint_endpoints_must_belong_to_the_task():
    outsider = build_action("outsider", 1.0)
    action = build_action("a", 1.0)
    daisy = Daisy(
        agents=(Agent("x"),),
        petals=(build_petal("p", [action], owner="x"),),
        constraints=(
            ExternalConstraint(ConstraintKind.OTHER, action.end, outsider.start, 0.0, INF),
        ),
    )
    assert any("is not a vertex of this task" in v for v in validate_daisy(daisy))


def test_unresolved_and_global_constraint_ends_reach_only_their_own_rules():
    # A handoff from a point of no action, and a release from Vs into the
    # first action of a petal.
    stray, start = TimePoint("stray"), TimePoint("task.start")
    give = build_action("give", 1.0)
    take, put = build_action("take", 1.0), build_action("put", 1.0)
    handoff = ExternalConstraint(ConstraintKind.HANDOFF, stray, take.start, 0.0, INF)
    release = ExternalConstraint(ConstraintKind.OTHER, start, take.start, 1.0, INF)
    daisy = Daisy(
        agents=(Agent("x"), Agent("y")),
        petals=(build_petal("p", [give], owner="x"), build_petal("q", [take, put], owner="y")),
        constraints=(handoff, release),
        start=start,
    )
    assert validate_daisy(daisy) == [
        f"handoff constraint source {stray!r} is not a vertex of this task"
    ]
    assert validation_warnings(daisy) == []
    assert partial_order(daisy).edges == frozenset()
    with pytest.raises(
        InvalidDaisyError, match="handoff constraint endpoints do not resolve to action vertices"
    ):
        handoff_constraints(daisy)
    gates = _start_gates(daisy)
    assert list(gates) == [take]
    assert gates[take] == [release]


def test_an_unknown_petal_name_is_a_key_error_naming_it():
    with pytest.raises(KeyError) as excinfo:
        two_petal_daisy().petal("nope")
    assert excinfo.value.args == ("no petal named 'nope'",)


def test_a_constraint_kind_may_be_given_by_its_value():
    a, b = TimePoint("a"), TimePoint("b")
    assert ExternalConstraint("handoff", a, b, 0.0).kind is ConstraintKind.HANDOFF


def test_handoff_links_resolve_petals_and_actions():
    daisy = two_petal_daisy()
    (link,) = handoff_constraints(daisy)
    assert link.source_petal.name == "supply"
    assert link.source_action.name == "fetch"
    assert link.target_petal.name == "consume"
    assert link.target_action.name == "use"


def test_handoffs_between_one_agents_petals_are_not_links():
    # A transfer an agent makes to itself binds temporally but moves nothing
    # between teammates, so it contributes no link.
    give = build_action("give", 1.0)
    take = build_action("take", 1.0)
    daisy = Daisy(
        agents=(Agent("x"), Agent("y")),
        petals=(
            build_petal("p", [give], owner="x"),
            build_petal("q", [take], owner="x"),
        ),
        constraints=(
            ExternalConstraint(ConstraintKind.HANDOFF, give.end, take.start, 0.0, INF),
        ),
    )
    assert validate_daisy(daisy) == []
    assert handoff_constraints(daisy) == ()


def test_unassigned_owner_is_legal_until_compile():
    action = build_action("a", 1.0)
    daisy = Daisy(
        agents=(Agent("x"),),
        petals=(build_petal("p", [action]),),
    )
    assert validate_daisy(daisy) == []
    with pytest.raises(UnassignedPetalError):
        compile_to_stn(daisy)


def test_agent_id_may_not_shadow_the_no_owner_marker():
    action = build_action("a", 1.0)
    daisy = Daisy(
        agents=(Agent(UNASSIGNED),),
        petals=(build_petal("p", [action], owner=UNASSIGNED),),
    )
    assert any("collides" in v for v in validate_daisy(daisy))


def test_petal_tags_normalize_and_survive_reassignment():
    petal = build_petal("p", [build_action("a", 1.0)], tags=["box", "box", "tape"])
    assert petal.tags == frozenset({"box", "tape"})
    owned = petal.with_owner("x")
    assert owned.tags == petal.tags


def test_mid_petal_handoff_endpoints_warn(packaging):
    assert validation_warnings(packaging.daisy) == []

    fetch = build_action("fetch", 1.0, 2.0)
    check = build_action("check", 0.5)
    use = build_action("use", 1.0, 3.0)
    daisy = Daisy(
        agents=(Agent("human"), Agent("robot")),
        petals=(
            build_petal("supply", [fetch, check], owner="robot"),
            build_petal("consume", [use], owner="human"),
        ),
        constraints=(
            # Leaves "supply" before its final action: legal, but blurry.
            ExternalConstraint(ConstraintKind.HANDOFF, fetch.end, use.start, 0.0, INF),
        ),
    )
    assert validate_daisy(daisy) == []
    warnings = validation_warnings(daisy)
    assert len(warnings) == 1
    assert "mid-petal" in warnings[0] and "'fetch'" in warnings[0]


def test_compile_requires_owners_and_validity():
    action = build_action("a", 1.0)
    daisy = Daisy(
        agents=(Agent("x"),),
        petals=(build_petal("p", [action]),),  # owner left unassigned
    )
    with pytest.raises(UnassignedPetalError):
        compile_to_stn(daisy)
    bad = two_petal_daisy(handoff_lower=0.5)
    with pytest.raises(InvalidDaisyError):
        compile_to_stn(bad)


def test_validation_is_worked_out_once_and_handed_out_fresh():
    bad = two_petal_daisy(handoff_lower=0.5)
    first, second = validate_daisy(bad), validate_daisy(bad)
    assert first and first == second
    assert first is not second
    first.clear()
    assert validate_daisy(bad) == second
    with pytest.raises(InvalidDaisyError):
        compile_to_stn(bad)
    with pytest.raises(InvalidDaisyError):
        compile_to_stn(bad)


def test_compile_vertex_count_and_anchor(packaging):
    daisy = packaging.daisy
    first = daisy.petal("Retrieve Object A").first
    label = first.start.label
    stn = compile_to_stn(daisy)
    actions = sum(len(p.actions) for p in daisy.petals)
    assert len(stn) == 2 * actions + 2
    assert stn.anchor is daisy.start
    # Vertices are named through the daisy; compiling leaves labels alone.
    assert daisy.vertex_path(first.start) == "Retrieve Object A.Walk to Shelf.start"
    assert first.start.label == label


def solved_bits(network):
    """The verdict of ``solve`` and its potential, each label as its bits."""
    graph = solve(network)
    bits = None if graph.potential is None else [float.hex(x) for x in graph.potential]
    return graph.consistent, bits


def agrees(network, reference):
    """Whether ``network`` has ``reference``'s points and constraints, in
    order, and solves to the same verdict and bit for bit the same potential."""
    try:
        constraints = network.constraints
    except InvertedBoundsError:  # a row that no constraint admits
        return False
    return (
        network.timepoints == reference.timepoints
        and network.anchor is reference.anchor
        and constraints == reference.constraints
        and solved_bits(network) == solved_bits(reference)
    )


def compile_cases(daisy):
    """``compile_to_stn`` arguments: declared, ordered, gapped and unsequenced."""
    names = [p.name for p in daisy.petals]
    gaps = {agent.id: 0.5 * (k + 1) for k, agent in enumerate(daisy.agents)}
    return {
        "declared": {},
        "ordering": {"ordering": names[::-1]},
        "transitions": {"ordering": names[::-1], "transition_lower": gaps},
        "unsequenced": {"sequenced": False},
    }


@pytest.mark.parametrize("case", ["declared", "ordering", "transitions", "unsequenced"])
def test_compile_writes_what_constrain_would_add(packaging, case):
    daisy = packaging.daisy
    kwargs = compile_cases(daisy)[case]
    reference = reference_compile(daisy, **kwargs)
    assert agrees(compile_to_stn(daisy, **kwargs), reference)
    if case != "transitions":
        return
    # Each mutant breaks one row, and the comparison catches it.
    rows = compile_to_stn(daisy, **kwargs)._rows
    petal_rows = sum(2 * len(p.actions) + 1 for p in daisy.petals)
    i, j, gap, upper = rows[petal_rows]  # the first sequencing row
    k = next(k for k, p in enumerate(daisy.petals) if p.first.lower != p.first.upper)
    action_row = sum(2 * len(p.actions) + 1 for p in daisy.petals[:k])
    a, b, lower, bound = rows[action_row]
    assert gap > 0 and lower < bound

    def replaced(at, row):
        return rows[:at] + [row] + rows[at + 1:]

    mutants = {
        "two rows swapped": [rows[1], rows[0], *rows[2:]],
        "a sequencing row without its gap": replaced(petal_rows, (i, j, 0.0, upper)),
        "an action row with its bounds swapped": replaced(action_row, (a, b, bound, lower)),
    }
    for name, mutated in mutants.items():
        mutant = compile_to_stn(daisy, **kwargs)
        mutant._rows[:] = mutated
        assert not agrees(mutant, reference), name


def test_compile_writes_what_constrain_would_add_on_random_tasks():
    # The random tasks of ``test_reference.py``, in the same draws.
    rng = random.Random(20261020)
    verdicts = Counter()
    for _ in range(TASKS):
        daisy = random_daisy(rng)
        for kwargs in compile_cases(daisy).values():
            network = compile_to_stn(daisy, **kwargs)
            assert agrees(network, reference_compile(daisy, **kwargs)), kwargs
            verdicts[solve(network).consistent] += 1
    assert verdicts[True] and verdicts[False]
    # A task with no petals, and one whose global start is its global end.
    empty = Daisy(agents=(Agent("x"),), petals=())
    assert agrees(compile_to_stn(empty), reference_compile(empty))
    shared = Daisy(agents=empty.agents, petals=(), start=empty.start, end=empty.start)
    for build in (compile_to_stn, reference_compile):
        with pytest.raises(ValueError, match="already a member"):
            build(shared)


def shared_action_pair():
    """Daisies P and Q that share action ``x``, owned by H in P and by R in Q."""
    shared = build_action("x", 1.0, 2.0)
    agents = (Agent("H"), Agent("R"))
    pair = []
    for name, owner, other, helper in (("P", "H", "R", "s"), ("Q", "R", "H", "t")):
        follow = build_action(helper, 1.0, 3.0)
        base = Daisy(
            agents=agents,
            petals=(
                build_petal(name, [shared], owner=owner),
                build_petal(helper.upper(), [follow], owner=other),
            ),
        )
        pair.append(
            Daisy(
                agents=agents,
                petals=base.petals,
                constraints=(
                    ExternalConstraint(
                        ConstraintKind.HANDOFF, shared.end, follow.start, 0.0, INF
                    ),
                ),
                start=base.start,
                end=base.end,
            )
        )
    return pair


def model_state(daisy):
    """Every vertex label and the canonical document of the task."""
    labels = [daisy.start.label, daisy.end.label] + [
        point.label
        for petal in daisy.petals
        for action in petal.actions
        for point in (action.start, action.end)
    ]
    return labels, daisy_document(DaisySpecDocument(daisy=daisy))


PIPELINE = {
    "compile_to_stn": lambda d: compile_to_stn(d),
    "solve": lambda d: solve(compile_to_stn(d)),
    "earliest_schedule": lambda d: earliest_schedule(compile_to_stn(d)),
    "enumerate_orders": lambda d: enumerate_orders(d),
    "simulate": lambda d: simulate(d, seed=4),
    "validate_trace": lambda d: validate_trace(d, simulate(d, seed=4)),
    "fluency_report": lambda d: fluency_report(d, simulate(d, seed=4)),
}


@pytest.mark.parametrize("step", sorted(PIPELINE))
def test_no_pipeline_step_mutates_the_model(packaging, step):
    daisies = [packaging.daisy, *shared_action_pair()]
    before = [model_state(d) for d in daisies]
    for daisy in daisies:
        PIPELINE[step](daisy)
        assert [model_state(d) for d in daisies] == before
    p, q = daisies[1:]
    shared = p.petals[0].first
    assert (p.vertex_path(shared.start), q.vertex_path(shared.start)) == (
        "P.x.start",
        "Q.x.start",
    )
    assert (p.locate(shared.end)[0].owner, q.locate(shared.end)[0].owner) == ("H", "R")


def test_vertex_paths_name_every_vertex(packaging):
    daisy = packaging.daisy
    assert daisy.vertex_path(daisy.start) == "Vs"
    assert daisy.vertex_path(daisy.end) == "Ve"
    last = daisy.petals[-1].last
    assert daisy.vertex_path(last.end) == f"{daisy.petals[-1].name}.{last.name}.end"
    with pytest.raises(UnknownTimePointError):
        daisy.vertex_path(build_action("stray", 1.0).start)
    vertices = [daisy.start, daisy.end]
    vertices += [p for petal in daisy.petals for a in petal.actions for p in (a.start, a.end)]
    for point in vertices:
        assert daisy.vertex(daisy.vertex_path(point)) is point
    for path in ("nope", f"{daisy.petals[0].name}.x.middle", "Ghost.x.start",
                 f"{daisy.petals[0].name}.Haunt.end"):
        with pytest.raises(UnknownTimePointError):
            daisy.vertex(path)


def test_compiled_bounds_match_oracle_sweep():
    # The compiled network of the tiny task is small enough to sweep fully.
    daisy = two_petal_daisy()
    stn = compile_to_stn(daisy)
    graph = solve(stn)
    assert graph.consistent
    oracle = brute_difference_bounds(*stn_as_tuples(stn))
    assert oracle is not None
    points = stn.timepoints
    for i in range(len(points)):
        for j in range(len(points)):
            low, high = graph.bounds(points[i], points[j])
            assert (max(low, -60.0), min(high, 60.0)) == oracle[i][j]


def test_tight_makespan_is_inconsistent():
    # fetch then use takes at least 2 seconds end to end.
    tight = two_petal_daisy(makespan=(0.0, 1.9))
    assert not solve(compile_to_stn(tight)).consistent
    exact = two_petal_daisy(makespan=(0.0, 2.0))
    assert solve(compile_to_stn(exact)).consistent


def test_ordering_must_be_a_permutation(packaging):
    daisy = packaging.daisy
    with pytest.raises(MalformedOrderingError):
        compile_to_stn(daisy, ordering=["seal"])
    with pytest.raises(MalformedOrderingError):
        compile_to_stn(daisy, ordering=[p.name for p in daisy.petals] + ["seal"])
    with pytest.raises(MalformedOrderingError):
        compile_to_stn(daisy, ordering=["nope"] + [p.name for p in daisy.petals][1:])


def test_ordering_matters_only_agent_by_agent(packaging):
    daisy = packaging.daisy
    declared = [p.name for p in daisy.petals]
    # Swapping two petals of different agents changes nothing.
    swapped = declared.copy()
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert daisy.petal(swapped[0]).owner != daisy.petal(swapped[1]).owner
    base = earliest_schedule(compile_to_stn(daisy, ordering=declared))
    same = earliest_schedule(compile_to_stn(daisy, ordering=swapped))
    assert {p.label: t for p, t in base.items()} == {
        p.label: t for p, t in same.items()
    }
    # Reordering one agent's own petals does change the schedule.
    robot_flip = declared.copy()
    i = declared.index("Prepare and Pack Object B")
    j = declared.index("Pack Object A")
    robot_flip[i], robot_flip[j] = robot_flip[j], robot_flip[i]
    flipped = earliest_schedule(compile_to_stn(daisy, ordering=robot_flip))
    assert {p.label: t for p, t in base.items()} != {
        p.label: t for p, t in flipped.items()
    }


def test_transition_lower_bound_separates_petals_not_actions():
    daisy = two_petal_daisy(makespan=(0.0, 30.0))
    plain = earliest_schedule(compile_to_stn(daisy))
    padded = earliest_schedule(compile_to_stn(daisy, transition_lower={"human": 2.0}))
    use = daisy.petal("consume").first
    # One petal per agent: no petal switch, so the hook changes nothing.
    assert padded[use.start] == plain[use.start]

    first = build_action("first", 1.0, 1.0)
    second = build_action("second", 1.0, 1.0)
    third = build_action("third", 1.0, 1.0)
    solo = Daisy(
        agents=(Agent("x"),),
        petals=(
            build_petal("p", [first, second], owner="x"),
            build_petal("q", [third], owner="x"),
        ),
    )
    times = earliest_schedule(compile_to_stn(solo, transition_lower={"x": 2.0}))
    # Repositioning cost falls between petals, never inside one.
    assert times[second.start] - times[first.end] == 0.0
    assert times[third.start] - times[second.end] == 2.0
    with pytest.raises(NegativeDurationError):
        compile_to_stn(solo, transition_lower=-1.0)


def test_empty_daisy_compiles_to_start_before_end():
    daisy = Daisy(agents=(Agent("x"),), petals=())
    stn = compile_to_stn(daisy)
    assert solve(stn).bounds(daisy.start, daisy.end) == (0.0, INF)
