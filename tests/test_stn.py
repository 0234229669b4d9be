"""Temporal network construction, solving, and schedule checks."""
from __future__ import annotations

import heapq
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import madtn

from madtn import (
    INF,
    STN,
    InconsistentNetworkError,
    InvertedBoundsError,
    MissingTimePointError,
    TemporalConstraint,
    TimePoint,
    UnboundedScheduleError,
    UnknownTimePointError,
    check_schedule,
    compile_to_stn,
    consistent,
    earliest_schedule,
    minimal_network,
    parse_daisy,
    solve,
)
from madtn import stn as stn_module
from madtn.stn import TOLERANCE, add_arc, fold_series
from conftest import stn_as_tuples, stn_from_tuples
from oracles import (
    brute_consistent,
    brute_difference_bounds,
    dense_distances,
    random_case,
    random_consistent_case,
    random_dyadic_case,
    reference_solve,
)
from same_bytes import ROOT, _workloads
from test_planner import random_daisy


def test_constraint_rejects_inverted_bounds():
    a, b = TimePoint("a"), TimePoint("b")
    with pytest.raises(InvertedBoundsError):
        TemporalConstraint(a, b, 3.0, 2.0)
    with pytest.raises(InvertedBoundsError):
        TemporalConstraint(a, b, math.nan, 2.0)
    with pytest.raises(InvertedBoundsError):
        TemporalConstraint(a, b, INF, INF)
    with pytest.raises(InvertedBoundsError):
        TemporalConstraint(a, b, -INF, -INF)


def test_constraint_allows_one_sided_bounds():
    a, b = TimePoint("a"), TimePoint("b")
    c = TemporalConstraint(a, b, 0.0, INF)
    assert c.satisfied_by(0.0, 1e12)
    c = TemporalConstraint(a, b, -INF, 5.0)
    assert c.satisfied_by(100.0, -1e12)


def test_timepoints_are_identities_not_labels():
    first, second = TimePoint("same"), TimePoint("same")
    assert first != second
    stn = STN()
    stn.add_point(first)
    stn.add_point(second)
    assert len(stn) == 2


def test_a_network_contains_only_its_own_points():
    stn = STN()
    a = stn.add_timepoint("a")
    assert a in stn
    assert TimePoint("a") not in stn


def test_membership_is_enforced():
    stn = STN()
    a = stn.add_timepoint("a")
    stranger = TimePoint("stranger")
    with pytest.raises(UnknownTimePointError):
        stn.add_constraint(TemporalConstraint(a, stranger, 0.0, 1.0))
    with pytest.raises(UnknownTimePointError):
        stn.anchor = stranger
    with pytest.raises(ValueError):
        stn.add_point(a)


def test_anchor_defaults_to_first_point():
    stn = STN()
    a = stn.add_timepoint("a")
    b = stn.add_timepoint("b")
    assert stn.anchor is a
    stn.anchor = b
    assert stn.anchor is b


def test_chain_bounds_match_oracle():
    # Two stacked constraints plus a direct cap; the implied pairwise
    # bounds are whatever the full solution sweep says they are.
    stn = stn_from_tuples(
        3, [(0, 1, 1.0, 3.0), (1, 2, 2.0, 4.0), (0, 2, 0.0, 6.0)]
    )
    graph = solve(stn)
    assert graph.consistent
    oracle = brute_difference_bounds(*stn_as_tuples(stn))
    assert oracle is not None
    points = stn.timepoints
    for i in range(3):
        for j in range(3):
            assert graph.bounds(points[i], points[j]) == oracle[i][j]


def test_negative_cycle_is_inconsistent():
    stn = stn_from_tuples(2, [(0, 1, 3.0, 4.0), (1, 0, 0.0, 1.0)])
    graph = solve(stn)
    assert not graph.consistent
    assert not consistent(stn)
    assert not brute_consistent(*stn_as_tuples(stn))
    # An inconsistent network has no distances to report.
    a, b = stn.timepoints
    with pytest.raises(InconsistentNetworkError):
        graph.bounds(a, b)
    with pytest.raises(InconsistentNetworkError):
        graph.distance(a, b)


def test_duplicate_constraints_intersect():
    stn = stn_from_tuples(2, [(0, 1, 0.0, 5.0), (0, 1, 2.0, 7.0)])
    a, b = stn.timepoints
    assert solve(stn).bounds(a, b) == (2.0, 5.0)


def test_infinity_stays_infinity_through_propagation():
    # inf + x == inf is the only extended-real rule relaxation relies on;
    # a chain of one-sided constraints must come out unbounded, not NaN.
    stn = stn_from_tuples(3, [(0, 1, 1.0, INF), (1, 2, 1.0, INF)])
    graph = solve(stn)
    a, _, c = stn.timepoints
    lower, upper = graph.bounds(a, c)
    assert lower == 2.0
    assert upper == INF
    assert not math.isnan(graph.distance(a, c))
    assert graph.distance(c, a) == -2.0


def test_disconnected_points_are_mutually_unbounded():
    stn = STN()
    a = stn.add_timepoint("a")
    b = stn.add_timepoint("b")
    graph = solve(stn)
    assert graph.consistent
    assert graph.bounds(a, b) == (-INF, INF)


def test_empty_network_is_consistent():
    assert solve(STN()).consistent
    assert earliest_schedule(STN()) == {}


def test_solver_matches_oracle_on_random_networks():
    rng = random.Random(0xC0FFEE)
    for _ in range(60):
        n, constraints = random_case(rng)
        stn = stn_from_tuples(n, constraints)
        assert solve(stn).consistent == brute_consistent(n, constraints)


def test_solver_matches_dense_oracle_on_random_networks():
    rng = random.Random(0xD15C)
    seen = {"inconsistent": 0, "unbounded": 0, "scheduled": 0, "self": 0, "infinite": 0}
    for _ in range(250):
        n, constraints = random_dyadic_case(rng, max_points=40)
        seen["self"] += any(i == j for i, j, _, _ in constraints)
        seen["infinite"] += any(math.isinf(b) for c in constraints for b in c[2:])
        verdict, d = dense_distances(n, constraints)
        stn = stn_from_tuples(n, constraints)
        graph = solve(stn)
        assert graph.consistent == verdict, (n, constraints)
        if not verdict:
            seen["inconsistent"] += 1
            with pytest.raises(InconsistentNetworkError):
                earliest_schedule(stn)
            continue
        points = stn.timepoints
        for i in range(n):
            for j in range(n):
                expected = (-d[j][i] + 0.0, d[i][j] + 0.0)
                assert graph.bounds(points[i], points[j]) == expected, (n, constraints, i, j)
        assert [[graph.distance(p, q) for q in points] for p in points] == d
        if any(d[k][0] == INF for k in range(n)):
            seen["unbounded"] += 1
            with pytest.raises(UnboundedScheduleError):
                earliest_schedule(stn)
        else:
            seen["scheduled"] += 1
            expected = {point: -d[k][0] + 0.0 for k, point in enumerate(points)}
            assert earliest_schedule(stn) == expected
    # Every kind of case must actually occur or the comparison proves little.
    assert min(seen.values()) >= 10, seen


def test_rounding_sized_cycles_stay_consistent():
    # The cycle c -> b -> a -> c sums to -0.2 - 0.1 + 0.3 == -5.6e-17 in
    # floating point: zero in exact arithmetic, and consistent.
    constraints = [(0, 1, 0.1, 0.1), (1, 2, 0.2, 0.2), (0, 2, 0.3, 0.3)]
    assert -0.2 - 0.1 + 0.3 < 0
    assert dense_distances(3, constraints)[0]
    stn = stn_from_tuples(3, constraints)
    assert solve(stn).consistent
    times = earliest_schedule(stn)
    assert list(times.values()) == [0.0, 0.1, 0.3]
    assert check_schedule(stn, times) == []


def test_cycles_within_tolerance_are_consistent():
    def cycle_weighing(weight):
        # a -> b -> a with the return leg short by |weight|.
        return stn_from_tuples(2, [(0, 1, 1.0, 1.0), (1, 0, -2.0, -1.0 + weight)])

    assert solve(cycle_weighing(-5e-10)).consistent
    assert not solve(cycle_weighing(-2e-9)).consistent
    assert solve(stn_from_tuples(1, [(0, 0, 5e-10, 1.0)])).consistent
    assert not solve(stn_from_tuples(1, [(0, 0, 2e-9, 1.0)])).consistent


def test_add_arc_matches_dense_oracle_arc_by_arc():
    rng = random.Random(0xA2C)
    seen = {"rejected": 0, "lowered": 0, "popped": 0, "self": 0}

    def feasible(successors, potential):
        return all(
            potential[u] + w - potential[v] >= -TOLERANCE
            for u, out in enumerate(successors)
            for v, w in out
        )

    for _ in range(300):
        n, constraints = random_dyadic_case(rng, max_points=20)
        arcs = [(i, j, upper) for i, j, _, upper in constraints if upper != INF]
        arcs += [(j, i, -lower) for i, j, lower, _ in constraints if lower != -INF]
        rng.shuffle(arcs)
        graph = solve(stn_from_tuples(n, []))
        successors, potential = graph.arcs(), list(graph.potential)
        added: list[tuple[int, int, float]] = []
        for tail, head, weight in arcs:
            network = [(u, v, -INF, w) for u, v, w in added + [(tail, head, weight)]]
            expected = dense_distances(n, network)[0]
            before = (potential[:], [out[:] for out in successors])
            verdict = add_arc(successors, potential, tail, head, weight)
            assert verdict == expected, (n, added, (tail, head, weight))
            seen["self"] += tail == head
            if verdict:
                added.append((tail, head, weight))
                seen["lowered"] += potential != before[0]
            else:
                # A rejected arc leaves the arc set and the potential as they were.
                seen["rejected"] += 1
                assert (potential, successors) == before
            assert feasible(successors, potential)
            if added and rng.random() < 0.2:
                for _ in range(rng.randint(1, len(added))):
                    u, v, w = added.pop()
                    assert successors[u].pop() == (v, w)
                    seen["popped"] += 1
                assert feasible(successors, potential)
    # Every kind of step must actually occur or the comparison proves little.
    assert min(seen.values()) >= 20, seen


def test_add_arc_ends_on_a_cycle_no_arc_shows():
    # Three arcs of -0.9 ns: each is within TOLERANCE of a zero potential,
    # but the cycle weighs -2.7 ns, so a fall entering it would circle it.
    successors = [[(1, -9e-10)], [(2, -9e-10)], [(0, -9e-10)], []]
    potential = [0.0] * 4
    verdict = add_arc(successors, potential, 3, 0, -1.0)
    assert verdict is False
    assert potential == [0.0] * 4
    assert successors[3] == []


def as_constraints(arcs):
    """Arc lists as oracle constraints: one upper bound per arc."""
    return [(u, v, -INF, w) for u, out in enumerate(arcs) for v, w in out]


def test_fold_series_keeps_distances_and_verdicts():
    rng = random.Random(0xF01D)
    seen = {"folded": 0, "composed": 0, "rejected": 0, "accepted": 0}
    for _ in range(250):
        n, constraints = random_dyadic_case(rng, max_points=20)
        graph = solve(stn_from_tuples(n, constraints))
        if not graph.consistent:
            continue
        keep = {v for v in range(n) if rng.random() < 0.3}
        full, potential = graph.arcs(), list(graph.potential)
        arcs, reduced, position = fold_series(full, potential, keep)
        assert (full, potential) == (graph.arcs(), graph.potential)  # left as they were
        kept = [v for v in range(n) if position[v] is not None]
        assert keep <= set(kept)
        assert [position[v] for v in kept] == list(range(len(kept)))
        assert reduced == [potential[v] for v in kept]
        direct = {(position[u], v, w) for u in kept for v, w in full[u]}
        seen["folded"] += len(kept) < n
        seen["composed"] += any(
            (u, kept[v], w) not in direct for u, out in enumerate(arcs) for v, w in out
        )

        def same_distances():
            d = dense_distances(n, as_constraints(full))[1]
            folded = dense_distances(len(kept), as_constraints(arcs))[1]
            assert [[d[u][v] for v in kept] for u in kept] == folded
            assert all(
                reduced[u] + w - reduced[v] >= -TOLERANCE
                for u, out in enumerate(arcs)
                for v, w in out
            )
            return d

        # Arcs between kept vertices get one verdict on both arc sets, and
        # popping the last one added takes it back off both.
        d, added = same_distances(), []
        for _ in range(rng.randint(1, 8) if kept else 0):
            tail, head = rng.choice(kept), rng.choice(kept)
            offset = rng.randint(-16, 16) / 8
            weight = offset - d[head][tail] if d[head][tail] < INF else offset
            verdict = add_arc(full, potential, tail, head, weight)
            assert add_arc(arcs, reduced, position[tail], position[head], weight) == verdict
            seen["accepted" if verdict else "rejected"] += 1
            if verdict:
                added.append((tail, head))
            if added and rng.random() < 0.3:
                tail, head = added.pop()
                full[tail].pop()
                arcs[position[tail]].pop()
            d = same_distances()
    # Every kind of case must actually occur or the comparison proves little.
    assert min(seen.values()) >= 20, seen


def test_fold_series_keeps_a_run_the_potential_cannot_carry():
    def folded(weight):
        # 0 <-> 1 <-> 2 <-> 3 <-> 4: forward arcs of 1 s, backward arcs of
        # ``weight``, each within TOLERANCE of a zero potential.
        successors = [[(1, 1.0)]] + [[(v - 1, weight), (v + 1, 1.0)] for v in (1, 2, 3)]
        successors.append([(3, weight)])
        return successors, fold_series(successors, [0.0] * 5, {0, 4})

    # Four arcs of -2**-32 s compose to -2**-30 s, about -0.93 ns: folded.
    successors, (arcs, potential, position) = folded(-(2.0**-32))
    assert position == [0, None, None, None, 1]
    assert arcs == [[(1, 4.0)], [(0, -(2.0**-30))]]
    assert potential == [0.0, 0.0]
    # Four arcs of -2**-31 s compose to about -1.86 ns, below -TOLERANCE
    # under that potential: the run stays as it was.
    successors, (arcs, potential, position) = folded(-(2.0**-31))
    assert -(2.0**-29) < -TOLERANCE
    assert position == [0, 1, 2, 3, 4]
    assert arcs == successors


def one_action_chain(petals: int) -> STN:
    """The compiled network of a handoff chain of one-action petals."""
    doc = {
        "agents": [{"id": "x"}, {"id": "y"}],
        "petals": [
            {"name": f"p{i}", "owner": "xy"[i % 2], "actions": [{"name": "a", "lower": 1.0}]}
            for i in range(petals)
        ],
        "constraints": [
            {"kind": "handoff", "source": f"p{i}.a.end", "target": f"p{i + 1}.a.start",
             "lower": 0.0}
            for i in range(petals - 1)
        ],
    }
    return compile_to_stn(parse_daisy(doc).daisy)


def test_solve_does_not_depend_on_constraint_order(monkeypatch):
    compiled = one_action_chain(2000)
    assert len(compiled) == 4002
    start, end = compiled.timepoints[0], compiled.timepoints[-1]
    shuffled = list(compiled.constraints)
    random.Random(7).shuffle(shuffled)
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # Each run of the shared routine seeds its heap with one entry and
    # pushes the rest.
    monkeypatch.setattr(stn_module, "_fall", counting("push", stn_module._fall))
    monkeypatch.setattr(heapq, "heappush", counting("push", heapq.heappush))
    answers = []
    for constraints in (compiled.constraints, compiled.constraints[::-1], shuffled):
        stn = STN()
        for point in compiled.timepoints:
            stn.add_point(point)
        for c in constraints:
            stn.add_constraint(c)
        calls.clear()
        graph = solve(stn)
        arcs = sum(len(out) for out in graph.arcs())
        assert calls["push"] <= arcs, (calls, arcs)
        answers.append((graph.consistent, graph.bounds(start, end), earliest_schedule(stn)))
    assert answers[0] == answers[1] == answers[2]
    assert answers[0][:2] == (True, (2000.0, INF))


def solved_form(graph):
    """A solved graph's verdict, potential and arcs, each float by ``float.hex``."""
    potential = None if graph.potential is None else [label.hex() for label in graph.potential]
    return graph.consistent, potential, [[(v, w.hex()) for v, w in out] for out in graph.arcs()]


def networks_to_solve():
    """Networks of every shape ``solve`` meets, each with a name for failures."""
    rng = random.Random(0x501E)
    for k in range(300):
        n, constraints = random_dyadic_case(rng, max_points=40)
        shuffled = list(constraints)
        rng.shuffle(shuffled)
        # Bounds scaled by 2**-28 bring cycles within a few TOLERANCE of zero.
        light = [(i, j, lower * 2.0**-28, upper * 2.0**-28) for i, j, lower, upper in constraints]
        for form, listed in (("dyadic", constraints), ("reversed", constraints[::-1]),
                             ("shuffled", shuffled), ("light", light)):
            yield f"{form} {k}", stn_from_tuples(n, listed)
    rng = random.Random(20261020)  # the random daisies of tests/test_reference.py
    for k in range(300):
        daisy = random_daisy(rng)
        yield f"daisy {k}", compile_to_stn(daisy)
        yield f"daisy {k} unsequenced", compile_to_stn(daisy, sequenced=False)
    workloads = _workloads()
    for name in workloads.NAMES:
        daisy = parse_daisy(workloads.build(name, 7, ROOT).task).daisy
        yield name, compile_to_stn(daisy)
        yield f"{name} unsequenced", compile_to_stn(daisy, sequenced=False)


def test_solve_matches_the_reference_solve():
    # The reference merges duplicate pairs through one dict and inserts every
    # arc into growing lists, each fall through ``_fall``: verdicts, labels and
    # arcs must agree bit for bit.
    seen = Counter()
    for name, stn in networks_to_solve():
        graph = solve(stn)
        assert solved_form(graph) == solved_form(reference_solve(stn)), name
        seen[graph.consistent] += 1
    # Both verdicts must occur often or the comparison proves little.
    assert min(seen.values()) >= 200, seen


def test_madtn_never_imports_numpy():
    # With numpy unimportable, every command and minimal_network still work.
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from madtn import compile_to_stn, load_packaged_example, minimal_network, run_cli\n"
        "from madtn import packaged_example_path\n"
        "task = str(packaged_example_path())\n"
        "for command in ('compile', 'schedule', 'plan'):\n"
        "    assert run_cli([command, task]) == 0, command\n"
        "tightened = minimal_network(compile_to_stn(load_packaged_example().daisy))\n"
        "print(len(tightened.constraints))\n"
    )
    src = str(Path(madtn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "630"


def test_minimal_network_bounds_are_realized_extremes():
    rng = random.Random(0xFEED)
    for _ in range(30):
        n, constraints = random_consistent_case(rng)
        stn = stn_from_tuples(n, constraints)
        tightened = minimal_network(stn)
        oracle = brute_difference_bounds(n, constraints)
        assert oracle is not None
        points = stn.timepoints
        graph = solve(tightened)
        for i in range(n):
            for j in range(n):
                assert graph.bounds(points[i], points[j]) == oracle[i][j]


def test_minimal_network_shape():
    stn = stn_from_tuples(
        3, [(0, 1, 1.0, 3.0), (1, 2, 2.0, 4.0), (0, 2, 0.0, 6.0), (0, 1, 0.0, 4.0)]
    )
    tightened = minimal_network(stn)
    # Same points, same anchor, one constraint per linked pair.
    assert tightened.timepoints == stn.timepoints
    assert tightened.anchor is stn.anchor
    pairs = {(c.source, c.target) for c in tightened.constraints}
    assert len(pairs) == len(tightened.constraints) == 3
    # Tightening is idempotent.
    again = minimal_network(tightened)
    assert [
        (c.source, c.target, c.lower, c.upper) for c in again.constraints
    ] == [(c.source, c.target, c.lower, c.upper) for c in tightened.constraints]


def test_minimal_network_drops_fully_unbounded_pairs():
    stn = STN()
    a = stn.add_timepoint("a")
    b = stn.add_timepoint("b")
    stn.add_timepoint("free")
    stn.constrain(a, b, 0.0, 1.0)
    tightened = minimal_network(stn)
    assert len(tightened.constraints) == 1
    assert len(tightened) == 3


def test_minimal_network_requires_consistency():
    stn = stn_from_tuples(2, [(0, 1, 3.0, 4.0), (1, 0, 0.0, 1.0)])
    with pytest.raises(InconsistentNetworkError):
        minimal_network(stn)


def test_earliest_schedule_is_pointwise_minimal():
    rng = random.Random(0xBEEF)
    for _ in range(30):
        n, constraints = random_consistent_case(rng)
        stn = stn_from_tuples(n, constraints)
        times = earliest_schedule(stn)
        assert times[stn.anchor] == 0.0
        assert check_schedule(stn, times) == []
        oracle = brute_difference_bounds(n, constraints)
        assert oracle is not None
        for k, point in enumerate(stn.timepoints):
            # Minimum realized offset from the anchor is the earliest time.
            assert times[point] == oracle[0][k][0]


def test_earliest_schedule_refuses_inconsistent_networks():
    stn = stn_from_tuples(2, [(0, 1, 3.0, 4.0), (1, 0, 0.0, 1.0)])
    with pytest.raises(InconsistentNetworkError):
        earliest_schedule(stn)


def test_earliest_schedule_refuses_unbounded_points():
    # Only an upper bound ties b to the anchor; b has no earliest time.
    stn = stn_from_tuples(2, [(0, 1, -INF, 5.0)])
    with pytest.raises(UnboundedScheduleError):
        earliest_schedule(stn)


def test_check_schedule_reports_violations():
    stn = stn_from_tuples(2, [(0, 1, 1.0, 2.0)])
    a, b = stn.timepoints
    assert check_schedule(stn, {a: 0.0, b: 1.5}) == []
    violated = check_schedule(stn, {a: 0.0, b: 5.0})
    assert [(c.source, c.target) for c in violated] == [(a, b)]
    with pytest.raises(MissingTimePointError):
        check_schedule(stn, {a: 0.0})


def test_check_schedule_tolerates_boundary_noise():
    stn = stn_from_tuples(2, [(0, 1, 1.0, 2.0)])
    a, b = stn.timepoints
    assert check_schedule(stn, {a: 0.0, b: 2.0 + 5e-10}) == []
    assert check_schedule(stn, {a: 0.0, b: 1.0 - 5e-10}) == []
    assert check_schedule(stn, {a: 0.0, b: 2.0 + 5e-9}) != []


bounds_strategy = st.one_of(
    st.sampled_from([-INF, INF, 0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(min_value=-5.0, max_value=5.0),
)


@st.composite
def checked_schedules(draw):
    """A network of up to 5 points with up to 8 constraints, and a schedule for it.

    Times sit on, just inside or just outside the bounds (within and beyond
    the slack), or are NaN or infinite, all from an origin of 0 or 1.7e9 s.
    """
    count = draw(st.integers(1, 5))
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        lower, upper = sorted((draw(bounds_strategy), draw(bounds_strategy)))
        if lower == INF or upper == -INF:
            continue
        pairs.append((draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1)),
                      lower, upper))
    stn = stn_from_tuples(count, pairs)
    origin = draw(st.sampled_from([0.0, 1.7e9]))
    offsets = [draw(st.one_of(
        st.floats(min_value=-5.0, max_value=5.0),
        st.sampled_from([math.nan, INF, -INF, 0.0, -0.0]),
        st.sampled_from([0.0, 1.0, 2.5]).flatmap(lambda edge: st.sampled_from(
            [edge + d for d in (-1e-8, -2e-9, -5e-10, -1e-12, 1e-12, 5e-10, 2e-9, 1e-8)]
        )),
    )) for _ in range(count)]
    return stn, {point: origin + offset for point, offset in zip(stn.timepoints, offsets)}


@settings(max_examples=500, deadline=None)
@given(checked_schedules())
def test_check_schedule_finds_what_satisfied_by_finds(case):
    stn, schedule = case
    expected = [
        c for c in stn.constraints
        if not c.satisfied_by(schedule[c.source], schedule[c.target])
    ]
    assert check_schedule(stn, schedule) == expected


def test_constraint_slack_grows_with_the_times_compared():
    a, b = TimePoint("a"), TimePoint("b")
    c = TemporalConstraint(a, b, 0.3, 1.0)
    for origin in (0.0, 1e3, 1e6, 1.7e9):
        assert c.satisfied_by(origin, origin + 0.3)
        assert c.satisfied_by(origin + 0.7, origin + 1.7)
        assert not c.satisfied_by(origin, origin + 0.3 - 1e-5)
        assert not c.satisfied_by(origin, origin + 1.0 + 1e-5)
    assert not c.satisfied_by(0.0, 0.3 - 5e-9)  # small times keep TOLERANCE
    assert not c.satisfied_by(0.0, INF)


def test_distance_graph_is_read_only():
    stn = stn_from_tuples(2, [(0, 1, 0.0, 1.0)])
    graph = solve(stn)
    with pytest.raises(UnknownTimePointError):
        graph.distance(TimePoint("stranger"), stn.timepoints[0])


def test_solve_refuses_bounds_whose_magnitudes_could_overflow():
    # Two actions of at least 1e308 s in a row: every sum along the chain
    # overflows, so the verdict would rest on infinities.
    net = STN()
    a, b, c = net.add_timepoint("a"), net.add_timepoint("b"), net.add_timepoint("c")
    net.constrain(a, b, 1e308, 1.5e308)
    net.constrain(b, c, 1e308, 1.5e308)
    net.constrain(a, c, 0.0, 60.0)
    for call in (solve, consistent, earliest_schedule, minimal_network):
        with pytest.raises(madtn.MadtnError, match=r"magnitudes sum to inf s"):
            call(net)


def test_the_magnitude_limit_is_a_quarter_of_the_largest_float():
    limit = stn_module.MAGNITUDE_LIMIT
    assert limit == sys.float_info.max / 4
    net = STN()
    a, b = net.add_timepoint("a"), net.add_timepoint("b")
    net.constrain(a, b, 0.0, limit)
    with pytest.raises(madtn.MadtnError, match=r"sum to 4\.49423e\+307 s, and the limit is"):
        solve(net)
    below = STN()
    a, b = below.add_timepoint("a"), below.add_timepoint("b")
    below.constrain(a, b, 0.0, math.nextafter(limit, 0.0))
    below.anchor = a
    graph = solve(below)
    assert graph.consistent
    assert graph.bounds(a, b) == (0.0, math.nextafter(limit, 0.0))
    assert earliest_schedule(below) == {a: 0.0, b: 0.0}
