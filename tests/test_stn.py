"""Temporal network construction, solving, and schedule checks."""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

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
    consistent,
    earliest_schedule,
    minimal_network,
    solve,
)
from conftest import stn_as_tuples, stn_from_tuples
from oracles import (
    brute_consistent,
    brute_difference_bounds,
    dense_distances,
    random_case,
    random_consistent_case,
    random_dyadic_case,
)


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
        graph.matrix


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
        assert graph.matrix.tolist() == d
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


def test_import_and_solve_leave_numpy_unloaded():
    # Only DistanceGraph.matrix needs numpy; everything else is pure Python.
    script = (
        "import sys\n"
        "from madtn import compile_to_stn, earliest_schedule, load_packaged_example, solve\n"
        "daisy = load_packaged_example().daisy\n"
        "stn = compile_to_stn(daisy)\n"
        "print(solve(stn).bounds(daisy.start, daisy.end))\n"
        "earliest_schedule(stn)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(madtn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["(7.5, 60.0)", "False"]


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
    with pytest.raises(ValueError):
        graph.matrix[0, 1] = 99.0
    with pytest.raises(UnknownTimePointError):
        graph.distance(TimePoint("stranger"), stn.timepoints[0])
