"""Brute-force reference implementations the tests check the library against.

The schedule oracle knows nothing about shortest paths: it enumerates
integer assignments over a bounded domain with plain backtracking, pruning
each variable's range with the constraints to already-assigned variables.
Consistency is witnessed by finding any schedule; implied difference bounds
come from sweeping every schedule. Slow on purpose, and independent of the
library's solving route.

Variables are plain indices. Variable 0 of each connected component is
pinned to zero; that loses no solutions for existence (components translate
freely) but makes cross-component difference queries meaningless, so bound
sweeps are only valid on connected constraint graphs. All generators here
keep magnitudes small enough that every schedule of a consistent network
fits inside the default domain.
"""
from __future__ import annotations

import math
import random
from typing import Iterator, Sequence

# A constraint is (i, j, lower, upper): lower <= t[j] - t[i] <= upper.
Constraint = tuple[int, int, float, float]

DOMAIN = (-60, 60)


def brute_schedules(
    n: int,
    constraints: Sequence[Constraint],
    domain: tuple[int, int] = DOMAIN,
) -> Iterator[tuple[int, ...]]:
    """Yield every integer schedule satisfying the constraints.

    Variables are assigned in an order that walks the constraint graph
    outward from variable 0, so each new variable's feasible window is
    pinched by its already-assigned neighbors; each component's first
    variable is pinned to 0.
    """
    touching: list[list[Constraint]] = [[] for _ in range(n)]
    for c in constraints:
        i, j, _, _ = c
        if i == j:
            # Degenerate self constraint: must admit a zero difference.
            if not (c[2] <= 0 <= c[3]):
                return iter(())
            continue
        touching[i].append(c)
        touching[j].append(c)

    order, pinned = _component_order(n, touching)
    position = {var: k for k, var in enumerate(order)}
    # Constraints become active once both endpoints are placed.
    active_at: list[list[Constraint]] = [[] for _ in range(n)]
    for c in constraints:
        i, j, _, _ = c
        if i != j:
            active_at[max(position[i], position[j])].append(c)

    lo, hi = domain
    assignment: dict[int, int] = {}

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(assignment[v] for v in range(n))
            return
        var = order[k]
        if var in pinned:
            window_lo, window_hi = 0.0, 0.0
        else:
            window_lo, window_hi = float(lo), float(hi)
        for i, j, lower, upper in active_at[k]:
            if i == var:
                other = assignment[j]
                window_lo = max(window_lo, other - upper)
                window_hi = min(window_hi, other - lower)
            else:
                other = assignment[i]
                window_lo = max(window_lo, other + lower)
                window_hi = min(window_hi, other + upper)
        if window_lo > window_hi:
            return
        for value in range(math.ceil(window_lo), math.floor(window_hi) + 1):
            assignment[var] = value
            yield from extend(k + 1)
        assignment.pop(var, None)

    return extend(0)


def brute_consistent(
    n: int,
    constraints: Sequence[Constraint],
    domain: tuple[int, int] = DOMAIN,
) -> bool:
    """Whether any integer schedule exists in the domain."""
    return next(iter(brute_schedules(n, constraints, domain)), None) is not None


def brute_difference_bounds(
    n: int,
    constraints: Sequence[Constraint],
    domain: tuple[int, int] = DOMAIN,
) -> list[list[tuple[float, float]]] | None:
    """Realized [min, max] of t[j] - t[i] over every schedule, as a matrix.

    Returns None when no schedule exists. Only meaningful when the
    constraint graph is connected (see module docstring).
    """
    best: list[list[tuple[float, float]]] | None = None
    for schedule in brute_schedules(n, constraints, domain):
        if best is None:
            best = [
                [(math.inf, -math.inf) for _ in range(n)] for _ in range(n)
            ]
        for i in range(n):
            for j in range(n):
                diff = schedule[j] - schedule[i]
                low, high = best[i][j]
                best[i][j] = (min(low, diff), max(high, diff))
    return best


def _component_order(
    n: int, touching: list[list[Constraint]]
) -> tuple[list[int], set[int]]:
    """Breadth-first variable order from 0, new components pinned as found."""
    order: list[int] = []
    pinned: set[int] = set()
    seen: set[int] = set()
    for root in range(n):
        if root in seen:
            continue
        pinned.add(root)
        queue = [root]
        seen.add(root)
        while queue:
            var = queue.pop(0)
            order.append(var)
            neighbors = sorted(
                (j if i == var else i)
                for i, j, _, _ in touching[var]
            )
            for neighbor in neighbors:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
    return order, pinned


# -- random instance generators ----------------------------------------------


def random_case(rng: random.Random, max_points: int = 6) -> tuple[int, list[Constraint]]:
    """A random network with integer bounds in [-10, 10]; may be inconsistent."""
    n = rng.randint(2, max_points)
    m = rng.randint(1, 2 * n)
    constraints: list[Constraint] = []
    for _ in range(m):
        i, j = rng.sample(range(n), 2)
        a = rng.randint(-10, 10)
        # Occasionally pin the difference exactly; tight loops are where
        # inconsistencies come from.
        b = a if rng.random() < 0.3 else rng.randint(a, 10)
        constraints.append((i, j, float(a), float(b)))
    return n, constraints


def random_consistent_case(
    rng: random.Random, max_points: int = 5
) -> tuple[int, list[Constraint]]:
    """A connected, consistent-by-construction network with finite bounds.

    A random integer schedule is drawn first and every constraint is a
    narrow window around a realized difference, so the schedule satisfies
    the network by construction. Widths stay at most 5 and all bounds in
    [-10, 10], which keeps the full solution sweep desk-sized.
    """
    n = rng.randint(2, max_points)
    times = [0] + [rng.randint(-5, 5) for _ in range(n - 1)]

    def wrap(i: int, j: int) -> Constraint:
        diff = times[j] - times[i]
        slack_below = rng.randint(0, 3)
        slack_above = rng.randint(0, 5 - slack_below)
        lower = max(-10, diff - slack_below)
        upper = min(10, diff + slack_above)
        return (i, j, float(lower), float(upper))

    constraints: list[Constraint] = []
    for k in range(1, n):  # spanning structure keeps the graph connected
        constraints.append(wrap(rng.randrange(k), k))
    for _ in range(rng.randint(0, n)):
        i, j = rng.sample(range(n), 2)
        constraints.append(wrap(i, j))
    return n, constraints


# -- dense all-pairs reference ------------------------------------------------

#: The verdict tolerance of the library, restated so the oracle imports nothing.
TOLERANCE = 1e-9


def dense_distances(
    n: int, constraints: Sequence[Constraint]
) -> tuple[bool, list[list[float]]]:
    """Floyd–Warshall over a dense distance matrix: (consistent, d).

    ``d[i][j]`` bounds ``t[j] - t[i]`` from above. Duplicate constraints
    intersect via min, a self constraint lands on the diagonal, and the
    network is consistent when no diagonal entry falls below -TOLERANCE.
    Cubic and pure Python; a reference for the sparse solver, not a
    replacement for it.
    """
    d = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    for i, j, lower, upper in constraints:
        d[i][j] = min(d[i][j], upper)
        d[j][i] = min(d[j][i], -lower)
    for k in range(n):
        through = d[k]
        for row in d:
            head = row[k]
            if head == math.inf:
                continue
            for j, tail in enumerate(through):
                if head + tail < row[j]:
                    row[j] = head + tail
    return all(d[i][i] >= -TOLERANCE for i in range(n)), d


def random_dyadic_case(
    rng: random.Random, max_points: int = 40
) -> tuple[int, list[Constraint]]:
    """A random network of up to ``max_points`` points; may be inconsistent.

    Bounds are multiples of 1/8 around the differences of a hidden schedule,
    so every path sum is exact in floating point and two correct solvers
    agree bit for bit. Some bounds are infinite, some pairs are constrained
    twice, some constraints tie a point to itself, and about half the
    networks have a constraint shifted off the hidden schedule.
    """
    n = rng.randint(1, max_points)
    times = [rng.randint(-160, 160) / 8 for _ in range(n)]
    constraints: list[Constraint] = []
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j and rng.random() < 0.7:
            j = (i + 1) % n
        diff = times[j] - times[i]
        lower = diff - rng.randint(0, 24) / 8
        upper = diff + rng.randint(0, 24) / 8
        if rng.random() < 0.15:
            lower = -math.inf
        if rng.random() < 0.15:
            upper = math.inf
        constraints.append((i, j, lower, upper))
        if rng.random() < 0.1:  # the same pair again, possibly reversed
            if rng.random() < 0.5:
                constraints.append((i, j, lower - 0.5, upper - 0.25))
            else:
                constraints.append((j, i, -upper, -lower + 0.125))
    if constraints and rng.random() < 0.5:
        k = rng.randrange(len(constraints))
        i, j, lower, upper = constraints[k]
        shift = rng.randint(1, 40) / 8
        if upper != math.inf:
            constraints[k] = (i, j, upper + shift, upper + 2 * shift)
        elif lower != -math.inf:
            constraints[k] = (i, j, lower - 2 * shift, lower - shift)
    return n, constraints
