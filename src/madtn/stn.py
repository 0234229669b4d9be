"""Simple temporal networks: representation, consistency, and schedules.

A network is a set of timepoints plus difference constraints
``lower <= time(target) - time(source) <= upper`` (seconds). Solving runs
single-source shortest paths over the induced sparse distance graph: one
pass from a virtual source decides consistency (a negative cycle means no
schedule exists), and further passes from one timepoint answer distance
queries on demand. Networks are mutable while being built and are treated
as read-only by every solving function, so a built network can be shared
freely across threads. A solved ``DistanceGraph`` fills its row cache
lazily; two threads asking for the same row may both compute it, but they
store equal values, so a graph can be shared across threads too.

The labels of that first pass are kept as ``DistanceGraph.potential``: no
arc's reduced cost ``potential[u] + w - potential[v]`` is below
``-TOLERANCE``. ``add_arc`` extends a consistent arc set one arc at a time
from such a potential, lowering only the labels the new arc reaches
(incremental consistency, Cesta & Oddi 1996), and dropping arcs keeps a
potential feasible. ``enumerate_orders`` checks its candidate orders this
way instead of solving each one.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .errors import (
    InconsistentNetworkError,
    InvertedBoundsError,
    MissingTimePointError,
    UnboundedScheduleError,
    UnknownTimePointError,
)

if TYPE_CHECKING:
    import numpy as np

INF = math.inf

#: Absolute tolerance, in seconds, for every time comparison in the package.
#: Constraint checks add a few units in the last place of the times compared.
TOLERANCE = 1e-9

#: Owner of a petal that no agent has been assigned yet.
UNASSIGNED = "unassigned"

_uid_counter = itertools.count()


@dataclass(eq=False)
class TimePoint:
    """A named instant in a temporal network.

    Identity is the object itself: two points built with the same label are
    still distinct timepoints. The label is for display only and never
    affects solving; a daisy's action vertices carry ``action.start`` and
    ``action.end`` labels, and the agent responsible for one is its petal's
    owner (``daisy.locate(point)[0].owner``).
    """

    label: str = ""
    uid: int = field(init=False, default_factory=lambda: next(_uid_counter))

    def __repr__(self) -> str:
        return f"TimePoint({self.label!r}, #{self.uid})"


@dataclass(frozen=True)
class TemporalConstraint:
    """Requires ``lower <= time(target) - time(source) <= upper``, in seconds.

    Bounds may be ``-inf`` / ``+inf`` for one-sided constraints. IEEE
    infinities are the extended-real representation throughout the package
    (so ``inf + x == inf`` holds natively); sentinel "large" floats are never
    used.
    """

    source: TimePoint
    target: TimePoint
    lower: float
    upper: float

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise InvertedBoundsError(f"constraint bounds may not be NaN: {self}")
        if self.lower > self.upper:
            raise InvertedBoundsError(
                f"lower bound {self.lower} exceeds upper bound {self.upper} "
                f"({self.source.label!r} -> {self.target.label!r})"
            )
        # [inf, inf] and [-inf, -inf] pass lower <= upper but admit no finite
        # difference, so they are rejected alongside inverted bounds.
        if self.lower == INF or self.upper == -INF:
            raise InvertedBoundsError(
                f"bounds [{self.lower}, {self.upper}] admit no finite difference"
            )

    def satisfied_by(self, source_time: float, target_time: float) -> bool:
        """Whether the two times meet the bounds, up to rounding.

        The slack is ``TOLERANCE`` plus a few units in the last place of the
        larger time, so the verdict holds at any time origin: float spacing
        alone is about 2.4e-7 s at epoch timestamps (1.7e9 s).
        """
        scale = max(abs(source_time), abs(target_time))
        slack = TOLERANCE + 4 * math.ulp(scale) if scale < INF else TOLERANCE
        diff = target_time - source_time
        return self.lower - slack <= diff <= self.upper + slack

    def __repr__(self) -> str:
        return (
            f"TemporalConstraint({self.source.label!r} -> {self.target.label!r}, "
            f"[{self.lower}, {self.upper}])"
        )


#: A total assignment of times (seconds) to timepoints.
Schedule = dict[TimePoint, float]


class STN:
    """A simple temporal network under construction.

    The first timepoint added becomes the anchor (the time-zero reference)
    unless another member is designated later.
    """

    def __init__(self):
        self._points: list[TimePoint] = []
        self._members: set[TimePoint] = set()
        self._constraints: list[TemporalConstraint] = []
        self._anchor: TimePoint | None = None

    @property
    def timepoints(self) -> tuple[TimePoint, ...]:
        return tuple(self._points)

    @property
    def constraints(self) -> tuple[TemporalConstraint, ...]:
        return tuple(self._constraints)

    @property
    def anchor(self) -> TimePoint | None:
        return self._anchor

    @anchor.setter
    def anchor(self, point: TimePoint) -> None:
        if point not in self._members:
            raise UnknownTimePointError(f"anchor {point!r} is not a member timepoint")
        self._anchor = point

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, point: TimePoint) -> bool:
        return point in self._members

    def add_timepoint(self, label: str = "") -> TimePoint:
        """Create a fresh timepoint, add it, and return it."""
        point = TimePoint(label=label)
        self.add_point(point)
        return point

    def add_point(self, point: TimePoint) -> TimePoint:
        """Add an existing timepoint (used when vertices are built elsewhere)."""
        if point in self._members:
            raise ValueError(f"{point!r} is already a member of this network")
        self._points.append(point)
        self._members.add(point)
        if self._anchor is None:
            self._anchor = point
        return point

    def add_constraint(self, constraint: TemporalConstraint) -> None:
        """Record a constraint between two member timepoints.

        Duplicate constraints on the same pair are kept; solving uses their
        intersection.
        """
        for endpoint in (constraint.source, constraint.target):
            if endpoint not in self._members:
                raise UnknownTimePointError(
                    f"constraint endpoint {endpoint!r} is not in the network"
                )
        self._constraints.append(constraint)

    def constrain(
        self, source: TimePoint, target: TimePoint, lower: float, upper: float
    ) -> TemporalConstraint:
        """Convenience wrapper: build and add a constraint in one step."""
        constraint = TemporalConstraint(source, target, lower, upper)
        self.add_constraint(constraint)
        return constraint


class DistanceGraph:
    """Tightest bounds ``d(i, j)`` on ``time(j) - time(i)``, answered on demand.

    Built by ``solve``, which settles consistency. Each distance query runs
    one single-source pass from the query's source the first time that
    source is asked about and caches the row. Distances exist only for a
    consistent network; querying an inconsistent one raises
    ``InconsistentNetworkError``.

    ``potential`` holds one label per point, indexed like ``points``, from
    the pass that settled consistency: a feasible potential of the arcs,
    ready for ``add_arc``. It is None for an inconsistent network.
    """

    def __init__(
        self,
        points: tuple[TimePoint, ...],
        index: dict[TimePoint, int],
        successors: list[list[tuple[int, float]]],
        predecessors: list[list[tuple[int, float]]],
        potential: list[float] | None,
    ):
        self.points = points
        self.consistent = potential is not None
        self.potential = potential
        self._index = index
        self._successors = successors
        self._predecessors = predecessors
        self._rows: dict[int, list[float]] = {}
        self._matrix = None

    def position(self, point: TimePoint) -> int:
        """The index of ``point`` in ``points``, ``potential`` and ``arcs()``."""
        try:
            return self._index[point]
        except KeyError:
            raise UnknownTimePointError(f"{point!r} is not in this distance graph")

    def arcs(self) -> list[list[tuple[int, float]]]:
        """A fresh copy of the arcs out of each point, to extend with ``add_arc``.

        ``arcs()[i]`` lists ``(j, w)`` pairs, each bounding
        ``time(points[j]) - time(points[i])`` from above by ``w``.
        """
        return [list(out) for out in self._successors]

    def _row(self, i: int) -> list[float]:
        """``d(i, j)`` for every ``j``, from one pass over the successor arcs."""
        row = self._rows.get(i)
        if row is None:
            if not self.consistent:
                raise InconsistentNetworkError("an inconsistent network has no distances")
            row = _single_source(self._successors, i)
            self._rows[i] = row
        return row

    @property
    def matrix(self) -> np.ndarray:
        """The full read-only ``n x n`` distance matrix, built on first use.

        One row per timepoint; this is the only place the package imports
        numpy.
        """
        if self._matrix is None:
            import numpy as np

            n = len(self.points)
            matrix = np.array([self._row(i) for i in range(n)], dtype=float).reshape(n, n)
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def distance(self, source: TimePoint, target: TimePoint) -> float:
        return self._row(self.position(source))[self.position(target)]

    def bounds(self, source: TimePoint, target: TimePoint) -> tuple[float, float]:
        """Tightest implied ``[lower, upper]`` on ``time(target) - time(source)``."""
        i, j = self.position(source), self.position(target)
        lower = -self._row(j)[i] + 0.0  # +0.0 normalizes -0.0
        upper = self._row(i)[j] + 0.0
        return lower, upper


def solve(stn: STN) -> DistanceGraph:
    """Build the network's distance graph and decide its consistency.

    Always returns a graph; inspect ``DistanceGraph.consistent`` for the
    verdict. Deciding consistency costs one single-source run from a virtual
    source over the sparse arcs, usually a few passes over them; distances
    are computed later, one source at a time, as they are asked for.
    Cycles weighing at least ``-TOLERANCE``, such as zero-weight cycles that
    rounding leaves slightly negative, never make a network inconsistent.
    """
    points = stn.timepoints
    n = len(points)
    index = {p: i for i, p in enumerate(points)}
    # Arc weights are upper bounds on time(head) - time(tail). Overlapping
    # constraints intersect via min. Infinite bounds contribute no arc, so
    # every weight is finite.
    weights: dict[tuple[int, int], float] = {}
    self_consistent = True
    for c in stn.constraints:
        i, j = index[c.source], index[c.target]
        for tail, head, weight in ((i, j, c.upper), (j, i, -c.lower)):
            if weight == INF:
                continue
            if tail == head:
                self_consistent = self_consistent and weight >= -TOLERANCE
            elif weight < weights.get((tail, head), INF):
                weights[tail, head] = weight
    successors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    predecessors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (tail, head), weight in weights.items():
        successors[tail].append((head, weight))
        predecessors[head].append((tail, weight))
    # A virtual source with a zero arc to every point: all labels start at 0.
    labels = [0.0] * n
    consistent = self_consistent and _settle(successors, labels, list(range(n)))
    return DistanceGraph(
        points, index, successors, predecessors, labels if consistent else None
    )


def add_arc(
    successors: list[list[tuple[int, float]]],
    potential: list[float],
    tail: int,
    head: int,
    weight: float,
) -> bool:
    """Add ``tail -> head`` to a consistent arc set; False on a negative cycle.

    ``successors[u]`` lists the ``(v, w)`` arcs out of ``u``, and
    ``potential`` must be feasible for them: no reduced cost
    ``potential[u] + w - potential[v]`` below ``-TOLERANCE``, as
    ``DistanceGraph.potential`` and ``DistanceGraph.arcs()`` are. The labels
    the new arc lowers fall from ``head`` outward, largest fall first, as in
    Dijkstra's algorithm on the reduced costs (Ramalingam & Reps 1996;
    Cesta & Oddi 1996); a label falls only by more than ``TOLERANCE``, as in
    ``_settle``. Should ``tail``'s own label fall, the new arc closes a
    cycle weighing below ``-TOLERANCE``: nothing changes and the verdict is
    False. Otherwise the arc is appended to ``successors[tail]``, the fallen
    labels are written into ``potential`` and the verdict is True. Removing
    arcs keeps a potential feasible, so ``successors[tail].pop()`` takes the
    last added arc back off.
    """
    start = potential[tail] + weight
    if start < potential[head] - TOLERANCE:
        if head == tail:
            return False
        lowered = {head: start}
        heap = [(start - potential[head], head)]  # (label change, vertex)
        while heap:
            change, u = heapq.heappop(heap)
            du = lowered[u]
            if du - potential[u] < change:
                continue  # u fell further after this entry was pushed
            for v, w in successors[u]:
                label = du + w
                if label < lowered.get(v, potential[v]) - TOLERANCE:
                    if v == tail:
                        return False
                    lowered[v] = label
                    heapq.heappush(heap, (label - potential[v], v))
        for v, label in lowered.items():
            potential[v] = label
    successors[tail].append((head, weight))
    return True


def _single_source(adjacency: list[list[tuple[int, float]]], source: int) -> list[float]:
    """Shortest distances from ``source`` over ``adjacency`` (a consistent graph)."""
    dist = [INF] * len(adjacency)
    dist[source] = 0.0
    _settle(adjacency, dist, [source])
    return dist


def _settle(
    adjacency: list[list[tuple[int, float]]], dist: list[float], labeled: list[int]
) -> bool:
    """Lower ``dist`` in place to shortest distances; False on a negative cycle.

    Bellman–Ford in Goldberg–Radzik passes. ``labeled`` holds the vertices
    whose label fell since they were last scanned. Each pass scans, in
    topological order of the admissible graph, every vertex reachable from
    them, so a chain settles in one pass instead of one per arc, and a
    negative cycle is caught in the first pass that finds it admissible.

    A label falls only by more than ``TOLERANCE``. A cycle weighing at least
    ``-TOLERANCE``, such as a zero-weight cycle that rounding left a few ulps
    negative, therefore lowers no label and never makes the network
    inconsistent; the price is that a distance may exceed the exact one by
    up to ``TOLERANCE`` per arc of its path. Without negative cycles labels
    settle in a few passes; if they still fall after one pass per vertex,
    the verdict rests on the cycles among the arcs that last lowered a label.
    """
    n = len(adjacency)
    parent = [-1] * n
    parent_weight = [0.0] * n
    for _ in range(n + 1):
        order = _admissible_order(adjacency, dist, labeled)
        if order is None:
            return False
        fell = [False] * n
        labeled = []
        for u in order:
            du = dist[u]
            for v, w in adjacency[u]:
                if du + w < dist[v] - TOLERANCE:
                    dist[v] = du + w
                    parent[v] = u
                    parent_weight[v] = w
                    if not fell[v]:
                        fell[v] = True
                        labeled.append(v)
        if not labeled:
            return True
    return all(
        weight >= -TOLERANCE for weight in _functional_cycle_weights(parent, parent_weight)
    )


#: Larger than any discovery number, so emitted vertices never lower ``low``.
_CLOSED = math.inf


def _admissible_order(
    adjacency: list[list[tuple[int, float]]], dist: list[float], labeled: list[int]
) -> list[int] | None:
    """Vertices to scan in one pass, in topological order; None on a negative cycle.

    An arc is admissible when its reduced cost ``dist[u] + w - dist[v]`` is at
    most 0, and it lowers a label when that cost is below ``-TOLERANCE``.
    Tarjan's depth-first search follows admissible arcs from the labeled
    vertices that have an arc lowering a label and groups what it reaches
    into strongly connected components, which it emits in reverse
    topological order. Every cycle of admissible arcs lies inside one
    component and weighs the sum of its reduced costs, so an arc inside a
    component whose cost is below ``-TOLERANCE`` closes a cycle at least
    that negative. A component held together by cycles of zero weight, up
    to rounding, is scanned as one block.
    """
    n = len(adjacency)
    number = [0] * n  # discovery number; 0 while unseen, _CLOSED once emitted
    low = [0] * n
    open_: list[int] = []  # reached vertices whose component is still open
    order: list[int] = []
    count = 0
    for root in labeled:
        if number[root]:
            continue
        d_root = dist[root]
        if not any(d_root + w < dist[v] - TOLERANCE for v, w in adjacency[root]):
            continue
        count += 1
        number[root] = low[root] = count
        open_.append(root)
        path, arcs = [root], [iter(adjacency[root])]
        while path:
            u = path[-1]
            du = dist[u]
            for v, w in arcs[-1]:
                if du + w <= dist[v]:
                    if not number[v]:
                        count += 1
                        number[v] = low[v] = count
                        open_.append(v)
                        path.append(v)
                        arcs.append(iter(adjacency[v]))
                        break
                    if number[v] < low[u]:
                        low[u] = number[v]
            else:
                path.pop()
                arcs.pop()
                if path and low[u] < low[path[-1]]:
                    low[path[-1]] = low[u]
                if low[u] != number[u]:
                    continue
                start = len(open_) - 1
                while open_[start] != u:
                    start -= 1
                component = open_[start:]
                del open_[start:]
                for x in component:
                    number[x] = _CLOSED
                if len(component) > 1 and _negative_arc_inside(adjacency, dist, component):
                    return None
                order.extend(reversed(component))
    order.reverse()
    return order


def _negative_arc_inside(
    adjacency: list[list[tuple[int, float]]], dist: list[float], component: list[int]
) -> bool:
    """Whether an arc between two vertices of ``component`` costs below -TOLERANCE."""
    members = set(component)
    for u in component:
        du = dist[u]
        for v, w in adjacency[u]:
            if v in members and du + w < dist[v] - TOLERANCE:
                return True
    return False


def _functional_cycle_weights(parent: list[int], parent_weight: list[float]):
    """Weight of each cycle in the graph of arcs ``parent[v] -> v``."""
    state = [0] * len(parent)  # 0 unseen, 1 on the current walk, 2 done
    for start in range(len(parent)):
        walk = []
        v = start
        while v >= 0 and state[v] == 0:
            state[v] = 1
            walk.append(v)
            v = parent[v]
        if v >= 0 and state[v] == 1:
            yield sum(parent_weight[u] for u in walk[walk.index(v) :])
        for u in walk:
            state[u] = 2


def minimal_network(stn: STN) -> STN:
    """Rebuild the network with the tightest implied bounds made explicit.

    The result has one constraint per timepoint pair (oriented from the
    earlier-added point to the later-added one), omitting pairs that are
    unconstrained in both directions. It has the same solution set as the
    input, and the operation is idempotent.
    """
    graph = solve(stn)
    if not graph.consistent:
        raise InconsistentNetworkError("cannot minimize an inconsistent network")
    tightened = STN()
    for point in stn.timepoints:
        tightened.add_point(point)
    if stn.anchor is not None:
        tightened.anchor = stn.anchor
    m = graph.matrix
    points = graph.points
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            lower = -float(m[j, i]) + 0.0
            upper = float(m[i, j]) + 0.0
            if lower == -INF and upper == INF:
                continue
            tightened.constrain(points[i], points[j], lower, upper)
    return tightened


def earliest_schedule(stn: STN) -> Schedule:
    """Schedule every timepoint at its minimum feasible time, anchor at 0."""
    if len(stn) == 0:
        return {}
    if stn.anchor is None:
        raise MissingTimePointError("network has no anchor timepoint")
    graph = solve(stn)
    if not graph.consistent:
        raise InconsistentNetworkError("inconsistent network has no schedule")
    # d(i, anchor) for every i: one pass from the anchor over reversed arcs.
    to_anchor = _single_source(graph._predecessors, graph.position(stn.anchor))
    schedule: Schedule = {}
    for point, distance_to_anchor in zip(graph.points, to_anchor):
        if distance_to_anchor == INF:
            raise UnboundedScheduleError(
                f"{point!r} has no finite earliest time relative to the anchor"
            )
        schedule[point] = -distance_to_anchor + 0.0
    return schedule


def check_schedule(stn: STN, schedule: Mapping[TimePoint, float]) -> list[TemporalConstraint]:
    """Return every constraint the schedule violates (empty means valid).

    Satisfaction is checked to within ``TOLERANCE`` seconds plus a few units
    in the last place of the times compared, boundaries inclusive.
    """
    for point in stn.timepoints:
        if point not in schedule:
            raise MissingTimePointError(f"schedule does not assign {point!r}")
    violated = []
    for c in stn.constraints:
        if not c.satisfied_by(schedule[c.source], schedule[c.target]):
            violated.append(c)
    return violated


def consistent(stn: STN) -> bool:
    """Shorthand for ``solve(stn).consistent``."""
    return solve(stn).consistent
