"""Simple temporal networks: representation, consistency, and schedules.

A network is a set of timepoints plus difference constraints
``lower <= time(target) - time(source) <= upper`` (seconds). Each bound
becomes an arc of a sparse distance graph, and one routine, ``_fall``,
finds every shortest path in it: Dijkstra's algorithm on the reduced costs
``potential[u] + w - potential[v]`` of a feasible potential (Johnson's
reweighting), run outward from one vertex whose label has just fallen.

An ``STN`` stores each constraint as a row ``(source position, target
position, lower, upper)``, a position being the index of a timepoint in
the order the network received it. ``solve`` and ``check_schedule`` read
the rows by position. ``STN.constraints`` builds a fresh
``TemporalConstraint`` per row each time it is read, and ``check_schedule``
builds one for each constraint it finds broken; each is equal to the
constraint its row was made from, though not the same object.

* ``solve`` starts from a zero potential, as if a virtual source had a
  zero arc to every point, and inserts the arcs one at a time by the step
  ``add_arc`` takes, which lowers only the labels the new arc reaches
  (incremental consistency, Cesta & Oddi 1996; Ramalingam & Reps 1996).
  Arcs go in vertex by vertex, in reverse postorder of a depth-first
  search over the arcs that weigh at most zero, along which labels first
  fall: a vertex's outgoing arcs are then not yet in place when its label
  falls, so the fall stops there, and that one label is written with no
  heap. In constraint order, a chain listed backwards would carry every
  fall down the whole chain, and a search over every arc would walk a
  chain of upper bounds against its falls. Each arc is stored once: a
  vertex's merged list of arcs joins the arcs in place whole, once all of
  them are in. The labels are kept as ``DistanceGraph.potential``, and
  ``enumerate_orders`` extends them with ``add_arc`` instead of solving
  each candidate order.
* ``fold_series`` first shrinks that arc set to the vertices new arcs
  will touch. A vertex with exactly two neighbours adds no fill when it is
  eliminated (series reduction, the degree-two case of P3C's vertex
  elimination: Planken, de Weerdt & van der Krogt 2008), so each run of
  such vertices becomes at most one arc per direction, and every later
  fall walks the shorter network. A daisy's petal is such a run between
  its first start and its last end, unless a constraint ties one of its
  inner vertices to a third vertex.
* A distance row runs from its source over the arcs. ``earliest_schedule``
  runs from the anchor over the reversed arcs with the potential negated,
  which gives each reversed arc the reduced cost of its forward arc.
  Labels are path sums, never reduced sums shifted back.

A label falls only by more than ``TOLERANCE``. A cycle weighing at least
``-TOLERANCE``, such as a zero-weight cycle that rounding left a few ulps
negative, therefore lowers no label and never makes a network
inconsistent; the price is that a distance may exceed the exact one by up
to ``TOLERANCE`` per arc of its path. A potential is then feasible only to
within ``TOLERANCE`` per arc, so a cycle of several arcs can weigh below
``-TOLERANCE`` while none of its arcs has a reduced cost below that, such
as three arcs of -0.9 ns. A fall entering such a cycle would circle it
forever. Instead, a label whose path would reach one arc per point is left
standing, because that path runs round a cycle weighing below
``-TOLERANCE``; every run ends, and ``add_arc`` rejects its arc. Whether a
cycle within ``TOLERANCE`` per arc of zero is found at all depends on the
falls that reach it, so the verdict on one can go either way.

Networks are mutable while being built and are treated as read-only by
every solving function, so a built network can be shared freely across
threads. A solved ``DistanceGraph`` is read-only too, so it can be shared
as well.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Collection, Mapping, Sequence

from .errors import (
    InconsistentNetworkError,
    InvertedBoundsError,
    MadtnError,
    MissingTimePointError,
    UnboundedScheduleError,
    UnknownTimePointError,
)

INF = math.inf

#: Absolute tolerance, in seconds, for every time comparison in the package.
#: Constraint checks add a few units in the last place of the times compared.
TOLERANCE = 1e-9

#: Bound on the sum of a network's arc weight magnitudes: a quarter of
#: ``sys.float_info.max`` (see ``solve``).
MAGNITUDE_LIMIT = 1.7976931348623157e308 / 4

#: Owner of a petal that no agent has been assigned yet.
UNASSIGNED = "unassigned"

_uid_counter = itertools.count()
_head = itemgetter(0)


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
    uid: int = field(init=False, default_factory=_uid_counter.__next__)

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
        return _satisfied(self.lower, self.upper, source_time, target_time)

    def __repr__(self) -> str:
        return (
            f"TemporalConstraint({self.source.label!r} -> {self.target.label!r}, "
            f"[{self.lower}, {self.upper}])"
        )


def _satisfied(lower: float, upper: float, source_time: float, target_time: float) -> bool:
    """``TemporalConstraint.satisfied_by`` of a constraint with these bounds."""
    scale = max(abs(source_time), abs(target_time))
    slack = TOLERANCE + 4 * math.ulp(scale) if scale < INF else TOLERANCE
    return lower - slack <= target_time - source_time <= upper + slack


#: A total assignment of times (seconds) to timepoints.
Schedule = dict[TimePoint, float]


class STN:
    """A simple temporal network under construction.

    The first timepoint added becomes the anchor (the time-zero reference)
    unless another member is designated later.

    Each constraint is kept as one row ``(source position, target position,
    lower, upper)`` in a single list, in the order the constraints were
    added; a position counts timepoints in the order they were added.
    ``add_constraint`` and ``constrain`` append a row only for a
    ``TemporalConstraint``, whose bounds have passed its checks, between
    member timepoints; ``compile_to_stn`` writes rows that passed the same
    checks elsewhere. ``constraints`` builds a fresh, equal
    ``TemporalConstraint`` per row each time it is read.
    """

    def __init__(self):
        self._index: dict[TimePoint, int] = {}  # point to position, in order
        self._rows: list[tuple[int, int, float, float]] = []
        self._anchor: TimePoint | None = None

    @property
    def timepoints(self) -> tuple[TimePoint, ...]:
        return tuple(self._index)

    @property
    def constraints(self) -> tuple[TemporalConstraint, ...]:
        points = tuple(self._index)
        return tuple(
            TemporalConstraint(points[i], points[j], lower, upper)
            for i, j, lower, upper in self._rows
        )

    @property
    def anchor(self) -> TimePoint | None:
        return self._anchor

    @anchor.setter
    def anchor(self, point: TimePoint) -> None:
        if point not in self._index:
            raise UnknownTimePointError(f"anchor {point!r} is not a member timepoint")
        self._anchor = point

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, point: TimePoint) -> bool:
        return point in self._index

    def add_timepoint(self, label: str = "") -> TimePoint:
        """Create a fresh timepoint, add it, and return it."""
        point = TimePoint(label=label)
        self.add_point(point)
        return point

    def add_point(self, point: TimePoint) -> TimePoint:
        """Add an existing timepoint (used when vertices are built elsewhere)."""
        if point in self._index:
            raise ValueError(f"{point!r} is already a member of this network")
        self._index[point] = len(self._index)
        if self._anchor is None:
            self._anchor = point
        return point

    def add_constraint(self, constraint: TemporalConstraint) -> None:
        """Record a constraint between two member timepoints.

        Duplicate constraints on the same pair are kept; solving uses their
        intersection.
        """
        index = self._index
        for endpoint in (constraint.source, constraint.target):
            if endpoint not in index:
                raise UnknownTimePointError(
                    f"constraint endpoint {endpoint!r} is not in the network"
                )
        self._rows.append((index[constraint.source], index[constraint.target],
                           constraint.lower, constraint.upper))

    def constrain(
        self, source: TimePoint, target: TimePoint, lower: float, upper: float
    ) -> TemporalConstraint:
        """Convenience wrapper: build and add a constraint in one step."""
        constraint = TemporalConstraint(source, target, lower, upper)
        self.add_constraint(constraint)
        return constraint


class DistanceGraph:
    """Tightest bounds ``d(i, j)`` on ``time(j) - time(i)``, answered on demand.

    Built by ``solve``, which settles consistency. Each query runs one pass
    from its source over the arcs, reweighted by ``potential``. Distances
    exist only for a consistent network; querying an inconsistent one
    raises ``InconsistentNetworkError``.

    ``potential`` holds one label per point, indexed like ``points``, from
    the insertions that settled consistency: a feasible potential of the
    arcs, ready for ``add_arc``. It is None for an inconsistent network.
    """

    def __init__(
        self,
        points: tuple[TimePoint, ...],
        index: dict[TimePoint, int],
        successors: list[list[tuple[int, float]]],
        potential: list[float] | None,
    ):
        self.points = points
        self.consistent = potential is not None
        self.potential = potential
        self._index = index
        self._successors = successors

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
        if not self.consistent:
            raise InconsistentNetworkError("an inconsistent network has no distances")
        return _labels(self._successors, self.potential, i)

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
    verdict. Duplicate arcs merge per tail vertex, each vertex keeping its
    heads in the order they first appear. From a zero potential, every arc
    is inserted by the step ``add_arc`` takes, vertex by vertex in the order
    the module docstring gives, and the network is consistent unless an
    insertion closes a negative cycle. A vertex's arcs join the set that
    falls read only once all of them are in, so ``solve`` copies no arc.
    Distances are computed later, one source at a time, as they are asked
    for. Cycles weighing at least ``-TOLERANCE``, such as zero-weight cycles
    that rounding leaves slightly negative, never make a network
    inconsistent.

    Raises ``MadtnError`` naming the sum when the magnitudes of the finite
    arc weights add up to ``MAGNITUDE_LIMIT`` or more. Every label and
    potential is a path sum, so that sum bounds each of them and every
    weight. The largest quantity the solver forms, a reduced cost against a
    label, adds a label, a weight and two potentials, so it stays finite
    while the sum stays under a quarter of the largest float; past it, a
    sum could overflow to infinity and give a wrong verdict.
    """
    points = stn.timepoints
    n = len(points)
    index = dict(stn._index)  # a copy: a solved network may be extended
    # Arc weights are upper bounds on time(head) - time(tail), merged per
    # tail: overlapping constraints intersect via min, and a tail keeps its
    # heads in the order they first appear. Infinite bounds contribute no
    # arc, so every weight is finite.
    merged: list[dict[int, float]] = [{} for _ in range(n)]
    self_consistent = True
    for i, j, lower, upper in stn._rows:
        if i == j:
            self_consistent = self_consistent and upper >= -TOLERANCE and lower <= TOLERANCE
        else:
            if upper < merged[i].get(j, INF):
                merged[i][j] = upper
            if -lower < merged[j].get(i, INF):
                merged[j][i] = -lower
    try:
        magnitude = math.fsum(map(abs, itertools.chain.from_iterable(map(dict.values, merged))))
    except OverflowError:
        magnitude = INF  # past the largest float
    if magnitude >= MAGNITUDE_LIMIT:
        raise MadtnError(f"bounds too large to solve: their magnitudes sum to {magnitude:g} s, "
                         f"and the limit is {MAGNITUDE_LIMIT:g} s, a quarter of the largest float")
    successors = [list(out.items()) for out in merged]
    potential = [0.0] * n
    if not self_consistent:
        return DistanceGraph(points, index, successors, None)
    # The arcs in place: a vertex's list joins once all its arcs are in. A
    # fall that reached the tail would reject its arc, so no fall reads the
    # tail's own arcs while they go in.
    placed: list[Sequence[tuple[int, float]]] = [()] * n
    for tail in _insertion_order(successors):
        out = successors[tail]
        for head, weight in out:
            if not _lower(placed, potential, tail, head, weight):
                return DistanceGraph(points, index, successors, None)
        placed[tail] = out
    return DistanceGraph(points, index, successors, potential)


def _insertion_order(successors: list[list[tuple[int, float]]]) -> list[int]:
    """Every vertex, in reverse postorder of a depth-first search.

    The search follows the arcs weighing at most zero, the only ones that
    can lower a label of the zero potential.
    """
    seen = [False] * len(successors)
    postorder: list[int] = []
    for root in range(len(successors)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(successors[root]))]
        while stack:
            u, out = stack[-1]
            for v, w in out:
                if w <= 0 and not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(successors[v])))
                    break
            else:
                stack.pop()
                postorder.append(u)
    postorder.reverse()
    return postorder


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
    the new arc lowers fall from ``head`` outward, largest fall first
    (``_fall``); when no arc leaves ``head``, its label is the only one to
    fall and is written directly. Should ``tail``'s own label fall, the new
    arc closes a cycle weighing below ``-TOLERANCE``: nothing changes and
    the verdict is False. So it is when a fall runs round such a cycle
    elsewhere, which a potential feasible only to within ``TOLERANCE`` per
    arc can hide.
    Otherwise the arc is appended to ``successors[tail]``, the fallen
    labels are written into ``potential`` and the verdict is True. Removing
    arcs keeps a potential feasible, so ``successors[tail].pop()`` takes the
    last added arc back off.
    """
    if not _lower(successors, potential, tail, head, weight):
        return False
    successors[tail].append((head, weight))
    return True


def _lower(
    arcs: Sequence[Sequence[tuple[int, float]]],
    potential: list[float],
    tail: int,
    head: int,
    weight: float,
) -> bool:
    """Lower the labels ``tail -> head`` reaches over ``arcs``; False on a cycle.

    The verdict and writes of ``add_arc``, which appends the arc as well. A
    head with no arcs out is the only label that falls, so it is written
    here with no ``_fall``, which would push nothing and return just that
    label, settled.
    """
    start = potential[tail] + weight
    if start < potential[head] - TOLERANCE:
        if head == tail:
            return False
        if not arcs[head]:
            potential[head] = start
            return True
        lowered, settled = _fall(arcs, potential, potential, head, start, tail)
        if not settled:
            return False
        for v, label in lowered.items():
            potential[v] = label
    return True


def fold_series(
    successors: list[list[tuple[int, float]]],
    potential: list[float],
    keep: Collection[int],
) -> tuple[list[list[tuple[int, float]]], list[float], list[int | None]]:
    """The arc set with its series vertices folded out, for ``add_arc``.

    A vertex not in ``keep`` folds out when it has exactly two neighbours
    over the arcs either way. Arcs that run from one neighbour through a
    run of folded vertices to the other compose into one arc, their weights
    summed in chain order; a run whose arcs stop partway carries no path
    and composes into none.

    Exactness: a simple path or cycle that enters a folded vertex from one
    neighbour leaves by the other, so every path between kept vertices
    keeps its weight on the folded arcs and no path is added. Distances
    between kept vertices are the same on both arc sets, and an arc between
    kept vertices closes a cycle weighing below ``-TOLERANCE`` on one
    exactly when it does on the other.

    Tolerance guard: ``add_arc`` needs ``potential`` feasible for the arcs,
    and a composed arc's reduced cost is the sum of its parts', which can
    fall below ``-TOLERANCE`` when none of them does. Every vertex of a run
    whose composed arc would do so is kept, and its arcs stay as they are.

    ``successors`` and ``potential`` are left as they were. Returns the new
    arcs and potential, over the kept vertices in their old order, and each
    vertex's position in them: None for a folded vertex.
    """
    n = len(successors)
    into: list[list[int]] = [[] for _ in range(n)]
    for tail, out in enumerate(successors):
        for head, _ in out:
            into[head].append(tail)
    kept = [
        v for v in range(n) if v in keep or len({*into[v], *map(_head, successors[v])}) != 2
    ]
    position: list[int | None] = [None] * n
    for i, v in enumerate(kept):
        position[v] = i
    folded: list[list[tuple[int, float]]] = []
    unfold: list[int] = []
    for tail in kept:
        out = []
        for head, weight in successors[tail]:
            at = position[head]
            if at is None:
                run, previous = [], tail
                while at is None:
                    run.append(head)
                    for onward, step in successors[head]:
                        if onward != previous:
                            break
                    else:
                        break  # no arc leaves the run here
                    previous, head, weight = head, onward, weight + step
                    at = position[head]
                else:
                    if potential[tail] + weight - potential[head] < -TOLERANCE:
                        unfold += run
                    elif head != tail:  # a cycle this light lowers no label
                        out.append((at, weight))
            else:
                out.append((at, weight))
        folded.append(out)
    if unfold:
        return fold_series(successors, potential, {*keep, *unfold})
    return folded, [potential[v] for v in kept], position


def _fall(
    arcs: list[list[tuple[int, float]]],
    potential: list[float],
    labels: list[float],
    source: int,
    start: float,
    stop: int = -1,
) -> tuple[dict[int, float], bool]:
    """The labels that fall when ``labels[source]`` falls to ``start``.

    Dijkstra's algorithm over ``arcs``, keyed by each new label less its
    vertex's ``potential``, so a feasible potential keeps the keys in order.
    A label falls when a path undercuts it by more than ``TOLERANCE``.
    Returns the fallen labels, keyed by vertex and not yet written into
    ``labels``, and whether they settled. They have not if ``stop``'s label
    falls, which ends the run, or if a path would reach ``len(labels)``
    arcs. Such a path runs round a cycle weighing below ``-TOLERANCE``; its
    last label is left standing, so every run ends.
    """
    limit = len(labels)
    lowered = {source: start}
    heap = [(start - potential[source], source, 1)]  # (key, vertex, arcs to its heads)
    settled = True
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        key, u, hops = pop(heap)
        du = lowered[u]
        if du - potential[u] < key:
            continue  # u fell further after this entry was pushed
        for v, w in arcs[u]:
            label = du + w
            if label < lowered.get(v, labels[v]) - TOLERANCE:
                if v == stop:
                    return lowered, False
                if hops == limit:
                    settled = False
                    continue
                lowered[v] = label
                push(heap, (label - potential[v], v, hops + 1))
    return lowered, settled


def _labels(arcs: list[list[tuple[int, float]]], potential: list[float],
            source: int) -> list[float]:
    """The shortest path sum from ``source`` to every vertex over ``arcs``."""
    row = [INF] * len(potential)
    for v, label in _fall(arcs, potential, row, source, 0.0)[0].items():
        row[v] = label
    return row


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
    points = graph.points
    rows = [graph._row(i) for i in range(len(points))]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            lower = -rows[j][i] + 0.0
            upper = rows[i][j] + 0.0
            if lower == -INF and upper == INF:
                continue
            tightened.constrain(points[i], points[j], lower, upper)
    return tightened


def earliest_schedule(stn: STN) -> Schedule:
    """Schedule every timepoint at its minimum feasible time, anchor at 0."""
    if len(stn) == 0:
        return {}
    graph = solve(stn)
    if not graph.consistent:
        raise InconsistentNetworkError("inconsistent network has no schedule")
    # d(i, anchor) for every i: one pass from the anchor over reversed arcs,
    # whose reduced costs under the negated potential are the forward ones.
    predecessors: list[list[tuple[int, float]]] = [[] for _ in graph.points]
    for tail, out in enumerate(graph._successors):
        for head, weight in out:
            predecessors[head].append((tail, weight))
    reversed_potential = [-label for label in graph.potential]
    to_anchor = _labels(predecessors, reversed_potential, graph.position(stn.anchor))
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
    in the last place of the times compared, boundaries inclusive. The slack
    is never negative, so a difference within the bounds themselves passes
    without it, and the slack test of ``satisfied_by`` judges only the rest.
    Only a row that fails both becomes a ``TemporalConstraint``, a fresh one
    equal to the constraint it was made from.
    """
    points = tuple(stn._index)
    for point in points:
        if point not in schedule:
            raise MissingTimePointError(f"schedule does not assign {point!r}")
    times = [schedule[point] for point in points]
    violated = []
    for i, j, lower, upper in stn._rows:
        source, target = times[i], times[j]
        if not lower <= target - source <= upper and not _satisfied(lower, upper, source, target):
            violated.append(TemporalConstraint(points[i], points[j], lower, upper))
    return violated


def consistent(stn: STN) -> bool:
    """Shorthand for ``solve(stn).consistent``."""
    return solve(stn).consistent
