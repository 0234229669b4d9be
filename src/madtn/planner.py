"""Ordering and assignment search over daisy tasks.

The planner works at petal granularity. Cross-petal constraints with a
strictly positive lower bound, and every handoff regardless of bounds,
induce a precedence relation between petals; candidate executions are the
linear extensions of that relation, each verified against the compiled
temporal network by adding its sequencing constraints to the unsequenced
network, solved once. Assignment is a separate concern handled by a greedy
sweep over a capability table.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .daisy import ConstraintKind, Daisy, compile_to_stn, find_cycle
from .errors import CyclicPrecedenceError, NoCapableAgentError
from .stn import TOLERANCE, UNASSIGNED, add_arc, fold_series, solve


@dataclass(frozen=True)
class PetalPrecedence:
    """A must-run-before relation over petal names.

    ``petals`` fixes the enumeration order (declaration order of the source
    task); ``edges`` holds (before, after) pairs. The relation itself may be
    cyclic; enumeration is where a cycle becomes an error.
    """

    petals: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def admits(self, order: Sequence[str]) -> bool:
        """Whether a complete order satisfies every precedence edge."""
        position = {name: i for i, name in enumerate(order)}
        return all(position[a] < position[b] for a, b in self.edges)

    def find_cycle(self) -> list[str] | None:
        """A list of petal names forming a precedence loop, if one exists."""
        successors: dict[str, list[str]] = {p: [] for p in self.petals}
        for a, b in sorted(self.edges):
            successors[a].append(b)
        return find_cycle(self.petals, successors.__getitem__)


def partial_order(daisy: Daisy) -> PetalPrecedence:
    """Derive the petal precedence relation implied by external constraints.

    Every handoff orders its source petal before its target petal, whoever
    owns the two ends. Any other cross-petal constraint orders the petals
    the same way when its lower bound is strictly positive, since the target
    vertex then cannot precede the source vertex. Constraints touching the
    global vertices and constraints within a single petal contribute
    nothing.
    """
    edges: set[tuple[str, str]] = set()
    for c, source_at, target_at in daisy._constraint_ends:
        if source_at is None or target_at is None or source_at[0] is target_at[0]:
            continue
        if c.kind is ConstraintKind.HANDOFF or c.lower > 0:
            edges.add((source_at[0].name, target_at[0].name))
    return PetalPrecedence(
        petals=tuple(p.name for p in daisy.petals), edges=frozenset(edges)
    )


def linear_extensions(
    precedence: PetalPrecedence, limit: int | None = None
) -> Iterator[tuple[str, ...]]:
    """Yield complete orders consistent with the precedence relation.

    Orders come out in lexicographic order of petal position in
    ``precedence.petals``, so enumeration is deterministic. Raises
    ``CyclicPrecedenceError`` up front when no extension can exist.
    """
    cycle = precedence.find_cycle()
    if cycle is not None:
        raise CyclicPrecedenceError(cycle)

    names = precedence.petals
    rank = {name: i for i, name in enumerate(names)}
    after: list[list[int]] = [[] for _ in names]
    waiting = [0] * len(names)  # each petal's predecessors not yet placed
    for a, b in precedence.edges:
        after[rank[a]].append(rank[b])
        waiting[rank[b]] += 1

    def extend() -> Iterator[tuple[str, ...]]:
        # An explicit stack, so long chains of petals cannot exhaust
        # Python's recursion limit. ``ready`` holds the unplaced petals with
        # no unplaced predecessor, by rank; placing a petal and taking it
        # back leave it as it was, so ``slots[k]`` holds slot ``k``'s petal
        # and where it stood in ``ready``, and the next petal to try there
        # stands one on.
        yielded = 0
        ready = [i for i, count in enumerate(waiting) if not count]
        prefix: list[str] = []
        slots: list[tuple[int, int]] = []
        choice = 0
        while limit is None or yielded < limit:
            if len(prefix) == len(names):
                yield tuple(prefix)
                yielded += 1
            elif choice < len(ready):
                petal = ready.pop(choice)
                prefix.append(names[petal])
                slots.append((choice, petal))
                for later in after[petal]:
                    waiting[later] -= 1
                    if not waiting[later]:
                        insort(ready, later)
                choice = 0
                continue
            # Take back the last petal placed and try the next one in its slot.
            if not prefix:
                return
            prefix.pop()
            choice, petal = slots.pop()
            for later in after[petal]:
                if not waiting[later]:
                    del ready[bisect_left(ready, later)]
                waiting[later] += 1
            ready.insert(choice, petal)
            choice += 1

    return extend()


def enumerate_orders(daisy: Daisy, limit: int | None = 1000) -> list[tuple[str, ...]]:
    """List executable petal orders for a fully assigned task.

    Candidates are the linear extensions of ``partial_order(daisy)``; each is
    kept only if the task compiled under that order is consistent, so the
    result is exactly the set of orders that admit a schedule. At most
    ``limit`` verified orders are returned (pass ``None`` to exhaust the
    space; the default keeps accidental factorial blowups desk-sized).

    Each agent sequences only its own petals, so an order's network depends
    only on its projection: each agent's own sequence of petals. The task is
    compiled and solved once without sequencing. A candidate is keyed by its
    projection, and each projection is checked once, by adding the arcs of
    its sequencing constraints to that network with ``add_arc``: one arc for
    each petal placed after another petal of the same owner. A sequencing
    arc joins one petal's last end to the next petal's first start, so at
    the first arc that would lower a label, ``fold_series`` folds out every
    other vertex with two neighbours: a petal's inner action vertices become
    at most one arc each way between its ends, unless a constraint ties them
    to a third vertex. Distances between the kept vertices are those of the
    full network, so every verdict is too, and each fall walks only the kept
    vertices. Arcs that lower no label run no fall, so until one comes the
    network is not folded at all; each petal's two ends and each owner's
    stacked arcs are then moved to their folded positions once.
    Every later candidate with the same projection takes the saved verdict.
    Each owner keeps a stack of its placed petals and the arcs they added.
    A new projection first pops every owner's stack back to the prefix it
    shares with that owner's new sequence, and only then adds the missing
    arcs, so no arc of an earlier projection is left to reject it. A cyclic
    precedence raises ``CyclicPrecedenceError`` before anything is compiled,
    and a limit of 0 or less compiles nothing.
    """
    candidates = linear_extensions(partial_order(daisy))
    if limit is not None and limit <= 0:
        return []
    graph = solve(compile_to_stn(daisy, sequenced=False))
    if not graph.consistent:
        return []
    ends = {
        p.name: (graph.position(p.first.start), graph.position(p.last.end)) for p in daisy.petals
    }
    keep = {graph.position(daisy.start), graph.position(daisy.end)}.union(*ends.values())
    arcs, potential = graph.arcs(), list(graph.potential)
    # Each petal's first start and last end, in ``arcs`` until the fold.
    first_at = {name: first for name, (first, _) in ends.items()}
    last_at = {name: last for name, (_, last) in ends.items()}
    # Per agent, in ``daisy.agents`` order: its petal names, and a stack of
    # each placed petal and the tail of the arc it added (-1 for none). A
    # petal's first start is the tail of at most one sequencing arc, so
    # ``arcs[tail].pop()`` takes back exactly that petal's arc.
    owned = [{p.name for p in daisy.petals if p.owner == a.id} for a in daisy.agents]
    stacks: list[list[tuple[str, int]]] = [[] for _ in owned]
    folded = False

    def fold() -> None:
        # Fold once, before the first arc that lowers a label. The arcs added
        # so far join kept vertices and lowered nothing, so each stays last
        # in its tail's list, as on a network folded up front.
        nonlocal arcs, potential, folded
        arcs, potential, position = fold_series(arcs, potential, keep)
        for at in (first_at, last_at):
            for name, vertex in at.items():
                at[name] = position[vertex]
        for stack in stacks:
            stack[:] = [(name, tail if tail < 0 else position[tail]) for name, tail in stack]
        folded = True

    def check(projection: tuple[tuple[str, ...], ...]) -> bool:
        # Pop every agent back before adding any arc: an arc left from
        # another agent's earlier sequence could reject a consistent order.
        for stack, sequence in zip(stacks, projection):
            shared = 0
            for (placed, _), name in zip(stack, sequence):
                if placed != name:
                    break
                shared += 1
            while len(stack) > shared:
                tail = stack.pop()[1]
                if tail >= 0:
                    arcs[tail].pop()  # removing an arc keeps the potential feasible
        for stack, sequence in zip(stacks, projection):
            for name in sequence[len(stack):]:
                tail = -1
                if stack:
                    # The sequencing constraint of ``compile_to_stn`` with no
                    # gap: [0, +inf) from the earlier petal's last end to this
                    # one's first start, the single arc back weighing -0.0.
                    before = stack[-1][0]
                    if not folded and (potential[first_at[name]]
                                       < potential[last_at[before]] - TOLERANCE):
                        fold()
                    tail, head = first_at[name], last_at[before]
                    if not add_arc(arcs, potential, tail, head, -0.0):
                        return False
                stack.append((name, tail))
        return True

    verdicts: dict[tuple[tuple[str, ...], ...], bool] = {}  # by projection
    verified: list[tuple[str, ...]] = []
    # The limit is checked before the next candidate is drawn.
    while limit is None or len(verified) < limit:
        order = next(candidates, None)
        if order is None:
            break
        key = tuple(tuple(filter(names.__contains__, order)) for names in owned)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = check(key)
        if verdict:
            verified.append(order)
    return verified


@dataclass
class CapabilityTable:
    """Suitability scores for agent/petal pairings.

    ``scores[agent_id][petal_name]`` is a real-valued ability rating. An
    agent is considered capable of a petal only when its score is strictly
    positive; missing entries count as zero. Ratings are compared only
    within a petal, so any positive rescaling of the whole table describes
    the same preferences.
    """

    scores: dict[str, dict[str, float]] = field(default_factory=dict)

    def score(self, agent_id: str, petal_name: str) -> float:
        return float(self.scores.get(agent_id, {}).get(petal_name, 0.0))

    def rate(self, agent_id: str, petal_name: str, value: float) -> None:
        self.scores.setdefault(agent_id, {})[petal_name] = float(value)

    def scaled(self, factor: float) -> CapabilityTable:
        """The same table with every score multiplied by ``factor`` (> 0)."""
        if not factor > 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return CapabilityTable(
            scores={
                agent: {petal: value * factor for petal, value in row.items()}
                for agent, row in self.scores.items()
            }
        )


def greedy_assign(daisy: Daisy, table: CapabilityTable) -> Daisy:
    """Assign each unowned petal to its highest-scoring capable agent.

    Unowned petals are visited in declaration order and assigned
    independently: the winner is the agent with the strictly highest
    positive score, and exact ties go to the smallest agent id so reruns
    are reproducible. An unowned petal no agent is capable of raises
    ``NoCapableAgentError``. Petals that already have an owner are kept
    as they are, whatever the table says; the input task is not modified.
    """
    assigned = []
    for petal in daisy.petals:
        if petal.owner != UNASSIGNED:
            assigned.append(petal)
            continue
        best_id: str | None = None
        best_score = 0.0
        for agent in sorted(daisy.agents, key=lambda a: a.id):
            value = table.score(agent.id, petal.name)
            if value > 0 and value > best_score:
                best_id = agent.id
                best_score = value
        if best_id is None:
            raise NoCapableAgentError(petal.name)
        assigned.append(petal.with_owner(best_id))
    return daisy.with_petals(assigned)
