"""Ordering and assignment search over daisy tasks.

The planner works at petal granularity. Cross-petal constraints with a
strictly positive lower bound, and every handoff regardless of bounds,
induce a precedence relation between petals; candidate executions are the
linear extensions of that relation, each verified against the compiled
temporal network. Assignment is a separate concern handled by a greedy
sweep over a capability table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .daisy import ConstraintKind, Daisy, compile_to_stn, find_cycle
from .errors import CyclicPrecedenceError, NoCapableAgentError
from .stn import UNASSIGNED, solve


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
    for c in daisy.constraints:
        source_at = daisy.locate(c.source)
        target_at = daisy.locate(c.target)
        if source_at is None or target_at is None:
            continue
        if source_at[0] is target_at[0]:
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

    rank = {name: i for i, name in enumerate(precedence.petals)}
    blockers: dict[str, set[str]] = {p: set() for p in precedence.petals}
    for a, b in precedence.edges:
        blockers[b].add(a)

    def ready(placed: set[str]) -> list[str]:
        return sorted(
            (p for p in precedence.petals if p not in placed and blockers[p] <= placed),
            key=rank.__getitem__,
        )

    def extend() -> Iterator[tuple[str, ...]]:
        # An explicit stack, so long chains of petals cannot exhaust
        # Python's recursion limit: ``choices[k]`` holds the petals still
        # to try in slot ``k``, and ``prefix`` the petals placed so far.
        yielded = 0
        prefix: list[str] = []
        placed: set[str] = set()
        choices: list[Iterator[str]] = []
        while limit is None or yielded < limit:
            if len(prefix) == len(precedence.petals):
                yield tuple(prefix)
                yielded += 1
            else:
                choices.append(iter(ready(placed)))
            # Backtrack to the deepest slot with a petal left, and place it.
            while choices:
                if len(prefix) == len(choices):
                    placed.discard(prefix.pop())
                petal = next(choices[-1], None)
                if petal is not None:
                    prefix.append(petal)
                    placed.add(petal)
                    break
                choices.pop()
            else:
                return

    return extend()


def enumerate_orders(daisy: Daisy, limit: int | None = 1000) -> list[tuple[str, ...]]:
    """List executable petal orders for a fully assigned task.

    Candidates are the linear extensions of ``partial_order(daisy)``; each is
    kept only if the task compiled under that order is consistent, so the
    result is exactly the set of orders that admit a schedule. At most
    ``limit`` verified orders are returned (pass ``None`` to exhaust the
    space; the default keeps accidental factorial blowups desk-sized).
    """
    candidates = linear_extensions(partial_order(daisy))
    verified: list[tuple[str, ...]] = []
    # The limit is checked before the next candidate is drawn, so a limit
    # of 0 verifies nothing.
    while limit is None or len(verified) < limit:
        order = next(candidates, None)
        if order is None:
            break
        if solve(compile_to_stn(daisy, ordering=order)).consistent:
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
