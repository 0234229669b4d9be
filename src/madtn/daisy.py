"""Collaborative-task models shaped like a daisy.

A task is a set of petals, one per contiguous block of work, arranged around
a shared global start and end. Each petal is an ordered sequence of actions
owned by a single agent, and cross-petal coupling (handoffs, deadlines) is
expressed as external constraints between action vertices. Compiling a daisy
produces a simple temporal network over all action start/end vertices plus
the two global ones.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from typing import TypeVar

from .errors import (
    EmptyPetalError,
    InvalidDaisyError,
    InvertedBoundsError,
    MalformedOrderingError,
    NegativeDurationError,
    UnassignedPetalError,
    UnknownTimePointError,
)
from .stn import INF, STN, UNASSIGNED, TimePoint

#: Path tokens for the global vertices in constraint endpoints.
GLOBAL_START_TOKEN = "Vs"
GLOBAL_END_TOKEN = "Ve"

Node = TypeVar("Node", bound=Hashable)


@dataclass(frozen=True)
class Agent:
    """A participant (human or robot) identified by a short unique id."""

    id: str
    name: str = ""

    def __post_init__(self):
        if not self.name:
            object.__setattr__(self, "name", self.id)


@dataclass(frozen=True, eq=False, init=False)
class Action:
    """One indivisible piece of work with duration bounds in seconds.

    Start and end vertices are created with the action and are reused by
    every network the enclosing daisy compiles to. Identity is the object:
    the same action may not appear in two petals.
    """

    name: str
    lower: float
    upper: float = INF
    start: TimePoint = field(init=False)
    end: TimePoint = field(init=False)

    def __init__(self, name: str, lower: float, upper: float = INF):
        # The fields go straight into the instance dict: a frozen dataclass
        # would pay a setattr per field.
        fields = self.__dict__
        fields.update(name=name, lower=lower, upper=upper)
        # Float bounds in order pass every check below; any other value goes
        # through them in turn and raises what they raise.
        if not (
            lower.__class__ is float and upper.__class__ is float
            and 0.0 <= lower <= upper and lower != INF
        ):
            self._check_bounds()
        fields["start"] = TimePoint(f"{name}.start")
        fields["end"] = TimePoint(f"{name}.end")

    def _check_bounds(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise InvertedBoundsError(f"action {self.name!r} has NaN duration bounds")
        if self.lower < 0:
            raise NegativeDurationError(
                f"action {self.name!r} has negative minimum duration {self.lower}"
            )
        if self.lower > self.upper:
            raise InvertedBoundsError(
                f"action {self.name!r} duration bounds [{self.lower}, {self.upper}] "
                "are inverted"
            )
        if self.lower == INF:
            raise InvertedBoundsError(
                f"action {self.name!r} minimum duration may not be infinite"
            )


@dataclass(frozen=True, eq=False)
class Petal:
    """An ordered run of actions performed by one agent without interleaving.

    ``tags`` are free-form resource labels ("box", "object-a") carried along
    for reporting; nothing is enforced about them.
    """

    name: str
    actions: tuple[Action, ...]
    owner: str = UNASSIGNED
    tags: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "tags", frozenset(self.tags))
        if not self.actions:
            raise EmptyPetalError(f"petal {self.name!r} has no actions")

    @property
    def first(self) -> Action:
        return self.actions[0]

    @property
    def last(self) -> Action:
        return self.actions[-1]

    def with_owner(self, owner: str) -> Petal:
        """A copy assigned to ``owner``; actions (and their vertices) are shared."""
        return replace(self, owner=owner)


class ConstraintKind(str, Enum):
    """What an external constraint expresses."""

    HANDOFF = "handoff"
    MAKESPAN = "makespan"
    OTHER = "other"


@dataclass(frozen=True, eq=False)
class ExternalConstraint:
    """A cross-petal bound ``lower <= time(target) - time(source) <= upper``.

    Handoffs carry work products between petals: they must run from an
    action's end vertex to another petal's action start vertex and leave a
    lower bound of exactly zero, so the receiving action may begin the
    instant the product exists. Makespan constraints bound the whole task
    between the global start and end vertices.
    """

    kind: ConstraintKind
    source: TimePoint
    target: TimePoint
    lower: float
    upper: float = INF

    def __post_init__(self):
        if self.kind.__class__ is not ConstraintKind:
            object.__setattr__(self, "kind", ConstraintKind(self.kind))


#: Where an action vertex sits: its petal, its action, and "start" or "end".
Located = tuple[Petal, Action, str]

#: An external constraint with ``locate`` of its source and of its target.
_Ends = tuple[ExternalConstraint, Located | None, Located | None]


@dataclass(frozen=True, eq=False)
class Daisy:
    """A full collaborative task: agents, petals, and external constraints."""

    agents: tuple[Agent, ...]
    petals: tuple[Petal, ...]
    constraints: tuple[ExternalConstraint, ...] = ()
    start: TimePoint = field(default_factory=lambda: TimePoint(label="task.start"))
    end: TimePoint = field(default_factory=lambda: TimePoint(label="task.end"))

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "petals", tuple(self.petals))
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.agents)

    @functools.cached_property
    def _petals(self) -> dict[str, Petal]:
        """Petals by name, built once; the first wins where a name repeats."""
        petals: dict[str, Petal] = {}
        for petal in self.petals:
            petals.setdefault(petal.name, petal)
        return petals

    @functools.cached_property
    def _vertices(self) -> dict[TimePoint, Located]:
        """Action vertices to where they sit, built once; the first place wins."""
        vertices: dict[TimePoint, Located] = {}
        for petal in self.petals:
            for action in petal.actions:
                vertices.setdefault(action.start, (petal, action, "start"))
                vertices.setdefault(action.end, (petal, action, "end"))
        return vertices

    @functools.cached_property
    def _constraint_ends(self) -> tuple[_Ends, ...]:
        """Each external constraint in order, with ``locate`` of its source and target."""
        locate = self._vertices.get
        return tuple((c, locate(c.source), locate(c.target)) for c in self.constraints)

    @functools.cached_property
    def _violations(self) -> tuple[str, ...]:
        """What ``validate_daisy`` reports, found once: the model is frozen."""
        return tuple(_find_violations(self))

    @functools.cached_property
    def _compiled(self) -> dict[Hashable, tuple[STN, dict]]:
        """What ``simulate`` compiles, keyed by ordering and transition: the
        network and each agent's steps. It and ``validate_trace`` only read
        them, and they go with the task."""
        return {}

    def petal(self, name: str) -> Petal:
        try:
            return self._petals[name]
        except KeyError:
            raise KeyError(f"no petal named {name!r}") from None

    def locate(self, point: TimePoint) -> Located | None:
        """The (petal, action, "start"|"end") of an action vertex, else None."""
        return self._vertices.get(point)

    def vertex_path(self, point: TimePoint) -> str:
        """``petal.action.start|end``, or ``Vs``/``Ve`` for the global vertices.

        Labels are not petal-qualified, so this is how documents and the CLI
        name a vertex. Raises ``UnknownTimePointError`` for any other point.
        """
        if point is self.start:
            return GLOBAL_START_TOKEN
        if point is self.end:
            return GLOBAL_END_TOKEN
        located = self.locate(point)
        if located is None:
            raise UnknownTimePointError(f"{point!r} is not a vertex of this task")
        petal, action, side = located
        return f"{petal.name}.{action.name}.{side}"

    def vertex(self, path: str) -> TimePoint:
        """The vertex ``path`` names: the inverse of ``vertex_path``.

        Where names repeat, the first petal and its first action with the
        name win. Raises ``UnknownTimePointError`` for a malformed path, an
        unknown petal or an unknown action.
        """
        if path == GLOBAL_START_TOKEN:
            return self.start
        if path == GLOBAL_END_TOKEN:
            return self.end
        parts = path.split(".")
        if len(parts) != 3 or parts[2] not in ("start", "end"):
            raise UnknownTimePointError(
                f"expected 'petal.action.start', 'petal.action.end', "
                f"'{GLOBAL_START_TOKEN}', or '{GLOBAL_END_TOKEN}', got {path!r}"
            )
        petal_name, action_name, side = parts
        petal = self._petals.get(petal_name)
        if petal is None:
            raise UnknownTimePointError(f"no petal named {petal_name!r}")
        for action in petal.actions:
            if action.name == action_name:
                return action.start if side == "start" else action.end
        raise UnknownTimePointError(f"petal {petal_name!r} has no action {action_name!r}")

    def with_petals(self, petals: Sequence[Petal]) -> Daisy:
        """A copy with the petal tuple replaced (used after assignment)."""
        return replace(self, petals=tuple(petals))


def build_action(name: str, lower: float, upper: float = INF) -> Action:
    """Create an action with duration bounds ``[lower, upper]`` seconds."""
    return Action(name=name, lower=lower, upper=upper)


def build_petal(
    name: str,
    actions: Sequence[Action],
    owner: str = UNASSIGNED,
    tags: Sequence[str] = (),
) -> Petal:
    """Create a petal from an ordered action sequence."""
    return Petal(name=name, actions=tuple(actions), owner=owner, tags=frozenset(tags))


def validate_daisy(daisy: Daisy) -> list[str]:
    """Collect every structural violation in the model (empty means valid).

    Checks cover naming (unique, non-empty, dot-free so vertices stay
    addressable), ownership, action membership, constraint endpoint
    membership, bound sanity, and the orientation rules for handoff and
    makespan constraints. A petal with no owner at all is legal here, since
    assignment may still be pending; compiling is where that becomes an
    error. The result is worked out once per daisy; each call returns a
    fresh list.
    """
    return list(daisy._violations)


def _find_violations(daisy: Daisy) -> list[str]:
    violations: list[str] = []

    seen_agents: set[str] = set()
    for agent in daisy.agents:
        if not agent.id or "." in agent.id:
            violations.append(f"agent id {agent.id!r} must be non-empty and dot-free")
        if agent.id == UNASSIGNED:
            violations.append(
                f"agent id {agent.id!r} collides with the no-owner marker"
            )
        if agent.id in seen_agents:
            violations.append(f"agent id {agent.id!r} is declared more than once")
        seen_agents.add(agent.id)

    seen_petals: set[str] = set()
    seen_actions: dict[int, str] = {}
    for petal in daisy.petals:
        if not petal.name or "." in petal.name:
            violations.append(
                f"petal name {petal.name!r} must be non-empty and dot-free"
            )
        if petal.name in seen_petals:
            violations.append(f"petal name {petal.name!r} is used more than once")
        seen_petals.add(petal.name)
        if petal.owner != UNASSIGNED and petal.owner not in seen_agents:
            violations.append(
                f"petal {petal.name!r} owner {petal.owner!r} is not a declared agent"
            )
        local_names: set[str] = set()
        for action in petal.actions:
            if not action.name or "." in action.name:
                violations.append(
                    f"action name {action.name!r} in petal {petal.name!r} "
                    "must be non-empty and dot-free"
                )
            if action.name in local_names:
                violations.append(
                    f"action name {action.name!r} appears twice in petal {petal.name!r}"
                )
            local_names.add(action.name)
            if id(action) in seen_actions:
                violations.append(
                    f"action {action.name!r} appears in both petal "
                    f"{seen_actions[id(action)]!r} and petal {petal.name!r}"
                )
            seen_actions[id(action)] = petal.name

    for ends in daisy._constraint_ends:
        violations.extend(_constraint_violations(daisy, ends))

    return violations


def _constraint_violations(daisy: Daisy, ends: _Ends) -> list[str]:
    c, source_at, target_at = ends
    out: list[str] = []
    label = f"{c.kind.value} constraint"

    if math.isnan(c.lower) or math.isnan(c.upper):
        out.append(f"{label} has NaN bounds")
        return out
    if c.lower > c.upper:
        out.append(f"{label} bounds [{c.lower}, {c.upper}] are inverted")
    if c.lower == INF or c.upper == -INF:
        out.append(f"{label} bounds [{c.lower}, {c.upper}] admit no finite difference")

    for end_name, point, located in (
        ("source", c.source, source_at),
        ("target", c.target, target_at),
    ):
        if located is None and point is not daisy.start and point is not daisy.end:
            out.append(f"{label} {end_name} {point!r} is not a vertex of this task")
            return out

    if c.kind is ConstraintKind.HANDOFF:
        if source_at is None or source_at[2] != "end":
            out.append(f"{label} source must be an action end vertex")
        if target_at is None or target_at[2] != "start":
            out.append(f"{label} target must be an action start vertex")
        if source_at is not None and target_at is not None:
            if source_at[0] is target_at[0]:
                out.append(
                    f"{label} connects two actions inside petal "
                    f"{source_at[0].name!r}; handoffs must cross petals"
                )
        if c.lower != 0.0:
            out.append(
                f"{label} lower bound must be exactly 0, got {c.lower}; the "
                "receiving action must be free to start the moment the product "
                "is available"
            )
    elif c.kind is ConstraintKind.MAKESPAN:
        if c.source is not daisy.start or c.target is not daisy.end:
            out.append(
                f"{label} must run from the global start vertex to the global "
                "end vertex"
            )
        if c.lower < 0:
            out.append(f"{label} lower bound must be non-negative, got {c.lower}")

    return out


def validation_warnings(daisy: Daisy) -> list[str]:
    """Advisory findings that do not invalidate the model.

    Currently: handoffs attached somewhere other than the source petal's
    final action or the target petal's opening action. Such handoffs are
    legal, but an agent then keeps working on the petal around the transfer,
    so petal-level delay readings blur.
    """
    warnings: list[str] = []
    for c, source_at, target_at in daisy._constraint_ends:
        if c.kind is not ConstraintKind.HANDOFF or source_at is None or target_at is None:
            continue  # validate_daisy reports unresolved endpoints
        source_petal, source_action, _ = source_at
        target_petal, target_action, _ = target_at
        if source_action is not source_petal.last:
            warnings.append(
                f"handoff leaves petal {source_petal.name!r} from mid-petal "
                f"action {source_action.name!r}; delay readings at petal "
                "granularity will blur"
            )
        if target_action is not target_petal.first:
            warnings.append(
                f"handoff enters petal {target_petal.name!r} at mid-petal "
                f"action {target_action.name!r}; delay readings at petal "
                "granularity will blur"
            )
    return warnings


@dataclass(frozen=True, eq=False)
class HandoffLink:
    """A handoff constraint resolved to the petals and actions it couples."""

    constraint: ExternalConstraint
    source_petal: Petal
    source_action: Action
    target_petal: Petal
    target_action: Action


def handoff_constraints(daisy: Daisy) -> tuple[HandoffLink, ...]:
    """Resolve each cross-agent handoff to its petals and actions.

    Only transfers between petals with different owners are returned, since
    a handoff between two petals of the same agent moves nothing between
    teammates; constraint-wise it still binds, but there is no delay to
    attribute. Endpoints that do not resolve to action vertices raise
    ``InvalidDaisyError``.
    """
    links: list[HandoffLink] = []
    for c, source_at, target_at in daisy._constraint_ends:
        if c.kind is not ConstraintKind.HANDOFF:
            continue
        if source_at is None or target_at is None:
            raise InvalidDaisyError(
                ["handoff constraint endpoints do not resolve to action vertices"]
            )
        if source_at[0].owner == target_at[0].owner:
            continue
        links.append(
            HandoffLink(
                constraint=c,
                source_petal=source_at[0],
                source_action=source_at[1],
                target_petal=target_at[0],
                target_action=target_at[1],
            )
        )
    return tuple(links)


def compile_to_stn(
    daisy: Daisy,
    ordering: Sequence[str] | None = None,
    transition_lower: float | Mapping[str, float] = 0.0,
    *,
    sequenced: bool = True,
) -> STN:
    """Compile a valid, fully assigned daisy to a simple temporal network.

    The network contains one vertex per action start and end plus the two
    global vertices, anchored at the global start: ``Vs`` first, then each
    petal's actions in declaration order, start before end, and ``Ve``
    last. Constraints are, in this order:

    * for each petal in declaration order: each action's duration bounds
      between its start and end vertex, ``[0, +inf)`` from the global start
      into the petal's first action, ``[0, +inf)`` between consecutive
      actions of the petal (back-to-back work inside a petal costs
      nothing), and ``[0, +inf)`` from its last action out to the global
      end;
    * for each agent in declaration order, ``[t, +inf)`` from the last end
      of each of its petals to the first start of its next one, which runs
      that petal next once the earlier one is done;
    * ``[0, +inf)`` from the global start to the global end when the task
      has no petals; and
    * every external constraint verbatim,

    where ``t`` is the owning agent's transition lower bound (0 by default;
    pass a mapping to model per-agent repositioning time between petals).

    Each constraint is written as a row of the network directly, with no
    ``TemporalConstraint`` built, because every row has already passed
    that class's checks: an action's bounds in ``Action``, an external
    constraint's in ``validate_daisy`` (which also finds both its ends in
    the task), and a transition bound in ``_transition``. The other rows
    are ``[0, +inf)``.

    ``ordering`` gives petal names in execution order. Only its projection
    onto each single agent's petals matters, because agents sequence only
    their own work; two orderings that agree agent-by-agent compile to the
    same network. When omitted, petals run in declaration order. With
    ``sequenced=False`` the agents' petals are left unsequenced and
    ``ordering`` and ``transition_lower`` go unused: the result is the
    order-free network that every ordering extends by its sequencing
    constraints alone.

    Compiling has no side effects: the network reuses the daisy's vertices
    and writes nothing into them, so labels stay as ``Action`` made them
    (``Walk to Shelf.start``); ``Daisy.vertex_path`` names vertices in full.
    """
    unassigned = [p.name for p in daisy.petals if p.owner not in daisy.agent_ids]
    if unassigned:
        raise UnassignedPetalError(unassigned[0])
    violations = validate_daisy(daisy)
    if violations:
        raise InvalidDaisyError(violations)

    points = [daisy.start]
    for petal in daisy.petals:
        for action in petal.actions:
            points += action.start, action.end
    points.append(daisy.end)
    stn = STN()
    index = dict(zip(points, range(len(points))))
    if len(index) < len(points):  # a global vertex used twice
        for point in points:
            stn.add_point(point)  # raises, naming it
    stn._index, stn._anchor = index, daisy.start
    append = stn._rows.append

    end = len(points) - 1
    at = 1  # the position of the next action's start
    for petal in daisy.petals:
        first = at
        for action in petal.actions:
            append((at, at + 1, action.lower, action.upper))
            at += 2
        append((0, first, 0.0, INF))
        for before_end in range(first + 1, at - 1, 2):
            append((before_end, before_end + 1, 0.0, INF))
        append((at - 1, end, 0.0, INF))

    if sequenced:
        ordered = _ordered_petals(daisy, ordering)
        for agent in daisy.agents:
            mine = [p for p in ordered if p.owner == agent.id]
            gap = _transition(transition_lower, agent.id)
            for before, after in zip(mine, mine[1:]):
                append((index[before.last.end], index[after.first.start], gap, INF))

    if not daisy.petals:
        append((0, end, 0.0, INF))

    for c in daisy.constraints:
        append((index[c.source], index[c.target], c.lower, c.upper))

    return stn


def _ordered_petals(daisy: Daisy, ordering: Sequence[str] | None) -> list[Petal]:
    if ordering is None:
        return list(daisy.petals)
    names = list(ordering)
    expected = [p.name for p in daisy.petals]
    if sorted(names) != sorted(expected):
        raise MalformedOrderingError(
            f"ordering must name each petal exactly once; expected a "
            f"permutation of {expected}, got {names}"
        )
    return [daisy.petal(name) for name in names]


def _transition(transition_lower: float | Mapping[str, float], owner: str) -> float:
    if isinstance(transition_lower, Mapping):
        gap = float(transition_lower.get(owner, 0.0))
    else:
        gap = float(transition_lower)
    # NaN passes every comparison and +inf admits no finite gap, so both
    # are caught here rather than as the bounds of an internal constraint.
    if math.isnan(gap) or gap == INF:
        raise InvertedBoundsError(f"transition lower bound {gap} is not a finite time")
    if gap < 0:
        raise NegativeDurationError(f"transition lower bound {gap} is negative")
    return gap


def find_cycle(
    nodes: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> list[Node] | None:
    """The first loop ``[n0, ..., nk, n0]`` a depth-first search meets, or None.

    Roots are tried in ``nodes`` order and successors in the order given. The
    search keeps its own stack, so paths of any length are fine.
    """
    state: dict[Node, bool] = {}  # True while on the current path, then False
    for root in nodes:
        if root in state:
            continue
        state[root] = True
        path, pending = [root], [iter(successors(root))]
        while path:
            for node in pending[-1]:
                on_path = state.get(node)
                if on_path:
                    return path[path.index(node) :] + [node]
                if on_path is None:
                    state[node] = True
                    path.append(node)
                    pending.append(iter(successors(node)))
                    break
            else:
                state[path.pop()] = False
                pending.pop()
    return None
