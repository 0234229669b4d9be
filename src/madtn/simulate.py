"""Discrete-event execution of daisy tasks under agent behavior profiles.

Each agent works through its petals in order, starting every action as soon
as its own hands are free, its release time has passed and all enabling
work by others is done, plus an optional reaction delay. The run keeps one
realized time per vertex of the task. Durations are sampled per the agent's
profile. Anticipatory agents may jump the gun on a handoff and begin before
the product is actually available; the resulting trace then violates that
handoff constraint, which is recorded rather than forbidden, since fluency
analysis is about measuring such behavior, not preventing it.

Randomness is reproducible: every agent draws from its own substream keyed
by ``"{seed}/{agent_id}"``, and an agent's draws depend only on its own
action sequence, so traces are identical across runs and platforms for a
given seed and independent of how agents happen to be interleaved in
memory.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .daisy import Action, ConstraintKind, Daisy, ExternalConstraint, Petal
from .daisy import _ordered_petals, _transition, compile_to_stn, find_cycle
from .errors import (
    CoverageError,
    DeadlockError,
    InconsistentOrderingError,
    UnknownAgentError,
)
from .stn import INF, STN, TemporalConstraint, TimePoint, check_schedule


class DurationMode(str, Enum):
    """How an action's realized duration is drawn from its bounds."""

    LOWER_BOUND = "lower_bound"
    UNIFORM = "uniform"
    TRUNCATED_NORMAL = "truncated_normal"


@dataclass(frozen=True)
class BehaviorProfile:
    """How one agent behaves during execution.

    ``reaction_delay`` is the largest hesitation before starting an enabled
    action; the realized delay is uniform on ``[0, reaction_delay]``. With
    probability ``anticipation_probability`` an agent starts an action that
    waits on handoffs up to ``anticipation_offset`` seconds before the final
    incoming handoff is actually ready (the exact head start is uniform on
    ``[0, anticipation_offset]``).

    ``mean_fraction`` and ``stddev_fraction`` shape truncated-normal
    duration draws, both as fractions of the bound width: the defaults
    center the bell on the range with a sixth of the width as spread, so
    rejection is rare and the mass hugs the middle. The default profile is
    fully punctual: minimum durations, no hesitation, no anticipation.
    """

    duration_mode: DurationMode = DurationMode.LOWER_BOUND
    reaction_delay: float = 0.0
    anticipation_probability: float = 0.0
    anticipation_offset: float = 0.0
    mean_fraction: float = 0.5
    stddev_fraction: float = 1.0 / 6.0

    def __post_init__(self):
        object.__setattr__(self, "duration_mode", DurationMode(self.duration_mode))
        _check_non_negative("reaction_delay", self.reaction_delay)
        _check_fraction("anticipation_probability", self.anticipation_probability)
        _check_non_negative("anticipation_offset", self.anticipation_offset)
        _check_fraction("mean_fraction", self.mean_fraction)
        _check_non_negative("stddev_fraction", self.stddev_fraction)


def _check_non_negative(name: str, value: float) -> None:
    """Refuse a profile field that is not a finite number of at least 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_fraction(name: str, value: float) -> None:
    """Refuse a profile field that is not a number in ``[0, 1]``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True, init=False)
class ExecutionEvent:
    """One executed action as observed in a run: who did what, and when."""

    agent: str
    petal: str
    action: str
    start: float
    end: float

    def __init__(self, agent: str, petal: str, action: str, start: float, end: float):
        # One dict update instead of a frozen setattr per field.
        self.__dict__.update(agent=agent, petal=petal, action=action, start=start, end=end)
        # Floats in order pass both checks below; anything else meets them.
        if start.__class__ is float and end.__class__ is float and start <= end:
            return
        if math.isnan(self.start) or math.isnan(self.end):
            raise ValueError(f"event times may not be NaN: {self.start}, {self.end}")
        if self.start > self.end:
            raise ValueError(
                f"event for {self.petal}.{self.action} ends at {self.end} "
                f"before it starts at {self.start}"
            )


@dataclass(frozen=True)
class Trace:
    """A complete execution record: every event, in non-decreasing start order.

    ``agents`` is the roster the run involved (including agents that never
    acted), ``seed`` reproduces the run, and ``feasible`` says whether the
    realized times satisfy every constraint of the compiled network. Traces
    of anticipatory runs are typically infeasible by design.
    """

    events: tuple[ExecutionEvent, ...]
    agents: tuple[str, ...]
    seed: int
    feasible: bool
    start_time: float = 0.0

    @property
    def end_time(self) -> float:
        return max((e.end for e in self.events), default=self.start_time)

    @property
    def makespan(self) -> float:
        return self.end_time - self.start_time

    def events_of(self, agent_id: str) -> tuple[ExecutionEvent, ...]:
        return tuple(e for e in self.events if e.agent == agent_id)

    def event_of(self, petal: str, action: str) -> ExecutionEvent:
        for e in self.events:
            if e.petal == petal and e.action == action:
                return e
        raise KeyError(f"no event for action {petal}.{action} in trace")

    def time_of(self, petal: str, action: str, kind: str) -> float:
        event = self.event_of(petal, action)
        if kind == "start":
            return event.start
        if kind == "end":
            return event.end
        raise KeyError(f"event side must be 'start' or 'end', got {kind!r}")


def simulate(
    daisy: Daisy,
    profiles: Mapping[str, BehaviorProfile] | None = None,
    seed: int = 0,
    ordering: Sequence[str] | None = None,
    transition_lower: float | Mapping[str, float] = 0.0,
) -> Trace:
    """Execute a fully assigned daisy once and return the trace.

    Agents missing from ``profiles`` run the punctual default; a profile for
    an agent the task does not declare raises ``UnknownAgentError``.
    ``ordering`` and ``transition_lower`` mean the same as in
    ``compile_to_stn``; the same values must be passed to ``validate_trace``
    for a meaningful feasibility verdict.

    The network the ``feasible`` flag is checked against is compiled once
    per task, ordering and transition, and kept with the ``Daisy``, which is
    frozen: repeated runs and ``validate_trace`` share it and only read it.
    That is a memo, not an option; there is no parameter to pass a network,
    and ``compile_to_stn`` still returns a fresh network to each caller.
    The same memo entry plans each agent's run: its actions in order, each
    with the sources that gate its start. A run then only draws times along
    the plan.

    An action waits for its agent's previous action (plus the transition gap
    when the agent switches petals) and for every constraint that can hold
    it back: a non-negative lower bound into its start vertex, from ``Vs`` or
    from an action vertex. Every other constraint (upper bounds, bounds into
    end vertices or out of ``Ve``) is left to ``validate_trace``: the stored
    ``feasible`` flag checks the realized times against the whole network.

    Raises ``DeadlockError`` when cross-petal waits form a cycle that no
    execution order can break.
    """
    stn, plan = _compiled(daisy, ordering, transition_lower)
    profiles = profiles or {}
    profile_of = {a.id: profiles.get(a.id) or BehaviorProfile() for a in daisy.agents}
    unknown = [agent_id for agent_id in profiles if agent_id not in profile_of]
    if unknown:
        raise UnknownAgentError(
            f"profiles name agents the task does not declare: "
            f"{', '.join(map(repr, unknown))}"
        )
    times: dict[TimePoint, float] = {daisy.start: 0.0}
    events: list[ExecutionEvent] = []
    agent_ids = sorted(plan)
    # Per agent: how many of its steps have run, and when it is next free.
    done = dict.fromkeys(agent_ids, 0)
    free_at = dict.fromkeys(agent_ids, 0.0)
    lanes = [
        (agent_id, plan[agent_id], _transition(transition_lower, agent_id),
         profile_of[agent_id], random.Random(f"{seed}/{agent_id}"))
        for agent_id in agent_ids
    ]

    progressed = True
    while progressed:
        progressed = False
        for agent_id, steps, gap, profile, rng in lanes:
            probability = profile.anticipation_probability
            offset, delay = profile.anticipation_offset, profile.reaction_delay
            first = i = done[agent_id]
            free = free_at[agent_id]
            while i < len(steps):
                petal, action, gates, handoffs, waits, switches = steps[i]
                if gates and not times.keys() >= gates:
                    break
                # Repositioning costs apply between petals, never between
                # back-to-back actions of one petal.
                enabled = free + gap if switches else free
                for source, lower in waits:
                    ready = times[source] + lower
                    if ready > enabled:
                        enabled = ready
                # Fixed per-action draw order keeps substreams aligned:
                # anticipation trigger, head start, reaction, duration. Draws
                # that cannot matter are skipped rather than consumed.
                if handoffs:
                    # The product exists at the last source end time;
                    # anticipation acts on that one.
                    ready = max([times[source] for source in handoffs])
                    if probability > 0 and rng.random() < probability and offset > 0:
                        ready -= rng.uniform(0.0, offset)
                    if ready > enabled:
                        enabled = ready
                start = enabled + (rng.uniform(0.0, delay) if delay > 0 else 0.0)
                times[action.start] = start
                free = times[action.end] = start + _draw_duration(action, profile, rng)
                events.append(ExecutionEvent(agent_id, petal.name, action.name, start, free))
                i += 1
            if i != first:
                done[agent_id], free_at[agent_id] = i, free
                progressed = True

    if any(done[agent_id] < len(plan[agent_id]) for agent_id in agent_ids):
        queues = {
            agent_id: [(petal, action) for petal, action, *_ in steps]
            for agent_id, steps in plan.items()
        }
        raise DeadlockError(
            _waiting_cycle(daisy, queues, done, _start_gates(daisy), times)
        )

    events.sort(key=lambda e: (e.start, e.end))  # stable: ties keep causal order
    times[daisy.end] = max((e.end for e in events), default=times[daisy.start])
    return Trace(
        events=tuple(events),
        agents=tuple(a.id for a in daisy.agents),
        seed=seed,
        feasible=not check_schedule(stn, times),
    )


#: One action of an agent's run: its petal, the action, the sources that
#: gate its start (all of them, the handoff ones, and the others with their
#: lower bounds), and whether it opens a petal after another of the agent's.
_Step = tuple[
    Petal, Action, frozenset[TimePoint], tuple[TimePoint, ...],
    tuple[tuple[TimePoint, float], ...], bool,
]


def _network(
    daisy: Daisy,
    ordering: Sequence[str] | None,
    transition_lower: float | Mapping[str, float],
) -> STN:
    """The compiled network of ``daisy``, from the entry ``_compiled`` keeps."""
    return _compiled(daisy, ordering, transition_lower)[0]


def _compiled(
    daisy: Daisy,
    ordering: Sequence[str] | None,
    transition_lower: float | Mapping[str, float],
) -> tuple[STN, dict[str, tuple[_Step, ...]]]:
    """The network of ``daisy`` and each agent's steps under ``ordering``,
    built on first use and kept with it.

    Only what compiled is kept, so a bad argument is reported by
    ``compile_to_stn`` on every call.
    """
    key = (
        None if ordering is None else tuple(ordering),
        frozenset(transition_lower.items())
        if isinstance(transition_lower, Mapping) else transition_lower,
    )
    entry = daisy._compiled.get(key)
    if entry is not None:
        return entry
    stn = compile_to_stn(daisy, ordering=key[0], transition_lower=transition_lower)
    gates = _start_gates(daisy)
    plan: dict[str, list[_Step]] = {a.id: [] for a in daisy.agents}
    for petal in _ordered_petals(daisy, key[0]):
        steps = plan[petal.owner]
        switches = bool(steps)
        for action in petal.actions:
            mine = gates.get(action, ())
            steps.append((
                petal, action, frozenset(c.source for c in mine),
                tuple(c.source for c in mine if c.kind is ConstraintKind.HANDOFF),
                tuple(
                    (c.source, c.lower) for c in mine
                    if c.kind is not ConstraintKind.HANDOFF
                ),
                switches,
            ))
            switches = False
    entry = daisy._compiled[key] = (
        stn, {agent_id: tuple(steps) for agent_id, steps in plan.items()}
    )
    return entry


def _start_gates(daisy: Daisy) -> dict[Action, list[ExternalConstraint]]:
    """Map each action to the constraints that hold back its start.

    These are the constraints with a non-negative lower bound into an action
    start vertex, from ``Vs`` or from an action vertex. Constraints into end
    vertices, out of ``Ve`` or bounding only from above cannot be honored by
    a causal scheduler and are left to ``validate_trace`` instead.
    """
    out: dict[Action, list[ExternalConstraint]] = {}
    for c, source_at, target_at in daisy._constraint_ends:
        if c.lower < 0 or target_at is None or target_at[2] != "start":
            continue
        if c.source is daisy.start or source_at is not None:
            out.setdefault(target_at[1], []).append(c)
    return out


#: Truncated-normal draws rejected before a duration is drawn by inverse CDF.
_REDRAWS = 100


def _draw_duration(
    action: Action, profile: BehaviorProfile, rng: random.Random
) -> float:
    lower, upper = action.lower, action.upper
    mode = profile.duration_mode
    # Unbounded or degenerate ranges leave nothing to sample.
    if mode is DurationMode.LOWER_BOUND or upper == lower or upper == INF:
        return lower
    if mode is DurationMode.UNIFORM:
        return rng.uniform(lower, upper)
    width = upper - lower
    mean = lower + profile.mean_fraction * width
    sd = profile.stddev_fraction * width
    if sd == 0:
        return mean
    for _ in range(_REDRAWS):
        value = rng.gauss(mean, sd)
        if lower <= value <= upper:
            return value
    # The bounds hold too little of the bell for redrawing to end soon (a
    # large stddev_fraction): draw from the same truncated normal by
    # inverting its CDF over the bounds.
    from statistics import NormalDist

    bell = NormalDist(mean, sd)
    low, high = bell.cdf(lower), bell.cdf(upper)
    if low == high:  # the bell is flat over the bounds at float precision
        return rng.uniform(lower, upper)
    p = rng.uniform(low, high)
    if not 0.0 < p < 1.0:  # a tail the CDF rounds to 0 or 1
        return lower if p <= 0.0 else upper
    return min(max(bell.inv_cdf(p), lower), upper)


def _waiting_cycle(
    daisy: Daisy,
    queues: dict[str, list[tuple[Petal, Action]]],
    next_index: dict[str, int],
    gates: dict[Action, list[ExternalConstraint]],
    times: dict[TimePoint, float],
) -> list[str]:
    """Describe the wait-for loop among unscheduled actions."""
    pending: dict[Action, Petal] = {}
    predecessor: dict[Action, Action] = {}
    for agent_id, queue in queues.items():
        for i in range(next_index[agent_id], len(queue)):
            petal, action = queue[i]
            pending[action] = petal
            if i > next_index[agent_id]:
                predecessor[action] = queue[i - 1][1]

    def waits_on(action: Action) -> list[Action]:
        out = [
            daisy.locate(c.source)[1]
            for c in gates.get(action, ())
            if c.source not in times
        ]
        if action in predecessor:
            out.append(predecessor[action])
        return out

    # Every pending action waits on another pending action, either its
    # agent's previous action or a gate source that has not run, so the
    # search always closes a loop.
    cycle = find_cycle(pending, waits_on)
    return [f"{pending[a].name}.{a.name}" for a in cycle]


def validate_trace(
    daisy: Daisy,
    trace: Trace,
    ordering: Sequence[str] | None = None,
    transition_lower: float | Mapping[str, float] = 0.0,
) -> list[TemporalConstraint]:
    """Check a trace against the compiled network; return violated constraints.

    Structural problems raise immediately: events out of time order raise
    ``InconsistentOrderingError``, and a trace that ``realized_times`` cannot
    match to the task raises ``CoverageError``. Temporal violations (a
    handoff consumed before it was produced, a blown deadline, a duration
    outside its bounds, an event before the trace start) are returned as
    the violated constraints, empty for a feasible trace.
    """
    stn = _network(daisy, ordering, transition_lower)
    for before, after in zip(trace.events, trace.events[1:]):
        if after.start < before.start:
            raise InconsistentOrderingError(
                f"trace events are not in start order: {after} follows {before}"
            )
    return check_schedule(stn, realized_times(daisy, trace))


def realized_times(daisy: Daisy, trace: Trace) -> dict[TimePoint, float]:
    """Match a trace to its task: the realized time of each of its vertices.

    ``Vs`` and ``Ve`` take the trace window. Unless the trace holds exactly
    one event per action, by the owner of the action's petal, this raises
    ``CoverageError`` naming the missing and the unexpected events.
    """
    pending: dict[tuple[str, str], tuple[Petal, Action]] = {
        (petal.name, action.name): (petal, action)
        for petal in daisy.petals
        for action in petal.actions
    }
    times: dict[TimePoint, float] = {
        daisy.start: trace.start_time, daisy.end: trace.end_time
    }
    extra: list[str] = []
    for event in trace.events:
        key = (event.petal, event.action)
        matched = pending.pop(key, None)
        if matched is None:  # not an action of the task, or a repeat
            extra.append(f"{event.petal}.{event.action}")
            continue
        petal, action = matched
        if event.agent != petal.owner:
            pending[key] = matched
            extra.append(f"{event.petal}.{event.action} (agent {event.agent!r})")
            continue
        times[action.start] = event.start
        times[action.end] = event.end
    if pending or extra:
        missing = [f"{petal}.{action}" for petal, action in pending]
        raise CoverageError(missing=tuple(missing), extra=tuple(extra))
    return times
