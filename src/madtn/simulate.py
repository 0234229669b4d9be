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
from .daisy import _transition, compile_to_stn, find_cycle
from .errors import CoverageError, DeadlockError, InconsistentOrderingError
from .stn import TemporalConstraint, TimePoint, check_schedule


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
        if self.reaction_delay < 0:
            raise ValueError(f"reaction_delay must be >= 0, got {self.reaction_delay}")
        if not 0.0 <= self.anticipation_probability <= 1.0:
            raise ValueError(
                "anticipation_probability must be in [0, 1], got "
                f"{self.anticipation_probability}"
            )
        if self.anticipation_offset < 0:
            raise ValueError(
                f"anticipation_offset must be >= 0, got {self.anticipation_offset}"
            )
        if not 0.0 <= self.mean_fraction <= 1.0:
            raise ValueError(
                f"mean_fraction must be in [0, 1], got {self.mean_fraction}"
            )
        if self.stddev_fraction < 0:
            raise ValueError(
                f"stddev_fraction must be >= 0, got {self.stddev_fraction}"
            )


@dataclass(frozen=True)
class ExecutionEvent:
    """One executed action as observed in a run: who did what, and when."""

    agent: str
    petal: str
    action: str
    start: float
    end: float

    def __post_init__(self):
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

    Agents missing from ``profiles`` run the punctual default. ``ordering``
    and ``transition_lower`` mean the same as in ``compile_to_stn``; the
    same values must be passed to ``validate_trace`` for a meaningful
    feasibility verdict.

    An action waits for its agent's previous action (plus the transition gap
    when the agent switches petals) and for every constraint that can hold
    it back: a non-negative lower bound into its start vertex, from ``Vs`` or
    from an action vertex. Every other constraint (upper bounds, bounds into
    end vertices or out of ``Ve``) is left to ``validate_trace``: the stored
    ``feasible`` flag checks the realized times against the whole network.

    Raises ``DeadlockError`` when cross-petal waits form a cycle that no
    execution order can break.
    """
    stn = compile_to_stn(daisy, ordering=ordering, transition_lower=transition_lower)
    profiles = profiles or {}
    order = daisy.petals if ordering is None else [daisy.petal(name) for name in ordering]

    queues: dict[str, list[tuple[Petal, Action]]] = {a.id: [] for a in daisy.agents}
    for petal in order:
        for action in petal.actions:
            queues[petal.owner].append((petal, action))

    gates = _start_gates(daisy)
    rngs = {a.id: random.Random(f"{seed}/{a.id}") for a in daisy.agents}
    next_index = {a.id: 0 for a in daisy.agents}
    times: dict[TimePoint, float] = {daisy.start: 0.0}
    events: list[ExecutionEvent] = []
    agent_ids = sorted(queues)

    progressed = True
    while progressed:
        progressed = False
        for agent_id in agent_ids:
            queue = queues[agent_id]
            i = next_index[agent_id]
            while i < len(queue) and all(
                c.source in times for c in gates.get(queue[i][1], ())
            ):
                petal, action = queue[i]
                free = times[daisy.start]
                if i > 0:
                    previous_petal, previous = queue[i - 1]
                    free = times[previous.end]
                    # Repositioning costs apply between petals, never
                    # between back-to-back actions of one petal.
                    if previous_petal is not petal:
                        free += _transition(transition_lower, agent_id)
                profile = profiles.get(agent_id) or BehaviorProfile()
                _run_action(action, free, gates.get(action, ()), times, profile, rngs[agent_id])
                events.append(
                    ExecutionEvent(agent=agent_id, petal=petal.name, action=action.name,
                                   start=times[action.start], end=times[action.end])
                )
                i += 1
                progressed = True
            next_index[agent_id] = i

    if any(next_index[a] < len(queues[a]) for a in agent_ids):
        raise DeadlockError(_waiting_cycle(daisy, queues, next_index, gates, times))

    events.sort(key=lambda e: (e.start, e.end))  # stable: ties keep causal order
    times[daisy.end] = max((e.end for e in events), default=times[daisy.start])
    return Trace(
        events=tuple(events),
        agents=tuple(a.id for a in daisy.agents),
        seed=seed,
        feasible=not check_schedule(stn, times),
    )


def _start_gates(daisy: Daisy) -> dict[Action, list[ExternalConstraint]]:
    """Map each action to the constraints that hold back its start.

    These are the constraints with a non-negative lower bound into an action
    start vertex, from ``Vs`` or from an action vertex. Constraints into end
    vertices, out of ``Ve`` or bounding only from above cannot be honored by
    a causal scheduler and are left to ``validate_trace`` instead.
    """
    out: dict[Action, list[ExternalConstraint]] = {}
    for c in daisy.constraints:
        if c.lower < 0:
            continue
        target_at = daisy.locate(c.target)
        if target_at is None or target_at[2] != "start":
            continue
        if c.source is daisy.start or daisy.locate(c.source) is not None:
            out.setdefault(target_at[1], []).append(c)
    return out


def _run_action(
    action: Action,
    free: float,
    gates: Sequence[ExternalConstraint],
    times: dict[TimePoint, float],
    profile: BehaviorProfile,
    rng: random.Random,
) -> None:
    """Start ``action`` once its agent is ``free`` and its gates allow it."""
    enabled = free
    handoff_ready = None
    for c in gates:
        if c.kind is ConstraintKind.HANDOFF:
            # Handoff lowers are zero by validation; the product exists at
            # the source end time. Anticipation acts on the last of these.
            if handoff_ready is None or times[c.source] > handoff_ready:
                handoff_ready = times[c.source]
        else:
            enabled = max(enabled, times[c.source] + c.lower)

    # Fixed per-action draw order keeps substreams aligned: anticipation
    # trigger, head start, reaction, duration. Draws that cannot matter are
    # skipped entirely rather than consumed.
    if handoff_ready is not None:
        triggered = profile.anticipation_probability > 0 and (
            rng.random() < profile.anticipation_probability
        )
        if triggered and profile.anticipation_offset > 0:
            handoff_ready -= rng.uniform(0.0, profile.anticipation_offset)
        enabled = max(enabled, handoff_ready)

    reaction = (
        rng.uniform(0.0, profile.reaction_delay) if profile.reaction_delay > 0 else 0.0
    )
    start = enabled + reaction
    times[action.start] = start
    times[action.end] = start + _draw_duration(action, profile, rng)


def _draw_duration(
    action: Action, profile: BehaviorProfile, rng: random.Random
) -> float:
    lower, upper = action.lower, action.upper
    mode = profile.duration_mode
    # Unbounded or degenerate ranges leave nothing to sample.
    if mode is DurationMode.LOWER_BOUND or upper == lower or upper == float("inf"):
        return lower
    if mode is DurationMode.UNIFORM:
        return rng.uniform(lower, upper)
    width = upper - lower
    mean = lower + profile.mean_fraction * width
    sd = profile.stddev_fraction * width
    if sd == 0:
        return mean
    while True:
        value = rng.gauss(mean, sd)
        if lower <= value <= upper:
            return value


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

    cycle = find_cycle(pending, waits_on)
    if cycle is not None:
        return [f"{pending[a].name}.{a.name}" for a in cycle]
    # No cycle among gates: some wait references work that never runs.
    return sorted(f"{petal.name}.{action.name}" for action, petal in pending.items())


def validate_trace(
    daisy: Daisy,
    trace: Trace,
    ordering: Sequence[str] | None = None,
    transition_lower: float | Mapping[str, float] = 0.0,
) -> list[TemporalConstraint]:
    """Check a trace against the compiled network; return violated constraints.

    Structural problems raise immediately: events out of time order raise
    ``InconsistentOrderingError``, and a trace that does not cover the task's
    actions exactly once each raises ``CoverageError``. Temporal violations
    (a handoff consumed before it was produced, a blown deadline, a duration
    outside its bounds) are returned as the violated constraints, empty for
    a feasible trace.
    """
    stn = compile_to_stn(daisy, ordering=ordering, transition_lower=transition_lower)
    for before, after in zip(trace.events, trace.events[1:]):
        if after.start < before.start:
            raise InconsistentOrderingError(
                f"trace events are not in start order: {after} follows {before}"
            )

    expected: dict[tuple[str, str], tuple[Petal, Action]] = {
        (petal.name, action.name): (petal, action)
        for petal in daisy.petals
        for action in petal.actions
    }
    times: dict[TimePoint, float] = {
        daisy.start: trace.start_time, daisy.end: trace.end_time
    }
    seen: set[tuple[str, str]] = set()
    extra: list[str] = []
    for event in trace.events:
        key = (event.petal, event.action)
        if key not in expected or key in seen:
            extra.append(f"{event.petal}.{event.action}")
            continue
        petal, action = expected[key]
        if event.agent != petal.owner:
            extra.append(f"{event.petal}.{event.action} (agent {event.agent!r})")
            continue
        seen.add(key)
        times[action.start] = event.start
        times[action.end] = event.end
    missing = [f"{petal}.{action}" for (petal, action) in expected if (petal, action) not in seen]
    if missing or extra:
        raise CoverageError(missing=tuple(missing), extra=tuple(extra))
    return check_schedule(stn, times)
