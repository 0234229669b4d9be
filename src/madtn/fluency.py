"""Team-fluency metrics computed from execution traces.

All metrics are descriptive: they take the trace as it happened, feasible
or not, and measure how the agents' time was spent and how smoothly work
moved across handoffs. Time is carved up with half-open interval sets over
the analysis window, which runs from the trace start to its last event, so
activity, idleness, and their overlaps partition the makespan exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .daisy import Daisy, HandoffLink, handoff_constraints
from .errors import (
    AgentCountError,
    CoverageError,
    NonHandoffKindError,
    UnknownAgentError,
)
from .intervals import IntervalSet
from .simulate import Trace
from .stn import TOLERANCE


def window(trace: Trace) -> IntervalSet:
    """The analysis window: trace start through the last event."""
    return IntervalSet.single(trace.start_time, trace.end_time)


def activity_intervals(trace: Trace, agent_id: str) -> IntervalSet:
    """When the agent was acting: the union of its action intervals.

    An agent on the trace roster with no events was idle throughout and
    yields the empty set; an id not on the roster raises
    ``UnknownAgentError``.
    """
    _require_on_roster(trace, agent_id)
    return _TraceIndex(trace).activity(agent_id)


@dataclass(frozen=True)
class IdleBreakdown:
    """One agent's idle time, split by where it falls.

    ``waiting`` is idleness strictly inside one of the agent's own petal
    spans (stuck mid-petal, typically on a handoff that has not arrived);
    ``resting`` is the rest of its idleness, before, between, or after its
    petals. The two partition ``idle``.
    """

    agent: str
    idle: IntervalSet
    waiting: IntervalSet
    resting: IntervalSet

    @property
    def total(self) -> float:
        return self.idle.measure

    @property
    def waiting_time(self) -> float:
        return self.waiting.measure

    @property
    def resting_time(self) -> float:
        return self.resting.measure


def agent_idle_time(trace: Trace, agent_id: str) -> IdleBreakdown:
    """Break down when the agent was not acting during the window."""
    _require_on_roster(trace, agent_id)
    index = _TraceIndex(trace)
    return index.idle_breakdown(agent_id, window(trace) - index.activity(agent_id))


def concurrent_activity(trace: Trace) -> IntervalSet:
    """When both agents of a two-agent trace were acting at once."""
    first, second = _exactly_two(trace)
    index = _TraceIndex(trace)
    return index.activity(first) & index.activity(second)


def concurrent_inactivity(trace: Trace) -> IntervalSet:
    """When both agents of a two-agent trace were idle at once."""
    first, second = _exactly_two(trace)
    index = _TraceIndex(trace)
    span = window(trace)
    return (span - index.activity(first)) & (span - index.activity(second))


@dataclass(frozen=True)
class PetalDelay:
    """Delay between a petal and a dependent petal, at petal granularity.

    ``delay`` is the dependent petal's first action start minus the feeding
    petal's last action end. Positive means the dependent work sat waiting;
    negative means its owner began before the feeding petal had finished
    (anticipation). The delay is attributed to the dependent petal's owner.
    """

    source_petal: str
    target_petal: str
    agent: str
    delay: float


def petal_functional_delay(daisy: Daisy, trace: Trace) -> tuple[PetalDelay, ...]:
    """Petal-level functional delay, one record per cross-agent handoff.

    Records come out in constraint declaration order; petal pairs coupled
    by several handoffs get one entry each, all with the same petal-level
    figures.
    """
    return _petal_delays(_TraceIndex(trace), handoff_constraints(daisy))


def _petal_delays(
    index: _TraceIndex, links: tuple[HandoffLink, ...]
) -> tuple[PetalDelay, ...]:
    out: list[PetalDelay] = []
    for link in links:
        source_end = max(
            index.lookup(link.source_petal.name, a.name)[2]
            for a in link.source_petal.actions
        )
        target_start = min(
            index.lookup(link.target_petal.name, a.name)[1]
            for a in link.target_petal.actions
        )
        out.append(
            PetalDelay(
                source_petal=link.source_petal.name,
                target_petal=link.target_petal.name,
                agent=link.target_petal.owner,
                delay=target_start - source_end,
            )
        )
    return tuple(out)


class HandoffState(str, Enum):
    """Which side of a handoff was late."""

    BLOCKED = "blocked"  # receiver stood ready before the product existed
    STALE = "stale"  # product sat finished before the receiver was ready
    EXACT = "exact"  # both within tolerance of each other


@dataclass(frozen=True)
class HandoffDelays:
    """Delay figures for one handoff, action to action.

    ``product_available`` is when the feeding action ended,
    ``receiver_ready`` is when the receiving agent finished its previous
    action (trace start if the receiving action was its first), and
    ``receipt_start`` is when the receiving action actually began.

    ``readiness_delay`` (available minus ready) is positive when the
    receiver was blocked and negative when the product went stale.
    ``functional_delay`` measures the start lag against whichever side was
    waited on: against availability when blocked or exact (negative values
    mean the receiver anticipated), against readiness when stale (at most a
    rounding error below zero, since an agent cannot start before its own
    previous action ended).
    """

    source_petal: str
    source_action: str
    source_agent: str
    target_petal: str
    target_action: str
    target_agent: str
    product_available: float
    receiver_ready: float
    receipt_start: float
    readiness_delay: float
    functional_delay: float
    state: HandoffState


def handoff_delays(daisy: Daisy, trace: Trace) -> tuple[HandoffDelays, ...]:
    """Compute readiness and functional delay for every handoff in the task.

    The delay definitions lean on handoffs having a zero lower bound (the
    receiver may start the instant the product exists); a handoff-kind
    constraint with any other lower bound raises ``NonHandoffKindError``.
    """
    return _handoff_delays(_TraceIndex(trace), handoff_constraints(daisy))


def _handoff_delays(
    index: _TraceIndex, links: tuple[HandoffLink, ...]
) -> tuple[HandoffDelays, ...]:
    out: list[HandoffDelays] = []
    for link in links:
        if link.constraint.lower != 0.0:
            raise NonHandoffKindError(
                f"handoff {link.source_petal.name}.{link.source_action.name} -> "
                f"{link.target_petal.name}.{link.target_action.name} has lower "
                f"bound {link.constraint.lower}; delay analysis requires 0"
            )
        target_agent = link.target_petal.owner
        available = index.lookup(link.source_petal.name, link.source_action.name)[2]
        start = index.lookup(link.target_petal.name, link.target_action.name)[1]
        ready = index.receiver_ready(
            target_agent, link.target_petal.name, link.target_action.name
        )
        readiness = available - ready
        if readiness > TOLERANCE:
            state = HandoffState.BLOCKED
        elif readiness < -TOLERANCE:
            state = HandoffState.STALE
        else:
            state = HandoffState.EXACT
        functional = start - ready if state is HandoffState.STALE else start - available
        out.append(
            HandoffDelays(
                source_petal=link.source_petal.name,
                source_action=link.source_action.name,
                source_agent=link.source_petal.owner,
                target_petal=link.target_petal.name,
                target_action=link.target_action.name,
                target_agent=target_agent,
                product_available=available,
                receiver_ready=ready,
                receipt_start=start,
                readiness_delay=readiness,
                functional_delay=functional,
                state=state,
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class FluencyReport:
    """Every fluency metric for one two-agent trace, in one place."""

    agents: tuple[str, str]
    window_start: float
    window_end: float
    makespan: float
    idle: tuple[IdleBreakdown, IdleBreakdown]
    concurrent_activity: IntervalSet
    concurrent_inactivity: IntervalSet
    sole_activity: dict[str, IntervalSet]
    petal_delays: tuple[PetalDelay, ...]
    delay_by_agent: dict[str, float]
    handoffs: tuple[HandoffDelays, ...]

    @property
    def concurrent_activity_time(self) -> float:
        return self.concurrent_activity.measure

    @property
    def concurrent_inactivity_time(self) -> float:
        return self.concurrent_inactivity.measure

    def fraction_of_makespan(self, seconds: float) -> float:
        return seconds / self.makespan if self.makespan > 0 else 0.0

    def idle_of(self, agent_id: str) -> IdleBreakdown:
        for breakdown in self.idle:
            if breakdown.agent == agent_id:
                return breakdown
        raise UnknownAgentError(f"agent {agent_id!r} is not in this report")


def fluency_report(daisy: Daisy, trace: Trace) -> FluencyReport:
    """Assemble the full fluency picture for a two-agent trace, indexed once."""
    first, second = _exactly_two(trace)
    index = _TraceIndex(trace)
    span = window(trace)
    active = {a: index.activity(a) for a in (first, second)}
    idle = {a: span - active[a] for a in (first, second)}
    links = handoff_constraints(daisy)
    petal_delays = _petal_delays(index, links)
    delay_by_agent = {first: 0.0, second: 0.0}
    for record in petal_delays:
        delay_by_agent[record.agent] = delay_by_agent.get(record.agent, 0.0) + record.delay
    return FluencyReport(
        agents=(first, second),
        window_start=trace.start_time,
        window_end=trace.end_time,
        makespan=trace.makespan,
        idle=tuple(index.idle_breakdown(a, idle[a]) for a in (first, second)),
        concurrent_activity=active[first] & active[second],
        concurrent_inactivity=idle[first] & idle[second],
        sole_activity={
            first: active[first] & idle[second],
            second: active[second] & idle[first],
        },
        petal_delays=petal_delays,
        delay_by_agent=delay_by_agent,
        handoffs=_handoff_delays(index, links),
    )


def _exactly_two(trace: Trace) -> tuple[str, str]:
    if len(trace.agents) != 2:
        raise AgentCountError(
            f"metric is defined for exactly two agents, trace has "
            f"{len(trace.agents)}: {list(trace.agents)}"
        )
    return trace.agents[0], trace.agents[1]


def _require_on_roster(trace: Trace, agent_id: str) -> None:
    if agent_id not in trace.agents:
        raise UnknownAgentError(
            f"agent {agent_id!r} is not on the trace roster {list(trace.agents)}"
        )


class _TraceIndex:
    """One pass over a trace, read by every metric.

    It maps (petal, action) to (agent, start, end), raising ``CoverageError``
    on a repeat; keeps each agent's action intervals and petal spans; and
    maps each action to when its agent finished the action before it in
    (start, end, petal, action) order, or to the trace start.
    """

    def __init__(self, trace: Trace):
        self._times: dict[tuple[str, str], tuple[str, float, float]] = {}
        extra: list[str] = []
        for event in trace.events:
            key = (event.petal, event.action)
            if key in self._times:
                extra.append(f"{event.petal}.{event.action}")
                continue
            self._times[key] = (event.agent, event.start, event.end)
        if extra:
            raise CoverageError(missing=(), extra=tuple(sorted(extra)))

        self._spans: dict[str, list[tuple[float, float]]] = {}
        self._petal_spans: dict[str, dict[str, tuple[float, float]]] = {}
        mine: dict[str, list[tuple[float, float, tuple[str, str]]]] = {}
        for key, (agent, start, end) in self._times.items():
            self._spans.setdefault(agent, []).append((start, end))
            petals = self._petal_spans.setdefault(agent, {})
            lo, hi = petals.get(key[0], (start, end))
            petals[key[0]] = (min(lo, start), max(hi, end))
            mine.setdefault(agent, []).append((start, end, key))
        self._ready: dict[tuple[str, str], float] = {}
        for entries in mine.values():
            previous_end = trace.start_time
            for _, end, key in sorted(entries):
                self._ready[key] = previous_end
                previous_end = end

    def activity(self, agent_id: str) -> IntervalSet:
        return IntervalSet.from_pairs(self._spans.get(agent_id, ()))

    def idle_breakdown(self, agent_id: str, idle: IntervalSet) -> IdleBreakdown:
        within = IntervalSet.from_pairs(self._petal_spans.get(agent_id, {}).values())
        return IdleBreakdown(agent_id, idle, waiting=idle & within, resting=idle - within)

    def lookup(self, petal: str, action: str) -> tuple[str, float, float]:
        try:
            return self._times[(petal, action)]
        except KeyError:
            raise CoverageError(missing=(f"{petal}.{action}",))

    def receiver_ready(self, agent_id: str, petal: str, action: str) -> float:
        """When ``agent_id`` finished the action before the named one."""
        entry = self._times.get((petal, action))
        if entry is None or entry[0] != agent_id:
            raise CoverageError(missing=(f"{petal}.{action}",))
        return self._ready[(petal, action)]
