"""Team-fluency metrics computed from execution traces.

All metrics are descriptive: they take the trace as it happened, feasible
or not, and measure how the agents' time was spent and how smoothly work
moved across handoffs. Time is carved up with half-open interval sets over
the analysis window, which runs from the trace start to its last event, so
activity, idleness, and their overlaps partition the makespan exactly (a
trace document may hold no event that starts before the trace does).
Metrics that take the task first match the trace to it by the rule of
``validate_trace``, raising ``CoverageError`` for a trace that is not a run
of the task, and then read handoff and petal times by vertex.

Every metric reads one group-by and one sweep. The events are grouped by
agent once, and each agent's are sorted once in (start, end, petal,
action) order, which gives its activity, its petal spans and the readiness
of each of its actions. Then one sweep over the sorted endpoints of those
base sets and the window classifies each elementary segment by the base
sets that cover it; a derived set (idle, waiting, resting, concurrent
activity and inactivity, sole activity) is the run of segments whose class
it holds, so each comes out sorted and merged. A trace that holds both 0.0
and -0.0 is evaluated by the ``_derived`` formulas in the ``IntervalSet``
algebra; every other trace takes the sweep, which gives the same sets.
"""
from __future__ import annotations

import functools
import math
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
from .simulate import Trace, realized_times
from .stn import TOLERANCE, TimePoint


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
    return _Timeline(trace, trace.end_time).sweep((agent_id,))[0]


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
    _, idle, waiting, resting = _Timeline(trace, trace.end_time).sweep((agent_id,))
    return IdleBreakdown(agent_id, idle, waiting, resting)


def concurrent_activity(trace: Trace) -> IntervalSet:
    """When both agents of a two-agent trace were acting at once."""
    return _Timeline(trace, trace.end_time).sweep(_exactly_two(trace))[_CONCURRENT_ACTIVITY]


def concurrent_inactivity(trace: Trace) -> IntervalSet:
    """When both agents of a two-agent trace were idle at once."""
    return _Timeline(trace, trace.end_time).sweep(_exactly_two(trace))[_CONCURRENT_INACTIVITY]


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
    figures. A trace that is not a run of the task raises ``CoverageError``.
    """
    return _petal_delays(realized_times(daisy, trace), handoff_constraints(daisy))


def _petal_delays(
    times: dict[TimePoint, float], links: tuple[HandoffLink, ...]
) -> tuple[PetalDelay, ...]:
    out: list[PetalDelay] = []
    for link in links:
        source_end = max(times[a.end] for a in link.source_petal.actions)
        target_start = min(times[a.start] for a in link.target_petal.actions)
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
    A trace that is not a run of the task raises ``CoverageError``.
    """
    times = realized_times(daisy, trace)
    ready = _Timeline(trace, times[daisy.end]).ready
    return _handoff_delays(times, ready, handoff_constraints(daisy))


def _handoff_delays(
    times: dict[TimePoint, float],
    ready_at: dict[tuple[str, str], float],
    links: tuple[HandoffLink, ...],
) -> tuple[HandoffDelays, ...]:
    out: list[HandoffDelays] = []
    for link in links:
        if link.constraint.lower != 0.0:
            raise NonHandoffKindError(
                f"handoff {link.source_petal.name}.{link.source_action.name} -> "
                f"{link.target_petal.name}.{link.target_action.name} has lower "
                f"bound {link.constraint.lower}; delay analysis requires 0"
            )
        available = times[link.source_action.end]
        start = times[link.target_action.start]
        ready = ready_at[link.target_petal.name, link.target_action.name]
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
                target_agent=link.target_petal.owner,
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
    """Assemble the full fluency picture for a two-agent run of the task.

    The trace is matched to the task, grouped by agent and swept once; one
    that is not a run of the task raises ``CoverageError``.
    """
    first, second = _exactly_two(trace)
    times = realized_times(daisy, trace)
    end = times[daisy.end]  # the trace end, a max over every event, read once
    timeline = _Timeline(trace, end)
    (
        _, idle_first, waiting_first, resting_first,
        _, idle_second, waiting_second, resting_second,
        both_active, both_idle, sole_first, sole_second,
    ) = timeline.sweep((first, second))
    links = handoff_constraints(daisy)
    petal_delays = _petal_delays(times, links)
    delay_by_agent = {first: 0.0, second: 0.0}
    for record in petal_delays:
        delay_by_agent[record.agent] = delay_by_agent.get(record.agent, 0.0) + record.delay
    return FluencyReport(
        agents=(first, second),
        window_start=trace.start_time,
        window_end=end,
        makespan=end - trace.start_time,
        idle=(
            IdleBreakdown(first, idle_first, waiting_first, resting_first),
            IdleBreakdown(second, idle_second, waiting_second, resting_second),
        ),
        concurrent_activity=both_active,
        concurrent_inactivity=both_idle,
        sole_activity={first: sole_first, second: sole_second},
        petal_delays=petal_delays,
        delay_by_agent=delay_by_agent,
        handoffs=_handoff_delays(times, timeline.ready, links),
    )


def _exactly_two(trace: Trace) -> tuple[str, str]:
    if len(trace.agents) != 2 or trace.agents[0] == trace.agents[1]:
        raise AgentCountError(
            f"metric is defined for exactly two distinct agents, trace roster is "
            f"{list(trace.agents)}"
        )
    return trace.agents[0], trace.agents[1]


def _require_on_roster(trace: Trace, agent_id: str) -> None:
    if agent_id not in trace.agents:
        raise UnknownAgentError(
            f"agent {agent_id!r} is not on the trace roster {list(trace.agents)}"
        )


def _derived(meet, minus, window, active, within) -> list:
    """The sets the metrics read, as formulas over the base sets.

    The base sets are the window and each agent's activity and petal spans;
    ``meet`` and ``minus`` are the ``&`` and ``-`` of the algebra the
    formulas are evaluated in. Per agent, in order: activity, idle time, and
    idle time split into waiting and resting; for two agents, then,
    concurrent activity, concurrent inactivity, and each one's sole activity.
    """
    idle = [minus(window, acting) for acting in active]
    out = []
    for acting, idling, petals in zip(active, idle, within):
        out += (acting, idling, meet(idling, petals), minus(idling, petals))
    if len(active) == 2:
        out += (
            meet(active[0], active[1]),
            meet(idle[0], idle[1]),
            meet(active[0], idle[1]),
            meet(active[1], idle[0]),
        )
    return out


#: Where ``_derived`` puts the two concurrency sets for two agents.
_CONCURRENT_ACTIVITY, _CONCURRENT_INACTIVITY = 8, 9


@functools.cache
def _memberships(agents: int) -> tuple[int, tuple[int, ...]]:
    """How many sets ``_derived`` names, and which of them each instant lies in.

    The second item has one entry per set of base sets an instant can lie
    in, and its bit ``k`` says whether the instant lies in derived set
    ``k``. Bit 0 of the index is the window; agent ``i`` has bit ``1 + 2i``
    for its activity and ``2 + 2i`` for its petal spans.
    """
    rows = [
        _derived(
            lambda left, right: left and right,
            lambda left, right: left and not right,
            bool(mask & 1),
            [bool(mask >> (1 + 2 * i) & 1) for i in range(agents)],
            [bool(mask >> (2 + 2 * i) & 1) for i in range(agents)],
        )
        for mask in range(1 << (1 + 2 * agents))
    ]
    return len(rows[0]), tuple(sum(1 << k for k, held in enumerate(row) if held) for row in rows)


def _union(intervals) -> list[float]:
    """The union of intervals sorted by start, as its boundaries: start, end, start, ..."""
    bounds: list[float] = []
    for interval in intervals:
        start, end = interval[0], interval[1]
        if end > start:
            if bounds and start <= bounds[-1]:
                if end > bounds[-1]:
                    bounds[-1] = end
            else:
                bounds += (start, end)
    return bounds


class _Timeline:
    """A trace grouped by agent once, and swept once per question.

    Each agent's events become ``(start, end, petal, action)`` rows, sorted
    once in that order. They give the agent's activity (the union of its
    event intervals), its petal spans (first start to last end of each of
    its petals), and readiness: for each (petal, action), when its agent
    finished the action before it in row order, or the trace start. A
    repeated (petal, action) raises ``CoverageError``.
    """

    def __init__(self, trace: Trace, end: float):
        self.trace = trace
        self.start = trace.start_time
        self.end = end
        rows: dict[str, list[tuple[float, float, str, str]]] = {}
        for event in trace.events:
            row = (event.start, event.end, event.petal, event.action)
            mine = rows.get(event.agent)
            if mine is None:
                rows[event.agent] = [row]
            else:
                mine.append(row)
        self.rows = rows
        self.ready: dict[tuple[str, str], float] = {}
        self.bounds = {agent: self._bounds(mine) for agent, mine in rows.items()}
        if len(self.ready) < len(trace.events):
            seen: set[tuple[str, str]] = set()
            extra = []
            for event in trace.events:
                key = (event.petal, event.action)
                if key in seen:
                    extra.append(f"{event.petal}.{event.action}")
                seen.add(key)
            raise CoverageError(missing=(), extra=tuple(sorted(extra)))

    def _bounds(self, rows: list[tuple[float, float, str, str]]) -> tuple[list, list]:
        """Sort one agent's rows and note readiness; its activity and petal spans."""
        rows.sort()
        ready = self.ready
        previous_end = self.start
        spans: dict[str, list[float]] = {}
        for start, end, petal, action in rows:
            ready[petal, action] = previous_end
            previous_end = end
            span = spans.get(petal)
            if span is None:
                spans[petal] = [start, end]
            elif end > span[1]:
                span[1] = end
        return _union(rows), _union(sorted(spans.values()))

    def sweep(self, agents: tuple[str, ...]) -> list[IntervalSet]:
        """Every set ``_derived`` names for one or two agents, from one sweep.

        The boundaries of the base sets are sorted once. Each elementary
        segment between two of them lies in one combination of base sets,
        which fixes the derived sets it lies in, so a derived set starts or
        ends wherever that membership changes; abutting segments of one
        set thereby merge. When the times read hold both 0.0 and -0.0, the
        sets come from ``_algebra`` instead, which fixes the sign of each zero.
        """
        bases = [[self.start, self.end] if self.end > self.start else []]
        for agent in agents:
            bases += self.bounds.get(agent, ([], []))
        flips: dict[float, int] = {}  # boundary -> the base sets that start or end there
        for bit, bounds in enumerate(bases):
            flag = 1 << bit
            for time in bounds:
                flips[time] = flips.get(time, 0) ^ flag
        if 0.0 in flips and _both_zeros(self, agents):
            return self._algebra(agents)
        count, members = _memberships(len(agents))
        out: list[list[float]] = [[] for _ in range(count)]  # boundaries per derived set
        changes: dict[int, list[int]] = {}  # the derived sets whose bits change
        mask = 0
        for time, flip in sorted(flips.items()):
            after = mask ^ flip
            change = members[mask] ^ members[after]
            if change:
                changed = changes.get(change)
                if changed is None:
                    changed = changes[change] = [k for k in range(count) if change >> k & 1]
                time = float(time)
                for k in changed:
                    out[k].append(time)
            mask = after
        # tuple() of an iterator grows the tuple by resizing it as it goes; built
        # that way, resident memory crept up by about 2 MB over 3 000 reports.
        return [IntervalSet._from_normal(tuple(list(zip(it, it)))) for it in map(iter, out)]

    def _algebra(self, agents: tuple[str, ...]) -> list[IntervalSet]:
        """Every set ``_derived`` names, by its formula in the ``IntervalSet`` algebra.

        The sets are those ``sweep`` builds. Where a trace holds both 0.0 and
        -0.0, the algebra also decides which zero each endpoint is, so each
        agent's activity and petal spans are built from its events in trace
        order, as the formulas are defined on them.
        """
        active, within = [], []
        for agent in agents:
            mine, spans = [], {}
            for event in self.trace.events:
                if event.agent == agent:
                    mine.append((event.start, event.end))
                    lo, hi = spans.get(event.petal, (event.start, event.end))
                    spans[event.petal] = (min(lo, event.start), max(hi, event.end))
            active.append(IntervalSet.from_pairs(mine))
            within.append(IntervalSet.from_pairs(spans.values()))
        span = IntervalSet.single(self.start, self.end)
        return _derived(IntervalSet.__and__, IntervalSet.__sub__, span, active, within)


def _both_zeros(timeline: _Timeline, agents: tuple[str, ...]) -> bool:
    """Whether both 0.0 and -0.0 are among the times a sweep reads."""
    zeros = [timeline.start, timeline.end]
    for agent in agents:
        for start, end, _, _ in timeline.rows.get(agent, ()):
            if start > 0:
                break
            zeros += (start, end)
    return len({math.copysign(1.0, time) for time in zeros if time == 0}) > 1
