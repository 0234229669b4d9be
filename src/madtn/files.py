"""Reading and writing task, trace, and report documents.

All three formats are JSON. Unknown fields are rejected rather than
ignored, and every complaint carries the path of the offending value
(``petals[2].actions[0].lower``), so a typo in a hand-written document
points at itself. ``null`` stands for an infinite bound: minus infinity in
a ``lower`` position, plus infinity in an ``upper`` position.

Task documents list agents, petals, and cross-petal constraints. Constraint
endpoints are vertex paths: ``"petal.action.start"``, ``"petal.action.end"``,
or the literal tokens ``"Vs"`` and ``"Ve"`` for the global start and end
vertices. A top-level ``"makespan": [lower, upper]`` entry is shorthand for
a makespan-kind constraint between the global vertices. Optional
``"capabilities"``, ``"ordering"``, and ``"comments"`` entries ride along
for planning.

Serialization is canonical: parsing a document and writing it back yields a
stable form (shorthand desugared, defaults filled in), and writing that
form again reproduces it byte for byte. Floats are emitted at full
precision, so trace times survive a round trip exactly.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .daisy import (
    GLOBAL_END_TOKEN,
    GLOBAL_START_TOKEN,
    Action,
    Agent,
    ConstraintKind,
    Daisy,
    ExternalConstraint,
    Petal,
    validate_daisy,
)
from .errors import DocumentError, MadtnError, UnknownTimePointError
from .fluency import FluencyReport
from .intervals import IntervalSet
from .planner import CapabilityTable
from .simulate import BehaviorProfile, DurationMode, ExecutionEvent, Trace
from .stn import INF, TimePoint, UNASSIGNED


@dataclass(frozen=True)
class DaisySpecDocument:
    """A parsed task document: the model plus its planning extras."""

    daisy: Daisy
    capabilities: CapabilityTable | None = None
    ordering: tuple[str, ...] | None = None
    comments: str | None = None


@dataclass(frozen=True)
class TraceDocument:
    """A parsed trace document.

    ``daisy`` optionally names the task document the trace came from,
    typically its file name; the reference is informational and never
    resolved during parsing.
    """

    trace: Trace
    daisy: str | None = None
    comments: str | None = None


def parse_daisy(source: str | Mapping[str, Any]) -> DaisySpecDocument:
    """Parse a task document from JSON text or an already-decoded mapping.

    Raises ``DocumentError`` carrying every problem found, each prefixed
    with the path of the offending value. Model-level violations (bad
    ownership, a backwards handoff, and so on) are reported too, under a
    ``model:`` prefix, so a document that parses is also a sound model.
    """
    data = _decode(source)
    errors: list[str] = []
    _reject_unknown(
        data,
        {"agents", "petals", "constraints", "makespan", "capabilities",
         "ordering", "comments"},
        "",
        errors,
    )

    agents = _parse_agents(data.get("agents"), errors)
    petals = _parse_petals(data.get("petals"), errors)
    start = TimePoint(label="task.start")
    end = TimePoint(label="task.end")
    constraints = _parse_constraints(
        data.get("constraints"), petals, start, end, errors
    )
    if "makespan" in data:
        bounds = _parse_bounds_pair(data["makespan"], "makespan", errors)
        if bounds is not None:
            constraints.append(
                ExternalConstraint(
                    kind=ConstraintKind.MAKESPAN,
                    source=start,
                    target=end,
                    lower=bounds[0],
                    upper=bounds[1],
                )
            )

    petal_names = {p.name for p in petals}
    agent_ids = {a.id for a in agents}
    capabilities = _parse_capabilities(
        data.get("capabilities"), agent_ids, petal_names, errors
    )
    ordering = _parse_ordering(data.get("ordering"), petal_names, errors)
    comments = _parse_comments(data.get("comments"), errors)

    if errors:
        raise DocumentError(errors)
    daisy = Daisy(
        agents=tuple(agents),
        petals=tuple(petals),
        constraints=tuple(constraints),
        start=start,
        end=end,
    )
    violations = [f"model: {v}" for v in validate_daisy(daisy)]
    if violations:
        raise DocumentError(violations)
    return DaisySpecDocument(
        daisy=daisy, capabilities=capabilities, ordering=ordering, comments=comments
    )


def daisy_document(doc: DaisySpecDocument) -> dict[str, Any]:
    """The canonical JSON-ready form of a task document."""
    daisy = doc.daisy
    try:
        constraints = [
            {
                "kind": c.kind.value,
                "source": daisy.vertex_path(c.source),
                "target": daisy.vertex_path(c.target),
                "lower": _bound_out(c.lower),
                "upper": _bound_out(c.upper),
            }
            for c in daisy.constraints
        ]
    except UnknownTimePointError as exc:
        raise DocumentError([f"constraint endpoint: {exc}"]) from None
    out: dict[str, Any] = {
        "agents": [{"id": a.id, "name": a.name} for a in daisy.agents],
        "petals": [
            {
                "name": p.name,
                "owner": None if p.owner == UNASSIGNED else p.owner,
                "tags": sorted(p.tags),
                "actions": [
                    {
                        "name": a.name,
                        "lower": a.lower,
                        "upper": _bound_out(a.upper),
                    }
                    for a in p.actions
                ],
            }
            for p in daisy.petals
        ],
        "constraints": constraints,
    }
    if doc.capabilities is not None:
        out["capabilities"] = {
            agent: dict(sorted(row.items()))
            for agent, row in sorted(doc.capabilities.scores.items())
        }
    if doc.ordering is not None:
        out["ordering"] = list(doc.ordering)
    if doc.comments is not None:
        out["comments"] = doc.comments
    return out


def parse_trace(source: str | Mapping[str, Any]) -> TraceDocument:
    """Parse a trace document from JSON text or a decoded mapping."""
    data = _decode(source)
    errors: list[str] = []
    _reject_unknown(
        data,
        {"daisy", "agents", "seed", "feasible", "start_time", "events", "comments"},
        "",
        errors,
    )

    daisy_ref = data.get("daisy")
    if daisy_ref is not None and (not isinstance(daisy_ref, str) or not daisy_ref):
        errors.append(f"daisy: expected a non-empty string, got {daisy_ref!r}")
        daisy_ref = None

    agents: list[str] = []
    raw_agents = data.get("agents")
    if not isinstance(raw_agents, list) or not raw_agents:
        errors.append("agents: expected a non-empty list of agent ids")
    else:
        for i, item in enumerate(raw_agents):
            if isinstance(item, str) and item:
                agents.append(item)
            else:
                errors.append(f"agents[{i}]: expected a non-empty string")

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.append(f"seed: expected an integer, got {seed!r}")
        seed = 0
    feasible = data.get("feasible", True)
    if not isinstance(feasible, bool):
        errors.append(f"feasible: expected true or false, got {feasible!r}")
        feasible = True
    start_time = data.get("start_time", 0.0)
    if not _is_number(start_time):
        errors.append(f"start_time: expected a finite number, got {start_time!r}")
        start_time = 0.0

    events: list[ExecutionEvent] = []
    raw_events = data.get("events")
    if not isinstance(raw_events, list):
        errors.append("events: expected a list of event objects")
    else:
        previous = -math.inf
        for i, item in enumerate(raw_events):
            event = _parse_event(item, f"events[{i}]", errors)
            if event is None:
                continue
            if agents and event.agent not in agents:
                errors.append(
                    f"events[{i}].agent: {event.agent!r} is not on the roster"
                )
            if event.start < previous:
                errors.append(
                    f"events[{i}]: start {event.start} goes backwards; events "
                    "must be in non-decreasing start order"
                )
            previous = event.start
            events.append(event)

    comments = _parse_comments(data.get("comments"), errors)
    if errors:
        raise DocumentError(errors)
    trace = Trace(
        events=tuple(events),
        agents=tuple(agents),
        seed=seed,
        feasible=feasible,
        start_time=float(start_time),
    )
    return TraceDocument(trace=trace, daisy=daisy_ref, comments=comments)


def trace_document(doc: TraceDocument) -> dict[str, Any]:
    """The canonical JSON-ready form of a trace document."""
    trace = doc.trace
    out: dict[str, Any] = {}
    if doc.daisy is not None:
        out["daisy"] = doc.daisy
    out["agents"] = list(trace.agents)
    out["seed"] = trace.seed
    out["feasible"] = trace.feasible
    out["start_time"] = trace.start_time
    out["events"] = [
        {
            "agent": e.agent,
            "petal": e.petal,
            "action": e.action,
            "start": e.start,
            "end": e.end,
        }
        for e in sorted(
            trace.events, key=lambda e: (e.start, e.end, e.agent, e.petal, e.action)
        )
    ]
    if doc.comments is not None:
        out["comments"] = doc.comments
    return out


def report_document(report: FluencyReport) -> dict[str, Any]:
    """The JSON-ready form of a fluency report, keys in a stable order."""
    return {
        "agents": list(report.agents),
        "window": {
            "start": report.window_start,
            "end": report.window_end,
            "makespan": report.makespan,
        },
        "idle": {
            b.agent: {
                "total": b.total,
                "waiting": b.waiting_time,
                "resting": b.resting_time,
            }
            for b in report.idle
        },
        "concurrent_activity": _interval_entry(report, report.concurrent_activity),
        "concurrent_inactivity": _interval_entry(report, report.concurrent_inactivity),
        "sole_activity": {
            agent: _interval_entry(report, spans)
            for agent, spans in report.sole_activity.items()
        },
        "petal_delays": [
            {
                "source_petal": d.source_petal,
                "target_petal": d.target_petal,
                "agent": d.agent,
                "delay": d.delay,
            }
            for d in report.petal_delays
        ],
        "delay_by_agent": {a: report.delay_by_agent[a] for a in report.agents},
        "handoffs": [
            {
                "source": f"{h.source_petal}.{h.source_action}",
                "source_agent": h.source_agent,
                "target": f"{h.target_petal}.{h.target_action}",
                "target_agent": h.target_agent,
                "product_available": h.product_available,
                "receiver_ready": h.receiver_ready,
                "receipt_start": h.receipt_start,
                "readiness_delay": h.readiness_delay,
                "functional_delay": h.functional_delay,
                "state": h.state.value,
            }
            for h in report.handoffs
        ],
    }


def _interval_entry(report: FluencyReport, spans: IntervalSet) -> dict[str, Any]:
    return {
        "seconds": spans.measure,
        "fraction": report.fraction_of_makespan(spans.measure),
        "intervals": [[s, e] for s, e in spans],
    }


def dump_document(document: dict[str, Any]) -> str:
    """Serialize a document dict to its canonical JSON text."""
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def load_daisy(path: str | os.PathLike) -> DaisySpecDocument:
    return parse_daisy(_read(path))


def load_trace(path: str | os.PathLike) -> TraceDocument:
    return parse_trace(_read(path))


def load_profiles(path: str | os.PathLike) -> dict[str, BehaviorProfile]:
    return parse_profiles(_read(path))


def save_document(document: dict[str, Any], path: str | os.PathLike) -> None:
    """Write a document atomically: never leaves a half-written file behind."""
    target = Path(path)
    fd, scratch = tempfile.mkstemp(
        dir=target.parent or Path("."), prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(dump_document(document))
        os.replace(scratch, target)
    except BaseException:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise


def parse_profiles(source: str | Mapping[str, Any]) -> dict[str, BehaviorProfile]:
    """Parse a behavior-profile document: agent ids mapped to profile objects.

    Profile fields mirror ``BehaviorProfile`` and all are optional; unknown
    fields and out-of-range values are rejected with their paths.
    """
    data = _decode(source)
    errors: list[str] = []
    profiles: dict[str, BehaviorProfile] = {}
    modes = {m.value for m in DurationMode}
    for agent_id, raw in data.items():
        path = f"{agent_id}"
        if not isinstance(raw, Mapping):
            errors.append(f"{path}: expected a profile object")
            continue
        _reject_unknown(
            raw,
            {"duration_mode", "reaction_delay", "anticipation_probability",
             "anticipation_offset", "mean_fraction", "stddev_fraction"},
            path,
            errors,
        )
        fields: dict[str, Any] = {}
        mode = raw.get("duration_mode")
        if mode is not None:
            if not isinstance(mode, str) or mode not in modes:
                errors.append(
                    f"{path}.duration_mode: expected one of {sorted(modes)}, "
                    f"got {mode!r}"
                )
            else:
                fields["duration_mode"] = DurationMode(mode)
        for key in ("reaction_delay", "anticipation_probability",
                    "anticipation_offset", "mean_fraction", "stddev_fraction"):
            if key in raw:
                if not _is_number(raw[key]):
                    errors.append(f"{path}.{key}: expected a finite number, got {raw[key]!r}")
                else:
                    fields[key] = float(raw[key])
        try:
            profiles[agent_id] = BehaviorProfile(**fields)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
    if errors:
        raise DocumentError(errors)
    return profiles


def packaged_example_path() -> Path:
    """Filesystem path of the packaging task document shipped in the package."""
    return Path(resources.files("madtn").joinpath("data/packaging.daisy.json"))


def load_packaged_example() -> DaisySpecDocument:
    """The two-agent box-packing task used throughout the documentation."""
    return load_daisy(packaged_example_path())


# -- parsing internals -------------------------------------------------------


def _read(path: str | os.PathLike) -> str:
    """A document's text; every document is UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(
            [f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"]
        ) from None


def _decode(source: str | Mapping[str, Any]) -> Mapping[str, Any]:
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise DocumentError([f"not valid JSON: {exc}"]) from None
        except RecursionError:
            raise DocumentError(["not valid JSON: nested too deeply"]) from None
    else:
        data = source
    if not isinstance(data, Mapping):
        raise DocumentError(["top level: expected a JSON object"])
    return data


def _reject_unknown(
    data: Mapping[str, Any], allowed: set[str], path: str, errors: list[str]
) -> None:
    for key in data:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            errors.append(f"{where}: unknown field")


def _is_number(value: Any) -> bool:
    """A finite JSON number.

    Python's ``json`` accepts ``NaN`` and ``Infinity`` tokens, and integers
    too large for a float, so each is checked here rather than trusted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _parse_name(value: Any, path: str, errors: list[str]) -> str | None:
    if not isinstance(value, str) or not value:
        errors.append(f"{path}: expected a non-empty string, got {value!r}")
        return None
    return value


def _parse_bound(
    value: Any, path: str, errors: list[str], side: str
) -> float | None:
    """A bound value: a finite number, or null for the one-sided infinity."""
    if value is None:
        return -INF if side == "lower" else INF
    if not _is_number(value):
        errors.append(f"{path}: expected a finite number or null, got {value!r}")
        return None
    return float(value)


def _parse_bounds_pair(
    value: Any, path: str, errors: list[str]
) -> tuple[float, float] | None:
    if not isinstance(value, list) or len(value) != 2:
        errors.append(f"{path}: expected a [lower, upper] pair")
        return None
    lower = _parse_bound(value[0], f"{path}[0]", errors, "lower")
    upper = _parse_bound(value[1], f"{path}[1]", errors, "upper")
    if lower is None or upper is None:
        return None
    return lower, upper


def _parse_comments(value: Any, errors: list[str]) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str):
        errors.append(f"comments: expected a string, got {value!r}")
        return None
    return value


def _parse_agents(raw: Any, errors: list[str]) -> list[Agent]:
    if not isinstance(raw, list) or not raw:
        errors.append("agents: expected a non-empty list of agent objects")
        return []
    agents: list[Agent] = []
    for i, item in enumerate(raw):
        path = f"agents[{i}]"
        if not isinstance(item, Mapping):
            errors.append(f"{path}: expected an object")
            continue
        _reject_unknown(item, {"id", "name"}, path, errors)
        agent_id = _parse_name(item.get("id"), f"{path}.id", errors)
        if agent_id is None:
            continue
        name = item.get("name", "")
        if not isinstance(name, str):
            errors.append(f"{path}.name: expected a string, got {name!r}")
            name = ""
        agents.append(Agent(id=agent_id, name=name))
    return agents


def _parse_petals(raw: Any, errors: list[str]) -> list[Petal]:
    if not isinstance(raw, list) or not raw:
        errors.append("petals: expected a non-empty list of petal objects")
        return []
    petals: list[Petal] = []
    for i, item in enumerate(raw):
        path = f"petals[{i}]"
        if not isinstance(item, Mapping):
            errors.append(f"{path}: expected an object")
            continue
        _reject_unknown(item, {"name", "owner", "tags", "actions"}, path, errors)
        name = _parse_name(item.get("name"), f"{path}.name", errors)
        owner = item.get("owner")
        if owner is None:
            owner = UNASSIGNED
        elif not isinstance(owner, str) or not owner:
            errors.append(f"{path}.owner: expected a non-empty string or null")
            owner = UNASSIGNED
        tags = _parse_tags(item.get("tags"), path, errors)
        actions = _parse_actions(item.get("actions"), path, errors)
        if name is None or actions is None:
            continue
        try:
            petals.append(
                Petal(name=name, actions=tuple(actions), owner=owner, tags=tags)
            )
        except MadtnError as exc:
            errors.append(f"{path}: {exc}")
    return petals


def _parse_tags(raw: Any, path: str, errors: list[str]) -> frozenset[str]:
    """Free-form resource labels on a petal; absent means none."""
    if raw is None:
        return frozenset()
    if not isinstance(raw, list):
        errors.append(f"{path}.tags: expected a list of strings")
        return frozenset()
    tags: set[str] = set()
    for i, item in enumerate(raw):
        if not isinstance(item, str) or not item:
            errors.append(f"{path}.tags[{i}]: expected a non-empty string")
            continue
        tags.add(item)
    return frozenset(tags)


def _parse_actions(raw: Any, path: str, errors: list[str]) -> list[Action] | None:
    if not isinstance(raw, list):
        errors.append(f"{path}.actions: expected a list of action objects")
        return None
    actions: list[Action] = []
    for j, item in enumerate(raw):
        where = f"{path}.actions[{j}]"
        if not isinstance(item, Mapping):
            errors.append(f"{where}: expected an object")
            continue
        _reject_unknown(item, {"name", "lower", "upper"}, where, errors)
        name = _parse_name(item.get("name"), f"{where}.name", errors)
        if "lower" not in item:
            errors.append(f"{where}.lower: required")
            continue
        lower = _parse_bound(item["lower"], f"{where}.lower", errors, "lower")
        upper = _parse_bound(item.get("upper"), f"{where}.upper", errors, "upper")
        if name is None or lower is None or upper is None:
            continue
        try:
            actions.append(Action(name=name, lower=lower, upper=upper))
        except MadtnError as exc:
            errors.append(f"{where}: {exc}")
    return actions


def _parse_constraints(
    raw: Any,
    petals: list[Petal],
    start: TimePoint,
    end: TimePoint,
    errors: list[str],
) -> list[ExternalConstraint]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        errors.append("constraints: expected a list of constraint objects")
        return []
    kinds = {k.value for k in ConstraintKind}
    out: list[ExternalConstraint] = []
    for i, item in enumerate(raw):
        path = f"constraints[{i}]"
        if not isinstance(item, Mapping):
            errors.append(f"{path}: expected an object")
            continue
        _reject_unknown(item, {"kind", "source", "target", "lower", "upper"}, path, errors)
        kind = item.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            errors.append(
                f"{path}.kind: expected one of {sorted(kinds)}, got {kind!r}"
            )
            continue
        source = _resolve_vertex(item.get("source"), petals, start, end,
                                 f"{path}.source", errors)
        target = _resolve_vertex(item.get("target"), petals, start, end,
                                 f"{path}.target", errors)
        lower = _parse_bound(item.get("lower", 0.0), f"{path}.lower", errors, "lower")
        upper = _parse_bound(item.get("upper"), f"{path}.upper", errors, "upper")
        if None in (source, target, lower, upper):
            continue
        out.append(
            ExternalConstraint(
                kind=ConstraintKind(kind), source=source, target=target,
                lower=lower, upper=upper,
            )
        )
    return out


def _resolve_vertex(
    value: Any,
    petals: list[Petal],
    start: TimePoint,
    end: TimePoint,
    path: str,
    errors: list[str],
) -> TimePoint | None:
    if not isinstance(value, str) or not value:
        errors.append(f"{path}: expected a vertex path string")
        return None
    if value == GLOBAL_START_TOKEN:
        return start
    if value == GLOBAL_END_TOKEN:
        return end
    parts = value.split(".")
    if len(parts) != 3 or parts[2] not in ("start", "end"):
        errors.append(
            f"{path}: expected 'petal.action.start', 'petal.action.end', "
            f"'{GLOBAL_START_TOKEN}', or '{GLOBAL_END_TOKEN}', got {value!r}"
        )
        return None
    petal_name, action_name, side = parts
    for petal in petals:
        if petal.name != petal_name:
            continue
        for action in petal.actions:
            if action.name == action_name:
                return action.start if side == "start" else action.end
        errors.append(f"{path}: petal {petal_name!r} has no action {action_name!r}")
        return None
    errors.append(f"{path}: no petal named {petal_name!r}")
    return None


def _parse_event(item: Any, path: str, errors: list[str]) -> ExecutionEvent | None:
    if not isinstance(item, Mapping):
        errors.append(f"{path}: expected an event object")
        return None
    _reject_unknown(item, {"agent", "petal", "action", "start", "end"}, path, errors)
    agent = _parse_name(item.get("agent"), f"{path}.agent", errors)
    petal = _parse_name(item.get("petal"), f"{path}.petal", errors)
    action = _parse_name(item.get("action"), f"{path}.action", errors)
    start = item.get("start")
    if not _is_number(start):
        errors.append(f"{path}.start: expected a finite number, got {start!r}")
        start = None
    end = item.get("end")
    if not _is_number(end):
        errors.append(f"{path}.end: expected a finite number, got {end!r}")
        end = None
    if None in (agent, petal, action, start, end):
        return None
    try:
        return ExecutionEvent(
            agent=agent, petal=petal, action=action,
            start=float(start), end=float(end),
        )
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _parse_capabilities(
    raw: Any, agent_ids: set[str], petal_names: set[str], errors: list[str]
) -> CapabilityTable | None:
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        errors.append("capabilities: expected an object keyed by agent id")
        return None
    table = CapabilityTable()
    for agent_id, row in raw.items():
        path = f"capabilities.{agent_id}"
        if agent_id not in agent_ids:
            errors.append(f"{path}: {agent_id!r} is not a declared agent")
            continue
        if not isinstance(row, Mapping):
            errors.append(f"{path}: expected an object keyed by petal name")
            continue
        for petal_name, score in row.items():
            where = f"{path}.{petal_name}"
            if petal_name not in petal_names:
                errors.append(f"{where}: {petal_name!r} is not a declared petal")
                continue
            if not _is_number(score):
                errors.append(f"{where}: expected a finite number, got {score!r}")
                continue
            if score < 0:
                errors.append(f"{where}: scores may not be negative, got {score!r}")
                continue
            table.rate(agent_id, petal_name, float(score))
    return table


def _parse_ordering(
    raw: Any, petal_names: set[str], errors: list[str]
) -> tuple[str, ...] | None:
    if raw is None:
        return None
    if not isinstance(raw, list):
        errors.append("ordering: expected a list of petal names")
        return None
    names: list[str] = []
    for i, item in enumerate(raw):
        if not isinstance(item, str) or item not in petal_names:
            errors.append(f"ordering[{i}]: {item!r} is not a declared petal")
            continue
        names.append(item)
    return tuple(names)


def _bound_out(value: float) -> float | None:
    return None if math.isinf(value) else value
