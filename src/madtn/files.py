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

import functools
import json
import math
import os
import tempfile
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, fields, replace
from importlib import resources
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Any

from .daisy import (
    Action,
    Agent,
    ConstraintKind,
    Daisy,
    ExternalConstraint,
    Petal,
    validate_daisy,
)
from .errors import DocumentError, MadtnError, UnknownTimePointError
from .simulate import BehaviorProfile, DurationMode, ExecutionEvent, Trace
from .stn import INF, TimePoint, UNASSIGNED

# ``fluency``, ``intervals`` and ``planner`` are imported by the functions that
# use them, so reading a task with no capabilities loads none of the three.


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
    names = Daisy(agents=tuple(agents), petals=tuple(petals))
    constraints = _parse_constraints(data.get("constraints"), names, errors)
    if "makespan" in data:
        bounds = _parse_bounds_pair(data["makespan"], "makespan", errors)
        if bounds is not None:
            constraints.append(
                ExternalConstraint(
                    kind=ConstraintKind.MAKESPAN,
                    source=names.start,
                    target=names.end,
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
    daisy = replace(names, constraints=tuple(constraints))
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


# The trace and report layouts: each record kind's keys, in the order its
# object lists them, and the row of its values. The dict forms and the record
# writers read the same keys and rows.

_EVENT_KEYS = ("agent", "petal", "action", "start", "end")
_event_row = attrgetter(*_EVENT_KEYS)
_TRACE_KEYS = ("daisy", "agents", "seed", "feasible", "start_time", "events", "comments")
_WINDOW_KEYS = ("start", "end", "makespan")
_window_row = attrgetter("window_start", "window_end", "makespan")
_IDLE_KEYS = ("total", "waiting", "resting")
_idle_row = attrgetter("total", "waiting_time", "resting_time")
_DELAY_KEYS = ("source_petal", "target_petal", "agent", "delay")
_delay_row = attrgetter(*_DELAY_KEYS)
_HANDOFF_KEYS = ("source", "source_agent", "target", "target_agent", "product_available",
                 "receiver_ready", "receipt_start", "readiness_delay", "functional_delay", "state")
_ENTRY_KEYS = ("seconds", "fraction", "intervals")
_REPORT_KEYS = ("agents", "window", "idle", "concurrent_activity", "concurrent_inactivity",
                "sole_activity", "petal_delays", "delay_by_agent", "handoffs")


def _handoff_row(h: HandoffDelays) -> tuple[Any, ...]:
    """A handoff's values: each end as ``petal.action``, and the state's value."""
    return (f"{h.source_petal}.{h.source_action}", h.source_agent,
            f"{h.target_petal}.{h.target_action}", h.target_agent, h.product_available,
            h.receiver_ready, h.receipt_start, h.readiness_delay, h.functional_delay, h.state.value)


def _entry_row(report: FluencyReport, spans: IntervalSet) -> tuple[Any, Any, IntervalSet]:
    """An interval entry's values: the measure, its share of the makespan, the spans."""
    seconds = spans.measure
    return seconds, report.fraction_of_makespan(seconds), spans


def _kept(doc: TraceDocument) -> slice:
    """The part of the trace keys a document writes: ``daisy`` and ``comments`` only if given."""
    return slice(doc.daisy is None, len(_TRACE_KEYS) - (doc.comments is None))


def parse_trace(source: str | Mapping[str, Any]) -> TraceDocument:
    """Parse a trace document from JSON text or a decoded mapping."""
    data = _decode(source)
    errors: list[str] = []
    _reject_unknown(data, {*_TRACE_KEYS}, "", errors)

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
            if not isinstance(item, str) or not item:
                errors.append(f"agents[{i}]: expected a non-empty string")
            elif item in agents:
                errors.append(f"agents[{i}]: {item!r} is already on the roster")
            else:
                agents.append(item)

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.append(f"seed: expected an integer, got {seed!r}")
        seed = 0
    feasible = data.get("feasible", True)
    if not isinstance(feasible, bool):
        errors.append(f"feasible: expected true or false, got {feasible!r}")
        feasible = True
    start_time = data.get("start_time", 0.0)
    if _is_number(start_time):
        start_time = float(start_time)
    else:
        errors.append(f"start_time: expected a finite number, got {start_time!r}")
        start_time = -math.inf  # an unknown start holds no event back

    events: list[ExecutionEvent] = []
    raw_events = data.get("events")
    if not isinstance(raw_events, list):
        errors.append("events: expected a list of event objects")
    else:
        previous = -math.inf
        for i, item in enumerate(raw_events):
            # A plain object of exactly the five fields, with names, an agent
            # on the roster, and finite float times in order that start at
            # or after both the previous event and start_time, passes every
            # check below; its path is never spelled.
            if item.__class__ is dict and len(item) == 5:
                agent, petal, action = item.get("agent"), item.get("petal"), item.get("action")
                start, end = item.get("start"), item.get("end")
                if (
                    agent.__class__ is str and agent in agents
                    and petal.__class__ is str and petal
                    and action.__class__ is str and action
                    and start.__class__ is float and end.__class__ is float
                    and previous <= start <= end < INF and start_time <= start
                ):
                    previous = start
                    events.append(ExecutionEvent(agent, petal, action, start, end))
                    continue
            event = _parse_event(item, i, errors)
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
            if event.start < start_time:
                errors.append(
                    f"events[{i}].start: {event.start} is before start_time "
                    f"{start_time}"
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
        start_time=start_time,
    )
    return TraceDocument(trace=trace, daisy=daisy_ref, comments=comments)


def trace_document(doc: TraceDocument) -> dict[str, Any]:
    """The canonical JSON-ready form of a trace document."""
    trace, kept = doc.trace, _kept(doc)
    values = (doc.daisy, list(trace.agents), trace.seed, trace.feasible, trace.start_time,
              [dict(zip(_EVENT_KEYS, _event_row(e))) for e in _in_order(trace.events)],
              doc.comments)
    return dict(zip(_TRACE_KEYS[kept], values[kept]))


def _in_order(events: tuple[ExecutionEvent, ...]) -> list[ExecutionEvent]:
    """Events in the order a trace document lists them."""
    return sorted(events, key=lambda e: (e.start, e.end, e.agent, e.petal, e.action))


def report_document(report: FluencyReport) -> dict[str, Any]:
    """The JSON-ready form of a fluency report, keys in a stable order."""
    return dict(zip(_REPORT_KEYS, (
        list(report.agents),
        dict(zip(_WINDOW_KEYS, _window_row(report))),
        {b.agent: dict(zip(_IDLE_KEYS, _idle_row(b))) for b in report.idle},
        _interval_entry(report, report.concurrent_activity),
        _interval_entry(report, report.concurrent_inactivity),
        {agent: _interval_entry(report, spans) for agent, spans in report.sole_activity.items()},
        [dict(zip(_DELAY_KEYS, _delay_row(d))) for d in report.petal_delays],
        {a: report.delay_by_agent[a] for a in report.agents},
        [dict(zip(_HANDOFF_KEYS, _handoff_row(h))) for h in report.handoffs],
    )))


def _interval_entry(report: FluencyReport, spans: IntervalSet) -> dict[str, Any]:
    seconds, fraction, spans = _entry_row(report, spans)
    return dict(zip(_ENTRY_KEYS, (seconds, fraction, [[s, e] for s, e in spans])))


def dump_document(document: dict[str, Any] | TraceDocument | FluencyReport) -> str:
    """Serialize a document to its canonical JSON text.

    For a dict the text is ``json.dumps(document, indent=2,
    allow_nan=False)`` plus a newline. A non-finite float raises
    ``DocumentError`` naming its path. A document that contains itself
    raises the ``ValueError`` of ``json.dumps`` ("Circular reference
    detected").

    A ``TraceDocument`` or ``FluencyReport`` is written straight from its
    fields, to the bytes of its dict form (``trace_document``,
    ``report_document``), without building that form. The dict form stays
    the reference: the writer lays each field out as a column over the
    record's rows, and a record with a column that holds other than names
    (``str``) or finite, exact ``float`` or ``int`` values (a ``bool`` seed,
    a non-finite time, a name beside a number), or with a ``feasible`` that
    is not a ``bool``, is written through it, so its bytes and complaints
    are the dict form's.
    """
    from .fluency import FluencyReport

    if isinstance(document, TraceDocument):
        if (text := _trace_text(document)) is not None:
            return text
        document = trace_document(document)
    elif isinstance(document, FluencyReport):
        if (text := _report_text(document)) is not None:
            return text
        document = report_document(document)
    try:
        return json.dumps(document, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        try:
            problem = _non_finite(document, "")
        except RecursionError:  # the walk goes round a document that contains itself
            raise exc from None
        if problem is None:
            raise
        raise DocumentError([problem]) from None


def load_daisy(path: str | os.PathLike) -> DaisySpecDocument:
    return parse_daisy(_read(path))


def load_trace(path: str | os.PathLike) -> TraceDocument:
    return parse_trace(_read(path))


def load_profiles(path: str | os.PathLike) -> dict[str, BehaviorProfile]:
    return parse_profiles(_read(path))


def save_document(document: dict[str, Any] | TraceDocument | FluencyReport,
                  path: str | os.PathLike) -> None:
    """Write a document atomically: never leaves a half-written file behind.

    The text is ``dump_document``'s, so a ``TraceDocument`` or
    ``FluencyReport`` is written straight from its fields, to the bytes of
    its dict form, which stays the reference. An error keeps the error
    number of the failure and names the directory that cannot take the
    file or the target it cannot replace, never the temporary file the
    write goes through.
    """
    target = Path(path)
    text = dump_document(document)
    try:
        fd, scratch = tempfile.mkstemp(
            dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
        )
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(target.parent)) from None
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(scratch, target)
    except BaseException as exc:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(target)) from None
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
    numeric = [f.name for f in fields(BehaviorProfile) if f.name != "duration_mode"]
    for agent_id, raw in data.items():
        path = f"{agent_id}"
        if not _is_object(raw):
            errors.append(f"{path}: expected a profile object")
            continue
        _reject_unknown(raw, {"duration_mode", *numeric}, path, errors)
        values: dict[str, Any] = {}
        mode = raw.get("duration_mode")
        if mode is not None:
            if not isinstance(mode, str) or mode not in modes:
                errors.append(
                    f"{path}.duration_mode: expected one of {sorted(modes)}, "
                    f"got {mode!r}"
                )
            else:
                values["duration_mode"] = DurationMode(mode)
        for key in numeric:
            if key in raw:
                if not _is_number(raw[key]):
                    errors.append(f"{path}.{key}: expected a finite number, got {raw[key]!r}")
                else:
                    values[key] = float(raw[key])
        try:
            profiles[agent_id] = BehaviorProfile(**values)
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


# -- writing internals -------------------------------------------------------

def _non_finite(value: Any, path: str) -> str | None:
    """A complaint naming the first non-finite float in ``value``, if any."""
    if isinstance(value, float):
        if math.isfinite(value):
            return None
        return f"{path or 'top level'}: {value!r} is not a finite number"
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(key, float) and not math.isfinite(key):
                return f"{path or 'top level'}: key {key!r} is not a finite number"
            problem = _non_finite(item, f"{path}.{key}" if path else f"{key}")
            if problem is not None:
                return problem
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            problem = _non_finite(item, f"{path}[{i}]")
            if problem is not None:
                return problem
    return None


# The record writers below lay out what ``json.dumps(indent=2)`` writes for
# the dict form, from the same rows, and return None for a record that form
# must write. Every field is checked by type before any formatting, so an
# error of the formatting itself shows instead of sending a record there.


def _finite(numbers: Collection[Any]) -> bool:
    """Whether every item is an exact ``float`` or ``int``, and finite."""
    try:
        return {float, int}.issuperset(map(type, numbers)) and all(map(math.isfinite, numbers))
    except OverflowError:  # an int past the largest float, which json still writes
        return False


def _column(values: Collection[Any]) -> list[str] | None:
    """One field of a run of rows as json writes it, or None if only the dict form can.

    A column of names (``str``) is escaped, and a column of finite, exact
    ``float`` or ``int`` values is written as its ``repr``, as the encoder
    writes it. Any other column, a name beside a number among them, is None.
    """
    if next(iter(values), "").__class__ is str:
        try:
            return list(map(encode_basestring_ascii, values))
        except TypeError:  # a name beside a value that is not a str
            return None
    return list(map(repr, values)) if _finite(values) else None


def _items(rows: list[str], brackets: str, pad: str) -> str:
    """Rendered items between ``brackets``, one a line, the closing one at ``pad``."""
    if not rows:
        return brackets
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(rows) + f"\n{pad}{brackets[1]}"


@functools.cache
def _template(keys: tuple[str, ...], pad: str) -> str:
    """A ``%``-template for an object of ``keys``, its closing brace at ``pad``."""
    return _items([f'"{key}": %s' for key in keys], "{}", pad)


def _objects(rows: Iterable[tuple[Any, ...]], keys: tuple[str, ...], pad: str) -> list[str] | None:
    """Each row written as an object of ``keys`` closing at ``pad``, or None for the dict form."""
    columns = list(map(_column, zip(*rows)))
    return None if None in columns else list(map(_template(keys, pad).__mod__, zip(*columns)))


def _keyed(keys: Collection[Any], texts: list[str | None] | None) -> str | None:
    """A top-level object of ``texts`` keyed by ``keys``, or None for the dict form.

    json writes a key that is not a str as the text of its value, which the
    writer does not, so such a key takes the dict form, as a missing text does.
    """
    if texts is None or None in texts or not {str}.issuperset(map(type, keys)):
        return None
    return _items([f"{k}: {t}" for k, t in zip(_column(keys), texts)], "{}", "  ")


def _trace_text(doc: TraceDocument) -> str | None:
    """``dump_document(trace_document(doc))``, written from the records."""
    trace, kept = doc.trace, _kept(doc)
    # An absent daisy or comment is written as "" here and left out with its key.
    parts = (_column(["" if x is None else x for x in (doc.daisy, doc.comments)]),
             _column(trace.agents), _column((trace.seed, trace.start_time)),
             _objects(map(_event_row, _in_order(trace.events)), _EVENT_KEYS, "    "))
    if None in parts or trace.feasible.__class__ is not bool:
        return None
    (daisy, comments), agents, (seed, start_time), events = parts
    values = (daisy, _items(agents, "[]", "  "), seed, "true" if trace.feasible else "false",
              start_time, _items(events, "[]", "  "), comments)
    return _template(_TRACE_KEYS[kept], "") % values[kept] + "\n"


def _report_text(report: FluencyReport) -> str | None:
    """``dump_document(report_document(report))``, written from the records."""
    # Keyed as the dict form keys them, so an agent named twice merges the same way.
    idle_rows = {b.agent: _idle_row(b) for b in report.idle}
    agent_delays = {a: report.delay_by_agent.get(a) for a in report.agents}
    parts = (
        _column(report.agents),
        _column(_window_row(report)),
        _keyed(idle_rows, _objects(idle_rows.values(), _IDLE_KEYS, "    ")),
        _interval_text(report, report.concurrent_activity, "  "),
        _interval_text(report, report.concurrent_inactivity, "  "),
        _keyed(report.sole_activity, [_interval_text(report, spans, "    ")
                                      for spans in report.sole_activity.values()]),
        _objects(map(_delay_row, report.petal_delays), _DELAY_KEYS, "    "),
        _keyed(agent_delays, _column(agent_delays.values())),
        _objects(map(_handoff_row, report.handoffs), _HANDOFF_KEYS, "    "),
    )
    if None in parts:
        return None
    agents, window, idle, active, inactive, sole, delays, by_agent, handoffs = parts
    values = (_items(agents, "[]", "  "), _template(_WINDOW_KEYS, "  ") % tuple(window), idle,
              active, inactive, sole, _items(delays, "[]", "  "), by_agent,
              _items(handoffs, "[]", "  "))
    return _template(_REPORT_KEYS, "") % values + "\n"


def _interval_text(report: FluencyReport, spans: IntervalSet, pad: str) -> str | None:
    """What ``_interval_entry`` gives, as written with its closing brace at ``pad``."""
    from .intervals import IntervalSet

    if not isinstance(spans, IntervalSet):
        return None
    seconds, fraction, spans = _entry_row(report, spans)
    if not _finite([seconds, fraction, *chain.from_iterable(spans)]):
        return None
    pair = _items(["%s", "%s"], "[]", pad + "    ")
    intervals = _items(list(map(pair.__mod__, spans)), "[]", pad + "  ")
    return _template(_ENTRY_KEYS, pad) % (seconds, fraction, intervals)


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
    if not _is_object(data):
        raise DocumentError(["top level: expected a JSON object"])
    return data


def _is_object(value: Any) -> bool:
    """A JSON object: a dict, or any other mapping handed to a parser."""
    return value.__class__ is dict or isinstance(value, Mapping)


def _reject_unknown(
    data: Mapping[str, Any], allowed: set[str], path: str, errors: list[str]
) -> None:
    if data.keys() <= allowed:
        return
    for key in data:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            errors.append(f"{where}: unknown field")


def _is_number(value: Any) -> bool:
    """A finite JSON number.

    Python's ``json`` accepts ``NaN`` and ``Infinity`` tokens, and integers
    too large for a float, so each is checked here rather than trusted.
    """
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, int):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# The field parsers below take the path of the enclosing value and the
# field's own suffix (".name", "[0]"), and join them only for a complaint.


def _parse_name(value: Any, path: str, field: str, errors: list[str]) -> str | None:
    if not isinstance(value, str) or not value:
        errors.append(f"{path}{field}: expected a non-empty string, got {value!r}")
        return None
    return value


def _parse_bound(
    value: Any, path: str, field: str, errors: list[str], side: str
) -> float | None:
    """A bound value: a finite number, or null for the one-sided infinity."""
    if value is None:
        return -INF if side == "lower" else INF
    if not _is_number(value):
        errors.append(
            f"{path}{field}: expected a finite number or null, got {value!r}"
        )
        return None
    return float(value)


def _parse_bounds_pair(
    value: Any, path: str, errors: list[str]
) -> tuple[float, float] | None:
    if not isinstance(value, list) or len(value) != 2:
        errors.append(f"{path}: expected a [lower, upper] pair")
        return None
    lower = _parse_bound(value[0], path, "[0]", errors, "lower")
    upper = _parse_bound(value[1], path, "[1]", errors, "upper")
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
        if not _is_object(item):
            errors.append(f"{path}: expected an object")
            continue
        _reject_unknown(item, {"id", "name"}, path, errors)
        agent_id = _parse_name(item.get("id"), path, ".id", errors)
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
        if not _is_object(item):
            errors.append(f"{path}: expected an object")
            continue
        _reject_unknown(item, {"name", "owner", "tags", "actions"}, path, errors)
        name = _parse_name(item.get("name"), path, ".name", errors)
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
        # A plain object of exactly these three fields, with a name and
        # finite float bounds in order, passes every check below.
        if item.__class__ is dict and len(item) == 3:
            name, lower, upper = item.get("name"), item.get("lower"), item.get("upper")
            if (
                name.__class__ is str and name
                and lower.__class__ is float and upper.__class__ is float
                and 0.0 <= lower <= upper < INF
            ):
                actions.append(Action(name, lower, upper))
                continue
        where = f"{path}.actions[{j}]"
        if not _is_object(item):
            errors.append(f"{where}: expected an object")
            continue
        _reject_unknown(item, {"name", "lower", "upper"}, where, errors)
        name = _parse_name(item.get("name"), where, ".name", errors)
        if "lower" not in item:
            errors.append(f"{where}.lower: required")
            continue
        lower = _parse_bound(item["lower"], where, ".lower", errors, "lower")
        upper = _parse_bound(item.get("upper"), where, ".upper", errors, "upper")
        if name is None or lower is None or upper is None:
            continue
        try:
            actions.append(Action(name=name, lower=lower, upper=upper))
        except MadtnError as exc:
            errors.append(f"{where}: {exc}")
    return actions


#: Constraint kinds by the value a document spells.
_KINDS = {kind.value: kind for kind in ConstraintKind}


def _parse_constraints(
    raw: Any, names: Daisy, errors: list[str]
) -> list[ExternalConstraint]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        errors.append("constraints: expected a list of constraint objects")
        return []
    out: list[ExternalConstraint] = []
    for i, item in enumerate(raw):
        # A plain object of exactly the five fields, with a known kind,
        # endpoints that resolve, a finite float lower bound and a finite
        # float or null upper one, passes every check below.
        if item.__class__ is dict and len(item) == 5:
            kind, source, target = item.get("kind"), item.get("source"), item.get("target")
            lower, upper = item.get("lower"), item.get("upper")
            if (
                kind.__class__ is str and kind in _KINDS
                and source.__class__ is str and target.__class__ is str
                and lower.__class__ is float and -INF < lower < INF
                and (
                    upper.__class__ is float and -INF < upper < INF
                    or upper is None and "upper" in item
                )
            ):
                try:
                    source, target = names.vertex(source), names.vertex(target)
                except UnknownTimePointError:
                    pass
                else:
                    out.append(ExternalConstraint(
                        _KINDS[kind], source, target, lower, INF if upper is None else upper
                    ))
                    continue
        path = f"constraints[{i}]"
        if not _is_object(item):
            errors.append(f"{path}: expected an object")
            continue
        _reject_unknown(item, {"kind", "source", "target", "lower", "upper"}, path, errors)
        kind = item.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            errors.append(
                f"{path}.kind: expected one of {sorted(_KINDS)}, got {kind!r}"
            )
            continue
        source = _resolve_vertex(item.get("source"), names, path, ".source", errors)
        target = _resolve_vertex(item.get("target"), names, path, ".target", errors)
        lower = _parse_bound(item.get("lower", 0.0), path, ".lower", errors, "lower")
        upper = _parse_bound(item.get("upper"), path, ".upper", errors, "upper")
        if None in (source, target, lower, upper):
            continue
        out.append(
            ExternalConstraint(
                kind=_KINDS[kind], source=source, target=target,
                lower=lower, upper=upper,
            )
        )
    return out


def _resolve_vertex(
    value: Any, names: Daisy, path: str, field: str, errors: list[str]
) -> TimePoint | None:
    if not isinstance(value, str) or not value:
        errors.append(f"{path}{field}: expected a vertex path string")
        return None
    try:
        return names.vertex(value)
    except UnknownTimePointError as exc:
        errors.append(f"{path}{field}: {exc}")
        return None


def _parse_event(item: Any, index: int, errors: list[str]) -> ExecutionEvent | None:
    path = f"events[{index}]"
    if not _is_object(item):
        errors.append(f"{path}: expected an event object")
        return None
    _reject_unknown(item, {*_EVENT_KEYS}, path, errors)
    agent = _parse_name(item.get("agent"), path, ".agent", errors)
    petal = _parse_name(item.get("petal"), path, ".petal", errors)
    action = _parse_name(item.get("action"), path, ".action", errors)
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
    if not _is_object(raw):
        errors.append("capabilities: expected an object keyed by agent id")
        return None
    from .planner import CapabilityTable

    table = CapabilityTable()
    for agent_id, row in raw.items():
        path = f"capabilities.{agent_id}"
        if agent_id not in agent_ids:
            errors.append(f"{path}: {agent_id!r} is not a declared agent")
            continue
        if not _is_object(row):
            errors.append(f"{path}: expected an object keyed by petal name")
            continue
        for petal_name, score in row.items():
            if petal_name not in petal_names:
                errors.append(f"{path}.{petal_name}: {petal_name!r} is not a declared petal")
                continue
            if not _is_number(score):
                errors.append(f"{path}.{petal_name}: expected a finite number, got {score!r}")
                continue
            if score < 0:
                errors.append(f"{path}.{petal_name}: scores may not be negative, got {score!r}")
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
