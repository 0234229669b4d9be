"""Multi-agent daisy temporal networks.

Model collaborative tasks as petals of agent-owned actions around a shared
start and end, compile them to simple temporal networks for consistency
checking and scheduling, simulate execution under per-agent behavior
profiles, and score the resulting traces with team-fluency metrics.

Each module loads on the first use of a name it defines (PEP 562), so a
caller that only reads a task never loads the planner, the fluency metrics
or the command line.
"""
import importlib

# Bound now, not on first use: the function shares its module's name, and the
# import system binds the module under that name whenever a submodule import
# (``files`` importing ``simulate``, say) loads it first.
from .simulate import simulate

__version__ = "0.1.0"

#: Every public name, under the module that defines it.
_PUBLIC = {
    "cli": ("run_cli",),
    "daisy": (
        "GLOBAL_END_TOKEN", "GLOBAL_START_TOKEN", "Action", "Agent", "ConstraintKind", "Daisy",
        "ExternalConstraint", "HandoffLink", "Petal", "build_action", "build_petal",
        "compile_to_stn", "handoff_constraints", "validate_daisy", "validation_warnings",
    ),
    "errors": (
        "AgentCountError", "CoverageError", "CyclicPrecedenceError", "DeadlockError",
        "DocumentError", "EmptyPetalError", "InconsistentNetworkError",
        "InconsistentOrderingError", "InvalidDaisyError", "InvertedBoundsError", "MadtnError",
        "MalformedOrderingError", "MissingTimePointError", "NegativeDurationError",
        "NoCapableAgentError", "NonHandoffKindError", "UnassignedPetalError",
        "UnboundedScheduleError", "UnknownAgentError", "UnknownTimePointError",
    ),
    "files": (
        "DaisySpecDocument", "TraceDocument", "daisy_document", "dump_document", "load_daisy",
        "load_packaged_example", "load_profiles", "load_trace", "packaged_example_path",
        "parse_daisy", "parse_profiles", "parse_trace", "report_document", "save_document",
        "trace_document",
    ),
    "fluency": (
        "FluencyReport", "HandoffDelays", "HandoffState", "IdleBreakdown", "PetalDelay",
        "activity_intervals", "agent_idle_time", "concurrent_activity", "concurrent_inactivity",
        "fluency_report", "handoff_delays", "petal_functional_delay", "window",
    ),
    "intervals": ("IntervalSet",),
    "planner": (
        "CapabilityTable", "PetalPrecedence", "enumerate_orders", "greedy_assign",
        "linear_extensions", "partial_order",
    ),
    "simulate": (
        "BehaviorProfile", "DurationMode", "ExecutionEvent", "Trace", "simulate",
        "validate_trace",
    ),
    "stn": (
        "INF", "STN", "TOLERANCE", "UNASSIGNED", "DistanceGraph", "Schedule",
        "TemporalConstraint", "TimePoint", "check_schedule", "consistent", "earliest_schedule",
        "minimal_network", "solve",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:  # a submodule; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
