"""Exception hierarchy shared by every madtn module."""
from __future__ import annotations


class MadtnError(Exception):
    """Base class for all errors raised by this package."""


# --- temporal network errors -------------------------------------------------

class UnknownTimePointError(MadtnError):
    """A constraint endpoint is not a member of the network."""


class InvertedBoundsError(MadtnError):
    """A constraint's lower bound exceeds its upper bound."""


class InconsistentNetworkError(MadtnError):
    """An operation requiring a consistent network was given an inconsistent one."""


class UnboundedScheduleError(MadtnError):
    """A timepoint has no finite earliest time relative to the anchor."""


class MissingTimePointError(MadtnError):
    """A schedule does not assign a time to a required timepoint."""


# --- daisy model errors ------------------------------------------------------

class NegativeDurationError(MadtnError):
    """An action was declared with a negative minimum duration."""


class EmptyPetalError(MadtnError):
    """A petal must contain at least one action."""


class InvalidDaisyError(MadtnError):
    """Structural validation failed; ``violations`` lists every problem."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid daisy")


class UnassignedPetalError(InvalidDaisyError):
    """A petal without an owner blocks compilation and simulation."""

    def __init__(self, petal_name):
        self.petal_name = petal_name
        super().__init__([f"petal {petal_name!r} has no owner assigned"])


class MalformedOrderingError(MadtnError):
    """A petal ordering does not cover each agent's petals exactly once."""


# --- planner errors ----------------------------------------------------------

class CyclicPrecedenceError(MadtnError):
    """The petal precedence relation contains a cycle; ``cycle`` names it."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cyclic petal precedence: " + " -> ".join(self.cycle))


class NoCapableAgentError(MadtnError):
    """No agent in the capability table can take the named petal."""

    def __init__(self, petal_name):
        self.petal_name = petal_name
        super().__init__(f"no capable agent for petal {petal_name!r}")


# --- simulator errors --------------------------------------------------------

class InconsistentOrderingError(MadtnError):
    """Trace events are not in non-decreasing time order."""


class DeadlockError(MadtnError):
    """Execution stalled on circular waiting; ``cycle`` describes the loop."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("deadlocked waiting cycle: " + " -> ".join(self.cycle))


# --- metrics errors ----------------------------------------------------------

class CoverageError(MadtnError):
    """Trace events do not cover the daisy's actions exactly."""

    def __init__(self, missing=(), extra=()):
        self.missing = sorted(missing)
        self.extra = sorted(extra)
        parts = []
        if self.missing:
            parts.append("missing events for: " + ", ".join(map(str, self.missing)))
        if self.extra:
            parts.append("unexpected events for: " + ", ".join(map(str, self.extra)))
        super().__init__("; ".join(parts) or "trace coverage mismatch")


class UnknownAgentError(MadtnError):
    """The named agent is not part of the trace, or not declared by the task."""


class AgentCountError(MadtnError):
    """Pairwise metrics are defined for exactly two distinct agents."""


class NonHandoffKindError(MadtnError):
    """Handoff delay analysis only accepts handoff constraints with lower bound 0."""


# --- document / CLI errors ---------------------------------------------------

class DocumentError(MadtnError):
    """A document failed schema validation; ``errors`` carry document paths."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors) or "invalid document")
