"""Shared pieces of the document fuzz tests: valid documents and JSON values."""
from __future__ import annotations

import copy
import json

from hypothesis import strategies as st

from madtn import TraceDocument, packaged_example_path, parse_daisy, simulate, trace_document

# Any JSON value, including the non-finite floats and oversized integers
# Python's json module lets through.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def field_paths(node, prefix=()):
    """The path of every value inside a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def replaced(document, path, value):
    out = copy.deepcopy(document)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def valid_documents() -> dict[str, dict]:
    """The packaged task, one of its traces, and a profile document, decoded."""
    task = json.loads(packaged_example_path().read_text())
    trace = simulate(parse_daisy(task).daisy, seed=3)
    profiles = {
        "human": {"duration_mode": "uniform", "reaction_delay": 0.5,
                  "anticipation_probability": 0.5, "anticipation_offset": 1.0},
        "robot": {"duration_mode": "truncated_normal", "mean_fraction": 0.4,
                  "stddev_fraction": 0.2},
    }
    return {
        "task": task,
        "trace": trace_document(TraceDocument(trace=trace, daisy="packaging.daisy.json")),
        "profiles": profiles,
    }
