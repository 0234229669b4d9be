"""Seeded task and profile documents, and the four benchmark workloads.

Documents are plain JSON-ready dicts built without importing ``madtn``, so
the reference checker can read the same dicts the CLI parses. The same seed
always gives byte-identical documents.

Two synthetic families:

* ``chain_task``: petals with alternating owners, each handing off to the
  next, so the petal precedence is a total order and exactly one petal
  order exists.
* ``lanes_task``: two lanes of petals (one per agent), with lane position
  ``k`` of both lanes coupled by one cross-lane handoff: robot to human in
  the first half of the lanes, human to robot in the second. An optional
  makespan bound is a multiple of the declared order's earliest makespan,
  computed here by a longest-path pass over the lower bounds.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

AGENTS = [{"id": "human", "name": "Human worker"}, {"id": "robot", "name": "Robot arm"}]


#: Range of an action's lower bound and of its bound width, in seconds.
WIDE = ((0.5, 2.0), (0.5, 3.0))
#: Near-uniform actions: which petal orders a makespan bound admits then
#: depends on the task's shape, not on the seed.
NARROW = ((0.95, 1.05), (0.5, 1.5))


def _actions(rng: random.Random, count: int, ranges=WIDE) -> list[dict]:
    (low, high), (narrow, wide) = ranges
    out = []
    for j in range(count):
        lower = round(rng.uniform(low, high), 3)
        upper = round(lower + rng.uniform(narrow, wide), 3)
        out.append({"name": f"a{j:02d}", "lower": lower, "upper": upper})
    return out


def _handoff(source: dict, target: dict) -> dict:
    return {
        "kind": "handoff",
        "source": f"{source['name']}.{source['actions'][-1]['name']}.end",
        "target": f"{target['name']}.{target['actions'][0]['name']}.start",
        "lower": 0.0,
        "upper": None,
    }


def chain_task(seed: int, petals: int, actions: int) -> dict:
    """A handoff chain: petal ``i`` feeds petal ``i + 1``, owners alternate."""
    rng = random.Random(f"chain/{seed}/{petals}x{actions}")
    owners = ("human", "robot")
    petal_docs = [
        {"name": f"P{i:03d}", "owner": owners[i % 2], "tags": [],
         "actions": _actions(rng, actions)}
        for i in range(petals)
    ]
    return {
        "agents": AGENTS,
        "petals": petal_docs,
        "constraints": [_handoff(a, b) for a, b in zip(petal_docs, petal_docs[1:])],
    }


def lanes_task(
    seed: int,
    per_lane: int,
    actions: int,
    makespan_factor: float | None = None,
    ranges=WIDE,
) -> dict:
    """Two lanes of ``per_lane`` petals, one cross-lane handoff per position.

    Petals are declared interleaved (H00, R00, H01, R01, ...). Position ``k``
    hands off robot to human in the first half of the lanes and human to
    robot in the second, so reordering the tail of a lane delays the other.
    """
    rng = random.Random(f"lanes/{seed}/{per_lane}x{actions}")
    human = [{"name": f"H{k:02d}", "owner": "human", "tags": [],
              "actions": _actions(rng, actions, ranges)} for k in range(per_lane)]
    robot = [{"name": f"R{k:02d}", "owner": "robot", "tags": [],
              "actions": _actions(rng, actions, ranges)} for k in range(per_lane)]
    petal_docs = [p for pair in zip(human, robot) for p in pair]
    constraints = [
        _handoff(robot[k], human[k]) if 2 * k < per_lane else _handoff(human[k], robot[k])
        for k in range(per_lane)
    ]
    task = {"agents": AGENTS, "petals": petal_docs, "constraints": constraints}
    if makespan_factor is not None:
        task["makespan"] = [0.0, makespan_factor * earliest_makespan(task)]
    return task


def earliest_makespan(task: dict) -> float:
    """Longest path over lower bounds under the declared petal order.

    Every edge of a task without deadlines is a lower bound, so the earliest
    finish is the longest path from the global start in the precedence DAG
    of action vertices (durations, back-to-back actions, each agent's petal
    sequence, handoffs).
    """
    edges: dict[str, list[tuple[str, float]]] = {}
    indegree: dict[str, int] = {"Vs": 0}

    def edge(u: str, v: str, weight: float) -> None:
        edges.setdefault(u, []).append((v, weight))
        indegree[v] = indegree.get(v, 0) + 1
        indegree.setdefault(u, 0)

    last_of_agent: dict[str, dict] = {}
    for petal in task["petals"]:
        names = [f"{petal['name']}.{a['name']}" for a in petal["actions"]]
        for name, action in zip(names, petal["actions"]):
            edge(f"{name}.start", f"{name}.end", action["lower"])
        for before, after in zip(names, names[1:]):
            edge(f"{before}.end", f"{after}.start", 0.0)
        edge("Vs", f"{names[0]}.start", 0.0)
        edge(f"{names[-1]}.end", "Ve", 0.0)
        previous = last_of_agent.get(petal["owner"])
        if previous is not None:
            edge(f"{previous['name']}.{previous['actions'][-1]['name']}.end",
                 f"{names[0]}.start", 0.0)
        last_of_agent[petal["owner"]] = petal
    for c in task["constraints"]:
        edge(c["source"], c["target"], c["lower"])

    longest = {vertex: 0.0 for vertex in indegree}
    ready = [vertex for vertex, count in indegree.items() if count == 0]
    while ready:
        u = ready.pop()
        for v, weight in edges.get(u, ()):
            longest[v] = max(longest[v], longest[u] + weight)
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    if any(indegree.values()):
        raise ValueError("task precedence has a cycle")
    return longest["Ve"]


def packaging_profiles(seed: int) -> dict:
    """Stochastic profiles for the packaged task, drawn from the seed."""
    rng = random.Random(f"packaging-profiles/{seed}")
    return {
        "human": {
            "duration_mode": "truncated_normal",
            "reaction_delay": round(rng.uniform(0.2, 0.6), 3),
            "anticipation_probability": round(rng.uniform(0.2, 0.4), 3),
            "anticipation_offset": round(rng.uniform(0.5, 1.5), 3),
        },
        "robot": {
            "duration_mode": "uniform",
            "reaction_delay": round(rng.uniform(0.0, 0.3), 3),
        },
    }


def montecarlo_profiles(seed: int) -> dict:
    """Human: truncated normal with hesitation and anticipation; robot: uniform."""
    rng = random.Random(f"montecarlo-profiles/{seed}")
    return {
        "human": {
            "duration_mode": "truncated_normal",
            "reaction_delay": round(rng.uniform(0.2, 0.5), 3),
            "anticipation_probability": 0.15,
            "anticipation_offset": 1.0,
        },
        "robot": {"duration_mode": "uniform"},
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark input: the task, optional profiles, and a pass recipe.

    ``commands`` lists the subcommands of one pass in order; ``analyze``
    runs once per trace the preceding ``simulate`` wrote, and ``plan``
    stops after ``limit`` verified orders. ``interpreter_share`` weighs the
    reference kernels (``calibrate.py``) that invocation times are divided
    by: 1.0 for passes spent in Python code, 0.0 for passes spent in the
    dense numpy solve.
    """

    name: str
    task: dict
    profiles: dict | None
    commands: tuple[str, ...]
    interpreter_share: float
    runs: int = 0
    limit: int = 1000


def packaging_task(root: Path) -> dict:
    return json.loads((root / "src/madtn/data/packaging.daisy.json").read_text())


def build(name: str, seed: int, root: Path) -> Workload:
    """The named workload's documents for ``seed``."""
    if name == "packaging":
        return Workload(name, packaging_task(root), packaging_profiles(seed),
                        ("validate", "compile", "schedule", "plan", "simulate", "analyze"),
                        interpreter_share=1.0, runs=4)
    if name == "chain-400":
        return Workload(name, chain_task(seed, petals=50, actions=4), None,
                        ("validate", "compile", "schedule", "plan"), interpreter_share=0.0)
    if name == "plan-orders":
        # Many solves of 98 points: numpy call overhead as much as arithmetic.
        task = lanes_task(seed, per_lane=6, actions=4, makespan_factor=1.1, ranges=NARROW)
        return Workload(name, task, None, ("plan",), interpreter_share=0.5, limit=100)
    if name == "montecarlo":
        return Workload(name, lanes_task(seed, per_lane=30, actions=8),
                        montecarlo_profiles(seed), ("simulate", "analyze"),
                        interpreter_share=1.0, runs=10)
    raise KeyError(name)


NAMES = ("packaging", "chain-400", "plan-orders", "montecarlo")
