"""Reference checker for CLI outputs, independent of ``madtn``.

It reads the same task dicts the benchmark writes, builds the compiled
constraint list itself (following the rules in ``compile_to_stn``'s
docstring), and answers every question with its own single-source
Bellman-Ford (queue-based, with a path-length negative-cycle test) instead
of the package's dense all-pairs solver. Each ``check_*`` function returns
a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import math
from collections import deque
from pathlib import Path

INF = math.inf
#: Absolute tolerance for time comparisons, the same as the package's.
TOL = 1e-9


class Model:
    """A task document resolved to vertex indices and compiled constraints."""

    def __init__(self, task: dict):
        self.agents = [a["id"] for a in task["agents"]]
        self.petals = [p["name"] for p in task["petals"]]
        self.owner = {p["name"]: p["owner"] for p in task["petals"]}
        self.actions = {p["name"]: [a["name"] for a in p["actions"]] for p in task["petals"]}
        self.capabilities = task.get("capabilities")
        self.vertices = ["Vs"]
        self.fixed: list[tuple[str, str, float, float]] = []
        self.bounds: dict[tuple[str, str], tuple[float, float]] = {}
        for p in task["petals"]:
            names = [f"{p['name']}.{a['name']}" for a in p["actions"]]
            for name, a in zip(names, p["actions"]):
                self.vertices += [f"{name}.start", f"{name}.end"]
                upper = INF if a.get("upper") is None else a["upper"]
                self.fixed.append((f"{name}.start", f"{name}.end", a["lower"], upper))
                self.bounds[(p["name"], a["name"])] = (a["lower"], upper)
            self.fixed.append(("Vs", f"{names[0]}.start", 0.0, INF))
            for before, after in zip(names, names[1:]):
                self.fixed.append((f"{before}.end", f"{after}.start", 0.0, INF))
            self.fixed.append((f"{names[-1]}.end", "Ve", 0.0, INF))
        self.vertices.append("Ve")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.external = []
        for c in task.get("constraints", []):
            lower = c.get("lower", 0.0)
            self.external.append((
                c["kind"], c["source"], c["target"],
                -INF if lower is None else lower,
                INF if c.get("upper") is None else c["upper"],
            ))
        if "makespan" in task:
            lower, upper = task["makespan"]
            self.external.append(("makespan", "Vs", "Ve", lower, INF if upper is None else upper))

    def first(self, petal: str) -> str:
        return f"{petal}.{self.actions[petal][0]}.start"

    def last(self, petal: str) -> str:
        return f"{petal}.{self.actions[petal][-1]}.end"

    def constraints(self, ordering=None) -> list[tuple[str, str, float, float]]:
        """Every constraint of the network compiled under ``ordering``."""
        order = self.petals if ordering is None else list(ordering)
        sequencing = []
        for agent in self.agents:
            mine = [p for p in order if self.owner[p] == agent]
            sequencing += [(self.last(a), self.first(b), 0.0, INF) for a, b in zip(mine, mine[1:])]
        return self.fixed + sequencing + [c[1:] for c in self.external]

    def edges(self, ordering=None, reverse=False) -> list[list[tuple[int, float]]]:
        """Distance-graph adjacency: ``t(v) - t(u) <= w`` is an edge u -> v."""
        adjacency: list[list[tuple[int, float]]] = [[] for _ in self.vertices]
        for source, target, lower, upper in self.constraints(ordering):
            u, v = self.index[source], self.index[target]
            if upper < INF:
                adjacency[v if reverse else u].append((u if reverse else v, upper))
            if lower > -INF:
                adjacency[u if reverse else v].append((v if reverse else u, -lower))
        return adjacency

    def precedence(self) -> set[tuple[str, str]]:
        edges = set()
        for kind, source, target, lower, _ in self.external:
            if source in ("Vs", "Ve") or target in ("Vs", "Ve"):
                continue
            a, b = source.split(".")[0], target.split(".")[0]
            if a != b and (kind == "handoff" or lower > 0):
                edges.add((a, b))
        return edges

    def cross_handoffs(self) -> list[tuple[str, str]]:
        """(source vertex, target vertex) of each handoff between two agents."""
        return [
            (source, target)
            for kind, source, target, _, _ in self.external
            if kind == "handoff"
            and self.owner[source.split(".")[0]] != self.owner[target.split(".")[0]]
        ]


def shortest(adjacency, sources) -> list[float] | None:
    """Bellman-Ford from ``sources`` (all at 0); ``None`` on a negative cycle."""
    n = len(adjacency)
    dist = [INF] * n
    hops = [0] * n
    queued = [False] * n
    queue = deque(sources)
    for s in sources:
        dist[s] = 0.0
        queued[s] = True
    while queue:
        u = queue.popleft()
        queued[u] = False
        du = dist[u]
        for v, w in adjacency[u]:
            if du + w < dist[v] - TOL:
                dist[v] = du + w
                hops[v] = hops[u] + 1
                if hops[v] > n:
                    return None
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    return dist


def consistent(model: Model, ordering=None) -> bool:
    return shortest(model.edges(ordering), range(len(model.vertices))) is not None


def earliest(model: Model, ordering=None) -> list[float] | None:
    """Earliest time of each vertex, ``-d(v, Vs)``; ``None`` if inconsistent."""
    if not consistent(model, ordering):
        return None
    dist = shortest(model.edges(ordering, reverse=True), [0])
    return [-d + 0.0 for d in dist]


def linear_extensions(model: Model):
    """Petal orders in the package's enumeration order: declaration rank, DFS."""
    blockers = {p: set() for p in model.petals}
    for a, b in model.precedence():
        blockers[b].add(a)
    prefix: list[str] = []
    placed: set[str] = set()

    def extend():
        if len(prefix) == len(model.petals):
            yield tuple(prefix)
            return
        for petal in model.petals:
            if petal not in placed and blockers[petal] <= placed:
                prefix.append(petal)
                placed.add(petal)
                yield from extend()
                placed.discard(petal)
                prefix.pop()

    return extend()


# -- per-command output checks ------------------------------------------------


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    if a == b:
        return True
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def expected_warnings(model: Model) -> int:
    count = 0
    for kind, source, target, _, _ in model.external:
        if kind != "handoff":
            continue
        petal, action, _ = source.split(".")
        count += action != model.actions[petal][-1]
        petal, action, _ = target.split(".")
        count += action != model.actions[petal][0]
    return count


def check_validate(model: Model, out: str, err: str) -> list[str]:
    problems = []
    if out != "ok\n":
        problems.append(f"validate printed {out!r}")
    if err.count("warning: ") != expected_warnings(model):
        problems.append(f"validate warnings {err!r}")
    return problems


def check_compile(model: Model, out: str) -> list[str]:
    times = earliest(model)
    if times is None:
        return ["reference finds the task inconsistent"]
    upper = shortest(model.edges(), [0])[model.index["Ve"]]
    expected = [
        f"timepoints: {len(model.vertices)}",
        f"constraints: {len(model.constraints())}",
        "consistent: yes",
    ]
    lines = out.splitlines()
    if lines[:3] != expected or len(lines) != 4 or not lines[3].startswith("task duration: ["):
        return [f"compile printed {lines!r}, expected {expected!r} and a duration"]
    low, high = (float(x) for x in lines[3][len("task duration: ["):-1].split(", "))
    # Printed with %g: six significant digits.
    if not _close(low, times[model.index["Ve"]], 1e-5) or not _close(high, upper, 1e-5):
        return [f"compile duration [{low}, {high}], reference "
                f"[{times[model.index['Ve']]}, {upper}]"]
    return []


def check_schedule(model: Model, out: str) -> list[str]:
    times = earliest(model)
    if times is None:
        return ["reference finds the task inconsistent"]
    lines = out.splitlines()
    if len(lines) != len(model.vertices):
        return [f"schedule printed {len(lines)} lines for {len(model.vertices)} vertices"]
    for line, vertex, expected in zip(lines, model.vertices, times):
        value, name = line.split(None, 1)
        if name != vertex or not _close(float(value), expected, 1e-9, 1e-6):
            return [f"schedule line {line!r}, reference {expected:.6f} {vertex}"]
    return []


def expected_plan(model: Model, limit: int) -> list[str]:
    """The plan output the reference predicts, line by line."""
    lines = []
    for order in linear_extensions(model):
        if len(lines) >= limit:
            break
        if consistent(model, order):
            lines.append(", ".join(order))
    if model.capabilities is not None:
        lines.append("assignment:")
        for petal in model.petals:
            owner = model.owner[petal]
            if owner is None:
                scored = [(model.capabilities.get(a, {}).get(petal, 0.0), a)
                          for a in sorted(model.agents)]
                owner = max((s, -i, a) for i, (s, a) in enumerate(scored) if s > 0)[2]
            lines.append(f"  {petal}: {owner}")
    return lines


def check_plan(model: Model, out: str, limit: int) -> list[str]:
    """The orders must be exactly the first ``limit`` consistent extensions."""
    lines = out.splitlines()
    expected = expected_plan(model, limit)
    if lines == expected:
        return []
    for got, want in zip(lines, expected):
        if got != want:
            return [f"plan printed {got!r} where the reference has {want!r}"]
    return [f"plan printed {len(lines)} lines, the reference {len(expected)}"]


def check_simulate(out: str, out_dir: Path, seed: int, runs: int) -> list[str]:
    expected = "".join(f"wrote {out_dir / f'trace-{s}.json'}\n" for s in range(seed, seed + runs))
    return [] if out == expected else [f"simulate printed {out!r}"]


def _union(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(s for s in spans if s[1] > s[0]):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _measure(spans) -> float:
    return sum(end - start for start, end in spans)


def _intersect(a, b) -> list[tuple[float, float]]:
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        start, end = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def check_trace(model: Model, trace: dict, task_name: str, seed: int) -> list[str]:
    """Coverage, then the stored ``feasible`` flag against every constraint."""
    if trace.get("daisy") != task_name or trace.get("seed") != seed:
        return [f"trace header {trace.get('daisy')!r} seed {trace.get('seed')!r}"]
    if trace.get("agents") != model.agents:
        return [f"trace roster {trace.get('agents')!r}"]
    events = trace["events"]
    if any(b["start"] < a["start"] for a, b in zip(events, events[1:])):
        return ["trace events are out of start order"]
    times: dict[str, float] = {}
    for e in events:
        key = f"{e['petal']}.{e['action']}"
        if (e["petal"], e["action"]) not in model.bounds or f"{key}.start" in times:
            return [f"trace covers {key} wrongly"]
        if e["agent"] != model.owner[e["petal"]]:
            return [f"trace gives {key} to {e['agent']}"]
        times[f"{key}.start"], times[f"{key}.end"] = e["start"], e["end"]
    if len(times) != len(model.vertices) - 2:
        return [f"trace covers {len(times) // 2} of {len(model.bounds)} actions"]
    times["Vs"] = trace["start_time"]
    times["Ve"] = max((e["end"] for e in events), default=trace["start_time"])
    feasible = all(
        lower - TOL <= times[target] - times[source] <= upper + TOL
        for source, target, lower, upper in model.constraints()
    )
    if feasible != trace["feasible"]:
        return [f"trace seed {seed} stored feasible={trace['feasible']}, reference {feasible}"]
    return []


def check_report(model: Model, trace: dict, report: dict) -> list[str]:
    """Window, partition identities, and per-handoff figures of a report."""
    events = trace["events"]
    start = trace["start_time"]
    end = max(e["end"] for e in events)
    makespan = end - start
    tol = TOL * max(1.0, abs(makespan), abs(start))
    problems = []

    def near(a, b, what):
        if abs(a - b) > tol:
            problems.append(f"report {what}: {a} vs reference {b}")

    human, robot = model.agents
    if report["agents"] != [human, robot]:
        return [f"report agents {report['agents']!r}"]
    near(report["window"]["start"], start, "window start")
    near(report["window"]["end"], end, "window end")
    near(report["window"]["makespan"], makespan, "makespan")
    active = {a: _union([(e["start"], e["end"]) for e in events if e["agent"] == a])
              for a in (human, robot)}
    both = _measure(_intersect(active[human], active[robot]))
    either = _measure(_union(active[human] + active[robot]))
    near(report["concurrent_activity"]["seconds"], both, "concurrent activity")
    near(report["concurrent_inactivity"]["seconds"], makespan - either, "concurrent inactivity")
    pieces = report["concurrent_activity"]["seconds"] + report["concurrent_inactivity"]["seconds"]
    for agent in (human, robot):
        sole = report["sole_activity"][agent]["seconds"]
        near(sole, _measure(active[agent]) - both, f"sole activity {agent}")
        pieces += sole
        idle = report["idle"][agent]
        near(idle["total"] + _measure(active[agent]), makespan, f"idle plus active {agent}")
        near(idle["waiting"] + idle["resting"], idle["total"], f"idle split {agent}")
    near(pieces, makespan, "partition of the makespan")

    at = {f"{e['petal']}.{e['action']}": e for e in events}
    handoffs = model.cross_handoffs()
    if len(report["handoffs"]) != len(handoffs) or len(report["petal_delays"]) != len(handoffs):
        return problems + [f"report has {len(report['handoffs'])} handoffs, "
                           f"reference {len(handoffs)}"]
    delay_by_agent = {human: 0.0, robot: 0.0}
    for entry, (source, target) in zip(report["petal_delays"], handoffs):
        feeding, fed = source.split(".")[0], target.split(".")[0]
        delay = (min(at[f"{fed}.{a}"]["start"] for a in model.actions[fed])
                 - max(at[f"{feeding}.{a}"]["end"] for a in model.actions[feeding]))
        delay_by_agent[model.owner[fed]] += delay
        if (entry["source_petal"], entry["target_petal"], entry["agent"]) != (
                feeding, fed, model.owner[fed]):
            problems.append(f"report petal delay {entry!r}")
        near(entry["delay"], delay, f"petal delay {feeding} -> {fed}")
    for agent in (human, robot):
        near(report["delay_by_agent"][agent], delay_by_agent[agent], f"delay of {agent}")
    for entry, (source, target) in zip(report["handoffs"], handoffs):
        src = at[source.rsplit(".", 1)[0]]
        dst = at[target.rsplit(".", 1)[0]]
        mine = sorted((e["start"], e["end"], e["petal"], e["action"])
                      for e in events if e["agent"] == dst["agent"])
        i = mine.index((dst["start"], dst["end"], dst["petal"], dst["action"]))
        ready = mine[i - 1][1] if i > 0 else start
        readiness = src["end"] - ready
        state = "blocked" if readiness > TOL else "stale" if readiness < -TOL else "exact"
        functional = dst["start"] - (ready if state == "stale" else src["end"])
        if entry["source"] != source.rsplit(".", 1)[0] or entry["state"] != state:
            problems.append(f"report handoff {entry['source']} state {entry['state']}, "
                            f"reference {state}")
        near(entry["product_available"], src["end"], "product available")
        near(entry["receipt_start"], dst["start"], "receipt start")
        near(entry["readiness_delay"], readiness, "readiness delay")
        near(entry["functional_delay"], functional, "functional delay")
    return problems
