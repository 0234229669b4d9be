"""The CLI's answers on random tasks, checked by the benchmark's reference.

``perfbench/reference.py`` rebuilds each task's network from the document
alone and answers with its own Bellman-Ford, so it shares no code with the
package. It is loaded by path, as ``tests/same_bytes.py`` loads the
workloads, and every command runs in process through ``run_cli``.

The reference does not check cyclic petal precedence, so a plan refused
for it is counted and skipped.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

from madtn.cli import run_cli
from madtn.files import DaisySpecDocument, daisy_document

from test_planner import random_daisy

ROOT = Path(__file__).resolve().parent.parent
TASKS = 300
LIMIT = 50


def _reference():
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _run(*argv: str) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = run_cli(list(argv))
    return status, stdout.getvalue(), stderr.getvalue()


def _checked(reference, document: dict, task: Path, traces: Path, seed: int,
             seen: Counter) -> list[str]:
    """Every problem the reference finds with the CLI's answers on one task."""
    model = reference.Model(document)
    consistent = reference.consistent(model)
    seen["consistent" if consistent else "inconsistent"] += 1
    problems: list[str] = []
    if consistent:
        for command, check in (("compile", reference.check_compile),
                               ("schedule", reference.check_schedule)):
            status, out, err = _run(command, str(task))
            problems += check(model, out) if (status, err) == (0, "") else [
                f"{command} exit status {status}: {err.strip()}"]
    else:
        status, out, _ = _run("compile", str(task))
        if (status, out) != (1, ""):
            problems.append(f"compile of an inconsistent task: {status} {out!r}")
    status, out, err = _run("plan", str(task), "--limit", str(LIMIT))
    if status == 1 and err.startswith("error: cyclic petal precedence"):
        seen["cyclic"] += 1
    else:
        seen["plans"] += 1
        problems += reference.check_plan(model, out, LIMIT) if (status, err) == (0, "") else [
            f"plan exit status {status}: {err.strip()}"]
    if not consistent or len(model.agents) != 2:
        return problems
    seen["runs"] += 1
    status, out, err = _run("simulate", str(task), "--seed", str(seed), "--out", str(traces))
    if (status, err) != (0, ""):
        return problems + [f"simulate exit status {status}: {err.strip()}"]
    problems += reference.check_simulate(out, traces, seed, 1)
    written = traces / f"trace-{seed}.json"
    trace = json.loads(written.read_text())
    problems += reference.check_trace(model, trace, task.name, seed)
    status, out, err = _run("analyze", str(task), str(written))
    if (status, err) != (0, ""):
        return problems + [f"analyze exit status {status}: {err.strip()}"]
    return problems + reference.check_report(model, trace, json.loads(out))


def test_cli_answers_match_the_reference_on_random_tasks(tmp_path):
    reference = _reference()
    rng = random.Random(20261020)
    traces = tmp_path / "traces"
    traces.mkdir()
    problems: list[str] = []
    seen: Counter = Counter()
    for k in range(TASKS):
        document = daisy_document(DaisySpecDocument(random_daisy(rng)))
        task = tmp_path / f"task-{k}.json"
        task.write_text(json.dumps(document, indent=2))
        problems += [f"task {k}: {problem}"
                     for problem in _checked(reference, document, task, traces, k, seen)]
    assert not problems, "\n".join(problems)
    # The seeded draws reach both verdicts, cyclic plans and two-agent runs.
    assert seen == {"consistent": 90, "inconsistent": 210, "plans": 270, "cyclic": 30,
                    "runs": 28}, seen
