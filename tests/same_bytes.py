"""The same-bytes matrix: the CLI's commands on the benchmark's task documents.

The tasks are the four ``perfbench/workloads.py`` workloads at seeds 5 and
7. That module is stdlib-only and seeded, so it rebuilds every document
byte for byte, and checking its generated tasks in would add the
962-point montecarlo task twice over. Each task's own digest is kept too,
so a change to the generator fails apart from a change to the output.

Each task runs in a directory of its own, under relative paths, so nothing
in the output names the directory:

* ``validate``, ``compile`` and ``schedule``; the last two again with
  ``--transition 0.5`` and with the declared petals in reverse as
  ``--ordering``;
* ``plan --limit 20``;
* ``simulate --runs 3`` (with the workload's profiles, if it has any),
  then ``analyze`` of each trace in JSON and in text;
* one ``simulate`` run each with ``--transition 0.5`` and with the
  reversed ``--ordering``, and ``analyze`` of each trace it wrote.

Every command is ``run_cli`` in process. Its case is kept as the sha256
digests of its stdout and stderr, its exit status, and the digest of each
file it wrote or changed. ``tests/golden/same-bytes/digests.json`` holds the
digests; ``tools/record_same_bytes.py`` rewrites them, which is only for a
declared change of an output format.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

from madtn.cli import run_cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "same-bytes" / "digests.json"
SEEDS = (5, 7)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(top: Path) -> dict[str, str]:
    return {path.relative_to(top).as_posix(): _digest(path.read_bytes())
            for path in sorted(top.rglob("*")) if path.is_file()}


def _commands(seed: int, reversed_petals: str, profiles: list[str]):
    """The argv of each command on one task, in order."""
    reversed_ = ["--ordering", reversed_petals]
    yield ["validate", "task.json"]
    for command in ("compile", "schedule"):
        yield [command, "task.json"]
        yield [command, "task.json", "--transition", "0.5"]
        yield [command, "task.json", *reversed_]
    yield ["plan", "task.json", "--limit", "20"]
    runs = [("out", ["--runs", "3"]), ("transition", ["--transition", "0.5"]),
            ("ordered", reversed_)]
    for out, options in runs:
        yield ["simulate", "task.json", "--seed", str(seed), *options, *profiles, "--out", out]
        for index in range(3 if out == "out" else 1):
            trace = f"{out}/trace-{seed + index}.json"
            yield ["analyze", "task.json", trace]
            if out == "out":
                yield ["analyze", "task.json", trace, "--output", "text"]


def _run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = run_cli(argv)
    return status, stdout.getvalue(), stderr.getvalue()


def run_matrix(work: Path) -> dict[str, dict]:
    """Every case's digests, keyed ``"<workload>-<seed>: <argv>"``.

    A key writes the reversed ordering as ``<reversed>``. Runs inside
    ``work``, an empty directory given by its absolute path, and restores
    the working directory afterwards.
    """
    workloads = _workloads()
    cases: dict[str, dict] = {}
    here = os.getcwd()
    try:
        for name in workloads.NAMES:
            for seed in SEEDS:
                workload = workloads.build(name, seed, ROOT)
                label = f"{name}-{seed}"
                top = work / label
                for out in ("out", "transition", "ordered"):
                    (top / out).mkdir(parents=True)
                (top / "task.json").write_text(json.dumps(workload.task, indent=2))
                profiles = []
                if workload.profiles is not None:
                    (top / "profiles.json").write_text(json.dumps(workload.profiles, indent=2))
                    profiles = ["--profiles", "profiles.json"]
                before = _files(top)
                cases[f"{label}: documents"] = {"files": before}
                os.chdir(top)
                petals = [p["name"] for p in workload.task["petals"]]
                reversed_ = ",".join(reversed(petals))
                for argv in _commands(seed, reversed_, profiles):
                    status, out, err = _run(argv)
                    after = _files(top)
                    key = " ".join(argv).replace(reversed_, "<reversed>")
                    cases[f"{label}: {key}"] = {
                        "status": status,
                        "stdout": _digest(out.encode()),
                        "stderr": _digest(err.encode()),
                        "files": {k: v for k, v in after.items() if before.get(k) != v},
                    }
                    before = after
    finally:
        os.chdir(here)
    return cases


def load_digests() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def dump_digests(cases: dict[str, dict]) -> str:
    return json.dumps(cases, indent=1) + "\n"
