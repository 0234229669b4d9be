"""The package's public names resolve on first use, and only what is used loads.

Each check runs in a fresh interpreter, since what a bare ``import madtn``
loads depends on what the process imported before.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import madtn

SOURCE = str(Path(madtn.__file__).resolve().parent.parent)
SUBMODULES = ("cli", "daisy", "errors", "files", "fluency", "intervals", "planner", "stn")


def fresh(code: str, *args: str):
    """What ``code`` prints as JSON, run after a bare ``import madtn``."""
    program = f"import sys\nsys.path.insert(0, {SOURCE!r})\nimport json, madtn\n{code}"
    done = subprocess.run([sys.executable, "-c", program, *args], capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_every_public_name_and_submodule_resolves():
    missing = fresh(
        "import types\n"
        f"subs = {SUBMODULES!r}\n"
        "bad = [n for n in madtn.__all__ if getattr(madtn, n, None) is None]\n"
        "bad += [n for n in subs if not isinstance(getattr(madtn, n, None), types.ModuleType)]\n"
        "print(json.dumps(bad))"
    )
    assert missing == []
    assert len(madtn.__all__) == len(set(madtn.__all__)) == 90


def test_dir_and_star_import_cover_every_public_name():
    listed, starred = fresh(
        "names = {}\n"
        "exec('from madtn import *', names)\n"
        "print(json.dumps([dir(madtn), sorted(set(names) - {'__builtins__'})]))"
    )
    assert set(madtn.__all__) <= set(listed)
    assert sorted(starred) == sorted(madtn.__all__)


@pytest.mark.parametrize("first", ["import madtn.simulate", "import madtn.files",
                                   "from madtn import simulate", "madtn.Trace"])
def test_simulate_is_the_function_whatever_loads_first(first):
    kind = fresh(f"{first}\nprint(json.dumps(type(madtn.simulate).__name__))")
    assert kind == "function"


def test_an_unknown_name_raises_attribute_error():
    assert fresh(
        "try:\n    madtn.no_such_name\nexcept AttributeError as exc:\n    print(json.dumps(str(exc)))"
    ) == "module 'madtn' has no attribute 'no_such_name'"
    with pytest.raises(ImportError):
        exec("from madtn import no_such_name", {})


def test_reading_a_task_loads_neither_the_cli_nor_the_metrics(tmp_path):
    document = json.loads(madtn.packaged_example_path().read_text(encoding="utf-8"))
    del document["capabilities"]
    task = tmp_path / "task.json"
    task.write_text(json.dumps(document), encoding="utf-8")
    loaded = fresh(
        "madtn.load_daisy(sys.argv[1])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('madtn'))))",
        str(task),
    )
    assert loaded == ["madtn", "madtn.daisy", "madtn.errors", "madtn.files",
                      "madtn.simulate", "madtn.stn"]
