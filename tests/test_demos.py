"""The demos print exactly their recorded output.

Each demo runs in a fresh interpreter with ``src`` on the path, and its
stdout must match ``demos/expected/<demo>.txt`` byte for byte. After an
intended change to a demo's output, regenerate the file with
``PYTHONPATH=src python demos/<demo>.py > demos/expected/<demo>.txt``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recorded_output():
    assert DEMOS
    recorded = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert recorded == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_recorded_output(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=120,
        check=True,
    )
    expected = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
    assert done.stdout == expected
