"""``madtn analyze`` output, byte for byte, on recorded traces.

``tests/reports`` holds what ``analyze`` printed, as JSON and as text, for
each ``tests/golden`` trace of the packaged task; for a run of the two-lane
task ``lanes.daisy.json`` whose human starts at ``-0.0``, so that the first
interval of concurrent activity starts at ``-0.0``; and the error for a
trace that repeats an action. However the report is computed, it must
print the same bytes.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from madtn import packaged_example_path, run_cli

REPORTS = Path(__file__).resolve().parent / "reports"
GOLDEN = Path(__file__).resolve().parent / "golden"

PACKAGING = sorted(GOLDEN.glob("packaging-*.json"))
CASES = [(packaged_example_path(), path, path.stem) for path in PACKAGING]
CASES += [
    (REPORTS / "lanes.daisy.json", REPORTS / f"{name}.trace.json", name)
    for name in ("signed-zero", "repeated-action")
]


def test_every_recorded_packaging_trace_is_a_case():
    assert len(PACKAGING) == 15


def analyze(capsys, task, trace, mode):
    code = run_cli(["analyze", str(task), str(trace), "--output", mode])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("task, trace, name", CASES, ids=[name for _, _, name in CASES])
@pytest.mark.parametrize("mode, suffix", [("json", "json"), ("text", "txt")])
def test_analyze_prints_the_recorded_bytes(capsys, task, trace, name, mode, suffix):
    code, out, err = analyze(capsys, task, trace, mode)
    error = REPORTS / f"{name}.stderr"
    if error.exists():
        assert (code, out) == (1, "")
        assert err.encode() == error.read_bytes()
    else:
        assert (code, err) == (0, "")
        assert out.encode() == (REPORTS / f"{name}.report.{suffix}").read_bytes()


def test_the_signed_zero_trace_keeps_its_negative_zero():
    text = (REPORTS / "signed-zero.report.json").read_text()
    assert '"intervals": [\n      [\n        -0.0,\n        1.0\n      ],' in text
