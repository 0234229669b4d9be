"""The benchmark's tracer binds to names the package still defines.

``perfbench/tracing.py`` rebinds functions in the package's modules by
name. A rename or deletion of one of them makes every benchmark run fail,
so this loads the tracer by path, as ``same_bytes.py`` loads the
workloads, installs it and takes it off again.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_patches_every_seam_and_puts_each_original_back():
    tracer = _tracing().Tracer()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracer._patches]
    assert originals
    tracer.install(0)
    try:
        for owner, attr, _, wrapper in tracer._patches:
            assert getattr(owner, attr) is wrapper, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, (owner, attr)
