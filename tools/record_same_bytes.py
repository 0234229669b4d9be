"""Rewrite the same-bytes digests in ``tests/golden/same-bytes/digests.json``.

Runs the command matrix of ``tests/same_bytes.py`` and writes the digests
of every case. Use it only for a declared change of an output format, and
say so in ``CHANGES.md``: the test that reads these digests exists to catch
every change nobody declared. Run from anywhere::

    python tools/record_same_bytes.py [PACKAGE_SRC]

``PACKAGE_SRC`` is the ``src`` directory of the ``madtn`` to run, and
defaults to this checkout's; pass another checkout's to record what that
tree writes.
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> None:
    source = Path(argv[0]).resolve() if argv else ROOT / "src"
    sys.path[:0] = [str(source), str(ROOT / "tests")]
    import same_bytes

    with tempfile.TemporaryDirectory() as work:
        cases = same_bytes.run_matrix(Path(work))
    same_bytes.DIGESTS.write_text(same_bytes.dump_digests(cases), encoding="utf-8")
    print(f"{len(cases)} cases from {source} written to {same_bytes.DIGESTS}")


if __name__ == "__main__":
    main(sys.argv[1:])
