"""Every command of the same-bytes matrix writes what it wrote when recorded.

See ``same_bytes.py`` for the matrix. A failure lists the cases that
differ; re-record with ``tools/record_same_bytes.py`` only for a declared
change of an output format.
"""
from __future__ import annotations

from same_bytes import load_digests, run_matrix


def test_the_command_matrix_writes_the_recorded_bytes(tmp_path):
    recorded = load_digests()
    cases = run_matrix(tmp_path)
    differ = [key for key in recorded.keys() | cases.keys()
              if recorded.get(key) != cases.get(key)]
    assert not differ, f"{len(differ)} of {len(recorded)} cases differ: {sorted(differ)[:10]}"
