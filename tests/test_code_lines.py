"""``tools/code_lines.py`` counts the lines every code-size figure quotes.

The tool is a script, not part of the package, so this loads it by path,
as ``test_tracing.py`` loads the benchmark's tracer.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "code_lines_tool", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Nine code lines, each marked ``# code``; every other line is a docstring,
#: a comment or blank.
SOURCE = '''"""A module docstring
over two lines."""
import os  # code


# A comment line.
class Box:  # code
    """A class docstring."""

    size = 1  # code

    def grow(self):  # code
        """A function docstring
        over two lines.
        """
        return "a string, not a docstring"  # code
    \t
async def wait():  # code
    \'\'\'An async function docstring.\'\'\'
    text = """a string that is not a docstring
spans two lines"""  # code
    return text  # code
'''


def test_code_lines_counts_what_its_docstring_calls_code():
    assert _tool().code_lines(SOURCE) == 9


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    _tool().main([str(tmp_path)])
    assert capsys.readouterr().out.split("\n") == [
        f"{'a.py':16} {9:5}", f"{'b.py':16} {1:5}", f"{'total':16} {10:5}", ""]
