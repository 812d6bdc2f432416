"""``tools/count_lines.py`` counts a module's physical lines and the lines
left without blank lines, ``#`` comments and string statements; this pins
that rule on a fixed snippet."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
SPEC = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(count_lines)

SNIPPET = '''\
"""A module docstring
over two lines."""
import os  # a comment after code counts as code

# a comment line


def f(x):
    """A function docstring."""
    "a string statement" "in two parts"
    text = """a string
that is a value, so code"""
    return (x +
            len(text))
'''


def test_the_rule_on_a_fixed_snippet():
    # Code: import (3), def (8), both lines of the assigned string (11-12)
    # and both lines of the bracketed return (13-14).
    assert count_lines.count(SNIPPET) == (14, 6)


@pytest.mark.parametrize("source,expected", [
    ("", (0, 0)),
    ("x = 1\n", (1, 1)),
    ('"""only a docstring"""\n', (1, 0)),
    ("# only a comment\n\n", (2, 0)),
])
def test_edge_cases(source, expected):
    assert count_lines.count(source) == expected


def test_the_script_prints_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    count_lines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["a.py", "14", "6"], ["b.py", "1", "1"], ["total", "15", "7"]]
