"""The counting rule of tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# 8 code lines: import, class, size, def, the three lines of the string
# bound to text, and return.  The docstrings, comments, blank lines and
# indentation count for nothing.
SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function
        docstring."""
        # a comment line
        text = """one
two
three"""
        return text
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_each_line_of_a_string_that_is_not_a_docstring_counts():
    assert code_lines.code_lines('x = 1\ny = """a\nb\n\nc"""\n') == 5
    # a string statement after the first one of a body is no docstring
    assert code_lines.code_lines('def f():\n    pass\n    """a\n    b"""\n') == 4


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     8  a.py\n     1  pkg/b.py\n     9  total\n"
    assert code_lines.main([]) == 2
    assert capsys.readouterr().err.startswith("usage: code_lines.py DIRECTORY")
