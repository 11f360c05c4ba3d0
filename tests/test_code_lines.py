"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    return (x,
            text)
'''


def test_counts_code_but_not_blank_comment_or_docstring_lines():
    # import, def, the two string lines, the two return lines
    assert code_lines.code_lines(SAMPLE) == 6


def test_counts_every_module_of_a_checkout(capsys):
    assert code_lines.main(["code_lines.py", str(_PATH.parents[1])]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert int(rows["total"]) == sum(int(v) for k, v in rows.items() if k != "total")
    assert "liealg.py" in rows
