"""tools/count_lines.py, the library's line counter, on a small fixture source."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

# 20 physical lines; code lines are the import, def, the two lines of the
# assigned string, the two of the return, class and y = 2
_SOURCE = '''"""Module docstring
over two lines."""

import math  # a trailing comment

# a comment line


def f(x):
    """One-line docstring."""
    s = """a string value,
    not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 2
'''


def test_count_leaves_out_blanks_comments_and_docstrings():
    assert count_lines.count(_SOURCE) == (20, 8)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert count_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["file", "physical", "code"], ["a.py", "20", "8"], ["b.py", "3", "1"],
                    ["total", "23", "9"]]
