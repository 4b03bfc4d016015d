"""tools/src_lines.py on a synthetic module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

MODULE = '''"""Module docstring,
two lines."""

X = """a string that
is not a docstring"""


class A:
    """Class docstring."""

    def f(self):
        """Method docstring,
        over
        three lines."""
        """A second string: code."""
        return 1


def g():
    # a comment, then no docstring
    return "text"


async def h():
    def inner():
        """Nested docstring."""

    return inner
'''


def test_docstrings_are_the_first_strings_of_modules_classes_and_functions(tmp_path):
    assert src_lines.docstring_lines(MODULE) == 2 + 1 + 3 + 1
    path = tmp_path / "m.py"
    path.write_text(MODULE)
    assert src_lines.count(path) == (len(MODULE.splitlines()), 7)


def test_main_prints_a_row_per_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    n = len(MODULE.splitlines())
    assert rows == [["pkg/a.py", str(n), "7", str(n - 7)], ["pkg/b.py", "2", "0", "2"],
                    ["all", str(n + 2), "7", str(n - 5)]]
