"""`tools/code_lines.py` counts the lines that hold code: not docstrings,
comments or blank lines.  Changes that claim less code quote its count.
The tool is loaded by path, as it is not part of the package."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

# a comment line


def f(x):
    """A function docstring."""
    # a comment inside the body
    total = (  # a comment after code
        x
        + 1
    )

    return total
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_code_lines_are_counted(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # `def f(x):`, the four lines of the expression and `return total`
    assert load_tool().code_lines(path) == 6


def test_the_total_is_the_sum_of_the_modules(capsys):
    assert load_tool().main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
