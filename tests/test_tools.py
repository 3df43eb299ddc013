"""`tools/sloc.py`, the package's code-size count, and the mutant table of
`tools/mutants.py`."""

import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sloc():
    return _tool("sloc")


SOURCE = '''"""Module docstring,
on two lines."""

# a comment-only line

import os


class Thing:
    """Class docstring."""

    # another comment
    def method(self):
        """Method docstring,

        with a blank line inside."""
        "a string expression, not a docstring"
        return os.path.join(
            "a",  # a trailing comment on a code line
            "b",
        )


def function():
    """Function docstring."""
    return 1
'''


def test_count_leaves_out_docstrings_comments_and_blank_lines():
    raw, code = _sloc().count(SOURCE)
    assert raw == len(SOURCE.splitlines()) == 26
    # import, class, def method, the string expression, the four lines of
    # the call, def function and its return
    assert code == 10


def test_count_of_docstrings_and_comments_only_is_zero():
    source = '"""Only a docstring."""\n\n# and a comment\n'
    assert _sloc().count(source) == (3, 0)


def test_main_total_is_the_sum_of_the_files(capsys):
    sloc = _sloc()
    assert sloc.main() == 0
    *rows, total = capsys.readouterr().out.splitlines()
    names = sorted(n for n in os.listdir(sloc.PACKAGE) if n.endswith(".py"))
    assert [row.split()[2] for row in rows] == names
    sums = [sum(int(row.split()[k]) for row in rows) for k in (0, 1)]
    assert total.split()[:2] == [str(sums[0]), str(sums[1])]
    for row in rows:
        raw, code, name = row.split()
        with open(os.path.join(sloc.PACKAGE, name), encoding="utf-8") as fp:
            assert sloc.count(fp.read()) == (int(raw), int(code))


def test_each_mutant_text_occurs_once_and_names_existing_tests():
    """Every listed mutant applies: its old text occurs exactly once in its
    file, and each of its node ids names a test function of an existing test
    file.  No mutant is run."""
    mutants = _tool("mutants").MUTANTS
    assert len(mutants) == 46
    for mutant in mutants:
        assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1, mutant
        assert mutant.old != mutant.new
        for node in mutant.tests:
            path, name = node.split("::")
            test = (ROOT / path).read_text(encoding="utf-8")
            assert f"def {name.split('[')[0]}(" in test, node
