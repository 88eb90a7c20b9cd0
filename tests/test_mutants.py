"""The site enumeration and rewriting of ``tools/mutants.py``, on a small source.

The script is loaded from its file, as ``test_bench_contract`` loads the
benchmark's tracer.  Nothing here starts a process or runs a sweep.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SOURCE = '''"""Module docstring: 1 + 2 < 3 and not x."""

LIMIT = 4
FLAG = True


def f(a, b):
    """Function docstring: 5 - 6 or 7."""
    if a < 1 and not b:
        a += 2
    return a - b or a is not None
'''

IF = "    if a < 1 and (not b):\n"
AUG = "        a += 2\n"
RETURN = "    return a - b or a is not None\n"
FUNCTION = '\ndef f(a, b):\n    """Function docstring: 5 - 6 or 7."""\n' + IF + AUG + RETURN

#: every mutant of SOURCE: the text the report prints -> its change, and the
#: one substitution (old, new) it makes in the ``ast.unparse`` text of SOURCE
MUTANTS = {
    "line 3: Assign statement -> pass": ("pass", "LIMIT = 4\n", "pass\n"),
    "line 3: 4 -> 3": ("int-1", "LIMIT = 4\n", "LIMIT = 3\n"),
    "line 3: 4 -> 5": ("int+1", "LIMIT = 4\n", "LIMIT = 5\n"),
    "line 4: Assign statement -> pass": ("pass", "FLAG = True\n", "pass\n"),  # True is no integer site
    "line 7: FunctionDef statement -> pass": ("pass", FUNCTION, "pass\n"),
    "line 9: If statement -> pass": ("pass", IF + AUG, "    pass\n"),
    "line 9: and -> or": ("op", IF, "    if a < 1 or not b:\n"),
    "line 9: < -> >=": ("cmp0", IF, "    if a >= 1 and (not b):\n"),
    "line 9: 1 -> 0": ("int-1", IF, "    if a < 0 and (not b):\n"),
    "line 9: 1 -> 2": ("int+1", IF, "    if a < 2 and (not b):\n"),
    "line 9: not dropped": ("not", IF, "    if a < 1 and b:\n"),
    "line 10: AugAssign statement -> pass": ("pass", AUG, "        pass\n"),
    "line 10: + -> -": ("op", AUG, "        a -= 2\n"),
    "line 10: 2 -> 1": ("int-1", AUG, "        a += 1\n"),
    "line 10: 2 -> 3": ("int+1", AUG, "        a += 3\n"),
    "line 11: Return statement -> pass": ("pass", RETURN, "    pass\n"),
    "line 11: or -> and": ("op", RETURN, "    return a - b and a is not None\n"),
    "line 11: - -> +": ("op", RETURN, "    return a + b or a is not None\n"),
    "line 11: is not -> is": ("cmp0", RETURN, "    return a - b or a is None\n"),
}
MODULE_LEVEL = {"line 3", "line 4", "line 7"}


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("tools_mutants", TOOLS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _changes(found):
    return {m.text: m.change for m in found}


def test_every_operator_yields_its_documented_mutants(mutants):
    found = mutants.enumerate_mutants("toy", SOURCE, functions_only=False)
    assert len(found) == len(MUTANTS)  # no site twice
    assert _changes(found) == {text: change for text, (change, _, _) in MUTANTS.items()}
    assert {m.module for m in found} == {"toy"}


@pytest.mark.parametrize("op, flipped", [("<", ">="), (">=", "<"), (">", "<="), ("<=", ">"), ("==", "!="),
                                         ("!=", "=="), ("in", "not in"), ("not in", "in"), ("is", "is not"),
                                         ("is not", "is")])
def test_every_comparison_flips_to_its_negation(mutants, op, flipped):
    source = f"def g(x, y):\n    return x {op} y\n"
    (m,) = [m for m in mutants.enumerate_mutants("toy", source, functions_only=True) if m.change == "cmp0"]
    assert m.text == f"line 2: {op} -> {flipped}"
    assert mutants.mutated_source(source, m) == f"def g(x, y):\n    return x {flipped} y\n"


def test_functions_only_skips_module_level_sites(mutants):
    inside = {text: change for text, (change, _, _) in MUTANTS.items() if text.split(":")[0] not in MODULE_LEVEL}
    assert _changes(mutants.enumerate_mutants("toy", SOURCE, functions_only=True)) == inside


def test_docstrings_are_never_mutated(mutants):
    # the docstrings hold integers, +, -, <, and, or and not, and yield none of them
    for m in mutants.enumerate_mutants("toy", SOURCE, functions_only=False):
        assert m.lines[0] not in (1, 8), m.text


def test_each_mutant_applies_and_parses(mutants):
    unmutated = ast.unparse(ast.parse(SOURCE)) + "\n"
    for m in mutants.enumerate_mutants("toy", SOURCE, functions_only=False):
        text = mutants.mutated_source(SOURCE, m)
        ast.parse(text)
        _, old, new = MUTANTS[m.text]
        assert unmutated.count(old) == 1
        assert text == unmutated.replace(old, new), (m.text, text)
