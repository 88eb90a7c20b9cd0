"""Source-mutation sweep of adebps modules (DeMillo, Lipton and Sayward, 1978).

Usage, from the root of the repository:

    python tools/mutants.py localize verify --work /tmp/sweep [--functions-only]

Each mutant changes one site of one module:

* an integer constant moved by -1 and by +1 (booleans excluded);
* a comparison flipped: ``<``/``>=``, ``>``/``<=``, ``==``/``!=``, ``in``/``not in``, ``is``/``is not``;
* ``+`` and ``-`` swapped, also in ``+=`` and ``-=``;
* ``and`` and ``or`` swapped;
* a ``not`` dropped;
* a statement replaced by ``pass``.

Docstrings are never mutated; ``--functions-only`` keeps to the sites inside
function bodies, which leaves out module-level tables such as ``verify``'s
golden values.  One traced tier-1 run first records which tests reach each
line of the swept modules.  Each mutant then runs, with ``-x``, the test
functions that reached its lines (``tests/test_<module>.py`` for a line no
test reaches, such as code that runs at import), in a copy of ``src``,
``tests``, ``tools`` and ``perfbench`` under the work directory, made from
the one that passed tier-1 unmutated; every survivor then runs the whole
tier-1 suite.  A run over ``TIMEOUT`` (60) seconds counts
as killed.  Mutants run on one worker per CPU, at most two.  The report
gives killed (timed out) / survived of all mutants per module, and lists
each survivor by line; an equivalent survivor changes no observable
result, and is registered as such in ROADMAP.md.

The sweep runs outside tier-1 and CI: it takes tens of minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import shutil
import subprocess
import sys
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")  # everything tier-1 reads
TIMEOUT = 60  # seconds after which a run counts as killed
WORKERS = min(2, os.cpu_count() or 1)  # each worker runs pytest in its own copy of the tree
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]

_FLIPPED = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SYMBOL = {
    ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=", ast.Eq: "==", ast.NotEq: "!=", ast.In: "in",
    ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-", ast.And: "and",
    ast.Or: "or",
}
_SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And}


class Mutant(NamedTuple):
    module: str
    index: int  # the mutated node's position in ``ast.walk`` order of the parsed module
    change: str  # "int-1", "int+1", "cmp<k>", "op", "not", "pass"
    lines: tuple[int, int]  # first and last line of the mutated node
    text: str  # what changed, for the report


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring statements of the module, its classes and its functions."""
    out = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(id(first))
    return out


def _in_functions(tree: ast.Module) -> set[int]:
    """ids of every node inside a function body (the signature and decorators excluded)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            out.update(id(n) for stmt in body for n in ast.walk(stmt))
    return out


def enumerate_mutants(module: str, source: str, functions_only: bool) -> list[Mutant]:
    tree = ast.parse(source)
    skip = _docstrings(tree)
    inside = _in_functions(tree) if functions_only else None
    out = []
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in skip or (inside is not None and id(node) not in inside):
            continue
        lines = (getattr(node, "lineno", 0), getattr(node, "end_lineno", 0))

        def add(change: str, text: str) -> None:
            out.append(Mutant(module, index, change, lines, f"line {lines[0]}: {text}"))

        if isinstance(node, ast.Constant) and type(node.value) is int:
            add("int-1", f"{node.value} -> {node.value - 1}")
            add("int+1", f"{node.value} -> {node.value + 1}")
        elif isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                add(f"cmp{k}", f"{_SYMBOL[type(op)]} -> {_SYMBOL[_FLIPPED[type(op)]]}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPPED:
            add("op", f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[_SWAPPED[type(node.op)]]}")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            add("not", "not dropped")
        if isinstance(node, ast.stmt) and not isinstance(node, ast.Pass):
            add("pass", f"{type(node).__name__} statement -> pass")
    return out


def _replace_child(parent: ast.AST, old: ast.AST, new: ast.AST) -> None:
    for field, value in ast.iter_fields(parent):
        if value is old:
            setattr(parent, field, new)
            return
        if isinstance(value, list) and any(v is old for v in value):
            value[[v is old for v in value].index(True)] = new
            return
    raise ValueError("not a child")


def mutated_source(source: str, m: Mutant) -> str:
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    node = nodes[m.index]
    parents = {id(child): parent for parent in nodes for child in ast.iter_child_nodes(parent)}
    if m.change in ("int-1", "int+1"):
        node.value += -1 if m.change == "int-1" else 1
    elif m.change.startswith("cmp"):
        k = int(m.change[3:])
        node.ops[k] = _FLIPPED[type(node.ops[k])]()
    elif m.change == "op":
        node.op = _SWAPPED[type(node.op)]()
    elif m.change == "not":
        _replace_child(parents[id(node)], node, node.operand)
    else:
        _replace_child(parents[id(node)], node, ast.copy_location(ast.Pass(), node))
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


# -- coverage: which tests reach which lines ------------------------------------


class _LineTracer:
    """A pytest plugin recording, per line of the target files, the test functions that ran it."""

    def __init__(self, files: list[str]):
        self.files = set(files)
        self.hits: dict[str, dict[int, set[str]]] = {f: defaultdict(set) for f in files}
        self.current: set[tuple[str, int]] = set()

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename in self.files else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.current.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def pytest_runtest_protocol(self, item, nextitem):
        self.current = set()
        sys.settrace(self._global)

    def pytest_runtest_logfinish(self, nodeid, location):
        sys.settrace(None)
        test = nodeid.split("[", 1)[0]
        for f, line in self.current:
            self.hits[f][line].add(test)


def _trace_run(files: list[str], out: str) -> None:
    """Run tier-1 here under the line tracer and write {file: {line: [test, ...]}} to ``out``."""
    import pytest

    tracer = _LineTracer(files)
    pytest.main(PYTEST[3:], plugins=[tracer])
    Path(out).write_text(json.dumps({f: {line: sorted(t) for line, t in h.items()} for f, h in tracer.hits.items()}))


def _copy_tree(dest: Path) -> None:
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".work-*", "out"))
        else:
            shutil.copy2(src, dest / name)


def _env(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def _run(tree: Path, tests: list[str], timeout: int) -> str:
    """'killed', 'timeout' or 'survived' for the tree as it stands."""
    try:
        p = subprocess.run(PYTEST + ["-x", *tests], cwd=tree, env=_env(tree), timeout=timeout,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if p.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="+", help="module names under src/adebps, e.g. localize verify")
    ap.add_argument("--work", required=True, type=Path, help="scratch directory for the copies of the tree")
    ap.add_argument("--functions-only", action="store_true", help="only sites inside function bodies")
    args = ap.parse_args(argv)

    sources = {mod: (ROOT / "src" / "adebps" / f"{mod}.py").read_text() for mod in args.modules}
    mutants = [m for mod in args.modules for m in enumerate_mutants(mod, sources[mod], args.functions_only)]

    base = args.work / "base"
    _copy_tree(base)
    files = {mod: str(base / "src" / "adebps" / f"{mod}.py") for mod in args.modules}
    coverage = args.work / "coverage.json"
    print(f"tracing tier-1 over {', '.join(args.modules)} ...", file=sys.stderr)
    trace = f"import mutants; mutants._trace_run({list(files.values())!r}, {str(coverage)!r})"
    env = dict(_env(base), PYTHONPATH=f"{base / 'src'}{os.pathsep}{ROOT / 'tools'}")
    subprocess.run([sys.executable, "-c", trace], cwd=base, env=env, stdout=subprocess.DEVNULL, check=True)
    hits = json.loads(coverage.read_text())
    for mod in args.modules:  # every mutant runs unparsed text, so check that it passes unmutated
        Path(files[mod]).write_text(ast.unparse(ast.parse(sources[mod])) + "\n")
    if _run(base, [], 10 * TIMEOUT) != "survived":
        print("tier-1 fails on the unparsed, unmutated copy; nothing to sweep", file=sys.stderr)
        return 1

    def selected(m: Mutant) -> list[str]:
        by_line = hits[files[m.module]]
        first, last = m.lines
        tests = set()
        for line in range(first, last + 1):
            tests.update(by_line.get(str(line), ()))
        own = f"tests/test_{m.module}.py"
        if not tests:
            return [own] if (ROOT / own).exists() else []
        return sorted(tests, key=lambda t: (not t.startswith(own), t))  # the module's own tests first

    trees: queue.Queue[Path] = queue.Queue()
    for k in range(WORKERS):  # copies of the tree that just passed, so no survivor fails for another reason
        tree = args.work / f"w{k}"
        shutil.rmtree(tree, ignore_errors=True)
        shutil.copytree(base, tree)
        trees.put(tree)

    def one(m: Mutant) -> str:
        tree = trees.get()
        target = tree / "src" / "adebps" / f"{m.module}.py"
        try:
            target.write_text(mutated_source(sources[m.module], m))
            outcome = _run(tree, selected(m), TIMEOUT)
            if outcome == "survived":
                outcome = _run(tree, [], TIMEOUT)
            return outcome
        finally:
            target.write_text(sources[m.module])
            trees.put(tree)

    with ThreadPoolExecutor(WORKERS) as pool:
        outcomes = []
        for k, outcome in enumerate(pool.map(one, mutants), 1):
            outcomes.append(outcome)
            if outcome == "survived" or k % 50 == 0:
                print(f"[{k}/{len(mutants)}] {outcome} {mutants[k - 1].module} {mutants[k - 1].text}", file=sys.stderr)
    for mod in args.modules:
        count = Counter(o for m, o in zip(mutants, outcomes) if m.module == mod)
        total = sum(count.values())
        print(f"{mod}: {count['killed'] + count['timeout']} ({count['timeout']}) / {count['survived']} of {total}")
    for m, o in zip(mutants, outcomes):
        if o == "survived":
            print(f"  survived {m.module} {m.text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
