"""familykit's one runtime dependency is numpy: every module imports only the
standard library, numpy or familykit itself. scipy and other packages may be
installed next to it but are not declared, so an import of one would break
an install that has only what pyproject.toml asks for. Every module-level
import is also used: one that is not is left over from deleted code. So is
a top-level name of src that only tests reach: src or the benchmark must
use each one. Foreign calls stay behind one module: only `tensor` imports
`ctypes`. So do threads: only `parallel` imports `concurrent` or
`threading`. Every Hypothesis test in tests/ is derandomized: a failing
example that a random run draws is stored under `.hypothesis/` and replayed
by every later run in that checkout, so a flaky example would fail the suite
there for good."""

import ast
import re
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "familykit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "familykit"}


def _absolute_imports():
    """(module file name, top-level package) for every absolute import in src."""
    for module in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((module.name, n.split(".")[0]) for n in names)


def test_src_imports_only_stdlib_and_numpy():
    foreign = [f"{module}: {name}" for module, name in _absolute_imports()
               if name not in ALLOWED]
    assert not foreign, foreign


def test_one_module_makes_foreign_calls():
    assert {module for module, name in _absolute_imports() if name == "ctypes"} == {"tensor.py"}


def test_one_module_starts_threads():
    assert {module for module, name in _absolute_imports()
            if name in ("concurrent", "threading")} == {"parallel.py"}


# modules whose imports are their API: the package exports and the kernel namespace
REEXPORTS = {"__init__.py", "kernels.py"}


def test_src_module_imports_are_used():
    unused = []
    for module in sorted(SRC.glob("*.py")):
        if module.name in REEXPORTS:
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{module.name}: {name}" for name in bound if name not in used]
    assert not unused, unused


def _called(decorator: ast.expr, name: str) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else None
    return getattr(func, "id", getattr(func, "attr", None)) == name


def test_hypothesis_tests_are_derandomized():
    random = []
    for module in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            decorators = getattr(node, "decorator_list", [])
            if not any(_called(d, "given") for d in decorators):
                continue
            if not any(_called(d, "settings") and any(
                    k.arg == "derandomize" and getattr(k.value, "value", None) is True
                    for k in d.keywords) for d in decorators):
                random.append(f"{module.name}: {node.name}")
    assert not random, random


BENCHMARK = TESTS.parent / "benchmark"


def _top_level_names(tree: ast.Module):
    """(name, first line, last line) of every top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node.lineno, node.end_lineno)
                        for t in targets if isinstance(t, ast.Name))


def _references(tree: ast.Module, strings: bool):
    """(identifier, line) of every name read, attribute and imported name;
    with `strings`, also of every identifier inside a string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from ((word, node.lineno) for word in re.findall(r"\w+", node.value))


# import-time status for the user, documented in the README: None, or why a
# process-wide setting of `tensor` did not apply
STATUS_FLAGS = {"HEAP_NOT_KEPT", "BLAS_NOT_PINNED"}


def test_src_names_are_used_outside_tests():
    """Every top-level function, class and constant of src but the status
    flags is referenced by another line of src or by the benchmark, the
    strings it traces by included; the package's re-exports do not count.
    A name that only tests reach is code that nothing runs."""
    modules = {m.name: ast.parse(m.read_text(encoding="utf-8"))
               for m in sorted(SRC.glob("*.py")) if m.name != "__init__.py"}
    used_in_benchmark = {word for path in sorted(BENCHMARK.glob("*.py")) for word, _ in
                         _references(ast.parse(path.read_text(encoding="utf-8")), True)}
    used_in_src: dict[str, list[tuple[str, int]]] = {}  # identifier -> (module, line)
    for module, tree in modules.items():
        for word, line in _references(tree, False):
            used_in_src.setdefault(word, []).append((module, line))
    unused = []
    for module, tree in modules.items():
        for name, first, last in _top_level_names(tree):
            elsewhere = any(other != module or not first <= line <= last
                            for other, line in used_in_src.get(name, ()))
            if not elsewhere and name not in used_in_benchmark | STATUS_FLAGS:
                unused.append(f"{module}: {name}")
    assert not unused, unused
