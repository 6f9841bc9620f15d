"""familykit's one runtime dependency is numpy: every module imports only the
standard library, numpy or familykit itself. scipy and other packages may be
installed next to it but are not declared, so an import of one would break
an install that has only what pyproject.toml asks for."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "familykit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "familykit"}


def test_src_imports_only_stdlib_and_numpy():
    foreign = []
    for module in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{module.name}: {n}" for n in names
                        if n.split(".")[0] not in ALLOWED]
    assert not foreign, foreign
