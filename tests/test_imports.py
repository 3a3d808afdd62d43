"""Every name a module of the package imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hfrac"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def referenced_names(tree: ast.Module) -> set[str]:
    """Every bare name the module reads, counting the names inside string
    annotations (``-> "FMatrix"``)."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = referenced_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # ``__init__`` imports names to export them
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(modules) > 10
    stale = {path.name: found for path in modules if (found := unused_imports(path.read_text()))}
    assert stale == {}


def test_the_check_sees_plain_and_annotation_uses():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .gfmat import FMatrix, hstack, rank\n"
        "from typing import Sequence\n"
        "def f(m: 'FMatrix') -> list['Sequence[int]']:\n"
        "    return np.zeros(rank(m))\n"
    )
    assert unused_imports(source) == [(3, "hstack")]
