"""Every name a socialbench package exports in __all__ resolves, and every
name the source defines is used somewhere."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import socialbench

PACKAGES = ["socialbench"] + [info.name for info in pkgutil.walk_packages(
    socialbench.__path__, "socialbench.") if info.ispkg]

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "demos", "bench")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__), package
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _uses(tree) -> Counter:
    """Names read and attributes accessed in tree; imports and __all__
    entries are not uses."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def _definitions(tree):
    """The module's functions, classes, their methods, and UPPER_CASE
    constants, each with the node that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node


def test_every_defined_name_is_used():
    """A name used only inside its own definition is dead code."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in SEARCHED for path in sorted((ROOT / folder).rglob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(_uses(tree))
    dead = [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
            for path, tree in trees.items() if path.is_relative_to(ROOT / "src")
            for name, node in _definitions(tree)
            if not (name.startswith("__") and name.endswith("__"))
            and uses[name] == _uses(node)[name]]
    assert dead == []


def _bench_imports():
    """(file, module, name) for every `from socialbench... import name`
    in bench/*.py, imports inside functions included."""
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "socialbench"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_name_the_benchmark_imports_resolves():
    """The benchmark's interface is frozen: a name it imports from the
    package must not go."""
    imports = list(_bench_imports())
    assert imports
    missing = [f"{file}: from {module} import {name}" for file, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
