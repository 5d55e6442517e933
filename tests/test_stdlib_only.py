"""The runtime depends on the Python standard library alone, and on none
of the modules that would slow every command-line job's start-up."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "convexion"


def _absolute_imports():
    """(path relative to SRC, module name) for every absolute import in the
    package, subpackages included."""
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.relative_to(SRC).as_posix(), name


def test_absolute_imports_are_stdlib_or_convexion():
    outside = []
    for path, name in _absolute_imports():
        top = name.split(".")[0]
        if top != "convexion" and top not in sys.stdlib_module_names:
            outside.append(f"{path}: {name}")
    assert not outside, outside


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect, and each class it builds costs a job
    # about as much again; records are __slots__ classes (convexion.record)
    found = [f"{path}: {name}" for path, name in _absolute_imports() if name.split(".")[0] == "dataclasses"]
    assert not found, found
