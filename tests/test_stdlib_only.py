"""The runtime depends on the Python standard library alone."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "convexion"


def test_absolute_imports_are_stdlib_or_convexion():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "convexion" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert not outside, outside
