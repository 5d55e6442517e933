"""The package root: each public name is read from its module on first
access, and a bare import loads no submodule.  Every name a module
annotates with is bound in it."""

import ast
import builtins
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import convexion

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
)

# public name -> the module that defines it
DEFINED_IN = {
    "FiniteDistribution": "distribution",
    "delta": "distribution",
    "pushforward": "distribution",
    "flatten": "distribution",
    "convex_combine": "distribution",
    "Presentation": "presentation",
    "PresentedElement": "presentation",
    "ConvexMap": "presentation",
    "EqualityVerdict": "presentation",
    "eq": "presentation",
    "quotient_mix": "presentation",
    "induce_map": "presentation",
    "hom_combine": "presentation",
    "verify_verdict": "presentation",
    "RATIONAL": "semiring",
    "BOOLEAN": "semiring",
}


def test_import_loads_no_submodule():
    code = "import sys, convexion; print(sorted(m for m in sys.modules if m.startswith('convexion.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_all_names_the_version_and_every_public_name():
    assert sorted(convexion.__all__) == sorted(["__version__", *DEFINED_IN])
    assert convexion.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(DEFINED_IN))
def test_public_name_is_the_object_of_its_module(name):
    module = importlib.import_module(f"convexion.{DEFINED_IN[name]}")
    assert getattr(convexion, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from convexion import *", namespace)
    for name in convexion.__all__:
        assert namespace[name] is getattr(convexion, name)


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        convexion.no_such_name
    assert not hasattr(convexion, "no_such_name")


def _module_bindings(body):
    """The names that the statements body bind at module level, looking
    into if blocks (so an `if TYPE_CHECKING:` import counts)."""
    names = set()
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, ast.If):
            names |= _module_bindings(node.body) | _module_bindings(node.orelse)
    return names


def _annotations(tree):
    """Every annotation expression in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


PACKAGE = pathlib.Path(SRC, "convexion")


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.rglob("*.py")),
    ids=lambda p: p.relative_to(PACKAGE).with_suffix("").as_posix(),
)
def test_every_annotation_name_is_bound(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _module_bindings(tree.body) | set(dir(builtins))
    unbound = set()
    for annotation in _annotations(tree):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval")
        unbound.update(n.id for n in ast.walk(annotation) if isinstance(n, ast.Name) and n.id not in bound)
    assert not unbound, f"{path.stem} annotates with unbound names {sorted(unbound)}"
