"""The package root: each public name is read from its module on first
access, and a bare import loads no submodule."""

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
