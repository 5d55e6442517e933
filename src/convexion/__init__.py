"""convexion: exact-arithmetic computational convex algebra.

Finite distributions over a semiring, finitely presented convex sets with a
certificate-producing equality engine, the join and the convex tensor
product, the convexity PROP and quasiconvexity operad, classical and convex
Grothendieck constructions, entropy-axiom verification, and desk-scale
simplicial distributions.

The names below are read from their modules on first access (PEP 562), so
``import convexion`` loads no submodule and a command-line job loads only
the modules its verb uses.
"""

__version__ = "0.1.0"

#: The largest step bound of eq and --bound (its last LP has bound + 1 rows
#: per generator); here so that cli checks --bound without loading presentation.
MAX_STEP_BOUND = 256

# public name -> the submodule that defines it
_EXPORTS = {
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

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
