"""groth: the classical and the convex Grothendieck constructions."""

from .. import jsonio
from ..cli import _checked


def groth_grothendieck(job, ctx):
    from ..category import grothendieck, is_discrete_fibration

    base = jsonio.decode_category(job["category"])
    fib = grothendieck(jsonio.decode_set_functor(job["functor"], base))
    total = jsonio.encode_category(fib.total)
    return {"total": total, "is_discrete_fibration": is_discrete_fibration(fib)}


def _fibration(job):
    from ..category import FibrationData

    base = jsonio.decode_category(job["category"])
    total = jsonio.decode_category(job["total"])
    projections = [dict(job[f"{k}_projection"].name_table()) for k in ("object", "morphism")]
    return FibrationData(total, base, *projections)


def groth_is_discrete_fibration(job, ctx):
    from ..category import is_discrete_fibration

    return {"is_discrete_fibration": is_discrete_fibration(_fibration(job))}


def groth_extract_functor(job, ctx):
    from ..category import extract_functor

    functor = extract_functor(_fibration(job))
    return {
        "on_objects": {
            jsonio.element_label(c): [jsonio.element_label(x) for x in xs]
            for c, xs in functor.on_objects.items()
        }
    }


def groth_convex_grothendieck(job, ctx):
    from ..category import check_fibrewise_equations, convex_grothendieck

    base = jsonio.decode_category(job["category"])
    functor = jsonio.decode_cset_functor(job["functor"], base)
    cfib = convex_grothendieck(functor)
    samples = []
    for raw in job.get("samples", []).items():
        name = raw.typed("morphism", str)
        if name not in base.morphisms:
            raise raw["morphism"].error(f"{name!r} is not a morphism")
        pres = cfib.fibre_presentation(base.morphisms[name].src)
        alpha = raw.rationals("alpha")
        xs = [jsonio.decode_element(d, pres) for d in raw["elements"].items()]
        samples.append((name, alpha, xs))
    failures = check_fibrewise_equations(cfib, samples)
    result = {
        "fibrewise_equations_hold": not failures,
        "failures": [list(map(str, f)) for f in failures],
        "recognized_finite": cfib.recognized_finite(),
    }
    return _checked(not failures, result)
