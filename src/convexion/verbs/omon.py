"""omon: O-monoidal structures, lax O-monoidal functors and their
Grothendieck construction."""

from fractions import Fraction

from .. import jsonio
from ..cli import _checked, _factors, _object_pair
from ..distribution import FiniteDistribution

F = Fraction


def _lax_functor_from_job(job):
    from ..omonoidal import dist_lax_functor, mixture_lax_functor

    kind = job.get("functor", "dist").value
    if kind == "dist":
        max_size = job.get("max_size", 6)
        return max_size.build(dist_lax_functor, max_size.expect(int))
    if kind == "mixture":
        return mixture_lax_functor(job.get("carrier", ["x", "y"]).names())
    raise job["functor"].error(f"unknown lax functor kind {kind!r}")


def _objects(field, functor):
    """The items of the list field, each an object of functor."""
    for o in field.items():
        if not isinstance(o.value, str) or o.value not in functor.functor.on_objects:
            raise o.error(f"{o.value!r} is not an object of the functor")
    return field.value


def _sample_elements(rng, pres, count):
    out = []
    for _ in range(count):
        cuts = [rng.randint(0, 3) for _ in pres.generators]
        if sum(cuts) == 0:
            cuts[0] = 1
        weights = {g: F(c, sum(cuts)) for g, c in zip(pres.generators, cuts) if c}
        out.append(pres.element(FiniteDistribution(weights)))
    return out


def omon_star_alpha(job, ctx):
    from ..matprop import QConvOp
    from ..omonoidal import star_alpha

    alpha = job["alpha"].build(QConvOp, job.rationals("alpha"))
    out = star_alpha(alpha, _factors(job))
    return {"presentation": jsonio.encode_presentation(out)}


def omon_trivial_structure(job, ctx):
    from ..matprop import QConvOp
    from ..omonoidal import QCONV, SymmetricMonoidalData, trivial_structure

    base = jsonio.decode_category(job["category"])
    table = {}
    for key, value in job["tensor"].entries():
        pair = _object_pair(key, value, base.objects)
        if value.value not in base.objects:
            raise value.error(f"{value.value!r} is not an object")
        table[pair] = value.value
    unit = job.get("unit").value
    if unit is not None and unit not in base.objects:
        raise job["unit"].error(f"{unit!r} is not an object")

    def nfold(objs):
        acc = objs[0]
        for other in objs[1:]:
            if (acc, other) not in table:
                raise job["tensor"].error(f"no entry for {acc},{other}")
            acc = table[(acc, other)]
        return acc

    sym = SymmetricMonoidalData(base, nfold, unit_object=unit)
    omon = trivial_structure(sym, QCONV)
    samples = [
        [list(pair), omon.tensor_objects(QConvOp(["1/2", "1/2"]), pair)]
        for pair in [(a, b) for a in base.objects for b in base.objects]
    ]
    return {"validated": True, "binary_tensor": samples}


def omon_check_lax(job, ctx):
    import random

    from ..matprop import QConvOp
    from ..omonoidal import LaxInstance, check_lax

    functor = _lax_functor_from_job(job)
    rng = random.Random(ctx["seed"])
    instances = []
    for raw in job.get("instances", []).items():
        outer = jsonio.decode_qconv(raw["operation"])
        if raw.get("inner").value is None:
            inner_ops = [QConvOp.unit() for _ in range(outer.arity)]
        else:
            inner_ops = [jsonio.decode_qconv(x) for x in raw["inner"].items()]
            if len(inner_ops) != outer.arity:
                raise raw["inner"].error(f"expected {outer.arity} operations, one per input")
        obj_list = _objects(raw["objects"], functor)
        if len(obj_list) != sum(op_i.arity for op_i in inner_ops):
            raise raw["objects"].error("expected one object per input of the inner operations")
        blocks = []
        pos = 0
        for op_i in inner_ops:
            blocks.append(tuple(obj_list[pos : pos + op_i.arity]))
            pos += op_i.arity
        elements = tuple(
            tuple(_sample_elements(rng, functor.fibre(o), 1)[0] for o in block)
            for block in blocks
        )
        instances.append(LaxInstance(outer, tuple(inner_ops), tuple(blocks), elements))
    units = _objects(job.get("unit_objects", []), functor)
    failures = [str(f) for f in check_lax(functor, instances, unit_objects=units)]
    ok = not failures
    return _checked(ok, {"checked": len(units) + len(instances), "ok": ok, "failures": failures})


def omon_o_grothendieck(job, ctx):
    import random

    from ..omonoidal import o_grothendieck

    functor = _lax_functor_from_job(job)
    fib = o_grothendieck(functor)
    rng = random.Random(ctx["seed"])
    results = []
    ok = True
    for raw in job.get("instances", []).items():
        operation = jsonio.decode_qconv(raw["operation"])
        objs = _objects(raw["objects"], functor)
        pairs = [(o, _sample_elements(rng, functor.fibre(o), 1)[0]) for o in objs]
        strict = fib.strictness_holds(operation, pairs)
        slot = rng.randrange(len(objs))
        variants = _sample_elements(rng, functor.fibre(objs[slot]), 2)
        nconv = fib.nconvex_in_slot(operation, pairs, slot, [F(1, 3), F(2, 3)], variants)
        recover = fib.recovers_functor(operation, tuple(objs))
        results.append({"operation": jsonio.encode_qconv(operation), "strict": strict,
                        "n_convex": nconv, "recovers": recover})
        ok = ok and strict and nconv and recover
    return _checked(ok, {"instances": results, "ok": ok})
