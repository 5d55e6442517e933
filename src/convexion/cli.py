"""Command-line front door.

Every operation is a plain function registered once, next to its body, in
the table OPS under its (verb, op) key.  Dispatch, the parser's verbs and
each verb's --help list are read from that table, and the test suite checks
its coverage against it: one sample job per key, and every module operation
reached by running them.  Most verbs take a --job JSON file whose "op" field
selects the operation, with inline arguments per the schemas in jsonio; eq
also accepts the direct flag form, the entropy ops are subcommands with
their own flags, and selfcheck takes none.  A handler reads its job, and
every JSON file the entropy ops name, only through jsonio.Job, the one
reader, and passes its sub-readers to the decoders, so each malformed-input
diagnostic begins with the JSON path of the offending value; a library
error that no decoder reports at a path spans several fields of the job,
and reads "<op> job: ClassName: message".  Reports are
canonical JSON (sorted keys, lowest-terms rationals) and always carry the
tool version, the --bound value, and the assumption flags relevant to the
operation.  --bound is eq eq's step bound and no other op reads it: the
constructions decide equality in the quotient exactly (same_class).  Every handler imports the modules it uses, so a
job loads only its verb's modules.

Exit codes: 0 success / all checks passed; 1 a check failed (the report is
still written); 2 malformed input.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import __version__, jsonio
from .distribution import FiniteDistribution, convex_combine, delta, flatten, pushforward
from .errors import ConvexionError, ParseError, RelationViolated
from .semiring import RATIONAL

F = Fraction

#: Deviations from the literal source formulas, surfaced in reports.
ASSUMPTION_FLAGS = {
    "info_loss_sign": "source_minus_target",
    "m_product": "p(x)q(y)",
    "join_mix": "renormalized_weights",
    "counterexample_value": "from_definitions",
}

#: (verb, op) -> handler(job, ctx).  The handlers of the entropy ops and of
#: selfcheck get the argparse namespace in place of a job.
OPS = {}

#: (verb, op) -> the argparse (flag, options) pairs that an entropy
#: subcommand adds; empty for the other ops.
FLAGS = {}


def op(verb, name, *flags):
    """Register the decorated handler as the operation name of verb."""

    def register(handler):
        OPS[(verb, name)] = handler
        FLAGS[(verb, name)] = flags
        return handler

    return register


class CheckFailure(Exception):
    """A well-formed computation whose verification did not pass."""

    def __init__(self, result):
        super().__init__("check failed")
        self.result = result


def _checked(ok, result):
    """result, or CheckFailure(result) (exit 1) when ok is false."""
    if not ok:
        raise CheckFailure(result)
    return result


def _object_pair(key, at, objects):
    """The pair (a, b) that the key 'a,b' of the entry at names, both of
    them among objects."""
    pair = tuple(key.split(","))
    if len(pair) != 2 or not set(pair) <= set(objects):
        raise at.error("expected a key 'a,b' naming two objects")
    return pair


def _factors(job):
    """The presentations of the list field "factors"."""
    return [jsonio.decode_presentation(p) for p in job["factors"].items()]


def _distribution(out):
    return {"distribution": jsonio.encode_distribution(out)}


def _induced(build, report_pair):
    """(build(), None), or (None, the refusal's report) when build raises
    RelationViolated (with its pair if report_pair)."""
    try:
        return build(), None
    except RelationViolated as exc:
        refusal = {"accepted": False, "reason": "relation_violated"}
        if report_pair:
            refusal["pair"] = [jsonio.encode_distribution(side) for side in exc.pair]
        return None, refusal


# -- dist ---------------------------------------------------------------------------


@op("dist", "delta")
def dist_delta(job, ctx):
    semiring = jsonio.semiring_of(job)
    return _distribution(delta(job.typed("element", str), semiring))


@op("dist", "pushforward")
def dist_pushforward(job, ctx):
    fmap = {el: image.expect(str) for el, image in job["map"].entries()}
    return _distribution(pushforward(fmap, jsonio.decode_distribution(job["dist"])))


@op("dist", "flatten")
def dist_flatten(job, ctx):
    semiring = jsonio.semiring_of(job)
    outer = {}
    for item in job["outer"].items():
        inner = jsonio.decode_distribution(item["dist"], semiring)
        w = item["weight"].literal(semiring)
        outer[inner] = semiring.add(outer.get(inner, semiring.zero()), w)
    return _distribution(flatten(FiniteDistribution(outer, semiring)))


@op("dist", "convex_combine")
def dist_convex_combine(job, ctx):
    alpha = job.rationals("alpha")
    dists = [jsonio.decode_distribution(d) for d in job["dists"].items()]
    return _distribution(convex_combine(alpha, dists))


# -- eq -----------------------------------------------------------------------------


@op("eq", "eq")
def eq_eq(job, ctx):
    from .presentation import eq, verify_verdict

    pres = jsonio.decode_presentation(job["presentation"])
    lhs, rhs = jsonio.decode_element(job["lhs"], pres), jsonio.decode_element(job["rhs"], pres)
    verdict = eq(lhs, rhs, job.get("bound", ctx["bound"]).nonnegative_int())
    return {
        "verdict": jsonio.encode_verdict(verdict, pres),
        "verified": verify_verdict(verdict, lhs, rhs),
    }


@op("eq", "quotient_mix")
def eq_quotient_mix(job, ctx):
    from .presentation import quotient_mix

    pres = jsonio.decode_presentation(job["presentation"])
    alpha = job.rationals("alpha")
    elements = [jsonio.decode_element(d, pres) for d in job["elements"].items()]
    return {"element": jsonio.encode_distribution(quotient_mix(alpha, elements).rep)}


@op("eq", "induce_map")
def eq_induce_map(job, ctx):
    from .presentation import induce_map

    src = jsonio.decode_presentation(job["source"])
    tgt = jsonio.decode_presentation(job["target"])
    table = job["assignment"]
    assignment = {g: jsonio.decode_element(d, tgt) for g, d in table.entries()}
    fmap, refusal = table.build(_induced, lambda: induce_map(src, tgt, assignment), True)
    if refusal:
        return refusal
    result = {"accepted": True}
    if "apply_to" in job:
        x = jsonio.decode_element(job["apply_to"], src)
        result["value"] = jsonio.encode_distribution(fmap(x).rep)
    return result


@op("eq", "hom_combine")
def eq_hom_combine(job, ctx):
    from .presentation import hom_combine

    src = jsonio.decode_presentation(job["source"])
    tgt = jsonio.decode_presentation(job["target"])
    maps = [jsonio.decode_convex_map(table, src, tgt) for table in job["assignments"].items()]
    mixed = hom_combine(job.rationals("alpha"), maps)
    assignment = {g: jsonio.encode_distribution(mixed.on_generator(g).rep) for g in src.generators}
    result = {"assignment": assignment}
    if "apply_to" in job:
        x = jsonio.decode_element(job["apply_to"], src)
        result["value"] = jsonio.encode_distribution(mixed(x).rep)
    return result


@op("eq", "verify")
def eq_verify(job, ctx):
    from .presentation import verify_verdict

    pres = jsonio.decode_presentation(job["presentation"])
    lhs, rhs = jsonio.decode_element(job["lhs"], pres), jsonio.decode_element(job["rhs"], pres)
    verdict = jsonio.decode_verdict(job["verdict"], pres)
    ok = verify_verdict(verdict, lhs, rhs)
    return _checked(ok, {"verified": ok})


# -- join ----------------------------------------------------------------------------


def _join_space(job):
    from .join import JoinSpace

    return JoinSpace(*(jsonio.decode_presentation(job[f"{s}_presentation"]) for s in "xy"))


@op("join", "join_point")
def join_join_point(job, ctx):
    pt = jsonio.decode_join_element(job["point"], _join_space(job))
    return {"point": jsonio.encode_join_element(pt), "assumptions_used": []}


@op("join", "join_mix")
def join_join_mix(job, ctx):
    from .join import join_mix

    space = _join_space(job)
    beta = job.rationals("beta")
    pts = [jsonio.decode_join_element(p, space) for p in job["points"].items()]
    point = jsonio.encode_join_element(join_mix(beta, pts))
    return {"point": point, "assumptions_used": ["join_mix"]}


@op("join", "copair")
def join_copair(job, ctx):
    from .join import copair

    space = _join_space(job)
    tgt = jsonio.decode_presentation(job["target"])
    f = jsonio.decode_convex_map(job["f"], space.x_factor, tgt)
    g = jsonio.decode_convex_map(job["g"], space.y_factor, tgt)
    h = copair(f, g)
    pt = jsonio.decode_join_element(job["point"], h.space)
    return {"value": jsonio.encode_distribution(h(pt).rep)}


# -- tensor ---------------------------------------------------------------------------


@op("tensor", "tensor")
def tensor_tensor(job, ctx):
    from .tensor import tensor

    return {"presentation": jsonio.encode_presentation(tensor(_factors(job)))}


@op("tensor", "universal_map")
def tensor_universal_map(job, ctx):
    from .tensor import universal_map

    factors = _factors(job)
    xs = [jsonio.decode_element(d, f) for f, d in zip(factors, job["elements"].items())]
    return {"element": jsonio.encode_distribution(universal_map(factors, xs).rep)}


@op("tensor", "extend_multiconvex")
def tensor_extend_multiconvex(job, ctx):
    from .tensor import extend_multiconvex, restrict_multiconvex, universal_map

    spec = jsonio.decode_nconvex_spec(job["spec"])
    fmap, refusal = _induced(lambda: extend_multiconvex(spec), False)
    if refusal:
        return refusal
    result = {"accepted": True}
    if "elements" in job:
        xs = [jsonio.decode_element(d, f) for f, d in zip(spec.factors, job["elements"].items())]
        out = fmap(universal_map(list(spec.factors), xs))
        result["value"] = jsonio.encode_distribution(out.rep)
    result["restriction"] = jsonio.encode_nconvex_spec(restrict_multiconvex(fmap))
    return result


@op("tensor", "coherence")
def tensor_coherence(job, ctx):
    from .tensor import coherence

    factors = _factors(job)
    iso = coherence(job["kind"].value, factors)
    round_trips = all(
        iso.back(iso.fwd(iso.fwd.src.delta(g))) == iso.fwd.src.delta(g)
        for g in iso.fwd.src.generators
    )
    return {
        "source": jsonio.encode_presentation(iso.fwd.src),
        "target": jsonio.encode_presentation(iso.fwd.tgt),
        "two_sided_inverse": round_trips,
    }


@op("tensor", "counterexample")
def tensor_counterexample(job, ctx):
    from .tensor import check_biconvex_not_convex_counterexample

    report = check_biconvex_not_convex_counterexample()
    result = {
        "biconvex_value": jsonio.encode_distribution(report.biconvex_value),
        "convex_hypothesis_value": jsonio.encode_distribution(report.convex_hypothesis_value),
        "unequal": report.unequal,
        "note": report.value_note,
        "assumptions_used": ["counterexample_value"],
    }
    return _checked(report.unequal, result)


@op("tensor", "enriched_bridge")
def tensor_enriched_bridge(job, ctx):
    from .tensor import BiconvexCategory, enriched_bridge, enriched_inverse

    objects = tuple(o.expect(str) for o in job["objects"].items())
    hom = {
        _object_pair(key, value, objects): jsonio.decode_presentation(value)
        for key, value in job["hom"].entries()
    }

    def hom_at(at, a, b):
        if (a, b) not in hom:
            raise at.error(f"hom has no entry {a + ',' + b!r}")
        return hom[(a, b)]

    identities = {
        k: jsonio.decode_element(v, hom_at(v, k, k)) for k, v in job["identities"].entries()
    }
    for o in objects:
        if o not in identities:
            raise job["identities"].error(f"object {o!r} has no identity")
    composition = {}
    for key, rows in job["composition"].entries():
        triple = tuple(key.split(","))
        if len(triple) != 3:
            raise rows.error("expected a key 'a,b,c' naming three objects")
        a, b, c = triple
        hom_at(rows, a, b)
        hom_at(rows, b, c)
        target = hom_at(rows, a, c)
        table = {}
        for row in rows.items():
            pair = row.typed("pair", list)
            if len(pair) != 2 or not all(isinstance(g, str) for g in pair):
                raise row["pair"].error("expected two generator names")
            table[tuple(pair)] = jsonio.decode_element(row["value"], target)
        composition[triple] = table
    for a, b in hom:
        for c in objects:
            if (b, c) in hom and (a, b, c) not in composition:
                raise job["composition"].error(f"no table for {a + ',' + b + ',' + c!r}")
    cat = BiconvexCategory(objects, hom, identities, composition)
    back = enriched_inverse(enriched_bridge(cat))
    round_trip = back.composition == cat.composition
    return _checked(round_trip, {"round_trip": round_trip})


# -- prop ------------------------------------------------------------------------------


@op("prop", "is_convex_matrix")
def prop_is_convex_matrix(job, ctx):
    from .matprop import is_convex_matrix

    return {"convex": is_convex_matrix(jsonio.decode_matrix(job["matrix"]))}


@op("prop", "compose")
def prop_compose(job, ctx):
    from .matprop import compose

    out = compose(jsonio.decode_matrix(job["left"]), jsonio.decode_matrix(job["right"]))
    return {"matrix": jsonio.encode_matrix(out)}


@op("prop", "direct_sum")
def prop_direct_sum(job, ctx):
    from .matprop import direct_sum

    out = direct_sum(jsonio.decode_matrix(job["left"]), jsonio.decode_matrix(job["right"]))
    return {"matrix": jsonio.encode_matrix(out)}


@op("prop", "permute")
def prop_permute(job, ctx):
    from .matprop import permute

    tau, sigma = job.typed("tau", list), job.typed("sigma", list)
    if not all(type(i) is int for i in tau + sigma):
        raise ParseError("tau, sigma: expected lists of indices")
    out = permute(tuple(tau), jsonio.decode_matrix(job["matrix"]), tuple(sigma))
    return {"matrix": jsonio.encode_matrix(out)}


@op("prop", "qconv_compose")
def prop_qconv_compose(job, ctx):
    from .matprop import qconv_compose

    outer = jsonio.decode_qconv(job["outer"])
    inner = [jsonio.decode_qconv(x) for x in job["inner"].items()]
    return {"operation": jsonio.encode_qconv(qconv_compose(outer, inner))}


@op("prop", "algebra_apply")
def prop_algebra_apply(job, ctx):
    from .matprop import algebra_apply

    pres = jsonio.decode_presentation(job["presentation"])
    matrix = jsonio.decode_matrix(job["matrix"])
    xs = [jsonio.decode_element(d, pres) for d in job["elements"].items()]
    out = algebra_apply(pres, matrix, xs)
    return {"elements": [jsonio.encode_distribution(e.rep) for e in out]}


# -- groth ------------------------------------------------------------------------------


@op("groth", "grothendieck")
def groth_grothendieck(job, ctx):
    from .category import grothendieck, is_discrete_fibration

    base = jsonio.decode_category(job["category"])
    fib = grothendieck(jsonio.decode_set_functor(job["functor"], base))
    total = jsonio.encode_category(fib.total)
    return {"total": total, "is_discrete_fibration": is_discrete_fibration(fib)}


def _fibration(job):
    from .category import FibrationData

    base = jsonio.decode_category(job["category"])
    total = jsonio.decode_category(job["total"])
    projections = [dict(job[f"{k}_projection"].name_table()) for k in ("object", "morphism")]
    return FibrationData(total, base, *projections)


@op("groth", "is_discrete_fibration")
def groth_is_discrete_fibration(job, ctx):
    from .category import is_discrete_fibration

    return {"is_discrete_fibration": is_discrete_fibration(_fibration(job))}


@op("groth", "extract_functor")
def groth_extract_functor(job, ctx):
    from .category import extract_functor

    functor = extract_functor(_fibration(job))
    return {
        "on_objects": {
            jsonio.element_label(c): [jsonio.element_label(x) for x in xs]
            for c, xs in functor.on_objects.items()
        }
    }


@op("groth", "convex_grothendieck")
def groth_convex_grothendieck(job, ctx):
    from .category import check_fibrewise_equations, convex_grothendieck

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


# -- omon -------------------------------------------------------------------------------


def _lax_functor_from_job(job):
    from .omonoidal import dist_lax_functor, mixture_lax_functor

    kind = job.get("functor", "dist").value
    if kind == "dist":
        return dist_lax_functor(job.typed("max_size", int, 6))
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


@op("omon", "star_alpha")
def omon_star_alpha(job, ctx):
    from .matprop import QConvOp
    from .omonoidal import star_alpha

    alpha = QConvOp(job.rationals("alpha"))
    out = star_alpha(alpha, _factors(job))
    return {"presentation": jsonio.encode_presentation(out)}


@op("omon", "trivial_structure")
def omon_trivial_structure(job, ctx):
    from .matprop import QConvOp
    from .omonoidal import QCONV, SymmetricMonoidalData, trivial_structure

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


@op("omon", "check_lax")
def omon_check_lax(job, ctx):
    import random

    from .matprop import QConvOp
    from .omonoidal import LaxInstance, check_lax

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
    report = check_lax(functor, instances, unit_objects=units)
    failures = [str(f) for f in report.failures]
    return _checked(report.ok, {"checked": report.checked, "ok": report.ok, "failures": failures})


@op("omon", "o_grothendieck")
def omon_o_grothendieck(job, ctx):
    import random

    from .omonoidal import o_grothendieck

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


# -- twist -------------------------------------------------------------------------------


def _space_and_group(job):
    from .simplicial import standard_circle, standard_point

    payload = job["space"]
    if "standard" in payload:
        name = payload["standard"].value
        n_max = payload.typed("N", int, 2)
        if name == "circle":
            space = payload.build(standard_circle, n_max)
        elif name == "point":
            space = payload.build(standard_point, n_max)
        else:
            raise payload["standard"].error(f"unknown standard space {name!r}")
    else:
        space = jsonio.decode_simplicial_set(payload)
    return space, jsonio.decode_simplicial_group(job["group"])


def _bundle(job, key, space, group):
    """The twisting function at job[key] and its twisted product."""
    from .simplicial import twisted_product

    twist = jsonio.decode_twist(job[key], space, group)
    return twist, twisted_product(group, twist, space)


@op("twist", "twisted_product")
def twist_twisted_product(job, ctx):
    _, bundle = _bundle(job, "twist", *_space_and_group(job))
    return {
        "levels": [len(lv) for lv in bundle.total.levels],
        "total": jsonio.encode_simplicial_set(bundle.total),
        "principal": True,  # the constructor validates
    }


@op("twist", "check_distribution")
def twist_check_distribution(job, ctx):
    from .simplicial import check_simplicial_distribution

    _, bundle = _bundle(job, "twist", *_space_and_group(job))
    p = jsonio.decode_sdist(job["distribution"], bundle)
    report = check_simplicial_distribution(p, bundle)
    failures = [list(map(str, f)) for f in report.failures]
    return _checked(report.ok, {"ok": report.ok, "failures": failures})


@op("twist", "bundle_tensor")
def twist_bundle_tensor(job, ctx):
    from .simplicial import bundle_iso_valid, bundle_tensor, twist_addition_iso, twisted_product

    space, group = _space_and_group(job)
    t1, b1 = _bundle(job, "twist1", space, group)
    t2, b2 = _bundle(job, "twist2", space, group)
    tensored = bundle_tensor(b1, b2)
    target = twisted_product(group, t1 + t2, space)
    iso_ok = bundle_iso_valid(tensored, target, twist_addition_iso(tensored, target))
    result = {"realizes_twist_addition": iso_ok, "sum_twist": jsonio.encode_twist(t1 + t2)}
    return _checked(iso_ok, result)


@op("twist", "mu_product")
def twist_mu_product(job, ctx):
    from .simplicial import check_simplicial_distribution, mu_product

    space, group = _space_and_group(job)
    _, b1 = _bundle(job, "twist1", space, group)
    _, b2 = _bundle(job, "twist2", space, group)
    product = mu_product(jsonio.decode_sdist(job["p"], b1), jsonio.decode_sdist(job["q"], b2))
    report = check_simplicial_distribution(product, product.bundle)
    return _checked(
        report.ok,
        {
            "product": jsonio.encode_sdist(product),
            "valid": report.ok,
            "assumptions_used": ["m_product"],
        },
    )


@op("twist", "twist_monoid")
def twist_twist_monoid(job, ctx):
    from .simplicial import twist_monoid_structure

    monoid = twist_monoid_structure(*_space_and_group(job))
    text = {t: jsonio.canonical_json(jsonio.encode_twist(t)).strip() for t in monoid.twists}
    addition = {
        f"{text[t1]} + {text[t2]}": jsonio.encode_twist(t1 + t2)
        for t1 in monoid.twists
        for t2 in monoid.twists
    }
    return {
        "twist_count": len(monoid.twists),
        "zero": jsonio.encode_twist(monoid.zero),
        "addition": addition,
    }


# -- entropy -----------------------------------------------------------------------------


def _candidate_from_spec(spec: str):
    """A callable candidate, or None for the tabulated form."""
    from .finprob import info_loss

    if spec == "info_loss":
        return info_loss
    if spec.startswith("scaled:"):
        try:
            c = float(Fraction(spec.split(":", 1)[1]))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"candidate {spec!r}: the scale is not a number") from None
        return lambda m: c * info_loss(m)
    if spec.startswith("custom-table:"):
        return None
    raise ParseError(f"unknown candidate {spec!r}")


def _integer(flag, text, low=None):
    """The text of an integer flag as an int, or a ParseError naming flag
    when it is not an integer, or below low when low is given."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or (low is not None and value < low):
        expected = "an integer" if low is None else f"an integer >= {low}"
        raise ParseError(f"{flag} {text}: expected {expected}")
    return value


@op("entropy", "gen", ("--out", {"required": True}), ("--chains", {"default": "50"}),
    ("--max-carrier", {"default": "16"}))
def entropy_gen(args, ctx):
    from .finprob import generate_corpus

    chains = _integer("--chains", args.chains, 0)
    max_carrier = _integer("--max-carrier", args.max_carrier, 1)
    corpus = generate_corpus(seed=ctx["seed"], n_chains=chains, max_carrier=max_carrier)
    _write_file("--out", args.out, jsonio.canonical_json(jsonio.encode_corpus(corpus)))
    return {"written": args.out, "morphisms": len(corpus.morphisms)}


@op("entropy", "verify", ("--corpus", {"required": True}),
    ("--candidate", {"default": "info_loss"}))
def entropy_verify(args, ctx):
    from .finprob import verify_entropy_axioms, verify_value_table

    corpus = jsonio.decode_corpus(jsonio.Job(jsonio.load_json(args.corpus), "verify"))
    candidate = _candidate_from_spec(args.candidate)
    if candidate is None:
        # tabulated candidate: one value per morphism and per chain
        # composite; only additivity and the scalar fit are checkable
        table = jsonio.Job(jsonio.load_json(args.candidate.split(":", 1)[1]), "custom-table")
        values, chain_values = table.floats("values"), table.floats("chain_values", [])
        report = verify_value_table(values, chain_values, corpus, tol=ctx["tol"])
    else:
        report = verify_entropy_axioms(candidate, corpus, tol=ctx["tol"])
    result = dict(report.as_dict())
    result["assumptions_used"] = ["info_loss_sign"]
    return _checked(report.all_passed, result)


@op("entropy", "eval", ("--object", {}), ("--morphism", {}))
def entropy_eval(args, ctx):
    from .finprob import info_loss, shannon_entropy

    if args.object:
        obj = jsonio.decode_prob_object(jsonio.Job(jsonio.load_json(args.object), "eval"))
        return {"entropy_nats": shannon_entropy(obj)}
    if not args.morphism:
        raise ParseError("entropy eval needs --object or --morphism")
    m = jsonio.decode_prob_morphism(jsonio.Job(jsonio.load_json(args.morphism), "eval"))
    return {"info_loss": info_loss(m), "assumptions_used": ["info_loss_sign"]}


@op("entropy", "combine", ("--lambda", {"dest": "lam", "required": True}),
    ("--f", {"required": True}), ("--g", {"required": True}))
def entropy_combine(args, ctx):
    from .finprob import convex_combine_morphisms

    f = jsonio.decode_prob_morphism(jsonio.Job(jsonio.load_json(args.f), "combine"))
    g = jsonio.decode_prob_morphism(jsonio.Job(jsonio.load_json(args.g), "combine"))
    try:
        lam = RATIONAL.parse(args.lam)
    except ParseError as exc:
        raise ParseError(f"--lambda {args.lam}: {exc}") from None
    if lam > 1:
        raise ParseError(f"--lambda {args.lam}: expected a rational in [0, 1]")
    mixed = convex_combine_morphisms(lam, f, g)
    return {"morphism": jsonio.encode_prob_morphism(mixed)}


@op("entropy", "xi", ("--input", {"required": True}))
def entropy_xi(args, ctx):
    from .finprob import dist_lax_xi
    from .matprop import QConvOp

    payload = jsonio.Job(jsonio.load_json(args.input), "xi")
    dists = [jsonio.decode_distribution(d) for d in payload["dists"].items()]
    return _distribution(dist_lax_xi(QConvOp(payload.rationals("alpha")), dists))


# -- selfcheck ----------------------------------------------------------------------------


@op("selfcheck", "selfcheck")
def selfcheck_selfcheck(args, ctx):
    from .matprop import RMatrix, compose, convex_matrices, direct_sum, is_convex_matrix, permute
    from .tensor import check_biconvex_not_convex_counterexample

    report = check_biconvex_not_convex_counterexample()
    checks = {"counterexample_unequal": report.unequal}

    mats = list(convex_matrices(2, 2, 2))
    checks["conv_closed_under_compose"] = all(
        is_convex_matrix(compose(a, b)) for a in mats for b in mats
    )
    checks["conv_closed_under_direct_sum"] = all(
        is_convex_matrix(direct_sum(a, b)) for a in mats[:8] for b in mats[:8]
    )
    checks["conv_closed_under_permute"] = all(
        is_convex_matrix(permute((1, 0), m, (0, 1))) for m in mats
    )
    small = list(convex_matrices(1, 2, 2))
    checks["interchange_law"] = all(
        compose(direct_sum(p, q), direct_sum(r, s))
        == direct_sum(compose(p, r), compose(q, s))
        for p in small[:4]
        for q in small[:4]
        for r in (RMatrix.identity(2),)
        for s in (RMatrix.identity(2),)
    )
    checks["single_input_convex_is_unique"] = all(
        list(convex_matrices(n, 1, 3)) == [RMatrix.column_of_ones(n)]
        for n in (1, 2, 3)
    )
    ok = all(checks.values())
    return _checked(ok, {"checks": checks, "ok": ok, "assumptions_used": ["counterexample_value"]})


# -- wiring -------------------------------------------------------------------------------


def _global_flags(parser, top: bool):
    """The global flags are valid both before and after the verb; the
    post-verb occurrence wins (SUPPRESS keeps the top-level default)."""
    kw = (lambda default: {"default": default}) if top else (
        lambda default: {"default": argparse.SUPPRESS}
    )
    parser.add_argument("--bound", help="step bound of eq eq (no other op reads it)", **kw("4"))
    parser.add_argument("--tol", help="entropy tolerance", **kw("1e-9"))
    parser.add_argument("--seed", help="sample seed", **kw("0"))
    parser.add_argument("--report", type=str, help="report path", **kw(None))


def build_parser() -> argparse.ArgumentParser:
    """One subparser per verb of OPS, its ops listed in its --help; the
    entropy ops are subcommands with their FLAGS, selfcheck has no
    arguments, and every other verb reads a --job file."""
    parser = argparse.ArgumentParser(
        prog="convexion",
        description="Exact-arithmetic computational convex algebra.",
    )
    _global_flags(parser, top=True)
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, name in OPS:
        verbs.setdefault(verb, []).append(name)
    for verb, names in verbs.items():
        ops = f"ops: {', '.join(names)}"
        p = sub.add_parser(verb, help=ops, description=ops)
        _global_flags(p, top=False)
        if verb == "entropy":
            actions = p.add_subparsers(dest="op", required=True)
            for name in names:
                action = actions.add_parser(name)
                _global_flags(action, top=False)
                for flag, options in FLAGS[(verb, name)]:
                    action.add_argument(flag, **options)
        elif verb == "selfcheck":
            p.set_defaults(op=verb)
        else:
            p.add_argument("--job", required=verb != "eq", help="job JSON file")
        if verb == "eq":
            p.add_argument("--presentation", help="presentation JSON file")
            p.add_argument("--lhs", help="element JSON file")
            p.add_argument("--rhs", help="element JSON file")
    return parser


class _FlagJob(jsonio.Job):
    """eq's flag form as an eq job whose fields are whole files, each read
    as a job of its own named after its flag, so that a diagnostic's path
    starts at the root of its file (weights[0].w: missing from the lhs
    job), as it does in a --job file."""

    __slots__ = ()

    def __getitem__(self, key):
        if key in self.value:
            return jsonio.Job(self.value[key], key)
        return super().__getitem__(key)


def _load_job(args):
    """The job of a job verb: its --job file, or for eq's flag form the
    eq job that its three files make."""
    if args.job is None:
        if not (args.presentation and args.lhs and args.rhs):
            raise ParseError("eq needs --job or all of --presentation/--lhs/--rhs")
        files = {k: jsonio.load_json(getattr(args, k)) for k in ("presentation", "lhs", "rhs")}
        return _FlagJob({"op": "eq", **files}, "eq")
    job = jsonio.load_json(args.job)
    if not isinstance(job, dict) or "op" not in job:
        raise ParseError(f"{args.job}: job file has no 'op' field")
    return jsonio.Job(job, job["op"])


def _glue_dash_values(argv):
    """argv with each op flag, --bound, --tol or --seed that a token such as
    -1/2, -inf or -x follows joined to it as --flag=-1/2.  argparse reads a
    token that begins with a dash as an option unless it is a plain
    negative int or decimal, so the value would not reach the code that
    judges it.  A token that begins with -- stays an option: --out --chains
    is a missing value, not a file named --chains."""
    flags = {"--bound", "--tol", "--seed"} | {flag for pairs in FLAGS.values() for flag, _ in pairs}
    out = []
    for token in argv:
        if out and out[-1] in flags and token[:1] == "-" and token[:2] != "--":
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _tolerance(text):
    """The --tol text as a float, or a ParseError naming it when it is not
    a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise ParseError(f"--tol {text}: expected a finite number >= 0")
    return tol


def run(argv=None):
    """Parse, dispatch, and return (exit_code, report, report_path)."""
    parser = build_parser()
    args = parser.parse_args(_glue_dash_values(sys.argv[1:] if argv is None else argv))
    report = {
        "tool": {"name": "convexion", "version": __version__},
        "bound": args.bound,
        "verb": args.verb,
        "assumptions": ASSUMPTION_FLAGS,
        "ok": True,
    }
    exit_code, request = 0, None
    try:
        report["bound"] = bound = _integer("--bound", args.bound, 0)
        tol, seed = _tolerance(args.tol), _integer("--seed", args.seed)
        ctx = {"bound": bound, "tol": tol, "seed": seed}
        if hasattr(args, "op"):  # entropy and selfcheck read the command line
            name, request = args.op, args
        else:
            request = _load_job(args)
            name = request["op"].value
            if args.job is not None:
                report["op"] = name
        # a JSON list or object as the op cannot be a key of OPS
        handler = OPS.get((args.verb, name)) if isinstance(name, str) else None
        if handler is None:
            raise ParseError(f"unknown {args.verb} op {name!r}")
        report["result"] = handler(request, ctx)
    except CheckFailure as failure:
        report["ok"] = False
        report["result"] = failure.result
        exit_code = 1
    except ParseError as exc:
        report["ok"] = False
        report["error"] = str(exc)
        exit_code = 2
    except ConvexionError as exc:  # raised outside every decoder, so at the job's root
        report["ok"] = False
        error = f"{type(exc).__name__}: {exc}"
        report["error"] = str(request.error(error)) if isinstance(request, jsonio.Job) else error
        exit_code = 2
    return exit_code, report, args.report


def _write_file(flag, path, text):
    """Write text to the file that flag names; a path that cannot be
    written is a ParseError naming both."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"{flag} {path}: cannot write: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    exit_code, report, report_path = run(argv)
    text = jsonio.canonical_json(report)
    if report_path:
        try:
            _write_file("--report", report_path, text)
        except ParseError as exc:
            sys.stderr.write(f"convexion: {exc}\n")
            return 2
    else:
        sys.stdout.write(text)
    return exit_code
