"""Command-line front door.

Every operation is a plain function registered once, next to its body, in
the table OPS under its (verb, op) key.  Dispatch, the parser's verbs and
each verb's --help list are read from that table, and the test suite checks
its coverage against it: one sample job per key, and every module operation
reached by running them.  Most verbs take a --job JSON file whose "op" field
selects the operation, with inline arguments per the schemas in jsonio; eq
also accepts the direct flag form, the entropy ops are subcommands with
their own flags, and selfcheck takes none.  Reports are canonical JSON
(sorted keys, lowest-terms rationals) and always carry the tool version,
the equality step bound in use, and the assumption flags relevant to the
operation.

Exit codes: 0 success / all checks passed; 1 a check failed (the report is
still written); 2 malformed input.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__, jsonio
from .distribution import FiniteDistribution, convex_combine, delta, flatten, pushforward
from .errors import ConvexionError, ParseError, RelationViolated, Undecided
from .join import JoinSpace, copair, join_mix
from .matprop import (
    QConvOp,
    RMatrix,
    algebra_apply,
    compose,
    convex_matrices,
    direct_sum,
    is_convex_matrix,
    permute,
    qconv_compose,
)
from .presentation import eq, hom_combine, induce_map, quotient_mix, verify_verdict
from .semiring import RATIONAL, semiring_by_name

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


_REQUIRED = object()


class Job(dict):
    """An object of a job file: its top level, or an object inside it at
    the JSON path `at` (such as "outer[0]").  A missing field is a
    ParseError naming it (exit 2), not a KeyError, and typed() checks a
    field's JSON type."""

    def __init__(self, payload, name, at=""):
        if not isinstance(payload, dict):
            raise ParseError(f"{at or name + ' job'}: expected a JSON object")
        super().__init__(payload)
        self.name = name
        self.at = at

    def _path(self, key):
        return f"{self.at}.{key}" if self.at else key

    def __missing__(self, key):
        raise ParseError(f"{self._path(key)}: missing from the {self.name} job")

    def typed(self, key, kind, default=_REQUIRED):
        """The field key, which must be a JSON object (kind dict), list,
        string or integer; when it is absent, default if one is given."""
        value = self[key] if default is _REQUIRED else self.get(key, default)
        return jsonio._typed(value, kind, self._path(key))

    def objects(self, key, default=_REQUIRED):
        """The list field key, each item read as a Job at its path."""
        return [
            Job(raw, self.name, f"{self._path(key)}[{i}]")
            for i, raw in enumerate(self.typed(key, list, default))
        ]

    def rationals(self, key):
        """The list field key of rational literals."""
        return [RATIONAL.parse(str(a)) for a in self.typed(key, list)]

    def presentations(self, key):
        """The list field key of presentations."""
        return [jsonio.decode_presentation(p) for p in self.typed(key, list)]


def _element(pres, payload):
    """The element of pres named by the distribution JSON payload."""
    return pres.element(jsonio.decode_distribution(payload))


def _assignment(tgt, table):
    """A {generator: distribution JSON} table as elements of tgt."""
    return {g: _element(tgt, d) for g, d in table.items()}


def _distribution(out):
    return {"distribution": jsonio.encode_distribution(out)}


def _induced(build, report_pair):
    """(build(), None), or (None, the refusal's report) when build raises
    RelationViolated (with its pair if report_pair) or Undecided."""
    try:
        return build(), None
    except RelationViolated as exc:
        refusal = {"accepted": False, "reason": "relation_violated"}
        if report_pair:
            refusal["pair"] = [jsonio.encode_distribution(side) for side in exc.pair]
        return None, refusal
    except Undecided:
        return None, {"accepted": False, "reason": "undecided"}


# -- dist ---------------------------------------------------------------------------


@op("dist", "delta")
def dist_delta(job, ctx):
    semiring = semiring_by_name(job.typed("semiring", str, "rational"))
    return _distribution(delta(job.typed("element", str), semiring))


@op("dist", "pushforward")
def dist_pushforward(job, ctx):
    fmap = job.typed("map", dict)
    for el, image in fmap.items():
        jsonio._typed(image, str, f"map[{el!r}]")
    return _distribution(pushforward(dict(fmap), jsonio.decode_distribution(job["dist"])))


@op("dist", "flatten")
def dist_flatten(job, ctx):
    semiring = semiring_by_name(job.typed("semiring", str, "rational"))
    outer = {}
    for item in job.objects("outer"):
        inner = jsonio.decode_distribution(item["dist"], semiring)
        w = semiring.parse(str(item["weight"]))
        outer[inner] = semiring.add(outer.get(inner, semiring.zero()), w)
    return _distribution(flatten(FiniteDistribution(outer, semiring)))


@op("dist", "convex_combine")
def dist_convex_combine(job, ctx):
    alpha = job.rationals("alpha")
    dists = [jsonio.decode_distribution(d) for d in job.typed("dists", list)]
    return _distribution(convex_combine(alpha, dists))


# -- eq -----------------------------------------------------------------------------


@op("eq", "eq")
def eq_eq(job, ctx):
    pres = jsonio.decode_presentation(job["presentation"])
    lhs, rhs = _element(pres, job["lhs"]), _element(pres, job["rhs"])
    verdict = eq(lhs, rhs, job.get("bound", ctx["bound"]))
    return {
        "verdict": jsonio.encode_verdict(verdict, pres),
        "verified": verify_verdict(verdict, lhs, rhs),
    }


@op("eq", "quotient_mix")
def eq_quotient_mix(job, ctx):
    pres = jsonio.decode_presentation(job["presentation"])
    alpha = job.rationals("alpha")
    elements = [_element(pres, d) for d in job.typed("elements", list)]
    return {"element": jsonio.encode_distribution(quotient_mix(alpha, elements).rep)}


@op("eq", "induce_map")
def eq_induce_map(job, ctx):
    src = jsonio.decode_presentation(job["source"])
    tgt = jsonio.decode_presentation(job["target"])
    assignment = _assignment(tgt, job.typed("assignment", dict))
    fmap, refusal = _induced(lambda: induce_map(src, tgt, assignment, ctx["bound"]), True)
    if refusal:
        return refusal
    result = {"accepted": True}
    if "apply_to" in job:
        result["value"] = jsonio.encode_distribution(fmap(_element(src, job["apply_to"])).rep)
    return result


@op("eq", "hom_combine")
def eq_hom_combine(job, ctx):
    src = jsonio.decode_presentation(job["source"])
    tgt = jsonio.decode_presentation(job["target"])
    maps = [
        induce_map(src, tgt, _assignment(tgt, table), ctx["bound"])
        for table in job.objects("assignments")
    ]
    mixed = hom_combine(job.rationals("alpha"), maps)
    assignment = {g: jsonio.encode_distribution(mixed.on_generator(g).rep) for g in src.generators}
    result = {"assignment": assignment}
    if "apply_to" in job:
        result["value"] = jsonio.encode_distribution(mixed(_element(src, job["apply_to"])).rep)
    return result


@op("eq", "verify")
def eq_verify(job, ctx):
    pres = jsonio.decode_presentation(job["presentation"])
    lhs, rhs = _element(pres, job["lhs"]), _element(pres, job["rhs"])
    verdict = jsonio.decode_verdict(job["verdict"], pres)
    ok = verify_verdict(verdict, lhs, rhs)
    return _checked(ok, {"verified": ok})


# -- join ----------------------------------------------------------------------------


def _join_space(job):
    return JoinSpace(*(jsonio.decode_presentation(job[f"{s}_presentation"]) for s in "xy"))


@op("join", "join_point")
def join_join_point(job, ctx):
    pt = jsonio.decode_join_element(job["point"], _join_space(job))
    return {"point": jsonio.encode_join_element(pt), "assumptions_used": []}


@op("join", "join_mix")
def join_join_mix(job, ctx):
    space = _join_space(job)
    beta = job.rationals("beta")
    pts = [jsonio.decode_join_element(p, space) for p in job.typed("points", list)]
    point = jsonio.encode_join_element(join_mix(beta, pts))
    return {"point": point, "assumptions_used": ["join_mix"]}


@op("join", "copair")
def join_copair(job, ctx):
    space = _join_space(job)
    tgt = jsonio.decode_presentation(job["target"])
    f = induce_map(space.x_factor, tgt, _assignment(tgt, job.typed("f", dict)), ctx["bound"])
    g = induce_map(space.y_factor, tgt, _assignment(tgt, job.typed("g", dict)), ctx["bound"])
    h = copair(f, g)
    pt = jsonio.decode_join_element(job["point"], h.space)
    return {"value": jsonio.encode_distribution(h(pt).rep)}


# -- tensor ---------------------------------------------------------------------------


@op("tensor", "tensor")
def tensor_tensor(job, ctx):
    from .tensor import tensor

    return {"presentation": jsonio.encode_presentation(tensor(job.presentations("factors")))}


@op("tensor", "universal_map")
def tensor_universal_map(job, ctx):
    from .tensor import universal_map

    factors = job.presentations("factors")
    xs = [_element(f, d) for f, d in zip(factors, job.typed("elements", list))]
    return {"element": jsonio.encode_distribution(universal_map(factors, xs).rep)}


@op("tensor", "extend_multiconvex")
def tensor_extend_multiconvex(job, ctx):
    from .tensor import extend_multiconvex, restrict_multiconvex, universal_map

    spec = jsonio.decode_nconvex_spec(job["spec"])
    fmap, refusal = _induced(lambda: extend_multiconvex(spec, ctx["bound"]), False)
    if refusal:
        return refusal
    result = {"accepted": True}
    if "elements" in job:
        xs = [_element(f, d) for f, d in zip(spec.factors, job.typed("elements", list))]
        out = fmap(universal_map(list(spec.factors), xs))
        result["value"] = jsonio.encode_distribution(out.rep)
    result["restriction"] = jsonio.encode_nconvex_spec(restrict_multiconvex(fmap))
    return result


@op("tensor", "coherence")
def tensor_coherence(job, ctx):
    from .tensor import coherence

    factors = job.presentations("factors")
    iso = coherence(job["kind"], factors)
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

    objects = tuple(
        jsonio._typed(o, str, f"objects[{i}]") for i, o in enumerate(job.typed("objects", list))
    )
    hom = {}
    for key, value in job.typed("hom", dict).items():
        pair = tuple(key.split(","))
        if len(pair) != 2 or not set(pair) <= set(objects):
            raise ParseError(f"hom[{key!r}]: expected a key 'a,b' naming two objects")
        hom[pair] = jsonio.decode_presentation(value)

    def hom_at(at, a, b):
        if (a, b) not in hom:
            raise ParseError(f"{at}: hom has no entry {a + ',' + b!r}")
        return hom[(a, b)]

    identities = {
        k: _element(hom_at(f"identities[{k!r}]", k, k), v)
        for k, v in job.typed("identities", dict).items()
    }
    for o in objects:
        if o not in identities:
            raise ParseError(f"identities: object {o!r} has no identity")
    composition = {}
    for key, rows in job.typed("composition", dict).items():
        at = f"composition[{key!r}]"
        triple = tuple(key.split(","))
        if len(triple) != 3:
            raise ParseError(f"{at}: expected a key 'a,b,c' naming three objects")
        a, b, c = triple
        hom_at(at, a, b)
        hom_at(at, b, c)
        target = hom_at(at, a, c)
        table = {}
        for i, raw in enumerate(jsonio._typed(rows, list, at)):
            row = Job(raw, job.name, f"{at}[{i}]")
            pair = row.typed("pair", list)
            if len(pair) != 2 or not all(isinstance(g, str) for g in pair):
                raise ParseError(f"{at}[{i}].pair: expected two generator names")
            table[tuple(pair)] = _element(target, row["value"])
        composition[triple] = table
    for a, b in hom:
        for c in objects:
            if (b, c) in hom and (a, b, c) not in composition:
                raise ParseError(f"composition: no table for {a + ',' + b + ',' + c!r}")
    cat = BiconvexCategory(objects, hom, identities, composition)
    back = enriched_inverse(enriched_bridge(cat, ctx["bound"]))
    round_trip = back.composition == cat.composition
    return _checked(round_trip, {"round_trip": round_trip})


# -- prop ------------------------------------------------------------------------------


def _matrix(job, key):
    return jsonio.decode_matrix(job[key])


@op("prop", "is_convex_matrix")
def prop_is_convex_matrix(job, ctx):
    return {"convex": is_convex_matrix(_matrix(job, "matrix"))}


@op("prop", "compose")
def prop_compose(job, ctx):
    return {"matrix": jsonio.encode_matrix(compose(_matrix(job, "left"), _matrix(job, "right")))}


@op("prop", "direct_sum")
def prop_direct_sum(job, ctx):
    out = direct_sum(_matrix(job, "left"), _matrix(job, "right"))
    return {"matrix": jsonio.encode_matrix(out)}


@op("prop", "permute")
def prop_permute(job, ctx):
    tau, sigma = job.typed("tau", list), job.typed("sigma", list)
    if not all(type(i) is int for i in tau + sigma):
        raise ParseError("tau, sigma: expected lists of indices")
    out = permute(tuple(tau), _matrix(job, "matrix"), tuple(sigma))
    return {"matrix": jsonio.encode_matrix(out)}


@op("prop", "qconv_compose")
def prop_qconv_compose(job, ctx):
    outer = jsonio.decode_qconv(job["outer"])
    inner = [jsonio.decode_qconv(x) for x in job.typed("inner", list)]
    return {"operation": jsonio.encode_qconv(qconv_compose(outer, inner))}


@op("prop", "algebra_apply")
def prop_algebra_apply(job, ctx):
    pres = jsonio.decode_presentation(job["presentation"])
    matrix = _matrix(job, "matrix")
    xs = [_element(pres, d) for d in job.typed("elements", list)]
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
    projections = [_projection(job, f"{k}_projection") for k in ("object", "morphism")]
    return FibrationData(total, base, *projections)


def _projection(job, key):
    table = job.typed(key, dict)
    jsonio._names(list(table.values()), key)
    return dict(table)


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
    functor = jsonio.decode_cset_functor(job["functor"], base, ctx["bound"])
    cfib = convex_grothendieck(functor)
    samples = []
    for raw in job.objects("samples", []):
        name = raw.typed("morphism", str)
        if name not in base.morphisms:
            raise ParseError(f"{raw.at}.morphism: {name!r} is not a morphism")
        pres = cfib.fibre_presentation(base.morphisms[name].src)
        alpha = raw.rationals("alpha")
        samples.append((name, alpha, [_element(pres, d) for d in raw.typed("elements", list)]))
    failures = check_fibrewise_equations(cfib, samples, ctx["bound"])
    result = {
        "fibrewise_equations_hold": not failures,
        "failures": [list(map(str, f)) for f in failures],
        "recognized_finite": cfib.recognized_finite(),
    }
    return _checked(not failures, result)


# -- omon -------------------------------------------------------------------------------


def _lax_functor_from_job(job):
    from .omonoidal import dist_lax_functor, mixture_lax_functor

    kind = job.get("functor", "dist")
    if kind == "dist":
        return dist_lax_functor(job.typed("max_size", int, 6))
    if kind == "mixture":
        return mixture_lax_functor(jsonio._names(job.get("carrier", ["x", "y"]), "carrier"))
    raise ParseError(f"unknown lax functor kind {kind!r}")


def _objects(job, key, functor, default=_REQUIRED):
    """The list field key, each item an object of functor."""
    objs = job.typed(key, list, default)
    for i, o in enumerate(objs):
        if not isinstance(o, str) or o not in functor.functor.on_objects:
            raise ParseError(f"{job._path(key)}[{i}]: {o!r} is not an object of the functor")
    return objs


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
    from .omonoidal import star_alpha

    alpha = QConvOp(job.rationals("alpha"))
    out = star_alpha(alpha, job.presentations("factors"))
    return {"presentation": jsonio.encode_presentation(out)}


@op("omon", "trivial_structure")
def omon_trivial_structure(job, ctx):
    from .omonoidal import QCONV, SymmetricMonoidalData, trivial_structure

    base = jsonio.decode_category(job["category"])
    table = {}
    for key, value in job.typed("tensor", dict).items():
        if value not in base.objects:
            raise ParseError(f"tensor[{key!r}]: {value!r} is not an object")
        table[tuple(key.split(","))] = value
    unit = job.get("unit")
    if unit is not None and unit not in base.objects:
        raise ParseError(f"unit: {unit!r} is not an object")

    def nfold(objs):
        acc = objs[0]
        for other in objs[1:]:
            if (acc, other) not in table:
                raise ParseError(f"tensor: no entry for {acc},{other}")
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

    from .omonoidal import LaxInstance, check_lax

    functor = _lax_functor_from_job(job)
    rng = random.Random(ctx["seed"])
    instances = []
    for raw in job.objects("instances", []):
        outer = jsonio.decode_qconv(raw["operation"])
        if raw.get("inner") is None:
            inner_ops = [QConvOp.unit() for _ in range(outer.arity)]
        else:
            inner_ops = [jsonio.decode_qconv(x) for x in raw.typed("inner", list)]
        obj_list = _objects(raw, "objects", functor)
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
    units = _objects(job, "unit_objects", functor, [])
    report = check_lax(functor, instances, ctx["bound"], unit_objects=units)
    failures = [str(f) for f in report.failures]
    return _checked(report.ok, {"checked": report.checked, "ok": report.ok, "failures": failures})


@op("omon", "o_grothendieck")
def omon_o_grothendieck(job, ctx):
    import random

    from .omonoidal import o_grothendieck

    functor = _lax_functor_from_job(job)
    fib = o_grothendieck(functor, step_bound=ctx["bound"])
    rng = random.Random(ctx["seed"])
    results = []
    ok = True
    for raw in job.objects("instances", []):
        operation = jsonio.decode_qconv(raw["operation"])
        objs = _objects(raw, "objects", functor)
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
    if isinstance(payload, dict) and "standard" in payload:
        name = payload["standard"]
        n_max = jsonio._typed(payload.get("N", 2), int, "space.N")
        if name == "circle":
            space = standard_circle(n_max)
        elif name == "point":
            space = standard_point(n_max)
        else:
            raise ParseError(f"unknown standard space {name!r}")
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


@op("entropy", "gen", ("--out", {"required": True}), ("--chains", {"type": int, "default": 50}),
    ("--max-carrier", {"type": int, "default": 16}))
def entropy_gen(args, ctx):
    from .finprob import generate_corpus

    corpus = generate_corpus(seed=ctx["seed"], n_chains=args.chains, max_carrier=args.max_carrier)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(jsonio.canonical_json(jsonio.encode_corpus(corpus)))
    return {"written": args.out, "morphisms": len(corpus.morphisms)}


def _floats(job, key, default=_REQUIRED):
    """The list field key of numbers."""
    try:
        return [float(v) for v in job.typed(key, list, default)]
    except (TypeError, ValueError):
        raise ParseError(f"{key}: expected a list of numbers") from None


@op("entropy", "verify", ("--corpus", {"required": True}),
    ("--candidate", {"default": "info_loss"}))
def entropy_verify(args, ctx):
    from .finprob import verify_entropy_axioms, verify_value_table

    corpus = jsonio.decode_corpus(jsonio.load_json(args.corpus))
    candidate = _candidate_from_spec(args.candidate)
    if candidate is None:
        # tabulated candidate: one value per morphism and per chain
        # composite; only additivity and the scalar fit are checkable
        table = Job(jsonio.load_json(args.candidate.split(":", 1)[1]), "custom-table")
        values, chain_values = _floats(table, "values"), _floats(table, "chain_values", [])
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
        obj = jsonio.decode_prob_object(jsonio.load_json(args.object))
        return {"entropy_nats": shannon_entropy(obj)}
    if not args.morphism:
        raise ParseError("entropy eval needs --object or --morphism")
    m = jsonio.decode_prob_morphism(jsonio.load_json(args.morphism))
    return {"info_loss": info_loss(m), "assumptions_used": ["info_loss_sign"]}


@op("entropy", "combine", ("--lambda", {"dest": "lam", "required": True}),
    ("--f", {"required": True}), ("--g", {"required": True}))
def entropy_combine(args, ctx):
    from .finprob import convex_combine_morphisms

    f = jsonio.decode_prob_morphism(jsonio.load_json(args.f))
    g = jsonio.decode_prob_morphism(jsonio.load_json(args.g))
    mixed = convex_combine_morphisms(RATIONAL.parse(args.lam), f, g)
    return {"morphism": jsonio.encode_prob_morphism(mixed)}


@op("entropy", "xi", ("--input", {"required": True}))
def entropy_xi(args, ctx):
    from .finprob import dist_lax_xi

    payload = Job(jsonio.load_json(args.input), "xi")
    dists = [jsonio.decode_distribution(d) for d in payload.typed("dists", list)]
    return _distribution(dist_lax_xi(QConvOp(payload.rationals("alpha")), dists))


# -- selfcheck ----------------------------------------------------------------------------


@op("selfcheck", "selfcheck")
def selfcheck_selfcheck(args, ctx):
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
    parser.add_argument("--bound", type=int, help="eq step bound", **kw(4))
    parser.add_argument("--tol", type=float, help="entropy tolerance", **kw(1e-9))
    parser.add_argument("--seed", type=int, help="sample seed", **kw(0))
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


def _load_job(args):
    """The job of a job verb: its --job file, or for eq's flag form the
    eq job that its three files make."""
    if args.job is None:
        if not (args.presentation and args.lhs and args.rhs):
            raise ParseError("eq needs --job or all of --presentation/--lhs/--rhs")
        keys = ("presentation", "lhs", "rhs")
        return Job({"op": "eq", **{k: jsonio.load_json(getattr(args, k)) for k in keys}}, "eq")
    job = jsonio.load_json(args.job)
    if not isinstance(job, dict) or "op" not in job:
        raise ParseError(f"{args.job}: job file has no 'op' field")
    return Job(job, job["op"])


def run(argv=None):
    """Parse, dispatch, and return (exit_code, report, report_path)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    ctx = {"bound": args.bound, "tol": args.tol, "seed": args.seed}
    report = {
        "tool": {"name": "convexion", "version": __version__},
        "bound": args.bound,
        "verb": args.verb,
        "assumptions": ASSUMPTION_FLAGS,
        "ok": True,
    }
    exit_code = 0
    try:
        if hasattr(args, "op"):  # entropy and selfcheck read the command line
            name, request = args.op, args
        else:
            request = _load_job(args)
            name = request["op"]
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
    except ConvexionError as exc:
        report["ok"] = False
        report["error"] = f"{type(exc).__name__}: {exc}"
        exit_code = 2
    return exit_code, report, args.report


def main(argv=None) -> int:
    exit_code, report, report_path = run(argv)
    text = jsonio.canonical_json(report)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code
