"""Command-line front door.

Every module operation is reachable from one of the verbs (the registry at
the bottom is asserted in the test suite).  Most verbs take a --job JSON
file with an "op" field selecting the operation and inline arguments per
the schemas in jsonio; eq also accepts the direct flag form, and entropy
has explicit subcommands.  Reports are canonical JSON (sorted keys,
lowest-terms rationals) and always carry the tool version, the equality
step bound in use, and the assumption flags relevant to the operation.

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
from .presentation import (
    ConvexMap,
    eq,
    hom_combine,
    induce_map,
    quotient_mix,
    verify_verdict,
)
from .semiring import RATIONAL, semiring_by_name

F = Fraction

#: Deviations from the literal source formulas, surfaced in reports.
ASSUMPTION_FLAGS = {
    "info_loss_sign": "source_minus_target",
    "m_product": "p(x)q(y)",
    "join_mix": "renormalized_weights",
    "counterexample_value": "from_definitions",
}


class CheckFailure(Exception):
    """A well-formed computation whose verification did not pass."""

    def __init__(self, result):
        super().__init__("check failed")
        self.result = result


def _dist(payload):
    return jsonio.decode_distribution(payload)


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
        string or integer; when it is absent, default if one is given.  The objects
        of a list field are read with Job(item, job.name, f"{key}[{i}]")."""
        value = self[key] if default is _REQUIRED else self.get(key, default)
        return jsonio._typed(value, kind, self._path(key))


def _load_job(path):
    job = jsonio.load_json(path)
    if not isinstance(job, dict) or "op" not in job:
        raise ParseError(f"{path}: job file has no 'op' field")
    return Job(job, job["op"])


# -- dist ---------------------------------------------------------------------------


def handle_dist(job, ctx):
    op = job["op"]
    if op == "delta":
        semiring = semiring_by_name(job.typed("semiring", str, "rational"))
        out = delta(job.typed("element", str), semiring)
        return {"distribution": jsonio.encode_distribution(out)}
    if op == "pushforward":
        fmap = job.typed("map", dict)
        for el, image in fmap.items():
            jsonio._typed(image, str, f"map[{el!r}]")
        out = pushforward(dict(fmap), _dist(job["dist"]))
        return {"distribution": jsonio.encode_distribution(out)}
    if op == "flatten":
        semiring = semiring_by_name(job.typed("semiring", str, "rational"))
        outer = {}
        for i, raw in enumerate(job.typed("outer", list)):
            item = Job(raw, job.name, f"outer[{i}]")
            inner = jsonio.decode_distribution(item["dist"], semiring)
            w = semiring.parse(str(item["weight"]))
            outer[inner] = semiring.add(outer.get(inner, semiring.zero()), w)
        out = flatten(FiniteDistribution(outer, semiring))
        return {"distribution": jsonio.encode_distribution(out)}
    if op == "convex_combine":
        alpha = [RATIONAL.parse(str(a)) for a in job.typed("alpha", list)]
        out = convex_combine(alpha, [_dist(d) for d in job.typed("dists", list)])
        return {"distribution": jsonio.encode_distribution(out)}
    raise ParseError(f"unknown dist op {op!r}")


# -- eq -----------------------------------------------------------------------------


def handle_eq_flags(args, ctx):
    pres = jsonio.decode_presentation(jsonio.load_json(args.presentation))
    lhs = pres.element(_dist(jsonio.load_json(args.lhs)))
    rhs = pres.element(_dist(jsonio.load_json(args.rhs)))
    verdict = eq(lhs, rhs, ctx["bound"])
    return {
        "verdict": jsonio.encode_verdict(verdict, pres),
        "verified": verify_verdict(verdict, lhs, rhs),
    }


def handle_eq(job, ctx):
    op = job["op"]
    if op == "eq":
        pres = jsonio.decode_presentation(job["presentation"])
        lhs = pres.element(_dist(job["lhs"]))
        rhs = pres.element(_dist(job["rhs"]))
        verdict = eq(lhs, rhs, job.get("bound", ctx["bound"]))
        return {
            "verdict": jsonio.encode_verdict(verdict, pres),
            "verified": verify_verdict(verdict, lhs, rhs),
        }
    if op == "quotient_mix":
        pres = jsonio.decode_presentation(job["presentation"])
        alpha = [RATIONAL.parse(str(a)) for a in job.typed("alpha", list)]
        elements = [pres.element(_dist(d)) for d in job.typed("elements", list)]
        out = quotient_mix(alpha, elements)
        return {"element": jsonio.encode_distribution(out.rep)}
    if op == "induce_map":
        src = jsonio.decode_presentation(job["source"])
        tgt = jsonio.decode_presentation(job["target"])
        assignment = {
            g: tgt.element(_dist(d)) for g, d in job.typed("assignment", dict).items()
        }
        try:
            fmap = induce_map(src, tgt, assignment, ctx["bound"])
        except RelationViolated as exc:
            return {
                "accepted": False,
                "reason": "relation_violated",
                "pair": [
                    jsonio.encode_distribution(exc.pair[0]),
                    jsonio.encode_distribution(exc.pair[1]),
                ],
            }
        except Undecided:
            return {"accepted": False, "reason": "undecided"}
        result = {"accepted": True}
        if "apply_to" in job:
            out = fmap(src.element(_dist(job["apply_to"])))
            result["value"] = jsonio.encode_distribution(out.rep)
        return result
    if op == "hom_combine":
        src = jsonio.decode_presentation(job["source"])
        tgt = jsonio.decode_presentation(job["target"])
        maps = []
        for i, raw in enumerate(job.typed("assignments", list)):
            table = Job(raw, job.name, f"assignments[{i}]")
            maps.append(
                ConvexMap(
                    src,
                    tgt,
                    {g: tgt.element(_dist(d)) for g, d in table.items()},
                    ctx["bound"],
                )
            )
        alpha = [RATIONAL.parse(str(a)) for a in job.typed("alpha", list)]
        mixed = hom_combine(alpha, maps)
        result = {
            "assignment": {
                g: jsonio.encode_distribution(mixed.on_generator(g).rep)
                for g in src.generators
            }
        }
        if "apply_to" in job:
            out = mixed(src.element(_dist(job["apply_to"])))
            result["value"] = jsonio.encode_distribution(out.rep)
        return result
    if op == "verify":
        pres = jsonio.decode_presentation(job["presentation"])
        lhs = pres.element(_dist(job["lhs"]))
        rhs = pres.element(_dist(job["rhs"]))
        verdict = jsonio.decode_verdict(job["verdict"], pres)
        ok = verify_verdict(verdict, lhs, rhs)
        result = {"verified": ok}
        if not ok:
            raise CheckFailure(result)
        return result
    raise ParseError(f"unknown eq op {op!r}")


# -- join ----------------------------------------------------------------------------


def handle_join(job, ctx):
    from .join import JoinSpace, copair, join_mix

    op = job["op"]
    xp = jsonio.decode_presentation(job["x_presentation"])
    yp = jsonio.decode_presentation(job["y_presentation"])
    space = JoinSpace(xp, yp)
    if op == "join_point":
        pt = jsonio.decode_join_element(job["point"], space)
        return {
            "point": jsonio.encode_join_element(pt),
            "assumptions_used": [],
        }
    if op == "join_mix":
        beta = [RATIONAL.parse(str(b)) for b in job.typed("beta", list)]
        pts = [jsonio.decode_join_element(p, space) for p in job.typed("points", list)]
        out = join_mix(beta, pts)
        return {
            "point": jsonio.encode_join_element(out),
            "assumptions_used": ["join_mix"],
        }
    if op == "copair":
        tgt = jsonio.decode_presentation(job["target"])
        f = induce_map(
            xp,
            tgt,
            {g: tgt.element(_dist(d)) for g, d in job.typed("f", dict).items()},
            ctx["bound"],
        )
        g = induce_map(
            yp,
            tgt,
            {g2: tgt.element(_dist(d)) for g2, d in job.typed("g", dict).items()},
            ctx["bound"],
        )
        h = copair(f, g)
        pt = jsonio.decode_join_element(job["point"], h.space)
        return {"value": jsonio.encode_distribution(h(pt).rep)}
    raise ParseError(f"unknown join op {op!r}")


# -- tensor ---------------------------------------------------------------------------


def handle_tensor(job, ctx):
    from .tensor import (
        check_biconvex_not_convex_counterexample,
        coherence,
        enriched_bridge,
        enriched_inverse,
        extend_multiconvex,
        restrict_multiconvex,
        tensor,
        universal_map,
    )

    op = job["op"]
    if op == "tensor":
        factors = [jsonio.decode_presentation(p) for p in job.typed("factors", list)]
        return {"presentation": jsonio.encode_presentation(tensor(factors))}
    if op == "universal_map":
        factors = [jsonio.decode_presentation(p) for p in job.typed("factors", list)]
        xs = [
            f.element(_dist(d)) for f, d in zip(factors, job.typed("elements", list))
        ]
        out = universal_map(factors, xs)
        return {"element": jsonio.encode_distribution(out.rep)}
    if op == "extend_multiconvex":
        spec = jsonio.decode_nconvex_spec(job["spec"])
        try:
            fmap = extend_multiconvex(spec, ctx["bound"])
        except RelationViolated:
            return {"accepted": False, "reason": "relation_violated"}
        except Undecided:
            return {"accepted": False, "reason": "undecided"}
        result = {"accepted": True}
        if "elements" in job:
            xs = [
                f.element(_dist(d))
                for f, d in zip(spec.factors, job.typed("elements", list))
            ]
            out = fmap(universal_map(list(spec.factors), xs))
            result["value"] = jsonio.encode_distribution(out.rep)
        result["restriction"] = jsonio.encode_nconvex_spec(
            restrict_multiconvex(fmap)
        )
        return result
    if op == "coherence":
        factors = [jsonio.decode_presentation(p) for p in job.typed("factors", list)]
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
    if op == "counterexample":
        report = check_biconvex_not_convex_counterexample()
        result = {
            "biconvex_value": jsonio.encode_distribution(report.biconvex_value),
            "convex_hypothesis_value": jsonio.encode_distribution(
                report.convex_hypothesis_value
            ),
            "unequal": report.unequal,
            "note": report.value_note,
            "assumptions_used": ["counterexample_value"],
        }
        if not report.unequal:
            raise CheckFailure(result)
        return result
    if op == "enriched_bridge":
        from .tensor import BiconvexCategory

        hom = {
            tuple(k.split(",")): jsonio.decode_presentation(v)
            for k, v in job.typed("hom", dict).items()
        }
        identities = {}
        for k, v in job.typed("identities", dict).items():
            if (k, k) not in hom:
                raise ParseError(f"identities[{k!r}]: hom has no entry {k + ',' + k!r}")
            identities[k] = hom[(k, k)].element(_dist(v))
        composition = {}
        for key, rows in job.typed("composition", dict).items():
            at = f"composition[{key!r}]"
            objects = key.split(",")
            if len(objects) != 3:
                raise ParseError(f"{at}: expected a key 'a,b,c' naming three objects")
            a, b, c = objects
            if (a, c) not in hom:
                raise ParseError(f"{at}: hom has no entry {a + ',' + c!r}")
            table = {}
            for i, raw in enumerate(jsonio._typed(rows, list, at)):
                row = Job(raw, job.name, f"{at}[{i}]")
                pair = row.typed("pair", list)
                if len(pair) != 2 or not all(isinstance(g, str) for g in pair):
                    raise ParseError(f"{at}[{i}].pair: expected two generator names")
                table[tuple(pair)] = hom[(a, c)].element(_dist(row["value"]))
            composition[(a, b, c)] = table
        cat = BiconvexCategory(
            tuple(job.typed("objects", list)), hom, identities, composition
        )
        data = enriched_bridge(cat, ctx["bound"])
        back = enriched_inverse(data)
        round_trip = back.composition == cat.composition
        result = {"round_trip": round_trip}
        if not round_trip:
            raise CheckFailure(result)
        return result
    raise ParseError(f"unknown tensor op {op!r}")


# -- prop ------------------------------------------------------------------------------


def handle_prop(job, ctx):
    op = job["op"]
    if op == "is_convex_matrix":
        return {"convex": is_convex_matrix(jsonio.decode_matrix(job["matrix"]))}
    if op == "compose":
        out = compose(
            jsonio.decode_matrix(job["left"]), jsonio.decode_matrix(job["right"])
        )
        return {"matrix": jsonio.encode_matrix(out)}
    if op == "direct_sum":
        out = direct_sum(
            jsonio.decode_matrix(job["left"]), jsonio.decode_matrix(job["right"])
        )
        return {"matrix": jsonio.encode_matrix(out)}
    if op == "permute":
        out = permute(
            tuple(job.typed("tau", list)),
            jsonio.decode_matrix(job["matrix"]),
            tuple(job.typed("sigma", list)),
        )
        return {"matrix": jsonio.encode_matrix(out)}
    if op == "qconv_compose":
        outer = jsonio.decode_qconv(job["outer"])
        inner = [jsonio.decode_qconv(x) for x in job.typed("inner", list)]
        return {"operation": jsonio.encode_qconv(qconv_compose(outer, inner))}
    if op == "algebra_apply":
        pres = jsonio.decode_presentation(job["presentation"])
        matrix = jsonio.decode_matrix(job["matrix"])
        xs = [pres.element(_dist(d)) for d in job.typed("elements", list)]
        out = algebra_apply(pres, matrix, xs)
        return {
            "elements": [jsonio.encode_distribution(e.rep) for e in out]
        }
    raise ParseError(f"unknown prop op {op!r}")


# -- groth ------------------------------------------------------------------------------


def handle_groth(job, ctx):
    from .category import (
        FibrationData,
        check_fibrewise_equations,
        convex_grothendieck,
        extract_functor,
        grothendieck,
        is_discrete_fibration,
    )

    op = job["op"]
    if op == "grothendieck":
        base = jsonio.decode_category(job["category"])
        functor = jsonio.decode_set_functor(job["functor"], base)
        fib = grothendieck(functor)
        return {
            "total": jsonio.encode_category(fib.total),
            "is_discrete_fibration": is_discrete_fibration(fib),
        }
    if op in ("is_discrete_fibration", "extract_functor"):
        base = jsonio.decode_category(job["category"])
        total = jsonio.decode_category(job["total"])
        fib = FibrationData(
            total,
            base,
            dict(job.typed("object_projection", dict)),
            dict(job.typed("morphism_projection", dict)),
        )
        if op == "is_discrete_fibration":
            return {"is_discrete_fibration": is_discrete_fibration(fib)}
        functor = extract_functor(fib)
        return {
            "on_objects": {
                jsonio.element_label(c): [jsonio.element_label(x) for x in xs]
                for c, xs in functor.on_objects.items()
            }
        }
    if op == "convex_grothendieck":
        base = jsonio.decode_category(job["category"])
        functor = jsonio.decode_cset_functor(job["functor"], base, ctx["bound"])
        cfib = convex_grothendieck(functor)
        samples = []
        for i, raw in enumerate(job.typed("samples", list, [])):
            raw = Job(raw, job.name, f"samples[{i}]")
            name = raw["morphism"]
            src = base.morphisms[name].src
            pres = cfib.fibre_presentation(src)
            alpha = [RATIONAL.parse(str(a)) for a in raw.typed("alpha", list)]
            elements = [pres.element(_dist(d)) for d in raw.typed("elements", list)]
            samples.append((name, alpha, elements))
        failures = check_fibrewise_equations(cfib, samples, ctx["bound"])
        result = {
            "fibrewise_equations_hold": not failures,
            "failures": [list(map(str, f)) for f in failures],
            "recognized_finite": cfib.recognized_finite(),
        }
        if failures:
            raise CheckFailure(result)
        return result
    raise ParseError(f"unknown groth op {op!r}")


# -- omon -------------------------------------------------------------------------------


def _lax_functor_from_job(job):
    from .omonoidal import dist_lax_functor, mixture_lax_functor

    kind = job.get("functor", "dist")
    if kind == "dist":
        return dist_lax_functor(job.typed("max_size", int, 6))
    if kind == "mixture":
        return mixture_lax_functor(job.typed("carrier", list, ["x", "y"]))
    raise ParseError(f"unknown lax functor kind {kind!r}")


def _sample_elements(rng, pres, count):
    out = []
    for _ in range(count):
        cuts = [rng.randint(0, 3) for _ in pres.generators]
        if sum(cuts) == 0:
            cuts[0] = 1
        total = sum(cuts)
        out.append(
            pres.element(
                FiniteDistribution(
                    {g: F(c, total) for g, c in zip(pres.generators, cuts) if c}
                )
            )
        )
    return out


def handle_omon(job, ctx):
    import random

    from .omonoidal import (
        LaxInstance,
        QCONV,
        SymmetricMonoidalData,
        check_lax,
        o_grothendieck,
        star_alpha,
        trivial_structure,
    )

    op = job["op"]
    if op == "star_alpha":
        alpha = QConvOp([RATIONAL.parse(str(a)) for a in job.typed("alpha", list)])
        factors = [jsonio.decode_presentation(p) for p in job.typed("factors", list)]
        return {
            "presentation": jsonio.encode_presentation(star_alpha(alpha, factors))
        }
    if op == "trivial_structure":
        base = jsonio.decode_category(job["category"])
        table = {tuple(k.split(",")): v for k, v in job.typed("tensor", dict).items()}

        def nfold(objs):
            acc = objs[0]
            for other in objs[1:]:
                acc = table[(acc, other)]
            return acc

        sym = SymmetricMonoidalData(base, nfold, unit_object=job.get("unit"))
        omon = trivial_structure(sym, QCONV)
        samples = [
            [list(pair), omon.tensor_objects(QConvOp(["1/2", "1/2"]), pair)]
            for pair in [
                (a, b) for a in base.objects for b in base.objects
            ]
        ]
        return {"validated": True, "binary_tensor": samples}
    if op == "check_lax":
        functor = _lax_functor_from_job(job)
        rng = random.Random(ctx["seed"])
        instances = []
        for i, raw in enumerate(job.typed("instances", list, [])):
            raw = Job(raw, job.name, f"instances[{i}]")
            outer = jsonio.decode_qconv(raw["operation"])
            inner_raw = raw.get("inner")
            if inner_raw is None:
                inner_ops = [QConvOp.unit() for _ in range(outer.arity)]
            else:
                inner_ops = [jsonio.decode_qconv(x) for x in raw.typed("inner", list)]
            obj_list = raw.typed("objects", list)
            blocks = []
            pos = 0
            for op_i in inner_ops:
                blocks.append(tuple(obj_list[pos : pos + op_i.arity]))
                pos += op_i.arity
            elements = tuple(
                tuple(
                    _sample_elements(rng, functor.fibre(o), 1)[0] for o in block
                )
                for block in blocks
            )
            instances.append(
                LaxInstance(outer, tuple(inner_ops), tuple(blocks), elements)
            )
        report = check_lax(
            functor,
            instances,
            ctx["bound"],
            unit_objects=job.typed("unit_objects", list, []),
        )
        result = {
            "checked": report.checked,
            "ok": report.ok,
            "failures": [str(f) for f in report.failures],
        }
        if not report.ok:
            raise CheckFailure(result)
        return result
    if op == "o_grothendieck":
        functor = _lax_functor_from_job(job)
        fib = o_grothendieck(functor, step_bound=ctx["bound"])
        rng = random.Random(ctx["seed"])
        results = []
        ok = True
        for i, raw in enumerate(job.typed("instances", list, [])):
            raw = Job(raw, job.name, f"instances[{i}]")
            operation = jsonio.decode_qconv(raw["operation"])
            objs = raw.typed("objects", list)
            pairs = [
                (o, _sample_elements(rng, functor.fibre(o), 1)[0]) for o in objs
            ]
            strict = fib.strictness_holds(operation, pairs)
            slot = rng.randrange(len(objs))
            variants = _sample_elements(rng, functor.fibre(objs[slot]), 2)
            nconv = fib.nconvex_in_slot(
                operation, pairs, slot, [F(1, 3), F(2, 3)], variants
            )
            recover = fib.recovers_functor(operation, tuple(objs))
            results.append(
                {
                    "operation": jsonio.encode_qconv(operation),
                    "strict": strict,
                    "n_convex": nconv,
                    "recovers": recover,
                }
            )
            ok = ok and strict and nconv and recover
        result = {"instances": results, "ok": ok}
        if not ok:
            raise CheckFailure(result)
        return result
    raise ParseError(f"unknown omon op {op!r}")


# -- twist -------------------------------------------------------------------------------


def _space_from_job(payload):
    from .simplicial import standard_circle, standard_point

    if isinstance(payload, dict) and "standard" in payload:
        name = payload["standard"]
        n_max = jsonio._typed(payload.get("N", 2), int, "space.N")
        if name == "circle":
            return standard_circle(n_max)
        if name == "point":
            return standard_point(n_max)
        raise ParseError(f"unknown standard space {name!r}")
    return jsonio.decode_simplicial_set(payload)


def handle_twist(job, ctx):
    from .simplicial import (
        bundle_iso_valid,
        bundle_tensor,
        check_simplicial_distribution,
        mu_product,
        twist_addition_iso,
        twist_monoid_structure,
        twisted_product,
    )

    op = job["op"]
    space = _space_from_job(job["space"])
    group = jsonio.decode_simplicial_group(job["group"])
    if op == "twisted_product":
        twist = jsonio.decode_twist(job["twist"], space, group)
        bundle = twisted_product(group, twist, space)
        return {
            "levels": [len(lv) for lv in bundle.total.levels],
            "total": jsonio.encode_simplicial_set(bundle.total),
            "principal": True,  # the constructor validates
        }
    if op == "check_distribution":
        twist = jsonio.decode_twist(job["twist"], space, group)
        bundle = twisted_product(group, twist, space)
        p = jsonio.decode_sdist(job["distribution"], bundle)
        report = check_simplicial_distribution(p, bundle)
        result = {
            "ok": report.ok,
            "failures": [list(map(str, f)) for f in report.failures],
        }
        if not report.ok:
            raise CheckFailure(result)
        return result
    if op == "bundle_tensor":
        t1 = jsonio.decode_twist(job["twist1"], space, group)
        t2 = jsonio.decode_twist(job["twist2"], space, group)
        b1 = twisted_product(group, t1, space)
        b2 = twisted_product(group, t2, space)
        tensored = bundle_tensor(b1, b2)
        target = twisted_product(group, t1 + t2, space)
        iso_ok = bundle_iso_valid(
            tensored, target, twist_addition_iso(tensored, target)
        )
        result = {
            "realizes_twist_addition": iso_ok,
            "sum_twist": jsonio.encode_twist(t1 + t2),
        }
        if not iso_ok:
            raise CheckFailure(result)
        return result
    if op == "mu_product":
        t1 = jsonio.decode_twist(job["twist1"], space, group)
        t2 = jsonio.decode_twist(job["twist2"], space, group)
        b1 = twisted_product(group, t1, space)
        b2 = twisted_product(group, t2, space)
        p = jsonio.decode_sdist(job["p"], b1)
        q = jsonio.decode_sdist(job["q"], b2)
        product = mu_product(p, q)
        report = check_simplicial_distribution(product, product.bundle)
        result = {
            "product": jsonio.encode_sdist(product),
            "valid": report.ok,
            "assumptions_used": ["m_product"],
        }
        if not report.ok:
            raise CheckFailure(result)
        return result
    if op == "twist_monoid":
        monoid = twist_monoid_structure(space, group)
        addition = {}
        for t1 in monoid.twists:
            for t2 in monoid.twists:
                key = (
                    jsonio.canonical_json(jsonio.encode_twist(t1)).strip()
                    + " + "
                    + jsonio.canonical_json(jsonio.encode_twist(t2)).strip()
                )
                addition[key] = jsonio.encode_twist(t1 + t2)
        return {
            "twist_count": len(monoid.twists),
            "zero": jsonio.encode_twist(monoid.zero),
            "addition": addition,
        }
    raise ParseError(f"unknown twist op {op!r}")


# -- entropy -----------------------------------------------------------------------------


def _candidate_from_spec(spec: str):
    """A callable candidate, or None for the tabulated form."""
    from .finprob import info_loss

    if spec == "info_loss":
        return info_loss
    if spec.startswith("scaled:"):
        c = float(Fraction(spec.split(":", 1)[1]))
        return lambda m: c * info_loss(m)
    if spec.startswith("custom-table:"):
        return None
    raise ParseError(f"unknown candidate {spec!r}")


def handle_entropy(args, ctx):
    from .finprob import (
        convex_combine_morphisms,
        dist_lax_xi,
        generate_corpus,
        info_loss,
        shannon_entropy,
        verify_entropy_axioms,
    )

    action = args.entropy_action
    if action == "gen":
        corpus = generate_corpus(
            seed=ctx["seed"], n_chains=args.chains, max_carrier=args.max_carrier
        )
        payload = jsonio.encode_corpus(corpus)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(jsonio.canonical_json(payload))
        return {"written": args.out, "morphisms": len(corpus.morphisms)}
    if action == "verify":
        from .finprob import verify_value_table

        corpus = jsonio.decode_corpus(jsonio.load_json(args.corpus))
        candidate = _candidate_from_spec(args.candidate)
        if candidate is None:
            # tabulated candidate: one value per morphism and per chain
            # composite; only additivity and the scalar fit are checkable
            table = jsonio.load_json(args.candidate.split(":", 1)[1])
            report = verify_value_table(
                [float(v) for v in table["values"]],
                [float(v) for v in table.get("chain_values", [])],
                corpus,
                tol=ctx["tol"],
            )
        else:
            report = verify_entropy_axioms(candidate, corpus, tol=ctx["tol"])
        result = dict(report.as_dict())
        result["assumptions_used"] = ["info_loss_sign"]
        if not report.all_passed:
            raise CheckFailure(result)
        return result
    if action == "eval":
        if args.object:
            obj = jsonio.decode_prob_object(jsonio.load_json(args.object))
            return {"entropy_nats": shannon_entropy(obj)}
        m = jsonio.decode_prob_morphism(jsonio.load_json(args.morphism))
        return {
            "info_loss": info_loss(m),
            "assumptions_used": ["info_loss_sign"],
        }
    if action == "combine":
        f = jsonio.decode_prob_morphism(jsonio.load_json(args.f))
        g = jsonio.decode_prob_morphism(jsonio.load_json(args.g))
        lam = RATIONAL.parse(args.lam)
        mixed = convex_combine_morphisms(lam, f, g)
        return {"morphism": jsonio.encode_prob_morphism(mixed)}
    if action == "xi":
        payload = Job(jsonio.load_json(args.input), "xi")
        alpha = QConvOp([RATIONAL.parse(str(a)) for a in payload["alpha"]])
        dists = [_dist(d) for d in payload.typed("dists", list)]
        out = dist_lax_xi(alpha, dists)
        return {"distribution": jsonio.encode_distribution(out)}
    raise ParseError(f"unknown entropy action {action!r}")


# -- selfcheck ----------------------------------------------------------------------------


def handle_selfcheck(ctx):
    from .tensor import check_biconvex_not_convex_counterexample

    report = check_biconvex_not_convex_counterexample()
    checks = {"counterexample_unequal": report.unequal}

    mats = list(convex_matrices(2, 2, 2))
    closure = all(
        is_convex_matrix(compose(a, b))
        for a in mats
        for b in mats
    )
    checks["conv_closed_under_compose"] = closure
    checks["conv_closed_under_direct_sum"] = all(
        is_convex_matrix(direct_sum(a, b)) for a in mats[:8] for b in mats[:8]
    )
    swap = (1, 0)
    ident = (0, 1)
    checks["conv_closed_under_permute"] = all(
        is_convex_matrix(permute(swap, m, ident)) for m in mats
    )
    small = list(convex_matrices(1, 2, 2))
    interchange = all(
        compose(direct_sum(p, q), direct_sum(r, s))
        == direct_sum(compose(p, r), compose(q, s))
        for p in small[:4]
        for q in small[:4]
        for r in (RMatrix.identity(2),)
        for s in (RMatrix.identity(2),)
    )
    checks["interchange_law"] = interchange
    checks["single_input_convex_is_unique"] = all(
        list(convex_matrices(n, 1, 3)) == [RMatrix.column_of_ones(n)]
        for n in (1, 2, 3)
    )
    ok = all(checks.values())
    result = {
        "checks": checks,
        "ok": ok,
        "assumptions_used": ["counterexample_value"],
    }
    if not ok:
        raise CheckFailure(result)
    return result


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
    parser = argparse.ArgumentParser(
        prog="convexion",
        description="Exact-arithmetic computational convex algebra.",
    )
    _global_flags(parser, top=True)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name):
        p = sub.add_parser(name)
        _global_flags(p, top=False)
        return p

    for verb in ("dist", "join", "tensor", "prop", "groth", "omon", "twist"):
        add_verb(verb).add_argument("--job", required=True, help="job JSON file")

    eq_p = add_verb("eq")
    eq_p.add_argument("--job", help="job JSON file")
    eq_p.add_argument("--presentation", help="presentation JSON file")
    eq_p.add_argument("--lhs", help="element JSON file")
    eq_p.add_argument("--rhs", help="element JSON file")

    ent = add_verb("entropy")
    ent_sub = ent.add_subparsers(dest="entropy_action", required=True)

    def add_action(name):
        p = ent_sub.add_parser(name)
        _global_flags(p, top=False)
        return p

    verify = add_action("verify")
    verify.add_argument("--corpus", required=True)
    verify.add_argument("--candidate", default="info_loss")
    gen = add_action("gen")
    gen.add_argument("--out", required=True)
    gen.add_argument("--chains", type=int, default=50)
    gen.add_argument("--max-carrier", dest="max_carrier", type=int, default=16)
    ev = add_action("eval")
    ev.add_argument("--object")
    ev.add_argument("--morphism")
    comb = add_action("combine")
    comb.add_argument("--lambda", dest="lam", required=True)
    comb.add_argument("--f", required=True)
    comb.add_argument("--g", required=True)
    xi = add_action("xi")
    xi.add_argument("--input", required=True)

    add_verb("selfcheck")
    return parser


JOB_HANDLERS = {
    "dist": handle_dist,
    "eq": handle_eq,
    "join": handle_join,
    "tensor": handle_tensor,
    "prop": handle_prop,
    "groth": handle_groth,
    "omon": handle_omon,
    "twist": handle_twist,
}


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
        if args.verb == "selfcheck":
            report["result"] = handle_selfcheck(ctx)
        elif args.verb == "entropy":
            report["result"] = handle_entropy(args, ctx)
        elif args.verb == "eq" and args.job is None:
            if not (args.presentation and args.lhs and args.rhs):
                raise ParseError(
                    "eq needs --job or all of --presentation/--lhs/--rhs"
                )
            report["result"] = handle_eq_flags(args, ctx)
        else:
            job = _load_job(args.job)
            report["op"] = job["op"]
            report["result"] = JOB_HANDLERS[args.verb](job, ctx)
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


# -- coverage registry ----------------------------------------------------------------------

#: Which module operations each verb reaches; asserted complete in tests.
VERB_OPERATIONS = {
    "dist": {"delta", "pushforward", "flatten", "convex_combine"},
    "eq": {"eq", "quotient_mix", "induce_map", "hom_combine", "verify_verdict"},
    "join": {"join_point", "join_mix", "copair"},
    "tensor": {
        "tensor",
        "universal_map",
        "extend_multiconvex",
        "coherence",
        "check_biconvex_not_convex_counterexample",
        "enriched_bridge",
    },
    "prop": {
        "is_convex_matrix",
        "compose",
        "direct_sum",
        "permute",
        "qconv_compose",
        "algebra_apply",
    },
    "groth": {
        "grothendieck",
        "is_discrete_fibration",
        "extract_functor",
        "convex_grothendieck",
    },
    "omon": {"trivial_structure", "star_alpha", "o_grothendieck", "check_lax"},
    "entropy": {
        "shannon_entropy",
        "info_loss",
        "convex_combine_morphisms",
        "verify_entropy_axioms",
        "dist_lax_xi",
    },
    "twist": {
        "twisted_product",
        "check_simplicial_distribution",
        "bundle_tensor",
        "mu_product",
        "twist_monoid_structure",
    },
    "selfcheck": {"check_biconvex_not_convex_counterexample", "is_convex_matrix"},
}
