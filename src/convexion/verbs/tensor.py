"""tensor: the convex tensor product, its universal property, its
coherences, and the biconvex-but-not-convex composition."""

from .. import jsonio
from ..cli import _checked, _factors, _induced, _object_pair


def _elements(job, factors):
    """The list field "elements": one element of each factor, in order."""
    items = job["elements"].items()
    if len(items) != len(factors):
        raise job["elements"].error(f"expected {len(factors)} elements, one per factor")
    return [jsonio.decode_element(d, f) for f, d in zip(factors, items)]


def tensor_tensor(job, ctx):
    from ..tensor import tensor

    pres = job["factors"].build(tensor, _factors(job))
    return {"presentation": jsonio.encode_presentation(pres)}


def tensor_universal_map(job, ctx):
    from ..tensor import universal_map

    factors = _factors(job)
    xs = _elements(job, factors)
    return {"element": jsonio.encode_distribution(universal_map(factors, xs).rep)}


def tensor_extend_multiconvex(job, ctx):
    from ..tensor import extend_multiconvex, restrict_multiconvex, universal_map

    spec = jsonio.decode_nconvex_spec(job["spec"])
    fmap, refusal = _induced(lambda: extend_multiconvex(spec), False)
    if refusal:
        return refusal
    result = {"accepted": True}
    if "elements" in job:
        xs = _elements(job, spec.factors)
        out = fmap(universal_map(list(spec.factors), xs))
        result["value"] = jsonio.encode_distribution(out.rep)
    result["restriction"] = jsonio.encode_nconvex_spec(restrict_multiconvex(fmap))
    return result


def tensor_coherence(job, ctx):
    from ..tensor import coherence

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


def tensor_counterexample(job, ctx):
    from ..tensor import check_biconvex_not_convex_counterexample

    report = check_biconvex_not_convex_counterexample()
    result = {
        "biconvex_value": jsonio.encode_distribution(report.biconvex_value),
        "convex_hypothesis_value": jsonio.encode_distribution(report.convex_hypothesis_value),
        "unequal": report.unequal,
        "note": report.value_note,
        "assumptions_used": ["counterexample_value"],
    }
    return _checked(report.unequal, result)


def tensor_enriched_bridge(job, ctx):
    from ..tensor import BiconvexCategory, enriched_bridge, enriched_inverse

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
