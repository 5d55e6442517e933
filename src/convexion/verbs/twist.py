"""twist: twisted products and simplicial distributions."""

from .. import jsonio
from ..cli import _checked


def _space_and_group(job):
    from ..simplicial import standard_circle, standard_point

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
    from ..simplicial import twisted_product

    twist = jsonio.decode_twist(job[key], space, group)
    return twist, twisted_product(group, twist, space)


def twist_twisted_product(job, ctx):
    _, bundle = _bundle(job, "twist", *_space_and_group(job))
    return {
        "levels": [len(lv) for lv in bundle.total.levels],
        "total": jsonio.encode_simplicial_set(bundle.total),
        "principal": True,  # the constructor validates
    }


def twist_check_distribution(job, ctx):
    from ..simplicial import check_simplicial_distribution

    _, bundle = _bundle(job, "twist", *_space_and_group(job))
    p = jsonio.decode_sdist(job["distribution"], bundle)
    failures = [list(map(str, f)) for f in check_simplicial_distribution(p, bundle)]
    return _checked(not failures, {"ok": not failures, "failures": failures})


def twist_bundle_tensor(job, ctx):
    from ..simplicial import bundle_iso_valid, bundle_tensor, twist_addition_iso, twisted_product

    space, group = _space_and_group(job)
    t1, b1 = _bundle(job, "twist1", space, group)
    t2, b2 = _bundle(job, "twist2", space, group)
    tensored = bundle_tensor(b1, b2)
    sum_twist = t1 + t2
    target = twisted_product(group, sum_twist, space)
    iso_ok = bundle_iso_valid(tensored, target, twist_addition_iso(tensored, target))
    result = {"realizes_twist_addition": iso_ok, "sum_twist": jsonio.encode_twist(sum_twist)}
    return _checked(iso_ok, result)


def _total_sdist(job, key, bundle):
    """The simplicial distribution at job[key], which must have a
    distribution at every base simplex of every level."""
    p = jsonio.decode_sdist(job[key], bundle)
    base = bundle.base
    for n in range(base.n_max + 1):
        for x in base.simplices(n):
            if x not in p.levels.get(n, ()):
                raise job[key]["levels"].error(f"no distribution at simplex {x!r} of level {n}")
    return p


def twist_mu_product(job, ctx):
    from ..simplicial import check_simplicial_distribution, mu_product

    space, group = _space_and_group(job)
    _, b1 = _bundle(job, "twist1", space, group)
    _, b2 = _bundle(job, "twist2", space, group)
    product = mu_product(_total_sdist(job, "p", b1), _total_sdist(job, "q", b2))
    valid = not check_simplicial_distribution(product, product.bundle)
    return _checked(
        valid,
        {
            "product": jsonio.encode_sdist(product),
            "valid": valid,
            "assumptions_used": ["m_product"],
        },
    )


def twist_twist_monoid(job, ctx):
    from ..simplicial import twist_monoid_structure

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
