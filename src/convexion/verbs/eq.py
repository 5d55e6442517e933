"""eq: equality in a presented convex set, its certificates, and the maps
between presentations."""

from .. import MAX_STEP_BOUND, jsonio
from ..cli import _checked, _induced


def eq_eq(job, ctx):
    from ..presentation import eq, verify_verdict

    pres = jsonio.decode_presentation(job["presentation"])
    lhs, rhs = jsonio.decode_element(job["lhs"], pres), jsonio.decode_element(job["rhs"], pres)
    field = job.get("bound", ctx["bound"])  # --bound is checked by cli.run
    if (bound := field.nonnegative_int()) > MAX_STEP_BOUND:
        raise field.error(f"expected an integer <= {MAX_STEP_BOUND}")
    verdict = eq(lhs, rhs, bound)
    return {
        "verdict": jsonio.encode_verdict(verdict, pres),
        "verified": verify_verdict(verdict, lhs, rhs),
    }


def eq_quotient_mix(job, ctx):
    from ..presentation import quotient_mix

    pres = jsonio.decode_presentation(job["presentation"])
    alpha = job.rationals("alpha")
    elements = [jsonio.decode_element(d, pres) for d in job["elements"].items()]
    return {"element": jsonio.encode_distribution(quotient_mix(alpha, elements).rep)}


def eq_induce_map(job, ctx):
    from ..presentation import induce_map

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


def eq_hom_combine(job, ctx):
    from ..presentation import hom_combine

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


def eq_verify(job, ctx):
    from ..presentation import verify_verdict

    pres = jsonio.decode_presentation(job["presentation"])
    lhs, rhs = jsonio.decode_element(job["lhs"], pres), jsonio.decode_element(job["rhs"], pres)
    verdict = jsonio.decode_verdict(job["verdict"], pres)
    ok = verify_verdict(verdict, lhs, rhs)
    return _checked(ok, {"verified": ok})
