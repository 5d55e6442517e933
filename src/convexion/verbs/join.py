"""join: points of the join of two presentations, their mixtures, and
copaired maps out of it."""

from .. import jsonio


def _join_space(job):
    from ..join import JoinSpace

    return JoinSpace(*(jsonio.decode_presentation(job[f"{s}_presentation"]) for s in "xy"))


def join_join_point(job, ctx):
    pt = jsonio.decode_join_element(job["point"], _join_space(job))
    return {"point": jsonio.encode_join_element(pt), "assumptions_used": []}


def join_join_mix(job, ctx):
    from ..join import join_mix

    space = _join_space(job)
    beta = job.rationals("beta")
    pts = [jsonio.decode_join_element(p, space) for p in job["points"].items()]
    point = jsonio.encode_join_element(join_mix(beta, pts))
    return {"point": point, "assumptions_used": ["join_mix"]}


def join_copair(job, ctx):
    from ..join import copair

    space = _join_space(job)
    tgt = jsonio.decode_presentation(job["target"])
    f = jsonio.decode_convex_map(job["f"], space.x_factor, tgt)
    g = jsonio.decode_convex_map(job["g"], space.y_factor, tgt)
    h = copair(f, g)
    pt = jsonio.decode_join_element(job["point"], h.space)
    return {"value": jsonio.encode_distribution(h(pt).rep)}
