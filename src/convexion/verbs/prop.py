"""prop: the convexity PROP of matrices and the quasiconvexity operad."""

from .. import jsonio
from ..errors import ParseError


def prop_is_convex_matrix(job, ctx):
    from ..matprop import is_convex_matrix

    return {"convex": is_convex_matrix(jsonio.decode_matrix(job["matrix"]))}


def prop_compose(job, ctx):
    from ..matprop import compose

    out = compose(jsonio.decode_matrix(job["left"]), jsonio.decode_matrix(job["right"]))
    return {"matrix": jsonio.encode_matrix(out)}


def prop_direct_sum(job, ctx):
    from ..matprop import direct_sum

    out = direct_sum(jsonio.decode_matrix(job["left"]), jsonio.decode_matrix(job["right"]))
    return {"matrix": jsonio.encode_matrix(out)}


def prop_permute(job, ctx):
    from ..matprop import permute

    tau, sigma = job.typed("tau", list), job.typed("sigma", list)
    if not all(type(i) is int for i in tau + sigma):
        raise ParseError("tau, sigma: expected lists of indices")
    out = permute(tuple(tau), jsonio.decode_matrix(job["matrix"]), tuple(sigma))
    return {"matrix": jsonio.encode_matrix(out)}


def prop_qconv_compose(job, ctx):
    from ..matprop import qconv_compose

    outer = jsonio.decode_qconv(job["outer"])
    inner = [jsonio.decode_qconv(x) for x in job["inner"].items()]
    return {"operation": jsonio.encode_qconv(qconv_compose(outer, inner))}


def prop_algebra_apply(job, ctx):
    from ..matprop import algebra_apply

    pres = jsonio.decode_presentation(job["presentation"])
    matrix = jsonio.decode_matrix(job["matrix"])
    xs = [jsonio.decode_element(d, pres) for d in job["elements"].items()]
    out = algebra_apply(pres, matrix, xs)
    return {"elements": [jsonio.encode_distribution(e.rep) for e in out]}
