"""dist: the distribution monad on a job's distributions."""

from .. import jsonio
from ..cli import _distribution


def dist_delta(job, ctx):
    from ..distribution import delta

    semiring = jsonio.semiring_of(job)
    return _distribution(delta(job.typed("element", str), semiring))


def dist_pushforward(job, ctx):
    from ..distribution import pushforward

    fmap = {el: image.expect(str) for el, image in job["map"].entries()}
    return _distribution(pushforward(fmap, jsonio.decode_distribution(job["dist"])))


def dist_flatten(job, ctx):
    from ..distribution import FiniteDistribution, flatten

    semiring = jsonio.semiring_of(job)
    outer = {}
    for item in job["outer"].items():
        inner = jsonio.decode_distribution(item["dist"], semiring)
        w = item["weight"].literal(semiring)
        outer[inner] = semiring.add(outer.get(inner, semiring.zero()), w)
    return _distribution(flatten(FiniteDistribution(outer, semiring)))


def dist_convex_combine(job, ctx):
    from ..distribution import convex_combine

    alpha = job.rationals("alpha")
    dists = [jsonio.decode_distribution(d) for d in job["dists"].items()]
    return _distribution(convex_combine(alpha, dists))
