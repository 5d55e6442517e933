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
    from ..distribution import FiniteDistribution, flatten, pushforward

    semiring = jsonio.semiring_of(job)
    outer = {}
    for i, item in enumerate(job["outer"].items()):
        inner = jsonio.decode_distribution(item["dist"], semiring)
        outer[i, inner] = item["weight"].literal(semiring)
    # an inner distribution listed twice is merged by the monad: pushed
    # forward along the second key, its weights add in the semiring
    merged = pushforward(lambda key: key[1], FiniteDistribution(outer, semiring))
    return _distribution(flatten(merged))


def dist_convex_combine(job, ctx):
    from ..distribution import convex_combine

    alpha = job.rationals("alpha")
    dists = [jsonio.decode_distribution(d) for d in job["dists"].items()]
    return _distribution(convex_combine(alpha, dists))
