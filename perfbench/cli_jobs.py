"""Seeded job files for the one-shot command line, and their checks.

Every verb is covered.  Well-formed jobs carry seeded values and a check
of the report against an independent computation (an ``eq`` verdict is
replayed through the library).  Malformed jobs change one field of a
well-formed job: they remove a field the handler has no default for, or set
a field to null, 7, "x", [] or {} where that is another JSON type than the
field's.  They must exit with code 2 without a traceback.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

from inputs import convex_row, dist_json, mix, presentation_json, random_weights

MALFORMED_EVERY = 4  # one job in four is malformed
JOB_CYCLES = 24  # template cycles generated; runs cycle through them
MUTATIONS = ("remove", None, 7, "x", [], {})
# Fields a job may leave out (the handler has a default); they are not removed.
OPTIONAL = {"bound", "functor", "max_size", "unit_objects", "instances"}


def _weights_of(report_dist):
    return {w["el"]: F(w["w"]) for w in report_dist["weights"]}


def _matrix_json(rows):
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "entries": [[str(v) for v in row] for row in rows]}


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _matrix_of(report_matrix):
    return [[F(v) for v in row] for row in report_matrix["entries"]]


# Fixed payloads for the verbs whose inputs are structures, not numbers.
ARROW_CAT = {
    "objects": ["0", "1"],
    "morphisms": [
        {"id": "id0", "src": "0", "tgt": "0"},
        {"id": "id1", "src": "1", "tgt": "1"},
        {"id": "f", "src": "0", "tgt": "1"},
    ],
    "compose": [["id0", "id0", "id0"], ["id1", "id1", "id1"],
                ["f", "id0", "f"], ["id1", "f", "f"]],
}
CIRCLE = {"standard": "circle", "N": 2}
Z2 = {"cyclic": 2, "N": 2}
TWIST0 = {"maps": {"1": {"e": "0", "sv": "0"}, "2": {"s0e": "0", "s1e": "0", "ssv": "0"}}}
TWIST1 = {"maps": {"1": {"e": "1", "sv": "0"}, "2": {"s0e": "0", "s1e": "1", "ssv": "0"}}}


def _delta_json(el):
    return {"weights": [{"el": el, "w": "1"}]}


# Each template builder returns (verb, job payload, check); the check gets
# the parsed report.  Ops that need extra argv (entropy) return argv parts.


def t_dist_pushforward(rng):
    gens = ["a", "b", "c", "d"]
    p = random_weights(rng, gens, 4)
    fmap = {g: rng.choice(("u", "v", "w")) for g in gens}
    want = {}
    for g, w in p.items():
        want[fmap[g]] = want.get(fmap[g], 0) + w
    job = {"op": "pushforward", "map": fmap, "dist": dist_json(p)}
    return "dist", job, lambda r: _weights_of(r["result"]["distribution"]) == want


def t_dist_flatten(rng):
    gens = ["a", "b", "c"]
    inner = [random_weights(rng, gens, 3) for _ in range(2)]
    if inner[0] == inner[1]:
        inner[1] = {"a": F(1)} if inner[0] != {"a": F(1)} else {"b": F(1)}
    outer = [F(1, 3), F(2, 3)]
    job = {"op": "flatten", "outer": [{"weight": str(w), "dist": dist_json(d)}
                                      for w, d in zip(outer, inner)]}
    want = mix(outer, inner)
    return "dist", job, lambda r: _weights_of(r["result"]["distribution"]) == want


def t_dist_combine(rng):
    gens = ["a", "b", "c"]
    dists = [random_weights(rng, gens, 3) for _ in range(3)]
    alpha = [F(1, 2), F(1, 3), F(1, 6)]
    job = {"op": "convex_combine", "alpha": [str(a) for a in alpha],
           "dists": [dist_json(d) for d in dists]}
    want = mix(alpha, dists)
    return "dist", job, lambda r: _weights_of(r["result"]["distribution"]) == want


def t_dist_delta(rng):
    el = rng.choice(("a", "b", "c"))
    job = {"op": "delta", "element": el}
    return "dist", job, lambda r: _weights_of(r["result"]["distribution"]) == {el: 1}


def _replays(verdict, pres, lhs, rhs):
    from queries import replay_cli_verdict  # the library, for checks only

    return replay_cli_verdict(verdict, pres, lhs, rhs)


def t_eq(rng):
    gens = [f"g{i}" for i in range(rng.randint(2, 4))]
    rels = [(random_weights(rng, gens, 3), random_weights(rng, gens, 3))
            for _ in range(rng.randint(1, 2))]
    pres = presentation_json(gens, rels)
    lhs, rhs = dist_json(random_weights(rng, gens, 3)), dist_json(random_weights(rng, gens, 3))
    job = {"op": "eq", "presentation": pres, "lhs": lhs, "rhs": rhs, "bound": 3}
    return "eq", job, lambda r: (r["result"]["verified"] is True
                                 and _replays(r["result"]["verdict"], pres, lhs, rhs))


def t_eq_mix(rng):
    gens = ["a", "b", "c"]
    els = [random_weights(rng, gens, 3) for _ in range(2)]
    alpha = [F(1, 4), F(3, 4)]
    job = {"op": "quotient_mix", "presentation": presentation_json(gens, []),
           "alpha": [str(a) for a in alpha], "elements": [dist_json(e) for e in els]}
    want = mix(alpha, els)
    return "eq", job, lambda r: _weights_of(r["result"]["element"]) == want


def t_join_mix(rng):
    pts, want_alpha = [], 0
    beta = [F(1, 2), F(1, 2)]
    for b in beta:
        alpha = rng.choice((F(0), F(1, 3), F(1)))
        want_alpha += b * alpha
        pts.append({"alpha": str(alpha),
                    "x": dist_json(random_weights(rng, ["a", "b"], 2)) if alpha else None,
                    "y": dist_json(random_weights(rng, ["u", "v"], 2)) if alpha != 1 else None})
    job = {"op": "join_mix", "x_presentation": presentation_json(["a", "b"], []),
           "y_presentation": presentation_json(["u", "v"], []),
           "beta": [str(b) for b in beta], "points": pts}
    return "join", job, lambda r: F(r["result"]["point"]["alpha"]) == want_alpha


def t_join_copair(rng):
    fz = {g: random_weights(rng, ["z0", "z1"], 2) for g in ("a", "b")}
    gz = {"u": random_weights(rng, ["z0", "z1"], 2)}
    alpha = rng.choice((F(1, 4), F(1, 2), F(3, 4)))
    x = random_weights(rng, ["a", "b"], 2)
    want = mix([alpha, 1 - alpha], [mix(list(x.values()), [fz[g] for g in x]), gz["u"]])
    job = {"op": "copair", "x_presentation": presentation_json(["a", "b"], []),
           "y_presentation": presentation_json(["u"], []),
           "target": presentation_json(["z0", "z1"], []),
           "f": {g: dist_json(d) for g, d in fz.items()},
           "g": {g: dist_json(d) for g, d in gz.items()},
           "point": {"alpha": str(alpha), "x": dist_json(x), "y": _delta_json("u")}}
    return "join", job, lambda r: _weights_of(r["result"]["value"]) == want


def t_tensor_universal(rng):
    xs = [random_weights(rng, ["a", "b"], 3), random_weights(rng, ["c", "d"], 3)]
    want = {f"({g},{h})": v * w for g, v in xs[0].items() for h, w in xs[1].items()}
    job = {"op": "universal_map",
           "factors": [presentation_json(["a", "b"], []), presentation_json(["c", "d"], [])],
           "elements": [dist_json(x) for x in xs]}
    return "tensor", job, lambda r: _weights_of(r["result"]["element"]) == want


def t_tensor_coherence(rng):
    kind = rng.choice(("braiding", "left_unitor", "right_unitor"))
    factors = [presentation_json(["a", "b"], [])]
    if kind == "braiding":
        factors.append(presentation_json(["c", "d"], []))
    job = {"op": "coherence", "kind": kind, "factors": factors}
    return "tensor", job, lambda r: r["result"]["two_sided_inverse"] is True


def t_prop_compose(rng):
    n, k, m = (rng.randint(1, 3) for _ in range(3))
    a = [convex_row(rng, k) for _ in range(n)]
    b = [convex_row(rng, m) for _ in range(k)]
    want = _matmul(a, b)
    job = {"op": "compose", "left": _matrix_json(a), "right": _matrix_json(b)}
    return "prop", job, lambda r: _matrix_of(r["result"]["matrix"]) == want


def t_prop_permute(rng):
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    a = [convex_row(rng, m) for _ in range(n)]
    tau, sigma = list(range(n)), list(range(m))
    rng.shuffle(tau)
    rng.shuffle(sigma)
    want = [[a[tau[i]][sigma[j]] for j in range(m)] for i in range(n)]
    job = {"op": "permute", "tau": tau, "matrix": _matrix_json(a), "sigma": sigma}
    return "prop", job, lambda r: _matrix_of(r["result"]["matrix"]) == want


def t_groth(rng):
    job = {"op": "grothendieck", "category": ARROW_CAT,
           "functor": {"on_objects": {"0": ["x", "y"], "1": ["z"]},
                       "on_morphisms": {"id0": {"x": "x", "y": "y"}, "id1": {"z": "z"},
                                        "f": {"x": "z", "y": "z"}}}}
    return "groth", job, lambda r: (r["result"]["is_discrete_fibration"] is True
                                    and len(r["result"]["total"]["objects"]) == 3)


def t_omon_star(rng):
    alpha = rng.choice((["1/2", "1/2"], ["1/3", "2/3"], ["1/4", "3/4"]))
    job = {"op": "star_alpha", "alpha": alpha,
           "factors": [presentation_json(["a", "b"], []), presentation_json(["c", "d"], [])]}
    return "omon", job, lambda r: len(r["result"]["presentation"]["generators"]) == 4


def t_omon_lax(rng):
    job = {"op": "check_lax", "functor": "dist", "max_size": 6, "unit_objects": ["S1", "S2"],
           "instances": [{"operation": {"arity": 2, "alpha": ["1/2", "1/2"]},
                          "inner": [{"alpha": ["1"]}, {"alpha": ["1/3", "2/3"]}],
                          "objects": ["S1", "S1", "S2"]}]}
    return "omon", job, lambda r: r["result"]["ok"] is True


def t_twist_bundle(rng):
    job = {"op": "bundle_tensor", "space": CIRCLE, "group": Z2,
           "twist1": TWIST1, "twist2": TWIST1}
    return "twist", job, lambda r: (r["result"]["realizes_twist_addition"] is True
                                    and r["result"]["sum_twist"] == TWIST0)


def t_twist_product(rng):
    job = {"op": "twisted_product", "space": CIRCLE, "group": Z2,
           "twist": rng.choice((TWIST0, TWIST1))}
    return "twist", job, lambda r: r["result"]["levels"] == [2, 4, 6]


def t_entropy_eval(rng):
    carrier = [f"x{i}" for i in range(rng.randint(2, 12))]
    p = random_weights(rng, carrier, 8)
    want = -sum(float(w) * math.log(float(w)) for w in p.values())
    obj = {"carrier": carrier, "p": {x: str(w) for x, w in p.items()}}
    return "entropy", obj, lambda r: abs(r["result"]["entropy_nats"] - want) <= 1e-12


def t_selfcheck(rng):
    return "selfcheck", None, lambda r: r["result"]["ok"] is True


TEMPLATES = (
    t_dist_pushforward, t_dist_flatten, t_dist_combine, t_dist_delta,
    t_eq, t_eq_mix, t_join_mix, t_join_copair, t_tensor_universal,
    t_tensor_coherence, t_prop_compose, t_prop_permute, t_groth,
    t_omon_star, t_omon_lax, t_twist_bundle, t_twist_product,
    t_entropy_eval, t_selfcheck,
)


def argv_for(verb, path):
    if verb == "selfcheck":
        return ["selfcheck"]
    if verb == "entropy":
        return ["entropy", "eval", "--object", path]
    return [verb, "--job", path]


def _mutate(rng, job):
    fields = [k for k in job if k != "op"]
    field = rng.choice(fields)
    original = job[field]
    choices = [m for m in MUTATIONS
               if (m == "remove" and field not in OPTIONAL)
               or m is None or (m != "remove" and type(m) is not type(original))]
    mutation = rng.choice(choices)
    bad = dict(job)
    if mutation == "remove":
        del bad[field]
    else:
        bad[field] = mutation
    label = "removed" if mutation == "remove" else repr(mutation)
    return bad, f"{field}={label}"


def cli_jobs(seed):
    """A list of jobs: dicts with verb, payload (None for selfcheck),
    malformed flag, a label, and a check for well-formed reports."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(JOB_CYCLES):
        order = list(TEMPLATES)
        rng.shuffle(order)
        for template in order:
            verb, payload, check = template(rng)
            name = template.__name__[2:]
            if len(jobs) % MALFORMED_EVERY == MALFORMED_EVERY - 1 and payload is not None:
                bad, what = _mutate(rng, payload)
                jobs.append({"verb": verb, "payload": bad, "malformed": True,
                             "label": f"{name} {what}", "check": None})
            else:
                jobs.append({"verb": verb, "payload": payload, "malformed": False,
                             "label": name, "check": check})
    return jobs
