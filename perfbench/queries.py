"""The timed queries of each workload, with the check of every output.

Library functions are always called through their module attribute
(``presentation.eq``), so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

from cli_jobs import argv_for
from inputs import mix
from convexion import distribution, finprob, join, jsonio, matprop, presentation, tensor


class Outcome:
    """What one query produced, as the benchmark judged it."""

    __slots__ = ("ok", "verdict", "escaped", "note")

    def __init__(self, ok, verdict=None, escaped=False, note=""):
        self.ok = ok
        self.verdict = verdict
        self.escaped = escaped
        self.note = note


# -- eq-tensor ------------------------------------------------------------------------


def _tensor_query(state, factors_json, query, bound):
    if state.get("factors") is None:
        state["factors"] = [jsonio.decode_presentation(p) for p in factors_json]
    factors = state["factors"]
    xs = [f.element(jsonio.decode_distribution(d)) for f, d in zip(factors, query["elements"])]
    lhs = tensor.universal_map(factors, xs)
    rhs = tensor.tensor(factors).element(distribution.FiniteDistribution(query["partner"]))
    verdict = presentation.eq(lhs, rhs, bound)
    ok = presentation.verify_verdict(verdict, lhs, rhs)
    kind = query["kind"]
    if kind in ("short", "segment", "stall"):
        ok = ok and verdict.is_equal  # a chain within the bound must be found
    elif kind == "long":
        ok = ok and not verdict.is_distinct  # the pair is equal by construction
    return Outcome(ok, verdict.status, note=kind)


def eq_tensor_stream(inputs):
    """Queries in order; each group's factors are decoded by its first query
    and shared by the rest, so the tensor cache and invariant basis are
    reused as in a library session."""
    fixed = inputs["fixed"]
    position = 0
    for group in itertools.cycle(inputs["groups"]):
        state = {}
        for query in group["queries"]:
            if position in fixed:
                instance = fixed[position]
                yield instance["kind"], (lambda f=instance: _fixed_query(f))
                position += 1
            yield query["kind"], (lambda s=state, g=group, q=query:
                                  _tensor_query(s, g["factors"], q, g["bound"]))
            position += 1


def _fixed_query(instance):
    return _tensor_query({}, instance["factors"], instance, instance["bound"])


# -- eq-fuzz ----------------------------------------------------------------------------


def _fuzz_query(query, bound):
    pres = jsonio.decode_presentation(query["presentation"])
    lhs = pres.element(jsonio.decode_distribution(query["lhs"]))
    rhs = pres.element(jsonio.decode_distribution(query["rhs"]))
    verdict = presentation.eq(lhs, rhs, bound)
    ok = presentation.verify_verdict(verdict, lhs, rhs)
    text = jsonio.canonical_json(jsonio.encode_verdict(verdict, pres))
    ok = ok and json.loads(text)["status"] == verdict.status
    return Outcome(ok, verdict.status)


def eq_fuzz_stream(inputs):
    bound = inputs["bound"]
    for query in itertools.cycle(inputs["queries"]):
        yield "fuzz", (lambda q=query: _fuzz_query(q, bound))


def replay_cli_verdict(verdict_json, pres_json, lhs_json, rhs_json):
    """Replay a verdict that the command line wrote, in this process."""
    pres = jsonio.decode_presentation(pres_json)
    lhs = pres.element(jsonio.decode_distribution(lhs_json))
    rhs = pres.element(jsonio.decode_distribution(rhs_json))
    verdict = jsonio.decode_verdict(verdict_json, pres)
    return presentation.verify_verdict(verdict, lhs, rhs)


# -- laws ----------------------------------------------------------------------------------


def _monad_laws(case):
    D = distribution.FiniteDistribution
    p = D(case["p"])
    if distribution.flatten(D({p: 1})) != p:
        return "left unit"
    if distribution.flatten(distribution.pushforward(distribution.delta, p)) != p:
        return "right unit"
    inner = [D(w) for w in case["inner"]]
    alpha = case["alpha"]
    mixed = distribution.convex_combine(alpha, inner)
    if mixed.as_dict() != mix(alpha, case["inner"]):
        return "convex_combine against the oracle"
    outer = D({q: a for q, a in zip(inner, alpha)})
    if distribution.flatten(outer) != mixed:
        return "flatten against convex_combine"
    half = len(inner) // 2
    middle = [D({q: F(1, len(part)) for q in part}) for part in (inner[:half], inner[half:])]
    nested = D({middle[0]: F(1, 4), middle[1]: F(3, 4)})
    if distribution.flatten(distribution.flatten(nested)) != distribution.flatten(
        distribution.pushforward(distribution.flatten, nested)
    ):
        return "associativity"
    f, g = case["f"], case["g"]
    composite = distribution.pushforward({a: g[f[a]] for a in f}, p)
    if composite != distribution.pushforward(g, distribution.pushforward(f, p)):
        return "pushforward functoriality"
    want = {}
    for a, w in case["p"].items():
        want[g[f[a]]] = want.get(g[f[a]], 0) + w
    if composite.as_dict() != want:
        return "pushforward against the oracle"
    return None


def _int_product(a, b):
    """Oracle: numerators over 6 (denominators are at most 3), products
    over 36, in integers."""
    ia = [[int(v * 6) for v in row] for row in a]
    ib = [[int(v * 6) for v in row] for row in b]
    return [[F(sum(ia[i][t] * ib[t][j] for t in range(len(ib))), 36)
             for j in range(len(ib[0]))] for i in range(len(ia))]


def _prop_laws(case):
    M = matprop.RMatrix
    a, b, c = M(case["a"]), M(case["b"]), M(case["c"])
    ab = matprop.compose(a, b)
    if [list(r) for r in ab.entries] != _int_product(case["a"], case["b"]):
        return "compose against the integer oracle"
    if matprop.compose(ab, c) != matprop.compose(a, matprop.compose(b, c)):
        return "associativity"
    p, q, r, s = M(case["p"]), M(case["q"]), M(case["r"]), M(case["s"])
    if matprop.compose(matprop.direct_sum(p, q), matprop.direct_sum(r, s)) != matprop.direct_sum(
        matprop.compose(p, r), matprop.compose(q, s)
    ):
        return "interchange"
    tau, sigma = case["tau"], case["sigma"]
    ident = list(range(a.cols))
    if matprop.permute(tau, ab, sigma) != matprop.compose(
        matprop.permute(tau, a, ident), matprop.permute(ident, b, sigma)
    ):
        return "permute bisymmetry"
    return None


def _join_laws(case):
    X = presentation.Presentation.free(("x0", "x1", "x2"))
    Y = presentation.Presentation.free(("y0", "y1"))
    Z = presentation.Presentation.free(("z0", "z1", "z2"))
    f = presentation.ConvexMap(X, Z, {g: Z.element(d) for g, d in case["f"].items()})
    g = presentation.ConvexMap(Y, Z, {h: Z.element(d) for h, d in case["g"].items()})
    h = join.copair(f, g)
    space = h.space
    pts = [space.point(alpha, X.element(x), Y.element(y)) for alpha, x, y in case["points"]]
    for alpha, x, y in case["points"]:
        if h(space.inject_x(X.element(x))) != f(X.element(x)):
            return "copair after inject_x"
        if h(space.inject_y(Y.element(y))) != g(Y.element(y)):
            return "copair after inject_y"
    beta = case["beta"]
    value = h(join.join_mix(beta, pts))
    if value != presentation.quotient_mix(beta, [h(pt) for pt in pts]):
        return "copair preserves join_mix"
    image = lambda m, d: mix(list(d.values()), [m[k] for k in d])
    want = mix(beta, [
        mix([alpha, 1 - alpha], [image(case["f"], x), image(case["g"], y)])
        for alpha, x, y in case["points"]
    ])
    if value.rep.as_dict() != want:
        return "copair against the oracle"
    return None


def _entropy(weights):
    return -sum(float(w) * math.log(float(w)) for w in weights if w)


def _finprob_laws(case):
    src = finprob.ProbObject(case["carrier"], case["weights"])
    first = finprob.ProbMorphism.from_map(src, case["first"])
    second = finprob.ProbMorphism.from_map(first.tgt, case["second"])
    h_src = finprob.shannon_entropy(src)
    if abs(h_src - _entropy(case["weights"].values())) > 1e-12:
        return "shannon_entropy against the oracle"
    loss1, loss2 = finprob.info_loss(first), finprob.info_loss(second)
    if abs(loss1 - (h_src - _entropy(first.tgt.weights.values()))) > 1e-12:
        return "info_loss against the oracle"
    if abs(finprob.info_loss(second.compose(first)) - (loss1 + loss2)) > 1e-9:
        return "info_loss additivity"
    return None


def _law_query(case):
    for name, check in (("monad", _monad_laws), ("prop", _prop_laws),
                        ("join", _join_laws), ("finprob", _finprob_laws)):
        broken = check(case[name])
        if broken:
            return Outcome(False, note=f"{name}: {broken}")
    return Outcome(True)


def laws_stream(inputs):
    """One query checks one seeded case of every law family, so every query
    does the same kinds of work and the latency percentiles stay inside one
    population."""
    for case in itertools.cycle(inputs["cases"]):
        yield "laws", (lambda c=case: _law_query(c))


# -- cli-oneshot -----------------------------------------------------------------------------


def cli_env(src_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def _cli_query(job, path, env):
    proc = subprocess.run(
        [sys.executable, "-m", "convexion", *argv_for(job["verb"], path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    traceback = "Traceback" in proc.stderr
    if job["malformed"]:
        if proc.returncode == 2 and not traceback:
            return Outcome(True, note=job["verb"])
        last = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
        return Outcome(False, escaped=True,
                       note=f"{job['label']}: exit {proc.returncode} {last}")
    ok = proc.returncode == 0 and not traceback
    if ok:
        try:
            ok = bool(job["check"](json.loads(proc.stdout)))
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, note=f"{job['label']}: unreadable report ({exc!r})")
    return Outcome(ok, note=job["verb"] if ok else f"{job['label']}: exit {proc.returncode}")


def cli_stream(jobs, paths, env):
    for job, path in itertools.cycle(list(zip(jobs, paths))):
        yield job["verb"], (lambda j=job, p=path: _cli_query(j, p, env))
