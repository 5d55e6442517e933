"""Finite probability spaces, entropy, the information-loss functional,
and the category seen as a convex Grothendieck construction."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from convexion.category import fin_skeleton
from convexion.distribution import FiniteDistribution, delta, pushforward
from convexion.errors import ArityMismatch, InvalidInput, NotMeasurePreserving, NotNormalized
from convexion.finprob import (
    ProbMorphism,
    ProbObject,
    binary_entropy,
    convex_combine_morphisms,
    convex_combine_objects,
    dist_lax_xi,
    generate_corpus,
    info_loss,
    shannon_entropy,
    verify_entropy_axioms,
    verify_value_table,
)
from convexion.jsonio import canonical_json
from convexion.matprop import QConvOp

F = Fraction
LN2 = math.log(2)


def uniform(n, prefix="x"):
    carrier = [f"{prefix}{i}" for i in range(n)]
    return ProbObject(carrier, {c: F(1, n) for c in carrier})


# -- entropy values ---------------------------------------------------------------


def test_delta_entropy_zero():
    obj = ProbObject(["a", "b"], {"a": F(1)})
    assert shannon_entropy(obj) == 0.0


def test_uniform_two_is_ln2():
    assert abs(shannon_entropy(uniform(2)) - LN2) < 1e-12
    assert abs(shannon_entropy(uniform(2)) - 0.6931471805599453) < 1e-12


def test_uniform_four_is_two_ln2():
    assert abs(shannon_entropy(uniform(4)) - 2 * LN2) < 1e-12
    assert abs(shannon_entropy(uniform(4)) - 1.3862943611198906) < 1e-9


# -- morphisms ----------------------------------------------------------------------


def test_identity_info_loss_zero():
    assert info_loss(ProbMorphism.identity(uniform(3))) == 0.0


def test_collapse_uniform_two_loses_ln2():
    src = uniform(2)
    m = ProbMorphism.from_map(src, {"x0": "y", "x1": "y"})
    assert abs(info_loss(m) - LN2) < 1e-12


def test_bijection_loses_nothing():
    src = ProbObject(["a", "b"], {"a": F(1, 3), "b": F(2, 3)})
    m = ProbMorphism.from_map(src, {"a": "v", "b": "u"})
    assert abs(info_loss(m)) < 1e-15


def test_measure_preservation_is_validated_exactly():
    src = uniform(2)
    tgt = ProbObject(["y"], {"y": F(1)})
    ProbMorphism(src, tgt, {"x0": "y", "x1": "y"})
    bad_tgt = ProbObject(["y", "z"], {"y": F(1, 2), "z": F(1, 2)})
    with pytest.raises(NotMeasurePreserving):
        ProbMorphism(src, bad_tgt, {"x0": "y", "x1": "y"})


def test_info_loss_nonnegative_randomized():
    rng = random.Random(51)
    for _ in range(60):
        size = rng.randint(1, 16)
        carrier = [f"x{i}" for i in range(size)]
        cuts = [rng.randint(0, 6) for _ in carrier]
        if sum(cuts) == 0:
            cuts[0] = 1
        src = ProbObject(
            carrier, {c: F(w, sum(cuts)) for c, w in zip(carrier, cuts)}
        )
        mapping = {c: f"y{rng.randint(0, max(0, size // 2))}" for c in carrier}
        m = ProbMorphism.from_map(src, mapping)
        assert info_loss(m) >= -1e-12


# -- convex combinations --------------------------------------------------------------


def test_half_mix_of_identities_is_identity_on_uniform4():
    f = ProbMorphism.identity(uniform(2, "a"))
    g = ProbMorphism.identity(uniform(2, "b"))
    mixed = convex_combine_morphisms(F(1, 2), f, g)
    assert len(mixed.src.carrier) == 4
    assert all(w == F(1, 4) for w in mixed.src.weights.values())
    assert mixed.mapping == {x: x for x in mixed.src.carrier}
    assert abs(shannon_entropy(mixed.src) - 2 * LN2) < 1e-12


def test_degenerate_lambda_keeps_both_summands():
    f = ProbMorphism.identity(uniform(2, "a"))
    g = ProbMorphism.identity(uniform(3, "b"))
    mixed = convex_combine_morphisms(F(1), f, g)
    assert len(mixed.src.carrier) == 5
    assert sum(mixed.src.weights.values()) == 1
    assert set(mixed.src.weights) == {("L", "a0"), ("L", "a1")}


def test_info_loss_respects_convexity():
    rng = random.Random(52)
    corpus = generate_corpus(seed=7, n_chains=5, max_carrier=8)
    f, g = corpus.morphisms[0], corpus.morphisms[1]
    for k in range(9):
        lam = F(k, 8)
        mixed = convex_combine_morphisms(lam, f, g)
        lhs = info_loss(mixed)
        rhs = float(lam) * info_loss(f) + (1 - float(lam)) * info_loss(g)
        assert abs(lhs - rhs) < 1e-9


def test_grouping_identity_on_lambda_grid():
    p = uniform(2)
    q = ProbObject(["z"], {"z": F(1)})
    for k in range(9):
        lam = F(k, 8)
        mixed = convex_combine_objects(lam, p, q)
        expected = (
            float(lam) * shannon_entropy(p)
            + (1 - float(lam)) * shannon_entropy(q)
            + binary_entropy(lam)
        )
        assert abs(shannon_entropy(mixed) - expected) < 1e-9


def test_grouping_identity_frozen_value():
    # lambda = 1/2, uniform pair against a point: (1/2) ln 2 + ln 2
    mixed = convex_combine_objects(
        F(1, 2), uniform(2), ProbObject(["z"], {"z": F(1)})
    )
    assert abs(shannon_entropy(mixed) - 1.0397207708399179) < 1e-9


@pytest.mark.parametrize("lam", [F(3, 2), F(-1, 2), 2])
def test_combine_objects_rejects_lambda_outside_the_unit_interval(lam):
    with pytest.raises(NotNormalized, match=f"^mixing weight {lam} is outside \\[0, 1\\]$"):
        convex_combine_objects(lam, uniform(2), ProbObject(["z"], {"z": F(1)}))

# -- the lax mixture on distributions ---------------------------------------------------


def test_dist_lax_xi_single():
    p = FiniteDistribution({"a": F(1, 2), "b": F(1, 2)})
    assert dist_lax_xi(QConvOp([F(1)]), [p]) == p


def test_dist_lax_xi_two_deltas():
    got = dist_lax_xi(QConvOp([F(1, 2), F(1, 2)]), [delta("u"), delta("v")])
    assert got == FiniteDistribution({"u": F(1, 2), "v": F(1, 2)})


def test_dist_lax_xi_preserves_normalization_and_checks_carriers():
    p = FiniteDistribution({"a": F(1, 3), "b": F(2, 3)})
    q = FiniteDistribution({"c": F(1)})
    out = dist_lax_xi(QConvOp([F(1, 4), F(3, 4)]), [p, q])
    assert sum(w for _, w in out.items()) == 1
    with pytest.raises(InvalidInput):
        dist_lax_xi(QConvOp([F(1, 2), F(1, 2)]), [p, p])
    with pytest.raises(ArityMismatch):
        dist_lax_xi(QConvOp([F(1)]), [p, q])


# -- axiom verification -------------------------------------------------------------------


def test_info_loss_passes_all_axioms_with_c_one():
    corpus = generate_corpus(seed=11, n_chains=30, max_carrier=12)
    report = verify_entropy_axioms(info_loss, corpus)
    assert report["all_passed"]
    assert abs(report["fitted_c"] - 1.0) < 1e-6
    assert report["max_residual"] < 1e-9


def test_doubled_info_loss_passes_with_c_two():
    corpus = generate_corpus(seed=12, n_chains=20, max_carrier=10)
    report = verify_entropy_axioms(lambda m: 2 * info_loss(m), corpus)
    assert report["all_passed"]
    assert abs(report["fitted_c"] - 2.0) < 1e-6


def test_squared_info_loss_fails_additivity_with_witness():
    corpus = generate_corpus(seed=13, n_chains=30, max_carrier=12)
    report = verify_entropy_axioms(lambda m: info_loss(m) ** 2, corpus)
    assert not report["composition"]["passed"]
    assert report["composition"]["failures"]  # concrete witnessed chain


def test_squared_additivity_fails_on_two_collapses():
    # 4 -> 2 -> 1 uniform collapses: F = ln2 at each stage, composite 2 ln2.
    src = uniform(4)
    g = ProbMorphism.from_map(src, {"x0": "u0", "x1": "u0", "x2": "u1", "x3": "u1"})
    f = ProbMorphism.from_map(g.tgt, {"u0": "w", "u1": "w"})
    sq = lambda m: info_loss(m) ** 2
    lhs = sq(f.compose(g))
    rhs = sq(f) + sq(g)
    assert abs(lhs - (2 * LN2) ** 2) < 1e-12
    assert abs(rhs - 2 * LN2**2) < 1e-12
    assert abs(lhs - rhs) > 0.5


# The sha256 of each report's canonical JSON on one seeded corpus: three
# callable candidates, and a table of info_loss values whose chain 3 is off by
# one half (one composition failure; convexity and continuity skipped).
REPORT_DIGESTS = {
    "info_loss": "73341c8c12c0d38bfb68289571dbce44c3e1978c4c66cbd046e6e22cada8c12e",
    "doubled": "87d62b01e125fc1890f52b3376bb079cd628fd4fe13d1c1ca0261fb6c6e0d60f",
    "squared": "2b9e20489df7b0f3a78f59b1fb9859f5ae81ace609d67e8c3ce1c8dbe9c89445",
    "table": "f5678ad6cbee040aecd3017ab573694bcb80460e19e66773e5812f037474a76d",
}


def test_verifier_reports_are_pinned():
    corpus = generate_corpus(seed=17, n_chains=12, max_carrier=6)
    chain_values = [info_loss(f.compose(g)) for f, g in map(corpus.chain_morphisms, range(12))]
    chain_values[3] += 0.5
    reports = {
        "info_loss": verify_entropy_axioms(info_loss, corpus),
        "doubled": verify_entropy_axioms(lambda m: 2 * info_loss(m), corpus),
        "squared": verify_entropy_axioms(lambda m: info_loss(m) ** 2, corpus),
        "table": verify_value_table([info_loss(m) for m in corpus.morphisms], chain_values, corpus),
    }
    digests = {
        name: hashlib.sha256(canonical_json(report).encode()).hexdigest()
        for name, report in reports.items()
    }
    assert digests == REPORT_DIGESTS


# -- FinProb as a convex Grothendieck construction -----------------------------------------


def test_finprob_agrees_with_grothendieck_of_distributions():
    from convexion.category import CSetFunctor, convex_grothendieck
    from convexion.presentation import ConvexMap, Presentation

    skel = fin_skeleton(3)
    on_objects = {
        f"n{k}": Presentation.free([f"x{i}" for i in range(k)])
        for k in (1, 2, 3)
    }
    on_morphisms = {}
    for name in skel.morphisms:
        _, k, m, images = name
        src, tgt = on_objects[f"n{k}"], on_objects[f"n{m}"]
        on_morphisms[name] = ConvexMap(
            src, tgt, {f"x{i}": tgt.delta(f"x{images[i]}") for i in range(k)}
        )
    functor = CSetFunctor(skel, on_objects, on_morphisms)
    cfib = convex_grothendieck(functor)

    rng = random.Random(61)
    for _ in range(25):
        k = rng.randint(1, 3)
        pres = on_objects[f"n{k}"]
        cuts = [rng.randint(0, 4) for _ in range(k)]
        if sum(cuts) == 0:
            cuts[0] = 1
        p = FiniteDistribution(
            {f"x{i}": F(c, sum(cuts)) for i, c in enumerate(cuts) if c}
        )
        element = pres.element(p)
        # objects agree: (n_k, p) is a total object iff p is a distribution
        assert cfib.contains_object(f"n{k}", element)
        # hom-sets agree: a function is a morphism (X,p) -> (Y,q) exactly
        # when it pushes p to q, and it is then the unique lift
        m = rng.randint(1, 3)
        images = tuple(rng.randrange(m) for _ in range(k))
        name = ("fn", k, m, images)
        pair = cfib.lift(name, element)
        direct = pushforward(
            {f"x{i}": f"x{images[i]}" for i in range(k)}, p
        )
        assert pair.target.rep == direct


@pytest.mark.parametrize(
    "n_chains, max_carrier, error",
    [(1001, 16, "1001 chains are not in 0..1000"), (-1, 16, "-1 chains"),
     (5, 257, "carrier bound 257 is not in 1..256"), (5, 0, "carrier bound 0")],
)
def test_generate_corpus_refuses_sizes_outside_its_limits(monkeypatch, n_chains, max_carrier, error):
    from convexion import finprob

    def built(*args):
        raise AssertionError("a corpus object was built")

    monkeypatch.setattr(finprob, "_random_object", built)
    with pytest.raises(InvalidInput, match=error):
        generate_corpus(seed=1, n_chains=n_chains, max_carrier=max_carrier)
