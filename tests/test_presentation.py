"""Presented convex sets: quotient mixing, the equality engine, induced maps."""

import copy
import gc
import hashlib
import itertools
import pickle
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_linalg import _rewrite, _tensor_cases, dense, dot, echelon, recorded_pivots, zigzag_cases

from convexion import linalg, presentation
from convexion.distribution import FiniteDistribution, convex_combine, delta
from convexion.errors import (
    InvalidInput,
    PresentationMismatch,
    RelationViolated,
    SemiringMismatch,
    SignatureMismatch,
)
from convexion.presentation import (
    MAX_STEP_BOUND,
    ConvexMap,
    EqualityVerdict,
    Presentation,
    ZigZagStep,
    eq,
    hom_combine,
    induce_map,
    quotient_mix,
    same_class,
    verify_verdict,
)
from convexion.semiring import BOOLEAN

F = Fraction


def dist(**kw):
    return FiniteDistribution({k: F(v) if "/" not in str(v) else F(str(v)) for k, v in kw.items()})


def rd(mapping):
    return FiniteDistribution({k: F(str(v)) for k, v in mapping.items()})


def dense_difference_rows(pres):
    """Presentation._difference_rows as dense int lists over the generators."""
    return [[row.get(x, 0) for x in range(len(pres.generators))] for row in pres._difference_rows]


FREE_AB = Presentation.free(["a", "b"])
FREE_ABC = Presentation.free(["a", "b", "c"])
# delta(a) ~ delta(b)
GLUE_AB = Presentation(["a", "b"], [(delta("a"), delta("b"))])
# delta(a) ~ (1/2)delta(b) + (1/2)delta(c), with a spare generator d
SPLIT = Presentation(
    ["a", "b", "c", "d"],
    [(delta("a"), rd({"b": "1/2", "c": "1/2"}))],
)


# -- construction ------------------------------------------------------------


def test_relations_must_be_supported_on_generators():
    with pytest.raises(PresentationMismatch):
        Presentation(["a"], [(delta("a"), delta("z"))])
    # the missing generators are listed in generator order
    with pytest.raises(PresentationMismatch) as raised:
        Presentation(["a"], [(delta("a"), rd({"z": "1/2", "a": "1/4", "y": "1/4"}))])
    assert str(raised.value) == "relation distribution has support outside the generators: ['y', 'z']"
    with pytest.raises(PresentationMismatch) as raised:
        FREE_AB.element(rd({"z": "1/2", "a": "1/4", "c": "1/4"}))
    assert str(raised.value) == "representative uses non-generators: ['c', 'z']"


def test_boolean_presentations_rejected():
    with pytest.raises(SemiringMismatch):
        Presentation(
            ["a", "b"],
            [(FiniteDistribution({"a": True}, BOOLEAN), FiniteDistribution({"b": True}, BOOLEAN))],
        )


# -- quotient_mix ------------------------------------------------------------


def test_mix_single_is_identity():
    e = FREE_AB.element(rd({"a": "1/2", "b": "1/2"}))
    assert quotient_mix([F(1)], [e]) == e


def test_mix_free_reduces_to_convex_combine():
    e1, e2 = FREE_AB.delta("a"), FREE_AB.delta("b")
    mixed = quotient_mix([F(1, 3), F(2, 3)], [e1, e2])
    assert mixed.rep == rd({"a": "1/3", "b": "2/3"})


def test_mix_across_relation_is_equal_to_endpoint():
    # With delta(a) ~ delta(b) glued, the midpoint equals delta(a).
    mid = quotient_mix([F(1, 2), F(1, 2)], [GLUE_AB.delta("a"), GLUE_AB.delta("b")])
    verdict = eq(mid, GLUE_AB.delta("a"), 1)
    assert verdict.is_equal
    assert verify_verdict(verdict, mid, GLUE_AB.delta("a"))


def test_mix_presentation_mismatch():
    with pytest.raises(PresentationMismatch):
        quotient_mix([F(1, 2), F(1, 2)], [FREE_AB.delta("a"), FREE_ABC.delta("a")])


def test_mix_unitality_with_delta_vector():
    e1 = SPLIT.element(rd({"b": "1/2", "d": "1/2"}))
    e2 = SPLIT.delta("a")
    picked = quotient_mix([F(0), F(1)], [e1, e2])
    assert eq(picked, e2, 2).is_equal


def test_mix_associativity_up_to_eq():
    es = [SPLIT.delta(g) for g in ("a", "b", "d")]
    inner = quotient_mix([F(1, 2), F(1, 2)], es[:2])
    nested = quotient_mix([F(1, 3), F(2, 3)], [inner, es[2]])
    flat = quotient_mix([F(1, 6), F(1, 6), F(2, 3)], es)
    assert eq(nested, flat, 2).is_equal


# -- eq: trivial and free cases ----------------------------------------------


def test_eq_reflexive_with_empty_path():
    e = SPLIT.element(rd({"a": "1/3", "d": "2/3"}))
    v = eq(e, e, 0)
    assert v.is_equal and v.path == ()


def test_eq_free_distinct_with_indicator_invariant():
    v = eq(FREE_AB.delta("a"), FREE_AB.delta("b"), 4)
    assert v.is_distinct
    # The invariant is the indicator of 'a': constant on (no) relations,
    # separating the two deltas.
    assert list(v.invariant) == [F(1), F(0)]
    assert verify_verdict(v, FREE_AB.delta("a"), FREE_AB.delta("b"))


def test_eq_free_bound_zero_complete():
    e1 = FREE_AB.element(rd({"a": "1/2", "b": "1/2"}))
    e2 = FREE_AB.element(rd({"a": "1/2", "b": "1/2"}))
    e3 = FREE_AB.element(rd({"a": "1/3", "b": "2/3"}))
    assert eq(e1, e2, 0).is_equal
    assert eq(e1, e3, 0).is_distinct


def test_eq_one_step_worked_example():
    # relation a ~ (b+c)/2, lhs (a+d)/2, rhs (b/4 + c/4 + d/2): one step,
    # multiplier 1/2, spectator d/2.
    lhs = SPLIT.element(rd({"a": "1/2", "d": "1/2"}))
    rhs = SPLIT.element(rd({"b": "1/4", "c": "1/4", "d": "1/2"}))
    v = eq(lhs, rhs, 1)
    assert v.is_equal
    assert len(v.path) == 1
    assert verify_verdict(v, lhs, rhs)


def test_spectator_of_the_wrong_length_fails_to_verify():
    # The relation's first side is d, the last generator, so a replay that
    # trusted a short spectator would index past its end.
    seg = Presentation(["a", "b", "d"], [(delta("d"), rd({"a": "1/2", "b": "1/2"}))])
    lhs, rhs = seg.delta("d"), seg.element(rd({"a": "1/2", "b": "1/2"}))
    good = eq(lhs, rhs, 1)
    (step,) = good.path
    assert step.spectator == (0, 0, 0) and verify_verdict(good, lhs, rhs)
    for spectator in ((), (F(0),) * 2, (F(0),) * 4):
        bad = EqualityVerdict("equal", path=(ZigZagStep(step.lambdas, spectator),))
        assert not verify_verdict(bad, lhs, rhs)


def test_eq_mismatch_raises():
    with pytest.raises(PresentationMismatch):
        eq(FREE_AB.delta("a"), FREE_ABC.delta("a"), 1)


def test_eq_symmetric_and_distinct_side():
    lhs = SPLIT.element(rd({"a": "1/2", "d": "1/2"}))
    rhs = SPLIT.element(rd({"b": "1/4", "c": "1/4", "d": "1/2"}))
    assert eq(rhs, lhs, 1).is_equal
    other = SPLIT.element(rd({"b": "1/2", "d": "1/2"}))
    v = eq(lhs, other, 3)
    assert v.is_distinct  # b and c get different masses, no invariant kills that
    assert verify_verdict(v, lhs, other)


def test_eq_transitive_by_concatenation():
    a = SPLIT.delta("a")
    mid = SPLIT.element(rd({"b": "1/2", "c": "1/2"}))
    far = quotient_mix([F(1, 2), F(1, 2)], [a, mid])
    v1, v2 = eq(a, mid, 1), eq(mid, far, 1)
    assert v1.is_equal and v2.is_equal
    v = eq(a, far, 2)
    assert v.is_equal
    assert verify_verdict(v, a, far)


def test_eq_unknown_when_bound_exhausted():
    # Connecting needs one step; at bound 0 the engine cannot search, and the
    # pair is not affinely separable, so it must answer unknown.
    lhs = SPLIT.delta("a")
    rhs = SPLIT.element(rd({"b": "1/2", "c": "1/2"}))
    v = eq(lhs, rhs, 0)
    assert v.is_unknown
    assert eq(lhs, rhs, 1).is_equal


# -- witnesses are sound by construction: randomized hammering ---------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eq_verdicts_always_verify(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = ["g0", "g1", "g2"][: rng.randint(2, 3)]
    rels = []
    for _ in range(rng.randint(0, 2)):
        rels.append((_random_dist(rng, gens), _random_dist(rng, gens)))
    pres = Presentation(gens, rels)
    e1 = pres.element(_random_dist(rng, gens))
    e2 = pres.element(_random_dist(rng, gens))
    v = eq(e1, e2, 3)
    assert verify_verdict(v, e1, e2)


def _random_dist(rng, gens):
    weights = [rng.randint(0, 4) for _ in gens]
    if sum(weights) == 0:
        weights[rng.randrange(len(gens))] = 1
    total = sum(weights)
    return FiniteDistribution(
        {g: F(w, total) for g, w in zip(gens, weights) if w},
    )


# -- induce_map ---------------------------------------------------------------


def test_identity_assignment_is_identity():
    f = induce_map(FREE_AB, FREE_AB, {g: FREE_AB.delta(g) for g in FREE_AB.generators})
    e = FREE_AB.element(rd({"a": "1/4", "b": "3/4"}))
    assert f(e) == e


def test_collapse_respects_glue_relation():
    tgt = Presentation.free(["z"])
    f = induce_map(GLUE_AB, tgt, {"a": tgt.delta("z"), "b": tgt.delta("z")})
    assert f(GLUE_AB.delta("a")) == tgt.delta("z")


def test_violation_raises_with_pair():
    tgt = Presentation.free(["x", "y"])
    with pytest.raises(RelationViolated) as info:
        induce_map(GLUE_AB, tgt, {"a": tgt.delta("x"), "b": tgt.delta("y")})
    assert info.value.pair == (delta("a"), delta("b"))


def test_induced_map_commutes_with_mix():
    tgt = Presentation.free(["x", "y"])
    f = induce_map(
        FREE_ABC,
        tgt,
        {
            "a": tgt.delta("x"),
            "b": tgt.delta("y"),
            "c": tgt.element(rd({"x": "1/2", "y": "1/2"})),
        },
    )
    es = [FREE_ABC.delta(g) for g in "abc"]
    alpha = [F(1, 6), F(1, 3), F(1, 2)]
    lhs = f(quotient_mix(alpha, es))
    rhs = quotient_mix(alpha, [f(e) for e in es])
    assert eq(lhs, rhs, 2).is_equal


def test_map_evaluation_pushes_weights_through_assignment():
    tgt = Presentation.free(["x", "y"])
    f = induce_map(
        FREE_AB, tgt, {"a": tgt.delta("x"), "b": tgt.element(rd({"x": "1/2", "y": "1/2"}))}
    )
    e = FREE_AB.element(rd({"a": "1/2", "b": "1/2"}))
    assert f(e).rep == rd({"x": "3/4", "y": "1/4"})


def test_map_value_outside_its_target_is_refused():
    # ConvexMap itself does not validate its assignment; evaluation does
    mixed = ConvexMap(FREE_AB, FREE_AB, {"a": FREE_AB.delta("a"), "b": GLUE_AB.delta("b")})
    assert mixed(FREE_AB.delta("a")) == FREE_AB.delta("a")
    with pytest.raises(PresentationMismatch, match="not an element of its target"):
        mixed(FREE_AB.delta("b"))
    with pytest.raises(PresentationMismatch, match="not an element of its target"):
        mixed(FREE_AB.element(rd({"a": "1/2", "b": "1/2"})))
    elsewhere = ConvexMap(FREE_AB, FREE_AB, {g: GLUE_AB.delta(g) for g in "ab"})
    with pytest.raises(PresentationMismatch, match="not an element of its target"):
        elsewhere(FREE_AB.element(rd({"a": "1/3", "b": "2/3"})))


# -- hom_combine ---------------------------------------------------------------


def test_hom_combine_single():
    f = ConvexMap.identity(FREE_AB)
    g = hom_combine([F(1)], [f])
    e = FREE_AB.element(rd({"a": "1/3", "b": "2/3"}))
    assert g(e) == f(e)


def test_hom_combine_constants_gives_midpoint():
    tgt = Presentation.free(["x", "y"])
    cx = induce_map(FREE_AB, tgt, {"a": tgt.delta("x"), "b": tgt.delta("x")})
    cy = induce_map(FREE_AB, tgt, {"a": tgt.delta("y"), "b": tgt.delta("y")})
    mixed = hom_combine([F(1, 2), F(1, 2)], [cx, cy])
    for g in ("a", "b"):
        assert mixed(FREE_AB.delta(g)).rep == rd({"x": "1/2", "y": "1/2"})


def test_hom_combine_id_and_swap_at_delta():
    # Mixing the identity with the swap of a two-point free set sends
    # delta(0) to the uniform distribution.
    d01 = Presentation.free(["0", "1"])
    ident = ConvexMap.identity(d01)
    swap = induce_map(d01, d01, {"0": d01.delta("1"), "1": d01.delta("0")})
    mixed = hom_combine([F(1, 2), F(1, 2)], [ident, swap])
    assert mixed(d01.delta("0")).rep == rd({"0": "1/2", "1": "1/2"})


def test_hom_combine_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        hom_combine(
            [F(1, 2), F(1, 2)],
            [ConvexMap.identity(FREE_AB), ConvexMap.identity(FREE_ABC)],
        )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_eq_verdicts_monotone_in_bound(data):
    # raising the bound may resolve unknown, but never flips a decision
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = ["g0", "g1", "g2"]
    rels = [(_random_dist(rng, gens), _random_dist(rng, gens))]
    pres = Presentation(gens, rels)
    e1 = pres.element(_random_dist(rng, gens))
    e2 = pres.element(_random_dist(rng, gens))
    statuses = [eq(e1, e2, bound).status for bound in (0, 1, 2, 3)]
    for earlier, later in zip(statuses, statuses[1:]):
        if earlier == "equal":
            assert later == "equal"
        if earlier == "distinct":
            assert later == "distinct"


# -- iterative deepening: eq solves at k = 1, 2, 4, ..., bound ---------------


def single_lp_status(e1, e2, bound):
    """The status of eq without deepening: the same invariant check, the
    support check against respected_oracle, then one zig-zag LP at the
    full bound."""
    pres = e1.presentation
    if e1.rep == e2.rep:
        return "equal"
    diff = [e1.rep.weight(g) - e2.rep.weight(g) for g in pres.generators]
    if any(dot(vec, diff) != 0 for vec in linalg.nullspace(dense_difference_rows(pres), len(diff))):
        return "distinct"
    x, y = e1.rep.support(), e2.rep.support()
    if respected_oracle(pres, y) & x or respected_oracle(pres, x) & y:
        return "distinct"
    if bound >= 1 and pres.relations:
        if presentation._zigzag_search(pres, e1.rep, e2.rep, bound) is not None:
            return "equal"
    return "unknown"


def check_deepened(e1, e2, bound):
    v = eq(e1, e2, bound)
    assert v.status == single_lp_status(e1, e2, bound)
    assert v.bound == bound
    assert verify_verdict(v, e1, e2)
    assert len(v.path) <= bound
    return v


def test_deepening_keeps_every_status_on_the_zigzag_corpus():
    statuses = Counter()
    for pres, pv, qv, k in zigzag_cases() + list(_tensor_cases()):
        e1 = pres.element(pres.dist_from_vector(pv))
        e2 = pres.element(pres.dist_from_vector(qv))
        statuses[check_deepened(e1, e2, k).status] += 1
    assert statuses["equal"] > 0 and statuses["unknown"] > 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_deepening_keeps_every_status_on_criterion_11_draws(data):
    # 1-4 generators and 0-2 relations as in criterion 11; the partner is
    # a random element or a rewrite chain of 1-4 moves.
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = [f"g{i}" for i in range(rng.randint(1, 4))]
    rels = [
        (_random_dist(rng, gens), _random_dist(rng, gens))
        for _ in range(rng.randint(0, 2))
    ]
    pres = Presentation(gens, rels)
    e1 = pres.element(_random_dist(rng, gens))
    target = _rewrite(rng, pres, dense(pres, e1.rep), rng.randint(1, 4))
    if target is None or rng.random() < 0.4:
        e2 = pres.element(_random_dist(rng, gens))
    else:
        e2 = pres.element(pres.dist_from_vector(target))
    check_deepened(e1, e2, data.draw(st.integers(0, 5)))


# delta(a) ~ delta(b) ~ delta(c) ~ delta(d): a to c takes two moves, a to d three.
CHAIN = Presentation(
    ["a", "b", "c", "d"],
    [(delta("a"), delta("b")), (delta("b"), delta("c")), (delta("c"), delta("d"))],
)


def levels_tried(monkeypatch, e1, e2, bound):
    """eq's verdict and the step counts of the LPs it solved."""
    tried = []
    search = presentation._zigzag_search

    def spy(pres, p, q, k):
        tried.append(k)
        return search(pres, p, q, k)

    with monkeypatch.context() as patch:
        patch.setattr(presentation, "_zigzag_search", spy)
        verdict = eq(e1, e2, bound)
    return verdict, tried


def test_deepening_levels_double_and_clamp_to_the_bound():
    levels = [list(presentation._deepening_levels(b)) for b in range(7)]
    assert levels == [[], [1], [1, 2], [1, 2, 3], [1, 2, 4], [1, 2, 4, 5], [1, 2, 4, 6]]


def test_level_one_infeasible_level_two_feasible(monkeypatch):
    a, c = CHAIN.delta("a"), CHAIN.delta("c")
    v, tried = levels_tried(monkeypatch, a, c, 4)
    assert tried == [1, 2]
    assert v.is_equal and len(v.path) == 2 and v.bound == 4
    assert verify_verdict(v, a, c)


def test_bound_three_reaches_the_clamped_level(monkeypatch):
    a, d = CHAIN.delta("a"), CHAIN.delta("d")
    v, tried = levels_tried(monkeypatch, a, d, 3)
    assert tried == [1, 2, 3]
    assert v.is_equal and len(v.path) == 3 and v.bound == 3
    assert verify_verdict(v, a, d)


def test_unknown_solves_every_level(monkeypatch):
    a, d = CHAIN.delta("a"), CHAIN.delta("d")
    v, tried = levels_tried(monkeypatch, a, d, 2)
    assert tried == [1, 2]
    assert v.is_unknown and v.bound == 2


def test_bound_16_unknown_stays_cheap(monkeypatch):
    # Four generators, two relations, and g2 against g1/2 + g2/2: no
    # zig-zag at any level.  The chained LP ran past 144,000 pivots at
    # bound 16 without finishing; the difference form starts phase 1 with
    # artificials on 4 rows per level, and all levels together take about
    # 70 eliminations.  eq no longer solves them: {g0, g1, g3} is
    # respected and meets only the second support, so the pair is
    # Distinct by support, with no elimination at all.
    pres = Presentation(
        ["g0", "g1", "g2", "g3"],
        [
            (
                rd({"g0": "1/3", "g1": "2/9", "g2": "1/3", "g3": "1/9"}),
                rd({"g0": "1/3", "g1": "1/3", "g3": "1/3"}),
            ),
            (
                rd({"g1": "1/4", "g2": "3/8", "g3": "3/8"}),
                rd({"g1": "3/7", "g2": "2/7", "g3": "2/7"}),
            ),
        ],
    )
    lhs, rhs = pres.delta("g2"), pres.element(rd({"g1": "1/2", "g2": "1/2"}))
    face = presentation._face(pres, presentation._respected(pres, pres._mask({"g0", "g3"})))
    assert face.generators == ("g1", "g2")
    with recorded_pivots(monkeypatch) as eliminations:
        levels = [presentation._zigzag_search(face, lhs.rep, rhs.rep, k) for k in presentation._deepening_levels(16)]
    assert levels == [None] * 5
    assert len(eliminations) <= 1000
    pres._echelon  # its two RREF eliminations are not the LP's
    with recorded_pivots(monkeypatch) as eliminations:
        v = eq(lhs, rhs, 16)
    assert v == EqualityVerdict("distinct", bound=16, support=("g0", "g1", "g3"))
    assert verify_verdict(v, lhs, rhs) and eliminations == []


def test_maps_agree_helper():
    from convexion.presentation import maps_agree

    tgt = Presentation.free(["x", "y"])
    f = induce_map(GLUE_AB, tgt, {"a": tgt.delta("x"), "b": tgt.delta("x")})
    g = induce_map(
        GLUE_AB,
        tgt,
        {"a": tgt.delta("x"), "b": tgt.delta("x")},
    )
    elements = [GLUE_AB.delta("a"), GLUE_AB.delta("b")]
    assert maps_agree(f, g, elements)
    h = induce_map(FREE_AB, tgt, {"a": tgt.delta("x"), "b": tgt.delta("y")})
    assert not maps_agree(f, h, elements)  # different sources


def test_induce_map_decides_where_eq_at_bound_zero_does_not():
    # the relation image needs one rewriting step, so eq at bound 0 answers
    # unknown; induce_map decides exactly and accepts the assignment, and
    # still refuses one whose images are distinct
    split = Presentation(
        ["a", "b", "c"],
        [(delta("a"), rd({"b": "1/2", "c": "1/2"}))],
    )
    half = split.element(rd({"b": "1/2", "c": "1/2"}))
    assert eq(split.delta("a"), half, 0).is_unknown
    fmap = induce_map(GLUE_AB, split, {"a": split.delta("a"), "b": half})
    assert fmap(GLUE_AB.delta("b")) == half
    with pytest.raises(RelationViolated):
        induce_map(GLUE_AB, split, {"a": split.delta("a"), "b": split.delta("b")})


# -- verdict identity on a seeded corpus ---------------------------------------------------
#
# The sha256 of the repr of every verdict (status, path, invariant, bound)
# over a fixed corpus, recorded before the face presolve, the integer
# prelude and replay, and the support certificate went in.  The first
# three leave every verdict as it was; the support certificate turns
# Unknowns into Distinct, and each of those is hashed as the Unknown it
# replaced, so the digest must not move.  The corpus has sparse relation
# sides and sparse elements, so many of its pairs leave a proper
# respected face, and many of its Unknowns are support-separated.
VERDICT_DIGEST = "cc30934013c627cd81c5662efb486cdac8ef29022a8d997b6368b68d6ae1e8d5"
VERDICT_SEED = 4817


def _sparse_dist(rng, gens):
    support = rng.sample(gens, rng.randint(1, min(3, len(gens))))
    weights = [rng.randint(1, 3) for _ in support]
    return FiniteDistribution({g: F(w, sum(weights)) for g, w in zip(support, weights)})


def _sparse_presentation(rng, gens, relations):
    rels = [(_sparse_dist(rng, gens), _sparse_dist(rng, gens)) for _ in range(relations)]
    return Presentation(gens, [(lhs, rhs) for lhs, rhs in rels if lhs != rhs])


def _partner(rng, e1, bound):
    """A rewrite chain of 1 to bound + 1 moves from e1, or a sparse random
    element of e1's presentation."""
    pres = e1.presentation
    target = _rewrite(rng, pres, dense(pres, e1.rep), rng.randint(1, bound + 1))
    if target is None or rng.random() < 0.3:
        return pres.element(_sparse_dist(rng, list(pres.generators)))
    return pres.element(pres.dist_from_vector(target))


def verdict_corpus(seed=VERDICT_SEED):
    """(e1, e2, bound) triples: 240 on presentations of 2-5 generators and
    1-3 relations, then 40 on tensors of two 3-generator factors with one
    relation each, whose e1 is a pure tensor."""
    from convexion.tensor import universal_map

    rng = random.Random(seed)
    corpus = []
    while len(corpus) < 240:
        gens = [f"g{i}" for i in range(rng.randint(2, 5))]
        pres = _sparse_presentation(rng, gens, rng.randint(1, 3))
        if not pres.relations:
            continue
        e1 = pres.element(_sparse_dist(rng, gens))
        bound = rng.randint(1, 4)
        corpus.append((e1, _partner(rng, e1, bound), bound))
    gens = ["a", "b", "c"]
    while len(corpus) < 280:
        factors = [_sparse_presentation(rng, gens, 1) for _ in range(2)]
        if not all(f.relations for f in factors):
            continue
        e1 = universal_map(factors, [f.element(_sparse_dist(rng, gens)) for f in factors])
        bound = rng.randint(1, 4)
        corpus.append((e1, _partner(rng, e1, bound), bound))
    return corpus


def _pinned_repr(v):
    """repr(v) as EqualityVerdict wrote it before it had a support field,
    with a support verdict written as the Unknown it replaced."""
    if v.support:
        v = EqualityVerdict("unknown", bound=v.bound)
    return f"EqualityVerdict(status={v.status!r}, path={v.path!r}, invariant={v.invariant!r}, bound={v.bound!r})"


def test_verdicts_on_the_seeded_corpus_are_pinned():
    text, statuses, cut = [], Counter(), 0
    for e1, e2, bound in verdict_corpus():
        v = eq(e1, e2, bound)
        assert verify_verdict(v, e1, e2)
        statuses["support" if v.support else v.status] += 1
        text.append(_pinned_repr(v))
        pres = e1.presentation
        reaches_lp = not v.is_distinct and e1.rep != e2.rep
        cut += reaches_lp and face_of(pres, e1.rep, e2.rep) is not pres
    assert set(statuses) == {"equal", "distinct", "unknown", "support"}
    assert statuses["support"] == 33 and statuses["unknown"] == 13  # of the 46 Unknowns before
    assert cut >= 40  # pairs that reach the LP and leave a proper respected face
    assert hashlib.sha256("\n".join(text).encode()).hexdigest() == VERDICT_DIGEST


def test_every_corpus_verdict_survives_its_json_form():
    # In process, over every certificate kind the corpus gives: the decoded
    # verdict is the verdict, and it replays as the verdict does.
    from convexion.jsonio import decode_verdict, encode_verdict

    kinds = Counter()
    for e1, e2, bound in verdict_corpus():
        v = eq(e1, e2, bound)
        pres = e1.presentation
        back = decode_verdict(encode_verdict(v, pres), pres)
        assert back == v
        assert verify_verdict(back, e1, e2) == verify_verdict(v, e1, e2)
        kinds["support" if v.support else v.status] += 1
    assert kinds == {"equal": 134, "distinct": 100, "support": 33, "unknown": 13}


def test_same_class_agrees_with_every_corpus_verdict():
    # Equal and Distinct are certified, so same_class must say the same;
    # an Unknown that same_class calls equal has a zig-zag, which a deeper
    # search finds and verify_verdict accepts.
    split = Counter()
    for e1, e2, bound in verdict_corpus():
        v = eq(e1, e2, bound)
        same = same_class(e1, e2)
        assert same_class(e2, e1) == same
        if not v.is_unknown:
            assert same == v.is_equal
            continue
        split[same] += 1
        deep = eq(e1, e2, 32)
        assert deep.is_equal == same
        assert verify_verdict(deep, e1, e2)
    assert split == {True: 12, False: 1}


# -- the face presolve ---------------------------------------------------------------------


def face_of(pres, p, q):
    """The face of p and q, from the greatest respected set outside both
    supports."""
    inside = p.support() | q.support()
    return presentation._face(pres, presentation._respected(pres, pres._mask(set(pres.generators) - inside)))


def respected_oracle(pres, inside):
    """The greatest respected set of generators outside inside, as the
    union of every respected subset: a subset U is respected when each
    relation's two sides both meet U or both miss it.

    Above 16 free generators the subsets are too many, and the set is
    read off the complements instead: U is respected exactly when its
    complement F has, for each relation, both sides inside F or neither.
    Such sets F are closed under intersection, so the least one holding
    inside exists, and its complement is the greatest respected set.  It
    is grown here from inside by adding a relation's other side whenever
    one side lies in it."""
    free = [g for g in pres.generators if g not in inside]
    if len(free) > 16:
        closed = set(inside)
        while grown := [
            s for l, r in pres.relations for t, s in ((l, r), (r, l))
            if t.support() <= closed and not s.support() <= closed
        ]:
            closed.update(*(s.support() for s in grown))
        return set(free) - closed
    greatest = set()
    for size in range(1, len(free) + 1):
        for subset in itertools.combinations(free, size):
            u = set(subset)
            if all(u.isdisjoint(l.support()) == u.isdisjoint(r.support()) for l, r in pres.relations):
                greatest |= u
    return greatest


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_face_presolve_keeps_every_level(data):
    # 2-5 generators, 1-3 relations with sparse sides; the partner is a
    # rewrite chain or a sparse random element.  At every level the LP on
    # the face is feasible exactly when the full LP is, and its witness is
    # zero off the face and replays.
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = [f"g{i}" for i in range(rng.randint(2, 5))]
    pres = _sparse_presentation(rng, gens, rng.randint(1, 3))
    assume(pres.relations)
    e1 = pres.element(_sparse_dist(rng, gens))
    e2 = _partner(rng, e1, 3)
    outside = respected_oracle(pres, e1.rep.support() | e2.rep.support())
    face = face_of(pres, e1.rep, e2.rep)
    assert (face is pres) == (not outside)
    assert list(face.generators) == [g for g in pres.generators if g not in outside]
    for k in range(1, 5):
        assert eq(e1, e2, k).status == single_lp_status(e1, e2, k)
        full = presentation._zigzag_search(pres, e1.rep, e2.rep, k)
        cut = presentation._zigzag_search(face, e1.rep, e2.rep, k)
        assert (full is None) == (cut is None)
        if cut is None:
            continue
        cut = presentation._widen(pres, pres._mask(outside), cut)
        for step in cut:
            for lam, (r, _) in zip(step.lambdas, pres.symmetric_relations):
                assert lam == 0 or outside.isdisjoint(r.support())
            for t, g in zip(step.spectator, pres.generators):
                assert t == 0 or g not in outside
        assert verify_verdict(EqualityVerdict("equal", path=cut, bound=k), e1, e2)


def test_face_drops_the_generators_a_zigzag_cannot_reach():
    # a ~ (b + c)/2 and d ~ e: from a to (b + c)/2 the pair d ~ e is never
    # usable, so the LP is built on a, b, c and the first pair only.
    pres = Presentation(
        ["a", "b", "c", "d", "e"],
        [(delta("a"), rd({"b": "1/2", "c": "1/2"})), (delta("d"), delta("e"))],
    )
    lhs, rhs = pres.delta("a"), pres.element(rd({"b": "1/2", "c": "1/2"}))
    face = face_of(pres, lhs.rep, rhs.rep)
    assert face.generators == ("a", "b", "c")
    assert face.symmetric_relations == pres.symmetric_relations[:2]
    rows, _, ncols = presentation._zigzag_lp(face, lhs.rep, rhs.rep, 1)
    assert (len(rows), ncols) == (6, 5)
    v = eq(lhs, rhs, 1)
    assert v.is_equal and verify_verdict(v, lhs, rhs)
    (step,) = v.path
    assert step.lambdas == (F(1), 0, 0, 0) and step.spectator == (0,) * 5
    # b ~ c, a ~ b, b ~ e: from a to e, a ~ b takes b out of U after
    # b ~ c was read, and b ~ c then takes c out: only d stays outside.
    chain = Presentation(
        ["a", "b", "c", "d", "e"],
        [(delta("b"), delta("c")), (delta("a"), delta("b")), (delta("b"), delta("e"))],
    )
    a, e = chain.delta("a"), chain.delta("e")
    assert respected_oracle(chain, {"a", "e"}) == {"d"}
    assert face_of(chain, a.rep, e.rep).generators == ("a", "b", "c", "e")
    # With d in the support nothing is dropped: d ~ e is respected by no
    # set that misses d and meets e.
    far = pres.element(rd({"a": "1/2", "d": "1/2"}))
    assert face_of(pres, far.rep, pres.element(rd({"b": "1/4", "c": "1/4", "e": "1/2"})).rep) is pres


# -- the face cache -----------------------------------------------------------------------


def _corpus_and_tensor_cases():
    """verdict_corpus() and test_linalg's fixed tensor instances, as
    (e1, e2, bound) triples."""
    cases = verdict_corpus()
    for pres, pv, qv, k in _tensor_cases():
        cases.append((pres.element(pres.dist_from_vector(pv)), pres.element(pres.dist_from_vector(qv)), k))
    return cases


def _cold_verdict(e1, e2, bound):
    """eq with the face cache of e1's presentation emptied first."""
    e1.presentation._faces.clear()
    return eq(e1, e2, bound)


def test_cached_faces_give_the_verdicts_of_fresh_ones():
    # Two warm passes, so the second reads every face it needs from the
    # cache, then one pass with the cache emptied before every call.
    cases = _corpus_and_tensor_cases()
    warm = [repr(eq(*case)) for case in cases + cases]
    cached = sum(len(e1.presentation._faces) for e1, _, _ in cases)
    cold = [repr(_cold_verdict(*case)) for case in cases]
    assert warm == cold + cold
    assert cached >= 40


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cached_faces_give_the_verdicts_of_fresh_ones_on_shared_presentations(data):
    # Several pairs on one presentation of 2-6 generators and 1-4 sparse
    # relations, so later pairs may meet the faces of earlier ones.
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = [f"g{i}" for i in range(rng.randint(2, 6))]
    pres = _sparse_presentation(rng, gens, rng.randint(1, 4))
    assume(pres.relations)
    cases = []
    for _ in range(8):
        e1 = pres.element(_sparse_dist(rng, gens))
        cases.append((e1, _partner(rng, e1, 3), rng.randint(1, 4)))
    warm = [eq(*case) for case in cases + cases]
    cold = [_cold_verdict(*case) for case in cases]
    assert [repr(v) for v in warm] == [repr(v) for v in cold + cold]
    assert all(verify_verdict(v, e1, e2) for v, (e1, e2, _) in zip(cold, cases))


def _same_class_fresh(e1, e2):
    """same_class as the module docstring states it, from the oracle's
    respected sets and a freshly computed echelon form of the pairs
    inside W."""
    pres, x, y = e1.presentation, e1.rep, e2.rep
    if x == y:
        return True
    u_y, u_x = respected_oracle(pres, y.support()), respected_oracle(pres, x.support())
    if u_y & x.support() or u_x & y.support():
        return False
    rows = [row for (lhs, _), row in zip(pres.relations, dense_difference_rows(pres)) if u_x.isdisjoint(lhs.support())]
    return not any(presentation._residual(pres, echelon(rows, len(pres.generators)), x, y).values())


def test_same_class_through_the_cached_face_echelon():
    # same_class against fresh echelon forms; and every proper face met is
    # the restriction to W, whose zig-zags, widened, are the presentation's
    # at the same feasibility and replay.
    proper = 0
    for e1, e2, k in _corpus_and_tensor_cases():
        pres, x, y = e1.presentation, e1.rep, e2.rep
        assert same_class(e1, e2) == same_class(e2, e1) == _same_class_fresh(e1, e2)
        outside, separates = presentation._separating_support(pres, x, y)
        if separates or not outside:
            continue
        proper += 1
        face = presentation._face(pres, outside)
        assert presentation._face(pres, outside) is face  # the cached one, which same_class read
        u = set(pres._members(outside))
        inside = [(lhs, rhs) for lhs, rhs in pres.relations if u.isdisjoint(lhs.support() | rhs.support())]
        assert face == Presentation([g for g in pres.generators if g not in u], inside)
        cut, full = presentation._zigzag_search(face, x, y, k), presentation._zigzag_search(pres, x, y, k)
        assert (cut is None) == (full is None)
        if cut is not None:
            path = presentation._widen(pres, outside, cut)
            assert verify_verdict(EqualityVerdict("equal", path=path, bound=k), e1, e2)
    assert proper >= 40


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mask_closure_is_the_greatest_respected_set(data):
    # 1-7 generators, 0-4 sparse relations, and a random set to stay
    # outside of: the fixed point on masks against the brute-force union
    # of every respected subset.
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = [f"g{i}" for i in range(rng.randint(1, 7))]
    pres = _sparse_presentation(rng, gens, rng.randint(0, 4))
    inside = set(rng.sample(gens, rng.randint(0, len(gens))))
    outside = presentation._respected(pres, pres._mask(set(gens) - inside))
    expected = respected_oracle(pres, inside)
    assert outside == pres._mask(expected)
    assert pres._members(outside) == tuple(g for g in pres.generators if g in expected)


def test_face_cache_keeps_at_most_its_size():
    # k disjoint relations a_i ~ b_i: every union of blocks {a_i, b_i} is
    # respected, 2^k sets.  The a's of a nonempty set S of blocks against
    # their b's has the face of S, so 2^k - 2 pairs meet a proper face,
    # each at once directly solved and, from a 2:1 to a 1:2 mixture of
    # each block where both orientations are usable, through the LP.
    k = 5
    assert 2**k - 2 > presentation.FACE_CACHE_SIZE
    pres = Presentation([f"{s}{i}" for i in range(k) for s in "ab"], [(delta(f"a{i}"), delta(f"b{i}")) for i in range(k)])

    def mixture(blocks, weights):
        return pres.element(FiniteDistribution({f"{s}{i}": F(w, len(blocks)) for i in blocks for s, w in weights.items()}))

    cases, seen = [], []
    for size in range(1, k):
        for blocks in itertools.combinations(range(k), size):
            for p, q in (({"a": 1}, {"b": 1}), ({"a": F(2, 3), "b": F(1, 3)}, {"a": F(1, 3), "b": F(2, 3)})):
                e1, e2 = mixture(blocks, p), mixture(blocks, q)
                v = eq(e1, e2, 1)
                assert v.is_equal and verify_verdict(v, e1, e2)
                assert len(pres._faces) <= presentation.FACE_CACHE_SIZE
                cases.append((e1, e2, v))
            outside, _ = presentation._separating_support(pres, e1.rep, e2.rep)
            seen.append(outside)
    assert len(set(seen)) == 2**k - 2
    assert list(pres._faces) == seen[-presentation.FACE_CACHE_SIZE :]  # the oldest went first
    for e1, e2, v in cases:  # the evicted faces are built again
        again = eq(e1, e2, 1)
        assert repr(again) == repr(v) and verify_verdict(again, e1, e2)
    assert len(pres._faces) == presentation.FACE_CACHE_SIZE


def test_a_presentation_with_a_cached_face_is_freed_by_reference_counting():
    # The cache holds plain restrictions, which hold nothing of the
    # presentation they came from, so no reference cycle keeps a dropped
    # presentation alive until the cyclic collector runs.
    pres = Presentation(
        ["a", "b", "c", "d", "e"],
        [(delta("a"), rd({"b": "1/2", "c": "1/2"})), (delta("d"), delta("e"))],
    )
    gc.disable()
    try:
        assert eq(pres.delta("a"), pres.element(rd({"b": "1/2", "c": "1/2"})), 1).is_equal
        faces = [(type(face), face.generators) for face in pres._faces.values()]
        alive = weakref.ref(pres)
        del pres
        assert alive() is None
        assert faces == [(Presentation, ("a", "b", "c"))]
    finally:
        gc.enable()


# -- the one-step solve -------------------------------------------------------------------


def simplex_one_step(pres, p, q):
    """Level 1 as the simplex answers it: the steps read off
    linalg.solve_eq_nonneg on _zigzag_lp at k = 1, or None."""
    sol = linalg.solve_eq_nonneg(*presentation._zigzag_lp(pres, p, q, 1))
    if sol is None:
        return None
    nj = len(pres.symmetric_relations)
    lams, spect = sol[:nj], sol[nj:]
    if not any(lams):
        return ()
    return (ZigZagStep(tuple(lams), tuple(spect)),)


def check_one_step(pres, p, q):
    """_zigzag_search at k = 1 against the simplex, on pres and on the face
    of p and q, step for step and in repr; how _one_step went on the face:
    "step", "none" or "lp" (left to the simplex)."""
    face = face_of(pres, p, q)
    for space in (pres, face):
        steps, simplex = presentation._zigzag_search(space, p, q, 1), simplex_one_step(space, p, q)
        assert steps == simplex and repr(steps) == repr(simplex)
    decided = presentation._one_step(face, p, q)
    return "lp" if decided is presentation._UNDECIDED else "none" if decided is None else "step"


def test_one_step_solve_matches_the_simplex_on_the_corpora():
    outcomes = Counter()
    for e1, e2, _ in verdict_corpus():
        outcomes[check_one_step(e1.presentation, e1.rep, e2.rep)] += 1
    for pres, pv, qv, _ in _tensor_cases():
        outcomes[check_one_step(pres, pres.dist_from_vector(pv), pres.dist_from_vector(qv))] += 1
    assert set(outcomes) == {"step", "none", "lp"}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_step_solve_matches_the_simplex_on_sparse_draws(data):
    # 2-5 generators, 1-3 relations with sparse sides; the partner is a
    # rewrite chain of one or two moves or a sparse random element.
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = [f"g{i}" for i in range(rng.randint(2, 5))]
    pres = _sparse_presentation(rng, gens, rng.randint(1, 3))
    assume(pres.relations)
    e1 = pres.element(_sparse_dist(rng, gens))
    check_one_step(pres, e1.rep, _partner(rng, e1, 1).rep)


# a/2 + c/2 ~ b/2 + c/2 and a/2 + d/2 ~ b/2 + d/2 both move by (b - a)/2
SAME_MOVE = Presentation(
    ["a", "b", "c", "d"],
    [
        (rd({"a": "1/2", "c": "1/2"}), rd({"b": "1/2", "c": "1/2"})),
        (rd({"a": "1/2", "d": "1/2"}), rd({"b": "1/2", "d": "1/2"})),
    ],
)
# a/2 + b/2 ~ b/2 + d/2: from 3a/4 + b/8 + c/8 the one usable pair reaches
# a/4 + b/8 + c/8 + d/2 with lambda = 1, but its spectator is -3/8 at b
SHIFT = Presentation(
    ["a", "b", "c", "d"], [(rd({"a": "1/2", "b": "1/2"}), rd({"b": "1/2", "d": "1/2"}))]
)


@pytest.mark.parametrize(
    "pres, p, q",
    [
        (GLUE_AB, rd({"a": "1/3", "b": "2/3"}), rd({"a": "2/3", "b": "1/3"})),
        (SAME_MOVE, rd({"a": "1/2", "c": "1/4", "d": "1/4"}), rd({"b": "1/2", "c": "1/4", "d": "1/4"})),
    ],
    ids=["both orientations usable", "equal move vectors"],
)
def test_dependent_moves_leave_level_one_to_the_simplex(pres, p, q):
    assert presentation._one_step(pres, p, q) is presentation._UNDECIDED
    steps = presentation._zigzag_search(pres, p, q, 1)
    assert steps == simplex_one_step(pres, p, q) and len(steps) == 1
    assert verify_verdict(EqualityVerdict("equal", path=steps, bound=1), pres.element(p), pres.element(q))


@pytest.mark.parametrize(
    "pres, p, q",
    [
        (CHAIN, delta("a"), delta("c")),
        (SPLIT, delta("a"), rd({"b": "1/3", "c": "2/3"})),
        (SHIFT, rd({"a": "3/4", "b": "1/8", "c": "1/8"}), rd({"a": "1/4", "b": "1/8", "c": "1/8", "d": "1/2"})),
    ],
    ids=["no usable pair", "inconsistent system", "negative spectator"],
)
def test_level_one_decided_infeasible(pres, p, q):
    assert presentation._one_step(pres, p, q) is None
    assert simplex_one_step(pres, p, q) is None
    assert presentation._zigzag_search(pres, p, q, 1) is None


def lp_calls(monkeypatch, e1, e2, bound):
    """eq's verdict and how many times it called linalg.solve_eq_nonneg."""
    calls = []
    solve = linalg.solve_eq_nonneg

    def spy(*args):
        calls.append(args)
        return solve(*args)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "solve_eq_nonneg", spy)
        verdict = eq(e1, e2, bound)
    return verdict, len(calls)


def test_a_unique_one_step_zigzag_needs_no_lp(monkeypatch):
    a, mid = SPLIT.delta("a"), SPLIT.element(rd({"b": "1/2", "c": "1/2"}))
    v, calls = lp_calls(monkeypatch, a, mid, 4)
    assert calls == 0
    assert v.is_equal and len(v.path) == 1 and verify_verdict(v, a, mid)


def test_level_one_decided_infeasible_leaves_one_lp(monkeypatch):
    a, c = CHAIN.delta("a"), CHAIN.delta("c")
    v, calls = lp_calls(monkeypatch, a, c, 4)
    assert calls == 1  # level 2's
    assert v.is_equal and len(v.path) == 2 and verify_verdict(v, a, c)


def test_both_orientations_usable_solve_level_one_by_the_lp(monkeypatch):
    p, q = GLUE_AB.element(rd({"a": "1/3", "b": "2/3"})), GLUE_AB.element(rd({"a": "2/3", "b": "1/3"}))
    with recorded_pivots(monkeypatch) as eliminations:
        assert presentation._one_step(GLUE_AB, p.rep, q.rep) is presentation._UNDECIDED
    assert eliminations == []  # seen before the system is built
    v, calls = lp_calls(monkeypatch, p, q, 4)
    assert calls == 1
    assert v.is_equal and len(v.path) == 1 and verify_verdict(v, p, q)


# -- the integer replay ------------------------------------------------------------------


def test_replay_rejects_a_spectator_off_by_one_over_its_denominator():
    # one step with multiplier 1/2 and spectator d/2 (the worked example)
    lhs = SPLIT.element(rd({"a": "1/2", "d": "1/2"}))
    rhs = SPLIT.element(rd({"b": "1/4", "c": "1/4", "d": "1/2"}))
    v = eq(lhs, rhs, 1)
    (step,) = v.path
    assert verify_verdict(v, lhs, rhs) and step.spectator[3] == F(1, 2)
    for off in (F(1, 2), F(-1, 2), F(1, 1000)):
        spectator = list(step.spectator)
        spectator[3] += off
        bad = EqualityVerdict("equal", path=(ZigZagStep(step.lambdas, tuple(spectator)),))
        assert not verify_verdict(bad, lhs, rhs)


# (a + b)/2 ~ (b + c)/2
HALVES = Presentation(["a", "b", "c"], [(rd({"a": "1/2", "b": "1/2"}), rd({"b": "1/2", "c": "1/2"}))])


@pytest.mark.parametrize("minus_one", [F(-1), -1], ids=["Fraction", "int"])
def test_replay_rejects_a_negative_multiplier(minus_one):
    # Multiplier -1 on the pair ((a + b)/2, (b + c)/2) with spectator
    # (5a + 5b + 6c)/8 starts at p and ends at q, and every entry of both
    # points is positive: only the sign check refuses the step.
    p = HALVES.element(rd({"a": "1/8", "b": "1/8", "c": "3/4"}))
    q = HALVES.element(rd({"a": "5/8", "b": "1/8", "c": "1/4"}))
    step = ZigZagStep((minus_one, 0), (F(5, 8), F(5, 8), F(3, 4)))
    assert _unchecked_endpoints(step, HALVES) == (dense(HALVES, p.rep), dense(HALVES, q.rep))
    assert step.integer_endpoints(HALVES) is None
    assert not verify_verdict(EqualityVerdict("equal", path=(step,)), p, q)
    half = ZigZagStep((F(-1, 2), 0), (F(5, 8), F(5, 8), F(3, 4)))
    assert not verify_verdict(EqualityVerdict("equal", path=(half,)), p, q)


def _unchecked_endpoints(step, pres):
    """A step's start and end as dense Fractions, summed without the sign
    check of ZigZagStep.integer_endpoints."""
    start, end = [F(t) for t in step.spectator], [F(t) for t in step.spectator]
    index = pres._gen_index
    for lam, (r, s) in zip(step.lambdas, pres.symmetric_relations):
        for g, w in r.items():
            start[index[g]] += lam * w
        for g, w in s.items():
            end[index[g]] += lam * w
    return start, end


def test_replay_rejects_wrong_lengths():
    a, c = CHAIN.delta("a"), CHAIN.delta("c")
    v = eq(a, c, 2)
    assert verify_verdict(v, a, c)
    first, second = v.path
    for lambdas in (first.lambdas[:-1], first.lambdas + (0,)):
        bad = EqualityVerdict("equal", path=(ZigZagStep(lambdas, first.spectator), second))
        assert not verify_verdict(bad, a, c)
    distinct = eq(FREE_ABC.delta("a"), FREE_ABC.delta("b"), 1)
    for invariant in (distinct.invariant[:-1], distinct.invariant + (F(0),), ()):
        bad = EqualityVerdict("distinct", invariant=invariant)
        assert not verify_verdict(bad, FREE_ABC.delta("a"), FREE_ABC.delta("b"))


def test_replay_rejects_a_path_one_step_short():
    a, c, d = CHAIN.delta("a"), CHAIN.delta("c"), CHAIN.delta("d")
    v = eq(a, d, 3)
    assert len(v.path) == 3 and verify_verdict(v, a, d)
    assert not verify_verdict(EqualityVerdict("equal", path=v.path[:-1]), a, d)
    assert not verify_verdict(EqualityVerdict("equal", path=v.path[1:]), a, d)
    assert not verify_verdict(EqualityVerdict("equal", path=()), a, c)


def test_replay_rejects_an_invariant_not_orthogonal_to_one_relation():
    # a ~ b and c ~ d: 2[a] + 2[b] + [c] is constant across a ~ b, not
    # across c ~ d, and takes 2 on a and 1 on c.
    pres = Presentation(["a", "b", "c", "d"], [(delta("a"), delta("b")), (delta("c"), delta("d"))])
    a, c = pres.delta("a"), pres.delta("c")
    good = eq(a, c, 1)
    assert good.is_distinct and verify_verdict(good, a, c)
    assert not verify_verdict(EqualityVerdict("distinct", invariant=(F(2), F(2), F(1), F(0))), a, c)
    assert not verify_verdict(EqualityVerdict("distinct", invariant=(2, 2, 1, 0)), a, c)
    # orthogonal to both but equal on a and c: not a separation either
    assert not verify_verdict(EqualityVerdict("distinct", invariant=(1, 1, 1, 1)), a, c)


def test_replay_accepts_int_entries():
    lhs = SPLIT.element(rd({"a": "1/2", "d": "1/2"}))
    rhs = SPLIT.element(rd({"b": "1/4", "c": "1/4", "d": "1/2"}))
    (step,) = eq(lhs, rhs, 1).path
    mixed = ZigZagStep((F(1, 2), 0), (0, 0, 0, F(1, 2)))
    assert step == ZigZagStep((F(1, 2), F(0)), (F(0), F(0), F(0), F(1, 2))) == mixed
    assert verify_verdict(EqualityVerdict("equal", path=(mixed,)), lhs, rhs)
    a, b = GLUE_AB.delta("a"), GLUE_AB.delta("b")
    assert verify_verdict(EqualityVerdict("equal", path=(ZigZagStep((1, 0), (0, 0)),)), a, b)
    separated = eq(FREE_AB.delta("a"), FREE_AB.delta("b"), 1)
    assert separated.invariant == (F(1), F(0))
    ints = EqualityVerdict("distinct", invariant=(1, 0))
    assert verify_verdict(ints, FREE_AB.delta("a"), FREE_AB.delta("b"))


# -- the support certificate ---------------------------------------------------------------

# a ~ a/2 + b/2
ABSORB = Presentation(["a", "b"], [(delta("a"), rd({"a": "1/2", "b": "1/2"}))])


@pytest.mark.parametrize("bound", [-1, MAX_STEP_BOUND + 1, 2**20])
def test_step_bound_outside_the_limit_is_invalid_input(bound):
    # refused before any LP is built: at 2**20 the last one alone would
    # have 2**20 + 1 rows per generator
    a, b = ABSORB.delta("a"), ABSORB.delta("b")
    with pytest.raises(InvalidInput, match=rf"^step_bound {bound} is outside 0\.\.256$"):
        eq(a, b, bound)
    assert eq(a, b, MAX_STEP_BOUND).bound == MAX_STEP_BOUND


def test_a_against_b_under_absorption_is_distinct_by_support():
    # The only invariants are multiples of [a] + [b], which take 1 on both
    # a and b, and no zig-zag joins them at any level; but {a} is
    # respected (both sides of the relation meet it) and misses b.
    a, b = ABSORB.delta("a"), ABSORB.delta("b")
    assert all(vec[0] == vec[1] for vec in linalg.nullspace(dense_difference_rows(ABSORB), 2))
    assert all(presentation._zigzag_search(ABSORB, a.rep, b.rep, k) is None for k in range(1, 7))
    for bound in range(7):
        for lhs, rhs in ((a, b), (b, a)):
            v = eq(lhs, rhs, bound)
            assert v == EqualityVerdict("distinct", bound=bound, support=("a",))
            assert verify_verdict(v, lhs, rhs)
    # the mixture a/2 + b/2 meets {a} as well: it is equal to a, not to b
    mid = ABSORB.element(rd({"a": "1/2", "b": "1/2"}))
    assert eq(a, mid, 1).is_equal
    assert eq(mid, b, 4).support == ("a",)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_support_verdicts_take_the_greatest_respected_set(data):
    # 2-5 generators, 1-3 relations with sparse sides, and a sparse random
    # partner.  A support verdict carries U_y, the greatest respected set
    # missing supp y, when it meets supp x, and U_x otherwise.  When
    # neither separates, both are the greatest respected set outside
    # both supports: the face that the LP is solved on.
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = [f"g{i}" for i in range(rng.randint(2, 5))]
    pres = _sparse_presentation(rng, gens, rng.randint(1, 3))
    assume(pres.relations)
    e1, e2 = (pres.element(_sparse_dist(rng, gens)) for _ in range(2))
    v = eq(e1, e2, rng.randint(0, 3))
    assert verify_verdict(v, e1, e2)
    x, y = e1.rep.support(), e2.rep.support()
    u_y, u_x = respected_oracle(pres, y), respected_oracle(pres, x)
    if v.support:
        expected = u_y if u_y & x else u_x
        assert v.support == tuple(g for g in pres.generators if g in expected)
    elif not v.is_distinct and x != y:
        assert not u_y & x and not u_x & y
        assert u_y == u_x == respected_oracle(pres, x | y)
        everywhere = set(pres.generators)
        assert set(pres._members(presentation._respected(pres, pres._mask(everywhere - y)))) == u_y
        assert set(pres._members(presentation._respected(pres, pres._mask(everywhere - x)))) == u_x


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_no_support_verdict_on_a_rewrite_chain(data):
    # the partner is equal by construction, so no certificate may separate it
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = [f"g{i}" for i in range(rng.randint(2, 5))]
    pres = _sparse_presentation(rng, gens, rng.randint(1, 3))
    assume(pres.relations)
    e1 = pres.element(_sparse_dist(rng, gens))
    target = _rewrite(rng, pres, dense(pres, e1.rep), rng.randint(1, 4))
    assume(target is not None)
    e2 = pres.element(pres.dist_from_vector(target))
    for bound in range(5):
        v = eq(e1, e2, bound)
        assert not v.is_distinct and not v.support
        assert verify_verdict(v, e1, e2)


def test_replay_rejects_forged_support_certificates():
    # a ~ a/2 + b/2 and c ~ d, with a against b
    pres = Presentation(
        ["a", "b", "c", "d"],
        [(delta("a"), rd({"a": "1/2", "b": "1/2"})), (delta("c"), delta("d"))],
    )
    a, b = pres.delta("a"), pres.delta("b")
    v = eq(a, b, 2)
    assert v.support == ("a", "c", "d") and verify_verdict(v, a, b)

    def replays(support):
        return verify_verdict(EqualityVerdict("distinct", support=support), a, b)

    assert replays(("a",)) and replays(("d", "a", "c")) and replays(("a",) * 2)
    assert not replays(("a", "c"))  # c ~ d has only its left side meeting it
    assert not replays(("a", "b"))  # meets both supports
    assert not replays(("c", "d"))  # meets neither
    assert not replays(())  # empty: no certificate at all
    assert not replays(("a", "z"))  # z is not a generator
    assert verify_verdict(EqualityVerdict("distinct", support=("a",)), b, a)
    mid = pres.element(rd({"a": "1/2", "b": "1/2"}))  # equal to a
    assert not verify_verdict(EqualityVerdict("distinct", support=("a",)), a, mid)


# -- the invariant step: one integer residual against the cached echelon form --------


def _mix(t, p, q):
    return convex_combine([t, 1 - t], [p, q])


def _invariant_relations(rng, gens):
    """0-3 relations over gens: random ones, ones whose difference row
    (lhs - rhs) leads with a negative entry, and dependent ones (an earlier
    relation reversed, or one mixture of two earlier relations' sides)."""
    rels = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["random", "negative", "dependent"][: 3 if rels else 2])
        if kind == "dependent":
            (r1, s1), (r2, s2) = rng.choice(rels), rng.choice(rels)
            t = F(rng.randint(1, 3), 4)
            lhs, rhs = (s1, r1) if rng.random() < 0.5 else (_mix(t, r1, r2), _mix(t, s1, s2))
        else:
            lhs, rhs = _random_dist(rng, gens), _random_dist(rng, gens)
            lead = next((lhs.weight(g) - rhs.weight(g) for g in gens if lhs.weight(g) != rhs.weight(g)), 0)
            if kind == "negative" and lead > 0:
                lhs, rhs = rhs, lhs
        if lhs != rhs:
            rels.append((lhs, rhs))
    return rels


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_invariant_step_takes_the_first_separating_nullspace_vector(data):
    # On a fresh presentation eq reduces y - x against the cached echelon
    # form; its invariant must be the first vector of the nullspace basis
    # of the difference rows that separates x and y.  Partners that differ
    # by a relation move are never separated.
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = [f"g{i}" for i in range(rng.randint(1, 5))]
    rels = _invariant_relations(rng, gens)
    x = _random_dist(rng, gens)
    if rels and rng.random() < 0.4:  # y - x is t (s - r) for a relation (r, s)
        r, s = rng.choice(rels)
        t = F(rng.randint(1, 3), 4)
        x, y = _mix(t, r, x), _mix(t, s, x)
    else:
        y = _random_dist(rng, gens)
    pres = Presentation(gens, rels)
    e1, e2 = pres.element(x), pres.element(y)
    v = eq(e1, e2, rng.randint(0, 2))
    xv, yv = dense(pres, x), dense(pres, y)
    basis = linalg.nullspace(dense_difference_rows(pres), len(gens))
    separating = [vec for vec in basis if dot(vec, xv) != dot(vec, yv)]
    if separating:
        assert v.is_distinct and repr(v.invariant) == repr(tuple(separating[0]))
        assert verify_verdict(v, e1, e2)
    else:
        assert not (v.is_distinct and v.invariant)


def test_eq_on_a_fresh_presentation_never_calls_nullspace(monkeypatch):
    def refuse(rows, ncols):
        raise AssertionError("eq called linalg.nullspace")

    monkeypatch.setattr(linalg, "nullspace", refuse)

    def verdict(gens, rels, x, y):
        pres = Presentation(gens, rels)  # fresh: nothing cached yet
        e1, e2 = pres.element(x), pres.element(y)
        v = eq(e1, e2, 2)
        assert verify_verdict(v, e1, e2)
        return v

    split = [(delta("a"), rd({"b": "1/2", "c": "1/2"}))]
    abcd = ["a", "b", "c", "d"]
    v = verdict(abcd, split, delta("a"), delta("b"))
    assert v.invariant == (F(1, 2), F(1), F(0), F(0))
    assert verdict(["a", "b", "c"], [], delta("b"), delta("c")).invariant == (F(0), F(1), F(0))
    assert verdict(abcd, split, delta("a"), rd({"b": "1/2", "c": "1/2"})).is_equal
    absorb = [(delta("a"), rd({"a": "1/2", "b": "1/2"}))]
    assert verdict(["a", "b"], absorb, delta("a"), delta("b")).support == ("a",)


@pytest.mark.parametrize("status", ["Equal", "EQUAL", "equal ", "", "other", None, 1])
def test_a_verdict_status_outside_the_three_is_invalid_input(status):
    # verify_verdict replays equal and distinct certificates and accepts an
    # unknown verdict as it stands, so a verdict of any other status would
    # pass unchecked: the constructor refuses it
    with pytest.raises(InvalidInput, match="status"):
        EqualityVerdict(status)
    a, b = FREE_AB.delta("a"), FREE_AB.delta("b")
    assert not verify_verdict(EqualityVerdict("equal"), a, b)
    assert verify_verdict(EqualityVerdict("unknown"), a, b)


def test_verdicts_survive_copy_and_pickle():
    # verdicts are frozen __slots__ records, so copying must restore their
    # fields without going through the assignment they refuse
    pres = Presentation.free(["a", "b"])
    step = ZigZagStep((F(1),), (F(0), F(1, 2)))
    for verdict in (eq(pres.delta("a"), pres.delta("b")), EqualityVerdict("equal", path=(step,), bound=3)):
        for clone in (copy.copy(verdict), copy.deepcopy(verdict), pickle.loads(pickle.dumps(verdict))):
            assert clone == verdict and hash(clone) == hash(verdict) and repr(clone) == repr(verdict)
            with pytest.raises(AttributeError):
                clone.status = "unknown"
