"""Presented convex sets: quotient mixing, the equality engine, induced maps."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import _rewrite, _tensor_cases, recorded_pivots, zigzag_cases

from convexion import linalg, presentation
from convexion.distribution import FiniteDistribution, delta
from convexion.errors import (
    PresentationMismatch,
    RelationViolated,
    SemiringMismatch,
    SignatureMismatch,
)
from convexion.presentation import (
    ConvexMap,
    EqualityVerdict,
    Presentation,
    ZigZagStep,
    eq,
    hom_combine,
    induce_map,
    quotient_mix,
    verify_verdict,
)
from convexion.semiring import BOOLEAN

F = Fraction


def dist(**kw):
    return FiniteDistribution({k: F(v) if "/" not in str(v) else F(str(v)) for k, v in kw.items()})


def rd(mapping):
    return FiniteDistribution({k: F(str(v)) for k, v in mapping.items()})


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
    """The status of eq without deepening: the same invariant check, then
    one zig-zag LP at the full bound."""
    pres = e1.presentation
    if e1.rep == e2.rep:
        return "equal"
    diff = [e1.rep.weight(g) - e2.rep.weight(g) for g in pres.generators]
    if any(linalg.dot(vec, diff) != 0 for vec in pres.invariant_basis):
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
    target = _rewrite(rng, pres, pres.vector(e1.rep), rng.randint(1, 4))
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
    # Four generators, two relations, and g2 against g1/2 + g2/2: Unknown
    # at every level.  The chained LP ran past 144,000 pivots at bound 16
    # without finishing; the difference form starts phase 1 with
    # artificials on 4 rows per level, and all levels together take about
    # 70 eliminations.
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
    with recorded_pivots(monkeypatch) as eliminations:
        v = eq(pres.delta("g2"), pres.element(rd({"g1": "1/2", "g2": "1/2"})), 16)
    assert v.is_unknown and v.bound == 16
    assert len(eliminations) <= 1000


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


def test_undecided_raised_at_bound_zero():
    from convexion.errors import Undecided

    # relation image needs one rewriting step; at bound 0 the engine
    # answers unknown, and map induction must fail loudly
    split = Presentation(
        ["a", "b", "c"],
        [(delta("a"), rd({"b": "1/2", "c": "1/2"}))],
    )
    with pytest.raises(Undecided):
        induce_map(
            GLUE_AB,
            split,
            {
                "a": split.delta("a"),
                "b": split.element(rd({"b": "1/2", "c": "1/2"})),
            },
            step_bound=0,
        )
