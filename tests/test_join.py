"""Join (coproduct) of presented convex sets."""

import random
from fractions import Fraction

import pytest

from convexion.distribution import FiniteDistribution, convex_combine
from convexion.errors import (
    MissingPart,
    NotConvexVector,
    PresentationMismatch,
    TargetMismatch,
)
from convexion.join import (
    IndexedJoinSpace,
    JoinSpace,
    copair,
    join_mix,
    join_point,
)
from convexion.presentation import (
    ConvexMap,
    PresentedElement,
    Presentation,
    eq,
    induce_map,
    quotient_mix,
    same_class,
)

F = Fraction

X = Presentation.free(["x0", "x1"])
Y = Presentation.free(["y0", "y1", "y2"])
Z = Presentation.free(["z0", "z1"])
SPACE = JoinSpace(X, Y)


def rd(pres, mapping):
    return pres.element(
        FiniteDistribution({k: F(str(v)) for k, v in mapping.items()})
    )


def random_element(rng, pres):
    weights = [rng.randint(0, 3) for _ in pres.generators]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return pres.element(
        FiniteDistribution(
            {g: F(w, total) for g, w in zip(pres.generators, weights) if w}
        )
    )


# -- join_point canonicalization ----------------------------------------------


def test_endpoint_alpha_one_drops_y():
    pt = SPACE.point(1, X.delta("x0"), Y.delta("y0"))
    assert pt.alpha == 1 and pt.y_part is None
    assert pt.x_part == X.delta("x0")


def test_endpoint_alpha_zero_drops_x():
    pt = SPACE.point(0, X.delta("x0"), Y.delta("y0"))
    assert pt.alpha == 0 and pt.x_part is None
    assert pt.y_part == Y.delta("y0")


def test_interior_point_kept_verbatim():
    pt = join_point(F(1, 3), X.delta("x1"), Y.delta("y2"))
    assert (pt.alpha, pt.x_part, pt.y_part) == (F(1, 3), X.delta("x1"), Y.delta("y2"))


def test_missing_part_raises():
    with pytest.raises(MissingPart):
        SPACE.point(F(1, 2), X.delta("x0"), None)
    with pytest.raises(MissingPart):
        join_point(1, X.delta("x0"), None)


# -- join_mix -----------------------------------------------------------------


def test_mix_single_point():
    pt = SPACE.point(F(1, 3), X.delta("x0"), Y.delta("y1"))
    assert join_mix([F(1)], [pt]) == pt


def test_mix_of_opposite_endpoints():
    px = SPACE.inject_x(X.delta("x0"))
    py = SPACE.inject_y(Y.delta("y0"))
    mixed = join_mix([F(1, 2), F(1, 2)], [px, py])
    assert mixed.alpha == F(1, 2)
    assert mixed.x_part == X.delta("x0")
    assert mixed.y_part == Y.delta("y0")


def test_mix_shared_y_averages_x():
    x1, x2 = X.delta("x0"), X.delta("x1")
    y = Y.delta("y0")
    p1 = SPACE.point(F(1, 2), x1, y)
    p2 = SPACE.point(F(1, 2), x2, y)
    mixed = join_mix([F(1, 2), F(1, 2)], [p1, p2])
    assert mixed.alpha == F(1, 2)
    assert mixed.x_part == quotient_mix([F(1, 2), F(1, 2)], [x1, x2])
    assert mixed.y_part == y


def test_mix_never_divides_by_zero_at_endpoints():
    p1 = SPACE.inject_y(Y.delta("y0"))
    p2 = SPACE.inject_y(Y.delta("y1"))
    mixed = join_mix([F(1, 4), F(3, 4)], [p1, p2])
    assert mixed.alpha == 0 and mixed.x_part is None
    assert mixed.y_part.rep == FiniteDistribution({"y0": F(1, 4), "y1": F(3, 4)})


def test_mix_renormalizes_unequal_alphas():
    # Direct check of the renormalized formula on a hand case.
    p1 = SPACE.point(F(1, 2), X.delta("x0"), Y.delta("y0"))
    p2 = SPACE.point(F(1, 4), X.delta("x1"), Y.delta("y0"))
    mixed = join_mix([F(1, 2), F(1, 2)], [p1, p2])
    # w = 1/2*1/2 + 1/2*1/4 = 3/8; x weights: (1/4)/(3/8)=2/3, (1/8)/(3/8)=1/3
    assert mixed.alpha == F(3, 8)
    assert mixed.x_part.rep == FiniteDistribution({"x0": F(2, 3), "x1": F(1, 3)})
    assert mixed.y_part == Y.delta("y0")


def test_mix_rejects_bad_vector():
    pt = SPACE.point(F(1, 2), X.delta("x0"), Y.delta("y0"))
    with pytest.raises(NotConvexVector):
        join_mix([F(1, 2)], [pt, pt])
    with pytest.raises(NotConvexVector):
        join_mix([F(1, 2), F(1, 3)], [pt, pt])


def test_mix_unital_and_associative_up_to_eq():
    rng = random.Random(7)
    for _ in range(25):
        pts = [
            SPACE.point(
                F(rng.randint(0, 4), 4),
                random_element(rng, X),
                random_element(rng, Y),
            )
            for _ in range(3)
        ]
        # unit: mixing with a delta vector returns the chosen point
        picked = join_mix([F(0), F(1), F(0)], pts)
        assert _join_eq(picked, pts[1])
        # associativity: ((p0,p1) at 1/2) with p2 at (2/3,1/3) == flat mix
        inner = join_mix([F(1, 2), F(1, 2)], pts[:2])
        nested = join_mix([F(2, 3), F(1, 3)], [inner, pts[2]])
        flat = join_mix([F(1, 3), F(1, 3), F(1, 3)], pts)
        assert _join_eq(nested, flat)


def _join_eq(p, q, bound=2):
    if p.alpha != q.alpha:
        return False
    for a, b in ((p.x_part, q.x_part), (p.y_part, q.y_part)):
        if (a is None) != (b is None):
            return False
        if a is not None and not eq(a, b, bound).is_equal:
            return False
    return True


# -- copair and the universal property -----------------------------------------


def make_f(rng):
    return induce_map(
        X, Z, {g: random_element(rng, Z) for g in X.generators}
    )


def make_g(rng):
    return induce_map(
        Y, Z, {g: random_element(rng, Z) for g in Y.generators}
    )


def test_copair_restricts_to_injections():
    rng = random.Random(11)
    f, g = make_f(rng), make_g(rng)
    h = copair(f, g)
    for gen in X.generators:
        assert h(h.space.inject_x(X.delta(gen))) == f(X.delta(gen))
    for gen in Y.generators:
        assert h(h.space.inject_y(Y.delta(gen))) == g(Y.delta(gen))


def test_copair_interior_formula():
    rng = random.Random(12)
    f, g = make_f(rng), make_g(rng)
    h = copair(f, g)
    x, y = random_element(rng, X), random_element(rng, Y)
    pt = h.space.point(F(1, 2), x, y)
    assert h(pt) == quotient_mix([F(1, 2), F(1, 2)], [f(x), g(y)])


def test_copair_target_mismatch():
    f = ConvexMap.identity(X)
    g = ConvexMap.identity(Y)
    with pytest.raises(TargetMismatch):
        copair(f, g)


def test_universal_property_random_instances():
    rng = random.Random(13)
    for _ in range(40):
        f, g = make_f(rng), make_g(rng)
        h = copair(f, g)
        # h . i_X == f and h . i_Y == g pointwise on random elements
        for _ in range(3):
            x = random_element(rng, X)
            assert h(h.space.inject_x(x)) == f(x)
            y = random_element(rng, Y)
            assert h(h.space.inject_y(y)) == g(y)
        # conversely, copair(h.iX, h.iY) agrees with h on interior points
        f2 = induce_map(X, Z, {gen: h(h.space.inject_x(X.delta(gen))) for gen in X.generators})
        g2 = induce_map(Y, Z, {gen: h(h.space.inject_y(Y.delta(gen))) for gen in Y.generators})
        h2 = copair(f2, g2)
        for _ in range(3):
            alpha = F(rng.randint(1, 3), 4)
            pt = h.space.point(alpha, random_element(rng, X), random_element(rng, Y))
            pt2 = h2.space.point(alpha, pt.x_part, pt.y_part)
            assert h(pt) == h2(pt2)


# -- indexed joins --------------------------------------------------------------


# -- oracle: the join is the combined-generator quotient -------------------------


XP = Presentation(["p", "q"], [(FiniteDistribution({"p": F(1)}), FiniteDistribution({"q": F(1)}))])
YP = Presentation(
    ["u", "v", "w"],
    [(FiniteDistribution({"u": F(1)}), FiniteDistribution({"v": F(1, 2), "w": F(1, 2)}))],
)
COMBINED = Presentation(
    ["p", "q", "u", "v", "w"],
    list(XP.relations) + list(YP.relations),
)


def to_combined(pt):
    """[alpha, x, y] as a distribution over the union of the generators."""
    weights = {}
    if pt.x_part is not None:
        for g, wgt in pt.x_part.rep.items():
            weights[g] = pt.alpha * wgt
    if pt.y_part is not None:
        for g, wgt in pt.y_part.rep.items():
            weights[g] = weights.get(g, F(0)) + (1 - pt.alpha) * wgt
    return COMBINED.element(FiniteDistribution({g: w for g, w in weights.items() if w}))


def test_join_mix_matches_combined_quotient_oracle():
    # The coproduct of quotients is the quotient of the combined free set by
    # both relation families; relation moves preserve factor masses, so the
    # triple form and the combined form must mix to eq-equal elements.
    rng = random.Random(41)
    space = JoinSpace(XP, YP)
    for _ in range(40):
        pts = [
            space.point(
                F(rng.randint(0, 4), 4),
                random_element(rng, XP),
                random_element(rng, YP),
            )
            for _ in range(2)
        ]
        beta = F(rng.randint(0, 4), 4)
        mixed = join_mix([beta, 1 - beta], pts)
        direct = quotient_mix([beta, 1 - beta], [to_combined(p) for p in pts])
        verdict = eq(to_combined(mixed), direct, 2)
        assert verdict.is_equal, (mixed, direct.rep)


def test_join_equality_matches_combined_quotient_oracle():
    rng = random.Random(43)
    space = JoinSpace(XP, YP)
    seen = {"equal": 0, "distinct": 0}
    for _ in range(60):
        p1 = space.point(
            F(rng.randint(0, 2), 2), random_element(rng, XP), random_element(rng, YP)
        )
        p2 = space.point(
            F(rng.randint(0, 2), 2), random_element(rng, XP), random_element(rng, YP)
        )
        combined_verdict = eq(to_combined(p1), to_combined(p2), 3)
        triple_equal = _join_eq(p1, p2, 3)
        if combined_verdict.is_unknown:
            continue
        assert combined_verdict.is_equal == triple_equal
        seen["equal" if triple_equal else "distinct"] += 1
    assert seen["equal"] and seen["distinct"]


def test_indexed_join_drops_zero_slots():
    space = IndexedJoinSpace((X, Y, Z))
    pt = space.point(
        [F(1, 2), F(0), F(1, 2)],
        [X.delta("x0"), None, Z.delta("z0")],
    )
    assert pt.parts[1] is None


def test_indexed_join_requires_parts_of_weighted_slots():
    space = IndexedJoinSpace((X, Y, Z))
    with pytest.raises(MissingPart):
        space.point([F(1, 2), F(1, 2), F(0)], [X.delta("x0"), None, None])


def _indexed_combined(pt):
    """A point of a join of free factors as one distribution over the union
    of their generators."""
    weights = {}
    for w, part in zip(pt.weights, pt.parts):
        if part is not None:
            for g, v in part.rep.items():
                weights[g] = weights.get(g, F(0)) + w * v
    return FiniteDistribution(weights)


def test_indexed_mix_is_associative_and_matches_combined_oracle():
    rng = random.Random(21)
    space = IndexedJoinSpace((X, Y, Z))
    for _ in range(15):
        pts = []
        for _ in range(3):
            raw = [rng.randint(0, 3) for _ in range(3)]
            if sum(raw) == 0:
                raw[0] = 1
            tot = sum(raw)
            pts.append(
                space.point(
                    [F(w, tot) for w in raw],
                    [
                        random_element(rng, X),
                        random_element(rng, Y),
                        random_element(rng, Z),
                    ],
                )
            )
        flat = space.mix([F(1, 3), F(1, 3), F(1, 3)], pts)
        inner = space.mix([F(1, 2), F(1, 2)], pts[:2])
        # the factors are free, so equal points have identical parts
        assert space.mix([F(2, 3), F(1, 3)], [inner, pts[2]]) == flat
        assert _indexed_combined(flat) == convex_combine(
            [F(1, 3), F(1, 3), F(1, 3)], [_indexed_combined(p) for p in pts]
        )
        pair = space.mix([F(1, 3), F(2, 3)], pts[:2])
        assert _indexed_combined(pair) == convex_combine(
            [F(1, 3), F(2, 3)], [_indexed_combined(p) for p in pts[:2]]
        )


def test_indexed_mix_rejects_a_short_coefficient_vector():
    space = IndexedJoinSpace((X, Y, Z))
    p1 = space.point([F(1), F(0), F(0)], [X.delta("x0"), None, None])
    p2 = space.point([F(0), F(0), F(1)], [None, None, Z.delta("z1")])
    with pytest.raises(NotConvexVector):
        space.mix([F(1)], [p1, p2])


def test_mix_rejects_points_of_another_join():
    space = IndexedJoinSpace((X, Y, Z))
    other = IndexedJoinSpace((X, Z))
    foreign = other.point([F(1), F(0)], [X.delta("x0"), None])
    with pytest.raises(PresentationMismatch):
        space.mix([F(1)], [foreign])
    pt = SPACE.point(F(1, 2), X.delta("x0"), Y.delta("y0"))
    elsewhere = JoinSpace(X, Z).point(F(1, 2), X.delta("x0"), Z.delta("z0"))
    with pytest.raises(PresentationMismatch):
        join_mix([F(1, 2), F(1, 2)], [pt, elsewhere])


# -- the join as the coproduct presentation -----------------------------------------


def test_same_class_matches_slotwise_equality():
    # Join points are presented elements on the tagged generators, so the
    # presentation's exact decision applies to them as it stands.
    rng = random.Random(47)
    space = JoinSpace(XP, YP)
    seen = {True: 0, False: 0}
    for _ in range(60):
        p1, p2 = (
            space.point(F(rng.randint(0, 2), 2), random_element(rng, XP), random_element(rng, YP))
            for _ in range(2)
        )
        verdicts = [
            eq(a, b, 3)
            for a, b in ((p1.x_part, p2.x_part), (p1.y_part, p2.y_part))
            if a is not None and b is not None
        ]
        if any(v.is_unknown for v in verdicts):
            continue
        assert same_class(p1, p2) == _join_eq(p1, p2, 3)
        seen[_join_eq(p1, p2, 3)] += 1
    assert seen[True] and seen[False]


def test_self_join_keeps_its_slots_apart():
    space = JoinSpace(X, X)
    assert len(space.generators) == 2 * len(X.generators)
    pt = space.point(F(1, 3), X.delta("x0"), X.delta("x1"))
    assert pt.parts == (X.delta("x0"), X.delta("x1")) and pt.weights == (F(1, 3), F(2, 3))
    swapped = space.point(F(2, 3), X.delta("x1"), X.delta("x0"))
    assert not same_class(pt, swapped)
    mixed = join_mix([F(1, 2), F(1, 2)], [space.inject_x(X.delta("x0")), space.inject_y(X.delta("x0"))])
    assert mixed.parts == (X.delta("x0"), X.delta("x0"))
    f = induce_map(X, Z, {"x0": Z.delta("z0"), "x1": Z.delta("z1")})
    g = induce_map(X, Z, {"x0": Z.delta("z1"), "x1": Z.delta("z0")})
    h = copair(f, g)
    assert h.space == space
    assert h(space.inject_x(X.delta("x0"))) == Z.delta("z0")
    assert h(space.inject_y(X.delta("x0"))) == Z.delta("z1")
    # 1/3 of f(x0) = z0 and 2/3 of g(x1) = z0
    assert h(pt) == Z.delta("z0")


def test_copair_is_the_map_induced_by_the_tagged_assignment():
    rng = random.Random(53)
    for _ in range(20):
        f, g = make_f(rng), make_g(rng)
        h = copair(f, g)
        assert isinstance(h, ConvexMap) and isinstance(h.space, Presentation)
        tagged = {(0, x): f(X.delta(x)) for x in X.generators}
        tagged.update({(1, y): g(Y.delta(y)) for y in Y.generators})
        induced = induce_map(h.space, Z, tagged)
        for _ in range(3):
            pt = h.space.point(F(rng.randint(0, 4), 4), random_element(rng, X), random_element(rng, Y))
            assert isinstance(pt, PresentedElement)
            assert h(pt).rep == induced(pt).rep
