"""Truncated simplicial sets, twisted products, simplicial distributions,
the bundle tensor, and the graded monoid of twisted distributions."""

import random
from fractions import Fraction

import pytest

from convexion.distribution import FiniteDistribution, delta
from convexion import simplicial
from convexion.errors import InvalidInput, InvalidTwist
from convexion.simplicial import (
    MAX_TWIST_CANDIDATES,
    AbGroup,
    SimplicialAbGroup,
    TruncatedSimplicialSet,
    TwistingFunction,
    _choice_product,
    assoc_iso,
    braiding_iso,
    bundle_iso_valid,
    bundle_tensor,
    check_simplicial_distribution,
    enumerate_sections,
    enumerate_twists,
    mix_sdist,
    mu_product,
    pushforward_sdist,
    section_sdist,
    standard_circle,
    standard_point,
    twist_addition_iso,
    twist_monoid_structure,
    twisted_product,
    uniform_sdist,
    unit_iso,
)

F = Fraction

Z2 = AbGroup.cyclic(2)
Z3 = AbGroup.cyclic(3)


def circle_setup(group=Z2):
    x = standard_circle(2)
    k = SimplicialAbGroup.constant(group, 2)
    return x, k


# -- structural validation -----------------------------------------------------


def test_standard_complexes_validate():
    standard_point(3)
    standard_circle(1)
    standard_circle(2)


def test_bad_face_table_rejected():
    with pytest.raises(InvalidInput):
        TruncatedSimplicialSet(
            1,
            [("v",), ("e",)],
            {(1, 0): {"e": "v"}, (1, 1): {}},  # not total
            {(0, 0): {"v": "e"}},
        )


def test_non_total_tables_name_their_side():
    with pytest.raises(InvalidInput) as face_side:
        TruncatedSimplicialSet(
            1,
            [("v",), ("e",)],
            {(1, 0): {"e": "v"}, (1, 1): {}},
            {(0, 0): {"v": "e"}},
        )
    assert str(face_side.value) == "face table (1,1) missing or not total"
    with pytest.raises(InvalidInput) as degeneracy_side:
        TruncatedSimplicialSet(
            1,
            [("v",), ("e",)],
            {(1, 0): {"e": "v"}, (1, 1): {"e": "v"}},
            {(0, 0): {}},
        )
    assert str(degeneracy_side.value) == "degeneracy table (0,0) missing or not total"


def test_non_homomorphic_tables_name_their_side():
    Z4 = AbGroup.cyclic(4)
    swap = {"0": "1", "1": "0"}
    with pytest.raises(InvalidInput) as face_side:
        SimplicialAbGroup(1, [Z2, Z2], {(1, 0): swap, (1, 1): swap}, {(0, 0): swap})
    assert str(face_side.value) == "face (1,0) is not a homomorphism"
    # faces reduce mod 2 (homomorphisms); the degeneracy is a section of
    # them that sends 0 to 2, so only the degeneracy side fails
    mod2 = {str(a): str(a % 2) for a in range(4)}
    with pytest.raises(InvalidInput) as degeneracy_side:
        SimplicialAbGroup(
            1, [Z2, Z4], {(1, 0): mod2, (1, 1): mod2}, {(0, 0): {"0": "2", "1": "1"}}
        )
    assert str(degeneracy_side.value) == "degeneracy (0,0) is not a homomorphism"


def test_tables_outside_the_truncation_are_rejected():
    # a face d_0: X_2 -> X_1 on a set truncated at N = 0
    with pytest.raises(InvalidInput) as set_side:
        TruncatedSimplicialSet(0, [("v",)], {(2, 0): {"s": "v"}}, {})
    assert str(set_side.value) == "face table (2,0) is outside the truncation N = 0"
    ident = {"0": "0", "1": "1"}
    with pytest.raises(InvalidInput) as group_side:
        SimplicialAbGroup(
            1, [Z2, Z2], {(1, 0): ident, (1, 1): ident}, {(0, 0): ident, (1, 0): ident}
        )
    assert str(group_side.value) == "degeneracy table (1,0) is outside the truncation N = 1"


@pytest.mark.parametrize("n_max", [-1, 4])
def test_truncation_bound_is_at_most_three(n_max):
    message = rf"^truncation bound N = {n_max} is outside 0\.\.3$"
    with pytest.raises(InvalidInput, match=message):
        standard_point(n_max)
    with pytest.raises(InvalidInput, match=message):
        SimplicialAbGroup.constant(Z2, n_max)


def test_cyclic_group_tables():
    assert Z3.add("1", "2") == "0"
    assert Z3.neg("1") == "2"


def test_constant_simplicial_group_validates():
    SimplicialAbGroup.constant(Z3, 3)


# -- twisting functions ----------------------------------------------------------


def test_zero_twist_is_valid():
    x, k = circle_setup()
    TwistingFunction.zero(x, k)


def test_circle_z2_has_exactly_two_twists():
    x, k = circle_setup()
    twists = enumerate_twists(x, k)
    assert len(twists) == 2
    values = sorted(t.value(1, "e") for t in twists)
    assert values == ["0", "1"]
    for t in twists:
        assert t.value(1, "sv") == "0"  # eta kills degenerate simplices


def test_invalid_twist_rejected():
    x, k = circle_setup()
    maps = {
        1: {"e": "0", "sv": "1"},  # eta(s_0 v) must be 0
        2: {"s0e": "0", "s1e": "0", "ssv": "0"},
    }
    with pytest.raises(InvalidTwist) as invalid:
        TwistingFunction(x, k, maps)
    # the face identities are walked first: d_0 d_1 and d_0 d_0 of
    # (0, s_1 e) differ by eta(s_0 v)
    assert str(invalid.value) == (
        "the twisted product is not simplicial: face identity fails at n=2, i=0, j=1, ('0', 's1e')"
    )


def twisting_identities_hold(x, k, maps):
    """The twisting identities that the shifted zeroth face d_0(k, x) =
    (eta(x) + d_0 k, d_0 x) forces (May, Simplicial Objects in Algebraic
    Topology, section 18), walked one by one; maps must be total and land
    in the group.  The reference that TwistingFunction's check through
    the twisted product is compared with."""
    eta = lambda n, simp: maps[n][simp]
    for n in range(2, x.n_max + 1):
        gk = k.level(n - 2)
        for simp in x.simplices(n):
            moved = gk.add(eta(n - 1, x.d(n, 1, simp)), gk.neg(eta(n - 1, x.d(n, 0, simp))))
            if k.d(n - 1, 0, eta(n, simp)) != moved:
                return False
            for i in range(1, n):
                if k.d(n - 1, i, eta(n, simp)) != eta(n - 1, x.d(n, i + 1, simp)):
                    return False
    for n in range(1, x.n_max):
        for simp in x.simplices(n):
            for i in range(n):
                if k.s(n - 1, i, eta(n, simp)) != eta(n + 1, x.s(n, i + 1, simp)):
                    return False
    return all(
        eta(n + 1, x.s(n, 0, simp)) == k.level(n).zero
        for n in range(x.n_max)
        for simp in x.simplices(n)
    )


def test_a_twist_is_valid_exactly_when_the_identities_hold():
    # every candidate map of the circle (N = 1, 2) and the point (N = 1, 2,
    # 3) into constant Z/2, Z/3 and Z/4
    checked = accepted = 0
    for x in (standard_circle(1), standard_circle(2), standard_point(1), standard_point(2), standard_point(3)):
        for order in (2, 3, 4):
            k = SimplicialAbGroup.constant(AbGroup.cyclic(order), x.n_max)
            levels = range(1, x.n_max + 1)
            for maps in _choice_product(x, levels, lambda n, simp: k.level(n - 1).elements):
                try:
                    TwistingFunction(x, k, maps)
                    valid = True
                except InvalidTwist:
                    valid = False
                assert valid == twisting_identities_hold(x, k, maps), (x, order, maps)
                checked += 1
                accepted += valid
    assert checked == 1465
    assert accepted > 15  # more than the zero twist of each of the 15 pairs


def test_twist_addition_closed():
    x, k = circle_setup()
    t0, t1 = sorted(enumerate_twists(x, k), key=lambda t: t.value(1, "e"))
    assert (t1 + t1) == t0  # Z2 addition
    assert (t0 + t1) == t1


# -- twisted products ----------------------------------------------------------------


def test_zero_twist_gives_componentwise_product():
    x, k = circle_setup()
    bundle = twisted_product(k, TwistingFunction.zero(x, k), x)
    # untwisted zeroth face is componentwise
    assert bundle.total.d(1, 0, ("1", "e")) == ("1", "v")


def test_twisted_zeroth_face_shifts():
    x, k = circle_setup()
    (t1,) = [t for t in enumerate_twists(x, k) if t.value(1, "e") == "1"]
    bundle = twisted_product(k, t1, x)
    assert bundle.total is t1.total  # built once, by the twisting function
    assert bundle.total.d(1, 0, ("0", "e")) == ("1", "v")
    assert bundle.total.d(1, 1, ("0", "e")) == ("0", "v")


def test_truncation_level_three_supported():
    # the point complex with a constant group at the maximum truncation:
    # every simplex is degenerate, so the zero twist is the only one,
    # and the twisted product validates at N = 3
    x3 = standard_point(3)
    k3 = SimplicialAbGroup.constant(Z2, 3)
    twists = enumerate_twists(x3, k3)
    assert twists == [TwistingFunction.zero(x3, k3)]
    bundle = twisted_product(k3, twists[0], x3)
    assert [len(lv) for lv in bundle.total.levels] == [2, 2, 2, 2]
    assert check_simplicial_distribution(uniform_sdist(bundle), bundle) == []


def test_twist_candidates_are_counted_before_any_is_built(monkeypatch):
    # Z/8 on the circle at N = 2 has 8^2 * 8^3 = 32,768 candidates, within
    # the budget; Z/16 has 16^5, above it.  No candidate is built here.
    monkeypatch.setattr(simplicial, "_choice_product", lambda *args: iter(()))
    x = standard_circle(2)
    assert 8**5 <= MAX_TWIST_CANDIDATES < 16**5
    assert enumerate_twists(x, SimplicialAbGroup.constant(AbGroup.cyclic(8), 2)) == []
    with pytest.raises(InvalidInput, match="^1048576 candidate twisting functions exceed"):
        enumerate_twists(x, SimplicialAbGroup.constant(AbGroup.cyclic(16), 2))


def test_twisted_product_is_principal_for_every_twist():
    # Bundle.validate (free action, orbits = fibres, simplicial action and
    # projection) runs in the constructor; so does the simplicial-identity
    # check of the total space.
    x, k = circle_setup()
    for t in enumerate_twists(x, k):
        twisted_product(k, t, x)
    x3, k3 = standard_circle(2), SimplicialAbGroup.constant(Z3, 2)
    for t in enumerate_twists(x3, k3):
        twisted_product(k3, t, x3)


# -- simplicial distributions ----------------------------------------------------------


def test_sections_of_untwisted_circle():
    x, k = circle_setup()
    bundle = twisted_product(k, TwistingFunction.zero(x, k), x)
    sections = enumerate_sections(bundle)
    assert len(sections) == 2  # constant group-valued functions
    for s in sections:
        failures = check_simplicial_distribution(section_sdist(bundle, s), bundle)
        assert not failures, failures


def test_twisted_circle_has_no_sections_but_uniform_works():
    x, k = circle_setup()
    (t1,) = [t for t in enumerate_twists(x, k) if t.value(1, "e") == "1"]
    bundle = twisted_product(k, t1, x)
    assert enumerate_sections(bundle) == []
    failures = check_simplicial_distribution(uniform_sdist(bundle), bundle)
    assert not failures, failures


def test_invalid_distribution_itemized():
    x, k = circle_setup()
    bundle = twisted_product(k, TwistingFunction.zero(x, k), x)
    p = uniform_sdist(bundle)
    # corrupt one level-1 value: delta instead of uniform breaks naturality
    p.levels[1]["e"] = delta(("0", "e"))
    failures = check_simplicial_distribution(p, bundle)
    assert failures
    kinds = {f[0] for f in failures}
    assert "face" in kinds


def test_failures_list_faces_then_degeneracies():
    x, k = circle_setup()
    bundle = twisted_product(k, TwistingFunction.zero(x, k), x)
    p = uniform_sdist(bundle)
    p.levels[2]["s0e"] = delta(("0", "s0e"))
    assert check_simplicial_distribution(p, bundle) == [
        ("face", 2, "s0e", 0),
        ("face", 2, "s0e", 1),
        ("face", 2, "s0e", 2),
        ("degeneracy", 1, "e", 0),
    ]


def test_mixtures_stay_valid():
    x, k = circle_setup()
    bundle = twisted_product(k, TwistingFunction.zero(x, k), x)
    s0, s1 = enumerate_sections(bundle)
    mixed = mix_sdist(
        [F(1, 3), F(2, 3)],
        [section_sdist(bundle, s0), section_sdist(bundle, s1)],
    )
    assert check_simplicial_distribution(mixed, bundle) == []


# -- bundle tensor -----------------------------------------------------------------------


def all_twists_and_bundles(group=Z2):
    x, k = circle_setup(group)
    twists = enumerate_twists(x, k)
    return x, k, {t: twisted_product(k, t, x) for t in twists}


def test_tensor_with_trivial_is_unit():
    x, k, bundles = all_twists_and_bundles()
    zero = TwistingFunction.zero(x, k)
    for t, bundle in bundles.items():
        tensored = bundle_tensor(bundle, bundles[zero])
        assert bundle_iso_valid(tensored, bundle, unit_iso(tensored))


def test_unit_iso_moved_over_one_simplex_is_not_simplicial():
    x, k, bundles = all_twists_and_bundles()
    zero = TwistingFunction.zero(x, k)
    for bundle in bundles.values():
        tensored = bundle_tensor(bundle, bundles[zero])
        mapping = unit_iso(tensored)
        mapping[2] = {
            src: bundle.act(2, "1", dst) if dst[1] == "s0e" else dst
            for src, dst in mapping[2].items()
        }
        # still a bijection over the base and equivariant at every level
        for n, table in mapping.items():
            assert sorted(table.values()) == sorted(bundle.total.simplices(n))
            for src, dst in table.items():
                assert bundle.project(n, dst) == tensored.project(n, src)
                for g in k.level(n).elements:
                    assert table[tensored.act(n, g, src)] == bundle.act(n, g, dst)
        # but no longer commutes with faces and degeneracies
        assert not bundle_iso_valid(tensored, bundle, mapping)


def test_tensor_realizes_twist_addition_on_all_pairs():
    x, k, bundles = all_twists_and_bundles()
    for t1, b1 in bundles.items():
        for t2, b2 in bundles.items():
            tensored = bundle_tensor(b1, b2)
            target = bundles[t1 + t2]
            iso = twist_addition_iso(tensored, target)
            assert bundle_iso_valid(tensored, target, iso)


def test_tensor_realizes_twist_addition_z3():
    x, k, bundles = all_twists_and_bundles(Z3)
    assert len(bundles) == 3
    items = list(bundles.items())
    for t1, b1 in items:
        for t2, b2 in items:
            tensored = bundle_tensor(b1, b2)
            target = bundles[t1 + t2]
            assert bundle_iso_valid(
                tensored, target, twist_addition_iso(tensored, target)
            )


def test_tensor_of_mismatched_bundles_rejected():
    from convexion.errors import BaseMismatch

    x, k2 = circle_setup(Z2)
    _, k3 = circle_setup(Z3)
    b2 = twisted_product(k2, TwistingFunction.zero(x, k2), x)
    b3 = twisted_product(k3, TwistingFunction.zero(x, k3), x)
    with pytest.raises(BaseMismatch):
        bundle_tensor(b2, b3)


def test_braiding_is_an_isomorphism():
    x, k, bundles = all_twists_and_bundles()
    (b0, b1) = list(bundles.values())
    ef = bundle_tensor(b0, b1)
    fe = bundle_tensor(b1, b0)
    assert bundle_iso_valid(ef, fe, braiding_iso(ef, fe))


# -- mu product --------------------------------------------------------------------------


def test_mu_of_sections_is_section_of_product():
    x, k, bundles = all_twists_and_bundles()
    zero = TwistingFunction.zero(x, k)
    bundle = bundles[zero]
    s0, s1 = enumerate_sections(bundle)
    p, q = section_sdist(bundle, s0), section_sdist(bundle, s1)
    product = mu_product(p, q)
    assert check_simplicial_distribution(product, product.bundle) == []
    for n in product.levels:
        for x_s in product.levels[n]:
            assert product.at(n, x_s).support_size == 1


def test_mu_with_delta_relabels():
    x, k, bundles = all_twists_and_bundles()
    zero = TwistingFunction.zero(x, k)
    bundle = bundles[zero]
    s0, _ = enumerate_sections(bundle)
    q = section_sdist(bundle, s0)
    p = uniform_sdist(bundle)
    product = mu_product(p, q)
    # the product of the uniform with a point mass stays uniform on orbits
    assert check_simplicial_distribution(product, product.bundle) == []
    for n in product.levels:
        for x_s in product.levels[n]:
            dist = product.at(n, x_s)
            assert all(w == F(1, dist.support_size) for _, w in dist.items())


def test_mu_outputs_always_valid_on_random_mixtures():
    rng = random.Random(71)
    x, k, bundles = all_twists_and_bundles()
    zero = TwistingFunction.zero(x, k)
    (t1,) = [t for t in bundles if t != zero]
    sections = enumerate_sections(bundles[zero])
    for _ in range(20):
        w = F(rng.randint(0, 4), 4)
        p = mix_sdist(
            [w, 1 - w],
            [
                section_sdist(bundles[zero], sections[0]),
                section_sdist(bundles[zero], sections[1]),
            ],
        )
        q = uniform_sdist(bundles[t1])
        product = mu_product(p, q)
        assert check_simplicial_distribution(product, product.bundle) == []


def test_mu_biconvex_levelwise_exact():
    x, k, bundles = all_twists_and_bundles()
    zero = TwistingFunction.zero(x, k)
    bundle = bundles[zero]
    s0, s1 = enumerate_sections(bundle)
    p0 = section_sdist(bundle, s0)
    p1 = section_sdist(bundle, s1)
    q = uniform_sdist(bundle)
    alpha = [F(1, 4), F(3, 4)]
    lhs = mu_product(mix_sdist(alpha, [p0, p1]), q)
    rhs_parts = [mu_product(p0, q), mu_product(p1, q)]
    for n in lhs.levels:
        for x_s in lhs.levels[n]:
            mixed = FiniteDistribution(
                {
                    el: alpha[0] * rhs_parts[0].at(n, x_s).weight(el)
                    + alpha[1] * rhs_parts[1].at(n, x_s).weight(el)
                    for el in (
                        rhs_parts[0].at(n, x_s).support()
                        | rhs_parts[1].at(n, x_s).support()
                    )
                }
            )
            assert lhs.at(n, x_s) == mixed


def test_mu_compatibility_square_through_associator():
    x, k, bundles = all_twists_and_bundles()
    zero = TwistingFunction.zero(x, k)
    bundle = bundles[zero]
    s0, s1 = enumerate_sections(bundle)
    p = section_sdist(bundle, s0)
    q = mix_sdist([F(1, 2), F(1, 2)], [section_sdist(bundle, s0), section_sdist(bundle, s1)])
    r = uniform_sdist(bundle)
    left = mu_product(mu_product(p, q), r)  # on (E(x)F)(x)G
    right = mu_product(p, mu_product(q, r))  # on E(x)(F(x)G)
    iso = assoc_iso(left.bundle, right.bundle)
    assert bundle_iso_valid(left.bundle, right.bundle, iso)
    transported = pushforward_sdist(left, right.bundle, iso)
    for n in right.levels:
        for x_s in right.levels[n]:
            assert transported.at(n, x_s) == right.at(n, x_s)


# -- twist monoid -------------------------------------------------------------------------


def test_twist_monoid_unit_law():
    x, k = circle_setup()
    monoid = twist_monoid_structure(x, k)
    unit = monoid.unit_element()
    assert unit[0] == monoid.zero
    for t in monoid.twists:
        p = uniform_sdist(monoid.bundle_of(t))
        twist_out, out = monoid.multiply((t, p), unit)
        assert twist_out == t
        for n in out.levels:
            for x_s in out.levels[n]:
                assert out.at(n, x_s) == p.at(n, x_s)


def test_twist_monoid_associative_on_samples():
    x, k = circle_setup()
    monoid = twist_monoid_structure(x, k)
    zero = monoid.zero
    (t1,) = [t for t in monoid.twists if t != zero]
    sections = enumerate_sections(monoid.bundle_of(zero))
    a = (zero, section_sdist(monoid.bundle_of(zero), sections[0]))
    b = (t1, uniform_sdist(monoid.bundle_of(t1)))
    c = (zero, mix_sdist(
        [F(1, 2), F(1, 2)],
        [
            section_sdist(monoid.bundle_of(zero), sections[0]),
            section_sdist(monoid.bundle_of(zero), sections[1]),
        ],
    ))
    lhs_t, lhs = monoid.multiply(monoid.multiply(a, b), c)
    rhs_t, rhs = monoid.multiply(a, monoid.multiply(b, c))
    assert lhs_t == rhs_t
    for n in lhs.levels:
        for x_s in lhs.levels[n]:
            assert lhs.at(n, x_s) == rhs.at(n, x_s)


def test_twist_monoid_multiplication_fibrewise_biconvex():
    x, k = circle_setup()
    monoid = twist_monoid_structure(x, k)
    zero = monoid.zero
    bundle = monoid.bundle_of(zero)
    sections = enumerate_sections(bundle)
    p0 = section_sdist(bundle, sections[0])
    p1 = section_sdist(bundle, sections[1])
    q = uniform_sdist(bundle)
    alpha = [F(1, 3), F(2, 3)]
    _, lhs = monoid.multiply((zero, mix_sdist(alpha, [p0, p1])), (zero, q))
    _, out0 = monoid.multiply((zero, p0), (zero, q))
    _, out1 = monoid.multiply((zero, p1), (zero, q))
    rhs = mix_sdist(alpha, [out0, out1])
    for n in lhs.levels:
        for x_s in lhs.levels[n]:
            assert lhs.at(n, x_s) == rhs.at(n, x_s)
