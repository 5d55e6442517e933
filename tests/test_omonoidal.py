"""Operad-indexed monoidal structure, lax functors, and the convex
O-monoidal Grothendieck construction."""

import random
from fractions import Fraction

import pytest

from convexion.distribution import FiniteDistribution
from convexion.errors import ArityMismatch, CoherenceFailure
from convexion.matprop import QConvOp
from convexion.omonoidal import (
    ASSOC,
    COMM,
    QCONV,
    TRIVIAL,
    LaxInstance,
    LaxOMonFunctor,
    OMonCategory,
    SymmetricMonoidalData,
    assoc_op,
    check_lax,
    comm_op,
    dist_lax_functor,
    identity_lax_functor,
    mixture_lax_functor,
    o_grothendieck,
    permutation_square_holds,
    star_alpha,
    trivial_structure,
)
from convexion.category import walking_arrow
from convexion.presentation import Presentation, eq, quotient_mix

F = Fraction

AB = Presentation.free(["a", "b"])
CD = Presentation.free(["c", "d"])


def rd(pres, mapping):
    return pres.element(
        FiniteDistribution({k: F(str(v)) for k, v in mapping.items()})
    )


# -- operad composition -----------------------------------------------------------


def test_qconv_composition_flattens():
    z = QConvOp(["1/2", "1/2"])
    xs = [QConvOp(["1"]), QConvOp(["1/3", "2/3"])]
    assert QCONV.compose(z, xs) == QConvOp(["1/2", "1/6", "1/3"])


def test_comm_composition_adds_arities():
    assert COMM.compose(comm_op(2), [comm_op(1), comm_op(3)]) == comm_op(4)


def test_assoc_composition_blocks():
    z = assoc_op((1, 0))  # swap two blocks
    xs = [assoc_op((0, 1)), assoc_op((0,))]
    out = ASSOC.compose(z, xs)
    # block 1 (size 1) first, then block 0 (size 2, identity inside)
    assert out == assoc_op((2, 0, 1))


def test_units_compose_trivially():
    for spec in (TRIVIAL, ASSOC, COMM, QCONV):
        u = spec.unit()
        assert spec.compose(u, [u]) == u


def test_operad_kind_mismatch():
    with pytest.raises(ArityMismatch):
        QCONV.compose(comm_op(1), [comm_op(1)])


# -- trivial structures -------------------------------------------------------------


def or_poset_monoidal():
    base = walking_arrow()

    def nfold(objs):
        return "1" if "1" in objs else "0"

    return SymmetricMonoidalData(base, nfold, unit_object="0")


def test_trivial_structure_parameter_blind():
    omon = trivial_structure(or_poset_monoidal(), QCONV)
    assert omon.tensor_objects(QConvOp(["1/2", "1/2"]), ("0", "1")) == "1"
    assert omon.tensor_objects(QConvOp(["1/4", "3/4"]), ("0", "0")) == "0"
    # unit operation acts as the identity
    assert omon.tensor_objects(QCONV.unit(), ("1",)) == "1"


def test_cset_handle_is_parameter_blind_tensor():
    from convexion.omonoidal import cset_omon
    from convexion.tensor import tensor

    omon = cset_omon()
    op = QConvOp([F(1, 2), F(1, 2)])
    assert omon.tensor_objects(op, (AB, CD)) == tensor([AB, CD])
    assert omon.tensor_objects(QCONV.unit(), (AB,)) == AB


def test_pure_tensor_convenience():
    from convexion.omonoidal import nfold_pure
    from convexion.tensor import pure_tensor, universal_map

    e1 = AB.delta("a")
    e2 = CD.delta("c")
    assert pure_tensor([e1, e2]) == universal_map([AB, CD], [e1, e2])
    assert nfold_pure([e1]) == e1


def test_trivial_structure_validates_coherence():
    base = walking_arrow()

    def bad(objs):  # not symmetric
        return objs[0]

    with pytest.raises(CoherenceFailure):
        trivial_structure(SymmetricMonoidalData(base, bad), QCONV)


# -- star_alpha -----------------------------------------------------------------------


def test_star_single_weight_is_the_factor():
    assert star_alpha(QConvOp([F(1)]), [AB]) == AB


def test_star_zero_slot_inert():
    assert star_alpha(QConvOp([F(1), F(0)]), [AB, CD]) == AB


def test_star_singleton_factors_collapse():
    p1 = Presentation.free(["p"])
    p2 = Presentation.free(["q"])
    out = star_alpha(QConvOp([F(1, 2), F(1, 2)]), [p1, p2])
    assert len(out.generators) == 1


def test_star_is_componentwise_product_marginal_oracle():
    out = star_alpha(QConvOp([F(1, 2), F(1, 2)]), [AB, CD])
    rng = random.Random(19)

    def marginals(e):
        m0 = {
            g: sum((e.rep.weight((g, h)) for h in CD.generators), F(0))
            for g in AB.generators
        }
        m1 = {
            h: sum((e.rep.weight((g, h)) for g in AB.generators), F(0))
            for h in CD.generators
        }
        return m0, m1

    seen_equal = seen_distinct = 0
    for _ in range(50):
        p = _random_el(rng, out)
        q = _random_el(rng, out)
        verdict = eq(p, q, 3)
        assert not verdict.is_unknown
        assert verdict.is_equal == (marginals(p) == marginals(q))
        seen_equal += verdict.is_equal
        seen_distinct += verdict.is_distinct
    assert seen_equal and seen_distinct


def _random_el(rng, pres):
    cuts = [rng.randint(0, 2) for _ in pres.generators]
    if sum(cuts) == 0:
        cuts[0] = 1
    total = sum(cuts)
    return pres.element(
        FiniteDistribution(
            {g: F(c, total) for g, c in zip(pres.generators, cuts) if c}
        )
    )


def test_star_arity_mismatch():
    with pytest.raises(ArityMismatch):
        star_alpha(QConvOp([F(1)]), [AB, CD])


# -- lax functor checks -----------------------------------------------------------------


def dist_instances(functor, rng, count=6):
    out = []
    for _ in range(count):
        n = rng.randint(1, 2)
        inner = []
        blocks = []
        elems = []
        for _ in range(n):
            k = rng.randint(1, 2)
            inner.append(_grid_op(rng, k))
            block = tuple(f"S{rng.randint(1, 2)}" for _ in range(k))
            blocks.append(block)
            elems.append(
                tuple(
                    _random_el(rng, functor.fibre(o)) for o in block
                )
            )
        out.append(
            LaxInstance(_grid_op(rng, n), tuple(inner), tuple(blocks), tuple(elems))
        )
    return out


def _grid_op(rng, arity):
    cuts = [rng.randint(0, 4) for _ in range(arity)]
    if sum(cuts) == 0:
        cuts[0] = 1
    return QConvOp([F(c, sum(cuts)) for c in cuts])


def test_dist_lax_structure_passes():
    functor = dist_lax_functor(6)
    rng = random.Random(29)
    failures = check_lax(
        functor,
        dist_instances(functor, rng, 10),
        unit_objects=["S1", "S2"],
    )
    assert not failures, failures


def test_mixture_lax_structure_passes():
    functor = mixture_lax_functor(["x", "y"])
    rng = random.Random(31)
    samples = []
    for _ in range(6):
        n = rng.randint(1, 2)
        inner = [_grid_op(rng, rng.randint(1, 2)) for _ in range(n)]
        blocks = tuple(tuple("*" for _ in range(op.arity)) for op in inner)
        elems = tuple(
            tuple(_random_el(rng, functor.fibre("*")) for _ in block)
            for block in blocks
        )
        samples.append(LaxInstance(_grid_op(rng, n), tuple(inner), blocks, elems))
    failures = check_lax(functor, samples, unit_objects=["*"])
    assert not failures, failures


def test_corrupted_xi_is_reported():
    functor = mixture_lax_functor(["x", "y"])
    good_xi = functor.xi

    def bad_xi(op, objs):
        # Corrupt the binary components only: the arity-3 composite of the
        # square below stays honest, so the two paths disagree.
        if len(objs) == 2:
            return good_xi(QConvOp(tuple(reversed(op.weights))), objs)
        return good_xi(op, objs)

    broken = LaxOMonFunctor(functor.source, functor.functor, bad_xi)
    pres = functor.fibre("*")
    inst = LaxInstance(
        QConvOp([F(1, 4), F(3, 4)]),
        (QConvOp([F(1)]), QConvOp([F(1, 3), F(2, 3)])),
        (("*",), ("*", "*")),
        (
            (pres.delta("x"),),
            (pres.delta("y"), pres.delta("x")),
        ),
    )
    assert check_lax(broken, [inst])


def test_check_lax_transports_through_base_coherence():
    # A deliberately non-strict base: pairwise tensors land on object P,
    # triple tensors on the isomorphic object Q; the compatibility square
    # only closes through F of the coherence iso u: Q -> P.
    from convexion.category import CSetFunctor, FiniteCategory, Morphism
    from convexion.omonoidal import nfold_tensor
    from convexion.presentation import ConvexMap

    pres = Presentation.free(["x", "y"])
    ms = [
        Morphism("idP", "P", "P"),
        Morphism("idQ", "Q", "Q"),
        Morphism("u", "Q", "P"),
        Morphism("v", "P", "Q"),
    ]
    table = {
        ("idP", "idP"): "idP",
        ("idQ", "idQ"): "idQ",
        ("u", "idQ"): "u",
        ("idP", "u"): "u",
        ("v", "idP"): "v",
        ("idQ", "v"): "v",
        ("u", "v"): "idP",
        ("v", "u"): "idQ",
    }
    base = FiniteCategory(("P", "Q"), ms, {"P": "idP", "Q": "idQ"}, table)

    def tensor_obj(op, objs):
        return "P" if len(objs) == 2 else "Q"

    def coherence(sigma, z, xs, blocks):
        return "u"  # the iso from the flat composite's object to the nested one

    omon = OMonCategory(QCONV, base, tensor_obj, coherence=coherence)
    functor = CSetFunctor(
        base,
        {"P": pres, "Q": pres},
        {
            "idP": ConvexMap.identity(pres),
            "idQ": ConvexMap.identity(pres),
            "u": ConvexMap.identity(pres),
            "v": ConvexMap.identity(pres),
        },
    )

    def xi(op, objs):
        if len(objs) == 1:
            return ConvexMap.identity(pres)
        src = nfold_tensor([pres] * len(objs))
        assignment = {}
        for combo in src.generators:
            weights = {}
            for w, g in zip(op.weights, combo):
                if w != 0:
                    weights[g] = weights.get(g, F(0)) + w
            assignment[combo] = pres.element(FiniteDistribution(weights))
        return ConvexMap(src, pres, assignment)

    lax = LaxOMonFunctor(omon, functor, xi)
    inst = LaxInstance(
        QConvOp([F(1, 2), F(1, 2)]),
        (QConvOp([F(1)]), QConvOp([F(1, 3), F(2, 3)])),
        (("P",), ("P", "P")),
        ((pres.delta("x"),), (pres.delta("y"), pres.delta("x"))),
    )
    failures = check_lax(lax, [inst])
    assert not failures, failures
    # without the coherence the same square is (correctly) rejected
    strict = LaxOMonFunctor(OMonCategory(QCONV, base, tensor_obj), lax.functor, lax.xi)
    assert check_lax(strict, [inst])


def test_permutation_squares_for_mixture():
    # One shared carrier: the base tensor is strictly symmetric, so the
    # square holds with the identity relabelling.
    functor = mixture_lax_functor(["x", "y"])
    rng = random.Random(41)
    for _ in range(6):
        op = _grid_op(rng, 2)
        objs = ("*", "*")
        elems = [_random_el(rng, functor.fibre(o)) for o in objs]
        assert permutation_square_holds(functor, op, (1, 0), objs, elems)


def test_permutation_squares_for_dist_through_braiding():
    # Disjoint unions: the square holds through the block-shuffle
    # relabelling of the union carrier (the base braiding's action).
    from convexion.presentation import ConvexMap

    functor = dist_lax_functor(6)
    rng = random.Random(41)
    for _ in range(6):
        op = _grid_op(rng, 2)
        objs = ("S1", "S2")
        sizes = [1, 2]
        target = functor.fibre("S3")
        # braid S1 + S2 -> S2 + S1: e0 -> e2, e1 -> e0, e2 -> e1
        shuffle = {"e0": "e2", "e1": "e0", "e2": "e1"}
        braiding = ConvexMap(
            target, target, {g: target.delta(shuffle[g]) for g in target.generators}
        )
        elems = [_random_el(rng, functor.fibre(o)) for o in objs]
        assert permutation_square_holds(
            functor, op, (1, 0), objs, elems, target_iso=braiding
        )


# -- o_grothendieck ----------------------------------------------------------------------


def test_degenerate_one_object_identity():
    pres = Presentation.free(["p", "q"])
    fib = o_grothendieck(identity_lax_functor(pres))
    e = rd(pres, {"p": "1/3", "q": "2/3"})
    obj, val = fib.total_op(TRIVIAL.unit(), [("*", e)])
    assert obj == "*" and val == e


def test_total_ops_strict_and_fibrewise_convex():
    functor = dist_lax_functor(6)
    fib = o_grothendieck(functor)
    rng = random.Random(43)
    for _ in range(8):
        n = rng.randint(1, 3)
        op = _grid_op(rng, n)
        objs = [f"S{rng.randint(1, 2)}" for _ in range(n)]
        pairs = [(o, _random_el(rng, functor.fibre(o))) for o in objs]
        assert fib.strictness_holds(op, pairs)
        slot = rng.randrange(n)
        variants = [
            _random_el(rng, functor.fibre(objs[slot])) for _ in range(2)
        ]
        assert fib.nconvex_in_slot(
            op, pairs, slot, [F(1, 3), F(2, 3)], variants
        )


def test_mixture_total_op_is_the_mixture():
    functor = mixture_lax_functor(["x", "y"])
    fib = o_grothendieck(functor)
    pres = functor.fibre("*")
    op = QConvOp([F(1, 2), F(1, 2)])
    e1, e2 = pres.delta("x"), pres.delta("y")
    _, val = fib.total_op(op, [("*", e1), ("*", e2)])
    assert val == quotient_mix([F(1, 2), F(1, 2)], [e1, e2])


def test_functor_recovery():
    functor = dist_lax_functor(4)
    fib = o_grothendieck(functor)
    assert fib.recovers_functor(QConvOp([F(1, 4), F(3, 4)]), ("S1", "S2"))
    assert fib.recovers_functor(QCONV.unit(), ("S2",))
    mix = mixture_lax_functor(["x", "y", "z"])
    fib2 = o_grothendieck(mix)
    assert fib2.recovers_functor(
        QConvOp([F(1, 3), F(1, 3), F(1, 3)]), ("*", "*", "*")
    )


def test_comm_specializes_to_monoidal_construction():
    # With the commutative operad the total operation is parameter-free and
    # matches the qconv structure at uniform weights.
    functor_c = mixture_lax_functor(["x", "y"], operad=COMM)
    fib_c = o_grothendieck(functor_c)
    functor_q = mixture_lax_functor(["x", "y"], operad=QCONV)
    fib_q = o_grothendieck(functor_q)
    pres = functor_c.fibre("*")
    e1, e2 = pres.delta("x"), pres.delta("y")
    _, val_c = fib_c.total_op(comm_op(2), [("*", e1), ("*", e2)])
    _, val_q = fib_q.total_op(
        QConvOp([F(1, 2), F(1, 2)]), [("*", e1), ("*", e2)]
    )
    assert val_c == val_q


def test_wrong_signature_xi_rejected():
    from convexion.errors import NotConvexStructureMap
    from convexion.presentation import ConvexMap

    functor = mixture_lax_functor(["x", "y"])
    other = Presentation.free(["q"])
    broken = LaxOMonFunctor(
        functor.source, functor.functor, lambda op, objs: ConvexMap.identity(other)
    )
    with pytest.raises(NotConvexStructureMap):
        broken.xi_map(QConvOp([F(1, 2), F(1, 2)]), ("*", "*"))


def test_o_grothendieck_rejects_broken_strictness():
    functor = mixture_lax_functor(["x", "y"])
    base = functor.source

    def bad_tensor(op, objs):
        return "**"  # not an object

    broken_base = OMonCategory(base.operad, base.base, bad_tensor)
    broken = LaxOMonFunctor(broken_base, functor.functor, functor.xi)
    pres = functor.fibre("*")
    pairs = [("*", pres.delta("x")), ("*", pres.delta("y"))]
    # the base tensor lands outside the base's objects: False, not KeyError
    assert o_grothendieck(broken).strictness_holds(QConvOp([F(1, 2), F(1, 2)]), pairs) is False
    assert o_grothendieck(functor).strictness_holds(QConvOp([F(1, 2), F(1, 2)]), pairs) is True
