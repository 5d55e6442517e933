"""The convex tensor product of presented convex sets.

The tensor of factors X_1, ..., X_n is presented on generator tuples
G_1 x ... x G_n; its relations are the factor relations lifted one slot at
a time (vary slot i through a relation pair, freeze generators elsewhere).
Representatives are kept in pure-tensor-expanded position: the image of
(x_1, ..., x_n) is the product-weight distribution on tuples, under which
single-slot mixing identities on non-generator elements follow from the
lifted relations (validated against a brute-force oracle in the tests, not
assumed).

The tensor corepresents n-convex maps: a value table on generator tuples
extends to a convex map out of the tensor exactly when it respects the
lifted relations, and restricting along the universal (pure-tensor) map
inverts the extension.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .distribution import FiniteDistribution, product, pushforward
from .errors import (
    ArityMismatch,
    CompositionNotBiconvex,
    EmptyFactorList,
    FactorMismatch,
    InvalidInput,
    RelationViolated,
)
from .presentation import (
    ConvexMap,
    PresentedElement,
    Presentation,
    induce_map,
    maps_agree,
    quotient_mix,
)
from .record import Frozen

#: Presentation of the one-point convex set (monoidal unit).
UNIT = Presentation.free(("*",))

#: The most generators, prod_i |G_i|, and lifted relations,
#: sum_i |R_i| prod_(j != i) |G_j|, that a tensor is built with.
MAX_TENSOR_GENERATORS = 1 << 12
MAX_TENSOR_RELATIONS = 1 << 14


class TensorPresentation(Presentation):
    """A presentation remembering its tensor factors."""

    def __init__(self, factors, generators, relations):
        super().__init__(generators, relations)
        self.factors = tuple(factors)


def tensor(factors: Sequence[Presentation]) -> TensorPresentation:
    """Tensor product presentation of the given factors."""
    if not factors:
        raise EmptyFactorList("tensor needs at least one factor")
    return _tensor_cached(tuple(factors))


@lru_cache(maxsize=512)
def _tensor_cached(factors: tuple) -> TensorPresentation:
    """The tensor of factors; InvalidInput, raised before anything is
    built, when it is over MAX_TENSOR_GENERATORS or MAX_TENSOR_RELATIONS."""
    sizes = [len(f.generators) for f in factors]
    count = math.prod(sizes)
    if count > MAX_TENSOR_GENERATORS:
        raise InvalidInput(
            f"a tensor of {count} generators exceeds the budget of {MAX_TENSOR_GENERATORS}"
        )
    lifted = sum(len(f.relations) * count // size for f, size in zip(factors, sizes))
    if lifted > MAX_TENSOR_RELATIONS:
        raise InvalidInput(
            f"a tensor of {lifted} lifted relations exceeds the budget of {MAX_TENSOR_RELATIONS}"
        )
    gen_lists = [f.generators for f in factors]
    generators = [tuple(t) for t in itertools.product(*gen_lists)]
    relations = []
    for i, factor in enumerate(factors):
        others = gen_lists[:i] + gen_lists[i + 1 :]
        for lhs, rhs in factor.relations:
            for fixed in itertools.product(*others):
                relations.append((_lift(lhs, i, fixed), _lift(rhs, i, fixed)))
    return TensorPresentation(factors, generators, relations)


def _lift(dist: FiniteDistribution, slot: int, fixed: tuple) -> FiniteDistribution:
    return pushforward(lambda g: fixed[:slot] + (g,) + fixed[slot:], dist)


def universal_map(
    factors: Sequence[Presentation], xs: Sequence[PresentedElement]
) -> PresentedElement:
    """Pure-tensor expansion of a tuple of factor elements: the product
    measure (distribution.product) of the factor representatives."""
    factors = tuple(factors)
    if len(factors) != len(xs):
        raise FactorMismatch(f"{len(xs)} elements for {len(factors)} factors")
    for x, factor in zip(xs, factors):
        if not isinstance(x, PresentedElement) or x.presentation != factor:
            raise FactorMismatch("element does not belong to its factor")
    return PresentedElement(tensor(factors), product([x.rep for x in xs]))


def pure_tensor(xs: Sequence[PresentedElement]) -> PresentedElement:
    return universal_map([x.presentation for x in xs], xs)


class NConvexMapSpec:
    """A value table on generator tuples, the data of an n-convex map."""

    __slots__ = ("factors", "target", "table")

    def __init__(self, factors: tuple, target: Presentation, table: dict):
        # table: generator tuple -> PresentedElement of target
        self.factors = tuple(factors)
        self.target = target
        self.table = table
        expected = set(
            itertools.product(*(f.generators for f in self.factors))
        )
        got = set(self.table)
        if got != expected:
            raise FactorMismatch(
                "value table is not total on the generator tuples "
                f"(missing {len(expected - got)}, extra {len(got - expected)})"
            )
        for v in self.table.values():
            if not isinstance(v, PresentedElement) or v.presentation != self.target:
                raise FactorMismatch("table value is not an element of the target")


def extend_multiconvex(spec: NConvexMapSpec) -> ConvexMap:
    """The convex map out of the tensor induced by a value table; raises
    RelationViolated when a lifted relation's images are not equal."""
    tp = tensor(spec.factors)
    return induce_map(tp, spec.target, dict(spec.table))


def restrict_multiconvex(f: ConvexMap) -> NConvexMapSpec:
    """Restriction along the universal map: read the value table back off."""
    tp = f.src
    if not isinstance(tp, TensorPresentation):
        raise FactorMismatch("map source is not a tensor presentation")
    return NConvexMapSpec(
        tp.factors, f.tgt, {g: f.on_generator(g) for g in tp.generators}
    )


def tensor_map(fs: Sequence[ConvexMap]) -> ConvexMap:
    """Functoriality: f_1 (x) ... (x) f_n between tensor presentations."""
    if not fs:
        raise EmptyFactorList("tensor of zero maps")
    src = tensor([f.src for f in fs])
    tgts = [f.tgt for f in fs]
    assignment = {
        g: universal_map(tgts, [f(f.src.delta(gi)) for f, gi in zip(fs, g)])
        for g in src.generators
    }
    return ConvexMap(src, tensor(tgts), assignment)


# -- symmetric monoidal coherences -------------------------------------------


class Iso(Frozen):
    __slots__ = _fields = ("fwd", "back")

    def __init__(self, fwd: ConvexMap, back: ConvexMap):
        self._set(fwd, back)


def _delta_map(src: Presentation, tgt: Presentation, gen_map) -> ConvexMap:
    return ConvexMap(src, tgt, {g: tgt.delta(gen_map(g)) for g in src.generators})


def coherence(kind: str, factors: Sequence[Presentation]) -> Iso:
    """Coherence isomorphism of the named kind, with its two-sided inverse.

    associator: A (x) (B (x) C)  ->  (A (x) B) (x) C
    left_unitor: 1 (x) X -> X;  right_unitor: X (x) 1 -> X
    braiding: A (x) B -> B (x) A
    """
    factors = tuple(factors)
    if kind == "associator":
        if len(factors) != 3:
            raise ArityMismatch("associator takes three factors")
        a, b, c = factors
        src = tensor([a, tensor([b, c])])
        dst = tensor([tensor([a, b]), c])
        fwd = _delta_map(src, dst, lambda g: ((g[0], g[1][0]), g[1][1]))
        back = _delta_map(dst, src, lambda g: (g[0][0], (g[0][1], g[1])))
        return Iso(fwd, back)
    if kind == "left_unitor":
        if len(factors) != 1:
            raise ArityMismatch("left_unitor takes one factor")
        (x,) = factors
        src = tensor([UNIT, x])
        fwd = _delta_map(src, x, lambda g: g[1])
        back = _delta_map(x, src, lambda g: ("*", g))
        return Iso(fwd, back)
    if kind == "right_unitor":
        if len(factors) != 1:
            raise ArityMismatch("right_unitor takes one factor")
        (x,) = factors
        src = tensor([x, UNIT])
        fwd = _delta_map(src, x, lambda g: g[0])
        back = _delta_map(x, src, lambda g: (g, "*"))
        return Iso(fwd, back)
    if kind == "braiding":
        if len(factors) != 2:
            raise ArityMismatch("braiding takes two factors")
        a, b = factors
        src, dst = tensor([a, b]), tensor([b, a])
        fwd = _delta_map(src, dst, lambda g: (g[1], g[0]))
        back = _delta_map(dst, src, lambda g: (g[1], g[0]))
        return Iso(fwd, back)
    raise ArityMismatch(f"unknown coherence kind {kind!r}")


def coherence_diagrams(a, b, c, d) -> dict:
    """The seven diagram checks (pentagon, triangle, two hexagons, braiding
    involution, two unitor compatibilities), each on every generator tuple."""
    results = {}
    assoc = lambda x, y, z: coherence("associator", (x, y, z))
    braid = lambda x, y: coherence("braiding", (x, y))
    agree = lambda f, g: maps_agree(f, g, [f.src.delta(x) for x in f.src.generators])

    # pentagon on (a, b, c, d)
    p1 = assoc(tensor([a, b]), c, d).fwd.compose(assoc(a, b, tensor([c, d])).fwd)
    p2 = tensor_map([assoc(a, b, c).fwd, ConvexMap.identity(d)]).compose(
        assoc(a, tensor([b, c]), d).fwd.compose(
            tensor_map([ConvexMap.identity(a), assoc(b, c, d).fwd])
        )
    )
    results["pentagon"] = agree(p1, p2)

    # triangle on (a, b)
    t1 = tensor_map([coherence("right_unitor", (a,)).fwd, ConvexMap.identity(b)]).compose(
        assoc(a, UNIT, b).fwd
    )
    t2 = tensor_map([ConvexMap.identity(a), coherence("left_unitor", (b,)).fwd])
    results["triangle"] = agree(t1, t2)

    # hexagon 1: (a (x) b) (x) c -> b (x) (c (x) a) ... standard shape
    h1_left = assoc(b, c, a).back.compose(
        braid(a, tensor([b, c])).fwd.compose(assoc(a, b, c).back)
    )
    h1_right = tensor_map([ConvexMap.identity(b), braid(a, c).fwd]).compose(
        assoc(b, a, c).back.compose(
            tensor_map([braid(a, b).fwd, ConvexMap.identity(c)])
        )
    )
    results["hexagon_1"] = agree(h1_left, h1_right)

    # hexagon 2: a (x) (b (x) c) -> (c (x) a) (x) b
    h2_left = assoc(c, a, b).fwd.compose(
        braid(tensor([a, b]), c).fwd.compose(assoc(a, b, c).fwd)
    )
    h2_right = tensor_map([braid(a, c).fwd, ConvexMap.identity(b)]).compose(
        assoc(a, c, b).fwd.compose(
            tensor_map([ConvexMap.identity(a), braid(b, c).fwd])
        )
    )
    results["hexagon_2"] = agree(h2_left, h2_right)

    # braiding is an involution
    inv = braid(b, a).fwd.compose(braid(a, b).fwd)
    results["braiding_involution"] = agree(inv, ConvexMap.identity(tensor([a, b])))

    # unitors against the braiding: r_a = l_a . s_{a,1}
    ub = coherence("left_unitor", (a,)).fwd.compose(braid(a, UNIT).fwd)
    results["unitor_braiding"] = agree(ub, coherence("right_unitor", (a,)).fwd)

    # the two unitors agree on the unit object
    results["unit_unitors_agree"] = agree(
        coherence("left_unitor", (UNIT,)).fwd,
        coherence("right_unitor", (UNIT,)).fwd,
    )
    return results


# -- the biconvex-but-not-convex composition ---------------------------------


class CounterexampleReport(Frozen):
    __slots__ = _fields = ("biconvex_value", "convex_hypothesis_value", "unequal", "value_note")

    def __init__(
        self,
        biconvex_value: FiniteDistribution,
        convex_hypothesis_value: FiniteDistribution,
        unequal: bool,
        value_note: str,
    ):
        self._set(biconvex_value, convex_hypothesis_value, unequal, value_note)


def check_biconvex_not_convex_counterexample() -> CounterexampleReport:
    """Composition of mixed endomorphisms is biconvex but not convex.

    On X free over {0,1} and Y free over {0,1,2,3}: g0 = id, g1 = the swap,
    f0 = the inclusion, f1 = the shift into {2,3}.  The biconvex composite
    of the (1/2,1/2) mixtures sends delta_0 to the uniform distribution on
    four atoms; if composition were convex it would instead send delta_0 to
    (1/2)(f0.g0) + (1/2)(f1.g1) at delta_0, and the two values differ.
    """
    x = Presentation.free(["0", "1"])
    y = Presentation.free(["0", "1", "2", "3"])
    g0 = ConvexMap.identity(x)
    g1 = induce_map(x, x, {"0": x.delta("1"), "1": x.delta("0")})
    f0 = induce_map(x, y, {"0": y.delta("0"), "1": y.delta("1")})
    f1 = induce_map(x, y, {"0": y.delta("2"), "1": y.delta("3")})

    from .presentation import hom_combine  # local to avoid cycle noise

    half = [Fraction(1, 2)] * 2
    mixed_f = hom_combine(half, [f0, f1])
    mixed_g = hom_combine(half, [g0, g1])
    biconvex_value = mixed_f(mixed_g(x.delta("0"))).rep

    convex_hypothesis = quotient_mix(
        half, [f0.compose(g0)(x.delta("0")), f1.compose(g1)(x.delta("0"))]
    ).rep

    return CounterexampleReport(
        biconvex_value=biconvex_value,
        convex_hypothesis_value=convex_hypothesis,
        unequal=biconvex_value != convex_hypothesis,
        value_note=(
            "the convex-hypothesis composite at delta_0 is (1/2)d0 + (1/2)d3 "
            "by the defining assignments (f0.g0 fixes delta_0); a transcribed "
            "value (1/2)d1 + (1/2)d3 is also in circulation -- the inequality "
            "with the biconvex value holds either way"
        ),
    )


# -- enriched categories vs biconvex composition ------------------------------


class BiconvexCategory:
    """Finite object set, presented hom-objects, identity elements, and
    biconvex composition given by value tables on generator pairs.

    composition[(a, b, c)] maps (g2, g1) -- g2 a generator of hom(b, c),
    g1 of hom(a, b) -- to the composite element of hom(a, c).
    """

    __slots__ = ("objects", "hom", "identities", "composition")

    def __init__(self, objects: tuple, hom: Mapping, identities: Mapping, composition: Mapping):
        self.objects = objects
        self.hom = hom
        self.identities = identities
        self.composition = composition

    def compose_elements(self, a, b, c, g2: PresentedElement, g1: PresentedElement):
        """Biconvex extension of the table to arbitrary hom elements."""
        table = self.composition[(a, b, c)]
        pairs = product([g2.rep, g1.rep]).items()
        return quotient_mix([w for _, w in pairs], [table[k] for k, _ in pairs])


class EnrichedCategoryData:
    """Same skeleton, with composition as convex maps out of the tensor
    hom(b, c) (x) hom(a, b)."""

    __slots__ = ("objects", "hom", "identities", "composition_maps")

    def __init__(
        self,
        objects: tuple,
        hom: Mapping,
        identities: Mapping,
        composition_maps: Mapping,  # (a, b, c) -> ConvexMap
    ):
        self.objects = objects
        self.hom = hom
        self.identities = identities
        self.composition_maps = composition_maps


def enriched_bridge(cat: BiconvexCategory) -> EnrichedCategoryData:
    """Package each biconvex composition table as a convex map out of the
    tensor of hom-objects; fails if a table is not biconvex on the quotients."""
    comp_maps = {}
    for (a, b, c), table in cat.composition.items():
        spec = NConvexMapSpec(
            (cat.hom[(b, c)], cat.hom[(a, b)]), cat.hom[(a, c)], dict(table)
        )
        try:
            comp_maps[(a, b, c)] = extend_multiconvex(spec)
        except RelationViolated as exc:
            raise CompositionNotBiconvex(
                f"composition table for {(a, b, c)} does not descend: {exc}"
            ) from exc
    return EnrichedCategoryData(
        cat.objects, dict(cat.hom), dict(cat.identities), comp_maps
    )


def enriched_inverse(data: EnrichedCategoryData) -> BiconvexCategory:
    """Recover the biconvex tables by restriction along the universal map."""
    composition = {}
    for key, cmap in data.composition_maps.items():
        composition[key] = {
            g: cmap.on_generator(g) for g in cmap.src.generators
        }
    return BiconvexCategory(
        data.objects, dict(data.hom), dict(data.identities), composition
    )
