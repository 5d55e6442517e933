#!/usr/bin/env python3
"""Three Grothendieck constructions: classical (set-valued), fibrewise
convex (convex-set-valued, lazy total category), and operad-indexed
monoidal (lax structure maps on the fibres).
"""

import random
from fractions import Fraction as F

from convexion import Presentation
from convexion.category import (
    CSetFunctor,
    SetFunctor,
    check_fibrewise_equations,
    convex_grothendieck,
    extract_functor,
    grothendieck,
    is_discrete_fibration,
    natural_iso_components,
    walking_arrow,
)
from convexion.distribution import FiniteDistribution
from convexion.matprop import QConvOp
from convexion.omonoidal import dist_lax_functor, o_grothendieck
from convexion.presentation import ConvexMap, induce_map

print("== classical construction over the walking arrow ==")
base = walking_arrow()
functor = SetFunctor(
    base,
    {"0": ("a", "b"), "1": ("c",)},
    {"id0": {"a": "a", "b": "b"}, "id1": {"c": "c"}, "f": {"a": "c", "b": "c"}},
)
fib = grothendieck(functor)
print("total objects:   ", fib.total.objects)
print("discrete fibration:", is_discrete_fibration(fib))
back = extract_functor(fib)
print("extraction round-trips (natural iso found):",
      natural_iso_components(back, functor) is not None)

print()
print("== convex fibres: the total category is lazy ==")
p0 = Presentation.free(["x", "y"])
p1 = Presentation.free(["u", "v"])
fmap = induce_map(p0, p1, {
    "x": p1.delta("u"),
    "y": p1.element(FiniteDistribution({"u": F(1, 2), "v": F(1, 2)})),
})
cfunctor = CSetFunctor(
    base,
    {"0": p0, "1": p1},
    {"id0": ConvexMap.identity(p0), "id1": ConvexMap.identity(p1), "f": fmap},
)
cfib = convex_grothendieck(cfunctor)
e = p0.element(FiniteDistribution({"x": F(1, 4), "y": F(3, 4)}))
pair = cfib.lift("f", e)
print("lift of f at (x/4 + 3y/4):", pair.source.rep, "->", pair.target.rep)
samples = [("f", [F(1, 2), F(1, 2)], [p0.delta("x"), p0.delta("y")])]
print("fibrewise s/t/Id equations hold:",
      check_fibrewise_equations(cfib, samples) == [])

print()
print("== operad-indexed totals: distributions over disjoint unions ==")
lax = dist_lax_functor(max_size=6)
total = o_grothendieck(lax)
rng = random.Random(5)
op = QConvOp([F(1, 4), F(3, 4)])
s1 = lax.fibre("S1")
s2 = lax.fibre("S2")
pairs = [
    ("S1", s1.delta("e0")),
    ("S2", s2.element(FiniteDistribution({"e0": F(1, 2), "e1": F(1, 2)}))),
]
obj, value = total.total_op(op, pairs)
print("(S1, delta) (x)_(1/4,3/4) (S2, uniform) lands over", obj)
print("value on the union:", value.rep)
print("projection strict:", total.strictness_holds(op, pairs))
print("slotwise convexity:", total.nconvex_in_slot(
    op, pairs, 1, [F(1, 2), F(1, 2)],
    [s2.delta("e0"), s2.delta("e1")],
))
print("structure maps recovered from the total:", total.recovers_functor(op, ("S1", "S2")))
