#!/usr/bin/env python3
"""Simplicial distributions on twisted bundles over the circle.

The twisted product shifts the zeroth face by a twisting function.  On a
circle with Z/2 coefficients there are exactly two twists; the twisted one
has no deterministic section -- only the uniform distribution lives on it,
while the untwisted bundle carries honest sections.  The bundle tensor adds
twists and multiplies distributions, grading a monoid over the twisting
functions.
"""

from fractions import Fraction as F

from convexion.simplicial import (
    AbGroup,
    SimplicialAbGroup,
    TwistingFunction,
    bundle_iso_valid,
    bundle_tensor,
    check_simplicial_distribution,
    enumerate_sections,
    enumerate_twists,
    mix_sdist,
    mu_product,
    section_sdist,
    standard_circle,
    twist_addition_iso,
    twist_monoid_structure,
    twisted_product,
    uniform_sdist,
)

circle = standard_circle(2)
z2 = SimplicialAbGroup.constant(AbGroup.cyclic(2), 2)
print("base:", circle)

twists = enumerate_twists(circle, z2)
print("twisting functions on the circle with Z/2:", len(twists))
flat, twisted = sorted(twists, key=lambda t: t.value(1, "e"))
print("  flat twist sends the edge to", flat.value(1, "e"),
      "| twisted sends it to", twisted.value(1, "e"))

print()
print("== sections: the twisted bundle is contextual ==")
b_flat = twisted_product(z2, flat, circle)
b_twisted = twisted_product(z2, twisted, circle)
print("sections of the flat bundle:    ", len(enumerate_sections(b_flat)))
print("sections of the twisted bundle: ", len(enumerate_sections(b_twisted)))
uniform = uniform_sdist(b_twisted)
print("the uniform family is still a simplicial distribution:",
      check_simplicial_distribution(uniform, b_twisted) == [])

print()
print("== distributions mix; products descend to the bundle tensor ==")
s0, s1 = enumerate_sections(b_flat)
p = mix_sdist([F(1, 3), F(2, 3)], [section_sdist(b_flat, s0), section_sdist(b_flat, s1)])
print("a (1/3, 2/3) mixture of the two sections is valid:",
      check_simplicial_distribution(p, b_flat) == [])
product = mu_product(p, uniform)
print("mu(p, uniform-on-twisted) is valid on the tensor bundle:",
      check_simplicial_distribution(product, product.bundle) == [])

print()
print("== the tensor adds twists ==")
tensored = bundle_tensor(b_twisted, b_twisted)
target = twisted_product(z2, twisted + twisted, circle)
iso = twist_addition_iso(tensored, target)
print("twisted (x) twisted is the flat bundle:", bundle_iso_valid(tensored, target, iso))

print()
print("== the graded monoid over the twisting functions ==")
monoid = twist_monoid_structure(circle, z2)
unit = monoid.unit_element()
graded = (twisted, uniform)
out_twist, out_dist = monoid.multiply(graded, unit)
print("(twisted, uniform) * unit keeps its grade:", out_twist == twisted)
print("and its distribution:",
      all(out_dist.at(n, x) == uniform.at(n, x)
          for n in out_dist.levels for x in out_dist.levels[n]))
gr2 = monoid.multiply(graded, graded)
print("(twisted, uniform)^2 lands over the flat twist:", gr2[0] == flat)
