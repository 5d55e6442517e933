#!/usr/bin/env python3
"""Finite probability spaces and the characterization of information loss:
additive under composition, affine under mixtures, continuous -- and then
any such functional is a scalar multiple of the entropy drop.
"""

import ast
import math
from fractions import Fraction as F

from convexion.finprob import (
    ProbMorphism,
    ProbObject,
    binary_entropy,
    convex_combine_morphisms,
    convex_combine_objects,
    generate_corpus,
    info_loss,
    shannon_entropy,
    verify_entropy_axioms,
)

print("== entropy basics (nats) ==")
uniform2 = ProbObject(["a", "b"], {"a": F(1, 2), "b": F(1, 2)})
uniform4 = ProbObject(list("wxyz"), {c: F(1, 4) for c in "wxyz"})
print("H(uniform-2) =", shannon_entropy(uniform2), " (ln 2 =", math.log(2), ")")
print("H(uniform-4) =", shannon_entropy(uniform4))

collapse = ProbMorphism.from_map(uniform2, {"a": "p", "b": "p"})
print("info_loss(collapse uniform-2) =", info_loss(collapse))

print()
print("== the grouping identity behind the convexity condition ==")
point = ProbObject(["z"], {"z": F(1)})
lam = F(1, 2)
mixed = convex_combine_objects(lam, uniform2, point)
print("H((1/2)(uniform-2) (+) (1/2)(point)) =", shannon_entropy(mixed))
print("lam*H + (1-lam)*H + h(lam)          =",
      0.5 * shannon_entropy(uniform2) + binary_entropy(lam))

print()
print("== mixtures of morphisms ==")
f = ProbMorphism.identity(uniform2)
g = collapse
half = convex_combine_morphisms(F(1, 2), f, g)
print("info_loss((f+g)/2) =", info_loss(half))
print("average of losses  =", 0.5 * info_loss(f) + 0.5 * info_loss(g))

print()
print("== verifying the axioms on a seeded corpus ==")
corpus = generate_corpus(seed=42, n_chains=60, max_carrier=12)
report = verify_entropy_axioms(info_loss, corpus)
print("info_loss:  composition additivity:", report["composition"]["passed"],
      "| convexity:", report["convexity"]["passed"],
      "| continuity:", report["continuity"]["passed"])
print("  fitted scalar c =", report["fitted_c"], "| max residual =", report["max_residual"])

doubled = verify_entropy_axioms(lambda m: 2 * info_loss(m), corpus)
print("2*info_loss passes with c =", doubled["fitted_c"])

# each failure is written as the repr of its witness (chain, lhs, rhs)
squared = verify_entropy_axioms(lambda m: info_loss(m) ** 2, corpus)
print("info_loss^2 fails additivity:", not squared["composition"]["passed"],
      "| first witnessed chain:", ast.literal_eval(squared["composition"]["failures"][0])[0])
