"""Convex tensor product: construction, universal property, coherences,
the biconvex-not-convex composition, and the enriched-category bridge."""

import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from test_linalg import recorded_pivots, scaled_zigzag_lp

from convexion import linalg, presentation
from convexion import tensor as tensor_module
from convexion.distribution import FiniteDistribution, delta
from convexion.errors import (
    ArityMismatch,
    CompositionNotBiconvex,
    EmptyFactorList,
    FactorMismatch,
    InvalidInput,
    RelationViolated,
)
from convexion.presentation import (
    ConvexMap,
    Presentation,
    eq,
    induce_map,
    quotient_mix,
    verify_verdict,
)
from convexion.tensor import (
    UNIT,
    BiconvexCategory,
    NConvexMapSpec,
    check_biconvex_not_convex_counterexample,
    coherence,
    coherence_diagrams,
    enriched_bridge,
    enriched_inverse,
    extend_multiconvex,
    restrict_multiconvex,
    tensor,
    tensor_map,
    universal_map,
)

F = Fraction
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
)

AB = Presentation.free(["a", "b"])
C = Presentation.free(["c"])
CD = Presentation.free(["c", "d"])
GLUE = Presentation(["a", "b"], [(delta("a"), delta("b"))])


def rd(pres, mapping):
    return pres.element(
        FiniteDistribution({k: F(str(v)) for k, v in mapping.items()})
    )


def random_element(rng, pres, max_w=3):
    weights = [rng.randint(0, max_w) for _ in pres.generators]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return pres.element(
        FiniteDistribution(
            {g: F(w, total) for g, w in zip(pres.generators, weights) if w}
        )
    )


# -- construction -------------------------------------------------------------


def test_tensor_of_frees_is_free_on_product():
    tp = tensor([AB, C])
    assert set(tp.generators) == {("a", "c"), ("b", "c")}
    assert tp.relations == ()


def test_tensor_single_factor_is_relabelled_copy():
    tp = tensor([AB])
    assert set(tp.generators) == {("a",), ("b",)}
    assert tp.relations == ()


def test_tensor_lifts_factor_relations_per_fixed_tuple():
    tp = tensor([GLUE, CD])
    assert len(tp.relations) == 2  # one lifted pair per generator of CD
    lifted = {tuple(sorted(l.support() | r.support())) for l, r in tp.relations}
    assert lifted == {
        (("a", "c"), ("b", "c")),
        (("a", "d"), ("b", "d")),
    }


def test_tensor_empty_factor_list():
    with pytest.raises(EmptyFactorList):
        tensor([])


def test_free_tensor_eq_bound_zero_decides():
    tp = tensor([AB, CD])
    assert len(tp.generators) == 4
    e1 = rd(tp, {("a", "c"): "1/2", ("b", "d"): "1/2"})
    e2 = rd(tp, {("a", "d"): "1/2", ("b", "c"): "1/2"})
    assert eq(e1, e1, 0).is_equal
    assert eq(e1, e2, 0).is_distinct


# -- universal map ------------------------------------------------------------


def test_universal_map_on_deltas():
    got = universal_map([AB, C], [AB.delta("a"), C.delta("c")])
    assert got.rep == delta(("a", "c"))


def test_universal_map_half_mix():
    got = universal_map(
        [AB, C], [rd(AB, {"a": "1/2", "b": "1/2"}), C.delta("c")]
    )
    assert got.rep == FiniteDistribution(
        {("a", "c"): F(1, 2), ("b", "c"): F(1, 2)}
    )


def test_universal_map_product_expansion():
    got = universal_map(
        [AB, CD],
        [rd(AB, {"a": "1/2", "b": "1/2"}), rd(CD, {"c": "1/3", "d": "2/3"})],
    )
    assert got.rep == FiniteDistribution(
        {
            ("a", "c"): F(1, 6),
            ("a", "d"): F(1, 3),
            ("b", "c"): F(1, 6),
            ("b", "d"): F(1, 3),
        }
    )


def test_universal_map_factor_mismatch():
    with pytest.raises(FactorMismatch):
        universal_map([AB, C], [C.delta("c"), AB.delta("a")])


def test_universal_map_is_multiconvex_exact_for_free_factors():
    rng = random.Random(3)
    ys = random_element(rng, CD)
    x1, x2 = random_element(rng, AB), random_element(rng, AB)
    alpha = [F(1, 4), F(3, 4)]
    mixed_first = universal_map([AB, CD], [quotient_mix(alpha, [x1, x2]), ys])
    mixed_after = quotient_mix(
        alpha,
        [universal_map([AB, CD], [x1, ys]), universal_map([AB, CD], [x2, ys])],
    )
    assert mixed_first == mixed_after


def test_universal_map_multiconvex_up_to_eq_with_relations():
    rng = random.Random(4)
    ys = random_element(rng, CD)
    x1, x2 = random_element(rng, GLUE), random_element(rng, GLUE)
    alpha = [F(1, 3), F(2, 3)]
    lhs = universal_map([GLUE, CD], [quotient_mix(alpha, [x1, x2]), ys])
    rhs = quotient_mix(
        alpha,
        [universal_map([GLUE, CD], [x1, ys]), universal_map([GLUE, CD], [x2, ys])],
    )
    assert eq(lhs, rhs, 2).is_equal


# The next two instances stalled the phase-1 simplex at bound 4 in the
# chained form of the zig-zag LP: its objective stays flat for more than
# 24 pivots, so it switches from Dantzig pricing to Bland's rule before it
# finds the zig-zag.  The pivot rule fixes the vertex, and so the witness;
# these digests of the repr of the path were recorded from the
# Fraction-tableau simplex.  eq reaches the bound-4 LP on the segment
# cube.  It finds the stall chain at a lower level, whose path
# STALL_EQ_PATH_DIGEST pins; STALL_PATH_DIGEST pins the chained bound-4
# LP (tests/test_linalg.py::dense_zigzag_lp, scaled as the engine scales
# its rows), which keeps Bland's rule covered now that the difference
# form solves the instance in one pivot per level.
SEGMENT_PATH_DIGEST = "9e774392405a49d25a85c07f1b1c02a8b08c09325409ce30034733ad28a6fd8b"
STALL_PATH_DIGEST = "8dd9d5a25864eef811374f4a60bdb02a8d8119f4664e09888fc21ec9e07411b9"
STALL_EQ_PATH_DIGEST = "c165fab9a77df13f08cc3e7cadfb243bcc93504f4954353e99bf9a5d79be4f26"


def path_digest(path):
    return hashlib.sha256(repr(path).encode()).hexdigest()


def test_segment_cube_midpoint_equals_corner_mixture():
    seg = Presentation(
        ["a", "b", "m"], [(delta("m"), FiniteDistribution({"a": F(1, 2), "b": F(1, 2)}))]
    )
    factors = [seg] * 3
    mid = universal_map(factors, [seg.delta("m")] * 3)
    corners = rd(tensor(factors), {g: "1/8" for g in itertools.product("ab", repeat=3)})
    verdict = eq(mid, corners, 4)
    assert verdict.is_equal
    assert verify_verdict(verdict, mid, corners)
    assert path_digest(verdict.path) == SEGMENT_PATH_DIGEST


def test_eq_builds_no_dense_lp_row(monkeypatch):
    # The zig-zag LP's rows come scaled from the presentation's cache, and
    # the echelon form reduces the sparse integer difference rows: from
    # cold, eq scales no dense row at all.
    seg = Presentation(
        ["a", "b", "m"], [(delta("m"), FiniteDistribution({"a": F(1, 2), "b": F(1, 2)}))]
    )
    mid = universal_map([seg] * 3, [seg.delta("m")] * 3)
    corners = rd(mid.presentation, {g: "1/8" for g in itertools.product("ab", repeat=3)})
    assert len(mid.presentation.generators) == 27
    scaled = []
    integer_row = linalg._integer_row
    monkeypatch.setattr(
        linalg, "_integer_row", lambda *args: scaled.append(args) or integer_row(*args)
    )
    assert eq(mid, corners, 4).is_equal
    assert scaled == []


def test_two_step_chain_through_a_stalling_lp(monkeypatch):
    third = F(1, 3)
    a_rel = Presentation(
        ["a", "b", "c"], [(delta("a"), FiniteDistribution({"b": F(1, 2), "c": F(1, 2)}))]
    )
    b_rel = Presentation(
        ["a", "b", "c"],
        [(delta("b"), FiniteDistribution({"a": third, "b": third, "c": third}))],
    )
    factors = [a_rel, b_rel]
    start = universal_map(
        factors, [rd(a_rel, {"a": "1/2", "b": "1/2"}), b_rel.delta("b")]
    )
    end = rd(
        tensor(factors),
        {("a", "b"): "2/9", ("b", "b"): "1/2", ("a", "a"): "5/36", ("a", "c"): "5/36"},
    )
    with monkeypatch.context() as patch, recorded_pivots(monkeypatch) as stalls:
        patch.setattr(presentation, "_zigzag_lp", scaled_zigzag_lp)
        chained = presentation._zigzag_search(start.presentation, start.rep, end.rep, 4)
    longest = run = 0
    for stalled in stalls:
        run = run + 1 if stalled else 0
        longest = max(longest, run)
    assert longest > 24  # so the solver switched to Bland's rule
    assert path_digest(chained) == STALL_PATH_DIGEST
    verdict = eq(start, end, 4)
    assert verdict.is_equal and verdict.bound == 4
    assert verify_verdict(verdict, start, end)
    assert len(verdict.path) <= 2
    assert path_digest(verdict.path) == STALL_EQ_PATH_DIGEST


# -- extension and restriction -------------------------------------------------


def test_projection_table_extends():
    target = AB
    table = {
        t: target.delta(t[0]) for t in itertools.product(AB.generators, C.generators)
    }
    table = { (g1, g2): target.delta(g1) for g1, g2 in itertools.product(AB.generators, C.generators) }
    spec = NConvexMapSpec((AB, C), target, table)
    f = extend_multiconvex(spec)
    e = universal_map([AB, C], [rd(AB, {"a": "1/3", "b": "2/3"}), C.delta("c")])
    assert f(e).rep == FiniteDistribution({"a": F(1, 3), "b": F(2, 3)})


def test_violating_table_raises():
    target = Presentation.free(["x", "y"])
    table = {
        ("a", "c"): target.delta("x"),
        ("b", "c"): target.delta("y"),
        ("a", "d"): target.delta("x"),
        ("b", "d"): target.delta("x"),
    }
    with pytest.raises(RelationViolated):
        extend_multiconvex(NConvexMapSpec((GLUE, CD), target, table))


def test_table_must_be_total():
    with pytest.raises(FactorMismatch):
        NConvexMapSpec((AB, C), AB, {("a", "c"): AB.delta("a")})


def test_composition_table_of_hom_subpresentations_is_accepted():
    # The四 composites of the counterexample maps, as a biconvex table
    # Hf (x) Hg -> Y evaluated at delta_0.
    y = Presentation.free(["0", "1", "2", "3"])
    hf = Presentation.free(["f0", "f1"])
    hg = Presentation.free(["g0", "g1"])
    values = {
        ("f0", "g0"): y.delta("0"),
        ("f0", "g1"): y.delta("1"),
        ("f1", "g0"): y.delta("2"),
        ("f1", "g1"): y.delta("3"),
    }
    comp = extend_multiconvex(NConvexMapSpec((hf, hg), y, values))
    mixed = universal_map(
        [hf, hg],
        [rd(hf, {"f0": "1/2", "f1": "1/2"}), rd(hg, {"g0": "1/2", "g1": "1/2"})],
    )
    assert comp(mixed).rep == FiniteDistribution(
        {"0": F(1, 4), "1": F(1, 4), "2": F(1, 4), "3": F(1, 4)}
    )


def test_restriction_inverts_extension_exact():
    rng = random.Random(9)
    target = Presentation.free(["x", "y", "z"])
    table = {
        t: random_element(rng, target)
        for t in itertools.product(AB.generators, CD.generators)
    }
    spec = NConvexMapSpec((AB, CD), target, table)
    f = extend_multiconvex(spec)
    back = restrict_multiconvex(f)
    assert back.table == table


# -- oracle: the lifted-relation schema presents the right quotient ------------


def test_glued_factor_tensor_matches_marginal_oracle():
    # GLUE is a point, so GLUE (x) CD should be CD: two tuple distributions
    # are equal exactly when their second marginals agree.
    tp = tensor([GLUE, CD])
    rng = random.Random(17)
    agree = disagree = 0
    for _ in range(60):
        p = random_element(rng, tp, max_w=4)
        q = random_element(rng, tp, max_w=4)
        marg = lambda e: {
            g2: sum(
                (e.rep.weight((g1, g2)) for g1 in GLUE.generators), F(0)
            )
            for g2 in CD.generators
        }
        oracle_equal = marg(p) == marg(q)
        verdict = eq(p, q, 2)
        assert not verdict.is_unknown
        assert verdict.is_equal == oracle_equal
        agree += oracle_equal
        disagree += not oracle_equal
    assert agree and disagree  # both branches exercised


# -- coherences ----------------------------------------------------------------


def test_braiding_is_involution_on_samples():
    iso = coherence("braiding", (AB, CD))
    back = coherence("braiding", (CD, AB))
    rng = random.Random(5)
    for _ in range(10):
        e = random_element(rng, tensor([AB, CD]), max_w=4)
        assert back.fwd(iso.fwd(e)) == e


def test_left_unitor_drops_unit_slot():
    iso = coherence("left_unitor", (AB,))
    src = tensor([UNIT, AB])
    assert iso.fwd(src.delta(("*", "a"))) == AB.delta("a")
    assert iso.back(AB.delta("a")) == src.delta(("*", "a"))


def test_associator_two_sided_inverse():
    iso = coherence("associator", (AB, CD, C))
    rng = random.Random(6)
    for _ in range(10):
        e = random_element(rng, iso.fwd.src, max_w=4)
        assert iso.back(iso.fwd(e)) == e
        e2 = random_element(rng, iso.fwd.tgt, max_w=4)
        assert iso.fwd(iso.back(e2)) == e2


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        coherence("associator", (AB, CD))
    with pytest.raises(ArityMismatch):
        coherence("braiding", (AB,))


def test_all_coherence_diagrams_commute_small_free():
    a = Presentation.free(["a0", "a1"])
    b = Presentation.free(["b0", "b1"])
    c = Presentation.free(["c0", "c1"])
    d = Presentation.free(["d0", "d1"])
    results = coherence_diagrams(a, b, c, d)
    assert len(results) == 7
    assert all(results.values()), results


def test_coherence_diagrams_with_relations():
    a = GLUE
    b = Presentation.free(["b0"])
    c = Presentation.free(["c0", "c1"])
    d = Presentation.free(["d0"])
    results = coherence_diagrams(a, b, c, d)
    assert all(results.values()), results


# -- the counterexample ---------------------------------------------------------


def test_counterexample_values_and_inequality():
    report = check_biconvex_not_convex_counterexample()
    assert report.biconvex_value == FiniteDistribution(
        {"0": F(1, 4), "1": F(1, 4), "2": F(1, 4), "3": F(1, 4)}
    )
    assert report.convex_hypothesis_value == FiniteDistribution(
        {"0": F(1, 2), "3": F(1, 2)}
    )
    assert report.unequal
    assert "d1" in report.value_note  # the discrepancy is recorded


# -- enriched bridge -------------------------------------------------------------


def one_object_trivial():
    h = Presentation.free(["id"])
    return BiconvexCategory(
        objects=("*",),
        hom={("*", "*"): h},
        identities={"*": h.delta("id")},
        composition={("*", "*", "*"): {("id", "id"): h.delta("id")}},
    )


def test_bridge_fixed_point_on_trivial_category():
    cat = one_object_trivial()
    data = enriched_bridge(cat)
    back = enriched_inverse(data)
    assert back.objects == cat.objects
    assert back.composition == cat.composition


def test_bridge_round_trip_two_objects_free_homs():
    ha = Presentation.free(["ida"])
    hb = Presentation.free(["idb"])
    hab = Presentation.free(["u", "v"])
    rng = random.Random(23)
    comp = {
        ("A", "A", "A"): {("ida", "ida"): ha.delta("ida")},
        ("B", "B", "B"): {("idb", "idb"): hb.delta("idb")},
        ("A", "A", "B"): {(g2, "ida"): hab.delta(g2) for g2 in hab.generators},
        ("A", "B", "B"): {("idb", g1): hab.delta(g1) for g1 in hab.generators},
    }
    cat = BiconvexCategory(
        objects=("A", "B"),
        hom={("A", "A"): ha, ("B", "B"): hb, ("A", "B"): hab},
        identities={"A": ha.delta("ida"), "B": hb.delta("idb")},
        composition=comp,
    )
    back = enriched_inverse(enriched_bridge(cat))
    assert back.composition == cat.composition
    # biconvex evaluation through the bridge agrees with the direct table
    data = enriched_bridge(cat)
    g2 = rd(hab, {"u": "1/3", "v": "2/3"})
    direct = cat.compose_elements("A", "A", "B", g2, ha.delta("ida"))
    lifted = data.composition_maps[("A", "A", "B")](
        universal_map([hab, ha], [g2, ha.delta("ida")])
    )
    assert eq(direct, lifted, 2).is_equal


def test_non_biconvex_composition_rejected():
    # Reuse the counterexample shape: hom presentations that name the
    # (1/2,1/2) mixtures as generators (mf ~ (f0+f1)/2, mg ~ (g0+g1)/2),
    # and a table that assigns the mixture pair the "convex hypothesis"
    # value (f0g0 + f1g1)/2 instead of the biconvex expansion.  The lifted
    # relation at the mixture slot then fails in the free target.
    hf = Presentation(
        ["f0", "f1", "mf"],
        [(delta("mf"), FiniteDistribution({"f0": F(1, 2), "f1": F(1, 2)}))],
    )
    hg = Presentation(
        ["g0", "g1", "mg"],
        [(delta("mg"), FiniteDistribution({"g0": F(1, 2), "g1": F(1, 2)}))],
    )
    comps = Presentation.free(["00", "01", "10", "11"])

    def value(i, j):
        return comps.delta(f"{i}{j}")

    table = {}
    for i in (0, 1):
        for j in (0, 1):
            table[(f"f{i}", f"g{j}")] = value(i, j)
        table[(f"f{i}", "mg")] = rd(comps, {f"{i}0": "1/2", f"{i}1": "1/2"})
    for j in (0, 1):
        table[("mf", f"g{j}")] = rd(comps, {f"0{j}": "1/2", f"1{j}": "1/2"})
    table[("mf", "mg")] = rd(comps, {"00": "1/2", "11": "1/2"})

    # The direct extension machinery is what the bridge runs.
    with pytest.raises(RelationViolated):
        extend_multiconvex(NConvexMapSpec((hf, hg), comps, table))

    # Category-level version: endomorphisms close under composition
    # (g0 = id, g1 = the swap, mg their midpoint).  The honest biconvex
    # table has T(mg, mg) = (g0+g1)/2; the convex hypothesis forces
    # T(mg, mg) = (g0.g0 + g1.g1)/2 = delta(g0), violating the lifted
    # relation at the mg slot.
    end = hg
    t = {}
    compose_gen = {("g0", "g0"): "g0", ("g0", "g1"): "g1",
                   ("g1", "g0"): "g1", ("g1", "g1"): "g0"}
    for i in ("g0", "g1"):
        for j in ("g0", "g1"):
            t[(i, j)] = end.delta(compose_gen[(i, j)])
        t[(i, "mg")] = quotient_mix(
            [F(1, 2), F(1, 2)],
            [end.delta(compose_gen[(i, "g0")]), end.delta(compose_gen[(i, "g1")])],
        )
        t[("mg", i)] = quotient_mix(
            [F(1, 2), F(1, 2)],
            [end.delta(compose_gen[("g0", i)]), end.delta(compose_gen[("g1", i)])],
        )
    t[("mg", "mg")] = end.delta("g0")  # convex-hypothesis value; wrong
    cat = BiconvexCategory(
        objects=("*",),
        hom={("*", "*"): end},
        identities={"*": end.delta("g0")},
        composition={("*", "*", "*"): t},
    )
    with pytest.raises(CompositionNotBiconvex):
        enriched_bridge(cat)


# -- universal property at desk scale -------------------------------------------


def test_universal_property_bijection_free_factors():
    x = Presentation.free(["a", "b"])
    y = Presentation.free(["c", "d", "e"])
    z = Presentation.free(["z0", "z1"])
    tuples = list(itertools.product(x.generators, y.generators))
    # exhaustive delta-valued tables
    count = 0
    for assignment in itertools.product(z.generators, repeat=len(tuples)):
        table = {t: z.delta(g) for t, g in zip(tuples, assignment)}
        spec = NConvexMapSpec((x, y), z, table)
        f = extend_multiconvex(spec)
        back = restrict_multiconvex(f)
        assert back.table == table
        count += 1
    assert count == len(z.generators) ** len(tuples)


def test_tensor_map_functoriality():
    rng = random.Random(31)
    f = induce_map(AB, CD, {g: random_element(rng, CD) for g in AB.generators})
    g = induce_map(C, AB, {gen: random_element(rng, AB) for gen in C.generators})
    fg = tensor_map([f, g])
    x, yel = random_element(rng, AB), random_element(rng, C)
    lhs = fg(universal_map([AB, C], [x, yel]))
    rhs = universal_map([CD, AB], [f(x), g(yel)])
    assert lhs == rhs


# -- the size budget ---------------------------------------------------------------


def test_tensor_lifted_relations_are_counted_before_any_is_built(monkeypatch):
    # 9 relations on two generators, lifted along 2,048 others: 18,432 pairs
    # on 4,096 generators, which is within the generator budget
    pair = Presentation(
        ["a", "b"],
        [(delta("a"), FiniteDistribution({"a": Fraction(1, k), "b": Fraction(k - 1, k)})) for k in range(2, 11)],
    )
    wide = Presentation.free([f"w{i}" for i in range(2048)])

    def built(*args):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(tensor_module, "TensorPresentation", built)
    monkeypatch.setattr(tensor_module, "_lift", built)
    with pytest.raises(InvalidInput, match="18432 lifted relations exceed"):
        tensor([pair, wide])


def test_tensor_at_the_generator_budget_is_built():
    factors = [Presentation.free([f"{s}{i}" for i in range(64)]) for s in "gh"]
    assert len(tensor(factors).generators) == tensor_module.MAX_TENSOR_GENERATORS


# Two 64-generator factors with 128 random relations each: the tensor has
# 4,096 generators and 16,384 lifted relations, both at the budget.  The
# pair is one lifted relation apart.  ru_maxrss is in kilobytes on Linux
# and in bytes on macOS.
BUDGET_CHILD = """
import random, resource
from fractions import Fraction
from convexion.distribution import FiniteDistribution
from convexion.presentation import Presentation, eq, same_class, verify_verdict
from convexion.tensor import universal_map

rng = random.Random(0)
gens = [f"g{i}" for i in range(64)]

def side():
    weights = {g: rng.randint(1, 3) for g in rng.sample(gens, rng.randint(1, 3))}
    return FiniteDistribution({g: Fraction(w, sum(weights.values())) for g, w in weights.items()})

factors = []
for _ in range(2):
    relations = []
    while len(relations) < 128:
        lhs, rhs = side(), side()
        if lhs != rhs:
            relations.append((lhs, rhs))
    factors.append(Presentation(gens, relations))
lhs, rhs = factors[0].relations[0]
x = universal_map(factors, [factors[0].element(lhs), factors[1].delta("g0")])
y = universal_map(factors, [factors[0].element(rhs), factors[1].delta("g0")])
same = same_class(x, y)
verdict = eq(x, y, 1)
print(same, verdict.status, verify_verdict(verdict, x, y), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_same_class_at_the_tensor_budget_stays_small():
    # Dense difference rows, one int per generator per relation, peaked
    # near 600 MB here; the sparse rows stay under 100 MB.
    pytest.importorskip("resource")
    out = subprocess.run([sys.executable, "-c", BUDGET_CHILD], capture_output=True, text=True, env=ENV)
    assert out.returncode == 0, out.stderr
    same, status, verified, peak = out.stdout.split()
    assert (same, status, verified) == ("True", "equal", "True")
    peak_mb = int(peak) / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    assert peak_mb < 200
