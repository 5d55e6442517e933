"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Exact
checks compare Fractions; float checks use the criterion's tolerance.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from convexion.distribution import (
    FiniteDistribution,
    boolean_subset,
    convex_combine,
    delta,
    flatten,
    map_delta,
    pushforward,
)
from convexion.join import JoinSpace, copair, join_mix
from convexion.matprop import (
    QConvOp,
    compose,
    convex_matrices,
    convex_rows,
    direct_sum,
    is_convex_matrix,
    permute,
)
from convexion.presentation import (
    ConvexMap,
    Presentation,
    eq,
    induce_map,
    quotient_mix,
    verify_verdict,
)
from convexion.semiring import BOOLEAN
from convexion.tensor import (
    NConvexMapSpec,
    check_biconvex_not_convex_counterexample,
    extend_multiconvex,
    restrict_multiconvex,
    tensor,
    universal_map,
)

F = Fraction


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS: {description}")


def random_dist(rng, carrier, max_cut=6):
    cuts = [rng.randint(0, max_cut) for _ in carrier]
    if sum(cuts) == 0:
        cuts[rng.randrange(len(carrier))] = 1
    total = sum(cuts)
    return FiniteDistribution(
        {c: F(w, total) for c, w in zip(carrier, cuts) if w}
    )


def random_element(rng, pres, max_cut=4):
    return pres.element(random_dist(rng, pres.generators, max_cut))


# -- criterion 1: monad laws ------------------------------------------------------


def _denominator_bounded_distributions(max_size, max_den=6):
    """All distributions on canonical carriers of size <= max_size whose
    weights have canonical denominators <= max_den (positive support)."""
    base = 60  # lcm(1..6)
    allowed = [
        n for n in range(1, base + 1) if base // math.gcd(n, base) <= max_den
    ]
    allowed_set = set(allowed)

    def compositions(total, parts):
        if parts == 1:
            if total in allowed_set:
                yield (total,)
            return
        for head in allowed:
            if head >= total:
                continue
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    out = []
    for k in range(1, max_size + 1):
        carrier = [f"e{i}" for i in range(k)]
        for combo in compositions(base, k) if k > 1 else [(base,)]:
            out.append(
                FiniteDistribution(
                    {c: F(n, base) for c, n in zip(carrier, combo)}
                )
            )
    return out


def test_criterion_1_monad_laws():
    with criterion(1, "monad laws, carriers <= 5, denominators <= 6, exact, < 10 s"):
        start = time.monotonic()
        pool = _denominator_bounded_distributions(5)
        # independent oracle for the universe: brute-force tuples over the
        # canonical weight set {p/q : q <= 6}, keeping those that sum to 1
        weight_values = sorted(
            {
                F(p, q)
                for q in range(1, 7)
                for p in range(1, q + 1)
            }
        )
        oracle = set()
        for k in range(1, 6):
            for combo in itertools.product(weight_values, repeat=k):
                if sum(combo) == 1:
                    oracle.add(
                        FiniteDistribution(
                            {f"e{i}": w for i, w in enumerate(combo)}
                        )
                    )
        assert set(pool) == oracle
        for q in pool:
            assert flatten(delta(q)) == q  # left unit
            assert flatten(map_delta(q)) == q  # right unit
        # associativity on a broad seeded family of triply nested inputs
        rng = random.Random(97)
        weights_pool = [F(1, 2), F(1, 3), F(2, 3), F(1, 6), F(5, 6), F(1, 4)]
        for _ in range(300):
            inner = [rng.choice(pool) for _ in range(3)]
            w = rng.choice(weights_pool)
            mid1 = FiniteDistribution({inner[0]: w, inner[1]: 1 - w}) if inner[0] != inner[1] else delta(inner[0])
            mid2 = FiniteDistribution({inner[1]: w, inner[2]: 1 - w}) if inner[1] != inner[2] else delta(inner[1])
            v = rng.choice(weights_pool)
            triple = (
                FiniteDistribution({mid1: v, mid2: 1 - v})
                if mid1 != mid2
                else delta(mid1)
            )
            assert flatten(flatten(triple)) == flatten(
                pushforward(lambda mid: flatten(mid), triple)
            )
        # Boolean semiring: subsets with union as flatten
        s1, s2 = boolean_subset(["a", "b"]), boolean_subset(["b", "c"])
        nested = FiniteDistribution({s1: True, s2: True}, BOOLEAN)
        assert flatten(nested) == boolean_subset(["a", "b", "c"])
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"took {elapsed:.2f}s"


# -- criterion 2: the counterexample ----------------------------------------------


def test_criterion_2_biconvex_not_convex():
    with criterion(2, "biconvex composite uniform on 4 atoms; convex hypothesis differs"):
        report = check_biconvex_not_convex_counterexample()
        quarter = F(1, 4)
        assert report.biconvex_value == FiniteDistribution(
            {"0": quarter, "1": quarter, "2": quarter, "3": quarter}
        )
        assert report.convex_hypothesis_value != report.biconvex_value
        assert report.unequal
        # the sign/value discrepancy is recorded
        assert "(1/2)d1 + (1/2)d3" in report.value_note


# -- criterion 3: tensor universal property ------------------------------------------


def test_criterion_3_universal_property():
    with criterion(3, "table <-> map bijection: exhaustive delta tables + 100 random"):
        x = Presentation.free(["a", "b", "c"])
        y = Presentation.free(["u", "v", "w"])
        z = Presentation.free(["z0", "z1", "z2"])
        tuples = list(itertools.product(x.generators, y.generators))
        count = 0
        for assignment in itertools.product(z.generators, repeat=len(tuples)):
            table = {t: z.delta(g) for t, g in zip(tuples, assignment)}
            fmap = extend_multiconvex(NConvexMapSpec((x, y), z, table))
            assert restrict_multiconvex(fmap).table == table
            count += 1
        assert count == 3**9
        rng = random.Random(31)
        for _ in range(100):
            table = {t: random_element(rng, z) for t in tuples}
            fmap = extend_multiconvex(NConvexMapSpec((x, y), z, table))
            assert restrict_multiconvex(fmap).table == table
            # extension evaluates biconvexly on pure tensors
            ex, ey = random_element(rng, x), random_element(rng, y)
            expanded = fmap(universal_map([x, y], [ex, ey]))
            direct = convex_combine(
                [wx * wy for _, wx in ex.rep.items() for _, wy in ey.rep.items()],
                [
                    table[(gx, gy)].rep
                    for gx, _ in ex.rep.items()
                    for gy, _ in ey.rep.items()
                ],
            )
            assert expanded.rep == direct


# -- criterion 4: free tensor law ----------------------------------------------------


def test_criterion_4_free_tensor_iso():
    with criterion(4, "free tensor is free on the product: two-sided iso, exact"):
        for nx in (1, 2, 3):
            for ny in (1, 2, 3):
                x = Presentation.free([f"x{i}" for i in range(nx)])
                y = Presentation.free([f"y{j}" for j in range(ny)])
                tp = tensor([x, y])
                assert tp.relations == ()
                prod = Presentation.free(
                    [f"({g},{h})" for g in x.generators for h in y.generators]
                )
                fwd = induce_map(
                    tp, prod, {t: prod.delta(f"({t[0]},{t[1]})") for t in tp.generators}
                )
                back = induce_map(
                    prod,
                    tp,
                    {f"({g},{h})": tp.delta((g, h)) for g in x.generators for h in y.generators},
                )
                for t in tp.generators:
                    assert back(fwd(tp.delta(t))) == tp.delta(t)
                for g in prod.generators:
                    assert fwd(back(prod.delta(g))) == prod.delta(g)
                rng = random.Random(nx * 10 + ny)
                for _ in range(10):
                    e = random_element(rng, tp)
                    assert back(fwd(e)) == e
                    assert eq(e, e, 0).is_equal  # bound 0 decides on frees


# -- criterion 5: join coproduct ------------------------------------------------------


def test_criterion_5_join_coproduct():
    with criterion(5, "copair/injection round-trips exact (100 random); mix laws at bound 2"):
        rng = random.Random(55)
        x = Presentation.free(["x0", "x1", "x2"])
        y = Presentation.free(["y0", "y1"])
        z = Presentation.free(["z0", "z1", "z2"])
        for _ in range(100):
            f = induce_map(x, z, {g: random_element(rng, z) for g in x.generators})
            g = induce_map(y, z, {h: random_element(rng, z) for h in y.generators})
            h = copair(f, g)
            ex, ey = random_element(rng, x), random_element(rng, y)
            assert h(h.space.inject_x(ex)) == f(ex)  # exact round-trips
            assert h(h.space.inject_y(ey)) == g(ey)
            alpha = F(rng.randint(1, 3), 4)
            pt = h.space.point(alpha, ex, ey)
            assert h(pt) == quotient_mix([alpha, 1 - alpha], [f(ex), g(ey)])
            f2 = induce_map(
                x, z, {gen: h(h.space.inject_x(x.delta(gen))) for gen in x.generators}
            )
            g2 = induce_map(
                y, z, {gen: h(h.space.inject_y(y.delta(gen))) for gen in y.generators}
            )
            assert copair(f2, g2)(pt) == h(pt)
        space = JoinSpace(x, y)
        for _ in range(40):
            pts = [
                space.point(F(rng.randint(0, 4), 4), random_element(rng, x), random_element(rng, y))
                for _ in range(3)
            ]
            unit_mix = join_mix([F(0), F(1), F(0)], pts)
            assert _join_equal(unit_mix, pts[1])
            inner = join_mix([F(1, 2), F(1, 2)], pts[:2])
            nested = join_mix([F(2, 3), F(1, 3)], [inner, pts[2]])
            flat = join_mix([F(1, 3), F(1, 3), F(1, 3)], pts)
            assert _join_equal(nested, flat)


def _join_equal(p, q, bound=2):
    if p.alpha != q.alpha:
        return False
    for a, b in ((p.x_part, q.x_part), (p.y_part, q.y_part)):
        if (a is None) != (b is None):
            return False
        if a is not None and not eq(a, b, bound).is_equal:
            return False
    return True


# -- criterion 6: PROP laws -----------------------------------------------------------


def _universe_arrays(max_den=3):
    """The exhaustive universe as numerator arrays over denominator 6,
    grouped by shape."""
    arrays = {}
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            mats = []
            for rows_choice in itertools.product(convex_rows(m, max_den), repeat=n):
                mats.append(
                    [[int(v * 6) for v in row] for row in rows_choice]
                )
            arrays[(n, m)] = np.array(mats, dtype=np.int64)
    return arrays


def test_criterion_6_prop_laws():
    with criterion(6, "convex PROP closure/interchange/bisymmetry on the den<=3 grid, < 60 s"):
        start = time.monotonic()
        universe = _universe_arrays()
        total = sum(len(v) for v in universe.values())
        assert total == sum(
            len(convex_rows(m, 3)) ** n for n in (1, 2, 3) for m in (1, 2, 3)
        )

        # closure under composition: ALL composable pairs, vectorized exact
        # integer oracle (numerators over 6; products over 36).
        checked_pairs = 0
        for (n, k1), a_stack in universe.items():
            for (k2, m), b_stack in universe.items():
                if k1 != k2:
                    continue
                chunk = max(1, 10**6 // max(1, len(b_stack) * n * m))
                for lo in range(0, len(a_stack), chunk):
                    a = a_stack[lo : lo + chunk]
                    prod = np.einsum("aik,bkj->abij", a, b_stack)
                    sums = prod.sum(axis=3)
                    assert (sums == 36).all()
                    checked_pairs += a.shape[0] * b_stack.shape[0]
        assert checked_pairs > 4_800_000  # dominated by 2197^2

        # the implementation agrees with the oracle on a large seeded sample
        rng = random.Random(66)
        flat = {
            shape: list(convex_matrices(shape[0], shape[1], 3))
            for shape in universe
        }
        for _ in range(2000):
            n, k, m = rng.choice([(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)])
            a = rng.choice(flat[(n, k)])
            b = rng.choice(flat[(k, m)])
            got = compose(a, b)
            assert is_convex_matrix(got)
            ia = np.array([[int(v * 6) for v in row] for row in a.entries])
            ib = np.array([[int(v * 6) for v in row] for row in b.entries])
            expected = ia @ ib
            for i in range(n):
                for j in range(m):
                    assert got.entries[i][j] == F(int(expected[i][j]), 36)

        # closure under permutation: exhaustive over the whole universe
        perms = {
            1: [(0,)],
            2: [(0, 1), (1, 0)],
            3: list(itertools.permutations(range(3))),
        }
        for (n, m), mats in flat.items():
            for mat in mats:
                for tau in perms[n]:
                    for sigma in perms[m]:
                        assert is_convex_matrix(permute(tau, mat, sigma))

        # closure under direct sum: block row sums are inherited; exhaustive
        # over the sub-universe with combined size <= 3, sampled at scale
        small = [m for shape in ((1, 1), (1, 2), (2, 1)) for m in flat[shape]]
        for a in small:
            for b in small:
                assert is_convex_matrix(direct_sum(a, b))
        for _ in range(2000):
            a = rng.choice(flat[rng.choice(list(flat))])
            b = rng.choice(flat[rng.choice(list(flat))])
            ds = direct_sum(a, b)
            assert is_convex_matrix(ds)
            assert ds.rows == a.rows + b.rows and ds.cols == a.cols + b.cols

        # interchange: exhaustive on the den<=2 / dim<=2 sub-universe
        sub = {
            (n, m): list(convex_matrices(n, m, 2)) for n in (1, 2) for m in (1, 2)
        }
        quads = 0
        for (n, k) in sub:
            for (k2, m) in sub:
                if k2 != k:
                    continue
                for (n2, l) in sub:
                    for (l2, m2) in sub:
                        if l2 != l:
                            continue
                        for p in sub[(n, k)]:
                            for r in sub[(k, m)]:
                                for q in sub[(n2, l)]:
                                    for s in sub[(l, m2)]:
                                        lhs = compose(direct_sum(p, q), direct_sum(r, s))
                                        rhs = direct_sum(compose(p, r), compose(q, s))
                                        assert lhs == rhs
                                        quads += 1
        assert quads >= 16000
        # plus seeded interchange samples from the full universe
        for _ in range(300):
            n, k, m = (rng.randint(1, 3) for _ in range(3))
            n2, l, m2 = (rng.randint(1, 3) for _ in range(3))
            p, r = rng.choice(flat[(n, k)]), rng.choice(flat[(k, m)])
            q, s = rng.choice(flat[(n2, l)]), rng.choice(flat[(l, m2)])
            assert compose(direct_sum(p, q), direct_sum(r, s)) == direct_sum(
                compose(p, r), compose(q, s)
            )

        # bisymmetry: exhaustive on the sub-universe
        for (n, k) in sub:
            for (k2, m) in sub:
                if k2 != k:
                    continue
                for p in sub[(n, k)]:
                    for r in sub[(k, m)]:
                        for tau in perms[n]:
                            for sigma in perms[m]:
                                ident = tuple(range(k))
                                lhs = permute(tau, compose(p, r), sigma)
                                rhs = compose(
                                    permute(tau, p, ident), permute(ident, r, sigma)
                                )
                                assert lhs == rhs
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.2f}s"


# -- criterion 7: Grothendieck equivalences ----------------------------------------------


def test_criterion_7_grothendieck_round_trips():
    from convexion.category import (
        CSetFunctor,
        STANDARD_BASES,
        check_fibrewise_equations,
        convex_grothendieck,
        extract_functor,
        fibration_morphism_over_base,
        grothendieck,
        is_discrete_fibration,
        natural_iso_components,
    )
    from tests.test_category import random_set_functor

    with criterion(7, "classical + convex Grothendieck round-trips on the base family"):
        rng = random.Random(77)
        for name, make in STANDARD_BASES.items():
            base = make()
            assert len(base.objects) <= 4
            assert base.non_identity_count() <= 8
            for _ in range(4):
                functor = random_set_functor(rng, base)
                fib = grothendieck(functor)
                assert is_discrete_fibration(fib)
                back = extract_functor(fib)
                assert natural_iso_components(back, functor) is not None
                again = grothendieck(back)
                obj_map = {o: (o[0], o) for o in fib.total.objects}
                assert fibration_morphism_over_base(fib, again, obj_map)
        # convex side: promote validated random set functors to functors
        # into free presentations (delta assignments), which is always
        # functorial; fibrewise s/t/Id equations are then exact (bound 0)
        convex_bases_checked = 0
        for name, make in STANDARD_BASES.items():
            base = make()
            set_functor = random_set_functor(rng, base)
            presentations = {
                c: Presentation.free(list(set_functor.on_objects[c]))
                for c in base.objects
            }
            on_morphisms = {
                mname: ConvexMap(
                    presentations[m.src],
                    presentations[m.tgt],
                    {
                        g: presentations[m.tgt].delta(set_functor.apply(mname, g))
                        for g in presentations[m.src].generators
                    },
                )
                for mname, m in base.morphisms.items()
            }
            functor = CSetFunctor(base, presentations, on_morphisms)
            cfib = convex_grothendieck(functor)
            samples = []
            for mname in list(base.morphisms)[:6]:
                src = base.morphisms[mname].src
                pres = presentations[src]
                samples.append(
                    (
                        mname,
                        [F(1, 3), F(2, 3)],
                        [random_element(rng, pres) for _ in range(2)],
                    )
                )
            assert check_fibrewise_equations(cfib, samples) == []
            convex_bases_checked += 1
        assert convex_bases_checked == len(STANDARD_BASES)
        # plus one base with genuinely mixing (non-delta) fibre maps
        from tests.test_category import small_cset_functor

        cfib = convex_grothendieck(small_cset_functor())
        pres = cfib.fibre_presentation("0")
        samples = [
            ("f", [F(1, 4), F(3, 4)], [random_element(rng, pres) for _ in range(2)])
            for _ in range(5)
        ]
        assert check_fibrewise_equations(cfib, samples) == []


# -- criterion 8: O-monoidal Grothendieck --------------------------------------------------


def _qconv_grid(max_den=4, max_arity=3):
    ops = []
    for arity in range(1, max_arity + 1):
        for row in convex_rows(arity, max_den):
            ops.append(QConvOp(list(row)))
    return ops


def test_criterion_8_o_monoidal_grothendieck():
    from convexion.omonoidal import (
        dist_lax_functor,
        mixture_lax_functor,
        o_grothendieck,
    )

    with criterion(8, "QConv grid (den <= 4, arity <= 3): strictness, convexity, recovery"):
        rng = random.Random(88)
        grid = _qconv_grid()
        assert len(grid) == sum(len(convex_rows(a, 4)) for a in (1, 2, 3))

        mixture = mixture_lax_functor(["x", "y"])
        fib_mix = o_grothendieck(mixture)
        dist = dist_lax_functor(6)
        fib_dist = o_grothendieck(dist)

        for op in grid:
            # one-object mixture fibres
            pairs = [
                ("*", random_element(rng, mixture.fibre("*")))
                for _ in range(op.arity)
            ]
            assert fib_mix.strictness_holds(op, pairs)
            slot = rng.randrange(op.arity)
            variants = [random_element(rng, mixture.fibre("*")) for _ in range(2)]
            assert fib_mix.nconvex_in_slot(op, pairs, slot, [F(1, 4), F(3, 4)], variants)
            assert fib_mix.recovers_functor(op, tuple("*" * op.arity))
            # disjoint-union fibres over the sets skeleton
            objs = [f"S{rng.randint(1, 2)}" for _ in range(op.arity)]
            pairs = [(o, random_element(rng, dist.fibre(o))) for o in objs]
            assert fib_dist.strictness_holds(op, pairs)
            slot = rng.randrange(op.arity)
            variants = [random_element(rng, dist.fibre(objs[slot])) for _ in range(2)]
            assert fib_dist.nconvex_in_slot(op, pairs, slot, [F(1, 2), F(1, 2)], variants)
            assert fib_dist.recovers_functor(op, tuple(objs))


# -- criterion 9: entropy -------------------------------------------------------------------


def test_criterion_9_entropy():
    from convexion.finprob import (
        ProbObject,
        binary_entropy,
        convex_combine_morphisms,
        convex_combine_objects,
        generate_corpus,
        info_loss,
        shannon_entropy,
        verify_entropy_axioms,
    )

    with criterion(9, "entropy values, grouping, additivity, convexity, c-fits"):
        uniform2 = ProbObject(["a", "b"], {"a": F(1, 2), "b": F(1, 2)})
        assert abs(shannon_entropy(uniform2) - math.log(2)) < 1e-9

        point = ProbObject(["z"], {"z": F(1)})
        for k in range(9):
            lam = F(k, 8)
            mixed = convex_combine_objects(lam, uniform2, point)
            expected = (
                float(lam) * shannon_entropy(uniform2)
                + (1 - float(lam)) * shannon_entropy(point)
                + binary_entropy(lam)
            )
            assert abs(shannon_entropy(mixed) - expected) < 1e-9

        corpus = generate_corpus(seed=99, n_chains=200, max_carrier=16)
        assert len(corpus.chains) == 200
        for idx in range(len(corpus.chains)):
            f, g = corpus.chain_morphisms(idx)
            assert abs(info_loss(f.compose(g)) - info_loss(f) - info_loss(g)) < 1e-9

        rng = random.Random(9)
        for _ in range(20):
            f = corpus.morphisms[rng.randrange(len(corpus.morphisms))]
            g = corpus.morphisms[rng.randrange(len(corpus.morphisms))]
            lam = F(rng.randint(0, 8), 8)
            mixed = convex_combine_morphisms(lam, f, g)
            assert (
                abs(
                    info_loss(mixed)
                    - float(lam) * info_loss(f)
                    - (1 - float(lam)) * info_loss(g)
                )
                < 1e-9
            )

        report = verify_entropy_axioms(info_loss, corpus)
        assert report["all_passed"]
        assert abs(report["fitted_c"] - 1.0) < 1e-6
        report2 = verify_entropy_axioms(lambda m: 2 * info_loss(m), corpus)
        assert report2["all_passed"]
        assert abs(report2["fitted_c"] - 2.0) < 1e-6
        report3 = verify_entropy_axioms(lambda m: info_loss(m) ** 2, corpus)
        assert not report3["composition"]["passed"]
        assert report3["composition"]["failures"]  # concrete witness


# -- criterion 10: simplicial ------------------------------------------------------------------


def test_criterion_10_simplicial():
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
        standard_point,
        twist_addition_iso,
        twisted_product,
        uniform_sdist,
    )

    with criterion(10, "simplicial identities at N <= 2; mu validity x50; twist addition"):
        # all constructed objects pass the identity checks (constructors
        # would raise otherwise)
        standard_point(2)
        rng = random.Random(101)
        for group in (AbGroup.cyclic(2), AbGroup.cyclic(3)):
            x = standard_circle(2)
            k = SimplicialAbGroup.constant(group, 2)
            twists = enumerate_twists(x, k)
            bundles = {t: twisted_product(k, t, x) for t in twists}
            # bundle tensor realizes twist addition on all table-level cases
            for t1, b1 in bundles.items():
                for t2, b2 in bundles.items():
                    tensored = bundle_tensor(b1, b2)
                    target = bundles[t1 + t2]
                    assert bundle_iso_valid(
                        tensored, target, twist_addition_iso(tensored, target)
                    )
        # mu preserves both conditions on 50 random instances
        x = standard_circle(2)
        k2 = SimplicialAbGroup.constant(AbGroup.cyclic(2), 2)
        twists = enumerate_twists(x, k2)
        zero = TwistingFunction.zero(x, k2)
        bundles = {t: twisted_product(k2, t, x) for t in twists}
        sections = enumerate_sections(bundles[zero])
        instances = 0
        while instances < 50:
            w = F(rng.randint(0, 8), 8)
            p = mix_sdist(
                [w, 1 - w],
                [
                    section_sdist(bundles[zero], sections[0]),
                    section_sdist(bundles[zero], sections[1]),
                ],
            )
            t_choice = rng.choice(twists)
            q = uniform_sdist(bundles[t_choice])
            product = mu_product(p, q)
            assert check_simplicial_distribution(product, product.bundle) == []
            instances += 1
        # mu biconvexity, exact rational identity
        p0 = section_sdist(bundles[zero], sections[0])
        p1 = section_sdist(bundles[zero], sections[1])
        q = uniform_sdist(bundles[zero])
        alpha = [F(1, 3), F(2, 3)]
        lhs = mu_product(mix_sdist(alpha, [p0, p1]), q)
        parts = [mu_product(p0, q), mu_product(p1, q)]
        for n in lhs.levels:
            for simp in lhs.levels[n]:
                support = parts[0].at(n, simp).support() | parts[1].at(n, simp).support()
                mixed = FiniteDistribution(
                    {
                        el: alpha[0] * parts[0].at(n, simp).weight(el)
                        + alpha[1] * parts[1].at(n, simp).weight(el)
                        for el in support
                    }
                )
                assert lhs.at(n, simp) == mixed


# -- criterion 11: equality engine soundness ----------------------------------------------------


def test_criterion_11_equality_soundness():
    with criterion(11, "1000-presentation fuzz: every witness replays, no unsound verdict"):
        rng = random.Random(111)
        equal_seen = distinct_seen = unknown_seen = 0
        for trial in range(1000):
            n_gens = rng.randint(1, 4)
            gens = [f"g{i}" for i in range(n_gens)]
            relations = []
            for _ in range(rng.randint(0, 2)):
                relations.append(
                    (random_dist(rng, gens, 3), random_dist(rng, gens, 3))
                )
            pres = Presentation(gens, relations)
            e1 = pres.element(random_dist(rng, gens, 3))
            if rng.random() < 0.5 or not relations:
                e2 = pres.element(random_dist(rng, gens, 3))
            else:
                # engineered equal pair: one explicit rewriting step
                lam = F(rng.randint(1, 2), 4)
                lhs_r, rhs_r = relations[rng.randrange(len(relations))]
                spect = {
                    g: (1 - lam) * e1.rep.weight(g) for g in gens
                }
                e1 = pres.element(
                    FiniteDistribution(
                        {
                            g: spect[g] + lam * lhs_r.weight(g)
                            for g in gens
                            if spect[g] + lam * lhs_r.weight(g) != 0
                        }
                    )
                )
                e2 = pres.element(
                    FiniteDistribution(
                        {
                            g: spect[g] + lam * rhs_r.weight(g)
                            for g in gens
                            if spect[g] + lam * rhs_r.weight(g) != 0
                        }
                    )
                )
            verdict = eq(e1, e2, 3)
            assert verify_verdict(verdict, e1, e2), f"trial {trial}"
            equal_seen += verdict.is_equal
            distinct_seen += verdict.is_distinct
            unknown_seen += verdict.is_unknown
        assert equal_seen > 100 and distinct_seen > 100  # both certificate kinds hammered
