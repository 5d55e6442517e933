"""Exact rational feasibility and nullspace computations."""

import hashlib
import itertools
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from convexion import linalg, presentation
from convexion.distribution import FiniteDistribution, delta
from convexion.presentation import Presentation, ZigZagStep
from convexion.tensor import universal_map

F = Fraction


def check_solution(rows, rhs, x):
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b


def test_simple_feasible_system():
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    rhs = [F(1), F(0)]
    x = linalg.solve_eq_nonneg(rows, rhs)
    assert x == [F(1, 2), F(1, 2)]


def test_infeasible_by_sign():
    # x1 + x2 = -1 has no nonnegative solution.
    assert linalg.solve_eq_nonneg([[F(1), F(1)]], [F(-1)]) is None


def test_infeasible_inconsistent():
    rows = [[F(1), F(0)], [F(1), F(0)]]
    rhs = [F(1), F(2)]
    assert linalg.solve_eq_nonneg(rows, rhs) is None


def test_degenerate_zero_rows():
    rows = [[F(0), F(0)]]
    assert linalg.solve_eq_nonneg(rows, [F(0)]) == [F(0), F(0)]
    assert linalg.solve_eq_nonneg(rows, [F(1)]) is None


@given(st.data())
def test_random_systems_agree_with_verification(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    rows = [
        [F(data.draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(m)
    ]
    # Build rhs from a known nonnegative point half the time, else random.
    if data.draw(st.booleans()):
        point = [F(data.draw(st.integers(0, 3))) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, point)) for row in rows]
        x = linalg.solve_eq_nonneg(rows, rhs)
        assert x is not None
        check_solution(rows, rhs, x)
    else:
        rhs = [F(data.draw(st.integers(-3, 3))) for _ in range(m)]
        x = linalg.solve_eq_nonneg(rows, rhs)
        if x is not None:
            check_solution(rows, rhs, x)


def test_nullspace_and_membership():
    rows = [[F(1), F(-1), F(0)], [F(0), F(1), F(-1)]]
    basis = linalg.nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert linalg.dot(row, v) == 0
    assert linalg.in_row_space(rows, [F(1), F(0), F(-1)])
    assert not linalg.in_row_space(rows, [F(1), F(0), F(0)])


def test_nullspace_of_empty_matrix_is_full():
    basis = linalg.nullspace([], 3)
    assert len(basis) == 3


@given(st.data())
def test_nullspace_orthogonality_random(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 5))
    rows = [
        [F(data.draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(m)
    ]
    basis = linalg.nullspace(rows, n)
    for v in basis:
        for row in rows:
            assert linalg.dot(row, v) == 0
    reduced, pivots = linalg.rref(rows, n)
    assert len(reduced) + len(basis) == n  # rank-nullity


# -- rational entries ------------------------------------------------------------------

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 7))


def _rational_matrix(data, m, n):
    return [[data.draw(rationals) for _ in range(n)] for _ in range(m)]


@given(st.data())
def test_rational_systems_are_solved_exactly(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    rows = _rational_matrix(data, m, n)
    feasible = data.draw(st.booleans())
    if feasible:
        point = [data.draw(st.builds(F, st.integers(0, 6), st.integers(1, 7)))
                 for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, point)) for row in rows]
    else:
        rhs = [data.draw(rationals) for _ in range(m)]
    x = linalg.solve_eq_nonneg(rows, rhs)
    if feasible:
        assert x is not None
    if x is not None:
        assert len(x) == n and all(type(v) is F for v in x)
        check_solution(rows, rhs, x)


def naive_rref(rows, ncols):
    """Dense Gauss-Jordan over Fractions: the first nonzero row below the
    current one supplies each pivot."""
    mat = [[F(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        source = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if source is None:
            continue
        mat[r], mat[source] = mat[source], mat[r]
        p = mat[r][c]
        mat[r] = [v / p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[: len(pivots)], pivots


@given(st.data())
def test_rref_matches_dense_gauss_jordan(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    rows = _rational_matrix(data, m, n)
    assert linalg.rref(rows, n) == naive_rref(rows, n)


def test_rref_with_negative_pivots():
    rows = [[F(-2, 3), F(1), F(0)], [F(0), F(-5, 7), F(3)], [F(-1), F(0), F(1, 2)]]
    assert linalg.rref(rows, 3) == naive_rref(rows, 3)
    reduced, pivots = linalg.rref([[F(-3), F(6), F(-9, 2)]], 3)
    assert reduced == [[F(1), F(-2), F(3, 2)]] and pivots == [0]


@given(st.data())
def test_nullspace_is_the_same_for_int_and_fraction_input(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    ints = [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    basis = linalg.nullspace(ints, n)
    assert basis == linalg.nullspace([[F(v) for v in row] for row in ints], n)
    assert all(type(v) is F for vec in basis for v in vec)


# -- pinned outputs on zig-zag-shaped systems ----------------------------------------

# Digest of the exact outputs (each x, or None) on the corpus below, as
# the dense-tableau simplex that the sparse one replaced returned them.
# The pivot rule fixes which vertex the simplex returns, and Equal
# witnesses are built from that vertex, so a change here changes reports.
ZIGZAG_DIGEST = "ed16f4caa6b52fd795295a110bb5847bce56cb79cb40032aab7e23a7057dfb04"
ZIGZAG_SEED = 20240327


def _random_weights(rng, n, max_cut=2):
    cuts = [rng.randint(0, max_cut) for _ in range(n)]
    if not any(cuts):
        cuts[rng.randrange(n)] = 1
    return [F(c, sum(cuts)) for c in cuts]


def _rewrite(rng, pres, start, length):
    """Apply length one-step moves (each rewrites lambda*r into lambda*s
    inside the current point); None when no move fits."""
    cur = list(start)
    for _ in range(length):
        usable = [
            (rv, sv)
            for rv, sv in (
                (pres.vector(r), pres.vector(s)) for r, s in pres.symmetric_relations
            )
            if all(c != 0 for c, r in zip(cur, rv) if r != 0)
        ]
        if not usable:
            return None
        rv, sv = rng.choice(usable)
        lam = min(c / r for c, r in zip(cur, rv) if r != 0)
        lam *= rng.choice((F(1, 2), F(1)))
        cur = [c - lam * r + lam * s for c, r, s in zip(cur, rv, sv)]
    return cur


def zigzag_corpus(seed=ZIGZAG_SEED, size=120):
    """Zig-zag systems of small random presentations at bounds 1-4: the
    target is a rewrite of the start within the bound (feasible), a longer
    rewrite, or an unrelated point."""
    return [presentation._zigzag_lp(*case) for case in zigzag_cases(seed, size)]


def zigzag_cases(seed=ZIGZAG_SEED, size=120):
    """The (presentation, start, target, bound) behind each corpus system."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < size:
        ng = rng.randint(2, 4)
        gens = [f"g{i}" for i in range(ng)]
        rels = []
        for _ in range(rng.randint(1, 2)):
            lhs, rhs = _random_weights(rng, ng), _random_weights(rng, ng)
            if lhs != rhs:
                rels.append((_dist(gens, lhs), _dist(gens, rhs)))
        if not rels:
            continue
        pres = Presentation(gens, rels)
        k = rng.randint(1, 4)
        start = _random_weights(rng, ng)
        kind = rng.choice(("within", "beyond", "random"))
        if kind == "random":
            target = _random_weights(rng, ng)
        else:
            length = rng.randint(1, k) if kind == "within" else k + rng.randint(1, 3)
            target = _rewrite(rng, pres, start, length)
            if target is None:
                continue
        corpus.append((pres, start, target, k))
    return corpus


def _dist(gens, weights):
    return FiniteDistribution({g: w for g, w in zip(gens, weights) if w})


def _outputs_digest(outputs):
    text = "\n".join(
        "None" if x is None else " ".join(str(v) for v in x) for x in outputs
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_zigzag_outputs_are_pinned():
    outputs = []
    for rows, rhs in zigzag_corpus():
        x = linalg.solve_eq_nonneg(rows, rhs)
        if x is not None:
            check_solution(rows, rhs, x)
        outputs.append(x)
    assert sum(x is None for x in outputs) not in (0, len(outputs))
    assert _outputs_digest(outputs) == ZIGZAG_DIGEST


# -- the LP rows and the replay against their dense oracles ------------------------------


def dense_zigzag_lp(pres, pv, qv, k):
    """The zig-zag LP as dense Fraction rows, one cell at a time: the
    builder that the cached relation columns replaced."""
    pairs = [(pres.vector(r), pres.vector(s)) for r, s in pres.symmetric_relations]
    rvec = [rv for rv, _ in pairs]
    svec = [sv for _, sv in pairs]
    nj = len(rvec)
    ng = len(pres.generators)

    def lam_col(i, j):
        return i * (nj + ng) + j

    def t_col(i, x):
        return i * (nj + ng) + nj + x

    ncols = k * (nj + ng)
    rows, rhs = [], []
    for x in range(ng):
        row = [0] * ncols
        for j in range(nj):
            row[lam_col(0, j)] = rvec[j][x]
        row[t_col(0, x)] = 1
        rows.append(row)
        rhs.append(pv[x])
    for i in range(k - 1):
        for x in range(ng):
            row = [0] * ncols
            for j in range(nj):
                row[lam_col(i, j)] = svec[j][x]
                row[lam_col(i + 1, j)] = -rvec[j][x]
            row[t_col(i, x)] = 1
            row[t_col(i + 1, x)] = -1
            rows.append(row)
            rhs.append(0)
    for x in range(ng):
        row = [0] * ncols
        for j in range(nj):
            row[lam_col(k - 1, j)] = svec[j][x]
        row[t_col(k - 1, x)] = 1
        rows.append(row)
        rhs.append(qv[x])
    return rows, rhs


def _tensor_cases():
    """The two fixed tensor instances of tests/test_tensor.py (the
    27-generator segment cube and the 9-generator stall chain) at bounds 1-4."""
    half = FiniteDistribution({"a": F(1, 2), "b": F(1, 2)})
    seg = Presentation(["a", "b", "m"], [(delta("m"), half)])
    third = F(1, 3)
    a_rel = Presentation(
        ["a", "b", "c"], [(delta("a"), FiniteDistribution({"b": F(1, 2), "c": F(1, 2)}))]
    )
    b_rel = Presentation(
        ["a", "b", "c"],
        [(delta("b"), FiniteDistribution({"a": third, "b": third, "c": third}))],
    )
    corners = FiniteDistribution({g: F(1, 8) for g in itertools.product("ab", repeat=3)})
    stall_end = FiniteDistribution(
        {("a", "b"): F(2, 9), ("b", "b"): F(1, 2), ("a", "a"): F(5, 36), ("a", "c"): F(5, 36)}
    )
    instances = [
        ([seg] * 3, [seg.delta("m")] * 3, corners),
        ([a_rel, b_rel], [a_rel.element(half), b_rel.delta("b")], stall_end),
    ]
    for factors, xs, end in instances:
        start = universal_map(factors, xs)
        pres = start.presentation
        for k in range(1, 5):
            yield pres, pres.vector(start.rep), pres.vector(end), k


def test_zigzag_lp_rows_match_the_dense_builder():
    cases = zigzag_cases() + list(_tensor_cases())
    assert len(cases) == 128
    for pres, pv, qv, k in cases:
        rows, rhs = presentation._zigzag_lp(pres, pv, qv, k)
        dense_rows, dense_rhs = dense_zigzag_lp(pres, pv, qv, k)
        assert len(rows) == len(dense_rows) == len(rhs) == len(dense_rhs)
        for row, b, dense_row, dense_b in zip(rows, rhs, dense_rows, dense_rhs):
            assert len(row) == len(dense_row)
            assert linalg._integer_row(row, b) == linalg._integer_row(dense_row, dense_b)


def dense_endpoints(step, pres):
    """Replay a step over every dense entry, zeros included."""
    start = [F(v) for v in step.spectator]
    end = list(start)
    for lam, (r, s) in zip(step.lambdas, pres.symmetric_relations):
        rv, sv = pres.vector(r), pres.vector(s)
        for i in range(len(start)):
            start[i] += lam * rv[i]
            end[i] += lam * sv[i]
    return start, end


nonnegative = st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 6), st.integers(1, 7)))


@given(st.data())
def test_endpoints_match_a_dense_replay(data):
    ng = data.draw(st.integers(1, 4))
    gens = [f"g{i}" for i in range(ng)]

    def side():
        cuts = data.draw(st.lists(st.integers(0, 3), min_size=ng, max_size=ng))
        if not any(cuts):
            cuts[data.draw(st.integers(0, ng - 1))] = 1
        return _dist(gens, [F(c, sum(cuts)) for c in cuts])

    pres = Presentation(gens, [(side(), side()) for _ in range(data.draw(st.integers(0, 3)))])
    nj = len(pres.symmetric_relations)
    step = ZigZagStep(
        tuple(data.draw(st.lists(nonnegative, min_size=nj, max_size=nj))),
        tuple(data.draw(st.lists(nonnegative, min_size=ng, max_size=ng))),
    )
    assert step.endpoints(pres) == dense_endpoints(step, pres)
