"""Exact rational feasibility and nullspace computations."""

import hashlib
import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from convexion import linalg, presentation
from convexion.distribution import FiniteDistribution, delta
from convexion.presentation import Presentation, ZigZagStep
from convexion.tensor import universal_map

F = Fraction


def dot(u, v):
    """The exact inner product of two vectors."""
    return sum(a * b for a, b in zip(u, v))


def dense(pres, dist):
    """A distribution's dense Fraction vector over the generators."""
    return [dist.weight(g) for g in pres.generators]


def echelon(rows, ncols):
    """linalg.sparse_echelon of dense rows (ints or Fractions), each scaled
    to ints by linalg._integer_row, as nullspace scales them."""
    return linalg.sparse_echelon([linalg._integer_row(row)[0] for row in rows], ncols)


def check_solution(rows, rhs, x):
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b


def integer_lp(rows, rhs):
    """Dense rows and their rhs as solve_eq_nonneg's arguments: each row
    scaled by linalg._integer_row (the lcm of its denominators, negated
    for a negative rhs), the scale the equality engine gives its rows."""
    scaled = [linalg._integer_row(row, v) for row, v in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    return [row for row, _ in scaled], [v for _, v in scaled], ncols


def solve_dense(rows, rhs):
    return linalg.solve_eq_nonneg(*integer_lp(rows, rhs))


def test_simple_feasible_system():
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    rhs = [F(1), F(0)]
    x = solve_dense(rows, rhs)
    assert x == [F(1, 2), F(1, 2)]


def test_infeasible_by_sign():
    # x1 + x2 = -1 has no nonnegative solution.
    assert solve_dense([[F(1), F(1)]], [F(-1)]) is None


def test_infeasible_inconsistent():
    rows = [[F(1), F(0)], [F(1), F(0)]]
    rhs = [F(1), F(2)]
    assert solve_dense(rows, rhs) is None


def test_degenerate_zero_rows():
    rows = [[F(0), F(0)]]
    assert solve_dense(rows, [F(0)]) == [F(0), F(0)]
    assert solve_dense(rows, [F(1)]) is None


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
        x = solve_dense(rows, rhs)
        assert x is not None
        check_solution(rows, rhs, x)
    else:
        rhs = [F(data.draw(st.integers(-3, 3))) for _ in range(m)]
        x = solve_dense(rows, rhs)
        if x is not None:
            check_solution(rows, rhs, x)


def test_nullspace_and_membership():
    rows = [[F(1), F(-1), F(0)], [F(0), F(1), F(-1)]]
    basis = linalg.nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert dot(row, v) == 0


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
            assert dot(row, v) == 0
    reduced, pivots = echelon(rows, n)
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
    x = solve_dense(rows, rhs)
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


def rref_of_echelon(rows, ncols):
    """The RREF read off echelon: each row divided by its pivot."""
    reduced, pivots = echelon(rows, ncols)
    return [[F(row.get(j, 0), row[pc]) for j in range(ncols)] for row, pc in zip(reduced, pivots)], pivots


def test_rref_with_negative_pivots():
    rows = [[F(-2, 3), F(1), F(0)], [F(0), F(-5, 7), F(3)], [F(-1), F(0), F(1, 2)]]
    assert rref_of_echelon(rows, 3) == naive_rref(rows, 3)
    assert rref_of_echelon([[F(-3), F(6), F(-9, 2)]], 3) == ([[F(1), F(-2), F(3, 2)]], [0])


@given(st.data())
def test_echelon_is_the_integer_form_of_the_rref(data):
    # each row is ints, zero at every other row's pivot, and divided by its
    # pivot entry it is the RREF's row; nullspace reads its basis off it
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    rows = _rational_matrix(data, m, n)
    reduced, pivots = echelon(rows, n)
    expected, expected_pivots = naive_rref(rows, n)
    assert pivots == expected_pivots
    for row, pc in zip(reduced, pivots):
        assert all(type(v) is int and v for v in row.values())
        assert all(q not in row for q in pivots if q != pc)
    assert rref_of_echelon(rows, n)[0] == expected
    free = [c for c in range(n) if c not in pivots]
    basis = [[F(c == fc) for c in range(n)] for fc in free]
    for vec, fc in zip(basis, free):
        for row, pc in zip(expected, pivots):
            vec[pc] = -row[fc]
    assert linalg.nullspace(rows, n) == basis


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
# The pivot rule fixes which vertex the simplex returns, so a change here
# changes witnesses.  The corpus is the chained form of the zig-zag LP
# (dense_zigzag_lp): it has no singleton columns, so the solver starts it
# from the all-artificial basis, exactly as before the slack start basis.
# Each row is scaled by _integer_row (integer_lp), as the engine scales
# its own rows.
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
                (dense(pres, r), dense(pres, s)) for r, s in pres.symmetric_relations
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
    """Chained zig-zag systems of small random presentations at bounds 1-4:
    the target is a rewrite of the start within the bound (feasible), a
    longer rewrite, or an unrelated point."""
    return [dense_zigzag_lp(*case) for case in zigzag_cases(seed, size)]


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
        x = solve_dense(rows, rhs)
        if x is not None:
            check_solution(rows, rhs, x)
        outputs.append(x)
    assert sum(x is None for x in outputs) not in (0, len(outputs))
    assert _outputs_digest(outputs) == ZIGZAG_DIGEST


# -- the LP rows and the replay against their dense oracles ------------------------------


def _dense_relation_vectors(pres):
    """The symmetrized pairs as dense vectors: (r_j over j, s_j over j)."""
    pairs = [(dense(pres, r), dense(pres, s)) for r, s in pres.symmetric_relations]
    return [rv for rv, _ in pairs], [sv for _, sv in pairs]


def dense_zigzag_lp(pres, pv, qv, k):
    """The chained zig-zag LP as dense Fraction rows, one cell at a time:
    step 1 starts at p, each step's end is the next step's start, and step
    k ends at q.  The builder that the difference form replaced; its
    solutions are the reference for the difference form's."""
    rvec, svec = _dense_relation_vectors(pres)
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


def dense_difference_lp(pres, pv, qv, k):
    """The difference-form zig-zag LP as dense Fraction rows, one cell at a
    time: row (i, x) is r lambda_i + sum_{i' < i} (r - s) lambda_i' + t_i =
    p[x], and row x of the last block is sum_i (s - r) lambda_i = q[x] - p[x]."""
    rvec, svec = _dense_relation_vectors(pres)
    nj = len(rvec)
    ng = len(pres.generators)
    width = nj + ng
    ncols = k * width
    rows, rhs = [], []
    for i in range(k):
        for x in range(ng):
            row = [0] * ncols
            for j in range(nj):
                for earlier in range(i):
                    row[earlier * width + j] = rvec[j][x] - svec[j][x]
                row[i * width + j] = rvec[j][x]
            row[i * width + nj + x] = 1
            rows.append(row)
            rhs.append(pv[x])
    for x in range(ng):
        row = [0] * ncols
        for i in range(k):
            for j in range(nj):
                row[i * width + j] = svec[j][x] - rvec[j][x]
        rows.append(row)
        rhs.append(qv[x] - pv[x])
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
            yield pres, dense(pres, start.rep), dense(pres, end), k


def scaled_zigzag_lp(pres, p, q, k):
    """The chained oracle's rows in solve_eq_nonneg's integer form, from
    _zigzag_lp's arguments (the distributions p and q)."""
    return integer_lp(*dense_zigzag_lp(pres, dense(pres, p), dense(pres, q), k))


def zigzag_lp_matching_the_dense_builder(pres, pv, qv, k):
    """_zigzag_lp's system, after checking that each of its rows and rhs
    is exactly _integer_row of the cell-by-cell difference-form oracle's."""
    p, q = pres.dist_from_vector(pv), pres.dist_from_vector(qv)
    rows, rhs, ncols = presentation._zigzag_lp(pres, p, q, k)
    dense_rows, dense_rhs = dense_difference_lp(pres, pv, qv, k)
    assert len(rows) == len(rhs) == len(dense_rows) == (k + 1) * len(pres.generators)
    assert ncols == len(dense_rows[0])
    for row, v, dense_row, dense_v in zip(rows, rhs, dense_rows, dense_rhs):
        assert (row, v) == linalg._integer_row(dense_row, dense_v)
        assert type(v) is int and all(type(a) is int for a in row.values())
    return rows, rhs, ncols


def test_zigzag_lp_rows_match_the_dense_builder():
    cases = zigzag_cases() + list(_tensor_cases())
    assert len(cases) == 128
    for case in cases:
        zigzag_lp_matching_the_dense_builder(*case)


# The segment relation m ~ 1/2 a + 1/2 b plus a generator z in no relation;
# the pairs are j = 0: (m, a/2 + b/2) and j = 1: (a/2 + b/2, m), so nj = 2
# and step i's columns start at 6 i.  p[a] = 1/3 has a denominator that
# does not divide a's column lcm 2, and q - p is 1/4, 1/4, -1/2, 0.
SEGMENT_Z = Presentation(
    ["a", "b", "m", "z"], [(delta("m"), FiniteDistribution({"a": F(1, 2), "b": F(1, 2)}))]
)
P_Z = [F(1, 3), F(0), F(1, 2), F(1, 6)]
Q_Z = [F(7, 12), F(1, 4), F(0), F(1, 6)]


def test_a_generator_in_no_relation_has_empty_columns():
    assert SEGMENT_Z._integer_columns[3] == ((), 1, (), 1)
    rows, rhs, _ = zigzag_lp_matching_the_dense_builder(SEGMENT_Z, P_Z, Q_Z, 2)
    # z's start rows hold its spectator only, scaled by p[z]'s denominator
    assert (rows[3], rhs[3]) == ({5: 6}, 1)
    assert (rows[4 + 3], rhs[4 + 3]) == ({11: 6}, 1)


def test_rhs_denominators_outside_the_column_lcm():
    assert SEGMENT_Z._integer_columns[0] == (((1, 1),), 2, ((0, -1), (1, 1)), 2)
    rows, rhs, _ = zigzag_lp_matching_the_dense_builder(SEGMENT_Z, P_Z, Q_Z, 2)
    # a's rows: scale lcm(2, 3) = 6
    assert (rows[0], rhs[0]) == ({1: 3, 2: 6}, 2)
    assert (rows[4], rhs[4]) == ({0: -3, 1: 3, 7: 3, 8: 6}, 2)


def test_negative_and_zero_net_move_rows():
    rows, rhs, ncols = zigzag_lp_matching_the_dense_builder(SEGMENT_Z, P_Z, Q_Z, 2)
    last = 2 * 4
    assert (rows[last], rhs[last]) == ({0: 2, 1: -2, 6: 2, 7: -2}, 1)  # a: +1/4
    # m: q - p = -1/2, so the row is negated: scale -2
    assert (rows[last + 2], rhs[last + 2]) == ({0: 2, 1: -2, 6: 2, 7: -2}, 1)
    assert (rows[last + 3], rhs[last + 3]) == ({}, 0)  # z: q - p = 0
    x = linalg.solve_eq_nonneg(rows, rhs, ncols)
    check_solution(*dense_difference_lp(SEGMENT_Z, P_Z, Q_Z, 2), x)
    p = SEGMENT_Z.element(SEGMENT_Z.dist_from_vector(P_Z))
    q = SEGMENT_Z.element(SEGMENT_Z.dist_from_vector(Q_Z))
    verdict = presentation.eq(p, q, 2)
    assert verdict.is_equal and presentation.verify_verdict(verdict, p, q)


def test_difference_form_solutions_satisfy_the_chained_rows():
    # Same variables, same feasible set: each difference-form solution
    # solves the chained system, and its steps chain from p to q.
    feasible = 0
    for pres, pv, qv, k in zigzag_cases() + list(_tensor_cases()):
        chained_rows, chained_rhs = dense_zigzag_lp(pres, pv, qv, k)
        p, q = pres.dist_from_vector(pv), pres.dist_from_vector(qv)
        x = linalg.solve_eq_nonneg(*presentation._zigzag_lp(pres, p, q, k))
        assert (x is None) == (solve_dense(chained_rows, chained_rhs) is None)
        if x is None:
            continue
        feasible += 1
        check_solution(chained_rows, chained_rhs, x)
        steps = presentation._zigzag_search(pres, p, q, k)
        assert len(steps) <= k
        current = list(pv)
        for step in steps:
            start, end = fraction_endpoints(step, pres)
            assert start == current
            current = end
        assert current == list(qv)
    assert feasible > 0


# -- the slack start basis ---------------------------------------------------------------


@contextmanager
def recorded_pivots(monkeypatch):
    """A list that gets, per _eliminate call (a simplex pivot or an RREF
    step) made inside the block, whether it was degenerate: rhs 0 in the
    pivot row."""
    stalls = []
    eliminate = linalg._eliminate

    def spy(rows, rhs, cols, r, c):
        stalls.append(rhs[r] == 0)
        return eliminate(rows, rhs, cols, r, c)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_eliminate", spy)
        yield stalls


def pivots(monkeypatch, rows, rhs):
    """solve_eq_nonneg's answer and its number of pivots."""
    with recorded_pivots(monkeypatch) as stalls:
        x = solve_dense(rows, rhs)
    return x, len(stalls)


def test_singleton_columns_start_basic(monkeypatch):
    # Columns 1 and 2 are unit columns with rhs >= 0: the start basis is
    # feasible, so no pivot is made.  From artificials, Dantzig pricing
    # would enter column 0 and return (2, 0, 1) instead.
    rows = [[F(1), F(1), F(0)], [F(1), F(0), F(1)]]
    assert pivots(monkeypatch, rows, [F(2), F(3)]) == ([F(0), F(2), F(3)], 0)
    # A scaled singleton starts basic at b_i / a_ij.
    rows = [[F(1), F(3), F(0)], [F(1), F(0), F(1, 2)]]
    assert pivots(monkeypatch, rows, [F(2), F(3)]) == ([F(0), F(2, 3), F(6)], 0)


def test_lowest_singleton_column_wins_a_row(monkeypatch):
    rows = [[F(2), F(1)]]
    assert pivots(monkeypatch, rows, [F(4)]) == ([F(2), F(0)], 0)


def test_negative_singleton_gets_an_artificial(monkeypatch):
    # Column 1's only entry is -1 in a row with rhs 1: not a start column,
    # so row 0 gets an artificial and column 0 enters in one pivot.
    rows = [[F(1), F(-1), F(0)], [F(1), F(0), F(1)]]
    assert pivots(monkeypatch, rows, [F(1), F(2)]) == ([F(1), F(0), F(1)], 1)
    # Negated for its negative rhs, the row's singleton turns positive.
    assert pivots(monkeypatch, rows, [F(-1), F(2)]) == ([F(0), F(1), F(2)], 0)


def test_zero_rhs_rows(monkeypatch):
    # A zero rhs keeps the row's sign: a positive singleton (column 1)
    # starts basic at 0, a negative one leaves row 0 an artificial at 0,
    # and either way the start is feasible.
    rows = [[F(1), F(1), F(0)], [F(1), F(0), F(1)]]
    assert pivots(monkeypatch, rows, [F(0), F(1)]) == ([F(0), F(0), F(1)], 0)
    rows = [[F(1), F(-1), F(0)], [F(1), F(0), F(1)]]
    assert pivots(monkeypatch, rows, [F(0), F(1)]) == ([F(0), F(0), F(1)], 0)
    # Slack rows take part in the ratio test: with x0 + x1 = 0 the entering
    # x0 cannot rise, so x0 = 1 is infeasible.
    rows = [[F(1), F(1), F(0)], [F(1), F(0), F(1)], [F(1), F(0), F(0)]]
    assert solve_dense(rows, [F(0), F(2), F(1)]) is None
    # With rhs 1 instead, x0 ties rows 0 and 2 in the ratio test; the lower
    # basic variable (row 0's slack x1, not row 2's artificial) leaves.
    assert pivots(monkeypatch, rows, [F(1), F(2), F(1)]) == ([F(1), F(0), F(1)], 1)


def test_integer_rows_are_read_not_modified():
    # A negative rhs negates its row: -x0 = -2 is x0 = 2, and x0 + x1 = -1
    # has no nonnegative solution.  The caller's rows and rhs stay as given.
    rows, rhs = [{0: -1}, {0: 1, 1: 1, 2: 1}], [-2, 3]
    assert linalg.solve_eq_nonneg(rows, rhs, 3) == [F(2), F(1), F(0)]
    assert rows == [{0: -1}, {0: 1, 1: 1, 2: 1}] and rhs == [-2, 3]
    assert linalg.solve_eq_nonneg([{0: 1, 1: 1}], [-1], 2) is None


def textbook_update(row, b, prow, pb, p, f, ncols):
    """p * row - f * prow with its rhs, divided by their gcd signed like p
    (left alone when all zero), as a zero-free {column: int} dict, the
    rhs and the gcd."""
    new = [p * row.get(j, 0) - f * prow.get(j, 0) for j in range(ncols)]
    nb = p * b - f * pb
    content = gcd(nb, *new)
    if content:
        g = content if p > 0 else -content
        new, nb = [v // g for v in new], nb // g
    return {j: v for j, v in enumerate(new) if v}, nb, content


ENTRIES = [-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]


def test_eliminate_stores_the_primitive_textbook_row():
    # Seeded sparse integer tableaux: every row updated by a pivot is the
    # primitive form of p * row - f * prow, signed like p, whatever p and f
    # have in common; the pinned zig-zag outputs rely on that form.
    rng = random.Random(20260)
    seen = {"negative pivot": 0, "positive pivot": 0, "p divides f": 0, "p not dividing f": 0,
            "fill-in": 0, "cancellation": 0, "content > 1": 0}
    for _ in range(400):
        m, n = rng.randint(2, 6), rng.randint(2, 7)
        rows = [{j: rng.choice(ENTRIES) for j in range(n) if rng.random() < 0.5} for _ in range(m)]
        rhs = [rng.randint(-9, 9) for _ in range(m)]
        cols = [set() for _ in range(n)]
        for i, row in enumerate(rows):
            for j in row:
                cols[j].add(i)
        nonempty = [j for j in range(n) if cols[j]]
        if not nonempty:
            continue
        c = rng.choice(nonempty)
        r = rng.choice(sorted(cols[c]))
        before, before_rhs = [dict(row) for row in rows], list(rhs)
        linalg._eliminate(rows, rhs, cols, r, c)
        prow, pb = before[r], before_rhs[r]
        p = prow[c]
        for i, (row, b) in enumerate(zip(before, before_rhs)):
            if i == r or c not in row:
                assert rows[i] == row and rhs[i] == b
                continue
            f = row[c]
            expected, expected_b, content = textbook_update(row, b, prow, pb, p, f, n)
            assert rows[i] == expected and rhs[i] == expected_b
            seen["negative pivot" if p < 0 else "positive pivot"] += 1
            seen["p divides f" if f % p == 0 else "p not dividing f"] += 1
            seen["fill-in"] += any(j not in row for j in rows[i])
            seen["cancellation"] += any(j not in rows[i] for j in row if j != c and j in prow)
            seen["content > 1"] += content > 1
        assert cols == [{i for i, row in enumerate(rows) if j in row} for j in range(n)]
    assert all(seen.values()), seen


def fraction_endpoints(step, pres):
    """ZigZagStep.integer_endpoints as dense Fraction lists over the generators."""
    start, end, scale = step.integer_endpoints(pres)
    return tuple([F(point.get(g, 0), scale) for g in pres.generators] for point in (start, end))


def dense_endpoints(step, pres):
    """Replay a step over every dense entry, zeros included."""
    start = [F(v) for v in step.spectator]
    end = list(start)
    for lam, (r, s) in zip(step.lambdas, pres.symmetric_relations):
        rv, sv = dense(pres, r), dense(pres, s)
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
    assert fraction_endpoints(step, pres) == dense_endpoints(step, pres)
