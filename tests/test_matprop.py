"""PROP of matrices, the convex sub-PROP, the quasiconvexity operad, and
matrix algebras on presented convex sets and rational vectors."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexion.distribution import FiniteDistribution, delta
from convexion.jsonio import encode_matrix
from convexion.errors import (
    ArityMismatch,
    DimensionMismatch,
    NotConvexMatrix,
    SizeMismatch,
)
from convexion.matprop import (
    QConvOp,
    RMatrix,
    algebra_apply,
    compose,
    convex_matrices,
    convex_rows,
    direct_sum,
    is_convex_matrix,
    linear_apply,
    permute,
    qconv_compose,
)
from convexion.presentation import Presentation, eq
from convexion.semiring import BOOLEAN, RATIONAL

F = Fraction


def rmx(rows):
    return RMatrix([[F(str(v)) for v in row] for row in rows])


@st.composite
def convex_matrix_strategy(draw, max_dim=4, max_den=4):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    rows = []
    for _ in range(n):
        cuts = [draw(st.integers(0, max_den)) for _ in range(m)]
        if sum(cuts) == 0:
            cuts[draw(st.integers(0, m - 1))] = 1
        total = sum(cuts)
        rows.append([F(c, total) for c in cuts])
    return RMatrix(rows)


# -- is_convex_matrix ----------------------------------------------------------


def test_identity_is_convex():
    assert is_convex_matrix(RMatrix.identity(3))


def test_zero_row_matrix_is_vacuously_convex():
    assert is_convex_matrix(RMatrix.empty(0, 5))


def test_deficient_row_sum_is_not_convex():
    assert not is_convex_matrix(rmx([["1/2", "1/3"]]))


def test_boolean_convexity_is_row_disjunction():
    m = RMatrix([[True, False], [False, True]], semiring=BOOLEAN)
    assert is_convex_matrix(m)
    assert not is_convex_matrix(RMatrix([[False, False]], semiring=BOOLEAN))


# -- compose -------------------------------------------------------------------


def test_compose_identity():
    m = rmx([["1/2", "1/2"], ["1/3", "2/3"]])
    assert compose(RMatrix.identity(2), m) == m
    assert compose(m, RMatrix.identity(2)) == m


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(rmx([["1"]]), rmx([["1", "0"], ["0", "1"]]))


def test_column_of_ones_absorbs_scalars():
    c2 = RMatrix.column_of_ones(2)
    one = rmx([["1"]])
    assert compose(c2, one) == c2


@settings(max_examples=60)
@given(convex_matrix_strategy(), st.data())
def test_compose_preserves_convexity(m, data):
    k = m.cols
    rows = []
    for _ in range(k):
        cuts = [data.draw(st.integers(0, 3)) for _ in range(3)]
        if sum(cuts) == 0:
            cuts[0] = 1
        rows.append([F(c, sum(cuts)) for c in cuts])
    n = RMatrix(rows)
    assert is_convex_matrix(compose(m, n))


def test_compose_matches_brute_force_product():
    rng = random.Random(2)
    for _ in range(20):
        a = [[F(rng.randint(0, 5), 3) for _ in range(3)] for _ in range(2)]
        b = [[F(rng.randint(0, 5), 4) for _ in range(2)] for _ in range(3)]
        got = compose(RMatrix(a), RMatrix(b))
        for i in range(2):
            for j in range(2):
                assert got.entries[i][j] == sum(
                    (a[i][k] * b[k][j] for k in range(3)), F(0)
                )


def test_vertical_composition_associative():
    rng = random.Random(3)
    mats = []
    dims = [2, 3, 2, 4]
    for d_out, d_in in zip(dims, dims[1:]):
        mats.append(
            RMatrix(
                [
                    [F(rng.randint(0, 3), 3) for _ in range(d_in)]
                    for _ in range(d_out)
                ]
            )
        )
    a, b, c = mats
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


# -- direct_sum ------------------------------------------------------------------


def test_direct_sum_unit():
    m = rmx([["1/2", "1/2"]])
    assert direct_sum(m, RMatrix.empty()) == m
    assert direct_sum(RMatrix.empty(), m) == m


def test_direct_sum_of_ones_is_identity():
    assert direct_sum(rmx([["1"]]), rmx([["1"]])) == RMatrix.identity(2)


def test_interchange_law_on_random_quadruples():
    rng = random.Random(5)
    for _ in range(25):
        dims = [rng.randint(1, 3) for _ in range(6)]
        p = _random_matrix(rng, dims[0], dims[1])
        r = _random_matrix(rng, dims[1], dims[2])
        q = _random_matrix(rng, dims[3], dims[4])
        s = _random_matrix(rng, dims[4], dims[5])
        lhs = compose(direct_sum(p, q), direct_sum(r, s))
        rhs = direct_sum(compose(p, r), compose(q, s))
        assert lhs == rhs


def _random_matrix(rng, rows, cols):
    return RMatrix(
        [[F(rng.randint(0, 4), 4) for _ in range(cols)] for _ in range(rows)]
    )


def test_horizontal_composition_associative_with_empty_unit():
    rng = random.Random(6)
    a = _random_matrix(rng, 2, 1)
    b = _random_matrix(rng, 1, 2)
    c = _random_matrix(rng, 2, 2)
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))


# -- permute ---------------------------------------------------------------------


def test_identity_permutations():
    m = rmx([["1/2", "1/2"], ["0", "1"]])
    assert permute((0, 1), m, (0, 1)) == m


def test_permute_composes_as_permutation_product():
    rng = random.Random(7)
    m = _random_matrix(rng, 3, 3)
    tau1, tau2 = (2, 0, 1), (1, 2, 0)
    sig1, sig2 = (0, 2, 1), (2, 1, 0)
    twice = permute(tau2, permute(tau1, m, sig1), sig2)
    combined_tau = tuple(tau1[tau2[i]] for i in range(3))
    combined_sig = tuple(sig1[sig2[j]] for j in range(3))
    assert twice == permute(combined_tau, m, combined_sig)


def test_row_permutation_preserves_convexity():
    m = rmx([["1/2", "1/2"], ["1/3", "2/3"]])
    assert is_convex_matrix(permute((1, 0), m, (0, 1)))


def test_permute_size_mismatch():
    with pytest.raises(SizeMismatch):
        permute((0,), rmx([["1", "0"], ["0", "1"]]), (0, 1))


def test_bisymmetry_compatibility():
    rng = random.Random(8)
    m = _random_matrix(rng, 2, 3)
    n = _random_matrix(rng, 3, 2)
    tau, sigma = (1, 0), (1, 0)
    ident3 = (0, 1, 2)
    lhs = permute(tau, compose(m, n), sigma)
    rhs = compose(permute(tau, m, ident3), permute(ident3, n, sigma))
    assert lhs == rhs


# -- integer form against the payload loops it replaced ------------------------
#
# Before matrices kept an integer form, compose, direct_sum, permute and
# is_convex_matrix were these loops over payloads; they stay here as the
# oracle for both semirings.  The semirings keep no payload arithmetic, so
# the oracle has its own table: zero, one, add, mul.

ARITHMETIC = {
    RATIONAL: (F(0), F(1), operator.add, operator.mul),
    BOOLEAN: (False, True, operator.or_, operator.and_),
}


def payload_compose(a, b, cols, sr):
    zero, _, add, mul = ARITHMETIC[sr]
    out = []
    for i in range(len(a)):
        row = []
        for j in range(cols):
            acc = zero
            for k in range(len(b)):
                acc = add(acc, mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def payload_direct_sum(a, a_cols, b, b_cols, sr):
    zero = ARITHMETIC[sr][0]
    return tuple(tuple(row) + (zero,) * b_cols for row in a) + tuple(
        (zero,) * a_cols + tuple(row) for row in b
    )


def payload_permute(tau, a, sigma):
    return tuple(tuple(a[tau[i]][sigma[j]] for j in range(len(sigma))) for i in range(len(tau)))


def payload_is_convex(a, sr):
    zero, one, add, _ = ARITHMETIC[sr]
    for row in a:
        total = zero
        for v in row:
            total = add(total, v)
        if total != one:
            return False
    return True


def payload_matrices(sr, rows, cols):
    """Rows of payloads of sr, often zero, so all-zero rows and matrices
    come up."""
    if sr is BOOLEAN:
        value = st.booleans()
    else:
        value = st.one_of(st.just(F(0)), st.fractions(0, 2, max_denominator=6))
    row = st.lists(value, min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


def assert_matches(m, rows, cols, entries, sr):
    """m is the rows x cols matrix of the payloads entries, in canonical
    integer form, and shows them as the payload matrix did."""
    zero = ARITHMETIC[sr][0]
    assert (m.rows, m.cols, m.semiring) == (rows, cols, sr)
    assert m.entries == entries
    assert all(type(v) is type(zero) for row in m.entries for v in row)
    # the same matrix from literals is equal, with an equal hash
    literals = [[sr.format(v) for v in row] for row in entries]
    rebuilt = RMatrix(literals, rows=rows, cols=cols, semiring=sr)
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert (m._nums, m._den) == (rebuilt._nums, rebuilt._den)
    body = "; ".join(" ".join(row) for row in literals)
    assert repr(m) == f"RMatrix({rows}x{cols}: {body})"
    encoded = {"rows": rows, "cols": cols, "entries": literals}
    if sr is BOOLEAN:
        encoded["semiring"] = "boolean"
    assert encode_matrix(m) == encoded
    # the integer form holds exactly the nonzero cells
    cells = {(i, j): v for i, row in enumerate(entries) for j, v in enumerate(row) if v}
    assert set(m._nums) == set(cells) and all(n > 0 for n in m._nums.values())
    if sr is BOOLEAN:
        assert m._den == 1 and set(m._nums.values()) <= {1}
    else:
        assert m._den == math.lcm(*(v.denominator for v in cells.values()))
        assert math.gcd(m._den, *m._nums.values()) == 1
        assert all(F(n, m._den) == cells[cell] for cell, n in m._nums.items())


@settings(max_examples=150)
@given(st.data())
def test_operations_match_payload_loops(data):
    sr = data.draw(st.sampled_from([RATIONAL, BOOLEAN]))
    n, k, m = (data.draw(st.integers(0, 3)) for _ in range(3))
    a = data.draw(payload_matrices(sr, n, k))
    b = data.draw(payload_matrices(sr, k, m))
    ma = RMatrix(a, rows=n, cols=k, semiring=sr)
    mb = RMatrix(b, rows=k, cols=m, semiring=sr)
    assert_matches(ma, n, k, a, sr)
    assert_matches(compose(ma, mb), n, m, payload_compose(a, b, m, sr), sr)
    assert_matches(direct_sum(ma, mb), n + k, k + m, payload_direct_sum(a, k, b, m, sr), sr)
    tau = data.draw(st.permutations(range(n)))
    sigma = data.draw(st.permutations(range(k)))
    assert_matches(permute(tau, ma, sigma), n, k, payload_permute(tau, a, sigma), sr)
    assert is_convex_matrix(ma) == payload_is_convex(a, sr)


def test_boolean_cell_reached_by_two_paths_reads_one():
    row = RMatrix([["1", "1"]], semiring=BOOLEAN)
    col = RMatrix([["1"], ["1"]], semiring=BOOLEAN)
    out = compose(row, col)
    assert out == RMatrix.identity(1, BOOLEAN) and out._nums == {(0, 0): 1}
    assert out.entries == ((True,),) and repr(out) == "RMatrix(1x1: 1)"


def test_integer_form_is_the_only_stored_state():
    assert RMatrix.__slots__ == ("rows", "cols", "semiring", "_nums", "_den")
    m = rmx([["1/2", "1/2"], ["0", "1"]])
    assert not hasattr(m, "__dict__")
    assert (m._nums, m._den) == ({(0, 0): 1, (0, 1): 1, (1, 1): 2}, 2)
    assert RMatrix.empty(2, 3).entries == ((F(0),) * 3,) * 2


# -- quasiconvexity operad --------------------------------------------------------


def test_qconv_unit_composition():
    z = QConvOp([F(1, 3), F(2, 3)])
    assert qconv_compose(z, [QConvOp.unit(), QConvOp.unit()]) == z


def test_qconv_flattening_example():
    z = QConvOp([F(1, 2), F(1, 2)])
    xs = [QConvOp([F(1)]), QConvOp([F(1, 3), F(2, 3)])]
    assert qconv_compose(z, xs) == QConvOp([F(1, 2), F(1, 6), F(1, 3)])


def test_qconv_output_always_convex():
    rng = random.Random(9)
    for _ in range(30):
        z = _random_op(rng, rng.randint(1, 3))
        xs = [_random_op(rng, rng.randint(1, 3)) for _ in range(z.arity)]
        out = qconv_compose(z, xs)
        assert sum(out.weights) == 1
        assert out.arity == sum(x.arity for x in xs)


def test_qconv_arity_mismatch():
    with pytest.raises(ArityMismatch):
        qconv_compose(QConvOp([F(1, 2), F(1, 2)]), [QConvOp.unit()])


def _random_op(rng, arity):
    cuts = [rng.randint(0, 4) for _ in range(arity)]
    if sum(cuts) == 0:
        cuts[0] = 1
    return QConvOp([F(c, sum(cuts)) for c in cuts])


def test_qconv_operad_associativity():
    # (z . xs) . (ys flattened) == z . (xs . ys blockwise)
    rng = random.Random(10)
    for _ in range(15):
        z = _random_op(rng, 2)
        xs = [_random_op(rng, rng.randint(1, 2)) for _ in range(2)]
        ys = [
            [_random_op(rng, rng.randint(1, 2)) for _ in range(x.arity)]
            for x in xs
        ]
        flat_ys = [op for block in ys for op in block]
        lhs = qconv_compose(qconv_compose(z, xs), flat_ys)
        rhs = qconv_compose(
            z, [qconv_compose(x, block) for x, block in zip(xs, ys)]
        )
        assert lhs == rhs


# -- matrix algebras ---------------------------------------------------------------


SPLIT = Presentation(
    ["a", "b", "c"],
    [(delta("a"), FiniteDistribution({"b": F(1, 2), "c": F(1, 2)}))],
)


def test_identity_matrix_acts_as_identity():
    xs = (SPLIT.delta("a"), SPLIT.delta("b"))
    assert algebra_apply(SPLIT, RMatrix.identity(2), xs) == xs


def test_column_of_ones_duplicates():
    x = SPLIT.element(FiniteDistribution({"b": F(1, 3), "c": F(2, 3)}))
    out = algebra_apply(SPLIT, RMatrix.column_of_ones(2), (x,))
    assert out == (x, x)


def test_algebra_apply_requires_convex_matrix():
    with pytest.raises(NotConvexMatrix):
        algebra_apply(SPLIT, rmx([["1/2", "1/3"]]), (SPLIT.delta("a"), SPLIT.delta("b")))


def test_algebra_apply_functorial_up_to_eq():
    rng = random.Random(11)
    for _ in range(10):
        m = _random_convex(rng, 2, 2)
        n = _random_convex(rng, 2, 2)
        xs = tuple(
            SPLIT.element(_random_dist(rng, SPLIT.generators)) for _ in range(2)
        )
        direct = algebra_apply(SPLIT, compose(m, n), xs)
        staged = algebra_apply(SPLIT, m, algebra_apply(SPLIT, n, xs))
        for u, v in zip(direct, staged):
            assert eq(u, v, 2).is_equal


def test_algebra_apply_respects_direct_sum():
    rng = random.Random(12)
    m = _random_convex(rng, 1, 2)
    n = _random_convex(rng, 2, 1)
    xs = tuple(
        SPLIT.element(_random_dist(rng, SPLIT.generators)) for _ in range(3)
    )
    combined = algebra_apply(SPLIT, direct_sum(m, n), xs)
    left = algebra_apply(SPLIT, m, xs[:2])
    right = algebra_apply(SPLIT, n, xs[2:])
    assert combined == left + right


def _random_convex(rng, rows, cols):
    out = []
    for _ in range(rows):
        cuts = [rng.randint(0, 3) for _ in range(cols)]
        if sum(cuts) == 0:
            cuts[0] = 1
        out.append([F(c, sum(cuts)) for c in cuts])
    return RMatrix(out)


def _random_dist(rng, gens):
    cuts = [rng.randint(0, 3) for _ in gens]
    if sum(cuts) == 0:
        cuts[0] = 1
    total = sum(cuts)
    return FiniteDistribution({g: F(c, total) for g, c in zip(gens, cuts) if c})


def test_linear_apply_vector_space_action():
    m = rmx([["1", "2"], ["0", "1"]])
    v1, v2 = (F(1), F(0)), (F(0), F(1))
    out = linear_apply(m, (v1, v2))
    assert out == ((F(1), F(2)), (F(0), F(1)))
    # respects composition
    n = rmx([["3", "0"], ["1", "1"]])
    assert linear_apply(compose(m, n), (v1, v2)) == linear_apply(
        m, linear_apply(n, (v1, v2))
    )


# -- Conv(1, n) is a single operation ----------------------------------------------


def test_single_input_convex_matrices_are_columns_of_ones():
    for n in range(5):
        found = [m for m in convex_matrices(n, 1, 4)]
        assert found == [RMatrix.column_of_ones(n)]


def test_convex_rows_enumeration_small():
    rows = convex_rows(2, 2)
    assert set(rows) == {
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1, 2), F(1, 2)),
    }
