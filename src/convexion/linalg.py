"""Exact rational linear algebra: phase-1 simplex feasibility for systems
A x = b, x >= 0, and reduced row echelon / nullspace computations.

No floating point, and no Fraction arithmetic inside the loops.  The
systems the equality engine builds are block-banded and almost all zero,
so rows are stored sparsely as {column: int} dicts, each input row scaled
by the lcm of its denominators.  The simplex and the row reduction share
one fraction-free elimination step (_eliminate): it touches only the rows
holding the pivot column and divides each by its content (the gcd of its
entries and rhs), which keeps the integers small.  The pivot row is never
normalised, so each stored row is a nonzero multiple of the row a
normalising Fraction tableau would hold.  Fractions are built only for
the answers.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_eq_nonneg(rows, rhs):
    """Find x >= 0 with A x = b exactly; return a list of Fractions or None.

    rows: list of coefficient lists (each of equal length) of ints or
    Fractions, rhs: list.  Phase-1 simplex; Dantzig pricing (most negative
    reduced cost, lowest column on ties) for speed, falling back to Bland's
    rule after a degenerate stall so termination stays guaranteed.  The
    ratio test takes the smallest ratio, the lowest basic variable on ties.
    These choices fix the vertex returned, and so the witnesses built from
    it.

    The tableau is integer.  Each row starts as the input row times the
    lcm of its denominators (negated when the rhs is negative), and the
    entering column's entry is always positive, so every stored row, the
    reduced-cost row included, stays a positive multiple of the row a
    normalising Fraction tableau would hold.  The signs of the reduced
    costs, their order and each ratio b_i / a_ic are those of that
    tableau, so the pivots are the same; ratios are compared by
    cross-multiplication.  A pivot is degenerate (a stall) when the
    leaving row's rhs is 0: the objective moves by
    cost[enter] * b[leave] / a, with cost[enter] < 0 and a > 0.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # Tableau rows 0..m-1 are the constraints, with columns n.. for the
    # artificials; row m is the reduced-cost row of the phase-1 objective
    # (minimize the sum of artificials), and b[m] is the negated objective.
    tab, b = [], []
    cost, objective = {}, 0
    for i, (row, v) in enumerate(zip(rows, rhs)):
        r, v = _integer_row(row, v)
        for j, a in r.items():
            cost[j] = cost.get(j, 0) - a
        objective -= v
        r[n + i] = 1
        tab.append(r)
        b.append(v)
    tab.append({j: c for j, c in cost.items() if c})
    b.append(objective)
    cols = [set() for _ in range(n + m)]
    for i, r in enumerate(tab):
        for j in r:
            cols[j].add(i)
    cost = tab[m]
    basis = [n + i for i in range(m)]

    bland = False
    stall = 0
    while b[m] != 0:  # zero once every artificial is at zero: feasible
        enter = -1
        if bland:
            enter = min((j for j, c in cost.items() if c < 0), default=-1)
        else:
            most_negative = 0
            for j, c in cost.items():
                if c < most_negative or (c == most_negative and j < enter):
                    most_negative = c
                    enter = j
        if enter < 0:
            break
        leave = -1
        for i in cols[enter]:
            if i == m:
                continue
            coef = tab[i][enter]
            if coef > 0:
                if leave >= 0:
                    # b[i] / coef against b[leave] / tab[leave][enter]
                    d = b[i] * tab[leave][enter] - b[leave] * coef
                    if d > 0 or (d == 0 and basis[i] > basis[leave]):
                        continue
                leave = i
        if leave < 0:
            # Unbounded phase-1 cannot happen (objective bounded below by 0),
            # but guard against malformed input.
            return None
        if b[leave] == 0:
            stall += 1
            if stall > 24:
                bland = True  # anti-cycling from here on
        else:
            stall = 0
        _eliminate(tab, b, cols, leave, enter)
        basis[leave] = enter

    if b[m] != 0:
        return None

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(b[i], tab[i][var])
    # Artificials stuck in the basis sit at value 0; x already solves A x = b.
    return x


def _eliminate(rows, rhs, cols, r, c):
    """Clear column c from every row but r, fraction-free: each such row
    becomes p * row - row[c] * rows[r], with p = rows[r][c], and is then
    divided together with its rhs by their gcd, signed like p so the row
    keeps its sign.  rows are {column: int} dicts without zeros; cols maps
    each column to the set of rows holding it and is kept in step; rhs is
    the right-hand side list, updated alongside."""
    prow = rows[r]
    p = prow[c]
    pb = rhs[r]
    others = cols[c] - {r}
    cols[c] = {r}
    for i in others:
        row = rows[i]
        f = row.pop(c)  # p * row - f * prow clears column c exactly
        if p != 1:
            for j, w in row.items():
                row[j] = p * w
        for j, v in prow.items():
            if j == c:
                continue
            w = row.get(j)
            if w is None:
                row[j] = -f * v
                cols[j].add(i)
            else:
                w -= f * v
                if w:
                    row[j] = w
                else:
                    del row[j]
                    cols[j].discard(i)
        bi = p * rhs[i] - f * pb
        g = gcd(bi, *row.values())
        if p < 0:
            g = -g
        if g != 1 and g != 0:
            for j, w in row.items():
                row[j] = w // g
            bi //= g
        rhs[i] = bi


def _integer_row(row, v=0):
    """A dense row and its rhs v times the lcm of their denominators,
    negated when v < 0: the row as a {column: int} dict, and the int rhs.

    This is the one place a row is scaled.  The scale is part of the pivot
    rule: the phase-1 objective sums the scaled rows, so each row's scale
    is its weight in the reduced costs, and a row scaled anywhere else
    would change the pivots and the witnesses.  Zeros are skipped by a
    truth test in C (itertools.compress), which is fastest on int 0."""
    nonzero = list(compress(range(len(row)), row))
    scale = lcm(v.denominator, *(row[j].denominator for j in nonzero))
    if v < 0:
        scale = -scale
    return (
        {j: row[j].numerator * (scale // row[j].denominator) for j in nonzero},
        v.numerator * (scale // v.denominator),
    )


def _rref(rows, ncols):
    """Reduced row echelon form as {column: Fraction} dict rows, in pivot
    order, and the pivot columns.  The form is unique, so the row that
    supplies each pivot is free to choose: the sparsest, to keep fill-in
    down."""
    mat = [_integer_row(row)[0] for row in rows]
    cols = defaultdict(set)
    for i, row in enumerate(mat):
        for j in row:
            cols[j].add(i)
    zeros = [0] * len(mat)
    unused = set(range(len(mat)))
    order, pivots = [], []
    for c in range(ncols):
        candidates = cols[c] & unused
        if not candidates:
            continue
        r = min(candidates, key=lambda i: (len(mat[i]), i))
        _eliminate(mat, zeros, cols, r, c)
        unused.discard(r)
        order.append(r)
        pivots.append(c)
        if not unused:
            break
    reduced = []
    for r, c in zip(order, pivots):
        p = mat[r][c]
        reduced.append({j: Fraction(v, p) for j, v in mat[r].items()})
    return reduced, pivots


def rref(rows, ncols=None):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    reduced, pivots = _rref(rows, ncols)
    return [[row.get(j, ZERO) for j in range(ncols)] for row in reduced], pivots


def nullspace(rows, ncols):
    """Basis of {v : A v = 0} for the row matrix A with ncols columns."""
    reduced, pivots = _rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, pc in zip(reduced, pivots):
            v[pc] = -row.get(fc, ZERO)
        basis.append(v)
    return basis


def in_row_space(rows, v):
    """Whether v lies in the span of the given rows."""
    rows = list(rows)
    return len(_rref(rows + [v], len(v))[1]) == len(_rref(rows, len(v))[1])


def dot(u, v):
    """Exact inner product; zero terms are skipped, not multiplied."""
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)
