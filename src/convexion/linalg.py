"""Exact rational linear algebra: phase-1 simplex feasibility for systems
A x = b, x >= 0, and reduced row echelon / nullspace computations.

Everything runs over fractions.Fraction; no floating point.  The systems
the equality engine builds are block-banded and almost all zero, so rows
are stored sparsely as {column: Fraction} dicts, and both the simplex and
the row reduction go through one elimination step (_eliminate) that touches
only the rows holding the pivot column.  Bland's rule guarantees termination.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_eq_nonneg(rows, rhs):
    """Find x >= 0 with A x = b exactly; return a list of Fractions or None.

    rows: list of coefficient lists (each of equal length), rhs: list.
    Phase-1 simplex; Dantzig pricing (most negative reduced cost, lowest
    column on ties) for speed, falling back to Bland's rule after a
    degenerate stall so termination stays guaranteed.  The ratio test
    takes the smallest ratio, the lowest basic variable on ties.  These
    choices fix the vertex returned, and so the witnesses built from it.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # Tableau rows 0..m-1 are the constraints, with columns n.. for the
    # artificials; row m is the reduced-cost row of the phase-1 objective
    # (minimize the sum of artificials), and b[m] is the negated objective.
    tab, b = [], []
    cost, objective = {}, ZERO
    for i, (row, v) in enumerate(zip(rows, rhs)):
        r = {j: Fraction(a) for j, a in enumerate(row) if a}
        v = Fraction(v)
        # scale to integers (keeps early pivots integral) and make b >= 0
        scale = lcm(v.denominator, *(a.denominator for a in r.values()))
        if v < 0:
            scale = -scale
        if scale != 1:
            r = {j: a * scale for j, a in r.items()}
            v *= scale
        for j, a in r.items():
            cost[j] = cost.get(j, ZERO) - a
        objective -= v
        r[n + i] = ONE
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
    last_objective = b[m]
    while b[m] != 0:  # zero once every artificial is at zero: feasible
        enter = -1
        if bland:
            enter = min((j for j, c in cost.items() if c < 0), default=-1)
        else:
            most_negative = ZERO
            for j, c in cost.items():
                if c < most_negative or (c == most_negative and j < enter):
                    most_negative = c
                    enter = j
        if enter < 0:
            break
        leave = -1
        best = None
        for i in cols[enter]:
            if i == m:
                continue
            coef = tab[i][enter]
            if coef > 0:
                ratio = b[i] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            # Unbounded phase-1 cannot happen (objective bounded below by 0),
            # but guard against malformed input.
            return None
        _eliminate(tab, b, cols, leave, enter)
        basis[leave] = enter
        if b[m] == last_objective:
            stall += 1
            if stall > 24:
                bland = True  # anti-cycling from here on
        else:
            stall = 0
            last_objective = b[m]

    if b[m] != 0:
        return None

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = b[i]
    # Artificials stuck in the basis sit at value 0; x already solves A x = b.
    return x


def _eliminate(rows, rhs, cols, r, c):
    """Scale row r to a 1 in column c, then clear column c from every other
    row.  rows are {column: value} dicts without zeros; cols maps each
    column to the set of rows holding it and is kept in step.  rhs, if not
    None, is the right-hand side list and is updated alongside."""
    prow = rows[r]
    inv = 1 / prow[c]
    if inv != 1:
        for j in prow:
            prow[j] *= inv
        if rhs is not None:
            rhs[r] *= inv
    others = cols[c] - {r}
    cols[c] = {r}
    for i in others:
        row = rows[i]
        f = -row.pop(c)  # row += f * prow clears column c exactly
        for j, v in prow.items():
            if j == c:
                continue
            w = row.get(j)
            if w is None:
                row[j] = f * v
                cols[j].add(i)
            else:
                w += f * v
                if w:
                    row[j] = w
                else:
                    del row[j]
                    cols[j].discard(i)
        if rhs is not None:
            rhs[i] += f * rhs[r]


def _rref(rows, ncols):
    """Reduced row echelon form as dict rows, in pivot order, and the
    pivot columns.  The form is unique, so the row that supplies each
    pivot is free to choose: the sparsest, to keep fill-in down."""
    mat = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in rows]
    cols = defaultdict(set)
    for i, row in enumerate(mat):
        for j in row:
            cols[j].add(i)
    unused = set(range(len(mat)))
    order, pivots = [], []
    for c in range(ncols):
        candidates = cols[c] & unused
        if not candidates:
            continue
        r = min(candidates, key=lambda i: (len(mat[i]), i))
        _eliminate(mat, None, cols, r, c)
        unused.discard(r)
        order.append(r)
        pivots.append(c)
        if not unused:
            break
    return [mat[r] for r in order], pivots


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
    return sum((a * b for a, b in zip(u, v)), ZERO)
