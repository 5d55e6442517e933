"""Exact rational linear algebra: phase-1 simplex feasibility for systems
A x = b, x >= 0, and reduced row echelon / nullspace computations.

No floating point, and no Fraction arithmetic inside the loops.  Rows are
stored sparsely as {column: int} dicts of nonzeros, and both the simplex
and the row reduction (sparse_echelon) take them in that form, already
scaled to integers by the caller: the equality engine builds its zig-zag
LP and its difference rows that way, and nullspace scales dense rows of
ints or Fractions, each by the lcm of its denominators (_integer_row).
Both share one fraction-free elimination step (_eliminate): it touches
only the rows holding the pivot column, cancels the gcd of the pivot and
the row's entry in that column before the update (so a row whose entry
the pivot divides is not scaled at all), and divides each updated row by
its content (the gcd of its entries and rhs), which keeps the integers
small.  The pivot row is never normalised, so each stored row is a
nonzero multiple of the row a normalising Fraction tableau would hold.
Fractions are built only for the answers: null_vector reads them off
sparse_echelon's integer form, which the equality engine caches.  The
simplex starts from the slack columns a system offers (unit-like columns,
such as the spectators of the equality engine's zig-zag LP) and adds
artificials only on the rows without one.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_eq_nonneg(rows, rhs, ncols):
    """Find x >= 0 with A x = b exactly; return a list of Fractions or None.

    rows: one {column: int} dict per row of A, holding its nonzero
    entries, with columns in range(ncols); rhs: one int per row.  The
    arguments are not modified.  Phase-1 simplex; Dantzig pricing (most
    negative reduced cost, lowest column on ties) for speed, falling back
    to Bland's rule after a degenerate stall so termination stays
    guaranteed.  The ratio test takes the smallest ratio, the lowest basic
    variable on ties.  These choices fix the vertex returned, and so the
    witnesses built from it.

    The rows are taken as they are, and their scale is part of the pivot
    rule: the phase-1 objective sums the rows that get an artificial, so
    each row's scale is its weight in the reduced costs.  Rescaling a row
    by a positive factor leaves the feasible set and the answer's
    existence alone but may change the pivots, the vertex and so the
    witnesses.  The equality engine scales each row by the lcm of its
    denominators, negated when the rhs is negative (what _integer_row
    does to a dense Fraction row).  A row whose rhs is negative is
    negated here, which keeps its scale's size.

    The start basis is a slack basis where the system has one (Bixby
    1992): a column whose only nonzero sits in one row, and is positive
    once that row is signed so its rhs is >= 0, starts basic in that row
    at value b_i / a_ij (the lowest such column when a row has several).
    Only the remaining rows get an artificial, and the phase-1 objective
    sums those.  A system without such columns starts from the all-
    artificial basis.

    The entering column's entry is always positive, so every stored row,
    the reduced-cost row included, stays a positive multiple of the row a
    normalising Fraction tableau of the given rows would hold.  The signs
    of the reduced costs, their order and each ratio b_i / a_ic are those
    of that tableau, so the pivots are the same; ratios are compared by
    cross-multiplication.  A pivot is degenerate (a stall) when the
    leaving row's rhs is 0: the objective moves by
    cost[enter] * b[leave] / a, with cost[enter] < 0 and a > 0.
    """
    m = len(rows)
    n = ncols
    # Tableau rows 0..m-1 are the constraints, with column n + i for row
    # i's artificial (if it has one); row m is the reduced-cost row of the
    # phase-1 objective (minimize the sum of artificials), and b[m] is the
    # negated objective.
    tab, b = [], []
    for row, v in zip(rows, rhs):
        if v < 0:
            tab.append({j: -a for j, a in row.items()})
            b.append(-v)
        else:
            tab.append(dict(row))
            b.append(v)
    cols = [set() for _ in range(n + m)]
    for i, r in enumerate(tab):
        for j in r:
            cols[j].add(i)
    basis = [n + i for i in range(m)]
    for j in range(n):
        if len(cols[j]) == 1:
            (i,) = cols[j]
            if basis[i] >= n and tab[i][j] > 0:
                basis[i] = j
    cost, objective = {}, 0
    for i, r in enumerate(tab):
        if basis[i] < n:
            continue
        for j, a in r.items():
            cost[j] = cost.get(j, 0) - a
        objective -= b[i]
        r[n + i] = 1
        cols[n + i].add(i)
    cost = {j: c for j, c in cost.items() if c}
    for j in cost:
        cols[j].add(m)
    tab.append(cost)
    b.append(objective)

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
    """Clear column c from every row but r, fraction-free (Bareiss 1968,
    with the common factor cancelled first): with p = rows[r][c], f =
    row[c] and g = gcd(f, p) signed like p, each such row becomes
    q * row - f' * rows[r], with q = p / g > 0 and f' = f / g, and is then
    divided together with its rhs by their gcd.  That is the primitive
    form of p * row - f * rows[r], signed like p, so the row keeps its
    sign; when p divides f, q = 1 and the row is not scaled at all.  rows
    are {column: int} dicts without zeros; cols maps each column to the
    set of rows holding it and is kept in step; rhs is the right-hand side
    list, updated alongside."""
    prow = rows[r]
    p = prow[c]
    pb = rhs[r]
    others = cols[c] - {r}
    cols[c] = {r}
    for i in others:
        row = rows[i]
        f = row.pop(c)
        g = gcd(f, p)
        if p < 0:
            g = -g
        q = p // g
        f //= g  # q * row - f * prow clears column c exactly
        if q != 1:
            for j, w in row.items():
                row[j] = q * w
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
        bi = q * rhs[i] - f * pb
        g = gcd(bi, *row.values())
        if g > 1:
            for j, w in row.items():
                row[j] = w // g
            bi //= g
        rhs[i] = bi


def _integer_row(row, v=0):
    """A dense row and its rhs v times the lcm of their denominators,
    negated when v < 0: the row as a {column: int} dict, and the int rhs.
    nullspace scales its input rows with it (the RREF does not depend on
    the scale).  Zeros are skipped by a truth test in C (itertools.compress),
    which is fastest on int 0."""
    nonzero = list(compress(range(len(row)), row))
    scale = lcm(v.denominator, *(row[j].denominator for j in nonzero))
    if v < 0:
        scale = -scale
    return (
        {j: row[j].numerator * (scale // row[j].denominator) for j in nonzero},
        v.numerator * (scale // v.denominator),
    )


def sparse_echelon(mat, ncols):
    """The fraction-free Gauss-Jordan form of a row matrix in integer
    form ({column: int} dicts without zeros, with columns in
    range(ncols), reduced in place): {column: int} dict rows in pivot
    order, each zero at every other row's pivot column, and the pivot
    columns.  Each row is a nonzero multiple of the reduced row echelon
    form's row, which is unique, so the row that supplies each pivot is
    free to choose: the sparsest, to keep fill-in down."""
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
    return [mat[r] for r in order], pivots


def null_vector(reduced, pivots, fc, ncols):
    """The nullspace basis vector of free column fc of an echelon form, as
    ncols Fractions: 1 at fc, -row[fc] / row[pc] at each pivot column pc."""
    v = [ZERO] * ncols
    v[fc] = ONE
    for row, pc in zip(reduced, pivots):
        v[pc] = Fraction(-row.get(fc, 0), row[pc])
    return v


def nullspace(rows, ncols):
    """Basis of {v : A v = 0} for the row matrix A with ncols columns,
    given as dense rows of ints or Fractions: the null_vector of each free
    column of the sparse_echelon of the rows scaled to ints by
    _integer_row, in order."""
    reduced, pivots = sparse_echelon([_integer_row(row)[0] for row in rows], ncols)
    return [null_vector(reduced, pivots, fc, ncols) for fc in range(ncols) if fc not in pivots]
