"""Matrices over a semiring as a PROP, the convex sub-PROP, and the
quasiconvexity operad.

An (n, m)-operation is an n x m matrix; vertical composition is the matrix
product, horizontal composition the direct sum, and the symmetric groups
act by permuting rows and columns.  A matrix is convex when every row sums
to one (vacuously so with zero rows); convex matrices are closed under all
three structure operations.  The unary-output part of the convex PROP is
the operad of convex vectors; its composition flattens products of weights.

A matrix stores only the integer form of its weights, as a distribution
does (see ``RMatrix``): composition is one sparse product of int
numerators, the direct sum rescales both blocks to one denominator, the
symmetric action reindexes cells, and convexity asks the semiring whether
each row's numerators are normalized.

Convex matrices act on presented convex sets row-by-row through
quotient_mix; matrices over a ring act on rational vector tuples (the
linear-algebra picture, demo scale).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import lcm
from typing import TYPE_CHECKING, Sequence

from .errors import (
    ArityMismatch,
    DimensionMismatch,
    NotConvexMatrix,
    SemiringMismatch,
    SizeMismatch,
)
from .record import Frozen
from .semiring import RATIONAL, Semiring

if TYPE_CHECKING:
    from .presentation import Presentation, PresentedElement

F = Fraction


class RMatrix:
    """An n x m matrix over a semiring; 0 x m and n x 0 allowed.

    Like a distribution, a matrix stores only its integer form: ``_nums``
    maps each nonzero cell (i, j) to a positive int and ``_den`` is one
    common denominator, in the semiring's canonical form
    (``Semiring.canonical_form``), so equal matrices have equal forms.  The
    payloads that ``entries`` shows are built on demand.
    """

    __slots__ = ("rows", "cols", "semiring", "_nums", "_den")

    def __init__(self, entries, rows=None, cols=None, semiring: Semiring = RATIONAL):
        ratio = semiring.ratio
        mat = [[ratio(v) for v in row] for row in entries]
        n = len(mat)
        if rows is not None and rows != n:
            raise DimensionMismatch(f"declared {rows} rows, got {n}")
        widths = {len(r) for r in mat}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")
        m = widths.pop() if widths else cols or 0
        if cols is not None and cols != m:
            raise DimensionMismatch(f"declared {cols} cols, got {m}")
        den = lcm(*[d for row in mat for k, d in row if k])
        acc = {
            (i, j): k * (den // d)
            for i, row in enumerate(mat)
            for j, (k, d) in enumerate(row)
            if k
        }
        self.rows, self.cols = n, m
        self.semiring = semiring
        self._nums, self._den = semiring.canonical_form(acc, den)

    @classmethod
    def _trusted(cls, acc: dict, den: int, rows: int, cols: int, semiring: Semiring) -> "RMatrix":
        """Trusted constructor: ``acc`` maps cells of a rows x cols matrix
        to positive ints over ``den``; the semiring brings them into
        canonical form."""
        self = object.__new__(cls)
        self.rows, self.cols = rows, cols
        self.semiring = semiring
        self._nums, self._den = semiring.canonical_form(acc, den)
        return self

    @classmethod
    def identity(cls, n: int, semiring: Semiring = RATIONAL) -> "RMatrix":
        return cls._trusted({(i, i): 1 for i in range(n)}, 1, n, n, semiring)

    @classmethod
    def empty(cls, rows: int = 0, cols: int = 0, semiring: Semiring = RATIONAL):
        return cls._trusted({}, 1, rows, cols, semiring)

    @classmethod
    def column_of_ones(cls, n: int, semiring: Semiring = RATIONAL) -> "RMatrix":
        """The unique convex matrix with one input and n outputs."""
        return cls._trusted({(i, 0): 1 for i in range(n)}, 1, n, 1, semiring)

    @property
    def entries(self) -> tuple:
        """The rows of payloads, zeros included."""
        payload, den, get = self.semiring.payload, self._den, self._nums.get
        return tuple(
            tuple(payload(get((i, j), 0), den) for j in range(self.cols))
            for i in range(self.rows)
        )

    def __eq__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return (
            self.semiring is other.semiring
            and self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash(
            (self.semiring.name, self.rows, self.cols, self._den, frozenset(self._nums.items()))
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(self.semiring.format(v) for v in row) for row in self.entries
        )
        return f"RMatrix({self.rows}x{self.cols}: {body})"


def is_convex_matrix(m: RMatrix) -> bool:
    """Every row sums to one (true for zero rows)."""
    rows = [{} for _ in range(m.rows)]
    for (i, j), k in m._nums.items():
        rows[i][j] = k
    return all(m.semiring.is_normalized(row, m._den) for row in rows)


def compose(m: RMatrix, n: RMatrix) -> RMatrix:
    """Matrix product of an n x k with a k x m operation: integer
    numerators multiplied over m._den * n._den and summed per cell."""
    if m.semiring is not n.semiring:
        raise SemiringMismatch("matrices over different semirings")
    if m.cols != n.rows:
        raise DimensionMismatch(f"inner dimensions {m.cols} != {n.rows}")
    by_row: dict = {}
    for (k, j), b in n._nums.items():
        by_row.setdefault(k, []).append((j, b))
    acc: dict = {}
    get = acc.get
    for (i, k), a in m._nums.items():
        for j, b in by_row.get(k, ()):
            acc[i, j] = get((i, j), 0) + a * b
    return RMatrix._trusted(acc, m._den * n._den, m.rows, n.cols, m.semiring)


def direct_sum(m: RMatrix, n: RMatrix) -> RMatrix:
    """Block-diagonal horizontal composition, over the lcm of the two
    denominators."""
    if m.semiring is not n.semiring:
        raise SemiringMismatch("matrices over different semirings")
    den = lcm(m._den, n._den)
    sm, sn = den // m._den, den // n._den
    acc = {cell: k * sm for cell, k in m._nums.items()}
    for (i, j), k in n._nums.items():
        acc[i + m.rows, j + m.cols] = k * sn
    return RMatrix._trusted(acc, den, m.rows + n.rows, m.cols + n.cols, m.semiring)


def permute(tau: Sequence[int], m: RMatrix, sigma: Sequence[int]) -> RMatrix:
    """Rows reindexed by tau, columns by sigma: out[i][j] = M[tau[i]][sigma[j]]."""
    if len(tau) != m.rows or sorted(tau) != list(range(m.rows)):
        raise SizeMismatch(f"row permutation has size {len(tau)}, need {m.rows}")
    if len(sigma) != m.cols or sorted(sigma) != list(range(m.cols)):
        raise SizeMismatch(
            f"column permutation has size {len(sigma)}, need {m.cols}"
        )
    row_of = {r: i for i, r in enumerate(tau)}
    col_of = {c: j for j, c in enumerate(sigma)}
    acc = {(row_of[r], col_of[c]): k for (r, c), k in m._nums.items()}
    return RMatrix._trusted(acc, m._den, m.rows, m.cols, m.semiring)


# -- the quasiconvexity operad -------------------------------------------------


class QConvOp(Frozen):
    """A convex vector of rational weights: an m-ary mixing operation."""

    __slots__ = _fields = ("weights",)
    kind = "qconv"  # its operad, as in omonoidal.OperadOp.kind

    def __init__(self, weights):
        ws = tuple(F(w) for w in weights)
        if any(w < 0 for w in ws) or sum(ws) != 1:
            raise ArityMismatch("weights are not a convex vector")
        object.__setattr__(self, "weights", ws)

    @property
    def arity(self) -> int:
        return len(self.weights)

    @classmethod
    def unit(cls) -> "QConvOp":
        return cls((F(1),))

    def __repr__(self):
        return "QConvOp(" + ", ".join(str(w) for w in self.weights) + ")"


def qconv_compose(z: QConvOp, xs: Sequence[QConvOp]) -> QConvOp:
    """Operadic composition: the flattened products alpha_i * beta^i_j."""
    if len(xs) != z.arity:
        raise ArityMismatch(f"{len(xs)} arguments for arity {z.arity}")
    weights = []
    for a, x in zip(z.weights, xs):
        weights.extend(a * b for b in x.weights)
    return QConvOp(weights)


# -- algebras ------------------------------------------------------------------


def algebra_apply(
    a: Presentation, m: RMatrix, xs: Sequence[PresentedElement]
) -> tuple:
    """Action of a convex matrix on a presented convex set: each output is
    the quotient_mix of the inputs by the corresponding row."""
    from .presentation import PresentedElement, quotient_mix

    if m.cols != len(xs):
        raise DimensionMismatch(f"{len(xs)} inputs for {m.cols} columns")
    if not is_convex_matrix(m):
        raise NotConvexMatrix("algebra_apply needs a row-sums-one matrix")
    for x in xs:
        if not isinstance(x, PresentedElement) or x.presentation != a:
            raise DimensionMismatch("inputs must be elements of the presentation")
    return tuple(quotient_mix(list(row), list(xs)) for row in m.entries)


def linear_apply(m: RMatrix, vectors: Sequence[tuple]) -> tuple:
    """Action of a rational matrix on vectors in Q^d, componentwise linear.

    The vector-space picture of matrix algebras, at demo scale; convexity
    of m is not required here.
    """
    if m.cols != len(vectors):
        raise DimensionMismatch(f"{len(vectors)} inputs for {m.cols} columns")
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise DimensionMismatch("vectors of different dimensions")
    d = dims.pop() if dims else 0
    out = []
    for row in m.entries:
        acc = [F(0)] * d
        for coef, vec in zip(row, vectors):
            for t in range(d):
                acc[t] += coef * vec[t]
        out.append(tuple(acc))
    return tuple(out)


# -- enumeration helpers (tests, selfcheck) -------------------------------------


def convex_rows(length: int, max_denominator: int):
    """All convex vectors of the given length whose canonical denominators
    divide some q <= max_denominator."""
    seen = set()
    for q in range(1, max_denominator + 1):
        for combo in _compositions(q, length):
            vec = tuple(F(c, q) for c in combo)
            seen.add(vec)
    return sorted(seen)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def convex_matrices(rows: int, cols: int, max_denominator: int):
    """All convex rows x cols matrices with denominators <= max_denominator."""
    choices = convex_rows(cols, max_denominator)
    for rows_choice in iproduct(choices, repeat=rows):
        yield RMatrix([list(r) for r in rows_choice], rows=rows, cols=cols)
