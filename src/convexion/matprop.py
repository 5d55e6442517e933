"""Matrices over a semiring as a PROP, the convex sub-PROP, and the
quasiconvexity operad.

An (n, m)-operation is an n x m matrix; vertical composition is the matrix
product, horizontal composition the direct sum, and the symmetric groups
act by permuting rows and columns.  A matrix is convex when every row sums
to one (vacuously so with zero rows); convex matrices are closed under all
three structure operations.  The unary-output part of the convex PROP is
the operad of convex vectors; its composition flattens products of weights.

Convex matrices act on presented convex sets row-by-row through
quotient_mix; matrices over a ring act on rational vector tuples (the
linear-algebra picture, demo scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Sequence

from .errors import (
    ArityMismatch,
    DimensionMismatch,
    NotConvexMatrix,
    SemiringMismatch,
    SizeMismatch,
)
from .presentation import PresentedElement, Presentation, quotient_mix
from .semiring import RATIONAL, Semiring

F = Fraction


class RMatrix:
    """Dense n x m matrix of semiring values; 0 x m and n x 0 allowed."""

    __slots__ = ("rows", "cols", "entries", "semiring")

    def __init__(self, entries, rows=None, cols=None, semiring: Semiring = RATIONAL):
        mat = tuple(tuple(semiring.coerce(v) for v in row) for row in entries)
        n = len(mat) if rows is None else rows
        if rows is not None and rows != len(mat):
            raise DimensionMismatch(f"declared {rows} rows, got {len(mat)}")
        widths = {len(r) for r in mat}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")
        m = widths.pop() if widths else (0 if cols is None else cols)
        if cols is not None and mat and cols != m:
            raise DimensionMismatch(f"declared {cols} cols, got {m}")
        if not mat and cols is not None:
            m = cols
        self.rows, self.cols = n, m
        self.entries = mat
        self.semiring = semiring

    @classmethod
    def identity(cls, n: int, semiring: Semiring = RATIONAL) -> "RMatrix":
        one, zero = semiring.one(), semiring.zero()
        return cls(
            [[one if i == j else zero for j in range(n)] for i in range(n)],
            semiring=semiring,
        )

    @classmethod
    def empty(cls, rows: int = 0, cols: int = 0, semiring: Semiring = RATIONAL):
        return cls([[] for _ in range(rows)], rows=rows, cols=cols, semiring=semiring)

    @classmethod
    def column_of_ones(cls, n: int, semiring: Semiring = RATIONAL) -> "RMatrix":
        """The unique convex matrix with one input and n outputs."""
        return cls([[semiring.one()] for _ in range(n)], semiring=semiring)

    def row(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return (
            self.semiring is other.semiring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.semiring.name, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.semiring.format(v) for v in row) for row in self.entries
        )
        return f"RMatrix({self.rows}x{self.cols}: {body})"


def is_convex_matrix(m: RMatrix) -> bool:
    """Every row sums to one (true for zero rows)."""
    sr = m.semiring
    return all(sr.is_one(sr.sum(row)) for row in m.entries)


def compose(m: RMatrix, n: RMatrix) -> RMatrix:
    """Matrix product of an n x k with a k x m operation."""
    if m.semiring is not n.semiring:
        raise SemiringMismatch("matrices over different semirings")
    if m.cols != n.rows:
        raise DimensionMismatch(f"inner dimensions {m.cols} != {n.rows}")
    sr = m.semiring
    out = []
    for i in range(m.rows):
        row = []
        for j in range(n.cols):
            acc = sr.zero()
            for k in range(m.cols):
                acc = sr.add(acc, sr.mul(m.entries[i][k], n.entries[k][j]))
            row.append(acc)
        out.append(row)
    return RMatrix(out, rows=m.rows, cols=n.cols, semiring=sr)


def direct_sum(m: RMatrix, n: RMatrix) -> RMatrix:
    """Block-diagonal horizontal composition."""
    if m.semiring is not n.semiring:
        raise SemiringMismatch("matrices over different semirings")
    sr = m.semiring
    zero = sr.zero()
    out = []
    for row in m.entries:
        out.append(list(row) + [zero] * n.cols)
    for row in n.entries:
        out.append([zero] * m.cols + list(row))
    return RMatrix(
        out, rows=m.rows + n.rows, cols=m.cols + n.cols, semiring=sr
    )


def permute(tau: Sequence[int], m: RMatrix, sigma: Sequence[int]) -> RMatrix:
    """Rows reindexed by tau, columns by sigma: out[i][j] = M[tau[i]][sigma[j]]."""
    if len(tau) != m.rows or sorted(tau) != list(range(m.rows)):
        raise SizeMismatch(f"row permutation has size {len(tau)}, need {m.rows}")
    if len(sigma) != m.cols or sorted(sigma) != list(range(m.cols)):
        raise SizeMismatch(
            f"column permutation has size {len(sigma)}, need {m.cols}"
        )
    out = [
        [m.entries[tau[i]][sigma[j]] for j in range(m.cols)]
        for i in range(m.rows)
    ]
    return RMatrix(out, rows=m.rows, cols=m.cols, semiring=m.semiring)


# -- the quasiconvexity operad -------------------------------------------------


@dataclass(frozen=True)
class QConvOp:
    """A convex vector of rational weights: an m-ary mixing operation."""

    weights: tuple
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
        yield RMatrix([list(r) for r in rows_choice])
