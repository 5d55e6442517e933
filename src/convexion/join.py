"""The join of convex sets: the coproduct, with elements canonically
represented as weighted tuples.

A point of the indexed join X_1 * ... * X_n is a convex weight vector with
one part per nonzero slot: "w_1 of x_1, ..., w_n of x_n".  Parts of
zero-weight slots are dropped.  Mixing renormalizes slotwise: for
sum_j beta_j p_j the new weight of slot i is w_i = sum_j beta_j w_ji, and
its part mixes the parts x_ji with weights beta_j w_ji / w_i; empty slots
never divide by zero.

The binary join X * Y is the 2-factor indexed join, read as the triple
[alpha, x, y]: "alpha of x, 1-alpha of y".  Factors are presentations.
Coefficients are rational throughout: the triple representation needs
1 - alpha.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import (
    MissingPart,
    NotConvexVector,
    PresentationMismatch,
    TargetMismatch,
)
from .presentation import (
    ConvexMap,
    PresentedElement,
    Presentation,
    quotient_mix,
)
from .record import Frozen

ONE = Fraction(1)
ZERO = Fraction(0)


class IndexedJoinElement(Frozen):
    __slots__ = _fields = ("space", "weights", "parts")

    def __init__(self, space: IndexedJoinSpace, weights: tuple, parts: tuple):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "parts", parts)


class JoinElement(IndexedJoinElement):
    """A point of a binary join, read as [alpha, x, y]."""

    __slots__ = ()

    @property
    def alpha(self) -> Fraction:
        return self.weights[0]

    @property
    def x_part(self):
        return self.parts[0]

    @property
    def y_part(self):
        return self.parts[1]

    def __repr__(self):
        return f"[{self.alpha}, {self.x_part!r}, {self.y_part!r}]"


class IndexedJoinSpace(Frozen):
    """Join of finitely many presentations; points carry a weight vector and
    one part per nonzero slot."""

    __slots__ = _fields = ("factors",)
    _element = IndexedJoinElement

    def __init__(self, factors: tuple):
        self._set(factors)

    def point(self, weights, parts) -> IndexedJoinElement:
        ws = tuple(Fraction(w) for w in weights)
        if len(ws) != len(self.factors) or len(parts) != len(self.factors):
            raise NotConvexVector("weight/part count does not match the factors")
        if sum(ws) != 1 or any(w < 0 for w in ws):
            raise NotConvexVector("weights are not a convex vector")
        kept = []
        for i, (w, part, pres) in enumerate(zip(ws, parts, self.factors)):
            if w == 0:
                kept.append(None)
                continue
            if part is None:
                raise MissingPart(f"part {i} required when its weight is nonzero")
            if not isinstance(part, PresentedElement) or part.presentation != pres:
                raise PresentationMismatch(f"part {i} does not belong to its factor")
            kept.append(part)
        return self._element(self, ws, tuple(kept))

    def mix(self, beta, pts: Sequence[IndexedJoinElement]) -> IndexedJoinElement:
        """Structure map of the join on a formal mixture of points."""
        if any(p.space != self for p in pts):
            raise PresentationMismatch("join points live in different joins")
        if len(beta) != len(pts):
            raise NotConvexVector(f"{len(beta)} coefficients for {len(pts)} points")
        coeffs = [Fraction(b) for b in beta]
        if sum(coeffs) != 1 or any(b < 0 for b in coeffs):
            raise NotConvexVector("coefficients are not a convex vector")
        new_w, new_parts = [], []
        for i in range(len(self.factors)):
            w = sum((b * p.weights[i] for b, p in zip(coeffs, pts)), ZERO)
            new_w.append(w)
            if w == 0:
                new_parts.append(None)
                continue
            ws, es = [], []
            for b, p in zip(coeffs, pts):
                c = b * p.weights[i]
                if c != 0:
                    ws.append(c / w)
                    es.append(p.parts[i])
            new_parts.append(quotient_mix(ws, es))
        return self._element(self, tuple(new_w), tuple(new_parts))


class JoinSpace(IndexedJoinSpace):
    """The join X * Y of two presentations: the 2-factor indexed join."""

    __slots__ = ()
    _element = JoinElement

    def __init__(self, x_factor: Presentation, y_factor: Presentation):
        super().__init__((x_factor, y_factor))

    @property
    def x_factor(self) -> Presentation:
        return self.factors[0]

    @property
    def y_factor(self) -> Presentation:
        return self.factors[1]

    def point(self, alpha, x=None, y=None) -> JoinElement:
        alpha = Fraction(alpha)
        return super().point((alpha, ONE - alpha), (x, y))

    def inject_x(self, x) -> JoinElement:
        return self.point(ONE, x=x)

    def inject_y(self, y) -> JoinElement:
        return self.point(ZERO, y=y)


def join_point(alpha, x=None, y=None, space: JoinSpace | None = None) -> JoinElement:
    """Canonicalized triple.  The space is inferred from the parts when both
    are present; endpoints need an explicit space (the absent factor is
    otherwise unknowable)."""
    if space is None:
        if not isinstance(x, PresentedElement) or not isinstance(y, PresentedElement):
            raise MissingPart(
                "an explicit JoinSpace is required unless both parts are present"
            )
        space = JoinSpace(x.presentation, y.presentation)
    return space.point(alpha, x, y)


def join_mix(beta, pts: Sequence[JoinElement]) -> JoinElement:
    """Structure map of the join on a formal mixture of triples."""
    if not pts:
        raise PresentationMismatch("no join points given")
    return pts[0].space.mix(beta, pts)


class JoinCopairMap(Frozen):
    """The map X * Y -> Z determined by convex maps f: X -> Z, g: Y -> Z;
    [alpha, x, y] evaluates to alpha f(x) + (1 - alpha) g(y)."""

    __slots__ = _fields = ("space", "f", "g")

    def __init__(self, space: JoinSpace, f: ConvexMap, g: ConvexMap):
        self._set(space, f, g)

    @property
    def target(self) -> Presentation:
        return self.f.tgt

    def __call__(self, pt: JoinElement) -> PresentedElement:
        if pt.space != self.space:
            raise PresentationMismatch("point is not in this join")
        if pt.alpha == 1:
            return self.f(pt.x_part)
        if pt.alpha == 0:
            return self.g(pt.y_part)
        return quotient_mix(
            [pt.alpha, ONE - pt.alpha],
            [self.f(pt.x_part), self.g(pt.y_part)],
        )


def copair(f: ConvexMap, g: ConvexMap) -> JoinCopairMap:
    """Universal map out of the coproduct."""
    if f.tgt != g.tgt:
        raise TargetMismatch("copaired maps must share a target")
    return JoinCopairMap(JoinSpace(f.src, g.src), f, g)
