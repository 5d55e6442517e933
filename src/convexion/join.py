"""The join of convex sets: the coproduct, as a presentation.

A coproduct of presented convex sets is presented by the disjoint union of
the factors' generators and relations (Fritz, "Convex spaces I",
arXiv:0903.5522).  So the indexed join X_1 * ... * X_n is a Presentation
on the slot-tagged generators (i, g), g a generator of X_i, with each
factor's relation pairs pushed forward along g -> (i, g).  A point is the
class of sum_i w_i (i, x_i): it mixes by quotient_mix, through the
distribution monad, and compares by same_class or eq.  Relation moves keep
each slot's mass, so slot i's weight is its mass; its part is the slot's
restriction, renormalized, and a zero-mass slot has no part.

The binary join X * Y is the 2-factor indexed join, read as the triple
[alpha, x, y]: "alpha of x, 1-alpha of y".  copair(f, g) is the convex map
out of it that sends (0, x) to f(x) and (1, y) to g(y).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .distribution import FiniteDistribution, convex_combine
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
from .semiring import RATIONAL


def _tagged(slot: int, dist: FiniteDistribution) -> FiniteDistribution:
    """dist pushed forward along g -> (slot, g), in its integer form."""
    nums = {(slot, g): n for g, n in dist._nums.items()}
    return FiniteDistribution._from_numerators(nums, dist._den, RATIONAL)


class IndexedJoinElement(PresentedElement):
    """A point of an indexed join: the class of sum_i w_i (i, x_i)."""

    __slots__ = ()

    @property
    def space(self) -> IndexedJoinSpace:
        return self.presentation

    @property
    def weights(self) -> tuple:
        masses = [0] * len(self.presentation.factors)
        for (i, _), n in self.rep._nums.items():
            masses[i] += n
        return tuple(Fraction(m, self.rep._den) for m in masses)

    @property
    def parts(self) -> tuple:
        return tuple(self._part(i) for i in range(len(self.presentation.factors)))

    def _part(self, slot: int) -> PresentedElement | None:
        """The slot's restriction, renormalized; None when it has no mass."""
        nums = {g: n for (i, g), n in self.rep._nums.items() if i == slot}
        if not nums:
            return None
        rep = FiniteDistribution._from_numerators(nums, sum(nums.values()), RATIONAL)
        return PresentedElement(self.presentation.factors[slot], rep)


class JoinElement(IndexedJoinElement):
    """A point of a binary join, read as [alpha, x, y]."""

    __slots__ = ()

    @property
    def alpha(self) -> Fraction:
        return self.weights[0]

    @property
    def x_part(self):
        return self._part(0)

    @property
    def y_part(self):
        return self._part(1)

    def __repr__(self):
        return f"[{self.alpha}, {self.x_part!r}, {self.y_part!r}]"


class IndexedJoinSpace(Presentation):
    """Join of finitely many presentations, on the slot-tagged generators."""

    _element = IndexedJoinElement

    def __init__(self, factors: tuple):
        self.factors = tuple(factors)
        super().__init__(
            [(i, g) for i, factor in enumerate(self.factors) for g in factor.generators],
            [
                (_tagged(i, lhs), _tagged(i, rhs))
                for i, factor in enumerate(self.factors)
                for lhs, rhs in factor.relations
            ],
        )

    def point(self, weights, parts) -> IndexedJoinElement:
        """The point sum_i weights[i] (i, parts[i]); the part of a
        zero-weight slot is ignored."""
        ws = tuple(Fraction(w) for w in weights)
        if len(ws) != len(self.factors) or len(parts) != len(self.factors):
            raise NotConvexVector("weight/part count does not match the factors")
        if sum(ws) != 1 or any(w < 0 for w in ws):
            raise NotConvexVector("weights are not a convex vector")
        reps = []
        for i, (w, part, pres) in enumerate(zip(ws, parts, self.factors)):
            if w == 0:
                continue
            if part is None:
                raise MissingPart(f"part {i} required when its weight is nonzero")
            if not isinstance(part, PresentedElement) or part.presentation != pres:
                raise PresentationMismatch(f"part {i} does not belong to its factor")
            reps.append(_tagged(i, part.rep))
        return self._element(self, convex_combine([w for w in ws if w], reps))

    def mix(self, beta, pts: Sequence[IndexedJoinElement]) -> IndexedJoinElement:
        """Structure map of the join on a formal mixture of points."""
        if any(p.presentation != self for p in pts):
            raise PresentationMismatch("join points live in different joins")
        return self._element(self, quotient_mix(beta, pts).rep)


class JoinSpace(IndexedJoinSpace):
    """The join X * Y of two presentations: the 2-factor indexed join."""

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
        return super().point((alpha, 1 - alpha), (x, y))

    def inject_x(self, x) -> JoinElement:
        return self.point(1, x=x)

    def inject_y(self, y) -> JoinElement:
        return self.point(0, y=y)


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


class JoinCopairMap(ConvexMap):
    """The map X * Y -> Z determined by convex maps f: X -> Z, g: Y -> Z;
    [alpha, x, y] evaluates to alpha f(x) + (1 - alpha) g(y)."""

    __slots__ = ()

    @property
    def space(self) -> JoinSpace:
        return self.src


def copair(f: ConvexMap, g: ConvexMap) -> JoinCopairMap:
    """Universal map out of the coproduct, unchecked: f and g respect the relations."""
    if f.tgt != g.tgt:
        raise TargetMismatch("copaired maps must share a target")
    assignment = {(0, x): f.on_generator(x) for x in f.src.generators}
    assignment.update({(1, y): g.on_generator(y) for y in g.src.generators})
    return JoinCopairMap(JoinSpace(f.src, g.src), f.tgt, assignment)
