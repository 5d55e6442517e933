"""Finitely presented convex sets.

A presentation is a finite generator set plus finitely many relation pairs
of distributions over the generators; its elements are distributions over
the generators modulo the convex closure of the relations.  Equality of
elements is decided (where possible) by a three-valued engine:

* Equal   -- witnessed by a zig-zag of one-step moves.  One step from p to q
  means there are nonnegative rational multipliers lambda_j over the
  symmetrized relation pairs (r_j, s_j) and a nonnegative spectator vector t
  with p = sum_j lambda_j r_j + t and q = sum_j lambda_j s_j + t.  The
  spectator makes partial rewriting a single step.  A k-step zig-zag is one
  exact LP (intermediate points are chained and eliminated), so the decision
  runs a single feasibility problem at the step bound.
* Distinct -- witnessed by an affine invariant: a rational assignment on the
  generators whose induced affine functional is constant across every
  relation pair but differs on the two inputs.  Such functionals are
  invariant along one-step moves, so this is sound.
* Unknown -- neither certificate found within the step bound.  Completeness
  is not claimed; callers that need a decision treat Unknown as an error.

Both witness kinds replay mechanically; see verify_verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .distribution import FiniteDistribution, convex_combine, delta, element_key
from .errors import (
    InvalidInput,
    NotConvexVector,
    PresentationMismatch,
    RelationViolated,
    SemiringMismatch,
    SignatureMismatch,
    Undecided,
)
from .semiring import RATIONAL, require_rational

DEFAULT_STEP_BOUND = 4


class Presentation:
    """Generators plus relation pairs of distributions over the generators."""

    def __init__(self, generators, relations=()):
        gens = tuple(sorted(set(generators), key=element_key))
        if not gens:
            raise InvalidInput("a presentation needs at least one generator")
        gen_set = set(gens)
        rels = []
        for lhs, rhs in relations:
            for side in (lhs, rhs):
                if not isinstance(side, FiniteDistribution):
                    raise SemiringMismatch("relations must pair distributions")
                require_rational(side.semiring, "presented convex sets")
                if not side.support() <= gen_set:
                    raise PresentationMismatch(
                        f"relation distribution has support outside the "
                        f"generators: {sorted(side.support() - gen_set, key=element_key)}"
                    )
            rels.append((lhs, rhs))
        self.generators = gens
        self.relations = tuple(rels)
        self._gen_index = {g: i for i, g in enumerate(gens)}

    @classmethod
    def free(cls, generators) -> "Presentation":
        return cls(generators, ())

    @property
    def is_free(self) -> bool:
        return not self.relations

    def delta(self, generator) -> "PresentedElement":
        if generator not in self._gen_index:
            raise PresentationMismatch(f"{generator!r} is not a generator")
        return PresentedElement(self, delta(generator))

    def element(self, weights) -> "PresentedElement":
        if isinstance(weights, FiniteDistribution):
            return PresentedElement(self, weights)
        return PresentedElement(self, FiniteDistribution(weights, RATIONAL))

    def vector(self, dist: FiniteDistribution):
        """Dense coefficient vector of a distribution over the generators."""
        return [dist.weight(g) for g in self.generators]

    def dist_from_vector(self, vec) -> FiniteDistribution:
        return FiniteDistribution(
            {g: v for g, v in zip(self.generators, vec) if v != 0}, RATIONAL
        )

    # -- cached relation machinery ---------------------------------------

    @cached_property
    def symmetric_relations(self):
        """Relation pairs in both orientations, as distribution pairs."""
        out = []
        for lhs, rhs in self.relations:
            out.append((lhs, rhs))
            out.append((rhs, lhs))
        return tuple(out)

    @cached_property
    def _relation_columns(self):
        """Per generator x, the x-th entries of symmetric_relations as three
        tuples over the pairs (r_j, s_j): r, -r (negated once, here) and s,
        with zeros as int 0.  _zigzag_lp slices them into its rows."""
        columns = []
        for g in self.generators:
            r = tuple(lhs.weight(g) or 0 for lhs, _ in self.symmetric_relations)
            s = tuple(rhs.weight(g) or 0 for _, rhs in self.symmetric_relations)
            columns.append((r, tuple(-w for w in r), s))
        return tuple(columns)

    @cached_property
    def _difference_rows(self):
        """One row per relation: coefficients of lhs - rhs over generators."""
        rows = []
        for lhs, rhs in self.relations:
            rows.append(
                [lhs.weight(g) - rhs.weight(g) for g in self.generators]
            )
        return rows

    @cached_property
    def invariant_basis(self):
        """Basis of affine functionals constant on every relation pair."""
        if not self.relations:
            n = len(self.generators)
            return [
                [Fraction(int(i == j)) for j in range(n)] for i in range(n)
            ]
        return linalg.nullspace(self._difference_rows, len(self.generators))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.generators == other.generators
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.generators, self.relations))

    def __repr__(self):
        return (
            f"Presentation({len(self.generators)} generators, "
            f"{len(self.relations)} relations)"
        )


class PresentedElement:
    """An element of a presented convex set, stored by a representative."""

    __slots__ = ("presentation", "rep")

    def __init__(self, presentation: Presentation, rep: FiniteDistribution):
        require_rational(rep.semiring, "presented convex sets")
        missing = rep.support() - set(presentation.generators)
        if missing:
            raise PresentationMismatch(
                f"representative uses non-generators: {sorted(missing, key=element_key)}"
            )
        self.presentation = presentation
        self.rep = rep

    def __eq__(self, other):
        """Representative equality (cheap).  Semantic equality: use eq()."""
        if not isinstance(other, PresentedElement):
            return NotImplemented
        return self.presentation == other.presentation and self.rep == other.rep

    def __hash__(self):
        return hash((self.presentation, self.rep))

    def __repr__(self):
        return f"[{self.rep!r}]"


def _same_presentation(es: Sequence[PresentedElement]) -> Presentation:
    if not es:
        raise PresentationMismatch("no elements given")
    pres = es[0].presentation
    for e in es[1:]:
        if e.presentation != pres:
            raise PresentationMismatch("elements live in different presentations")
    return pres


def quotient_mix(alpha, es: Sequence[PresentedElement]) -> PresentedElement:
    """Convex combination in the quotient; well-defined by the quotient
    structure map, so any representative choice gives an eq-Equal result."""
    pres = _same_presentation(es)
    rep = convex_combine(alpha, [e.rep for e in es])
    return PresentedElement(pres, rep)


# -- equality engine -------------------------------------------------------


@dataclass(frozen=True)
class ZigZagStep:
    """One move: start = sum_j lambda_j r_j + t, end = sum_j lambda_j s_j + t,
    with j indexing the presentation's symmetrized relation pairs."""

    lambdas: tuple
    spectator: tuple  # dense over presentation.generators

    def endpoints(self, pres: Presentation):
        """The step's start and end as dense lists over pres.generators:
        the spectator plus the relations' nonzero weights, times lambda."""
        index = pres._gen_index
        start = [Fraction(v) for v in self.spectator]
        end = list(start)
        for lam, (r, s) in zip(self.lambdas, pres.symmetric_relations):
            if lam == 0:
                continue
            for g, w in r.items():
                start[index[g]] += lam * w
            for g, w in s.items():
                end[index[g]] += lam * w
        return start, end


@dataclass(frozen=True)
class EqualityVerdict:
    status: str  # "equal" | "distinct" | "unknown"
    path: tuple = ()  # ZigZagSteps for Equal
    invariant: tuple = ()  # dense rational assignment for Distinct
    bound: int = DEFAULT_STEP_BOUND

    @property
    def is_equal(self):
        return self.status == "equal"

    @property
    def is_distinct(self):
        return self.status == "distinct"

    @property
    def is_unknown(self):
        return self.status == "unknown"


def eq(
    e1: PresentedElement,
    e2: PresentedElement,
    step_bound: int = DEFAULT_STEP_BOUND,
) -> EqualityVerdict:
    """Decide equality in the quotient, with a replayable certificate."""
    if e1.presentation != e2.presentation:
        raise PresentationMismatch("eq needs elements of one presentation")
    if not isinstance(step_bound, int) or isinstance(step_bound, bool):
        raise InvalidInput(f"step_bound must be an int, not {step_bound!r}")
    if step_bound < 0:
        raise InvalidInput("step_bound must be >= 0")
    pres = e1.presentation
    if e1.rep == e2.rep:
        return EqualityVerdict("equal", path=(), bound=step_bound)

    diff = [
        e1.rep.weight(g) - e2.rep.weight(g) for g in pres.generators
    ]
    for vec in pres.invariant_basis:
        if linalg.dot(vec, diff) != 0:
            return EqualityVerdict(
                "distinct", invariant=tuple(vec), bound=step_bound
            )

    if step_bound >= 1 and pres.relations:
        steps = _zigzag_search(pres, e1.rep, e2.rep, step_bound)
        if steps is not None:
            return EqualityVerdict("equal", path=steps, bound=step_bound)
    return EqualityVerdict("unknown", bound=step_bound)


def _zigzag_search(pres, p, q, k):
    """Feasibility of a k-step zig-zag as one exact LP; the steps, or None."""
    pv = pres.vector(p.rep if isinstance(p, PresentedElement) else p)
    qv = pres.vector(q.rep if isinstance(q, PresentedElement) else q)
    rows, rhs = _zigzag_lp(pres, pv, qv, k)
    sol = linalg.solve_eq_nonneg(rows, rhs)
    if sol is None:
        return None
    nj = len(pres.symmetric_relations)
    width = nj + len(pres.generators)
    steps = []
    for i in range(0, k * width, width):
        lams = tuple(sol[i : i + nj])
        spect = tuple(sol[i + nj : i + width])
        if any(l != 0 for l in lams):
            steps.append(ZigZagStep(lams, spect))
    return tuple(steps)


def _zigzag_lp(pres, pv, qv, k):
    """The system A x = b, x >= 0 of a k-step zig-zag from pv to qv.

    Variables per step i: lambda_{i,j} over symmetrized pairs and a
    spectator t_i over generators, all >= 0.  Equations chain the
    intermediate points, which are then implicit.  Returns (rows, rhs).

    Rows are dense lists (the solver's interface) of int 0, +-1 and the
    relations' weights, each filled by slice assignment from the cached
    relation columns.  The rows are not scaled here: linalg._integer_row
    scales each one, and its scale is part of the pivot rule.
    """
    columns = pres._relation_columns
    nj = len(pres.symmetric_relations)
    ng = len(pres.generators)
    width = nj + ng
    ncols = k * width
    rows = []

    for x, (r, _, _) in enumerate(columns):  # step 1 start equals p
        row = [0] * ncols
        row[:nj] = r
        row[nj + x] = 1
        rows.append(row)
    for a in range(0, (k - 1) * width, width):  # end of step i = start of i+1
        b = a + width
        for x, (_, neg_r, s) in enumerate(columns):
            row = [0] * ncols
            row[a : a + nj] = s
            row[b : b + nj] = neg_r
            row[a + nj + x] = 1
            row[b + nj + x] = -1
            rows.append(row)
    last = ncols - width
    for x, (_, _, s) in enumerate(columns):  # step k end equals q
        row = [0] * ncols
        row[last : last + nj] = s
        row[last + nj + x] = 1
        rows.append(row)
    return rows, [*pv, *[0] * ((k - 1) * ng), *qv]


def verify_verdict(
    verdict: EqualityVerdict, e1: PresentedElement, e2: PresentedElement
) -> bool:
    """Machine-check a certificate against the two elements."""
    pres = e1.presentation
    if pres != e2.presentation:
        return False
    if verdict.is_equal:
        current = pres.vector(e1.rep)
        for step in verdict.path:
            if len(step.lambdas) != len(pres.symmetric_relations):
                return False
            if len(step.spectator) != len(pres.generators):
                return False
            if any(l < 0 for l in step.lambdas) or any(
                t < 0 for t in step.spectator
            ):
                return False
            start, end = step.endpoints(pres)
            if start != current:
                return False
            current = end
        return current == pres.vector(e2.rep)
    if verdict.is_distinct:
        vec = list(verdict.invariant)
        if len(vec) != len(pres.generators):
            return False
        for lhs, rhs in pres.relations:
            if linalg.dot(vec, pres.vector(lhs)) != linalg.dot(
                vec, pres.vector(rhs)
            ):
                return False
        return linalg.dot(vec, pres.vector(e1.rep)) != linalg.dot(
            vec, pres.vector(e2.rep)
        )
    return True  # Unknown asserts nothing


# -- convex maps -------------------------------------------------------------


class ConvexMap:
    """Affine extension of a generator assignment between presentations."""

    __slots__ = ("src", "tgt", "assignment", "step_bound")

    def __init__(self, src, tgt, assignment, step_bound=DEFAULT_STEP_BOUND):
        self.src = src
        self.tgt = tgt
        self.assignment = dict(assignment)
        self.step_bound = step_bound

    @classmethod
    def identity(cls, pres: Presentation) -> "ConvexMap":
        return cls(pres, pres, {g: pres.delta(g) for g in pres.generators})

    def on_generator(self, g) -> PresentedElement:
        return self.assignment[g]

    def __call__(self, e: PresentedElement) -> PresentedElement:
        if e.presentation != self.src:
            raise PresentationMismatch("element is not in the map's source")
        weights, values = [], []
        for g, w in e.rep.items():
            weights.append(w)
            values.append(self.assignment[g])
        return quotient_mix(weights, values)

    def compose(self, first: "ConvexMap") -> "ConvexMap":
        """self after first."""
        if first.tgt != self.src:
            raise SignatureMismatch("composition sources/targets do not match")
        return ConvexMap(
            first.src,
            self.tgt,
            {g: self(first.assignment[g]) for g in first.src.generators},
            self.step_bound,
        )

    def __repr__(self):
        return f"ConvexMap({self.src!r} -> {self.tgt!r})"


def induce_map(
    src: Presentation,
    tgt: Presentation,
    assignment: Mapping,
    step_bound: int = DEFAULT_STEP_BOUND,
    validate: bool = True,
) -> ConvexMap:
    """Extend a generator assignment affinely, if it respects the relations.

    Every source relation pair must map to eq-Equal elements of the target;
    a Distinct image raises RelationViolated (carrying the failing pair),
    an Unknown image raises Undecided.
    """
    values = {}
    for g in src.generators:
        if g not in assignment:
            raise PresentationMismatch(f"assignment misses generator {g!r}")
        v = assignment[g]
        if not isinstance(v, PresentedElement) or v.presentation != tgt:
            raise PresentationMismatch(
                f"assignment for {g!r} is not an element of the target"
            )
        values[g] = v
    fmap = ConvexMap(src, tgt, values, step_bound)
    if validate:
        for lhs, rhs in src.relations:
            image_l = fmap(PresentedElement(src, lhs))
            image_r = fmap(PresentedElement(src, rhs))
            verdict = eq(image_l, image_r, step_bound)
            if verdict.is_distinct:
                raise RelationViolated(
                    "assignment sends a relation pair to distinct elements",
                    pair=(lhs, rhs),
                )
            if verdict.is_unknown:
                raise Undecided(
                    f"relation image equality unknown at bound {step_bound}"
                )
    return fmap


def hom_combine(alpha, fs: Sequence[ConvexMap]) -> ConvexMap:
    """Pointwise convex combination of maps with a shared signature.

    The result respects the source relations automatically (a mixture of
    relation-respecting maps does), so no revalidation is performed.
    """
    if not fs:
        raise NotConvexVector("empty combination")
    if len(alpha) != len(fs):
        raise NotConvexVector(f"{len(alpha)} coefficients for {len(fs)} maps")
    src, tgt = fs[0].src, fs[0].tgt
    for f in fs[1:]:
        if f.src != src or f.tgt != tgt:
            raise SignatureMismatch("maps have different sources or targets")
    assignment = {
        g: quotient_mix(alpha, [f.assignment[g] for f in fs])
        for g in src.generators
    }
    return ConvexMap(src, tgt, assignment, fs[0].step_bound)


def maps_agree(
    f: ConvexMap, g: ConvexMap, elements, step_bound=DEFAULT_STEP_BOUND
):
    """Pointwise eq-agreement of two parallel maps on given elements."""
    if f.src != g.src or f.tgt != g.tgt:
        return False
    for e in elements:
        if not eq(f(e), g(e), step_bound).is_equal:
            return False
    return True
