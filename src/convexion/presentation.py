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
  exact LP in difference form: step i starts at p plus the net moves of
  the steps before it, and the net moves of all k steps sum to q - p, so
  the intermediate points never appear and each spectator is a slack
  that starts the simplex basis (see _zigzag_lp).  The search deepens:
  it solves at k = 1, 2, 4, ... with the last k clamped to the step
  bound, and stops at the first feasible LP.  Padding with an
  all-zero step turns a k-step zig-zag into a (k+1)-step one, so
  feasibility is monotone in k and the first feasible level decides the
  same status as one LP at the bound.
* Distinct -- witnessed by an affine invariant: a rational assignment on the
  generators whose induced affine functional is constant across every
  relation pair but differs on the two inputs.  Such functionals are
  invariant along one-step moves, so this is sound.
* Unknown -- neither certificate found within the step bound.  Completeness
  is not claimed; callers that need a decision treat Unknown as an error.

Both witness kinds replay mechanically; see verify_verdict.  A verdict's
bound is the step bound that was asked for, not the level where the
search stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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
    def _integer_columns(self):
        """Per generator x, the x-th entries of symmetric_relations in
        integer form, for _zigzag_lp: (r, r_lcm, r_minus_s, s_minus_r,
        d_lcm).  r holds the (pair index j, r_j[x] * r_lcm) of the nonzero
        r_j[x], where r_lcm is the lcm of their denominators; r_minus_s and
        s_minus_r hold r_j[x] - s_j[x] and its negation, both times d_lcm,
        the lcm of the differences' denominators.  Built from the
        relations' supports, so a generator in no relation costs nothing
        and gets empty entries with lcm 1."""
        index = self._gen_index
        r_at = [{} for _ in self.generators]
        s_at = [{} for _ in self.generators]
        for j, (lhs, rhs) in enumerate(self.symmetric_relations):
            for g, w in lhs.items():
                r_at[index[g]][j] = w
            for g, w in rhs.items():
                s_at[index[g]][j] = w
        columns = []
        for r, s in zip(r_at, s_at):
            diff = {
                j: d for j in sorted(r.keys() | s.keys()) if (d := r.get(j, 0) - s.get(j, 0))
            }
            r_lcm, r_ints = _integer_entries(r)
            d_lcm, d_ints = _integer_entries(diff)
            s_minus_r = tuple((j, -v) for j, v in d_ints)
            columns.append((r_ints, r_lcm, d_ints, s_minus_r, d_lcm))
        return tuple(columns)

    @cached_property
    def _difference_rows(self):
        """One row per relation: coefficients of lhs - rhs over generators.
        An invariant is a vector orthogonal to every row (invariant_basis
        and the Distinct replay in verify_verdict)."""
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
    bound: int = DEFAULT_STEP_BOUND  # the requested step bound

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
    """Decide equality in the quotient, with a replayable certificate.

    Distinct is tried first, through the invariant basis.  Then the
    zig-zag LP is solved at k = 1, 2, 4, ..., step_bound; the first
    feasible level gives Equal with its path (at most k steps), and if
    every level is infeasible the verdict is Unknown.  The verdict's bound
    is step_bound, whichever level decided it.
    """
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

    if pres.relations:
        for k in _deepening_levels(step_bound):
            steps = _zigzag_search(pres, e1.rep, e2.rep, k)
            if steps is not None:
                return EqualityVerdict("equal", path=steps, bound=step_bound)
    return EqualityVerdict("unknown", bound=step_bound)


def _deepening_levels(bound):
    """The step counts eq solves at: 1, 2, 4, ..., the last clamped to bound."""
    k = 1
    while k < bound:
        yield k
        k *= 2
    if bound >= 1:
        yield bound


def _zigzag_search(pres, p, q, k):
    """Feasibility of a k-step zig-zag as one exact LP; the steps, or None."""
    pv = pres.vector(p.rep if isinstance(p, PresentedElement) else p)
    qv = pres.vector(q.rep if isinstance(q, PresentedElement) else q)
    rows, rhs, ncols = _zigzag_lp(pres, pv, qv, k)
    sol = linalg.solve_eq_nonneg(rows, rhs, ncols)
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

    Variables per step i: lambda_i over the symmetrized pairs (r_j, s_j)
    and a spectator t_i over the generators, all >= 0.  Step i moves
    R lambda_i + t_i to S lambda_i + t_i, a net move of (S - R) lambda_i,
    so its start is p plus the net moves before it.  The rows, in
    difference form:

        (i, x):  r lambda_i + sum_{i' < i} (r - s) lambda_i' + t_i = p[x]
        x:       sum_i (s - r) lambda_i = q[x] - p[x]

    The feasible set is that of chaining each step's end to the next
    step's start.  Each t_i[x] is a unit column with rhs p[x] >= 0, so
    linalg.solve_eq_nonneg starts it basic, and phase 1 needs artificials
    on the last ng rows only.  Returns (rows, rhs, ncols).

    Rows are linalg.solve_eq_nonneg's integer rows: {column: int} dicts
    of nonzeros with an int rhs, read off the cached
    Presentation._integer_columns.  Each row is the rational row times
    the lcm of its denominators and its rhs's, negated when the rhs is
    negative.  That scale is part of the pivot rule (the solver's
    docstring says why), and it is the one linalg._integer_row gives the
    dense row, so the pivots and the witnesses do not depend on how the
    rows were built.
    """
    nj = len(pres.symmetric_relations)
    ng = len(pres.generators)
    width = nj + ng
    ncols = k * width
    rows = [None] * ((k + 1) * ng)  # row (i, x) at i * ng + x
    rhs = [0] * len(rows)
    for x, (r, r_lcm, r_minus_s, s_minus_r, d_lcm) in enumerate(
        pres._integer_columns
    ):
        p = pv[x]
        scale = lcm(r_lcm, p.denominator)  # step 0 has no earlier moves
        f = scale // r_lcm
        row = {j: v * f for j, v in r}
        row[nj + x] = scale
        rows[x] = row
        rhs[x] = p.numerator * (scale // p.denominator)
        if k > 1:  # steps 1 .. k-1 share one scale and add (r - s) blocks
            scale = lcm(r_lcm, d_lcm, p.denominator)
            f = scale // r_lcm
            r_scaled = [(j, v * f) for j, v in r]
            f = scale // d_lcm
            b = p.numerator * (scale // p.denominator)
            earlier = {}
            for i in range(1, k):
                a = i * width
                for j, v in r_minus_s:
                    earlier[a - width + j] = v * f
                row = earlier.copy()
                for j, v in r_scaled:
                    row[a + j] = v
                row[a + nj + x] = scale
                rows[i * ng + x] = row
                rhs[i * ng + x] = b
        v = qv[x] - p  # the net moves sum to q - p
        scale = lcm(d_lcm, v.denominator)
        if v < 0:
            scale = -scale
        f = scale // d_lcm
        row = {}
        for a in range(0, ncols, width):
            for j, w in s_minus_r:
                row[a + j] = w * f
        rows[k * ng + x] = row
        rhs[k * ng + x] = v.numerator * (scale // v.denominator)
    return rows, rhs, ncols


def _integer_entries(weights):
    """The lcm of a {j: Fraction} map's denominators, and its (j, weight
    times that lcm) pairs as ints."""
    scale = lcm(*(w.denominator for w in weights.values()))
    return scale, tuple(
        (j, w.numerator * (scale // w.denominator)) for j, w in weights.items()
    )


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
        if any(linalg.dot(vec, row) != 0 for row in pres._difference_rows):
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
