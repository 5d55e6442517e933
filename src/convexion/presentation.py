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
  Before the first level, the LP is cut down to a face.  Let U be the
  greatest respected set (below) outside supp p and supp q, and W the
  rest of the generators.  A step from a point supported in W uses only
  pairs whose moved side lies in W (its start is lambda_j r_j + t), so
  r_j misses U, so s_j does too, and its end is supported in W again.
  So every zig-zag from p stays in W and uses only pairs inside W: it is
  a zig-zag of the restriction to W, the presentation whose generators
  are W and whose relations are the relations inside W (the stratum of
  the face in the semilattice decomposition: Romanowska & Smith, Modes,
  2002).  The search runs the restriction's own LP, which has the same
  feasibility as the full one, and widens its witness with zero
  multipliers on the other pairs and zero spectators outside W
  (_widen).  A presentation has few faces, so each restriction is built
  once: _face keeps it on the presentation under U's bitmask (bit i for
  generator i), at most FACE_CACHE_SIZE of them, and drops the oldest
  first.  Like any presentation, the restriction builds its LP columns
  on its first LP and its echelon form when same_class first reads it.
  Level 1 often needs no simplex, since its multipliers are unique (the
  unique-solution case of LP presolve: Andersen & Andersen, "Presolving
  in linear programming", Math. Programming 71 (1995)).  Let J be the
  pairs with supp r_j inside supp p and supp s_j inside supp q.  Every
  feasible point of the level-1 LP is zero off J: t = p - R lambda >= 0
  gives lambda_j r_j <= p, and q = S lambda + t >= S lambda gives
  lambda_j s_j <= q.  So the LP asks for lambda >= 0 on J with
  (S - R)_J lambda = q - p and spectator t = p - R_J lambda >= 0.  When
  the move columns s_j - r_j over J are linearly independent, that
  system has at most one solution, so the LP has at most one feasible
  point; the simplex returns a feasible point when there is one, so it
  returns that one, and solving the system exactly gives the same step.
  When the system has no solution, or its solution has a negative
  multiplier or a negative spectator entry, the LP has no feasible point
  at all, and level 1 is infeasible.  _one_step decides these cases and
  leaves the LP only the dependent ones, such as J holding both
  orientations of a relation.
* Distinct -- witnessed by one of two certificates, tried in this order.
  An affine invariant: a rational assignment on the generators whose
  induced affine functional is constant across every relation pair but
  differs on the two inputs.  Such functionals are invariant along
  one-step moves, so this is sound.
  A support set: a set U of generators that is respected, meaning every
  relation pair has both sides meeting U or both missing it, and that
  meets the support of exactly one input.  The map x -> [supp x meets U]
  onto {0, 1} with join is a convex-algebra map, since a mixture with
  positive weights has the union of the supports as its support; it is
  constant on every relation pair, so it is constant on each class of
  the quotient, and it separates the inputs.  Respected sets are closed
  under union, so the greatest one inside a set is a fixed point
  (_respected, on bitmasks of the relation sides' supports), and eq tries
  U_y, the greatest respected set missing supp y, then U_x, the same with
  x and y swapped.
  The face is that same fixed point: when U_y misses supp x, U_y is the
  greatest respected set outside supp x and supp y.  U_y is respected and
  lies outside both supports, so it lies in the greatest such set; that
  set is respected and misses supp y, so it lies in U_y.  So the LP needs
  no fixed point of its own.
* Unknown -- no certificate found within the step bound.  Only eq answers
  Unknown: the constructions ask same_class (below), which always decides.

Every witness replays mechanically, in integers; see verify_verdict.
eq's invariant test also runs in integers: an invariant separates x and
y exactly when y - x lies outside the span of the relation differences,
so eq reduces y - x against their cached linalg.sparse_echelon form
(_echelon, of the sparse integer difference rows) and builds a Fraction
invariant only from a nonzero residual (_separating_invariant).
A verdict's bound is the step bound that was asked for, not the level
where the search stopped.

same_class decides equality in the quotient exactly, with no bound and
no certificate, for the checks that need only a yes or a no.  If neither
support test separates x and y, U_x is the greatest respected set outside
both supports; let W be the rest of the generators and L_W the span of
s_j - r_j over the relation pairs inside W.  Then x ~ y exactly when
y - x lies in L_W (Sokolova & Woracek, "Congruences of convex algebras",
JPAA 219 (2015); Fritz, "Convex spaces I", arXiv:0903.5522):

* Distinct direction.  By the face argument above, every zig-zag from x
  stays in W and uses only pairs inside W; a step with multipliers
  lambda moves its point by sum_j lambda_j (s_j - r_j), an element of
  L_W.  So every point that x reaches differs from x by an element of
  L_W, and y - x outside L_W means x and y are not equal.
* Equal direction.  W is the least set that holds supp x and holds
  supp s_j whenever it holds supp r_j (the complement of U_x), and the
  same for y.  Spread: from a point with support S strictly inside W, some
  pair has supp r_j in S and supp s_j not; one step with a small equal
  lambda on every pair whose r_j lies in S, and the rest of the point as
  spectator (positive on S), reaches support S together with those s_j.
  At most |W| such steps reach x* ~ x with support W, and y* ~ y the
  same way.  Each step moves by an element of L_W, so y* - x* lies in L_W:
  y* - x* = sum_j c_j (s_j - r_j) over the pairs inside W.  Flow: put
  Lambda = c+ on one orientation of each pair and c- on the other, so
  y* - x* = sum Lambda_j (s_j - r_j) with Lambda >= 0, and let
  R = sum Lambda_j r_j, supported in W.  Walk the segment from x* to y*
  in N equal steps, each with multipliers Lambda / N and spectator
  z - R / N at its start z: every z on the segment is at least
  min(x*_g, y*_g) > 0 at each g in W, so for N >= max_g R_g /
  min(x*_g, y*_g) every spectator is nonnegative, and each step ends
  at z + (y* - x*) / N.  So x ~ x* ~ y* ~ y.

The span test is the invariant step's residual taken on the face: y - x
is reduced in integers (_residual) against the _echelon of the
restriction to W, the echelon form of the difference rows of the pairs
inside W over the |W| generators of W, which are the presentation's own
rows when W is every generator.  An invariant separating x and y is a
vector orthogonal to the larger span of all the relation differences,
so it needs no test of its own there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Mapping, Sequence

from . import MAX_STEP_BOUND, linalg
from .distribution import (
    FiniteDistribution, convex_combine, delta, element_key, flatten, pushforward,
)
from .errors import (
    InvalidInput,
    NotConvexVector,
    PresentationMismatch,
    RelationViolated,
    SemiringMismatch,
    SignatureMismatch,
)
from .record import Frozen
from .semiring import RATIONAL, require_rational

DEFAULT_STEP_BOUND = 4



class Presentation:
    """Generators plus relation pairs of distributions over the generators."""

    def __init__(self, generators, relations=()):
        gens = tuple(sorted(set(generators), key=element_key))
        if not gens:
            raise InvalidInput("a presentation needs at least one generator")
        index = {g: i for i, g in enumerate(gens)}
        rels = []
        for lhs, rhs in relations:
            for side in (lhs, rhs):
                if not isinstance(side, FiniteDistribution):
                    raise SemiringMismatch("relations must pair distributions")
                require_rational(side.semiring, "presented convex sets")
                if not side._nums.keys() <= index.keys():
                    raise PresentationMismatch(
                        f"relation distribution has support outside the "
                        f"generators: {sorted(side._nums.keys() - index.keys(), key=element_key)}"
                    )
            rels.append((lhs, rhs))
        self.generators = gens
        self.relations = tuple(rels)
        self._gen_index = index
        self._faces = {}  # _face's cache: a respected set's mask -> its restriction, oldest first

    @classmethod
    def free(cls, generators) -> "Presentation":
        return cls(generators, ())

    def delta(self, generator) -> "PresentedElement":
        if generator not in self._gen_index:
            raise PresentationMismatch(f"{generator!r} is not a generator")
        return PresentedElement(self, delta(generator))

    def element(self, weights) -> "PresentedElement":
        if isinstance(weights, FiniteDistribution):
            return PresentedElement(self, weights)
        return PresentedElement(self, FiniteDistribution(weights, RATIONAL))

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

    def _mask(self, gens):
        """The mask of some generators (a distribution's _nums, say): bit i
        stands for generator i."""
        index = self._gen_index
        return sum([1 << index[g] for g in gens])

    def _members(self, mask):
        """The generators of a mask, in generator order."""
        return tuple(g for i, g in enumerate(self.generators) if mask >> i & 1)

    @cached_property
    def _support_masks(self):
        """Per relation, the masks of its two sides' supports."""
        mask = self._mask
        return tuple((mask(lhs._nums), mask(rhs._nums)) for lhs, rhs in self.relations)

    @cached_property
    def _integer_columns(self):
        """Per generator x, the x-th entries of symmetric_relations in
        integer form, for _zigzag_lp: (r, r_lcm, r_minus_s, d_lcm).  r
        holds the (pair index j, r_j[x] * r_lcm) of the nonzero r_j[x],
        where r_lcm is the lcm of their denominators; r_minus_s holds
        r_j[x] - s_j[x] times d_lcm, the lcm of the differences'
        denominators.  The differences are read off _difference_rows: pair
        2i is row i over its relation's lcm, and pair 2i + 1 is -row i.
        Built from the relations' supports, so a generator in no relation
        costs nothing and gets empty entries with lcm 1."""
        index = self._gen_index
        r_at = [{} for _ in self.generators]
        diff_at = [{} for _ in self.generators]
        for j, (r, _) in enumerate(self.symmetric_relations):
            for g, n in r._nums.items():
                r_at[index[g]][j] = (n, r._den)
        for i, ((lhs, rhs), row) in enumerate(zip(self.relations, self._difference_rows)):
            scale = lcm(lhs._den, rhs._den)
            for x, v in row.items():
                diff_at[x][2 * i] = (v, scale)
                diff_at[x][2 * i + 1] = (-v, scale)
        columns = []
        for r, diff in zip(r_at, diff_at):
            r_lcm, r_ints = _integer_entries(r)
            d_lcm, d_ints = _integer_entries(diff)
            columns.append((r_ints, r_lcm, d_ints, d_lcm))
        return tuple(columns)

    @cached_property
    def _difference_rows(self):
        """One row per relation: lhs - rhs times the lcm of the two sides'
        denominators, as a {generator index: int} dict of its nonzeros.
        An invariant is a vector orthogonal to every row (_echelon and the
        Distinct replay in verify_verdict); the scale does not change
        which vectors those are."""
        index = self._gen_index
        rows = []
        for lhs, rhs in self.relations:
            scale = lcm(lhs._den, rhs._den)
            fl, fr = scale // lhs._den, scale // rhs._den
            row = {index[g]: n * fl for g, n in lhs._nums.items()}
            for g, n in rhs._nums.items():
                x = index[g]
                row[x] = row.get(x, 0) - n * fr
            rows.append({x: v for x, v in row.items() if v})
        return rows

    @cached_property
    def _echelon(self):
        """linalg.sparse_echelon of copies of _difference_rows (it reduces
        its input in place): the integer Gauss-Jordan rows of the span of
        the relation differences, and their pivots."""
        return linalg.sparse_echelon([dict(row) for row in self._difference_rows], len(self.generators))

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
        index = presentation._gen_index
        if not rep._nums.keys() <= index.keys():
            raise PresentationMismatch(
                f"representative uses non-generators: {sorted(rep._nums.keys() - index.keys(), key=element_key)}"
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


class ZigZagStep(Frozen):
    """One move: start = sum_j lambda_j r_j + t, end = sum_j lambda_j s_j + t,
    with j indexing the presentation's symmetrized relation pairs."""

    __slots__ = _fields = ("lambdas", "spectator")

    def __init__(
        self,
        lambdas: tuple,
        spectator: tuple,  # dense over presentation.generators
    ):
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "spectator", spectator)

    def integer_endpoints(self, pres: Presentation):
        """The step's start and end in integers: two {generator: int} maps
        of their nonzero entries over one common scale, and that scale.
        The scale is the lcm of the spectator's denominators and, per
        nonzero lambda, of its denominator times its pair's two
        denominators, so each term is an int multiple of a relation side's
        integer form (_nums over _den).  Entries are ints or Fractions.
        None when an entry is negative, which no step may have."""
        used = [(lam, r, s) for lam, (r, s) in zip(self.lambdas, pres.symmetric_relations) if lam]
        spectator = [(g, t) for g, t in zip(pres.generators, self.spectator) if t]
        if any(lam.numerator < 0 for lam, _, _ in used) or any(t.numerator < 0 for _, t in spectator):
            return None
        scale = lcm(
            *(t.denominator for _, t in spectator),
            *(lam.denominator * lcm(r._den, s._den) for lam, r, s in used),
        )
        start = {g: t.numerator * (scale // t.denominator) for g, t in spectator}
        end = start.copy()
        for lam, r, s in used:
            for side, point in ((r, start), (s, end)):
                f = lam.numerator * (scale // (lam.denominator * side._den))
                for g, n in side._nums.items():
                    point[g] = point.get(g, 0) + f * n
        return start, end, scale


class EqualityVerdict(Frozen):
    __slots__ = _fields = ("status", "path", "invariant", "bound", "support")

    def __init__(
        self,
        status: str,  # "equal" | "distinct" | "unknown"
        path: tuple = (),  # ZigZagSteps for Equal
        invariant: tuple = (),  # dense rational assignment for Distinct
        bound: int = DEFAULT_STEP_BOUND,  # the requested step bound
        support: tuple = (),  # respected generators for Distinct, in place of invariant
    ):
        if status not in ("equal", "distinct", "unknown"):
            raise InvalidInput(f"a verdict's status is equal, distinct or unknown, not {status!r}")
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "invariant", invariant)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "support", support)

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

    Distinct is tried first, through an affine invariant (y - x reduced
    against the cached echelon form of the relation differences), then
    through the support sets U_y and U_x (in generator order in the
    verdict).  Then the zig-zag LP of the restriction to the face that
    U_x gives (the module docstring says why it is the face of e1 and
    e2) is solved at k = 1, 2, 4, ..., step_bound, level 1 without the
    simplex where its multipliers are unique; the first feasible level
    gives Equal with its path (at most k steps, widened to the whole
    presentation), and if every level is infeasible the verdict is
    Unknown.  The verdict's bound is step_bound, whichever level decided
    it.
    """
    if e1.presentation != e2.presentation:
        raise PresentationMismatch("eq needs elements of one presentation")
    if not isinstance(step_bound, int) or isinstance(step_bound, bool):
        raise InvalidInput(f"step_bound must be an int, not {step_bound!r}")
    if not 0 <= step_bound <= MAX_STEP_BOUND:
        raise InvalidInput(f"step_bound {step_bound} is outside 0..{MAX_STEP_BOUND}")
    pres = e1.presentation
    x, y = e1.rep, e2.rep
    if x == y:
        return EqualityVerdict("equal", path=(), bound=step_bound)

    if vec := _separating_invariant(pres, x, y):
        return EqualityVerdict("distinct", invariant=vec, bound=step_bound)

    outside, separates = _separating_support(pres, x, y)
    if separates:
        return EqualityVerdict("distinct", bound=step_bound, support=pres._members(outside))

    # U_x misses supp y, so it is the greatest respected set outside both
    if pres.relations and step_bound >= 1:
        face = _face(pres, outside)
        for k in _deepening_levels(step_bound):
            steps = _zigzag_search(face, x, y, k)
            if steps is not None:
                return EqualityVerdict("equal", path=_widen(pres, outside, steps), bound=step_bound)
    return EqualityVerdict("unknown", bound=step_bound)


def same_class(e1: PresentedElement, e2: PresentedElement) -> bool:
    """Whether two elements are equal in the quotient: an exact decision,
    with no step bound and no certificate (the module docstring proves
    it).  The support tests, then y - x against the span of the relation
    differences inside the face W."""
    if e1.presentation != e2.presentation:
        raise PresentationMismatch("same_class needs elements of one presentation")
    pres = e1.presentation
    x, y = e1.rep, e2.rep
    if x == y:
        return True
    outside, separates = _separating_support(pres, x, y)
    if separates:
        return False
    face = _face(pres, outside)
    return not any(_residual(face, face._echelon, x, y).values())


def _separating_support(pres, x, y):
    """The support tests: U_y, the greatest respected set missing supp y,
    then U_x, each as a mask.  (U, True) for the first that meets the
    other input's support; else (U_x, False), and U_x misses supp y too,
    so it is the greatest respected set outside both supports."""
    every = (1 << len(pres.generators)) - 1
    xm, ym = pres._mask(x._nums), pres._mask(y._nums)
    for p, q in ((xm, ym), (ym, xm)):  # U_y, then U_x
        outside = _respected(pres, every & ~q)
        if outside & p:
            return outside, True
    return outside, False


def _separating_invariant(pres, x, y):
    """The first vector v of linalg.nullspace of the difference rows with
    v.x != v.y, as a tuple, or None.  The residual of x - y against the
    cached echelon rows holds, at each free column fc, v_fc.d times a
    nonzero factor (v_fc is free column fc's basis vector): the lowest
    nonzero decides."""
    reduced, pivots = echelon = pres._echelon
    d = _residual(pres, echelon, x, y)
    fc = min((j for j, v in d.items() if v), default=None)
    return None if fc is None else tuple(linalg.null_vector(reduced, pivots, fc, len(pres.generators)))


def _residual(pres, echelon, x, y):
    """d = (x - y) x._den y._den over generator indices, reduced
    fraction-free against the rows of a linalg.sparse_echelon form over
    them.  The rows are zero at each other's pivots, so one pass leaves d
    on the free columns only, as a {column: int} dict that may hold zeros;
    it is all zero exactly when x - y lies in the rows' span.  Each
    reduction is linalg._eliminate's update without its content division:
    the common factor of the pivot and d's entry is cancelled first, and d
    is not scaled when the pivot divides that entry."""
    index = pres._gen_index
    d = {index[g]: n * y._den for g, n in x._nums.items()}
    for g, n in y._nums.items():
        d[index[g]] = d.get(index[g], 0) - n * x._den
    reduced, pivots = echelon
    for row, pc in zip(reduced, pivots):
        if f := d.pop(pc, 0):
            p = row[pc]
            g = gcd(f, p) if p > 0 else -gcd(f, p)
            p, f = p // g, f // g  # d becomes (p d - f row) / g, with p > 0
            if p != 1:
                d = {j: v * p for j, v in d.items()}
            for j, v in row.items():
                if j != pc:
                    d[j] = d.get(j, 0) - f * v
    return d


def _value(ints, dist):
    """An integer-scaled functional ({generator: int}) on a distribution,
    times the distribution's denominator: an int."""
    return sum([n * a for g, n in dist._nums.items() if (a := ints.get(g))])


def _respected(pres, outside):
    """The mask of the greatest respected set of generators inside the
    set whose mask is outside (bit i for generator i).

    Respected sets are closed under union, so the greatest one inside a
    set is its fixed point under: while some relation has exactly one
    side meeting U, remove that side's support from U.  Each relation
    side is read as its cached support mask (Presentation._support_masks)."""
    masks = pres._support_masks
    stable = not outside
    while not stable:
        stable = True
        for lhs, rhs in masks:
            meets = outside & lhs
            if (not meets) != (not outside & rhs):  # one side only
                outside &= ~(lhs if meets else rhs)
                stable = not outside
    return outside


#: How many faces _face keeps per presentation; the oldest goes first.
FACE_CACHE_SIZE = 16


def _face(pres, outside):
    """Where a zig-zag between two points must stay, given the mask of the
    greatest respected set U outside their supports: the restriction of
    pres to the rest W of the generators, a Presentation whose generators
    are W and whose relations are the relations inside W, or pres itself
    when U is empty.  The restriction is kept on pres under the mask, so
    the queries of one face share its LP columns and echelon form; it
    holds no reference to pres."""
    if not outside:
        return pres
    faces = pres._faces
    face = faces.get(outside)
    if face is None:
        if len(faces) >= FACE_CACHE_SIZE:
            del faces[next(iter(faces))]
        inside = [rel for rel, (lhs, _) in zip(pres.relations, pres._support_masks) if not outside & lhs]
        face = faces[outside] = Presentation(pres._members(~outside), inside)
    return face


def _widen(pres, outside, steps):
    """The ZigZagSteps of pres for steps of its restriction to the
    complement W of the respected set U whose mask is outside (see
    _face): zero multipliers on the pairs not inside W, and zero
    spectators off W.  U is respected, so a relation is inside W in both
    orientations or in neither, and the restriction's pairs 2i and 2i + 1
    are one relation of pres, as pres's are.  The steps themselves when U
    is empty."""
    if not outside:
        return steps
    zero = linalg.ZERO
    wide = []
    for step in steps:
        lams, spect = iter(step.lambdas), iter(step.spectator)
        wide_lams = []
        for lhs, _ in pres._support_masks:
            wide_lams += (zero, zero) if outside & lhs else (next(lams), next(lams))
        wide_spect = [zero if outside >> x & 1 else next(spect) for x in range(len(pres.generators))]
        wide.append(ZigZagStep(tuple(wide_lams), tuple(wide_spect)))
    return tuple(wide)


def _deepening_levels(bound):
    """The step counts eq solves at: 1, 2, 4, ..., the last clamped to bound."""
    k = 1
    while k < bound:
        yield k
        k *= 2
    if bound >= 1:
        yield bound


def _zigzag_search(pres, p, q, k):
    """Feasibility of a k-step zig-zag from distribution p to distribution
    q as one exact LP; the steps, or None.  eq passes the restriction of
    the presentation to the face of p and q (see _face) and widens the
    steps it returns.  At k = 1 the LP is solved only when _one_step
    leaves it undecided."""
    sol = _one_step(pres, p, q) if k == 1 else _UNDECIDED
    if sol is _UNDECIDED:
        sol = linalg.solve_eq_nonneg(*_zigzag_lp(pres, p, q, k))
    if sol is None:
        return None
    nj = len(pres.symmetric_relations)
    width = nj + len(pres.generators)
    steps = []
    for i in range(0, k * width, width):
        lams, spect = sol[i : i + nj], sol[i + nj : i + width]
        if any(l != 0 for l in lams):
            steps.append(ZigZagStep(tuple(lams), tuple(spect)))
    return tuple(steps)


_UNDECIDED = object()  # what _one_step returns when only the LP can decide


def _one_step(pres, p, q):
    """The level-1 LP's answer without the simplex, where the module
    docstring's one-step argument gives it: its one feasible point, laid
    out as linalg.solve_eq_nonneg returns it (the lambdas over pres's
    symmetric pairs, then the spectator over its generators), or None
    when it has none.  _UNDECIDED when the usable pairs J hold both
    orientations of a relation (checked first: it is the common case) or
    their move columns are dependent.

    (S - R)_J lambda = q - p is solved in integers, by
    linalg.sparse_echelon of its augmented matrix: column i is s_j - r_j
    for the i-th pair j of J, times d_j, the lcm of the pair's
    denominators, and the last column m is q - p times p._den q._den,
    with a row per generator of supp p or supp q (every other row is
    zero).  The system is inconsistent exactly when column m is a pivot.
    Otherwise, with every column of J a pivot, the i-th echelon row says
    row[i] nu_i = row[m] for nu_i = p._den q._den lambda_j / d_j.  The
    spectator t = p - R_J lambda is checked over one common denominator,
    and is zero off supp p since each r_j lies in it."""
    pairs = pres.symmetric_relations
    pn, qn = p._nums, q._nums
    usable = [
        j for j, (r, s) in enumerate(pairs)
        if r._nums.keys() <= pn.keys() and s._nums.keys() <= qn.keys()
    ]
    if len({j >> 1 for j in usable}) < len(usable):  # pairs 2i and 2i + 1 are one relation
        return _UNDECIDED
    sides = []
    for j in usable:
        r, s = pairs[j]
        d = lcm(r._den, s._den)
        sides.append((r, d // r._den, s, d // s._den, d))
    pd, qd = p._den, q._den
    m = len(usable)
    rows = []
    for g in {**pn, **qn}:
        row = {}
        for i, (r, fr, s, fs, _) in enumerate(sides):
            if v := s._nums.get(g, 0) * fs - r._nums.get(g, 0) * fr:
                row[i] = v
        if v := qn.get(g, 0) * pd - pn.get(g, 0) * qd:
            row[m] = v
        rows.append(row)
    reduced, pivots = linalg.sparse_echelon(rows, m + 1)
    if pivots and pivots[-1] == m:
        return None
    if len(pivots) < m:
        return _UNDECIDED
    sol = [linalg.ZERO] * (len(pairs) + len(pres.generators))
    used = []
    for i, (j, row, (r, _, _, _, d)) in enumerate(zip(usable, reduced, sides)):
        num, den = row.get(m, 0) * d, row[i] * pd * qd
        if num * den < 0:
            return None
        if num:
            sol[j] = lam = Fraction(num, den)
            used.append((lam, r))
    scale = lcm(pd, *(lam.denominator * r._den for lam, r in used))
    terms = [(lam.numerator * (scale // (lam.denominator * r._den)), r._nums) for lam, r in used]
    for x, g in enumerate(pres.generators, len(pairs)):
        if n := pn.get(g):
            t = n * (scale // pd) - sum([f * rn.get(g, 0) for f, rn in terms])
            if t < 0:
                return None
            sol[x] = Fraction(t, scale)
    return sol


def _zigzag_lp(pres, p, q, k):
    """The system A x = b, x >= 0 of a k-step zig-zag from p to q.

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
    Presentation._integer_columns and p's and q's entries in lowest
    terms.  Each row is the rational row times the lcm of its
    denominators and its rhs's, negated when the rhs is negative.  That
    scale is part of the pivot rule (the solver's docstring says why),
    and it is the one linalg._integer_row gives the rational row, so the
    pivots and the witnesses do not depend on how the rows were built.
    On a face, pres is the restriction (see _face): the
    LP is the restriction's own, with its own row scales, and eq widens
    its steps.
    """
    nj = len(pres.symmetric_relations)
    ng = len(pres.generators)
    width = nj + ng
    ncols = k * width
    rows = [None] * ((k + 1) * ng)  # row (i, x) at i * ng + x
    rhs = [0] * len(rows)
    for x, (g, (r, r_lcm, r_minus_s, d_lcm)) in enumerate(zip(pres.generators, pres._integer_columns)):
        pn, pd = _lowest(p._nums.get(g, 0), p._den)
        scale = lcm(r_lcm, pd)  # step 0 has no earlier moves
        f = scale // r_lcm
        row = {j: v * f for j, v in r}
        row[nj + x] = scale
        rows[x] = row
        rhs[x] = pn * (scale // pd)
        if k > 1:  # steps 1 .. k-1 share one scale and add (r - s) blocks
            scale = lcm(r_lcm, d_lcm, pd)
            f = scale // r_lcm
            r_scaled = [(j, v * f) for j, v in r]
            f = scale // d_lcm
            b = pn * (scale // pd)
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
        qn, qd = _lowest(q._nums.get(g, 0), q._den)
        vn, vd = _lowest(qn * pd - pn * qd, qd * pd)  # the net moves sum to q - p = vn / vd
        scale = lcm(d_lcm, vd)
        if vn < 0:
            scale = -scale
        f = -(scale // d_lcm)  # the row holds s - r
        row = {}
        for a in range(0, ncols, width):
            for j, w in r_minus_s:
                row[a + j] = w * f
        rows[k * ng + x] = row
        rhs[k * ng + x] = vn * (scale // vd)
    return rows, rhs, ncols


def _lowest(n, d):
    """The fraction n / d in lowest terms, as a (numerator, denominator)
    int pair."""
    g = gcd(n, d)
    return n // g, d // g


def _integer_entries(weights):
    """The lcm of the reduced denominators of a {j: (numerator,
    denominator)} map of nonzero int pairs, and its (j, weight times that
    lcm) pairs as ints."""
    reduced = {j: _lowest(n, d) for j, (n, d) in weights.items()}
    scale = lcm(*(d for _, d in reduced.values()))
    return scale, tuple((j, n * (scale // d)) for j, (n, d) in reduced.items())


def verify_verdict(
    verdict: EqualityVerdict, e1: PresentedElement, e2: PresentedElement
) -> bool:
    """Machine-check a certificate against the two elements, in integers.

    An Equal path is replayed step by step: each point is a {generator:
    int} map over one scale (an element's _nums over its _den, then each
    step's ZigZagStep.integer_endpoints), and two points are compared by
    cross-multiplication.  A Distinct invariant is scaled to ints, checked
    orthogonal to the cached integer difference rows, and evaluated on
    both elements' integer forms.  A Distinct support set must hold only
    generators, be respected by every relation and meet the support of
    exactly one element (so it is not empty)."""
    pres = e1.presentation
    if pres != e2.presentation:
        return False
    x, y = e1.rep, e2.rep
    if verdict.is_equal:
        nj, ng = len(pres.symmetric_relations), len(pres.generators)
        point, scale = x._nums, x._den
        for step in verdict.path:
            if len(step.lambdas) != nj or len(step.spectator) != ng:
                return False
            ends = step.integer_endpoints(pres)
            if ends is None:
                return False
            start, end, step_scale = ends
            if not _same_point(start, step_scale, point, scale):
                return False
            point, scale = end, step_scale
        return _same_point(point, scale, y._nums, y._den)
    if verdict.is_distinct and verdict.support:
        u = set(verdict.support)
        return (
            u <= pres._gen_index.keys()
            and all(u.isdisjoint(lhs._nums) == u.isdisjoint(rhs._nums) for lhs, rhs in pres.relations)
            and u.isdisjoint(x._nums) != u.isdisjoint(y._nums)
        )
    if verdict.is_distinct:
        vec = verdict.invariant
        if len(vec) != len(pres.generators):
            return False
        scale = lcm(*(v.denominator for v in vec))
        ints = [v.numerator * (scale // v.denominator) for v in vec]
        if any(sum([ints[x] * v for x, v in row.items()]) for row in pres._difference_rows):
            return False
        ints = {g: a for g, a in zip(pres.generators, ints) if a}
        return _value(ints, x) * y._den != _value(ints, y) * x._den
    return True  # Unknown asserts nothing


def _same_point(a, a_scale, b, b_scale):
    """Whether a / a_scale == b / b_scale for two {generator: int} maps of
    positive entries."""
    return len(a) == len(b) and all(
        b.get(g, 0) * a_scale == n * b_scale for g, n in a.items()
    )


# -- convex maps -------------------------------------------------------------


class ConvexMap:
    """Affine extension of a generator assignment between presentations."""

    __slots__ = ("src", "tgt", "assignment")

    def __init__(self, src, tgt, assignment):
        self.src = src
        self.tgt = tgt
        self.assignment = dict(assignment)

    @classmethod
    def identity(cls, pres: Presentation) -> "ConvexMap":
        return cls(pres, pres, {g: pres.delta(g) for g in pres.generators})

    def on_generator(self, g) -> PresentedElement:
        return self.assignment[g]

    def __call__(self, e: PresentedElement) -> PresentedElement:
        """The Kleisli extension: flatten(pushforward(values, e.rep))."""
        if e.presentation != self.src:
            raise PresentationMismatch("element is not in the map's source")
        return PresentedElement(self.tgt, flatten(pushforward(self._value_rep, e.rep)))

    def _value_rep(self, g) -> FiniteDistribution:
        value = self.assignment[g]
        if value.presentation != self.tgt:
            raise PresentationMismatch("map value is not an element of its target")
        return value.rep

    def compose(self, first: "ConvexMap") -> "ConvexMap":
        """self after first."""
        if first.tgt != self.src:
            raise SignatureMismatch("composition sources/targets do not match")
        return ConvexMap(
            first.src,
            self.tgt,
            {g: self(first.assignment[g]) for g in first.src.generators},
        )

    def __repr__(self):
        return f"ConvexMap({self.src!r} -> {self.tgt!r})"


def induce_map(src: Presentation, tgt: Presentation, assignment: Mapping) -> ConvexMap:
    """Extend a generator assignment affinely, if it respects the relations.

    Every source relation pair must map to elements of the target in one
    class (same_class); otherwise RelationViolated, carrying the failing
    pair.
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
    fmap = ConvexMap(src, tgt, values)
    for lhs, rhs in src.relations:
        if not same_class(fmap(PresentedElement(src, lhs)), fmap(PresentedElement(src, rhs))):
            raise RelationViolated(
                "assignment sends a relation pair to distinct elements",
                pair=(lhs, rhs),
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
    return ConvexMap(src, tgt, assignment)


def maps_agree(f: ConvexMap, g: ConvexMap, elements):
    """Whether two parallel maps agree in the quotient on given elements."""
    if f.src != g.src or f.tgt != g.tgt:
        return False
    return all(same_class(f(e), g(e)) for e in elements)
