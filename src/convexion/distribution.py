"""Finite distributions over a semiring and the operations of the
distribution monad: unit (delta), pushforward, multiplication (flatten),
convex combination, and the product measure on tuples (product).  Every
mixture and product of weights in the package goes through these.

A distribution is a finite, normalized weight map; zero weights are never
stored, so two equal distributions always have identical internal state and
equality is O(support).  Elements are arbitrary hashables (strings in the
JSON interface; tuples and other distributions appear internally for
tensors and nesting).

A distribution stores only its integer form, built once by the
constructor: ``_nums`` maps each support element to a positive int and
``_den`` is one common denominator, with the semiring fixing the form
(``Semiring.canonical_form``).  That form is the one ``RMatrix`` stores
too, so ``canonical_form`` reduces any positive numerators over a
denominator; that they sum to one is checked here, by
``Semiring.is_normalized``.  Over the rationals ``_den`` is the lcm of the
reduced denominators, so ``gcd(_den, *_nums.values()) == 1``: the form is
canonical, equal distributions have equal forms, and normalisation is
``sum(_nums.values()) == _den``.  Over the Booleans every weight is 1 over
1.  The constructor reads each weight straight into a numerator and a
denominator in lowest terms (``Semiring.ratio``).  ``flatten``,
``convex_combine`` and ``pushforward`` add integer numerators over one
common denominator, ``product`` multiplies them over the product of the
denominators, and each builds its result through one trusted
constructor, ``_from_numerators``, which brings the sum into canonical
form (``Semiring.canonical_form`` reduces sums).  Weights read in lowest
terms need no such reduction: over the lcm of their denominators they
are already canonical, since for each prime p of that lcm some weight's
denominator holds p to the lcm's full power, and p divides neither that
weight's numerator nor the lcm over that denominator.  So the
constructor puts them over their lcm and reduces nothing, and so does
the decoder in its one reading pass (``jsonio.decode_distribution``),
through the other trusted constructor, ``_from_canonical``.  Equality and hashing read the integer form; the payloads that
``weight``, ``items``, ``as_dict`` and ``repr`` show are built on demand
(``Semiring.payload``).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

from .errors import (
    EmptyFactorList, NotConvexVector, NotNormalized, ParseError, SemiringMismatch,
    UndefinedOnSupport,
)
from .semiring import BOOLEAN, RATIONAL, Semiring


def element_key(el):
    """Total deterministic ordering key over the element kinds we use."""
    if isinstance(el, str):
        return (0, el)
    if isinstance(el, (int, bool)):
        return (1, str(el))
    if isinstance(el, tuple):
        return (2, tuple(element_key(part) for part in el))
    if isinstance(el, FiniteDistribution):
        return (3, tuple((element_key(x), str(w)) for x, w in el.items()))
    return (9, repr(el))


def element_label(el) -> str:
    """Canonical printable name; tuples render as '(a,b)'."""
    if isinstance(el, tuple):
        return "(" + ",".join(element_label(part) for part in el) + ")"
    if isinstance(el, FiniteDistribution):
        inner = ",".join(
            f"{element_label(x)}:{el.semiring.format(w)}" for x, w in el.items()
        )
        return "{" + inner + "}"
    return str(el)


class FiniteDistribution:
    """Finite-support weight map summing to one in its semiring.

    ``_nums``/``_den`` hold the weights as positive integer numerators over
    one denominator in the semiring's canonical form (see the module text);
    the payloads are views built from them.
    """

    __slots__ = ("semiring", "_nums", "_den", "_hash")

    def __init__(self, weights: Mapping, semiring: Semiring = RATIONAL):
        ratio = semiring.ratio
        ratios = {el: ratio(w) for el, w in weights.items()}
        self.semiring = semiring
        self._nums, self._den = _common_denominator(ratios, semiring)
        self._hash = None

    @classmethod
    def _from_numerators(cls, acc: dict, den: int, semiring: Semiring):
        """Trusted constructor: ``acc`` maps elements to positive ints that
        sum to ``den``; the semiring brings them into canonical form."""
        self = object.__new__(cls)
        self.semiring = semiring
        self._nums, self._den = semiring.canonical_form(acc, den)
        self._hash = None
        return self

    @classmethod
    def _from_canonical(cls, nums: dict, den: int, semiring: Semiring):
        """Trusted constructor: ``nums`` over ``den`` is already in the
        semiring's canonical form and sums to one, as weights read in
        lowest terms are over the lcm of their denominators."""
        self = object.__new__(cls)
        self.semiring = semiring
        self._nums, self._den = nums, den
        self._hash = None
        return self

    # -- access ---------------------------------------------------------

    def weight(self, el):
        """Weight of el (zero if outside the support)."""
        return self.semiring.payload(self._nums.get(el, 0), self._den)

    __call__ = weight

    def support(self):
        return frozenset(self._nums)

    @property
    def support_size(self) -> int:
        return len(self._nums)

    def items(self):
        """Support/weight pairs in canonical order."""
        return sorted(self.as_dict().items(), key=lambda kv: element_key(kv[0]))

    def as_dict(self) -> dict:
        payload, den = self.semiring.payload, self._den
        return {el: payload(n, den) for el, n in self._nums.items()}

    # -- value semantics --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return (
            self.semiring is other.semiring
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.semiring.name, self._den, frozenset(self._nums.items()))
            )
        return self._hash

    def __repr__(self):
        body = ", ".join(
            f"{element_label(el)}: {self.semiring.format(w)}"
            for el, w in self.items()
        )
        return "{" + body + "}"


def _common_denominator(ratios: Mapping, semiring: Semiring):
    """(acc, den): the weights that ``ratios`` maps elements to as
    (numerator, denominator) int pairs, as numerators over their lcm den,
    zeros dropped; NotNormalized unless they sum to one.  With the pairs
    in lowest terms, (acc, den) is the canonical form."""
    den = lcm(*[d for n, d in ratios.values() if n])
    acc = {el: n * (den // d) for el, (n, d) in ratios.items() if n}
    if not semiring.is_normalized(acc, den):
        raise _not_normalized(acc, den, semiring)
    return acc, den


def _not_normalized(acc: dict, den: int, semiring: Semiring) -> NotNormalized:
    """The error for the numerators ``acc`` over ``den``, which do not sum
    to one."""
    total = semiring.payload(sum(acc.values()), den)
    return NotNormalized(f"weights sum to {semiring.format(total)}, expected 1")


def delta(el, semiring: Semiring = RATIONAL) -> FiniteDistribution:
    """The point distribution concentrated on el."""
    return FiniteDistribution._from_numerators({el: 1}, 1, semiring)


def _apply(f, el):
    if isinstance(f, Mapping):
        if el not in f:
            raise UndefinedOnSupport(f"map undefined on support element {el!r}")
        return f[el]
    try:
        return f(el)
    except (KeyError, LookupError) as exc:
        raise UndefinedOnSupport(
            f"map undefined on support element {el!r}"
        ) from exc


def _mix(parts, den: int, sr: Semiring) -> FiniteDistribution:
    """The distribution sum_q (s_q / den) * q over pairs (s_q, q) of
    nonnegative ints s_q summing to den and distributions q over sr."""
    parts = [(s, q) for s, q in parts if s]
    scale = lcm(*[q._den for _, q in parts])
    acc: dict = {}
    get = acc.get
    for s, q in parts:
        s *= scale // q._den
        for el, n in q._nums.items():
            acc[el] = get(el, 0) + s * n
    return FiniteDistribution._from_numerators(acc, den * scale, sr)


def pushforward(f, p: FiniteDistribution) -> FiniteDistribution:
    """Image distribution: the weight of y is the sum of p over its fibre."""
    acc: dict = {}
    get = acc.get
    for el, n in p._nums.items():
        y = _apply(f, el)
        acc[y] = get(y, 0) + n
    return FiniteDistribution._from_numerators(acc, p._den, p.semiring)


def flatten(nested: FiniteDistribution) -> FiniteDistribution:
    """Monad multiplication: weight of x is sum over q of P(q) * q(x)."""
    sr = nested.semiring
    for q in nested._nums:
        if not isinstance(q, FiniteDistribution):
            raise SemiringMismatch("flatten needs a distribution of distributions")
        if q.semiring is not sr:
            raise SemiringMismatch("inner and outer semirings differ")
    return _mix(((s, q) for q, s in nested._nums.items()), nested._den, sr)


def _coefficient_form(alpha: Sequence, sr: Semiring):
    """({index: numerator}, den): the coefficients over one denominator.
    A negative number is NotConvexVector, since nothing was parsed; a
    literal that does not read stays the semiring's ParseError."""
    ratios = []
    for a in alpha:
        try:
            ratios.append(sr.ratio(a))
        except ParseError:
            if isinstance(a, (int, Fraction)) and a < 0:
                raise NotConvexVector(f"negative coefficient {a} is not allowed") from None
            raise
    den = lcm(*[d for _, d in ratios])
    return {i: n * (den // d) for i, (n, d) in enumerate(ratios)}, den


def is_convex_vector(alpha: Sequence, semiring: Semiring = RATIONAL) -> bool:
    """Whether alpha's coefficients sum to one in the semiring.  A negative
    coefficient, a number or a literal such as "-1/2", makes it False; a
    literal that does not read stays the semiring's ParseError."""
    try:
        return semiring.is_normalized(*_coefficient_form(alpha, semiring))
    except (NotConvexVector, ParseError):
        if any(map(_negative, alpha)):
            return False
        raise


def _negative(a) -> bool:
    """Whether a is a negative int or Fraction, or a string that reads as one."""
    if isinstance(a, str):
        try:
            a = Fraction(a)
        except (ValueError, ZeroDivisionError):
            return False
    return isinstance(a, (int, Fraction)) and a < 0


def convex_combine(
    alpha: Sequence, ps: Sequence[FiniteDistribution]
) -> FiniteDistribution:
    """Mixture: result(x) = sum_i alpha_i * ps_i(x)."""
    if len(alpha) != len(ps):
        raise NotConvexVector(
            f"{len(alpha)} coefficients for {len(ps)} distributions"
        )
    if not ps:
        raise NotConvexVector("empty combination")
    sr = ps[0].semiring
    for p in ps:
        if p.semiring is not sr:
            raise SemiringMismatch("mixed semirings in convex combination")
    nums, den = _coefficient_form(alpha, sr)
    if not sr.is_normalized(nums, den):
        raise NotConvexVector("coefficients do not sum to 1")
    return _mix(zip(nums.values(), ps), den, sr)


def product(ps: Sequence[FiniteDistribution]) -> FiniteDistribution:
    """Product measure on tuples: the weight of (x_1, ..., x_n) is the
    product of the ps_i(x_i), in integers over the product of the _den."""
    if not ps:
        raise EmptyFactorList("product of no distributions")
    sr = ps[0].semiring
    acc = {(): 1}
    for p in ps:
        if p.semiring is not sr:
            raise SemiringMismatch("mixed semirings in a product")
        acc = {t + (el,): n * m for t, n in acc.items() for el, m in p._nums.items()}
    return FiniteDistribution._from_numerators(acc, prod(p._den for p in ps), sr)


def map_delta(p: FiniteDistribution) -> FiniteDistribution:
    """Functorial image of p under the unit: a distribution of deltas."""
    return pushforward(lambda el: delta(el, p.semiring), p)


def boolean_subset(elements: Iterable) -> FiniteDistribution:
    """Boolean-semiring distributions are exactly nonempty finite subsets."""
    return FiniteDistribution({el: True for el in elements}, BOOLEAN)
