"""Finite probability spaces, measure-preserving maps, Shannon entropy, and
verification of the entropy characterization conditions.

Probabilities are exact rationals; only entropy values are floats (the
logarithm is transcendental).  The morphism functional checked here is
info_loss = H(source) - H(target), which is nonnegative for
measure-preserving maps; a candidate functional passes when it respects
composition additively, respects convex combinations of morphisms, and is
continuous along pointwise perturbation families.  The scalar c is fitted
by least squares against the entropy differences.

A callable candidate (verify_entropy_axioms) and a table
(verify_value_table) share one path: _check turns (key, lhs, rhs) triples
into one check's entry, and _report fits c and returns the report, a
plain dict that the entropy verify command writes as it is.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .distribution import FiniteDistribution, convex_combine, pushforward
from .errors import ArityMismatch, InvalidInput, NotMeasurePreserving, NotNormalized

if TYPE_CHECKING:
    from .matprop import QConvOp

F = Fraction

SIGN_CONVENTION = "info_loss = H(source) - H(target)"


class ProbObject:
    """A finite carrier with an exact probability weighting.

    The weighting is a FiniteDistribution, so zero weights are pruned; the
    carrier may be larger than the support.
    """

    __slots__ = ("carrier", "distribution")

    def __init__(self, carrier, weights: Mapping):
        self.carrier = tuple(carrier)
        carrier_set = set(self.carrier)
        if len(carrier_set) != len(self.carrier):
            raise InvalidInput("carrier has duplicate elements")
        weights = {x: F(w) for x, w in weights.items()}
        for x, w in weights.items():
            if w < 0:
                raise NotNormalized(f"negative probability at {x!r}")
            if x not in carrier_set:
                raise InvalidInput(f"weight on non-carrier element {x!r}")
        self.distribution = FiniteDistribution(weights)

    @property
    def weights(self) -> dict:
        return self.distribution.as_dict()

    def p(self, x) -> Fraction:
        return self.distribution.weight(x)

    def __eq__(self, other):
        if not isinstance(other, ProbObject):
            return NotImplemented
        return self.carrier == other.carrier and self.distribution == other.distribution

    def __hash__(self):
        return hash((self.carrier, self.distribution))

    def __repr__(self):
        return f"ProbObject({len(self.carrier)} points)"


class ProbMorphism:
    """A measure-preserving function between probability objects."""

    __slots__ = ("src", "tgt", "mapping")

    def __init__(self, src: ProbObject, tgt: ProbObject, mapping: Mapping):
        self.src = src
        self.tgt = tgt
        self.mapping = dict(mapping)
        tgt_carrier = set(tgt.carrier)
        for x in src.carrier:
            if x not in self.mapping:
                raise NotMeasurePreserving(f"map undefined at {x!r}")
            if self.mapping[x] not in tgt_carrier:
                raise NotMeasurePreserving(f"map leaves the target at {x!r}")
        image = pushforward(self.mapping, src.distribution)
        for y in tgt.carrier:
            if image.weight(y) != tgt.p(y):
                raise NotMeasurePreserving(
                    f"pushforward mass {image.weight(y)} != {tgt.p(y)} at {y!r}"
                )

    @classmethod
    def from_map(cls, src: ProbObject, mapping: Mapping, tgt_carrier=None):
        """Build the morphism onto the pushforward measure."""
        carrier = tuple(tgt_carrier) if tgt_carrier is not None else tuple(
            sorted(set(mapping.values()), key=repr)
        )
        image = pushforward(mapping, src.distribution)
        return cls(src, ProbObject(carrier, image.as_dict()), mapping)

    @classmethod
    def identity(cls, obj: ProbObject):
        return cls(obj, obj, {x: x for x in obj.carrier})

    def compose(self, first: "ProbMorphism") -> "ProbMorphism":
        """self after first."""
        if first.tgt != self.src:
            raise NotMeasurePreserving("composition endpoints do not match")
        return ProbMorphism(
            first.src,
            self.tgt,
            {x: self.mapping[first.mapping[x]] for x in first.src.carrier},
        )

    def __repr__(self):
        return f"ProbMorphism({len(self.src.carrier)} -> {len(self.tgt.carrier)})"


def shannon_entropy(obj: ProbObject) -> float:
    """H(X, p) in nats, with the 0 log 0 = 0 convention."""
    total = 0.0
    for w in obj.weights.values():
        x = float(w)
        total -= x * math.log(x)
    return total


def info_loss(m: ProbMorphism) -> float:
    """Entropy drop across a measure-preserving map (always >= 0)."""
    return shannon_entropy(m.src) - shannon_entropy(m.tgt)


def binary_entropy(lam: Fraction) -> float:
    x = float(lam)
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1 - x) * math.log(1 - x)


def convex_combine_objects(lam, a: ProbObject, b: ProbObject) -> ProbObject:
    """lam * a + (1 - lam) * b on the carriers tagged "L" and "R"."""
    lam = F(lam)
    if not 0 <= lam <= 1:
        raise NotNormalized(f"mixing weight {lam} is outside [0, 1]")
    carrier = [("L", x) for x in a.carrier] + [("R", x) for x in b.carrier]
    mixed = convex_combine([lam, 1 - lam], [
        pushforward(lambda x: ("L", x), a.distribution),
        pushforward(lambda x: ("R", x), b.distribution),
    ])
    return ProbObject(carrier, mixed.as_dict())


def convex_combine_morphisms(lam, f: ProbMorphism, g: ProbMorphism) -> ProbMorphism:
    """The unique morphism between the lambda-mixtures of the endpoints;
    both summands stay in the carrier even at lambda 0 or 1."""
    lam = F(lam)
    src = convex_combine_objects(lam, f.src, g.src)
    tgt = convex_combine_objects(lam, f.tgt, g.tgt)
    mapping = {("L", x): ("L", f.mapping[x]) for x in f.src.carrier}
    mapping.update({("R", x): ("R", g.mapping[x]) for x in g.src.carrier})
    return ProbMorphism(src, tgt, mapping)


def dist_lax_xi(alpha: QConvOp, ps: Sequence[FiniteDistribution]) -> FiniteDistribution:
    """Mixture of distributions on pairwise-disjoint carriers, supported on
    the union."""
    if alpha.arity != len(ps):
        raise ArityMismatch(f"{len(ps)} distributions for arity {alpha.arity}")
    seen = set()
    for p in ps:
        overlap = seen & p.support()
        if overlap:
            raise InvalidInput(f"carriers overlap on {sorted(overlap, key=repr)}")
        seen |= p.support()
    return convex_combine(alpha.weights, ps)


# -- corpora ---------------------------------------------------------------------


#: Random objects weigh each point 0..MAX_WEIGHT before normalizing; a corpus
#: ends with SINGLES maps outside its chains.  A corpus has at most
#: MAX_CHAINS chains and carriers of at most MAX_CARRIER points, since its
#: cost grows with their product (1,000 x 256 takes about 0.8 s).
MAX_WEIGHT = 8
SINGLES = 20
MAX_CHAINS = 1000
MAX_CARRIER = 256


class Corpus:
    """Morphisms plus composable chains (pairs of indices: apply second
    after first)."""

    __slots__ = ("morphisms", "chains")

    def __init__(self, morphisms: list, chains: list):
        self.morphisms = morphisms
        self.chains = chains

    def chain_morphisms(self, idx):
        i, j = self.chains[idx]
        return self.morphisms[i], self.morphisms[j]


def _random_object(rng: random.Random, max_carrier: int):
    size = rng.randint(1, max_carrier)
    carrier = [f"x{i}" for i in range(size)]
    cuts = [rng.randint(0, MAX_WEIGHT) for _ in carrier]
    if sum(cuts) == 0:
        cuts[0] = 1
    total = sum(cuts)
    return ProbObject(carrier, {c: F(w, total) for c, w in zip(carrier, cuts)})


def _random_collapse(rng: random.Random, src: ProbObject):
    """A map onto a (weakly) smaller carrier; collapses lose entropy."""
    tgt_size = rng.randint(1, len(src.carrier))
    names = [f"y{i}" for i in range(tgt_size)]
    mapping = {}
    for i, x in enumerate(src.carrier):
        if i < tgt_size:
            mapping[x] = names[i]  # surjectivity
        else:
            mapping[x] = rng.choice(names)
    return ProbMorphism.from_map(src, mapping, names)


def generate_corpus(seed: int, n_chains: int = 50, max_carrier: int = 16) -> Corpus:
    """Deterministic corpus: composable collapse chains plus SINGLES single
    maps.  n_chains outside 0..MAX_CHAINS, or max_carrier outside
    1..MAX_CARRIER, is InvalidInput."""
    if not 0 <= n_chains <= MAX_CHAINS:
        raise InvalidInput(f"{n_chains} chains are not in 0..{MAX_CHAINS}")
    if not 1 <= max_carrier <= MAX_CARRIER:
        raise InvalidInput(f"carrier bound {max_carrier} is not in 1..{MAX_CARRIER}")
    rng = random.Random(seed)
    morphisms = []
    chains = []
    for _ in range(n_chains):
        g = _random_collapse(rng, _random_object(rng, max_carrier))
        f = _random_collapse(rng, g.tgt)
        morphisms.append(g)
        morphisms.append(f)
        chains.append((len(morphisms) - 1, len(morphisms) - 2))  # f after g
    for _ in range(SINGLES):
        morphisms.append(_random_collapse(rng, _random_object(rng, max_carrier)))
    return Corpus(morphisms, chains)


# -- axiom verification ------------------------------------------------------------

#: The convexity grid 0, 1/8, ..., 1, and the largest last deviation of a
#: continuity family that still counts as converged.
LAMBDA_GRID = tuple(F(i, 8) for i in range(9))
CONTINUITY_FINAL = 1e-2


def _result(checked: int, failures: list) -> dict:
    """The report entry of one check: each failure is its own witness,
    written as its repr."""
    return {"passed": not failures, "checked": checked, "failures": [repr(f) for f in failures]}


def _check(triples, tol: float) -> dict:
    """Every (key, lhs, rhs) triple checked; a triple whose sides differ by
    more than tol fails."""
    triples = list(triples)
    return _result(len(triples), [t for t in triples if abs(t[1] - t[2]) > tol])


def _report(values, corpus: Corpus, tol: float, **checks) -> dict:
    """The report of the three checks, with c fitted by least squares to
    values[i] against info_loss of corpus.morphisms[i]."""
    diffs = [info_loss(m) for m in corpus.morphisms]
    denom = sum(d * d for d in diffs)
    c = sum(v * d for v, d in zip(values, diffs)) / denom if denom > 0 else 0.0
    return {
        "sign_convention": SIGN_CONVENTION,
        "tolerance": tol,
        "fitted_c": c,
        "max_residual": max((abs(v - c * d) for v, d in zip(values, diffs)), default=0.0),
        **checks,
        "all_passed": all(check["passed"] for check in checks.values()),
    }


def verify_value_table(
    values: Sequence[float],
    chain_values: Sequence[float],
    corpus: Corpus,
    tol: float = 1e-9,
) -> dict:
    """Verify a tabulated functional: values[i] for corpus.morphisms[i] and
    chain_values[j] for the composite of corpus.chains[j].

    Only additivity and the scalar fit are computable from a finite table;
    the convexity and continuity conditions need the functional on derived
    morphisms, so they are reported as skipped, never as passed.  The
    report is that of verify_entropy_axioms.
    """
    if len(values) != len(corpus.morphisms):
        raise InvalidInput("one value per corpus morphism required")
    if len(chain_values) != len(corpus.chains):
        raise InvalidInput("one value per corpus chain required")
    values = [float(v) for v in values]
    composition = _check(
        ((idx, float(chain_values[idx]), values[i] + values[j])
         for idx, (i, j) in enumerate(corpus.chains)),
        tol,
    )
    skipped = {**_result(0, []), "skipped": True}
    return _report(values, corpus, tol, composition=composition, convexity=skipped,
                   continuity=skipped)


def _perturbation(obj: ProbObject, n: int) -> ProbObject:
    """p + (1/n)(u - p) with u uniform on the carrier."""
    uniform = FiniteDistribution(dict.fromkeys(obj.carrier, F(1, len(obj.carrier))))
    mixed = convex_combine([F(1, n), 1 - F(1, n)], [uniform, obj.distribution])
    return ProbObject(obj.carrier, mixed.as_dict())


def verify_entropy_axioms(
    candidate: Callable[[ProbMorphism], float],
    corpus: Corpus,
    tol: float = 1e-9,
) -> dict:
    """Check additivity, convexity, and continuity of a morphism functional
    and fit the proportionality scalar against entropy differences.

    The report is a canonical-JSON-ready dict: the fit, all_passed, and
    per check its passed flag, the number checked and each failing
    witness's repr.
    """
    ms = corpus.morphisms
    composition = _check(
        ((idx, candidate(ms[i].compose(ms[j])), candidate(ms[i]) + candidate(ms[j]))
         for idx, (i, j) in enumerate(corpus.chains)),
        tol,
    )
    pairs = list(zip(ms[0::2], ms[1::2]))[:10]
    convexity = _check(
        ((lam, candidate(convex_combine_morphisms(lam, f, g)),
          float(lam) * candidate(f) + (1 - float(lam)) * candidate(g))
         for f, g in pairs for lam in LAMBDA_GRID),
        tol,
    )

    tested = ms[:10]
    failures = []
    steps = (4, 16, 64, 256, 1024)
    for m in tested:
        base = candidate(m)
        devs = []
        for n in steps:
            src_n = _perturbation(m.src, n)
            m_n = ProbMorphism.from_map(src_n, m.mapping, m.tgt.carrier)
            devs.append(abs(candidate(m_n) - base))
        tail_shrinks = all(
            devs[i + 1] <= devs[i] or devs[i + 1] < 1e-12
            for i in range(len(devs) - 1)
        )
        # converged: monotone decay, an order of magnitude gained, small tail
        decayed = devs[-1] < 1e-12 or (
            devs[-1] <= devs[0] / 10 and devs[-1] < CONTINUITY_FINAL
        )
        if not (tail_shrinks and decayed):
            failures.append((repr(m), devs))

    values = [candidate(m) for m in ms]
    return _report(values, corpus, tol, composition=composition, convexity=convexity,
                   continuity=_result(len(tested), failures))
