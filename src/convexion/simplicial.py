"""Desk-scale simplicial machinery: truncated simplicial sets, simplicial
abelian groups, twisting functions and twisted products, simplicial
distributions on principal bundles, the bundle tensor, and the graded
monoid of twisted distributions.

Everything is table-driven and dimension-truncated (default bound 2, max
MAX_N = 3); all simplicial identities are checked exhaustively on the
tables.  Faces and degeneracies are walked as one family: structure_maps(
n_max) lists every face d_i: X_n -> X_{n-1}, then every degeneracy s_i:
X_n -> X_{n+1}, and TruncatedSimplicialSet.apply applies either kind, so
each check and builder below has one loop over both, and the bound is
enforced once, in structure_maps, before any table is built.  The
twisted product K x_eta X has componentwise faces except the zeroth, which
is shifted: d_0(k, x) = (eta(x) + d_0 k, d_0 x).  A twisting function is
valid exactly when K x_eta X satisfies the simplicial identities (May,
Simplicial Objects in Algebraic Topology, 1967, section 18; conversely,
each identity of the product at k = 0 is one twisting identity), so it is
checked once, by building that product.

A simplicial distribution on a bundle pi: E -> X assigns each simplex a
distribution on its fibre level, commuting with faces and degeneracies
(non-signaling) and pushing forward to the point mass at the simplex
(the section condition).  The bundle tensor quotients the fibre product by
(e, f) ~ (k e, -k f); products of distributions descend to it, realizing
twist addition, and grade a monoid over the twisting functions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .distribution import (
    FiniteDistribution, convex_combine, delta, element_key, product, pushforward,
)
from .errors import BaseMismatch, InvalidInput, InvalidTwist

F = Fraction


# -- abelian groups -----------------------------------------------------------------


class AbGroup:
    """A finite abelian group given by tables."""

    def __init__(self, elements, add: Mapping, zero, neg: Mapping):
        self.elements = tuple(elements)
        self.add_table = dict(add)
        self.zero = zero
        self.neg_table = dict(neg)
        els = set(self.elements)
        if zero not in els:
            raise InvalidInput("zero is not an element")
        for a, b in itertools.product(self.elements, repeat=2):
            c = self.add_table.get((a, b))
            if c not in els:
                raise InvalidInput(f"addition undefined or escapes at ({a!r}, {b!r})")
            if c != self.add_table[(b, a)]:
                raise InvalidInput("addition is not commutative")
        for a in self.elements:
            if self.add_table[(a, zero)] != a:
                raise InvalidInput("zero is not neutral")
            if self.add_table.get((a, self.neg_table.get(a))) != zero:
                raise InvalidInput(f"negation wrong at {a!r}")
        for a, b, c in itertools.product(self.elements, repeat=3):
            if self.add_table[(self.add_table[(a, b)], c)] != self.add_table[
                (a, self.add_table[(b, c)])
            ]:
                raise InvalidInput("addition is not associative")

    def add(self, a, b):
        return self.add_table[(a, b)]

    def neg(self, a):
        return self.neg_table[a]

    @classmethod
    def cyclic(cls, n: int) -> "AbGroup":
        """Z/n with elements "0" .. "n-1"; an order outside 1..MAX_CYCLIC
        is InvalidInput, raised before any table is built."""
        if not 1 <= n <= MAX_CYCLIC:
            raise InvalidInput(f"cyclic group order {n} is outside 1..{MAX_CYCLIC}")
        els = [str(i) for i in range(n)]
        add = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
        neg = {str(a): str((-a) % n) for a in range(n)}
        return cls(els, add, "0", neg)

    def __repr__(self):
        return f"AbGroup({len(self.elements)} elements)"


# -- truncated simplicial sets ---------------------------------------------------------


#: The largest truncation bound: the tables, and the cost of checking
#: them, grow about as n_max cubed.
MAX_N = 3

#: The largest order of AbGroup.cyclic: its addition table has n^2
#: entries and the associativity check n^3 triples (about 0.03 s at 32).
MAX_CYCLIC = 32


def structure_maps(n_max: int):
    """Every structure map up to the bound as (kind, n, i, m): each face
    d_i: X_n -> X_m (kind "face", m = n - 1), then each degeneracy
    s_i: X_n -> X_m (kind "degeneracy", m = n + 1), in (n, i) order.  A
    bound outside 0..MAX_N is InvalidInput."""
    if not 0 <= n_max <= MAX_N:
        raise InvalidInput(f"truncation bound N = {n_max} is outside 0..{MAX_N}")
    faces = [("face", n, i, n - 1) for n in range(1, n_max + 1) for i in range(n + 1)]
    return faces + [("degeneracy", n, i, n + 1) for n in range(n_max) for i in range(n + 1)]


def _is_simplicial_map(src, dst, f):
    """Whether the levelwise map f (n -> {simplex of src: simplex of dst})
    commutes with every face and degeneracy."""
    return all(
        dst.apply(kind, n, i, f[n][s]) == f[m][src.apply(kind, n, i, s)]
        for kind, n, i, m in structure_maps(src.n_max)
        for s in src.simplices(n)
    )


def _split_tables(n_max: int, table):
    """The face and degeneracy tables of a builder, where table(kind, n, i,
    m) gives the map of one structure_maps entry."""
    tables = {"face": {}, "degeneracy": {}}
    for kind, n, i, m in structure_maps(n_max):
        tables[kind][(n, i)] = table(kind, n, i, m)
    return tables["face"], tables["degeneracy"]


class TruncatedSimplicialSet:
    """Simplex tables up to a dimension bound, with all identities checked."""

    def __init__(self, n_max: int, levels: Sequence, face: Mapping, degen: Mapping):
        self.n_max = n_max
        self.levels = tuple(tuple(lv) for lv in levels)
        self.face = {k: dict(v) for k, v in face.items()}
        self.degen = {k: dict(v) for k, v in degen.items()}
        if len(self.levels) != n_max + 1:
            raise InvalidInput("need one simplex list per level")
        self._check_tables()

    def tables(self, kind):
        """The face or the degeneracy tables, by structure_maps kind."""
        return self.face if kind == "face" else self.degen

    def apply(self, kind, n, i, x):
        return self.tables(kind)[(n, i)][x]

    def d(self, n, i, x):
        return self.face[(n, i)][x]

    def s(self, n, i, x):
        return self.degen[(n, i)][x]

    def simplices(self, n):
        return self.levels[n]

    def __repr__(self):
        sizes = ", ".join(str(len(lv)) for lv in self.levels)
        return f"{type(self).__name__}(N={self.n_max}; sizes {sizes})"

    def _check_tables(self):
        """Totality, no table outside the truncation, plus the simplicial
        identities."""
        n_max, levels, d, s = self.n_max, self.levels, self.d, self.s
        maps, level_sets = structure_maps(n_max), [set(lv) for lv in levels]
        for kind, n, i, m in maps:
            table = self.tables(kind).get((n, i))
            if table is None or table.keys() != level_sets[n]:
                raise InvalidInput(f"{kind} table ({n},{i}) missing or not total")
            if not level_sets[m].issuperset(table.values()):
                raise InvalidInput(f"{kind} table ({n},{i}) escapes its level")
        walked = {(kind, n, i) for kind, n, i, _ in maps}
        for kind in ("face", "degeneracy"):
            for n, i in self.tables(kind):
                if (kind, n, i) not in walked:
                    raise InvalidInput(
                        f"{kind} table ({n},{i}) is outside the truncation N = {n_max}"
                    )

        for n in range(2, n_max + 1):  # d_i d_j = d_{j-1} d_i, i < j
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    for x in levels[n]:
                        if d(n - 1, i, d(n, j, x)) != d(n - 1, j - 1, d(n, i, x)):
                            raise InvalidInput(
                                f"face identity fails at n={n}, i={i}, j={j}, {x!r}"
                            )
        for n in range(n_max - 1):  # s_i s_j = s_{j+1} s_i, i <= j
            for j in range(n + 1):
                for i in range(j + 1):
                    for x in levels[n]:
                        if s(n + 1, i, s(n, j, x)) != s(n + 1, j + 1, s(n, i, x)):
                            raise InvalidInput(
                                f"degeneracy identity fails at n={n}, i={i}, j={j}"
                            )
        for n in range(n_max):  # mixed identities on X_n through X_{n+1}
            for j in range(n + 1):
                for i in range(n + 2):
                    for x in levels[n]:
                        got = d(n + 1, i, s(n, j, x))
                        if i == j or i == j + 1:
                            want = x
                        elif i < j:
                            want = s(n - 1, j - 1, d(n, i, x))
                        else:
                            want = s(n - 1, j, d(n, i - 1, x))
                        if got != want:
                            raise InvalidInput(
                                f"mixed identity fails at n={n}, i={i}, j={j}, {x!r}"
                            )


class SimplicialAbGroup(TruncatedSimplicialSet):
    """Levelwise abelian groups with homomorphic face/degeneracy tables: a
    truncated simplicial set whose level-n simplices are the elements of
    groups[n]."""

    def __init__(self, n_max: int, groups: Sequence[AbGroup], face: Mapping, degen: Mapping):
        self.groups = tuple(groups)
        if len(self.groups) != n_max + 1:
            raise InvalidInput("need one group per level")
        super().__init__(n_max, [g.elements for g in self.groups], face, degen)
        for kind, n, i, m in structure_maps(n_max):
            g_from, g_to = self.groups[n], self.groups[m]
            table = self.tables(kind)[(n, i)]
            for a, b in itertools.product(g_from.elements, repeat=2):
                if table[g_from.add(a, b)] != g_to.add(table[a], table[b]):
                    raise InvalidInput(f"{kind} ({n},{i}) is not a homomorphism")

    @classmethod
    def constant(cls, group: AbGroup, n_max: int) -> "SimplicialAbGroup":
        ident = {a: a for a in group.elements}
        face, degen = _split_tables(n_max, lambda kind, n, i, m: dict(ident))
        return cls(n_max, [group] * (n_max + 1), face, degen)

    def level(self, n: int) -> AbGroup:
        return self.groups[n]


def standard_point(n_max: int) -> TruncatedSimplicialSet:
    face, degen = _split_tables(n_max, lambda kind, n, i, m: {f"v{n}": f"v{m}"})
    levels = [(f"v{n}",) for n in range(n_max + 1)]
    return TruncatedSimplicialSet(n_max, levels, face, degen)


def standard_circle(n_max: int = 2) -> TruncatedSimplicialSet:
    """One vertex, one nondegenerate edge, plus the degeneracies up to the
    bound (supported for n_max <= 2)."""
    if n_max == 1:
        levels = [("v",), ("e", "sv")]
        face = {(1, 0): {"e": "v", "sv": "v"}, (1, 1): {"e": "v", "sv": "v"}}
        degen = {(0, 0): {"v": "sv"}}
        return TruncatedSimplicialSet(1, levels, face, degen)
    if n_max != 2:
        raise InvalidInput("standard_circle supports n_max in {1, 2}")
    levels = [("v",), ("e", "sv"), ("s0e", "s1e", "ssv")]
    face = {
        (1, 0): {"e": "v", "sv": "v"},
        (1, 1): {"e": "v", "sv": "v"},
        (2, 0): {"s0e": "e", "s1e": "sv", "ssv": "sv"},
        (2, 1): {"s0e": "e", "s1e": "e", "ssv": "sv"},
        (2, 2): {"s0e": "sv", "s1e": "e", "ssv": "sv"},
    }
    degen = {
        (0, 0): {"v": "sv"},
        (1, 0): {"e": "s0e", "sv": "ssv"},
        (1, 1): {"e": "s1e", "sv": "ssv"},
    }
    return TruncatedSimplicialSet(2, levels, face, degen)


# -- twisting functions ------------------------------------------------------------------


class TwistingFunction:
    """Maps eta_n: X_n -> K_{n-1} for 1 <= n <= N whose twisted product
    K x_eta X, built on construction as total, is a simplicial set."""

    def __init__(self, space: TruncatedSimplicialSet, group: SimplicialAbGroup, maps: Mapping):
        self.space = space
        self.group = group
        self.maps = {n: dict(v) for n, v in maps.items()}
        n_max = space.n_max
        if n_max != group.n_max:
            raise InvalidTwist("space and group truncations differ")
        for n in range(1, n_max + 1):
            table = self.maps.get(n)
            if table is None or set(table) != set(space.simplices(n)):
                raise InvalidTwist(f"level {n} map missing or not total")
            if not set(table.values()) <= set(group.level(n - 1).elements):
                raise InvalidTwist(f"level {n} map escapes the group")
        levels = [
            tuple(itertools.product(group.level(n).elements, space.simplices(n)))
            for n in range(n_max + 1)
        ]

        def structure(kind, n, i, m):
            on_k, on_x = group.tables(kind)[(n, i)], space.tables(kind)[(n, i)]
            if kind == "face" and i == 0:  # the shifted zeroth face
                eta, add = self.maps[n], group.level(m).add
                return {(k, x): (add(eta[x], on_k[k]), on_x[x]) for (k, x) in levels[n]}
            return {(k, x): (on_k[k], on_x[x]) for (k, x) in levels[n]}

        try:
            self.total = TruncatedSimplicialSet(n_max, levels, *_split_tables(n_max, structure))
        except InvalidInput as exc:
            raise InvalidTwist(f"the twisted product is not simplicial: {exc}") from None

    def value(self, n, simplex):
        return self.maps[n][simplex]

    @classmethod
    def zero(cls, space: TruncatedSimplicialSet, group: SimplicialAbGroup):
        maps = {
            n: {x: group.level(n - 1).zero for x in space.simplices(n)}
            for n in range(1, space.n_max + 1)
        }
        return cls(space, group, maps)

    def __add__(self, other: "TwistingFunction") -> "TwistingFunction":
        if self.space is not other.space or self.group is not other.group:
            raise BaseMismatch("twists over different data")
        maps = {
            n: {
                x: self.group.level(n - 1).add(self.value(n, x), other.value(n, x))
                for x in self.space.simplices(n)
            }
            for n in range(1, self.space.n_max + 1)
        }
        return TwistingFunction(self.space, self.group, maps)

    def __eq__(self, other):
        if not isinstance(other, TwistingFunction):
            return NotImplemented
        return (
            self.space is other.space
            and self.group is other.group
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash(
            tuple(
                (n, tuple(sorted(self.maps[n].items(), key=lambda kv: element_key(kv[0]))))
                for n in sorted(self.maps)
            )
        )


def _choice_product(space: TruncatedSimplicialSet, ns, choices):
    """Every {n: {simplex: choice}} over the levels ns of space that takes
    one of choices(n, simplex) at each simplex, in itertools.product order;
    the brute force that enumerate_twists and enumerate_sections filter."""
    keys = [(n, space.simplices(n)) for n in ns]
    per_level = [itertools.product(*(choices(n, x) for x in simps)) for n, simps in keys]
    for combo in itertools.product(*per_level):
        yield {n: dict(zip(simps, values)) for (n, simps), values in zip(keys, combo)}


#: The most candidates, prod_n |K_(n-1)|^|X_n|, that enumerate_twists
#: filters, each a whole twisted product: 32,768 for Z/8 on the circle.
MAX_TWIST_CANDIDATES = 1 << 16


def enumerate_twists(space: TruncatedSimplicialSet, group: SimplicialAbGroup):
    """All twisting functions on the given tables, by filtered brute force;
    more than MAX_TWIST_CANDIDATES candidates is InvalidInput, raised
    before any candidate is built."""
    out = []
    ns = range(1, space.n_max + 1)  # eta_n is defined for 1 <= n <= N
    count = math.prod(len(group.level(n - 1).elements) ** len(space.simplices(n)) for n in ns)
    if count > MAX_TWIST_CANDIDATES:
        raise InvalidInput(
            f"{count} candidate twisting functions exceed the budget of {MAX_TWIST_CANDIDATES}"
        )
    for maps in _choice_product(space, ns, lambda n, x: group.level(n - 1).elements):
        try:
            out.append(TwistingFunction(space, group, maps))
        except InvalidTwist:
            continue
    return out


# -- principal bundles ----------------------------------------------------------------------


class Bundle:
    """A levelwise free action of K on a total simplicial set over X, with
    the projection's fibres the orbits."""

    def __init__(self, group: SimplicialAbGroup, base: TruncatedSimplicialSet,
                 total: TruncatedSimplicialSet, action: Mapping, proj: Mapping):
        self.group = group
        self.base = base
        self.total = total
        self.action = {n: dict(v) for n, v in action.items()}
        self.proj = {n: dict(v) for n, v in proj.items()}
        self.validate()

    def act(self, n, k, e):
        return self.action[n][(k, e)]

    def project(self, n, e):
        return self.proj[n][e]

    def fibre(self, n, x):
        return sorted(
            (e for e in self.total.simplices(n) if self.project(n, e) == x),
            key=element_key,
        )

    def validate(self):
        k, x, e = self.group, self.base, self.total
        if not (k.n_max == x.n_max == e.n_max):
            raise InvalidInput("truncation bounds differ")
        for n in range(e.n_max + 1):
            els = e.simplices(n)
            grp = k.level(n)
            for g, el in itertools.product(grp.elements, els):
                if (g, el) not in self.action[n]:
                    raise InvalidInput(f"action undefined at level {n}")
            for el in els:
                if self.proj[n].get(el) not in set(x.simplices(n)):
                    raise InvalidInput(f"projection undefined or escapes at {el!r}")
            # group action laws, freeness
            for el in els:
                if self.act(n, grp.zero, el) != el:
                    raise InvalidInput("zero does not act as identity")
                for g, h in itertools.product(grp.elements, repeat=2):
                    if self.act(n, g, self.act(n, h, el)) != self.act(
                        n, grp.add(g, h), el
                    ):
                        raise InvalidInput("action is not associative")
                for g in grp.elements:
                    if g != grp.zero and self.act(n, g, el) == el:
                        raise InvalidInput("action is not free")
            # fibres are exactly the orbits
            for el in els:
                orbit = {self.act(n, g, el) for g in grp.elements}
                fibre = {
                    e2 for e2 in els if self.proj[n][e2] == self.proj[n][el]
                }
                if orbit != fibre:
                    raise InvalidInput("fibres do not match orbits")
        if not _is_simplicial_map(e, x, self.proj):
            raise InvalidInput("projection is not simplicial")
        for kind, n, i, m in structure_maps(e.n_max):
            for el, g in itertools.product(e.simplices(n), k.level(n).elements):
                if e.apply(kind, n, i, self.act(n, g, el)) != self.act(
                    m, k.apply(kind, n, i, g), e.apply(kind, n, i, el)
                ):
                    raise InvalidInput("action is not simplicial")


def twisted_product(group: SimplicialAbGroup, eta: TwistingFunction,
                    space: TruncatedSimplicialSet) -> Bundle:
    """The bundle K x_eta X over eta.total, with K acting on the first
    component and the projection onto the second."""
    if eta.space is not space or eta.group is not group:
        raise InvalidTwist("twisting function is for different data")
    levels = eta.total.levels
    action = {
        n: {
            (g, (k, x)): (group.level(n).add(g, k), x)
            for g in group.level(n).elements
            for (k, x) in levels[n]
        }
        for n in range(space.n_max + 1)
    }
    proj = {n: {(k, x): x for (k, x) in levels[n]} for n in range(space.n_max + 1)}
    return Bundle(group, space, eta.total, action, proj)


# -- simplicial distributions -----------------------------------------------------------------


class SimplicialDistribution:
    """Per-level maps from base simplices to distributions on total ones."""

    __slots__ = ("bundle", "levels")

    def __init__(self, bundle: Bundle, levels: dict):  # levels: n -> {x: FiniteDistribution}
        self.bundle = bundle
        self.levels = levels

    def at(self, n, x) -> FiniteDistribution:
        if x not in self.levels.get(n, {}):
            raise InvalidInput(f"no distribution at simplex {x!r} of level {n}")
        return self.levels[n][x]


def check_simplicial_distribution(p: SimplicialDistribution, bundle: Bundle) -> list:
    """The failures of naturality (non-signaling) and of the section
    condition, checked exactly and itemized as (check, n, simplex, face or
    degeneracy index); empty when p is a simplicial distribution."""
    failures = []
    x, e = bundle.base, bundle.total
    for n in range(x.n_max + 1):
        table = p.levels.get(n)
        if table is None or set(table) != set(x.simplices(n)):
            failures.append(("totality", n, None, None))
            return failures
        for simp in x.simplices(n):
            dist = table[simp]
            if not dist.support() <= set(e.simplices(n)):
                failures.append(("support", n, simp, None))
            pushed = pushforward(lambda el: bundle.project(n, el), dist)
            if pushed != delta(simp):
                failures.append(("section", n, simp, None))
    for kind, n, i, m in structure_maps(x.n_max):
        for simp in x.simplices(n):
            lhs = pushforward(lambda el: e.apply(kind, n, i, el), p.at(n, simp))
            rhs = p.at(m, x.apply(kind, n, i, simp))
            if lhs != rhs:
                failures.append((kind, n, simp, i))
    return failures


def mix_sdist(alpha, ps: Sequence[SimplicialDistribution]) -> SimplicialDistribution:
    bundle = ps[0].bundle
    levels = {}
    for n in ps[0].levels:
        levels[n] = {
            x: convex_combine(alpha, [p.at(n, x) for p in ps])
            for x in ps[0].levels[n]
        }
    return SimplicialDistribution(bundle, levels)


def uniform_sdist(bundle: Bundle) -> SimplicialDistribution:
    levels = {}
    for n in range(bundle.base.n_max + 1):
        levels[n] = {}
        for x in bundle.base.simplices(n):
            fibre = bundle.fibre(n, x)
            levels[n][x] = FiniteDistribution(
                {e: F(1, len(fibre)) for e in fibre}
            )
    return SimplicialDistribution(bundle, levels)


def enumerate_sections(bundle: Bundle):
    """All simplicial sections of the projection, by filtered brute force."""
    x = bundle.base
    return [
        section
        for section in _choice_product(x, range(x.n_max + 1), bundle.fibre)
        if _is_simplicial_map(x, bundle.total, section)
    ]


def section_sdist(bundle: Bundle, section) -> SimplicialDistribution:
    levels = {
        n: {x: delta(section[n][x]) for x in bundle.base.simplices(n)}
        for n in range(bundle.base.n_max + 1)
    }
    return SimplicialDistribution(bundle, levels)


# -- the bundle tensor --------------------------------------------------------------------------


class TensorBundle(Bundle):
    """Quotient of the fibre product by (e, f) ~ (k e, -k f), with the
    orbit-representative map retained."""

    def __init__(self, left: Bundle, right: Bundle):
        if left.base is not right.base and left.base.levels != right.base.levels:
            raise BaseMismatch("bundles over different bases")
        if left.group is not right.group:
            raise BaseMismatch("bundles with different structure groups")
        self.left = left
        self.right = right
        group, base = left.group, left.base
        n_max = base.n_max

        self._orbit_rep = {}
        levels = []
        for n in range(n_max + 1):
            grp = group.level(n)
            reps = []
            for x in base.simplices(n):
                seen = set()
                for pair in itertools.product(left.fibre(n, x), right.fibre(n, x)):
                    if pair in seen:
                        continue
                    orbit = {
                        (left.act(n, g, pair[0]), right.act(n, grp.neg(g), pair[1]))
                        for g in grp.elements
                    }
                    rep = min(orbit, key=element_key)
                    for member in orbit:
                        self._orbit_rep[(n, member)] = rep
                        seen.add(member)
                    reps.append(rep)
            levels.append(tuple(sorted(reps, key=element_key)))

        face, degen = _split_tables(n_max, lambda kind, n, i, m: {
            (e, f): self._orbit_rep[
                (m, (left.total.apply(kind, n, i, e), right.total.apply(kind, n, i, f)))
            ]
            for (e, f) in levels[n]
        })
        total = TruncatedSimplicialSet(n_max, levels, face, degen)
        action = {
            n: {
                (g, (e, f)): self._orbit_rep[(n, (left.act(n, g, e), f))]
                for g in group.level(n).elements
                for (e, f) in levels[n]
            }
            for n in range(n_max + 1)
        }
        proj = {
            n: {(e, f): left.project(n, e) for (e, f) in levels[n]}
            for n in range(n_max + 1)
        }
        super().__init__(group, base, total, action, proj)

    def orbit_rep(self, n, pair):
        return self._orbit_rep[(n, pair)]


def bundle_tensor(left: Bundle, right: Bundle) -> TensorBundle:
    return TensorBundle(left, right)


def mu_product(p: SimplicialDistribution, q: SimplicialDistribution) -> SimplicialDistribution:
    """Product measure on the fibre product, pushed to the orbit quotient."""
    if p.bundle.base is not q.bundle.base and p.bundle.base.levels != q.bundle.base.levels:
        raise InvalidInput("distributions over different bases")
    tb = bundle_tensor(p.bundle, q.bundle)
    levels = {}
    for n in range(tb.base.n_max + 1):
        levels[n] = {}
        for x in tb.base.simplices(n):
            levels[n][x] = pushforward(
                lambda pair: tb.orbit_rep(n, pair), product([p.at(n, x), q.at(n, x)])
            )
    return SimplicialDistribution(tb, levels)


# -- bundle isomorphisms ---------------------------------------------------------------------


def bundle_iso_valid(src: Bundle, dst: Bundle, mapping: Mapping) -> bool:
    """mapping: n -> {src total simplex -> dst total simplex}; checks it is
    a levelwise bijection over the base, equivariant and simplicial."""
    for n in range(src.total.n_max + 1):
        table = mapping.get(n)
        if table is None or set(table) != set(src.total.simplices(n)):
            return False
        if sorted(table.values(), key=element_key) != sorted(
            dst.total.simplices(n), key=element_key
        ):
            return False
        for e in src.total.simplices(n):
            if dst.project(n, table[e]) != src.project(n, e):
                return False
            for g in src.group.level(n).elements:
                if table[src.act(n, g, e)] != dst.act(n, g, table[e]):
                    return False
    return _is_simplicial_map(src.total, dst.total, mapping)


def twist_addition_iso(tensor_bundle: TensorBundle, sum_bundle: Bundle):
    """For tensor products of twisted products: orbit of ((k1, x), (k2, x))
    maps to (k1 + k2, x)."""
    group = tensor_bundle.group
    mapping = {}
    for n in range(tensor_bundle.total.n_max + 1):
        grp = group.level(n)
        mapping[n] = {
            (e, f): (grp.add(e[0], f[0]), e[1])
            for (e, f) in tensor_bundle.total.simplices(n)
        }
    return mapping


def braiding_iso(ef: TensorBundle, fe: TensorBundle):
    return {
        n: {(e, f): fe.orbit_rep(n, (f, e)) for (e, f) in ef.total.simplices(n)}
        for n in range(ef.total.n_max + 1)
    }


def assoc_iso(left_nested: TensorBundle, right_nested: TensorBundle):
    """(E (x) F) (x) G -> E (x) (F (x) G) on orbit representatives."""
    fg = right_nested.right
    return {
        n: {
            ((e, f), g): right_nested.orbit_rep(n, (e, fg.orbit_rep(n, (f, g))))
            for ((e, f), g) in left_nested.total.simplices(n)
        }
        for n in range(left_nested.total.n_max + 1)
    }


def unit_iso(et: TensorBundle):
    """E (x) (K x_0 X) -> E: the trivial factor shifts the other one."""
    return {  # f = (k, x) is a point of the trivial bundle
        n: {(e, (k, x)): et.left.act(n, k, e) for (e, (k, x)) in et.total.simplices(n)}
        for n in range(et.total.n_max + 1)
    }


def pushforward_sdist(p: SimplicialDistribution, dst_bundle: Bundle, mapping) -> SimplicialDistribution:
    levels = {
        n: {
            x: pushforward(lambda el: mapping[n][el], p.at(n, x))
            for x in p.levels[n]
        }
        for n in p.levels
    }
    return SimplicialDistribution(dst_bundle, levels)


# -- the graded monoid of twisted distributions ---------------------------------------------------


class TwistMonoid:
    """Addition of twisting functions with the graded multiplication
    (eta1, p) * (eta2, q) = (eta1 + eta2, mu(p, q) transported along the
    twist-addition isomorphism)."""

    __slots__ = ("space", "group", "twists", "zero", "bundles")

    def __init__(
        self,
        space: TruncatedSimplicialSet,
        group: SimplicialAbGroup,
        twists: list,
        zero: TwistingFunction,
        bundles: dict,  # twist -> Bundle
    ):
        self.space = space
        self.group = group
        self.twists = twists
        self.zero = zero
        self.bundles = bundles

    def add(self, t1: TwistingFunction, t2: TwistingFunction) -> TwistingFunction:
        return t1 + t2

    def bundle_of(self, twist: TwistingFunction) -> Bundle:
        return self.bundles[twist]

    def unit_element(self):
        zero_bundle = self.bundles[self.zero]
        section = {
            n: {
                x: (self.group.level(n).zero, x)
                for x in self.space.simplices(n)
            }
            for n in range(self.space.n_max + 1)
        }
        return (self.zero, section_sdist(zero_bundle, section))

    def multiply(self, graded1, graded2):
        eta1, p = graded1
        eta2, q = graded2
        total_twist = eta1 + eta2
        product = mu_product(p, q)
        iso = twist_addition_iso(product.bundle, self.bundles[total_twist])
        transported = pushforward_sdist(
            product, self.bundles[total_twist], iso
        )
        return (total_twist, transported)


def twist_monoid_structure(space: TruncatedSimplicialSet, group: SimplicialAbGroup) -> TwistMonoid:
    twists = enumerate_twists(space, group)
    zero = TwistingFunction.zero(space, group)
    bundles = {t: twisted_product(group, t, space) for t in twists}
    return TwistMonoid(space, group, twists, zero, bundles)
