"""Desk-scale simplicial machinery: truncated simplicial sets, simplicial
abelian groups, twisting functions and twisted products, simplicial
distributions on principal bundles, the bundle tensor, and the graded
monoid of twisted distributions.

Everything is table-driven and dimension-truncated (default bound 2, max 3);
all simplicial identities are checked exhaustively on the tables.  The
twisted product K x_eta X has componentwise faces except the zeroth, which
is shifted: d_0(k, x) = (eta(x) + d_0 k, d_0 x); the twisting-function
identities validated here are exactly the ones this convention forces.

A simplicial distribution on a bundle pi: E -> X assigns each simplex a
distribution on its fibre level, commuting with faces and degeneracies
(non-signaling) and pushing forward to the point mass at the simplex
(the section condition).  The bundle tensor quotients the fibre product by
(e, f) ~ (k e, -k f); products of distributions descend to it, realizing
twist addition, and grade a monoid over the twisting functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .distribution import FiniteDistribution, convex_combine, delta, element_key, pushforward
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
        els = [str(i) for i in range(n)]
        add = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
        neg = {str(a): str((-a) % n) for a in range(n)}
        return cls(els, add, "0", neg)

    def __repr__(self):
        return f"AbGroup({len(self.elements)} elements)"


class SimplicialAbGroup:
    """Levelwise abelian groups with homomorphic face/degeneracy tables."""

    def __init__(self, n_max: int, groups: Sequence[AbGroup], face: Mapping, degen: Mapping):
        self.n_max = n_max
        self.groups = tuple(groups)
        self.face = {k: dict(v) for k, v in face.items()}
        self.degen = {k: dict(v) for k, v in degen.items()}
        if len(self.groups) != n_max + 1:
            raise InvalidInput("need one group per level")
        _check_tables(self, [g.elements for g in self.groups])
        for (n, i), table in self.face.items():
            g_from, g_to = self.groups[n], self.groups[n - 1]
            for a, b in itertools.product(g_from.elements, repeat=2):
                if table[g_from.add(a, b)] != g_to.add(table[a], table[b]):
                    raise InvalidInput(f"face ({n},{i}) is not a homomorphism")
        for (n, i), table in self.degen.items():
            g_from, g_to = self.groups[n], self.groups[n + 1]
            for a, b in itertools.product(g_from.elements, repeat=2):
                if table[g_from.add(a, b)] != g_to.add(table[a], table[b]):
                    raise InvalidInput(f"degeneracy ({n},{i}) is not a homomorphism")

    @classmethod
    def constant(cls, group: AbGroup, n_max: int) -> "SimplicialAbGroup":
        ident = {a: a for a in group.elements}
        face = {
            (n, i): dict(ident) for n in range(1, n_max + 1) for i in range(n + 1)
        }
        degen = {(n, i): dict(ident) for n in range(n_max) for i in range(n + 1)}
        return cls(n_max, [group] * (n_max + 1), face, degen)

    def level(self, n: int) -> AbGroup:
        return self.groups[n]

    def d(self, n, i, k):
        return self.face[(n, i)][k]

    def s(self, n, i, k):
        return self.degen[(n, i)][k]


# -- truncated simplicial sets ---------------------------------------------------------


class TruncatedSimplicialSet:
    """Simplex tables up to a dimension bound, with all identities checked."""

    def __init__(self, n_max: int, levels: Sequence, face: Mapping, degen: Mapping):
        self.n_max = n_max
        self.levels = tuple(tuple(lv) for lv in levels)
        self.face = {k: dict(v) for k, v in face.items()}
        self.degen = {k: dict(v) for k, v in degen.items()}
        if len(self.levels) != n_max + 1:
            raise InvalidInput("need one simplex list per level")
        _check_tables(self, self.levels)

    def d(self, n, i, x):
        return self.face[(n, i)][x]

    def s(self, n, i, x):
        return self.degen[(n, i)][x]

    def simplices(self, n):
        return self.levels[n]

    def __repr__(self):
        sizes = ", ".join(str(len(lv)) for lv in self.levels)
        return f"TruncatedSimplicialSet(N={self.n_max}; sizes {sizes})"


def _check_tables(obj, levels):
    """Totality plus the simplicial identities, on any levelled tables."""
    n_max = obj.n_max
    for n in range(1, n_max + 1):
        for i in range(n + 1):
            table = obj.face.get((n, i))
            if table is None or set(table) != set(levels[n]):
                raise InvalidInput(f"face table ({n},{i}) missing or not total")
            if not set(table.values()) <= set(levels[n - 1]):
                raise InvalidInput(f"face table ({n},{i}) escapes its level")
    for n in range(n_max):
        for i in range(n + 1):
            table = obj.degen.get((n, i))
            if table is None or set(table) != set(levels[n]):
                raise InvalidInput(f"degeneracy table ({n},{i}) missing or not total")
            if not set(table.values()) <= set(levels[n + 1]):
                raise InvalidInput(f"degeneracy table ({n},{i}) escapes its level")

    d = lambda n, i, x: obj.face[(n, i)][x]
    s = lambda n, i, x: obj.degen[(n, i)][x]

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


def standard_point(n_max: int) -> TruncatedSimplicialSet:
    levels = [(f"v{n}",) for n in range(n_max + 1)]
    face = {
        (n, i): {f"v{n}": f"v{n-1}"}
        for n in range(1, n_max + 1)
        for i in range(n + 1)
    }
    degen = {
        (n, i): {f"v{n}": f"v{n+1}"}
        for n in range(n_max)
        for i in range(n + 1)
    }
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
    """Maps eta_n: X_n -> K_{n-1} for 1 <= n <= N satisfying the identities
    forced by the twisted zeroth face (checked on construction)."""

    def __init__(self, space: TruncatedSimplicialSet, group: SimplicialAbGroup, maps: Mapping):
        self.space = space
        self.group = group
        self.maps = {n: dict(v) for n, v in maps.items()}
        self.validate()

    def validate(self):
        x, k = self.space, self.group
        if x.n_max != k.n_max:
            raise InvalidTwist("space and group truncations differ")
        for n in range(1, x.n_max + 1):
            table = self.maps.get(n)
            if table is None or set(table) != set(x.simplices(n)):
                raise InvalidTwist(f"level {n} map missing or not total")
            if not set(table.values()) <= set(k.level(n - 1).elements):
                raise InvalidTwist(f"level {n} map escapes the group")
        eta = self.value
        for n in range(2, x.n_max + 1):
            gk = k.level(n - 2)
            for simp in x.simplices(n):
                lhs = k.d(n - 1, 0, eta(n, simp))
                rhs = gk.add(
                    eta(n - 1, x.d(n, 1, simp)),
                    gk.neg(eta(n - 1, x.d(n, 0, simp))),
                )
                if lhs != rhs:
                    raise InvalidTwist(f"zeroth-face identity fails at {simp!r}")
                for i in range(1, n):
                    if k.d(n - 1, i, eta(n, simp)) != eta(n - 1, x.d(n, i + 1, simp)):
                        raise InvalidTwist(
                            f"face identity fails at level {n}, i={i}, {simp!r}"
                        )
        for n in range(1, x.n_max):
            for simp in x.simplices(n):
                for i in range(n):
                    if k.s(n - 1, i, eta(n, simp)) != eta(n + 1, x.s(n, i + 1, simp)):
                        raise InvalidTwist(
                            f"degeneracy identity fails at level {n}, i={i}"
                        )
        for n in range(x.n_max):
            zero = k.level(n).zero
            for simp in x.simplices(n):
                if eta(n + 1, x.s(n, 0, simp)) != zero:
                    raise InvalidTwist(f"eta(s_0 {simp!r}) != 0")

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


def enumerate_twists(space: TruncatedSimplicialSet, group: SimplicialAbGroup):
    """All twisting functions on the given tables, by filtered brute force."""
    level_choices = []
    level_keys = []
    for n in range(1, space.n_max + 1):
        simps = space.simplices(n)
        level_keys.append((n, simps))
        level_choices.append(
            itertools.product(group.level(n - 1).elements, repeat=len(simps))
        )
    out = []
    for combo in itertools.product(*level_choices):
        maps = {
            n: dict(zip(simps, values))
            for (n, simps), values in zip(level_keys, combo)
        }
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
        # action and projection are simplicial
        for n in range(1, e.n_max + 1):
            for i in range(n + 1):
                for el in e.simplices(n):
                    if self.proj[n - 1][e.d(n, i, el)] != x.d(n, i, self.proj[n][el]):
                        raise InvalidInput("projection does not commute with faces")
                    for g in k.level(n).elements:
                        if e.d(n, i, self.act(n, g, el)) != self.act(
                            n - 1, k.d(n, i, g), e.d(n, i, el)
                        ):
                            raise InvalidInput("action does not commute with faces")
        for n in range(e.n_max):
            for i in range(n + 1):
                for el in e.simplices(n):
                    if self.proj[n + 1][e.s(n, i, el)] != x.s(n, i, self.proj[n][el]):
                        raise InvalidInput(
                            "projection does not commute with degeneracies"
                        )
                    for g in k.level(n).elements:
                        if e.s(n, i, self.act(n, g, el)) != self.act(
                            n + 1, k.s(n, i, g), e.s(n, i, el)
                        ):
                            raise InvalidInput(
                                "action does not commute with degeneracies"
                            )


def twisted_product(group: SimplicialAbGroup, eta: TwistingFunction,
                    space: TruncatedSimplicialSet) -> Bundle:
    """The bundle K x_eta X: pairs (k, x) with componentwise structure
    except d_0(k, x) = (eta(x) + d_0 k, d_0 x)."""
    if eta.space is not space or eta.group is not group:
        raise InvalidTwist("twisting function is for different data")
    n_max = space.n_max
    levels = [
        tuple(
            (k, x)
            for k in group.level(n).elements
            for x in space.simplices(n)
        )
        for n in range(n_max + 1)
    ]
    face = {}
    for n in range(1, n_max + 1):
        for i in range(n + 1):
            table = {}
            for (k, x) in levels[n]:
                if i == 0:
                    shifted = group.level(n - 1).add(
                        eta.value(n, x), group.d(n, 0, k)
                    )
                    table[(k, x)] = (shifted, space.d(n, 0, x))
                else:
                    table[(k, x)] = (group.d(n, i, k), space.d(n, i, x))
            face[(n, i)] = table
    degen = {}
    for n in range(n_max):
        for i in range(n + 1):
            degen[(n, i)] = {
                (k, x): (group.s(n, i, k), space.s(n, i, x)) for (k, x) in levels[n]
            }
    total = TruncatedSimplicialSet(n_max, levels, face, degen)
    action = {
        n: {
            (g, (k, x)): (group.level(n).add(g, k), x)
            for g in group.level(n).elements
            for (k, x) in levels[n]
        }
        for n in range(n_max + 1)
    }
    proj = {n: {(k, x): x for (k, x) in levels[n]} for n in range(n_max + 1)}
    return Bundle(group, space, total, action, proj)


# -- simplicial distributions -----------------------------------------------------------------


@dataclass
class SimplicialDistribution:
    """Per-level maps from base simplices to distributions on total ones."""

    bundle: Bundle
    levels: dict  # n -> {x: FiniteDistribution}

    def at(self, n, x) -> FiniteDistribution:
        if x not in self.levels.get(n, {}):
            raise InvalidInput(f"no distribution at simplex {x!r} of level {n}")
        return self.levels[n][x]


@dataclass
class SDistReport:
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def check_simplicial_distribution(p: SimplicialDistribution, bundle: Bundle) -> SDistReport:
    """Exact verification of naturality (non-signaling) and the section
    condition; failures are itemized with simplex and face index."""
    report = SDistReport()
    x, e = bundle.base, bundle.total
    for n in range(x.n_max + 1):
        table = p.levels.get(n)
        if table is None or set(table) != set(x.simplices(n)):
            report.failures.append(("totality", n, None, None))
            return report
        for simp in x.simplices(n):
            dist = table[simp]
            if not dist.support() <= set(e.simplices(n)):
                report.failures.append(("support", n, simp, None))
            pushed = pushforward(lambda el: bundle.project(n, el), dist)
            if pushed != delta(simp):
                report.failures.append(("section", n, simp, None))
    for n in range(1, x.n_max + 1):
        for i in range(n + 1):
            for simp in x.simplices(n):
                lhs = pushforward(lambda el: e.d(n, i, el), p.at(n, simp))
                rhs = p.at(n - 1, x.d(n, i, simp))
                if lhs != rhs:
                    report.failures.append(("face", n, simp, i))
    for n in range(x.n_max):
        for i in range(n + 1):
            for simp in x.simplices(n):
                lhs = pushforward(lambda el: e.s(n, i, el), p.at(n, simp))
                rhs = p.at(n + 1, x.s(n, i, simp))
                if lhs != rhs:
                    report.failures.append(("degeneracy", n, simp, i))
    return report


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
    x, e = bundle.base, bundle.total
    per_level = []
    keys = []
    for n in range(x.n_max + 1):
        simps = x.simplices(n)
        keys.append((n, simps))
        per_level.append(
            itertools.product(*(bundle.fibre(n, s) for s in simps))
        )
    out = []
    for combo in itertools.product(*per_level):
        section = {
            n: dict(zip(simps, values)) for (n, simps), values in zip(keys, combo)
        }
        if _section_is_simplicial(bundle, section):
            out.append(section)
    return out


def _section_is_simplicial(bundle, section):
    x, e = bundle.base, bundle.total
    for n in range(1, x.n_max + 1):
        for i in range(n + 1):
            for simp in x.simplices(n):
                if e.d(n, i, section[n][simp]) != section[n - 1][x.d(n, i, simp)]:
                    return False
    for n in range(x.n_max):
        for i in range(n + 1):
            for simp in x.simplices(n):
                if e.s(n, i, section[n][simp]) != section[n + 1][x.s(n, i, simp)]:
                    return False
    return True


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
                pairs = [
                    (e, f)
                    for e in left.fibre(n, x)
                    for f in right.fibre(n, x)
                ]
                seen = set()
                for pair in pairs:
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

        face = {}
        for n in range(1, n_max + 1):
            for i in range(n + 1):
                face[(n, i)] = {
                    (e, f): self._orbit_rep[
                        (n - 1, (left.total.d(n, i, e), right.total.d(n, i, f)))
                    ]
                    for (e, f) in levels[n]
                }
        degen = {}
        for n in range(n_max):
            for i in range(n + 1):
                degen[(n, i)] = {
                    (e, f): self._orbit_rep[
                        (n + 1, (left.total.s(n, i, e), right.total.s(n, i, f)))
                    ]
                    for (e, f) in levels[n]
                }
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
            weights = {}
            for e, we in p.at(n, x).items():
                for f, wf in q.at(n, x).items():
                    rep = tb.orbit_rep(n, (e, f))
                    w = we * wf
                    weights[rep] = weights.get(rep, F(0)) + w
            levels[n][x] = FiniteDistribution(weights)
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
    for n in range(1, src.total.n_max + 1):
        for i in range(n + 1):
            for e in src.total.simplices(n):
                if mapping[n - 1][src.total.d(n, i, e)] != dst.total.d(
                    n, i, mapping[n][e]
                ):
                    return False
    for n in range(src.total.n_max):
        for i in range(n + 1):
            for e in src.total.simplices(n):
                if mapping[n + 1][src.total.s(n, i, e)] != dst.total.s(
                    n, i, mapping[n][e]
                ):
                    return False
    return True


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
    mapping = {}
    for n in range(ef.total.n_max + 1):
        mapping[n] = {
            (e, f): fe.orbit_rep(n, (f, e)) for (e, f) in ef.total.simplices(n)
        }
    return mapping


def assoc_iso(left_nested: TensorBundle, right_nested: TensorBundle):
    """(E (x) F) (x) G -> E (x) (F (x) G) on orbit representatives."""
    fg = right_nested.right
    mapping = {}
    for n in range(left_nested.total.n_max + 1):
        table = {}
        for ((e, f), g) in left_nested.total.simplices(n):
            inner = fg.orbit_rep(n, (f, g))
            table[((e, f), g)] = right_nested.orbit_rep(n, (e, inner))
        mapping[n] = table
    return mapping


def unit_iso(et: TensorBundle):
    """E (x) (K x_0 X) -> E: the trivial factor shifts the other one."""
    left = et.left
    mapping = {}
    for n in range(et.total.n_max + 1):
        table = {}
        for (e, f) in et.total.simplices(n):
            k, _ = f  # trivial-bundle point (k, x)
            table[(e, f)] = left.act(n, k, e)
        mapping[n] = table
    return mapping


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


@dataclass
class TwistMonoid:
    """Addition of twisting functions with the graded multiplication
    (eta1, p) * (eta2, q) = (eta1 + eta2, mu(p, q) transported along the
    twist-addition isomorphism)."""

    space: TruncatedSimplicialSet
    group: SimplicialAbGroup
    twists: list
    zero: TwistingFunction
    bundles: dict  # twist -> Bundle

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
