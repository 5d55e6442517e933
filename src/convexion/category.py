"""Finite categories, set- and convex-set-valued functors, discrete
fibrations, and both Grothendieck constructions.

The classical construction turns a set-valued functor into a finite total
category with objects (c, x) and a unique lift of every base morphism at
every source object; extraction inverts it up to explicitly constructed
natural isomorphisms.  The convex version keeps the fibres as presented
convex sets: object fibres can be infinite, so the total category is lazy
(membership tests and lift functions), with fibre-level convex structure
given by mixing graph pairs.  Only that convex half imports presentation
(and so linalg), where it runs.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import NotAFibration, NotAFunctor
from .record import Frozen

if TYPE_CHECKING:
    from .presentation import Presentation, PresentedElement


class Morphism(Frozen):
    __slots__ = _fields = ("name", "src", "tgt")

    def __init__(self, name, src, tgt):
        self._set(name, src, tgt)


class FiniteCategory:
    """Objects, morphisms, identities, and a composition table.

    The table maps (g, f) with src(g) = tgt(f) to g . f ("g after f").
    Identifiers are hashables (strings in JSON; tuples internally).
    """

    def __init__(self, objects, morphisms, identity, table):
        self.objects = tuple(objects)
        self.morphisms = {m.name: m for m in morphisms}
        self.identity = dict(identity)
        self.table = dict(table)
        self.validate()

    def validate(self):
        objset = set(self.objects)
        if len(self.objects) != len(objset):
            raise NotAFunctor("duplicate object names")
        for m in self.morphisms.values():
            if m.src not in objset or m.tgt not in objset:
                raise NotAFunctor(f"morphism {m.name!r} has unknown endpoints")
        for c in self.objects:
            i = self.identity.get(c)
            if i is None or i not in self.morphisms:
                raise NotAFunctor(f"object {c!r} lacks an identity")
            mi = self.morphisms[i]
            if mi.src != c or mi.tgt != c:
                raise NotAFunctor(f"identity of {c!r} is not an endomorphism")
        # composition total exactly on composable pairs
        for g, f in itertools.product(self.morphisms.values(), repeat=2):
            composable = f.tgt == g.src
            defined = (g.name, f.name) in self.table
            if composable != defined:
                raise NotAFunctor(
                    f"composition table wrong at ({g.name!r}, {f.name!r})"
                )
            if defined:
                gf = self.morphisms.get(self.table[(g.name, f.name)])
                if gf is None or gf.src != f.src or gf.tgt != g.tgt:
                    raise NotAFunctor(
                        f"composite of ({g.name!r}, {f.name!r}) has wrong type"
                    )
        # unit laws
        for m in self.morphisms.values():
            if self.table[(m.name, self.identity[m.src])] != m.name:
                raise NotAFunctor(f"right unit law fails at {m.name!r}")
            if self.table[(self.identity[m.tgt], m.name)] != m.name:
                raise NotAFunctor(f"left unit law fails at {m.name!r}")
        # associativity on all composable triples
        for h, g, f in itertools.product(self.morphisms.values(), repeat=3):
            if f.tgt == g.src and g.tgt == h.src:
                left = self.table[(h.name, self.table[(g.name, f.name)])]
                right = self.table[(self.table[(h.name, g.name)], f.name)]
                if left != right:
                    raise NotAFunctor(
                        f"associativity fails at ({h.name!r}, {g.name!r}, {f.name!r})"
                    )

    def compose(self, g, f):
        return self.table[(g, f)]

    def is_identity(self, name) -> bool:
        return name in set(self.identity.values())

    def non_identity_count(self) -> int:
        return len(self.morphisms) - len(set(self.identity.values()))

    def hom(self, a, b):
        return [
            m.name
            for m in self.morphisms.values()
            if m.src == a and m.tgt == b
        ]

    def __repr__(self):
        return (
            f"FiniteCategory({len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )


# -- a small library of bases -------------------------------------------------


def discrete_category(objects) -> FiniteCategory:
    objects = tuple(objects)
    morphisms = [Morphism(("id", c), c, c) for c in objects]
    identity = {c: ("id", c) for c in objects}
    table = {((("id", c)), ("id", c)): ("id", c) for c in objects}
    return FiniteCategory(objects, morphisms, identity, table)


def walking_arrow() -> FiniteCategory:
    ms = [Morphism("id0", "0", "0"), Morphism("id1", "1", "1"), Morphism("f", "0", "1")]
    table = {
        ("id0", "id0"): "id0",
        ("id1", "id1"): "id1",
        ("f", "id0"): "f",
        ("id1", "f"): "f",
    }
    return FiniteCategory(("0", "1"), ms, {"0": "id0", "1": "id1"}, table)


def parallel_pair() -> FiniteCategory:
    ms = [
        Morphism("id0", "0", "0"),
        Morphism("id1", "1", "1"),
        Morphism("f", "0", "1"),
        Morphism("g", "0", "1"),
    ]
    table = {
        ("id0", "id0"): "id0",
        ("id1", "id1"): "id1",
        ("f", "id0"): "f",
        ("id1", "f"): "f",
        ("g", "id0"): "g",
        ("id1", "g"): "g",
    }
    return FiniteCategory(("0", "1"), ms, {"0": "id0", "1": "id1"}, table)


def chain_category(n: int) -> FiniteCategory:
    """The poset 0 -> 1 -> ... -> n as a category (composites included)."""
    objects = tuple(str(i) for i in range(n + 1))
    ms = [Morphism(f"id{i}", str(i), str(i)) for i in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            ms.append(Morphism(f"le{i}{j}", str(i), str(j)))
    identity = {str(i): f"id{i}" for i in range(n + 1)}

    def name(i, j):
        return f"id{i}" if i == j else f"le{i}{j}"

    table = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                table[(name(j, k), name(i, j))] = name(i, k)
    return FiniteCategory(objects, ms, identity, table)


def commutative_square() -> FiniteCategory:
    """The poset square 00 -> {01, 10} -> 11."""
    objects = ("00", "01", "10", "11")
    order = {
        ("00", "01"), ("00", "10"), ("00", "11"), ("01", "11"), ("10", "11"),
    }
    ms = [Morphism(f"id{o}", o, o) for o in objects]
    ms += [Morphism(f"le{a}_{b}", a, b) for a, b in sorted(order)]
    identity = {o: f"id{o}" for o in objects}

    def name(a, b):
        return f"id{a}" if a == b else f"le{a}_{b}"

    leq = lambda a, b: a == b or (a, b) in order
    table = {}
    for a in objects:
        for b in objects:
            if not leq(a, b):
                continue
            for c in objects:
                if leq(b, c):
                    table[(name(b, c), name(a, b))] = name(a, c)
    return FiniteCategory(objects, ms, identity, table)


def cyclic_group_category(n: int) -> FiniteCategory:
    """One object with Z/n worth of isomorphisms."""
    ms = [Morphism(f"r{k}", "*", "*") for k in range(n)]
    table = {
        (f"r{a}", f"r{b}"): f"r{(a + b) % n}" for a in range(n) for b in range(n)
    }
    return FiniteCategory(("*",), ms, {"*": "r0"}, table)


def idempotent_monoid_category() -> FiniteCategory:
    """One object, morphisms {1, e} with e.e = e."""
    ms = [Morphism("1", "*", "*"), Morphism("e", "*", "*")]
    table = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    return FiniteCategory(("*",), ms, {"*": "1"}, table)


def fin_skeleton(max_size: int) -> FiniteCategory:
    """Skeleton of nonempty finite sets of size <= max_size with ALL
    functions as morphisms.  Objects are "n1", "n2", ...; a morphism is
    ("fn", k, m, images) sending element i of the k-set to images[i]."""
    objects = tuple(f"n{k}" for k in range(1, max_size + 1))
    morphisms = []
    for k in range(1, max_size + 1):
        for m in range(1, max_size + 1):
            for images in itertools.product(range(m), repeat=k):
                morphisms.append(
                    Morphism(("fn", k, m, images), f"n{k}", f"n{m}")
                )
    identity = {
        f"n{k}": ("fn", k, k, tuple(range(k))) for k in range(1, max_size + 1)
    }
    table = {}
    for g in morphisms:
        for f in morphisms:
            if f.tgt != g.src:
                continue
            _, k, m, f_imgs = f.name
            _, _, l, g_imgs = g.name
            table[(g.name, f.name)] = ("fn", k, l, tuple(g_imgs[i] for i in f_imgs))
    return FiniteCategory(objects, morphisms, identity, table)


STANDARD_BASES = {
    "discrete1": lambda: discrete_category(["c"]),
    "discrete3": lambda: discrete_category(["c0", "c1", "c2"]),
    "arrow": walking_arrow,
    "parallel": parallel_pair,
    "chain2": lambda: chain_category(2),
    "square": commutative_square,
    "cyclic3": lambda: cyclic_group_category(3),
    "idempotent": idempotent_monoid_category,
}


# -- set-valued functors and the classical construction -------------------------


class SetFunctor:
    """on_objects: object -> tuple of elements; on_morphisms: name -> dict."""

    def __init__(self, base: FiniteCategory, on_objects, on_morphisms):
        self.base = base
        self.on_objects = {c: tuple(v) for c, v in on_objects.items()}
        self.on_morphisms = {m: dict(v) for m, v in on_morphisms.items()}
        self.validate()

    def validate(self):
        for c in self.base.objects:
            if c not in self.on_objects:
                raise NotAFunctor(f"no value set for object {c!r}")
        for name, m in self.base.morphisms.items():
            if name not in self.on_morphisms:
                raise NotAFunctor(f"no value map for morphism {name!r}")
            fmap = self.on_morphisms[name]
            src, tgt = set(self.on_objects[m.src]), set(self.on_objects[m.tgt])
            if set(fmap) != src or not set(fmap.values()) <= tgt:
                raise NotAFunctor(f"value map of {name!r} has the wrong type")
        for c, iname in self.base.identity.items():
            fmap = self.on_morphisms[iname]
            if any(fmap[x] != x for x in self.on_objects[c]):
                raise NotAFunctor(f"identity of {c!r} does not map to identity")
        for (g, f), gf in self.base.table.items():
            fg_map = self.on_morphisms[f]
            g_map = self.on_morphisms[g]
            gf_map = self.on_morphisms[gf]
            for x in fg_map:
                if g_map[fg_map[x]] != gf_map[x]:
                    raise NotAFunctor(
                        f"functoriality fails on ({g!r}, {f!r}) at {x!r}"
                    )

    def apply(self, morphism_name, x):
        return self.on_morphisms[morphism_name][x]


class FibrationData:
    """A functor total -> base presented by explicit projection maps."""

    __slots__ = ("total", "base", "object_projection", "morphism_projection")

    def __init__(
        self,
        total: FiniteCategory,
        base: FiniteCategory,
        object_projection: Mapping,
        morphism_projection: Mapping,
    ):
        self.total = total
        self.base = base
        self.object_projection = object_projection
        self.morphism_projection = morphism_projection

    def fibre_objects(self, c):
        return sorted(
            (x for x, b in self.object_projection.items() if b == c),
            key=repr,
        )

    def lifts(self, base_morphism, total_source):
        return [
            name
            for name, m in self.total.morphisms.items()
            if self.morphism_projection[name] == base_morphism
            and m.src == total_source
        ]


def grothendieck(f: SetFunctor) -> FibrationData:
    """Total category with objects (c, x) and a morphism (g, x) over each
    base morphism g at each x in the fibre over its source."""
    base = f.base
    objects = [(c, x) for c in base.objects for x in f.on_objects[c]]
    morphisms = []
    obj_proj = {o: o[0] for o in objects}
    mor_proj = {}
    for name, m in base.morphisms.items():
        for x in f.on_objects[m.src]:
            total_name = (name, x)
            morphisms.append(
                Morphism(total_name, (m.src, x), (m.tgt, f.apply(name, x)))
            )
            mor_proj[total_name] = name
    identity = {(c, x): (base.identity[c], x) for (c, x) in objects}
    table = {}
    for (g, fname), gf in base.table.items():
        fm = base.morphisms[fname]
        for x in f.on_objects[fm.src]:
            y = f.apply(fname, x)
            table[((g, y), (fname, x))] = (gf, x)
    total = FiniteCategory(objects, morphisms, identity, table)
    return FibrationData(total, base, obj_proj, mor_proj)


def is_discrete_fibration(p: FibrationData) -> bool:
    """Projection is a functor and every (base morphism, source lift) pair
    has exactly one lift; taking identities this makes the fibres discrete."""
    total, base = p.total, p.base
    for name, m in total.morphisms.items():
        bm = base.morphisms.get(p.morphism_projection.get(name))
        if bm is None:
            return False
        if p.object_projection.get(m.src) != bm.src:
            return False
        if p.object_projection.get(m.tgt) != bm.tgt:
            return False
    for o in total.objects:
        if p.morphism_projection[total.identity[o]] != base.identity[
            p.object_projection[o]
        ]:
            return False
    for (g, f), gf in total.table.items():
        if base.table[
            (p.morphism_projection[g], p.morphism_projection[f])
        ] != p.morphism_projection[gf]:
            return False
    for bname, bm in base.morphisms.items():
        for o in total.objects:
            if p.object_projection[o] != bm.src:
                continue
            if len(p.lifts(bname, o)) != 1:
                return False
    return True


def extract_functor(p: FibrationData) -> SetFunctor:
    """Quasi-inverse of the construction: fibres and unique-lift targets."""
    if not is_discrete_fibration(p):
        raise NotAFibration("projection is not a discrete fibration")
    on_objects = {c: tuple(p.fibre_objects(c)) for c in p.base.objects}
    on_morphisms = {}
    for bname, bm in p.base.morphisms.items():
        fmap = {}
        for x in on_objects[bm.src]:
            (lift,) = p.lifts(bname, x)
            fmap[x] = p.total.morphisms[lift].tgt
        on_morphisms[bname] = fmap
    return SetFunctor(p.base, on_objects, on_morphisms)


# -- explicit round-trip isomorphisms -------------------------------------------


def natural_iso_components(f: SetFunctor, g: SetFunctor):
    """A natural isomorphism f => g from bijective components, or None.

    Components are searched only among canonical candidates: this is used
    for round-trips where the iso is (c, x) <-> x, so the candidate is the
    evident relabelling when sets biject by construction order.
    """
    if f.base is not g.base and f.base.objects != g.base.objects:
        return None
    comps = {}
    for c in f.base.objects:
        fs, gs = f.on_objects[c], g.on_objects[c]
        if len(fs) != len(gs):
            return None
        comps[c] = dict(zip(sorted(fs, key=repr), sorted(gs, key=repr)))
    for name, m in f.base.morphisms.items():
        for x in f.on_objects[m.src]:
            if comps[m.tgt][f.apply(name, x)] != g.apply(name, comps[m.src][x]):
                return None
    return comps


def fibration_morphism_over_base(p: FibrationData, q: FibrationData, obj_map):
    """Check that obj_map defines an over-base functor p -> q (on a discrete
    fibration the morphism action is forced by unique lifts)."""
    for o in p.total.objects:
        if o not in obj_map:
            return False
        if q.object_projection[obj_map[o]] != p.object_projection[o]:
            return False
    for name, m in p.total.morphisms.items():
        bname = p.morphism_projection[name]
        lifts = q.lifts(bname, obj_map[m.src])
        if len(lifts) != 1:
            return False
        if q.total.morphisms[lifts[0]].tgt != obj_map[m.tgt]:
            return False
    return True


# -- convex-set-valued functors and the fibrewise convex construction -----------


class CSetFunctor:
    """on_objects: object -> Presentation; on_morphisms: name -> ConvexMap.

    Functoriality is validated on generators, exactly: each identity must
    fix every generator and each composite must agree with the table's
    morphism on every generator, in the target's quotient
    (presentation.same_class).  A failure raises NotAFunctor.
    """

    def __init__(self, base: FiniteCategory, on_objects, on_morphisms):
        self.base = base
        self.on_objects = dict(on_objects)
        self.on_morphisms = dict(on_morphisms)
        self.validate()

    def validate(self):
        from .presentation import ConvexMap, Presentation, same_class
        for c in self.base.objects:
            if not isinstance(self.on_objects.get(c), Presentation):
                raise NotAFunctor(f"no presentation for object {c!r}")
        for name, m in self.base.morphisms.items():
            cmap = self.on_morphisms.get(name)
            if not isinstance(cmap, ConvexMap):
                raise NotAFunctor(f"no convex map for morphism {name!r}")
            if cmap.src != self.on_objects[m.src] or cmap.tgt != self.on_objects[m.tgt]:
                raise NotAFunctor(f"convex map of {name!r} has the wrong type")
        for c, iname in self.base.identity.items():
            cmap, pres = self.on_morphisms[iname], self.on_objects[c]
            for g in pres.generators:
                if not same_class(cmap(pres.delta(g)), pres.delta(g)):
                    raise NotAFunctor(
                        f"identity of {c!r} is not the identity map at generator {g!r}"
                    )
        for (g, f), gf in self.base.table.items():
            pres = self.on_objects[self.base.morphisms[f].src]
            composite = self.on_morphisms[g].compose(self.on_morphisms[f])
            direct = self.on_morphisms[gf]
            for gen in pres.generators:
                if not same_class(composite(pres.delta(gen)), direct(pres.delta(gen))):
                    raise NotAFunctor(
                        f"functoriality fails on ({g!r}, {f!r}) at generator {gen!r}"
                    )

    def apply(self, morphism_name, element: PresentedElement) -> PresentedElement:
        return self.on_morphisms[morphism_name](element)


class GraphPair(Frozen):
    """A point of the fibre over a base morphism: (x, F(f)(x))."""

    __slots__ = _fields = ("morphism", "source", "target")

    def __init__(self, morphism, source: PresentedElement, target: PresentedElement):
        self._set(morphism, source, target)


class ConvexFibrationData:
    """Lazy total category of a convex-set-valued functor.

    Objects over c are the elements of F(c); the fibre over f: c -> d is the
    graph of F(f), mixed pairwise: sum_i a_i (x_i -> y_i) =
    (sum_i a_i x_i -> sum_i a_i y_i).  Everything is given by membership
    tests and lift functions; enumeration only happens when every fibre
    presentation is recognized finite (single-generator presentations).
    """

    def __init__(self, functor: CSetFunctor):
        self.functor = functor
        self.base = functor.base

    def fibre_presentation(self, c) -> Presentation:
        return self.functor.on_objects[c]

    def contains_object(self, c, element) -> bool:
        from .presentation import PresentedElement
        return (
            c in self.base.objects
            and isinstance(element, PresentedElement)
            and element.presentation == self.fibre_presentation(c)
        )

    def lift(self, morphism_name, element: PresentedElement) -> GraphPair:
        m = self.base.morphisms[morphism_name]
        if not self.contains_object(m.src, element):
            raise NotAFibration("element is not over the morphism's source")
        return GraphPair(
            morphism_name, element, self.functor.apply(morphism_name, element)
        )

    def identity_pair(self, c, element: PresentedElement) -> GraphPair:
        return self.lift(self.base.identity[c], element)

    def mix_pairs(self, alpha, pairs) -> GraphPair:
        names = {p.morphism for p in pairs}
        if len(names) != 1:
            raise NotAFibration("mixing pairs over different base morphisms")
        (name,) = names
        from .presentation import quotient_mix
        return GraphPair(
            name,
            quotient_mix(alpha, [p.source for p in pairs]),
            quotient_mix(alpha, [p.target for p in pairs]),
        )

    def recognized_finite(self) -> bool:
        return all(
            len(self.fibre_presentation(c).generators) == 1
            and not self.fibre_presentation(c).relations
            for c in self.base.objects
        )

    def try_enumerate(self) -> Optional[FibrationData]:
        """Materialize the total category when all fibres are singletons."""
        if not self.recognized_finite():
            return None
        on_objects = {
            c: (self.fibre_presentation(c).generators[0],) for c in self.base.objects
        }
        on_morphisms = {}
        for name, m in self.base.morphisms.items():
            x = on_objects[m.src][0]
            y = on_objects[m.tgt][0]
            on_morphisms[name] = {x: y}
        return grothendieck(SetFunctor(self.base, on_objects, on_morphisms))


def convex_grothendieck(
    f: CSetFunctor,
) -> ConvexFibrationData:
    """Fibrewise convex discrete fibration of a functor into presented
    convex sets (functoriality already validated by the functor)."""
    return ConvexFibrationData(f)


def check_fibrewise_equations(cfib: ConvexFibrationData, samples):
    """Verify s, t, and Id compatibility on sampled mixtures, each equation
    decided exactly in its fibre's quotient (presentation.same_class).

    samples: iterable of (morphism_name, alpha, elements-over-source).
    Returns a list of failure descriptions (empty when all hold).
    """
    from .presentation import quotient_mix, same_class
    failures = []
    for name, alpha, elements in samples:
        pairs = [cfib.lift(name, e) for e in elements]
        mixed_pair = cfib.mix_pairs(alpha, pairs)
        src_mix = quotient_mix(alpha, [p.source for p in pairs])
        tgt_mix = quotient_mix(alpha, [p.target for p in pairs])
        if not same_class(mixed_pair.source, src_mix):
            failures.append(("source", name))
        if not same_class(mixed_pair.target, tgt_mix):
            failures.append(("target", name))
        m = cfib.base.morphisms[name]
        id_of_mix = cfib.identity_pair(m.src, src_mix)
        id_pairs = [cfib.identity_pair(m.src, e) for e in elements]
        mixed_ids = cfib.mix_pairs(alpha, id_pairs)
        if not same_class(id_of_mix.source, mixed_ids.source) or not same_class(
            id_of_mix.target, mixed_ids.target
        ):
            failures.append(("identity", name))
    return failures
