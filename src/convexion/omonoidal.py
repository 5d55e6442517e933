"""Operad-indexed monoidal structure and its Grothendieck construction.

An operad here is one of four kinds: trivial, associative (parameters are
permutations), commutative (one operation per arity), and the quasiconvexity
operad.  The first three have OperadOp operations; the quasiconvexity
operad's operations are matprop.QConvOp convex vectors, composed by
matprop.qconv_compose (flattened products).  An O-monoidal category assigns
an n-ary tensor to each n-ary operation; a symmetric monoidal structure
induces a parameter-blind one.

A lax O-functor into presented convex sets carries structure maps xi^z out
of the tensor of the fibre presentations.  Its Grothendieck construction is
the fibrewise convex fibration of the underlying functor, with total
operations (i_1, x_1), ..., (i_n, x_n) |-> (tensor_z(i), xi^z(x_1 (x) ...)).
The projection is strict by construction; strictness, fibrewise convexity,
and slotwise n-convexity are nevertheless re-checked on sampled instances,
because it is the implementation being trusted, not a proof.

The coherence checks cover the operadic-unit condition and the displayed
compatibility squares (composition and permutation), evaluated on instances
over strictly associative bases so that both composites land in literally
the same presentation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .category import CSetFunctor, ConvexFibrationData, FiniteCategory, convex_grothendieck
from .distribution import FiniteDistribution, convex_combine, delta
from .errors import (
    ArityMismatch,
    CoherenceFailure,
    InvalidInput,
    NotConvexStructureMap,
)
from .matprop import QConvOp, qconv_compose
from .presentation import (
    ConvexMap,
    PresentedElement,
    Presentation,
    quotient_mix,
    same_class,
)
from .record import Frozen
from .tensor import TensorPresentation, tensor, universal_map

F = Fraction


# -- operads -------------------------------------------------------------------


class OperadOp(Frozen):
    """An operation of the trivial, associative or commutative operad; the
    quasiconvexity operad's operations are QConvOp."""

    __slots__ = _fields = ("kind", "arity", "param")

    def __init__(
        self,
        kind: str,  # "trivial" | "assoc" | "comm"
        arity: int,
        param: tuple = (),
    ):
        if kind == "assoc":
            if sorted(param) != list(range(arity)):
                raise ArityMismatch("assoc parameter is not a permutation")
        elif kind in ("trivial", "comm"):
            if param:
                raise ArityMismatch(f"{kind} operations carry no parameter")
        else:
            raise ArityMismatch(f"unknown operad kind {kind!r}")
        self._set(kind, arity, param)


def comm_op(arity: int) -> OperadOp:
    return OperadOp("comm", arity)


def assoc_op(perm) -> OperadOp:
    perm = tuple(perm)
    return OperadOp("assoc", len(perm), perm)


class OperadSpec(Frozen):
    __slots__ = _fields = ("kind",)

    def __init__(self, kind: str):
        self._set(kind)

    def unit(self) -> OperadOp | QConvOp:
        if self.kind == "qconv":
            return QConvOp.unit()
        if self.kind == "assoc":
            return assoc_op((0,))
        return OperadOp(self.kind, 1)

    def compose(self, z: OperadOp | QConvOp, xs: Sequence) -> OperadOp | QConvOp:
        if z.kind != self.kind or any(x.kind != self.kind for x in xs):
            raise ArityMismatch("operations from a different operad")
        if len(xs) != z.arity:
            raise ArityMismatch(f"{len(xs)} arguments for arity {z.arity}")
        total = sum(x.arity for x in xs)
        if self.kind == "trivial":
            return self.unit()
        if self.kind == "comm":
            return comm_op(total)
        if self.kind == "qconv":
            return qconv_compose(z, xs)
        # assoc: block permutation
        arities = [x.arity for x in xs]
        offsets = [0]
        for a in arities[:-1]:
            offsets.append(offsets[-1] + a)
        perm = []
        for j in range(z.arity):
            block = z.param[j]
            inner = xs[block].param
            for t in range(arities[block]):
                perm.append(offsets[block] + inner[t])
        return assoc_op(perm)


TRIVIAL = OperadSpec("trivial")
ASSOC = OperadSpec("assoc")
COMM = OperadSpec("comm")
QCONV = OperadSpec("qconv")


# -- O-monoidal categories -------------------------------------------------------


class OMonCategory:
    """A category (finite, or a named large handle) with an n-ary tensor per
    operation.  tensor_obj(op, objects) must satisfy: the unit operation
    acts as the identity.

    coherence(sigma, z, xs, objects), when given, returns the base
    isomorphism (a morphism name) from tensor_{z o (x)} of the flattened
    objects to tensor_z of the blockwise tensors; None means the two
    composites coincide strictly (the built-in instances are strict)."""

    __slots__ = ("operad", "base", "tensor_obj", "coherence")

    def __init__(
        self,
        operad: OperadSpec,
        base: object,  # FiniteCategory or a handle string like "CSet"
        tensor_obj: Callable,
        coherence: Optional[Callable] = None,
    ):
        self.operad = operad
        self.base = base
        self.tensor_obj = tensor_obj
        self.coherence = coherence

    def tensor_objects(self, op: OperadOp | QConvOp, objs: Sequence) -> object:
        if op.arity != len(objs):
            raise ArityMismatch(f"{len(objs)} objects for arity {op.arity}")
        if op.arity == 1 and op == self.operad.unit():
            return objs[0]
        return self.tensor_obj(op, tuple(objs))


def nfold_tensor(presentations: Sequence[Presentation]) -> Presentation:
    """Parameter-blind n-fold convex tensor; a single factor is itself."""
    if len(presentations) == 1:
        return presentations[0]
    return tensor(list(presentations))


def nfold_pure(xs: Sequence[PresentedElement]) -> PresentedElement:
    if len(xs) == 1:
        return xs[0]
    return universal_map([x.presentation for x in xs], xs)


class SymmetricMonoidalData:
    """Minimal symmetric monoidal data: an n-ary object tensor and an
    optional unit object, validated on the base's objects."""

    __slots__ = ("base", "nfold_obj", "unit_object")

    def __init__(
        self,
        base: object,
        nfold_obj: Callable[[tuple], object],
        unit_object: object = None,
    ):
        self.base = base
        self.nfold_obj = nfold_obj
        self.unit_object = unit_object

    def validate(self):
        objs = None
        if isinstance(self.base, FiniteCategory):
            objs = self.base.objects
        if objs:
            for a, b in itertools.product(objs, repeat=2):
                if self.nfold_obj((a, b)) != self.nfold_obj((b, a)):
                    raise CoherenceFailure(f"tensor not symmetric on ({a!r}, {b!r})")
            for a, b, c in itertools.product(objs, repeat=3):
                if self.nfold_obj((self.nfold_obj((a, b)), c)) != self.nfold_obj(
                    (a, self.nfold_obj((b, c)))
                ):
                    raise CoherenceFailure("tensor not associative")
            if self.unit_object is not None:
                for a in objs:
                    if self.nfold_obj((self.unit_object, a)) != a:
                        raise CoherenceFailure("unit law fails")


def trivial_structure(sym_mon: SymmetricMonoidalData, operad: OperadSpec) -> OMonCategory:
    """The parameter-blind O-monoidal structure induced by a symmetric
    monoidal one: every arity-n operation acts as the n-fold tensor."""
    sym_mon.validate()

    def tensor_obj(op, objs):
        return sym_mon.nfold_obj(tuple(objs))

    return OMonCategory(operad, sym_mon.base, tensor_obj)


def cset_omon() -> OMonCategory:
    """Presented convex sets with the parameter-blind tensor structure."""

    def tensor_obj(op, objs):
        return nfold_tensor(objs)

    return OMonCategory(QCONV, "CSet", tensor_obj)


# -- the subset-of-the-join structure ---------------------------------------------


def star_alpha(alpha: QConvOp, xs: Sequence[Presentation]) -> Presentation:
    """Presentation of {sum_i alpha_i x_i : x_i in X_i} inside the indexed
    join: the slots with alpha_i = 0 are inert, and the remaining ones mix
    componentwise.  Generators are tuples over the surviving factors;
    relations are the lifted factor relations together with two-slot swap
    identities (which connect tuple distributions with equal componentwise
    images)."""
    if alpha.arity != len(xs):
        raise ArityMismatch(f"{len(xs)} factors for arity {alpha.arity}")
    survivors = [p for w, p in zip(alpha.weights, xs) if w != 0]
    if len(survivors) == 1:
        return survivors[0]
    base = tensor(survivors)  # generators + lifted relations
    relations = list(base.relations)
    gen_lists = [p.generators for p in survivors]
    n = len(survivors)
    half = F(1, 2)
    for i, j in itertools.combinations(range(n), 2):
        others = [gen_lists[k] for k in range(n) if k not in (i, j)]
        for g1, g2 in itertools.combinations(gen_lists[i], 2):
            for h1, h2 in itertools.combinations(gen_lists[j], 2):
                for fixed in itertools.product(*others):
                    def build(gi, hj):
                        out = []
                        it = iter(fixed)
                        for k in range(n):
                            if k == i:
                                out.append(gi)
                            elif k == j:
                                out.append(hj)
                            else:
                                out.append(next(it))
                        return tuple(out)

                    lhs = FiniteDistribution(
                        {build(g1, h1): half, build(g2, h2): half}
                    )
                    rhs = FiniteDistribution(
                        {build(g1, h2): half, build(g2, h1): half}
                    )
                    relations.append((lhs, rhs))
    return Presentation(base.generators, relations)


# -- lax O-monoidal functors -------------------------------------------------------


class LaxOMonFunctor:
    """A functor into presented convex sets with structure maps xi.

    xi(op, objects) must be a ConvexMap out of nfold_tensor of the fibre
    presentations of the objects, into the fibre presentation of the tensor
    object.  The unit condition demands xi at the operadic unit be the
    identity map."""

    __slots__ = ("source", "functor", "xi")

    def __init__(
        self,
        source: OMonCategory,
        functor: CSetFunctor,
        xi: Callable[[OperadOp | QConvOp, tuple], ConvexMap],
    ):
        self.source = source
        self.functor = functor
        self.xi = xi

    def fibre(self, obj) -> Presentation:
        return self.functor.on_objects[obj]

    def xi_map(self, op: OperadOp | QConvOp, objs: Sequence) -> ConvexMap:
        cmap = self.xi(op, tuple(objs))
        expected_src = nfold_tensor([self.fibre(o) for o in objs])
        expected_tgt = self.fibre(self.source.tensor_objects(op, objs))
        if cmap.src != expected_src or cmap.tgt != expected_tgt:
            raise NotConvexStructureMap(
                f"xi component at {op} has the wrong signature"
            )
        return cmap


class LaxInstance(Frozen):
    """One compatibility-square instance: an outer operation, inner
    operations, the object blocks, and sample elements per innermost slot."""

    __slots__ = _fields = ("outer", "inner", "object_blocks", "elements")

    def __init__(
        self,
        outer: OperadOp | QConvOp,
        inner: tuple,  # operations, len = outer.arity
        object_blocks: tuple,  # tuple of tuples of source objects
        elements: tuple,  # tuple of tuples of PresentedElements
    ):
        self._set(outer, inner, object_blocks, elements)


def check_lax(
    functor: LaxOMonFunctor,
    samples: Sequence[LaxInstance],
    unit_objects: Sequence = (),
) -> list:
    """The failures of the operadic-unit condition and of the composition
    compatibility squares on the given instances, each equation decided
    exactly (same_class); empty when every check holds."""
    failures = []
    operad = functor.source.operad
    unit = operad.unit()
    for obj in unit_objects:
        pres = functor.fibre(obj)
        cmap = functor.xi_map(unit, (obj,))
        for g in pres.generators:
            if not same_class(cmap(pres.delta(g)), pres.delta(g)):
                failures.append(("unit", obj, g))
    for inst in samples:
        blocks = inst.object_blocks
        flat_objs = tuple(o for block in blocks for o in block)
        flat_elems = tuple(e for block in inst.elements for e in block)

        # path 1: apply the inner structure maps blockwise, then the outer
        block_objs = []
        block_values = []
        for op_i, block, elems in zip(inst.inner, blocks, inst.elements):
            block_objs.append(functor.source.tensor_objects(op_i, block))
            block_values.append(functor.xi_map(op_i, block)(nfold_pure(list(elems))))
        outer_map = functor.xi_map(inst.outer, tuple(block_objs))
        path1 = outer_map(nfold_pure(block_values))

        # path 2: one composite operation on the flattened data
        composite = operad.compose(inst.outer, list(inst.inner))
        path2 = functor.xi_map(composite, flat_objs)(nfold_pure(list(flat_elems)))

        tgt1 = functor.source.tensor_objects(inst.outer, tuple(block_objs))
        tgt2 = functor.source.tensor_objects(composite, flat_objs)
        if tgt1 != tgt2:
            # non-strict base: transport through F of the coherence iso
            phi = (
                functor.source.coherence(None, inst.outer, inst.inner, blocks)
                if functor.source.coherence is not None
                else None
            )
            if phi is None:
                failures.append(("square-target", inst.outer, tgt1, tgt2))
                continue
            path2 = functor.functor.on_morphisms[phi](path2)
        if not same_class(path1, path2):
            failures.append(("square", inst.outer, inst.inner))
    return failures


def permutation_square_holds(
    functor: LaxOMonFunctor,
    op: OperadOp | QConvOp,
    sigma: Sequence[int],
    objs: Sequence,
    elems: Sequence[PresentedElement],
    target_iso: Optional[ConvexMap] = None,
) -> bool:
    """xi at the permuted operation on permuted inputs matches xi at the
    original, through the base braiding's action on the target fibre
    (target_iso; identity when the base tensor is strictly symmetric)."""
    sigma = tuple(sigma)
    if op.kind != "qconv":
        raise ArityMismatch("permutation squares are checked for qconv")
    permuted = QConvOp(tuple(op.weights[sigma[k]] for k in range(op.arity)))
    objs_p = tuple(objs[sigma[k]] for k in range(op.arity))
    elems_p = [elems[sigma[k]] for k in range(op.arity)]
    lhs = functor.xi_map(op, tuple(objs))(nfold_pure(list(elems)))
    rhs = functor.xi_map(permuted, objs_p)(nfold_pure(elems_p))
    if functor.source.tensor_objects(op, tuple(objs)) != functor.source.tensor_objects(
        permuted, objs_p
    ):
        return False
    if target_iso is not None:
        lhs = target_iso(lhs)
    return same_class(lhs, rhs)


# -- the O-monoidal Grothendieck construction ---------------------------------------


class OConvexFibration:
    """Total structure of the convex O-monoidal Grothendieck construction."""

    def __init__(self, functor: LaxOMonFunctor):
        self.lax = functor
        self.cfib: ConvexFibrationData = convex_grothendieck(functor.functor)

    @property
    def base(self) -> OMonCategory:
        return self.lax.source

    def total_op(self, op: OperadOp | QConvOp, pairs: Sequence[tuple]):
        """((i_1, x_1), ..., (i_n, x_n)) -> (tensor(i), xi(x_1 (x) ... x_n))."""
        objs = tuple(i for i, _ in pairs)
        xs = [x for _, x in pairs]
        for i, x in pairs:
            if not self.cfib.contains_object(i, x):
                raise NotConvexStructureMap(f"({i!r}, ...) is not a total object")
        target_obj = self.base.tensor_objects(op, objs)
        value = self.lax.xi_map(op, objs)(nfold_pure(xs))
        return (target_obj, value)

    # -- checks ------------------------------------------------------------

    def strictness_holds(self, op: OperadOp | QConvOp, pairs) -> bool:
        """The total operation lands over the base tensor of the inputs'
        objects, which must be an object of the base."""
        if self.base.tensor_objects(op, tuple(i for i, _ in pairs)) not in self.cfib.base.objects:
            return False
        target_obj, value = self.total_op(op, pairs)
        return self.cfib.contains_object(target_obj, value)

    def nconvex_in_slot(
        self, op: OperadOp | QConvOp, pairs, slot, alpha, variants
    ) -> bool:
        """Mixing in one fibre slot commutes with the total operation."""
        mixed_first = list(pairs)
        obj = pairs[slot][0]
        mixed_first[slot] = (obj, quotient_mix(alpha, list(variants)))
        _, lhs = self.total_op(op, mixed_first)
        outs = []
        for v in variants:
            single = list(pairs)
            single[slot] = (obj, v)
            outs.append(self.total_op(op, single)[1])
        rhs = quotient_mix(alpha, outs)
        return same_class(lhs, rhs)

    def extract_xi_tables(self, op: OperadOp | QConvOp, objs):
        """Recover the structure map's generator table from total operations."""
        factors = [self.lax.fibre(o) for o in objs]
        table = {}
        for combo in itertools.product(*(f.generators for f in factors)):
            pairs = [
                (o, f.delta(g)) for o, f, g in zip(objs, factors, combo)
            ]
            table[combo] = self.total_op(op, pairs)[1]
        return table

    def recovers_functor(self, op: OperadOp | QConvOp, objs) -> bool:
        """The extracted tables agree with the original xi in the quotient."""
        cmap = self.lax.xi_map(op, tuple(objs))
        table = self.extract_xi_tables(op, objs)
        src = cmap.src
        for combo, value in table.items():
            key = combo if isinstance(src, TensorPresentation) else combo[0]
            want = (
                cmap.on_generator(key)
                if isinstance(src, TensorPresentation)
                else cmap(src.delta(key))
            )
            if not same_class(value, want):
                return False
        return True


def o_grothendieck(functor: LaxOMonFunctor) -> OConvexFibration:
    """The total structure of the construction; strictness_holds,
    nconvex_in_slot and recovers_functor re-check it on instances."""
    return OConvexFibration(functor)


# -- concrete lax functors ------------------------------------------------------


def _mixing_weights(op: OperadOp | QConvOp, n: int) -> tuple:
    """A qconv operation's own weights; uniform ones for the other operads."""
    return op.weights if op.kind == "qconv" else (F(1, n),) * n


#: The largest skeleton of dist_lax_functor: its fibres hold
#: max_size (max_size + 1) / 2 generators in all.
MAX_SKELETON_SIZE = 64


def dist_lax_functor(max_size: int = 6) -> LaxOMonFunctor:
    """Distributions on a skeleton of nonempty finite sets, with disjoint
    union as the base tensor (size sum) and mixtures as structure maps:
    xi_alpha(p_1, ..., p_n) = sum alpha_i p_i on the union, each summand
    shifted into its block of the union's carrier.  A max_size outside
    1..MAX_SKELETON_SIZE is InvalidInput."""
    from .category import discrete_category

    if not 1 <= max_size <= MAX_SKELETON_SIZE:
        raise InvalidInput(f"skeleton size {max_size} is not in 1..{MAX_SKELETON_SIZE}")

    objects = [f"S{k}" for k in range(1, max_size + 1)]
    base_cat = discrete_category(objects)

    def size(obj):
        return int(obj[1:])

    def tensor_obj(op, objs):
        total = sum(size(o) for o in objs)
        if total > max_size:
            raise ArityMismatch(
                f"union size {total} exceeds the skeleton bound {max_size}"
            )
        return f"S{total}"

    omon = OMonCategory(QCONV, base_cat, tensor_obj)
    on_objects = {o: Presentation.free([f"e{i}" for i in range(size(o))]) for o in objects}
    on_morphisms = {
        base_cat.identity[o]: ConvexMap.identity(on_objects[o]) for o in objects
    }
    functor = CSetFunctor(base_cat, on_objects, on_morphisms)

    def xi(op, objs):
        fibres = [on_objects[o] for o in objs]
        if len(objs) == 1:
            return ConvexMap.identity(fibres[0])
        target = on_objects[tensor_obj(op, objs)]
        offsets = [0, *itertools.accumulate(size(o) for o in objs[:-1])]
        weights = _mixing_weights(op, len(objs))
        assignment = {}
        for combo in itertools.product(*(f.generators for f in fibres)):
            shifted = [delta(f"e{offset + int(g[1:])}") for offset, g in zip(offsets, combo)]
            assignment[combo] = target.element(convex_combine(weights, shifted))
        return ConvexMap(nfold_tensor(fibres), target, assignment)

    return LaxOMonFunctor(omon, functor, xi)


def mixture_lax_functor(carrier: Sequence[str], operad: OperadSpec = QCONV) -> LaxOMonFunctor:
    """One object whose fibre is the free convex set on the carrier, with
    xi_alpha(t_1 (x) ... (x) t_n) = sum alpha_i t_i on the shared carrier."""
    from .category import discrete_category

    base_cat = discrete_category(["*"])
    pres = Presentation.free(list(carrier))
    omon = OMonCategory(operad, base_cat, lambda op, objs: "*")
    functor = CSetFunctor(
        base_cat, {"*": pres}, {base_cat.identity["*"]: ConvexMap.identity(pres)}
    )

    def xi(op, objs):
        if len(objs) == 1:
            return ConvexMap.identity(pres)
        weights = _mixing_weights(op, len(objs))
        assignment = {
            combo: pres.element(convex_combine(weights, [delta(g) for g in combo]))
            for combo in itertools.product(pres.generators, repeat=len(objs))
        }
        return ConvexMap(nfold_tensor([pres] * len(objs)), pres, assignment)

    return LaxOMonFunctor(omon, functor, xi)


def identity_lax_functor(pres: Presentation) -> LaxOMonFunctor:
    """One object, trivial operad: the degenerate construction whose only
    total operation is the identity."""
    from .category import discrete_category

    base_cat = discrete_category(["*"])
    omon = OMonCategory(TRIVIAL, base_cat, lambda op, objs: "*")
    functor = CSetFunctor(
        base_cat, {"*": pres}, {base_cat.identity["*"]: ConvexMap.identity(pres)}
    )

    def xi(op, objs):
        return ConvexMap.identity(pres)

    return LaxOMonFunctor(omon, functor, xi)
