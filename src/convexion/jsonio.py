"""JSON schemas for every value the command line reads or writes.

Rational strings are canonical lowest-terms ("3/4", "1"); the Boolean
semiring writes "1".  Element identifiers are strings in JSON; internal
tuple elements (tensor generators, bundle points) are rendered through
their canonical labels.  Encoding is deterministic: weights sort by
element, keys sort lexicographically, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .distribution import FiniteDistribution, element_label
from .errors import ParseError
from .join import JoinElement, JoinSpace, join_point
from .matprop import QConvOp, RMatrix
from .presentation import (
    EqualityVerdict,
    Presentation,
    ZigZagStep,
    induce_map,
)
from .semiring import RATIONAL, Semiring, semiring_by_name

F = Fraction


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _require(payload, key, context):
    if not isinstance(payload, dict) or key not in payload:
        raise ParseError(f"{context}: missing key {key!r}")
    return payload[key]


def _semiring_of(payload) -> Semiring:
    if isinstance(payload, dict) and "semiring" in payload:
        return semiring_by_name(payload["semiring"])
    return RATIONAL


# -- distributions ---------------------------------------------------------------


def encode_distribution(dist: FiniteDistribution) -> dict:
    out = {
        "weights": [
            {"el": element_label(el), "w": dist.semiring.format(w)}
            for el, w in dist.items()
        ]
    }
    if dist.semiring.name != "rational":
        out["semiring"] = dist.semiring.name
    return out


def decode_distribution(payload, semiring: Semiring | None = None) -> FiniteDistribution:
    if semiring is None:
        semiring = _semiring_of(payload)
    entries = _require(payload, "weights", "distribution")
    if not isinstance(entries, list):
        raise ParseError("weights: expected a JSON list")
    weights = {}
    for i, item in enumerate(entries):
        el = _require(item, "el", "distribution weight")
        if not isinstance(el, str):
            raise ParseError(f"weights[{i}].el: expected a JSON string")
        w = semiring.parse(str(_require(item, "w", "distribution weight")))
        if el in weights:
            raise ParseError(f"duplicate element {el!r} in distribution")
        weights[el] = w
    return FiniteDistribution(weights, semiring)


# -- presentations ------------------------------------------------------------------


def encode_presentation(pres: Presentation) -> dict:
    return {
        "generators": [element_label(g) for g in pres.generators],
        "relations": [
            [encode_distribution(lhs), encode_distribution(rhs)]
            for lhs, rhs in pres.relations
        ],
    }


def decode_presentation(payload) -> Presentation:
    gens = _names(_require(payload, "generators", "presentation"), "presentation.generators")
    rels = _typed(payload.get("relations", []), list, "presentation.relations")
    relations = []
    for pair in rels:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("presentation relation is not a pair")
        relations.append(
            (decode_distribution(pair[0]), decode_distribution(pair[1]))
        )
    return Presentation(gens, relations)


# -- join ---------------------------------------------------------------------------


def encode_join_element(pt: JoinElement) -> dict:
    return {
        "alpha": str(pt.alpha),
        "x": encode_distribution(pt.x_part.rep) if pt.x_part is not None else None,
        "y": encode_distribution(pt.y_part.rep) if pt.y_part is not None else None,
    }


def decode_join_element(payload, space: JoinSpace) -> JoinElement:
    alpha = RATIONAL.parse(str(_require(payload, "alpha", "join element")))
    x_raw = payload.get("x")
    y_raw = payload.get("y")
    x = (
        space.x_factor.element(decode_distribution(x_raw))
        if x_raw is not None
        else None
    )
    y = (
        space.y_factor.element(decode_distribution(y_raw))
        if y_raw is not None
        else None
    )
    return join_point(alpha, x, y, space)


# -- matrices and operad operations ---------------------------------------------------


def encode_matrix(m: RMatrix) -> dict:
    out = {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[m.semiring.format(v) for v in row] for row in m.entries],
    }
    if m.semiring.name != "rational":
        out["semiring"] = m.semiring.name
    return out


def decode_matrix(payload) -> RMatrix:
    semiring = _semiring_of(payload)
    rows = _typed(_require(payload, "rows", "matrix"), int, "matrix.rows")
    cols = _typed(_require(payload, "cols", "matrix"), int, "matrix.cols")
    entries = _typed(_require(payload, "entries", "matrix"), list, "matrix.entries")
    parsed = [
        [semiring.parse(str(v)) for v in _typed(row, list, f"matrix.entries[{i}]")]
        for i, row in enumerate(entries)
    ]
    return RMatrix(parsed, rows=rows, cols=cols, semiring=semiring)


def encode_qconv(op: QConvOp) -> dict:
    return {"arity": op.arity, "alpha": [str(w) for w in op.weights]}


def decode_qconv(payload) -> QConvOp:
    alpha = _typed(_require(payload, "alpha", "operation"), list, "operation.alpha")
    return QConvOp([RATIONAL.parse(str(a)) for a in alpha])


# -- multiconvex tables ------------------------------------------------------------------


def encode_nconvex_spec(spec) -> dict:
    return {
        "factors": [encode_presentation(f) for f in spec.factors],
        "target": encode_presentation(spec.target),
        "table": [
            {
                "tuple": [element_label(g) for g in key],
                "value": encode_distribution(value.rep),
            }
            for key, value in sorted(
                spec.table.items(), key=lambda kv: [element_label(g) for g in kv[0]]
            )
        ],
    }


def decode_nconvex_spec(payload):
    from .tensor import NConvexMapSpec

    raw_factors = _typed(_require(payload, "factors", "table spec"), list, "spec.factors")
    factors = [decode_presentation(p) for p in raw_factors]
    target = decode_presentation(_require(payload, "target", "table spec"))
    table = {}
    for i, item in enumerate(_typed(_require(payload, "table", "table spec"), list, "spec.table")):
        key = tuple(_names(_require(item, "tuple", "table row"), f"spec.table[{i}].tuple"))
        table[key] = target.element(
            decode_distribution(_require(item, "value", "table row"))
        )
    return NConvexMapSpec(tuple(factors), target, table)


# -- equality verdicts ----------------------------------------------------------------------


def encode_verdict(verdict: EqualityVerdict, pres: Presentation) -> dict:
    out = {"status": verdict.status, "bound": verdict.bound}
    if verdict.is_equal:
        out["path"] = [
            {
                "lambdas": [str(l) for l in step.lambdas],
                "spectator": {
                    element_label(g): str(t)
                    for g, t in zip(pres.generators, step.spectator)
                    if t != 0
                },
            }
            for step in verdict.path
        ]
    if verdict.is_distinct:
        out["invariant"] = {
            element_label(g): str(v)
            for g, v in zip(pres.generators, verdict.invariant)
            if v != 0
        }
    return out


def decode_verdict(payload, pres: Presentation) -> EqualityVerdict:
    """A verdict as encode_verdict writes it.  Malformed input raises
    ParseError naming its JSON path below the verdict."""
    status = _require(payload, "status", "verdict")
    bound = payload.get("bound", 0)
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise ParseError("verdict.bound: expected a nonnegative integer")
    labels = {element_label(g): i for i, g in enumerate(pres.generators)}
    if status == "equal":
        raw_path = _typed(payload.get("path", []), list, "verdict.path")
        steps = []
        for i, raw in enumerate(raw_path):
            at = f"verdict.path[{i}]"
            _typed(raw, dict, at)
            raw_lams = _typed(raw.get("lambdas", []), list, f"{at}.lambdas")
            lams = tuple(
                _rational(l, f"{at}.lambdas[{j}]") for j, l in enumerate(raw_lams)
            )
            spect = _generator_map(raw.get("spectator", {}), labels, f"{at}.spectator")
            steps.append(ZigZagStep(lams, spect))
        return EqualityVerdict("equal", path=tuple(steps), bound=bound)
    if status == "distinct":
        inv = _generator_map(
            payload.get("invariant", {}), labels, "verdict.invariant", signed=True
        )
        return EqualityVerdict("distinct", invariant=inv, bound=bound)
    if status == "unknown":
        return EqualityVerdict("unknown", bound=bound)
    raise ParseError(f"verdict.status: unknown verdict status {status!r}")


_JSON_TYPE_NAMES = {dict: "object", list: "list", str: "string", int: "integer"}


def _typed(value, kind, where):
    """value, if it is of the JSON type kind (dict, list, str or int);
    else a ParseError naming the path where."""
    if not isinstance(value, kind):
        raise ParseError(f"{where}: expected a JSON {_JSON_TYPE_NAMES[kind]}")
    return value


def _names(raw, where):
    """raw, if it is a JSON list of strings; else a ParseError naming where."""
    if not all(isinstance(x, str) for x in _typed(raw, list, where)):
        raise ParseError(f"{where}: expected names (JSON strings)")
    return raw


def _triples(raw, where):
    """A list of [a, b, c] name triples as the table {(a, b): c}."""
    table = {}
    for i, entry in enumerate(_typed(raw, list, where)):
        if len(_names(entry, f"{where}[{i}]")) != 3:
            raise ParseError(f"{where}[{i}]: expected a list of three names")
        table[(entry[0], entry[1])] = entry[2]
    return table


def _rational(raw, where, signed=False):
    """A rational literal; nonnegative unless signed."""
    text = str(raw).strip()
    negative = signed and text.startswith("-")
    try:
        value = RATIONAL.parse(text[1:] if negative else text)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None
    return -value if negative else value


def _generator_map(raw, labels, where, signed=False):
    """A {generator label: rational} object as a dense tuple over the
    generators (labels maps each label to its index), absent ones 0."""
    _typed(raw, dict, where)
    dense = [F(0)] * len(labels)
    for label, value in raw.items():
        if label not in labels:
            raise ParseError(f"{where}: {label!r} is not a generator")
        dense[labels[label]] = _rational(value, f"{where}[{label!r}]", signed)
    return tuple(dense)


# -- categories and functors ------------------------------------------------------------------


def encode_category(cat) -> dict:
    return {
        "objects": [element_label(o) for o in cat.objects],
        "morphisms": [
            {
                "id": element_label(m.name),
                "src": element_label(m.src),
                "tgt": element_label(m.tgt),
            }
            for m in sorted(cat.morphisms.values(), key=lambda m: element_label(m.name))
        ],
        "compose": sorted(
            [
                [element_label(g), element_label(f), element_label(gf)]
                for (g, f), gf in cat.table.items()
            ]
        ),
    }


def decode_category(payload):
    from .category import FiniteCategory, Morphism

    objects = _typed(_require(payload, "objects", "category"), list, "category.objects")
    raw_morphisms = _typed(_require(payload, "morphisms", "category"), list, "category.morphisms")
    morphisms = []
    for i, m in enumerate(raw_morphisms):
        names = [_require(m, key, "morphism") for key in ("id", "src", "tgt")]
        morphisms.append(Morphism(*_names(names, f"category.morphisms[{i}]")))
    table = _triples(_require(payload, "compose", "category"), "category.compose")
    identities = payload.get("identities")
    if identities is None:
        identities = _infer_identities(objects, morphisms, table)
    return FiniteCategory(objects, morphisms, identities, table)


def _infer_identities(objects, morphisms, table):
    by_obj = {}
    for c in objects:
        endos = [m.name for m in morphisms if m.src == c and m.tgt == c]
        units = []
        for e in endos:
            left_ok = all(
                table.get((e, m.name)) == m.name
                for m in morphisms
                if m.tgt == c
            )
            right_ok = all(
                table.get((m.name, e)) == m.name
                for m in morphisms
                if m.src == c
            )
            if left_ok and right_ok:
                units.append(e)
        if len(units) != 1:
            raise ParseError(
                f"category JSON: cannot infer a unique identity for {c!r}"
            )
        by_obj[c] = units[0]
    return by_obj


def decode_set_functor(payload, base):
    from .category import SetFunctor

    on_objects = {
        k: tuple(_names(v, f"functor.on_objects[{k!r}]"))
        for k, v in _functor_table(payload, "on_objects").items()
    }
    on_morphisms = {
        k: dict(_typed(v, dict, f"functor.on_morphisms[{k!r}]"))
        for k, v in _functor_table(payload, "on_morphisms").items()
    }
    _names([x for table in on_morphisms.values() for x in table.values()], "functor.on_morphisms")
    return SetFunctor(base, on_objects, on_morphisms)


def _functor_table(payload, key):
    return _typed(_require(payload, key, "functor"), dict, f"functor.{key}")


def decode_cset_functor(payload, base, step_bound, base_dir=""):
    import os

    from .category import CSetFunctor

    on_objects = {}
    for k, raw in _functor_table(payload, "on_objects").items():
        if isinstance(raw, dict) and "path" in raw:
            path = _typed(raw["path"], str, f"functor.on_objects[{k!r}].path")
            raw = load_json(os.path.join(base_dir, path))
        on_objects[k] = decode_presentation(raw)
    on_morphisms = {}
    for k, raw in _functor_table(payload, "on_morphisms").items():
        at = f"functor.on_morphisms[{k!r}]"
        m = base.morphisms.get(k)
        if m is None or m.src not in on_objects or m.tgt not in on_objects:
            raise ParseError(f"{at}: not a morphism between objects in on_objects")
        src, tgt = on_objects[m.src], on_objects[m.tgt]
        assignment = {
            g: tgt.element(decode_distribution(d)) for g, d in _typed(raw, dict, at).items()
        }
        on_morphisms[k] = induce_map(src, tgt, assignment, step_bound, validate=False)
    return CSetFunctor(base, on_objects, on_morphisms, step_bound)


# -- simplicial data ----------------------------------------------------------------------------


def _decode_indexed_tables(payload, what):
    out = {}
    for key, table in _typed(payload, dict, f"{what} tables").items():
        try:
            n_str, i_str = key.split(",")
            n, i = int(n_str), int(i_str)
        except ValueError:
            raise ParseError(f"{what} key {key!r} is not 'n,i'") from None
        out[(n, i)] = dict(_typed(table, dict, f"{what}[{key!r}]"))
    return out


def decode_simplicial_set(payload):
    from .simplicial import TruncatedSimplicialSet

    n_max = _require(payload, "N", "simplicial set")
    levels = _require(payload, "levels", "simplicial set")
    face = _decode_indexed_tables(_require(payload, "faces", "simplicial set"), "face")
    degen = _decode_indexed_tables(
        _require(payload, "degeneracies", "simplicial set"), "degeneracy"
    )
    return TruncatedSimplicialSet(n_max, levels, face, degen)


def encode_simplicial_set(x) -> dict:
    return {
        "N": x.n_max,
        "levels": [[element_label(s) for s in lv] for lv in x.levels],
        "faces": {
            f"{n},{i}": {
                element_label(k): element_label(v) for k, v in table.items()
            }
            for (n, i), table in sorted(x.face.items())
        },
        "degeneracies": {
            f"{n},{i}": {
                element_label(k): element_label(v) for k, v in table.items()
            }
            for (n, i), table in sorted(x.degen.items())
        },
    }


def decode_simplicial_group(payload):
    from .simplicial import AbGroup, SimplicialAbGroup

    _typed(payload, dict, "group")
    if "cyclic" in payload:
        return SimplicialAbGroup.constant(
            AbGroup.cyclic(_typed(payload["cyclic"], int, "group.cyclic")),
            _typed(_require(payload, "N", "simplicial group"), int, "group.N"),
        )
    n_max = _typed(_require(payload, "N", "simplicial group"), int, "group.N")
    groups = []
    raw_groups = _typed(_require(payload, "groups", "simplicial group"), list, "group.groups")
    for i, raw in enumerate(raw_groups):
        at = f"group.groups[{i}]"
        groups.append(
            AbGroup(
                _typed(_require(raw, "elements", "group"), list, f"{at}.elements"),
                _triples(_require(raw, "add", "group"), f"{at}.add"),
                _require(raw, "zero", "group"),
                _typed(_require(raw, "neg", "group"), dict, f"{at}.neg"),
            )
        )
    face = _decode_indexed_tables(_require(payload, "faces", "simplicial group"), "face")
    degen = _decode_indexed_tables(
        _require(payload, "degeneracies", "simplicial group"), "degeneracy"
    )
    return SimplicialAbGroup(n_max, groups, face, degen)


def decode_twist(payload, space, group):
    from .simplicial import TwistingFunction

    maps = _levels(_require(payload, "maps", "twisting function"), "twist.maps")
    _names([v for table in maps.values() for v in table.values()], "twist.maps")
    return TwistingFunction(space, group, {n: dict(table) for n, table in maps.items()})


def encode_twist(twist) -> dict:
    return {
        "maps": {
            str(n): {element_label(k): v for k, v in table.items()}
            for n, table in sorted(twist.maps.items())
        }
    }


def decode_sdist(payload, bundle):
    from .simplicial import SimplicialDistribution

    levels = {}
    raw = _levels(_require(payload, "levels", "simplicial distribution"), "levels")
    for n, table in raw.items():
        if n > bundle.total.n_max:
            raise ParseError(f"levels[{str(n)!r}]: above the truncation {bundle.total.n_max}")
        lookup = {element_label(e): e for e in bundle.total.simplices(n)}
        levels[n] = {}
        for x, dist in table.items():
            weights = decode_distribution(dist).as_dict()
            if not set(weights) <= set(lookup):
                raise ParseError(f"levels[{str(n)!r}][{x!r}]: not a distribution on level {n}")
            levels[n][x] = FiniteDistribution({lookup[el]: w for el, w in weights.items()})
    return SimplicialDistribution(bundle, levels)


def _levels(raw, where):
    """A JSON object keyed by level numbers "0", "1", ... of JSON objects."""
    out = {}
    for key, table in _typed(raw, dict, where).items():
        if not key.isdigit():
            raise ParseError(f"{where}: key {key!r} is not a level number")
        out[int(key)] = _typed(table, dict, f"{where}[{key!r}]")
    return out


def encode_sdist(p) -> dict:
    return {
        "levels": {
            str(n): {
                element_label(x): encode_distribution(dist)
                for x, dist in sorted(
                    table.items(), key=lambda kv: element_label(kv[0])
                )
            }
            for n, table in sorted(p.levels.items())
        }
    }


# -- probability objects --------------------------------------------------------------------------


def encode_prob_object(obj) -> dict:
    return {
        "carrier": [element_label(x) for x in obj.carrier],
        "p": {
            element_label(x): str(w)
            for x, w in sorted(obj.weights.items(), key=lambda kv: element_label(kv[0]))
        },
    }


def decode_prob_object(payload):
    from .finprob import ProbObject

    carrier = _names(_require(payload, "carrier", "probability object"), "carrier")
    raw = _typed(_require(payload, "p", "probability object"), dict, "p")
    weights = {x: RATIONAL.parse(str(w)) for x, w in raw.items()}
    return ProbObject(carrier, weights)


def encode_prob_morphism(m) -> dict:
    return {
        "src": encode_prob_object(m.src),
        "tgt": encode_prob_object(m.tgt),
        "map": {
            element_label(k): element_label(v) for k, v in sorted(m.mapping.items())
        },
    }


def decode_prob_morphism(payload):
    from .finprob import ProbMorphism

    src = decode_prob_object(_require(payload, "src", "morphism"))
    tgt = decode_prob_object(_require(payload, "tgt", "morphism"))
    mapping = _typed(_require(payload, "map", "morphism"), dict, "map")
    _names(list(mapping.values()), "map")
    return ProbMorphism(src, tgt, mapping)


def encode_corpus(corpus) -> dict:
    return {
        "morphisms": [encode_prob_morphism(m) for m in corpus.morphisms],
        "chains": [list(c) for c in corpus.chains],
    }


def decode_corpus(payload):
    from .finprob import Corpus

    raw = _typed(_require(payload, "morphisms", "corpus"), list, "morphisms")
    morphisms = [decode_prob_morphism(m) for m in raw]
    chains = []
    for k, chain in enumerate(_typed(payload.get("chains", []), list, "chains")):
        if not (
            isinstance(chain, list)
            and len(chain) == 2
            and all(type(i) is int and 0 <= i < len(morphisms) for i in chain)
        ):
            raise ParseError(f"chains[{k}]: expected two morphism indices")
        chains.append(tuple(chain))
    return Corpus(morphisms, chains)
