"""JSON schemas for every value the command line reads or writes, and the
one reader of JSON input.

Job is a read view of one JSON value at its path from the root of the file
it came from.  The distribution and presentation decoders read the
canonical form that the encoders write (string weight literals, no
"semiring" field, no duplicate element) straight off the raw JSON values,
by plain type checks, and build no reader.  Every other input, the
malformed included, is read field by field, list item by list item and
map entry by map entry through Job, so a missing field, a value of
another JSON type or a bad literal is a ParseError whose message begins
with the path of the offending value: schema fields are written .field,
list items [i] and user-chosen keys ['k'], as in
outer[0].dist.weights[1].el.  There each decoder builds its value through
Job.build on its own reader, so a library error in building it is at
that value's path too: elements[1].weights: weights sum to 7, expected 1.
The path is built only when an error is raised, and a decoder given a
raw payload reads it as a Job at the root.

Rational strings are canonical lowest-terms ("3/4", "1"); the Boolean
semiring writes "1".  Element identifiers are strings in JSON; internal
tuple elements (tensor generators, bundle points) are rendered through
their canonical labels.  Encoding is deterministic: weights sort by
element, keys sort lexicographically, so identical inputs give
byte-identical output.  Every decoder imports the module whose values it
builds, so a job loads only its verb's modules: decoding a distribution
loads no presentation, join or matrix module.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .distribution import FiniteDistribution, _common_denominator, element_label
from .errors import ConvexionError, ParseError
from .semiring import RATIONAL, Semiring, semiring_by_name

if TYPE_CHECKING:
    from .join import JoinElement, JoinSpace
    from .matprop import QConvOp, RMatrix
    from .presentation import EqualityVerdict, Presentation

F = Fraction


# json.dumps builds a new encoder on every call that passes it options
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload) -> str:
    return _ENCODER.encode(payload) + "\n"


def load_json(path: str):
    """The JSON value of the file path; a file that cannot be read or is
    not JSON is a ParseError naming path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


_REQUIRED = object()

_JSON_TYPE_NAMES = {dict: "object", list: "list", str: "string", int: "integer"}


class Job:
    """A read view of the JSON value `value`: the root of the job (or input
    file) named `key`, or the value at `key` below the reader `parent`.  A
    key below the root is a field name, a list index, or (entry) an object
    key that the user chose.  Reading copies nothing; a missing field is a
    ParseError naming its path (exit 2), not a KeyError."""

    __slots__ = ("value", "key", "parent", "entry")

    def __init__(self, value, key, parent=None, entry=False):
        self.value = value
        self.key = key
        self.parent = parent
        self.entry = entry

    @property
    def name(self):
        """The name of the job this value is read from."""
        return self.key if self.parent is None else self.parent.name

    def error(self, message) -> ParseError:
        """A ParseError about this value: its path, then message."""
        path, job = "", self
        while job.parent is not None:
            key = job.key
            step = f"[{key!r}]" if job.entry else f"[{key}]" if type(key) is int else f".{key}"
            path, job = step + path, job.parent
        return ParseError(f"{path.removeprefix('.') or f'{job.key} job'}: {message}")

    def __getitem__(self, key):
        """The reader of the field key, which must be present."""
        fields = self.value
        if isinstance(fields, dict) and key in fields:
            return Job(fields[key], key, self)
        self.expect(dict)
        raise Job(None, key, self).error(f"missing from the {self.name} job")

    def get(self, key, default=None):
        """The reader of the field key, or of default when it is absent."""
        return Job(self.expect(dict).get(key, default), key, self)

    def __contains__(self, key):
        return isinstance(self.value, dict) and key in self.value

    def expect(self, kind):
        """This value, which must be of the JSON type kind: dict (an
        object), list, str or int (not a JSON Boolean, though bool is an
        int in Python)."""
        if not isinstance(self.value, kind) or self.value.__class__ is bool:
            raise self.error(f"expected a JSON {_JSON_TYPE_NAMES[kind]}")
        return self.value

    def typed(self, key, kind, default=_REQUIRED):
        """The value of the field key, of the JSON type kind (as expect);
        when it is absent, default if one is given."""
        fields = self.value
        if (
            isinstance(fields, dict)
            and isinstance(value := fields.get(key, default), kind)
            and value.__class__ is not bool
        ):
            return value
        return (self[key] if default is _REQUIRED else self.get(key, default)).expect(kind)

    def items(self):
        """The readers of the items of this list."""
        return [Job(v, i, self) for i, v in enumerate(self.expect(list))]

    def entries(self):
        """(key, reader) for each entry of this object, whose keys are the
        user's."""
        return [(k, Job(v, k, self, True)) for k, v in self.expect(dict).items()]

    def names(self):
        """This list, whose items must be names (JSON strings)."""
        if not all(isinstance(x, str) for x in self.expect(list)):
            raise self.error("expected names (JSON strings)")
        return self.value

    def name_table(self):
        """This object, whose values must be names (JSON strings)."""
        if not all(isinstance(x, str) for x in self.expect(dict).values()):
            raise self.error("expected names (JSON strings)")
        return self.value

    def literal(self, semiring=RATIONAL, signed=False):
        """This value as a literal of semiring; a rational may be negative
        when signed."""
        text = str(self.value)
        if signed and text.lstrip().startswith("-"):
            return -self.build(semiring.parse, text.lstrip()[1:])
        return self.build(semiring.parse, text)

    def rationals(self, key):
        """The list field key of rational literals."""
        return [item.literal() for item in self[key].items()]

    def nonnegative_int(self):
        """This value, which must be a nonnegative integer (not a JSON
        Boolean)."""
        value = self.value
        if type(value) is not int or value < 0:
            raise self.error("expected a nonnegative integer")
        return value

    def build(self, factory, *args, **kwargs):
        """The value read here, as the library constructor factory builds it
        from the decoded arguments; a ConvexionError that it raises is a
        ParseError at this value's path, with the library's message."""
        try:
            return factory(*args, **kwargs)
        except ConvexionError as exc:
            raise self.error(str(exc)) from None

    def floats(self, key, default=_REQUIRED):
        """The list field key of numbers."""
        try:
            return [float(v) for v in self.typed(key, list, default)]
        except (TypeError, ValueError):
            raise self[key].error("expected a list of numbers") from None


def _reader(payload) -> Job:
    """payload if it is a Job, else a Job at the root of the raw payload."""
    return payload if isinstance(payload, Job) else Job(payload, "input")


def semiring_of(job: Job) -> Semiring:
    """The semiring that the optional field "semiring" of job names."""
    name = job.typed("semiring", str, "rational")
    try:  # not job.get("semiring").build, which makes a reader per distribution decoded
        return semiring_by_name(name)
    except ParseError as exc:
        raise job["semiring"].error(str(exc)) from None


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


def _canonical_distribution(raw):
    """The rational distribution of the raw JSON value raw when it is in
    the canonical form: an object with no "semiring" field whose weights
    are {"el": string, "w": string literal} items with distinct elements
    that sum to one; else None."""
    if type(raw) is not dict or "semiring" in raw or type(weights := raw.get("weights")) is not list:
        return None
    ratios, read = {}, RATIONAL.read
    for entry in weights:
        if (
            type(entry) is not dict
            or type(el := entry.get("el")) is not str
            or type(w := entry.get("w")) is not str
            or el in ratios
        ):
            return None
        try:
            ratios[el] = read(w)
        except ParseError:
            return None
    try:
        return FiniteDistribution._from_numerators(*_common_denominator(ratios, RATIONAL), RATIONAL)
    except ConvexionError:
        return None


def decode_distribution(payload, semiring: Semiring | None = None) -> FiniteDistribution:
    """The distribution of a {"weights": [{"el": ..., "w": ...}, ...]}
    object.  Each weight literal is read straight into a numerator and a
    denominator.  The canonical form builds no reader; any other input is
    read item by item through readers, so an error names its path."""
    if semiring is None:
        dist = _canonical_distribution(payload.value if isinstance(payload, Job) else payload)
        if dist is not None:
            return dist
    job = _reader(payload)
    if semiring is None:
        semiring = semiring_of(job)
    weights = job["weights"]
    ratios = {}
    for item in weights.items():
        el, w = item.typed("el", str), item["w"]
        ratio = w.build(semiring.read, str(w.value))
        if el in ratios:
            raise item["el"].error(f"duplicate element {el!r} in distribution")
        ratios[el] = ratio
    try:
        return FiniteDistribution._from_numerators(*_common_denominator(ratios, semiring), semiring)
    except ConvexionError as exc:
        raise weights.error(str(exc)) from None


def decode_element(payload, pres):
    """The element of the presentation pres that a distribution names."""
    dist = decode_distribution(payload)
    try:  # not _reader(payload).build, which makes a reader per element decoded
        return pres.element(dist)
    except ConvexionError as exc:
        raise _reader(payload).error(str(exc)) from None


def decode_convex_map(payload, src, tgt):
    """The convex map src -> tgt that induce_map builds from {generator: <dist>}."""
    from .presentation import induce_map

    job = _reader(payload)
    assignment = {g: decode_element(d, tgt) for g, d in job.entries()}
    return job.build(induce_map, src, tgt, assignment)


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
    """The presentation of a {"generators": [...], "relations": [[<dist>,
    <dist>], ...]} object.  The canonical form (generators a list of
    strings, each relation a list of two canonical distributions) builds
    no reader."""
    from .presentation import Presentation

    raw = payload.value if isinstance(payload, Job) else payload
    if (
        type(raw) is dict
        and type(gens := raw.get("generators")) is list
        and all(type(g) is str for g in gens)
        and type(pairs := raw.get("relations", [])) is list
    ):
        relations = []
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                break
            lhs, rhs = _canonical_distribution(pair[0]), _canonical_distribution(pair[1])
            if lhs is None or rhs is None:
                break
            relations.append((lhs, rhs))
        else:
            try:
                return Presentation(gens, relations)
            except ConvexionError:
                pass
    job = _reader(payload)
    gens = job["generators"].names()
    relations = []
    for pair in job.get("relations", []).items():
        sides = pair.items()
        if len(sides) != 2:
            raise pair.error("expected a pair of distributions")
        relations.append((decode_distribution(sides[0]), decode_distribution(sides[1])))
    return job.build(Presentation, gens, relations)


# -- join ---------------------------------------------------------------------------


def encode_join_element(pt: JoinElement) -> dict:
    x, y = pt.x_part, pt.y_part  # each read off the representative
    return {
        "alpha": str(pt.alpha),
        "x": encode_distribution(x.rep) if x is not None else None,
        "y": encode_distribution(y.rep) if y is not None else None,
    }


def decode_join_element(payload, space: JoinSpace) -> JoinElement:
    from .join import join_point

    job = _reader(payload)
    alpha = job["alpha"].literal()
    x, y = (
        None if part.value is None else decode_element(part, factor)
        for part, factor in ((job.get("x"), space.x_factor), (job.get("y"), space.y_factor))
    )
    return job.build(join_point, alpha, x, y, space)


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
    from .matprop import RMatrix

    job = _reader(payload)
    semiring = semiring_of(job)
    rows = job.typed("rows", int)
    cols = job.typed("cols", int)
    parsed = [[v.literal(semiring) for v in row.items()] for row in job["entries"].items()]
    return job.build(RMatrix, parsed, rows=rows, cols=cols, semiring=semiring)


def encode_qconv(op: QConvOp) -> dict:
    return {"arity": op.arity, "alpha": [str(w) for w in op.weights]}


def decode_qconv(payload) -> QConvOp:
    from .matprop import QConvOp

    job = _reader(payload)
    return job.build(QConvOp, job.rationals("alpha"))


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

    job = _reader(payload)
    factors = [decode_presentation(p) for p in job["factors"].items()]
    target = decode_presentation(job["target"])
    table = {}
    for row in job["table"].items():
        key = tuple(row["tuple"].names())
        table[key] = decode_element(row["value"], target)
    return job.build(NConvexMapSpec, tuple(factors), target, table)


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
    if verdict.is_distinct and verdict.support:
        out["support"] = [element_label(g) for g in verdict.support]
    elif verdict.is_distinct:
        out["invariant"] = {
            element_label(g): str(v)
            for g, v in zip(pres.generators, verdict.invariant)
            if v != 0
        }
    return out


_CERTIFICATES = {"equal": ("path",), "distinct": ("support", "invariant"), "unknown": ()}


def decode_verdict(payload, pres: Presentation) -> EqualityVerdict:
    """A verdict as encode_verdict writes it.  Every certificate key present
    is read: a key that the verdict's status does not carry, or an
    invariant beside a support, is an error at its path."""
    from .presentation import EqualityVerdict, ZigZagStep

    job = _reader(payload)
    status = job["status"]
    bound = job.get("bound", 0).nonnegative_int()
    if not isinstance(status.value, str) or status.value not in _CERTIFICATES:
        raise status.error(f"unknown verdict status {status.value!r}")
    for key in ("path", "support", "invariant"):
        if key in job and key not in _CERTIFICATES[status.value]:
            raise job[key].error(f"a verdict of status {status.value!r} has no {key}")
    if "support" in job and "invariant" in job:
        raise job["invariant"].error("a verdict with a support has no invariant")
    labels = {element_label(g): i for i, g in enumerate(pres.generators)}
    if status.value == "equal":
        steps = []
        for step in job.get("path", []).items():
            lams = tuple(l.literal() for l in step.get("lambdas", []).items())
            spect = _generator_map(step.get("spectator", {}), labels)
            steps.append(ZigZagStep(lams, spect))
        return EqualityVerdict("equal", path=tuple(steps), bound=bound)
    if status.value == "distinct" and "support" in job:
        support = tuple(pres.generators[_generator_at(item, labels)] for item in job["support"].items())
        return EqualityVerdict("distinct", bound=bound, support=support)
    if status.value == "distinct":
        inv = _generator_map(job.get("invariant", {}), labels, signed=True)
        return EqualityVerdict("distinct", invariant=inv, bound=bound)
    return EqualityVerdict("unknown", bound=bound)


def _triples(job):
    """A list of [a, b, c] name triples as the table {(a, b): c}."""
    table = {}
    for entry in job.items():
        if len(entry.names()) != 3:
            raise entry.error("expected a list of three names")
        table[(entry.value[0], entry.value[1])] = entry.value[2]
    return table


def _generator_map(job, labels, signed=False):
    """A {generator label: rational} object as a dense tuple over the
    generators (labels maps each label to its index), absent ones 0."""
    dense = [F(0)] * len(labels)
    for label, value in job.entries():
        if label not in labels:
            raise job.error(f"{label!r} is not a generator")
        dense[labels[label]] = value.literal(signed=signed)
    return tuple(dense)


def _generator_at(job, labels):
    """The index of the generator whose label is the string job."""
    label = job.expect(str)
    if label not in labels:
        raise job.error(f"{label!r} is not a generator")
    return labels[label]


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

    job = _reader(payload)
    objects = job["objects"].names()
    morphisms = [
        Morphism(*(m.typed(key, str) for key in ("id", "src", "tgt")))
        for m in job["morphisms"].items()
    ]
    table = _triples(job["compose"])
    given = job.get("identities")
    if given.value is None:
        identities = _infer_identities(job, objects, morphisms, table)
    else:
        identities = given.name_table()
    return job.build(FiniteCategory, objects, morphisms, identities, table)


def _infer_identities(job, objects, morphisms, table):
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
            raise job.error(f"cannot infer a unique identity for {c!r}")
        by_obj[c] = units[0]
    return by_obj


def decode_set_functor(payload, base):
    from .category import SetFunctor

    job = _reader(payload)
    on_objects = {k: tuple(v.names()) for k, v in job["on_objects"].entries()}
    on_morphisms = {k: dict(v.name_table()) for k, v in job["on_morphisms"].entries()}
    return job.build(SetFunctor, base, on_objects, on_morphisms)


def decode_cset_functor(payload, base):
    """Each object's presentation is inline or the value of the file that
    {"path": name} names, read as the entry name below the path field, so
    an error in it names the file: on_objects['0'].path['p.json'].relations."""
    from .category import CSetFunctor

    job = _reader(payload)
    on_objects = {}
    for k, raw in job["on_objects"].entries():
        if "path" in raw:
            at = raw["path"]
            name = at.expect(str)
            raw = Job(at.build(load_json, name), name, at, True)
        on_objects[k] = decode_presentation(raw)
    on_morphisms = {}
    for k, raw in job["on_morphisms"].entries():
        m = base.morphisms.get(k)
        if m is None or m.src not in on_objects or m.tgt not in on_objects:
            raise raw.error("not a morphism between objects in on_objects")
        on_morphisms[k] = decode_convex_map(raw, on_objects[m.src], on_objects[m.tgt])
    return job.build(CSetFunctor, base, on_objects, on_morphisms)


# -- simplicial data ----------------------------------------------------------------------------


def _indexed_tables(job, key):
    """The object field key of {name: name} tables keyed "n,i", as
    {(n, i): table}."""
    out = {}
    for index, table in job[key].entries():
        try:
            n_str, i_str = index.split(",")
            n, i = int(n_str), int(i_str)
        except ValueError:
            raise job[key].error(f"key {index!r} is not 'n,i'") from None
        out[(n, i)] = dict(table.name_table())
    return out


def decode_simplicial_set(payload):
    from .simplicial import TruncatedSimplicialSet

    job = _reader(payload)
    n_max = job.typed("N", int)
    levels = [level.names() for level in job["levels"].items()]
    face = _indexed_tables(job, "faces")
    degen = _indexed_tables(job, "degeneracies")
    return job.build(TruncatedSimplicialSet, n_max, levels, face, degen)


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

    job = _reader(payload)
    if "cyclic" in job:
        group = job["cyclic"].build(AbGroup.cyclic, job.typed("cyclic", int))
        return job.build(SimplicialAbGroup.constant, group, job.typed("N", int))
    n_max = job.typed("N", int)
    groups = [
        g.build(
            AbGroup,
            g["elements"].names(),
            _triples(g["add"]),
            g.typed("zero", str),
            g["neg"].name_table(),
        )
        for g in job["groups"].items()
    ]
    face = _indexed_tables(job, "faces")
    degen = _indexed_tables(job, "degeneracies")
    return job.build(SimplicialAbGroup, n_max, groups, face, degen)


def decode_twist(payload, space, group):
    from .simplicial import TwistingFunction

    maps = _reader(payload)["maps"]
    tables = {n: dict(table.value) for n, table in _levels(maps).items()}
    if not all(isinstance(v, str) for table in tables.values() for v in table.values()):
        raise maps.error("expected names (JSON strings)")
    return maps.build(TwistingFunction, space, group, tables)


def encode_twist(twist) -> dict:
    return {
        "maps": {
            str(n): {element_label(k): v for k, v in table.items()}
            for n, table in sorted(twist.maps.items())
        }
    }


def decode_sdist(payload, bundle):
    from .simplicial import SimplicialDistribution

    job = _reader(payload)
    levels = {}
    for n, table in _levels(job["levels"]).items():
        if n > bundle.total.n_max:
            raise table.error(f"above the truncation {bundle.total.n_max}")
        lookup = {element_label(e): e for e in bundle.total.simplices(n)}
        levels[n] = {}
        for x, dist in table.entries():
            weights = decode_distribution(dist).as_dict()
            if not set(weights) <= set(lookup):
                raise dist.error(f"not a distribution on level {n}")
            levels[n][x] = FiniteDistribution({lookup[el]: w for el, w in weights.items()})
    return job.build(SimplicialDistribution, bundle, levels)


def _levels(job):
    """A JSON object keyed by level numbers "0", "1", ... of JSON objects,
    as {n: the reader of its object}."""
    out = {}
    for key, table in job.entries():
        if not key.isdigit():
            raise job.error(f"key {key!r} is not a level number")
        table.expect(dict)
        out[int(key)] = table
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

    job = _reader(payload)
    carrier = job["carrier"].names()
    weights = {x: w.literal() for x, w in job["p"].entries()}
    return job.build(ProbObject, carrier, weights)


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

    job = _reader(payload)
    src = decode_prob_object(job["src"])
    tgt = decode_prob_object(job["tgt"])
    return job.build(ProbMorphism, src, tgt, job["map"].name_table())


def encode_corpus(corpus) -> dict:
    return {
        "morphisms": [encode_prob_morphism(m) for m in corpus.morphisms],
        "chains": [list(c) for c in corpus.chains],
    }


def decode_corpus(payload):
    from .finprob import Corpus

    job = _reader(payload)
    morphisms = [decode_prob_morphism(m) for m in job["morphisms"].items()]
    chains = []
    for chain in job.get("chains", []).items():
        pair = chain.value
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(type(i) is int and 0 <= i < len(morphisms) for i in pair)
        ):
            raise chain.error("expected two morphism indices")
        chains.append(tuple(pair))
    return Corpus(morphisms, chains)
