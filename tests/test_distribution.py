"""Distribution monad: unit, pushforward, flatten, mixtures."""

import functools
import itertools
import json
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from convexion.distribution import (
    FiniteDistribution,
    boolean_subset,
    convex_combine,
    delta,
    element_key,
    element_label,
    flatten,
    is_convex_vector,
    map_delta,
    product,
    pushforward,
)
from convexion.errors import (
    EmptyFactorList,
    NotConvexVector,
    NotNormalized,
    ParseError,
    SemiringMismatch,
    UndefinedOnSupport,
)
from convexion.semiring import BOOLEAN, RATIONAL

F = Fraction


# -- oracles: direct evaluation of the defining formulas --------------------


def pushforward_oracle(f, p):
    out = {}
    for y in {f[x] for x in p.support()}:
        out[y] = sum((p.weight(x) for x in p.support() if f[x] == y), F(0))
    return out


def flatten_oracle(nested):
    out = {}
    for q in nested.support():
        for x in q.support():
            out[x] = out.get(x, F(0)) + nested.weight(q) * q.weight(x)
    return {x: w for x, w in out.items() if w != 0}


def mixture_oracle(alpha, ps):
    out = {}
    for a, p in zip(alpha, ps):
        for x in p.support():
            out[x] = out.get(x, F(0)) + a * p.weight(x)
    return {x: w for x, w in out.items() if w != 0}


# -- strategies --------------------------------------------------------------

ELEMENTS = "abcde"


@st.composite
def rational_dists(draw, elements=ELEMENTS, max_den=6):
    els = draw(
        st.lists(st.sampled_from(elements), min_size=1, max_size=len(elements), unique=True)
    )
    weights = [draw(st.integers(min_value=0, max_value=max_den)) for _ in els]
    total = sum(weights)
    if total == 0:
        weights[0] = 1
        total = 1
    return FiniteDistribution(
        {e: F(w, total) for e, w in zip(els, weights)}, RATIONAL
    )


# -- constructor invariants --------------------------------------------------


def test_zero_weights_never_stored():
    p = FiniteDistribution({"a": F(1), "b": F(0)})
    assert p.support() == {"a"}
    assert p.weight("b") == 0


def test_unnormalized_rejected():
    with pytest.raises(NotNormalized):
        FiniteDistribution({"a": F(1, 2)})


def test_float_weights_rejected():
    from convexion.errors import ParseError

    with pytest.raises(ParseError):
        FiniteDistribution({"a": 0.5, "b": 0.5})


def test_duplicate_keys_cannot_happen_but_merge_path_exists():
    # dict input cannot carry duplicates; the merge branch guards items().
    p = FiniteDistribution({"a": F(1, 2), "b": F(1, 2)})
    assert p.weight("a") == F(1, 2)


# -- delta -------------------------------------------------------------------


def test_delta_point_mass():
    d = delta("a")
    assert d.as_dict() == {"a": F(1)}
    assert d.support_size == 1


def test_pushforward_identity_on_delta():
    d = delta("a")
    assert pushforward({"a": "a"}, d) == d


# -- pushforward -------------------------------------------------------------


def test_pushforward_collapse():
    p = FiniteDistribution({"a": F(1, 2), "c": F(1, 2)})
    assert pushforward(lambda _: "b", p) == delta("b")


def test_pushforward_swap_matches_fibre_sum_oracle():
    p = FiniteDistribution({"a": F(1, 3), "b": F(2, 3)})
    swap = {"a": "b", "b": "a"}
    got = pushforward(swap, p)
    assert got.as_dict() == pushforward_oracle(swap, p)
    assert got == FiniteDistribution({"a": F(2, 3), "b": F(1, 3)})


@given(rational_dists())
def test_pushforward_identity(p):
    assert pushforward(lambda x: x, p) == p


def test_pushforward_undefined_on_support():
    p = FiniteDistribution({"a": F(1, 2), "b": F(1, 2)})
    with pytest.raises(UndefinedOnSupport):
        pushforward({"a": "z"}, p)


@given(rational_dists())
def test_pushforward_functorial(p):
    f = {e: "xy"[i % 2] for i, e in enumerate(ELEMENTS)}
    g = {"x": "u", "y": "u"}
    composed = {e: g[f[e]] for e in ELEMENTS}
    assert pushforward(composed, p) == pushforward(g, pushforward(f, p))


# -- flatten -----------------------------------------------------------------


def test_flatten_of_delta_of_distribution():
    q = FiniteDistribution({"a": F(1, 3), "b": F(2, 3)})
    assert flatten(delta(q)) == q


def test_flatten_worked_example_matches_oracle():
    inner1 = FiniteDistribution({"a": F(1, 2), "b": F(1, 2)})
    inner2 = delta("a")
    nested = FiniteDistribution({inner1: F(1, 2), inner2: F(1, 2)})
    got = flatten(nested)
    assert got.as_dict() == flatten_oracle(nested)
    assert got == FiniteDistribution({"a": F(3, 4), "b": F(1, 4)})


@given(rational_dists())
def test_flatten_left_unit(q):
    assert flatten(delta(q)) == q


@given(rational_dists())
def test_flatten_right_unit(p):
    assert flatten(map_delta(p)) == p


def merged(pairs):
    out = {}
    for d, w in pairs:
        out[d] = out.get(d, F(0)) + w
    return FiniteDistribution(out)


@given(st.data())
def test_flatten_associativity(data):
    inner = [data.draw(rational_dists()) for _ in range(3)]
    mid1 = merged([(inner[0], F(1, 2)), (inner[1], F(1, 2))])
    mid2 = merged([(inner[1], F(1, 3)), (inner[2], F(2, 3))])
    triple = merged([(mid1, F(1, 4)), (mid2, F(3, 4))])
    lhs = flatten(flatten(triple))
    rhs = flatten(pushforward(lambda mid: flatten(mid), triple))
    assert lhs == rhs


# -- convex_combine ----------------------------------------------------------


def test_combine_single():
    p = FiniteDistribution({"a": F(1, 2), "b": F(1, 2)})
    assert convex_combine([F(1)], [p]) == p


def test_combine_two_deltas():
    got = convex_combine([F(1, 2), F(1, 2)], [delta("a"), delta("b")])
    assert got == FiniteDistribution({"a": F(1, 2), "b": F(1, 2)})


def test_combine_weighted_sum_matches_oracle():
    p1 = FiniteDistribution({"a": F(1, 2), "b": F(1, 2)})
    p2 = delta("b")
    alpha = [F(1, 3), F(2, 3)]
    got = convex_combine(alpha, [p1, p2])
    assert got.as_dict() == mixture_oracle(alpha, [p1, p2])
    assert got == FiniteDistribution({"a": F(1, 6), "b": F(5, 6)})


def test_combine_rejects_nonconvex_vector():
    with pytest.raises(NotConvexVector):
        convex_combine([F(1, 2), F(1, 3)], [delta("a"), delta("b")])
    with pytest.raises(NotConvexVector):
        convex_combine([F(1)], [delta("a"), delta("b")])


@settings(max_examples=50)
@given(st.data())
def test_operations_preserve_normalization(data):
    ps = [data.draw(rational_dists()) for _ in range(2)]
    mixed = convex_combine([F(1, 4), F(3, 4)], ps)
    assert sum(w for _, w in mixed.items()) == 1
    pushed = pushforward(lambda x: "z", mixed)
    assert sum(w for _, w in pushed.items()) == 1


# -- Boolean semiring --------------------------------------------------------


def test_boolean_distributions_are_nonempty_subsets():
    s = boolean_subset(["a", "b"])
    assert s.support() == {"a", "b"}
    assert all(w is True for _, w in s.items())
    with pytest.raises(NotNormalized):
        FiniteDistribution({}, BOOLEAN)


def test_boolean_flatten_is_union():
    s1 = boolean_subset(["a", "b"])
    s2 = boolean_subset(["b", "c"])
    nested = FiniteDistribution({s1: True, s2: True}, BOOLEAN)
    assert flatten(nested) == boolean_subset(["a", "b", "c"])


def test_boolean_combine_is_union_of_selected():
    s1 = boolean_subset(["a"])
    s2 = boolean_subset(["b"])
    assert convex_combine([True, True], [s1, s2]) == boolean_subset(["a", "b"])
    # A zero coefficient drops its summand.
    assert convex_combine([True, False], [s1, s2]) == s1


def test_is_convex_vector_predicate():
    from convexion.distribution import is_convex_vector

    assert is_convex_vector([F(1, 3), F(2, 3)])
    assert not is_convex_vector([F(1, 2), F(1, 3)])
    assert is_convex_vector([True, False], BOOLEAN)
    assert not is_convex_vector([False, False], BOOLEAN)
    # a negative coefficient answers False, as a number or as a literal
    assert not is_convex_vector([F(3, 2), F(-1, 2)])
    assert not is_convex_vector([2, -1])
    assert not is_convex_vector(["3/2", "-1/2"])
    assert not is_convex_vector(["3/2", " -1/2 "])
    assert is_convex_vector(["1/3", "2/3"]) and not is_convex_vector(["1/2", "1/3"])
    # a literal that does not read is still malformed input
    for unread in (["x", "1"], ["1/0", "1"], ["1/2", "-"]):
        with pytest.raises(ParseError):
            is_convex_vector(unread)
    # and convex_combine still refuses a negative number
    with pytest.raises(NotConvexVector):
        convex_combine([F(3, 2), F(-1, 2)], [delta("a"), delta("b")])


def test_boolean_pushforward_is_image():
    s = boolean_subset(["a", "b", "c"])
    assert pushforward({"a": "x", "b": "x", "c": "y"}, s) == boolean_subset(
        ["x", "y"]
    )


def _weights(pairs):
    return {"weights": [{"el": el, "w": w} for el, w in pairs]}


@pytest.mark.parametrize(
    "semiring, outer, expected",
    [
        # P = a/2 + b/2 listed twice: 1/3 + 1/3 = 2/3 of P, then 1/3 of a
        (
            "rational",
            [("1/3", [("a", "1/2"), ("b", "1/2")]), ("1/3", [("a", "1")]), ("1/3", [("b", "1/2"), ("a", "1/2")])],
            [("a", "2/3"), ("b", "1/3")],
        ),
        # the subset {a, b} listed twice, with 1 and then 0: 1 or 0 is 1
        (
            "boolean",
            [("1", [("a", "1"), ("b", "1")]), ("1", [("a", "1")]), ("0", [("b", "1"), ("a", "1")])],
            [("a", "1"), ("b", "1")],
        ),
    ],
)
def test_dist_flatten_job_merges_a_repeated_inner_distribution(tmp_path, semiring, outer, expected):
    from convexion.cli import run

    job = {
        "op": "flatten",
        "semiring": semiring,
        "outer": [{"weight": w, "dist": _weights(inner)} for w, inner in outer],
    }
    path = tmp_path / "flatten.json"
    path.write_text(json.dumps(job))
    code, report, _ = run(["dist", "--job", str(path)])
    assert code == 0
    assert report["result"]["distribution"]["weights"] == _weights(expected)["weights"]


# -- integer form against the Fraction accumulation it replaced --------------
#
# These are the constructor and operation loops that accumulated one
# semiring add or multiply per term before distributions kept an integer
# form; they stay here as the oracle for both semirings.  The semirings
# keep no payload arithmetic, so the oracle has its own table.


class Arithmetic:
    """Payload arithmetic of one semiring: zero, one, add, mul, and
    coerce, which reads a payload spelling (payload, int or string)."""

    def __init__(self, zero, one, add, mul, coerce):
        self.zero, self.one, self.add, self.mul, self.coerce = zero, one, add, mul, coerce

    def sum(self, values):
        return functools.reduce(self.add, values, self.zero)


ARITHMETIC = {
    RATIONAL: Arithmetic(F(0), F(1), operator.add, operator.mul, F),
    BOOLEAN: Arithmetic(False, True, operator.or_, operator.and_, lambda v: bool(int(v))),
}


def fraction_cleaned(weights, sr):
    ar = ARITHMETIC[sr]
    cleaned = {}
    for el, w in weights.items():
        w = ar.coerce(w)
        if w == ar.zero:
            continue
        if el in cleaned:
            w = ar.add(cleaned[el], w)
        cleaned[el] = w
    return cleaned, ar.sum(cleaned.values()) == ar.one


def fraction_pushforward(f, p):
    ar = ARITHMETIC[p.semiring]
    out = {}
    for el, w in p.as_dict().items():
        y = f[el]
        out[y] = ar.add(out[y], w) if y in out else w
    return out


def fraction_flatten(nested):
    ar = ARITHMETIC[nested.semiring]
    out = {}
    for q, outer in nested.as_dict().items():
        for el, inner in q.as_dict().items():
            w = ar.mul(outer, inner)
            out[el] = ar.add(out[el], w) if el in out else w
    return out


def fraction_convex_combine(alpha, ps):
    ar = ARITHMETIC[ps[0].semiring]
    coeffs = [ar.coerce(a) for a in alpha]
    out = {}
    for a, p in zip(coeffs, ps):
        if a == ar.zero:
            continue
        for el, w in p.as_dict().items():
            term = ar.mul(a, w)
            out[el] = ar.add(out[el], term) if el in out else term
    return out


def fraction_product(ps):
    ar = ARITHMETIC[ps[0].semiring]
    out = {}
    for combo in itertools.product(*(p.as_dict().items() for p in ps)):
        w = ar.one
        for _, v in combo:
            w = ar.mul(w, v)
        out[tuple(el for el, _ in combo)] = w
    return out


def assert_integer_form(p):
    """The stored integer form is the canonical form of the payloads."""
    weights = p.as_dict()
    assert list(p._nums) == list(weights)
    if p.semiring is BOOLEAN:
        assert p._den == 1 and set(p._nums.values()) <= {1}
        assert all(w is True for w in weights.values())
        return
    assert p._den == math.lcm(*(w.denominator for w in weights.values()))
    assert math.gcd(p._den, *p._nums.values()) == 1
    assert sum(p._nums.values()) == p._den
    for el, n in p._nums.items():
        assert n > 0 and type(weights[el]) is F and F(n, p._den) == weights[el]


LEAVES = ("a", "b", "c", 3, ("a", 1))


def spelled(w):
    """One of the payload spellings the constructor accepts for w."""
    return st.sampled_from(
        [w, str(w), f"{2 * w.numerator}/{2 * w.denominator}"]
        + ([int(w)] if w.denominator == 1 else [])
    )


@st.composite
def weight_maps(draw, sr, elements=LEAVES, zeros=True):
    """A raw weight map over sr summing to one, in mixed spellings, maybe
    with zero entries."""
    els = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=len(elements), unique=True))
    if sr is BOOLEAN:
        flags = draw(st.lists(st.booleans(), min_size=len(els), max_size=len(els)))
        flags[draw(st.integers(0, len(els) - 1))] = True
        return {el: draw(st.sampled_from([flag, int(flag), str(int(flag))])) for el, flag in zip(els, flags)}
    cuts = [draw(st.integers(0 if zeros else 1, 6)) for _ in els]
    if not any(cuts):
        cuts[0] = 1
    return {el: draw(spelled(F(c, sum(cuts)))) for el, c in zip(els, cuts)}


def dists(sr, elements=LEAVES):
    return weight_maps(sr, elements).map(lambda w: FiniteDistribution(w, sr))


SEMIRINGS = st.sampled_from([RATIONAL, BOOLEAN])


@st.composite
def nested_dists(draw, sr, depth):
    """A distribution of distributions whose leaves may themselves be
    distributions (depth 2)."""
    leaves = list(LEAVES)
    if depth > 1:
        leaves += draw(st.lists(dists(sr), min_size=1, max_size=3))
    inner = draw(st.lists(dists(sr, leaves), min_size=1, max_size=4, unique=True))
    return FiniteDistribution(draw(weight_maps(sr, inner)), sr)


@given(SEMIRINGS.flatmap(lambda sr: st.tuples(st.just(sr), weight_maps(sr))))
def test_constructor_matches_fraction_oracle(case):
    sr, raw = case
    p = FiniteDistribution(raw, sr)
    cleaned, normalized = fraction_cleaned(raw, sr)
    assert normalized and p.as_dict() == cleaned
    assert_integer_form(p)


def test_integer_form_is_the_only_stored_state():
    assert FiniteDistribution.__slots__ == ("semiring", "_nums", "_den", "_hash")
    p = FiniteDistribution({"a": "1/3", "b": F(2, 3)})
    assert not hasattr(p, "_weights") and not hasattr(p, "__dict__")
    assert type(p._den) is int and all(type(n) is int for n in p._nums.values())


@given(st.data())
def test_views_match_fraction_oracle(data):
    sr = data.draw(SEMIRINGS)
    elements = list(LEAVES) + data.draw(st.lists(dists(sr), max_size=2, unique=True))
    raw = data.draw(weight_maps(sr, elements))
    p = FiniteDistribution(raw, sr)
    cleaned, _ = fraction_cleaned(raw, sr)
    ordered = sorted(cleaned.items(), key=lambda kv: element_key(kv[0]))
    assert p.as_dict() == cleaned and list(p.as_dict()) == list(cleaned)
    zero = ARITHMETIC[sr].zero
    assert all(type(w) is type(zero) for w in p.as_dict().values())
    assert p.items() == ordered
    assert p.support() == frozenset(cleaned) and p.support_size == len(cleaned)
    for el in elements + ["outside"]:
        w = p.weight(el)
        assert w == cleaned.get(el, zero) and type(w) is type(zero)
    body = ", ".join(f"{element_label(el)}: {sr.format(w)}" for el, w in ordered)
    assert repr(p) == "{" + body + "}"


@given(st.data())
def test_flatten_matches_fraction_oracle(data):
    sr = data.draw(SEMIRINGS)
    nested = data.draw(nested_dists(sr, data.draw(st.integers(1, 2))))
    got = flatten(nested)
    assert got.as_dict() == fraction_flatten(nested)
    assert_integer_form(got)


@given(st.data())
def test_convex_combine_matches_fraction_oracle(data):
    sr = data.draw(SEMIRINGS)
    ps = data.draw(st.lists(dists(sr), min_size=1, max_size=4))
    # zero coefficients are allowed and drop their summand
    raw = data.draw(weight_maps(sr, range(len(ps))))
    alpha = [raw.get(i, 0) for i in range(len(ps))]
    got = convex_combine(alpha, ps)
    assert got.as_dict() == fraction_convex_combine(alpha, ps)
    assert_integer_form(got)
    assert is_convex_vector(alpha, sr)


@given(st.data())
def test_pushforward_matches_fraction_oracle(data):
    sr = data.draw(SEMIRINGS)
    p = data.draw(st.one_of(dists(sr), nested_dists(sr, 1)))
    f = {el: data.draw(st.sampled_from(["u", "v", delta("w", sr), 5])) for el in p.support()}
    got = pushforward(f, p)
    assert got.as_dict() == fraction_pushforward(f, p)
    assert_integer_form(got)


@seed(20261019)
@given(st.data())
def test_product_matches_fraction_oracle(data):
    sr = data.draw(SEMIRINGS)
    ps = data.draw(st.lists(st.one_of(dists(sr), nested_dists(sr, 1)), min_size=1, max_size=3))
    got = product(ps)
    assert got.as_dict() == fraction_product(ps)
    assert_integer_form(got)


def test_product_fixed_cases():
    p = FiniteDistribution({"a": F(1, 3), "b": F(2, 3)})
    q = FiniteDistribution({"x": "1/2", "y": "1/2"})
    assert product([p, q]) == FiniteDistribution(
        {("a", "x"): F(1, 6), ("a", "y"): F(1, 6), ("b", "x"): F(1, 3), ("b", "y"): F(1, 3)}
    )
    # one factor: the same weights on 1-tuples
    assert product([p]) == pushforward(lambda el: (el,), p)
    assert product([delta("a"), p, delta("c")]) == pushforward(lambda el: ("a", el, "c"), p)
    # over the Booleans the product of subsets is their cartesian product
    assert product([boolean_subset("ab"), boolean_subset("c")]) == boolean_subset([("a", "c"), ("b", "c")])
    with pytest.raises(EmptyFactorList):
        product([])
    with pytest.raises(SemiringMismatch, match="mixed semirings"):
        product([p, delta("a", BOOLEAN)])


@given(st.lists(st.sampled_from(["0", "1/3", "2/3", "1/2", "1", 0, 1, F(1, 6)]), max_size=4))
def test_is_convex_vector_matches_fraction_sum(alpha):
    assert is_convex_vector(alpha) == (sum(F(a) for a in alpha) == 1)


@given(st.data())
def test_equality_and_hash_ignore_spelling(data):
    sr = data.draw(SEMIRINGS)
    p = data.draw(dists(sr))
    respelled = {}
    for el, w in p.as_dict().items():
        respelled[el] = w if sr is BOOLEAN else data.draw(spelled(w))
    respelled[data.draw(st.sampled_from(["z0", "z1"]))] = 0
    q = FiniteDistribution(dict(reversed(list(respelled.items()))), sr)
    assert q == p and hash(q) == hash(p)
    assert_integer_form(q)


def test_equality_and_hash_on_fixed_spellings():
    half = FiniteDistribution({"x": "2/4", "y": F(1, 2), "z": 0})
    assert half == FiniteDistribution({"y": "1/2", "x": F(1, 2)})
    assert hash(half) == hash(FiniteDistribution({"y": "1/2", "x": F(1, 2)}))
    one = FiniteDistribution({"x": 1, "y": "0/5"})
    assert one == delta("x") == FiniteDistribution({"x": "3/3"})
    assert hash(one) == hash(delta("x"))
    assert half != FiniteDistribution({"x": F(1, 3), "y": F(2, 3)})
    assert delta("x") != delta("x", BOOLEAN)
    nested = FiniteDistribution({half: "1/3", one: "2/3"})
    assert nested == FiniteDistribution({one: F(2, 3), FiniteDistribution({"x": "1/2", "y": "1/2"}): F(1, 3)})
    assert hash(nested) == hash(FiniteDistribution({one: F(4, 6), half: F(2, 6)}))


def test_error_messages_are_unchanged():
    with pytest.raises(NotNormalized, match=r"^weights sum to 3/4, expected 1$"):
        FiniteDistribution({"a": "1/2", "b": F(1, 4)})
    with pytest.raises(NotNormalized, match=r"^weights sum to 0, expected 1$"):
        FiniteDistribution({"a": 0})
    with pytest.raises(NotNormalized, match=r"^weights sum to 0, expected 1$"):
        FiniteDistribution({}, BOOLEAN)
    with pytest.raises(NotConvexVector, match="coefficients do not sum to 1"):
        convex_combine(["1/2", "1/3"], [delta("a"), delta("b")])
    with pytest.raises(NotConvexVector, match="coefficients do not sum to 1"):
        convex_combine([False], [delta("a", BOOLEAN)])
    with pytest.raises(ParseError, match="negative coefficient"):
        FiniteDistribution({"a": "-1/2", "b": "3/2"})
    with pytest.raises(ParseError, match="negative coefficient"):
        FiniteDistribution({"a": F(-1, 2), "b": F(3, 2)})
    with pytest.raises(NotConvexVector, match="^negative coefficient -1 is not allowed$"):
        convex_combine([-1, 2], [delta("a"), delta("b")])
    with pytest.raises(ParseError, match="negative coefficient"):
        convex_combine(["-1", "2"], [delta("a"), delta("b")])
    with pytest.raises(SemiringMismatch, match="boolean payload"):
        FiniteDistribution({"a": True})
    with pytest.raises(SemiringMismatch, match="boolean payload"):
        convex_combine([True], [delta("a")])
    with pytest.raises(SemiringMismatch, match="distribution of distributions"):
        flatten(FiniteDistribution({"a": "1/2", delta("b"): "1/2"}))
    with pytest.raises(SemiringMismatch, match="semirings differ"):
        flatten(FiniteDistribution({delta("a", BOOLEAN): 1}))
    with pytest.raises(SemiringMismatch, match="mixed semirings"):
        convex_combine([1, 0], [delta("a"), delta("a", BOOLEAN)])
