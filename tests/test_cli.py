"""Command-line behaviour: schemas, exit codes, report stability, and the
coverage of the (verb, op) table cli.OPS: one sample job per op, and every
module operation reached by running them."""

import hashlib
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import convexion.category as category_mod
import convexion.distribution as distribution_mod
import convexion.finprob as finprob_mod
import convexion.join as join_mod
import convexion.matprop as matprop_mod
import convexion.omonoidal as omonoidal_mod
import convexion.presentation as presentation_mod
import convexion.simplicial as simplicial_mod
import convexion.tensor as tensor_mod
from convexion import cli, jsonio
from convexion.cli import run
from convexion.distribution import FiniteDistribution
from convexion.errors import ConvexionError, NotNormalized, ParseError
from convexion.semiring import BOOLEAN, RATIONAL


# Child processes import convexion from this checkout's src/.
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def invoke(*argv):
    code, report, _ = run(list(argv))
    return code, report


DIST = {"weights": [{"el": "a", "w": "1/2"}, {"el": "b", "w": "1/2"}]}
PRES = {"generators": ["a", "b"], "relations": []}
GLUE = {
    "generators": ["a", "b"],
    "relations": [
        [{"weights": [{"el": "a", "w": "1"}]}, {"weights": [{"el": "b", "w": "1"}]}]
    ],
}


def test_unknown_verb_rejected_before_io():
    with pytest.raises(SystemExit):
        run(["frobnicate", "--job", "nonexistent.json"])


# -- dist ----------------------------------------------------------------------


def test_dist_pushforward(tmp_path):
    job = write(
        tmp_path,
        "job.json",
        {"op": "pushforward", "map": {"a": "b", "b": "a"}, "dist": DIST},
    )
    code, report = invoke("dist", "--job", job)
    assert code == 0
    assert report["result"]["distribution"]["weights"] == [
        {"el": "a", "w": "1/2"},
        {"el": "b", "w": "1/2"},
    ]


def test_dist_flatten_and_combine(tmp_path):
    job = write(
        tmp_path,
        "f.json",
        {
            "op": "flatten",
            "outer": [
                {"weight": "1/2", "dist": DIST},
                {"weight": "1/2", "dist": {"weights": [{"el": "a", "w": "1"}]}},
            ],
        },
    )
    code, report = invoke("dist", "--job", job)
    assert code == 0
    assert report["result"]["distribution"]["weights"] == [
        {"el": "a", "w": "3/4"},
        {"el": "b", "w": "1/4"},
    ]
    job2 = write(
        tmp_path,
        "c.json",
        {
            "op": "convex_combine",
            "alpha": ["1/3", "2/3"],
            "dists": [DIST, {"weights": [{"el": "b", "w": "1"}]}],
        },
    )
    code, report = invoke("dist", "--job", job2)
    assert code == 0
    assert report["result"]["distribution"]["weights"] == [
        {"el": "a", "w": "1/6"},
        {"el": "b", "w": "5/6"},
    ]


def test_dist_delta_boolean(tmp_path):
    job = write(tmp_path, "d.json", {"op": "delta", "element": "a", "semiring": "boolean"})
    code, report = invoke("dist", "--job", job)
    assert code == 0
    assert report["result"]["distribution"]["semiring"] == "boolean"


# -- eq -------------------------------------------------------------------------


def test_eq_flag_form_matches_spec_invocation(tmp_path):
    pres = write(tmp_path, "p.json", GLUE)
    lhs = write(tmp_path, "lhs.json", {"weights": [{"el": "a", "w": "1"}]})
    rhs = write(tmp_path, "rhs.json", {"weights": [{"el": "b", "w": "1"}]})
    code, report = invoke(
        "eq", "--presentation", pres, "--lhs", lhs, "--rhs", rhs, "--bound", "4"
    )
    assert code == 0
    assert report["result"]["verdict"]["status"] == "equal"
    assert report["result"]["verified"] is True
    assert report["bound"] == 4


def test_eq_distinct_has_invariant_witness(tmp_path):
    pres = write(tmp_path, "p.json", PRES)
    lhs = write(tmp_path, "lhs.json", {"weights": [{"el": "a", "w": "1"}]})
    rhs = write(tmp_path, "rhs.json", {"weights": [{"el": "b", "w": "1"}]})
    code, report = invoke("eq", "--presentation", pres, "--lhs", lhs, "--rhs", rhs)
    assert code == 0
    assert report["result"]["verdict"]["status"] == "distinct"
    assert report["result"]["verdict"]["invariant"] == {"a": "1"}


def test_eq_job_ops(tmp_path):
    job = write(
        tmp_path,
        "mix.json",
        {
            "op": "quotient_mix",
            "presentation": PRES,
            "alpha": ["1/2", "1/2"],
            "elements": [
                {"weights": [{"el": "a", "w": "1"}]},
                {"weights": [{"el": "b", "w": "1"}]},
            ],
        },
    )
    code, report = invoke("eq", "--job", job)
    assert code == 0
    assert report["result"]["element"]["weights"] == [
        {"el": "a", "w": "1/2"},
        {"el": "b", "w": "1/2"},
    ]
    bad = write(
        tmp_path,
        "bad.json",
        {
            "op": "induce_map",
            "source": GLUE,
            "target": PRES,
            "assignment": {
                "a": {"weights": [{"el": "a", "w": "1"}]},
                "b": {"weights": [{"el": "b", "w": "1"}]},
            },
        },
    )
    code, report = invoke("eq", "--job", bad)
    assert code == 0
    assert report["result"]["accepted"] is False
    assert report["result"]["reason"] == "relation_violated"


def test_eq_verify_round_trip(tmp_path):
    pres = write(tmp_path, "p.json", GLUE)
    lhs_payload = {"weights": [{"el": "a", "w": "1"}]}
    rhs_payload = {"weights": [{"el": "b", "w": "1"}]}
    code, report = invoke(
        "eq",
        "--presentation",
        pres,
        "--lhs",
        write(tmp_path, "l.json", lhs_payload),
        "--rhs",
        write(tmp_path, "r.json", rhs_payload),
    )
    verdict = report["result"]["verdict"]
    job = write(
        tmp_path,
        "verify.json",
        {
            "op": "verify",
            "presentation": GLUE,
            "lhs": lhs_payload,
            "rhs": rhs_payload,
            "verdict": verdict,
        },
    )
    code, report = invoke("eq", "--job", job)
    assert code == 0 and report["result"]["verified"] is True


# -- join -----------------------------------------------------------------------


def test_join_mix_cli(tmp_path):
    job = write(
        tmp_path,
        "join.json",
        {
            "op": "join_mix",
            "x_presentation": PRES,
            "y_presentation": {"generators": ["u"], "relations": []},
            "beta": ["1/2", "1/2"],
            "points": [
                {"alpha": "1", "x": {"weights": [{"el": "a", "w": "1"}]}, "y": None},
                {"alpha": "0", "x": None, "y": {"weights": [{"el": "u", "w": "1"}]}},
            ],
        },
    )
    code, report = invoke("join", "--job", job)
    assert code == 0
    assert report["result"]["point"]["alpha"] == "1/2"
    assert "join_mix" in report["result"]["assumptions_used"]


def test_join_copair_cli(tmp_path):
    job = write(
        tmp_path,
        "copair.json",
        {
            "op": "copair",
            "x_presentation": PRES,
            "y_presentation": {"generators": ["u"], "relations": []},
            "target": {"generators": ["z0", "z1"], "relations": []},
            "f": {
                "a": {"weights": [{"el": "z0", "w": "1"}]},
                "b": {"weights": [{"el": "z1", "w": "1"}]},
            },
            "g": {"u": {"weights": [{"el": "z1", "w": "1"}]}},
            "point": {
                "alpha": "1/2",
                "x": {"weights": [{"el": "a", "w": "1"}]},
                "y": {"weights": [{"el": "u", "w": "1"}]},
            },
        },
    )
    code, report = invoke("join", "--job", job)
    assert code == 0
    assert report["result"]["value"]["weights"] == [
        {"el": "z0", "w": "1/2"},
        {"el": "z1", "w": "1/2"},
    ]


# -- tensor ------------------------------------------------------------------------


def test_tensor_counterexample_cli(tmp_path):
    job = write(tmp_path, "cx.json", {"op": "counterexample"})
    code, report = invoke("tensor", "--job", job)
    assert code == 0
    assert report["result"]["unequal"] is True
    weights = report["result"]["biconvex_value"]["weights"]
    assert all(w["w"] == "1/4" for w in weights)


def test_tensor_and_universal_map_cli(tmp_path):
    job = write(
        tmp_path,
        "tensor.json",
        {"op": "tensor", "factors": [PRES, {"generators": ["c"], "relations": []}]},
    )
    code, report = invoke("tensor", "--job", job)
    assert code == 0
    assert report["result"]["presentation"]["generators"] == ["(a,c)", "(b,c)"]
    job2 = write(
        tmp_path,
        "um.json",
        {
            "op": "universal_map",
            "factors": [PRES, {"generators": ["c"], "relations": []}],
            "elements": [DIST, {"weights": [{"el": "c", "w": "1"}]}],
        },
    )
    code, report = invoke("tensor", "--job", job2)
    assert code == 0
    assert report["result"]["element"]["weights"] == [
        {"el": "(a,c)", "w": "1/2"},
        {"el": "(b,c)", "w": "1/2"},
    ]


def test_tensor_coherence_cli(tmp_path):
    job = write(
        tmp_path,
        "braid.json",
        {
            "op": "coherence",
            "kind": "braiding",
            "factors": [PRES, {"generators": ["c", "d"], "relations": []}],
        },
    )
    code, report = invoke("tensor", "--job", job)
    assert code == 0
    assert report["result"]["two_sided_inverse"] is True


# -- prop ----------------------------------------------------------------------------


def test_prop_matrix_ops(tmp_path):
    m = {"rows": 2, "cols": 2, "entries": [["1/2", "1/2"], ["0", "1"]]}
    job = write(tmp_path, "cvx.json", {"op": "is_convex_matrix", "matrix": m})
    code, report = invoke("prop", "--job", job)
    assert code == 0 and report["result"]["convex"] is True
    job2 = write(
        tmp_path,
        "qc.json",
        {
            "op": "qconv_compose",
            "outer": {"alpha": ["1/2", "1/2"]},
            "inner": [{"alpha": ["1"]}, {"alpha": ["1/3", "2/3"]}],
        },
    )
    code, report = invoke("prop", "--job", job2)
    assert code == 0
    assert report["result"]["operation"]["alpha"] == ["1/2", "1/6", "1/3"]


def test_prop_algebra_apply(tmp_path):
    job = write(
        tmp_path,
        "alg.json",
        {
            "op": "algebra_apply",
            "presentation": PRES,
            "matrix": {"rows": 2, "cols": 1, "entries": [["1"], ["1"]]},
            "elements": [DIST],
        },
    )
    code, report = invoke("prop", "--job", job)
    assert code == 0
    assert len(report["result"]["elements"]) == 2


# -- groth ------------------------------------------------------------------------------


ARROW_CAT = {
    "objects": ["0", "1"],
    "morphisms": [
        {"id": "id0", "src": "0", "tgt": "0"},
        {"id": "id1", "src": "1", "tgt": "1"},
        {"id": "f", "src": "0", "tgt": "1"},
    ],
    "compose": [
        ["id0", "id0", "id0"],
        ["id1", "id1", "id1"],
        ["f", "id0", "f"],
        ["id1", "f", "f"],
    ],
}


def test_groth_cli_round(tmp_path):
    job = write(
        tmp_path,
        "groth.json",
        {
            "op": "grothendieck",
            "category": ARROW_CAT,
            "functor": {
                "on_objects": {"0": ["x", "y"], "1": ["z"]},
                "on_morphisms": {
                    "id0": {"x": "x", "y": "y"},
                    "id1": {"z": "z"},
                    "f": {"x": "z", "y": "z"},
                },
            },
        },
    )
    code, report = invoke("groth", "--job", job)
    assert code == 0
    assert report["result"]["is_discrete_fibration"] is True
    assert len(report["result"]["total"]["objects"]) == 3


def test_groth_convex_cli(tmp_path):
    job = write(
        tmp_path,
        "cgroth.json",
        {
            "op": "convex_grothendieck",
            "category": ARROW_CAT,
            "functor": {
                "on_objects": {"0": PRES, "1": {"generators": ["u", "v"], "relations": []}},
                "on_morphisms": {
                    "id0": {
                        "a": {"weights": [{"el": "a", "w": "1"}]},
                        "b": {"weights": [{"el": "b", "w": "1"}]},
                    },
                    "id1": {
                        "u": {"weights": [{"el": "u", "w": "1"}]},
                        "v": {"weights": [{"el": "v", "w": "1"}]},
                    },
                    "f": {
                        "a": {"weights": [{"el": "u", "w": "1"}]},
                        "b": {"weights": [{"el": "u", "w": "1/2"}, {"el": "v", "w": "1/2"}]},
                    },
                },
            },
            "samples": [
                {
                    "morphism": "f",
                    "alpha": ["1/3", "2/3"],
                    "elements": [
                        {"weights": [{"el": "a", "w": "1"}]},
                        {"weights": [{"el": "b", "w": "1"}]},
                    ],
                }
            ],
        },
    )
    code, report = invoke("groth", "--job", job)
    assert code == 0
    assert report["result"]["fibrewise_equations_hold"] is True


def _arrow_functor_job(tmp_path, target):
    """F(0) = {a, b | a ~ b} and F(1) = target on the generators c and e,
    with F(f): a -> c, b -> e."""
    delta = {g: {"weights": [{"el": g, "w": "1"}]} for g in "abce"}
    return write(
        tmp_path,
        "arrow.json",
        {
            "op": "convex_grothendieck",
            "category": ARROW_CAT,
            "functor": {
                "on_objects": {"0": GLUE, "1": target},
                "on_morphisms": {
                    "f": {"a": delta["c"], "b": delta["e"]},
                    "id0": {"a": delta["a"], "b": delta["b"]},
                    "id1": {"c": delta["c"], "e": delta["e"]},
                },
            },
        },
    )


def test_groth_convex_refuses_an_ill_defined_map(tmp_path):
    # a ~ b in F(0), but F(f) sends them to distinct generators of a free set.
    job = _arrow_functor_job(tmp_path, {"generators": ["c", "e"], "relations": []})
    code, report = invoke("groth", "--job", job)
    assert code == 2
    assert report["error"] == (
        "functor.on_morphisms['f']: assignment sends a relation pair to distinct elements"
    )


def test_groth_convex_decides_each_map_at_any_bound(tmp_path):
    # c ~ e in F(1) too: the relation images are equal by one zig-zag step,
    # which eq at bound 0 does not look for; the map check decides exactly,
    # so --bound (eq's step bound) does not change the answer.
    glued = {
        "generators": ["c", "e"],
        "relations": [[{"weights": [{"el": "c", "w": "1"}]}, {"weights": [{"el": "e", "w": "1"}]}]],
    }
    job = _arrow_functor_job(tmp_path, glued)
    code, report = invoke("groth", "--job", job)
    assert code == 0 and report["result"]["fibrewise_equations_hold"] is True
    code, at_zero = invoke("groth", "--bound", "0", "--job", job)
    assert code == 0 and at_zero["result"] == report["result"]


# -- omon --------------------------------------------------------------------------------


def test_omon_star_alpha_cli(tmp_path):
    job = write(
        tmp_path,
        "star.json",
        {
            "op": "star_alpha",
            "alpha": ["1/2", "1/2"],
            "factors": [PRES, {"generators": ["c", "d"], "relations": []}],
        },
    )
    code, report = invoke("omon", "--job", job)
    assert code == 0
    assert len(report["result"]["presentation"]["generators"]) == 4


def test_omon_check_lax_and_grothendieck_cli(tmp_path):
    job = write(
        tmp_path,
        "lax.json",
        {
            "op": "check_lax",
            "functor": "dist",
            "max_size": 6,
            "unit_objects": ["S1", "S2"],
            "instances": [
                {
                    "operation": {"arity": 2, "alpha": ["1/2", "1/2"]},
                    "inner": [{"alpha": ["1"]}, {"alpha": ["1/3", "2/3"]}],
                    "objects": ["S1", "S1", "S2"],
                }
            ],
        },
    )
    code, report = invoke("omon", "--job", job)
    assert code == 0 and report["result"]["ok"] is True
    job2 = write(
        tmp_path,
        "og.json",
        {
            "op": "o_grothendieck",
            "functor": "mixture",
            "carrier": ["x", "y"],
            "instances": [
                {"operation": {"arity": 2, "alpha": ["1/4", "3/4"]}, "objects": ["*", "*"]}
            ],
        },
    )
    code, report = invoke("omon", "--job", job2)
    assert code == 0 and report["result"]["ok"] is True


def test_omon_check_lax_without_inner_operations(tmp_path):
    # a missing "inner" means one unit operation per outer slot
    job = write(
        tmp_path,
        "lax.json",
        {
            "op": "check_lax",
            "functor": "dist",
            "instances": [
                {
                    "operation": {"arity": 2, "alpha": ["1/4", "3/4"]},
                    "objects": ["S1", "S2"],
                }
            ],
        },
    )
    code, report = invoke("omon", "--job", job)
    assert code == 0 and report["result"]["ok"] is True


def test_omon_trivial_structure_cli(tmp_path):
    job = write(
        tmp_path,
        "triv.json",
        {
            "op": "trivial_structure",
            "category": ARROW_CAT,
            "tensor": {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "1"},
            "unit": "0",
        },
    )
    code, report = invoke("omon", "--job", job)
    assert code == 0 and report["result"]["validated"] is True


# -- entropy -----------------------------------------------------------------------------


def test_entropy_gen_and_verify_cli(tmp_path):
    out = str(tmp_path / "corpus.json")
    code, report = invoke(
        "--seed", "5", "entropy", "gen", "--out", out, "--chains", "10",
        "--max-carrier", "8",
    )
    assert code == 0
    code, report = invoke("entropy", "verify", "--corpus", out)
    assert code == 0
    assert abs(report["result"]["fitted_c"] - 1.0) < 1e-6
    code, report = invoke(
        "entropy", "verify", "--corpus", out, "--candidate", "scaled:2"
    )
    assert code == 0
    assert abs(report["result"]["fitted_c"] - 2.0) < 1e-6


def test_entropy_custom_table_candidate(tmp_path):
    from convexion.finprob import info_loss

    corpus_path = str(tmp_path / "corpus.json")
    code, _ = invoke(
        "--seed", "6", "entropy", "gen", "--out", corpus_path, "--chains", "8",
        "--max-carrier", "6",
    )
    assert code == 0
    corpus = jsonio.decode_corpus(jsonio.load_json(corpus_path))
    chain_values = []
    for idx in range(len(corpus.chains)):
        f, g = corpus.chain_morphisms(idx)
        chain_values.append(info_loss(f.compose(g)))
    table = write(
        tmp_path,
        "table.json",
        {
            "values": [info_loss(m) for m in corpus.morphisms],
            "chain_values": chain_values,
        },
    )
    code, report = invoke(
        "entropy", "verify", "--corpus", corpus_path,
        "--candidate", f"custom-table:{table}",
    )
    assert code == 0
    assert abs(report["result"]["fitted_c"] - 1.0) < 1e-6
    assert report["result"]["convexity"]["skipped"] is True
    # a corrupted table is caught by the additivity check
    bad_values = [info_loss(m) for m in corpus.morphisms]
    bad_values[corpus.chains[0][0]] += 1.0
    bad = write(
        tmp_path, "bad.json", {"values": bad_values, "chain_values": chain_values}
    )
    code, report = invoke(
        "entropy", "verify", "--corpus", corpus_path,
        "--candidate", f"custom-table:{bad}",
    )
    assert code == 1


def test_entropy_eval_and_xi_cli(tmp_path):
    obj = write(
        tmp_path,
        "obj.json",
        {"carrier": ["a", "b"], "p": {"a": "1/2", "b": "1/2"}},
    )
    code, report = invoke("entropy", "eval", "--object", obj)
    assert code == 0
    assert abs(report["result"]["entropy_nats"] - 0.6931471805599453) < 1e-12
    xi_in = write(
        tmp_path,
        "xi.json",
        {
            "alpha": ["1/2", "1/2"],
            "dists": [
                {"weights": [{"el": "a", "w": "1"}]},
                {"weights": [{"el": "b", "w": "1"}]},
            ],
        },
    )
    code, report = invoke("entropy", "xi", "--input", xi_in)
    assert code == 0
    assert report["result"]["distribution"]["weights"] == [
        {"el": "a", "w": "1/2"},
        {"el": "b", "w": "1/2"},
    ]


def test_entropy_combine_cli(tmp_path):
    m = {
        "src": {"carrier": ["a", "b"], "p": {"a": "1/2", "b": "1/2"}},
        "tgt": {"carrier": ["c"], "p": {"c": "1"}},
        "map": {"a": "c", "b": "c"},
    }
    f = write(tmp_path, "f.json", m)
    g = write(tmp_path, "g.json", m)
    code, report = invoke("entropy", "combine", "--lambda", "1/2", "--f", f, "--g", g)
    assert code == 0
    assert len(report["result"]["morphism"]["src"]["carrier"]) == 4


# -- twist -------------------------------------------------------------------------------


def test_twist_cli_bundle_tensor(tmp_path):
    twist0 = {"maps": {"1": {"e": "0", "sv": "0"}, "2": {"s0e": "0", "s1e": "0", "ssv": "0"}}}
    twist1 = {"maps": {"1": {"e": "1", "sv": "0"}, "2": {"s0e": "0", "s1e": "1", "ssv": "0"}}}
    job = write(
        tmp_path,
        "bt.json",
        {
            "op": "bundle_tensor",
            "space": {"standard": "circle", "N": 2},
            "group": {"cyclic": 2, "N": 2},
            "twist1": twist1,
            "twist2": twist1,
        },
    )
    code, report = invoke("twist", "--job", job)
    assert code == 0
    assert report["result"]["realizes_twist_addition"] is True
    assert report["result"]["sum_twist"] == twist0


def test_twist_explicit_simplicial_tables(tmp_path):
    # a full simplicial-set JSON (the circle truncated at N=1)
    circle1 = {
        "N": 1,
        "levels": [["v"], ["e", "sv"]],
        "faces": {"1,0": {"e": "v", "sv": "v"}, "1,1": {"e": "v", "sv": "v"}},
        "degeneracies": {"0,0": {"v": "sv"}},
    }
    job = write(
        tmp_path,
        "tp1.json",
        {
            "op": "twisted_product",
            "space": circle1,
            "group": {"cyclic": 2, "N": 1},
            "twist": {"maps": {"1": {"e": "1", "sv": "0"}}},
        },
    )
    code, report = invoke("twist", "--job", job)
    assert code == 0
    assert report["result"]["levels"] == [2, 4]


def test_twist_monoid_over_the_candidate_budget_exit_two(tmp_path, monkeypatch):
    from convexion import simplicial

    def built(*args):
        raise AssertionError("a twisting-function candidate was built")

    monkeypatch.setattr(simplicial, "_choice_product", built)
    job = write(tmp_path, "tm.json", {"op": "twist_monoid", "space": CIRCLE, "group": {"cyclic": 32, "N": 2}})
    code, report = invoke("twist", "--job", job)
    assert code == 2
    assert report["error"] == (
        "twist_monoid job: InvalidInput: 33554432 candidate twisting functions exceed the budget of 65536"
    )


# A JSON Boolean where an integer is expected; Python's bool is an int, so
# each must be refused by name.
BOOLEAN_INTEGER_JOBS = [
    (
        "prop",
        {"op": "is_convex_matrix", "matrix": {"rows": True, "cols": 1, "entries": [["1"]]}},
        "matrix.rows",
    ),
    (
        "prop",
        {"op": "is_convex_matrix", "matrix": {"rows": 1, "cols": True, "entries": [["1"]]}},
        "matrix.cols",
    ),
    (
        "twist",
        {"op": "twist_monoid", "space": {"standard": "circle", "N": True}, "group": {"cyclic": 2, "N": 2}},
        "space.N",
    ),
    (
        "twist",
        {"op": "twist_monoid", "space": {"standard": "circle", "N": 2}, "group": {"cyclic": 2, "N": True}},
        "group.N",
    ),
    (
        "twist",
        {"op": "twist_monoid", "space": {"standard": "circle", "N": 2}, "group": {"cyclic": True, "N": 2}},
        "group.cyclic",
    ),
    (
        "omon",
        {"op": "check_lax", "functor": "dist", "max_size": True, "unit_objects": ["S1"], "instances": []},
        "max_size",
    ),
]


@pytest.mark.parametrize("verb, payload, path", BOOLEAN_INTEGER_JOBS, ids=[p for _, _, p in BOOLEAN_INTEGER_JOBS])
def test_boolean_is_not_an_integer(tmp_path, verb, payload, path):
    code, report = invoke(verb, "--job", write(tmp_path, "job.json", payload))
    assert code == 2 and report["error"] == f"{path}: expected a JSON integer"


def _refuse_building(monkeypatch, module, name, what):
    def built(*args, **kwargs):
        raise AssertionError(f"{what} was built")

    monkeypatch.setattr(module, name, built)


def test_tensor_over_the_generator_budget_exit_two(tmp_path, monkeypatch):
    from convexion import tensor

    _refuse_building(monkeypatch, tensor, "TensorPresentation", "a tensor")
    factors = [{"generators": [f"g{j}_{i}" for i in range(17)], "relations": []} for j in range(3)]
    code, report = invoke("tensor", "--job", write(tmp_path, "t.json", {"op": "tensor", "factors": factors}))
    assert code == 2
    assert report["error"] == "factors: a tensor of 4913 generators exceeds the budget of 4096"


@pytest.mark.parametrize("max_size", [-3, 0, 65])
def test_skeleton_size_outside_its_range_exit_two(tmp_path, monkeypatch, max_size):
    from convexion import category

    _refuse_building(monkeypatch, category, "discrete_category", "a skeleton")
    job = {"op": "check_lax", "functor": "dist", "max_size": max_size, "unit_objects": ["S1"], "instances": []}
    code, report = invoke("omon", "--job", write(tmp_path, "om.json", job))
    assert code == 2
    assert report["error"] == f"max_size: skeleton size {max_size} is not in 1..64"


@pytest.mark.parametrize("flag, value, limit", [("--chains", "1001", 1000), ("--max-carrier", "257", 256)])
def test_corpus_size_over_its_limit_exit_two(tmp_path, monkeypatch, flag, value, limit):
    from convexion import finprob

    _refuse_building(monkeypatch, finprob, "_random_object", "a corpus object")
    out = tmp_path / "c.json"
    code, report = invoke("entropy", "gen", "--out", str(out), flag, value)
    assert code == 2 and not out.exists()
    assert report["error"] == f"{flag} {value}: expected an integer <= {limit}"


def test_twist_monoid_cli(tmp_path):
    job = write(
        tmp_path,
        "tm.json",
        {
            "op": "twist_monoid",
            "space": {"standard": "circle", "N": 2},
            "group": {"cyclic": 2, "N": 2},
        },
    )
    code, report = invoke("twist", "--job", job)
    assert code == 0
    assert report["result"]["twist_count"] == 2


TWIST1 = {"maps": {"1": {"e": "1", "sv": "0"}, "2": {"s0e": "0", "s1e": "1", "ssv": "0"}}}
# the uniform family on the twisted circle, spelled out in JSON
UNIFORM = {
    "levels": {
        "0": {"v": {"weights": [{"el": "(0,v)", "w": "1/2"}, {"el": "(1,v)", "w": "1/2"}]}},
        "1": {
            "e": {"weights": [{"el": "(0,e)", "w": "1/2"}, {"el": "(1,e)", "w": "1/2"}]},
            "sv": {"weights": [{"el": "(0,sv)", "w": "1/2"}, {"el": "(1,sv)", "w": "1/2"}]},
        },
        "2": {
            "s0e": {"weights": [{"el": "(0,s0e)", "w": "1/2"}, {"el": "(1,s0e)", "w": "1/2"}]},
            "s1e": {"weights": [{"el": "(0,s1e)", "w": "1/2"}, {"el": "(1,s1e)", "w": "1/2"}]},
            "ssv": {"weights": [{"el": "(0,ssv)", "w": "1/2"}, {"el": "(1,ssv)", "w": "1/2"}]},
        },
    }
}


def test_twist_check_distribution_cli(tmp_path):
    twist1, uniform = TWIST1, UNIFORM
    job = write(
        tmp_path,
        "chk.json",
        {
            "op": "check_distribution",
            "space": {"standard": "circle", "N": 2},
            "group": {"cyclic": 2, "N": 2},
            "twist": twist1,
            "distribution": uniform,
        },
    )
    code, report = invoke("twist", "--job", job)
    assert code == 0 and report["result"]["ok"] is True
    # a deterministic family on the twisted bundle must fail
    broken = dict(uniform)
    broken["levels"] = dict(uniform["levels"])
    broken["levels"]["1"] = {
        "e": {"weights": [{"el": "(0,e)", "w": "1"}]},
        "sv": uniform["levels"]["1"]["sv"],
    }
    job2 = write(
        tmp_path,
        "chk2.json",
        {
            "op": "check_distribution",
            "space": {"standard": "circle", "N": 2},
            "group": {"cyclic": 2, "N": 2},
            "twist": twist1,
            "distribution": broken,
        },
    )
    code, report = invoke("twist", "--job", job2)
    assert code == 1 and report["ok"] is False


def test_twisted_product_and_check_cli(tmp_path):
    twist1 = {"maps": {"1": {"e": "1", "sv": "0"}, "2": {"s0e": "0", "s1e": "1", "ssv": "0"}}}
    job = write(
        tmp_path,
        "tp.json",
        {
            "op": "twisted_product",
            "space": {"standard": "circle", "N": 2},
            "group": {"cyclic": 2, "N": 2},
            "twist": twist1,
        },
    )
    code, report = invoke("twist", "--job", job)
    assert code == 0
    assert report["result"]["levels"] == [2, 4, 6]


# -- selfcheck and report plumbing ----------------------------------------------------------


def test_selfcheck_exit_zero():
    code, report = invoke("selfcheck")
    assert code == 0
    assert report["result"]["ok"] is True
    assert report["tool"]["version"]
    assert report["assumptions"]["info_loss_sign"] == "source_minus_target"


def test_reports_are_byte_identical(tmp_path):
    job = write(tmp_path, "cx.json", {"op": "counterexample"})
    _, report1 = invoke("tensor", "--job", job)
    _, report2 = invoke("tensor", "--job", job)
    assert jsonio.canonical_json(report1) == jsonio.canonical_json(report2)


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, report = invoke("dist", "--job", str(bad))
    assert code == 2
    assert "line" in report["error"]


def _run_process(*argv):
    out = subprocess.run(
        [sys.executable, "-m", "convexion", *argv],
        capture_output=True,
        text=True,
        env=ENV,
    )
    return out.returncode, json.loads(out.stdout), out.stderr


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda path: path.mkdir(), "cannot read: "),
        (lambda path: path.write_bytes(b"\xff\xfe" + '{"op": "delta"}'.encode("utf-16-le")),
         "not UTF-8 text at byte 0: invalid start byte"),
        (lambda path: path.write_text("[" * 100000 + "]" * 100000), "JSON nested too deeply to read"),
    ],
    ids=["directory", "utf16_bom", "deep_nesting"],
)
def test_unreadable_job_file_exit_two(tmp_path, make, error):
    path = tmp_path / "job.json"
    make(path)
    code, report, stderr = _run_process("dist", "--job", str(path))
    assert code == 2 and "Traceback" not in stderr
    assert report["error"].startswith(f"{path}: {error}")


def test_empty_generator_list_exit_two(tmp_path):
    job = write(
        tmp_path,
        "empty.json",
        {
            "op": "eq",
            "presentation": {"generators": []},
            "lhs": {"weights": [{"el": "a", "w": "1"}]},
            "rhs": {"weights": [{"el": "a", "w": "1"}]},
        },
    )
    code, report, stderr = _run_process("eq", "--job", job)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"] == "presentation: a presentation needs at least one generator"


def test_negative_bound_exit_two(tmp_path):
    job = write(
        tmp_path,
        "eq.json",
        {
            "op": "eq",
            "presentation": PRES,
            "lhs": {"weights": [{"el": "a", "w": "1"}]},
            "rhs": {"weights": [{"el": "b", "w": "1"}]},
        },
    )
    code, report, stderr = _run_process("--bound", "-1", "eq", "--job", job)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"] == "--bound -1: expected an integer >= 0"


@pytest.mark.parametrize("bound", [{}, "x", None, [], True, 2.5, "3", -1])
def test_non_integer_job_bound_exit_two(tmp_path, bound):
    job = write(
        tmp_path,
        "eq.json",
        {
            "op": "eq",
            "presentation": PRES,
            "lhs": {"weights": [{"el": "a", "w": "1"}]},
            "rhs": {"weights": [{"el": "b", "w": "1"}]},
            "bound": bound,
        },
    )
    code, report, stderr = _run_process("eq", "--job", job)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"] == "bound: expected a nonnegative integer"


# A pair that no support set or invariant separates and no zig-zag joins,
# so eq stays Unknown at every bound and builds its last LP: at bound
# 2**20 that LP alone would hold 3 * (2**20 + 1) rows.
FACE_DISTINCT = {
    "op": "eq",
    "presentation": {
        "generators": ["g0", "g1", "g2"],
        "relations": [
            [
                {"weights": [{"el": "g0", "w": "2/3"}, {"el": "g2", "w": "1/3"}]},
                {"weights": [{"el": "g0", "w": "1/3"}, {"el": "g1", "w": "2/3"}]},
            ],
            [
                {"weights": [{"el": "g0", "w": "1/4"}, {"el": "g1", "w": "3/4"}]},
                {"weights": [{"el": "g0", "w": "1/3"}, {"el": "g2", "w": "2/3"}]},
            ],
        ],
    },
    "lhs": {"weights": [{"el": "g1", "w": "3/5"}, {"el": "g2", "w": "2/5"}]},
    "rhs": {"weights": [{"el": "g1", "w": "1/3"}, {"el": "g2", "w": "2/3"}]},
}


@pytest.mark.parametrize(
    "argv, bound, error",
    [
        (["--bound", "1048576"], None, "--bound 1048576: expected an integer <= 256"),
        (["--bound", "257"], None, "--bound 257: expected an integer <= 256"),
        ([], 1048576, "bound: expected an integer <= 256"),
        (["--bound", "4"], 257, "bound: expected an integer <= 256"),
    ],
)
def test_bound_above_the_limit_exit_two(tmp_path, argv, bound, error):
    fields = {} if bound is None else {"bound": bound}
    job = write(tmp_path, "eq.json", {**FACE_DISTINCT, **fields})
    code, report, stderr = _run_process(*argv, "eq", "--job", job)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"] == error


def test_bound_at_the_limit_is_accepted(tmp_path):
    job = write(tmp_path, "eq.json", FACE_DISTINCT)
    code, report = invoke("--bound", "256", "eq", "--job", job)
    assert code == 0 and report["result"]["verdict"] == {"status": "unknown", "bound": 256}
    code, report = invoke("eq", "--job", write(tmp_path, "at.json", {**FACE_DISTINCT, "bound": 256}))
    assert code == 0 and report["result"]["verdict"] == {"status": "unknown", "bound": 256}


# The segment m = a/2 + b/2: one relation, so two symmetrized pairs.
SEGMENT = {
    "generators": ["a", "b", "m"],
    "relations": [
        [
            {"weights": [{"el": "m", "w": "1"}]},
            {"weights": [{"el": "a", "w": "1/2"}, {"el": "b", "w": "1/2"}]},
        ]
    ],
}
MIDPOINT = {"weights": [{"el": "m", "w": "1"}]}
HALVES = {"weights": [{"el": "a", "w": "1/2"}, {"el": "b", "w": "1/2"}]}


def _verify_job(tmp_path, verdict, lhs=MIDPOINT, rhs=HALVES):
    return write(
        tmp_path,
        "verify.json",
        {
            "op": "verify",
            "presentation": SEGMENT,
            "lhs": lhs,
            "rhs": rhs,
            "verdict": verdict,
        },
    )


@pytest.mark.parametrize(
    "verdict, where",
    [
        ({"status": "equal", "path": [{"lambdas": ["x"]}]}, "verdict.path[0].lambdas[0]:"),
        (
            {"status": "equal", "path": [{"lambdas": ["1", "0"], "spectator": []}]},
            "verdict.path[0].spectator:",
        ),
        ({"status": "equal", "path": [7]}, "verdict.path[0]:"),
        ({"status": "distinct", "invariant": {"a": "1/0"}}, "verdict.invariant['a']:"),
        ({"status": "equal", "path": {}}, "verdict.path:"),
        ({"status": "equal", "path": [{"lambdas": "10"}]}, "verdict.path[0].lambdas:"),
        ({"status": "equal", "path": [{"lambdas": ["-1", "0"]}]}, "verdict.path[0].lambdas[0]:"),
        (
            {"status": "equal", "path": [{"lambdas": ["1", "0"], "spectator": {"z": "0"}}]},
            "verdict.path[0].spectator:",
        ),
        ({"status": "equl"}, "verdict.status:"),
        # a certificate key that the status does not carry is read, not skipped
        ({"status": "distinct", "support": ["a"], "invariant": {"a": "x"}}, "verdict.invariant:"),
        ({"status": "distinct", "support": ["a"], "invariant": {"a": "1"}}, "verdict.invariant:"),
        ({"status": "unknown", "path": [{"lambdas": ["1", "0"]}]}, "verdict.path:"),
        ({"status": "distinct", "invariant": {"a": "1"}, "path": []}, "verdict.path:"),
        ({"status": "equal", "path": [], "invariant": {"a": "1"}}, "verdict.invariant:"),
        ({"status": "equal", "path": [], "support": ["a"]}, "verdict.support:"),
        ({"status": "unknown", "support": ["a"]}, "verdict.support:"),
    ],
)
def test_malformed_certificate_exit_two(tmp_path, verdict, where):
    code, report, stderr = _run_process("eq", "--job", _verify_job(tmp_path, verdict))
    assert code == 2 and "Traceback" not in stderr
    assert report["error"].startswith(where)


def test_well_formed_certificates_verify(tmp_path):
    step = {"lambdas": ["1", "0"], "spectator": {}}
    job = _verify_job(tmp_path, {"status": "equal", "path": [step]})
    code, report, _ = _run_process("eq", "--job", job)
    assert code == 0 and report["result"]["verified"] is True
    # An invariant may take negative values: -a + b is constant on m = a/2 + b/2.
    distinct = {"status": "distinct", "invariant": {"a": "-1", "b": "1"}}
    a, b = ({"weights": [{"el": g, "w": "1"}]} for g in "ab")
    code, report, _ = _run_process("eq", "--job", _verify_job(tmp_path, distinct, a, b))
    assert code == 0 and report["result"]["verified"] is True


# a ~ a/2 + b/2: a and b agree on every affine invariant, and {a} is a
# respected set that separates them.
ABSORB = {
    "generators": ["a", "b"],
    "relations": [
        [
            {"weights": [{"el": "a", "w": "1"}]},
            {"weights": [{"el": "a", "w": "1/2"}, {"el": "b", "w": "1/2"}]},
        ]
    ],
}
DELTA_A, DELTA_B = ({"weights": [{"el": g, "w": "1"}]} for g in "ab")


def test_support_certificate_replays_and_a_tampered_one_fails(tmp_path):
    job = {"op": "eq", "presentation": ABSORB, "lhs": DELTA_A, "rhs": DELTA_B}
    code, report, _ = _run_process("eq", "--job", write(tmp_path, "eq.json", job))
    verdict = report["result"]["verdict"]
    assert code == 0 and report["result"]["verified"] is True
    assert verdict == {"status": "distinct", "bound": 4, "support": ["a"]}
    job.update(op="verify", verdict=verdict)
    code, report, _ = _run_process("eq", "--job", write(tmp_path, "verify.json", job))
    assert code == 0 and report["result"]["verified"] is True
    verdict["support"] = ["b"]
    code, report, _ = _run_process("eq", "--job", write(tmp_path, "tampered.json", job))
    assert code == 1 and report["result"]["verified"] is False


@pytest.mark.parametrize(
    "support, error",
    [
        ("a", "verdict.support: expected a JSON list"),
        ({"a": "1"}, "verdict.support: expected a JSON list"),
        ([7], "verdict.support[0]: expected a JSON string"),
        (["a", None], "verdict.support[1]: expected a JSON string"),
        (["z"], "verdict.support[0]: 'z' is not a generator"),
    ],
)
def test_malformed_support_exit_two(tmp_path, support, error):
    verdict = {"status": "distinct", "support": support}
    code, report, stderr = _run_process("eq", "--job", _verify_job(tmp_path, verdict, DELTA_A, DELTA_B))
    assert code == 2 and "Traceback" not in stderr
    assert report["error"] == error


@pytest.mark.parametrize("missing", ["presentation", "lhs", "rhs", "verdict"])
def test_verify_job_missing_field_exit_two(tmp_path, missing):
    payload = {
        "op": "verify",
        "presentation": SEGMENT,
        "lhs": MIDPOINT,
        "rhs": HALVES,
        "verdict": {"status": "unknown"},
    }
    del payload[missing]
    job = write(tmp_path, "verify.json", payload)
    code, report, stderr = _run_process("eq", "--job", job)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"].startswith(f"{missing}:")


@pytest.mark.parametrize("bound", [{}, -1, "2", None, True, 1.5])
def test_verdict_bound_must_be_a_nonnegative_int(tmp_path, bound):
    verdict = {"status": "unknown", "bound": bound}
    code, report, stderr = _run_process("eq", "--job", _verify_job(tmp_path, verdict))
    assert code == 2 and "Traceback" not in stderr
    assert report["error"].startswith("verdict.bound:")


def test_verdict_bound_in_range_verifies(tmp_path):
    for bound in (0, 3):
        verdict = {"status": "unknown", "bound": bound}
        code, report, _ = _run_process("eq", "--job", _verify_job(tmp_path, verdict))
        assert code == 0 and report["result"]["verified"] is True


@pytest.mark.parametrize("element", [7, None, [], {}])
def test_delta_element_must_be_a_string(tmp_path, element):
    job = write(tmp_path, "delta.json", {"op": "delta", "element": element})
    code, report, stderr = _run_process("dist", "--job", job)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"].startswith("element:")


@pytest.mark.parametrize("el", [7, [], None, {}])
def test_weight_element_must_be_a_string(tmp_path, el):
    bad = {"weights": [{"el": "a", "w": "1/2"}, {"el": el, "w": "1/2"}]}
    job = write(tmp_path, "flat.json", {"op": "flatten", "outer": [{"weight": "1", "dist": bad}]})
    code, report, stderr = _run_process("dist", "--job", job)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"] == "outer[0].dist.weights[1].el: expected a JSON string"


# The decoder reads weight literals straight into ints; the reference
# parses each one to a payload and builds through the constructor.
DECODER_LITERALS = {
    RATIONAL: [
        "2/4", "04/8", " 1/2", "1/2 ", "+1/2", "0/3", "1/0", "-1/2", "0.5", "1e-1",
        "\u0662/\u0664", "\u0661", "1/2", "1/3", "1", "0", "x", "1/", 1, 0, None,
    ],
    BOOLEAN: ["1", "0", " 1", "0 ", "2", "x", 1, 0, 2, True, None],
}


def _outcome(build):
    try:
        return build()
    except ConvexionError as exc:
        return type(exc), str(exc)


def _reference_decode(items, semiring):
    weights = {}
    for i, (el, w) in enumerate(items):
        try:
            payload = semiring.parse(str(w))
        except ParseError as exc:
            raise ParseError(f"weights[{i}].w: {exc}") from None
        if el in weights:
            raise ParseError(f"weights[{i}].el: duplicate element {el!r} in distribution")
        weights[el] = payload
    try:
        return FiniteDistribution(weights, semiring)
    except NotNormalized as exc:
        raise ParseError(f"weights: {exc}") from None


@pytest.mark.parametrize("semiring", [RATIONAL, BOOLEAN], ids=["rational", "boolean"])
def test_decoder_integer_read_matches_the_reference(semiring):
    rng = random.Random(20261019)
    literals = DECODER_LITERALS[semiring]
    if semiring is RATIONAL:  # the literal read itself, against Fraction's parser
        for text in map(str, literals):
            try:
                value = F(text.strip())
            except (ValueError, ZeroDivisionError) as exc:
                want = ParseError, f"bad rational literal {text!r}: {exc}"
            else:
                want = value if value >= 0 else (ParseError, f"negative coefficient {text!r} is not allowed")
            assert _outcome(lambda: RATIONAL.parse(text)) == want, text
    cases = [[("a", w)] for w in literals]
    cases += [[("a", w), ("b", "1/2")] for w in literals]
    cases += [[("a", "1/2"), ("a", "1/2")], [("a", "0"), ("a", "1")], [("a", "0"), ("b", "0/3")]]
    for _ in range(1500):
        items = [(rng.choice("abc"), rng.choice(literals)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:  # top up to one where the literals allow it
            total = _outcome(lambda: sum(F(*semiring.read(str(w))) for _, w in items))
            if isinstance(total, F) and total <= 1:
                items.append((rng.choice("abcd"), str(1 - total)))
        cases.append(items)
    seen = Counter()
    for items in cases:
        payload = {"weights": [{"el": el, "w": w} for el, w in items]}
        if semiring is BOOLEAN:
            payload["semiring"] = "boolean"
        got = _outcome(lambda: jsonio.decode_distribution(payload))
        want = _outcome(lambda: _reference_decode(items, semiring))
        if isinstance(want, FiniteDistribution):
            assert isinstance(got, FiniteDistribution), (items, got)
            assert (got, repr(got), got._nums, got._den) == (want, repr(want), want._nums, want._den)
            seen["dist"] += 1
        else:
            assert got == want, items
            seen["NotNormalized" if want[1].startswith("weights: ") else want[0].__name__] += 1
    assert set(seen) == {"dist", "ParseError", "NotNormalized"} and min(seen.values()) > 50, seen


# The presentation decoder as it read every input before the canonical form
# skipped the readers: each field, list item and relation side through a
# jsonio.Job, and each side through the per-entry distribution decoder.
def _reference_decode_distribution(payload):
    job = jsonio._reader(payload)
    semiring = jsonio.semiring_of(job)
    weights = job["weights"]
    ratios = {}
    for i, entry in enumerate(weights.expect(list)):
        if (
            isinstance(entry, dict)
            and isinstance(el := entry.get("el"), str)
            and "w" in entry
            and el not in ratios
        ):
            try:
                ratios[el] = semiring.read(str(entry["w"]))
                continue
            except ParseError:
                pass
        item = jsonio.Job(entry, i, weights)
        el = item.typed("el", str)
        item["w"].literal(semiring)
        raise item["el"].error(f"duplicate element {el!r} in distribution")
    try:
        return FiniteDistribution._from_numerators(
            *distribution_mod._common_denominator(ratios, semiring), semiring
        )
    except ConvexionError as exc:
        raise weights.error(str(exc)) from None


def _reference_decode_presentation(payload):
    job = jsonio._reader(payload)
    gens = job["generators"].names()
    relations = []
    for pair in job.get("relations", []).items():
        sides = pair.items()
        if len(sides) != 2:
            raise pair.error("expected a pair of distributions")
        relations.append(
            (_reference_decode_distribution(sides[0]), _reference_decode_distribution(sides[1]))
        )
    return job.build(presentation_mod.Presentation, gens, relations)


def _random_dist(rng, gens):
    support = rng.sample(gens, rng.randint(1, len(gens)))
    parts = {g: rng.randint(1, 3) for g in support}
    return FiniteDistribution({g: F(n, sum(parts.values())) for g, n in parts.items()})


def _random_presentation_json(rng):
    """An eq-fuzz-shaped presentation in canonical JSON: 1-4 generators,
    0-2 relations."""
    gens = [f"g{i}" for i in range(rng.randint(1, 4))]
    relations = [(_random_dist(rng, gens), _random_dist(rng, gens)) for _ in range(rng.randint(0, 2))]
    return gens, jsonio.encode_presentation(presentation_mod.Presentation(gens, relations))


def _json_nodes(value, path=()):
    """(path, value) for value and every value inside it; a path is the
    keys and list indices from the root."""
    yield path, value
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _json_nodes(inner, path + (key,))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from _json_nodes(inner, path + (i,))


def _with_node(value, path, mutation):
    """A copy of value whose node at path is removed or set to mutation."""
    if not path:
        return mutation
    out = json.loads(json.dumps(value))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "remove":
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation
    return out


def _any_outcome(decode):
    try:
        return decode()
    except Exception as exc:  # an escape must match the reference's too
        return type(exc), str(exc)


def test_presentation_decoder_matches_the_reference():
    rng = random.Random(20261021)
    bases = []
    for _ in range(30):
        gens, pres = _random_presentation_json(rng)
        bases.append(pres)
        sides = [side for pair in pres["relations"] for side in pair]
        if sides:  # numeric weight literals and an explicit semiring field
            numeric = json.loads(json.dumps(pres))
            side = rng.choice([side for pair in numeric["relations"] for side in pair])
            side["weights"] = [{"el": gens[0], "w": 1}] + [{"el": g, "w": 0} for g in gens[1:]]
            bases.append(numeric)
            for name in ("rational", "boolean", "x", 7):
                named = json.loads(json.dumps(pres))
                rng.choice([side for pair in named["relations"] for side in pair])["semiring"] = name
                bases.append(named)
    seen = Counter()
    for base in bases:
        for path, _ in list(_json_nodes(base)):
            for mutation in MUTATIONS:
                if mutation == "remove" and not path:
                    continue
                payload = _with_node(base, path, mutation)
                for wrap in (lambda p: p, lambda p: jsonio.Job({"presentation": p}, "eq")["presentation"]):
                    got = _any_outcome(lambda: jsonio.decode_presentation(wrap(payload)))
                    want = _any_outcome(lambda: _reference_decode_presentation(wrap(payload)))
                    if isinstance(want, presentation_mod.Presentation):
                        assert isinstance(got, presentation_mod.Presentation), (payload, got)
                        assert got.generators == want.generators, payload
                        assert [(p.semiring, p._nums, p._den) for pair in got.relations for p in pair] == [
                            (p.semiring, p._nums, p._den) for pair in want.relations for p in pair
                        ], payload
                        seen["presentation"] += 1
                    else:
                        assert got == want, payload
                        seen[want[0].__name__] += 1
    assert set(seen) == {"presentation", "ParseError"} and min(seen.values()) > 500, seen


def test_the_canonical_form_builds_no_reader(monkeypatch):
    rng = random.Random(17)
    payloads = []
    for _ in range(200):
        gens, pres = _random_presentation_json(rng)
        lhs, rhs = (jsonio.encode_distribution(_random_dist(rng, gens)) for _ in range(2))
        payloads.append((pres, lhs, rhs))
    readers = []
    init = jsonio.Job.__init__

    def counting_init(self, *args, **kwargs):
        readers.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(jsonio.Job, "__init__", counting_init)
    statuses = Counter()
    for pres_json, lhs_json, rhs_json in payloads:
        pres = jsonio.decode_presentation(pres_json)
        lhs, rhs = (jsonio.decode_element(side, pres) for side in (lhs_json, rhs_json))
        verdict = presentation_mod.eq(lhs, rhs, 3)
        statuses[json.loads(jsonio.canonical_json(jsonio.encode_verdict(verdict, pres)))["status"]] += 1
    # well-formed input beside the canonical form: numeric weight literals,
    # an explicit "semiring" field or argument, no "relations" field
    for pres_json, lhs_json, _ in payloads[:50]:
        gens = pres_json["generators"]
        numeric = {"weights": [{"el": gens[0], "w": 1}] + [{"el": g, "w": 0} for g in gens[1:]]}
        free = jsonio.decode_presentation({"generators": gens})
        assert free == presentation_mod.Presentation.free(gens)
        assert jsonio.decode_element(numeric, free) == free.delta(gens[0])
        named = {**lhs_json, "semiring": "rational"}
        assert jsonio.decode_distribution(named) == jsonio.decode_distribution(lhs_json, RATIONAL)
        glued = jsonio.decode_presentation({"generators": gens, "relations": [[numeric, named]]})
        assert len(glued.relations) == 1
        every = {"weights": [{"el": g, "w": "1"} for g in gens], "semiring": "boolean"}
        assert jsonio.decode_distribution(every).semiring is BOOLEAN
    assert readers == []
    assert statuses["equal"] and statuses["distinct"], statuses
    with pytest.raises(ParseError):  # the count sees the readers of other input
        jsonio.decode_distribution({"weights": [{"el": "a", "w": 1}, {"el": "a", "w": 0}]})
    assert readers


# One job per verb, each without a field its handler reads unconditionally.
MISSING_FIELD_JOBS = [
    ("dist", {"op": "flatten"}, "outer"),
    ("eq", {"op": "eq", "lhs": MIDPOINT, "rhs": HALVES}, "presentation"),
    ("join", {"op": "join_mix", "x_presentation": PRES, "y_presentation": PRES, "points": []}, "beta"),
    ("tensor", {"op": "coherence", "factors": [PRES]}, "kind"),
    ("prop", {"op": "compose", "left": {"rows": 1, "cols": 1, "entries": [["1"]]}}, "right"),
    ("groth", {"op": "grothendieck"}, "category"),
    ("omon", {"op": "star_alpha", "alpha": ["1"]}, "factors"),
    ("twist", {"op": "twisted_product"}, "space"),
]


@pytest.mark.parametrize("verb, payload, missing", MISSING_FIELD_JOBS)
def test_missing_job_field_exit_two(tmp_path, verb, payload, missing):
    job = write(tmp_path, "job.json", payload)
    code, report, stderr = _run_process(verb, "--job", job)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"] == f"{missing}: missing from the {payload['op']} job"


DELTA_A = {"weights": [{"el": "a", "w": "1"}]}
DELTA_I = {"weights": [{"el": "i", "w": "1"}]}


def bridge_job(composition):
    """A tensor enriched_bridge job on one object o whose hom is free on i."""
    return {
        "op": "enriched_bridge",
        "objects": ["o"],
        "hom": {"o,o": {"generators": ["i"], "relations": []}},
        "identities": {"o": DELTA_I},
        "composition": composition,
    }


BRIDGE_ROW = {"pair": ["i", "i"], "value": DELTA_I}
TWIST_JOB = {"op": "twisted_product", "twist": {"maps": {"1": {"e": "1", "sv": "0"}}}}
LAX_INSTANCE = {"operation": {"arity": 2, "alpha": ["1/4", "3/4"]}, "objects": ["S1", "S2"]}
# the trivial group, as explicit tables at levels 0 and 1
Z1 = {"elements": ["0"], "add": [["0", "0", "0"]], "zero": "0", "neg": {"0": "0"}}
GROUP_1 = {"N": 1, "groups": [Z1, Z1], "faces": {"1,0": {"0": "0"}, "1,1": {"0": "0"}}, "degeneracies": {"0,0": {"0": "0"}}}

# A wrong-typed or missing field in each job, the argv it runs with, and
# the error naming it.
WRONG_FIELD_JOBS = [
    (
        ["dist"],
        {"op": "pushforward", "map": "x", "dist": DIST},
        "map: expected a JSON object",
    ),
    (
        ["entropy", "eval"],
        {"carrier": ["a", "b"], "p": None},
        "p: expected a JSON object",
    ),
    (
        ["entropy", "eval"],
        {"carrier": ["a", "b"], "p": []},
        "p: expected a JSON object",
    ),
    (
        ["join"],
        {
            "op": "copair",
            "x_presentation": PRES,
            "y_presentation": PRES,
            "target": PRES,
            "f": None,
            "g": {"a": DELTA_A, "b": DELTA_A},
            "point": {"alpha": "1", "x": DELTA_A, "y": None},
        },
        "f: expected a JSON object",
    ),
    (
        ["omon"],
        {"op": "check_lax", "functor": "dist", "instances": "x"},
        "instances: expected a JSON list",
    ),
    (
        ["omon"],
        {"op": "check_lax", "functor": "dist", "unit_objects": {}, "instances": [LAX_INSTANCE]},
        "unit_objects: expected a JSON list",
    ),
    (
        ["omon"],
        {"op": "star_alpha", "alpha": ["1/2", "1/2"], "factors": 7},
        "factors: expected a JSON list",
    ),
    (
        ["tensor"],
        {"op": "coherence", "kind": "braiding", "factors": 7},
        "factors: expected a JSON list",
    ),
    (
        ["tensor"],
        {"op": "universal_map", "factors": [PRES, PRES], "elements": 7},
        "elements: expected a JSON list",
    ),
    (
        ["dist"],
        {"op": "flatten", "outer": [{"weight": "1"}]},
        "outer[0].dist: missing from the flatten job",
    ),
    (
        ["omon"],
        {"op": "check_lax", "functor": "dist", "max_size": "x", "instances": [LAX_INSTANCE]},
        "max_size: expected a JSON integer",
    ),
    (
        ["twist"],
        {"op": "twisted_product", "space": {"standard": "circle"}, "group": None, "twist": {}},
        "group: expected a JSON object",
    ),
    (
        ["omon"],
        {"op": "o_grothendieck", "functor": "mixture", "carrier": 7},
        "carrier: expected a JSON list",
    ),
    (
        ["dist"],
        {"op": "delta", "element": "a", "semiring": []},
        "semiring: expected a JSON string",
    ),
    (
        ["tensor"],
        bridge_job({"o,o": [BRIDGE_ROW]}),
        "composition['o,o']: expected a key 'a,b,c' naming three objects",
    ),
    (
        ["tensor"],
        bridge_job({"o,o,p": [BRIDGE_ROW]}),
        "composition['o,o,p']: hom has no entry 'o,p'",
    ),
    (
        ["tensor"],
        {**bridge_job({"o,o,o": [BRIDGE_ROW]}), "identities": {"p": DELTA_I}},
        "identities['p']: hom has no entry 'p,p'",
    ),
    (
        ["tensor"],
        bridge_job({"o,o,o": 7}),
        "composition['o,o,o']: expected a JSON list",
    ),
    (
        ["tensor"],
        bridge_job({"o,o,o": [{"value": DELTA_I}]}),
        "composition['o,o,o'][0].pair: missing from the enriched_bridge job",
    ),
    (
        ["tensor"],
        bridge_job({"o,o,o": [BRIDGE_ROW, {"pair": ["i"], "value": DELTA_I}]}),
        "composition['o,o,o'][1].pair: expected two generator names",
    ),
    (
        ["twist"],
        {**TWIST_JOB, "space": {"standard": "circle", "N": 1}, "group": {"cyclic": "x", "N": 1}},
        "group.cyclic: expected a JSON integer",
    ),
    (
        ["twist"],
        {**TWIST_JOB, "space": {"standard": "circle", "N": "x"}, "group": {"cyclic": 2, "N": 1}},
        "space.N: expected a JSON integer",
    ),
    (
        ["dist"],
        {"op": "pushforward", "map": {"a": [], "b": "a"}, "dist": DIST},
        "map['a']: expected a JSON string",
    ),
    (
        ["tensor"],
        {**bridge_job({"o,o,o": [BRIDGE_ROW]}), "hom": {"o": {"generators": ["i"]}}},
        "hom['o']: expected a key 'a,b' naming two objects",
    ),
    (
        ["tensor"],
        {
            **bridge_job({"o,p,o": [BRIDGE_ROW]}),
            "objects": ["o", "p"],
            "hom": {k: {"generators": ["i"]} for k in ("o,o", "o,p", "p,p")},
            "identities": {"o": DELTA_I, "p": DELTA_I},
        },
        "composition['o,p,o']: hom has no entry 'p,o'",
    ),
    (
        ["tensor"],
        {**bridge_job({"o,o,o": [BRIDGE_ROW]}), "identities": {"o": DELTA_I, "q": DELTA_I}},
        "identities['q']: hom has no entry 'q,q'",
    ),
    (
        ["tensor"],
        {**bridge_job({"o,o,o": [BRIDGE_ROW]}), "identities": {}},
        "identities: object 'o' has no identity",
    ),
    (
        ["twist"],
        {**TWIST_JOB, "space": {"standard": "circle", "N": 1}, "group": {**GROUP_1, "groups": 7}},
        "group.groups: expected a JSON list",
    ),
    (
        ["twist"],
        {**TWIST_JOB, "space": {"standard": "circle", "N": 1}, "group": {**GROUP_1, "groups": [{**Z1, "neg": 5}]}},
        "group.groups[0].neg: expected a JSON object",
    ),
    (
        ["twist"],
        {**TWIST_JOB, "space": {"standard": "circle", "N": 1}, "group": {**GROUP_1, "groups": [{**Z1, "add": [["0", "0"]]}]}},
        "group.groups[0].add[0]: expected a list of three names",
    ),
    (
        ["eq"],
        {"op": "eq", "presentation": {"generators": ["a"], "relations": 7}, "lhs": DELTA_A, "rhs": DELTA_A},
        "presentation.relations: expected a JSON list",
    ),
    (
        ["eq"],
        {"op": "eq", "presentation": {"generators": 7}, "lhs": DELTA_A, "rhs": DELTA_A},
        "presentation.generators: expected a JSON list",
    ),
    (
        ["prop"],
        {"op": "is_convex_matrix", "matrix": {"rows": 1, "cols": 1, "entries": 7}},
        "matrix.entries: expected a JSON list",
    ),
    (
        ["groth"],
        {"op": "grothendieck", "category": {**ARROW_CAT, "morphisms": 7}, "functor": {}},
        "category.morphisms: expected a JSON list",
    ),
]


@pytest.mark.parametrize(
    "argv, payload, error",
    WRONG_FIELD_JOBS,
    ids=[f"{' '.join(argv)} {error.split(':')[0]}" for argv, _, error in WRONG_FIELD_JOBS],
)
def test_wrong_job_field_exit_two(tmp_path, argv, payload, error):
    path = write(tmp_path, "job.json", payload)
    flag = "--object" if argv[0] == "entropy" else "--job"
    code, report, stderr = _run_process(*argv, flag, path)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"] == error


def test_enriched_bridge_cli(tmp_path):
    job = write(tmp_path, "job.json", bridge_job({"o,o,o": [BRIDGE_ROW]}))
    code, report = invoke("tensor", "--job", job)
    assert code == 0
    assert report["result"] == {"round_trip": True}


def test_missing_xi_field_exit_two(tmp_path):
    payload = write(tmp_path, "xi.json", {"dists": [DIST]})
    code, report, stderr = _run_process("entropy", "xi", "--input", payload)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"] == "alpha: missing from the xi job"


@pytest.mark.parametrize("payload", [[1], "op", 7, None])
def test_job_file_must_be_an_object(tmp_path, payload):
    job = write(tmp_path, "job.json", payload)
    code, report, stderr = _run_process("dist", "--job", job)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"].endswith("job file has no 'op' field")


def test_check_failure_exit_one(tmp_path):
    pres = write(tmp_path, "p.json", PRES)
    job = write(
        tmp_path,
        "verify.json",
        {
            "op": "verify",
            "presentation": PRES,
            "lhs": {"weights": [{"el": "a", "w": "1"}]},
            "rhs": {"weights": [{"el": "b", "w": "1"}]},
            "verdict": {"status": "equal", "bound": 0, "path": []},
        },
    )
    code, report = invoke("eq", "--job", job)
    assert code == 1
    assert report["ok"] is False


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "convexion", "selfcheck"],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["result"]["ok"] is True


def test_report_written_to_path(tmp_path):
    report_path = tmp_path / "report.json"
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "convexion",
            "--report",
            str(report_path),
            "selfcheck",
        ],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert out.returncode == 0
    payload = json.loads(report_path.read_text())
    assert payload["verb"] == "selfcheck"


def test_unwritable_report_path_exit_two(tmp_path):
    report_path = tmp_path / "missing" / "r.json"
    out = subprocess.run(
        [sys.executable, "-m", "convexion", "--report", str(report_path), "selfcheck"],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == (
        f"convexion: --report {report_path}: cannot write: No such file or directory\n"
    )


def test_unwritable_out_path_exit_two(tmp_path):
    out_path = tmp_path / "missing" / "x.json"
    code, report, stderr = _run_process("entropy", "gen", "--out", str(out_path))
    assert code == 2 and stderr == ""
    assert report["error"] == f"--out {out_path}: cannot write: No such file or directory"


# -- one sample per operation ------------------------------------------------------------------

DELTA_B = {"weights": [{"el": "b", "w": "1"}]}
DELTA_C = {"weights": [{"el": "c", "w": "1"}]}
DELTA_U = {"weights": [{"el": "u", "w": "1"}]}
C_PRES = {"generators": ["c"], "relations": []}
CD_PRES = {"generators": ["c", "d"], "relations": []}
X_AND_Y = {"x_presentation": PRES, "y_presentation": {"generators": ["u"], "relations": []}}
MATRIX = {"rows": 2, "cols": 2, "entries": [["1/2", "1/2"], ["0", "1"]]}
ARROW_IDENTITY = {
    "category": ARROW_CAT,
    "total": ARROW_CAT,
    "object_projection": {"0": "0", "1": "1"},
    "morphism_projection": {"id0": "id0", "id1": "id1", "f": "f"},
}
CIRCLE = {"standard": "circle", "N": 2}
Z2 = {"cyclic": 2, "N": 2}
PROB_AB = {"carrier": ["a", "b"], "p": {"a": "1/3", "b": "2/3"}}
PROB_C = {"carrier": ["c"], "p": {"c": "1"}}
COLLAPSE = {"src": PROB_AB, "tgt": PROB_C, "map": {"a": "c", "b": "c"}}
RENAME = {"src": PROB_C, "tgt": {"carrier": ["d"], "p": {"d": "1"}}, "map": {"c": "d"}}

# One well-formed input per (verb, op) of cli.OPS.  A dict is the job file of
# its verb; a tuple is the argv, each dict in it written to a file and
# "{tmp}" replaced by the test's temporary directory.
SAMPLE_JOBS = {
    ("dist", "delta"): {"op": "delta", "element": "a"},
    ("dist", "pushforward"): {"op": "pushforward", "map": {"a": "b", "b": "a"}, "dist": DIST},
    ("dist", "flatten"): {
        "op": "flatten",
        "outer": [{"weight": "1/2", "dist": DIST}, {"weight": "1/2", "dist": DELTA_A}],
    },
    ("dist", "convex_combine"): {
        "op": "convex_combine", "alpha": ["1/3", "2/3"], "dists": [DIST, DELTA_B],
    },
    ("eq", "eq"): {"op": "eq", "presentation": SEGMENT, "lhs": MIDPOINT, "rhs": HALVES},
    ("eq", "quotient_mix"): {
        "op": "quotient_mix",
        "presentation": SEGMENT,
        "alpha": ["1/2", "1/2"],
        "elements": [DELTA_A, DELTA_B],
    },
    ("eq", "induce_map"): {
        "op": "induce_map",
        "source": SEGMENT,
        "target": PRES,
        "assignment": {"a": DELTA_A, "b": DELTA_B, "m": DIST},
        "apply_to": MIDPOINT,
    },
    ("eq", "hom_combine"): {
        "op": "hom_combine",
        "source": PRES,
        "target": PRES,
        "alpha": ["1/4", "3/4"],
        "assignments": [{"a": DELTA_A, "b": DELTA_B}, {"a": DELTA_B, "b": DELTA_A}],
        "apply_to": DELTA_A,
    },
    ("eq", "verify"): {
        "op": "verify",
        "presentation": SEGMENT,
        "lhs": MIDPOINT,
        "rhs": HALVES,
        "verdict": {"status": "equal", "path": [{"lambdas": ["1", "0"], "spectator": {}}]},
    },
    ("join", "join_point"): {
        "op": "join_point", **X_AND_Y, "point": {"alpha": "1/3", "x": DIST, "y": DELTA_U},
    },
    ("join", "join_mix"): {
        "op": "join_mix",
        **X_AND_Y,
        "beta": ["1/2", "1/2"],
        "points": [
            {"alpha": "1", "x": DELTA_A, "y": None},
            {"alpha": "0", "x": None, "y": DELTA_U},
        ],
    },
    ("join", "copair"): {
        "op": "copair",
        **X_AND_Y,
        "target": {"generators": ["z0", "z1"], "relations": []},
        "f": {
            "a": {"weights": [{"el": "z0", "w": "1"}]},
            "b": {"weights": [{"el": "z1", "w": "1"}]},
        },
        "g": {"u": {"weights": [{"el": "z1", "w": "1"}]}},
        "point": {"alpha": "1/2", "x": DELTA_A, "y": DELTA_U},
    },
    ("tensor", "tensor"): {"op": "tensor", "factors": [PRES, C_PRES]},
    ("tensor", "universal_map"): {
        "op": "universal_map", "factors": [PRES, C_PRES], "elements": [DIST, DELTA_C],
    },
    ("tensor", "extend_multiconvex"): {
        "op": "extend_multiconvex",
        "spec": {
            "factors": [PRES, C_PRES],
            "target": PRES,
            "table": [
                {"tuple": ["a", "c"], "value": DELTA_A},
                {"tuple": ["b", "c"], "value": DIST},
            ],
        },
        "elements": [DIST, DELTA_C],
    },
    ("tensor", "coherence"): {"op": "coherence", "kind": "braiding", "factors": [PRES, CD_PRES]},
    ("tensor", "counterexample"): {"op": "counterexample"},
    ("tensor", "enriched_bridge"): bridge_job({"o,o,o": [BRIDGE_ROW]}),
    ("prop", "is_convex_matrix"): {"op": "is_convex_matrix", "matrix": MATRIX},
    ("prop", "compose"): {"op": "compose", "left": MATRIX, "right": MATRIX},
    ("prop", "direct_sum"): {
        "op": "direct_sum", "left": MATRIX, "right": {"rows": 1, "cols": 1, "entries": [["1"]]},
    },
    ("prop", "permute"): {"op": "permute", "tau": [1, 0], "matrix": MATRIX, "sigma": [1, 0]},
    ("prop", "qconv_compose"): {
        "op": "qconv_compose",
        "outer": {"alpha": ["1/2", "1/2"]},
        "inner": [{"alpha": ["1"]}, {"alpha": ["1/3", "2/3"]}],
    },
    ("prop", "algebra_apply"): {
        "op": "algebra_apply",
        "presentation": PRES,
        "matrix": {"rows": 2, "cols": 1, "entries": [["1"], ["1"]]},
        "elements": [DIST],
    },
    ("groth", "grothendieck"): {
        "op": "grothendieck",
        "category": ARROW_CAT,
        "functor": {
            "on_objects": {"0": ["x", "y"], "1": ["z"]},
            "on_morphisms": {
                "id0": {"x": "x", "y": "y"}, "id1": {"z": "z"}, "f": {"x": "z", "y": "z"},
            },
        },
    },
    ("groth", "is_discrete_fibration"): {"op": "is_discrete_fibration", **ARROW_IDENTITY},
    ("groth", "extract_functor"): {"op": "extract_functor", **ARROW_IDENTITY},
    ("groth", "convex_grothendieck"): {
        "op": "convex_grothendieck",
        "category": ARROW_CAT,
        "functor": {
            "on_objects": {"0": PRES, "1": {"generators": ["u", "v"], "relations": []}},
            "on_morphisms": {
                "id0": {"a": DELTA_A, "b": DELTA_B},
                "id1": {"u": DELTA_U, "v": {"weights": [{"el": "v", "w": "1"}]}},
                "f": {"a": DELTA_U, "b": {"weights": [{"el": "u", "w": "1/2"}, {"el": "v", "w": "1/2"}]}},
            },
        },
        "samples": [{"morphism": "f", "alpha": ["1/3", "2/3"], "elements": [DELTA_A, DELTA_B]}],
    },
    ("omon", "star_alpha"): {"op": "star_alpha", "alpha": ["1/2", "1/2"], "factors": [PRES, CD_PRES]},
    ("omon", "trivial_structure"): {
        "op": "trivial_structure",
        "category": ARROW_CAT,
        "tensor": {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "1"},
        "unit": "0",
    },
    ("omon", "check_lax"): {
        "op": "check_lax",
        "functor": "dist",
        "max_size": 6,
        "unit_objects": ["S1", "S2"],
        "instances": [
            {
                "operation": {"arity": 2, "alpha": ["1/2", "1/2"]},
                "inner": [{"alpha": ["1"]}, {"alpha": ["1/3", "2/3"]}],
                "objects": ["S1", "S1", "S2"],
            }
        ],
    },
    ("omon", "o_grothendieck"): {
        "op": "o_grothendieck",
        "functor": "mixture",
        "carrier": ["x", "y"],
        "instances": [{"operation": {"arity": 2, "alpha": ["1/4", "3/4"]}, "objects": ["*", "*"]}],
    },
    ("twist", "twisted_product"): {"op": "twisted_product", "space": CIRCLE, "group": Z2, "twist": TWIST1},
    ("twist", "check_distribution"): {
        "op": "check_distribution", "space": CIRCLE, "group": Z2, "twist": TWIST1, "distribution": UNIFORM,
    },
    ("twist", "bundle_tensor"): {
        "op": "bundle_tensor", "space": CIRCLE, "group": Z2, "twist1": TWIST1, "twist2": TWIST1,
    },
    ("twist", "mu_product"): {
        "op": "mu_product",
        "space": CIRCLE,
        "group": Z2,
        "twist1": TWIST1,
        "twist2": TWIST1,
        "p": UNIFORM,
        "q": UNIFORM,
    },
    ("twist", "twist_monoid"): {"op": "twist_monoid", "space": CIRCLE, "group": Z2},
    ("entropy", "gen"): (
        "entropy", "gen", "--out", "{tmp}/corpus.json", "--chains", "2", "--max-carrier", "3",
    ),
    ("entropy", "verify"): (
        "entropy", "verify", "--corpus", {"morphisms": [COLLAPSE, RENAME], "chains": [[1, 0]]},
    ),
    ("entropy", "eval"): ("entropy", "eval", "--object", PROB_AB),
    ("entropy", "combine"): ("entropy", "combine", "--lambda", "1/4", "--f", COLLAPSE, "--g", RENAME),
    ("entropy", "xi"): ("entropy", "xi", "--input", {"alpha": ["1/4", "3/4"], "dists": [DIST, DELTA_C]}),
    ("selfcheck", "selfcheck"): ("selfcheck",),
}


def sample_argv(tmp_path, key, sample=None):
    """The argv that runs SAMPLE_JOBS[key], or sample in its place."""
    sample = SAMPLE_JOBS[key] if sample is None else sample
    if isinstance(sample, dict):
        sample = (key[0], "--job", sample)
    return [
        write(tmp_path, f"arg{i}.json", arg) if isinstance(arg, dict) else arg.format(tmp=tmp_path)
        for i, arg in enumerate(sample)
    ]


def sample_digest(tmp_path, key):
    """The exit code and the sha256 of the canonical report of SAMPLE_JOBS[key];
    the temporary directory reads "{tmp}" in the report."""
    code, report = invoke(*sample_argv(tmp_path, key))
    text = jsonio.canonical_json(report).replace(str(tmp_path), "{tmp}")
    return code, hashlib.sha256(text.encode()).hexdigest()


# sha256 of each sample's canonical report and its exit code, as the
# command line wrote them before the operations moved into one table
# (cli.OPS).  Only ("entropy", "gen") names a temporary path (its
# "written" field), which sample_digest writes as "{tmp}".
SAMPLE_DIGESTS = {
    ('dist', 'delta'): (0, '3dc0b772bc4cb639ea578e11e3e87de5c187a6a677473b613315756a17aea3c5'),
    ('dist', 'pushforward'): (0, 'b1759f7c3d82d0b89825c98845dac77285d998ed0f681b5d931b7aa1c36d8351'),
    ('dist', 'flatten'): (0, '90942c0f19a464b8e46da7187d75319f7cd8e55f5d1e2c6a2c65b766d3c34d06'),
    ('dist', 'convex_combine'): (0, 'f9c9c7870f23613ff30b1939ae7eb320f053ccc8b5dd54f17627002be0e4b839'),
    ('eq', 'eq'): (0, '0100540c2c6a201221f69468c13a9e85d87810e6c8349bf4b1ec02e566b6db35'),
    ('eq', 'quotient_mix'): (0, '1d4c73cf79e0693874c504484821e0ab8f6144080fed105e91e9ef3eb0544371'),
    ('eq', 'induce_map'): (0, '8cbf7b559e02c29cae280585a6411aa0d4c7414a930066f42a6393a591b717a1'),
    ('eq', 'hom_combine'): (0, '4058b550833fa9f9cd950467da82807c1eec06694ad178162627679a11bea8c4'),
    ('eq', 'verify'): (0, 'ebc599965fed5cb9f011dd58be74d265266b071e063d6cf0b20c4a235527c691'),
    ('join', 'join_point'): (0, '1be42d7afc48c09e45afb8c5f34459a333412e888c6c80ed22e18dcc4e9814db'),
    ('join', 'join_mix'): (0, '3db77f2b0a4c05722c07e00d4cc06608c9dc1768bb966280c4d3897b5b07d5f6'),
    ('join', 'copair'): (0, 'e80e029578e46ea55931ee8a26356014322083ca800817aae44446de9747b271'),
    ('tensor', 'tensor'): (0, 'fceacd0cc1ccca8b57ac476f029cb7f30fe87e4dc061210a5838fc37301239d0'),
    ('tensor', 'universal_map'): (0, 'a1460b47d66da9c39d1d6e9e2b94acaadd3bc7a3892ace91956b1b03df23e4e0'),
    ('tensor', 'extend_multiconvex'): (0, '77ac59e240aec7996fbef206fed2a27ad5e5923a35a16fa4cec4bdc2c8309da0'),
    ('tensor', 'coherence'): (0, '92f9c7291dee98b4b3d6ed9d6aed4a2da5f62ca2092d9263581f8bf3538aab6a'),
    ('tensor', 'counterexample'): (0, '7e23021529cd5671db814778ad8689ef9c5908447d194f67b29e8f732377ad7b'),
    ('tensor', 'enriched_bridge'): (0, 'df75e2be42ef7be422bb584701cf0ce0a122ee5d29728eb16b0c978601d2465d'),
    ('prop', 'is_convex_matrix'): (0, 'd1f7d62d6097ad392e18d4743b7fa1e96ee3cfce5a46a616b1f72685cbd02f70'),
    ('prop', 'compose'): (0, '9d2d88824b01eb04aa5c29706aef909a3894caceeaf2fc3526185db66cc87e30'),
    ('prop', 'direct_sum'): (0, '0d4cb254b53a6b57b2864e5e8f69ac3d3eef1bba3258389bd1bf86d3dd5d3d90'),
    ('prop', 'permute'): (0, 'cb3298fe1af0ac6600201c97b62303eb9ba2114440837f54fd6db9e6a5cdeb4d'),
    ('prop', 'qconv_compose'): (0, 'd6aaeaeec2b8c1d6bfe797c2cf4544e13b657a830b6fa3a9ebc6f5d1bc10bae7'),
    ('prop', 'algebra_apply'): (0, '00863727ff691d3bd4573327328f99f08a642e190b6cfc180d8266f00355f350'),
    ('groth', 'grothendieck'): (0, 'ad504601516ad57793b4849200c966e69a793e7243983173da7afa7082c9d439'),
    ('groth', 'is_discrete_fibration'): (0, '6019aac0e7b79d0f57cef69765519010b1724ab567067d145172896d3e5cbef7'),
    ('groth', 'extract_functor'): (0, '4b79351ac0c2c385d5c55145109072c9047b12ecfc49cc90d1a11a116f7d74f1'),
    ('groth', 'convex_grothendieck'): (0, 'd5eda38e83bf9f8f65c0a7261aafbb1bda916257230d91805fd0e1d7f9aaf880'),
    ('omon', 'star_alpha'): (0, 'bb22551d3d1344c7c70cf06b2c5d5b69736b0e15fae7f1c49ec1fd2c6412bcc6'),
    ('omon', 'trivial_structure'): (0, 'bc3a2735a60ad0965a77a2d0409223b6b84cb3e07e136dc65d739eb97091090d'),
    ('omon', 'check_lax'): (0, '0817c7a51125bf21ca3fe742630478f39920e10d94c3fcfdfc5a8c782bd88714'),
    ('omon', 'o_grothendieck'): (0, '0c6d4393f95d38e262de4520c366dfbfa5c662db0f42251bc44f7f5f288e678f'),
    ('twist', 'twisted_product'): (0, '62d5b1bc3df89fad4bc1cd46febdde2736c543af7e8f6c2813c5c444252cebe9'),
    ('twist', 'check_distribution'): (0, 'd323b4dd78f35db3565363afac5bb133c199fff001a7ec66a65cb782a027135d'),
    ('twist', 'bundle_tensor'): (0, '6b5d3b08bbea81813e52d1a0583ee595f05619ac85def81f27249ab339ef1e80'),
    ('twist', 'mu_product'): (0, 'e2a99a14be690dc0a5f4fb23ad0119ccdb39c82ec2695de2c27f0030a9c7e77d'),
    ('twist', 'twist_monoid'): (0, '20c80950686177d6f2f8e03e9dd0030488f964d94babfe781ce6859dd3f4b0c9'),
    ('entropy', 'gen'): (0, '052849f39b0fe55832c7c0e82617b2805bafafe27fe45705f3a869c4b9247b2e'),
    ('entropy', 'verify'): (0, 'ab7200a6b7433c6db71015b7d60ec4ca8cec8593cbfbc02837433498d5ea0dc7'),
    ('entropy', 'eval'): (0, 'da0eee1257864c8497dcc7ec0af79eecc8b25db663f6a56f92acf2ec5354189b'),
    ('entropy', 'combine'): (0, 'a21d5e8c5af2c931e3ece3777d93a1818c744737227c610814940f14f7debc9e'),
    ('entropy', 'xi'): (0, 'bd94c56682d9a602b296006d62ba1aa8c78b5de7feae6cba29d91a4afdf17bd9'),
    ('selfcheck', 'selfcheck'): (0, '5dd3324087d256806d0ad07c2f4ad2783a0ffeafa0ea8d1f2ca5359af871c10c'),
}


@pytest.mark.parametrize("key", sorted(SAMPLE_DIGESTS), ids="-".join)
def test_sample_report_is_unchanged(tmp_path, key):
    assert sample_digest(tmp_path, key) == SAMPLE_DIGESTS[key]


# -- coverage of cli.OPS ------------------------------------------------------------------------

# The library operations the command line exposes, by module.
OPERATIONS_BY_MODULE = {
    distribution_mod: ["delta", "pushforward", "flatten", "convex_combine"],
    presentation_mod: ["quotient_mix", "eq", "induce_map", "hom_combine", "verify_verdict"],
    join_mod: ["join_point", "join_mix", "copair"],
    tensor_mod: [
        "tensor",
        "universal_map",
        "extend_multiconvex",
        "coherence",
        "check_biconvex_not_convex_counterexample",
        "enriched_bridge",
    ],
    matprop_mod: [
        "is_convex_matrix",
        "compose",
        "direct_sum",
        "permute",
        "qconv_compose",
        "algebra_apply",
    ],
    category_mod: [
        "grothendieck",
        "is_discrete_fibration",
        "extract_functor",
        "convex_grothendieck",
    ],
    omonoidal_mod: ["trivial_structure", "star_alpha", "o_grothendieck", "check_lax"],
    finprob_mod: [
        "shannon_entropy",
        "info_loss",
        "convex_combine_morphisms",
        "verify_entropy_axioms",
        "dist_lax_xi",
    ],
    simplicial_mod: [
        "twisted_product",
        "check_simplicial_distribution",
        "bundle_tensor",
        "mu_product",
        "twist_monoid_structure",
    ],
}


def test_every_op_has_a_sample_job():
    assert set(SAMPLE_JOBS) == set(cli.OPS)


def test_every_op_is_a_function_of_its_verb_module():
    # (verb, op) is dispatched to verb_op in convexion.verbs.<verb>, and
    # every verb_* function there is the handler of an op of cli.OPS.
    handlers = set()
    for verb in {verb for verb, _ in cli.OPS}:
        module = importlib.import_module(f"convexion.verbs.{verb}")
        for name, value in vars(module).items():
            if name.startswith(f"{verb}_"):
                assert inspect.isfunction(value) and value.__module__ == module.__name__, name
                handlers.add((verb, name.removeprefix(f"{verb}_")))
    assert handlers == set(cli.OPS)


def test_samples_reach_every_module_operation(tmp_path, monkeypatch):
    # Each operation is wrapped where it is defined and wherever a convexion
    # module imported it by name; the handlers import their operations when
    # they are called, so they read the wrapped module attribute.
    called = set()

    def spy(label, fn):
        def wrapper(*args, **kwargs):
            called.add(label)
            return fn(*args, **kwargs)

        return wrapper

    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "convexion"]
    expected = set()
    for module, names in OPERATIONS_BY_MODULE.items():
        for name in names:
            label = f"{module.__name__}.{name}"
            expected.add(label)
            original = getattr(module, name)
            wrapper = spy(label, original)
            for holder in holders:
                if getattr(holder, name, None) is original:
                    monkeypatch.setattr(holder, name, wrapper)
    for key in SAMPLE_JOBS:
        code, _ = invoke(*sample_argv(tmp_path, key))
        assert code == 0, key
    assert expected - called == set()


@pytest.mark.parametrize("verb", sorted({verb for verb, _ in cli.OPS}))
def test_verb_help_lists_its_ops(verb, capsys):
    with pytest.raises(SystemExit):
        run([verb, "--help"])
    names = [name for v, name in cli.OPS if v == verb]
    assert f"ops: {', '.join(names)}" in " ".join(capsys.readouterr().out.split())


def test_the_parser_builds_only_the_verb_on_the_command_line():
    # every verb is a choice, but only the one named gets its arguments,
    # with the global flags before or after it
    argv = ["--bound", "2", "eq", "--job", "x.json", "--seed", "3"]
    args = cli.build_parser(argv).parse_args(argv)
    assert (args.verb, args.job, args.bound, args.seed) == ("eq", "x.json", "2", "3")
    with pytest.raises(SystemExit):
        cli.build_parser(argv).parse_args(["dist", "--job", "x.json"])


@pytest.mark.parametrize("name", ["nope", "join_mix", [1], {"op": "delta"}, 7, None])
def test_unknown_op_exit_two(tmp_path, name):
    job = write(tmp_path, "job.json", {"op": name, "element": "a"})
    code, report, stderr = _run_process("dist", "--job", job)
    assert code == 2 and "Traceback" not in stderr
    assert report["error"] == f"unknown dist op {name!r}"


def test_eq_flag_form_reports_the_eq_job_without_op(tmp_path):
    job = SAMPLE_JOBS[("eq", "eq")]
    flags = []
    for key in ("presentation", "lhs", "rhs"):
        flags += [f"--{key}", write(tmp_path, f"{key}.json", job[key])]
    code, flag_report = invoke("eq", *flags)
    _, job_report = invoke(*sample_argv(tmp_path, ("eq", "eq")))
    assert code == 0 and job_report.pop("op") == "eq"
    assert flag_report == job_report


def test_refused_maps_report_the_pair_for_induce_map_only(tmp_path):
    # Both maps send the relation a = b of GLUE to the distinct a and b.
    induce = {"op": "induce_map", "source": GLUE, "target": PRES, "assignment": {"a": DELTA_A, "b": DELTA_B}}
    extend = {
        "op": "extend_multiconvex",
        "spec": {
            "factors": [GLUE, C_PRES],
            "target": PRES,
            "table": [{"tuple": ["a", "c"], "value": DELTA_A}, {"tuple": ["b", "c"], "value": DELTA_B}],
        },
    }
    code, report = invoke(*sample_argv(tmp_path, ("eq", "induce_map"), induce))
    assert code == 0
    assert report["result"] == {"accepted": False, "reason": "relation_violated", "pair": [DELTA_A, DELTA_B]}
    code, report = invoke(*sample_argv(tmp_path, ("tensor", "extend_multiconvex"), extend))
    assert code == 0
    assert report["result"] == {"accepted": False, "reason": "relation_violated"}


def test_cli_import_loads_no_construction_module():
    lazy = ["convexion.category", "convexion.finprob", "convexion.join", "convexion.linalg",
            "convexion.matprop", "convexion.omonoidal", "convexion.presentation",
            "convexion.simplicial", "convexion.tensor"]
    code = f"import sys, convexion.cli; print([m for m in {lazy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# The convexion modules that one sample job per verb loads, beyond the
# modules every job loads: cli, jsonio, distribution, errors, semiring,
# verbs and the verb's own module verbs.<verb>.
VERB_MODULES = {
    ("dist", "delta"): [],
    ("eq", "eq"): ["linalg", "presentation", "record"],
    ("join", "join_mix"): ["join", "linalg", "presentation", "record"],
    ("tensor", "tensor"): ["linalg", "presentation", "record", "tensor"],
    ("prop", "compose"): ["matprop", "record"],
    ("groth", "grothendieck"): ["category", "record"],
    ("omon", "star_alpha"): [
        "category", "linalg", "matprop", "omonoidal", "presentation", "record", "tensor",
    ],
    ("twist", "twisted_product"): ["simplicial"],
    ("entropy", "eval"): ["finprob"],
    ("selfcheck", "selfcheck"): ["linalg", "matprop", "presentation", "record", "tensor"],
}


def test_every_verb_has_a_module_set():
    assert {verb for verb, _ in VERB_MODULES} == {verb for verb, _ in cli.OPS}


@pytest.mark.parametrize("key", sorted(VERB_MODULES), ids="-".join)
def test_job_loads_only_its_verb_modules(tmp_path, key):
    code = (
        "import json, sys\n"
        "before = 'dataclasses' in sys.modules\n"
        "from convexion import cli\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('convexion.'))\n"
        "print(json.dumps([code, before, 'dataclasses' in sys.modules, loaded]))"
    )
    report = tmp_path / "report.json"
    argv = ["--report", str(report), *sample_argv(tmp_path, key)]
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)], capture_output=True, text=True, env=ENV
    )
    assert out.returncode == 0, out.stderr
    exit_code, dataclasses_before, dataclasses_after, loaded = json.loads(out.stdout)
    assert exit_code == 0 and json.loads(report.read_text())["ok"] is True
    every_job = ["cli", "distribution", "errors", "jsonio", "semiring", "verbs", f"verbs.{key[0]}"]
    assert loaded == sorted(f"convexion.{m}" for m in every_job + VERB_MODULES[key])
    assert dataclasses_before or not dataclasses_after


# -- global flags ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--tol", "-1e-3", "selfcheck"], "--tol -1e-3: "),
        (["--tol=-1e-3", "selfcheck"], "--tol -1e-3: "),
        (["selfcheck", "--tol", "-1e-3"], "--tol -1e-3: "),
        (["--tol=nan", "selfcheck"], "--tol nan: "),
        (["--tol=inf", "selfcheck"], "--tol inf: "),
        (["--tol", "-inf", "selfcheck"], "--tol -inf: "),
        (["--tol", "-.5e3", "selfcheck"], "--tol -.5e3: "),
        (["--tol", "x", "selfcheck"], "--tol x: "),
        (["--bound", "-1", "selfcheck"], "--bound -1: "),
        (["--bound=-1", "selfcheck"], "--bound -1: "),
        (["selfcheck", "--bound", "-1"], "--bound -1: "),
        (["--bound", "x", "selfcheck"], "--bound x: expected an integer >= 0"),
        (["--bound", "-x", "selfcheck"], "--bound -x: expected an integer >= 0"),
        (["--seed", "x", "selfcheck"], "--seed x: expected an integer"),
        (["selfcheck", "--seed", "1.5"], "--seed 1.5: expected an integer"),
    ],
)
def test_bad_global_flag_exit_two(argv, error):
    code, report = invoke(*argv)
    assert code == 2 and report["ok"] is False and "result" not in report
    assert report["error"].startswith(error)


@pytest.mark.parametrize("verb", sorted({verb for verb, _ in cli.OPS}))
def test_bad_tolerance_is_refused_for_every_verb(tmp_path, verb):
    key = next(k for k in SAMPLE_JOBS if k[0] == verb)
    code, report = invoke("--tol", "-1e-3", *sample_argv(tmp_path, key))
    assert code == 2
    assert report["error"] == "--tol -1e-3: expected a finite number >= 0"


@pytest.mark.parametrize("verb", sorted({verb for verb, _ in cli.OPS}))
def test_bound_above_the_limit_is_refused_for_every_verb(tmp_path, verb):
    key = next(k for k in SAMPLE_JOBS if k[0] == verb)
    code, report = invoke("--bound", "1048576", *sample_argv(tmp_path, key))
    assert code == 2 and "result" not in report
    assert report["error"] == "--bound 1048576: expected an integer <= 256"


@pytest.mark.parametrize("argv", [["--tol", "0"], ["--tol=1e-12"], ["--bound", "0"]])
def test_edge_global_flags_are_accepted(argv):
    code, report = invoke(*argv, "selfcheck")
    assert code == 0 and report["ok"] is True


def test_dash_led_tolerance_reaches_the_report():
    code, report, stderr = _run_process("--tol", "-1e-3", "selfcheck")
    assert code == 2 and stderr == ""
    assert report["error"] == "--tol -1e-3: expected a finite number >= 0"


def test_flag_after_a_value_flag_stays_an_option(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):  # --out has no value; no file named --chains
        run(["entropy", "gen", "--out", "--chains"])
    assert not (tmp_path / "--chains").exists()


MUTATIONS = ("remove", None, 7, "x", [], {})


def mutated_samples():
    """Each sample with one top-level field of one of its JSON objects
    removed or set to a value of another JSON type; "op" is kept."""
    for key, sample in SAMPLE_JOBS.items():
        parts = [sample] if isinstance(sample, dict) else list(sample)
        for i, part in enumerate(parts):
            if not isinstance(part, dict):
                continue
            for field, value in part.items():
                for mutation in MUTATIONS:
                    if field == "op" or (mutation != "remove" and type(mutation) is type(value)):
                        continue
                    bad = {k: v for k, v in part.items() if k != field}
                    if mutation != "remove":
                        bad[field] = mutation
                    mutated = parts[:i] + [bad] + parts[i + 1:]
                    yield key, f"{field}={mutation!r}", bad if isinstance(sample, dict) else tuple(mutated)


def test_mutated_samples_exit_0_1_or_2(tmp_path):
    escapes = []
    for key, label, sample in mutated_samples():
        try:
            code, report = invoke(*sample_argv(tmp_path, key, sample))
        except Exception as exc:  # every escape is listed below, not just the first
            escapes.append(f"{key} {label}: {type(exc).__name__}: {exc}")
            continue
        # exit 1 is a CheckFailure: a result, no error
        if code not in (0, 1, 2) or (code == 1) != ("result" in report and not report["ok"]):
            escapes.append(f"{key} {label}: exit {code}")
    assert escapes == []


def _sample_with(key, **fields):
    return {**SAMPLE_JOBS[key], **fields}


CSET_FUNCTOR = SAMPLE_JOBS[("groth", "convex_grothendieck")]["functor"]
SPEC = SAMPLE_JOBS[("tensor", "extend_multiconvex")]["spec"]
# the circle truncated at N = 1, as explicit tables
CIRCLE_1 = {
    "N": 1,
    "levels": [["v"], ["e", "sv"]],
    "faces": {"1,0": {"e": "v", "sv": "v"}, "1,1": {"e": "v", "sv": "v"}},
    "degeneracies": {"0,0": {"v": "sv"}},
}

# A malformed field below the top level of a sample job, and the error that
# names it; each of these raised a Python exception before.
NESTED_FIELD_JOBS = [
    (("omon", "trivial_structure"), {"unit": 7}, "unit: 7 is not an object"),
    (("omon", "trivial_structure"), {"tensor": {"0,0": "2"}}, "tensor['0,0']: '2' is not an object"),
    (("omon", "trivial_structure"), {"tensor": {"0,0": "0"}}, "tensor: no entry for 0,1"),
    (("omon", "trivial_structure"), {"tensor": {"0,1,1": "1"}}, "tensor['0,1,1']: expected a key 'a,b' naming two objects"),
    (("omon", "trivial_structure"), {"tensor": {"0": "1"}}, "tensor['0']: expected a key 'a,b' naming two objects"),
    (("omon", "trivial_structure"), {"tensor": {"9,9": "1"}}, "tensor['9,9']: expected a key 'a,b' naming two objects"),
    (("omon", "o_grothendieck"), {"functor": "dist"}, "instances[0].objects[0]: '*' is not an object of the functor"),
    (("omon", "o_grothendieck"), {"carrier": ["x", []]}, "carrier: expected names (JSON strings)"),
    (("omon", "check_lax"), {"unit_objects": ["S1", "T"]}, "unit_objects[1]: 'T' is not an object of the functor"),
    (("twist", "twisted_product"), {"twist": {"maps": {"1": 7}}}, "twist.maps['1']: expected a JSON object"),
    (("twist", "twisted_product"), {"twist": {"maps": {"one": {}}}}, "twist.maps: key 'one' is not a level number"),
    (("twist", "twisted_product"), {"twist": {"maps": {"1": {"e": [], "sv": "0"}}}}, "twist.maps: expected names (JSON strings)"),
    (("twist", "check_distribution"), {"distribution": {"levels": {"3": {}}}}, "distribution.levels['3']: above the truncation 2"),
    (
        ("twist", "check_distribution"),
        {"distribution": {"levels": {"0": {"v": DELTA_A}}}},
        "distribution.levels['0']['v']: not a distribution on level 0",
    ),
    (
        ("twist", "mu_product"),
        {"p": {"levels": {"0": UNIFORM["levels"]["0"]}}},
        "p.levels: no distribution at simplex 'e' of level 1",
    ),
    (
        ("twist", "mu_product"),
        {"q": {"levels": {"0": UNIFORM["levels"]["0"]}}},
        "q.levels: no distribution at simplex 'e' of level 1",
    ),
    (("eq", "eq"), {"presentation": {"generators": ["a", []]}}, "presentation.generators: expected names (JSON strings)"),
    (
        ("eq", "hom_combine"),
        {"source": GLUE},
        "assignments[0]: assignment sends a relation pair to distinct elements",
    ),
    (("eq", "hom_combine"), {"assignments": [{"a": DELTA_A}]}, "assignments[0]: assignment misses generator 'b'"),
    (("eq", "induce_map"), {"assignment": {"a": DELTA_A, "m": DELTA_B}}, "assignment: assignment misses generator 'b'"),
    (
        ("join", "copair"),
        {"x_presentation": GLUE},
        "f: assignment sends a relation pair to distinct elements",
    ),
    (("join", "copair"), {"g": {}}, "g: assignment misses generator 'u'"),
    (
        ("groth", "grothendieck"),
        {"functor": {"on_objects": {"0": ["x", {}], "1": ["z"]}, "on_morphisms": {}}},
        "functor.on_objects['0']: expected names (JSON strings)",
    ),
    (
        ("groth", "convex_grothendieck"),
        {"functor": {**CSET_FUNCTOR, "on_morphisms": {"g": {}}}},
        "functor.on_morphisms['g']: not a morphism between objects in on_objects",
    ),
    (
        ("groth", "convex_grothendieck"),
        {"functor": {**CSET_FUNCTOR, "on_morphisms": {"id0": {"a": DELTA_A}}}},
        "functor.on_morphisms['id0']: assignment misses generator 'b'",
    ),
    (
        ("groth", "convex_grothendieck"),
        {"samples": [{"morphism": "g", "alpha": [], "elements": []}]},
        "samples[0].morphism: 'g' is not a morphism",
    ),
    (("groth", "is_discrete_fibration"), {"morphism_projection": {"id0": []}}, "morphism_projection: expected names (JSON strings)"),
    (
        ("tensor", "enriched_bridge"),
        {
            "objects": ["o", "p"],
            "hom": {"o,o": {"generators": ["i"]}, "p,p": {"generators": ["i"]}},
            "identities": {"o": DELTA_I, "p": DELTA_I},
        },
        "composition: no table for 'p,p,p'",
    ),
    (("prop", "permute"), {"tau": [1, "0"]}, "tau, sigma: expected lists of indices"),
    (("prop", "qconv_compose"), {"outer": {"alpha": 7}}, "outer.alpha: expected a JSON list"),
    (("tensor", "extend_multiconvex"), {"spec": {**SPEC, "factors": 7}}, "spec.factors: expected a JSON list"),
    (
        ("tensor", "universal_map"),
        {"elements": [DIST, DELTA_C, {"weights": [{"el": "zz", "w": "1"}]}]},
        "elements: expected 2 elements, one per factor",
    ),
    (("tensor", "extend_multiconvex"), {"elements": [DIST]}, "elements: expected 2 elements, one per factor"),
    (
        ("tensor", "extend_multiconvex"),
        {"spec": {**SPEC, "table": [{"tuple": 7, "value": DELTA_A}]}},
        "spec.table[0].tuple: expected a JSON list",
    ),
    (
        ("dist", "convex_combine"),
        {"alpha": ["1/2", "x"]},
        "alpha[1]: bad rational literal 'x': Invalid literal for Fraction: 'x'",
    ),
    (
        ("dist", "convex_combine"),
        {"dists": [DIST, {"weights": [{"el": "b"}]}]},
        "dists[1].weights[0].w: missing from the convex_combine job",
    ),
    (
        ("dist", "flatten"),
        {"outer": [{"weight": "z", "dist": DIST}]},
        "outer[0].weight: bad rational literal 'z': Invalid literal for Fraction: 'z'",
    ),
    (
        ("tensor", "tensor"),
        {"factors": [PRES, {"generators": ["c"], "relations": 7}]},
        "factors[1].relations: expected a JSON list",
    ),
    (
        ("tensor", "tensor"),
        {"factors": [PRES, {"generators": ["c"], "relations": [[DELTA_C]]}]},
        "factors[1].relations[0]: expected a pair of distributions",
    ),
    (
        ("eq", "induce_map"),
        {"target": {"generators": ["a", "b"], "relations": [[DELTA_A, {"weights": [{"el": 7, "w": "1"}]}]]}},
        "target.relations[0][1].weights[0].el: expected a JSON string",
    ),
    (("twist", "twisted_product"), {"space": {**CIRCLE_1, "N": "x"}}, "space.N: expected a JSON integer"),
    (("twist", "twisted_product"), {"space": {**CIRCLE_1, "levels": 5}}, "space.levels: expected a JSON list"),
    (
        ("twist", "twisted_product"),
        {"space": {**CIRCLE_1, "faces": {**CIRCLE_1["faces"], "2,0": {}}}},
        "space: face table (2,0) is outside the truncation N = 1",
    ),
    (
        ("omon", "check_lax"),
        {"instances": [{**SAMPLE_JOBS[("omon", "check_lax")]["instances"][0], "inner": []}]},
        "instances[0].inner: expected 2 operations, one per input",
    ),
    (
        ("omon", "check_lax"),
        {"instances": [{**SAMPLE_JOBS[("omon", "check_lax")]["instances"][0], "objects": ["S1"] * 4}]},
        "instances[0].objects: expected one object per input of the inner operations",
    ),
    (
        ("groth", "grothendieck"),
        {"category": {**ARROW_CAT, "identities": 7}},
        "category.identities: expected a JSON object",
    ),
    (
        ("twist", "twisted_product"),
        {"space": CIRCLE_1, "group": {**GROUP_1, "faces": {**GROUP_1["faces"], "1,1": {"0": []}}}},
        "group.faces['1,1']: expected names (JSON strings)",
    ),
    # eta(s_0 v) = 1: d_0 s_0 (0, v) = (1, v), so the twisted product fails
    # the first mixed identity
    (
        ("twist", "twisted_product"),
        {"space": {"standard": "circle", "N": 1}, "group": {"cyclic": 2, "N": 1}, "twist": {"maps": {"1": {"e": "0", "sv": "1"}}}},
        "twist.maps: the twisted product is not simplicial: mixed identity fails at n=0, i=0, j=0, ('0', 'v')",
    ),
    # the bound is checked before any table is built: N = 1000 would take hours
    (
        ("twist", "twisted_product"),
        {"space": {"standard": "point", "N": 1000}},
        "space: truncation bound N = 1000 is outside 0..3",
    ),
]


@pytest.mark.parametrize(
    "key, fields, error", NESTED_FIELD_JOBS, ids=[f"{key[1]} {error}" for key, _, error in NESTED_FIELD_JOBS]
)
def test_nested_field_exit_two(tmp_path, key, fields, error):
    code, report = invoke(*sample_argv(tmp_path, key, _sample_with(key, **fields)))
    assert code == 2 and report["error"] == error


def test_cyclic_order_above_the_budget_builds_nothing(tmp_path, monkeypatch):
    # The order is checked before the n^2 addition table is built: a spy
    # in place of AbGroup.__init__ records every group that gets that far.
    built = []
    monkeypatch.setattr(simplicial_mod.AbGroup, "__init__", lambda self, *args: built.append(args))
    order = simplicial_mod.MAX_CYCLIC + 1
    key = ("twist", "twisted_product")
    code, report = invoke(*sample_argv(tmp_path, key, _sample_with(key, group={"cyclic": order, "N": 2})))
    assert code == 2 and built == []
    assert report["error"] == f"group.cyclic: cyclic group order {order} is outside 1..{order - 1}"


def test_cyclic_order_at_the_budget_is_built():
    group = simplicial_mod.AbGroup.cyclic(simplicial_mod.MAX_CYCLIC)
    assert len(group.elements) == simplicial_mod.MAX_CYCLIC
    assert group.add("1", str(simplicial_mod.MAX_CYCLIC - 1)) == "0"


@pytest.mark.parametrize(
    "files, error",
    [
        ({"lhs": {"weights": [{"el": "a"}]}}, "weights[0].w: missing from the lhs job"),
        ({"rhs": [DELTA_A]}, "rhs job: expected a JSON object"),
        ({"presentation": {"generators": ["a", "b"], "relations": 7}}, "relations: expected a JSON list"),
    ],
)
def test_eq_flag_form_paths_start_at_each_file(tmp_path, files, error):
    job = {**SAMPLE_JOBS[("eq", "eq")], **files}
    flags = []
    for key in ("presentation", "lhs", "rhs"):
        flags += [f"--{key}", write(tmp_path, f"{key}.json", job[key])]
    code, report = invoke("eq", *flags)
    assert code == 2 and report["error"] == error


def nested_paths(value, path=()):
    """The path, as a tuple of keys and indices, of every value nested in
    the JSON object or list value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from nested_paths(child, path + (key,))


def replaced(value, path, new):
    """value with the value at path replaced by new."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


# (key, path) for every value nested in a JSON argument of a sample; a
# sample that is an argv tuple is read as a list, and only its JSON
# objects are entered.
SAMPLE_PATHS = [
    (key, path)
    for key, sample in SAMPLE_JOBS.items()
    for path in nested_paths(sample if isinstance(sample, dict) else list(sample))
    if isinstance(sample, dict) or (isinstance(sample[path[0]], dict) and len(path) > 1)
]


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(case=st.sampled_from(SAMPLE_PATHS), value=st.sampled_from([None, 7, "x", [], {}]))
def test_nested_mutation_exits_0_1_or_2(tmp_path_factory, case, value):
    key, path = case
    sample = SAMPLE_JOBS[key]
    if isinstance(sample, dict):
        sample = replaced(sample, path, value)
    else:
        sample = tuple(replaced(list(sample), path, value))
    code, report = invoke(*sample_argv(tmp_path_factory.mktemp("nested"), key, sample))
    # exit 1 is a CheckFailure: a result, no error
    assert code in (0, 1, 2) and (code == 1) == ("result" in report and not report["ok"])


# A value replaced in a --job sample: the six replacements of every nested
# value of every job, of which a seeded sample of FUZZ_CASES runs.
FUZZ_VALUES = (None, 7, "x", [], {}, -1)
FUZZ_CASES = 600


def test_library_errors_are_reported_at_a_json_path(tmp_path):
    # A library error reads "ClassName: message" only below "<op> job: ",
    # so an exit-2 error never begins with a class name.  Each sample goes
    # through a JSON round trip first: samples share sub-objects (SEGMENT is
    # both source and target), and a replacement must land at one path.  An
    # argv sample is read as a list, whose JSON objects are the files it
    # names; every replacement inside those files runs.
    samples = {
        k: json.loads(json.dumps(v if isinstance(v, dict) else list(v))) for k, v in SAMPLE_JOBS.items()
    }
    cases = [
        (key, path, value)
        for key, sample in samples.items()
        if isinstance(sample, dict)
        for path in nested_paths(sample)
        if path != ("op",)
        for value in FUZZ_VALUES
    ]
    files = [
        (key, path, value)
        for key, sample in samples.items()
        if isinstance(sample, list)
        for path in nested_paths(sample)
        if isinstance(sample[path[0]], dict) and len(path) > 1
        for value in FUZZ_VALUES
    ]
    unpathed = []
    for key, path, value in random.Random(20261019).sample(cases, FUZZ_CASES) + files:
        sample = replaced(samples[key], path, value)
        argv = sample_argv(tmp_path, key, sample if isinstance(sample, dict) else tuple(sample))
        code, report = invoke(*argv)
        assert code in (0, 1, 2), (key, path, value)
        if code == 2 and re.match(r"[A-Z][A-Za-z]*: ", report["error"]):
            unpathed.append(f"{key} {path} {value!r}: {report['error']}")
    assert unpathed == []


@pytest.mark.parametrize(
    "key, fields, error",
    [
        (
            ("prop", "compose"),
            {"right": {"rows": 1, "cols": 1, "entries": [["1"]]}},
            "compose job: DimensionMismatch: inner dimensions 2 != 1",
        ),
        (
            ("dist", "convex_combine"),
            {"alpha": ["1"]},
            "convex_combine job: NotConvexVector: 1 coefficients for 2 distributions",
        ),
    ],
    ids=["compose", "convex_combine"],
)
def test_errors_across_fields_are_reported_at_the_job_root(tmp_path, key, fields, error):
    code, report = invoke(*sample_argv(tmp_path, key, _sample_with(key, **fields)))
    assert code == 2 and report["error"] == error


@pytest.mark.parametrize(
    "key, sample, error",
    [
        (
            ("entropy", "xi"),
            ("entropy", "xi", "--input", {"alpha": ["1/2", "1/3"], "dists": [DIST, DELTA_C]}),
            "alpha: weights are not a convex vector",
        ),
        (
            ("entropy", "xi"),
            ("entropy", "xi", "--input", {"alpha": ["1/2", "1/2"], "dists": [DIST, DELTA_A]}),
            "dists: carriers overlap on ['a']",
        ),
        (
            ("omon", "star_alpha"),
            {"op": "star_alpha", "alpha": ["1/2", "1/3"], "factors": [PRES, CD_PRES]},
            "alpha: weights are not a convex vector",
        ),
    ],
    ids=["xi_alpha", "xi_overlap", "star_alpha"],
)
def test_mixing_weights_and_carriers_are_reported_at_their_path(tmp_path, key, sample, error):
    code, report = invoke(*sample_argv(tmp_path, key, sample))
    assert code == 2 and report["error"] == error


def _functor_with_object_0(value):
    """The convex_grothendieck sample whose functor gives object 0 as value."""
    key = ("groth", "convex_grothendieck")
    on_objects = {**CSET_FUNCTOR["on_objects"], "0": value}
    return _sample_with(key, functor={**CSET_FUNCTOR, "on_objects": on_objects})


def test_functor_presentation_by_path_matches_inline(tmp_path):
    key = ("groth", "convex_grothendieck")
    pres = write(tmp_path, "pres.json", CSET_FUNCTOR["on_objects"]["0"])
    inline = invoke(*sample_argv(tmp_path, key))
    assert inline[0] == 0
    assert invoke(*sample_argv(tmp_path, key, _functor_with_object_0({"path": pres}))) == inline


@pytest.mark.parametrize(
    "content, error",
    [
        (None, "functor.on_objects['0'].path: no such file: {file}"),
        ({"generators": ["a", "b"], "relations": 7}, "functor.on_objects['0'].path[{file!r}].relations: expected a JSON list"),
        ({"generators": []}, "functor.on_objects['0'].path[{file!r}]: a presentation needs at least one generator"),
    ],
    ids=["missing", "malformed", "no_generators"],
)
def test_functor_presentation_by_path_errors_name_the_file(tmp_path, content, error):
    key = ("groth", "convex_grothendieck")
    file = str(tmp_path / "pres.json") if content is None else write(tmp_path, "pres.json", content)
    code, report = invoke(*sample_argv(tmp_path, key, _functor_with_object_0({"path": file})))
    assert code == 2 and report["error"] == error.format(file=file)


def test_entropy_eval_needs_an_input():
    code, report = invoke("entropy", "eval")
    assert code == 2 and report["error"] == "entropy eval needs --object or --morphism"


def test_entropy_gen_empty_carrier_exit_two(tmp_path):
    out = tmp_path / "x.json"
    code, report, stderr = _run_process("entropy", "gen", "--out", str(out), "--max-carrier", "0")
    assert code == 2 and stderr == ""
    assert report["error"] == "--max-carrier 0: expected an integer >= 1"
    assert not out.exists()


def test_entropy_gen_negative_chains_exit_two(tmp_path):
    out = tmp_path / "x.json"
    for flag, text, low in [("--chains", "-1", 0), ("--chains", "x", 0), ("--max-carrier", "-x", 1)]:
        code, report = invoke("entropy", "gen", "--out", str(out), flag, text)
        assert code == 2 and report["error"] == f"{flag} {text}: expected an integer >= {low}"
        assert not out.exists()
    # no chains at all is a corpus of single maps
    code, report = invoke("entropy", "gen", "--out", str(out), "--chains", "0", "--max-carrier", "1")
    assert code == 0 and report["result"]["morphisms"] == 20


def test_entropy_combine_lambda_above_one_exit_two(tmp_path):
    f, g = write(tmp_path, "f.json", COLLAPSE), write(tmp_path, "g.json", RENAME)
    code, report = invoke("entropy", "combine", "--lambda", "3/2", "--f", f, "--g", g)
    assert code == 2 and report["error"] == "--lambda 3/2: expected a rational in [0, 1]"
    code, report = invoke("entropy", "combine", "--lambda", "1", "--f", f, "--g", g)
    assert code == 0


@pytest.mark.parametrize(
    "flag, error",
    [
        (["--lambda", "x"], "--lambda x: bad rational literal 'x': Invalid literal for Fraction: 'x'"),
        (["--lambda=-1/2"], "--lambda -1/2: negative coefficient '-1/2' is not allowed"),
        (["--lambda", "-1/2"], "--lambda -1/2: negative coefficient '-1/2' is not allowed"),
    ],
)
def test_entropy_combine_bad_lambda_names_the_flag(tmp_path, flag, error):
    f, g = write(tmp_path, "f.json", COLLAPSE), write(tmp_path, "g.json", RENAME)
    code, report = invoke("entropy", "combine", *flag, "--f", f, "--g", g)
    assert code == 2 and report["error"] == error


@pytest.mark.parametrize(
    "table, candidate, error",
    [
        ([1, 2], "custom-table:{table}", "custom-table job: expected a JSON object"),
        ({"values": 7}, "custom-table:{table}", "values: expected a JSON list"),
        ({"values": ["x"]}, "custom-table:{table}", "values: expected a list of numbers"),
        ({"values": [], "chain_values": [None]}, "custom-table:{table}", "chain_values: expected a list of numbers"),
        (None, "scaled:x", "candidate 'scaled:x': the scale is not a number"),
        (None, "scaled:1/0", "candidate 'scaled:1/0': the scale is not a number"),
    ],
)
def test_entropy_candidate_exit_two(tmp_path, table, candidate, error):
    corpus = write(tmp_path, "corpus.json", {"morphisms": [COLLAPSE], "chains": []})
    candidate = candidate.format(table=write(tmp_path, "table.json", table))
    code, report = invoke("entropy", "verify", "--corpus", corpus, "--candidate", candidate)
    assert code == 2 and report["error"] == error
