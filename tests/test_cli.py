"""Command-line behaviour: schemas, exit codes, report stability, and the
verb coverage of every module operation."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import convexion.category as category_mod
import convexion.distribution as distribution_mod
import convexion.finprob as finprob_mod
import convexion.join as join_mod
import convexion.matprop as matprop_mod
import convexion.omonoidal as omonoidal_mod
import convexion.presentation as presentation_mod
import convexion.simplicial as simplicial_mod
import convexion.tensor as tensor_mod
from convexion import jsonio
from convexion.cli import VERB_OPERATIONS, run


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


# -- coverage ------------------------------------------------------------------


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


def test_every_operation_reachable_from_some_verb():
    all_ops = set()
    for module, names in OPERATIONS_BY_MODULE.items():
        for name in names:
            assert hasattr(module, name), f"{module.__name__} lacks {name}"
            all_ops.add(name)
    covered = set().union(*VERB_OPERATIONS.values())
    missing = all_ops - covered
    assert not missing, f"operations unreachable from any verb: {missing}"


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


def test_twist_check_distribution_cli(tmp_path):
    # the uniform family on the twisted circle, spelled out in JSON
    twist1 = {"maps": {"1": {"e": "1", "sv": "0"}, "2": {"s0e": "0", "s1e": "1", "ssv": "0"}}}
    uniform = {
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
    assert report["error"].startswith("InvalidInput")


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
    assert report["error"].startswith("InvalidInput")


@pytest.mark.parametrize("bound", [{}, "x", None, [], True, 2.5])
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
    assert report["error"].startswith("InvalidInput")


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
    assert report["error"] == "weights[1].el: expected a JSON string"


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
