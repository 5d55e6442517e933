"""Command-line front door.

Every operation is registered once, in the table OPS under its (verb, op)
key, and is the function verb_op of the module convexion.verbs.<verb>,
which holds that verb's handlers and the helpers only it uses; the helpers
that several verbs share are here.  A job imports only its verb's module.
Dispatch, the parser's verbs and each verb's --help list are read from
OPS, and the test suite checks its coverage against it: one sample job per
key, and every module operation reached by running them.  Most verbs take
a --job JSON file whose "op" field selects the operation, with inline
arguments per the schemas in jsonio; eq also accepts the direct flag form,
the entropy ops are subcommands with their own flags, and selfcheck takes
none.  A handler reads its job, and every JSON file the entropy ops name,
only through jsonio.Job, the one reader, and passes its sub-readers to the
decoders, so each malformed-input diagnostic begins with the JSON path of
the offending value; a library error that no decoder reports at a path
spans several fields of the job, and reads "<op> job: ClassName: message".
Reports are canonical JSON (sorted keys, lowest-terms rationals) and always
carry the tool version, the --bound value, and the assumption flags
relevant to the operation.  --bound is eq eq's step bound (at most
MAX_STEP_BOUND, which run checks for every verb) and no other op reads it:
the constructions decide equality in the quotient exactly (same_class).
Every handler imports the library modules it uses, so a job loads only
its verb's modules.

Exit codes: 0 success / all checks passed; 1 a check failed (the report is
still written); 2 malformed input.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import MAX_STEP_BOUND, __version__, jsonio
from .errors import ConvexionError, ParseError, RelationViolated

#: Deviations from the literal source formulas, surfaced in reports.
ASSUMPTION_FLAGS = {
    "info_loss_sign": "source_minus_target",
    "m_product": "p(x)q(y)",
    "join_mix": "renormalized_weights",
    "counterexample_value": "from_definitions",
}

#: (verb, op) -> the argparse (flag, options) pairs that the entropy
#: subcommand op adds; () for every other op.  The handler of (verb, op) is
#: verb_op(job, ctx) in convexion.verbs.<verb>; the entropy ops and
#: selfcheck get the argparse namespace in place of a job.
OPS = {
    ("dist", "delta"): (),
    ("dist", "pushforward"): (),
    ("dist", "flatten"): (),
    ("dist", "convex_combine"): (),
    ("eq", "eq"): (),
    ("eq", "quotient_mix"): (),
    ("eq", "induce_map"): (),
    ("eq", "hom_combine"): (),
    ("eq", "verify"): (),
    ("join", "join_point"): (),
    ("join", "join_mix"): (),
    ("join", "copair"): (),
    ("tensor", "tensor"): (),
    ("tensor", "universal_map"): (),
    ("tensor", "extend_multiconvex"): (),
    ("tensor", "coherence"): (),
    ("tensor", "counterexample"): (),
    ("tensor", "enriched_bridge"): (),
    ("prop", "is_convex_matrix"): (),
    ("prop", "compose"): (),
    ("prop", "direct_sum"): (),
    ("prop", "permute"): (),
    ("prop", "qconv_compose"): (),
    ("prop", "algebra_apply"): (),
    ("groth", "grothendieck"): (),
    ("groth", "is_discrete_fibration"): (),
    ("groth", "extract_functor"): (),
    ("groth", "convex_grothendieck"): (),
    ("omon", "star_alpha"): (),
    ("omon", "trivial_structure"): (),
    ("omon", "check_lax"): (),
    ("omon", "o_grothendieck"): (),
    ("twist", "twisted_product"): (),
    ("twist", "check_distribution"): (),
    ("twist", "bundle_tensor"): (),
    ("twist", "mu_product"): (),
    ("twist", "twist_monoid"): (),
    ("entropy", "gen"): (
        ("--out", {"required": True}),
        ("--chains", {"default": "50"}),
        ("--max-carrier", {"default": "16"}),
    ),
    ("entropy", "verify"): (
        ("--corpus", {"required": True}),
        ("--candidate", {"default": "info_loss"}),
    ),
    ("entropy", "eval"): (("--object", {}), ("--morphism", {})),
    ("entropy", "combine"): (
        ("--lambda", {"dest": "lam", "required": True}),
        ("--f", {"required": True}),
        ("--g", {"required": True}),
    ),
    ("entropy", "xi"): (("--input", {"required": True}),),
    ("selfcheck", "selfcheck"): (),
}


class CheckFailure(Exception):
    """A well-formed computation whose verification did not pass."""

    def __init__(self, result):
        super().__init__("check failed")
        self.result = result


def _checked(ok, result):
    """result, or CheckFailure(result) (exit 1) when ok is false."""
    if not ok:
        raise CheckFailure(result)
    return result


def _object_pair(key, at, objects):
    """The pair (a, b) that the key 'a,b' of the entry at names, both of
    them among objects."""
    pair = tuple(key.split(","))
    if len(pair) != 2 or not set(pair) <= set(objects):
        raise at.error("expected a key 'a,b' naming two objects")
    return pair


def _factors(job):
    """The presentations of the list field "factors"."""
    return [jsonio.decode_presentation(p) for p in job["factors"].items()]


def _distribution(out):
    return {"distribution": jsonio.encode_distribution(out)}


def _induced(build, report_pair):
    """(build(), None), or (None, the refusal's report) when build raises
    RelationViolated (with its pair if report_pair)."""
    try:
        return build(), None
    except RelationViolated as exc:
        refusal = {"accepted": False, "reason": "relation_violated"}
        if report_pair:
            refusal["pair"] = [jsonio.encode_distribution(side) for side in exc.pair]
        return None, refusal


def _integer(flag, text, low=None, high=None):
    """The text of an integer flag as an int, or a ParseError naming flag
    when it is not an integer, or below low or above high when given."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or (low is not None and value < low):
        expected = "an integer" if low is None else f"an integer >= {low}"
        raise ParseError(f"{flag} {text}: expected {expected}")
    if high is not None and value > high:
        raise ParseError(f"{flag} {text}: expected an integer <= {high}")
    return value


# -- wiring -------------------------------------------------------------------------------


def _global_flags(parser, top: bool):
    """The global flags are valid both before and after the verb; the
    post-verb occurrence wins (SUPPRESS keeps the top-level default)."""
    kw = (lambda default: {"default": default}) if top else (
        lambda default: {"default": argparse.SUPPRESS}
    )
    parser.add_argument("--bound", help="step bound of eq eq (no other op reads it)", **kw("4"))
    parser.add_argument("--tol", help="entropy tolerance", **kw("1e-9"))
    parser.add_argument("--seed", help="sample seed", **kw("0"))
    parser.add_argument("--report", type=str, help="report path", **kw(None))


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of the command line argv: one subparser per verb of
    OPS, its ops listed in its --help, but only a verb that argv names
    gets its arguments, since a job parses one verb.  Of those, the
    entropy ops are subcommands with their flags, selfcheck has no
    arguments, and every other verb reads a --job file.  A token that is
    a verb's name but not the verb (a --report path, say) costs only that
    verb's arguments."""
    parser = argparse.ArgumentParser(
        prog="convexion",
        description="Exact-arithmetic computational convex algebra.",
    )
    _global_flags(parser, top=True)
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, name in OPS:
        verbs.setdefault(verb, []).append(name)
    named = set(argv)
    for verb, names in verbs.items():
        ops = f"ops: {', '.join(names)}"
        p = sub.add_parser(verb, help=ops, description=ops)
        if verb not in named:
            continue
        _global_flags(p, top=False)
        if verb == "entropy":
            actions = p.add_subparsers(dest="op", required=True)
            for name in names:
                action = actions.add_parser(name)
                _global_flags(action, top=False)
                for flag, options in OPS[(verb, name)]:
                    action.add_argument(flag, **options)
        elif verb == "selfcheck":
            p.set_defaults(op=verb)
        else:
            p.add_argument("--job", required=verb != "eq", help="job JSON file")
        if verb == "eq":
            p.add_argument("--presentation", help="presentation JSON file")
            p.add_argument("--lhs", help="element JSON file")
            p.add_argument("--rhs", help="element JSON file")
    return parser


class _FlagJob(jsonio.Job):
    """eq's flag form as an eq job whose fields are whole files, each read
    as a job of its own named after its flag, so that a diagnostic's path
    starts at the root of its file (weights[0].w: missing from the lhs
    job), as it does in a --job file."""

    __slots__ = ()

    def __getitem__(self, key):
        if key in self.value:
            return jsonio.Job(self.value[key], key)
        return super().__getitem__(key)


def _load_job(args):
    """The job of a job verb: its --job file, or for eq's flag form the
    eq job that its three files make."""
    if args.job is None:
        if not (args.presentation and args.lhs and args.rhs):
            raise ParseError("eq needs --job or all of --presentation/--lhs/--rhs")
        files = {k: jsonio.load_json(getattr(args, k)) for k in ("presentation", "lhs", "rhs")}
        return _FlagJob({"op": "eq", **files}, "eq")
    job = jsonio.load_json(args.job)
    if not isinstance(job, dict) or "op" not in job:
        raise ParseError(f"{args.job}: job file has no 'op' field")
    return jsonio.Job(job, job["op"])


def _glue_dash_values(argv):
    """argv with each op flag, --bound, --tol or --seed that a token such as
    -1/2, -inf or -x follows joined to it as --flag=-1/2.  argparse reads a
    token that begins with a dash as an option unless it is a plain
    negative int or decimal, so the value would not reach the code that
    judges it.  A token that begins with -- stays an option: --out --chains
    is a missing value, not a file named --chains."""
    flags = {"--bound", "--tol", "--seed"} | {flag for pairs in OPS.values() for flag, _ in pairs}
    out = []
    for token in argv:
        if out and out[-1] in flags and token[:1] == "-" and token[:2] != "--":
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _tolerance(text):
    """The --tol text as a float, or a ParseError naming it when it is not
    a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise ParseError(f"--tol {text}: expected a finite number >= 0")
    return tol


def run(argv=None):
    """Parse, dispatch, and return (exit_code, report, report_path)."""
    argv = _glue_dash_values(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    report = {
        "tool": {"name": "convexion", "version": __version__},
        "bound": args.bound,
        "verb": args.verb,
        "assumptions": ASSUMPTION_FLAGS,
        "ok": True,
    }
    exit_code, request = 0, None
    try:
        report["bound"] = bound = _integer("--bound", args.bound, 0, MAX_STEP_BOUND)
        tol, seed = _tolerance(args.tol), _integer("--seed", args.seed)
        ctx = {"bound": bound, "tol": tol, "seed": seed}
        if hasattr(args, "op"):  # entropy and selfcheck read the command line
            name, request = args.op, args
        else:
            request = _load_job(args)
            name = request["op"].value
            if args.job is not None:
                report["op"] = name
        # a JSON list or object as the op cannot be a key of OPS
        if not isinstance(name, str) or (args.verb, name) not in OPS:
            raise ParseError(f"unknown {args.verb} op {name!r}")
        # an import statement's path, so that -X importtime lists the module
        verb = __import__(f"{__package__}.verbs.{args.verb}", fromlist=["_"])
        report["result"] = getattr(verb, f"{args.verb}_{name}")(request, ctx)
    except CheckFailure as failure:
        report["ok"] = False
        report["result"] = failure.result
        exit_code = 1
    except ParseError as exc:
        report["ok"] = False
        report["error"] = str(exc)
        exit_code = 2
    except ConvexionError as exc:  # raised outside every decoder, so at the job's root
        report["ok"] = False
        error = f"{type(exc).__name__}: {exc}"
        report["error"] = str(request.error(error)) if isinstance(request, jsonio.Job) else error
        exit_code = 2
    return exit_code, report, args.report


def _write_file(flag, path, text):
    """Write text to the file that flag names; a path that cannot be
    written is a ParseError naming both."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"{flag} {path}: cannot write: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    exit_code, report, report_path = run(argv)
    text = jsonio.canonical_json(report)
    if report_path:
        try:
            _write_file("--report", report_path, text)
        except ParseError as exc:
            sys.stderr.write(f"convexion: {exc}\n")
            return 2
    else:
        sys.stdout.write(text)
    return exit_code
