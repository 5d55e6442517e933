"""entropy: the entropy subcommands, which read the command line and the
JSON files it names, not a job."""

from fractions import Fraction

from .. import jsonio
from ..cli import _checked, _distribution, _integer, _write_file
from ..errors import ParseError
from ..semiring import RATIONAL


def _candidate_from_spec(spec: str):
    """A callable candidate, or None for the tabulated form."""
    from ..finprob import info_loss

    if spec == "info_loss":
        return info_loss
    if spec.startswith("scaled:"):
        try:
            c = float(Fraction(spec.split(":", 1)[1]))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"candidate {spec!r}: the scale is not a number") from None
        return lambda m: c * info_loss(m)
    if spec.startswith("custom-table:"):
        return None
    raise ParseError(f"unknown candidate {spec!r}")


def entropy_gen(args, ctx):
    from ..finprob import MAX_CARRIER, MAX_CHAINS, generate_corpus

    chains = _integer("--chains", args.chains, 0, MAX_CHAINS)
    max_carrier = _integer("--max-carrier", args.max_carrier, 1, MAX_CARRIER)
    corpus = generate_corpus(seed=ctx["seed"], n_chains=chains, max_carrier=max_carrier)
    _write_file("--out", args.out, jsonio.canonical_json(jsonio.encode_corpus(corpus)))
    return {"written": args.out, "morphisms": len(corpus.morphisms)}


def entropy_verify(args, ctx):
    from ..finprob import verify_entropy_axioms, verify_value_table

    corpus = jsonio.decode_corpus(jsonio.Job(jsonio.load_json(args.corpus), "verify"))
    candidate = _candidate_from_spec(args.candidate)
    if candidate is None:
        # tabulated candidate: one value per morphism and per chain
        # composite; only additivity and the scalar fit are checkable
        table = jsonio.Job(jsonio.load_json(args.candidate.split(":", 1)[1]), "custom-table")
        values, chain_values = table.floats("values"), table.floats("chain_values", [])
        report = verify_value_table(values, chain_values, corpus, tol=ctx["tol"])
    else:
        report = verify_entropy_axioms(candidate, corpus, tol=ctx["tol"])
    report["assumptions_used"] = ["info_loss_sign"]
    return _checked(report["all_passed"], report)


def entropy_eval(args, ctx):
    from ..finprob import info_loss, shannon_entropy

    if args.object:
        obj = jsonio.decode_prob_object(jsonio.Job(jsonio.load_json(args.object), "eval"))
        return {"entropy_nats": shannon_entropy(obj)}
    if not args.morphism:
        raise ParseError("entropy eval needs --object or --morphism")
    m = jsonio.decode_prob_morphism(jsonio.Job(jsonio.load_json(args.morphism), "eval"))
    return {"info_loss": info_loss(m), "assumptions_used": ["info_loss_sign"]}


def entropy_combine(args, ctx):
    from ..finprob import convex_combine_morphisms

    f = jsonio.decode_prob_morphism(jsonio.Job(jsonio.load_json(args.f), "combine"))
    g = jsonio.decode_prob_morphism(jsonio.Job(jsonio.load_json(args.g), "combine"))
    try:
        lam = RATIONAL.parse(args.lam)
    except ParseError as exc:
        raise ParseError(f"--lambda {args.lam}: {exc}") from None
    if lam > 1:
        raise ParseError(f"--lambda {args.lam}: expected a rational in [0, 1]")
    mixed = convex_combine_morphisms(lam, f, g)
    return {"morphism": jsonio.encode_prob_morphism(mixed)}


def entropy_xi(args, ctx):
    from ..finprob import dist_lax_xi
    from ..matprop import QConvOp

    payload = jsonio.Job(jsonio.load_json(args.input), "xi")
    dists = [jsonio.decode_distribution(d) for d in payload["dists"].items()]
    alpha = payload["alpha"].build(QConvOp, payload.rationals("alpha"))
    return _distribution(payload["dists"].build(dist_lax_xi, alpha, dists))
