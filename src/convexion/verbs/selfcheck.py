"""selfcheck: the PROP laws and the counterexample, on built-in inputs."""

from ..cli import _checked


def selfcheck_selfcheck(args, ctx):
    from ..matprop import RMatrix, compose, convex_matrices, direct_sum, is_convex_matrix, permute
    from ..tensor import check_biconvex_not_convex_counterexample

    report = check_biconvex_not_convex_counterexample()
    checks = {"counterexample_unequal": report.unequal}

    mats = list(convex_matrices(2, 2, 2))
    checks["conv_closed_under_compose"] = all(
        is_convex_matrix(compose(a, b)) for a in mats for b in mats
    )
    checks["conv_closed_under_direct_sum"] = all(
        is_convex_matrix(direct_sum(a, b)) for a in mats[:8] for b in mats[:8]
    )
    checks["conv_closed_under_permute"] = all(
        is_convex_matrix(permute((1, 0), m, (0, 1))) for m in mats
    )
    small = list(convex_matrices(1, 2, 2))
    checks["interchange_law"] = all(
        compose(direct_sum(p, q), direct_sum(r, s))
        == direct_sum(compose(p, r), compose(q, s))
        for p in small[:4]
        for q in small[:4]
        for r in (RMatrix.identity(2),)
        for s in (RMatrix.identity(2),)
    )
    checks["single_input_convex_is_unique"] = all(
        list(convex_matrices(n, 1, 3)) == [RMatrix.column_of_ones(n)]
        for n in (1, 2, 3)
    )
    ok = all(checks.values())
    return _checked(ok, {"checks": checks, "ok": ok, "assumptions_used": ["counterexample_value"]})
