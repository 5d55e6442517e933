"""Timing spans around the library's public functions, from outside.

A traced run replaces each function named in ``TARGETS`` by a wrapper,
in its module and under every name another ``convexion`` module imported
it as.  Nothing in ``src/`` changes, and the wrappers exist only in that
run.  A span is (name, start, end, parent span, query id); self time is a
span's duration minus the durations of its child spans.  Spans are folded
into per-name totals as they close; the spans of the first few queries are
kept whole as a sample.
"""

from __future__ import annotations

import sys
import time

TARGETS = (
    "linalg.solve_eq_nonneg", "linalg.nullspace",
    "presentation.eq", "presentation.verify_verdict", "presentation.quotient_mix",
    "tensor.tensor", "tensor.universal_map",
    "distribution.flatten", "distribution.pushforward", "distribution.convex_combine",
    "matprop.compose", "matprop.direct_sum", "matprop.permute",
    "join.join_mix", "join.copair",
    "finprob.shannon_entropy", "finprob.info_loss",
    "jsonio.decode_presentation", "jsonio.decode_distribution",
    "jsonio.encode_verdict", "jsonio.canonical_json",
)
SAMPLE_QUERIES = 2


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.counts = {}
        self.factor_tuples = set()
        self.query_id = -1
        self.sample = []  # whole spans of the first SAMPLE_QUERIES queries
        self._stack = []  # open spans: [name, start, child seconds, span id]
        self._next_id = 0
        self._installed = []

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def keep_max(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    # -- spans --------------------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        stack = self._stack

        def wrapper(*args, **kwargs):
            note = None
            if before:
                # counting from the arguments is tracer work: keep it out
                # of the caller's self time
                t0 = time.perf_counter()
                note = before(args)
                if stack:
                    stack[-1][2] += time.perf_counter() - t0
            span_id = self._next_id
            self._next_id += 1
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if self.query_id < SAMPLE_QUERIES:
                    parent = stack[-1][3] if stack else None
                    self.sample.append((name, start, end, span_id, parent, self.query_id))
            if after:
                after(note, result, duration)
            return result

        return wrapper

    def install(self):
        hooks = {
            "linalg.solve_eq_nonneg": (self._lp_shape, self._lp_outcome),
            "presentation.eq": (None, self._verdict),
            "tensor.tensor": (self._factors, None),
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "convexion" or n.startswith("convexion.")]
        for target in TARGETS:
            mod_name, attr = target.split(".")
            original = getattr(sys.modules["convexion." + mod_name], attr)
            wrapper = self._wrap(target, original, *hooks.get(target, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self):
        for module, key, original in self._installed:
            setattr(module, key, original)
        self._installed.clear()

    # -- counters at the boundaries ----------------------------------------------------

    def _lp_shape(self, args):
        rows = args[0]
        m = len(rows)
        n = len(rows[0]) if m else 0
        nonzeros = sum(1 for row in rows for v in row if v != 0)
        for key, value in (("rows", m), ("cols", n), ("nonzeros", nonzeros)):
            self.count(f"linalg.lp_{key}.sum", value)
            self.keep_max(f"linalg.lp_{key}.max", value)
        self.count("linalg.lp_cells", m * n)
        return None

    def _lp_outcome(self, _note, result, duration):
        outcome = "infeasible" if result is None else "feasible"
        self.count(f"linalg.lp_{outcome}.self_s", duration)
        self.count(f"linalg.lp_{outcome}.calls")

    def _verdict(self, _note, verdict, _duration):
        self.count(f"presentation.verdict.{verdict.status}")

    def _factors(self, args):
        self.factor_tuples.add(tuple(args[0]))
        return None

    # -- results ----------------------------------------------------------------------------

    def metrics(self):
        out = {}
        for target in TARGETS:
            out[f"{target}.calls"] = (self.calls[target], "count")
            out[f"{target}.self_s"] = (self.self_s[target], "s")
        c = self.counts.get
        for key in ("rows", "cols", "nonzeros"):
            out[f"linalg.lp_{key}.sum"] = (c(f"linalg.lp_{key}.sum", 0), "count")
            out[f"linalg.lp_{key}.max"] = (c(f"linalg.lp_{key}.max", 0), "count")
        cells = c("linalg.lp_cells", 0)
        out["linalg.lp_density"] = (c("linalg.lp_nonzeros.sum", 0) / cells if cells else 0.0, "ratio")
        out["linalg.lp_feasible.self_s"] = (c("linalg.lp_feasible.self_s", 0.0), "s")
        out["linalg.lp_infeasible.self_s"] = (c("linalg.lp_infeasible.self_s", 0.0), "s")
        lp_calls = self.calls["linalg.solve_eq_nonneg"]
        useful = c("linalg.lp_feasible.calls", 0)
        out["presentation.lp_useful_share"] = (useful / lp_calls if lp_calls else 0.0, "ratio")
        for status in ("equal", "distinct", "unknown"):
            out[f"presentation.verdict.{status}"] = (c(f"presentation.verdict.{status}", 0), "count")
        out["tensor.distinct_factor_tuples"] = (len(self.factor_tuples), "count")
        return out
