"""convexion benchmark runner.

    python3 perfbench/run.py --workload eq-tensor --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
Each workload is a closed loop: one client, one query at a time, the next
query sent when the last one returned.  Every output is checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload in turn, each in its own process.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("eq-tensor", "eq-fuzz", "laws", "cli-oneshot")
MIN_QUERIES = 100  # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 5
# On a shared 2-vCPU virtual machine the speed swings by up to 2x within
# minutes (README.md).  A fixed reference loop, which no change
# to src/ can make faster or slower, is timed every REFERENCE_EVERY_S
# between queries, and every end-to-end time is scaled by
# REFERENCE_NOMINAL_S over the run's mean reference time: it reads as if
# the reference had taken its nominal time.  The mean, not the median,
# because a query's time adds up the host's speed over its whole length.
REFERENCE_NOMINAL_S = 0.006
REFERENCE_EVERY_S = 0.2
TRACE_SLICES = 8
CLI_VERBS = ("dist", "eq", "join", "tensor", "prop", "groth", "omon", "twist",
             "entropy", "selfcheck")
# ROADMAP re-anchor baselines (best of 3, Python 3.11.7), for the probes.
PROBE_BASELINES = {
    "probe.distribution_64_us": 272.0,
    "probe.convex_combine_us": 726.0,
    "probe.flatten_64_us": 859.0,
    "probe.compose_3x3_us": 164.0,
    "probe.nullspace_20x30_ms": 71.0,
    "probe.segment_eq_bound4_s": 1.8,
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library(root):
    """Import convexion from the checkout's src/, and prove it came from
    there (it is not installed)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "convexion", "__init__.py")):
        fail(f"no convexion sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import convexion

    origin = os.path.realpath(convexion.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        fail(f"convexion imported from {origin}, not from {src}")
    import queries  # noqa: F401  (imports the library modules the workloads use)

    return src


# -- host speed ---------------------------------------------------------------------------


def reference():
    """Fixed standard-library work like the library's own: an exact
    elimination on a 9x12 Fraction matrix, dict updates and a harmonic sum."""
    rng = random.Random(0)
    rows = [[F(rng.randint(-3, 3)) for _ in range(12)] for _ in range(9)]
    rank = 0
    for col in range(12):
        pivot_row = next((i for i in range(rank, 9) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        rows[rank] = [v / pivot for v in rows[rank]]
        for i in range(9):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    counts = {}
    for i in range(4000):
        key = i * 7919 % 1543
        counts[key] = counts.get(key, 0) + i
    total = F(0)
    for i in range(1, 100):
        total += F(1, i)
    return rank, len(counts), total


class HostSpeed:
    """Times of the reference loop over one run."""

    def __init__(self):
        self.samples = []
        self.due = 0.0

    def sample(self):
        """Time the reference once; returns the seconds it took."""
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.due = t1 + REFERENCE_EVERY_S
        return t1 - t0

    def sample_if_due(self):
        return self.sample() if time.perf_counter() >= self.due else 0.0

    def mean_s(self):
        return statistics.mean(self.samples)

    def scale(self):
        """Factor that turns a time measured in this run into a time at
        nominal speed."""
        return REFERENCE_NOMINAL_S / self.mean_s()


# -- setup ----------------------------------------------------------------------------------


def generate(workload, seed):
    import inputs

    if workload == "eq-tensor":
        return inputs.eq_tensor_inputs(seed)
    if workload == "eq-fuzz":
        return inputs.eq_fuzz_inputs(seed)
    if workload == "laws":
        return inputs.laws_inputs(seed)
    import cli_jobs

    return cli_jobs.cli_jobs(seed)


def write_jobs(jobs, workdir):
    paths = []
    for i, job in enumerate(jobs):
        path = os.path.join(workdir, f"job{i}.json")
        if job["payload"] is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job["payload"], fh)
        paths.append(path)
    return paths


def stream_for(workload, data, src, workdir):
    import queries

    if workload == "eq-tensor":
        return queries.eq_tensor_stream(data)
    if workload == "eq-fuzz":
        return queries.eq_fuzz_stream(data)
    if workload == "laws":
        return queries.laws_stream(data)
    return queries.cli_stream(data, write_jobs(data, workdir), queries.cli_env(src))


def warm_up(workload, src):
    """One fixed query outside the inputs, so code paths and the file cache
    are warm before timing."""
    import inputs
    import queries

    if workload == "cli-oneshot":
        subprocess.run([sys.executable, "-m", "convexion", "selfcheck"],
                       capture_output=True, env=queries.cli_env(src), check=True)
        return
    rng = random.Random(0)
    if workload == "laws":
        queries._law_query(inputs.law_case(rng, 2))
    else:
        queries._fuzz_query(inputs.fuzz_query(rng), inputs.FUZZ_BOUND)


def setup(workload, seed, src, workdir, import_s, host):
    """Set up SETUP_REPEATS times: generate the inputs (the same seed must
    give the same digest each time), build the query stream (writing the
    job files of cli-oneshot) and warm up with one query.  Set-up time is
    the import time plus the median time of one set-up.  The reference is
    timed before each set-up."""
    import inputs

    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        host.sample()
        data = stream = None  # one set of inputs in memory at a time
        t0 = time.perf_counter()
        data = generate(workload, seed)
        t1 = time.perf_counter()
        digests.add(inputs.digest(
            [(j["verb"], j["payload"], j["label"]) for j in data]
            if workload == "cli-oneshot" else data))
        t2 = time.perf_counter()
        stream = stream_for(workload, data, src, workdir)
        warm_up(workload, src)
        times.append(t1 - t0 + time.perf_counter() - t2)
    if len(digests) != 1:
        fail(f"seed {seed} gave different inputs on repeated generation: {sorted(digests)}")
    print(f"setup: import {import_s:.4f} s, then {statistics.median(times):.4f} s "
          f"(median of {SETUP_REPEATS} set-ups)")
    return stream, digests.pop(), import_s + statistics.median(times)


# -- the closed loop ----------------------------------------------------------------------------


class Run:
    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.failed = []
        self.escaped = []
        self.verdicts = {}
        self.first_verdicts = {}
        self.elapsed = 0.0
        self.resident_mb = 0.0  # largest resident set seen between queries

    def extend(self, other):
        for name in ("latencies", "kinds", "failed", "escaped"):
            getattr(self, name).extend(getattr(other, name))
        for name in ("verdicts", "first_verdicts"):
            mine = getattr(self, name)
            for key, value in getattr(other, name).items():
                mine[key] = mine.get(key, 0) + value
        self.elapsed += other.elapsed
        self.resident_mb = max(self.resident_mb, other.resident_mb)


def closed_loop(stream, seconds, host, tracer=None, min_queries=MIN_QUERIES):
    """Run queries one at a time until ``seconds`` have passed and at least
    ``min_queries`` have completed.  Time spent on the reference loop is
    left out of the elapsed time.  The resident set is read whenever the
    reference is timed, and at the end."""
    run = Run()
    start = time.perf_counter()
    deadline = start + seconds
    n = 0
    reference_s = 0.0
    for kind, query in stream:
        spent = host.sample_if_due()
        if spent:
            reference_s += spent
            run.resident_mb = max(run.resident_mb, resident_mb())
        if tracer:
            tracer.query_id += 1
        t0 = time.perf_counter()
        try:
            outcome = query()
        except Exception as exc:  # a query that raises is a failed query
            import queries

            outcome = queries.Outcome(False, note=f"{kind}: raised {exc!r}")
        t1 = time.perf_counter()
        run.latencies.append(t1 - t0)
        run.kinds.append(kind)
        if outcome.escaped:
            run.escaped.append(outcome.note)
        elif not outcome.ok:
            run.failed.append(outcome.note or kind)
        if outcome.verdict:
            run.verdicts[outcome.verdict] = run.verdicts.get(outcome.verdict, 0) + 1
            if len(run.latencies) <= MIN_QUERIES:
                run.first_verdicts[outcome.verdict] = run.first_verdicts.get(outcome.verdict, 0) + 1
        n += 1
        if t1 >= deadline and n >= min_queries:
            break
    run.elapsed = time.perf_counter() - start - reference_s
    run.resident_mb = max(run.resident_mb, resident_mb())
    return run


def resident_mb():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb(run, workload):
    """The largest child's peak for cli-oneshot.  Otherwise the largest
    resident set of the timed loop: the process peak itself is set by the
    repeated input generation of set-up, and it moved by 9% between seeds
    as the allocator reused freed memory or not."""
    if workload == "cli-oneshot":
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # kilobytes on Linux
    return run.resident_mb


def end_to_end(run, workload, setup_s, host):
    """The end-to-end metrics, every time at nominal host speed (the
    measured values are printed beside them)."""
    n = len(run.latencies)
    deciles = statistics.quantiles(run.latencies, n=10)
    scale = host.scale()
    measured = {"latency_p50_ms": deciles[4] * 1000, "latency_p90_ms": deciles[8] * 1000,
                "queries_per_s": n / run.elapsed, "setup_s": setup_s}
    print(f"host: reference mean {host.mean_s() * 1000:.4f} ms, median "
          f"{statistics.median(host.samples) * 1000:.4f} ms over {len(host.samples)} "
          f"samples (nominal {REFERENCE_NOMINAL_S * 1000:g} ms), time scale {scale:.4f}")
    print("measured: " + " ".join(f"{k}={v:.6g}" for k, v in measured.items()))
    return {
        "latency_p50_ms": (measured["latency_p50_ms"] * scale, "ms"),
        "latency_p90_ms": (measured["latency_p90_ms"] * scale, "ms"),
        "queries_per_s": (measured["queries_per_s"] / scale, "1/s"),
        "ok_share": ((n - len(run.failed) - len(run.escaped)) / n, "share"),
        "peak_rss_mb": (peak_rss_mb(run, workload), "MB"),
        "setup_s": (setup_s * scale, "s"),
    }


def report_run(run, workload):
    n = len(run.latencies)
    print(f"queries: {n} in {run.elapsed:.3f} s (latency samples: {n})")
    print(f"failed_share: {len(run.failed) / n:.6f} ({len(run.failed)} of {n})")
    for note in run.failed[:20]:
        print(f"  failed: {note}")
    if workload == "cli-oneshot":
        print(f"escaped_share: {len(run.escaped) / n:.6f} (malformed jobs that escaped, "
              f"{len(run.escaped)} of {n} jobs)")
        for note in sorted(set(run.escaped)):
            print(f"  escaped: {note}")
    if run.verdicts:
        decided = sum(run.verdicts.values())
        print("verdicts: " + " ".join(f"{k}={v}" for k, v in sorted(run.verdicts.items()))
              + f"; unknown_share: {run.verdicts.get('unknown', 0) / decided:.6f}")
        print("verdicts in the first %d queries: " % MIN_QUERIES
              + " ".join(f"{k}={v}" for k, v in sorted(run.first_verdicts.items())))


# -- traced run ------------------------------------------------------------------------------------


def median_wall(argv, env, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, capture_output=True, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes():
    """ROADMAP's re-anchor instances as single calls, best of three."""
    import inputs
    import queries
    from convexion import distribution, linalg, matprop

    rng = random.Random(0)
    w64 = inputs.random_weights(rng, inputs.ATOMS, 6)
    w64b = inputs.random_weights(rng, inputs.ATOMS, 6)
    p, q = distribution.FiniteDistribution(w64), distribution.FiniteDistribution(w64b)
    a = matprop.RMatrix(inputs.convex_matrix(rng, 3, 3))
    b = matprop.RMatrix(inputs.convex_matrix(rng, 3, 3))
    ints = [[rng.randint(-5, 5) for _ in range(30)] for _ in range(20)]
    segment = inputs.segment_instance()
    cases = {
        "probe.distribution_64_us": (1e6, lambda: distribution.FiniteDistribution(w64)),
        "probe.convex_combine_us": (1e6, lambda: distribution.convex_combine([F(1, 3), F(2, 3)], [p, q])),
        "probe.flatten_64_us": (1e6, lambda: distribution.flatten(
            distribution.FiniteDistribution({p: F(1, 2), q: F(1, 2)}))),
        "probe.compose_3x3_us": (1e6, lambda: matprop.compose(a, b)),
        "probe.nullspace_20x30_ms": (1e3, lambda: linalg.nullspace(ints, 30)),
        "probe.segment_eq_bound4_s": (1.0, lambda: queries._fixed_query(segment)),
    }
    out = {}
    for name, (scale, call) in cases.items():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - t0)
        out[name] = (best * scale, name.rsplit("_", 1)[1])
        print(f"{name}: {best * scale:.4g} (ROADMAP baseline {PROBE_BASELINES[name]:g})")
    return out


def traced(workload, stream, seconds, src, host):
    """TRACE_SLICES slices on the continuing stream, untraced and traced in
    turn (the speed of a shared machine drifts within seconds, so the two
    modes alternate); the ratio of median latencies, traced over untraced,
    is the tracing overhead.  The median, because the slices run different
    queries and a few fixed ones take seconds.  cli-oneshot runs the
    library in child processes, so it gets no in-process spans; its layer
    numbers are wall times from outside."""
    import spans

    tracer = spans.Tracer()
    plain, run = Run(), Run()
    for part_no in range(TRACE_SLICES):
        on = part_no % 2 == 1
        if on and workload != "cli-oneshot":
            tracer.install()
        try:
            part = closed_loop(stream, seconds / TRACE_SLICES, host, tracer if on else None,
                               2 * MIN_QUERIES // TRACE_SLICES)
        finally:
            tracer.uninstall()
        (run if on else plain).extend(part)
    metrics = tracer.metrics()
    metrics.update(probes())
    overhead = statistics.median(run.latencies) / statistics.median(plain.latencies) - 1
    metrics["trace.overhead_share"] = (overhead, "ratio")
    metrics["host.reference_ms"] = (host.mean_s() * 1000, "ms")
    print(f"tracing overhead: {overhead:+.4f} (median latency traced over untraced, "
          f"{len(run.latencies)} and {len(plain.latencies)} queries)")
    lp_calls = tracer.calls["linalg.solve_eq_nonneg"]
    print(f"presentation.lp_useful_share base: {lp_calls} LP calls")
    print("span sample (name, start, end, span, parent, query):")
    for span in tracer.sample[:16]:
        print("  " + " ".join(map(str, span)))
    cli = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0}
    if workload == "cli-oneshot":
        import queries

        env = queries.cli_env(src)
        cli["cli.interpreter_s"] = median_wall([sys.executable, "-c", "pass"], env)
        cli["cli.import_s"] = median_wall(
            [sys.executable, "-c", "import convexion.cli"], env) - cli["cli.interpreter_s"]
    for verb in CLI_VERBS:
        walls = [t for t, k in zip(run.latencies, run.kinds) if k == verb]
        cli[f"cli.{verb}.wall_s"] = statistics.mean(walls) if walls else 0.0
    for name, value in cli.items():
        metrics[name] = (value, "s")
    return run, metrics


# -- main ------------------------------------------------------------------------------------------


def run_all(args):
    results = {}
    ok = True
    attempted = failed = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {workload} exited with {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        for name, metric in last["metrics"].items():
            results[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": results}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
        return
    root = os.getcwd()
    t0 = time.perf_counter()
    src = import_library(root)
    import_s = time.perf_counter() - t0
    nproc = len(os.sched_getaffinity(0))
    print(f"workload: {args.workload} seed: {args.seed} seconds: {args.seconds} trace: {args.trace}")
    print(f"python: {platform.python_version()} nproc: {nproc} library: {src}")
    workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
    if args.workload == "cli-oneshot":
        os.makedirs(workdir)
    host = HostSpeed()
    try:
        stream, digest, setup_s = setup(args.workload, args.seed, src, workdir, import_s, host)
        print(f"inputs digest: {digest}")
        if args.trace:
            run, metrics = traced(args.workload, stream, args.seconds, src, host)
        else:
            run = closed_loop(stream, args.seconds, host)
            metrics = end_to_end(run, args.workload, setup_s, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    report_run(run, args.workload)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    attempted = len(run.latencies)
    print(json.dumps({
        "correct": not run.failed,
        "attempted": attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
