"""dicregion benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload project-k6 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the library is imported from
the checkout's ``src/``.  ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` the per-layer ones.  Human-readable lines come first and the
last line of standard output is one JSON object.  See README.md here.
"""

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench_traces")
SETUP_REPEATS = 5
REPEAT_CHECK_INSTANCES = 2  # traced a second time to prove the counts repeat
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def untraced_span(name):
    return contextlib.nullcontext()


@dataclass
class Attempt:
    k: int  # pool index
    round: int
    position: int
    outcome: object
    cause: str | None


class Run:
    """The attempts of one run and the problems found with them."""

    def __init__(self, workload, pool, seed):
        self.workload = workload
        self.pool = pool
        self.seed = seed
        self.seq_rng = random.Random(seed)
        self.attempts: list[Attempt] = []
        self.problems: list[str] = []
        self.bad_keys: set[str] = set()

    def order(self):
        """The next round: a seeded permutation of the pool, each position
        with the seed of its own random stream."""
        n = len(self.pool)
        return [(k, self.seq_rng.getrandbits(64)) for k in self.seq_rng.sample(range(n), n)]

    def attempt(self, k, bits, span=untraced_span):
        """Run one instance; (outcome, None) or (None, cause)."""
        try:
            return self.workload.run(self.pool[k], random.Random(bits), span), None
        except Exception as exc:  # every failure is counted and reported, never skipped
            return None, f"{type(exc).__name__}: {exc}"

    def failed(self) -> int:
        return sum(1 for a in self.attempts
                   if a.cause is not None or self.pool[a.k].key in self.bad_keys)


def set_up(workload, dicregion):
    """Generate the pool and validate each distinct channel."""
    pool = workload.pool()
    problems = []
    for spec in {id(inst.spec): inst.spec for inst in pool}.values():
        report = dicregion.validate_injectivity(spec)
        if not report.is_injective:
            problems.append(f"generated channel is not injective: {report.violations[:1]}")
    return pool, problems


def timed_rounds(run, seconds, probe):
    """Whole rounds of the pool, back to back, until `seconds` have passed.

    A probe runs before each instance and once after the last, so each
    instance sits between two.  Returns the instance wall times, the probe
    times (one more than the instances) and the length of the timed phase."""
    times, probes = [], [probe()]
    start = time.perf_counter()
    for rnd in itertools.count():
        for pos, (k, bits) in enumerate(run.order()):
            t0 = time.perf_counter()
            outcome, cause = run.attempt(k, bits)
            times.append(time.perf_counter() - t0)
            probes.append(probe())
            run.attempts.append(Attempt(k, rnd, pos, outcome, cause))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return times, probes, elapsed


def traced_round(run, tracer, probe):
    """One round, each instance run untraced and traced, alternating which
    goes first, with a probe between runs as in `timed_rounds`.  Returns
    the run times, the probe times and which runs were traced."""
    times, probes, traced = [], [probe()], []
    for pos, (k, bits) in enumerate(run.order()):
        for traced_pass in ((False, True) if pos % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced_pass:
                tracer.instance = run.pool[k].key
                with tracer.installed(), tracer.span("instance"):
                    outcome, cause = run.attempt(k, bits, tracer.span)
                run.attempts.append(Attempt(k, 0, pos, outcome, cause))
            else:
                run.attempt(k, bits)
            times.append(time.perf_counter() - t0)
            probes.append(probe())
            traced.append(traced_pass)
    return times, probes, traced


def counts_repeat(run, tracer, spans) -> bool:
    """Trace the first instances of another round and compare their counts."""
    again = spans.Tracer()
    for k, bits in run.order()[:REPEAT_CHECK_INSTANCES]:
        again.instance = run.pool[k].key
        with again.installed(), again.span("instance"):
            run.attempt(k, bits, again.span)
    first = spans.instance_counts(tracer.spans)
    return all(first[key] == c for key, c in spans.instance_counts(again.spans).items())


def check_outputs(run, oracle) -> int:
    """Oracle on the first output of each pool member; every later output of
    that member must be identical.  Returns how many members were checked."""
    record = oracle.load_record()
    first = {}
    for a in run.attempts:
        key = run.pool[a.k].key
        where = f"key={key} seed={run.seed} round={a.round} position={a.position}"
        if a.cause is not None:
            run.problems.append(f"FAILED {where}: {a.cause}")
        elif key not in first:
            first[key] = a.outcome
            rng = random.Random(f"oracle/{run.seed}/{key}")
            found = oracle.check_instance(run.pool[a.k], a.outcome, record, rng)
            if found:
                run.bad_keys.add(key)
                run.problems.extend(f"FAILED {where}: oracle: {p}" for p in found[:5])
        elif a.outcome.regions != first[key].regions:
            run.bad_keys.add(key)
            run.problems.append(f"FAILED {where}: output differs from the earlier run of {key}")
    return len(first)


def tail_percentile(times):
    """The highest whole percentile with at least ten samples beyond it,
    or None when that is not above the median."""
    p = math.floor(100 * (1 - 10 / len(times)))
    if p <= 50:
        return None
    return p, statistics.quantiles(times, n=100, method="inclusive")[p - 1]


def main(argv=None):
    args = parse_args(argv)
    # numpy reads these once, when it is first imported below.
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "dicregion", "__init__.py")):
        print(f"perfbench: no dicregion sources at {SRC}", file=sys.stderr)
        return 2
    # numpy's own import is a cost of the environment, not of the library;
    # `setup_s` times the library's import on top of it.
    import numpy

    sys.path.insert(0, SRC)
    before = calibrate.probe_s()
    t0 = time.perf_counter()
    import dicregion
    import_s = calibrate.between_probes([time.perf_counter() - t0],
                                        [before, calibrate.probe_s()])[0]
    if not os.path.abspath(dicregion.__file__).startswith(SRC + os.sep):
        print(f"perfbench: dicregion was imported from {dicregion.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    setup_times, setup_probes = [], [calibrate.probe_s()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer:
            tracer.instance = "setup"
            with tracer.installed():
                pool, setup_problems = set_up(workload, dicregion)
        else:
            pool, setup_problems = set_up(workload, dicregion)
        setup_times.append(time.perf_counter() - t0)
        setup_probes.append(calibrate.probe_s())

    run = Run(workload, pool, args.seed)
    run.problems.extend(setup_problems)
    try:
        workload.run(workloads.warmup_instance(), random.Random(0), untraced_span)
    except Exception as exc:  # reported like any failed instance
        run.problems.append(f"FAILED warm-up instance: {type(exc).__name__}: {exc}")

    if tracer:
        times, probes, traced = traced_round(run, tracer, calibrate.probe_s)
        repeats = counts_repeat(run, tracer, spans)
        if not repeats:
            run.problems.append("per-layer counts differ between two traced runs of one instance")
    else:
        times, probes, elapsed = timed_rounds(run, args.seconds, calibrate.probe_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import scipy

    import oracle

    n_checked = check_outputs(run, oracle)
    attempted = len(run.attempts)
    failed = run.failed()
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
    }
    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} pool={len(pool)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    scaled = calibrate.between_probes(times, probes)
    if tracer:
        overhead = spans.overhead_frac([s for s, t in zip(scaled, traced) if not t],
                                       [s for s, t in zip(scaled, traced) if t])
        metrics = spans.layer_metrics(tracer.spans, len(run.attempts), SETUP_REPEATS)
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{workload.name}-seed{args.seed}.jsonl")
        tracer.write(path, {"workload": workload.name, "seed": args.seed, "env": env})
        print(f"traced pass: {len(run.attempts)} instances (one round of the pool), "
              f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}; per-layer "
              f"times are raw wall seconds, trace.overhead_frac uses probe-scaled ones")
        print(f"per-layer counts repeat exactly: {'yes' if repeats else 'NO'} "
              f"({REPEAT_CHECK_INSTANCES} instances traced a second time)")
    else:
        ok = attempted - failed
        setup_s = import_s + statistics.median(calibrate.between_probes(setup_times, setup_probes))
        tail = tail_percentile(scaled)
        metrics = {
            "instance_s": (statistics.median(scaled), "s"),
            "instances_per_s": (ok / math.fsum(scaled), "1/s"),
            "setup_s": (setup_s, "s"),
            "ok_frac": (ok / attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"timed phase: {elapsed:.3f} s, {attempted} instances "
              f"({attempted // len(pool)} rounds of the pool)")
        print(f"raw wall time: instance median {statistics.median(times):.6g} s, "
              f"{ok / elapsed:.6g} instances/s over the timed phase; probe median "
              f"{statistics.median(probes) * 1e3:.4g} ms (reference "
              f"{calibrate.REFERENCE_S * 1e3:g} ms)")
        print(f"instance_s: median of n={len(scaled)}; " + (
            f"p{tail[0]} {tail[1]:.6g} s" if tail
            else "no percentile above the median has ten samples beyond it"))
        print(f"setup_s: import {import_s:.6g} s + median of {SETUP_REPEATS} set-ups")
        print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print("\n".join(run.problems) if run.problems else "no problems found")
    print(f"oracle: {n_checked} distinct instances checked against scipy/HiGHS and the "
          f"recorded left-hand sides; {len(run.bad_keys)} failed")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
