"""Benchmark of ruellekit: one workload per run, as a closed loop in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from `src/` next to this directory.  The run
  1. imports numpy, mpmath and ruellekit (not timed);
  2. sets up once: generates the workload's input pool from --seed and runs
     its warm-up operations;
  3. runs whole rounds of the pool, one operation after the other, until
     --seconds of wall time have passed and at least MIN_OPS operations
     are done; each operation is timed alone and its outputs are checked
     after its timer stops.  Between rounds, spread evenly over --seconds,
     it sets up SETUP_REPEATS - 1 more times (timed apart from the
     operations; the pool in use is kept), and `setup_s` is the median of
     all the set-ups;
  4. prints one JSON line: `correct`, `attempted`, `failed` and the metrics,
     the end-to-end ones with --trace 0 and the per-layer ones with
     --trace 1, and writes the same with more detail to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Set-ups are spread over the run, not run back to back, so that their
# median covers the host's fast and slow phases as the run does.
SETUP_REPEATS = 8
# the 90th percentile then has at least ten samples beyond it
MIN_OPS = 100


def import_program():
    init = SRC / "ruellekit" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no ruellekit sources at {init.parent}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ruellekit

    if Path(ruellekit.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported ruellekit from {ruellekit.__file__}, not from {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(keep_ops=wl.pool) if args.trace else None
    if tracer is not None:
        tracer.install()
        for key in tracer.absent:
            print(f"bench: {key} is absent; its metrics read 0", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{args.trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir()
    try:
        return measure(args, wl, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, tracer, workdir) -> int:
    import numpy as np

    seed_seq = [args.seed, zlib.crc32(wl.name.encode())]

    def set_up():
        t0 = time.perf_counter()
        inputs = wl.make_inputs(np.random.default_rng(seed_seq), workdir)
        for inp in inputs[:wl.warmup]:
            inp.run()
        return inputs, time.perf_counter() - t0

    inputs, dt = set_up()
    setup_times = [dt]
    gc.collect()

    durations = []
    attempted = failed = 0
    errors = []       # operations that raised inside the program
    mismatches = []   # outputs the checks refused
    started = time.perf_counter()
    while True:
        for inp in inputs:
            if tracer is not None:
                tracer.begin_op(attempted)
            t0 = time.perf_counter()
            try:
                ok, reports = inp.run()
            except Exception:
                ok, reports = False, None
                errors.append(traceback.format_exc())
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            attempted += 1
            if not ok:
                failed += 1
                continue
            durations.append(dt)
            try:
                wl.check(inp, reports)
            except Exception as exc:  # a malformed report is a wrong output too
                recipe = "; ".join(" ".join(argv) for argv in inp.argvs)
                mismatches.append(f"{recipe}: {exc!r}")
        elapsed = time.perf_counter() - started
        if len(setup_times) < SETUP_REPEATS:
            # the same seed makes the same pool; the one in use keeps its references
            if elapsed >= len(setup_times) * args.seconds / SETUP_REPEATS:
                setup_times.append(set_up()[1])
        elif elapsed >= args.seconds and attempted >= MIN_OPS:
            break
    wall = time.perf_counter() - started

    correct = not mismatches
    for p in (errors + mismatches)[:5]:
        print(f"bench: {p}", file=sys.stderr)
    if failed:
        print(f"bench: {failed} of {attempted} operations failed", file=sys.stderr)
    if not durations:
        return 1

    ms = np.asarray(durations) * 1e3
    p90 = {"value": float(np.percentile(ms, 90)), "unit": "ms"}
    if tracer is None:
        metrics = {"op_ms_p90": p90}
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024, "unit": "MB"}
    else:
        metrics = tracer.metrics(attempted)
        metrics["trace.op_ms_p90"] = p90
        tracer.write_spans(RESULTS / f"{wl.name}-seed{args.seed}.spans.jsonl")
    # Figures that follow the host's speed phase more than the program: kept
    # in the result file, not printed as metrics (see bench/README.md).
    informational = {
        "ops_per_s": {"value": len(durations) / float(np.sum(durations)), "unit": "1/s"},
        "op_ms_p50": {"value": float(np.percentile(ms, 50)), "unit": "ms"},
    }

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(result)
    detail.update(
        workload=wl.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        pool=len(inputs),
        rounds=attempted // len(inputs),
        wall_s=wall,
        setup_s_samples=setup_times,
        op_ms=[float(x) for x in ms],
        informational=informational,
        absent=tracer.absent if tracer is not None else [],
        python=sys.version.split()[0],
        numpy=np.__version__,
    )
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
