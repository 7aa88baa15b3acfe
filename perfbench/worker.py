"""One benchmark run in a fresh single-threaded process.

``worker.py --ready-only`` imports ``mvergo.cli`` from the checkout's
``src`` and prints ``ready``; run.py times that to measure set-up.  Without
it the worker runs passes of the workload for the requested number of
seconds (at least MIN_PASSES), each on the inputs workloads.build gives for
its index, checks every pass's outputs, and writes a JSON summary to
``--result``.  With ``--trace 1`` each input is run untraced and then traced,
so the tracing overhead is measured on the same inputs, both rescaled to the
reference host speed.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3
MAX_REPORTED_FAILURES = 5


def import_program():
    """``mvergo.cli`` from this checkout, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    from mvergo import cli

    if Path(cli.__file__).resolve().parent != SRC / "mvergo":
        raise ImportError(f"mvergo was imported from {cli.__file__}, not from {SRC}")
    return cli


def ready() -> int:
    import_program()
    print("ready", flush=True)
    return 0


@dataclass
class Pass:
    wall: float  # seconds in the CLI calls
    rescaled: float  # the same, each call rescaled to the reference host speed
    calls: int
    failed: int
    observed: dict  # values the checker observed


def run_pass(cli, job, check, factors: list[float] | None = None) -> Pass:
    """Run and check every CLI call of one pass.  With ``factors``, a list of
    host-speed factors ending with one measured just before the pass, a factor
    is measured and appended after every call, and each call's seconds are
    rescaled by the mean of the factors on either side of it."""
    results = []
    wall = rescaled = 0.0
    for argv in job.calls:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - start
        wall += elapsed
        if factors is not None:
            factors.append(hostspeed.speed_factor(workloads.PROBE_MIX[job.workload]))
            rescaled += hostspeed.rescale(elapsed, factors[-2], factors[-1])
        results.append(checks.CallResult(argv, rc, buf.getvalue()))
    failed = {i for i, r in enumerate(results) if r.rc != 0}
    try:
        failures, observed = check(job, results)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failures = [(i, f"unreadable output: {exc!r}") for i in range(len(results))]
        observed = {}
    for _i, message in failures[:MAX_REPORTED_FAILURES]:
        print(f"check failed: {message}", file=sys.stderr)
    failed |= {i for i, _ in failures}
    return Pass(wall, rescaled, len(results), len(failed), observed)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    cli = import_program()
    import numpy

    check = checks.make_checker(args.workload, workloads.SIZES[args.size][args.workload])
    factors = [hostspeed.speed_factor(workloads.PROBE_MIX[args.workload])]
    tracer = tracing.Tracer() if args.trace else None
    untraced: list[Pass] = []
    overheads, inputs = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(untraced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        job = workloads.build(args.workload, args.seed, len(untraced), args.size, args.workdir)
        if job.info:
            inputs.append(job.info)
        result = run_pass(cli, job, check, factors)
        untraced.append(result)
        attempted += result.calls
        failed += result.failed
        if tracer is not None:
            tracer.install()
            try:
                result = run_pass(cli, job, check, factors)
            finally:
                tracer.uninstall()
            overheads.append(result.rescaled - untraced[-1].rescaled)
            attempted += result.calls
            failed += result.failed

    summary = {
        "wall_s": statistics.median(p.wall for p in untraced),
        "wall_ref_s": statistics.median(p.rescaled for p in untraced),
        "pass_walls": [p.wall for p in untraced],
        "pass_rescaled": [p.rescaled for p in untraced],
        "speed_factors": factors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
        "inputs": {"size": job.size, "passes": inputs},
    }
    if tracer is not None:
        per_layer = tracer.metrics(len(overheads), result.observed)
        per_layer["trace.overhead_s"] = statistics.median(overheads)
        summary["per_layer"] = per_layer
        summary["coverage_gaps"] = tracing.coverage_gaps(args.workload, per_layer)
    args.result.write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(ready() if sys.argv[1:] == ["--ready-only"] else main())
