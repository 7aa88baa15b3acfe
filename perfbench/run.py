"""The mvergo benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run drives ``mvergo.cli.main`` in a
fresh single-threaded worker process and checks every output without
trusting the solver that produced it (see checks.py).

Workloads (sizes in workloads.py):

- ``sweep``: Figure 1's pipeline, ``sweep --f cos`` on doubling and
  three-branch.  The float Karp grid solve dominates, then integer-path orbit
  enumeration: the target of a faster grid bound or orbit enumerator.
- ``hull``: Figure 2's pipeline, ``hull --builtin pq:2,3``.  Rational
  lift-search enumeration and the exact convex hull; no grid and no Karp, so
  it is the control for grid-bound changes.
- ``finite-large``: ``mea`` then ``subaction`` on a seeded graph of 128
  states, a fresh one every pass.  The exact Fraction Karp dominates: the
  target of a max-plus kernel.
- ``finite-small``: ``verify`` plus ``measures`` on small seeded graphs,
  fresh ones every pass.  Thousands of tiny exact calls, so it measures
  per-call overhead and the exact LP.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics:

- ``wall_ref_s``: median seconds of one pass of the workload's CLI calls,
  after import, each call rescaled to the reference host speed by the
  probes measured just before and after it (see hostspeed.py; raw seconds
  vary up to twofold with the host's load);
- ``setup_s``: median seconds from starting a worker until ``mvergo.cli`` is
  imported, rescaled the same way;
- ``peak_rss_mb``: the worker's peak resident memory.

Failed calls (non-zero exit, exception or failed output check) are counted
in ``failed`` against ``attempted``.  With ``--trace 1`` the last line
reports the per-layer metrics of tracing.py, from traced passes each paired
with an untraced pass on the same inputs.  The line before the last records
the environment (versions, CPU, git commit, the seconds of the pure-Python
calibration probe), the inputs, the raw pass and set-up seconds and the
speed factors.

``--size tiny`` shrinks every workload for the smoke test (smoke.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 11  # the first is discarded: it may compile bytecode
WORKER_TIMEOUT_S = 150
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup() -> tuple[float, list[float]]:
    """Seconds from starting a worker until it has imported mvergo.cli: the
    median rescaled to the reference host speed, and the raw samples."""
    samples = []
    rescaled = []
    before = hostspeed.speed_factor(workloads.SETUP_PROBE_MIX)
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(WORKER), "--ready-only"], cwd=ROOT,
                              env=worker_env(), stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                rc = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
            if rc != 0 or line.strip() != "ready":
                raise RuntimeError("the worker could not import mvergo.cli")
        after = hostspeed.speed_factor(workloads.SETUP_PROBE_MIX)
        samples.append(elapsed)
        rescaled.append(hostspeed.rescale(elapsed, before, after))
        before = after
    return statistics.median(rescaled[1:]), samples


def run_worker(args, workdir: Path) -> dict:
    result = workdir / "result.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--workdir", str(workdir), "--result", str(result)]
    subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=sys.stderr,
                   timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(result.read_text(encoding="utf-8"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity() -> dict[str, str]:
    """The git commit when the checkout is a repository, and always a hash of
    the package sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    out = {"src_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        out["git_commit"] = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    else:
        out["git_commit"] = "unknown"
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "mvergo" / "cli.py").is_file():
        print(f"error: no mvergo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, setup_raw = (None, []) if args.trace else measure_setup()
        summary = run_worker(args, workdir)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, (unit, _w) in tracing.per_layer_metrics().items()}
        metrics = {name: {"value": summary["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
        gaps = summary["coverage_gaps"]
        for name in gaps:
            print(f"span coverage: {name} did not fire on {args.workload}", file=sys.stderr)
    else:
        metrics = {
            "wall_ref_s": {"value": summary["wall_ref_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
        gaps = []

    env = dict(summary["env"], cpu_model=cpu_model(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)),
               calibration_s=hostspeed.kernel_seconds("python"), **source_identity())
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": env, "inputs": summary["inputs"],
                      "wall_s": summary["wall_s"], "pass_walls": summary["pass_walls"],
                      "pass_rescaled": summary["pass_rescaled"],
                      "setup_raw_s": setup_raw, "speed_factors": summary["speed_factors"]}))
    print(json.dumps({
        "correct": summary["failed"] == 0 and not gaps,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
