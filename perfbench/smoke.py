"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload it runs run.py with ``--size tiny`` untraced and traced,
and requires exit code 0, a last line with exactly the keys the benchmark
contract names, every metric that BENCHMARK.json lists (with its unit), and
every output check and span-coverage check passing.  It also requires
BENCHMARK.json's per-layer list to match tracing.py, and run.py to fail
without printing a result in a directory that holds only the benchmark.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def check_result(proc, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}: "
                        f"{proc.stderr[-2000:]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: {entry}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    traced = {name: unit for name, (unit, _w) in tracing.per_layer_metrics().items()}
    if per_layer != traced:
        problems.append("BENCHMARK.json per_layer differs from tracing.per_layer_metrics()")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for workload in workloads.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            found = check_result(run(ROOT, workload, trace), expected)
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, workloads.WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py did not fail in a directory without the program")
        print(f"bare directory: {'ok' if proc.returncode != 0 else 'FAILED'}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("RESULT " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
