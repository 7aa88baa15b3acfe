"""Output checks that do not trust the solver that produced the output.

Each checker is built once per run, outside the timed region, and then
inspects the inputs, files and standard output of every pass.  A check returns a
list of ``(call_index, message)`` failures plus observed values that the
traced run reports.  A checker may also raise OSError, ValueError,
KeyError or IndexError on output it cannot read; the caller then counts every
call of the pass as failed.

- sweep: lower <= upper on every row; beta_lower within 1e-12 of the value
  the program produced when the benchmark was introduced; beta_upper no
  looser than that value, so a speed-up cannot silently widen the
  certificate.
- hull: the rows are matched one to one against periodic orbits enumerated
  here by integer arithmetic, so the orbit count, the barycentres and the
  Sturmian flags are all recomputed; every on-hull row must be Sturmian.
- finite-large: every edge slack is recomputed exactly from the CSVs and the
  generated input; slack >= 0 on every edge plus one cycle of mean beta
  proves beta is the maximum cycle mean, and mea's alpha and cycle must
  agree with it.
- finite-small: verify must report RESULT PASS, and every extreme measure
  must be uniform on the states of a simple cycle of the generated graph.
"""

from __future__ import annotations

import cmath
import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import Job, cycle_supports

LOWER_TOL = 1e-12
UPPER_TOL = 1e-9
BARYCENTRE_TOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class CallResult:
    argv: list[str]
    rc: int | None  # None when the call raised
    stdout: str

    def out_dir(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class SweepCheck:
    def __init__(self, size: dict):
        s = size
        self.max_period = s["max_period"]
        key = f"sweep:{s['theta_grid']},{s['max_period']},{s['grid']}"
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[key]

    def check(self, job: Job, results: list[CallResult]):
        rows = read_csv(results[0].out_dir() / "sweep.csv")
        failures = []
        seen = set()
        gaps = []
        for row in rows:
            key = (row["system"], row["theta"])
            seen.add(key)
            ref = self.reference.get(row["system"], {}).get(row["theta"])
            lower, upper = float(row["beta_lower"]), float(row["beta_upper"])
            gaps.append(upper - lower)
            if ref is None:
                failures.append((0, f"unexpected sweep row {key}"))
            elif not lower <= upper:
                failures.append((0, f"{key}: beta_lower {lower} > beta_upper {upper}"))
            elif abs(lower - ref[0]) > LOWER_TOL:
                failures.append((0, f"{key}: beta_lower {lower} differs from {ref[0]}"))
            elif upper > ref[1] + UPPER_TOL:
                failures.append((0, f"{key}: beta_upper {upper} looser than {ref[1]}"))
            elif not 1 <= int(row["witness_period"]) <= self.max_period:
                failures.append((0, f"{key}: witness period {row['witness_period']}"))
        expected = {(name, theta) for name, per in self.reference.items() for theta in per}
        if seen != expected:
            failures.append((0, f"sweep rows {len(seen)} do not cover the {len(expected)} expected"))
        return failures, {"bounds.gap_mean": sum(gaps) / len(gaps) if gaps else 0.0}


class HullCheck:
    """Periodic orbits of x -> (q x + j)/p mod 1 by integer arithmetic.

    A period-k orbit satisfies (q^k - p^k) x = integer, so its points are
    Z/D with D = q^k - p^k, and the branch j of each step is the one that
    makes (q Z + j D)/p an integer.  Following that map from every Z in
    [0, D) and keeping the cycles of length exactly k lists every orbit of
    primitive period k once.
    """

    def __init__(self, size: dict):
        p, q = size["p"], size["q"]
        self.q = q
        self.orbits: dict[tuple[int, str], list[tuple[list[int], int]]] = {}
        self.total = 0
        for k in range(1, size["max_period"] + 1):
            d = q ** k - p ** k
            visited = bytearray(d)
            for start in range(d):
                if visited[start]:
                    continue
                zs, word = [], []
                z = start
                while not visited[z]:
                    visited[z] = 1
                    j = next(j for j in range(p) if (q * z + j * d) % p == 0)
                    zs.append(z)
                    word.append(j)
                    z = (q * z + j * d) // p % d
                if z != start or len(zs) != k:
                    continue
                r = zs.index(min(zs))
                zs, word = zs[r:] + zs[:r], word[r:] + word[:r]
                key = (k, "".join(map(str, word)))
                self.orbits.setdefault(key, []).append((zs, d))
                self.total += 1

    def sturmian(self, zs: list[int], d: int) -> bool:
        """All points within a closed arc of length 1/q."""
        pts = sorted(zs)
        gaps = [b - a for a, b in zip(pts, pts[1:])] + [pts[0] + d - pts[-1]]
        return len(pts) == 1 or self.q * max(gaps) >= (self.q - 1) * d

    def check(self, job: Job, results: list[CallResult]):
        rows = read_csv(results[0].out_dir() / "hull.csv")
        failures = []
        matched = set()
        on_hull = 0
        for row in rows:
            key = (int(row["period"]), row["itinerary"])
            z = complex(float(row["re"]), float(row["im"]))
            found = None
            for i, (zs, d) in enumerate(self.orbits.get(key, ())):
                bary = sum(cmath.exp(2j * cmath.pi * (x / d)) for x in zs) / len(zs)
                if (key, i) not in matched and abs(bary - z) <= BARYCENTRE_TOL:
                    found = (key, i)
                    break
            if found is None:
                failures.append((0, f"row {row['orbit']} {key} matches no periodic orbit"))
                continue
            matched.add(found)
            sturmian = self.sturmian(*self.orbits[key][found[1]])
            if int(row["sturmian"]) != sturmian:
                failures.append((0, f"row {row['orbit']}: sturmian flag {row['sturmian']}"))
            if int(row["on_hull"]):
                on_hull += 1
                if not sturmian:
                    failures.append((0, f"row {row['orbit']} is on the hull but not Sturmian"))
        if len(rows) != self.total:
            failures.append((0, f"{len(rows)} orbits listed, {self.total} exist"))
        if on_hull < 3:
            failures.append((0, f"only {on_hull} hull vertices"))
        return failures, {}


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{what}: cannot read {text!r} as an exact number") from exc


def check_large(job: Job, results: list[CallResult]):
    mea, sub = results
    g = job.graphs["large"]
    failures = []
    report = dict(line.split(" ", 1) for line in
                  (mea.out_dir() / "mea_report.txt").read_text(encoding="utf-8").splitlines())
    alpha = _parse_fraction(report["alpha"], "alpha")
    cycle = [int(s) for s in report["maximizing_cycle"].split("->")]
    edge_set = set(g.edges)
    closed = list(zip(cycle, cycle[1:] + cycle[:1]))
    if len(set(cycle)) != len(cycle) or any(e not in edge_set for e in closed):
        failures.append((0, f"maximizing cycle {cycle} is not a simple cycle of the input"))
    elif Fraction(sum(g.f[x] for x in cycle), len(cycle)) != alpha:
        failures.append((0, f"maximizing cycle mean differs from alpha {alpha}"))

    head = sub.stdout.split(",")[0]
    if not head.startswith("beta = "):
        return failures + [(1, f"no beta in {sub.stdout!r}")], {}
    beta = _parse_fraction(head[len("beta = "):].strip(), "beta")
    if beta != alpha:
        failures.append((1, f"beta {beta} != alpha {alpha}"))
    v = {int(r["state"]): _parse_fraction(r["v"], "v")
         for r in read_csv(sub.out_dir() / "subaction_states.csv")}
    edges = read_csv(sub.out_dir() / "subaction_edges.csv")
    if [(int(r["tail"]), int(r["head"])) for r in edges] != g.edges:
        return failures + [(1, "subaction edge list differs from the input")], {}
    for r in edges:
        t, h = int(r["tail"]), int(r["head"])
        slack = beta - (g.f[t] + v[t] - v[h])
        if slack < 0:
            failures.append((1, f"edge ({t}, {h}) has negative slack {slack}"))
            break
        if _parse_fraction(r["slack"], "slack") != slack or int(r["tight"]) != (slack == 0):
            failures.append((1, f"edge ({t}, {h}) reports slack {r['slack']}, recomputed {slack}"))
            break
    return failures, {}


def check_small(job: Job, results: list[CallResult]):
    failures = []
    verify = results[0]
    text = (verify.out_dir() / "verify.txt").read_text(encoding="utf-8")
    if "RESULT PASS" not in verify.stdout.splitlines() or text != verify.stdout:
        failures.append((0, "verify did not report RESULT PASS"))
    for index, res in enumerate(results[1:], start=1):
        name = res.out_dir().name
        graph = job.graphs[name]
        supports = cycle_supports(graph.n, graph.edges)
        rows = read_csv(res.out_dir() / "measures.csv")
        seen = set()
        for row in rows:
            w = [_parse_fraction(row[f"state_{x}"], "weight") for x in range(graph.n)]
            support = frozenset(x for x, m in enumerate(w) if m != 0)
            if (any(m < 0 for m in w) or not support
                    or any(w[x] != Fraction(1, len(support)) for x in support)):
                failures.append((index, f"{name}: {w} is not uniform on a state set"))
            elif support not in supports:
                failures.append((index, f"{name}: support {sorted(support)} is not a simple cycle"))
            elif support in seen:
                failures.append((index, f"{name}: measure on {sorted(support)} listed twice"))
            seen.add(support)
        if res.stdout.strip() != f"{len(rows)} extreme invariant measures":
            failures.append((index, f"{name}: stdout {res.stdout!r} disagrees with the CSV"))
    return failures, {}


def make_checker(workload: str, size: dict):
    """The check of one workload: ``check(job, results) -> (failures, observed)``."""
    if workload == "sweep":
        return SweepCheck(size).check
    if workload == "hull":
        return HullCheck(size).check
    return {"finite-large": check_large, "finite-small": check_small}[workload]
