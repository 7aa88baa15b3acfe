"""Workload definitions: seeded inputs, the CLI calls of one pass, and sizes.

Inputs are generated here without importing ``mvergo``: finite systems are
written as JSON documents in the format the README documents, and the program
only ever sees those files.  ``sweep`` and ``hull`` reproduce the paper's
Figure 1 and Figure 2 pipelines at fixed sizes, so the seed drives the two
finite workloads only.

The finite workloads draw fresh inputs for every pass from (seed, pass
index).  Their cost varies from one random input to the next (a single
``verify`` instance has a coefficient of variation near 1), so repeating one
draw per run would make the run's time depend on the seed; spreading the run
over many draws makes it depend on the input distribution instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sweep", "hull", "finite-large", "finite-small")

# Sizes are scaled so one pass takes one to two seconds on a 2-core x86
# host, which gives each run ten or more passes to take a median over.
SIZES = {
    "full": {
        "sweep": {"theta_grid": 8, "max_period": 10, "grid": 1024},
        "hull": {"p": 2, "q": 3, "max_period": 8},
        "finite-large": {"n": 128, "m": 512},
        # measures cost grows steeply with the number of distinct simple-cycle
        # supports (the LP candidates), so small graphs are drawn until that
        # number falls in a fixed band; otherwise one seed can cost 25x another
        "finite-small": {"count": 60, "graphs": 2, "n": 9, "m": 22, "band": (25, 28)},
    },
    "tiny": {
        "sweep": {"theta_grid": 4, "max_period": 6, "grid": 64},
        "hull": {"p": 2, "q": 3, "max_period": 5},
        "finite-large": {"n": 12, "m": 30},
        "finite-small": {"count": 10, "graphs": 2, "n": 5, "m": 10, "band": (4, 8)},
    },
}
MAX_DRAWS = 1000

# Weights of the host-speed probes (hostspeed.py) per workload: the share of
# a pass spent in numpy and in pure-Python code at the commit that introduced
# the benchmark (the float Karp solve is two thirds of a sweep).
PROBE_MIX = {
    "sweep": {"numpy": 0.66, "python": 0.34},
    "hull": {"python": 1.0},
    "finite-large": {"python": 1.0},
    "finite-small": {"python": 1.0},
}
SETUP_PROBE_MIX = {"python": 1.0}


@dataclass
class Graph:
    """A generated finite system with an exact state function."""

    n: int
    edges: list[tuple[int, int]]
    f: list[Fraction]

    def document(self) -> dict:
        return {
            "n_states": self.n,
            "edges": [list(e) for e in self.edges],
            "f_state": [f"{v.numerator}/{v.denominator}" for v in self.f],
        }


@dataclass
class Job:
    """One workload instance: the CLI argument lists of a pass, the inputs
    they read, and what the generator recorded about them."""

    workload: str
    size: dict
    calls: list[list[str]]
    graphs: dict[str, Graph] = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def ring_graph(rng: random.Random, n: int, m: int) -> Graph:
    """A Hamiltonian ring through a random permutation of the states plus
    uniform extra edges up to m distinct edges; f = p/q with p in [-20, 20]
    and q in [1, 10]."""
    if not n <= m <= n * n:
        raise ValueError(f"cannot place {m} distinct edges on {n} states")
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    while len(edges) < m:
        edges.add((rng.randrange(n), rng.randrange(n)))
    f = [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n)]
    return Graph(n, sorted(edges), f)


def simple_cycles(n: int, edges) -> list[tuple[int, ...]]:
    """Every simple directed cycle, rooted at its smallest state, by plain
    depth-first search.  Exponential; meant for graphs of about ten states."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for t, h in edges:
        succ[t].append(h)
    out: list[tuple[int, ...]] = []
    for s in range(n):
        path = [s]
        on_path = {s}
        stack = [iter(succ[s])]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                on_path.discard(path.pop())
            elif nxt == s:
                out.append(tuple(path))
            elif nxt > s and nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                stack.append(iter(succ[nxt]))
    return out


def cycle_supports(n: int, edges) -> set[frozenset[int]]:
    return {frozenset(c) for c in simple_cycles(n, edges)}


def _write(path: Path, graph: Graph) -> str:
    path.write_text(json.dumps(graph.document()), encoding="utf-8")
    return str(path)


def build(workload: str, seed: int, index: int, size_name: str, workdir: Path) -> Job:
    """Generate the inputs of pass ``index`` of one workload under
    ``workdir`` and list its CLI calls.  Same seed and index, same inputs."""
    size = SIZES[size_name][workload]
    workdir.mkdir(parents=True, exist_ok=True)
    out = str(workdir / "out")

    if workload == "sweep":
        argv = ["sweep", "--f", "cos", "--theta-grid", str(size["theta_grid"]),
                "--max-period", str(size["max_period"]), "--grid", str(size["grid"]),
                "--out", out]
        return Job(workload, size, [argv])

    if workload == "hull":
        argv = ["hull", "--builtin", f"pq:{size['p']},{size['q']}",
                "--max-period", str(size["max_period"]), "--out", out]
        return Job(workload, size, [argv])

    if workload == "finite-large":
        graph = ring_graph(random.Random(f"finite-large:{seed}:{index}"), size["n"], size["m"])
        path = _write(workdir / "large.json", graph)
        calls = [["mea", "--input", path, "--out", out + "/mea"],
                 ["subaction", "--input", path, "--out", out + "/subaction"]]
        return Job(workload, size, calls, {"large": graph})

    if workload == "finite-small":
        rng = random.Random(f"finite-small:{seed}:{index}")
        verify_seed = rng.randrange(2 ** 31)
        calls = [["verify", "--seed", str(verify_seed), "--count", str(size["count"]),
                  "--out", out + "/verify"]]
        graphs = {}
        info = {"verify_seed": verify_seed, "candidates": [], "draws": []}
        lo, hi = size["band"]
        for i in range(size["graphs"]):
            for draws in range(1, MAX_DRAWS + 1):
                graph = ring_graph(rng, size["n"], size["m"])
                candidates = len(cycle_supports(graph.n, graph.edges))
                if lo <= candidates <= hi:
                    break
            else:
                raise RuntimeError(f"no graph in the candidate band {lo}..{hi} "
                                   f"after {MAX_DRAWS} draws")
            name = f"small{i}"
            graphs[name] = graph
            info["candidates"].append(candidates)
            info["draws"].append(draws)
            path = _write(workdir / f"{name}.json", graph)
            calls.append(["measures", "--input", path, "--out", f"{out}/{name}"])
        return Job(workload, size, calls, graphs, info)

    raise ValueError(f"unknown workload {workload!r}")
