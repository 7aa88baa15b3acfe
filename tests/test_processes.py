"""Runs of the command line in a fresh interpreter: which modules start-up
and the finite commands load, and how much memory a run holds at its peak."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mvergo"
DATA = Path(__file__).resolve().parent / "data"

# prints one JSON line: whether numpy is loaded after the imports, each
# main call's exit code and whether numpy is loaded after it, and the
# process's peak resident memory in KB (VmHWM: ru_maxrss would keep the
# peak of the process it was forked from)
CHILD = """
import json, sys
import mvergo
from mvergo import cli
from mvergo.cli import main
report = {"after_import": "numpy" in sys.modules, "runs": []}
for argv in json.loads(sys.argv[1]):
    report["runs"].append([main(argv), "numpy" in sys.modules])
with open("/proc/self/status") as status:
    report["peak_kb"] = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps(report))
"""


def run_fresh(tmp_path, *argvs):
    """Run each argument list through ``main`` in one new interpreter, in
    order, with its outputs under tmp_path; the child's report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


def test_finite_commands_start_and_run_without_numpy(tmp_path):
    rings = [str(DATA / ring / "input.json") for ring in ("ring_n128_m512", "ring_n128_m512_float")]
    finite = [[cmd, "--input", ring, "--out", f"{cmd}{i}"]
              for i, ring in enumerate(rings) for cmd in ("mea", "subaction")]
    finite += [["measures", "--builtin", "z4", "--out", "measures"],
               ["verify", "--count", "5", "--out", "verify"],
               ["mea", "--horizon", "many"]]
    sweep = ["sweep", "--builtin", "doubling", "--theta-grid", "1", "--max-period", "2",
             "--grid", "8", "--out", "sweep"]
    report, stderr = run_fresh(tmp_path, *finite, sweep)
    assert not report["after_import"]
    assert report["runs"][:-1] == [[0, False]] * 6 + [[3, False]]
    assert "--horizon" in stderr
    # the sweep builds arrays, so it loads numpy on its first call
    assert report["runs"][-1] == [0, True]


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def _run_at_import(body):
    """The statements of a module body that run when it is imported: class
    bodies and both arms of conditionals and try blocks, but not function
    bodies, nor an ``if TYPE_CHECKING:`` block."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING",
                                                                    "typing.TYPE_CHECKING"):
            yield from _run_at_import(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _run_at_import(getattr(node, field, []))


def test_no_module_imports_numpy_when_imported():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in _run_at_import(ast.parse(path.read_text(encoding="utf-8")).body)
        if _imports_numpy(node)
    ]
    assert found == []


def test_import_check_sees_module_level_numpy():
    tree = ast.parse("import numpy as np\nif True:\n    from numpy import int64\n"
                     "if TYPE_CHECKING:\n    import numpy\ndef f():\n    import numpy\n"
                     "class C:\n    import numpy.linalg\n")
    assert [n.lineno for n in _run_at_import(tree.body) if _imports_numpy(n)] == [1, 3, 9]


def test_hull_of_a_steep_wrapping_branch_stops_at_the_orbit_limit_in_little_memory(tmp_path):
    # x -> 10^6 x mod 1 is a lattice system, refused from its orbit count
    # before any orbit is enumerated.  x -> {10^6 x, 10^6 x + 1/2} mod 1 takes
    # the per-word path: each letter has a candidate fixed point for each of
    # about 10^6 integer lifts; the walk takes the lifts lazily, so the run
    # stops at the orbit limit holding the candidates, not a stack entry per
    # lift (225 MB RSS when every lift was pushed)
    argvs = [["hull", "--builtin", builtin, "--max-period", "2", "--out", out]
             for builtin, out in (("pq:1,1000000", "lattice"), ("pq:2,2000000", "per-word"))]
    report, stderr = run_fresh(tmp_path, *argvs)
    assert [code for code, _numpy in report["runs"]] == [3, 3]
    assert stderr.splitlines() == ["error: input too large: more than 600000 periodic orbits; "
                                   "their enumeration stops there"] * 2
    assert not (tmp_path / "lattice").exists() and not (tmp_path / "per-word").exists()
    assert report["peak_kb"] < 100 * 1024
