"""Text formats and the command line front end."""

import csv
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mvergo._numbers import parse_number
from mvergo.circle import PeriodicOrbit
from mvergo.cli import main
from mvergo.io import InputFormatError, dumps_system, loads_system
from oracles import z4_system

F = Fraction
DATA = Path(__file__).resolve().parent / "data"


def test_system_document_round_trip():
    s = z4_system()
    f = (F(1), F(0), F(-3, 7), 0.25)
    text = dumps_system(s, f_state=f)
    doc = loads_system(text)
    assert doc.system == s
    assert doc.f_state == f


def test_loads_system_parse_errors():
    with pytest.raises(InputFormatError, match="line"):
        loads_system('{"n_states": 2,\n "edges": [[0, 1],]}')
    with pytest.raises(InputFormatError, match="n_states"):
        loads_system('{"edges": []}')
    with pytest.raises(InputFormatError):
        loads_system('{"n_states": 2, "edges": [[0, 5]]}')
    with pytest.raises(InputFormatError):
        loads_system('{"n_states": 1, "edges": [], "f_state": ["1/0"]}')


@pytest.mark.parametrize("field", [
    '"n_states": 2.7, "edges": [[0, 1]]',
    '"n_states": "2", "edges": [[0, 1]]',
    '"n_states": "x", "edges": [[0, 1]]',
    '"n_states": true, "edges": [[0, 0]]',
    '"n_states": 2, "edges": [["a", 1]]',
    '"n_states": 2, "edges": [[0, "1"]]',
    '"n_states": 2, "edges": [[0.0, 1]]',
    '"n_states": 2, "edges": [[0, 1.9]]',
    '"n_states": 2, "edges": [[false, 1]]',
], ids=["n-float", "n-digit-string", "n-string", "n-bool", "tail-string", "head-digit-string",
        "tail-float", "head-float", "tail-bool"])
def test_loads_system_rejects_non_integer_counts_and_endpoints(field):
    with pytest.raises(InputFormatError, match="JSON integer"):
        loads_system("{" + field + "}")


def test_number_tokens():
    assert parse_number("3/4") == F(3, 4)
    assert parse_number("-2") == F(-2)
    assert isinstance(parse_number("0.5"), float)
    assert isinstance(parse_number("1e-3"), float)
    for token in ("inf", "-inf", "nan", "Infinity", "1e400"):
        with pytest.raises(ValueError, match="finite"):
            parse_number(token)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_cmd_mea_builtin_z4(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["mea", "--builtin", "z4", "--f", "indicator:0", "--out", str(out)])
    assert code == 0
    report = (out / "mea_report.txt").read_text()
    assert "alpha 1/2" in report
    assert "maximizing_cycle 0->1" in report
    rows = _read_csv(out / "mea_delta.csv")
    assert rows[0] == ["n", "delta_n"]
    deltas = {int(n): parse_number(d) for n, d in rows[1:]}
    assert deltas[1] == F(1, 2)
    assert len(deltas) == 65


def test_cmd_mea_selfloop(tmp_path):
    out = tmp_path / "o"
    assert main(["mea", "--builtin", "selfloop:3", "--out", str(out)]) == 0
    assert "alpha 3" in (out / "mea_report.txt").read_text()


def test_cmd_mea_acyclic_exit_code(tmp_path):
    doc = {"n_states": 3, "edges": [[0, 1], [1, 2]], "f_state": ["1", "0", "0"]}
    path = tmp_path / "acyclic.json"
    path.write_text(json.dumps(doc))
    code = main(["mea", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cmd_mea_bad_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["mea", "--input", str(path), "--out", str(tmp_path / "o")]) == 3
    assert main(["mea", "--out", str(tmp_path / "o")]) == 3
    # documents that are not well formed: bytes that are not UTF-8, nesting
    # deeper than the JSON decoder recurses, an integer past the digit limit
    # of int-from-string conversion
    bad = {
        "utf8.json": b"\xff\xfe",
        "deep.json": b"[" * 100000,
        "digits.json": b'{"n_states": 4, "edges": [[0, 0]], "f_state": ['
                       + b"7" * 5000 + b", 0, 0, 0]}",
    }
    capsys.readouterr()
    for name, content in bad.items():
        doc = tmp_path / name
        doc.write_bytes(content)
        for argv in (["--input", str(doc)], ["--builtin", "z4", "--f", f"file:{doc}"]):
            assert main(["mea", *argv, "--out", str(tmp_path / "o")]) == 3, (name, argv)
            err = capsys.readouterr().err
            assert "error: " in err and len(err.splitlines()) == 1, (name, err)
    assert not (tmp_path / "o").exists()


def test_cmd_measures(tmp_path):
    out = tmp_path / "o"
    assert main(["measures", "--builtin", "z4", "--out", str(out)]) == 0
    rows = _read_csv(out / "measures.csv")
    assert len(rows) == 5  # header + the four extreme measures
    parsed = sorted(tuple(parse_number(v) for v in r) for r in rows[1:])
    assert parsed == sorted(
        tuple(F(1, 2) if i in (x, (x + 1) % 4) else F(0) for i in range(4))
        for x in range(4)
    )


def test_cmd_measures_too_many_cycles_exit_code(tmp_path, capsys):
    n = 12  # the complete digraph: far more simple cycles than the limit
    doc = {"n_states": n, "edges": [[a, b] for a in range(n) for b in range(n)]}
    path = tmp_path / "complete.json"
    path.write_text(json.dumps(doc))
    assert main(["measures", "--input", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "simple cycles" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cmd_measures_too_many_supports_exit_code(tmp_path, capsys):
    petals = 600  # 1201 distinct cycle supports, 1201 simple cycles
    edges = ([[0, i] for i in range(1, petals + 1)] + [[i, 0] for i in range(1, petals + 1)]
             + [[x, x] for x in range(petals + 1)])
    path = tmp_path / "flower.json"
    path.write_text(json.dumps({"n_states": petals + 1, "edges": edges}))
    assert main(["measures", "--input", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: input too large: ") and "cycle supports" in err
    assert not (tmp_path / "o").exists()


def test_cmd_measures_identity_and_empty(tmp_path):
    out1 = tmp_path / "a"
    assert main(["measures", "--builtin", "identity:3", "--out", str(out1)]) == 0
    assert len(_read_csv(out1 / "measures.csv")) == 4

    doc = {"n_states": 2, "edges": [[0, 1]]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    out2 = tmp_path / "b"
    assert main(["measures", "--input", str(path), "--out", str(out2)]) == 0
    assert len(_read_csv(out2 / "measures.csv")) == 1  # header only


def test_cmd_subaction(tmp_path):
    out = tmp_path / "o"
    code = main(["subaction", "--builtin", "z4", "--f", "indicator:0", "--out", str(out)])
    assert code == 0
    edge_rows = _read_csv(out / "subaction_edges.csv")
    assert edge_rows[0] == ["tail", "head", "f", "slack", "tight"]
    slacks = [parse_number(r[3]) for r in edge_rows[1:]]
    assert min(slacks) == 0 and all(s >= 0 for s in slacks)
    state_rows = _read_csv(out / "subaction_states.csv")
    assert [r[1] for r in state_rows[1:]] == ["0", "1/2", "0", "1/2"]


def test_cmd_subaction_constant_all_tight(tmp_path):
    out = tmp_path / "o"
    assert main(["subaction", "--builtin", "z4", "--f", "const:2/3", "--out", str(out)]) == 0
    edge_rows = _read_csv(out / "subaction_edges.csv")
    assert all(parse_number(r[3]) == 0 and r[4] == "1" for r in edge_rows[1:])


def test_cmd_subaction_beta_override_positive_cycle(tmp_path):
    code = main([
        "subaction", "--builtin", "z4", "--f", "indicator:0",
        "--beta-override", "1/4", "--out", str(tmp_path / "o"),
    ])
    assert code == 2


def test_cmd_subaction_beta_override_above_alpha(tmp_path, capsys):
    code = main([
        "subaction", "--builtin", "z4", "--f", "indicator:0",
        "--beta-override", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "no cycle of tight edges" in capsys.readouterr().err


def test_cmd_subaction_beta_override_at_alpha_matches_default(tmp_path):
    base = ["subaction", "--builtin", "z4", "--f", "indicator:0"]
    assert main(base + ["--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--beta-override", "1/2", "--out", str(tmp_path / "b")]) == 0
    for name in ("subaction_states.csv", "subaction_edges.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cmd_sweep_small(tmp_path):
    out = tmp_path / "o"
    code = main([
        "sweep", "--theta-grid", "16", "--max-period", "6",
        "--grid", "64", "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out / "sweep.csv")
    assert rows[0] == ["theta", "system", "beta_lower", "beta_upper", "witness_period"]
    body = rows[1:]
    assert len(body) == 2 * 9  # both systems, theta = k/16 for k = 0..8
    by_system = {"doubling": {}, "threebranch": {}}
    for theta, name, lo, hi, period in body:
        by_system[name][theta] = (float(lo), float(hi))
        assert float(lo) <= float(hi)
        assert int(period) >= 1
    assert by_system["doubling"]["0"][0] == 1.0
    assert by_system["threebranch"]["0"][0] == 1.0
    for theta, (lo_d, _hi) in by_system["doubling"].items():
        assert by_system["threebranch"][theta][0] >= lo_d
    svg = (out / "sweep.svg").read_text()
    assert svg.startswith("<svg") and 'viewBox="0 0 800 600"' in svg


@pytest.mark.parametrize("argv, golden", [
    (["--f", "cos", "--theta-grid", "8", "--max-period", "10", "--grid", "1024"],
     "sweep_cos_tg8_p10_g1024.csv"),
    (["--f", "negdist", "--theta-grid", "16", "--max-period", "8", "--grid", "512"],
     "sweep_negdist_tg16_p8_g512.csv"),
], ids=["cos-benchmark", "negdist-small"])
def test_cmd_sweep_matches_golden_csv(tmp_path, argv, golden):
    # the golden files were written before the sweep's Howard solves were
    # warm-started and its orbit table built a block at a time; every later
    # change to the sweep must keep them byte for byte
    out = tmp_path / "o"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("builtin, golden", [
    ("pq:2,3", "hull_pq23_p8"),
    ("threebranch", "hull_threebranch_p8"),
], ids=["pq23", "threebranch"])
def test_cmd_hull_matches_golden_files(tmp_path, builtin, golden):
    # the golden files were written before enumerate_periodic_orbits read the
    # visitor's blocks; pq:2,3 takes the per-word path's gathered object
    # blocks, three-branch the batched int64 blocks
    out = tmp_path / "o"
    assert main(["hull", "--builtin", builtin, "--max-period", "8", "--out", str(out)]) == 0
    assert (out / "hull.csv").read_bytes() == (DATA / f"{golden}.csv").read_bytes()
    assert (out / "hull.svg").read_bytes() == (DATA / f"{golden}.svg").read_bytes()


@pytest.mark.parametrize("argv, golden, files", [
    (["mea", "--input", "ring_n128_m512/input.json"], "ring_n128_m512",
     ["mea_report.txt", "mea_delta.csv"]),
    (["subaction", "--input", "ring_n128_m512/input.json"], "ring_n128_m512",
     ["subaction_states.csv", "subaction_edges.csv"]),
    (["measures", "--input", "ring_n9_m22/input.json"], "ring_n9_m22", ["measures.csv"]),
    (["verify", "--seed", "0", "--count", "200"], "verify_seed0_count200", ["verify.txt"]),
    (["mea", "--input", "ring_n128_m512_float/input.json"], "ring_n128_m512_float",
     ["mea_report.txt", "mea_delta.csv"]),
    (["subaction", "--input", "ring_n128_m512_float/input.json"], "ring_n128_m512_float",
     ["subaction_states.csv", "subaction_edges.csv"]),
], ids=["mea", "subaction", "measures", "verify", "mea-float", "subaction-float"])
def test_finite_commands_match_golden_files(tmp_path, argv, golden, files):
    # the golden files were written while the finite maximum cycle mean was
    # still solved by Karp's walk table; the inputs are a seeded ring graph
    # of 128 states and 512 edges and a 9-state graph with 28 cycle supports.
    # The float ring is the same graph with f / 7 as decimals; its files were
    # written while tight_edges still ran a walk potential of its own
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 0
    for name in files:
        assert (out / name).read_bytes() == (DATA / golden / name).read_bytes(), name


def test_cmd_hull_small(tmp_path):
    out = tmp_path / "o"
    assert main(["hull", "--max-period", "6", "--out", str(out)]) == 0
    rows = _read_csv(out / "hull.csv")
    assert rows[0] == ["orbit", "period", "itinerary", "re", "im", "on_hull", "sturmian"]
    hull_rows = [r for r in rows[1:] if r[5] == "1"]
    assert hull_rows
    assert all(r[6] == "1" for r in hull_rows)  # extremal implies Sturmian here
    for r in rows[1:]:
        assert abs(complex(float(r[3]), float(r[4]))) <= 1 + 1e-12
    assert (out / "hull.svg").exists()


def test_cmd_mea_f_from_file(tmp_path):
    fdoc = {"n_states": 4, "edges": [[0, 0]], "f_state": ["0", "1/3", "0", "0"]}
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(fdoc))
    out = tmp_path / "o"
    code = main(["mea", "--builtin", "z4", "--f", f"file:{fpath}", "--out", str(out)])
    assert code == 0
    assert "alpha 1/6" in (out / "mea_report.txt").read_text()


def test_cmd_sweep_single_theta(tmp_path):
    out = tmp_path / "o"
    code = main([
        "sweep", "--f", "cos:1/4", "--max-period", "6", "--grid", "64",
        "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 3  # header + one row per system
    assert {r[0] for r in rows[1:]} == {"1/4"}


def _single_theta_bounds(tmp_path, f):
    """The bound columns (system, beta_lower, beta_upper, witness_period) of
    a one-theta sweep, which must exit 0."""
    out = tmp_path / f"o{len(list(tmp_path.iterdir()))}"
    assert main(["sweep", "--f", f, "--max-period", "6", "--grid", "64", "--out", str(out)]) == 0
    assert "nan" not in (out / "sweep.svg").read_text()
    return [row[1:] for row in _read_csv(out / "sweep.csv")[1:]]


def test_cmd_sweep_reduces_theta_mod_one_exactly(tmp_path):
    # f_theta has period 1 in theta.  1e20 is an integer as a float, so its
    # f is f_0, whose fixed point 0 has average 1; float subtraction at that
    # size loses every point's position, and the chart's x span cannot
    # widen by 1
    assert _single_theta_bounds(tmp_path, "cos:1e20") == _single_theta_bounds(tmp_path, "cos:0")
    assert _single_theta_bounds(tmp_path, "cos:1e20")[0][1] == "1.0"
    quarter = _single_theta_bounds(tmp_path, "cos:1/4")
    assert _single_theta_bounds(tmp_path, "cos:5/4") == quarter
    assert _single_theta_bounds(tmp_path, "cos:-3/4") == quarter


def test_cmd_sweep_charts_a_value_past_float_precision(tmp_path):
    # interval negdist keeps theta: every average is about -1e300, and the
    # chart's y span cannot widen by 1 there
    rows = _single_theta_bounds(tmp_path, "negdist:1e300")
    assert [row[1] for row in rows] == ["-1e+300", "-1e+300"]


@pytest.mark.filterwarnings("error")
def test_cmd_sweep_charts_the_largest_float_without_inf(tmp_path):
    # the middle ticks add halves: (x0 + x1) / 2 of two values near the
    # float maximum overflows to inf; the orbit sums overflow too, with no
    # warning, and every orbit ties at -theta, so the fixed point is the witness
    out = tmp_path / "o"
    assert main(["sweep", "--f", "negdist:1.7976931348623157e308", "--max-period", "4",
                 "--grid", "32", "--out", str(out)]) == 0
    svg = (out / "sweep.svg").read_text()
    assert not re.findall(r"(?<![a-z])(?:inf|nan)(?![a-z])", svg, re.IGNORECASE)
    theta = str(int(sys.float_info.max))
    assert _read_csv(out / "sweep.csv")[1:] == [
        [theta, name, "-1.7976931348623157e+308", "-1.7976931348623157e+308", "1"]
        for name in ("doubling", "threebranch")]


def test_commands_read_no_fraction_orbit_points(tmp_path, monkeypatch):
    # hull and sweep work on the integer orbit format end to end
    def fail(orbit):
        pytest.fail("a command read Fraction orbit points")

    monkeypatch.setattr(PeriodicOrbit, "points", property(fail))
    runs = [["hull", "--builtin", "pq:2,3", "--max-period", "6"],
            ["hull", "--builtin", "threebranch", "--max-period", "6"],
            ["sweep", "--f", "cos", "--theta-grid", "4", "--max-period", "6", "--grid", "64"],
            ["sweep", "--f", "negdist", "--theta-grid", "4", "--max-period", "6", "--grid", "64"]]
    for i, argv in enumerate(runs):
        assert main([*argv, "--out", str(tmp_path / str(i))]) == 0


def test_cmd_sweep_grid_too_small_exit_code(tmp_path, capsys):
    assert main(["sweep", "--grid", "4", "--out", str(tmp_path / "o")]) == 3
    assert "--grid must be at least 8" in capsys.readouterr().err


def test_cmd_sweep_theta_grid_zero_exit_code(tmp_path, capsys):
    assert main(["sweep", "--theta-grid", "0", "--out", str(tmp_path / "o")]) == 3
    assert "--theta-grid must be at least 1" in capsys.readouterr().err


def test_cmd_sweep_max_period_over_limit_exit_code(tmp_path, capsys):
    assert main(["sweep", "--max-period", "30", "--out", str(tmp_path / "o")]) == 3
    assert "--max-period must be between 1 and 24" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mea", "--builtin", "identity:0", "--f", "const:1"],
    ["mea", "--builtin", "identity:-2", "--f", "const:1"],
    ["mea", "--builtin", "identity:x", "--f", "const:1"],
    ["mea", "--builtin", "selfloop:1/0"],
    ["mea", "--builtin", "z4", "--f", "indicator:x"],
    ["mea", "--builtin", "z4", "--f", "const:abc"],
    ["sweep", "--f", "cos:abc", "--theta-grid", "2", "--max-period", "2", "--grid", "8"],
    ["hull", "--max-period", "0"],
    ["hull", "--max-period", "30"],
    ["verify", "--max-states", "1"],
    ["verify", "--max-states", "0"],
    ["verify", "--max-states", "13"],
    ["verify", "--count", "-2"],
    ["mea", "--builtin", "z4", "--f", "indicator:0", "--horizon", "-1"],
    ["subaction", "--builtin", "z4", "--f", "indicator:0", "--beta-override", "abc"],
    ["subaction", "--builtin", "z4", "--f", "indicator:0", "--beta-override", "inf"],
    ["subaction", "--builtin", "z4", "--f", "indicator:0", "--beta-override=-inf"],
    ["subaction", "--builtin", "z4", "--f", "indicator:0", "--beta-override", "nan"],
    ["mea", "--builtin", "selfloop:inf"],
    ["mea", "--builtin", "selfloop:nan"],
    ["mea", "--builtin", "z4", "--f", "const:-inf"],
    ["mea", "--builtin", "z4", "--f", "const:1e400"],
    ["subaction", "--builtin", "selfloop:-inf"],
], ids=" ".join)
def test_cli_bad_arguments_exit_code(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["mea", "--builtin", "z4", "--f", "const:1e308"],
    ["subaction", "--builtin", "z4", "--f", "const:1e308"],
    ["subaction", "--builtin", "z4", "--f", "const:1e308", "--beta-override", "0"],
], ids=" ".join)
def test_cli_float_sums_beyond_range_exit_code(tmp_path, capsys, argv):
    # finite floats whose walk sums on 4 states (up to 8 * 1e308) overflow
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: input too large: float weights up to 1e+308 on 4 states")
    assert not (tmp_path / "o").exists()


def test_cli_float_horizon_sums_beyond_range_exit_code(tmp_path, capsys):
    # 1e306 fits the 4-state cycle sums, but the delta_n segment sums of up
    # to 201 values reach 2e308; they used to be written as inf
    out = tmp_path / "o"
    argv = ["mea", "--builtin", "z4", "--f", "const:1e306", "--horizon", "200"]
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: input too large: float weights up to 1e+306 on 4 states "
                          "over 200 steps")
    assert not out.exists()
    # 2 * 81 * 1e306 is still a finite float
    assert main(argv[:-1] + ["80", "--out", str(out)]) == 0
    rows = _read_csv(out / "mea_delta.csv")
    assert len(rows) == 82 and all(abs(float(d) - 1e306) <= 1e292 for _, d in rows[1:])


def test_cli_howard_iteration_limit_exit_code(tmp_path, capsys, monkeypatch):
    import mvergo.mea as mea_mod

    monkeypatch.setattr(mea_mod, "HOWARD_ITERATION_LIMIT", 1)
    out = tmp_path / "o"
    argv = ["sweep", "--theta-grid", "4", "--max-period", "4", "--grid", "64", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "error: input too large: Howard policy iteration did not converge in 1 iterations")
    assert not out.exists()


def test_cli_howard_failed_potential_check_is_internal(tmp_path, monkeypatch):
    # a potential check that fails is a solver fault, not an input error
    import mvergo.mea as mea_mod

    monkeypatch.setattr(mea_mod, "_cycle_mean_bound", lambda *args: float("inf"))
    argv = ["sweep", "--theta-grid", "4", "--max-period", "4", "--grid", "64",
            "--out", str(tmp_path / "o")]
    with pytest.raises(mea_mod.PolicyIterationError, match="potential check failed"):
        main(argv)


def test_cli_large_floats_within_range(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["mea", "--builtin", "z4", "--f", "const:1e300", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "alpha = 1e+300\n"
    assert (out / "mea_report.txt").read_text() == (
        "alpha 1e+300\nmaximizing_cycle 0->1\nepsilon_rotation 0\n"
        "tolerance 1.0000000000000001e+291\n"
    )
    rows = _read_csv(out / "mea_delta.csv")
    assert [int(n) for n, _ in rows[1:]] == list(range(65))
    assert all(abs(float(d) - 1e300) <= 1e286 for _, d in rows[1:])
    assert main(["subaction", "--builtin", "z4", "--f", "const:1e300", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "beta = 1e+300, min slack = 0.0\n"
    assert (out / "subaction_states.csv").read_text() == "state,phi,v\n" + "".join(
        f"{x},0.0,0.0\n" for x in range(4))
    edges = sorted([(x, (x + 1) % 4) for x in range(4)] + [(x, (x - 1) % 4) for x in range(4)])
    assert (out / "subaction_edges.csv").read_text() == "tail,head,f,slack,tight\n" + "".join(
        f"{t},{h},1e+300,0.0,1\n" for t, h in edges)


@pytest.mark.parametrize("values", ["[NaN]", "[Infinity]", "[-Infinity]", "[1e400]",
                                    '["inf"]', '["nan"]', '["-1e400"]'])
@pytest.mark.parametrize("command", ["mea", "subaction", "measures"])
def test_cli_non_finite_document_exit_code(tmp_path, capsys, command, values):
    doc = tmp_path / "doc.json"
    doc.write_text('{"n_states": 1, "edges": [[0, 0]], "f_state": ' + values + "}")
    assert main([command, "--input", str(doc), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad number" in err and "finite" in err
    assert not (tmp_path / "o").exists()
    # the same document as a function file gives the --input form's message
    assert main(["mea", "--builtin", "selfloop:0", "--f", f"file:{doc}",
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {doc}: bad number")


_INT_FLAGS = {"mea": ["--horizon"], "measures": [], "subaction": [],
              "sweep": ["--theta-grid", "--max-period", "--grid"], "hull": ["--max-period"],
              "verify": ["--seed", "--count", "--max-states"]}


@pytest.mark.parametrize("argv", [
    *([command, flag, "abc"] for command, flags in _INT_FLAGS.items() for flag in flags),
    ["verify", "--max-states", "1.5"],
    *([command, "--bogus"] for command in _INT_FLAGS),
    ["frobnicate"],
    [],
    ["measures", "--builtin", "z4", "--f", "indicator:0"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_cli_parser_rejections_are_input_errors(tmp_path, capsys, argv):
    # argparse would print its usage and exit 2, the code of a failed check
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert not out.exists()


def test_cli_help_exits_zero(capsys):
    for argv in (["--help"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: mvergo" in capsys.readouterr().out


def test_cli_malformed_document_message_names_the_path(tmp_path, capsys):
    # --input and --f file: read documents through one loader
    doc = tmp_path / "bad.json"
    doc.write_text('{"n_states": 1,\n "edges": [[0, 0]],}')
    errors = []
    for argv in (["--input", str(doc)], ["--builtin", "z4", "--f", f"file:{doc}"]):
        assert main(["mea", *argv, "--out", str(tmp_path / "o")]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: {doc}: line 2: ")


@pytest.mark.parametrize("argv", [
    ["hull", "--max-period", "2"],
    ["sweep", "--theta-grid", "2", "--max-period", "2", "--grid", "8"],
    ["mea", "--builtin", "z4", "--f", "indicator:0"],
], ids=lambda argv: argv[0])
def test_cli_unwritable_out_exit_code(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"  # its parent is a regular file, so no directory can be made
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}")
    assert "Traceback" not in err


def test_cmd_verify_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--seed", "7", "--count", "25", "--out", str(out1)]) == 0
    assert main(["verify", "--seed", "7", "--count", "25", "--out", str(out2)]) == 0
    b1 = (out1 / "verify.txt").read_bytes()
    b2 = (out2 / "verify.txt").read_bytes()
    assert b1 == b2
    assert b"RESULT PASS" in b1


def test_cmd_verify_injected_bug_fails(tmp_path, monkeypatch):
    import mvergo.verify as verify_mod

    def broken_check(inst):
        return "injected defect"

    monkeypatch.setattr(
        verify_mod, "SUITES", (("alpha-oracle", broken_check),) + verify_mod.SUITES[1:]
    )
    code = main(["verify", "--seed", "7", "--count", "5", "--out", str(tmp_path / "o")])
    assert code == 2
    text = (tmp_path / "o" / "verify.txt").read_text()
    assert "FAIL alpha-oracle" in text
    assert "counterexample" in text
    assert "n_states" in text  # the instance dump is embedded
