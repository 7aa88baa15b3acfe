"""Text formats and the command line front end."""

import csv
import json
from fractions import Fraction

import pytest

from mvergo._numbers import parse_number
from mvergo.cli import main
from mvergo.io import InputFormatError, dumps_system, loads_system
from oracles import z4_system

F = Fraction


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


def test_cmd_mea_bad_input_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["mea", "--input", str(path), "--out", str(tmp_path / "o")]) == 3
    assert main(["mea", "--out", str(tmp_path / "o")]) == 3


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
    ["verify", "--count", "-2"],
    ["mea", "--builtin", "z4", "--f", "indicator:0", "--horizon", "-1"],
    ["subaction", "--builtin", "z4", "--f", "indicator:0", "--beta-override", "abc"],
    ["subaction", "--builtin", "z4", "--f", "indicator:0", "--beta-override", "inf"],
    ["subaction", "--builtin", "z4", "--f", "indicator:0", "--beta-override=-inf"],
    ["subaction", "--builtin", "z4", "--f", "indicator:0", "--beta-override", "nan"],
], ids=" ".join)
def test_cli_bad_arguments_exit_code(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


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
