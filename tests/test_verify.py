from collections import Counter

import pytest

import mvergo.mea as mea
import mvergo.subaction as subaction
import mvergo.verify as verify
from mvergo.cli import main
from mvergo.mea import alpha_state


def test_verify_solves_each_instance_once(monkeypatch):
    # the suites share one exact solve of the base system per instance; the
    # edge lift is solved once more, and the Mane check calls no solver
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("max_mean_cycle_value", "tight_edges"):
        monkeypatch.setattr(mea, name, counting(name, getattr(mea, name)))
    monkeypatch.setattr(subaction, "max_mean_cycle_value",
                        counting("subaction solve", subaction.max_mean_cycle_value))
    count = 25
    report = verify.run_verify(seed=7, count=count)
    assert report.ok
    assert calls["max_mean_cycle_value"] == 2 * count
    assert calls["tight_edges"] == 2 * count
    assert calls["subaction solve"] == 0


@pytest.mark.parametrize("shift, mane_message", [
    (1, "subaction verification failed: no cycle of tight edges"),
    (-1, "positive reduced cycle"),
], ids=["above", "below"])
def test_verify_reports_a_wrong_shared_alpha(tmp_path, monkeypatch, capsys, shift, mane_message):
    def shifted(inst):
        alpha, cycle = alpha_state(inst.system, inst.f)
        return alpha + shift, cycle

    monkeypatch.setattr(verify.Instance, "alpha", property(shifted))
    code = main(["verify", "--seed", "7", "--count", "5", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    lines = (tmp_path / "o" / "verify.txt").read_text().splitlines()
    fails = {ln.split(":")[0]: i for i, ln in enumerate(lines) if ln.startswith("FAIL ")}
    assert {"FAIL alpha-oracle", "FAIL mane-subaction"} <= set(fails)
    assert "5/5 instances" in lines[fails["FAIL alpha-oracle"]]
    mane = fails["FAIL mane-subaction"]
    assert "5/5 instances" in lines[mane] and mane_message in lines[mane]
    assert lines[mane + 1] == "counterexample:"
    dump = []
    for ln in lines[mane + 2:]:
        if not ln.startswith("  "):
            break
        dump.append(ln)
    assert '"n_states"' in "\n".join(dump)  # the instance dump is embedded
    assert lines[-1] == "RESULT FAIL"
