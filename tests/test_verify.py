from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import mvergo.mea as mea
import mvergo.subaction as subaction
import mvergo.verify as verify
from mvergo._numbers import NEG_INF
from mvergo.cli import main
from mvergo.mea import alpha_state
from mvergo.measures import Cycle, cycle_measure
from mvergo.system import FiniteMVSystem, simple_cycles


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


def test_measures_check_mixes_the_first_two_cycle_measures(monkeypatch):
    # the mixtures at a = 1/4, 1/2, 3/4, built from integers over 4 k0 k1,
    # are a u + (1 - a) v over the first two cycle measures, as Fractions
    seen = []

    def recording(system, mu):
        seen.append(mu.weights)
        return is_invariant(system, mu)

    is_invariant = verify.is_invariant
    monkeypatch.setattr(verify, "is_invariant", recording)
    mixed = 0
    for inst in verify.make_instances(0, 60):
        seen.clear()
        assert verify.check_measures(inst) is None
        cycles = simple_cycles(inst.system)
        if inst.system.n_states > 6 or len(cycles) < 2:
            continue
        u, v = (cycle_measure(Cycle(c), inst.system)[0].weights for c in cycles[:2])
        expected = [tuple(a * x + (1 - a) * y for x, y in zip(u, v))
                    for a in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
        assert seen[min(len(cycles), 6):] == expected
        assert all(type(w) is Fraction for mix in seen for w in mix)
        mixed += 1
    assert mixed >= 10


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


def test_failed_checks_word_their_means_as_fractions(monkeypatch):
    # the checks decide in integers over one denominator; a failure message
    # states the offending mean as the Fraction it is, in lowest terms
    F = Fraction
    system = FiniteMVSystem.make(3, {(0, 1), (1, 0), (1, 2), (2, 2)})
    inst = verify.Instance(system, (F(1, 3), F(-1, 2), F(1, 5)))  # cycle means -1/12, 1/5
    assert verify.check_alpha_oracle(inst) is None
    assert verify.check_mane(inst) is None
    monkeypatch.setattr(verify.Instance, "alpha", property(lambda _: (F(1, 5), Cycle((0, 1)))))
    assert verify.check_alpha_oracle(inst) == "canonical cycle mean -1/12 != alpha 1/5"
    monkeypatch.undo()

    # the cycle (0, 1) attains alpha = -1/12; from state 1 it starts below it
    low = verify.Instance(system, (F(1, 3), F(-1, 2), F(-1)))
    assert verify.check_epsilon(low) is None
    monkeypatch.setattr(verify, "epsilon_witness", lambda cycle, f: 1)
    assert verify.check_epsilon(low) == "prefix average at n=0 dips below alpha from rotation 1"
    monkeypatch.undo()

    real = subaction.subaction_for_state_function(system, inst.f, F(1, 5))
    phi_up = (real.phi[0] + 10,) + real.phi[1:]
    phi_cut = (real.phi[0], NEG_INF, real.phi[2])
    for changes, message in [
        ({"tight_edge_ids": tuple(range(len(system.edges)))},
         "all-tight cycle (0, 1) has mean -1/12 != beta 1/5"),
        ({"phi": phi_up}, "potential inequality fails on edge (0, 1)"),
        ({"phi": phi_cut}, "potential inequality fails on edge (0, 1)"),
    ]:
        monkeypatch.setattr(verify, "subaction_for_state_function",
                            lambda *_args, changes=changes: replace(real, **changes))
        assert verify.check_mane(inst) == message

    swap = verify.Instance(FiniteMVSystem.make(2, {(0, 1), (1, 0)}), (F(1, 2), F(-1, 3)))
    real = subaction.subaction_for_state_function(swap.system, swap.f, F(1, 12))
    v_up = (real.v[0] + 1, real.v[1])
    monkeypatch.setattr(verify, "subaction_for_state_function",
                        lambda *_args: replace(real, v=v_up))
    assert verify.check_mane(swap) == "per-state inequality fails at state 0"
