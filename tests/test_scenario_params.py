"""Scenario params that do not convert to numbers, or whose numbers are out
of range, are config errors."""
from __future__ import annotations

import json

import pytest

from bpbkit.cli import main
from bpbkit.errors import ConfigError
from bpbkit.harness import Scenario, run_scenario

BAD_SCENARIOS = [
    ({"kind": "align", "params": {"trials": "x"}}, "trials"),
    ({"kind": "ahsp_lattice_sum", "params": {"num_components": "x"}},
     "num_components"),
    ({"kind": "moduli_curve",
      "params": {"count": "x", "space": {"kind": "euclidean", "dim": 2}}},
     "count"),
    ({"kind": "moduli_curve",
      "params": {"epsilons": [0.5, "x"],
                 "space": {"kind": "euclidean", "dim": 2}}}, "epsilons"),
    ({"kind": "ahsp_direct_sum", "params": {"f": "table",
                                            "nodes": [[0.0, 1.0], [1.0, "x"]]}},
     "nodes"),
    ({"kind": "correct_l1sum", "params": {"h_dim": [2]}}, "h_dim"),
    ({"kind": "duality_check", "params": {"samples": None}}, "samples"),
    ({"kind": "ahsp_direct_sum", "params": {"epsilon": {}}}, "epsilon"),
    ({"kind": "ahsp_direct_sum", "params": {"f": {"kind": "lp", "p": "x"}}},
     "f"),
    ({"kind": "ahsp_direct_sum", "params": {"f": {"kind": "table"}}}, "f"),
    # numbers outside their range
    ({"kind": "duality_check", "params": {"samples": -1, "trials": 1}},
     "samples"),
    ({"kind": "duality_check", "params": {"max_dim": 0}}, "max_dim"),
    ({"kind": "duality_check", "params": {"sample_seed": -3}}, "sample_seed"),
]


@pytest.mark.parametrize("scenario,key", BAD_SCENARIOS)
def test_cli_exits_2_in_one_line(tmp_path, capsys, scenario, key):
    src = tmp_path / "scenario.json"
    src.write_text(json.dumps(scenario))
    out = tmp_path / "out.json"
    assert main(["run", "--scenario", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("scenario,key", BAD_SCENARIOS)
def test_run_scenario_raises_config_error(scenario, key):
    with pytest.raises(ConfigError, match=key):
        run_scenario(Scenario(scenario["kind"], scenario["params"]), 0)


def test_nodes_must_be_pairs():
    with pytest.raises(ConfigError, match="nodes"):
        run_scenario(Scenario("ahsp_direct_sum",
                              {"f": "table", "nodes": 3}), 0)


def test_numeric_strings_still_convert():
    # int() and float() accept these, as before the params were checked
    loose = run_scenario(Scenario("align", {"trials": "2", "dim": "3"}), 0)
    strict = run_scenario(Scenario("align", {"trials": 2, "dim": 3}), 0)
    assert loose.passed and strict.passed
    assert [t.to_json() for t in loose.trials] == [
        t.to_json() for t in strict.trials]
