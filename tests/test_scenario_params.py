"""Scenario params that do not convert to numbers, or whose numbers are out
of range, are config errors."""
from __future__ import annotations

import json

import numpy as np
import pytest

from bpbkit.cli import main
from bpbkit.errors import ConfigError
from bpbkit.harness import Scenario, run_scenario
from bpbkit.util import canonical_json

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


NUMPY_PARAMS = [
    ("align", {"trials": np.int64(2), "dim": np.int64(3)},
     {"trials": 2, "dim": 3}),
    ("correct_l1sum", {"trials": np.int32(2), "epsilon": np.float32(0.5),
                       "h_dim": np.int64(2)},
     {"trials": 2, "epsilon": 0.5, "h_dim": 2}),
    ("moduli_curve",
     {"modulus": "monotonicity", "epsilons": [np.float32(0.25), np.float64(0.5)],
      "space": {"kind": "lattice", "dim": np.int64(3),
                "params": {"lattice": {"kind": "weighted_l1",
                                       "weights": np.array([1.0, 2.0, 0.5])}}}},
     {"modulus": "monotonicity", "epsilons": [0.25, 0.5],
      "space": {"kind": "lattice", "dim": 3,
                "params": {"lattice": {"kind": "weighted_l1",
                                       "weights": [1.0, 2.0, 0.5]}}}}),
]


@pytest.mark.parametrize("kind,numpy_params,plain_params", NUMPY_PARAMS)
def test_numpy_params_give_the_bytes_of_plain_numbers(kind, numpy_params,
                                                      plain_params):
    # float32 values here are exact in binary, so they equal the plain floats
    loose = run_scenario(Scenario(kind, numpy_params), 1)
    plain = run_scenario(Scenario(kind, plain_params), 1)
    assert plain.passed
    assert loose.canonical_bytes() == plain.canonical_bytes()


def test_canonical_json_names_what_it_cannot_write():
    with pytest.raises(TypeError, match="not JSON-serializable"):
        canonical_json({"a": object()})
