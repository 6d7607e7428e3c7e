"""Seeded scenario harness and the command-line front end."""
from __future__ import annotations

import json

import numpy as np
import pytest

from bpbkit.absolute import AbsoluteNorm2
from bpbkit.cli import main
from bpbkit.errors import ConfigError
from bpbkit.harness import (
    Report,
    Scenario,
    TrialRecord,
    run_scenario,
    scenario_from_json,
)
from bpbkit.lattices import Absolute2Lattice, LpLattice
from bpbkit.spaces import DirectSumSpace, EuclideanSpace, LpSpace, Operator


class TestScenarioValidation:
    def test_round_trip(self):
        s = scenario_from_json({"kind": "align", "params": {"trials": 3}})
        assert s.kind == "align"
        assert s.to_json() == {"kind": "align", "params": {"trials": 3}}

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            scenario_from_json([1, 2])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind must be one of"):
            scenario_from_json({"kind": "nope"})

    def test_extra_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario keys"):
            scenario_from_json({"kind": "align", "extra": 1})

    def test_params_must_be_object(self):
        with pytest.raises(ConfigError, match="params must be an object"):
            scenario_from_json({"kind": "align", "params": 3})

    def test_run_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            run_scenario(Scenario("mystery", {}), 0)

    def test_run_rejects_nonpositive_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            run_scenario(Scenario("align", {"trials": 0}), 0)


SMALL_SCENARIOS = [
    ("align", {"trials": 6, "dim": 3, "scalar_field": "complex"}),
    ("correct_l1sum", {"trials": 3, "epsilon": 0.3}),
    ("ahsp_direct_sum", {"trials": 3, "f": "l2", "epsilon": 0.3, "members": 4}),
    ("ahsp_direct_sum", {"trials": 2, "f": "l1", "epsilon": 0.3, "case": "3-mixed"}),
    ("ahsp_direct_sum", {"trials": 2, "f": "l2", "epsilon": 0.2, "case": "1",
                         "restrict": 1}),
    ("ahsp_lattice_sum", {"trials": 3, "p": 2.0, "epsilon": 0.3}),
    ("ahsp_lattice_sum", {"trials": 2, "p": 1.0, "epsilon": 0.3,
                          "zero_branch": True}),
    ("moduli_curve", {"trials": 1, "space": {"kind": "euclidean", "dim": 2},
                      "modulus": "convexity", "count": 8}),
    ("duality_check", {"trials": 3, "p": 1.0}),
]


class TestRunScenario:
    @pytest.mark.parametrize("kind,params", SMALL_SCENARIOS)
    def test_small_scenarios_pass(self, kind, params):
        report = run_scenario(Scenario(kind, params), 11)
        assert report.passed
        assert report.total_certificates > 0
        assert report.failures == 0
        assert report.error_count == 0
        assert len(report.trials) == params.get("trials", 1)

    def test_same_seed_same_bytes(self):
        s = Scenario("align", {"trials": 5, "dim": 2})
        assert run_scenario(s, 9).canonical_bytes() == run_scenario(s, 9).canonical_bytes()

    def test_different_seed_different_bytes(self):
        s = Scenario("align", {"trials": 5, "dim": 2})
        assert run_scenario(s, 9).canonical_bytes() != run_scenario(s, 10).canonical_bytes()

    def test_witness_scenario_bytes_reproducible(self):
        s = Scenario("ahsp_lattice_sum", {"trials": 2, "p": 2.0, "epsilon": 0.3})
        assert run_scenario(s, 4).canonical_bytes() == run_scenario(s, 4).canonical_bytes()

    def test_wall_time_reported_but_not_canonical(self):
        report = run_scenario(Scenario("align", {"trials": 2}), 0)
        assert report.wall_time > 0.0
        assert "wall_time_seconds" in report.to_json()
        assert "wall_time_seconds" not in report.canonical_payload()

    def test_trial_error_recorded_not_raised(self):
        # Asking for the closed-form convexity modulus of a flat norm is a
        # legitimate per-trial failure: recorded as a string, not raised.
        scenario = Scenario(
            "moduli_curve",
            {"trials": 1, "space": LpSpace(2, 1.0).to_json(),
             "modulus": "convexity", "method": "closed_form", "count": 4},
        )
        report = run_scenario(scenario, 0)
        assert not report.passed
        assert report.error_count == 1
        assert "NotUniformlyConvex" in report.trials[0].errors[0]
        assert report.trials[0].certificates == []

    def test_zero_certificates_is_a_failure(self):
        report = Report(Scenario("align", {}), 0, [TrialRecord(0)], 0.01)
        assert report.total_certificates == 0
        assert report.failures == 0
        assert not report.passed

    def test_config_errors_escape_the_trial_loop(self):
        with pytest.raises(ConfigError):
            run_scenario(Scenario("moduli_curve", {"trials": 1}), 0)  # no space


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def plane_sum_instance(u: float) -> dict:
    f = AbsoluteNorm2.lp(2.0)
    X = DirectSumSpace([EuclideanSpace(2), EuclideanSpace(2)], Absolute2Lattice(f))
    a, b = f.sphere_point(u)
    pt = [float(a), 0.0, 0.0, float(b)]
    return {"space": X.to_json(), "weights": [0.5, 0.5], "points": [pt, pt],
            "epsilon": 0.3}


class TestCli:
    def test_run_writes_report(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json",
                          {"kind": "align", "params": {"trials": 4, "dim": 2}})
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", scen, "--seed", "7", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert sorted(report) == ["scenario", "seed", "summary", "trials",
                                  "wall_time_seconds"]
        assert report["summary"]["passed"] is True
        assert "PASS" in capsys.readouterr().out

    def test_run_reports_trial_errors(self, tmp_path, capsys):
        scen = write_json(
            tmp_path / "s.json",
            {"kind": "moduli_curve",
             "params": {"trials": 1, "space": LpSpace(2, 1.0).to_json(),
                        "modulus": "convexity", "method": "closed_form"}})
        assert main(["run", "--scenario", scen]) == 1
        out = capsys.readouterr().out
        assert "NotUniformlyConvex" in out
        assert "FAIL" in out

    def test_witness_files_round_trip(self, tmp_path, capsys):
        inst = write_json(tmp_path / "inst.json", plane_sum_instance(0.5))
        witness = tmp_path / "witness.json"
        assert main(["ahsp-direct-sum", "--instance", inst,
                     "--out", str(witness)]) == 0
        series = write_json(tmp_path / "series.json",
                            {k: plane_sum_instance(0.5)[k]
                             for k in ("weights", "points")})
        assert main(["ahsp-verify", "--witness", str(witness),
                     "--instance", series]) == 0
        out = capsys.readouterr().out
        assert "5/5 certificates passed" in out

    def test_tampered_witness_fails_verification(self, tmp_path):
        inst = write_json(tmp_path / "inst.json", plane_sum_instance(0.5))
        witness = tmp_path / "witness.json"
        main(["ahsp-direct-sum", "--instance", inst, "--out", str(witness)])
        data = json.loads(witness.read_text())
        data["points"] = [[1.1 * c for c in p] for p in data["points"]]
        witness.write_text(json.dumps(data))
        series = write_json(tmp_path / "series.json",
                            {k: plane_sum_instance(0.5)[k]
                             for k in ("weights", "points")})
        assert main(["ahsp-verify", "--witness", str(witness),
                     "--instance", series]) == 1

    def test_out_of_range_witness_index_in_one_line(self, tmp_path, capsys):
        # index 3 of a one-point series once ended in a raw IndexError
        series = write_json(tmp_path / "series.json",
                            {"weights": [1.0], "points": [[1.0, 0.0]]})
        witness = write_json(tmp_path / "witness.json",
                             {**witness_without_indices(), "indices": [3]})
        assert main(["ahsp-verify", "--witness", witness,
                     "--instance", series]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: RangeError: witness index 3 is not "
                                "a position of the 1-point series\n")
        assert captured.out == ""

    def test_restrict_concentrated_witness(self, tmp_path):
        inst_data = plane_sum_instance(0.0)  # everything in the first summand
        inst_data["epsilon"] = 0.2
        inst = write_json(tmp_path / "inst.json", inst_data)
        witness = tmp_path / "w.json"
        assert main(["ahsp-direct-sum", "--instance", inst,
                     "--out", str(witness)]) == 0
        out = tmp_path / "restricted.json"
        assert main(["ahsp-restrict", "--witness", str(witness),
                     "--component", "0", "--out", str(out)]) == 0
        restricted = json.loads(out.read_text())
        assert restricted["space"]["kind"] == "euclidean"
        assert restricted["epsilon"] == pytest.approx(0.4)

    def test_lattice_sum_subcommand(self, tmp_path):
        Z = DirectSumSpace([EuclideanSpace(2), EuclideanSpace(3)],
                           LpLattice(2, 1.0))
        member = [0.36, 0.48, 0.4, 0.0, 0.0]  # block norms (0.6, 0.4)
        inst = write_json(tmp_path / "inst.json",
                          {"space": Z.to_json(), "weights": [1.0],
                           "points": [member], "epsilon": 0.3})
        out = tmp_path / "w.json"
        assert main(["ahsp-lattice-sum", "--instance", inst,
                     "--out", str(out)]) == 0
        witness = json.loads(out.read_text())
        assert witness["space"]["kind"] == "direct_sum"

    def test_correct_l1sum_subcommand(self, tmp_path):
        components = [EuclideanSpace(1), EuclideanSpace(1)]
        domain = DirectSumSpace(components, LpLattice(2, 1.0))
        T = Operator(np.array([[1.0, 1.0]]), domain, EuclideanSpace(1))
        inst = write_json(tmp_path / "inst.json",
                          {"operator": T.to_json(), "vector": [0.6, 0.4],
                           "epsilon": 0.3})
        out = tmp_path / "corrected.json"
        assert main(["correct-l1sum", "--instance", inst,
                     "--out", str(out)]) == 0
        corrected = json.loads(out.read_text())
        assert sorted(corrected) == ["corrected_operator", "corrected_vector",
                                     "dist_op", "dist_vec"]
        assert corrected["dist_op"] == pytest.approx(0.0, abs=1e-12)

    def test_moduli_curve_csv_and_json(self, tmp_path):
        space = write_json(tmp_path / "space.json", EuclideanSpace(2).to_json())
        csv_path = tmp_path / "curve.csv"
        out = tmp_path / "curve.json"
        assert main(["moduli-curve", "--space", space,
                     "--epsilons", "0.5,1.0", "--csv", str(csv_path),
                     "--out", str(out)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "epsilon,value"
        assert lines[1] == "0.5,0.031754163448145745"
        data = json.loads(out.read_text())
        assert [s[0] for s in data["samples"]] == [0.5, 1.0]

    def test_moduli_curve_monotonicity_csv_to_stdout(self, tmp_path, capsys):
        # neither --csv nor --out: the CSV goes to stdout
        space = write_json(tmp_path / "space.json", LpSpace(3, 2.0).to_json())
        assert main(["moduli-curve", "--space", space, "--modulus",
                     "monotonicity", "--epsilons", "0.6,0.8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["epsilon,value"] + [
            f"{e!r},{1.0 - (1.0 - e ** 2) ** 0.5!r}" for e in (0.6, 0.8)]

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "absent.json")]) == 2

    def test_malformed_scenario_exits_2(self, tmp_path):
        scen = write_json(tmp_path / "s.json", {"kind": "nope"})
        assert main(["run", "--scenario", scen]) == 2

    def test_runtime_failure_exits_1(self, tmp_path):
        bad = plane_sum_instance(0.5)
        bad["epsilon"] = 2.0
        inst = write_json(tmp_path / "inst.json", bad)
        assert main(["ahsp-direct-sum", "--instance", inst]) == 1

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


def lattice_sum_instance() -> dict:
    Z = DirectSumSpace([EuclideanSpace(2), EuclideanSpace(3)],
                       LpLattice(2, 1.0))
    return {"space": Z.to_json(), "weights": [1.0],
            "points": [[0.36, 0.48, 0.4, 0.0, 0.0]], "epsilon": 0.3}


def without(data: dict, key: str) -> dict:
    return {k: v for k, v in data.items() if k != key}


def witness_without_indices() -> dict:
    space = EuclideanSpace(2)
    return {"space": space.to_json(), "points": [[1.0, 0.0]],
            "functional": [1.0, 0.0], "epsilon": 0.3}


class TestCliMalformedFields:
    # Missing or malformed fields of the input files and options; all but
    # the empty operator once ended in a raw KeyError or ValueError
    # traceback.
    CASES = {
        "epsilons-not-numbers": (
            ["moduli-curve", "--space", "{a}", "--epsilons", "0.1,abc"],
            {"a": EuclideanSpace(2).to_json()}),
        "direct-sum-no-space": (
            ["ahsp-direct-sum", "--instance", "{a}"],
            {"a": without(plane_sum_instance(0.5), "space")}),
        "direct-sum-no-epsilon": (
            ["ahsp-direct-sum", "--instance", "{a}"],
            {"a": without(plane_sum_instance(0.5), "epsilon")}),
        "lattice-sum-no-space": (
            ["ahsp-lattice-sum", "--instance", "{a}"],
            {"a": without(lattice_sum_instance(), "space")}),
        "lattice-sum-no-epsilon": (
            ["ahsp-lattice-sum", "--instance", "{a}"],
            {"a": without(lattice_sum_instance(), "epsilon")}),
        "verify-witness-no-indices": (
            ["verify", "--witness", "{a}", "--instance", "{b}"],
            {"a": witness_without_indices(),
             "b": {"weights": [1.0], "points": [[1.0, 0.0]]}}),
        # int() once read 0.7 as index 0 and true as index 1, so another
        # witness than the file's was verified
        "verify-witness-fractional-index": (
            ["ahsp-verify", "--witness", "{a}", "--instance", "{b}"],
            {"a": {**witness_without_indices(), "indices": [0.7]},
             "b": {"weights": [1.0], "points": [[1.0, 0.0]]}}),
        "verify-witness-boolean-index": (
            ["ahsp-verify", "--witness", "{a}", "--instance", "{b}"],
            {"a": {**witness_without_indices(), "indices": [True]},
             "b": {"weights": [0.5, 0.5], "points": [[1.0, 0.0],
                                                     [1.0, 0.0]]}}),
        "restrict-witness-no-indices": (
            ["ahsp-restrict", "--witness", "{a}", "--component", "0"],
            {"a": witness_without_indices()}),
        "correct-l1sum-empty-operator": (
            ["correct-l1sum", "--instance", "{a}"],
            {"a": {"operator": {}, "epsilon": 0.3}}),
        # int() once read "abc" with a raw ValueError, and 2.5 as 2, true as
        # 1 and "3" as 3: another space than the file's
        **{f"space-dim-{name}": (
            ["moduli-curve", "--space", "{a}", "--epsilons", "0.5"],
            {"a": {**EuclideanSpace(2).to_json(), "dim": dim}})
           for name, dim in (("not-a-number", "abc"), ("fractional", 2.5),
                             ("boolean", True), ("string", "3"))},
        "lattice-dim-fractional": (
            ["moduli-curve", "--space", "{a}", "--epsilons", "0.5",
             "--modulus", "monotonicity"],
            {"a": {"kind": "lattice", "dim": 3,
                   "params": {"lattice": {"kind": "lp", "dim": 3.5,
                                          "p": 3.0}}}}),
        "direct-sum-combiner-dim-boolean": (
            ["moduli-curve", "--space", "{a}", "--epsilons", "0.5"],
            {"a": {**lattice_sum_instance()["space"],
                   "params": {**lattice_sum_instance()["space"]["params"],
                              "combiner": {"kind": "lp", "dim": True,
                                           "p": 1.0}}}}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_config_error_in_one_line(self, tmp_path, capsys, case):
        template, files = self.CASES[case]
        paths = {name: write_json(tmp_path / f"{name}.json", payload)
                 for name, payload in files.items()}
        argv = [arg.format(**paths) for arg in template]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert captured.out == ""
