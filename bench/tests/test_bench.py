"""Tests of the benchmark itself (not of bpbkit).

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import measure  # noqa: E402
import run  # noqa: E402

measure.import_library()  # puts this checkout's src on sys.path

WORKLOADS = ("witness_mix", "correction_mix", "moduli_sweep")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_benchmark_json_lists_what_the_runner_reports():
    from tracer import metric_specs
    bench = _bench()
    assert bench["per_layer"] == metric_specs()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert len(bench["per_layer"]) <= 128
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in bench["end_to_end"] + bench["per_layer"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.01",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = _result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert "failed_frac = 0 ratio" in proc.stdout


def test_traced_smoke_run_emits_every_per_layer_metric():
    proc = _run("--workload", "correction_mix", "--seed", "3", "--seconds",
                "0.01", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = _result(proc)
    expected = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] >= 0 for k, v in out["metrics"].items()
               if k.endswith(".self_ms"))


@pytest.mark.parametrize("workload", ("witness_mix", "correction_mix"))
def test_traced_call_counts_repeat_exactly(workload):
    from bpbkit import bpb, harness, spaces
    originals = (spaces.operator_norm, spaces.EuclideanSpace.norm,
                 harness.Report.canonical_bytes)
    first = measure.trace(workload, 5, 0.0, rounds=1)["metrics"]
    second = measure.trace(workload, 5, 0.0, rounds=1)["metrics"]
    calls = {k: v["value"] for k, v in first.items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in second.items()
                     if k.endswith(".calls")}
    assert sum(calls.values()) > 0
    if workload == "witness_mix":  # no operator norms: nothing inexact
        assert first["spaces.operator_norm.exact_frac"]["value"] == 1.0
    # every wrapper is gone again
    assert (spaces.operator_norm, spaces.EuclideanSpace.norm,
            harness.Report.canonical_bytes) == originals
    assert bpb.operator_norm is spaces.operator_norm


def test_self_times_cover_the_traced_unit_time():
    out = measure.trace("correction_mix", 9, 0.0, rounds=2)
    unit_ms = out["metrics"]["trace.unit_ms"]["value"]
    assert 0.9 * unit_ms <= out["self_ms_sum_per_unit"] <= unit_ms


def test_forced_certificate_failure_is_counted_not_raised(monkeypatch):
    from bpbkit import alignment, bpb
    from bpbkit.certs import check
    workload, setup_s = measure.set_up("correction_mix")
    monkeypatch.setattr(alignment, "verify_isometry",
                        lambda phi: [check("forced", 1.0, "<=", 0.0)])

    def broken(*args, **kwargs):
        raise ValueError("forced\nsecond line")

    monkeypatch.setattr(bpb, "verify_bpb_correction", broken)
    out = measure.measure(workload, 1, 0.0, setup_s, rounds=1)
    per_round = sum(kind in ("align", "correction")
                    for kind, _ in workload.round_units(1, 1))
    # one warm-up unit of each kind, then the timed round; replays pass
    assert out["failed"] == per_round + 2
    assert any("failed forced" in r for r in out["reasons"])
    assert any("ValueError: forced" in r and "second" not in r
               for r in out["reasons"])


def test_failed_run_exits_nonzero_with_a_result(monkeypatch, capsys):
    fake = {"mode": "measure", "workload": "witness_mix", "seed": 1,
            "attempted": 4, "failed": 1, "reasons": ["direct_sum unit 3: x"],
            "setup_s": 0.5, "trials_per_s": 10.0, "trial_ms_p50": 1.0,
            "trial_ms_tail": 2.0, "peak_rss_mb": 40.0, "tail_percentile": 50,
            "tail_blocks": 1, "timed_units": 3, "rounds": 1,
            "replay_sha256": "0"}
    monkeypatch.setattr(run, "run_child", lambda *a, **k: dict(fake))
    code = run.main(["--workload", "witness_mix", "--seed", "1", "--out",
                     str(ROOT / "bench" / "out" / "test-failed.json")])
    assert code == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] is False and out["failed"] == 1


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "witness_mix", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "Traceback" not in proc.stderr


def test_tail_takes_the_highest_percentile_with_ten_beyond():
    assert measure.tail([float(i) for i in range(2500)])[1:] == (99, 2)
    assert measure.tail([float(i) for i in range(300)])[1:] == (90, 3)
    assert measure.tail([float(i) for i in range(50)])[1:] == (50, 1)
    # each block of 100 holds exactly ten values above its p90
    block = [float(i) for i in range(100)]
    cut = measure.tail(block)[0]
    assert sum(v > cut for v in block) == 10


def test_tail_ignores_a_burst_in_one_block():
    steady = [1.0] * 950 + [2.0] * 50
    burst = [1.0] * 900 + [9.0] * 100
    value, pct, blocks = measure.tail(steady * 2 + burst)
    assert (value, pct, blocks) == (2.0, 99, 3)
