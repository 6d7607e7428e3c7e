"""Certified-throughput benchmark of bpbkit.

Usage (from the repository root):

    python3 bench/run.py --workload witness_mix --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --out FILE

Each measurement runs in a fresh child process with BLAS and OpenMP pinned
to one thread.  ``--trace 0`` runs ``SETUP_RUNS`` set-ups (the last one
goes on to measure) and reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of a traced run.  ``--workload all`` runs
every workload both ways and writes one results file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every unit, verifier and replay passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEASURE = ROOT / "bench" / "measure.py"
WORKLOADS = ("witness_mix", "correction_mix", "moduli_sweep")
# Every child of one command finishes within this many seconds in total.
BUDGET_S = 170.0
# Fresh-process set-ups per end-to-end run; setup_s is their median.
SETUP_RUNS = 3
END_TO_END = (("trials_per_s", "1/s"), ("trial_ms_p50", "ms"),
              ("trial_ms_tail", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(mode: str, workload: str, seed: int, seconds: float,
              deadline: float) -> dict:
    cmd = [sys.executable, str(MEASURE), "--mode", mode, "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before a child could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child for {workload} ran past the "
                         f"{BUDGET_S:.0f} s budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        raise BenchError(f"{mode} child for {workload} exited with "
                         f"{proc.returncode}: {err[-1] if err else 'no output'}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> dict:
    setups = [run_child("setup", workload, seed, seconds, deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    out = run_child("measure", workload, seed, seconds, deadline)
    setups.append(out["setup_s"])
    out["setup_s_runs"] = setups
    out["setup_s"] = statistics.median(setups)
    out["failed_frac"] = out["failed"] / out["attempted"]
    out["metrics"] = {name: {"value": out[name], "unit": unit}
                      for name, unit in END_TO_END}
    return out


def print_result(out: dict) -> None:
    head = f"{out['workload']} seed={out['seed']}"
    print(f"{head}: {out['attempted']} attempted, {out['failed']} failed")
    for reason in out["reasons"]:
        print(f"  FAIL {reason}")
    if out["mode"] == "measure":
        for name, unit in END_TO_END:
            print(f"  {name} = {out[name]:.6g} {unit}")
        print(f"  failed_frac = {out['failed_frac']:.6g} ratio")
        print(f"  tail is the median p{out['tail_percentile']} of "
              f"{out['tail_blocks']} blocks; {out['timed_units']} units in "
              f"{out['rounds']} rounds")
        print(f"  replay sha256 {out['replay_sha256']}")
    else:
        print(f"  {out['timed_units']} traced units over {out['rounds']} "
              f"rounds; self times sum to {out['self_ms_sum_per_unit']:.4g} "
              f"of {out['metrics']['trace.unit_ms']['value']:.4g} ms/unit")


def final_line(results: list[dict]) -> str:
    """The result object; with several workloads, names get a prefix."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in r["metrics"].items()})
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Certified-throughput benchmark of bpbkit.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="results file (default: bench/out/...)")
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + (BUDGET_S if args.workload != "all"
                        else 6 * BUDGET_S)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    try:
        results = []
        for name in names:
            for trace in traces:
                if trace:
                    out = run_child("trace", name, args.seed, args.seconds,
                                    deadline)
                else:
                    out = end_to_end(name, args.seed, args.seconds, deadline)
                print_result(out)
                results.append(out)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    record = {"command": ["python3", "bench/run.py"] + list(
                  argv if argv is not None else sys.argv[1:]),
              "seconds": args.seconds, "wall_s": time.monotonic() - start,
              "results": results}
    out = Path(args.out) if args.out else (
        ROOT / "bench" / "out"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(final_line(results))
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
