#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent checkout against this one.

Runs ``bench/run.py --workload W --seed K --seconds S`` in both checkouts,
``--pairs N`` times, the parent first in odd pairs and this checkout first
in even ones.  Each run writes its results file (``--out``) into a
temporary directory outside both checkouts.  The end-to-end metrics, their
directions and their regression bounds come from this checkout's
``BENCHMARK.json``.

It prints one row per pair, then per metric: each side's median and
quartiles, the pairs the change won (ties count for neither), the relative
change of the medians against the metric's bound, and whether the gain rule
holds.  The median's move is "unresolved" when the parent's interquartile
range, relative to its median, is wider than the bound, unless every run
of the change reads better than every run of the parent.  The gain rule:
the change wins at least nine tenths of the pairs, its median is better,
the medians differ by more than the parent's interquartile range, and no
larger share of its operations fails.

    python3 tools/bench_pairs.py PARENT_ROOT --workload W --pairs N \\
        --seconds S --seed K
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the quartiles by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, failed_parent: float = 0.0,
            failed_change: float = 0.0) -> dict:
    """The pair statistics of one metric: paired runs ``parent[i]`` and
    ``change[i]``; ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is
    the relative worsening of the median the benchmark allows;
    ``failed_*`` are each side's shares of failed operations (NaN, which
    voids a gain, when a side attempted none).  ``bound`` in the result is
    ``"within"``, ``"beyond"`` or ``"unresolved"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    rel = (cm - pm) / pm if pm else 0.0
    gain = (wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1
            and failed_change <= failed_parent)
    every_run_better = min(sign * c for c in change) > max(
        sign * p for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not every_run_better:
        state = "unresolved"
    else:
        state = "within" if sign * rel >= -bound else "beyond"
    return {"pairs": len(parent), "wins": wins, "losses": losses,
            "parent": (p1, pm, p3), "change": (c1, cm, c3),
            "parent_iqr": p3 - p1, "rel_change": rel, "bound": state,
            "gain": gain}


def failed_share(failed: int, attempted: int) -> float:
    """The share of failed operations; NaN when none was attempted."""
    return failed / attempted if attempted else math.nan


def run_once(root: Path, workload: str, seed: int, seconds: float,
             out: Path) -> dict:
    """One ``bench/run.py`` run in ``root``; its result record."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--out", str(out)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not out.exists():
        err = proc.stderr.strip().splitlines()
        raise RuntimeError(f"bench/run.py in {root} exited with "
                           f"{proc.returncode}: {err[-1] if err else ''}")
    return json.loads(out.read_text(encoding="utf-8"))["results"][0]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    bench = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]
    parser = argparse.ArgumentParser(
        description="Alternating bench/run.py pairs, parent against this "
                    "checkout.")
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    parent_root = args.parent_root.resolve()
    if not (parent_root / "bench" / "run.py").is_file():
        parser.error(f"{parent_root} has no bench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    sides = {"parent": parent_root, "change": HERE}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    names = [m["name"] for m in metrics]
    print("| pair | first | " + " | ".join(
        f"parent `{n}` | change" for n in names + ["failed"]) + " |")
    print("|" + " --- |" * (2 + 2 * (len(names) + 1)))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for pair in range(1, args.pairs + 1):
            order = (("parent", "change") if pair % 2
                     else ("change", "parent"))
            for side in order:
                out = Path(tmp) / f"{side}-{pair}.json"
                runs[side].append(run_once(sides[side], args.workload,
                                           args.seed, args.seconds, out))
            cells = []
            for n in names + ["failed"]:
                cells += [_fmt(runs[s][-1][n]) for s in ("parent", "change")]
            print(f"| {pair} | {order[0]} | " + " | ".join(cells) + " |",
                  flush=True)

    failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
    attempted = {s: sum(r["attempted"] for r in runs[s]) for s in runs}
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s; failed {failed['parent']}/"
          f"{attempted['parent']} (parent), {failed['change']}/"
          f"{attempted['change']} (change)")
    for m in metrics:
        v = verdict([r[m["name"]] for r in runs["parent"]],
                    [r[m["name"]] for r in runs["change"]],
                    m["better"], m["bound"],
                    failed_share(failed["parent"], attempted["parent"]),
                    failed_share(failed["change"], attempted["change"]))
        p1, pm, p3 = v["parent"]
        c1, cm, c3 = v["change"]
        print(f"{m['name']} ({m['unit']}, {m['better']} is better): "
              f"parent {_fmt(pm)} [{_fmt(p1)}, {_fmt(p3)}], "
              f"change {_fmt(cm)} [{_fmt(c1)}, {_fmt(c3)}]; "
              f"change won {v['wins']}/{v['pairs']}, lost {v['losses']}; "
              f"median {v['rel_change']:+.1%} "
              f"({v['bound']} against the {m['bound']:.0%} bound); "
              f"gain rule "
              f"{'holds' if v['gain'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
