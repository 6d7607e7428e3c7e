#!/usr/bin/env python3
"""Fixed-work A/B of the brute-force convexity estimator, in one process.

Loads the ``src/bpbkit`` of a parent checkout and of this checkout as two
separate packages and runs, ``--alternations`` times, the brute-force mix of
the ``moduli_sweep`` workload through each side's public
``convexity_modulus(..., method="brute_force")``: per round, two
``EuclideanSpace`` units (dimensions 2-4) at 200 samples, ``LpSpace(2, p)``
for p = 2.6 and 3.9 at 400, and two units each on the table plane and the
lp(3) lattice space at 200, with epsilon walking each unit's range by the
golden-ratio sequence of the workload (its seeded jitter replaced by its
mean).  The sides alternate which runs first.  Each unit is timed with
``time.process_time``; the tool prints, per kind and in total, each side's
median milliseconds per alternation, the ratio of the medians (parent over
this checkout, so above 1 is faster here) and the median of the
per-alternation ratios, and counts the units whose values differ between
the two sides.

    python3 tools/estimator_ab.py PARENT_ROOT [--alternations N] [--rounds R]
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
GOLDEN = 0.6180339887498949
KINDS = ("euclidean", "lp", "table", "lattice")


def load(root: Path, name: str):
    """The package ``root/src/bpbkit``, imported under ``name``."""
    init = root / "src" / "bpbkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def walk(lo: float, hi: float, index: int) -> float:
    """The workload's epsilon of round ``index`` on ``[lo, hi]``."""
    return lo + (hi - lo) * ((index * GOLDEN + 0.05) % 1.0)


def mix(pkg, rounds: int) -> list:
    """The units ``(kind, space, epsilon, resolution)`` of ``rounds`` rounds,
    built from ``pkg``'s own classes."""
    table = pkg.PlaneSpace(pkg.AbsoluteNorm2.from_table(
        [(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)]))
    lattice = pkg.LatticeSpace(pkg.LpLattice(3, 3.0))
    units = []
    for r in range(rounds):
        for shift in (0, 1):
            units.append(("euclidean",
                          pkg.EuclideanSpace(2 + (r + shift) % 3),
                          walk(0.2, 1.9, r + shift), 200))
        for p in (2.6, 3.9):
            units.append(("lp", pkg.LpSpace(2, p), walk(0.3, 1.0, r), 400))
        for kind, space in (("table", table), ("lattice", lattice)):
            units.append((kind, space, walk(0.3, 0.9, r), 200))
            units.append((kind, space, walk(1.0, 1.8, r), 200))
    return units


def run(pkg, units) -> tuple[dict, list]:
    """CPU seconds per kind over ``units``, and the values in unit order."""
    seconds = dict.fromkeys(KINDS, 0.0)
    values = []
    for kind, space, eps, resolution in units:
        t0 = time.process_time()
        values.append(pkg.convexity_modulus(space, eps, method="brute_force",
                                            resolution=resolution))
        seconds[kind] += time.process_time() - t0
    return seconds, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="In-process A/B of the brute-force convexity estimator.")
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("--alternations", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args(argv)
    sides = {"parent": load(args.parent_root.resolve(), "bpbkit_parent"),
             "change": load(HERE, "bpbkit_change")}
    units = {side: mix(pkg, args.rounds) for side, pkg in sides.items()}
    times = {side: [] for side in sides}
    differ = 0
    for i in range(args.alternations):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        values = {}
        for side in order:
            seconds, values[side] = run(sides[side], units[side])
            seconds["all"] = sum(seconds.values())
            times[side].append(seconds)
        differ += sum(a != b for a, b in zip(values["parent"],
                                             values["change"]))
    print(f"{'kind':10s} {'parent ms':>10s} {'change ms':>10s} "
          f"{'ratio':>7s} {'paired':>7s}")
    for kind in (*KINDS, "all"):
        parent = [t[kind] for t in times["parent"]]
        change = [t[kind] for t in times["change"]]
        pm, cm = statistics.median(parent), statistics.median(change)
        paired = statistics.median(p / c for p, c in zip(parent, change))
        print(f"{kind:10s} {1e3 * pm:10.1f} {1e3 * cm:10.1f} "
              f"{pm / cm:7.3f} {paired:7.3f}")
    print(f"units {len(units['change'])} x {args.alternations} alternations; "
          f"values differing between the sides: {differ}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
