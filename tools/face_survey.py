#!/usr/bin/env python3
"""Face survey: ``finite_dim_witness`` on seeded near-collinear series.

For each of 16 space kinds (lattice spaces, direct sums, and three lp and
plane controls), 40 seeds and two (spread, eta) pairs, it draws four unit
points scattered around one unit direction, builds a witness at eps 0.3,
and prints per kind and spread: witnesses built, failures by error type,
mean ms per built witness, and the largest face residual max |f(z) - 1|
over the built witness points.

Run from the repository root, against the package on ``PYTHONPATH``::

    PYTHONPATH=src python3 tools/face_survey.py [--seeds 40]

Pointing ``PYTHONPATH`` at another checkout's ``src`` surveys that commit.
"""

from __future__ import annotations

import argparse
import math
import time
from collections import Counter

import numpy as np

from bpbkit.absolute import AbsoluteNorm2
from bpbkit.ahsp import finite_dim_witness
from bpbkit.bpb import ConvexSeries
from bpbkit.errors import BpbkitError
from bpbkit.lattices import Absolute2Lattice, LpLattice, WeightedL1Lattice
from bpbkit.spaces import (DirectSumSpace, EuclideanSpace, LatticeSpace,
                           LpSpace, PlaneSpace)

TABLE = AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])
E2 = EuclideanSpace(2)
KINDS = {
    "lattice-lp(4,3)": LatticeSpace(LpLattice(4, 3.0)),
    "lattice-lp(3,1)": LatticeSpace(LpLattice(3, 1.0)),
    "lattice-lp(3,inf)": LatticeSpace(LpLattice(3, math.inf)),
    "lattice-weighted-l1": LatticeSpace(WeightedL1Lattice([1.0, 2.0, 0.5])),
    "lattice-table": LatticeSpace(Absolute2Lattice(TABLE)),
    "lattice-plane-lp(3)": LatticeSpace(Absolute2Lattice(AbsoluteNorm2.lp(3.0))),
    "sum-E2+1E2": DirectSumSpace([E2, E2], LpLattice(2, 1.0)),
    "sum-E2+2E2": DirectSumSpace([E2, E2], LpLattice(2, 2.0)),
    "sum-E2+infE2": DirectSumSpace([E2, E2], LpLattice(2, math.inf)),
    "sum-E2+2lp(2,1)": DirectSumSpace([E2, LpSpace(2, 1.0)], LpLattice(2, 2.0)),
    "sum-table": DirectSumSpace([PlaneSpace(TABLE), E2], Absolute2Lattice(TABLE)),
    "sum-mixed": DirectSumSpace([E2, LpSpace(2, math.inf), PlaneSpace(TABLE)],
                                LpLattice(3, 3.0)),
    "sum-weighted": DirectSumSpace([E2, LpSpace(3, 1.5)],
                                   WeightedL1Lattice([1.0, 2.0])),
    "lp(3,1)": LpSpace(3, 1.0),
    "lp(3,inf)": LpSpace(3, math.inf),
    "plane-table": PlaneSpace(TABLE),
}
SPREADS = ((1e-3, 0.01), (3e-2, 0.05))


def near_collinear_series(space, seed: int, count: int = 4,
                          spread: float = 1e-3) -> ConvexSeries:
    """``count`` unit points ``spread``-scattered around one unit direction,
    with seeded weights in [0.5, 1] normalised to sum one."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(space.dim)
    u /= space.norm(u)
    points = []
    for _ in range(count):
        x = u + spread * rng.standard_normal(space.dim)
        points.append(x / space.norm(x))
    weights = rng.uniform(0.5, 1.0, size=count)
    return ConvexSeries(weights / weights.sum(), np.array(points))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40)
    args = ap.parse_args()
    print("kind,spread,eta,built,failures,ms_per_witness,max_face_residual")
    for name, space in KINDS.items():
        for spread, eta in SPREADS:
            built, elapsed, worst, failed = 0, 0.0, 0.0, Counter()
            for seed in range(args.seeds):
                series = near_collinear_series(space, seed, spread=spread)
                start = time.perf_counter()
                try:
                    w = finite_dim_witness(space, series, 0.3, eta)
                except BpbkitError as exc:
                    failed[type(exc).__name__] += 1
                    continue
                elapsed += time.perf_counter() - start
                built += 1
                values = np.array(w.points) @ w.functional
                worst = max(worst, float(np.abs(values - 1.0).max()))
            fails = " ".join(f"{k}:{v}" for k, v in sorted(failed.items()))
            ms = 1e3 * elapsed / built if built else math.nan
            print(f"{name},{spread:g},{eta:g},{built}/{args.seeds},"
                  f"{fails or '-'},{ms:.3f},{worst:.2e}")


if __name__ == "__main__":
    main()
