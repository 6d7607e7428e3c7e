"""Canonical report digests, one per scenario kind.

Runs ``run_scenario`` over a fixed grid of scenarios at seeds 0 and 1 and
prints, for each kind in ``SCENARIO_KINDS``, the sha256 of the canonical
report bytes of all that kind's runs in grid order.  A refactor that keeps
behaviour keeps every digest; run it before and after a change and compare.
``tests/test_report_digests.py`` pins the current digests.

    PYTHONPATH=src python3 tools/report_digests.py
"""

from __future__ import annotations

import hashlib
import math

from bpbkit.absolute import AbsoluteNorm2
from bpbkit.harness import SCENARIO_KINDS, Scenario, run_scenario
from bpbkit.lattices import Absolute2Lattice, LpLattice
from bpbkit.spaces import EuclideanSpace, LatticeSpace, LpSpace, PlaneSpace

SEEDS = (0, 1)
TABLE = AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])
SKEW = AbsoluteNorm2.from_table([(0.0, 1.0), (0.3, 0.8), (1.0, 1.0)])

GRID = [
    ("align", {"trials": 8, "dim": 3}),
    ("align", {"trials": 8, "dim": 2, "scalar_field": "complex"}),
    ("correct_l1sum", {"trials": 3, "epsilon": 0.2}),
    ("correct_l1sum", {"trials": 2, "epsilon": 0.5, "h_dim": 2}),
    ("ahsp_direct_sum", {"trials": 2, "f": "l2", "epsilon": 0.3}),
    ("ahsp_direct_sum", {"trials": 2, "f": "l3", "epsilon": 0.2, "case": "1"}),
    ("ahsp_direct_sum", {"trials": 2, "f": "l1", "epsilon": 0.3,
                         "case": "3-mixed"}),
    ("ahsp_direct_sum", {"trials": 2, "f": "table", "epsilon": 0.2,
                         "case": "2", "restrict": 0}),
    ("ahsp_direct_sum", {"trials": 2, "f": SKEW.to_params(), "epsilon": 0.3,
                         "case": "1"}),
    ("ahsp_direct_sum", {"trials": 2, "f": AbsoluteNorm2.lp(math.inf).to_params(),
                         "epsilon": 0.3, "case": "3-mixed"}),
    ("ahsp_lattice_sum", {"trials": 2, "p": 2.0, "epsilon": 0.3}),
    ("ahsp_lattice_sum", {"trials": 2, "p": 3.0, "epsilon": 0.2}),
    ("ahsp_lattice_sum", {"trials": 2, "p": 1.0, "epsilon": 0.3,
                          "zero_branch": True}),
    ("moduli_curve", {"space": EuclideanSpace(3).to_json(), "count": 12}),
    ("moduli_curve", {"space": LpSpace(3, 1.5).to_json(), "count": 12}),
    ("moduli_curve", {"space": LpSpace(2, 4.0).to_json(), "count": 12}),
    # no closed form: these two reach the brute-force estimator
    ("moduli_curve", {"space": PlaneSpace(TABLE).to_json(),
                      "method": "brute_force", "count": 3}),
    ("moduli_curve", {"space": LatticeSpace(LpLattice(3, 3.0)).to_json(),
                      "method": "brute_force", "count": 3}),
    ("moduli_curve", {"space": LpSpace(3, 3.0).to_json(),
                      "modulus": "monotonicity", "count": 12}),
    ("moduli_curve", {"space": PlaneSpace(AbsoluteNorm2.lp(2.5)).to_json(),
                      "modulus": "monotonicity", "count": 12}),
    ("moduli_curve", {"space": LatticeSpace(Absolute2Lattice(TABLE)).to_json(),
                      "modulus": "monotonicity", "count": 12}),
    ("moduli_curve", {"space": LatticeSpace(Absolute2Lattice(SKEW)).to_json(),
                      "modulus": "monotonicity", "count": 12}),
    # lp(inf) is not uniformly monotone: its trials record that error
    ("moduli_curve", {"space": PlaneSpace(AbsoluteNorm2.lp(math.inf)).to_json(),
                      "modulus": "monotonicity", "count": 4}),
    ("moduli_curve", {"space": LatticeSpace(LpLattice(3, 1.0)).to_json(),
                      "modulus": "monotonicity", "count": 12}),
    ("duality_check", {"trials": 3, "p": 1.0}),
    ("duality_check", {"trials": 3, "p": 3.0, "samples": 20}),
    # more samples than one block of lattice_sums.SAMPLE_BLOCK (4096)
    ("duality_check", {"trials": 2, "p": 2.0, "samples": 5000}),
]


def report_digests() -> dict[str, str]:
    """The hex sha256 of each kind's canonical report bytes over the grid,
    in ``SCENARIO_KINDS`` order."""
    kinds = {kind for kind, _ in GRID}
    if kinds != set(SCENARIO_KINDS):
        raise SystemExit(f"grid covers {sorted(kinds)}, "
                         f"not every kind of {sorted(SCENARIO_KINDS)}")
    digests = {kind: hashlib.sha256() for kind in SCENARIO_KINDS}
    for kind, params in GRID:
        for seed in SEEDS:
            report = run_scenario(Scenario(kind, params), seed)
            digests[kind].update(report.canonical_bytes())
    return {kind: digests[kind].hexdigest() for kind in SCENARIO_KINDS}


def main() -> None:
    for kind, digest in report_digests().items():
        print(f"{kind} {digest}")


if __name__ == "__main__":
    main()
