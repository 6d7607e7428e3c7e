"""Certificate-level comparison of two checkouts over the digest grid.

Runs the ``tools/report_digests.py`` grid twice, each in a subprocess: once
against this checkout's ``src`` and once against ``PARENT_ROOT/src``.  It
pairs the certificates of the two runs in report order, and prints one
line per certificate name with the largest |delta lhs| and the number of
``passed`` flips.  A trial error enters as a row named after its exception
type.  Exits 1 on any flip, or when the runs do not produce the same
certificate names and errors in the same order; exits 0 otherwise.

    python3 tools/cert_delta.py PARENT_ROOT
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
HERE = TOOLS.parent


def dump() -> None:
    """Print, as JSON, ``[kind, seed, trial, name, lhs, passed]`` for every
    certificate of the grid, in report order (run under a chosen ``src``)."""
    sys.path.insert(0, str(TOOLS))
    from report_digests import GRID, SEEDS

    from bpbkit.harness import Scenario, run_scenario

    rows = []
    for kind, params in GRID:
        for seed in SEEDS:
            report = run_scenario(Scenario(kind, params), seed)
            for trial in report.trials:
                for c in trial.certificates:
                    rows.append([kind, seed, trial.index, c.name,
                                 _encode(c.lhs), c.passed])
                # a trial error counts by exception type; its message may
                # carry numbers that move by rounding
                for e in trial.errors:
                    rows.append([kind, seed, trial.index,
                                 "error " + e.split(":", 1)[0], 0.0, False])
    json.dump(rows, sys.stdout)


def _encode(x: float):
    """JSON has no non-finite numbers; write those as ``repr`` strings."""
    return x if math.isfinite(x) else repr(x)


def _gap(a: float, b: float) -> float:
    """|a - b|, 0 for equal values (NaN equal to NaN), and inf when only
    one of them is NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b)


def collect(root: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--dump"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def compare(parent: list, change: list) -> int:
    """Print the per-name table; return the exit code."""
    keys_p = [row[:4] for row in parent]
    keys_c = [row[:4] for row in change]
    if keys_p != keys_c:
        first = next((i for i, (a, b) in enumerate(zip(keys_p, keys_c))
                      if a != b), min(len(keys_p), len(keys_c)))
        print(f"certificate lists differ: {len(keys_p)} in the parent, "
              f"{len(keys_c)} in this checkout, first difference at "
              f"position {first}")
        return 1
    delta: dict[str, float] = {}
    flips: dict[str, int] = {}
    for p, c in zip(parent, change):
        name = p[3]
        delta[name] = max(delta.get(name, 0.0), _gap(float(p[4]), float(c[4])))
        flips[name] = flips.get(name, 0) + (p[5] != c[5])
    width = max(len(n) for n in delta) if delta else 4
    print(f"{'name':<{width}}  {'max |d lhs|':>12}  flips")
    for name in sorted(delta):
        print(f"{name:<{width}}  {delta[name]:>12.3g}  {flips[name]}")
    total = sum(flips.values())
    print(f"{len(parent)} certificates, {total} passed flips")
    return 1 if total else 0


def main(argv: list[str]) -> int:
    if argv == ["--dump"]:
        dump()
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    parent_root = Path(argv[0]).resolve()
    if not (parent_root / "src" / "bpbkit").is_dir():
        print(f"{parent_root} has no src/bpbkit", file=sys.stderr)
        return 2
    return compare(collect(parent_root), collect(HERE))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
