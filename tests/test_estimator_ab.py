"""Smoke test of ``tools/estimator_ab.py``: this tree against itself."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_of_the_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "estimator_ab.py"), str(ROOT),
         "--alternations", "2", "--rounds", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["kind", "parent", "ms", "change", "ms",
                                "ratio", "paired"]
    assert [line.split()[0] for line in lines[1:6]] == [
        "euclidean", "lp", "table", "lattice", "all"]
    assert lines[-1] == ("units 8 x 2 alternations; values differing "
                         "between the sides: 0")
