"""Byte gate: the canonical report digests of the ``tools/report_digests.py``
grid, pinned.

A change that keeps behaviour keeps every digest.  A change that moves report
bytes on purpose updates the pin here and lists the moved values in
CHANGES.md.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"

PINNED = {
    "align":
        "92b987fe89e3709fb7eda0a8a36bbbb3cc192d63d42468ae6b4c12ca5d439e86",
    "correct_l1sum":
        "4853d74717ea4ce5742fd63db51469dbf474a9ff9494620d237809035241c02f",
    "ahsp_direct_sum":
        "34c02745dff6e3ddece3f4ee27792473e2161fc4d2d1218acdfbfae78336eb91",
    "ahsp_lattice_sum":
        "3e9309fe52c8cd39f0296150154e5a3db60b4183071114a352709e9afaa71792",
    "moduli_curve":
        "7787dd5b448f4bb1d97b624cd15b8225e64529dc2a778d3ac30abf37b01d53e7",
    "duality_check":
        "30b0d2cbb1d05e73ad623da85cce5434ab16d6188694568a7d3319b0111e2849",
}


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digests_are_pinned():
    assert _load_tool().report_digests() == PINNED
