"""The verdict of ``tools/bench_pairs.py`` on fixed pair numbers."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def verdict(tool):
    return tool.verdict


PARENT = [500.0, 520.0, 540.0, 560.0, 580.0, 600.0, 620.0, 640.0, 660.0,
          680.0]


def test_gain_holds(verdict):
    # +100 on every pair: 10 wins, medians 590 -> 690, parent IQR 90
    v = verdict(PARENT, [p + 100.0 for p in PARENT], "higher", 0.25)
    assert (v["wins"], v["losses"]) == (10, 0)
    assert v["parent"] == (545.0, 590.0, 635.0)
    assert v["parent_iqr"] == 90.0
    assert v["change"][1] == 690.0
    assert v["rel_change"] == pytest.approx(100.0 / 590.0)
    assert v["bound"] == "within" and v["gain"]


def test_gain_needs_nine_tenths_of_the_pairs(verdict):
    change = [p + 100.0 for p in PARENT]
    change[0] = change[1] = 400.0  # two losses: 8 of 10 wins
    v = verdict(PARENT, change, "higher", 0.25)
    assert (v["wins"], v["losses"]) == (8, 2)
    assert not v["gain"]
    change[1] = PARENT[1]  # a tie counts for neither side: 9 of 10 wins
    v = verdict(PARENT, change, "higher", 0.25)
    assert (v["wins"], v["losses"]) == (8, 1)
    assert not v["gain"]
    change[1] = PARENT[1] + 1.0
    assert verdict(PARENT, change, "higher", 0.25)["gain"]


def test_gain_needs_medians_apart_by_the_parent_iqr(verdict):
    # 10 of 10 wins, but the medians move by 50 against an IQR of 90
    v = verdict(PARENT, [p + 50.0 for p in PARENT], "higher", 0.25)
    assert v["wins"] == 10 and not v["gain"]


def test_lower_is_better_and_the_bound(verdict):
    ms = [p / 100.0 for p in PARENT]
    v = verdict(ms, [m - 1.0 for m in ms], "lower", 0.25)
    assert v["wins"] == 10 and v["gain"] and v["bound"] == "within"
    # 20% slower stays within a 25% bound, 30% slower does not
    v = verdict(ms, [m * 1.2 for m in ms], "lower", 0.25)
    assert v["bound"] == "within"
    v = verdict(ms, [m * 1.3 for m in ms], "lower", 0.25)
    assert v["bound"] == "beyond" and v["losses"] == 10 and not v["gain"]
    v = verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25)
    assert v["bound"] == "beyond"


def test_spread_wider_than_the_bound_is_unresolved(verdict):
    # quartiles 300 and 750 around a median of 550: an IQR of 82% of it
    wide = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0,
            1000.0]
    assert verdict(wide, wide, "higher", 0.25)["bound"] == "unresolved"
    v = verdict(wide, [w * 0.5 for w in wide], "higher", 0.25)
    assert v["bound"] == "unresolved"
    # every change run better than every parent run resolves it
    v = verdict(wide, [w + 1000.0 for w in wide], "higher", 0.25)
    assert v["bound"] == "within" and v["gain"]
    v = verdict(wide, [w - 100.0 for w in wide], "lower", 0.25)
    assert v["bound"] == "unresolved"
    v = verdict(wide, [w / 20.0 for w in wide], "lower", 0.25)
    assert v["bound"] == "within"
    # the same spread under a wider bound is resolved
    assert verdict(wide, wide, "higher", 0.9)["bound"] == "within"


def test_more_failures_void_a_gain(verdict):
    change = [p + 100.0 for p in PARENT]
    assert verdict(PARENT, change, "higher", 0.25, 0.0, 0.0)["gain"]
    assert not verdict(PARENT, change, "higher", 0.25, 0.0, 1e-4)["gain"]
    assert verdict(PARENT, change, "higher", 0.25, 2e-4, 1e-4)["gain"]


def test_failed_share_of_no_operations(tool):
    assert tool.failed_share(1, 4) == 0.25
    assert tool.failed_share(0, 0) != tool.failed_share(0, 0)  # NaN
    change = [p + 100.0 for p in PARENT]
    assert not tool.verdict(PARENT, change, "higher", 0.25, 0.0,
                            tool.failed_share(0, 0))["gain"]


def test_unpaired_runs_refused(verdict):
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:-1], "higher", 0.25)
    with pytest.raises(ValueError):
        verdict([], [], "higher", 0.25)
