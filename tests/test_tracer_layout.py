"""The per-layer tracer of ``bench/tracer.py`` against the library's layout.

The tracer wraps each traced method as ``cls.__dict__[name]`` of its own
class, so a method moved into a base class breaks ``bench/run.py --trace 1``
with a ``KeyError``.  The benchmark's own tests are not part of this suite,
so this test installs and uninstalls the tracer here.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from bpbkit import absolute, harness, lattices, spaces

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    return tracer


def _snapshot(tracer_module):
    owners = [*tracer_module.SPACE_CLASSES, spaces.NormedSpace,
              *tracer_module.LATTICE_CLASSES, absolute.AbsoluteNorm2,
              harness.Report]
    owners += [m for n, m in sorted(sys.modules.items())
               if n == "bpbkit" or n.startswith("bpbkit.")]
    return {owner: dict(vars(owner)) for owner in owners}


def test_install_wraps_and_uninstall_restores(tracer_module):
    before = _snapshot(tracer_module)
    t = tracer_module.Tracer()
    t.install()
    try:
        for cls in tracer_module.LATTICE_CLASSES:
            for name in tracer_module.LATTICE_METHODS:
                assert hasattr(vars(cls)[name], "__wrapped__"), (cls, name)
        lattices.LpLattice(3, 1.5).norming_of([1.0, -2.0, 3.0])
        spaces.DirectSumSpace(
            [spaces.EuclideanSpace(2), spaces.LpSpace(2, 3.0)],
            lattices.LpLattice(2, 2.0)).norming_functional(np.ones(4))
        absolute.AbsoluteNorm2.lp(1.0).dual_pair((0.3, 0.7))
    finally:
        t.uninstall()
    assert t.calls["lattices.norming_of"] == 1
    assert t.calls["spaces.direct_sum.norming_functional"] == 1
    assert t.calls["absolute.dual_pair"] == 1
    after = _snapshot(tracer_module)
    for owner, attrs in before.items():
        changed = [k for k in attrs if after[owner].get(k) is not attrs[k]]
        assert not changed, (owner, changed)
