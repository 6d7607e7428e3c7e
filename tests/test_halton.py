"""The brute-force estimator's sample points, and moduli and face witnesses
that run without importing scipy."""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import bpbkit
from bpbkit.moduli import _sample_directions


def test_sample_directions_are_cached_and_read_only():
    first = _sample_directions(4, 10)
    assert _sample_directions(4, 10) is first
    assert not first.flags.writeable


def test_brute_force_moduli_import_no_scipy_stats():
    """Every space kind runs the estimator without pulling in scipy.stats."""
    code = textwrap.dedent("""
        import sys
        import bpbkit as b
        table = b.AbsoluteNorm2.from_table(
            [(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])
        spaces = [
            b.EuclideanSpace(3),
            b.LpSpace(2, 3.0),
            b.PlaneSpace(table),
            b.LatticeSpace(b.LpLattice(3, 3.0)),
            b.DirectSumSpace([b.EuclideanSpace(2), b.LpSpace(2, 1.0)],
                             b.LpLattice(2, 2.0)),
        ]
        for space in spaces:
            value = b.convexity_modulus(space, 1.0, method="brute_force",
                                        resolution=50)
            assert 0.0 <= value <= 1.0, (space.kind, value)
        assert sorted(s.kind for s in spaces) == [
            "absolute2", "direct_sum", "euclidean", "lattice", "lp"]
        loaded = sorted(m for m in sys.modules if m.startswith("scipy.stats"))
        assert not loaded, loaded
    """)
    src = os.path.dirname(os.path.dirname(bpbkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def test_face_witnesses_import_no_scipy():
    """A witness on one space of every kind, a non-rotund direct sum
    included, loads no scipy module at all."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import bpbkit as b
        table = b.AbsoluteNorm2.from_table(
            [(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])
        spaces = [
            b.EuclideanSpace(3),
            b.LpSpace(3, 1.0),
            b.PlaneSpace(table),
            b.LatticeSpace(b.WeightedL1Lattice([1.0, 2.0, 0.5])),
            b.DirectSumSpace([b.EuclideanSpace(2), b.LpSpace(2, 1.0)],
                             b.LpLattice(2, 2.0)),
        ]
        for space in spaces:
            rng = np.random.default_rng(7)
            u = rng.standard_normal(space.dim)
            points = [u + 1e-3 * rng.standard_normal(space.dim)
                      for _ in range(4)]
            series = b.ConvexSeries(np.full(4, 0.25),
                                    np.array([p / space.norm(p)
                                              for p in points]))
            witness = b.finite_dim_witness(space, series, 0.3, 0.01)
            assert all(c.passed for c in witness.certificates), space.kind
        assert sorted(s.kind for s in spaces) == [
            "absolute2", "direct_sum", "euclidean", "lattice", "lp"]
        loaded = sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded[:5]
    """)
    src = os.path.dirname(os.path.dirname(bpbkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
