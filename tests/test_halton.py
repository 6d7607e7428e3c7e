"""The brute-force estimator's sample points: numpy-built Owen-scrambled
Halton directions, bit for bit scipy's, without importing scipy.stats; and
face witnesses without importing scipy at all."""
from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import bpbkit
from bpbkit.moduli import _halton_directions, _ndtri

DIMS = list(range(1, 17)) + [200]
COUNTS = (1, 2, 3, 10, 200, 400, 1000, 4097)


def _bits(arr: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns, so -0.0 and 0.0 (and NaN payloads) differ."""
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("dim", DIMS)
def test_halton_directions_equal_scipy_bit_for_bit(dim):
    norm = pytest.importorskip("scipy.stats").norm
    qmc = pytest.importorskip("scipy.stats.qmc")
    for count in COUNTS:
        u = qmc.Halton(d=dim, scramble=True, seed=1234).random(count)
        ref = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
        got = _halton_directions(dim, count)
        assert got.shape == (count, dim)
        assert np.array_equal(_bits(got), _bits(ref)), (dim, count)


def test_halton_directions_are_cached_and_read_only():
    first = _halton_directions(3, 10)
    assert _halton_directions(3, 10) is first
    assert not first.flags.writeable


def _ndtri_inputs() -> np.ndarray:
    """Inputs over every branch of Cephes ndtri: the central interval, both
    tails on either side of x = 8 (1 - y, resp. y, below exp(-32)),
    subnormals and the endpoints."""
    rng = np.random.default_rng(20170828)
    exp_m2, exp_m32 = math.exp(-2.0), math.exp(-32.0)
    ys = np.concatenate([
        rng.uniform(exp_m2, 1.0 - exp_m2, 40_000),
        np.exp(-rng.uniform(2.0, 32.0, 20_000)),
        np.exp(-rng.uniform(32.0, 745.0, 20_000)),
        1.0 - np.exp(-rng.uniform(2.0, 32.0, 20_000)),
        1.0 - 2.0 ** -np.arange(47, 54),
        np.nextafter(exp_m2, [0.0, 1.0]),
        np.nextafter(1.0 - exp_m2, [0.0, 1.0]),
        np.nextafter(exp_m32, [0.0, 1.0]),
        [0.0, 1.0, 0.5, 5e-324, 2.5e-310, 1e-300, 1e-12, 1.0 - 1e-12],
    ])
    low = np.minimum(ys, 1.0 - ys)
    assert (low > exp_m2).sum() >= 10_000
    assert ((ys < exp_m2) & (ys >= exp_m32)).sum() >= 10_000
    assert ((ys < exp_m32) & (ys > 0.0)).sum() >= 10_000
    assert (ys > 1.0 - exp_m2).sum() >= 10_000
    assert ((ys < 1.0) & (1.0 - ys < exp_m32)).sum() >= 5
    assert len(ys) >= 100_000
    return ys


def test_ndtri_equals_scipy_special_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    ys = _ndtri_inputs()
    got = _ndtri(ys)
    assert np.array_equal(_bits(got), _bits(special.ndtri(ys)))
    assert got[ys == 0.0].tolist() == [-math.inf]
    assert got[ys == 1.0].tolist() == [math.inf]


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
