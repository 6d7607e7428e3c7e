"""One lattice-backed space class: ``lp``, ``absolute2`` and ``lattice``
spaces compute through their lattices, and the geometry checks (exact l1
operator norms, oracle selection) read the lattice, not the kind string."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbkit.absolute import AbsoluteNorm2
from bpbkit.ahsp import (PolyhedralPlaneAhspOracle, UniformlyConvexAhspOracle,
                         ahp_oracle_uniformly_convex, ahsp_oracle_for,
                         verify_ahsp_witness)
from bpbkit.bpb import ConvexSeries
from bpbkit.errors import BpbkitError, NotUniformlyConvex, RangeError
from bpbkit.lattices import Absolute2Lattice, LpLattice, WeightedL1Lattice
from bpbkit.spaces import (EuclideanSpace, LatticeSpace, LpSpace, Operator,
                           PlaneSpace, operator_norm, space_from_json)

TABLE = AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])
GENERATORS = [TABLE, AbsoluteNorm2.lp(1.0), AbsoluteNorm2.lp(2.5),
              AbsoluteNorm2.lp(math.inf)]
EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]
SCALAR_OPS = ("norm", "dual_norm", "norming_functional", "attaining_vector")
ROW_OPS = ("norms", "dual_norms", "norming_functionals", "attaining_vectors")


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()


def _outcome(method, arg):
    """The bits of ``method(arg)``, or the type of the error it raises."""
    try:
        return _bits(method(arg))
    except BpbkitError as exc:
        return type(exc)


def _coords(dim: int):
    """Coordinates with exact zeros among them."""
    return st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
                    min_size=dim, max_size=dim)


def _twins(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from(EXPONENTS))
    gen = data.draw(st.sampled_from(GENERATORS))
    return [(LpSpace(n, p), LatticeSpace(LpLattice(n, p))),
            (PlaneSpace(gen), LatticeSpace(Absolute2Lattice(gen)))]


class TestTwins:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_eight_operations_agree_bit_for_bit(self, data):
        for space, twin in _twins(data):
            x = np.array(data.draw(_coords(space.dim)))
            rows = np.array(data.draw(st.lists(_coords(space.dim),
                                               min_size=1, max_size=4)))
            live = rows[np.abs(rows).max(axis=1) > 0.0]
            for name in SCALAR_OPS:
                assert (_outcome(getattr(twin, name), x)
                        == _outcome(getattr(space, name), x)), name
            for name in ROW_OPS:
                for arr in (rows, live):
                    assert (_outcome(getattr(twin, name), arr)
                            == _outcome(getattr(space, name), arr)), name

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_keeps_each_kind(self, data):
        for space, twin in _twins(data):
            for s, kind in ((space, space.kind), (twin, "lattice")):
                rebuilt = space_from_json(s.to_json())
                assert type(rebuilt) is type(s) and rebuilt.kind == kind
                assert rebuilt.to_json() == s.to_json()

    def test_subclasses_keep_their_params(self):
        assert LpSpace(3, math.inf).to_json() == {
            "kind": "lp", "dim": 3, "params": {"p": "inf"}}
        assert PlaneSpace(TABLE).to_json() == {
            "kind": "absolute2", "dim": 2,
            "params": {"generator": TABLE.to_params()}}
        assert isinstance(PlaneSpace(TABLE).lattice, Absolute2Lattice)


class TestL1OperatorNorms:
    T = np.array([[0.5, 2.0, 1.0]])

    def test_lp1_lattice_space_is_exact(self):
        cod = LpSpace(1, 1.0)
        a = operator_norm(Operator(self.T, LpSpace(3, 1.0), cod))
        b = operator_norm(Operator(self.T, LatticeSpace(LpLattice(3, 1.0)), cod))
        assert (a.value, a.exact, a.method) == (2.0, True, "l1_columns")
        assert (b.value, b.exact, b.method) == (a.value, a.exact, a.method)
        assert _bits(b.witness) == _bits(a.witness)

    def test_weighted_l1_is_exact(self):
        dom = LatticeSpace(WeightedL1Lattice([1.0, 4.0, 0.5]))
        r = operator_norm(Operator(self.T, dom, LpSpace(1, 1.0)))
        assert (r.value, r.exact, r.method) == (2.0, True, "l1_columns")
        np.testing.assert_array_equal(r.witness, [0.0, 0.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_lp1_twins_agree(self, data):
        n = data.draw(st.integers(2, 4))
        cod = data.draw(st.sampled_from(
            [EuclideanSpace(2), LpSpace(2, 3.0), PlaneSpace(TABLE)]))
        mat = np.array(data.draw(st.lists(_coords(n), min_size=2,
                                          max_size=2)))
        a = operator_norm(Operator(mat, LpSpace(n, 1.0), cod))
        b = operator_norm(Operator(mat, LatticeSpace(LpLattice(n, 1.0)), cod))
        assert (b.exact, b.method) == (a.exact, a.method) == (True,
                                                              "l1_columns")
        assert _bits(b.value) == _bits(a.value)
        assert _bits(b.witness) == _bits(a.witness)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_weighted_value_is_the_signed_vertex_maximum(self, data):
        n = data.draw(st.integers(2, 4))
        w = np.array(data.draw(st.lists(st.floats(0.25, 4.0), min_size=n,
                                        max_size=n)))
        cod = data.draw(st.sampled_from(
            [EuclideanSpace(2), LpSpace(2, math.inf), PlaneSpace(TABLE)]))
        mat = np.array(data.draw(st.lists(_coords(n), min_size=2,
                                          max_size=2)))
        dom = LatticeSpace(WeightedL1Lattice(w))
        r = operator_norm(Operator(mat, dom, cod))
        vertices = [s * np.eye(n)[j] / w[j] for j in range(n) for s in (1, -1)]
        best = max(cod.norm(mat @ v) for v in vertices)
        assert r.exact and r.method == "l1_columns"
        assert r.value == pytest.approx(best, rel=1e-12, abs=1e-300)
        assert dom.norm(r.witness) == pytest.approx(1.0, rel=1e-12)
        assert cod.norm(mat @ r.witness) == pytest.approx(r.value, rel=1e-12,
                                                          abs=1e-300)


def _near_collinear_series(space, seed: int, spread: float,
                           count: int = 4) -> ConvexSeries:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(space.dim)
    u /= space.norm(u)
    points = []
    for _ in range(count):
        x = u + spread * rng.standard_normal(space.dim)
        points.append(x / space.norm(x))
    weights = rng.uniform(0.5, 1.0, size=count)
    return ConvexSeries(weights / weights.sum(), np.array(points))


class TestOracleSelection:
    @pytest.mark.parametrize("spread", [1e-3, 3e-2])
    @pytest.mark.parametrize("seed", range(8))
    def test_polygon_oracle_for_a_polyhedral_lattice_space(self, seed, spread):
        spaces = (PlaneSpace(TABLE), LatticeSpace(Absolute2Lattice(TABLE)))
        oracles = [ahsp_oracle_for(s) for s in spaces]
        assert [type(o) for o in oracles] == [PolyhedralPlaneAhspOracle] * 2
        series = _near_collinear_series(spaces[0], seed, spread)
        plane, twin = (o.witness(series, 0.3) for o in oracles)
        assert twin.indices == plane.indices
        assert _bits(twin.points) == _bits(plane.points)
        assert _bits(twin.functional) == _bits(plane.functional)
        for w in (plane, twin):
            assert all(c.passed for c in verify_ahsp_witness(series, w))

    def test_smooth_lattice_gets_the_convex_oracle(self):
        twin = LatticeSpace(Absolute2Lattice(AbsoluteNorm2.lp(2.5)))
        assert type(ahsp_oracle_for(twin)) is UniformlyConvexAhspOracle

    @pytest.mark.parametrize("gen", [TABLE, AbsoluteNorm2.lp(1.0),
                                     AbsoluteNorm2.lp(math.inf)])
    def test_convex_oracle_refuses_flat_lattices(self, gen):
        for space in (PlaneSpace(gen), LatticeSpace(Absolute2Lattice(gen))):
            with pytest.raises(NotUniformlyConvex):
                ahp_oracle_uniformly_convex(space)

    def test_ball_witness_refuses_non_extreme_functionals(self):
        gen = AbsoluteNorm2.lp(math.inf)
        for space in (PlaneSpace(gen), LatticeSpace(Absolute2Lattice(gen))):
            oracle = ahsp_oracle_for(space)
            with pytest.raises(RangeError, match="extreme dual point"):
                oracle.witness_ball([1.0], [(1.0, 0.5)], (0.999, 0.001), 0.3)
            kept, zs, _ = oracle.witness_ball([1.0], [(1.0, 0.5)],
                                              (1.0, 0.0), 0.3)
            assert kept == (0,) and float(zs[0] @ (1.0, 0.0)) == 1.0
