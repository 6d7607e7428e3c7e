"""Face oracles, the face rule per lattice and the blockwise rule for
direct sums, and the sphere-polygon walk."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bpbkit import ahsp
from bpbkit.absolute import AbsoluteNorm2
from bpbkit.ahsp import (PolyhedralPlaneAhspOracle, UniformlyConvexAhpOracle,
                         UniformlyConvexAhspOracle,
                         ahp_oracle_uniformly_convex, finite_dim_witness)
from bpbkit.bpb import ConvexSeries
from bpbkit.errors import HypothesisError, NotUniformlyConvex, RangeError
from bpbkit.lattices import Absolute2Lattice, LpLattice, WeightedL1Lattice
from bpbkit.moduli import convexity_modulus
from bpbkit.spaces import (DirectSumSpace, EuclideanSpace, LatticeSpace,
                           LpSpace, PlaneSpace)

TABLE = AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])
EPSILONS = [1e-6, 0.01, 0.1, 0.37, 0.8, 1.0, 1.5, 1.99, 2.0]


class TestUniformlyConvexOracle:
    def test_one_class_behind_every_name(self):
        assert UniformlyConvexAhpOracle is UniformlyConvexAhspOracle
        oracle = ahp_oracle_uniformly_convex(EuclideanSpace(2))
        assert type(oracle) is UniformlyConvexAhspOracle

    @pytest.mark.parametrize("space,modulus_space", [
        (EuclideanSpace(3), EuclideanSpace(3)),
        (LpSpace(2, 1.5), LpSpace(2, 1.5)),
        (LpSpace(3, 4.0), LpSpace(3, 4.0)),
        (PlaneSpace(AbsoluteNorm2.lp(3.0)), LpSpace(2, 3.0)),
        (PlaneSpace(AbsoluteNorm2.lp(1.25)), LpSpace(2, 1.25)),
        (LatticeSpace(LpLattice(3, 2.0)), LpSpace(3, 2.0)),
        (LatticeSpace(Absolute2Lattice(AbsoluteNorm2.lp(3.0))),
         LpSpace(2, 3.0)),
    ])
    def test_delta_is_the_closed_form_modulus(self, space, modulus_space):
        oracle = ahp_oracle_uniformly_convex(space)
        for eps in EPSILONS:
            assert oracle.delta(eps) == convexity_modulus(
                modulus_space, eps, method="closed_form")
            assert oracle.eta_ball(eps) == oracle.delta(eps)

    @pytest.mark.parametrize("space", [
        LpSpace(2, 1.0),
        LpSpace(3, math.inf),
        PlaneSpace(TABLE),
        PlaneSpace(AbsoluteNorm2.lp(1.0)),
        LatticeSpace(LpLattice(3, 1.0)),
        LatticeSpace(WeightedL1Lattice([1.0, 2.0, 0.5])),
        DirectSumSpace([EuclideanSpace(2), EuclideanSpace(2)],
                       LpLattice(2, 2.0)),
    ])
    def test_flat_or_unsupported_kinds_refused(self, space):
        with pytest.raises(NotUniformlyConvex):
            ahp_oracle_uniformly_convex(space)

    def test_rotund_direct_sum_has_no_closed_form(self):
        space = DirectSumSpace([EuclideanSpace(2), LpSpace(2, 3.0)],
                               LpLattice(2, 2.0))
        assert ahsp._rotund(space)
        with pytest.raises(NotUniformlyConvex, match="no closed-form"):
            ahp_oracle_uniformly_convex(space)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 2.0001, 3.0])
    def test_delta_domain(self, eps):
        oracle = ahp_oracle_uniformly_convex(EuclideanSpace(2))
        with pytest.raises(RangeError):
            oracle.delta(eps)

    def test_face_point_is_the_attaining_vector(self):
        space = LpSpace(3, 3.0)
        oracle = ahp_oracle_uniformly_convex(space)
        f = space.norming_functional(np.array([0.2, -0.7, 0.4]))
        np.testing.assert_array_equal(oracle.upsilon(f), f)
        np.testing.assert_array_equal(oracle.face_point(f, np.zeros(3)),
                                      space.attaining_vector(f))


class TestSharedWitnessBall:
    @pytest.mark.parametrize("oracle", [
        UniformlyConvexAhspOracle(EuclideanSpace(2)),
        PolyhedralPlaneAhspOracle(PlaneSpace(TABLE)),
    ], ids=["uniformly-convex", "polyhedral"])
    def test_points_land_on_the_face(self, oracle):
        space = oracle.space
        x = space.coerce(np.array([0.8, 0.45]))
        x = x / space.norm(x)
        f = space.norming_functional(x)
        points = [x, 0.999 * x]
        kept, faces, out = oracle.witness_ball([0.5, 0.5], points, f, 0.2)
        assert kept == (0, 1)
        np.testing.assert_array_equal(out, f)
        for p, z in zip(points, faces):
            assert abs(space.norm(z) - 1.0) < 1e-9
            assert abs(float(np.dot(f, z)) - 1.0) < 1e-9
            assert space.norm(p - z) < 0.2

    @pytest.mark.parametrize("space", [EuclideanSpace(1), LpSpace(1, 3.0)])
    def test_line_refuses_points_below_the_ball_bar(self, space):
        # eta_ball on the line is the ball modulus eps/2: a point at 0.01
        # sits below the bar 0.95, so it never reaches its face point 1,
        # 0.99 away; points above the bar lie within eps/2 of it
        oracle = UniformlyConvexAhspOracle(space)
        assert oracle.eta_ball(0.1) == 0.05
        with pytest.raises(HypothesisError):
            oracle.witness_ball([1.0], [[0.01]], [1.0], 0.1)
        points = [[0.951], [1.0]]
        kept, faces, _ = oracle.witness_ball([0.5, 0.5], points, [1.0], 0.1)
        assert kept == (0, 1)
        for p, z in zip(points, faces):
            assert z.tolist() == [1.0] and 1.0 - p[0] < 0.05

    def test_polyhedral_refuses_a_functional_that_is_not_extreme(self):
        # the face of (0.999, 0.001) on the l-infinity plane is one vertex,
        # 0.5 from the point, although the pairing clears the bar; the
        # oracle's norming set is the extreme dual points
        oracle = PolyhedralPlaneAhspOracle(PlaneSpace(AbsoluteNorm2.lp(math.inf)))
        with pytest.raises(RangeError, match="extreme dual point"):
            oracle.witness_ball([1.0], [(1.0, 0.5)], (0.999, 0.001), 0.3)


class TestFlatFaceAcrossAnAxis:
    # A functional that vanishes on an axis has a face symmetric across
    # that axis; the projection must search both halves of it.
    def test_linf_plane_points_on_both_sides(self):
        oracle = PolyhedralPlaneAhspOracle(PlaneSpace(AbsoluteNorm2.lp(math.inf)))
        points = [np.array([0.3, 1.0]), np.array([-0.5, 1.0])]
        kept, faces, out = oracle.witness_ball([0.5, 0.5], points,
                                               np.array([0.0, 1.0]), 0.1)
        assert kept == (0, 1)
        np.testing.assert_array_equal(out, [0.0, 1.0])
        # within rounding of 0.3 (exactly 0.3 since the breakpoint search;
        # see test_linf_interior_point_is_exact)
        np.testing.assert_allclose(faces[0], points[0], rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(faces[1], points[1])

    def test_linf_interior_point_is_exact(self):
        # the point already on the face is the residual's zero crossing, so
        # the segment search returns it exactly
        plane = PlaneSpace(AbsoluteNorm2.lp(math.inf))
        z = ahsp._face_point(plane, np.array([0.0, 1.0]), np.array([0.3, 1.0]))
        np.testing.assert_array_equal(z, [0.3, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                          max_size=4),
           axis=st.sampled_from([0, 1]), sign=st.sampled_from([-1.0, 1.0]),
           x=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
    def test_nearest_point_of_the_mirrored_face(self, lines, axis, sign, x):
        gen = polyhedral_generator([(1.0, 0.0), (0.0, 1.0)] + lines)
        plane = PlaneSpace(gen)
        functional = np.zeros(2)
        functional[1 - axis] = sign
        xv = np.array(x)
        z = ahsp._face_point(plane, functional, xv)
        assert plane.norm(z) == pytest.approx(1.0, abs=1e-9)
        assert float(np.dot(functional, z)) == pytest.approx(1.0, abs=1e-9)
        mirror = np.ones(2)
        mirror[axis] = -1.0
        quadrant = np.where(functional < 0.0, -1.0, 1.0)
        face = [quadrant * np.array(v)
                for v in gen.face_vertices(np.abs(functional))]
        nearest_vertex = min(plane.norm(xv - w)
                             for v in face for w in (v, mirror * v))
        assert plane.norm(xv - z) <= nearest_vertex + 1e-12


def polyhedral_generator(lines) -> AbsoluteNorm2:
    """The table of ``f(a, b) = max_i (c_i a + d_i b)`` for ``(c_i, d_i)``
    in [0, 1]^2; the lines (1, 0) and (0, 1) make it normalized, and its
    faces on the axes are flat unless a line has ``c_i = 1`` or ``d_i = 1``."""
    def psi(u):
        return max(c * (1.0 - u) + d * u for c, d in lines)

    cuts = {0.0, 1.0}
    for i, (c0, d0) in enumerate(lines):
        for c1, d1 in lines[i + 1:]:
            slope = (d0 - c0) - (d1 - c1)
            if slope != 0.0 and 0.0 < (c1 - c0) / slope < 1.0:
                cuts.add((c1 - c0) / slope)
    nodes = []
    for u in sorted(cuts):
        if not nodes or u - nodes[-1][0] > 1e-9:
            nodes.append((u, psi(u)))
    nodes[-1] = (1.0, psi(1.0))
    return AbsoluteNorm2.from_table(nodes)


def _golden_section_segment(gen, p, va, vb):
    """The 100-step golden-section search the breakpoint search replaced."""
    d = vb - va

    def cost(lam):
        return gen.value(p - (va + lam * d))

    lo, hi = 0.0, 1.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    dd = lo + inv_phi * (hi - lo)
    fc, fd = cost(c), cost(dd)
    for _ in range(100):
        if fc < fd:
            hi, dd, fd = dd, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = cost(c)
        else:
            lo, c, fc = c, dd, fd
            dd = lo + inv_phi * (hi - lo)
            fd = cost(dd)
    return va + 0.5 * (lo + hi) * d


class TestProjectSegment:
    # The cost along a segment is convex and piecewise linear on polyhedral
    # planes, so its least breakpoint value is the minimum: never above the
    # golden-section result by more than rounding.
    GENERATORS = {"l1": AbsoluteNorm2.lp(1.0),
                  "linf": AbsoluteNorm2.lp(math.inf), "table": TABLE,
                  "skew": AbsoluteNorm2.from_table([(0.0, 1.0), (0.3, 0.8),
                                                    (1.0, 1.0)])}
    POINT = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(GENERATORS)), p=POINT, va=POINT,
           vb=POINT)
    def test_no_farther_than_golden_section(self, name, p, va, vb):
        self._check(self.GENERATORS[name], np.array(p), np.array(va),
                    np.array(vb))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    @pytest.mark.parametrize("vb", [(1.0, 1e-310), (-1e-310, 1.0),
                                    (1.0, 1.0 - 1e-16)])
    def test_nearly_parallel_to_a_vertex_ray(self, name, vb):
        # the ray crossing is near infinite; it once overflowed in the
        # divide with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._check(self.GENERATORS[name], np.array([0.3, 0.4]),
                        np.zeros(2), np.array(vb))

    @staticmethod
    def _check(gen, p, va, vb):
        z = ahsp._project_segment(gen, p, va, vb)
        golden = gen.value(p - _golden_section_segment(gen, p, va, vb))
        eps = np.finfo(float).eps
        assert gen.value(p - z) <= golden + 8.0 * eps * max(1.0, golden)
        # z lies on the segment
        d = vb - va
        length2 = float(np.dot(d, d))
        lam = float(np.dot(z - va, d)) / length2 if length2 > 1e-24 else 0.0
        assert -1e-12 <= lam <= 1.0 + 1e-12
        np.testing.assert_allclose(z, va + lam * d, rtol=0.0, atol=1e-12)

    def test_flat_stretch_takes_the_point_nearest_va(self):
        # on l1 every point of [(1, 0), (0, 1)] is 1 from the origin
        z = ahsp._project_segment(AbsoluteNorm2.lp(1.0), np.zeros(2),
                                  np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(z, [1.0, 0.0])


class TestSupHeight:
    # The polygon walk of a table and the closed form of the same p-norm
    # must agree: l1 and l-infinity written as tables.
    @pytest.mark.parametrize("closed,table", [
        (AbsoluteNorm2.lp(1.0),
         AbsoluteNorm2.from_table([(0.0, 1.0), (1.0, 1.0)])),
        (AbsoluteNorm2.lp(math.inf),
         AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 0.5), (1.0, 1.0)])),
    ], ids=["l1", "linf"])
    def test_walk_matches_closed_form(self, closed, table):
        for cut in np.linspace(0.0, 1.2, 49):
            assert table.sup_height(float(cut)) == pytest.approx(
                closed.sup_height(float(cut)), abs=1e-12)

    def test_table_polygon(self):
        # sphere vertices (1, 0), (0.55, 0.55), (0, 1)
        assert TABLE.sup_height(0.0) == 1.0
        assert TABLE.sup_height(0.55) == pytest.approx(0.55)
        assert TABLE.sup_height(0.775) == pytest.approx(0.275)
        assert TABLE.sup_height(1.0) == pytest.approx(0.0, abs=1e-12)
        assert TABLE.sup_height(1.5) == 0.0


def near_collinear_series(space, seed: int, count: int = 4,
                          spread: float = 1e-3) -> ConvexSeries:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(space.dim)
    u /= space.norm(u)
    points = []
    for _ in range(count):
        x = u + spread * rng.standard_normal(space.dim)
        points.append(x / space.norm(x))
    weights = rng.uniform(0.5, 1.0, size=count)
    return ConvexSeries(weights / weights.sum(), np.array(points))


E2 = EuclideanSpace(2)
EXACT_KINDS = {
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
}


class TestExactFacePoint:
    # Every lattice and direct-sum kind takes an exact face rule: the
    # attaining vector, a lattice's closed form or polygon search, or the
    # blockwise point; the witness is verified once with nothing to fall
    # back on, and its points sit on the face to the last bits.
    @pytest.mark.parametrize("name", sorted(EXACT_KINDS))
    @pytest.mark.parametrize("spread,eta", [(1e-3, 0.01), (3e-2, 0.05)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_witness_certificates_pass(self, name, spread, eta, seed):
        space = EXACT_KINDS[name]
        series = near_collinear_series(space, seed, spread=spread)
        witness = finite_dim_witness(space, series, 0.3, eta)
        assert witness.certificates
        assert all(c.passed for c in witness.certificates)
        values = np.array(witness.points) @ witness.functional
        assert float(np.abs(values - 1.0).max()) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_lattice_backed_kinds_share_one_rule(self, data):
        p = data.draw(st.sampled_from([1.0, 1.5, 3.0, math.inf]))
        gen = data.draw(st.sampled_from([TABLE, AbsoluteNorm2.lp(1.0),
                                         AbsoluteNorm2.lp(math.inf),
                                         AbsoluteNorm2.lp(2.5)]))
        n = data.draw(st.integers(1, 4))
        for space, twin in [(LpSpace(n, p), LatticeSpace(LpLattice(n, p))),
                            (PlaneSpace(gen), LatticeSpace(Absolute2Lattice(gen)))]:
            y = _nonzero_vector(data, space.dim)
            x = np.array(data.draw(_coords(space.dim)))
            f = space.norming_functional(y)
            np.testing.assert_array_equal(twin.norming_functional(y), f)
            z = ahsp._face_point(space, f, x)
            assert _bits(ahsp._face_point(twin, f, x)) == _bits(z)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_blockwise_point_is_on_the_face(self, data):
        comps = data.draw(st.lists(st.sampled_from(BLOCKS), min_size=1,
                                   max_size=3))
        m = len(comps)
        combiner = data.draw(st.sampled_from(
            [LpLattice(m, 1.0), LpLattice(m, 2.0), LpLattice(m, math.inf),
             WeightedL1Lattice(np.linspace(0.5, 2.0, m))]
            + ([Absolute2Lattice(TABLE)] if m == 2 else [])))
        space = DirectSumSpace(comps, combiner)
        assume(not ahsp._rotund(space))
        f = space.norming_functional(_nonzero_vector(data, space.dim))
        x = np.array(data.draw(_coords(space.dim)))
        z = ahsp._face_point(space, f, x)
        assert abs(space.norm(z) - 1.0) <= 1e-12
        assert abs(float(f @ z) - 1.0) <= 1e-12


BLOCKS = [E2, LpSpace(2, 1.0), LpSpace(3, math.inf), LpSpace(2, 3.0),
          PlaneSpace(TABLE), LatticeSpace(WeightedL1Lattice([0.5, 2.0]))]


def _coords(dim: int):
    """Coordinates with exact zeros among them, so zero blocks occur."""
    return st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                    min_size=dim, max_size=dim)


def _nonzero_vector(data, dim: int) -> np.ndarray:
    y = np.array(data.draw(_coords(dim)))
    assume(np.abs(y).max() > 1e-6)
    return y


def _bits(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()
