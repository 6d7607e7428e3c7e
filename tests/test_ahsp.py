"""Approximate-hyperplane witnesses: flat spaces, direct sums, restrictions."""
from __future__ import annotations

import math

import numpy as np
import pytest

from bpbkit.absolute import AbsoluteNorm2
from bpbkit.ahsp import (
    AhspWitness,
    EtaPolicy,
    UniformlyConvexAhspOracle,
    ahsp_oracle_for,
    direct_sum_space,
    direct_sum_witness,
    eta_policy,
    finite_dim_witness,
    plane_ahsp_oracle,
    restrict_witness,
    verify_ahsp_witness,
    witness_from_json,
)
from bpbkit.bpb import ConvexSeries
from bpbkit.certs import all_passed
from bpbkit.errors import HypothesisError, InternalInvariantError, RangeError
from bpbkit.errors import WitnessSearchFailed
from bpbkit.harness import generate_ahsp_direct_sum_instance
from bpbkit.spaces import EuclideanSpace, PlaneSpace

L2GEN = AbsoluteNorm2.lp(2.0)
L1GEN = AbsoluteNorm2.lp(1.0)
TABLEGEN = AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])


def circle_face_point(functional: np.ndarray, resolution: int = 400_000) -> np.ndarray:
    """Brute-force face of a unit functional on the Euclidean circle."""
    angles = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    vals = pts @ functional
    return pts[int(np.argmax(vals))]


class TestFiniteDimWitness:
    def test_constant_series_returns_itself(self):
        space = EuclideanSpace(2)
        x = np.array([0.6, 0.8])
        series = ConvexSeries(np.array([0.3, 0.7]), np.stack([x, x]))
        w = finite_dim_witness(space, series, 0.3, 0.05)
        assert w.indices == (0, 1)
        for z in w.points:
            np.testing.assert_allclose(z, x, atol=1e-9)
        np.testing.assert_allclose(w.functional, space.norming_functional(x), atol=1e-9)
        assert all_passed(verify_ahsp_witness(series, w))

    def test_small_angle_snaps_to_midpoint_face(self):
        # Both points collapse onto the face of the average's functional; on
        # the circle that face is a single point, located here by brute force.
        space = EuclideanSpace(2)
        theta = 0.1
        x1 = np.array([1.0, 0.0])
        x2 = np.array([math.cos(theta), math.sin(theta)])
        mid = 0.5 * x1 + 0.5 * x2
        eta = 1.0 - float(np.linalg.norm(mid)) + 2e-4  # barely satisfied
        series = ConvexSeries(np.array([0.5, 0.5]), np.stack([x1, x2]))
        w = finite_dim_witness(space, series, 0.3, eta)
        assert w.indices == (0, 1)
        expected = circle_face_point(np.asarray(w.functional))
        for z in w.points:
            np.testing.assert_allclose(z, expected, atol=1e-5)
        np.testing.assert_allclose(
            np.asarray(w.functional), mid / np.linalg.norm(mid), atol=1e-9
        )

    def test_flat_top_face_is_kept(self):
        # Both points lie on the top face; dual vertex enumeration identifies
        # (0, 1) as the only extreme functional supporting them both.
        space = PlaneSpace(AbsoluteNorm2.lp(math.inf))
        x1 = np.array([0.3, 1.0])
        x2 = np.array([-0.5, 1.0])
        series = ConvexSeries(np.array([0.5, 0.5]), np.stack([x1, x2]))
        w = finite_dim_witness(space, series, 0.3, 0.05)
        dual_vertices = [np.array(v) for v in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]]
        supporting = [
            v
            for v in dual_vertices
            if all(abs(float(v @ x) - 1.0) < 1e-9 for x in (x1, x2))
        ]
        assert len(supporting) == 1
        np.testing.assert_allclose(np.asarray(w.functional), supporting[0], atol=1e-9)
        for z, x in zip(w.points, (x1, x2)):
            assert np.linalg.norm(z - x) < 0.01
            assert float(np.asarray(w.functional) @ z) == pytest.approx(1.0, abs=1e-9)

    def test_hypothesis_enforced(self):
        space = EuclideanSpace(2)
        series = ConvexSeries(
            np.array([0.5, 0.5]), np.stack([[1.0, 0.0], [0.0, 1.0]])
        )
        # |0.5 e1 + 0.5 e2| = 0.707; eta = 0.05 demands > 0.95.
        with pytest.raises(HypothesisError):
            finite_dim_witness(space, series, 0.3, 0.05)

    def test_sphere_and_ball_entry_points_agree(self):
        # Condition-(c) output feeds condition-(d) and lands on the same face.
        oracle = ahsp_oracle_for(EuclideanSpace(2))
        x = np.array([0.6, 0.8])
        series = ConvexSeries(np.array([0.5, 0.5]), np.stack([x, x]))
        w = oracle.witness(series, 0.3)
        idx, points, functional = oracle.witness_ball(
            series.weights, [x, x], w.functional, 0.3
        )
        assert idx == (0, 1)
        for zc, zd in zip(w.points, points):
            np.testing.assert_allclose(zc, zd, atol=1e-9)
        np.testing.assert_allclose(functional, w.functional, atol=1e-12)


class TestVerifyWitness:
    def make(self):
        space = EuclideanSpace(2)
        x = np.array([0.6, 0.8])
        series = ConvexSeries(np.array([0.3, 0.7]), np.stack([x, x]))
        return series, finite_dim_witness(space, series, 0.3, 0.05)

    def test_report_names(self):
        series, w = self.make()
        names = [c.name for c in verify_ahsp_witness(series, w)]
        assert names == [
            "witness-mass",
            "witness-distance",
            "witness-point-unit",
            "witness-face-value",
            "witness-functional-unit",
        ]

    def test_scaled_point_detected(self):
        import dataclasses

        series, w = self.make()
        bad_points = (w.points[0] * 1.05, w.points[1])
        tampered = dataclasses.replace(w, points=bad_points)
        failed = {c.name for c in verify_ahsp_witness(series, tampered) if not c.passed}
        assert "witness-point-unit" in failed

    def test_rotated_functional_detected(self):
        import dataclasses

        series, w = self.make()
        tampered = dataclasses.replace(w, functional=np.array([1.0, 0.0]))
        failed = {c.name for c in verify_ahsp_witness(series, tampered) if not c.passed}
        assert "witness-face-value" in failed

    # A malformed index set once counted weights no point witnessed: the
    # repeated index below gave witness-mass 1.0 for a true mass of 0.5,
    # and every certificate passed.
    E1, E2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])

    @pytest.mark.parametrize("indices,points,match", [
        ((0, 0), (E1, E1), "index 0 is repeated"),
        ((-1,), (E2,), "index -1 is not a position"),
        ((2,), (E1,), "index 2 is not a position"),
        ((0, 1), (E1,), "1 points for 2 indices"),
        ((0,), (E1, E2), "2 points for 1 indices"),
    ])
    def test_malformed_index_set_refused(self, indices, points, match):
        series = ConvexSeries(np.array([0.5, 0.5]), np.stack([self.E1, self.E2]))
        witness = AhspWitness(EuclideanSpace(2), indices, points,
                              np.array([1.0, 0.0]), 0.3)
        with pytest.raises(RangeError, match=match):
            verify_ahsp_witness(series, witness)


class TestEtaPolicy:
    @pytest.mark.parametrize("gen", [L2GEN, L1GEN, TABLEGEN])
    @pytest.mark.parametrize("eps", [0.2, 0.4, 0.8])
    def test_parameter_chain(self, gen, eps):
        # The underlying (pre-floor) values obey the strict chain
        # eps1 < eps/8; s < min{delta/2, eta1/2}; r < min{delta/2, s^2 eta1};
        # eps0 < r*eps/8 (with the floored r actually used downstream).
        oM = ahsp_oracle_for(EuclideanSpace(2))
        pol = eta_policy(gen, oM, oM, eps)
        assert 0.0 < pol.epsilon1 < eps / 8.0
        assert 0.0 < pol.raw_s < min(pol.delta / 2.0, pol.eta1 / 2.0)
        assert 0.0 < pol.raw_r < min(pol.delta / 2.0, pol.s**2 * pol.eta1)
        assert 0.0 < pol.epsilon0 < pol.r * eps / 8.0
        assert pol.eta0 > 0.0
        assert pol.s == (1e-4 if pol.s_floored else pol.raw_s)
        assert pol.r == (1e-6 if pol.r_floored else pol.raw_r)

    def test_policy_shrinks_with_epsilon(self):
        oM = ahsp_oracle_for(EuclideanSpace(2))
        big = eta_policy(L2GEN, oM, oM, 0.8)
        small = eta_policy(L2GEN, oM, oM, 0.2)
        assert small.epsilon1 < big.epsilon1
        assert small.raw_s <= big.raw_s
        assert small.epsilon0 <= big.epsilon0


def sum_member(r: float, s: float) -> np.ndarray:
    """Member of the plane-plus-plane sum with profile (r, s) on fixed axes."""
    return np.array([r, 0.0, 0.0, s])


def profile_series(f: AbsoluteNorm2, us, weights) -> ConvexSeries:
    pts = np.stack([sum_member(*f.sphere_point(u)) for u in us])
    return ConvexSeries(np.asarray(weights, dtype=float), pts)


class TestDirectSumWitness:
    M = EuclideanSpace(2)
    N = EuclideanSpace(2)

    def run(self, f, us, eps=0.4, weights=None):
        weights = weights if weights is not None else [0.2, 0.3, 0.5][: len(us)]
        series = profile_series(f, us, weights)
        w = direct_sum_witness(self.M, self.N, f, series, eps)
        return series, w

    @pytest.mark.parametrize("f", [L2GEN, L1GEN, TABLEGEN])
    def test_second_summand_dominant(self, f):
        series, w = self.run(f, [1.0 - 1e-5 if f.is_smooth else 1.0] * 3)
        names = {c.name for c in w.certificates}
        assert "second-profile-large" in names
        assert not any(n.startswith("split-") for n in names)
        assert all(c.passed for c in w.certificates)
        assert all_passed(verify_ahsp_witness(series, w))

    @pytest.mark.parametrize("f", [L2GEN, L1GEN, TABLEGEN])
    def test_first_summand_dominant(self, f):
        series, w = self.run(f, [1e-5 if f.is_smooth else 0.0] * 3)
        names = {c.name for c in w.certificates}
        assert "first-profile-large" in names
        assert not any(n.startswith("split-") for n in names)
        assert all_passed(verify_ahsp_witness(series, w))

    @pytest.mark.parametrize("f", [L2GEN, L1GEN, TABLEGEN])
    def test_balanced_split_case(self, f):
        series, w = self.run(f, [0.5] * 3)
        names = {c.name for c in w.certificates}
        assert "split-first-covered" in names and "split-second-covered" in names
        assert all(c.passed for c in w.certificates)
        assert all_passed(verify_ahsp_witness(series, w))

    def test_split_functional_identity_exact(self):
        # Functional is alpha m1* + beta n1* and pairs to alpha r + beta s = 1.
        f = L2GEN
        series, w = self.run(f, [0.5] * 3)
        a, b = f.sphere_point(0.5)
        alpha, beta = f.dual_pair((a, b))
        expected = np.array([alpha, 0.0, 0.0, beta])
        np.testing.assert_allclose(np.asarray(w.functional), expected, atol=1e-9)
        assert alpha * a + beta * b == pytest.approx(1.0, abs=1e-12)
        for z in w.points:
            assert float(np.asarray(w.functional) @ z) == pytest.approx(1.0, abs=1e-9)

    def test_mixed_face_profiles_fill_all_three_pieces(self):
        # Polyhedral face endpoints plus an interior point: one member lands
        # in each piece of the final covering, and the pieces stay disjoint.
        series, w = self.run(L1GEN, [0.0, 0.45, 1.0], weights=[0.3, 0.4, 0.3])
        names = {c.name for c in w.certificates}
        assert "pieces-disjoint" in names
        assert all(c.passed for c in w.certificates)
        assert all_passed(verify_ahsp_witness(series, w))
        assert w.indices == (0, 1, 2)

    def test_mass_bound_holds(self):
        series, w = self.run(L2GEN, [0.5] * 3, eps=0.2)
        mass = float(sum(series.weights[i] for i in w.indices))
        assert mass > 1.0 - 0.2

    @pytest.mark.parametrize("f", [L2GEN, L1GEN, TABLEGEN])
    def test_seeded_jittered_instances(self, f):
        rng = np.random.default_rng(20240817)
        for _ in range(25):
            u = float(rng.uniform(0.35, 0.65))
            us = [u] * 4
            weights = rng.dirichlet(np.ones(4))
            series = profile_series(f, us, weights)
            w = direct_sum_witness(self.M, self.N, f, series, 0.5)
            assert all(c.passed for c in w.certificates)
            assert all_passed(verify_ahsp_witness(series, w))

    def test_hypothesis_enforced(self):
        # Two members on opposite axes average to something short of the sphere.
        pts = np.stack([sum_member(1.0, 0.0), sum_member(0.0, 1.0)])
        series = ConvexSeries(np.array([0.5, 0.5]), pts)
        with pytest.raises(HypothesisError):
            direct_sum_witness(self.M, self.N, L2GEN, series, 0.4)

    @pytest.mark.parametrize("case", ["1", "2", "3"])
    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_may_drop_points(self, case, seed):
        # witness_ball pairs the i-th face point with kept[i]; an oracle
        # that keeps a subset must work in every branch
        class DropLightest(UniformlyConvexAhspOracle):
            def witness_ball(self, weights, points, functional, epsilon):
                kept, faces, star = super().witness_ball(
                    weights, points, functional, epsilon)
                drop = int(np.argmin(weights))
                keep = [i for i, j in enumerate(kept) if j != drop]
                return (tuple(kept[i] for i in keep), [faces[i] for i in keep],
                        star)

        inst = generate_ahsp_direct_sum_instance(
            {"f": "l2", "members": 8, "epsilon": 0.3, "case": case},
            np.random.default_rng(seed))
        M, N, series = inst["M"], inst["N"], inst["series"]
        w = direct_sum_witness(M, N, inst["f"], series, 0.3,
                               DropLightest(M), DropLightest(N))
        assert len(w.indices) == 7
        assert all_passed(verify_ahsp_witness(series, w))


class TestRestrictWitness:
    M = EuclideanSpace(2)
    N = EuclideanSpace(2)

    def test_component_series_restricts_cleanly(self):
        f = L2GEN
        Z = direct_sum_space(self.M, self.N, f)
        series = profile_series(f, [0.0] * 3, [0.2, 0.3, 0.5])  # all in summand 1
        w = direct_sum_witness(self.M, self.N, f, series, 0.2)
        restricted = restrict_witness(Z, w, 0)
        assert type(restricted.space) is EuclideanSpace
        names = {c.name for c in restricted.certificates}
        assert "projection-dominant" in names and "projection-remainder" in names
        component_series = ConvexSeries(
            series.weights, np.stack([np.array([1.0, 0.0])] * 3)
        )
        assert all_passed(verify_ahsp_witness(component_series, restricted))

    def test_doubles_epsilon(self):
        f = L2GEN
        Z = direct_sum_space(self.M, self.N, f)
        series = profile_series(f, [0.0] * 3, [0.2, 0.3, 0.5])
        w = direct_sum_witness(self.M, self.N, f, series, 0.2)
        restricted = restrict_witness(Z, w, 0)
        assert restricted.epsilon == pytest.approx(2.0 * w.epsilon)

    def test_balanced_witness_refused(self):
        # A witness spread across both summands is not a component witness;
        # the projection-dominance check must reject it rather than force it.
        f = L2GEN
        Z = direct_sum_space(self.M, self.N, f)
        series = profile_series(f, [0.5] * 3, [0.2, 0.3, 0.5])
        w = direct_sum_witness(self.M, self.N, f, series, 0.2)
        with pytest.raises(InternalInvariantError):
            restrict_witness(Z, w, 0)

    def test_wrong_component_refused(self):
        f = L2GEN
        Z = direct_sum_space(self.M, self.N, f)
        series = profile_series(f, [0.0] * 3, [0.2, 0.3, 0.5])
        w = direct_sum_witness(self.M, self.N, f, series, 0.2)
        with pytest.raises(InternalInvariantError):
            restrict_witness(Z, w, 1)


class TestWitnessJson:
    def test_round_trip_plane(self):
        space = EuclideanSpace(2)
        x = np.array([0.6, 0.8])
        series = ConvexSeries(np.array([0.3, 0.7]), np.stack([x, x]))
        w = finite_dim_witness(space, series, 0.3, 0.05)
        back = witness_from_json(w.to_json())
        assert back.indices == w.indices
        assert back.epsilon == w.epsilon
        np.testing.assert_allclose(back.functional, w.functional)
        for a, b in zip(back.points, w.points):
            np.testing.assert_allclose(a, b)
        assert all_passed(verify_ahsp_witness(series, back))

    def test_round_trip_direct_sum(self):
        f = L2GEN
        M = EuclideanSpace(2)
        N = EuclideanSpace(2)
        series = profile_series(f, [0.5] * 3, [0.2, 0.3, 0.5])
        w = direct_sum_witness(M, N, f, series, 0.4)
        back = witness_from_json(w.to_json())
        assert type(back.space).__name__ == "DirectSumSpace"
        np.testing.assert_allclose(back.functional, w.functional)
        assert all_passed(verify_ahsp_witness(series, back))

    def test_json_is_serializable(self):
        import json

        space = EuclideanSpace(2)
        x = np.array([0.6, 0.8])
        series = ConvexSeries(np.array([1.0]), np.stack([x]))
        w = finite_dim_witness(space, series, 0.3, 0.05)
        parsed = json.loads(json.dumps(w.to_json()))
        back = witness_from_json(parsed)
        assert back.indices == w.indices


class TestWitnessSearchFailed:
    # The entry slack admits a series whose sum sits at most ``slack`` below
    # 1 - eta, so neither failure site is blocked by the hypothesis check.
    SPACES = [EuclideanSpace(2), PlaneSpace(L1GEN), PlaneSpace(TABLEGEN)]

    @pytest.mark.parametrize("space", SPACES)
    def test_no_point_above_the_face_threshold(self, space):
        # |x| = 0.78 > 1 - eta - slack = 0.75, but 0.78 <= r = 1 - eta/eps
        series = ConvexSeries(np.array([1.0]), np.array([[0.78, 0.0]]))
        with pytest.raises(WitnessSearchFailed, match="face threshold 0.8") as exc:
            finite_dim_witness(space, series, 0.5, 0.1, slack=0.15)
        assert exc.value.residuals == {"max-value": 0.78}

    @pytest.mark.parametrize("space", SPACES)
    def test_kept_mass_below_one_minus_epsilon(self, space):
        # the sum has norm 0.82 > 0.8, but only the first point (mass 0.4)
        # clears r = 0.8, and the witness needs mass above 0.5
        series = ConvexSeries(np.array([0.4, 0.6]),
                              np.array([[1.0, 0.0], [0.7, 0.0]]))
        with pytest.raises(WitnessSearchFailed, match="epsilon = 0.5") as exc:
            finite_dim_witness(space, series, 0.5, 0.1, slack=0.1)
        assert list(exc.value.residuals) == ["witness-mass"]
        assert exc.value.residuals["witness-mass"] == pytest.approx(-0.1)
