"""Lattice-combined sums: Köthe duality, norming elements, sum witnesses."""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

from bpbkit.absolute import AbsoluteNorm2
from bpbkit.ahsp import (UniformlyConvexAhspOracle, ahp_oracle_uniformly_convex,
                         verify_ahsp_witness)
from bpbkit.bpb import ConvexSeries
from bpbkit.certs import all_passed
from bpbkit.errors import (
    DegenerateInput,
    DimensionError,
    HypothesisError,
    NotUniformlyMonotone,
    RangeError,
)
from bpbkit.lattice_sums import (
    NonnegAdditiveProfileOracle,
    build_norming_element,
    default_profile_oracle,
    duality_isometry_check,
    kothe_dual_norm,
    lattice_sum_policy,
    lattice_sum_space,
    lattice_sum_witness,
    sampled_dual_norm,
)
from bpbkit.lattices import Absolute2Lattice, LpLattice, WeightedL1Lattice
from bpbkit.spaces import EuclideanSpace, LatticeSpace, LpSpace
from bpbkit.util import TOL_SPHERE

COMPONENTS = lambda: [EuclideanSpace(2), EuclideanSpace(3)]  # noqa: E731


def make_sum_series(p: float, rng: np.random.Generator, n: int = 4):
    """Series of unit members sharing near-common block directions.

    Members carry a common block-norm profile (jittered only where the
    entry hypothesis budget allows: freely on the additive simplex for
    p = 1, at 1e-9 for p = 2, not at all for p = 3) so the convex
    combination keeps full norm while the members stay distinct through
    direction jitter.
    """
    comps = COMPONENTS()
    Z = lattice_sum_space(LpLattice(2, p), comps)
    base_dirs = []
    for c in comps:
        v = rng.standard_normal(c.dim)
        base_dirs.append(v / np.linalg.norm(v))
    if p == 1.0:
        profs = rng.dirichlet(np.ones(2) * 3.0, size=n) * 0.9 + 0.05
        profs = profs / profs.sum(axis=1, keepdims=True)
    else:
        base = np.abs(rng.standard_normal(2)) + 0.3
        base = base / float((base**p).sum() ** (1.0 / p))
        if p == 2.0:
            profs = np.stack([base + 1e-9 * rng.standard_normal(2) for _ in range(n)])
            profs = np.stack([q / float((q**p).sum() ** (1.0 / p)) for q in profs])
        else:
            profs = np.stack([base] * n)
    pts = []
    for i in range(n):
        blocks = []
        for k, c in enumerate(comps):
            d = base_dirs[k] + 1e-5 * rng.standard_normal(c.dim)
            d = d / np.linalg.norm(d)
            blocks.append(profs[i][k] * d)
        pts.append(np.concatenate(blocks))
    weights = rng.dirichlet(np.ones(n))
    return Z, ConvexSeries(weights, np.stack(pts))


class TestKotheDuality:
    def test_euclidean_pair(self):
        assert kothe_dual_norm(LpLattice(2, 2.0), [3, 4]) == pytest.approx(5.0)

    def test_sum_lattice_dualizes_to_max(self):
        assert kothe_dual_norm(LpLattice(3, 1.0), [1, -2, 3]) == pytest.approx(3.0)

    def test_conjugate_exponent(self):
        expected = (3**1.5 + 4**1.5) ** (2.0 / 3.0)
        assert kothe_dual_norm(LpLattice(2, 3.0), [3, 4]) == pytest.approx(expected)

    def test_weighted_sum_dual_divides_by_weights(self):
        E = WeightedL1Lattice([1.0, 2.0, 0.5])
        assert kothe_dual_norm(E, [1, 1, 1]) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kothe_dual_norm(LpLattice(2, 2.0), [1, 2, 3])
        with pytest.raises(DimensionError):
            sampled_dual_norm(LpLattice(2, 2.0), [1, 2, 3],
                              np.random.default_rng(0), samples=4)

    def test_complex_coordinates_are_rejected(self):
        # at one time the imaginary part was dropped with a warning
        for E in (LpLattice(2, 2.0), WeightedL1Lattice([1.0, 2.0])):
            for bad in ([1j, 1.0], np.array([1j, 1.0])):
                with pytest.raises(RangeError):
                    kothe_dual_norm(E, bad)
                with pytest.raises(RangeError):
                    sampled_dual_norm(E, bad, np.random.default_rng(0),
                                      samples=4)

    @pytest.mark.parametrize(
        "E", [LpLattice(2, 2.0), LpLattice(3, 1.0), WeightedL1Lattice([1.0, 2.0])]
    )
    def test_sampled_estimate_brackets_exact(self, E):
        rng = np.random.default_rng(7)
        x = np.arange(1.0, E.dim + 1.0)
        exact = kothe_dual_norm(E, x)
        sampled = sampled_dual_norm(E, x, rng)
        assert sampled <= exact + 1e-12
        assert sampled >= 0.95 * exact


class TestDualityIsometry:
    @pytest.mark.parametrize(
        "E", [LpLattice(2, 1.0), LpLattice(2, 2.0), WeightedL1Lattice([1.0, 2.0])]
    )
    def test_closed_form_matches_ball_sweep(self, E):
        Z = lattice_sum_space(E, COMPONENTS())
        certs = duality_isometry_check(Z, np.array([0.1, 0.2, 0.3, 0.4, -0.5]), seed=3)
        assert [c.name for c in certs] == [
            "duality-attainer-unit",
            "duality-gap",
            "duality-ball-bound",
        ]
        assert all_passed(certs)

    def test_zero_functional_rejected(self):
        Z = lattice_sum_space(LpLattice(2, 1.0), COMPONENTS())
        with pytest.raises(DegenerateInput):
            duality_isometry_check(Z, np.zeros(5))

    @pytest.mark.parametrize("seed", [-1, -(2 ** 40), 1.5, "3"])
    def test_bad_seed_is_a_range_error(self, seed):
        # raised before numpy's SeedSequence, whose own error is a raw
        # ValueError (negative) or TypeError (not an integer)
        Z = lattice_sum_space(LpLattice(2, 1.0), COMPONENTS())
        with mock.patch.object(np.random, "SeedSequence") as seq:
            with pytest.raises(RangeError, match="seed"):
                duality_isometry_check(Z, np.array([0.1, 0.2, 0.3, 0.4, -0.5]),
                                       seed=seed)
        seq.assert_not_called()

    def test_numpy_integer_seed_is_an_int_seed(self):
        Z = lattice_sum_space(LpLattice(2, 2.0), COMPONENTS())
        f = np.array([0.1, 0.2, 0.3, 0.4, -0.5])
        assert (duality_isometry_check(Z, f, seed=np.int64(4))
                == duality_isometry_check(Z, f, seed=4))


class TestNormingElement:
    def make_space(self):
        return lattice_sum_space(LpLattice(2, 1.0), [EuclideanSpace(2), EuclideanSpace(2)])

    def test_blockwise_assembly(self):
        Z = self.make_space()
        z = np.array([0.3, 0.4, 0.0, 0.5])  # block norms (0.5, 0.5)
        ne = build_norming_element(Z, z, 0.01)
        np.testing.assert_allclose(ne.e_star, [1.0, 1.0])
        np.testing.assert_allclose(ne.assembled, [0.6, 0.8, 0.0, 1.0], atol=1e-12)
        assert Z.dual_norm(ne.assembled) == pytest.approx(1.0, abs=TOL_SPHERE)
        assert float(Z.pairing(ne.assembled, z)) == pytest.approx(1.0, abs=1e-12)
        assert [c.name for c in ne.certificates] == [
            "norming-dual-unit",
            "norming-component-slack",
            "norming-value",
        ]
        assert all_passed(list(ne.certificates))

    def test_zero_block_gets_the_zero_functional(self):
        Z = self.make_space()
        ne = build_norming_element(Z, np.array([0.6, 0.8, 0.0, 0.0]), 0.01)
        np.testing.assert_allclose(ne.e_star, [1.0, 0.0])
        np.testing.assert_allclose(ne.assembled, [0.6, 0.8, 0.0, 0.0], atol=1e-12)
        np.testing.assert_array_equal(ne.component_functionals[1], [0.0, 0.0])

    def test_matches_the_space_norming_functional_on_a_zero_block(self):
        # a valid table whose supporting functional at the profile (1, 0) is
        # (1 - 2e-11, 0.2): the zero block's e* weight is not zero, so a
        # canonical-unit functional there would show
        table = AbsoluteNorm2.from_table(
            [(0.0, 1.0), (1e-10, 1.0 - 1e-10 + 1e-19), (0.5, 0.6),
             (1.0, 1.0)])
        Z = lattice_sum_space(Absolute2Lattice(table),
                              [EuclideanSpace(2), LpSpace(2, 3.0)])
        x = np.array([0.6, 0.8, 0.0, 0.0])
        ne = build_norming_element(Z, x, 0.01)
        assert ne.e_star[1] == pytest.approx(0.2)
        np.testing.assert_array_equal(ne.component_functionals[1], [0.0, 0.0])
        np.testing.assert_array_equal(ne.assembled, Z.norming_functional(x))
        assert all_passed(list(ne.certificates))

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInput):
            build_norming_element(self.make_space(), np.zeros(4), 0.01)

    def test_epsilon_domain(self):
        with pytest.raises(RangeError):
            build_norming_element(self.make_space(), np.array([1.0, 0, 0, 0]), 0.0)


class TestProfileOracle:
    def test_additive_witness_is_the_identity(self):
        o = NonnegAdditiveProfileOracle(LpSpace(3, 1.0), np.ones(3))
        series = ConvexSeries(
            np.array([0.4, 0.6]), np.stack([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        )
        w = o.witness(series, 0.3)
        assert w.indices == (0, 1)
        for z, x in zip(w.points, series.payload):
            np.testing.assert_allclose(z, x)
        np.testing.assert_allclose(w.functional, np.ones(3))
        assert all_passed(list(w.certificates))

    def test_eta_scales_linearly(self):
        o = NonnegAdditiveProfileOracle(LpSpace(2, 1.0), np.ones(2))
        assert o.eta(0.5) == pytest.approx(0.45)
        assert o.eta_ball(0.5) == pytest.approx(0.45)

    def test_negative_coordinate_rejected(self):
        o = NonnegAdditiveProfileOracle(LpSpace(3, 1.0), np.ones(3))
        series = ConvexSeries(np.array([1.0]), np.stack([[0.6, 0.5, -0.1]]))
        with pytest.raises(RangeError, match="negative"):
            o.witness(series, 0.3)

    def test_non_unit_point_rejected(self):
        o = NonnegAdditiveProfileOracle(LpSpace(3, 1.0), np.ones(3))
        series = ConvexSeries(np.array([1.0]), np.stack([[0.5, 0.6, 0.2]]))
        with pytest.raises(RangeError, match="unit"):
            o.witness(series, 0.3)

    def test_mass_below_the_hypothesis_rejected(self):
        # a sub-convex series of mass 0.5: |sum a_n x_n| = 0.5 is not above
        # 1 - eta(0.3) = 0.73
        o = NonnegAdditiveProfileOracle(LpSpace(2, 1.0), np.ones(2))
        series = ConvexSeries(np.array([0.5]), np.stack([[0.5, 0.5]]),
                              strict=False)
        with pytest.raises(HypothesisError, match="entry hypothesis"):
            o.witness(series, 0.3)

    def test_ball_witness_keeps_every_point(self):
        o = NonnegAdditiveProfileOracle(LatticeSpace(WeightedL1Lattice(
            [1.0, 2.0])), np.array([1.0, 2.0]))
        points = [[1, 0], [0.5, 0.25]]
        kept, faces, functional = o.witness_ball([0.3, 0.7], points,
                                                 [1, 2], 0.2)
        assert kept == (0, 1)
        for face, p in zip(faces, points):
            assert face.dtype == np.float64
            np.testing.assert_array_equal(face, p)
        assert functional.dtype == np.float64
        np.testing.assert_array_equal(functional, [1.0, 2.0])

    def test_default_oracle_dispatch(self):
        assert isinstance(
            default_profile_oracle(LpLattice(3, 1.0)), NonnegAdditiveProfileOracle
        )
        assert type(default_profile_oracle(LpLattice(3, 2.0))).__name__ == (
            "UniformlyConvexAhspOracle"
        )
        weighted = default_profile_oracle(WeightedL1Lattice([1.0, 2.0]))
        assert isinstance(weighted, NonnegAdditiveProfileOracle)
        with pytest.raises(RangeError, match="no built-in"):
            default_profile_oracle(LpLattice(2, math.inf))


class TestPolicy:
    def make(self, p=2.0, eps=0.5):
        Z, _ = make_sum_series(p, np.random.default_rng(1))
        comp_ahp = [ahp_oracle_uniformly_convex(c) for c in Z.components]
        E_oracle = default_profile_oracle(Z.combiner)
        return Z, lattice_sum_policy(Z, eps, comp_ahp, E_oracle), E_oracle

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
    def test_threshold_balances_both_moduli(self, p, eps):
        # r is pinned so the support-mass floor r - (1-r)/eta equals the
        # monotonicity floor 1 - alpha shifted by r: algebraically
        # 2r - 1 - (1-r)/eta == 1 - alpha.
        Z, pol, E_oracle = self.make(p, eps)
        lhs = 2.0 * pol.r - 1.0 - (1.0 - pol.r) / pol.eta
        assert lhs == pytest.approx(1.0 - pol.alpha, rel=1e-9, abs=1e-9)
        assert 0.0 < pol.eta <= 0.9 * min(eps / 4.0, pol.delta_quarter)
        assert 0.0 < pol.alpha <= 0.9 * eps / 4.0
        assert pol.epsilon_prime == pytest.approx(0.9 * (1.0 - pol.r) * eps / 3.0)
        assert pol.eta_prime == pytest.approx(E_oracle.eta(pol.epsilon_prime))

    def test_epsilon_domain(self):
        Z, _, E_oracle = self.make()
        comp_ahp = [ahp_oracle_uniformly_convex(c) for c in Z.components]
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(RangeError):
                lattice_sum_policy(Z, bad, comp_ahp, E_oracle)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_policy_does_not_depend_on_the_number_of_components(self, p, eps):
        # the theorem's parameters are uniform in m, so a sequence lattice
        # gets the same policy as its three-component sections
        policies = []
        for m in (3, 30, 100, 300):
            comps = [EuclideanSpace(2) for _ in range(m)]
            E = LpLattice(m, p)
            policies.append(lattice_sum_policy(
                lattice_sum_space(E, comps),
                eps, [UniformlyConvexAhspOracle(c) for c in comps],
                default_profile_oracle(E)))
        assert all(pol == policies[0] for pol in policies[1:])

    def test_flat_lattice_has_no_monotonicity_modulus(self):
        comps = COMPONENTS()
        Z = lattice_sum_space(LpLattice(2, math.inf), comps)
        comp_ahp = [ahp_oracle_uniformly_convex(c) for c in comps]
        E_oracle = NonnegAdditiveProfileOracle(LpSpace(2, 1.0), np.ones(2))
        with pytest.raises(NotUniformlyMonotone):
            lattice_sum_policy(Z, 0.3, comp_ahp, E_oracle)


EXPECTED_CERT_NAMES = [
    "series-hypothesis",
    "profile-witness-nonneg",
    "lifted-point-distance",
    "norming-element-value",
    "selected-mass",
    "defect-sum",
    "support-mass",
    "residual-mass",
    "escaped-mass",
    "component-support",
    "face-point-distance",
    "face-point-value",
    "patched-block-distance",
    "patched-distance",
    "witness-distance-final",
    "profile-value-exact",
    "witness-mass",
    "witness-distance",
    "witness-point-unit",
    "witness-face-value",
    "witness-functional-unit",
]


class TestLatticeSumWitness:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [0.2, 0.5])
    def test_full_chain_passes(self, p, eps):
        rng = np.random.default_rng(42)
        Z, series = make_sum_series(p, rng)
        w = lattice_sum_witness(Z, series, eps)
        assert [c.name for c in w.certificates] == EXPECTED_CERT_NAMES
        assert all(c.passed for c in w.certificates)
        # The assembled functional takes the value one on every witness
        # point and is itself a dual unit.
        for pt in w.points:
            assert float(np.real(Z.pairing(w.functional, pt))) == pytest.approx(
                1.0, abs=1e-8
            )
        assert Z.dual_norm(w.functional) == pytest.approx(1.0, abs=1e-8)
        mass = float(sum(series.weights[i] for i in w.indices))
        assert mass > 1.0 - eps
        assert all_passed(verify_ahsp_witness(series, w))

    def test_weighted_lattice_end_to_end(self):
        comps = COMPONENTS()
        Zw = lattice_sum_space(WeightedL1Lattice([1.0, 2.0]), comps)
        rng = np.random.default_rng(5)
        dirs = []
        for c in comps:
            v = rng.standard_normal(c.dim)
            dirs.append(v / np.linalg.norm(v))
        profs = []
        for _ in range(3):
            q = rng.dirichlet([2.0, 2.0])
            profs.append(np.array([q[0], q[1] / 2.0]))  # 1*a + 2*b = 1
        pts = np.stack(
            [np.concatenate([prof[k] * dirs[k] for k in range(2)]) for prof in profs]
        )
        series = ConvexSeries(np.array([0.2, 0.3, 0.5]), pts)
        w = lattice_sum_witness(Zw, series, 0.4)
        assert w.indices == (0, 1, 2)
        assert all(c.passed for c in w.certificates)
        assert all_passed(verify_ahsp_witness(series, w))

    def test_zero_block_members_fall_back_to_canonical(self):
        comps = COMPONENTS()
        Z = lattice_sum_space(LpLattice(2, 1.0), comps)
        member = np.concatenate([np.array([0.6, 0.8]), np.zeros(3)])
        series = ConvexSeries(np.array([0.5, 0.5]), np.stack([member, member]))
        w = lattice_sum_witness(Z, series, 0.3)
        assert all(c.passed for c in w.certificates)
        np.testing.assert_allclose(
            np.asarray(w.functional), [0.6, 0.8, 1.0, 0.0, 0.0], atol=1e-9
        )

    def test_spread_profiles_violate_hypothesis(self):
        comps = COMPONENTS()
        Z = lattice_sum_space(LpLattice(2, 2.0), comps)
        a = np.concatenate([np.array([1.0, 0.0]), np.zeros(3)])
        b = np.concatenate([np.zeros(2), np.array([1.0, 0.0, 0.0])])
        series = ConvexSeries(np.array([0.5, 0.5]), np.stack([a, b]))
        with pytest.raises(HypothesisError):
            lattice_sum_witness(Z, series, 0.4)

    def test_flat_lattice_needs_explicit_oracle(self):
        comps = COMPONENTS()
        Z = lattice_sum_space(LpLattice(2, math.inf), comps)
        member = np.concatenate([np.array([0.6, 0.8]), np.zeros(3)])
        series = ConvexSeries(np.array([1.0]), np.stack([member]))
        with pytest.raises(RangeError, match="no built-in"):
            lattice_sum_witness(Z, series, 0.3)
