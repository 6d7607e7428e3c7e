"""Convexity and monotonicity moduli: closed forms against brute-force sweeps."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbkit.errors import NotUniformlyConvex, NotUniformlyMonotone, RangeError
from bpbkit.lattices import Absolute2Lattice, LpLattice, WeightedL1Lattice
from bpbkit.moduli import (
    ModulusCurve,
    _hanner_delta,
    convexity_curve,
    convexity_modulus,
    monotonicity_curve,
    monotonicity_modulus,
    space_descriptor,
)
from bpbkit.spaces import DirectSumSpace, EuclideanSpace, LpSpace, PlaneSpace
from bpbkit.absolute import AbsoluteNorm2


class TestConvexityModulus:
    def test_euclidean_closed_form(self):
        # delta(eps) = 1 - sqrt(1 - eps^2/4) for the round ball.
        sp = EuclideanSpace(2)
        for eps in (0.5, 1.0, 2.0):
            expected = 1.0 - math.sqrt(1.0 - eps**2 / 4.0)
            assert convexity_modulus(sp, eps) == pytest.approx(expected, abs=1e-12)
        assert convexity_modulus(sp, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_euclidean_dimension_free(self):
        assert convexity_modulus(EuclideanSpace(5), 0.7) == pytest.approx(
            convexity_modulus(EuclideanSpace(2), 0.7), abs=1e-12
        )

    def test_complex_euclidean_same_modulus(self):
        assert convexity_modulus(
            EuclideanSpace(2, scalar_field="complex"), 0.9
        ) == pytest.approx(convexity_modulus(EuclideanSpace(2), 0.9), abs=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("eps", [0.3, 0.8, 1.5])
    def test_closed_form_matches_brute_force(self, p, eps):
        sp = LpSpace(2, p)
        cf = convexity_modulus(sp, eps, method="closed_form")
        bf = convexity_modulus(sp, eps, method="brute_force", resolution=1000)
        assert cf == pytest.approx(bf, abs=1e-4)

    def test_three_dimensional_brute_force_agrees(self):
        sp = LpSpace(3, 3.0)
        cf = convexity_modulus(sp, 0.8, method="closed_form")
        bf = convexity_modulus(sp, 0.8, method="brute_force", resolution=1000)
        assert cf == pytest.approx(bf, abs=1e-4)

    def test_auto_prefers_closed_form(self):
        sp = LpSpace(2, 3.0)
        assert convexity_modulus(sp, 0.5) == convexity_modulus(
            sp, 0.5, method="closed_form"
        )

    def test_flat_norms_closed_form_refuses(self):
        for p in (1.0, math.inf):
            with pytest.raises(NotUniformlyConvex):
                convexity_modulus(LpSpace(2, p), 0.5, method="closed_form")

    def test_flat_norms_brute_force_reports_zero(self):
        for p in (1.0, math.inf):
            assert convexity_modulus(LpSpace(2, p), 0.5) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("space,method", [
        (LpSpace(1, 3.0), "closed_form"), (LpSpace(1, 3.0), "brute_force"),
        (LpSpace(1, 1.0), "auto"), (EuclideanSpace(1), "brute_force")])
    def test_one_dimensional_modulus_is_one(self, space, method):
        # the only unit vectors are +-1, so separated pairs meet at 0
        for eps in (0.1, 1.0, 2.0):
            assert convexity_modulus(space, eps, method) == 1.0

    def test_epsilon_domain(self):
        for eps in (0.0, -0.5, 2.1):
            with pytest.raises(RangeError):
                convexity_modulus(EuclideanSpace(2), eps)

    def test_unknown_method_rejected(self):
        with pytest.raises(RangeError):
            convexity_modulus(EuclideanSpace(2), 0.5, method="magic")

    @settings(max_examples=60, deadline=None)
    @given(resolution=st.one_of(
        st.integers(max_value=0), st.booleans(), st.floats(), st.none(),
        st.text(max_size=3), st.integers(1, 10).map(float),
        st.integers(-3, 0).map(np.int64)))
    def test_resolution_must_be_a_positive_integer(self, resolution):
        for space in (EuclideanSpace(2), PlaneSpace(AbsoluteNorm2.lp(1.0))):
            with pytest.raises(RangeError):
                convexity_modulus(space, 0.5, resolution=resolution)
            with pytest.raises(RangeError):
                convexity_curve(space, [0.5], resolution=resolution)
            with pytest.raises(RangeError):
                convexity_curve(space, [], resolution=resolution)

    @settings(max_examples=20, deadline=None)
    @given(resolution=st.one_of(st.integers(1, 40),
                                st.integers(1, 40).map(np.int64)))
    def test_positive_integer_resolution_accepted(self, resolution):
        value = convexity_modulus(LpSpace(2, 1.0), 0.5, method="brute_force",
                                  resolution=resolution)
        assert 0.0 <= value <= 1.0
        curve = convexity_curve(LpSpace(2, 1.0), [0.5], resolution=resolution)
        assert curve.samples == ((0.5, value),)


def _hanner_delta_200_steps(p, eps):
    """The 1 < p < 2 bisection of ``_hanner_delta`` with all 200 steps."""
    def g(d):
        return (1.0 - d + eps / 2.0) ** p + abs(1.0 - d - eps / 2.0) ** p - 2.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_hanner_bisection_stops_at_its_fixed_point():
    # 60 exponents in (1, 2) times 80 epsilons in (0, 2], down to 1e-5
    epsilons = np.concatenate([np.linspace(0.0, 2.0, 76)[1:],
                               10.0 ** -np.arange(1, 6)])
    for p in np.linspace(1.0, 2.0, 62)[1:-1]:
        for eps in epsilons:
            assert (_hanner_delta(p, eps)
                    == _hanner_delta_200_steps(p, eps)), (p, eps)


def subset_enumeration_modulus(lattice, epsilon: float, seed: int = 0) -> float:
    """Brute-force monotonicity bound: enumerate coordinate subsets.

    Samples nonnegative unit vectors, and for every subset carrying mass at
    least ``epsilon`` records how much norm survives off the subset.  The
    smallest observed drop upper-bounds the modulus.
    """
    rng = np.random.default_rng(seed)
    dim = lattice.dim
    best = math.inf
    for _ in range(60):
        x = np.abs(rng.standard_normal(dim))
        x /= lattice.norm_of(x)
        for bits in itertools.product((0, 1), repeat=dim):
            mask = np.array(bits, dtype=float)
            if not mask.any():
                continue
            if lattice.norm_of(x * mask) >= epsilon:
                best = min(best, 1.0 - lattice.norm_of(x * (1.0 - mask)))
    return best


class TestMonotonicityModulus:
    def test_sum_norm_is_linear(self):
        assert monotonicity_modulus(LpLattice(3, 1.0), 0.5) == pytest.approx(0.5)
        assert monotonicity_modulus(LpLattice(3, 1.0), 0.2) == pytest.approx(0.2)
        assert monotonicity_modulus(WeightedL1Lattice([1.0, 2.0]), 0.5) == (
            pytest.approx(0.5)
        )

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("eps", [0.3, 0.5, 0.9])
    def test_p_norm_closed_form(self, p, eps):
        expected = 1.0 - (1.0 - eps**p) ** (1.0 / p)
        assert monotonicity_modulus(LpLattice(4, p), eps) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_subset_enumeration_oracle(self, p):
        # The closed form must lower-bound every sampled drop, and the
        # concentrated extremal vector attains it exactly.
        for dim in (2, 4, 6):
            lat = LpLattice(dim, p)
            eps = 0.4
            alpha = monotonicity_modulus(lat, eps)
            sampled = subset_enumeration_modulus(lat, eps, seed=dim)
            assert alpha <= sampled + 1e-9
            # Extremal: mass exactly eps^p on one coordinate.
            x = np.zeros(dim)
            x[0] = eps
            rest = (1.0 - eps**p) ** (1.0 / p) if p != 1.0 else 1.0 - eps
            x[1:] = rest / (dim - 1) ** (1.0 / p) if p != math.inf else rest
            assert lat.norm_of(x) == pytest.approx(1.0, rel=1e-9)
            drop = 1.0 - lat.norm_of(x * np.array([0.0] + [1.0] * (dim - 1)))
            assert alpha == pytest.approx(drop, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
    def test_asymmetric_plane_against_a_sphere_sweep(self, eps):
        # SKEW can retain more off its second coordinate than off its first;
        # sweep the positive unit sphere and remove either singleton
        lat = Absolute2Lattice(AbsoluteNorm2.from_table(
            [(0.0, 1.0), (0.3, 0.8), (1.0, 1.0)]))
        theta = np.linspace(0.0, math.pi / 2.0, 200_001)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        pts /= lat.norms(pts)[:, None]
        first, second = pts[:, 0], pts[:, 1]  # |e1| = |e2| = 1
        retained = max(second[first > eps].max(), first[second > eps].max())
        alpha = monotonicity_modulus(lat, eps)
        assert alpha <= 1.0 - retained + 1e-12
        assert alpha == pytest.approx(1.0 - retained, abs=1e-4)

    def test_max_lattice_not_uniformly_monotone(self):
        with pytest.raises(NotUniformlyMonotone):
            monotonicity_modulus(LpLattice(3, math.inf), 0.5)

    def test_epsilon_domain(self):
        for eps in (0.0, 1.0, 1.1):
            with pytest.raises(RangeError):
                monotonicity_modulus(LpLattice(3, 1.0), eps)


class TestCurves:
    def test_convexity_curve_fields_and_monotone(self):
        curve = convexity_curve(EuclideanSpace(2), [0.2, 0.5, 1.0, 1.8])
        assert curve.kind == "convexity"
        assert curve.space_id == "euclidean[R]^2"
        assert curve.method == "closed_form"
        eps, vals = zip(*curve.samples)
        assert eps == (0.2, 0.5, 1.0, 1.8)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_monotonicity_curve_fields(self):
        curve = monotonicity_curve(LpLattice(3, 2.0), [0.2, 0.5, 0.8])
        assert curve.kind == "monotonicity"
        assert curve.space_id == "lp(2.0)^3"
        _, vals = zip(*curve.samples)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_csv_layout(self):
        curve = convexity_curve(EuclideanSpace(2), [0.5, 1.0])
        lines = curve.to_csv().splitlines()
        assert lines[0] == "epsilon,value"
        assert lines[1] == "0.5,0.031754163448145745"
        assert lines[2] == "1.0,0.1339745962155614"

    def test_json_shape(self):
        curve = monotonicity_curve(LpLattice(2, 1.0), [0.3])
        obj = curve.to_json()
        assert obj["kind"] == "monotonicity"
        assert obj["space_id"] == "lp(1.0)^2"
        assert obj["samples"] == [[0.3, pytest.approx(0.3)]]

    def test_monotonicity_curve_propagates_failure(self):
        with pytest.raises(NotUniformlyMonotone):
            monotonicity_curve(LpLattice(2, math.inf), [0.3])

    def test_table_norm_auto_brute_force(self):
        tab = PlaneSpace(
            AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])
        )
        curve = convexity_curve(tab, [0.5])
        assert curve.method == "brute_force"
        # Flat faces: no convexity gain at small eps.
        assert curve.samples[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_space_descriptor_pins(self):
        assert space_descriptor(EuclideanSpace(2)) == "euclidean[R]^2"
        assert space_descriptor(EuclideanSpace(2, scalar_field="complex")) == (
            "euclidean[C]^2"
        )
        assert space_descriptor(LpSpace(2, 3.0)) == "lp(3.0)^2"
        assert space_descriptor(LpLattice(3, 1.0)) == "lp(1.0)^3"

    def test_space_descriptor_of_direct_sums(self):
        inner = DirectSumSpace([EuclideanSpace(2), LpSpace(3, 1.5)],
                               LpLattice(2, 1.0))
        assert space_descriptor(inner) == (
            "sum[lp(1.0)^2](euclidean[R]^2,lp(1.5)^3)")
        outer = DirectSumSpace([EuclideanSpace(1), inner],
                               Absolute2Lattice(AbsoluteNorm2.lp(2.5)))
        assert space_descriptor(outer) == (
            "sum[absolute2(lp)](euclidean[R]^1,"
            "sum[lp(1.0)^2](euclidean[R]^2,lp(1.5)^3))")
