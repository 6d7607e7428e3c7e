"""Finite sequence lattices: exact norms, duals, and supporting functionals."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbkit.absolute import AbsoluteNorm2
from bpbkit.errors import DegenerateInput, DimensionError, RangeError
from bpbkit.lattices import (
    Absolute2Lattice,
    FiniteLattice,
    LpLattice,
    WeightedL1Lattice,
    lattice_from_params,
)

VECTOR3 = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=3, max_size=3
)


def lattice_examples() -> list[FiniteLattice]:
    return [
        LpLattice(3, 1.0),
        LpLattice(3, 2.0),
        LpLattice(3, 3.0),
        LpLattice(3, math.inf),
        WeightedL1Lattice([1.0, 2.0, 0.5]),
    ]


class TestLpNorms:
    def test_norm_pins(self):
        x = np.array([3.0, -4.0, 0.0])
        assert LpLattice(3, 1.0).norm_of(x) == pytest.approx(7.0)
        assert LpLattice(3, 2.0).norm_of(x) == pytest.approx(5.0)
        assert LpLattice(3, math.inf).norm_of(x) == pytest.approx(4.0)
        assert LpLattice(2, 3.0).norm_of([1.0, 1.0]) == pytest.approx(2.0 ** (1 / 3))

    def test_dual_norm_uses_conjugate_exponent(self):
        c = np.array([3.0, 4.0])
        assert LpLattice(2, 1.0).dual_norm_of(c) == pytest.approx(4.0)
        assert LpLattice(2, 2.0).dual_norm_of(c) == pytest.approx(5.0)
        # Conjugate of 3 is 3/2: (3^1.5 + 4^1.5)^(2/3).
        assert LpLattice(2, 3.0).dual_norm_of(c) == pytest.approx(
            (3.0**1.5 + 4.0**1.5) ** (2.0 / 3.0)
        )
        assert LpLattice(2, math.inf).dual_norm_of(c) == pytest.approx(7.0)

    def test_zero_norm_only_at_zero(self):
        for lat in lattice_examples():
            assert lat.norm_of(np.zeros(3)) == 0.0
            assert lat.norm_of([0.0, 1e-300, 0.0]) > 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            LpLattice(3, 2.0).norm_of([1.0, 2.0])

    def test_invalid_construction(self):
        with pytest.raises(RangeError):
            LpLattice(3, 0.5)
        with pytest.raises(DimensionError):
            LpLattice(0, 2.0)


class TestNormingFunctionals:
    def test_sum_norm_signs_on_support(self):
        np.testing.assert_allclose(
            LpLattice(2, 1.0).norming_of([-2.0, 1.0]), [-1.0, 1.0]
        )
        # Free coordinates (zeros of x) stay at zero.
        np.testing.assert_allclose(
            LpLattice(3, 1.0).norming_of([1.0, 0.0, -1.0]), [1.0, 0.0, -1.0]
        )

    def test_max_norm_tie_rules(self):
        # Ties on the max resolve to a negative coordinate when one exists,
        # otherwise to the last tied index.
        np.testing.assert_allclose(
            LpLattice(3, math.inf).norming_of([1.0, 3.0, 3.0]), [0.0, 0.0, 1.0]
        )
        np.testing.assert_allclose(
            LpLattice(3, math.inf).norming_of([-3.0, 1.0, 3.0]), [-1.0, 0.0, 0.0]
        )

    def test_euclidean_norming_is_the_direction(self):
        np.testing.assert_allclose(
            LpLattice(2, 2.0).norming_of([3.0, 4.0]), [0.6, 0.8], atol=1e-12
        )

    def test_weighted_norming_scales_by_weights(self):
        w = WeightedL1Lattice([1.0, 2.0, 0.5])
        np.testing.assert_allclose(w.norming_of([1.0, -1.0, 0.0]), [1.0, -2.0, 0.0])
        np.testing.assert_allclose(w.norming_of([1.0, 0.0, -1.0]), [1.0, 0.0, -0.5])

    def test_zero_vector_rejected(self):
        for lat in lattice_examples():
            with pytest.raises(DegenerateInput):
                lat.norming_of(np.zeros(3))

    @given(x=VECTOR3)
    @settings(max_examples=60)
    def test_norming_attains_with_dual_norm_one(self, x):
        arr = np.asarray(x)
        for lat in lattice_examples():
            if lat.norm_of(arr) < 1e-6:
                continue
            c = lat.norming_of(arr)
            assert float(c @ arr) == pytest.approx(lat.norm_of(arr), rel=1e-9)
            assert lat.dual_norm_of(c) == pytest.approx(1.0, abs=1e-9)

    @given(x=VECTOR3)
    @settings(max_examples=60)
    def test_norming_nonnegative_on_the_cone(self, x):
        arr = np.abs(np.asarray(x))
        for lat in lattice_examples():
            if lat.norm_of(arr) < 1e-6:
                continue
            assert np.all(lat.norming_of(arr) >= 0.0)


class TestDualAttainingVectors:
    def test_pins(self):
        np.testing.assert_allclose(
            LpLattice(2, 1.0).dual_attaining_vector([3.0, -4.0]), [0.0, 1.0]
        )
        np.testing.assert_allclose(
            LpLattice(3, math.inf).dual_attaining_vector([1.0, -2.0, 2.0]),
            [1.0, 1.0, 1.0],
        )
        np.testing.assert_allclose(
            LpLattice(2, 2.0).dual_attaining_vector([3.0, 4.0]), [0.6, 0.8], atol=1e-12
        )
        # Weighted: |c|/w peaks at the third slot, whose unit multiple is 1/w = 2.
        np.testing.assert_allclose(
            WeightedL1Lattice([1.0, 2.0, 0.5]).dual_attaining_vector([3.0, 4.0, 5.0]),
            [0.0, 0.0, 2.0],
        )

    def test_ties_take_the_first_maximum(self):
        # several coordinates or plane vertices attain |c|: the first wins
        np.testing.assert_array_equal(
            LpLattice(3, 1.0).dual_attaining_vector([2.0, -2.0, 1.0]),
            [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            WeightedL1Lattice([1.0, 2.0]).dual_attaining_vector([1.0, 2.0]),
            [1.0, 0.0])
        for p, c in ((1.0, [2.0, -2.0]), (math.inf, [1.0, 0.0])):
            lat = Absolute2Lattice(AbsoluteNorm2.lp(p))
            np.testing.assert_array_equal(lat.dual_attaining_vector(c),
                                          [1.0, 0.0])

    @given(c=VECTOR3)
    @settings(max_examples=60)
    def test_attains_the_dual_norm_on_the_cone(self, c):
        arr = np.asarray(c)
        for lat in lattice_examples():
            if lat.dual_norm_of(arr) < 1e-6:
                continue
            u = lat.dual_attaining_vector(arr)
            assert np.all(u >= 0.0)
            assert lat.norm_of(u) == pytest.approx(1.0, rel=1e-9)
            assert float(np.abs(arr) @ u) == pytest.approx(
                lat.dual_norm_of(arr), rel=1e-9
            )

    def test_zero_functional_rejected(self):
        with pytest.raises(DegenerateInput):
            LpLattice(3, 2.0).dual_attaining_vector(np.zeros(3))


class TestWeightedL1:
    def test_norm_and_dual_pins(self):
        w = WeightedL1Lattice([1.0, 2.0, 0.5])
        assert w.norm_of([1.0, 1.0, 1.0]) == pytest.approx(3.5)
        # Dual norm is the weighted max |c_k| / w_k.
        assert w.dual_norm_of([3.0, 4.0, 5.0]) == pytest.approx(10.0)

    def test_positive_weights_required(self):
        with pytest.raises(RangeError):
            WeightedL1Lattice([1.0, -2.0])
        with pytest.raises(RangeError):
            WeightedL1Lattice([1.0, 0.0])


class TestPlaneWrapper:
    def test_wraps_generator_exactly(self):
        table = AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])
        lat = Absolute2Lattice(table)
        assert lat.dim == 2
        assert lat.norm_of([0.55, 0.55]) == pytest.approx(1.0)
        assert lat.dual_norm_of([1.0, 1.0]) == pytest.approx(
            table.dual_value([1.0, 1.0])
        )
        c = lat.norming_of([0.55, 0.55])
        assert float(np.dot(c, [0.55, 0.55])) == pytest.approx(1.0, abs=1e-9)
        assert lat.dual_norm_of(c) == pytest.approx(1.0, abs=1e-9)


class TestHolderPairing:
    @given(x=VECTOR3, c=VECTOR3)
    @settings(max_examples=60)
    def test_pairing_bounded_by_norm_product(self, x, c):
        xa, ca = np.asarray(x), np.asarray(c)
        for lat in lattice_examples():
            lhs = abs(float(ca @ xa))
            rhs = lat.dual_norm_of(ca) * lat.norm_of(xa)
            assert lhs <= rhs + 1e-9 * (1.0 + rhs)


class TestUnitAndParams:
    def test_unit_normalizes(self):
        lat = LpLattice(3, 2.0)
        u = lat.unit([3.0, 0.0, 4.0])
        assert lat.norm_of(u) == pytest.approx(1.0)
        with pytest.raises(DegenerateInput):
            lat.unit(np.zeros(3))

    def test_params_round_trip(self):
        table = AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])
        for lat in lattice_examples() + [Absolute2Lattice(table)]:
            rebuilt = lattice_from_params(lat.to_params())
            assert type(rebuilt) is type(lat)
            probe = np.linspace(0.3, 1.7, lat.dim)
            assert rebuilt.norm_of(probe) == pytest.approx(lat.norm_of(probe))

    def test_lp_params_shape(self):
        lat = lattice_from_params({"kind": "lp", "p": 2, "dim": 4})
        assert isinstance(lat, LpLattice)
        assert lat.dim == 4 and lat.p == 2.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(RangeError, match="unknown lattice kind"):
            lattice_from_params({"kind": "nope"})
