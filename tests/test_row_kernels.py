"""Row-batched norm kernels and the estimators built on them."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbkit.absolute import AbsoluteNorm2
from bpbkit.errors import DimensionError, RangeError
from bpbkit.lattice_sums import sampled_dual_norm
from bpbkit.lattices import Absolute2Lattice, LpLattice, WeightedL1Lattice
from bpbkit.moduli import _halton_directions, convexity_modulus
from bpbkit.spaces import (DirectSumSpace, EuclideanSpace, LatticeSpace,
                           LpSpace, PlaneSpace)

TABLE = AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])

SPACES = {
    "euclidean": EuclideanSpace(3),
    "euclidean-complex": EuclideanSpace(2, "complex"),
    "lp1": LpSpace(3, 1.0),
    "lp1.5": LpSpace(3, 1.5),
    "lp3": LpSpace(2, 3.0),
    "lp-inf": LpSpace(3, math.inf),
    "plane-lp": PlaneSpace(AbsoluteNorm2.lp(2.5)),
    "plane-l2": PlaneSpace(AbsoluteNorm2.lp(2.0)),
    "plane-table": PlaneSpace(TABLE),
    "lattice-lp": LatticeSpace(LpLattice(3, 3.0)),
    "lattice-weighted": LatticeSpace(WeightedL1Lattice([1.0, 2.0, 0.5])),
    "lattice-absolute": LatticeSpace(Absolute2Lattice(TABLE)),
    "direct-sum": DirectSumSpace(
        [EuclideanSpace(2), LpSpace(2, 1.5), PlaneSpace(TABLE),
         LatticeSpace(WeightedL1Lattice([1.0, 3.0]))],
        LpLattice(4, 2.5)),
    "direct-sum-table": DirectSumSpace(
        [LpSpace(1, 2.0), EuclideanSpace(3)], Absolute2Lattice(TABLE)),
}

COORD = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                  allow_subnormal=False)


def _rows(data, space, max_rows=6):
    n = data.draw(st.integers(0, max_rows))
    real = np.array(data.draw(st.lists(COORD, min_size=n * space.dim,
                                       max_size=n * space.dim)))
    rows = real.reshape(n, space.dim)
    if space.scalar_field == "complex":
        imag = np.array(data.draw(st.lists(COORD, min_size=n * space.dim,
                                           max_size=n * space.dim)))
        rows = rows + 1j * imag.reshape(n, space.dim)
    return rows


@pytest.mark.parametrize("name", sorted(SPACES))
class TestKernelContract:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_norms_match_scalar_norm(self, name, data):
        space = SPACES[name]
        rows = _rows(data, space)
        expected = np.array([space.norm(r) for r in rows])
        got = space.norms(rows)
        assert got.shape == (len(rows),)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_zero_rows_are_exactly_zero(self, name, data):
        space = SPACES[name]
        rows = _rows(data, space, max_rows=3)
        at = data.draw(st.integers(0, len(rows)))
        rows = np.insert(rows, at, 0.0, axis=0)
        assert space.norms(rows)[at] == 0.0

    def test_empty_input(self, name):
        space = SPACES[name]
        assert space.norms(np.zeros((0, space.dim))).shape == (0,)

    def test_wrong_width(self, name):
        space = SPACES[name]
        for bad in (np.ones((2, space.dim + 1)), np.ones(space.dim),
                    np.ones((1, 1, space.dim))):
            with pytest.raises(DimensionError):
                space.norms(bad)

    def test_imaginary_parts(self, name):
        space = SPACES[name]
        rows = np.ones((2, space.dim), dtype=complex)
        if space.scalar_field == "complex":
            rows[1, 0] = 1j
            assert space.norms(rows)[1] == pytest.approx(space.norm(rows[1]))
            return
        # a zero imaginary part is a real row
        assert space.norms(rows)[0] == space.norm(np.ones(space.dim))
        rows[1, 0] = 1.0 + 1e-300j
        with pytest.raises(RangeError):
            space.norms(rows)


@pytest.mark.parametrize("E", [LpLattice(3, 1.0), LpLattice(3, 1.5),
                               LpLattice(2, math.inf),
                               WeightedL1Lattice([1.0, 2.0, 0.5]),
                               Absolute2Lattice(TABLE),
                               Absolute2Lattice(AbsoluteNorm2.lp(1.0)),
                               Absolute2Lattice(AbsoluteNorm2.lp(math.inf))])
def test_lattice_norms_match_norm_of(E):
    rows = np.random.default_rng(5).standard_normal((50, E.dim))
    rows[7] = 0.0
    got = E.norms(rows)
    np.testing.assert_allclose(got, [E.norm_of(r) for r in rows],
                               rtol=1e-14, atol=0.0)
    assert got[7] == 0.0
    with pytest.raises(DimensionError):
        E.norms(rows[:, :1])


def _per_row_convexity(space, eps, resolution):
    """The estimator one sampled pair at a time through the scalar norm."""
    dim = space.dim
    best = 1.0
    for row in _halton_directions(2 * dim, resolution):
        a, b = row[:dim], row[dim:]
        na, nb = space.norm(a), space.norm(b)
        if na == 0.0 or nb == 0.0:
            continue
        x, y0 = a / na, b / nb
        for target in (y0, -y0):
            if space.norm(x - target) < eps:
                continue
            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                cand = (1.0 - mid) * x + mid * target
                ncand = space.norm(cand)
                if ncand == 0.0:
                    hi = mid
                    continue
                if space.norm(x - cand / ncand) < eps:
                    lo = mid
                else:
                    hi = mid
            cand = (1.0 - hi) * x + hi * target
            ncand = space.norm(cand)
            if ncand == 0.0:
                continue
            y = cand / ncand
            if space.norm(x - y) >= eps * (1.0 - 1e-9):
                best = min(best, 1.0 - space.norm((x + y) / 2.0))
    return max(best, 0.0)


class TestBruteForceConvexity:
    @pytest.mark.parametrize("name", ["euclidean-complex", "lp1", "lp-inf",
                                      "plane-table", "lattice-weighted",
                                      "lattice-absolute", "direct-sum",
                                      "direct-sum-table"])
    @pytest.mark.parametrize("eps", [0.4, 1.3, 2.0])
    def test_matches_per_row_reference(self, name, eps):
        space = SPACES[name]
        got = convexity_modulus(space, eps, method="brute_force",
                                resolution=30)
        assert got == pytest.approx(_per_row_convexity(space, eps, 30),
                                    abs=1e-12)

    # values of the per-row estimator this batched one replaced
    @pytest.mark.parametrize("space,eps,resolution,value", [
        (PlaneSpace(TABLE), 1.4, 200, 0.0489307794969291),
        (LatticeSpace(LpLattice(3, 3.0)), 0.9, 200, 0.0320824261615991),
        (LpSpace(2, 2.55), 0.6, 400, 0.018465688434063),
        (EuclideanSpace(4), 0.25, 200, 0.00784325835077837),
    ])
    def test_pinned_values(self, space, eps, resolution, value):
        got = convexity_modulus(space, eps, method="brute_force",
                                resolution=resolution)
        assert got == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.25, 0.9, 1.4, 1.9])
    def test_euclidean_direct_sum_is_euclidean(self, eps):
        Z = DirectSumSpace([EuclideanSpace(2), EuclideanSpace(2)],
                           LpLattice(2, 2.0))
        brute = convexity_modulus(Z, eps, method="brute_force", resolution=200)
        closed = convexity_modulus(EuclideanSpace(4), eps,
                                   method="closed_form")
        assert brute == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.3, 1.0, 1.7])
    def test_complex_euclidean_same_as_real(self, eps):
        real = convexity_modulus(EuclideanSpace(2), eps, method="brute_force",
                                 resolution=200)
        cplx = convexity_modulus(EuclideanSpace(2, "complex"), eps,
                                 method="brute_force", resolution=200)
        assert cplx == real

    def test_uses_only_the_row_kernel(self):
        class RowsOnly(EuclideanSpace):
            def norm(self, x):
                raise AssertionError("scalar norm called")

        got = convexity_modulus(RowsOnly(3), 0.8, method="brute_force",
                                resolution=100)
        assert got == pytest.approx(1.0 - math.sqrt(1.0 - 0.16), abs=1e-9)


@pytest.mark.parametrize("E", [LpLattice(4, 3.0), LpLattice(3, 1.0),
                               LpLattice(2, math.inf),
                               WeightedL1Lattice([1.0, 2.0, 0.5]),
                               Absolute2Lattice(TABLE)])
def test_sampled_dual_norm_matches_per_sample_draws(E):
    x = np.linspace(-1.0, 2.0, E.dim)
    rng = np.random.default_rng(11)
    best = 0.0
    for _ in range(300):
        y = np.abs(rng.standard_normal(E.dim))
        best = max(best, float(np.dot(np.abs(x), y / E.norm_of(y))))
    got = sampled_dual_norm(E, x, np.random.default_rng(11), samples=300)
    assert got == pytest.approx(best, rel=1e-14, abs=0.0)
