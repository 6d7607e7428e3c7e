"""Row-batched norm kernels and the estimators and sweeps built on them."""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbkit import lattice_sums
from bpbkit.absolute import AbsoluteNorm2, lemma_fact_delta
from bpbkit.certs import check
from bpbkit.errors import DimensionError, RangeError
from bpbkit.lattice_sums import duality_isometry_check, sampled_dual_norm
from bpbkit.lattices import Absolute2Lattice, LpLattice, WeightedL1Lattice
from bpbkit.moduli import _halton_directions, convexity_modulus
from bpbkit.spaces import (DirectSumSpace, EuclideanSpace, LatticeSpace,
                           LpSpace, PlaneSpace)
from bpbkit.util import TOL_SPHERE

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


# -- the duality sweep and the lemma_fact_delta sweep against their loops ----


def _per_sample_duality(Z, x_star, seed=0, samples=200):
    """The duality check one sampled point at a time, as it was before the
    sweep was batched."""
    f = Z.coerce(x_star)
    lhs = Z.dual_norm(f)
    att = Z.attaining_vector(f)
    achieved = float(np.real(Z.pairing(f, att)))
    rng = np.random.default_rng(np.random.SeedSequence([987651, seed]))
    best = 0.0
    for _ in range(samples):
        raw = rng.standard_normal(Z.dim)
        x = raw / Z.norm(raw)
        best = max(best, abs(float(np.real(Z.pairing(f, x)))))
        aligned = []
        for comp, b, fb in zip(Z.components, Z.split(x), Z.split(f)):
            bn = comp.norm(b)
            if bn > 0.0 and comp.dual_norm(fb) > 0.0:
                aligned.append(bn * comp.attaining_vector(fb))
            else:
                aligned.append(b)
        xa = Z.embed(aligned)
        na = Z.norm(xa)
        if na > 0.0:
            best = max(best, abs(float(np.real(Z.pairing(f, xa)))) / na)
    return [
        check("duality-attainer-unit", abs(Z.norm(att) - 1.0), "<=", 0.0,
              tol=TOL_SPHERE),
        check("duality-gap", abs(lhs - achieved), "<=", 0.0, tol=1e-4),
        check("duality-ball-bound", best, "<=", lhs, tol=1e-9),
    ]


def _assert_same_duality(got, want):
    assert [c.name for c in got] == [c.name for c in want]
    assert [c.passed for c in got] == [c.passed for c in want]
    assert got[:2] == want[:2]
    assert got[2].lhs == pytest.approx(want[2].lhs, rel=1e-14, abs=0.0)


DUALITY_COMPONENTS = [
    EuclideanSpace(2), EuclideanSpace(1), LpSpace(2, 1.0), LpSpace(3, 1.5),
    LpSpace(2, math.inf), PlaneSpace(TABLE), PlaneSpace(AbsoluteNorm2.lp(3.0)),
    LatticeSpace(WeightedL1Lattice([1.0, 3.0])),
    LatticeSpace(LpLattice(2, 4.0)), LatticeSpace(Absolute2Lattice(TABLE)),
]
SMALL_BLOCK = 5


@st.composite
def _duality_instances(draw):
    m = draw(st.integers(1, 4))
    comps = draw(st.lists(st.sampled_from(DUALITY_COMPONENTS),
                          min_size=m, max_size=m))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf, "weighted"]))
    combiner = (WeightedL1Lattice(draw(st.lists(st.floats(0.25, 4.0),
                                                min_size=m, max_size=m)))
                if p == "weighted" else LpLattice(m, p))
    Z = DirectSumSpace(comps, combiner)
    seed = draw(st.integers(0, 2 ** 31))
    f = np.random.default_rng(seed).standard_normal(Z.dim)
    if m > 1 and draw(st.booleans()):
        # a zero block keeps its sampled coordinates in the aligned point
        f[Z.offsets[0]:Z.offsets[1]] = 0.0
    return Z, f, seed


class TestDualitySweep:
    @settings(max_examples=60, deadline=None)
    @given(inst=_duality_instances(),
           samples=st.sampled_from([1, SMALL_BLOCK - 1, SMALL_BLOCK,
                                    SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 2]))
    def test_matches_per_sample_loop(self, inst, samples):
        Z, f, seed = inst
        with mock.patch.object(lattice_sums, "SAMPLE_BLOCK", SMALL_BLOCK):
            got = duality_isometry_check(Z, f, seed=seed, samples=samples)
        _assert_same_duality(got, _per_sample_duality(Z, f, seed, samples))

    def test_across_the_block_boundary(self):
        Z = DirectSumSpace([EuclideanSpace(2), PlaneSpace(TABLE)],
                           LpLattice(2, 3.0))
        f = np.array([0.4, -1.0, 0.3, 0.9])
        samples = lattice_sums.SAMPLE_BLOCK + 1
        _assert_same_duality(duality_isometry_check(Z, f, 4, samples),
                             _per_sample_duality(Z, f, 4, samples))

    @pytest.mark.parametrize("samples", [0, -1])
    def test_empty_sweep_is_refused(self, samples):
        Z = DirectSumSpace([EuclideanSpace(2)], LpLattice(1, 2.0))
        with pytest.raises(RangeError, match="samples"):
            duality_isometry_check(Z, np.ones(2), samples=samples)
        with pytest.raises(RangeError, match="samples"):
            sampled_dual_norm(Z.combiner, np.ones(1),
                              np.random.default_rng(0), samples=samples)


@pytest.mark.parametrize("E", [LpLattice(3, 1.5), Absolute2Lattice(TABLE)])
def test_sampled_dual_norm_across_the_block_boundary(E):
    samples = lattice_sums.SAMPLE_BLOCK + 1
    x = np.linspace(-1.0, 2.0, E.dim)
    rng = np.random.default_rng(12)
    best = 0.0
    for _ in range(samples):
        y = np.abs(rng.standard_normal(E.dim))
        best = max(best, float(np.dot(np.abs(x), y / E.norm_of(y))))
    got = sampled_dual_norm(E, x, np.random.default_rng(12), samples=samples)
    assert got == pytest.approx(best, rel=1e-14, abs=0.0)


def _per_point_delta(n, epsilon, resolution):
    """``lemma_fact_delta`` with its sweep one sphere point at a time, as it
    was before the sweep was batched."""
    cap = 1.0 - 1e-9
    cut = n._t_max + epsilon
    delta = min(1.0 - n.sup_height(cut), cap)
    for u in np.linspace(0.0, 1.0, resolution):
        a, b = n.sphere_point(float(u))
        if b > 1.0 - delta and a > cut + 1e-9:
            delta = min(delta, max(1.0 - b, 1e-12))
    return delta


def _random_table(seed):
    """A polyhedral generator: ``max(1 - u, u)`` and a few random lines in
    ``[0, 1]``, tabulated on an evenly spaced grid."""
    rng = np.random.default_rng(seed)
    u = np.linspace(0.0, 1.0, int(rng.integers(3, 30)))
    psi = np.maximum(1.0 - u, u)
    for c, d in rng.uniform(0.0, 1.0, (int(rng.integers(1, 4)), 2)):
        psi = np.maximum(psi, c * (1.0 - u) + d * u)
    return AbsoluteNorm2.from_table(list(zip(u, psi)))


DELTA_GENERATORS = {
    **{f"lp{p}": AbsoluteNorm2.lp(p)
       for p in (1.0, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0, math.inf)},
    **{f"table{seed}": _random_table(seed) for seed in range(4)},
    **{f"table{seed}-swapped": _random_table(seed).swapped()
       for seed in range(4)},
    "table": TABLE, "table-swapped": TABLE.swapped(),
}
DELTA_EPSILONS = [float(e) for e in np.geomspace(1e-12, 3.0, 10)]


class TestLemmaFactDeltaSweep:
    @pytest.mark.parametrize("name", sorted(DELTA_GENERATORS))
    def test_bit_identical_to_per_point_sweep(self, name):
        n = DELTA_GENERATORS[name]
        for eps in DELTA_EPSILONS:
            assert lemma_fact_delta(n, eps, 1001) == _per_point_delta(
                n, eps, 1001)

    @pytest.mark.parametrize("name", sorted(DELTA_GENERATORS)[::3])
    def test_bit_identical_at_the_default_resolution(self, name):
        n = DELTA_GENERATORS[name]
        for eps in (1e-6, 0.2, 3.0):
            assert lemma_fact_delta(n, eps) == _per_point_delta(n, eps, 10000)

    @pytest.mark.parametrize("name", sorted(DELTA_GENERATORS))
    def test_bit_identical_when_the_sweep_lowers_delta(self, name):
        n = DELTA_GENERATORS[name]
        # with sup_height forced to 0 the closed form gives the cap, and the
        # sweep has to find the threshold itself
        with mock.patch.object(n, "sup_height", lambda cut: 0.0):
            for eps in DELTA_EPSILONS:
                want = _per_point_delta(n, eps, 1001)
                assert lemma_fact_delta(n, eps, 1001) == want
