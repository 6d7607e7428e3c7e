"""Row-batched norm kernels and the estimators and sweeps built on them."""
from __future__ import annotations

import math
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbkit import absolute, lattice_sums, spaces
from bpbkit.ahsp import AhspWitness, ahsp_oracle_for, verify_ahsp_witness
from bpbkit.absolute import AbsoluteNorm2, boundary_completion, lemma_fact_delta
from bpbkit.bpb import ConvexSeries
from bpbkit.certs import check
from bpbkit.errors import (DegenerateInput, DimensionError, HypothesisError,
                           NotOnSphere, OracleViolation, RangeError)
from bpbkit.lattice_sums import duality_isometry_check, sampled_dual_norm
from bpbkit.lattices import (Absolute2Lattice, LpLattice, WeightedL1Lattice,
                            _lp_norms, _row_reduce)
from bpbkit.moduli import (_CHORD_MARGIN, _brute_force_convexity, _chords,
                           _sample_directions, convexity_modulus)
from bpbkit.spaces import (DirectSumSpace, EuclideanSpace, LatticeSpace,
                           LpSpace, Operator, OperatorNormResult, PlaneSpace)
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


# -- the dual row kernels against the one-vector methods -------------------

DUAL_KERNELS = {"dual_norms": "dual_norm",
                "norming_functionals": "norming_functional",
                "attaining_vectors": "attaining_vector"}
KERNEL_SPACES = {**SPACES,
                 "plane-l1": PlaneSpace(AbsoluteNorm2.lp(1.0)),
                 "plane-linf": PlaneSpace(AbsoluteNorm2.lp(math.inf))}
# kinds whose dual operations are sign, argmax and candidate-scan tie rules
# on exactly computed values: their row kernels must reproduce the scalar
# outputs bit for bit; the others may round differently, within rtol 1e-14
# (below the normal range only an absolute comparison means anything)
TIE_RULE_SPACES = {"lp1", "lp-inf", "plane-table", "plane-l1", "plane-linf",
                   "lattice-weighted", "lattice-absolute"}
TINY = np.finfo(float).tiny


def _rows_with_zeros(data, space):
    """Drawn rows with a drawn share of their coordinates set to zero."""
    rows = _rows(data, space)
    zero = data.draw(st.lists(st.sampled_from([False, False, False, True]),
                              min_size=rows.size, max_size=rows.size))
    rows[np.array(zero, dtype=bool).reshape(rows.shape)] = 0.0
    return rows


def _assert_same_rows(got, want, exact):
    want = np.asarray(want, dtype=got.dtype).reshape(got.shape)
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=TINY)


@pytest.mark.parametrize("kernel", sorted(DUAL_KERNELS))
@pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dual_kernel_matches_scalar_loop(name, kernel, data):
    space = KERNEL_SPACES[name]
    rows = _rows_with_zeros(data, space)
    scalar = getattr(space, DUAL_KERNELS[kernel])
    try:
        want = [scalar(r) for r in rows]
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            getattr(space, kernel)(rows)
        return
    _assert_same_rows(getattr(space, kernel)(rows), want,
                      name in TIE_RULE_SPACES)


@pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
class TestDualKernelContract:
    def test_zero_row(self, name):
        space = KERNEL_SPACES[name]
        rows = np.ones((3, space.dim))
        rows[1] = 0.0
        assert space.dual_norms(rows)[1] == space.dual_norm(rows[1]) == 0.0
        for kernel in ("norming_functionals", "attaining_vectors"):
            with pytest.raises(DegenerateInput):
                getattr(space, DUAL_KERNELS[kernel])(rows[1])
            with pytest.raises(DegenerateInput):
                getattr(space, kernel)(rows)

    def test_empty_input(self, name):
        space = KERNEL_SPACES[name]
        empty = np.zeros((0, space.dim))
        assert space.dual_norms(empty).shape == (0,)
        assert space.norming_functionals(empty).shape == (0, space.dim)
        assert space.attaining_vectors(empty).shape == (0, space.dim)

    def test_wrong_width(self, name):
        space = KERNEL_SPACES[name]
        for kernel in DUAL_KERNELS:
            for bad in (np.ones((2, space.dim + 1)), np.ones(space.dim),
                        np.ones((1, 1, space.dim))):
                with pytest.raises(DimensionError):
                    getattr(space, kernel)(bad)


LATTICE_KERNELS = {"dual_norms": "dual_norm_of", "normings": "norming_of",
                   "dual_attaining_vectors": "dual_attaining_vector"}
KERNEL_LATTICES = {
    "lp1": LpLattice(3, 1.0), "lp1.5": LpLattice(3, 1.5),
    "lp3": LpLattice(4, 3.0), "lp-inf": LpLattice(3, math.inf),
    "weighted": WeightedL1Lattice([1.0, 2.0, 0.5]),
    "absolute-table": Absolute2Lattice(TABLE),
    "absolute-l1": Absolute2Lattice(AbsoluteNorm2.lp(1.0)),
    "absolute-linf": Absolute2Lattice(AbsoluteNorm2.lp(math.inf)),
    "absolute-lp": Absolute2Lattice(AbsoluteNorm2.lp(2.5)),
}


@pytest.mark.parametrize("kernel", sorted(LATTICE_KERNELS))
@pytest.mark.parametrize("name", sorted(KERNEL_LATTICES))
def test_lattice_dual_kernels_match_scalar(name, kernel):
    E = KERNEL_LATTICES[name]
    rng = np.random.default_rng(9)
    # small integers give ties and zero coordinates; the sphere vertices of
    # a polyhedral generator sit where two candidates attain
    rows = np.vstack([rng.standard_normal((20, E.dim)),
                      rng.integers(-2, 3, (40, E.dim))])
    if isinstance(E, Absolute2Lattice) and E.norm2.is_polyhedral:
        rows = np.vstack([rows, E.norm2.vertices,
                          -np.array(E.norm2.vertices)])
    rows = rows[np.any(rows != 0.0, axis=1)]
    scalar = getattr(E, LATTICE_KERNELS[kernel])
    _assert_same_rows(getattr(E, kernel)(rows), [scalar(r) for r in rows],
                      name not in ("lp1.5", "lp3", "absolute-lp"))
    assert getattr(E, kernel)(np.zeros((0, E.dim))).shape[0] == 0
    with pytest.raises(DimensionError):
        getattr(E, kernel)(rows[:, :1])
    if kernel != "dual_norms":
        with pytest.raises(DegenerateInput):
            getattr(E, kernel)(np.vstack([rows[:2], np.zeros(E.dim)]))


# -- the batched operator-norm ascent against its per-start loop -----------


def _ascent_reference(op, starts=8, iterations=60):
    """The duality-mapping ascent one start at a time through the scalar
    methods, as it was before the starts were batched."""
    dom, cod = op.domain, op.codomain
    rng = np.random.default_rng(20240 + dom.dim * 131 + cod.dim)
    seeds = []
    for j in range(min(dom.dim, starts)):
        e = np.zeros(dom.dim)
        e[j] = 1.0
        seeds.append(e)
    while len(seeds) < starts:
        draw = rng.standard_normal(dom.dim)
        if dom.scalar_field == "complex":
            draw = draw + 1j * rng.standard_normal(dom.dim)
        seeds.append(draw)
    best_val = -1.0
    best_x = None
    for seed in seeds:
        if dom.norm(seed) == 0.0:
            continue
        x = dom.unit(seed)
        val = cod.norm(op.apply(x))
        for _ in range(iterations):
            y = op.apply(x)
            if cod.norm(y) == 0.0:
                break
            g = cod.norming_functional(y)
            phi = op.matrix.T @ g
            if dom.dual_norm(phi) == 0.0:
                break
            x_new = dom.attaining_vector(phi)
            new_val = cod.norm(op.apply(x_new))
            if new_val <= val * (1.0 + 1e-14):
                x, val = x_new, max(val, new_val)
                break
            x, val = x_new, new_val
        if val > best_val:
            best_val, best_x = val, x
    if best_x is None:
        best_x = dom.canonical_unit()
        best_val = cod.norm(op.apply(best_x))
    return OperatorNormResult(best_val, False, best_x, "ascent")


ASCENT_DOMAINS = {
    "lp1.5": LpSpace(3, 1.5), "lp3": LpSpace(3, 3.0),
    "lp-inf": LpSpace(3, math.inf),
    "lattice": LatticeSpace(LpLattice(3, 1.5)),
    "lattice-weighted": LatticeSpace(WeightedL1Lattice([1.0, 2.0, 0.5])),
    "plane-smooth": PlaneSpace(AbsoluteNorm2.lp(2.5)),
    "plane-table": PlaneSpace(TABLE),
    # two coordinates: six of the eight starts are complex draws
    "euclidean-complex": EuclideanSpace(2, "complex"),
    "direct-sum": DirectSumSpace(
        [EuclideanSpace(2), LpSpace(2, 3.0), PlaneSpace(TABLE)],
        LpLattice(3, 2.0)),
}
ASCENT_CODOMAINS = {
    "lp1": LpSpace(3, 1.0), "lp-inf": LpSpace(2, math.inf),
    "lp1.5": LpSpace(3, 1.5), "euclidean": EuclideanSpace(3),
    "euclidean-complex": EuclideanSpace(3, "complex"),
    "direct-sum": DirectSumSpace([EuclideanSpace(2), PlaneSpace(TABLE)],
                                 LpLattice(2, 3.0)),
}


def _ascent_pairs(codomains):
    """The (domain, codomain) names over ASCENT_DOMAINS and ``codomains``,
    less the complex-to-real pairs that ``Operator`` refuses."""
    return [(d, c) for d in sorted(ASCENT_DOMAINS) for c in codomains
            if (ASCENT_DOMAINS[d].scalar_field,
                ASCENT_CODOMAINS[c].scalar_field) != ("complex", "real")]


def _assert_same_ascent(op):
    want = _ascent_reference(op)
    got = spaces._ascent_operator_norm(op)
    assert (got.method, got.exact) == (want.method, want.exact)
    assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0)
    assert op.domain.norm(got.witness) == pytest.approx(1.0, abs=1e-12)
    assert op.codomain.norm(op.apply(got.witness)) == pytest.approx(
        got.value, rel=1e-12, abs=0.0)
    return got, want


@pytest.mark.parametrize("dom, cod", _ascent_pairs(sorted(ASCENT_CODOMAINS)))
def test_ascent_matches_per_start_loop(dom, cod):
    X, Y = ASCENT_DOMAINS[dom], ASCENT_CODOMAINS[cod]
    for seed in range(5):
        mat = np.random.default_rng(seed).standard_normal((Y.dim, X.dim))
        _assert_same_ascent(Operator(mat, X, Y))


@pytest.mark.parametrize(
    "dom, cod", _ascent_pairs(["lp1", "lp-inf", "euclidean-complex"]))
def test_ascent_starts_that_stop_at_once(dom, cod):
    X, Y = ASCENT_DOMAINS[dom], ASCENT_CODOMAINS[cod]
    # the zero operator stops every start at iteration 0, and the first
    # start wins
    got, want = _assert_same_ascent(Operator(np.zeros((Y.dim, X.dim)), X, Y))
    assert got.value == want.value == 0.0
    np.testing.assert_array_equal(got.witness, want.witness)
    # rank one with e_0 in the kernel: that start stops at iteration 0, the
    # others reach |u| |v|_* in one step
    u = np.linspace(1.0, -2.0, Y.dim)
    v = np.linspace(0.0, 1.5, X.dim)
    got, _ = _assert_same_ascent(Operator(np.outer(u, v), X, Y))
    assert got.value == pytest.approx(Y.norm(u) * X.dual_norm(v), rel=1e-12)


def test_ascent_complex_draws_into_a_real_codomain():
    # refused when built, below and above the ascent's eight starts: from
    # dimension 8 up every start is a real basis vector, so an ascent would
    # see real directions only
    for dom, cod in ((EuclideanSpace(2, "complex"), LpSpace(3, 1.0)),
                     (EuclideanSpace(9, "complex"), LpSpace(3, 3.0))):
        with pytest.raises(RangeError):
            Operator(np.ones((cod.dim, dom.dim)), dom, cod)


def test_ascent_uses_only_the_row_kernels():
    X, Y = ASCENT_DOMAINS["direct-sum"], ASCENT_CODOMAINS["direct-sum"]
    op = Operator(np.random.default_rng(4).standard_normal((Y.dim, X.dim)),
                  X, Y)
    want = _ascent_reference(op)
    with ExitStack() as stack:
        for space in (X, Y, *X.components, *Y.components):
            for name in ("norm", "dual_norm", "norming_functional",
                         "attaining_vector", "unit"):
                stack.enter_context(mock.patch.object(
                    space, name, side_effect=AssertionError(name)))
        got = spaces._ascent_operator_norm(op)
    assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0)


# -- the column folds against numpy's row reductions ------------------------


def _reference_lp_norms(mags, p):
    """``_lp_norms`` through numpy's ``max``/``sum(axis=1)``."""
    if p == math.inf:
        return mags.max(axis=1)
    if p == 1.0:
        return mags.sum(axis=1)
    m = mags.max(axis=1)
    scale = np.where(m == 0.0, 1.0, m)[:, None]
    return m * ((mags / scale) ** p).sum(axis=1) ** (1.0 / p)


def _fold_inputs(rows, cols):
    """Real ``(rows, cols)`` arrays over twenty decades, with zero, inf, NaN,
    subnormal and 1e300 entries sprinkled in, C-ordered, Fortran-ordered
    and as a strided view."""
    rng = np.random.default_rng(rows * 100 + cols)
    arr = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
        -10, 10, (rows, cols))
    special = rng.random((rows, cols)) < 0.15
    arr[special] = rng.choice([0.0, math.inf, -math.inf, math.nan, 5e-324,
                               -2.5e-310, 1e300, -1e300], special.sum())
    if rows >= 5:
        arr[0] = 0.0
        arr[1] = 1e300
        arr[2] = 5e-324
    wide = np.concatenate([arr, arr], axis=1)
    return [arr, np.asfortranarray(arr), wide[:, ::2]]


FOLD_SHAPES = [(rows, cols) for cols in range(1, 13)
               for rows in (0, 1, 5, 4097)]


@pytest.mark.parametrize("rows,cols", FOLD_SHAPES)
class TestRowFolds:
    def test_lp_norms_equal_numpy_reductions(self, rows, cols):
        with np.errstate(all="ignore"):
            for arr in _fold_inputs(rows, cols):
                mags = np.abs(arr)
                for p in (1.0, 1.5, 2.0, 3.0, 7.5, math.inf):
                    assert np.array_equal(_lp_norms(mags, p),
                                          _reference_lp_norms(mags, p),
                                          equal_nan=True), p

    def test_euclidean_norms_equal_linalg_norm(self, rows, cols):
        space = EuclideanSpace(cols)
        with np.errstate(all="ignore"):
            for arr in _fold_inputs(rows, cols):
                assert np.array_equal(space.norms(arr),
                                      np.linalg.norm(arr, axis=1),
                                      equal_nan=True)

    def test_euclidean_kernels_equal_linalg_norm_formula(self, rows, cols):
        space = EuclideanSpace(cols)
        with np.errstate(all="ignore"):
            arr = _fold_inputs(rows, cols)[0]
            # zero rows excepted: the kernels refuse them
            arr = arr[np.linalg.norm(arr, axis=1) != 0.0]
            for x in (arr, np.asfortranarray(arr),
                      np.repeat(arr, 2, axis=1)[:, ::2]):
                want = np.conj(x) / np.linalg.norm(x, axis=1)[:, None]
                for kernel in (space.norming_functionals,
                               space.attaining_vectors):
                    assert np.array_equal(kernel(x), want, equal_nan=True)

    def test_folds_equal_numpy_and_own_their_memory(self, rows, cols):
        with np.errstate(all="ignore"):
            for arr in _fold_inputs(rows, cols):
                mags = np.abs(arr)
                got_max = _row_reduce(np.maximum, mags)
                got_sum = _row_reduce(np.add, mags)
                assert np.array_equal(got_max, mags.max(axis=1),
                                      equal_nan=True)
                assert np.array_equal(got_sum, mags.sum(axis=1),
                                      equal_nan=True)
                for got in (got_max, got_sum, _lp_norms(mags, 1.0),
                            _lp_norms(mags, math.inf)):
                    assert not np.shares_memory(got, mags)


def _per_row_convexity(space, eps, resolution):
    """The estimator one sampled pair at a time through the scalar norm."""
    dim = space.dim
    best = 1.0
    for row in _sample_directions(2 * dim, resolution):
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


def _full_bisection_convexity(space, eps, resolution):
    """The batched estimator with all 80 bisection steps, no early exit."""
    dim = space.dim
    dirs = _sample_directions(2 * dim, resolution)
    a, b = dirs[:, :dim], dirs[:, dim:]
    na, nb = space.norms(a), space.norms(b)
    keep = (na != 0.0) & (nb != 0.0)
    x = np.concatenate([a[keep] / na[keep, None]] * 2)
    y0 = b[keep] / nb[keep, None]
    target = np.concatenate([y0, -y0])
    far = space.norms(x - target) >= eps
    x, target = x[far], target[far]
    lo, hi = np.zeros(len(x)), np.ones(len(x))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        cand = (1.0 - mid)[:, None] * x + mid[:, None] * target
        ncand = space.norms(cand)
        zero = ncand == 0.0
        cand = cand / np.where(zero, 1.0, ncand)[:, None]
        short = ~zero & (space.norms(x - cand) < eps)
        lo = np.where(short, mid, lo)
        hi = np.where(short, hi, mid)
    cand = (1.0 - hi)[:, None] * x + hi[:, None] * target
    ncand = space.norms(cand)
    nonzero = ncand != 0.0
    x, y = x[nonzero], cand[nonzero] / ncand[nonzero, None]
    valid = space.norms(x - y) >= eps * (1.0 - 1e-9)
    depth = 1.0 - space.norms((x[valid] + y[valid]) / 2.0)
    return max(float(depth.min(initial=1.0)), 0.0)


class _NormRecorder:
    """A space's ``norms``, keeping a copy of every row array it gets."""

    def __init__(self, space):
        self.dim, self._space, self.calls = space.dim, space, []

    def norms(self, rows):
        self.calls.append(np.array(rows))
        return self._space.norms(rows)


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

    # values of the estimator on its Kronecker directions
    @pytest.mark.parametrize("space,eps,resolution,value", [
        (PlaneSpace(TABLE), 1.4, 200, 0.0487551268654679),
        (LatticeSpace(LpLattice(3, 3.0)), 0.9, 200, 0.0314551598090203),
        (LpSpace(2, 2.55), 0.6, 400, 0.0184659172099563),
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

    @pytest.mark.parametrize("name", sorted(SPACES))
    @pytest.mark.parametrize("eps", [0.05, 0.4, 0.9, 1.3, 1.8, 2.0])
    def test_fixed_point_exit_is_bit_identical(self, name, eps):
        got, want = _NormRecorder(SPACES[name]), _NormRecorder(SPACES[name])
        value = _brute_force_convexity(got, eps, 60)
        assert value == _full_bisection_convexity(want, eps, 60)
        # the rows after the bisection, not only their smallest depth
        for rows, ref in zip(got.calls[-3:], want.calls[-3:]):
            assert np.array_equal(rows, ref)

    def test_stops_at_the_fixed_point(self):
        class CountingRows(EuclideanSpace):
            calls = 0

            def norm(self, x):
                raise AssertionError("scalar norm called")

            def norms(self, rows):
                self.calls += 1
                return super().norms(rows)

        space = CountingRows(3)
        got = convexity_modulus(space, 0.8, method="brute_force",
                                resolution=200)
        # 6 calls outside the bisection and 2 per step: all 80 steps would
        # make 166
        assert space.calls <= 126
        assert got == _full_bisection_convexity(EuclideanSpace(3), 0.8, 200)


@st.composite
def _tables(draw):
    """A three-node table generator; any psi(u) in [max(u, 1-u), 1] keeps it
    convex."""
    u = draw(st.floats(0.1, 0.9))
    psi = draw(st.floats(max(u, 1.0 - u), 1.0))
    return AbsoluteNorm2.from_table([(0.0, 1.0), (u, psi), (1.0, 1.0)])


_WEIGHTS = st.floats(0.1, 10.0)


def _leaf_spaces(dims):
    return st.one_of(
        st.one_of(st.sampled_from([AbsoluteNorm2.lp(1.0),
                                   AbsoluteNorm2.lp(math.inf)]),
                  _tables()).map(PlaneSpace),
        st.builds(LpSpace, dims, st.sampled_from([1.0, math.inf])),
        st.builds(LpSpace, dims, st.floats(1.2, 4.0)),
        st.builds(EuclideanSpace, dims),
        # from 8 weights, matmul rounds a row by its place in the call
        st.lists(_WEIGHTS, min_size=2, max_size=10)
        .map(lambda w: LatticeSpace(WeightedL1Lattice(w))),
        _tables().map(lambda f: LatticeSpace(Absolute2Lattice(f))))


@st.composite
def _direct_sums(draw):
    comps = draw(st.lists(_leaf_spaces(st.integers(1, 2)), min_size=2,
                          max_size=3))
    m = len(comps)
    combiner = draw(st.one_of(
        st.sampled_from([1.0, 2.5, math.inf]).map(lambda p: LpLattice(m, p)),
        st.lists(_WEIGHTS, min_size=m, max_size=m).map(WeightedL1Lattice)))
    return DirectSumSpace(comps, combiner)


# polyhedral planes, lp(1), lp(inf), smooth lp and euclidean, weighted and
# table lattices, and direct sums of them
ESTIMATOR_SPACES = st.one_of(_leaf_spaces(st.integers(2, 4)), _direct_sums())


@settings(max_examples=60, deadline=None)
@given(space=ESTIMATOR_SPACES,
       eps=st.one_of(st.just(2.0), st.just(1.99),
                     st.floats(0.0, 2.0, exclude_min=True)),
       resolution=st.integers(8, 120))
def test_estimator_is_bit_identical_to_the_full_bisection(space, eps,
                                                          resolution):
    got, want = _NormRecorder(space), _NormRecorder(space)
    value = _brute_force_convexity(got, eps, resolution)
    assert value == _full_bisection_convexity(want, eps, resolution)
    for rows, ref in zip(got.calls[-3:], want.calls[-3:]):
        assert np.array_equal(rows, ref)


def _estimator_paths(space, resolution):
    """The endpoints ``x`` and targets of every path the estimator walks."""
    dirs = _sample_directions(2 * space.dim, resolution)
    a, b = dirs[:, :space.dim], dirs[:, space.dim:]
    na, nb = space.norms(a), space.norms(b)
    keep = (na != 0.0) & (nb != 0.0)
    y0 = b[keep] / nb[keep, None]
    return (np.concatenate([a[keep] / na[keep, None]] * 2),
            np.concatenate([y0, -y0]))


@settings(max_examples=60, deadline=None)
@given(space=ESTIMATOR_SPACES, resolution=st.integers(2, 30),
       centre=st.floats(0.0, 1.0),
       step=st.sampled_from([1e-16, 1e-15, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3]))
def test_computed_chord_never_falls_by_half_the_margin(space, resolution,
                                                      centre, step):
    # the exact chord never falls along a path (the monotonicity lemma);
    # the jumps of the estimator need the computed one to fall by < M/2
    x, target = _estimator_paths(space, resolution)
    t = np.unique(np.clip(centre + step * np.arange(-32.0, 33.0), 0.0, 1.0))
    rows = (np.repeat(x, len(t), axis=0), np.repeat(target, len(t), axis=0),
            np.tile(t, len(x)))
    # the estimator's flanks come from calls that group rows otherwise
    chords = _chords(space, *rows).reshape(len(x), len(t))
    regrouped = _chords(space, *(v[::-1] for v in rows))[::-1]
    regrouped = regrouped.reshape(len(x), len(t))
    high = np.fmax.accumulate(np.fmax(chords, regrouped), axis=1)
    fall = (high - np.fmin(chords, regrouped))[~np.isnan(chords)]
    assert fall.max(initial=0.0) <= _CHORD_MARGIN / 2.0


def test_certified_jumps_save_norms_calls():
    class CountingRows(EuclideanSpace):
        calls = 0

        def norms(self, rows):
            self.calls += 1
            return super().norms(rows)

    space = CountingRows(3)
    got = convexity_modulus(space, 0.8, method="brute_force", resolution=200)
    # the fixed-point exit of the plain bisection makes 116 calls
    assert space.calls <= 54
    assert got == _full_bisection_convexity(EuclideanSpace(3), 0.8, 200)


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


# -- boundary_completion memo ----------------------------------------------


def _completion_reference(n, r, s, which):
    """``boundary_completion`` without the memo: the 60-step bisection on
    every call (the sphere check is left to the code under test)."""
    m = n if which == "second_coord" else n.swapped()
    sign_src = r if which == "second_coord" else s
    if m.value((1.0, 1.0)) <= 1.0 + 1e-13:
        t = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if m.value((mid, 1.0)) <= 1.0 + 1e-13:
                lo = mid
            else:
                hi = mid
        t = lo
    return math.copysign(t, sign_src) if sign_src != 0.0 else t


COMPLETION_GENERATORS = {
    **{f"lp{p}": (lambda p=p: AbsoluteNorm2.lp(p))
       for p in (1.0, 1.5, 2.0, 3.0, math.inf)},
    "table": lambda: AbsoluteNorm2.from_table(TABLE.nodes),
    "random-table": lambda: _random_table(11),
}


def _sphere_pairs(n):
    """Unit pairs of all four sign patterns, the axis points (a zero
    coordinate) included."""
    out = []
    for u in np.linspace(0.0, 1.0, 9):
        a, b = n.sphere_point(float(u))
        for sa in (1.0, -1.0):
            for sb in (1.0, -1.0):
                out.append((sa * float(a), sb * float(b)))
    return out


class TestBoundaryCompletionMemo:
    @pytest.mark.parametrize("name", sorted(COMPLETION_GENERATORS))
    @pytest.mark.parametrize("which", ["second_coord", "first_coord"])
    def test_bit_identical_to_unmemoised_bisection(self, name, which):
        n = COMPLETION_GENERATORS[name]()
        pairs = _sphere_pairs(n)
        assert any(r == 0.0 for r, _ in pairs) and any(s == 0.0 for _, s in pairs)
        for _ in range(2):  # cold, then from the filled memo
            for r, s in pairs:
                got = boundary_completion(n, r, s, which)
                want = _completion_reference(n, r, s, which)
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("name", sorted(COMPLETION_GENERATORS))
    def test_one_bisection_per_axis(self, name):
        n = COMPLETION_GENERATORS[name]()
        with mock.patch.object(absolute, "_completion_bisection",
                               wraps=absolute._completion_bisection) as spy:
            for r, s in _sphere_pairs(n):
                for which in ("second_coord", "first_coord"):
                    boundary_completion(n, r, s, which)
        assert spy.call_count == 2

    @pytest.mark.parametrize("name", sorted(COMPLETION_GENERATORS))
    def test_filled_memo_still_checks_the_sphere(self, name):
        n = COMPLETION_GENERATORS[name]()
        a, b = n.sphere_point(0.3)
        for which in ("second_coord", "first_coord"):
            boundary_completion(n, float(a), float(b), which)
            for r, s in ((0.5 * a, 0.5 * b), (2.0 * a, b), (0.0, 0.0)):
                with pytest.raises(NotOnSphere):
                    boundary_completion(n, float(r), float(s), which)


# -- witness pipelines on row arrays ----------------------------------------


def _verify_per_point(series, witness):
    """``verify_ahsp_witness`` as a per-point loop of scalar calls."""
    space, eps = witness.space, witness.epsilon
    w = series.weights
    mass = float(sum(w[k] for k in witness.indices))
    unit_dev = 0.0
    face_dev = 0.0
    dist_max = 0.0
    for k, z in zip(witness.indices, witness.points):
        zv = space.coerce(z)
        unit_dev = max(unit_dev, abs(space.norm(zv) - 1.0))
        face_dev = max(face_dev,
                       abs(np.real(space.pairing(witness.functional, zv)) - 1.0))
        dist_max = max(dist_max, space.norm(zv - space.coerce(series.payload[k])))
    return [
        check("witness-mass", mass, ">", 1.0 - eps),
        check("witness-distance", dist_max, "<", eps),
        check("witness-point-unit", unit_dev, "<=", 0.0, tol=TOL_SPHERE),
        check("witness-face-value", face_dev, "<=", 0.0, tol=TOL_SPHERE),
        check("witness-functional-unit",
              abs(space.dual_norm(witness.functional) - 1.0), "<=", 0.0,
              tol=TOL_SPHERE),
    ]


UNIT_COORD = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                       allow_subnormal=False)


def _unit_rows(data, space, n):
    """``n`` unit rows built from drawn coordinates (a zero draw becomes the
    canonical unit)."""
    rows = np.array(data.draw(st.lists(UNIT_COORD, min_size=n * space.dim,
                                       max_size=n * space.dim)),
                    dtype=float).reshape(n, space.dim).astype(space.dtype)
    if space.scalar_field == "complex":
        rows = rows + 1j * np.array(data.draw(st.lists(
            UNIT_COORD, min_size=n * space.dim, max_size=n * space.dim))
        ).reshape(n, space.dim)
    out = []
    for r in rows:
        out.append(space.unit(r) if space.norm(r) > 0.0
                   else space.canonical_unit())
    return np.array(out, dtype=space.dtype).reshape(n, space.dim)


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verify_matches_per_point_loop(name, data):
    space = SPACES[name]
    n = data.draw(st.integers(1, 6))
    payload = _unit_rows(data, space, n)
    weights = np.array(data.draw(st.lists(
        st.floats(0.01, 1.0), min_size=n, max_size=n)))
    series = ConvexSeries(weights / weights.sum(), payload, strict=False)
    indices = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    # each witness point is its series point, a point moved toward another
    # unit row, or an unnormalised draw
    moved = _unit_rows(data, space, len(indices))
    points = []
    for j, k in enumerate(indices):
        how = data.draw(st.sampled_from(["same", "near", "far"]))
        if how == "same":
            points.append(payload[k].copy())
        elif how == "near":
            points.append(space.unit(payload[k] + 0.05 * moved[j])
                          if space.norm(payload[k] + 0.05 * moved[j]) > 0.0
                          else payload[k].copy())
        else:
            points.append(2.0 * moved[j])
    functional = (space.norming_functional(payload[indices[0]]) if indices
                  and data.draw(st.booleans())
                  else space.norming_functional(space.canonical_unit()))
    functional = functional * data.draw(st.sampled_from([1.0, 1.0, 1.5]))
    eps = data.draw(st.sampled_from([0.05, 0.3, 0.9]))
    witness = AhspWitness(space, indices, tuple(points), functional, eps)
    got = verify_ahsp_witness(series, witness)
    want = _verify_per_point(series, witness)
    assert [c.name for c in got] == [c.name for c in want]
    assert [c.passed for c in got] == [c.passed for c in want]
    # the lhs values are deviations from and distances between points of
    # norm at most 2, so they are compared on that unit scale
    np.testing.assert_allclose([c.lhs for c in got], [c.lhs for c in want],
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_verify_empty_index_set(name):
    space = SPACES[name]
    payload = np.array([space.canonical_unit()])
    series = ConvexSeries([1.0], payload)
    f = space.norming_functional(space.canonical_unit())
    witness = AhspWitness(space, (), (), f, 0.3)
    got = verify_ahsp_witness(series, witness)
    assert got == _verify_per_point(series, witness)
    assert [c.lhs for c in got[1:4]] == [0.0, 0.0, 0.0]


SUMS = {name: space for name, space in SPACES.items()
        if isinstance(space, DirectSumSpace)}
SUMS["euclidean-sum"] = DirectSumSpace(
    [EuclideanSpace(2), EuclideanSpace(1), EuclideanSpace(3)], LpLattice(3, 1.0))


@pytest.mark.parametrize("name", sorted(SUMS))
class TestProfiles:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_match_per_row_profile(self, name, data):
        Z = SUMS[name]
        rows = _rows(data, Z)
        want = np.array([Z.profile(r) for r in rows]).reshape(
            len(rows), len(Z.components))
        got = Z.profiles(rows)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_empty_input(self, name):
        Z = SUMS[name]
        assert Z.profiles(np.zeros((0, Z.dim))).shape == (0, len(Z.components))

    def test_norms_combine_the_profiles(self, name):
        Z = SUMS[name]
        rows = np.random.default_rng(3).standard_normal((20, Z.dim))
        np.testing.assert_array_equal(Z.norms(rows),
                                      Z.combiner.norms(Z.profiles(rows)))


# under a sup-type combiner a zero block keeps a positive coefficient in
# the dual-attaining vector, so its canonical unit shows in the result
ZERO_BLOCK_SUMS = {
    **SUMS,
    "sup-sum": DirectSumSpace([EuclideanSpace(2), LpSpace(2, 1.5),
                               PlaneSpace(TABLE)], LpLattice(3, math.inf)),
    "linf-plane-sum": DirectSumSpace(
        [LpSpace(2, 3.0), EuclideanSpace(1)],
        Absolute2Lattice(AbsoluteNorm2.lp(math.inf))),
}


@pytest.mark.parametrize("name", sorted(ZERO_BLOCK_SUMS))
def test_direct_sum_zero_blocks(name):
    # a zero block is zero in the norming functional and the canonical unit
    # in the attaining vector, in the row kernels and the one-vector methods
    Z = ZERO_BLOCK_SUMS[name]
    rows = np.tile(np.linspace(-1.0, 2.0, Z.dim), (len(Z.components), 1))
    spans = list(zip(Z.offsets[:-1], Z.offsets[1:]))
    for i, (lo, hi) in enumerate(spans):
        rows[i, lo:hi] = 0.0
    for kernel, scalar in DUAL_KERNELS.items():
        _assert_same_rows(getattr(Z, kernel)(rows),
                          [getattr(Z, scalar)(r) for r in rows], False)
    funcs = Z.norming_functionals(rows)
    for i, (lo, hi) in enumerate(spans):
        np.testing.assert_array_equal(funcs[i, lo:hi], 0.0)


def _witness_ball_per_point(oracle, points, functional, epsilon):
    """``_FaceOracle.witness_ball`` as a per-point loop of scalar calls."""
    space = oracle.space
    w_star = space.coerce(functional)
    if abs(space.dual_norm(w_star) - 1.0) > TOL_SPHERE:
        raise RangeError("witness_ball requires a unit functional")
    bar = 1.0 - oracle.eta_ball(epsilon)
    out = []
    for j, p in enumerate(points):
        pv = space.coerce(p)
        val = float(np.real(space.pairing(w_star, pv)))
        if not val > bar - 1e-12:
            raise HypothesisError(
                f"point {j}: Re w*(p) = {val} is not above {bar}")
        z = oracle.face_point(w_star, pv)
        d = space.norm(pv - z)
        if not d < epsilon + 1e-12:
            raise OracleViolation(
                f"point {j}: face distance {d} is not below {epsilon}")
        out.append(z)
    return tuple(range(len(points))), out, w_star


BALL_SPACES = {
    "euclidean": EuclideanSpace(3),
    "euclidean-complex": EuclideanSpace(2, "complex"),
    "lp3": LpSpace(3, 3.0),
    "plane-lp": PlaneSpace(AbsoluteNorm2.lp(2.5)),
    "plane-table": PlaneSpace(TABLE),
    "plane-l1": PlaneSpace(AbsoluteNorm2.lp(1.0)),
    "plane-linf": PlaneSpace(AbsoluteNorm2.lp(math.inf)),
}


def _outcome(fn):
    try:
        return fn()
    except (HypothesisError, OracleViolation) as exc:
        return type(exc), str(exc).split(":")[0]


@pytest.mark.parametrize("name", sorted(BALL_SPACES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_witness_ball_matches_per_point_loop(name, data):
    space = BALL_SPACES[name]
    oracle = ahsp_oracle_for(space)
    n = data.draw(st.integers(0, 6))
    w_star = space.norming_functional(_unit_rows(data, space, 1)[0])
    base = space.attaining_vector(w_star)
    # points near the face, moved by a drawn scale: small moves keep the
    # hypothesis, larger ones break it or the distance bound
    noise = _unit_rows(data, space, n)
    scales = data.draw(st.lists(st.sampled_from([0.0, 1e-3, 0.05, 0.4, 1.5]),
                                min_size=n, max_size=n))
    points = [base + t * v for t, v in zip(scales, noise)]
    eps = data.draw(st.sampled_from([0.1, 0.3]))
    got = _outcome(lambda: oracle.witness_ball([1.0] * n, points, w_star, eps))
    want = _outcome(lambda: _witness_ball_per_point(oracle, points, w_star,
                                                    eps))
    if isinstance(want[0], type):
        assert got == want
        return
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got[2], want[2])
