"""Coercion of vectors and row arrays, and the real Euclidean norm.

``NormedSpace.coerce`` returns early on an ``np.ndarray`` that already has
the dtype and shape.  These tests pin that the early return gives what the
general path gives (the reference functions below are that path), that
``coerce_rows`` keeps the memory order and copies, and that the general
path still accepts and rejects what it did.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbkit.absolute import AbsoluteNorm2
from bpbkit.errors import DimensionError, RangeError
from bpbkit.lattices import LpLattice, WeightedL1Lattice
from bpbkit.spaces import (DirectSumSpace, EuclideanSpace, LatticeSpace,
                           LpSpace, PlaneSpace)

SPACES = [
    EuclideanSpace(3),
    EuclideanSpace(2, "complex"),
    LpSpace(1, 3.0),
    LpSpace(4, 1.0),
    PlaneSpace(AbsoluteNorm2.lp(1.5)),
    LatticeSpace(WeightedL1Lattice([1.0, 2.0, 0.5])),
    DirectSumSpace([EuclideanSpace(2), LpSpace(3, 4.0)], LpLattice(2, 1.0)),
]
LAYOUTS = ("C", "F", "strided", "reversed", "readonly")


def general_coerce(space, x):
    arr = np.asarray(x)
    if arr.shape == ():
        arr = arr.reshape(1)
    arr = arr.reshape(-1)
    if arr.size != space.dim:
        raise DimensionError("length")
    if space.scalar_field == "real" and np.iscomplexobj(arr):
        if np.any(arr.imag != 0.0):
            raise RangeError("complex")
        arr = arr.real
    return arr.astype(space.dtype)


def general_coerce_rows(space, rows):
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] != space.dim:
        raise DimensionError("shape")
    if space.scalar_field == "real" and np.iscomplexobj(arr):
        if np.any(arr.imag != 0.0):
            raise RangeError("complex")
        arr = arr.real
    return arr.astype(space.dtype)


def laid_out(base: np.ndarray, layout: str) -> np.ndarray:
    """``base`` (values and shape) in the given memory layout."""
    if layout == "F":
        return np.asfortranarray(base)
    if layout == "strided":
        wide = np.zeros(base.shape[:-1] + (2 * base.shape[-1],), base.dtype)
        wide[..., ::2] = base
        return wide[..., ::2]
    if layout == "reversed":
        return np.ascontiguousarray(base[..., ::-1])[..., ::-1]
    out = np.ascontiguousarray(base)
    if layout == "readonly":
        out.flags.writeable = False
    return out


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def draw_array(draw, dtype, shape) -> np.ndarray:
    n = int(np.prod(shape))
    re = np.array(draw(st.lists(finite, min_size=n, max_size=n)), dtype=float)
    if dtype == np.complex128:
        im = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
        return (re + 1j * im).reshape(shape)
    return re.reshape(shape)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert type(got) is np.ndarray
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    # memory order: the strides of every axis longer than one
    assert ([s for s, n in zip(got.strides, got.shape) if n > 1]
            == [s for s, n in zip(want.strides, want.shape) if n > 1])
    assert got.tobytes(order="A") == want.tobytes(order="A")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), space=st.sampled_from(SPACES),
       layout=st.sampled_from(LAYOUTS))
def test_early_coerce_is_the_general_path(data, space, layout):
    x = laid_out(draw_array(data.draw, space.dtype, (space.dim,)), layout)
    got = space.coerce(x)
    assert_same_array(got, general_coerce(space, x))
    assert got.flags.writeable
    assert not np.shares_memory(got, x)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), space=st.sampled_from(SPACES),
       layout=st.sampled_from(LAYOUTS), n=st.integers(0, 5))
def test_coerce_rows_keeps_order_and_copies(data, space, layout, n):
    rows = laid_out(draw_array(data.draw, space.dtype, (n, space.dim)),
                    layout)
    got = space.coerce_rows(rows)
    assert_same_array(got, general_coerce_rows(space, rows))
    assert got.flags.writeable
    assert not np.shares_memory(got, rows)


def test_fortran_rows_keep_their_order():
    # row sums of a C- and an F-ordered copy differ in the last bit on
    # some rows, so coercion must not change the order
    rows = np.asfortranarray(
        np.random.default_rng(0).standard_normal((1000, 16)))
    space = EuclideanSpace(16)
    assert space.coerce_rows(rows).flags.f_contiguous
    assert LpLattice(16, 1.0)._coerce_rows(rows).flags.f_contiguous


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_general_path_still_accepts(space):
    dim, dtype = space.dim, space.dtype
    want = np.arange(1, dim + 1, dtype=dtype)
    for x in (list(range(1, dim + 1)), np.arange(1, dim + 1),
              np.arange(1, dim + 1).reshape(1, dim),
              np.arange(1, dim + 1, dtype=np.float32),
              np.arange(1, dim + 1) + 0j):
        got = space.coerce(x)
        assert got.dtype == dtype and got.shape == (dim,)
        np.testing.assert_array_equal(got, want)
        assert_same_array(got, general_coerce(space, x))
    rows = [list(range(1, dim + 1))] * 2
    for r in (rows, np.array(rows), np.array(rows) + 0j):
        got = space.coerce_rows(r)
        assert_same_array(got, general_coerce_rows(space, r))
        np.testing.assert_array_equal(got, np.stack([want, want]))


def test_zero_dimensional_input():
    space = LpSpace(1, 2.0)
    for x in (2.5, np.float64(2.5), np.array(2.5), np.array([2.5])):
        got = space.coerce(x)
        assert got.shape == (1,) and got.dtype == np.float64
        assert got[0] == 2.5
    assert LpLattice(1, 2.0)._coerce(np.array(2.5)).shape == (1,)


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_general_path_still_rejects(space):
    dim, dtype = space.dim, space.dtype
    for bad in (np.zeros(dim + 1, dtype), np.zeros((2, dim), dtype),
                [0.0] * (dim + 1)):
        with pytest.raises(DimensionError):
            space.coerce(bad)
    for bad in (np.zeros(dim, dtype), np.zeros((2, dim + 1), dtype),
                np.zeros((1, 2, dim), dtype)):
        with pytest.raises(DimensionError):
            space.coerce_rows(bad)
    if space.scalar_field == "real":
        with pytest.raises(RangeError):
            space.coerce(np.full(dim, 1.0 + 1e-300j))
        with pytest.raises(RangeError):
            space.coerce_rows(np.full((2, dim), 1.0 + 1e-300j))
    else:
        # complex input keeps its imaginary part on a complex space
        x = np.full(dim, 1.0 + 2.0j)
        np.testing.assert_array_equal(space.coerce(x), x)


def test_lattice_general_path_still_rejects():
    lat = LpLattice(3, 2.0)
    with pytest.raises(DimensionError):
        lat._coerce(np.zeros(4))
    with pytest.raises(DimensionError):
        lat._coerce_rows(np.zeros(3))
    with pytest.raises(DimensionError):
        lat._coerce_rows(np.zeros((2, 4)))


# magnitudes from subnormal to near-overflow, and past it (inf in both)
scaled = st.builds(lambda m, e: m * 2.0 ** e,
                   st.floats(-2.0, 2.0, allow_nan=False),
                   st.integers(-1074, 1023))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(finite, scaled), min_size=1, max_size=6),
       imag=st.lists(st.one_of(finite, scaled), min_size=6, max_size=6))
@np.errstate(over="ignore")
def test_euclidean_norm_is_linalg_norm_bit_for_bit(values, imag):
    x = np.array(values)
    got = EuclideanSpace(len(x)).norm(x)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.linalg.norm(x).tobytes()
    z = x + 1j * np.array(imag[:len(x)])
    got = EuclideanSpace(len(x), "complex").norm(z)
    assert np.float64(got).tobytes() == np.linalg.norm(z).tobytes()


@pytest.mark.parametrize("dim", range(2, 17))
def test_euclidean_norm_of_normal_vectors_is_linalg_norm_bit_for_bit(dim):
    # seeded ordinary vectors, where a row fold's summation order rounds
    # differently from np.linalg.norm's on hundreds of them per length
    rng = np.random.default_rng(0)
    real = rng.standard_normal((2000, dim))
    cplx = rng.standard_normal((2000, dim)) + 1j * rng.standard_normal(
        (2000, dim))
    for field, rows in (("real", real), ("complex", cplx)):
        space = EuclideanSpace(dim, field)
        got = np.array([space.norm(x) for x in rows])
        want = np.array([np.linalg.norm(x) for x in rows])
        assert got.tobytes() == want.tobytes(), field


@pytest.mark.parametrize("x", [[5e-324], [5e-324, -5e-324, 1e-310],
                               [1e-160, 1e-160], [1e200, 1e200],
                               [1.7e308, 1.0], [-3.0, 4.0], [0.0, -0.0]])
@np.errstate(over="ignore")
def test_euclidean_norm_extremes(x):
    arr = np.array(x)
    assert (np.float64(EuclideanSpace(len(x)).norm(arr)).tobytes()
            == np.linalg.norm(arr).tobytes())
    assert (np.float64(EuclideanSpace(len(x)).norm(list(x))).tobytes()
            == np.linalg.norm(arr).tobytes())
