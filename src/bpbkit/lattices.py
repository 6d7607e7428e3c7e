"""Finite sequence lattices: R^n with an absolute (1-unconditional) norm.

These serve two roles: as coordinate spaces in their own right, and as the
*combiner* of a direct sum, where the norm of a tuple of blocks is the lattice
norm of the tuple of block norms.  Everything here is exact: duals, supporting
functionals, and dual-attaining vectors come from closed forms or vertex
enumeration, never from iterative optimization.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .absolute import AbsoluteNorm2, _p_values, dual_exponent
from .errors import DegenerateInput, DimensionError, RangeError
from .util import json_int


def _one_hot(dim: int, cols: np.ndarray, values) -> np.ndarray:
    """``len(cols)`` rows of zeros with ``values[i]`` in column ``cols[i]``
    of row i."""
    out = np.zeros((len(cols), dim))
    out[np.arange(len(cols)), cols] = values
    return out


# Rows at least this wide keep numpy's reductions: numpy sums them pairwise,
# which a column fold does not match bit for bit, and a fold over many
# columns costs more calls than it saves.  Narrower rows numpy reduces one
# value at a time, left to right, like the fold.
_FOLD_COLUMNS = 8


def _row_reduce(op: np.ufunc, arr: np.ndarray) -> np.ndarray:
    """``op.reduce(arr, axis=1)``, for ``op`` ``np.maximum`` or ``np.add``, on
    a real ``(n, dim)`` array of nonnegative entries (magnitudes, powers or
    squares).

    Narrow rows fold column by column, one ``op`` call over all rows at a
    time: the same bits, without numpy's per-row cost of a reduction along a
    short last axis.  (Only a row of negative zeros would differ: numpy's sum
    starts from +0.0.)  The result never shares memory with ``arr``."""
    k = arr.shape[1]
    if k >= _FOLD_COLUMNS:
        return op.reduce(arr, axis=1)
    if k == 1:
        return arr[:, 0].copy()
    out = op(arr[:, 0], arr[:, 1])
    for j in range(2, k):
        out = op(out, arr[:, j])
    return out


def _lp_norms(mags: np.ndarray, p: float) -> np.ndarray:
    """The p-norms of the rows of an ``(n, dim)`` array of magnitudes.

    The row maxima and sums are :func:`_row_reduce` folds, bit-identical to
    ``max``/``sum(axis=1)``."""
    if p == math.inf:
        return _row_reduce(np.maximum, mags)
    if p == 1.0:
        return _row_reduce(np.add, mags)
    m = _row_reduce(np.maximum, mags)
    scale = np.where(m == 0.0, 1.0, m)[:, None]
    return m * _row_reduce(np.add, (mags / scale) ** p) ** (1.0 / p)


class FiniteLattice(ABC):
    """A norm on R^n with ``norm(x) = norm(|x|)``, monotone on the cone."""

    dim: int

    def _coerce(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float).reshape(-1)
        if arr.size != self.dim:
            raise DimensionError(
                f"expected a vector of length {self.dim}, got {arr.size}")
        return arr

    def _coerce_rows(self, rows) -> np.ndarray:
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise DimensionError(
                f"expected an (n, {self.dim}) array, got shape {arr.shape}")
        return arr

    @abstractmethod
    def norm_of(self, x) -> float:
        ...

    @abstractmethod
    def norms(self, rows) -> np.ndarray:
        """The norms of the rows of an ``(n, dim)`` array, in one pass."""

    @abstractmethod
    def dual_norm_of(self, c) -> float:
        """Norm of the functional x -> sum_i c_i x_i."""

    @abstractmethod
    def dual_norms(self, rows) -> np.ndarray:
        """:meth:`dual_norm_of` of every row of an ``(n, dim)`` array."""

    # The two tie-rule operations have one kernel each, on the rows of an
    # ``(n, dim)`` array; the one-vector methods are one-row views of them,
    # written out in each class body.

    @abstractmethod
    def normings(self, rows) -> np.ndarray:
        """For every row x, a functional c of dual norm one with
        <c, x> = norm(x).

        Deterministic: when the supporting functional is not unique, the
        lexicographically smallest extreme point of the nonnegative section
        of the dual face wins (free coordinates are never driven negative).
        Nonnegative on a nonnegative row.  A zero row raises
        :class:`DegenerateInput`.
        """

    @abstractmethod
    def dual_attaining_vectors(self, rows) -> np.ndarray:
        """For every row c, a nonnegative unit vector u with
        <|c|, u> = dual_norm(c).  A zero row raises
        :class:`DegenerateInput`."""

    @abstractmethod
    def norming_of(self, x) -> np.ndarray:
        """:meth:`normings` of one vector."""

    @abstractmethod
    def dual_attaining_vector(self, c) -> np.ndarray:
        """:meth:`dual_attaining_vectors` of one vector."""

    @abstractmethod
    def to_params(self) -> dict:
        ...

    def unit(self, x) -> np.ndarray:
        arr = self._coerce(x)
        n = self.norm_of(arr)
        if n == 0.0:
            raise DegenerateInput("cannot normalize the zero vector")
        return arr / n


class LpLattice(FiniteLattice):
    """R^n with the p-norm, 1 <= p <= inf."""

    def __init__(self, dim: int, p: float):
        if dim < 1:
            raise DimensionError(f"dimension must be positive, got {dim}")
        if not p >= 1.0:
            raise RangeError(f"exponent must satisfy p >= 1, got {p}")
        self.dim = int(dim)
        self.p = float(p)
        self._q = dual_exponent(self.p)

    def norm_of(self, x) -> float:
        arr = np.abs(self._coerce(x))
        if self.p == math.inf:
            return float(arr.max())
        if self.p == 1.0:
            return float(arr.sum())
        m = float(arr.max())
        if m == 0.0:
            return 0.0
        return m * float(((arr / m) ** self.p).sum()) ** (1.0 / self.p)

    def norms(self, rows) -> np.ndarray:
        return _lp_norms(np.abs(self._coerce_rows(rows)), self.p)

    def dual_norm_of(self, c) -> float:
        return LpLattice(self.dim, self._q).norm_of(c)

    def dual_norms(self, rows) -> np.ndarray:
        return _lp_norms(np.abs(self._coerce_rows(rows)), self._q)

    def norming_of(self, x) -> np.ndarray:
        return self.normings(self._coerce(x)[None])[0]

    def dual_attaining_vector(self, c) -> np.ndarray:
        return self.dual_attaining_vectors(self._coerce(c)[None])[0]

    def normings(self, rows) -> np.ndarray:
        arr = self._coerce_rows(rows)
        mags = np.abs(arr)
        n = _lp_norms(mags, self.p)
        if (n == 0.0).any():
            raise DegenerateInput("the zero vector has no supporting functional")
        signs = np.where(arr >= 0.0, 1.0, -1.0)
        if self.p == 1.0:
            # signs on the support; free coordinates stay at zero
            return np.where(arr != 0.0, signs, 0.0)
        if self.p == math.inf:
            # the first negative maximal coordinate, else the last maximal one
            ties = mags == n[:, None]
            neg = ties & (arr < 0.0)
            j = np.where(neg.any(axis=1), neg.argmax(axis=1),
                         self.dim - 1 - ties[:, ::-1].argmax(axis=1))
            return _one_hot(self.dim, j, signs[np.arange(len(arr)), j])
        return signs * (mags / n[:, None]) ** (self.p - 1.0)

    def dual_attaining_vectors(self, rows) -> np.ndarray:
        arr = np.abs(self._coerce_rows(rows))
        dn = _lp_norms(arr, self._q)
        if (dn == 0.0).any():
            raise DegenerateInput("the zero functional attains nowhere on the sphere")
        if self.p == 1.0:
            return _one_hot(self.dim, arr.argmax(axis=1), 1.0)
        if self.p == math.inf:
            return np.ones_like(arr)
        u = (arr / dn[:, None]) ** (self._q - 1.0)
        return u / _lp_norms(u, self.p)[:, None]

    def to_params(self) -> dict:
        return {"kind": "lp", "dim": self.dim,
                "p": self.p if self.p != math.inf else "inf"}

    def __repr__(self) -> str:
        return f"LpLattice({self.dim}, {self.p})"


class WeightedL1Lattice(FiniteLattice):
    """R^n with norm sum_i w_i |x_i| for fixed weights w_i > 0.

    The functional with coefficients w supports the entire nonnegative
    sphere, which makes supporting functionals independent of the vector —
    the extreme case of a lattice with a flat nonnegative face.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.size < 1:
            raise DimensionError("need at least one weight")
        if not np.all(w > 0.0):
            raise RangeError("all weights must be strictly positive")
        self.dim = int(w.size)
        self.weights = w

    def norm_of(self, x) -> float:
        return float(self.weights @ np.abs(self._coerce(x)))

    def norms(self, rows) -> np.ndarray:
        return np.abs(self._coerce_rows(rows)) @ self.weights

    def dual_norm_of(self, c) -> float:
        return float(np.max(np.abs(self._coerce(c)) / self.weights))

    def norming_of(self, x) -> np.ndarray:
        return self.normings(self._coerce(x)[None])[0]

    def dual_attaining_vector(self, c) -> np.ndarray:
        return self.dual_attaining_vectors(self._coerce(c)[None])[0]

    def dual_norms(self, rows) -> np.ndarray:
        return (np.abs(self._coerce_rows(rows)) / self.weights).max(axis=1)

    def normings(self, rows) -> np.ndarray:
        arr = self._coerce_rows(rows)
        if (self.norms(arr) == 0.0).any():
            raise DegenerateInput("the zero vector has no supporting functional")
        signs = np.where(arr > 0.0, 1.0, np.where(arr < 0.0, -1.0, 0.0))
        return signs * self.weights

    def dual_attaining_vectors(self, rows) -> np.ndarray:
        arr = np.abs(self._coerce_rows(rows))
        if (arr == 0.0).all(axis=1).any():
            raise DegenerateInput("the zero functional attains nowhere on the sphere")
        j = (arr / self.weights).argmax(axis=1)
        return _one_hot(self.dim, j, 1.0 / self.weights[j])

    def to_params(self) -> dict:
        return {"kind": "weighted_l1", "weights": self.weights.tolist()}

    def __repr__(self) -> str:
        return f"WeightedL1Lattice({self.weights.tolist()})"


class Absolute2Lattice(FiniteLattice):
    """The two-dimensional lattice carried by an absolute normalized norm."""

    def __init__(self, norm: AbsoluteNorm2):
        self.dim = 2
        self.norm2 = norm

    def norm_of(self, x) -> float:
        return self.norm2.value(self._coerce(x))

    def norms(self, rows) -> np.ndarray:
        return self.norm2.values(self._coerce_rows(rows))

    def dual_norm_of(self, c) -> float:
        return self.norm2.dual_value(self._coerce(c))

    def norming_of(self, x) -> np.ndarray:
        return self.normings(self._coerce(x)[None])[0]

    def dual_attaining_vector(self, c) -> np.ndarray:
        return self.dual_attaining_vectors(self._coerce(c)[None])[0]

    def dual_norms(self, rows) -> np.ndarray:
        return self.norm2.dual_values(self._coerce_rows(rows))

    def normings(self, rows) -> np.ndarray:
        return self.norm2.dual_pairs(self._coerce_rows(rows))

    def dual_attaining_vectors(self, rows) -> np.ndarray:
        arr = np.abs(self._coerce_rows(rows))
        dn = self.dual_norms(arr)
        if (dn == 0.0).any():
            raise DegenerateInput("the zero functional attains nowhere on the sphere")
        if self.norm2.is_polyhedral:
            verts = self.norm2._vertices
            vals = arr[:, :1] * verts[:, 0] + arr[:, 1:] * verts[:, 1]
            return verts[vals.argmax(axis=1)]
        # smooth p-norm: the conjugate-exponent power map
        p = self.norm2.p
        u = (arr / dn[:, None]) ** (dual_exponent(p) - 1.0)
        return u / _p_values(u[:, 0], u[:, 1], p)[:, None]

    def to_params(self) -> dict:
        return {"kind": "absolute2", "generator": self.norm2.to_params()}

    def __repr__(self) -> str:
        return f"Absolute2Lattice({self.norm2!r})"


def lattice_from_params(params: dict) -> FiniteLattice:
    kind = params.get("kind")
    if kind == "lp":
        p = params["p"]
        return LpLattice(json_int(params["dim"], "lattice dim"),
                         math.inf if p == "inf" else float(p))
    if kind == "weighted_l1":
        return WeightedL1Lattice(params["weights"])
    if kind == "absolute2":
        return Absolute2Lattice(AbsoluteNorm2.from_params(params["generator"]))
    raise RangeError(f"unknown lattice kind {kind!r}")
