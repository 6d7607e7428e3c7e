"""Finite-dimensional normed spaces, functionals, and operators.

Five norm kinds are provided: ``euclidean`` (real or complex), ``lp``,
``absolute2`` (a plane normed by a two-dimensional absolute generator),
``lattice`` (R^n under a monotone 1-unconditional norm), and ``direct_sum``
(blocks combined by applying a lattice norm to the tuple of block norms).
Complex scalars are supported by the euclidean kind only; every other kind is
real, and an operator from a complex domain needs a complex codomain.

Functionals are stored as coordinate vectors acting through the bilinear
pairing ``f(x) = sum_i f_i x_i`` (no conjugation), so for a complex euclidean
space the norming functional of ``x`` is ``conj(x)/|x|``.

One class, :class:`LatticeSpace`, computes the ``lp``, ``absolute2`` and
``lattice`` kinds from their lattices; ``LpSpace`` and ``PlaneSpace`` are
its subclasses over ``LpLattice`` and ``Absolute2Lattice``.

Norming functionals and dual-attaining vectors are exact on every kind:
closed forms for euclidean/lp, vertex enumeration for polyhedral generators,
and the lattice-of-block-norms pairing for direct sums.  Every operation
has a row kernel on ``(n, dim)`` arrays (``norms``, ``dual_norms``,
``norming_functionals``, ``attaining_vectors``), and each tie rule lives
only in a row kernel: the one-vector ``norming_functional`` and
``attaining_vector`` of the lattice-backed kinds and of direct sums are
one-row views.  ``norm``, ``dual_norm`` and the tie-free euclidean norming
functional keep scalar bodies; a euclidean space is self-dual, so its dual
maps are its primal ones.  ``operator_norm`` has exact paths (one-dimensional
domains, l1-like domains by column or block maxima, euclidean-to-euclidean
by largest singular value) and otherwise returns a certified lower bound
from multi-start duality-mapping ascent, flagged as nonexact; the ascent
advances all its starts as one row array through the row kernels.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .absolute import AbsoluteNorm2
from .errors import (ConfigError, DegenerateInput, DimensionError, NotOnSphere,
                     RangeError)
from .lattices import (Absolute2Lattice, FiniteLattice, LpLattice,
                       WeightedL1Lattice, _row_reduce, lattice_from_params)
from .util import TOL_SPHERE, as_rows, as_vector, json_int


class NormedSpace(ABC):
    """A finite-dimensional real or complex normed space."""

    kind: str
    dim: int
    scalar_field: str  # "real" or "complex"

    # -- coercion ---------------------------------------------------------

    @property
    def dtype(self):
        return np.complex128 if self.scalar_field == "complex" else np.float64

    def coerce(self, x) -> np.ndarray:
        """``x`` as a fresh, writable length-``dim`` vector of the space's
        dtype: a copy of :func:`~bpbkit.util.as_vector`'s result.  The
        read-only kernels call ``as_vector`` and skip the copy."""
        return as_vector(x, self.dim, self.dtype).copy()

    def coerce_rows(self, rows) -> np.ndarray:
        """:meth:`coerce` for every row of an ``(n, dim)`` array at once: a
        copy of :func:`~bpbkit.util.as_rows`'s result, in the input's
        memory order (row sums depend on it)."""
        return as_rows(rows, self.dim, self.dtype).copy(order="K")

    # -- core operations --------------------------------------------------

    @abstractmethod
    def norm(self, x) -> float:
        ...

    @abstractmethod
    def norms(self, rows) -> np.ndarray:
        """The norms of the rows of an ``(n, dim)`` array, coerced once."""

    @abstractmethod
    def dual_norm(self, f) -> float:
        """Norm of the functional ``y -> sum_i f_i y_i``."""

    @abstractmethod
    def norming_functional(self, x) -> np.ndarray:
        """:meth:`norming_functionals` of one vector."""

    @abstractmethod
    def attaining_vector(self, f) -> np.ndarray:
        """:meth:`attaining_vectors` of one functional."""

    # Row kernels of the three dual operations: each maps the rows of an
    # ``(n, dim)`` array, coerced once; the last two raise DegenerateInput
    # when any row is zero.

    @abstractmethod
    def dual_norms(self, rows) -> np.ndarray:
        """:meth:`dual_norm` of every row."""

    @abstractmethod
    def norming_functionals(self, rows) -> np.ndarray:
        """For every row x, the coordinates of a functional f with
        dual_norm(f) = 1 and Re f(x) = norm(x).

        Ties are broken deterministically (lexicographically smallest extreme
        point of the nonnegative section of the dual face).
        """

    @abstractmethod
    def attaining_vectors(self, rows) -> np.ndarray:
        """For every row f, a unit vector x with Re f(x) = dual_norm(f)."""

    @abstractmethod
    def _params(self) -> dict:
        ...

    # -- shared helpers ---------------------------------------------------

    def pairing(self, f, x):
        """The bilinear action ``sum_i f_i x_i`` (complex for complex spaces)."""
        fv = self.coerce(f)
        xv = self.coerce(x)
        out = np.dot(fv, xv)
        return complex(out) if self.scalar_field == "complex" else float(out)

    def unit(self, x) -> np.ndarray:
        arr = as_vector(x, self.dim, self.dtype)
        n = self.norm(arr)
        if n == 0.0:
            raise DegenerateInput("cannot normalize the zero vector")
        return arr / n

    def canonical_unit(self) -> np.ndarray:
        """The first canonical basis direction, normalized."""
        e = np.zeros(self.dim, dtype=self.dtype)
        e[0] = 1.0
        return e / self.norm(e)

    def sphere_check(self, x) -> None:
        n = self.norm(x)
        if abs(n - 1.0) > TOL_SPHERE:
            raise NotOnSphere(f"norm is {n}, not 1 within {TOL_SPHERE}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "params": self._params()}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} dim={self.dim} field={self.scalar_field}>"


class EuclideanSpace(NormedSpace):
    """R^n or C^n with the Euclidean norm (the only complex-capable kind).

    The scalar methods sum squares by BLAS ``dot``, which may fuse
    multiply-adds; the real row kernels fold the squares column by column.
    So ``norm(x)`` and ``norms(x[None])[0]`` may differ in the last bit
    (on 20,000 standard normal vectors of length 2, 4 and 7, in 1,604,
    2,362 and 2,822 of them, by at most 2.9e-16 relative), and scalar and
    row results are not interchangeable bit for bit.
    """

    kind = "euclidean"

    def __init__(self, dim: int, scalar_field: str = "real"):
        if dim < 1:
            raise DimensionError(f"dimension must be positive, got {dim}")
        if scalar_field not in ("real", "complex"):
            raise ConfigError(f"scalar_field must be 'real' or 'complex', got {scalar_field!r}")
        self.dim = int(dim)
        self.scalar_field = scalar_field

    def norm(self, x) -> float:
        # a strided vector is copied first, as np.linalg.norm does: BLAS
        # sums it in another order
        arr = as_vector(x, self.dim, self.dtype).ravel(order="K")
        if self.scalar_field == "complex":
            return float(np.linalg.norm(arr))
        # np.linalg.norm's arithmetic on a real vector, without its wrapper
        return float(np.sqrt(arr.dot(arr)))

    def norms(self, rows) -> np.ndarray:
        arr = as_rows(rows, self.dim, self.dtype)
        if self.scalar_field == "complex":
            return np.linalg.norm(arr, axis=1)
        # np.linalg.norm's square root of the summed squares, summed by fold
        return np.sqrt(_row_reduce(np.add, arr * arr))

    # A norm below 2^-480 sums squares below the normal range, which lost
    # bits or vanished.  Scaling by 2^600 is exact and lifts every square
    # of such a row into the normal range, its entries staying below 2^120.
    _TINY_NORM = 2.0 ** -480

    def norming_functional(self, x) -> np.ndarray:
        arr = as_vector(x, self.dim, self.dtype)
        n = float(np.linalg.norm(arr))
        if n < self._TINY_NORM:
            return self.norming_functionals(arr[None])[0]
        return np.conj(arr) / n

    def norming_functionals(self, rows) -> np.ndarray:
        arr = as_rows(rows, self.dim, self.dtype)
        n = self.norms(arr)
        tiny = n < self._TINY_NORM
        if tiny.any():
            arr = arr.copy()
            arr[tiny] *= 2.0 ** 600
            n[tiny] = self.norms(arr[tiny])
            if (n == 0.0).any():
                raise DegenerateInput("zero has no norming functional or attaining vector")
        return np.conj(arr) / n[:, None]

    # Self-dual: the dual maps are the primal ones.  Each name stays in the
    # class body because bench/tracer.py wraps cls.__dict__[name].
    dual_norm = norm
    dual_norms = norms
    attaining_vector = norming_functional
    attaining_vectors = norming_functionals

    def inner(self, a, b):
        """Hermitian inner product <a, b> = sum_i a_i conj(b_i)."""
        av = self.coerce(a)
        bv = self.coerce(b)
        out = np.dot(av, np.conj(bv))
        return complex(out) if self.scalar_field == "complex" else float(out)

    def _params(self) -> dict:
        return {"field": self.scalar_field}


class LatticeSpace(NormedSpace):
    """R^n with a monotone 1-unconditional (lattice) norm (real only).

    The one lattice-backed class: every operation is its lattice's, which
    coerces the input once, and an attaining vector is the lattice's for
    ``|f|``, with the signs of f (positive where f is zero).  ``lp`` and
    ``absolute2`` spaces are its subclasses over their lattices.
    """

    kind = "lattice"
    scalar_field = "real"

    def __init__(self, lattice: FiniteLattice):
        self.lattice = lattice
        self.dim = lattice.dim

    def norm(self, x) -> float:
        return self.lattice.norm_of(x)

    def norms(self, rows) -> np.ndarray:
        return self.lattice.norms(rows)

    def dual_norm(self, f) -> float:
        return self.lattice.dual_norm_of(f)

    def dual_norms(self, rows) -> np.ndarray:
        return self.lattice.dual_norms(rows)

    def norming_functional(self, x) -> np.ndarray:
        return self.lattice.norming_of(x)

    def norming_functionals(self, rows) -> np.ndarray:
        return self.lattice.normings(rows)

    def attaining_vector(self, f) -> np.ndarray:
        return self.attaining_vectors(as_vector(f, self.dim)[None])[0]

    def attaining_vectors(self, rows) -> np.ndarray:
        arr = as_rows(rows, self.dim)
        return (np.where(arr < 0.0, -1.0, 1.0)
                * self.lattice.dual_attaining_vectors(np.abs(arr)))

    def _params(self) -> dict:
        return {"lattice": self.lattice.to_params()}


class LpSpace(LatticeSpace):
    """R^n with the p-norm, 1 <= p <= inf (real only), over
    :class:`LpLattice`."""

    kind = "lp"

    def __init__(self, dim: int, p: float):
        super().__init__(LpLattice(dim, p))
        self.p = self.lattice.p

    # bench/tracer.py wraps these four as cls.__dict__[name] of each space
    # class, so each kind names them in its own body
    norm = LatticeSpace.norm
    dual_norm = LatticeSpace.dual_norm
    norming_functional = LatticeSpace.norming_functional
    attaining_vector = LatticeSpace.attaining_vector

    def _params(self) -> dict:
        return {"p": self.p if self.p != math.inf else "inf"}


class PlaneSpace(LatticeSpace):
    """R^2 normed by a two-dimensional absolute generator (real only), over
    :class:`Absolute2Lattice`."""

    kind = "absolute2"

    def __init__(self, generator: AbsoluteNorm2):
        super().__init__(Absolute2Lattice(generator))
        self.generator = generator

    # bench/tracer.py wraps these four as cls.__dict__[name] of each space
    # class, so each kind names them in its own body
    norm = LatticeSpace.norm
    dual_norm = LatticeSpace.dual_norm
    norming_functional = LatticeSpace.norming_functional
    attaining_vector = LatticeSpace.attaining_vector

    def _params(self) -> dict:
        return {"generator": self.generator.to_params()}


class DirectSumSpace(NormedSpace):
    """Blocks combined through a lattice norm of their block norms.

    ``norm((x_1, ..., x_m)) = combiner((norm(x_1), ..., norm(x_m)))``.
    Real only: the block-profile machinery is intrinsically real.
    """

    kind = "direct_sum"
    scalar_field = "real"

    def __init__(self, components: list[NormedSpace], combiner: FiniteLattice):
        if not components:
            raise ConfigError("a direct sum needs at least one component")
        if combiner.dim != len(components):
            raise DimensionError(
                f"combiner has dimension {combiner.dim} but there are "
                f"{len(components)} components")
        for comp in components:
            if comp.scalar_field != "real":
                raise ConfigError("direct sums support real components only")
        self.components = list(components)
        self.combiner = combiner
        self.offsets = np.cumsum([0] + [c.dim for c in components])
        self.dim = int(self.offsets[-1])
        #: ``(component, lo, hi)`` of every block, in order
        self.spans = list(zip(self.components, self.offsets[:-1],
                              self.offsets[1:]))

    # -- block plumbing ---------------------------------------------------

    def split(self, x) -> list[np.ndarray]:
        arr = self.coerce(x)
        return [arr[lo:hi] for _, lo, hi in self.spans]

    def embed(self, blocks) -> np.ndarray:
        if len(blocks) != len(self.components):
            raise DimensionError(
                f"expected {len(self.components)} blocks, got {len(blocks)}")
        parts = [comp.coerce(b) for comp, b in zip(self.components, blocks)]
        return np.concatenate(parts)

    def profile(self, x) -> np.ndarray:
        """The tuple of block norms."""
        arr = as_vector(x, self.dim)
        return np.array([comp.norm(arr[lo:hi]) for comp, lo, hi in self.spans])

    def dual_profile(self, f) -> np.ndarray:
        arr = as_vector(f, self.dim)
        return np.array([comp.dual_norm(arr[lo:hi])
                         for comp, lo, hi in self.spans])

    def _per_block(self, rows, kernel: str) -> np.ndarray:
        """The ``(n, m)`` values of each component's row ``kernel`` on its
        column slice of the rows of an ``(n, dim)`` array."""
        arr = as_rows(rows, self.dim)
        out = np.empty((len(arr), len(self.components)))
        for i, (comp, lo, hi) in enumerate(self.spans):
            out[:, i] = getattr(comp, kernel)(arr[:, lo:hi])
        return out

    def profiles(self, rows) -> np.ndarray:
        """The ``(n, m)`` block norms of the rows of an ``(n, dim)`` array."""
        return self._per_block(rows, "norms")

    def dual_profiles(self, rows) -> np.ndarray:
        """The ``(n, m)`` block dual norms of the rows of an ``(n, dim)``
        array."""
        return self._per_block(rows, "dual_norms")

    # -- norms ------------------------------------------------------------

    def norm(self, x) -> float:
        return self.combiner.norm_of(self.profile(x))

    def norms(self, rows) -> np.ndarray:
        return self.combiner.norms(self.profiles(rows))

    def dual_norm(self, f) -> float:
        return self.combiner.dual_norm_of(self.dual_profile(f))

    def dual_norms(self, rows) -> np.ndarray:
        return self.combiner.dual_norms(self.dual_profiles(rows))

    def norming_functional(self, x) -> np.ndarray:
        return self.norming_functionals(as_vector(x, self.dim)[None])[0]

    def block_normings(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For the rows of an ``(n, dim)`` array: the ``(n, m)`` block-norm
        profiles, the ``(n, m)`` functionals e* norming them, and the
        ``(n, dim)`` array whose block i is the component's norming
        functional of block i, zero on a zero block.  Scaling block i by
        ``e*_i`` norms x; the zero block keeps the dual norm one because the
        Köthe dual norm is monotone.  A zero row raises
        :class:`DegenerateInput`."""
        arr = as_rows(rows, self.dim)
        prof = self.profiles(arr)
        estar = self.combiner.normings(prof)  # raises on a zero row
        funcs = np.zeros_like(arr)
        for i, (comp, lo, hi) in enumerate(self.spans):
            live = prof[:, i] > 0.0
            funcs[live, lo:hi] = comp.norming_functionals(arr[live, lo:hi])
        return prof, estar, funcs

    def norming_functionals(self, rows) -> np.ndarray:
        """Block i of row x is ``e*_i`` times block i of
        :meth:`block_normings`."""
        _, estar, funcs = self.block_normings(rows)
        return np.repeat(estar, np.diff(self.offsets), axis=1) * funcs

    def attaining_vector(self, f) -> np.ndarray:
        return self.attaining_vectors(as_vector(f, self.dim)[None])[0]

    def attaining_vectors(self, rows) -> np.ndarray:
        """Block i of row f is ``u_i`` times the component's attaining
        vector of block i, where u attains the dual profile of f; on a zero
        block it is ``u_i`` times the component's canonical unit."""
        arr = as_rows(rows, self.dim)
        dprof = self.dual_profiles(arr)
        u = self.combiner.dual_attaining_vectors(dprof)  # raises on a zero row
        out = np.empty_like(arr)
        for i, (comp, lo, hi) in enumerate(self.spans):
            live = dprof[:, i] > 0.0
            if live.all():  # no zero block: skip the masked copies
                blocks = comp.attaining_vectors(arr[:, lo:hi])
            else:  # a zero block: the canonical unit
                blocks = np.empty((len(arr), hi - lo))
                blocks[live] = comp.attaining_vectors(arr[live, lo:hi])
                blocks[~live] = comp.canonical_unit()
            out[:, lo:hi] = u[:, i:i + 1] * blocks
        return out

    def _params(self) -> dict:
        return {"components": [c.to_json() for c in self.components],
                "combiner": self.combiner.to_params()}


# -- JSON round-trip -------------------------------------------------------


def space_from_json(obj: dict) -> NormedSpace:
    """Rebuild a space from ``{"kind": ..., "dim": ..., "params": {...}}``."""
    try:
        kind = obj["kind"]
        dim = json_int(obj["dim"], "space dim")
        params = obj.get("params", {})
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed space description: {exc}") from exc
    if kind == "euclidean":
        return EuclideanSpace(dim, params.get("field", "real"))
    if params.get("field", "real") != "real":
        raise ConfigError(
            f"complex scalars are supported only for euclidean spaces, not {kind!r}")
    try:
        if kind == "lp":
            p = params["p"]
            return LpSpace(dim, math.inf if p == "inf" else float(p))
        if kind == "absolute2":
            if dim != 2:
                raise DimensionError("absolute2 spaces are two-dimensional")
            return PlaneSpace(AbsoluteNorm2.from_params(params["generator"]))
        if kind == "lattice":
            space = LatticeSpace(lattice_from_params(params["lattice"]))
            if space.dim != dim:
                raise DimensionError(
                    f"lattice dimension {space.dim} does not match declared {dim}")
            return space
        if kind == "direct_sum":
            comps = [space_from_json(c) for c in params["components"]]
            space = DirectSumSpace(comps,
                                   lattice_from_params(params["combiner"]))
            if space.dim != dim:
                raise DimensionError(
                    f"component dimensions sum to {space.dim}, not {dim}")
            return space
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"malformed parameters for space kind {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown space kind {kind!r}")


def _scalar_to_json(v):
    if isinstance(v, complex) or isinstance(v, np.complexfloating):
        return [float(v.real), float(v.imag)]
    return float(v)


def _scalar_from_json(v):
    if isinstance(v, (list, tuple)):
        return complex(float(v[0]), float(v[1]))
    return float(v)


def vector_to_json(space: NormedSpace, coords) -> dict:
    arr = space.coerce(coords)
    return {"space": space.to_json(),
            "coords": [_scalar_to_json(v) for v in arr]}


def vector_from_json(obj: dict) -> tuple[NormedSpace, np.ndarray]:
    space = space_from_json(obj["space"])
    coords = np.array([_scalar_from_json(v) for v in obj["coords"]])
    return space, space.coerce(coords)


# -- operators --------------------------------------------------------------


@dataclass
class Operator:
    """A linear map stored as a dense matrix (codomain_dim x domain_dim)."""

    matrix: np.ndarray
    domain: NormedSpace
    codomain: NormedSpace

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.ndim != 2:
            raise DimensionError(f"operator matrix must be 2-d, got {mat.ndim}-d")
        if mat.shape != (self.codomain.dim, self.domain.dim):
            raise DimensionError(
                f"matrix shape {mat.shape} does not match spaces "
                f"({self.codomain.dim} x {self.domain.dim})")
        field = self.codomain.scalar_field
        if field == "real" and self.domain.scalar_field == "complex":
            raise RangeError("a complex domain needs a complex codomain")
        self.matrix = mat.astype(np.complex128 if field == "complex"
                                 else np.float64)

    def apply(self, x) -> np.ndarray:
        return self.matrix @ self.domain.coerce(x)

    def restrict_to_block(self, sum_space: DirectSumSpace, i: int) -> "Operator":
        """Restriction to the i-th block of a direct-sum domain."""
        lo, hi = sum_space.offsets[i], sum_space.offsets[i + 1]
        return Operator(self.matrix[:, lo:hi], sum_space.components[i],
                        self.codomain)

    def to_json(self) -> dict:
        return {"domain": self.domain.to_json(),
                "codomain": self.codomain.to_json(),
                "matrix": [[_scalar_to_json(v) for v in row]
                           for row in self.matrix]}

    @classmethod
    def from_json(cls, obj: dict) -> "Operator":
        dom = space_from_json(obj["domain"])
        cod = space_from_json(obj["codomain"])
        mat = np.array([[_scalar_from_json(v) for v in row]
                        for row in obj["matrix"]])
        return cls(mat, dom, cod)


@dataclass(frozen=True)
class OperatorNormResult:
    """Operator norm with provenance.

    ``value`` is exact when ``exact`` is True, otherwise a certified lower
    bound from ascent.  ``witness`` is a unit domain vector realizing
    ``value`` (up to the stated tolerance) and ``method`` names the path
    taken.
    """

    value: float
    exact: bool
    witness: np.ndarray
    method: str

    @property
    def upper(self) -> float:
        """An upper bound on the norm: ``value`` when exact, else +inf."""
        return self.value if self.exact else math.inf


def _ascent_operator_norm(op: Operator, starts: int = 8,
                          iterations: int = 60) -> OperatorNormResult:
    """Certified lower bound by duality-mapping ascent.

    Each start repeatedly replaces x by the domain vector attaining the
    functional ``g o T``, where g norms ``T x`` in the codomain; each step
    is monotone nondecreasing in ``|T x|``.  The starts are the first
    canonical basis vectors and then seeded Gaussian draws, normalised.
    They advance together as the rows of one array, through the row
    kernels ``norming_functionals``, ``dual_norms``, ``attaining_vectors``
    and ``norms``, for at most ``iterations`` steps each.  A start stops
    when its image ``T x`` or its functional ``g o T`` has norm zero, or
    when a step raises ``|T x|`` by no more than a relative 1e-14; x then
    takes that step and the value the larger of the two.  The first start
    with the largest value gives the result.
    """
    dom, cod = op.domain, op.codomain
    rng = np.random.default_rng(20240 + dom.dim * 131 + cod.dim)
    seeds = np.zeros((starts, dom.dim), dtype=dom.dtype)
    k = min(dom.dim, starts)
    seeds[np.arange(k), np.arange(k)] = 1.0
    for j in range(k, starts):
        draw = rng.standard_normal(dom.dim)
        if dom.scalar_field == "complex":
            draw = draw + 1j * rng.standard_normal(dom.dim)
        seeds[j] = draw
    lengths = dom.norms(seeds)
    x = seeds[lengths > 0.0] / lengths[lengths > 0.0, None]
    if len(x) == 0:
        witness = dom.canonical_unit()
        return OperatorNormResult(cod.norm(op.apply(witness)), False, witness,
                                  "ascent")
    mat = op.matrix
    y = x @ mat.T
    val = cod.norms(y)
    active = val > 0.0
    for _ in range(iterations):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        phi = cod.norming_functionals(y[idx]) @ mat
        live = dom.dual_norms(phi) > 0.0
        active[idx[~live]] = False
        idx, phi = idx[live], phi[live]
        x_new = dom.attaining_vectors(phi)
        y_new = x_new @ mat.T
        new_val = cod.norms(y_new)
        done = new_val <= val[idx] * (1.0 + 1e-14)
        x[idx], y[idx] = x_new, y_new
        val[idx] = np.where(done, np.maximum(val[idx], new_val), new_val)
        active[idx[done]] = False
    best = int(np.argmax(val))
    return OperatorNormResult(float(val[best]), False, x[best].copy(), "ascent")


def _l1_weights(lattice) -> np.ndarray | None:
    """The weights w of an l1-like lattice (lp(1) has unit weights), whose
    ball is the convex hull of the signed e_j / w_j; None for any other
    lattice, or when there is none."""
    if isinstance(lattice, LpLattice) and lattice.p == 1.0:
        return np.ones(lattice.dim)
    if isinstance(lattice, WeightedL1Lattice):
        return lattice.weights
    return None


def operator_norm(op: Operator) -> OperatorNormResult:
    """Operator norm with exactness flag.

    Exact paths: one-dimensional domains; lattice spaces over lp(1) or a
    weighted l1 (largest column norm over its weight, attained at
    e_j / w_j); euclidean-to-euclidean (largest singular value); direct
    sums with an l1-like combiner (maximum of block restriction norms,
    scaled by inverse weights; exact when every block's norm is).
    Everything else falls back to multi-start ascent and is flagged
    nonexact.
    """
    dom, cod = op.domain, op.codomain
    if dom.dim == 1:
        x = dom.canonical_unit()
        return OperatorNormResult(cod.norm(op.apply(x)), True, x, "one_dim")
    weights = _l1_weights(getattr(dom, "lattice", None))
    if weights is not None:
        vals = [cod.norm(op.matrix[:, j]) / weights[j] for j in range(dom.dim)]
        j = int(np.argmax(vals))
        e = np.zeros(dom.dim)
        e[j] = 1.0 / weights[j]
        return OperatorNormResult(float(vals[j]), True, e, "l1_columns")
    if dom.kind == "euclidean" and cod.kind == "euclidean":
        u, s, vh = np.linalg.svd(op.matrix)
        witness = np.conj(vh[0])
        return OperatorNormResult(float(s[0]), True, dom.coerce(witness), "svd")
    if dom.kind == "direct_sum":
        weights = _l1_weights(dom.combiner)
        if weights is not None:
            # Ball = convex hull of scaled block balls, so the norm is the
            # maximum of block restriction norms over inverse weights.
            # Exact only when every block is: a lower bound on a losing
            # block may hide a larger true value.
            best, exact = None, True
            for i in range(len(dom.components)):
                sub = operator_norm(op.restrict_to_block(dom, i))
                exact = exact and sub.exact
                scaled = sub.value / weights[i]
                if best is None or scaled > best[0]:
                    best = (scaled, i, sub)
            scaled, i, sub = best
            blocks = [np.zeros(c.dim) for c in dom.components]
            blocks[i] = sub.witness / weights[i]
            witness = dom.embed(blocks)
            return OperatorNormResult(float(scaled), exact, witness,
                                      "l1_sum_blocks")
    return _ascent_operator_norm(op)
