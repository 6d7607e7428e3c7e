"""Two-dimensional absolute normalized norms.

A norm ``f`` on R^2 is *absolute* when ``f(a, b) = f(|a|, |b|)`` and
*normalized* when ``f(1, 0) = f(0, 1) = 1``.  Every such norm is determined by
the function ``psi(u) = f(1-u, u)`` on ``[0, 1]`` through

    f(a, b) = (|a| + |b|) * psi(|b| / (|a| + |b|)),

where admissibility means ``max(1-u, u) <= psi(u) <= 1``, ``psi(0) = psi(1) =
1`` and convexity of ``psi``.

Two families are provided: the p-norms (``kind="lp"``) and piecewise-linear
generators given by sample triples ``(a, b, f(a, b))`` (``kind="table"``).
The unit sphere of a piecewise-linear generator, restricted to the closed
positive quadrant, is a polygon, so dual norms, supporting functionals and
faces are computed exactly by vertex enumeration and 2x2 solves.

Construction is permissive: a table only has to be positive and strictly
ordered to build.  Use :func:`validate_absolute_norm` to obtain a
certificate/violation report before feeding a generator into any pipeline.

Pairs and ``(n, 2)`` rows are coerced by ``util.as_vector`` and
``util.as_rows``.  For 1 < p < inf, :func:`_p_value` and :func:`_p_values`
differ in the last bit: on 970, 106 and 773 of 20,000 ``|standard normal|``
pairs (numpy seed 0) at p = 1.5, 2 and 3, by at most 4.4e-16 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NotANorm, NotOnSphere, RangeError
from .util import TOL_SPHERE, as_rows, as_vector

_NODE_TOL = 1e-12


def _p_value(a: float, b: float, p: float) -> float:
    """``(a^p + b^p)^(1/p)`` for nonnegative a, b, stable near the axes."""
    if p == math.inf:
        return max(a, b)
    if p == 1.0:
        return a + b
    if p == 2.0:
        return math.hypot(a, b)
    m = max(a, b)
    if m == 0.0:
        return 0.0
    return m * ((a / m) ** p + (b / m) ** p) ** (1.0 / p)


def _p_values(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """:func:`_p_value` of every pair ``(a[i], b[i])``, in one pass."""
    if p == math.inf:
        return np.maximum(a, b)
    if p == 1.0:
        return a + b
    if p == 2.0:
        return np.hypot(a, b)
    m = np.maximum(a, b)
    scale = np.where(m == 0.0, 1.0, m)
    return m * ((a / scale) ** p + (b / scale) ** p) ** (1.0 / p)


def dual_exponent(p: float) -> float:
    """The exponent q with 1/p + 1/q = 1 (1 and inf are swapped)."""
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


class AbsoluteNorm2:
    """Absolute norm on R^2, given by exponent or by sample table.

    Use the classmethod constructors: :meth:`lp` for p-norms,
    :meth:`from_table` for ``(u, psi)`` nodes, and :meth:`from_samples` for
    ``(a, b, f(a, b))`` triples.
    """

    def __init__(self, kind: str, *, p: float | None = None,
                 nodes: list[tuple[float, float]] | None = None):
        if kind == "lp":
            if p is None or not (p >= 1.0):
                raise RangeError(f"p-norm exponent must satisfy p >= 1, got {p}")
            self.kind = "lp"
            self.p = float(p)
            self.nodes = None
        elif kind == "table":
            if not nodes or len(nodes) < 2:
                raise NotANorm("a table generator needs at least the two endpoint nodes")
            arr = np.asarray(nodes, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise NotANorm(f"table nodes must be (u, psi) pairs, got shape {arr.shape}")
            self.kind = "table"
            self.p = None
            self.nodes = [(float(u), float(s)) for u, s in arr]
            self._check_structure()
        else:
            raise RangeError(f"unknown generator kind {kind!r}")
        self._precompute()
        # boundary_completion's bisection result per axis
        self._completion: dict[str, float] = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def lp(cls, p: float) -> "AbsoluteNorm2":
        return cls("lp", p=p)

    @classmethod
    def from_table(cls, nodes: list[tuple[float, float]]) -> "AbsoluteNorm2":
        return cls("table", nodes=nodes)

    @classmethod
    def from_samples(cls, samples: list[tuple[float, float, float]]) -> "AbsoluteNorm2":
        """Build a table generator from triples ``(a, b, f(a, b))``.

        Each triple with ``a + b > 0`` contributes the node
        ``u = b/(a+b), psi(u) = f/(a+b)``.
        """
        nodes: dict[float, float] = {}
        for trip in samples:
            arr = np.asarray(trip, dtype=float).reshape(-1)
            if arr.size != 3:
                raise NotANorm(f"samples must be (a, b, f) triples, got {trip!r}")
            a, b, fv = (float(v) for v in arr)
            if a < 0.0 or b < 0.0:
                raise NotANorm("sample points must lie in the closed positive quadrant")
            s = a + b
            if s <= 0.0:
                raise NotANorm("the sample (0, 0, .) carries no generator information")
            u = b / s
            val = fv / s
            if u in nodes and abs(nodes[u] - val) > 1e-9:
                raise NotANorm(f"inconsistent samples at direction u={u}")
            nodes[u] = val
        ordered = sorted(nodes.items())
        return cls("table", nodes=ordered)

    # -- structural checks (always enforced) ----------------------------

    def _check_structure(self) -> None:
        us = [u for u, _ in self.nodes]
        for i in range(1, len(us)):
            if us[i] - us[i - 1] <= _NODE_TOL:
                raise NotANorm("table nodes must have strictly increasing u")
        if abs(us[0]) > _NODE_TOL or abs(us[-1] - 1.0) > _NODE_TOL:
            raise NotANorm("table nodes must start at u=0 and end at u=1")
        for u, s in self.nodes:
            if s <= 0.0:
                raise NotANorm(f"psi({u}) = {s} is not positive")

    # -- precomputed polygon data ---------------------------------------

    def _precompute(self) -> None:
        if self.kind == "table":
            self._node_u, self._node_psi = np.array(self.nodes).T
            verts = [((1.0 - u) / s, u / s) for u, s in self.nodes]
            self._vertices = np.array(verts)
            self._facets = self._facet_functionals(verts)
            # largest first coordinate on the sphere at height one; empty
            # only for non-normalized tables, which validation reports
            tops = [x for x, y in verts if y >= 1.0 - 1e-12]
            self._t_max = max(tops) if tops else 0.0
        elif self.p == 1.0:
            self._vertices = np.array([(1.0, 0.0), (0.0, 1.0)])
            self._facets = [(1.0, 1.0)]
            self._t_max = 0.0
        elif self.p == math.inf:
            self._vertices = np.array([(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
            self._facets = [(1.0, 0.0), (0.0, 1.0)]
            self._t_max = 1.0
        else:
            self._vertices = None
            self._facets = None
            self._t_max = 0.0
        # dual_pairs' tie rule scans the candidates in lexicographic order;
        # support_candidates lists them in sweep order
        self._candidates = (np.array(sorted(self.support_candidates()))
                            if self.is_polyhedral else None)

    @staticmethod
    def _facet_functionals(verts: list[tuple[float, float]]) -> list[tuple[float, float]]:
        facets = []
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            mat = np.array([[x0, y0], [x1, y1]])
            try:
                c, d = np.linalg.solve(mat, np.ones(2))
            except np.linalg.LinAlgError:
                continue
            c = max(float(c), 0.0)
            d = max(float(d), 0.0)
            if facets and abs(facets[-1][0] - c) < 1e-12 and abs(facets[-1][1] - d) < 1e-12:
                continue
            facets.append((c, d))
        return facets

    # -- basic queries ---------------------------------------------------

    @property
    def is_smooth(self) -> bool:
        """True for p-norms with 1 < p < inf (rotund, differentiable sphere)."""
        return self.kind == "lp" and 1.0 < self.p < math.inf

    @property
    def is_polyhedral(self) -> bool:
        return self._vertices is not None

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        """Extreme points of the unit sphere in the closed positive quadrant,
        swept from (1, 0) to (0, 1) (polyhedral generators only)."""
        if not self.is_polyhedral:
            raise RangeError("vertices exist only for polyhedral generators")
        return tuple(map(tuple, self._vertices.tolist()))

    def psi(self, u: float) -> float:
        if u < -_NODE_TOL or u > 1.0 + _NODE_TOL:
            raise RangeError(f"generator argument must lie in [0, 1], got {u}")
        u = min(max(u, 0.0), 1.0)
        if self.kind == "lp":
            return _p_value(1.0 - u, u, self.p)
        return float(np.interp(u, self._node_u, self._node_psi))

    def value(self, x) -> float:
        a, b = np.abs(as_vector(x, 2)).tolist()
        if self.kind == "lp":
            return _p_value(a, b, self.p)
        s = a + b
        if s == 0.0:
            return 0.0
        return s * self.psi(b / s)

    def values(self, rows) -> np.ndarray:
        """:meth:`value` of every row of an ``(n, 2)`` array, in one pass."""
        arr = np.abs(as_rows(rows, 2))
        a, b = arr[:, 0], arr[:, 1]
        if self.kind == "lp":
            return _p_values(a, b, self.p)
        s = a + b
        return s * np.interp(b / np.where(s == 0.0, 1.0, s), self._node_u,
                             self._node_psi)

    def dual_value(self, x) -> float:
        """Norm of a functional (c, d) acting as (a, b) -> c*a + d*b."""
        c, d = np.abs(as_vector(x, 2)).tolist()
        if self.kind == "lp":
            return _p_value(c, d, dual_exponent(self.p))
        return max(c * vx + d * vy for vx, vy in self._vertices.tolist())

    def dual_values(self, rows) -> np.ndarray:
        """:meth:`dual_value` of every row of an ``(n, 2)`` array, in one
        pass."""
        arr = np.abs(as_rows(rows, 2))
        c, d = arr[:, 0], arr[:, 1]
        if self.kind == "lp":
            return _p_values(c, d, dual_exponent(self.p))
        v = self._vertices
        return (c[:, None] * v[:, 0] + d[:, None] * v[:, 1]).max(axis=1)

    def sphere_point(self, u: float) -> np.ndarray:
        """The unit-sphere point in direction (1-u, u)."""
        s = self.psi(u)
        return np.array([(1.0 - u) / s, u / s])

    def swapped(self) -> "AbsoluteNorm2":
        """The norm with coordinates exchanged: (a, b) -> f(b, a)."""
        if self.kind == "lp":
            return AbsoluteNorm2.lp(self.p)
        rev = [(1.0 - u, s) for u, s in reversed(self.nodes)]
        return AbsoluteNorm2.from_table(rev)

    # -- supporting functionals ------------------------------------------

    def support_candidates(self) -> list[tuple[float, float]]:
        """Extreme dual points of the closed positive quadrant (polyhedral
        generators only): the two axis functionals plus one functional per
        sphere facet, swept from the (1, 0) end to the (0, 1) end."""
        if not self.is_polyhedral:
            raise RangeError("support candidates exist only for polyhedral generators")
        out = [(1.0, 0.0)]
        for c, d in self._facets:
            if (c, d) not in out:
                out.append((c, d))
        if (0.0, 1.0) not in out:
            out.append((0.0, 1.0))
        return out

    def dual_pair(self, x) -> np.ndarray:
        """:meth:`dual_pairs` of one pair."""
        return self.dual_pairs(as_vector(x, 2)[None])[0]

    def dual_pairs(self, rows) -> np.ndarray:
        """For every row x of an ``(n, 2)`` array, a functional of dual norm
        one attaining its norm at x.

        For smooth p-norms the functional is the unique one.  Otherwise ties
        are broken deterministically: among all extreme dual points of the
        positive quadrant attaining the norm of ``|x|`` within 1e-9, the
        lexicographically smallest pair wins; signs then follow the signs of
        x (nonnegative on zero coordinates).  A zero row raises
        :class:`DegenerateInput`.
        """
        x = as_rows(rows, 2)
        arr = np.abs(x)
        v = self.values(arr)
        if (v == 0.0).any():
            raise DegenerateInput("the zero vector has no supporting functional")
        if self.is_smooth:
            out = (arr / v[:, None]) ** (self.p - 1.0)
        else:
            cands = self._candidates
            attains = (arr[:, :1] * cands[:, 0] + arr[:, 1:] * cands[:, 1]
                       >= (v * (1.0 - 1e-9))[:, None])
            if not attains.any(axis=1).all():  # pragma: no cover - always attains
                raise DegenerateInput("no supporting functional found")
            out = cands[attains.argmax(axis=1)]
        return np.where(x >= 0.0, 1.0, -1.0) * out

    def face_vertices(self, functional) -> list[tuple[float, float]]:
        """Extreme points of ``{p on the sphere, p >= 0 : <functional, p> = 1}``
        for an extreme dual point of the positive quadrant (polyhedral only),
        in sweep order."""
        c, d = as_vector(functional, 2).tolist()
        out = [(vx, vy) for vx, vy in self.vertices
               if abs(c * vx + d * vy - 1.0) <= 1e-9]
        if not out:
            raise DegenerateInput(f"functional {functional!r} supports no sphere vertex")
        return out

    # -- quantitative geometry -------------------------------------------

    def face_gap(self) -> float:
        """Smallest positive gap ``1 - <v, P>`` over extreme dual points v and
        sphere vertices P off the face of v (polyhedral only).  Unit vectors
        whose value under v is within the gap of 1 must sit near v's face."""
        if not self.is_polyhedral:
            raise RangeError("face gaps exist only for polyhedral generators")
        gaps = []
        for c, d in self.support_candidates():
            for vx, vy in self._vertices.tolist():
                val = c * vx + d * vy
                if val < 1.0 - 1e-9:
                    gaps.append(1.0 - val)
        return min(gaps) if gaps else 1.0

    def sup_height(self, cut: float) -> float:
        """Largest second coordinate over unit pairs ``(a, b) >= 0`` with
        ``a >= cut`` (0 when there is none): a closed form for p-norms, a
        walk along the sphere polygon for tables."""
        if self.kind == "lp":
            if self.p == math.inf:
                return 1.0 if cut <= 1.0 else 0.0
            if cut > 1.0:
                return 0.0
            return (1.0 - cut ** self.p) ** (1.0 / self.p)
        worst = None
        verts = self._vertices.tolist()
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            for x, y in ((x0, y0), (x1, y1)):
                if x >= cut - 1e-15:
                    worst = y if worst is None else max(worst, y)
            if (x0 - cut) * (x1 - cut) < 0.0:
                t = (cut - x0) / (x1 - x0)
                y = y0 + t * (y1 - y0)
                worst = y if worst is None else max(worst, y)
        return 0.0 if worst is None else worst

    # -- serialization ----------------------------------------------------

    def to_params(self) -> dict:
        if self.kind == "lp":
            return {"kind": "lp", "p": self.p if self.p != math.inf else "inf"}
        samples = [[1.0 - u, u, s] for u, s in self.nodes]
        return {"kind": "table", "samples": samples}

    @classmethod
    def from_params(cls, params: dict) -> "AbsoluteNorm2":
        if params["kind"] == "lp":
            p = params["p"]
            return cls.lp(math.inf if p == "inf" else float(p))
        if params["kind"] == "table":
            return cls.from_samples([tuple(t) for t in params["samples"]])
        raise RangeError(f"unknown generator kind {params.get('kind')!r}")

    def __repr__(self) -> str:
        if self.kind == "lp":
            return f"AbsoluteNorm2.lp({self.p})"
        return f"AbsoluteNorm2.from_table({self.nodes})"


@dataclass(frozen=True)
class NormValidation:
    """Outcome of :func:`validate_absolute_norm`.

    ``ok`` is True when every axiom held on the grid.  On failure ``reason``
    names the broken axiom and ``violation`` is the first offending sample
    triple ``(a, b, f(a, b))``.
    """

    ok: bool
    checks: tuple[str, ...]
    reason: str | None = None
    violation: tuple[float, float, float] | None = None

    def __str__(self) -> str:
        if self.ok:
            return f"valid generator ({', '.join(self.checks)})"
        a, b, fv = self.violation
        return f"invalid generator: {self.reason} at f({a:.9g}, {b:.9g}) = {fv:.9g}"


def validate_absolute_norm(norm: AbsoluteNorm2, resolution: int = 2048) -> NormValidation:
    """Check the generator axioms of ``norm`` on a uniform direction grid.

    Verifies normalization ``f(1,0) = f(0,1) = 1``, the admissible band
    ``max(1-u, u) <= psi(u) <= 1`` and midpoint convexity, returning a
    :class:`NormValidation` report whose ``violation`` holds the first
    offending triple.  A nonpositive value anywhere on the grid raises
    :class:`NotANorm` outright -- such data cannot be a norm at all.
    """
    if resolution < 3:
        raise RangeError("resolution must be at least 3")
    checks = ("positive", "normalized", "admissible-band", "convex")
    grid = np.linspace(0.0, 1.0, resolution)
    vals = np.array([norm.psi(u) for u in grid])

    def triple(i: int) -> tuple[float, float, float]:
        u = float(grid[i])
        return (1.0 - u, u, float(vals[i]))

    if np.any(vals <= 0.0):
        i = int(np.nonzero(vals <= 0.0)[0][0])
        a, b, fv = triple(i)
        raise NotANorm(f"f({a:.9g}, {b:.9g}) = {fv:.9g} is not positive")
    for i in (0, resolution - 1):
        if abs(vals[i] - 1.0) > 1e-9:
            return NormValidation(False, checks, "normalization f(1,0)=f(0,1)=1 fails",
                                  triple(i))
    lower = np.maximum(1.0 - grid, grid)
    bad = np.nonzero((vals > 1.0 + 1e-9) | (vals < lower - 1e-9))[0]
    if bad.size:
        return NormValidation(False, checks,
                              "value leaves the band max(1-u,u) <= psi <= 1",
                              triple(int(bad[0])))
    mid_excess = vals[1:-1] - 0.5 * (vals[:-2] + vals[2:])
    bad = np.nonzero(mid_excess > 1e-9)[0]
    if bad.size:
        return NormValidation(False, checks, "generator is not convex",
                              triple(int(bad[0]) + 1))
    return NormValidation(True, checks)


def boundary_completion(n: AbsoluteNorm2, r: float, s: float, which: str) -> float:
    """Maximal completion of a unit pair along one axis.

    ``(r, s)`` must lie on the unit sphere of ``n`` (within 1e-9, else
    :class:`NotOnSphere`).  For ``which="second_coord"`` the second coordinate
    is pushed to one and the result is the largest ``t >= 0`` with
    ``n(t, 1) = 1``, carrying the sign of ``r``; for ``which="first_coord"``
    the roles are exchanged and the result carries the sign of ``s``.  The
    value is located by bisection to 1e-12.  It depends only on the
    generator and the axis, so the bisection runs once per pair and its
    result is kept on the generator; the sphere check runs on every call.
    """
    if which not in ("second_coord", "first_coord"):
        raise RangeError(f"which must be 'second_coord' or 'first_coord', got {which!r}")
    val = n.value((r, s))
    if abs(val - 1.0) > TOL_SPHERE:
        raise NotOnSphere(f"|({r}, {s})| = {val} is not 1 within {TOL_SPHERE}")
    t = n._completion.get(which)
    if t is None:
        m = n if which == "second_coord" else n.swapped()
        t = _completion_bisection(m)
        n._completion[which] = t
    sign_src = r if which == "second_coord" else s
    return math.copysign(t, sign_src) if sign_src != 0.0 else t


def _completion_bisection(m: AbsoluteNorm2) -> float:
    """The largest ``t`` in [0, 1] with ``m(t, 1) <= 1 + 1e-13``, by a
    60-step bisection."""
    if m.value((1.0, 1.0)) <= 1.0 + 1e-13:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if m.value((mid, 1.0)) <= 1.0 + 1e-13:
            lo = mid
        else:
            hi = mid
    return lo


def dual_pair(n: AbsoluteNorm2, point) -> np.ndarray:
    """Supporting functional at a unit vector, with the deterministic
    tie-break of :meth:`AbsoluteNorm2.dual_pair`.

    Raises :class:`NotOnSphere` when ``point`` is not on the unit sphere
    within 1e-9.
    """
    val = n.value(point)
    if abs(val - 1.0) > TOL_SPHERE:
        raise NotOnSphere(f"|{point!r}| = {val} is not 1 within {TOL_SPHERE}")
    return n.dual_pair(point)


def lemma_fact_delta(n: AbsoluteNorm2, epsilon: float, resolution: int = 10000) -> float:
    """Threshold for completing nearly-vertical unit pairs.

    Returns the largest ``delta`` (capped at ``1 - 1e-9``) such that every
    unit pair ``(a, b)`` of the positive quadrant with ``b > 1 - delta``
    satisfies ``a <= t_max + epsilon``, where ``t_max`` is the maximal
    first coordinate among unit pairs with second coordinate one.  Pairs
    within the threshold therefore admit a completion ``(t, 1)`` on the
    sphere with ``|t - a| <= epsilon``.  The exact value,
    ``1 - sup_height(t_max + epsilon)``, is certified on a ``resolution``
    point sweep of the sphere.  The sweep takes the sphere points
    ``(1 - u, u) / f(1 - u, u)`` of ``resolution`` evenly spaced ``u`` in
    one :meth:`AbsoluteNorm2.values` call, and lowers ``delta`` to the
    smallest ``max(1 - b, 1e-12)`` over the points with ``b > 1 - delta``
    and ``a > t_max + epsilon + 1e-9``.  That is the value a point-by-point
    sweep reaches: a point it would skip has ``1 - b`` at or above the
    running ``delta``, so it cannot lower the minimum.
    """
    if epsilon <= 0.0:
        raise RangeError(f"epsilon must be positive, got {epsilon}")
    cap = 1.0 - 1e-9
    cut = n._t_max + epsilon
    delta = min(1.0 - n.sup_height(cut), cap)
    u = np.linspace(0.0, 1.0, resolution)
    rows = np.column_stack([1.0 - u, u])
    a, b = (rows / n.values(rows)[:, None]).T
    bad = (b > 1.0 - delta) & (a > cut + 1e-9)
    return float(np.maximum(1.0 - b[bad], 1e-12).min(initial=delta))
