"""Approximate hyperplane witnesses and their direct-sum assembly.

A witness for a convex series of unit vectors is a heavy index set A, a
unit functional, and unit points z_k in that functional's face with
``z_k`` close to the series points.  This module provides:

* the witness type and its verifier;
* face-approximation oracles for uniformly convex spaces (the modulus of
  convexity drives the distance guarantee) and for polyhedral planes
  (faces are segments; a positive gap separates off-face vertices);
* exact face points read from the geometry, one rule per lattice and a
  blockwise rule for direct sums, shared by the oracles and the
  finite-dimensional witness constructor;
* the two-summand pipeline: profile-level witness in the plane, lifted
  points, a heavy-set filter, and a three-way case split on the dual
  components of the norming functional, every promised inequality being
  re-checked numerically;
* the restriction of a sum-level witness to one summand at doubled eps.

Every stage runs on row arrays: the series points are coerced once into an
``(n, dim)`` array, profiles come from one ``DirectSumSpace.profiles``
call, lifted and witness points are built by column-slice arithmetic, and
each distance, pairing or norm bound over the points is one ``norms`` call
or one matrix product.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .absolute import AbsoluteNorm2, boundary_completion, lemma_fact_delta
from .bpb import HYPOTHESIS_SLACK, ConvexSeries, filter_large_real_part
from .certs import Certificate, check, ensure
from .errors import (DimensionError, HypothesisError,
                     InternalInvariantError, NotUniformlyConvex,
                     OracleViolation, RangeError, WitnessSearchFailed)
from .lattices import (Absolute2Lattice, LpLattice, WeightedL1Lattice,
                       _one_hot)
from .moduli import convexity_modulus
from .spaces import (DirectSumSpace, LatticeSpace, LpSpace, NormedSpace,
                     PlaneSpace, _scalar_from_json, _scalar_to_json,
                     space_from_json)
from .util import TOL_SPHERE, json_int

#: Additive hypothesis slack at the top of the direct-sum pipeline; the
#: honest entry threshold collapses below float resolution, so admission is
#: decided up to this slack while every downstream inequality is still
#: checked at its stated bound.
DIRECT_SUM_SLACK = 1e-8

#: Floors for the direct-sum parameter block.
AHSP_S_FLOOR = 1e-4
AHSP_R_FLOOR = 1e-6


@dataclass(frozen=True)
class AhspWitness:
    """Heavy set, face points, and the functional that ties them together.

    ``indices[j]`` is the series position witnessed by ``points[j]``; the
    points are unit vectors on which ``functional`` takes the value one,
    and ``functional`` has dual norm one, all within ``TOL_SPHERE``.
    """

    space: NormedSpace
    indices: tuple[int, ...]
    points: tuple[np.ndarray, ...]
    functional: np.ndarray
    epsilon: float
    certificates: tuple[Certificate, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "indices": list(self.indices),
            "points": [[_scalar_to_json(v) for v in p]
                       for p in self.points],
            "functional": [_scalar_to_json(v) for v in self.functional],
            "epsilon": self.epsilon,
        }


def witness_from_json(data: dict) -> AhspWitness:
    space = space_from_json(data["space"])
    return AhspWitness(
        space=space,
        indices=tuple(json_int(i, "witness index") for i in data["indices"]),
        points=tuple(
            space.coerce(np.array([_scalar_from_json(v) for v in p]))
            for p in data["points"]),
        functional=space.coerce(np.array([_scalar_from_json(v)
                                          for v in data["functional"]])),
        epsilon=float(data["epsilon"]),
    )


def _point_rows(space: NormedSpace, points) -> np.ndarray:
    """A sequence of points (or an ``(n, dim)`` array) as one coerced
    ``(n, dim)`` array, a fresh copy; no points give shape ``(0, dim)``."""
    try:
        arr = np.asarray(points).reshape(len(points), space.dim)
    except ValueError as exc:
        raise DimensionError(
            f"expected {len(points)} points of length {space.dim}") from exc
    return space.coerce_rows(arr)


def verify_ahsp_witness(series: ConvexSeries,
                        witness: AhspWitness) -> list[Certificate]:
    """Recompute the three witness conditions with fresh evaluations.

    Returns certificates for the heavy mass (> 1 - eps), the point
    distances (< eps), unit points, face values, and the unit functional;
    a failed condition is a failed certificate, not an exception.  The
    points are coerced once as rows; one ``norms`` call gives their norms,
    one their distances to the series points, and one product their face
    values.  With no points the deviations are zero.

    Raises :class:`RangeError`, before any evaluation, when the index set
    does not name distinct positions of the series (an index out of
    range, negative or repeated) or when there is not exactly one point
    per index: the mass would otherwise count weights that no point
    witnesses.
    """
    space, eps = witness.space, witness.epsilon
    w = series.weights
    seen = set()
    for k in witness.indices:
        if not 0 <= k < len(w):
            raise RangeError(f"witness index {k} is not a position of the "
                             f"{len(w)}-point series")
        if k in seen:
            raise RangeError(f"witness index {k} is repeated")
        seen.add(k)
    if len(witness.points) != len(witness.indices):
        raise RangeError(f"the witness has {len(witness.points)} points for "
                         f"{len(witness.indices)} indices")
    mass = float(sum(w[k] for k in witness.indices))
    f = space.coerce(witness.functional)
    Z = _point_rows(space, witness.points)
    X = _point_rows(space, series.payload[list(witness.indices)])
    unit_dev = float(np.abs(space.norms(Z) - 1.0).max(initial=0.0))
    face_dev = float(np.abs(np.real(Z @ f) - 1.0).max(initial=0.0))
    dist_max = float(space.norms(Z - X).max(initial=0.0))
    return [
        check("witness-mass", mass, ">", 1.0 - eps),
        check("witness-distance", dist_max, "<", eps),
        check("witness-point-unit", unit_dev, "<=", 0.0, tol=TOL_SPHERE),
        check("witness-face-value", face_dev, "<=", 0.0, tol=TOL_SPHERE),
        check("witness-functional-unit",
              abs(space.dual_norm(f) - 1.0), "<=", 0.0,
              tol=TOL_SPHERE),
    ]


# -- face machinery ---------------------------------------------------------


def _project_segment(gen: AbsoluteNorm2, p: np.ndarray, va: np.ndarray,
                     vb: np.ndarray) -> np.ndarray:
    """Nearest point (in the polyhedral generator norm) to ``p`` on [va, vb].

    The residual ``p - (va + lam (vb - va))`` moves along a line, and the
    norm is linear on each cone between the rays through the sphere
    vertices ``(+-vx, vy)`` (the vertices include the axis points), so the
    cost is convex and piecewise linear in ``lam`` with its kinks where the
    residual crosses those rays.  The cost is evaluated at ``lam`` = 0, 1
    and every crossing in (0, 1) in one :meth:`AbsoluteNorm2.values` call.
    Tie rule: among candidates of equal computed cost the smallest ``lam``
    (the one nearest ``va``) wins.  An endpoint is returned as ``va`` or
    ``vb`` itself; an interior point as ``p`` minus its residual, so a
    residual of exactly zero gives ``p`` itself.  (``p`` minus the residual
    at ``lam`` = 0 or 1 can miss a short segment's endpoint by rounding.)
    """
    d = vb - va
    q = p - va
    v = np.array(gen.vertices)
    rays = np.vstack([v, v * [-1.0, 1.0]])
    num = q[0] * rays[:, 1] - q[1] * rays[:, 0]
    den = d[0] * rays[:, 1] - d[1] * rays[:, 0]
    # a crossing lies in (0, 1) only if |num| < |den|; dividing only there
    # keeps the quotient finite
    near = np.abs(num) < np.abs(den)
    cross = num[near] / den[near]
    lams = np.unique(np.concatenate([[0.0, 1.0],
                                     cross[(cross > 0.0) & (cross < 1.0)]]))
    residuals = q - lams[:, None] * d
    k = int(np.argmin(gen.values(residuals)))
    if lams[k] == 0.0:
        return va.copy()
    if lams[k] == 1.0:
        return vb.copy()
    return p - residuals[k]


def _polyhedral_face_point(gen: AbsoluteNorm2, fv, xv) -> np.ndarray:
    """Nearest point to ``xv`` on the face of ``fv`` (polyhedral generator
    ``gen``): the face is the convex hull of the sphere vertices the
    functional supports, pushed into the functional's sign quadrant.  Where
    the functional vanishes the face is symmetric across that axis, and the
    norm is absolute, so the nearest point shares ``xv``'s sign there."""
    signs = np.where(np.where(fv == 0.0, xv, fv) < 0.0, -1.0, 1.0)
    verts = [signs * np.array(v) for v in gen.face_vertices(np.abs(fv))]
    best = None
    best_d = math.inf
    for i, v in enumerate(verts):
        cands = [v]
        if i + 1 < len(verts):
            cands.append(_project_segment(gen, xv, v, verts[i + 1]))
        for z in cands:
            d = gen.value(xv - z)
            if d < best_d:
                best, best_d = z, d
    return best


def _rotund(space: NormedSpace) -> bool:
    """Whether every face is a single point: euclidean spaces, lattices that
    are lp with 1 < p < inf or a smooth plane generator, and direct sums of
    rotund components under a rotund combiner (a strictly convex, strictly
    monotone E over strictly convex blocks gives a strictly convex sum)."""
    if space.kind == "direct_sum":
        return all(map(_rotund, [LatticeSpace(space.combiner),
                                 *space.components]))
    lat = getattr(space, "lattice", None)  # None on euclidean spaces
    if isinstance(lat, Absolute2Lattice):
        return lat.norm2.is_smooth
    return space.kind == "euclidean" or (isinstance(lat, LpLattice)
                                         and 1.0 < lat.p < math.inf)


def _face_point(space: NormedSpace, functional, x) -> np.ndarray:
    """A point on the face of the unit ``functional``, near ``x``: the
    attaining vector when the face is a point, else one rule per lattice
    read through ``space.lattice`` (the nearest point by polygon search for
    a polyhedral generator, the l-infinity form, one weighted-l1 form with
    lp(1) as unit weights) or the blockwise point of a direct sum.  The
    weighted-l1 and blockwise points are on the face, not claimed nearest."""
    if _rotund(space):
        return space.attaining_vector(functional)
    fv = space.coerce(functional)
    xv = space.coerce(x)
    if space.kind == "direct_sum":
        return _blockwise_face_point(space, fv, xv)
    lat = space.lattice
    if isinstance(lat, Absolute2Lattice):
        return _polyhedral_face_point(lat.norm2, fv, xv)
    sgn = np.where(fv < 0.0, -1.0, 1.0)
    if isinstance(lat, LpLattice) and lat.p == math.inf:
        return np.where(np.abs(fv) > 1e-15, sgn, np.clip(xv, -1.0, 1.0))
    # lp(1) or weighted l1: the face is the hull of the signed e_i / w_i
    # with |f_i| = w_i; x's part in the face's orthant, rescaled
    weights = (lat.weights if isinstance(lat, WeightedL1Lattice)
               else np.ones(space.dim))
    support = np.abs(fv) / weights >= 1.0 - 1e-12
    w = np.where(support, np.maximum(xv * sgn, 0.0), 0.0)
    total = float((weights * w).sum())
    if total == 0.0:  # x has no mass on the face: its first vertex
        i0 = int(np.nonzero(support)[0][0])
        return _one_hot(space.dim, [i0], sgn[i0] / weights[i0])[0]
    return sgn * w / total


def _blockwise_face_point(space: DirectSumSpace, fv: np.ndarray,
                          xv: np.ndarray) -> np.ndarray:
    """:meth:`DirectSumSpace.attaining_vectors` with face points for its
    attaining vectors: p is E's face point of the dual profile d near the
    profile of ``xv``; block i is ``p_i`` times the component's face point
    of ``f_i / d_i`` near x_i's unit direction (the canonical unit on a zero
    block), or ``p_i`` times that direction where ``d_i = 0``.  So
    f(z) = <d, p> = 1 = |p|_E."""
    d = space.dual_profile(fv)
    prof = space.profile(xv)
    p = _face_point(LatticeSpace(space.combiner), d, prof)
    blocks = []
    for comp, f_i, x_i, d_i, r_i, p_i in zip(
            space.components, space.split(fv), space.split(xv), d, prof, p):
        x_hat = x_i / r_i if r_i > 0.0 else comp.canonical_unit()
        face = _face_point(comp, f_i / d_i, x_hat) if d_i > 0.0 else x_hat
        blocks.append(p_i * face)
    return np.concatenate(blocks)


def _face_points(space: NormedSpace, functional,
                 rows: np.ndarray) -> np.ndarray:
    """:func:`_face_point` of every row of a coerced ``(n, dim)`` array, as
    a fresh ``(n, dim)`` array.  On rotund kinds the face is one point, so
    it is computed once."""
    if _rotund(space):
        z = space.attaining_vector(functional)
        return np.repeat(z[None, :], len(rows), axis=0)
    return np.array([_face_point(space, functional, x) for x in rows],
                    dtype=space.dtype).reshape(len(rows), space.dim)


def finite_dim_witness(space: NormedSpace, series: ConvexSeries,
                       epsilon: float, eta: float,
                       slack: float = 0.0) -> AhspWitness:
    """Witness for a series of ball vectors in a finite-dimensional space.

    The functional norms the weighted sum; the heavy set keeps the indices
    whose value exceeds ``1 - eta/epsilon`` (so its mass exceeds
    ``1 - epsilon``); each kept point is projected onto the functional's
    face.  The result is verified before returning, and
    :class:`WitnessSearchFailed` reports the failed certificates.
    """
    if not 0.0 < epsilon < 1.0:
        raise RangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < eta < epsilon:
        raise RangeError(
            f"eta must lie in (0, epsilon) for the mass policy, got {eta}")
    pts = _point_rows(space, series.payload)
    top = float(space.norms(pts).max(initial=0.0))
    if top > 1.0 + TOL_SPHERE:
        raise RangeError(
            f"series points must lie in the unit ball (max norm {top})")
    total = sum(w * p for w, p in zip(series.weights, pts))
    total_norm = space.norm(total)
    if not total_norm > 1.0 - eta - slack - HYPOTHESIS_SLACK:
        raise HypothesisError(
            f"|sum a_k x_k| = {total_norm} is not above 1 - eta = {1.0 - eta}")
    x_star = space.norming_functional(total)
    values = np.real(pts @ x_star)
    r = 1.0 - eta / epsilon
    picked = filter_large_real_part(
        ConvexSeries(series.weights, values, strict=series.strict),
        eta + slack + HYPOTHESIS_SLACK, r)
    A = picked.indices
    if not A:
        raise WitnessSearchFailed(
            f"no series point exceeded the face threshold {r}",
            residuals={"max-value": float(values.max())})

    zs = tuple(_face_points(space, x_star, pts[list(A)]))
    report = verify_ahsp_witness(series, AhspWitness(space, A, zs, x_star,
                                                     epsilon))
    if not all(c.passed for c in report):
        raise WitnessSearchFailed(
            f"no witness met epsilon = {epsilon}",
            residuals={c.name: c.margin for c in report if not c.passed})
    return AhspWitness(space, A, zs, x_star, epsilon, tuple(report))


# -- series-level oracles ---------------------------------------------------


class AhspOracle(ABC):
    """Witness factory for one space, with two entry points.

    ``witness`` consumes a convex series and a target eps under the
    hypothesis ``|sum a_k x_k| > 1 - eta(eps)``.  ``witness_ball`` consumes
    ball points together with a unit functional already known to nearly
    support every point (``Re w*(p_k) > 1 - eta_ball(eps)``) and returns
    kept positions (into ``points``), one face point per kept position, and
    the output functional: the i-th face point stands for
    ``points[kept[i]]``, so an oracle may drop points.  Implementations
    self-check their distance contract and raise :class:`OracleViolation`
    rather than return an invalid answer.
    """

    space: NormedSpace

    @abstractmethod
    def eta(self, epsilon: float) -> float:
        ...

    @abstractmethod
    def eta_ball(self, epsilon: float) -> float:
        ...

    @abstractmethod
    def witness(self, series: ConvexSeries, epsilon: float,
                slack: float = 0.0) -> AhspWitness:
        ...

    @abstractmethod
    def witness_ball(self, weights, points, functional, epsilon: float
                     ) -> tuple[tuple[int, ...], list[np.ndarray], np.ndarray]:
        ...


class _FaceOracle(AhspOracle):
    """Witness oracle built on a face projection.

    ``eta(eps) = 0.9 eps theta(eps)``; series witnesses come from
    :func:`finite_dim_witness`, and ball witnesses project every point onto
    the face of the given functional.  Subclasses supply ``theta`` and
    ``eta_ball``.
    """

    @abstractmethod
    def theta(self, epsilon: float) -> float:
        ...

    def face_point(self, y_star: np.ndarray, x=None) -> np.ndarray:
        """:func:`_face_point` of ``y_star`` near ``x`` (the face itself
        when it is a single point, so ``x`` may be omitted there)."""
        return _face_point(self.space, y_star, x)

    def eta(self, epsilon: float) -> float:
        return 0.9 * epsilon * self.theta(epsilon)

    def witness(self, series: ConvexSeries, epsilon: float,
                slack: float = 0.0) -> AhspWitness:
        return finite_dim_witness(self.space, series, epsilon,
                                  self.eta(epsilon), slack=slack)

    def face_points(self, y_star: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """:meth:`face_point` of every row of a coerced ``(n, dim)`` array."""
        return _face_points(self.space, y_star, rows)

    def witness_ball(self, weights, points, functional, epsilon):
        """Every point projected onto the face of ``functional``: the
        pairings come from one product, the distances from one ``norms``
        call.  The first point (in order) whose pairing is not above
        ``1 - eta_ball`` raises :class:`HypothesisError`, and the first
        whose face distance is not below ``epsilon`` raises
        :class:`OracleViolation`; points past the first pairing failure
        are not projected."""
        space = self.space
        w_star = space.coerce(functional)
        if abs(space.dual_norm(w_star) - 1.0) > TOL_SPHERE:
            raise RangeError("witness_ball requires a unit functional")
        bar = 1.0 - self.eta_ball(epsilon)
        P = _point_rows(space, points)
        vals = np.real(P @ w_star)
        low = np.flatnonzero(~(vals > bar - 1e-12))
        n = int(low[0]) if low.size else len(P)
        Z = self.face_points(w_star, P[:n])
        d = space.norms(P[:n] - Z)
        far = np.flatnonzero(~(d < epsilon + 1e-12))
        if far.size:
            j = int(far[0])
            raise OracleViolation(f"point {j}: face distance {float(d[j])} "
                                  f"is not below {epsilon}")
        if n < len(P):
            raise HypothesisError(
                f"point {n}: Re w*(p) = {float(vals[n])} is not above {bar}")
        return tuple(range(len(P))), list(Z), w_star


class UniformlyConvexAhspOracle(_FaceOracle):
    """Witnesses in a uniformly convex space: every face is one point.

    ``delta`` is the closed-form modulus of convexity (of lp(dim, p) when
    the space's lattice is an lp(p) norm); ``theta(eps)`` is the modulus
    at ``0.8 eps`` (floored at 1e-9); ``eta_ball`` is the modulus itself,
    which turns a near-support inequality into a distance bound.  Raises
    :class:`NotUniformlyConvex` for kinds with flat faces and for direct
    sums, which have no closed-form modulus.
    """

    def __init__(self, space: NormedSpace):
        if not _rotund(space):
            raise NotUniformlyConvex(
                f"space kind {space.kind!r} has no uniformly convex modulus here")
        if space.kind == "direct_sum":
            raise NotUniformlyConvex(
                "a rotund direct sum has no closed-form convexity modulus")
        self._modulus_space = space
        if space.kind not in ("euclidean", "lp"):
            lat = space.lattice
            p = lat.norm2.p if isinstance(lat, Absolute2Lattice) else lat.p
            self._modulus_space = LpSpace(space.dim, p)
        self.space = space

    def delta(self, epsilon: float) -> float:
        """Modulus of convexity; :class:`RangeError` outside (0, 2]."""
        return convexity_modulus(self._modulus_space, epsilon,
                                 method="closed_form")

    def theta(self, epsilon: float) -> float:
        return max(self.delta(0.8 * epsilon), 1e-9)

    def eta_ball(self, epsilon: float) -> float:
        return self.delta(epsilon)

    def upsilon(self, x_star: np.ndarray) -> np.ndarray:
        """Identity on the norming set (unit functionals)."""
        return self.space.coerce(x_star)


#: Former names of the uniformly convex face oracle and its factory.
UniformlyConvexAhpOracle = UniformlyConvexAhspOracle
ahp_oracle_uniformly_convex = UniformlyConvexAhspOracle


class PolyhedralPlaneAhspOracle(_FaceOracle):
    """Witnesses in a plane with a polyhedral generator.

    Faces are segments between sphere vertices; the face gap g bounds how
    far a unit vector with value above ``1 - theta`` can sit from the face
    (by ``2 theta / g``), so ``theta(eps) = 0.45 g eps`` keeps projections
    inside ``0.9 eps``.
    """

    def __init__(self, space: PlaneSpace):
        if space.generator.is_smooth:
            raise RangeError("use the uniformly convex oracle for smooth generators")
        self.space = space
        self.gap = space.generator.face_gap()

    def witness_ball(self, weights, points, functional, epsilon):
        """Raises :class:`RangeError` unless ``|functional|`` is within 1e-9
        (max-abs) of an extreme dual point: no ``eta_ball`` serves the
        functionals near but not at one, whose face gap tends to 0."""
        extreme = np.array(self.space.generator.support_candidates())
        gap = np.abs(extreme - np.abs(self.space.coerce(functional)))
        if not (gap.max(axis=1) <= 1e-9).any():
            raise RangeError("witness_ball on a polyhedral plane requires "
                             "an extreme dual point")
        return super().witness_ball(weights, points, functional, epsilon)

    def theta(self, epsilon: float) -> float:
        return max(0.45 * self.gap * epsilon, 1e-9)

    def eta_ball(self, epsilon: float) -> float:
        return self.theta(epsilon)


def ahsp_oracle_for(space: NormedSpace) -> AhspOracle:
    """The built-in witness oracle matching the space's geometry."""
    if space.kind == "absolute2" and not space.generator.is_smooth:
        return PolyhedralPlaneAhspOracle(space)
    return UniformlyConvexAhspOracle(space)


def plane_ahsp_oracle(f: AbsoluteNorm2) -> AhspOracle:
    return ahsp_oracle_for(PlaneSpace(f))


# -- two-summand pipeline ---------------------------------------------------


@dataclass(frozen=True)
class EtaPolicy:
    """Parameter block of the two-summand witness.

    ``raw_s``/``raw_r`` are 0.9 times the binding strict bounds
    (``s < min(delta/2, eta1/2)``, ``r < min(delta/2, s^2 eta1)``,
    ``eps1 < eps/8``, ``eps0 < r eps/8``); floors lift ``s`` and ``r`` out
    of float-noise territory, flagged when active — downstream inequalities
    are then carried by the runtime certificates, not the raw chain.
    """

    epsilon: float
    epsilon1: float
    eta1: float
    delta: float
    s: float
    r: float
    epsilon0: float
    eta0: float
    raw_s: float
    raw_r: float
    s_floored: bool
    r_floored: bool


def eta_policy(f: AbsoluteNorm2, oracle_M: AhspOracle, oracle_N: AhspOracle,
               epsilon: float) -> EtaPolicy:
    if not 0.0 < epsilon < 1.0:
        raise RangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    epsilon1 = 0.9 * epsilon / 8.0
    eta1 = min(oracle_M.eta_ball(epsilon1), oracle_N.eta_ball(epsilon1))
    delta = min(lemma_fact_delta(f, epsilon / 5.0),
                lemma_fact_delta(f.swapped(), epsilon / 5.0))
    raw_s = 0.9 * min(delta / 2.0, eta1 / 2.0)
    s = min(max(raw_s, AHSP_S_FLOOR), 0.45)
    raw_r = 0.9 * min(delta / 2.0, s * s * eta1)
    r = min(max(raw_r, AHSP_R_FLOOR), s)
    epsilon0 = 0.9 * r * epsilon / 8.0
    eta0 = plane_ahsp_oracle(f).eta(epsilon0)
    return EtaPolicy(epsilon, epsilon1, eta1, delta, s, r, epsilon0, eta0,
                     raw_s, raw_r, s > raw_s, r > raw_r)


def direct_sum_space(M: NormedSpace, N: NormedSpace,
                     f: AbsoluteNorm2) -> DirectSumSpace:
    return DirectSumSpace([M, N], Absolute2Lattice(f))


def direct_sum_witness(M: NormedSpace, N: NormedSpace, f: AbsoluteNorm2,
                       series: ConvexSeries, epsilon: float,
                       oracle_M: AhspOracle | None = None,
                       oracle_N: AhspOracle | None = None,
                       policy: EtaPolicy | None = None) -> AhspWitness:
    """Witness for a series of unit vectors in ``M (+)_f N``.

    Pipeline: plane-level witness on the block-norm profiles; lift to unit
    vectors with the witnessed profiles; filter the heavy set against the
    norming functional of the lifted mass; split that functional into its
    two dual components and branch on which components are tiny.  Each
    branch assembles face points and a functional whose value on them is
    exactly one; every inequality the construction relies on is emitted as
    a certificate, and the final witness re-passes the standalone verifier.
    """
    oracle_M = oracle_M or ahsp_oracle_for(M)
    oracle_N = oracle_N or ahsp_oracle_for(N)
    pol = policy or eta_policy(f, oracle_M, oracle_N, epsilon)
    X = direct_sum_space(M, N, f)
    plane = PlaneSpace(f)
    certs: list[Certificate] = []

    pts = _point_rows(X, series.payload)
    total = sum(w * p for w, p in zip(series.weights, pts))
    total_norm = X.norm(total)
    certs.append(check("series-hypothesis", total_norm, ">=", 1.0 - pol.eta0,
                       tol=DIRECT_SUM_SLACK))
    if not certs[-1].passed:
        raise HypothesisError(
            f"|sum a_k x_k| = {total_norm} is not above 1 - eta0 = "
            f"{1.0 - pol.eta0} (slack {DIRECT_SUM_SLACK})")

    profiles = X.profiles(pts)
    w2 = finite_dim_witness(plane, ConvexSeries(series.weights, profiles),
                            pol.epsilon0, pol.eta0, slack=DIRECT_SUM_SLACK)
    A = w2.indices
    al, be = (float(v) for v in plane.coerce(w2.functional))
    # one row per index of A: series points, their profiles, the witnessed
    # profiles (R), unit block directions and lifted points (Y)
    rows_A = pts[list(A)]
    prof_A = profiles[list(A)]
    R = np.array(w2.points)
    m_hat = _directions(rows_A[:, :M.dim], prof_A[:, 0], M.canonical_unit())
    n_hat = _directions(rows_A[:, M.dim:], prof_A[:, 1], N.canonical_unit())
    Y = np.hstack([R[:, :1] * m_hat, R[:, 1:] * n_hat])
    coord_err_1 = float(np.abs(R[:, 0] - prof_A[:, 0]).max(initial=0.0))
    coord_err_2 = float(np.abs(R[:, 1] - prof_A[:, 1]).max(initial=0.0))
    lift_err = float(X.norms(Y - rows_A).max(initial=0.0))
    certs.append(check("profile-error-first", coord_err_1, "<", pol.epsilon0))
    certs.append(check("profile-error-second", coord_err_2, "<", pol.epsilon0))
    certs.append(check("lifted-point-distance", lift_err, "<=", pol.epsilon0,
                       tol=1e-12))

    lifted_sum = sum(series.weights[k] * y for k, y in zip(A, Y))
    lifted_norm = X.norm(lifted_sum)
    certs.append(check("lifted-mass-norm", lifted_norm, ">",
                       1.0 - 4.0 * pol.epsilon0))
    x_star = X.norming_functional(lifted_sum)

    heavy = np.flatnonzero(np.real(Y @ x_star) > 1.0 - pol.r)
    B = [A[j] for j in heavy]
    mass_B = float(sum(series.weights[k] for k in B))
    certs.append(check("heavy-mass", mass_B, ">",
                       1.0 - 4.0 * pol.epsilon0 / pol.r))
    if not B:
        ensure(certs)
        raise InternalInvariantError("the heavy set is empty")

    # from here on rows follow B
    R, m_hat, n_hat = R[heavy], m_hat[heavy], n_hat[heavy]
    m_star, n_star = X.split(x_star)
    mu, nu = M.dual_norm(m_star), N.dual_norm(n_star)
    split_gap_1 = float(np.max(mu * R[:, 0]
                               - np.real((R[:, :1] * m_hat) @ m_star)))
    split_gap_2 = float(np.max(nu * R[:, 1]
                               - np.real((R[:, 1:] * n_hat) @ n_star)))
    certs.append(check("support-split-first", split_gap_1, "<=", pol.r,
                       tol=1e-12))
    certs.append(check("support-split-second", split_gap_2, "<=", pol.r,
                       tol=1e-12))

    weights_B = [float(series.weights[k]) for k in B]

    if mu <= pol.s:
        indices, Z, functional, dists = _tiny_side_branch(
            X, M, N, f, pol, certs, series, pts, B, weights_B, R, m_hat,
            n_hat, n_star, nu, oracle_N, first_tiny=True)
    elif nu <= pol.s:
        indices, Z, functional, dists = _tiny_side_branch(
            X, M, N, f, pol, certs, series, pts, B, weights_B, R, m_hat,
            n_hat, m_star, mu, oracle_M, first_tiny=False)
    else:
        indices, Z, functional, dists = _both_sides_branch(
            X, M, N, pol, certs, series, pts, B, R, m_hat, n_hat,
            m_star, mu, n_star, nu, oracle_M, oracle_N, al, be)

    certs.append(check("witness-distance-final",
                       float(dists.max(initial=0.0)), "<", epsilon))
    points = tuple(Z)
    witness = AhspWitness(X, indices, points, functional, epsilon)
    final = verify_ahsp_witness(series, witness)
    certs.extend(final)
    ensure(certs)
    return AhspWitness(X, indices, points, functional, epsilon, tuple(certs))


def _directions(blocks: np.ndarray, norms: np.ndarray,
                fallback: np.ndarray) -> np.ndarray:
    """Each row of ``blocks`` divided by its norm (from ``norms``); a row
    of norm zero becomes ``fallback``."""
    nonzero = norms > 0.0
    safe = np.where(nonzero, norms, 1.0)
    return np.where(nonzero[:, None], blocks / safe[:, None], fallback)


def _tiny_side_branch(X, M, N, f, pol, certs, series, pts, B, weights_B, R,
                      m_hat, n_hat, active_star, active_norm, active_oracle,
                      first_tiny: bool):
    """One dual component is tiny: the witness lives (up to a completion
    coefficient) on the other summand.  ``first_tiny`` means the first
    summand's dual component is the tiny one, so the second is active.
    ``R``, ``m_hat`` and ``n_hat`` hold one row per index of ``B``; returns
    the kept indices, their points as rows, the functional, and the
    points' distances to the series points."""
    side = "second" if first_tiny else "first"
    active_space = N if first_tiny else M
    passive_hat = m_hat if first_tiny else n_hat
    active_hat = n_hat if first_tiny else m_hat
    act = 1 if first_tiny else 0

    min_active_prof = float(R[:, act].min())
    certs.append(check(f"{side}-profile-large", min_active_prof, ">=",
                       1.0 - pol.r - pol.s, tol=1e-12))
    a_hat_star = active_space.coerce(active_star) / active_norm
    active_pts = R[:, act, None] * active_hat
    min_val = float(np.real(active_pts @ a_hat_star).min())
    certs.append(check(f"{side}-component-hypothesis", min_val, ">",
                       1.0 - pol.eta1))

    kept, face_pts, out_star = active_oracle.witness_ball(
        weights_B, active_pts, a_hat_star, pol.epsilon1)
    kept = list(kept)
    C = [B[j] for j in kept]
    mass_C = float(sum(series.weights[k] for k in C))
    certs.append(check("witness-mass-chain", mass_C, ">",
                       1.0 - pol.epsilon1 - 4.0 * pol.epsilon0 / pol.r))

    eps = pol.epsilon
    which = "second_coord" if first_tiny else "first_coord"
    completion_err = 0.0
    coefs = []
    for j in kept:
        r_k, s_k = float(R[j, 0]), float(R[j, 1])
        t = boundary_completion(f, r_k, s_k, which)
        c_k = r_k if first_tiny else s_k  # the passive coordinate
        a_k = math.copysign(min(abs(c_k), abs(t)), c_k) if c_k else 0.0
        completion_err = max(completion_err, abs(a_k - c_k))
        coefs.append(a_k)
    certs.append(check("completion-error", completion_err, "<=", eps / 5.0,
                       tol=1e-9))
    passive = np.array(coefs).reshape(-1, 1) * passive_hat[kept]
    faces = _point_rows(active_space, face_pts)
    Z = np.hstack([passive, faces] if first_tiny else [faces, passive])
    functional = X.embed([np.zeros(M.dim), out_star] if first_tiny
                         else [out_star, np.zeros(N.dim)])
    bound = eps / 5.0 + pol.epsilon1 + 2.0 * pol.epsilon0
    dists = X.norms(Z - pts[C])
    certs.append(check("witness-distance-chain", float(dists.max(initial=0.0)),
                       "<=", bound, tol=1e-12))
    return tuple(C), Z, functional, dists


def _both_sides_branch(X, M, N, pol, certs, series, pts, B, R,
                       m_hat, n_hat, m_star, mu, n_star, nu,
                       oracle_M, oracle_N, al, be):
    """Both dual components are substantial: combine component witnesses on
    the indices where each profile coordinate is large, patching the small
    ones with the other side's canonical attaining vector.  Rows of ``R``,
    ``m_hat`` and ``n_hat`` follow ``B``; returns as
    :func:`_tiny_side_branch` does."""
    s = pol.s
    large_1 = R[:, 0] >= s
    large_2 = R[:, 1] >= s
    B1 = [k for k, big in zip(B, large_1) if big]
    C1 = [k for k, big in zip(B, large_2) if big]
    missing = float(np.sum(~large_1 & ~large_2))
    certs.append(check("split-first-covered", missing, "<=", 0.0))
    certs.append(check("split-second-covered", missing, "<=", 0.0))

    D1, u0, m1_star = _side_witness(M, oracle_M, B1, m_hat[large_1],
                                    M.coerce(m_star) / mu, "first",
                                    series, pol, certs)
    F1, v0, n1_star = _side_witness(N, oracle_N, C1, n_hat[large_2],
                                    N.coerce(n_star) / nu, "second",
                                    series, pol, certs)

    core = [k for k in B if k in D1 and k in F1]
    patch_first = [k for k in B if k not in B1 and k in F1]
    patch_second = [k for k in B if k not in C1 and k in D1]
    overlap = (len(set(core) & set(patch_first))
               + len(set(core) & set(patch_second))
               + len(set(patch_first) & set(patch_second)))
    certs.append(check("pieces-disjoint", float(overlap), "<=", 0.0))

    C = sorted(core + patch_first + patch_second)
    mass_C = float(sum(series.weights[k] for k in C))
    certs.append(check("witness-mass-chain", mass_C, ">",
                       1.0 - 4.0 * pol.epsilon0 / pol.r - 4.0 * pol.epsilon1))

    # a core index has both component witnesses; a first patch (small first
    # profile) has only the second, so its first block is u0; a second patch
    # has only the first, so its second block is v0
    row_of = {k: j for j, k in enumerate(B)}
    R_C = R[[row_of[k] for k in C]]
    Z = np.hstack([R_C[:, :1] * _point_rows(M, [D1.get(k, u0) for k in C]),
                   R_C[:, 1:] * _point_rows(N, [F1.get(k, v0) for k in C])])
    dists = X.norms(Z - pts[C])
    piece = np.array([0 if k in core else 1 if k in patch_first else 2
                      for k in C], dtype=int)
    d_core, d_first, d_second = (float(dists[piece == i].max(initial=0.0))
                                 for i in range(3))
    e0, e1 = pol.epsilon0, pol.epsilon1
    certs.append(check("witness-distance-core", d_core, "<=",
                       e1 + 2.0 * e0, tol=1e-12))
    certs.append(check("witness-distance-first-patch", d_first, "<=",
                       2.0 * s + e1 + 2.0 * e0, tol=1e-12))
    certs.append(check("witness-distance-second-patch", d_second, "<=",
                       e1 + 2.0 * s + 2.0 * e0, tol=1e-12))

    functional = np.concatenate([al * M.coerce(m1_star),
                                 be * N.coerce(n1_star)])
    return tuple(C), Z, functional, dists


def _side_witness(space, oracle, keys, hats, star, side, series, pol, certs):
    """One summand's component witness in :func:`_both_sides_branch`: face
    points by index of ``keys``, the output functional's attaining vector
    and that functional (with no indices: the canonical unit's pair)."""
    if not keys:
        u0 = space.canonical_unit()
        return {}, u0, space.norming_functional(u0)
    min_val = float(np.real(hats @ star).min())
    certs.append(check(f"{side}-component-hypothesis", min_val, ">",
                       1.0 - pol.eta1))
    kept, faces, out_star = oracle.witness_ball(
        [float(series.weights[k]) for k in keys], hats, star, pol.epsilon1)
    return ({keys[j]: faces[i] for i, j in enumerate(kept)},
            space.attaining_vector(out_star), out_star)


def restrict_witness(sum_space: DirectSumSpace, witness: AhspWitness,
                     component: int) -> AhspWitness:
    """Push a sum-level witness down to one summand, doubling epsilon.

    Valid when the witnessed series lived (up to the witness distance) in
    that summand: the block norms of the witness points must exceed
    ``1 - eps`` there and stay below ``eps`` elsewhere, the functional's
    block must attain the block norm exactly, and the normalized blocks
    become the component witness at ``2 eps``.
    """
    if not 0 <= component < len(sum_space.components):
        raise RangeError(f"no component {component} in the sum")
    comp = sum_space.components[component]
    eps_half = witness.epsilon
    certs: list[Certificate] = []

    m_star = sum_space.split(sum_space.coerce(witness.functional))[component]
    mu = comp.dual_norm(m_star)
    if mu <= TOL_SPHERE:
        raise InternalInvariantError(
            "the functional vanishes on the target summand, which the "
            "projection bounds exclude")

    Z = _point_rows(sum_space, witness.points)
    profiles = sum_space.profiles(Z)
    lo, hi = sum_space.offsets[component], sum_space.offsets[component + 1]
    blocks = Z[:, lo:hi]
    bn = profiles[:, component]
    rest = profiles.copy()
    rest[:, component] = 0.0
    min_inside = float(bn.min(initial=math.inf))
    max_outside = float(sum_space.combiner.norms(rest).max(initial=0.0))
    max_support_gap = float(np.abs(np.real(blocks @ m_star) - mu * bn)
                            .max(initial=0.0))
    certs.append(check("projection-dominant", min_inside, ">=",
                       1.0 - eps_half, tol=1e-12))
    certs.append(check("projection-remainder", max_outside, "<=", eps_half,
                       tol=1e-12))
    certs.append(check("support-equality", max_support_gap, "<=", 0.0,
                       tol=1e-9))
    ensure(certs)

    if np.any(bn == 0.0):
        raise InternalInvariantError(
            "a witness point has no mass in the target summand")
    points = blocks / bn[:, None]
    functional = comp.coerce(m_star) / mu
    shift = float(comp.norms(points - blocks).max(initial=0.0))
    certs.append(check("restricted-point-shift", shift, "<=", eps_half,
                       tol=1e-12))
    return AhspWitness(comp, witness.indices, tuple(points), functional,
                       2.0 * eps_half, tuple(certs))
