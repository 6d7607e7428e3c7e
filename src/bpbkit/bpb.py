"""Operator correction on l1-sums into a Hilbert space.

Given a norm-one operator T from an l1-sum of spaces into a Euclidean space
and a unit vector z0 with ``|T z0| > 1 - t^2``, the pipeline produces a new
norm-one operator R and a unit vector x0 with ``|R x0| = 1``, ``|R - T| <
eps`` and ``|x0 - z0| < eps``:

1. a parameter cascade fixes r, s, t from eps, the codomain's modulus of
   convexity, and the components' shared correction modulus;
2. the heavy components B are selected by comparing ``Re y*(T_i z0(i))``
   against ``(1 - t)|z0(i)|`` for the functional y* norming T z0;
3. a per-component oracle corrects each restriction to an exactly attaining
   pair, all images are rotated onto a common unit vector by aligning
   isometries, and the blocks are reassembled.

Every bound the construction promises is re-verified numerically and
returned as a certificate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .alignment import align_isometry
from .certs import Certificate, check, ensure
from .errors import (ConfigError, HypothesisError, InternalInvariantError,
                     InvalidModulus, OracleViolation, RangeError)
from .lattices import LpLattice
from .moduli import convexity_modulus
from .spaces import (DirectSumSpace, EuclideanSpace, NormedSpace, Operator,
                     operator_norm)

#: Additive slack for floating-point hypothesis comparisons.
HYPOTHESIS_SLACK = 1e-14

#: Parameter floors; honest cascade values collapse below float resolution
#: for small eps, so pipelines run on floored parameters and the output
#: certificates carry the truth.
S_FLOOR = 1e-4
T_FLOOR = 1e-6


@dataclass(frozen=True)
class ConvexSeries:
    """Nonnegative weights summing to (at most) one, with a payload per term.

    ``payload`` may hold scalars or vectors.  ``strict`` requires the total
    mass to equal one within 1e-12; otherwise mass at most one is accepted.
    """

    weights: np.ndarray
    payload: np.ndarray
    strict: bool = True

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "payload", np.asarray(self.payload))
        if self.payload.shape[0] != w.size:
            raise RangeError(
                f"{w.size} weights but {self.payload.shape[0]} payload entries")
        if np.any(w < -1e-12) or np.any(w > 1.0 + 1e-12):
            raise RangeError("weights must lie in [0, 1]")
        total = float(w.sum())
        if self.strict and abs(total - 1.0) > 1e-12:
            raise RangeError(f"weights sum to {total}, not 1")
        if not self.strict and total > 1.0 + 1e-12:
            raise RangeError(f"weights sum to {total} > 1")


@dataclass(frozen=True)
class FilterResult:
    """Index selection of the convex-mass filter."""

    indices: tuple[int, ...]
    mass: float
    bound: float


def filter_large_real_part(series: ConvexSeries, eta: float,
                           r: float) -> FilterResult:
    """Select the indices whose scalar payload has real part above ``r``.

    For a sub-convex series of scalars c_n with ``|c_n| <= 1`` and
    ``Re sum a_n c_n > 1 - eta``, the selected set A = {i : Re c_i > r}
    carries mass ``sum_{i in A} a_i > 1 - eta/(1 - r)``.
    """
    if not 0.0 < r < 1.0:
        raise RangeError(f"threshold r must lie in (0, 1), got {r}")
    if eta <= 0.0:
        raise RangeError(f"eta must be positive, got {eta}")
    c = np.asarray(series.payload, dtype=complex).reshape(-1)
    if np.any(np.abs(c) > 1.0 + 1e-9):
        raise RangeError("payload entries must have modulus at most 1")
    total = float(np.real(series.weights @ c))
    if not total > 1.0 - eta - HYPOTHESIS_SLACK:
        raise HypothesisError(
            f"Re sum a_n c_n = {total} is not above 1 - eta = {1.0 - eta}")
    idx = tuple(int(i) for i in np.nonzero(np.real(c) > r)[0])
    mass = float(series.weights[list(idx)].sum()) if idx else 0.0
    return FilterResult(idx, mass, 1.0 - eta / (1.0 - r))


@dataclass(frozen=True)
class ParameterCascade:
    """The (r, s, t) parameters of the l1-sum correction.

    ``raw_s``/``raw_t`` are the unfloored values ``0.9 x`` the binding
    bounds; when a floor lifted a value the corresponding flag is set and
    the strict chain ``t < eta(s)`` may no longer hold — output certificates
    are the source of truth in that regime.
    """

    epsilon: float
    r: float
    s: float
    t: float
    raw_s: float
    raw_t: float
    s_floored: bool
    t_floored: bool


def cascade_l1sum(epsilon: float, eta_component,
                  H: EuclideanSpace) -> ParameterCascade:
    """Choose r, s, t at 0.9 times their binding bounds.

    ``r = 0.9 eps/4``; ``s = 0.9 min(eps/4, delta_H(r)/3)``;
    ``t = 0.9 min(eps/4, eta(s), delta_H(r)/3)`` where ``delta_H`` is the
    codomain's modulus of convexity and ``eta`` the components' shared
    correction modulus.
    """
    if not 0.0 < epsilon < 1.0:
        raise RangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    r = 0.9 * (epsilon / 4.0)
    delta = convexity_modulus(H, r)
    raw_s = 0.9 * min(epsilon / 4.0, delta / 3.0)
    s = max(raw_s, S_FLOOR)
    eta_s = eta_component(s)
    if eta_s <= 0.0:
        raise InvalidModulus(f"component modulus eta({s}) = {eta_s} is not positive")
    raw_t = 0.9 * min(epsilon / 4.0, eta_s, delta / 3.0)
    t = max(raw_t, T_FLOOR)
    return ParameterCascade(epsilon, r, s, t, raw_s, raw_t,
                            s > raw_s, t > raw_t)


# -- component oracles ------------------------------------------------------


class ComponentBpbOracle(ABC):
    """Corrects one component restriction to an exactly attaining pair.

    Contract: given the restriction ``T_i`` (not necessarily of norm one), a
    unit domain vector ``z_hat`` with ``|T_i z_hat| / |T_i| > 1 - eta(s)``,
    and the parameter s, return ``(S_i, x_i)`` with ``|S_i| = |S_i x_i| = 1``,
    ``|S_i - T_i/|T_i|| < s`` and ``|x_i - z_hat| < s``.  The pipeline owns
    the check of this contract: :func:`correct_operator_l1sum` runs
    :meth:`_self_check` once on every pair an oracle returns and raises
    :class:`OracleViolation` naming the component, so ``correct`` itself
    does not re-check.
    """

    @abstractmethod
    def eta(self, s: float) -> float:
        """The correction modulus: the hypothesis slack the oracle tolerates."""

    @abstractmethod
    def correct(self, T_i: Operator, z_hat: np.ndarray,
                s: float) -> tuple[Operator, np.ndarray]:
        ...

    def _self_check(self, T_i: Operator, z_hat, s: float,
                    S_i: Operator, x_i, label: str) -> None:
        dom, cod = T_i.domain, T_i.codomain
        tnorm = operator_norm(T_i).value
        that = Operator(T_i.matrix / tnorm, dom, cod)
        dist_op = operator_norm(Operator(S_i.matrix - that.matrix, dom, cod)).value
        dist_vec = dom.norm(dom.coerce(x_i) - dom.coerce(z_hat))
        attained = cod.norm(S_i.apply(x_i))
        failures = []
        if not dist_op < s + 1e-12:
            failures.append(f"|S - T/|T|| = {dist_op} is not below s = {s}")
        if not dist_vec < s + 1e-12:
            failures.append(f"|x - z| = {dist_vec} is not below s = {s}")
        if abs(attained - 1.0) > 1e-9:
            failures.append(f"|S x| = {attained} is not 1")
        if failures:
            raise OracleViolation(f"{label}: " + "; ".join(failures))


class EuclideanComponentOracle(ComponentBpbOracle):
    """Correction for Euclidean components by singular-value lifting.

    All singular values of ``T_i/|T_i|`` within ``s/2`` of one are lifted to
    one, which keeps the operator within ``s/2`` of the original while its
    attaining set grows into a subspace; ``x_i`` is the normalized
    projection of ``z_hat`` onto that subspace.  The advertised modulus
    ``eta(s) = s^3/8`` makes the projection defect provably below s.
    Raises :class:`OracleViolation` only when no pair can be built (a zero
    restriction, or ``z_hat`` orthogonal to the lifted subspace); the
    distances of the pair it returns are checked by the pipeline.
    """

    def eta(self, s: float) -> float:
        return s ** 3 / 8.0

    def correct(self, T_i: Operator, z_hat: np.ndarray,
                s: float) -> tuple[Operator, np.ndarray]:
        dom, cod = T_i.domain, T_i.codomain
        if dom.kind != "euclidean" or cod.kind != "euclidean":
            raise ConfigError("this oracle corrects euclidean pairs only")
        zv = dom.coerce(z_hat)
        tnorm = operator_norm(T_i).value
        if tnorm == 0.0:
            raise OracleViolation("the zero restriction cannot attain norm one")
        u, sv, vh = np.linalg.svd(T_i.matrix / tnorm)
        kappa = s / 2.0
        lifted = sv >= 1.0 - kappa
        sv_new = np.where(lifted, 1.0, sv)
        k = min(len(sv), u.shape[1], vh.shape[0])
        mat = (u[:, :k] * sv_new[:k]) @ vh[:k, :]
        S_i = Operator(mat, dom, cod)
        basis = vh[:k, :][lifted[:k]]
        proj = basis.conj().T @ (basis @ zv)
        pn = float(np.linalg.norm(proj))
        if pn == 0.0:
            raise OracleViolation(
                "z has no component in the lifted attaining subspace")
        return S_i, proj / pn


class OneDimComponentOracle(ComponentBpbOracle):
    """Exact correction for one-dimensional components: normalize the
    column and keep the input direction (checked by the pipeline, like
    every oracle's pair)."""

    def eta(self, s: float) -> float:
        return s ** 3 / 8.0

    def correct(self, T_i: Operator, z_hat: np.ndarray,
                s: float) -> tuple[Operator, np.ndarray]:
        dom, cod = T_i.domain, T_i.codomain
        if dom.dim != 1:
            raise ConfigError("this oracle corrects one-dimensional components only")
        tnorm = operator_norm(T_i).value
        if tnorm == 0.0:
            raise OracleViolation("the zero restriction cannot attain norm one")
        return Operator(T_i.matrix / tnorm, dom, cod), dom.coerce(z_hat)


def default_component_oracle(space: NormedSpace) -> ComponentBpbOracle:
    if space.dim == 1:
        return OneDimComponentOracle()
    if space.kind == "euclidean":
        return EuclideanComponentOracle()
    raise ConfigError(
        f"no built-in correction oracle for component kind {space.kind!r}")


# -- instance and correction types ------------------------------------------


@dataclass(frozen=True)
class BpbInstance:
    """A norm-one operator nearly attaining at a unit vector."""

    T: Operator
    x: np.ndarray
    epsilon: float
    eta: float

    def hypothesis_value(self) -> float:
        return self.T.codomain.norm(self.T.apply(self.x))


@dataclass(frozen=True)
class BpbCorrection:
    """Corrected operator/vector pair with its audit trail."""

    S: Operator
    u: np.ndarray
    dist_op: float
    dist_vec: float
    cascade: ParameterCascade
    heavy_set: tuple[int, ...]
    tail_mass: float
    certificates: tuple[Certificate, ...] = field(default_factory=tuple)


def correct_operator_l1sum(components: list[NormedSpace], H: EuclideanSpace,
                           T: Operator, z0, epsilon: float,
                           component_oracle=None) -> BpbCorrection:
    """Run the full l1-sum correction pipeline.

    ``T`` must act from the unweighted l1-sum of ``components`` into the
    Euclidean space ``H`` with ``|T| = 1`` and ``|T z0| > 1 - t^2`` for the
    cascade's t; the returned correction satisfies ``|R| = |R x0| = 1``,
    ``|R - T| <= r + s + t < eps`` and ``|x0 - z0| <= 2t + s < eps``, all
    re-verified on exact operator norms.
    """
    Z = T.domain
    if not isinstance(Z, DirectSumSpace):
        raise ConfigError("the domain must be a direct sum")
    comb = Z.combiner
    if not (isinstance(comb, LpLattice) and comb.p == 1.0):
        raise ConfigError("the combining norm must be the unweighted l1 norm")
    if [c.dim for c in Z.components] != [c.dim for c in components]:
        raise ConfigError("component list does not match the operator domain")
    if H.kind != "euclidean":
        raise ConfigError("the codomain must be euclidean")

    oracles = [component_oracle or default_component_oracle(c)
               for c in Z.components]
    cascade = cascade_l1sum(epsilon, lambda s: min(o.eta(s) for o in oracles),
                            H)
    r, s, t = cascade.r, cascade.s, cascade.t

    zv = Z.coerce(z0)
    Z.sphere_check(zv)
    tz = T.apply(zv)
    hyp = H.norm(tz)
    if not hyp > 1.0 - t * t - HYPOTHESIS_SLACK:
        raise HypothesisError(
            f"|T z0| = {hyp} is not above 1 - t^2 = {1.0 - t * t}")

    y_star = H.norming_functional(tz)
    blocks = Z.split(zv)
    block_norms = [c.norm(b) for c, b in zip(Z.components, blocks)]
    heavy = []
    for i, (comp, b, bn) in enumerate(zip(Z.components, blocks, block_norms)):
        ti_zi = T.restrict_to_block(Z, i).apply(b)
        if float(np.real(np.dot(y_star, ti_zi))) > (1.0 - t) * bn:
            heavy.append(i)
    if not heavy:
        raise InternalInvariantError(
            "no component exceeded the heavy threshold despite the hypothesis")

    tail_mass = float(sum(bn for i, bn in enumerate(block_norms)
                          if i not in heavy))

    corrected: dict[int, tuple[Operator, np.ndarray]] = {}
    for i in heavy:
        comp = Z.components[i]
        z_hat = comp.unit(blocks[i])
        T_i = T.restrict_to_block(Z, i)
        S_i, x_i = oracles[i].correct(T_i, z_hat, s)
        # The one check of the oracle contract: a broken oracle must surface
        # as an OracleViolation naming the component, not downstream.
        oracles[i]._self_check(T_i, z_hat, s, S_i, x_i, f"component {i} oracle")
        corrected[i] = (S_i, x_i)

    i0 = min(heavy)
    y0 = H.coerce(corrected[i0][0].apply(corrected[i0][1]))

    new_cols = []
    for i, comp in enumerate(Z.components):
        lo, hi = Z.offsets[i], Z.offsets[i + 1]
        if i in heavy:
            S_i, x_i = corrected[i]
            phi = align_isometry(H, H.coerce(S_i.apply(x_i)), y0)
            new_cols.append(phi.matrix @ S_i.matrix)
        else:
            new_cols.append(T.matrix[:, lo:hi])
    R = Operator(np.hstack(new_cols), Z, H)

    mass_heavy = float(sum(block_norms[i] for i in heavy))
    x0_blocks = []
    for i, comp in enumerate(Z.components):
        if i in heavy:
            x0_blocks.append(block_norms[i] * corrected[i][1] / mass_heavy)
        else:
            x0_blocks.append(np.zeros(comp.dim))
    x0 = Z.embed(x0_blocks)

    dist_op = operator_norm(Operator(R.matrix - T.matrix, Z, H)).value
    dist_vec = Z.norm(x0 - zv)
    r_norm = operator_norm(R)
    certs = (
        check("tail_mass_small", tail_mass, "<=", t, tol=1e-12),
        check("operator_moved_at_most_cascade", dist_op, "<=", r + s + t,
              tol=1e-9),
        check("cascade_below_epsilon", r + s + t, "<", epsilon),
        check("operator_moved_below_epsilon", dist_op, "<", epsilon),
        check("vector_moved_at_most_cascade", dist_vec, "<=", 2.0 * t + s,
              tol=1e-9),
        check("vector_moved_below_epsilon", dist_vec, "<", epsilon),
        check("corrected_vector_unit", Z.norm(x0), "==", 1.0, tol=1e-9),
        check("corrected_norm_attained", H.norm(R.apply(x0)), "==", 1.0,
              tol=1e-9),
        check("corrected_operator_unit", r_norm.value, "==", 1.0, tol=1e-9),
    )
    ensure(certs)
    return BpbCorrection(R, x0, dist_op, dist_vec, cascade, tuple(heavy),
                         tail_mass, certs)


def verify_bpb_correction(instance: BpbInstance,
                          correction: BpbCorrection) -> list[Certificate]:
    """Recompute every corrected-pair invariant with fresh evaluations."""
    T, eps = instance.T, instance.epsilon
    Z, H = T.domain, T.codomain
    S, u = correction.S, correction.u
    dist_op = operator_norm(Operator(S.matrix - T.matrix, Z, H)).value
    return [
        check("input_vector_unit", Z.norm(instance.x), "==", 1.0, tol=1e-9),
        check("input_hypothesis", instance.hypothesis_value(), ">=",
              1.0 - instance.eta, tol=HYPOTHESIS_SLACK),
        check("corrected_vector_unit", Z.norm(u), "==", 1.0, tol=1e-9),
        check("corrected_norm_attained", H.norm(S.apply(u)), "==", 1.0,
              tol=1e-8),
        check("corrected_operator_unit", operator_norm(S).value, "==", 1.0,
              tol=1e-8),
        check("operator_moved_below_epsilon", dist_op, "<", eps),
        check("vector_moved_below_epsilon", Z.norm(Z.coerce(u) - Z.coerce(instance.x)),
              "<", eps),
    ]
