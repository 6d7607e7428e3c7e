"""Lattice-combined sums: Köthe duality and the sequence-space witness.

A lattice sum combines component spaces through a monotone lattice norm of
their block norms.  The dual space carries the Köthe dual of the lattice
with component duals inside; this module checks that duality numerically,
builds norming functionals the way the one-norming-set lemma assembles
them, and runs the full witness pipeline for series in the sum:

1. a parameter block (eta, alpha, r, eps', eta') derived from the shared
   component face modulus and the lattice's monotonicity modulus;
2. a lattice-level witness on the profiles of the series;
3. lifted points, a norming element, and a mass filter at threshold r;
4. per-block defect numbers selecting the supports where the norming
   functional nearly attains, patched face points with one common
   functional per component, and the assembled witness whose functional
   takes the value one on every witness point exactly.

Each stage of the pipeline runs on row arrays: one row per series point,
the block norms from one ``DirectSumSpace.profiles`` call, the per-block
pairings by ``np.add.reduceat`` over the component column slices, and each
distance bound from one ``norms`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ahsp import (AhspOracle, AhspWitness, UniformlyConvexAhspOracle,
                   _directions, _point_rows, verify_ahsp_witness)
from .bpb import HYPOTHESIS_SLACK, ConvexSeries
from .certs import Certificate, check, ensure
from .errors import (DegenerateInput, HypothesisError, RangeError)
from .lattices import FiniteLattice, LpLattice, WeightedL1Lattice
from .moduli import monotonicity_modulus
from .spaces import DirectSumSpace, LatticeSpace, LpSpace, NormedSpace
from .util import TOL_SPHERE

#: Additive hypothesis slack at the pipeline entry (the honest eta'
#: collapses below float resolution; all downstream bounds are re-checked).
LATTICE_SUM_SLACK = 1e-8


def lattice_sum_space(E: FiniteLattice,
                      components: list[NormedSpace]) -> DirectSumSpace:
    """The sum of ``components`` normed by ``E`` applied to block norms."""
    return DirectSumSpace(components, E)


def kothe_dual_norm(E: FiniteLattice, x) -> float:
    """The Köthe dual norm ``sup { sum |x_k y_k| : |y|_E <= 1 }``.

    Exact through each lattice's closed-form dual.
    """
    arr = np.abs(np.asarray(x, dtype=float).reshape(-1))
    if arr.size != E.dim:
        raise RangeError(f"expected {E.dim} coordinates, got {arr.size}")
    return E.dual_norm_of(arr)


#: Rows per draw of the sampled sweeps, so their memory does not grow with
#: the sample count.
SAMPLE_BLOCK = 4096


def _sample_blocks(rng: np.random.Generator, samples: int, dim: int):
    """``samples`` standard normal rows of length ``dim``, drawn in blocks of
    at most :data:`SAMPLE_BLOCK` rows; in row order they are the numbers
    ``samples`` successive ``rng.standard_normal(dim)`` calls return."""
    if samples < 1:
        raise RangeError(f"samples must be at least 1, got {samples}")
    for start in range(0, samples, SAMPLE_BLOCK):
        yield rng.standard_normal((min(SAMPLE_BLOCK, samples - start), dim))


def sampled_dual_norm(E: FiniteLattice, x, rng: np.random.Generator,
                      samples: int = 2000) -> float:
    """Brute-force lower estimate of the Köthe dual norm over sampled B_E."""
    arr = np.abs(np.asarray(x, dtype=float).reshape(-1))
    best = 0.0
    for block in _sample_blocks(rng, samples, E.dim):
        y = np.abs(block)
        ny = E.norms(y)
        keep = ny != 0.0
        best = max(best, float(((y[keep] / ny[keep, None]) @ arr)
                               .max(initial=0.0)))
    return best


def duality_isometry_check(Z: DirectSumSpace, x_star,
                           seed: int = 0, samples: int = 200) -> list[Certificate]:
    """Compare the dual-sum norm of a functional with its action on the ball.

    The closed-form dual norm (Köthe dual of the component dual norms) is
    checked against (a) the value achieved at the constructively assembled
    attaining vector and (b) a sampled-and-block-aligned sweep of ball
    points, which can only fall below the dual norm if the isometry holds.

    The sweep draws ``samples`` (at least 1, else :class:`RangeError`)
    standard normal points in blocks of :data:`SAMPLE_BLOCK` rows; in row
    order they are the numbers per-sample draws from the same Generator
    give.  Each point is normalised, and its blocks are also replaced by
    their norms times the component attaining vectors of the fixed
    functional, so the sweep is a few array operations per block.  The
    ``seed`` must be a nonnegative integer, else :class:`RangeError`.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise RangeError(f"seed must be a nonnegative integer, got {seed!r}")
    f = Z.coerce(x_star)
    lhs = Z.dual_norm(f)
    if lhs == 0.0:
        raise DegenerateInput("the zero functional has no norming direction")
    att = Z.attaining_vector(f)
    achieved = float(np.real(Z.pairing(f, att)))
    rng = np.random.default_rng(np.random.SeedSequence([987651, seed]))
    spans = list(zip(Z.components, Z.offsets[:-1], Z.offsets[1:]))
    # the functional is fixed, so each block's attaining vector is too
    attainers = [comp.attaining_vector(fb) if comp.dual_norm(fb) > 0.0
                 else None for comp, fb in zip(Z.components, Z.split(f))]
    best = 0.0
    for raw in _sample_blocks(rng, samples, Z.dim):
        X = raw / Z.norms(raw)[:, None]
        best = max(best, float(np.abs(X @ f).max()))
        aligned = X.copy()
        for (comp, lo, hi), a_k in zip(spans, attainers):
            if a_k is not None:
                aligned[:, lo:hi] = comp.norms(X[:, lo:hi])[:, None] * a_k
        na = Z.norms(aligned)
        keep = na > 0.0
        best = max(best, float((np.abs(aligned[keep] @ f) / na[keep])
                               .max(initial=0.0)))
    return [
        check("duality-attainer-unit", abs(Z.norm(att) - 1.0), "<=", 0.0,
              tol=TOL_SPHERE),
        check("duality-gap", abs(lhs - achieved), "<=", 0.0, tol=1e-4),
        check("duality-ball-bound", best, "<=", lhs, tol=1e-9),
    ]


@dataclass(frozen=True)
class NormingElement:
    """A dual-unit functional assembled blockwise from a lattice norming
    functional and per-component norming functionals (the aligning scalars
    of the construction are all one for real scalars)."""

    e_star: np.ndarray
    component_functionals: tuple[np.ndarray, ...]
    assembled: np.ndarray
    certificates: tuple[Certificate, ...] = field(default_factory=tuple)


def build_norming_element(Z: DirectSumSpace, z, epsilon: float) -> NormingElement:
    """A functional with ``Re z*(z) > |z| - epsilon`` built as the
    one-norming-set construction prescribes.

    ``e*`` norms the block-norm profile in the Köthe dual; each nonzero
    block contributes its exact norming functional and each zero block the
    zero functional, both from :meth:`DirectSumSpace.block_normings`; the
    aligning scalars are trivial for real scalars.  Each of the ``m``
    blocks may fall short of its norm by the slack
    ``epsilon / (2 m (e*_k + 1))``, so the ``e*``-weighted shortfall stays
    at most ``epsilon / 2`` however many blocks there are.
    """
    if epsilon <= 0.0:
        raise RangeError(f"epsilon must be positive, got {epsilon}")
    zv = Z.coerce(z)
    # a zero vector raises DegenerateInput in the combiner's normings
    prof, e_star, funcs = (a[0] for a in Z.block_normings(zv[None]))
    total = Z.combiner.norm_of(prof)
    funcs = Z.split(funcs)
    slack_excess = -math.inf
    share = epsilon / (2.0 * len(Z.components))
    for k, (comp, b, fk) in enumerate(zip(Z.components, Z.split(zv), funcs)):
        gap = prof[k] - float(np.real(comp.pairing(fk, b)))
        budget = share / (float(e_star[k]) + 1.0)
        slack_excess = max(slack_excess, gap - budget)
    assembled = Z.embed([float(e) * fk for e, fk in zip(e_star, funcs)])
    value = float(np.real(Z.pairing(assembled, zv)))
    certs = (
        check("norming-dual-unit", abs(Z.dual_norm(assembled) - 1.0), "<=",
              0.0, tol=TOL_SPHERE),
        check("norming-component-slack", slack_excess, "<=", 0.0),
        check("norming-value", value, ">", total - epsilon),
    )
    ensure(list(certs))
    return NormingElement(e_star, tuple(funcs), assembled, certs)


class NonnegAdditiveProfileOracle(AhspOracle):
    """Witness oracle for L1-type lattices acting on nonnegative unit
    vectors: the norm is additive there, so the series points are their own
    witness and the dual functional is the weight vector."""

    def __init__(self, space: LpSpace | NormedSpace, functional: np.ndarray):
        self.space = space
        self._functional = np.asarray(functional, dtype=float)

    def eta(self, epsilon: float) -> float:
        return 0.9 * epsilon

    def eta_ball(self, epsilon: float) -> float:
        return 0.9 * epsilon

    def witness(self, series: ConvexSeries, epsilon: float,
                slack: float = 0.0) -> AhspWitness:
        pts = [self.space.coerce(p) for p in series.payload]
        for j, p in enumerate(pts):
            if float(p.min()) < -1e-12:
                raise RangeError(
                    f"point {j} has a negative coordinate; the additive "
                    "profile witness needs nonnegative points")
            if abs(self.space.norm(p) - 1.0) > TOL_SPHERE:
                raise RangeError(f"point {j} is not a unit vector")
        total = sum(w * p for w, p in zip(series.weights, pts))
        total_norm = self.space.norm(total)
        if not total_norm > 1.0 - self.eta(epsilon) - slack - HYPOTHESIS_SLACK:
            raise HypothesisError(
                f"|sum a_n x_n| = {total_norm} violates the entry hypothesis")
        indices = tuple(range(len(pts)))
        witness = AhspWitness(self.space, indices, tuple(pts),
                              self._functional, epsilon)
        report = verify_ahsp_witness(series, witness)
        return AhspWitness(self.space, indices, tuple(pts), self._functional,
                           epsilon, tuple(report))

    def witness_ball(self, weights, points, functional, epsilon):
        pts = [self.space.coerce(p) for p in points]
        return tuple(range(len(pts))), pts, self.space.coerce(functional)


def default_profile_oracle(E: FiniteLattice) -> AhspOracle:
    """The lattice-level witness oracle used on block-norm profiles."""
    if isinstance(E, LpLattice) and E.p == 1.0:
        space = LpSpace(E.dim, 1.0)
        return NonnegAdditiveProfileOracle(space, np.ones(E.dim))
    if isinstance(E, WeightedL1Lattice):
        return NonnegAdditiveProfileOracle(LatticeSpace(E), E.weights.copy())
    if isinstance(E, LpLattice) and 1.0 < E.p < math.inf:
        return UniformlyConvexAhspOracle(LpSpace(E.dim, E.p))
    raise RangeError(
        "no built-in profile witness oracle for this lattice; pass one")


@dataclass(frozen=True)
class LatticeSumPolicy:
    """Parameter block of the lattice-sum witness: eta below the shared
    face modulus at eps/4, alpha below the monotonicity modulus at eps/4,
    the threshold r tied to both, and the profile-level (eps', eta')."""

    epsilon: float
    eta: float
    alpha: float
    r: float
    epsilon_prime: float
    eta_prime: float
    delta_quarter: float


def lattice_sum_policy(Z: DirectSumSpace, epsilon: float, component_ahp,
                       E_oracle: AhspOracle) -> LatticeSumPolicy:
    if not 0.0 < epsilon < 1.0:
        raise RangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    delta_quarter = min(o.delta(epsilon / 4.0) for o in component_ahp)
    eta = 0.9 * min(epsilon / 4.0, delta_quarter)
    alpha = 0.9 * min(monotonicity_modulus(Z.combiner, epsilon / 4.0),
                      epsilon / 4.0)
    r = (1.0 + 2.0 * eta - alpha * eta) / (1.0 + 2.0 * eta)
    epsilon_prime = 0.9 * (1.0 - r) * epsilon / 3.0
    eta_prime = E_oracle.eta(epsilon_prime)
    return LatticeSumPolicy(epsilon, eta, alpha, r, epsilon_prime, eta_prime,
                            delta_quarter)


def lattice_sum_witness(Z: DirectSumSpace, series: ConvexSeries,
                        epsilon: float, E_oracle: AhspOracle | None = None,
                        component_ahp: list | None = None,
                        policy: LatticeSumPolicy | None = None) -> AhspWitness:
    """Witness for a series of unit vectors in a lattice sum.

    Requires component face oracles with one shared modulus and a witness
    oracle for the lattice itself; every inequality in the chain — profile
    witness distances, the norming-element value, the mass filter, defect
    sums, support masses, escaped mass, patched distances, and the exact
    value of the assembled functional — is emitted as a certificate and
    enforced before the witness is returned.
    """
    E = Z.combiner
    E_oracle = E_oracle or default_profile_oracle(E)
    component_ahp = component_ahp or [UniformlyConvexAhspOracle(c)
                                      for c in Z.components]
    pol = policy or lattice_sum_policy(Z, epsilon, component_ahp, E_oracle)
    certs: list[Certificate] = []
    m = len(Z.components)

    pts = _point_rows(Z, series.payload)
    total = sum(w * p for w, p in zip(series.weights, pts))
    total_norm = Z.norm(total)
    certs.append(check("series-hypothesis", total_norm, ">=",
                       1.0 - pol.eta_prime, tol=LATTICE_SUM_SLACK))
    if not certs[-1].passed:
        raise HypothesisError(
            f"|sum a_n z_n| = {total_norm} is not above 1 - eta' = "
            f"{1.0 - pol.eta_prime} (slack {LATTICE_SUM_SLACK})")

    profiles = Z.profiles(pts)
    wE = E_oracle.witness(ConvexSeries(series.weights, profiles),
                          pol.epsilon_prime, slack=LATTICE_SUM_SLACK)
    A = list(wE.indices)
    # one row per index of A: witnessed profiles, unit block directions
    # (u_hat) and lifted points (u)
    R = np.array(wE.points, dtype=float).reshape(len(A), m)
    r_star = np.asarray(wE.functional, dtype=float)
    certs.append(check("profile-witness-nonneg", float(R.min()), ">=", 0.0,
                       tol=1e-12))

    spans = list(zip(Z.offsets[:-1], Z.offsets[1:]))
    widths = np.diff(Z.offsets)
    canon = [comp.canonical_unit() for comp in Z.components]
    u_hat = np.hstack([_directions(pts[A, lo:hi], profiles[A, k], canon[k])
                       for k, (lo, hi) in enumerate(spans)])
    u = np.repeat(R, widths, axis=1) * u_hat
    lift_err = float(Z.norms(u - pts[A]).max(initial=0.0))
    certs.append(check("lifted-point-distance", lift_err, "<",
                       pol.epsilon_prime, tol=1e-15))

    v_vec = sum(series.weights[n] * un for n, un in zip(A, u))
    norming = build_norming_element(Z, v_vec, pol.epsilon_prime)
    z_star = norming.assembled
    e_star = norming.e_star
    value = float(np.real(Z.pairing(z_star, v_vec)))
    certs.append(check("norming-element-value", value, ">=",
                       1.0 - pol.eta_prime - 2.0 * pol.epsilon_prime,
                       tol=LATTICE_SUM_SLACK))

    rows_C = np.flatnonzero(np.real(u @ z_star) > pol.r)
    C = [A[j] for j in rows_C]
    mass_C = float(sum(series.weights[n] for n in C))
    certs.append(check("selected-mass", mass_C, ">", 1.0 - 0.9 * epsilon))
    if not C:
        ensure(certs)

    # from here on rows follow C
    R, u_hat, u = R[rows_C], u_hat[rows_C], u[rows_C]
    comp_funcs = norming.component_functionals
    starts = Z.offsets[:-1]
    # per-block defects d[n, k] = e*_k |u_n^k| - z*_k(u_n^k); in_B[n, k]
    # marks the blocks B[n] where the defect is below eta times that weight
    weights_k = e_star * Z.profiles(u)
    d = weights_k - np.add.reduceat(u * z_star, starts, axis=1)
    in_B = d < pol.eta * weights_k
    inside = np.where(in_B, R, 0.0)
    support = np.add.reduceat(u_hat * np.concatenate(comp_funcs), starts,
                              axis=1)
    certs.append(check("defect-sum",
                       float(d.sum(axis=1).max(initial=-math.inf)), "<=",
                       1.0 - pol.r, tol=1e-12))
    certs.append(check("support-mass",
                       float(np.where(in_B, weights_k, 0.0).sum(axis=1)
                             .min(initial=math.inf)),
                       ">", pol.r - (1.0 - pol.r) / pol.eta))
    certs.append(check("residual-mass",
                       float(E.norms(inside).min(initial=math.inf)), ">",
                       1.0 - pol.alpha))
    certs.append(check("escaped-mass",
                       float(E.norms(R - inside).max(initial=0.0)), "<=",
                       epsilon / 4.0, tol=1e-12))
    certs.append(check("component-support",
                       float(support[in_B].min(initial=math.inf)), ">",
                       1.0 - pol.eta))

    # face points: for each covered block k, one row per n in C with k in
    # B[n]
    covered = [k for k in range(m) if in_B[:, k].any()]
    y_star: dict[int, np.ndarray] = {}
    face_of: dict[int, np.ndarray] = {}
    face_dist: dict[int, np.ndarray] = {}
    face_dist_max = 0.0
    face_value_dev = 0.0
    for k in covered:
        comp = Z.components[k]
        lo, hi = spans[k]
        y_star[k] = component_ahp[k].upsilon(comp_funcs[k])
        hats = u_hat[in_B[:, k], lo:hi]
        face_of[k] = _point_rows(comp, component_ahp[k].face_points(y_star[k],
                                                                    hats))
        face_dist[k] = comp.norms(face_of[k] - hats)
        face_dist_max = max(face_dist_max, float(face_dist[k].max()))
        face_value_dev = max(face_value_dev, float(
            np.abs(np.real(face_of[k] @ y_star[k]) - 1.0).max()))
    certs.append(check("face-point-distance", face_dist_max, "<",
                       epsilon / 4.0, tol=1e-12))
    certs.append(check("face-point-value", face_value_dev, "<=", 0.0,
                       tol=TOL_SPHERE))
    for k in range(m):
        if k not in covered:
            y_star[k] = Z.components[k].norming_functional(canon[k])

    # block k of point n: its own face point when k is in B[n]; when k is
    # covered but not in B[n], the face point of the smallest n' with k in
    # B[n']; else the canonical direction
    directions = []
    patched_excess = -math.inf
    for k, (lo, hi) in enumerate(spans):
        if k in covered:
            rows_k = np.flatnonzero(in_B[:, k])
            dk = np.empty((len(C), hi - lo))
            dk[rows_k] = face_of[k]
            dk[~in_B[:, k]] = dk[min(rows_k, key=C.__getitem__)]
            r_in = R[rows_k, k]
            patched_excess = max(patched_excess, float(
                (r_in * face_dist[k] - (epsilon / 4.0) * r_in).max()))
        else:
            dk = np.repeat(canon[k][None, :], len(C), axis=0)
        directions.append(dk)
    V = np.repeat(R, widths, axis=1) * np.hstack(directions)
    certs.append(check("patched-block-distance", patched_excess, "<=", 0.0,
                       tol=1e-12))
    certs.append(check("patched-distance",
                       float(Z.norms(V - u).max(initial=0.0)), "<=",
                       0.75 * epsilon, tol=1e-12))
    certs.append(check("witness-distance-final",
                       float(Z.norms(V - pts[C]).max(initial=0.0)), "<",
                       epsilon))
    certs.append(check("profile-value-exact",
                       float(np.abs(R @ r_star - 1.0).max(initial=0.0)), "<=",
                       0.0, tol=TOL_SPHERE))

    functional = Z.embed([float(r_star[k]) * y_star[k] for k in range(m)])
    points = tuple(V)
    witness = AhspWitness(Z, tuple(C), points, functional, epsilon)
    final = verify_ahsp_witness(series, witness)
    certs.extend(final)
    ensure(certs)
    return AhspWitness(Z, tuple(C), points, functional, epsilon,
                       tuple(certs))
