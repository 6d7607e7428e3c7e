"""Moduli of convexity and of uniform monotonicity.

``convexity_modulus`` measures how deeply midpoints of well-separated unit
vectors sink into the ball: ``delta(eps) = inf {1 - |(x+y)/2| : |x| = |y| = 1,
|x - y| >= eps}``.  ``monotonicity_modulus`` measures how much norm a
nonnegative unit vector of a lattice must lose when a subset of coordinates
carrying norm more than ``eps`` is removed.

Closed forms are used for Euclidean and p-norms (Hanner's inequalities for
1 < p < 2, solved by bisection) and for the supported lattice kinds; a
seed-deterministic brute-force estimator (low-discrepancy sphere sampling
with chord-length refinement) covers everything else and doubles as the
independent check of the closed forms.  Its sample points are
Owen-scrambled Halton points mapped through the inverse normal CDF, built
in numpy alone, bit for bit the reference ``qmc.Halton(scramble=True,
seed=1234)`` and ``norm.ppf`` that ``tests/test_halton.py`` checks them
against, without the cost of importing a statistics package.  Both
bisections stop at their floating-point fixed point, where further steps
cannot change a bit, and keep their step count only as a cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NotUniformlyConvex, NotUniformlyMonotone, RangeError)
from .lattices import (Absolute2Lattice, FiniteLattice, LpLattice,
                       WeightedL1Lattice)
from .spaces import LatticeSpace, NormedSpace

_ALPHA_FLOOR = 1e-9


@dataclass(frozen=True)
class ModulusCurve:
    """Sampled modulus curve of one space.

    ``kind`` is ``"convexity"`` or ``"monotonicity"``; ``space_id`` is a
    short human-readable descriptor; ``samples`` holds (epsilon, value)
    pairs; ``method`` records whether values came from a closed form or the
    brute-force estimator.
    """

    kind: str
    space_id: str
    samples: tuple[tuple[float, float], ...]
    method: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "space_id": self.space_id,
                "method": self.method,
                "samples": [[e, v] for e, v in self.samples]}

    def to_csv(self) -> str:
        lines = ["epsilon,value"]
        lines += [f"{e!r},{v!r}" for e, v in self.samples]
        return "\n".join(lines) + "\n"


def space_descriptor(space) -> str:
    """Compact identifier used in curves and reports."""
    kind = getattr(space, "kind", None)
    if kind == "euclidean":
        tag = "C" if space.scalar_field == "complex" else "R"
        return f"euclidean[{tag}]^{space.dim}"
    if kind == "lp":
        return f"lp({space.p})^{space.dim}"
    if kind == "absolute2":
        return f"absolute2({space.generator.kind})"
    if kind == "lattice":
        return f"lattice[{space_descriptor(space.lattice)}]"
    if kind == "direct_sum":
        inner = ",".join(space_descriptor(c) for c in space.components)
        return f"sum[{space_descriptor(space.combiner)}]({inner})"
    if isinstance(space, LpLattice):
        return f"lp({space.p})^{space.dim}"
    if isinstance(space, WeightedL1Lattice):
        return f"wl1^{space.dim}"
    if isinstance(space, Absolute2Lattice):
        return f"absolute2({space.norm2.kind})"
    return type(space).__name__


# -- convexity --------------------------------------------------------------


def _hanner_delta(p: float, eps: float) -> float:
    """Modulus of convexity of an L_p norm, 1 < p < inf.

    For p >= 2: 1 - (1 - (eps/2)^p)^(1/p) exactly.  For 1 < p < 2 the
    modulus solves (1 - d + eps/2)^p + |1 - d - eps/2|^p = 2 (sharp by
    Hanner's inequality); located by bisection on d.  Once the midpoint
    rounds to an end of the bracket, every later step repeats the last one,
    so the bisection stops there with the value all 200 steps would give.
    """
    if p >= 2.0:
        return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)

    def g(d: float) -> float:
        return (1.0 - d + eps / 2.0) ** p + abs(1.0 - d - eps / 2.0) ** p - 2.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Cephes ``ndtri`` (the inverse normal CDF the reference ndtri wraps): a
# rational approximation in y - 1/2 for exp(-2) < y < 1 - exp(-2), and in
# 1/x, x = sqrt(-2 log y), on the tails, with one set of coefficients for
# x < 8 and another for x >= 8.  Highest power first.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Horner's rule over ``coef``, highest power first (Cephes polevl; a
    leading 1.0 gives its p1evl, since ``1.0 * x`` is ``x``)."""
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _log(x: np.ndarray) -> np.ndarray:
    """Natural log one element at a time through libm, as Cephes takes it:
    ``np.log`` may round differently."""
    return np.array([math.log(v) for v in x.tolist()], dtype=float)


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of each ``y`` in [0, 1], the Cephes
    ``ndtri`` recipe step for step, so the bits are the reference ndtri's:
    0 maps to -inf and 1 to +inf."""
    y = np.asarray(y, dtype=float)
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    out = np.empty_like(y)
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, _NDTRI_P0)
                             / _polevl(c2, _NDTRI_Q0))) * _SQRT_2PI
    tail = y[~central]
    inside = tail > 0.0
    x = np.sqrt(-2.0 * _log(tail[inside]))
    z = 1.0 / x
    x1 = np.where(x < 8.0,
                  z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1),
                  z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2))
    t = np.full(len(tail), math.inf)
    t[inside] = x - _log(x) / x - x1
    out[~central] = np.where(upper[~central], t, -t)
    return out


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


@functools.lru_cache(maxsize=16)
def _halton_directions(dim: int, count: int) -> np.ndarray:
    """Low-discrepancy direction samples: inverse-normal images of the first
    ``count`` Owen-scrambled Halton points in ``[0, 1)^dim`` (Owen, "A
    randomized Halton algorithm in R", arXiv 1706.02808), built in numpy.

    They are the same points, bit for bit, as the reference
    ``norm.ppf(np.clip(Halton(d=dim, scramble=True, seed=1234).random(count),
    1e-12, 1 - 1e-12))``: coordinate k is the scrambled radical inverse in the
    k-th prime base, one seeded digit permutation per digit a double can
    hold, drawn in the reference's order from
    ``np.random.default_rng(1234)``.  The fixed seed makes the output a
    function of ``(dim, count)``, so it is cached and returned read-only."""
    rng = np.random.default_rng(1234)
    u = np.empty((count, dim))
    for k, base in enumerate(_primes(dim)):
        digits = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], digits, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        i = np.arange(count)
        v = np.zeros(count)
        b2r = 1.0 / base
        for perm in perms:
            v += perm[i % base] * b2r
            b2r /= base
            i //= base
        u[:, k] = v
    z = _ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    z.flags.writeable = False
    return z


def _brute_force_convexity(space: NormedSpace, eps: float,
                           resolution: int = 1000) -> float:
    """Estimator: sample unit pairs, slide one endpoint along the sphere to
    chord length exactly eps, and take the worst midpoint depth.

    All (pair, +-target) rows bisect together, each norm evaluation one
    ``space.norms`` call over every row.  Once every row's midpoint rounds
    to its ``lo`` or ``hi``, the step after that one repeats the same
    midpoints, hence the same norms and the same short/not-short answers,
    and nothing moves again.  So the bisection stops there, with the bits
    the full 80 steps give; 80 stays the cap.
    """
    dim = space.dim
    if dim == 1:
        # The only unit pairs are +-1; separated pairs have midpoint 0.
        return 1.0 if eps > 0.0 else 0.0
    dirs = _halton_directions(2 * dim, resolution)
    a, b = dirs[:, :dim], dirs[:, dim:]
    na, nb = space.norms(a), space.norms(b)
    keep = (na != 0.0) & (nb != 0.0)
    x = a[keep] / na[keep, None]
    y0 = b[keep] / nb[keep, None]
    # Walk y from x (chord 0) toward y0 resp. -y0 until the chord is eps.
    x = np.concatenate([x, x])
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
        settled = ((mid == lo) | (mid == hi)).all()
        lo = np.where(short, mid, lo)
        hi = np.where(short, hi, mid)
        if settled:
            break
    cand = (1.0 - hi)[:, None] * x + hi[:, None] * target
    ncand = space.norms(cand)
    nonzero = ncand != 0.0
    x, y = x[nonzero], cand[nonzero] / ncand[nonzero, None]
    valid = space.norms(x - y) >= eps * (1.0 - 1e-9)
    depth = 1.0 - space.norms((x[valid] + y[valid]) / 2.0)
    return max(float(depth.min(initial=1.0)), 0.0)


def _has_closed_form(space: NormedSpace) -> bool:
    """Whether :func:`convexity_modulus` has a closed form for the space:
    euclidean, or lp with 1 < p < inf."""
    return space.kind == "euclidean" or (space.kind == "lp"
                                         and space.p not in (1.0, math.inf))


def _check_resolution(resolution) -> None:
    """Refuse a sample count that is not an integer >= 1 (bools included):
    zero samples would report the largest modulus, 1.0."""
    if (isinstance(resolution, bool)
            or not isinstance(resolution, (int, np.integer))
            or resolution < 1):
        raise RangeError(
            f"resolution must be an integer >= 1, got {resolution!r}")


def convexity_modulus(space: NormedSpace, epsilon: float,
                      method: str = "auto", resolution: int = 1000) -> float:
    """Modulus of convexity at ``epsilon`` in (0, 2].

    ``method="closed_form"`` requires a uniformly convex closed-form kind
    (euclidean, or lp with 1 < p < inf) and raises
    :class:`NotUniformlyConvex` for lp(1)/lp(inf); ``"brute_force"`` runs the
    sampling estimator on any kind; ``"auto"`` prefers the closed form and
    falls back to brute force.  ``resolution``, the number of sampled pairs,
    must be an integer >= 1 whichever method runs.
    """
    if not 0.0 < epsilon <= 2.0:
        raise RangeError(f"epsilon must lie in (0, 2], got {epsilon}")
    _check_resolution(resolution)
    if method not in ("auto", "closed_form", "brute_force"):
        raise RangeError(f"unknown method {method!r}")
    if method != "brute_force" and _has_closed_form(space):
        if space.kind == "euclidean":
            return 1.0 - math.sqrt(max(0.0, 1.0 - epsilon ** 2 / 4.0))
        if space.dim == 1:
            return 1.0
        return _hanner_delta(space.p, epsilon)
    if method == "closed_form":
        if space.kind == "lp":
            raise NotUniformlyConvex(
                f"lp({space.p}) has flat faces; no closed-form modulus")
        raise NotUniformlyConvex(
            f"no closed-form convexity modulus for kind {space.kind!r}")
    return _brute_force_convexity(space, epsilon, resolution)


# -- uniform monotonicity ---------------------------------------------------


def _two_block_residual(lattice: FiniteLattice, epsilon: float) -> float:
    """Largest norm retained off a proper subset carrying norm epsilon, for
    the supported lattice kinds of dimension at least two (for lp and
    weighted l1 it does not depend on the subset)."""
    if isinstance(lattice, LpLattice):
        if lattice.p == math.inf:
            return 1.0
        return (1.0 - epsilon ** lattice.p) ** (1.0 / lattice.p)
    if isinstance(lattice, WeightedL1Lattice):
        return 1.0 - epsilon
    if isinstance(lattice, Absolute2Lattice):
        # A = {first}: the largest second coordinate over unit pairs whose
        # first is at least eps; A = {second} is the same on the swapped
        # norm, and an asymmetric plane can retain more there.
        n = lattice.norm2
        return max(n.sup_height(epsilon), n.swapped().sup_height(epsilon))
    raise RangeError(f"unsupported lattice kind {type(lattice).__name__}")


def monotonicity_modulus(E, epsilon: float) -> float:
    """Uniform-monotonicity modulus of a finite lattice at ``epsilon`` in (0,1).

    Returns the largest alpha such that every nonnegative unit vector that
    carries norm more than ``epsilon`` on some subset retains norm less than
    ``1 - alpha`` off that subset; computed from the per-kind closed form
    of the largest residual over proper subsets.  Raises
    :class:`NotUniformlyMonotone` when alpha is indistinguishable from zero.
    """
    if not 0.0 < epsilon < 1.0:
        raise RangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    if isinstance(E, FiniteLattice):
        lattice = E
    elif isinstance(E, LatticeSpace):
        lattice = E.lattice
    else:
        raise RangeError(f"expected a finite lattice, got {type(E).__name__}")
    # a one-dimensional lattice has no proper subset to remove
    worst = 0.0 if lattice.dim == 1 else _two_block_residual(lattice, epsilon)
    alpha = 1.0 - worst
    if alpha <= _ALPHA_FLOOR:
        raise NotUniformlyMonotone(
            f"{space_descriptor(lattice)} retains norm {worst} off a subset "
            f"carrying {epsilon}; alpha is indistinguishable from 0")
    return alpha


# -- curves -----------------------------------------------------------------


def convexity_curve(space: NormedSpace, epsilons, method: str = "auto",
                    resolution: int = 1000) -> ModulusCurve:
    _check_resolution(resolution)
    samples = tuple((float(e), convexity_modulus(space, float(e), method,
                                                 resolution))
                    for e in epsilons)
    used = ("closed_form" if method != "brute_force" and _has_closed_form(space)
            else "brute_force")
    return ModulusCurve("convexity", space_descriptor(space), samples, used)


def monotonicity_curve(E, epsilons) -> ModulusCurve:
    samples = tuple((float(e), monotonicity_modulus(E, float(e)))
                    for e in epsilons)
    return ModulusCurve("monotonicity", space_descriptor(E), samples,
                        "closed_form")
