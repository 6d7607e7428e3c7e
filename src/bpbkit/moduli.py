"""Moduli of convexity and of uniform monotonicity.

``convexity_modulus`` measures how deeply midpoints of well-separated unit
vectors sink into the ball: ``delta(eps) = inf {1 - |(x+y)/2| : |x| = |y| = 1,
|x - y| >= eps}``.  ``monotonicity_modulus`` measures how much norm a
nonnegative unit vector of a lattice must lose when a subset of coordinates
carrying norm more than ``eps`` is removed.

Closed forms are used for Euclidean and p-norms (Hanner's inequalities for
1 < p < 2, solved by bisection) and for the supported lattice kinds; a
deterministic brute-force estimator (low-discrepancy sphere sampling with
chord-length refinement) covers everything else and doubles as the
independent check of the closed forms.  Its sample points are a Kronecker
sequence on the generalised golden ratio, mapped to normal deviates by
Box-Muller.  The real line has the ball modulus eps/2 by every method;
from dimension two on, the sphere and ball moduli agree.
Both bisections stop at their floating-point fixed point, where further
steps cannot change a bit, and keep their step count only as a cap.  The
estimator's bisection also jumps over its coarse levels: by the
monotonicity lemma of normed planes, the chord along its path never
decreases, so two chord evaluations with a margin certify what every
skipped step would decide, and it ends with the bits of all 80 steps in
about half the norm evaluations.
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


@functools.lru_cache(maxsize=16)
def _sample_directions(dim: int, count: int) -> np.ndarray:
    """Low-discrepancy direction samples: the first ``count`` points of
    Roberts' Kronecker sequence ``frac(1/2 + n alpha)``, n = 1, 2, ..., in
    ``[0, 1)^dim`` with ``alpha_k = phi^-k`` and ``phi^(dim+1) = phi + 1``,
    made normal by Box-Muller on coordinate pairs; ``dim`` is even.  They
    suit low dimensions: as ``dim`` grows, ``phi`` nears 1 and the first
    points crowd near one curve, so on lp(50, 3) (``dim`` 100) 1000 samples
    find the same worst depth as 200, 7e-2 above the closed form.  The
    output, a function of ``(dim, count)``, is cached and read-only."""
    phi = 2.0
    for _ in range(40):  # a contraction by at most 1/5: 40 steps settle it
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    n = np.arange(1.0, count + 1.0)[:, None]
    u = np.clip((0.5 + n * phi ** -np.arange(1.0, dim + 1)) % 1.0,
                1e-12, 1.0 - 1e-12)
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * math.pi * u[:, 1::2]
    z = np.empty((count, dim))
    z[:, 0::2] = radius * np.cos(angle)
    z[:, 1::2] = radius * np.sin(angle)
    z.flags.writeable = False
    return z


#: The jumps' certificate margin M on a computed chord.  A computed chord
#: never falls by more than M/2 as the path parameter grows: the exact chord
#: cannot fall (the monotonicity lemma), and the largest fall that rounding
#: makes, searched by ``tests/test_row_kernels.py`` over every space kind, was
#: at most 1.6e-15.
_CHORD_MARGIN = 2e-14
#: Levels the bisection runs as it is before the first jump.
_PREFIX_LEVELS = 10
#: At most this many rounds of jumps.
_JUMP_ROUNDS = 8


def _chords(space: NormedSpace, x: np.ndarray, target: np.ndarray,
            t: np.ndarray) -> np.ndarray:
    """Per row, the chord ``|x - y|`` to the point ``y = c/|c|`` of the path
    ``c = (1 - t) x + t target``, in the bisection's own arithmetic; nan
    where ``c`` has norm zero, so that such a row never reads as short."""
    cand = (1.0 - t)[:, None] * x + t[:, None] * target
    ncand = space.norms(cand)
    zero = ncand == 0.0
    cand /= np.where(zero, 1.0, ncand)[:, None]
    chord = space.norms(x - cand)
    chord[zero] = np.nan
    return chord


def _inverse_cubic(t: list, c: list, eps: float):
    """Where the path reaches chord ``eps``, by inverse interpolation (Neville)
    of the four points ``(c[i], t[i])``: the cubic's value, and its distance
    from the quadratic through the last three as the error scale."""
    t0, t1, t2, t3 = t
    d0, d1, d2, d3 = (eps - v for v in c)
    a = (d1 * t0 - d0 * t1) / (d1 - d0)
    b = (d2 * t1 - d1 * t2) / (d2 - d1)
    d = (d3 * t2 - d2 * t3) / (d3 - d2)
    ab = (d2 * a - d0 * b) / (d2 - d0)
    bd = (d3 * b - d1 * d) / (d3 - d1)
    s = (d3 * ab - d0 * bd) / (d3 - d0)
    return s, np.abs(s - bd)


def _jump(space, x, target, eps, lo, hi, level, t, c) -> None:
    """Move rows of the bisection state ``(lo, hi, level)`` ahead in place,
    in rounds, to the state the bisection itself reaches at a later level.

    ``t`` and ``c`` are each row's last four path parameters and chords.  A
    round interpolates a root ``s`` with an error scale ``err``
    (:func:`_inverse_cubic`) and takes the finest level ``k`` whose grid
    step ``h = 2^-k`` is at least ``safety * err / 0.45``, the margin's floor
    ``1.5 M / (0.45 slope)`` and four float spacings of ``hi``.  It
    evaluates the chords at ``s -+ 0.45 h`` (clipped to the bracket) and at
    the one level-k grid point ``g`` between them, or the window's middle if
    there is none.  The jump is taken where the chord is below ``eps - M``
    at the left flank and above ``eps + M`` at the right one (a flank
    clipped to an end of the bracket has nothing to decide): every other
    point the bisection visits down to level ``k`` lies beyond a flank,
    where the chord is on the same side of ``eps`` (:data:`_CHORD_MARGIN`),
    so the state at level ``k`` is ``[g, g + h]`` or ``[g - h, g]`` by
    ``g``'s own answer.  A row that cannot jump three levels takes the
    bisection's next step instead, at the middle point, and the step after
    it where the quarter point's chord clears the margin; a failed jump
    widens the row's next window 16-fold.  A row leaves when no jump could
    gain three levels: four float spacings of ``hi``, or level 80, are less
    than three levels down, or it has just jumped to within three levels of
    the margin's floor.

    Only the middle points' own answers move a row, so only they are
    evaluated in a call over every row in the bisection's order
    (:func:`_bisect`).  The flanks and quarter points are evaluated in a
    call over the rows still jumping and are read only against the margin:
    another grouping can move a chord by a unit or two in the last place,
    far inside ``M / 2``.
    """
    rows = np.arange(len(x))
    low, high, lev = lo, hi, level
    x2, target2 = np.concatenate([x, x]), np.concatenate([target] * 2)
    safety = np.full(len(x), 2.0)
    landed = np.zeros(len(x), dtype=bool)
    for _ in range(_JUMP_ROUNDS):
        s, err = _inverse_cubic(t, c, eps)
        floor = 1.5 * _CHORD_MARGIN / ((c[3] - c[1]) / (t[3] - t[1]))
        # no level past 80, nor a step below 4 spacings of hi = m 2^E,
        # 1/2 <= m < 1, which are 2^(E - 51)
        k_grid = np.minimum(51 - np.frexp(high)[1], 80)
        k = np.minimum(-np.frexp(np.maximum(safety * err, floor) / 0.45)[1],
                       k_grid)
        done = lev + 3 > k_grid
        done |= landed & (lev + 3 > -np.frexp(floor / 0.45)[1])
        if done.any():
            lo[rows], hi[rows], level[rows] = low, high, lev
            stay = ~done
            rows = rows[stay]
            if not rows.size:
                return
            low, high, lev, s, k, safety = (low[stay], high[stay], lev[stay],
                                            s[stay], k[stay], safety[stay])
            t, c = [v[stay] for v in t], [v[stay] for v in c]
            x2 = np.concatenate([x[rows]] * 2)
            target2 = np.concatenate([target[rows]] * 2)
        jump = (k >= lev + 3) & (s > low) & (s < high)
        h = np.ldexp(1.0, -k)
        left = np.maximum(s - 0.45 * h, low)
        right = np.minimum(s + 0.45 * h, high)
        g = np.floor(right / h) * h
        inner = (g > left) & (g < high)
        # three points at least h/10 apart, lest the next interpolation
        # magnify the chords' rounding; still no other grid point between
        left = np.where(inner, np.minimum(left, g - 0.1 * h), left)
        right = np.where(inner, np.maximum(right, g + 0.1 * h), right)
        # the rows that do not jump take the bisection's next step at m,
        # with the quarter points for the next interpolation
        m = 0.5 * (low + high)
        t = [t[2], np.where(jump, left, 0.5 * (low + m)),
             np.where(jump, np.where(inner, g, 0.5 * (left + right)), m),
             np.where(jump, right, 0.5 * (m + high))]
        n = len(rows)
        flanks = _chords(space, x2, target2, np.concatenate([t[1], t[3]]))
        mids = 0.5 * (lo + hi)  # the rows that left: any point will do
        mids[rows] = t[2]
        c = [c[2], flanks[:n], _chords(space, x, target, mids)[rows],
             flanks[n:]]
        short = c[2] < eps
        ok = (jump & ((left == low) | (c[1] < eps - _CHORD_MARGIN))
              & ((right == high) | (c[3] > eps + _CHORD_MARGIN)))
        g -= np.where((inner & ~short) | (g == high), h, 0.0)
        # after m, the bisection's next point is a quarter point; its
        # flank-call chord decides it where it clears the margin
        q = np.where(short, t[3], t[1])
        c_q = np.where(short, c[3], c[1])
        q_short, q_long = c_q < eps - _CHORD_MARGIN, c_q > eps + _CHORD_MARGIN
        two_low = np.where(q_short, q, np.where(short, m, low))
        two_high = np.where(q_long, q, np.where(short, high, m))
        low = np.where(ok, g, np.where(jump, low, two_low))
        high = np.where(ok, g + h, np.where(jump, high, two_high))
        two_lev = lev + 1 + (q_short | q_long)
        lev = np.where(ok, k, np.where(jump, lev, two_lev))
        safety = np.where(ok, 2.0, np.where(jump, 16.0 * safety, safety))
        landed = ok
    lo[rows], hi[rows], level[rows] = low, high, lev


def _finish(space, x, target, eps, lo, hi, level) -> None:
    """The bisection's own loop, in place: every row moves until its
    midpoint rounds to an end of its bracket or it reaches level 80, in
    calls that still hold every row."""
    cap = 80 - level
    for step in range(80):
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi) & (cap > step)
        if not live.any():
            return
        short = _chords(space, x, target, mid) < eps
        np.copyto(lo, mid, where=live & short)
        np.copyto(hi, mid, where=live & ~short)


def _bisect(space, x, target, eps) -> np.ndarray:
    """Per row, the ``hi`` that 80 steps of the bisection ``mid = (lo +
    hi)/2``, ``lo = mid`` where the chord at ``mid`` is short of ``eps``,
    else ``hi = mid``, reach from ``[0, 1]``, bit for bit: ten plain steps,
    the jumps of :func:`_jump`, then :func:`_finish`.

    Every ``norms`` call whose answers move a row is over all rows in the
    bisection's order, as the bisection's own calls are: a row-batched
    kernel may round a row by its place in the call and the call's size
    (numpy's ``matmul``, which weighted l1 uses, does: from 8 weights, and
    for a single row), so a chord evaluated in another grouping could
    differ in the last bit."""
    n = len(x)
    lo, hi = np.zeros(n), np.ones(n)
    t, c = [], []
    for _ in range(_PREFIX_LEVELS):
        mid = 0.5 * (lo + hi)
        chord = _chords(space, x, target, mid)
        short = chord < eps
        np.copyto(lo, mid, where=short)
        np.copyto(hi, mid, where=~short)
        t.append(mid)
        c.append(chord)
    level = np.full(n, _PREFIX_LEVELS)
    _jump(space, x, target, eps, lo, hi, level, t[-4:], c[-4:])
    _finish(space, x, target, eps, lo, hi, level)
    return hi


def _brute_force_convexity(space: NormedSpace, eps: float,
                           resolution: int = 1000) -> float:
    """Estimator: sample unit pairs from the directions of
    :func:`_sample_directions`, slide one endpoint along the sphere to chord
    length exactly eps, and take the worst midpoint depth.  The line never
    reaches here: :func:`convexity_modulus` answers dimension one.

    Each (pair, +-target) row bisects on the parameter ``t`` of its path
    ``y(t) = c/|c|``, ``c = (1 - t) x + t target``, for the chord ``|x -
    y(t)| = eps``; the value is a function of every row's ``hi`` after 80
    steps.  :func:`_bisect` reaches those bits with about half the
    ``norms`` calls:

    * a prefix: the first ten steps as they are, over every row;
    * jumps (:func:`_jump`): for ``t1 < t2``, ``y(t1)`` lies in the angle
      between ``x`` and ``y(t2)``, so ``|x - y(t1)| <= |x - y(t2)|`` (the
      monotonicity lemma of normed planes: Martini, Swanepoel and Weiss,
      *The geometry of Minkowski spaces -- a survey, Part I*, Expo. Math. 19
      (2001)).  Rounding can make a computed chord fall, by at most
      1.6e-15 in every kind measured, so with the margin ``M``
      (:data:`_CHORD_MARGIN`) a chord below ``eps - M`` at one point shows
      every step left of it short, and one above ``eps + M`` every step
      right of it long.  Two such flanks around an interpolated root and
      the one grid point between them fix the bisection's state many
      levels down, by the bisection's own answers;
    * the bisection's loop again (:func:`_finish`), moving each row until
      its midpoint rounds to an end of its bracket, after which no step
      could move a bit, or until it has taken 80 steps.

    Each ``norms`` call whose answers move a row holds every row in the
    full bisection's order, so those chords round as in the full bisection.
    """
    dim = space.dim
    dirs = _sample_directions(2 * dim, resolution)
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
    with np.errstate(all="ignore"):
        hi = _bisect(space, x, target, eps)
    cand = (1.0 - hi)[:, None] * x + hi[:, None] * target
    ncand = space.norms(cand)
    nonzero = ncand != 0.0
    x, y = x[nonzero], cand[nonzero] / ncand[nonzero, None]
    valid = space.norms(x - y) >= eps * (1.0 - 1e-9)
    depth = 1.0 - space.norms((x[valid] + y[valid]) / 2.0)
    return max(float(depth.min(initial=1.0)), 0.0)


def _convexity_method(space: NormedSpace, method: str) -> str:
    """The path :func:`convexity_modulus` takes for ``space`` under
    ``method``: ``"closed_form"`` (the line's eps/2, the Hilbert formula or
    Hanner's) or ``"brute_force"``.  Raises :class:`RangeError` for an
    unknown method and :class:`NotUniformlyConvex` for ``"closed_form"`` on
    a kind without one."""
    if method not in ("auto", "closed_form", "brute_force"):
        raise RangeError(f"unknown method {method!r}")
    if space.dim == 1 and space.scalar_field == "real":
        return "closed_form"
    closed = space.kind == "euclidean" or (space.kind == "lp"
                                           and space.p not in (1.0, math.inf))
    if closed and (method != "brute_force" or space.dim == 1):
        return "closed_form"
    if method == "closed_form":
        if space.kind == "lp":
            raise NotUniformlyConvex(
                f"lp({space.p}) has flat faces; no closed-form modulus")
        raise NotUniformlyConvex(
            f"no closed-form convexity modulus for kind {space.kind!r}")
    return "brute_force"


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
    must be an integer >= 1 whichever method runs.  A real one-dimensional
    space has modulus ``epsilon / 2`` by every method: the only unit vectors
    are +-1, but the ball holds ``x = 1, y = 1 - epsilon``, whose midpoint
    sits ``epsilon / 2`` deep.  The complex line is the real plane, which
    real directions cannot sample, so every method gives its closed form.
    """
    if not 0.0 < epsilon <= 2.0:
        raise RangeError(f"epsilon must lie in (0, 2], got {epsilon}")
    _check_resolution(resolution)
    if _convexity_method(space, method) == "brute_force":
        return _brute_force_convexity(space, epsilon, resolution)
    if space.dim == 1 and space.scalar_field == "real":
        return epsilon / 2.0
    if space.kind == "euclidean":
        return 1.0 - math.sqrt(max(0.0, 1.0 - epsilon ** 2 / 4.0))
    return _hanner_delta(space.p, epsilon)


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
    used = _convexity_method(space, method)
    samples = tuple((float(e), convexity_modulus(space, float(e), method,
                                                 resolution))
                    for e in epsilons)
    return ModulusCurve("convexity", space_descriptor(space), samples, used)


def monotonicity_curve(E, epsilons) -> ModulusCurve:
    samples = tuple((float(e), monotonicity_modulus(E, float(e)))
                    for e in epsilons)
    return ModulusCurve("monotonicity", space_descriptor(E), samples,
                        "closed_form")
