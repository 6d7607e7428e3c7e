"""The three benchmark workloads, built only from bpbkit's public API.

A workload is a closed loop of *units*: one unit is instance generation,
the pipeline, and an independent verifier, and it returns the list of
certificates it produced.  Units come in *rounds* of fixed composition so
that every seed runs the same mix; the seed only changes the random
instances (``SeedSequence([seed, round, position])`` per unit).

Each workload also names a small ``run_scenario`` replay that must give
byte-identical reports when run twice under the run's seed.

Library calls go through module attributes (``harness.generate_instance``
rather than a bare imported name) so that the tracer's wrappers and a
test's monkeypatches see every call.
"""

from __future__ import annotations

import math

import numpy as np

from bpbkit import ahsp, alignment, bpb, harness, lattice_sums, moduli, spaces
from bpbkit.absolute import AbsoluteNorm2
from bpbkit.certs import check
from bpbkit.lattices import LpLattice

# Brute-force convexity moduli are cross-checked against a closed form
# within this tolerance wherever one exists.
CLOSED_FORM_TOL = 1e-4
# Resolution of the brute-force convexity evaluations.  The estimator is
# exact on Euclidean spaces at any resolution.  On lp(2, p), p in [2.5, 4],
# epsilon in [0.3, 1], its error against the closed form reaches 1.4e-4 at
# 200 sampled pairs and stays below 1e-5 at 400; near epsilon = 2 it
# reaches 2e-3 even at 300, so lp units stay at epsilon <= 1.
BRUTE_RESOLUTION = 200
LP_RESOLUTION = 400


def table_norm() -> AbsoluteNorm2:
    """Piecewise-linear plane norm with the sphere vertex (0.55, 0.55)."""
    return AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0),
                                     (1.0, 1.0)])


def unit_rng(seed: int, round_index: int, position: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, round_index, position]))


def _stratified(rng, lo: float, hi: float, round_index: int) -> float:
    """A point of [lo, hi] that walks the interval with the round index (a
    golden-ratio sequence), jittered by the unit's draw.  Every run then
    covers the interval evenly, so its cost does not hinge on a few draws
    of a parameter the cost depends on."""
    frac = (round_index * 0.6180339887498949 + 0.1 * rng.random()) % 1.0
    return lo + (hi - lo) * frac


def _interleave(a: list, b: list) -> list:
    """Alternate two lists, spreading the shorter one evenly."""
    if len(a) < len(b):
        a, b = b, a
    out = []
    step = len(a) / max(len(b), 1)
    j = 0
    for i, item in enumerate(a):
        out.append(item)
        while j < len(b) and (j + 1) * step <= i + 1:
            out.append(b[j])
            j += 1
    out.extend(b[j:])
    return out


class Workload:
    name: str
    # Scenarios replayed twice under the run seed; their bytes must match.
    replay: tuple[harness.Scenario, ...] = ()

    def setup(self) -> None:
        """Build the shared oracles and policies and warm lazy imports."""

    def round_units(self, seed: int, round_index: int) -> list:
        """The units of one round as ``(kind, thunk)`` pairs."""
        raise NotImplementedError

    def warmup_units(self, seed: int) -> list:
        """Untimed units run before the timed loop: the first unit of each
        kind in round zero."""
        first: dict = {}
        for kind, thunk in self.round_units(seed, 0):
            first.setdefault(kind, thunk)
        return list(first.items())


# ---------------------------------------------------------------------------
# witness_mix


class WitnessMix(Workload):
    name = "witness_mix"
    replay = (
        harness.Scenario("ahsp_direct_sum", {"trials": 2, "f": "table",
                                             "case": "3-mixed",
                                             "epsilon": 0.3, "members": 5}),
        harness.Scenario("ahsp_lattice_sum", {"trials": 2, "p": 3.0,
                                              "num_components": 3,
                                              "epsilon": 0.3}),
    )

    NORMS = ("l1", "l2", "l3", "table")
    EPSILONS = (0.2, 0.5)
    LATTICE_EPSILON = 0.3

    def setup(self) -> None:
        self.M = spaces.EuclideanSpace(2)
        self.N = spaces.EuclideanSpace(2)
        self.oM = ahsp.ahsp_oracle_for(self.M)
        self.oN = ahsp.ahsp_oracle_for(self.N)
        self.plane = {"l1": AbsoluteNorm2.lp(1.0), "l2": AbsoluteNorm2.lp(2.0),
                      "l3": AbsoluteNorm2.lp(3.0),
                      "table": table_norm()}
        self.policy = {(f, eps): ahsp.eta_policy(self.plane[f], self.oM,
                                                 self.oN, eps)
                       for f in self.NORMS for eps in self.EPSILONS}
        self.lattice_shared = {}
        for p in (1.0, 2.0, 3.0):
            for m in (2, 3, 4):
                E = LpLattice(m, p)
                comps = [spaces.EuclideanSpace(2) for _ in range(m)]
                Z = lattice_sums.lattice_sum_space(E, comps)
                ahp = [ahsp.ahp_oracle_uniformly_convex(c) for c in comps]
                oracle = lattice_sums.default_profile_oracle(E)
                pol = lattice_sums.lattice_sum_policy(
                    Z, self.LATTICE_EPSILON, ahp, oracle)
                self.lattice_shared[(p, m)] = (oracle, ahp, pol)
        self.ds_grid = []
        for f in self.NORMS:
            cases = (("1", "2", "3", "3-mixed") if self.plane[f].is_polyhedral
                     else ("1", "2", "3"))
            for case in cases:
                for eps in self.EPSILONS:
                    restrict = None
                    if f in ("l1", "l2") and case in ("1", "2"):
                        restrict = 1 if case == "1" else 0
                    self.ds_grid.append((f, case, eps, restrict))
        self.ls_grid = [(p, m, False) for p in (1.0, 2.0, 3.0)
                        for m in (2, 3, 4)]
        self.ls_grid += [(1.0, m, True) for m in (2, 3, 4)]

    def _direct_sum_unit(self, rng, f, case, eps, restrict):
        inst = harness.generate_instance(
            "ahsp_direct_sum",
            {"f": f, "epsilon": eps, "case": case, "members": 5}, rng)
        witness = ahsp.direct_sum_witness(
            self.M, self.N, self.plane[f], inst["series"], eps,
            oracle_M=self.oM, oracle_N=self.oN, policy=self.policy[(f, eps)])
        certs = list(witness.certificates)
        certs += ahsp.verify_ahsp_witness(inst["series"], witness)
        if restrict is not None:
            certs += ahsp.restrict_witness(inst["space"], witness,
                                           restrict).certificates
        return certs

    def _lattice_sum_unit(self, rng, p, m, zero_branch):
        params = {"p": p, "num_components": m,
                  "epsilon": self.LATTICE_EPSILON, "members": 5}
        if zero_branch:
            params["zero_branch"] = True
        inst = harness.generate_instance("ahsp_lattice_sum", params, rng)
        oracle, ahp, pol = self.lattice_shared[(p, m)]
        witness = lattice_sums.lattice_sum_witness(
            inst["space"], inst["series"], self.LATTICE_EPSILON,
            E_oracle=oracle, component_ahp=ahp, policy=pol)
        return (list(witness.certificates)
                + ahsp.verify_ahsp_witness(inst["series"], witness))

    def round_units(self, seed, round_index):
        ds = [("direct_sum", (self._direct_sum_unit, args))
              for args in self.ds_grid]
        # two passes over the lattice grid keep the halves about even
        ls = [("lattice_sum", (self._lattice_sum_unit, args))
              for args in self.ls_grid * 2]
        return _bind(_interleave(ds, ls), seed, round_index)


# ---------------------------------------------------------------------------
# correction_mix


def _basis_bound_certs(op: spaces.Operator, result) -> list:
    """Independent bracket for an operator norm on a lattice-normed domain.

    Lower: every unit basis vector gives ``|T e_j| / |e_j|``, and the
    returned witness must realise the returned value.  Upper: for a
    1-unconditional domain norm, ``|T x| <= sum_j |x_j| |T e_j| <=
    dual_norm(c) |x|`` with ``c_j = |T e_j|``.
    """
    dom, cod = op.domain, op.codomain
    cols = np.array([cod.norm(op.matrix[:, j]) for j in range(dom.dim)])
    basis = [cols[j] / dom.norm(np.eye(dom.dim)[j]) for j in range(dom.dim)]
    upper = dom.dual_norm(cols)
    return [
        check("opnorm-witness-unit", abs(dom.norm(result.witness) - 1.0),
              "<=", 0.0, tol=1e-9),
        check("opnorm-witness-value",
              abs(cod.norm(op.apply(result.witness)) - result.value), "<=",
              0.0, tol=1e-9),
        check("opnorm-above-basis", result.value, ">=", max(basis),
              tol=1e-12),
        check("opnorm-below-column-bound", result.value, "<=", upper,
              tol=1e-12),
    ]


class CorrectionMix(Workload):
    name = "correction_mix"
    replay = (
        harness.Scenario("correct_l1sum", {"trials": 3, "epsilon": 0.2}),
        harness.Scenario("align", {"trials": 5, "dim": 8,
                                   "scalar_field": "complex"}),
    )

    EPSILONS = (0.1, 0.2, 0.5)
    ALIGN_DIMS = (1, 2, 3, 8, 16)

    def setup(self) -> None:
        self.opnorm_grid = [
            (spaces.LpSpace(3, 3.0), spaces.LpSpace(3, 1.5)),
            (spaces.PlaneSpace(table_norm()), spaces.EuclideanSpace(3)),
            (spaces.LatticeSpace(LpLattice(3, 1.5)), spaces.LpSpace(2, 4.0)),
        ]
        self.align_grid = [(d, f) for d in self.ALIGN_DIMS
                           for f in ("real", "complex")]

    def _correction_unit(self, rng, epsilon):
        params = {"epsilon": epsilon, "max_components": 5, "max_dim": 4}
        inst = harness.generate_instance("correct_l1sum", params, rng)
        corr = bpb.correct_operator_l1sum(inst["components"], inst["H"],
                                          inst["T"], inst["z0"], epsilon)
        instance = bpb.BpbInstance(inst["T"], inst["z0"], epsilon,
                                   inst["cascade"].t ** 2)
        return (list(corr.certificates)
                + bpb.verify_bpb_correction(instance, corr))

    def _align_unit(self, rng, dim, field_name):
        # the trial index selects the generator's coincident, opposite and
        # near-coincident pairs on a share of units
        inst = harness.generate_align_instance(
            {"dim": dim, "scalar_field": field_name}, rng,
            int(rng.integers(0, 221)))
        phi = alignment.align_isometry(inst["space"], inst["u"], inst["v"])
        return alignment.verify_isometry(phi)

    def _opnorm_unit(self, rng, dom, cod):
        op = spaces.Operator(rng.standard_normal((cod.dim, dom.dim)), dom, cod)
        return _basis_bound_certs(op, spaces.operator_norm(op))

    def round_units(self, seed, round_index):
        units = [("correction", (self._correction_unit, (eps,)))
                 for eps in self.EPSILONS * 6]
        units = _interleave(units, [("align", (self._align_unit, args))
                                    for args in self.align_grid])
        units = _interleave(units, [("operator_norm", (self._opnorm_unit, args))
                                    for args in self.opnorm_grid])
        return _bind(units, seed, round_index)


# ---------------------------------------------------------------------------
# moduli_sweep


class ModuliSweep(Workload):
    name = "moduli_sweep"
    replay = (
        harness.Scenario("moduli_curve", {"trials": 1, "count": 6,
                                          "space": {"kind": "euclidean",
                                                    "dim": 3}}),
        harness.Scenario("duality_check", {"trials": 3, "p": 3.0,
                                           "samples": 30}),
    )

    def setup(self) -> None:
        self.table_space = spaces.PlaneSpace(table_norm())
        self.lattice_space = spaces.LatticeSpace(LpLattice(3, 3.0))
        # warm the lazy scipy.stats import of the sampling estimator
        moduli.convexity_modulus(spaces.EuclideanSpace(2), 1.0,
                                 method="brute_force", resolution=2)
        self.previous: dict = {}

    # -- units --------------------------------------------------------------

    def _closed_form_unit(self, space, eps, resolution):
        brute = moduli.convexity_modulus(space, eps, method="brute_force",
                                         resolution=resolution)
        closed = moduli.convexity_modulus(space, eps, method="closed_form")
        return [check("brute-vs-closed-form", abs(brute - closed), "<=", 0.0,
                      tol=CLOSED_FORM_TOL)]

    def _euclidean_unit(self, rng, shift, lo, hi, round_index):
        dim = 2 + (round_index + shift) % 3
        return self._closed_form_unit(
            spaces.EuclideanSpace(dim),
            _stratified(rng, lo, hi, round_index + shift), BRUTE_RESOLUTION)

    def _lp_unit(self, rng, p, lo, hi, round_index):
        p = p + float(rng.uniform(-0.1, 0.1))
        return self._closed_form_unit(
            spaces.LpSpace(2, p), _stratified(rng, lo, hi, round_index),
            LP_RESOLUTION)

    def _curve_unit(self, rng, which, lo, hi, round_index):
        """No closed form: the curve checks of the harness's moduli trial.

        Successive units on one space form a curve whose epsilon grows, so
        each value must not fall below the previous one.
        """
        space = self.table_space if which == "table" else self.lattice_space
        eps = _stratified(rng, lo, hi, round_index)
        value = moduli.convexity_modulus(space, eps, method="brute_force",
                                         resolution=BRUTE_RESOLUTION)
        certs = [
            check("curve-finite", 0.0 if math.isfinite(value) else 1.0,
                  "<=", 0.0),
            check("curve-lower", value, ">=", 0.0, tol=1e-12),
            check("curve-upper", value, "<=", 1.0, tol=1e-9),
        ]
        prev = self.previous.pop(which, None)
        if prev is not None:
            certs.append(check("curve-monotone", value - prev, ">=", 0.0,
                               tol=1e-9))
        else:
            self.previous[which] = value
        return certs

    def _monotonicity_unit(self, rng, p):
        dim = int(rng.integers(2, 7))
        lattice = LpLattice(dim, p)
        certs = []
        for eps in np.linspace(0.05, 0.95, 16):
            value = moduli.monotonicity_modulus(lattice, float(eps))
            closed = 1.0 - (1.0 - eps ** p) ** (1.0 / p)
            certs.append(check("monotonicity-closed-form",
                               abs(value - closed), "<=", 0.0, tol=1e-12))
        return certs

    def _duality_unit(self, rng, p):
        inst = harness.generate_instance(
            "duality_check", {"p": p, "num_components": 3}, rng)
        return lattice_sums.duality_isometry_check(
            inst["space"], inst["functional"],
            seed=int(rng.integers(0, 2 ** 31)), samples=50)

    def round_units(self, seed, round_index):
        r = round_index
        brute = [
            ("convexity_closed_form", (self._euclidean_unit, (0, 0.2, 1.9, r))),
            ("convexity_closed_form", (self._euclidean_unit, (1, 0.2, 1.9, r))),
            ("convexity_closed_form", (self._lp_unit, (2.6, 0.3, 1.0, r))),
            ("convexity_closed_form", (self._lp_unit, (3.9, 0.3, 1.0, r))),
            ("convexity_curve", (self._curve_unit, ("table", 0.3, 0.9, r))),
            ("convexity_curve", (self._curve_unit, ("table", 1.0, 1.8, r))),
            ("convexity_curve", (self._curve_unit, ("lattice", 0.3, 0.9, r))),
            ("convexity_curve", (self._curve_unit, ("lattice", 1.0, 1.8, r))),
        ]
        probes = [("duality", (self._duality_unit, (p,)))
                  for p in (1.0, 2.0, 3.0) * 5]
        probes += [("monotonicity", (self._monotonicity_unit, (p,)))
                   for p in (1.0, 2.0, 3.0)]
        self.previous = {}
        return _bind(_interleave(probes, brute), seed, round_index)


def _bind(units, seed, round_index):
    """Turn ``(kind, (fn, args))`` into ``(kind, thunk)`` with the unit rng."""
    out = []
    for position, (kind, (fn, args)) in enumerate(units):
        def thunk(fn=fn, args=args, position=position):
            return fn(unit_rng(seed, round_index, position), *args)
        out.append((kind, thunk))
    return out


WORKLOADS = {w.name: w for w in (WitnessMix, CorrectionMix, ModuliSweep)}
