"""Acceptance battery: every headline guarantee at desk scale.

Each test prints one pass/fail line naming the guarantee it exercises,
then asserts it.  Budgets are wall-clock seconds for the whole battery.
"""
from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from bpbkit.alignment import align_isometry
from bpbkit.ahsp import (
    ahsp_oracle_for,
    direct_sum_witness,
    eta_policy,
    restrict_witness,
    verify_ahsp_witness,
)
from bpbkit.bpb import ConvexSeries, correct_operator_l1sum, filter_large_real_part
from bpbkit.errors import NotUniformlyMonotone
from bpbkit.harness import (
    SCENARIO_KINDS,
    Scenario,
    generate_instance,
    run_scenario,
)
from bpbkit.lattice_sums import (
    build_norming_element,
    duality_isometry_check,
    lattice_sum_space,
    lattice_sum_witness,
)
from bpbkit.lattices import LpLattice
from bpbkit.moduli import convexity_modulus, monotonicity_modulus
from bpbkit.spaces import EuclideanSpace, LpSpace, Operator, operator_norm


def rng_for(master: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master, index]))


def report_line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def random_unit(rng: np.random.Generator, dim: int, complex_field: bool):
    raw = rng.standard_normal(dim)
    if complex_field:
        raw = raw + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


def test_aligning_isometry_battery():
    budget, trials = 5.0, 1000
    start = time.perf_counter()
    worst = {"unitary": 0.0, "maps": 0.0, "defect": 0.0, "orthogonal": 0.0}
    for dim, field_name in itertools.product((1, 2, 3, 8, 16), ("real", "complex")):
        space = EuclideanSpace(dim, field_name)
        cx = field_name == "complex"
        eye = np.eye(dim)
        for i in range(trials):
            rng = rng_for(101 + dim, i)
            u = random_unit(rng, dim, cx)
            v = random_unit(rng, dim, cx)
            phi = align_isometry(space, u, v)
            m = phi.matrix
            worst["unitary"] = max(
                worst["unitary"], float(np.abs(m.conj().T @ m - eye).max())
            )
            worst["maps"] = max(worst["maps"], float(np.linalg.norm(m @ u - v)))
            worst["defect"] = max(
                worst["defect"], abs(phi.defect - float(np.linalg.norm(u - v)))
            )
            if phi.u_perp is not None:
                worst["orthogonal"] = max(
                    worst["orthogonal"],
                    abs(complex(np.vdot(v - u, phi.v_perp - phi.u_perp))),
                )
    elapsed = time.perf_counter() - start
    ok = (
        worst["unitary"] <= 1e-10
        and worst["maps"] <= 1e-10
        and worst["defect"] <= 1e-8
        and worst["orthogonal"] <= 1e-10
        and elapsed < budget
    )
    report_line(
        "aligning isometry",
        ok,
        f"10x{trials} unit pairs, worst deviations {worst}, {elapsed:.1f}s",
    )
    assert worst["unitary"] <= 1e-10
    assert worst["maps"] <= 1e-10
    assert worst["defect"] <= 1e-8
    assert worst["orthogonal"] <= 1e-10
    assert elapsed < budget


def test_convex_mass_filter_battery():
    budget, trials = 1.0, 10_000
    instances = []
    for i in range(trials):
        rng = rng_for(7, i)
        k = int(rng.integers(2, 10))
        weights = rng.dirichlet(np.ones(k))
        gaps = rng.uniform(0.0, 0.4, size=k)
        theta = rng.uniform(-0.3, 0.3, size=k)
        values = (1.0 - gaps) * np.exp(1j * theta)
        eta = 1.0 - float(np.real(np.dot(weights, values))) + 1e-9
        r = float(rng.uniform(0.3, 0.9))
        if eta >= 1.0 - r:
            r = max(0.05, 1.0 - 2.0 * eta)
        instances.append((ConvexSeries(weights, values), eta, r))
    start = time.perf_counter()
    violations = 0
    for series, eta, r in instances:
        result = filter_large_real_part(series, eta, r)
        if not result.mass > 1.0 - eta / (1.0 - r):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < budget
    report_line(
        "convex-mass filter",
        ok,
        f"{trials} instances, {violations} mass-bound violations, {elapsed:.2f}s",
    )
    assert violations == 0
    assert elapsed < budget


def test_l1_sum_correction_battery():
    budget, per_eps = 60.0, 1000
    start = time.perf_counter()
    checked = 0
    for j, epsilon in enumerate((0.1, 0.2, 0.5)):
        params = {"epsilon": epsilon, "max_components": 5, "max_dim": 4,
                  "h_dim": 4}
        for i in range(per_eps):
            rng = rng_for(310 + j, i)
            inst = generate_instance("correct_l1sum", params, rng)
            T, z0, H = inst["T"], inst["z0"], inst["H"]
            domain = T.domain
            corr = correct_operator_l1sum(inst["components"], H, T, z0, epsilon)
            c = corr.cascade
            R, x0 = corr.S, corr.u
            r_norm = operator_norm(R).value
            rx0_norm = H.norm(R.matrix @ x0)
            dist_op = operator_norm(
                Operator(R.matrix - T.matrix, domain, H)).value
            dist_vec = domain.norm(x0 - z0)
            tail = sum(
                comp.norm(block)
                for k, (comp, block) in enumerate(zip(domain.components,
                                                      domain.split(z0)))
                if k not in corr.heavy_set
            )
            assert abs(r_norm - 1.0) <= 1e-8
            assert abs(rx0_norm - 1.0) <= 1e-8
            assert dist_op < epsilon
            assert dist_vec < epsilon
            assert tail <= c.t + 1e-12
            assert dist_op <= c.r + c.s + c.t + 1e-9
            assert dist_vec <= 2.0 * c.t + c.s + 1e-9
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 3 * per_eps and elapsed < budget
    report_line(
        "sum-domain operator correction",
        ok,
        f"{checked} instances over epsilon in (0.1, 0.2, 0.5), exact norms "
        f"attained within 1e-8, chain bounds hold, {elapsed:.1f}s",
    )
    assert checked == 3 * per_eps
    assert elapsed < budget


def test_one_dimensional_codomain_correction_battery():
    # delta_H(r) = r/2 on a one-dimensional H, so s is not floored
    budget, seeds = 20.0, 100
    start = time.perf_counter()
    runs = failed = errors = 0
    for epsilon in (0.1, 0.2, 0.5):
        scenario = Scenario("correct_l1sum", {"epsilon": epsilon, "h_dim": 1})
        for seed in range(seeds):
            for trial in run_scenario(scenario, seed).trials:
                runs += 1
                errors += len(trial.errors)
                failed += sum(not c.passed for c in trial.certificates)
    elapsed = time.perf_counter() - start
    ok = runs == 3 * seeds and failed == errors == 0 and elapsed < budget
    report_line(
        "sum-domain correction into a one-dimensional H",
        ok,
        f"{runs} trials over epsilon in (0.1, 0.2, 0.5), {failed} failed "
        f"certificates, {errors} errors, {elapsed:.1f}s",
    )
    assert runs == 3 * seeds
    assert failed == 0 and errors == 0
    assert elapsed < budget

def test_direct_sum_witness_battery():
    budget, per_norm = 120.0, 1000
    norms = ("l1", "l2", "l3", "table")
    start = time.perf_counter()
    M = EuclideanSpace(2)
    N = EuclideanSpace(2)
    oM, oN = ahsp_oracle_for(M), ahsp_oracle_for(N)
    case_seen = {"1": 0, "2": 0, "3": 0}
    split_exact = True
    total = 0
    for fi, f_key in enumerate(norms):
        f = generate_instance(
            "ahsp_direct_sum", {"f": f_key, "members": 1}, rng_for(0, 0))["f"]
        policies = {eps: eta_policy(f, oM, oN, eps) for eps in (0.2, 0.5)}
        cases = ["1", "2", "3", "3-mixed"] if f.is_polyhedral else ["1", "2", "3"]
        for i in range(per_norm):
            epsilon = (0.2, 0.5)[i % 2]
            case = cases[i % len(cases)]
            rng = rng_for(410 + fi, i)
            inst = generate_instance(
                "ahsp_direct_sum",
                {"f": f_key, "epsilon": epsilon, "case": case, "members": 5},
                rng,
            )
            witness = direct_sum_witness(
                M, N, f, inst["series"], epsilon,
                oracle_M=oM, oracle_N=oN, policy=policies[epsilon],
            )
            assert all(c.passed for c in witness.certificates)
            assert all(c.passed for c in verify_ahsp_witness(inst["series"],
                                                             witness))
            names = {c.name: c for c in witness.certificates}
            if "second-profile-large" in names:
                case_seen["1"] += 1
            elif "first-profile-large" in names:
                case_seen["2"] += 1
            if "split-first-covered" in names:
                case_seen["3"] += 1
                # the two threshold-subset inclusions hold exactly
                split_exact = split_exact and (
                    names["split-first-covered"].lhs == 0.0
                    and names["split-second-covered"].lhs == 0.0
                )
            total += 1
    elapsed = time.perf_counter() - start
    ok = (
        total == len(norms) * per_norm
        and min(case_seen.values()) > 0
        and split_exact
        and elapsed < budget
    )
    report_line(
        "two-summand witness construction",
        ok,
        f"{total} instances over four plane norms at epsilon in (0.2, 0.5), "
        f"cases seen {case_seen}, subset inclusions exact, {elapsed:.1f}s",
    )
    assert total == len(norms) * per_norm
    assert min(case_seen.values()) > 0
    assert split_exact
    assert elapsed < budget


def test_witness_restriction_battery():
    budget, trials = 30.0, 1000
    start = time.perf_counter()
    M = EuclideanSpace(2)
    N = EuclideanSpace(2)
    oM, oN = ahsp_oracle_for(M), ahsp_oracle_for(N)
    epsilon = 0.2
    failures = 0
    policies = {}
    for f_key in ("l1", "l2"):
        f = generate_instance(
            "ahsp_direct_sum", {"f": f_key, "members": 1}, rng_for(0, 0))["f"]
        policies[f_key] = (f, eta_policy(f, oM, oN, epsilon / 2.0))
    for i in range(trials):
        f_key = ("l1", "l2")[i % 2]
        case = ("1", "2")[(i // 2) % 2]
        component = 1 if case == "1" else 0
        f, policy = policies[f_key]
        rng = rng_for(510, i)
        inst = generate_instance(
            "ahsp_direct_sum",
            {"f": f_key, "epsilon": epsilon / 2.0, "case": case, "members": 4},
            rng,
        )
        witness = direct_sum_witness(
            M, N, f, inst["series"], epsilon / 2.0,
            oracle_M=oM, oracle_N=oN, policy=policy,
        )
        restricted = restrict_witness(inst["space"], witness, component)
        if restricted.epsilon != pytest.approx(epsilon):
            failures += 1
        elif not all(c.passed for c in restricted.certificates):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < budget
    report_line(
        "witness restriction to a summand",
        ok,
        f"{trials} half-epsilon witnesses restricted to component "
        f"witnesses at epsilon, {failures} failures, {elapsed:.1f}s",
    )
    assert failures == 0
    assert elapsed < budget


def test_lattice_sum_witness_battery():
    budget, per_p = 180.0, 1000
    required = (
        "defect-sum", "support-mass", "residual-mass", "component-support",
        "witness-distance", "witness-distance-final", "profile-value-exact",
    )
    start = time.perf_counter()
    epsilon = 0.3
    total = 0
    worst_value_dev = 0.0
    for pj, p in enumerate((1.0, 2.0, 3.0)):
        for i in range(per_p):
            m = (2, 3, 4)[i % 3]
            params = {"p": p, "num_components": m, "epsilon": epsilon,
                      "members": 5}
            if p == 1.0 and i % 10 == 9:
                params["zero_branch"] = True
            rng = rng_for(610 + pj, i)
            inst = generate_instance("ahsp_lattice_sum", params, rng)
            Z = inst["space"]
            witness = lattice_sum_witness(Z, inst["series"], epsilon)
            names = {c.name for c in witness.certificates}
            assert all(c.passed for c in witness.certificates)
            assert set(required) <= names
            for point in witness.points:
                worst_value_dev = max(
                    worst_value_dev,
                    abs(float(np.real(Z.pairing(witness.functional, point)))
                        - 1.0),
                )
            total += 1
    elapsed = time.perf_counter() - start
    ok = total == 3 * per_p and worst_value_dev <= 1e-8 and elapsed < budget
    report_line(
        "lattice-sum witness construction",
        ok,
        f"{total} instances over p in (1, 2, 3) with up to 4 components, all "
        f"chain certificates hold, functional value within "
        f"{worst_value_dev:.1e} of one, {elapsed:.1f}s",
    )
    assert total == 3 * per_p
    assert worst_value_dev <= 1e-8
    assert elapsed < budget


def test_many_component_lattice_sum_battery():
    # each block's norming slack is eps'/(2m(e*_k + 1)), which stays above
    # the rounding residue of the block gaps at every m
    budget = 30.0
    start = time.perf_counter()
    runs = failed = errors = 0
    for m, p, epsilon in itertools.product((100, 300), (1.0, 2.0, 3.0),
                                           (0.1, 0.3)):
        scenario = Scenario("ahsp_lattice_sum", {
            "trials": 2, "p": p, "epsilon": epsilon, "num_components": m})
        for trial in run_scenario(scenario, 2).trials:
            runs += 1
            errors += len(trial.errors)
            failed += sum(not c.passed for c in trial.certificates)
    elapsed = time.perf_counter() - start
    ok = runs == 24 and failed == errors == 0 and elapsed < budget
    report_line(
        "lattice-sum witnesses with 100 and 300 components",
        ok,
        f"{runs} trials over p in (1, 2, 3) and epsilon in (0.1, 0.3), "
        f"{failed} failed certificates, {errors} errors, {elapsed:.1f}s",
    )
    assert runs == 24
    assert failed == 0 and errors == 0
    assert elapsed < budget

def test_moduli_oracle_battery():
    budget = 30.0
    start = time.perf_counter()
    worst_convexity = 0.0
    for dim in (2, 3, 4):
        space = EuclideanSpace(dim)
        for eps in (0.4, 1.0, 1.6):
            brute = convexity_modulus(space, eps, method="brute_force",
                                      resolution=1000)
            closed = 1.0 - math.sqrt(1.0 - eps**2 / 4.0)
            worst_convexity = max(worst_convexity, abs(brute - closed))

    worst_monotonicity = 0.0
    rng = np.random.default_rng(777)
    for p in (1.0, 2.0, 3.0):
        for dim in (2, 4, 6):
            lattice = LpLattice(dim, p)
            for eps in (0.3, 0.7):
                value = monotonicity_modulus(lattice, eps)
                closed = 1.0 - (1.0 - eps**p) ** (1.0 / p)
                worst_monotonicity = max(worst_monotonicity,
                                         abs(value - closed))
                # subset enumeration: the smallest observed norm drop over
                # sampled positive unit vectors and every support subset of
                # mass >= eps upper-bounds the modulus; the concentrated
                # two-coordinate vector attains it.
                best = math.inf
                vectors = [np.abs(rng.standard_normal(dim)) for _ in range(40)]
                # keep the extremal mass a hair above eps so float rounding
                # in the unit normalisation cannot drop it below threshold
                extremal = np.zeros(dim)
                extremal[1] = eps + 1e-9
                extremal[0] = (1.0 - extremal[1] ** p) ** (1.0 / p)
                vectors.append(extremal)
                for raw in vectors:
                    x = raw / lattice.norm_of(raw)
                    for mask in range(1, 2**dim):
                        sel = np.array([(mask >> k) & 1 for k in range(dim)],
                                       dtype=bool)
                        if lattice.norm_of(np.where(sel, x, 0.0)) < eps:
                            continue
                        drop = 1.0 - lattice.norm_of(np.where(sel, 0.0, x))
                        best = min(best, drop)
                worst_monotonicity = max(worst_monotonicity,
                                         abs(best - value))
    with pytest.raises(NotUniformlyMonotone):
        monotonicity_modulus(LpLattice(3, math.inf), 0.4)
    elapsed = time.perf_counter() - start
    ok = (worst_convexity <= 1e-4 and worst_monotonicity <= 1e-4
          and elapsed < budget)
    report_line(
        "moduli oracles",
        ok,
        f"brute-force convexity within {worst_convexity:.1e}, subset-"
        f"enumeration monotonicity within {worst_monotonicity:.1e}, flat "
        f"lattice rejected, {elapsed:.1f}s",
    )
    assert worst_convexity <= 1e-4
    assert worst_monotonicity <= 1e-4
    assert elapsed < budget


def test_kothe_duality_battery():
    budget = 10.0
    start = time.perf_counter()
    checked = 0
    for pj, p in enumerate((1.0, 2.0, 3.0)):
        for i in range(34):
            rng = rng_for(810 + pj, i)
            inst = generate_instance("duality_check",
                                     {"p": p, "num_components": 3}, rng)
            certs = duality_isometry_check(inst["space"], inst["functional"],
                                           seed=i, samples=50)
            assert all(c.passed for c in certs)
            checked += 1

    spaces = {p: lattice_sum_space(LpLattice(3, p), [EuclideanSpace(2)] * 3)
              for p in (1.0, 2.0, 3.0)}
    violations = 0
    for i in range(1000):
        rng = rng_for(820, i)
        p = (1.0, 2.0, 3.0)[i % 3]
        Z = spaces[p]
        z = rng.standard_normal(Z.dim) * rng.uniform(0.2, 3.0)
        eps = float(rng.uniform(0.005, 0.5))
        element = build_norming_element(Z, z, eps)
        if not float(np.real(Z.pairing(element.assembled, z))) > Z.norm(z) - eps:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = checked == 102 and violations == 0 and elapsed < budget
    report_line(
        "Köthe duality and norming elements",
        ok,
        f"{checked} functionals with isometry gap <= 1e-4, {violations} "
        f"norming-value violations over 1000 probes, {elapsed:.1f}s",
    )
    assert checked == 102
    assert violations == 0
    assert elapsed < budget


def test_reproducible_report_battery():
    small = {
        "align": {"trials": 5, "dim": 3},
        "correct_l1sum": {"trials": 3, "epsilon": 0.2},
        "ahsp_direct_sum": {"trials": 3, "f": "l2", "epsilon": 0.3},
        "ahsp_lattice_sum": {"trials": 3, "p": 2.0, "epsilon": 0.3},
        "moduli_curve": {"trials": 1,
                         "space": {"kind": "euclidean", "dim": 2},
                         "count": 6},
        "duality_check": {"trials": 3, "p": 1.0, "samples": 30},
    }
    assert set(small) == set(SCENARIO_KINDS)
    mismatched = []
    for kind, params in small.items():
        scenario = Scenario(kind, params)
        first = run_scenario(scenario, 23).canonical_bytes()
        second = run_scenario(scenario, 23).canonical_bytes()
        if first != second:
            mismatched.append(kind)
    distinct = (run_scenario(Scenario("align", small["align"]), 23).canonical_bytes()
                != run_scenario(Scenario("align", small["align"]), 24).canonical_bytes())
    ok = not mismatched and distinct
    report_line(
        "byte-reproducible reports",
        ok,
        f"all {len(small)} scenario kinds replay to identical bytes; "
        f"different seeds differ",
    )
    assert mismatched == []
    assert distinct
