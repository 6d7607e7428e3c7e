"""Seeded scenario harness with byte-reproducible reports.

A scenario is a kind plus a parameter dictionary.  Running it draws one
child generator per trial from ``SeedSequence([master_seed, trial_index])``,
builds an instance, runs the matching pipeline, and records every
certificate; exceptions inside a trial are recorded as strings rather than
aborting the run.  The canonical report bytes cover the scenario, seed,
trials, and summary — wall-clock time is reported alongside but kept out
of the canonical payload so identical inputs give identical bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .absolute import AbsoluteNorm2
from .ahsp import (UniformlyConvexAhspOracle, ahsp_oracle_for,
                   direct_sum_witness, eta_policy, restrict_witness)
from .alignment import align_isometry, verify_isometry
from .bpb import (BpbInstance, ConvexSeries, cascade_l1sum,
                  correct_operator_l1sum, default_component_oracle,
                  verify_bpb_correction)
from .certs import Certificate, check
from .errors import ConfigError, GenerationFailed
from .lattices import Absolute2Lattice, LpLattice
from .lattice_sums import (duality_isometry_check, lattice_sum_policy,
                           lattice_sum_space, lattice_sum_witness,
                           default_profile_oracle)
from .moduli import convexity_curve, monotonicity_curve
from .spaces import (DirectSumSpace, EuclideanSpace, Operator,
                     operator_norm, space_from_json)
from .util import canonical_json

#: Designed spreads for witness-pipeline instances: member profiles sit
#: within PROFILE_SPREAD of a common sphere profile and block directions
#: within DIRECTION_SPREAD of common directions, so the convex-sum deficit
#: (about half the squared direction spread) stays below the entry slack.
PROFILE_SPREAD = 1e-9
DIRECTION_SPREAD = 5e-5


@dataclass(frozen=True)
class Scenario:
    kind: str
    params: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params}


@dataclass
class TrialRecord:
    index: int
    certificates: list[Certificate] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "certificates": [
                {"name": c.name, "lhs": c.lhs, "relation": c.relation,
                 "rhs": c.rhs, "tol": c.tol, "margin": c.margin,
                 "passed": c.passed}
                for c in self.certificates
            ],
            "errors": list(self.errors),
        }


@dataclass
class Report:
    scenario: Scenario
    seed: int
    trials: list[TrialRecord]
    wall_time: float

    @property
    def total_certificates(self) -> int:
        return sum(len(t.certificates) for t in self.trials)

    @property
    def failures(self) -> int:
        return sum(1 for t in self.trials for c in t.certificates
                   if not c.passed)

    @property
    def error_count(self) -> int:
        return sum(len(t.errors) for t in self.trials)

    @property
    def passed(self) -> bool:
        """A report with no certificates at all counts as failed."""
        return (self.total_certificates > 0 and self.failures == 0
                and self.error_count == 0)

    def canonical_payload(self) -> dict:
        return {
            "scenario": self.scenario.to_json(),
            "seed": self.seed,
            "trials": [t.to_json() for t in self.trials],
            "summary": {
                "total_certificates": self.total_certificates,
                "failures": self.failures,
                "errors": self.error_count,
                "passed": self.passed,
            },
        }

    def canonical_bytes(self) -> bytes:
        return canonical_json(self.canonical_payload()).encode("utf-8")

    def to_json(self) -> dict:
        payload = self.canonical_payload()
        payload["wall_time_seconds"] = self.wall_time
        return payload


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(value, key: str, cast=float):
    """``cast(value)`` for the scenario param ``key``; a value that does not
    convert is a :class:`ConfigError` naming the key."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(
            f"param {key!r} must be {kind}, got {value!r}") from exc


def scenario_from_json(data: dict) -> Scenario:
    _require(isinstance(data, dict), "a scenario must be a JSON object")
    extra = set(data) - {"kind", "params"}
    _require(not extra, f"unknown scenario keys: {sorted(extra)}")
    kind = data.get("kind")
    _require(kind in _KINDS,
             f"kind must be one of {SCENARIO_KINDS}, got {kind!r}")
    params = data.get("params", {})
    _require(isinstance(params, dict), "params must be an object")
    return Scenario(kind, params)


def _trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, trial_index]))


def _unit(rng: np.random.Generator, dim: int, complex_field: bool = False):
    raw = rng.standard_normal(dim)
    if complex_field:
        raw = raw + 1j * rng.standard_normal(dim)
    n = float(np.linalg.norm(raw))
    if n == 0.0:
        raw = np.zeros(dim, dtype=complex if complex_field else float)
        raw[0] = 1.0
        return raw
    return raw / n


def _jittered_direction(rng: np.random.Generator, base: np.ndarray,
                        spread: float) -> np.ndarray:
    cand = base + spread * rng.standard_normal(base.shape[0])
    return cand / float(np.linalg.norm(cand))


# ---------------------------------------------------------------------------
# instance generators


def generate_align_instance(params: dict, rng: np.random.Generator,
                            trial_index: int = 0) -> dict:
    dim = _number(params.get("dim", 2), "dim", int)
    _require(dim >= 1, "dim must be at least 1")
    field_name = params.get("scalar_field", "real")
    _require(field_name in ("real", "complex"),
             f"scalar_field must be real or complex, got {field_name!r}")
    space = EuclideanSpace(dim, field_name)
    cx = field_name == "complex"
    u = _unit(rng, dim, cx)
    if trial_index % 17 == 5:
        v = u.copy()
    elif trial_index % 13 == 4:
        v = -u
    elif trial_index % 10 == 3:
        raw = u + 1e-8 * _unit(rng, dim, cx)
        v = raw / float(np.linalg.norm(raw))
    else:
        v = _unit(rng, dim, cx)
    return {"space": space, "u": u, "v": v}


def generate_correct_l1sum_instance(params: dict,
                                    rng: np.random.Generator) -> dict:
    """An operator on an l1-type sum, with near-attaining input.

    Every block sends its top direction to one shared codomain direction;
    blocks outside a designated heavy set run a norm deficiency between
    1.5t and 2t so the strict filter removes exactly them, and the input
    carries an l1-tail of 0.3t outside the heavy set, keeping the
    hypothesis within about 0.45 t^2 of one.  The operator is normalised
    by its certified norm and the input perturbed well inside the t^2
    budget.
    """
    epsilon = _number(params.get("epsilon", 0.2), "epsilon")
    max_components = _number(params.get("max_components", 5),
                             "max_components", int)
    max_dim = _number(params.get("max_dim", 4), "max_dim", int)
    h_dim = _number(params.get("h_dim", rng.integers(1, 5)), "h_dim", int)
    _require(max_components >= 1 and max_dim >= 1 and h_dim >= 1,
             "component counts and dimensions must be positive")
    n_comp = int(rng.integers(1, max_components + 1))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_comp)]
    components = [EuclideanSpace(d) for d in dims]
    H = EuclideanSpace(h_dim)
    domain = DirectSumSpace(components, LpLattice(n_comp, 1.0))

    oracles = [default_component_oracle(c) for c in components]
    cascade = cascade_l1sum(epsilon, lambda s: min(o.eta(s) for o in oracles),
                            H)
    t = cascade.t

    heavy = sorted(rng.choice(n_comp, size=int(rng.integers(1, n_comp + 1)),
                              replace=False).tolist())
    y = _unit(rng, h_dim)
    tops = []
    blocks = []
    for i, d in enumerate(dims):
        v_top = _unit(rng, d)
        tops.append(v_top)
        sigma1 = 1.0 if i in heavy else 1.0 - rng.uniform(1.5 * t, 2.0 * t)
        mat = sigma1 * np.outer(y, v_top)
        # contractive remainder orthogonal to the top pair
        if d > 1 and h_dim > 1:
            q_dom = np.linalg.qr(
                np.column_stack([v_top, rng.standard_normal((d, d - 1))]))[0]
            q_cod = np.linalg.qr(
                np.column_stack([y, rng.standard_normal((h_dim, h_dim - 1))]))[0]
            k = min(d, h_dim) - 1
            for j in range(k):
                mat += rng.uniform(0.2, 0.9) * sigma1 * np.outer(
                    q_cod[:, j + 1], q_dom[:, j + 1])
        blocks.append(mat)
    T_mat = np.concatenate(blocks, axis=1)
    T = Operator(T_mat, domain, H)
    res = operator_norm(T)
    T = Operator(T.matrix / res.value, domain, H)

    tail = 0.3 * t if len(heavy) < n_comp else 0.0
    weights = np.zeros(n_comp)
    heavy_w = rng.uniform(0.5, 1.0, size=len(heavy))
    weights[heavy] = (1.0 - tail) * heavy_w / heavy_w.sum()
    out = [i for i in range(n_comp) if i not in heavy]
    if out:
        out_w = rng.uniform(0.5, 1.0, size=len(out))
        weights[out] = tail * out_w / out_w.sum()
    z_blocks = []
    noise = 0.01 * t
    for i, d in enumerate(dims):
        direction = tops[i] + noise * rng.standard_normal(d)
        direction /= float(np.linalg.norm(direction))
        z_blocks.append(weights[i] * direction)
    z0 = domain.embed(z_blocks)
    z0 = z0 / domain.norm(z0)
    return {"components": components, "H": H, "T": T, "z0": z0,
            "epsilon": epsilon, "cascade": cascade}


def _sphere_profile(f: AbsoluteNorm2, pair) -> np.ndarray:
    a, b = abs(float(pair[0])), abs(float(pair[1]))
    s = a + b
    if s == 0.0:
        raise GenerationFailed("cannot project the zero pair to the sphere")
    return f.sphere_point(b / s)


def _plane_profile_base(f: AbsoluteNorm2, case: str) -> np.ndarray:
    if case == "1":
        raw = (0.0, 1.0) if f.is_polyhedral else (1e-5, 1.0)
    elif case == "2":
        raw = (1.0, 0.0) if f.is_polyhedral else (1.0, 1e-5)
    else:
        raw = (1.0, 1.0) if not f.is_polyhedral else (0.55, 0.45)
    return _sphere_profile(f, raw)


def _case3_mixed_profiles(f: AbsoluteNorm2, count: int,
                          rng: np.random.Generator) -> list[np.ndarray]:
    """Profiles spread along one maximal face of a polyhedral plane norm,
    including both endpoints, so the threshold subsets are proper."""
    verts = [np.asarray(v, dtype=float) for v in f.vertices]
    if len(verts) < 2:
        raise GenerationFailed("polyhedral plane norm with a single vertex")
    gaps = [float(np.linalg.norm(verts[j + 1] - verts[j]))
            for j in range(len(verts) - 1)]
    j = int(np.argmax(gaps))
    a, b = verts[j], verts[j + 1]
    out = [a.copy(), b.copy()]
    for _ in range(max(count - 2, 0)):
        lam = rng.uniform(0.15, 0.85)
        out.append((1.0 - lam) * a + lam * b)
    rng.shuffle(out)
    return out[:count]


def generate_ahsp_direct_sum_instance(params: dict,
                                      rng: np.random.Generator) -> dict:
    f = _plane_norm_from_params(params)
    epsilon = _number(params.get("epsilon", 0.2), "epsilon")
    count = _number(params.get("members", 6), "members", int)
    _require(count >= 1, "members must be positive")
    case = str(params.get("case", "3"))
    _require(case in ("1", "2", "3", "3-mixed"),
             f"case must be 1, 2, 3, or 3-mixed, got {case!r}")
    M = EuclideanSpace(2)
    N = EuclideanSpace(2)
    X = DirectSumSpace([M, N], Absolute2Lattice(f))

    if case == "3-mixed":
        if not f.is_polyhedral:
            raise ConfigError("mixed case-3 profiles need a polyhedral norm")
        profiles = _case3_mixed_profiles(f, count, rng)
    else:
        base = _plane_profile_base(f, case)
        profiles = []
        for _ in range(count):
            if f.is_polyhedral and case in ("1", "2"):
                profiles.append(base.copy())
            else:
                cand = base + PROFILE_SPREAD * rng.standard_normal(2)
                profiles.append(_sphere_profile(f, cand))
    m_base = _unit(rng, 2)
    n_base = _unit(rng, 2)
    weights = rng.uniform(0.5, 1.0, size=count)
    weights /= weights.sum()
    points = []
    for prof in profiles:
        mk = _jittered_direction(rng, m_base, DIRECTION_SPREAD)
        nk = _jittered_direction(rng, n_base, DIRECTION_SPREAD)
        points.append(X.embed([prof[0] * mk, prof[1] * nk]))
    series = ConvexSeries(weights, np.array(points))
    return {"f": f, "M": M, "N": N, "space": X, "series": series,
            "epsilon": epsilon}


def generate_ahsp_lattice_sum_instance(params: dict,
                                       rng: np.random.Generator) -> dict:
    shared = _ahsp_lattice_sum_setup(params)
    E, Z, pol = shared["E"], shared["space"], shared["policy"]
    m = E.dim
    count = _number(params.get("members", 6), "members", int)
    zero_branch = bool(params.get("zero_branch", False))

    # spreads scale with the policy: member profiles must sit well inside
    # the profile-level tolerance eps', and the convex-sum value deficit
    # (half the squared direction spread) well inside the 1-r filter gap
    prof_spread = _number(params.get(
        "profile_spread", min(PROFILE_SPREAD, 0.05 * pol.epsilon_prime)),
        "profile_spread")
    dir_spread = _number(params.get(
        "direction_spread",
        min(DIRECTION_SPREAD, np.sqrt(0.02 * (1.0 - pol.r)))),
        "direction_spread")

    base_prof = rng.uniform(0.4, 1.0, size=m)
    if zero_branch:
        base_prof[m - 1] = min(3e-9, 0.2 * pol.epsilon_prime)
    base_prof /= E.norm_of(base_prof)
    dirs = [_unit(rng, 2) for _ in range(m)]
    weights = rng.uniform(0.5, 1.0, size=count)
    weights /= weights.sum()
    points = []
    for n in range(count):
        prof = np.abs(base_prof + prof_spread * rng.standard_normal(m))
        if zero_branch and n == 0:
            prof[m - 1] = 0.0
        prof /= E.norm_of(prof)
        blocks = [prof[k] * _jittered_direction(rng, dirs[k], dir_spread)
                  for k in range(m)]
        points.append(Z.embed(blocks))
    series = ConvexSeries(weights, np.array(points))
    return {"E": E, "space": Z, "series": series, "epsilon": pol.epsilon}


def generate_duality_instance(params: dict,
                              rng: np.random.Generator) -> dict:
    p = _number(params.get("p", 2.0), "p")
    m = _number(params.get("num_components", 3), "num_components", int)
    _require(m >= 1, "a lattice sum needs at least one component")
    max_dim = _number(params.get("max_dim", 4), "max_dim", int)
    _require(max_dim >= 1, f"param 'max_dim' must be at least 1, got {max_dim}")
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(m)]
    E = LpLattice(m, p)
    Z = lattice_sum_space(E, [EuclideanSpace(d) for d in dims])
    f = rng.standard_normal(Z.dim)
    return {"space": Z, "functional": f}


def generate_instance(kind: str, params: dict,
                      rng: np.random.Generator) -> dict:
    """One random instance of the given scenario kind."""
    generate = _KINDS[kind][0] if kind in _KINDS else None
    if generate is None:
        raise ConfigError(f"no instance generator for kind {kind!r}")
    return generate(params, rng)


def _plane_norm_from_params(params: dict) -> AbsoluteNorm2:
    kind = params.get("f", "l2")
    if kind in ("l1", "l2", "l3"):
        return AbsoluteNorm2.lp(float(kind[1:]))
    if kind == "table":
        # piecewise-linear generator with the sphere vertex (0.55, 0.55)
        nodes = params.get("nodes", [[0.0, 1.0], [0.5, 10.0 / 11.0],
                                     [1.0, 1.0]])
        _require(isinstance(nodes, (list, tuple))
                 and all(isinstance(n, (list, tuple)) for n in nodes),
                 "nodes must be a list of [u, psi] pairs")
        return AbsoluteNorm2.from_table([tuple(_number(v, "nodes") for v in n)
                                         for n in nodes])
    if isinstance(kind, dict):
        try:
            return AbsoluteNorm2.from_params(kind)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"param 'f' is a malformed plane norm: {exc!r}") from exc
    raise ConfigError(f"unknown plane norm spec {kind!r}")


# ---------------------------------------------------------------------------
# per-kind trial runners: (params, rng, trial index, shared set-up) -> certs


def _run_align_trial(params, rng, index, shared) -> list[Certificate]:
    inst = generate_align_instance(params, rng, index)
    phi = align_isometry(inst["space"], inst["u"], inst["v"])
    return verify_isometry(phi)


def _run_correct_trial(params, rng, index, shared) -> list[Certificate]:
    inst = generate_correct_l1sum_instance(params, rng)
    correction = correct_operator_l1sum(inst["components"], inst["H"],
                                        inst["T"], inst["z0"],
                                        inst["epsilon"])
    certs = list(correction.certificates)
    bpb = BpbInstance(inst["T"], inst["z0"], inst["epsilon"],
                      inst["cascade"].t ** 2)
    certs.extend(verify_bpb_correction(bpb, correction))
    return certs


def _run_ahsp_direct_sum_trial(params, rng, index, shared) -> list[Certificate]:
    inst = generate_ahsp_direct_sum_instance(params, rng)
    witness = direct_sum_witness(inst["M"], inst["N"], inst["f"],
                                 inst["series"], inst["epsilon"],
                                 oracle_M=shared.get("oracle_M"),
                                 oracle_N=shared.get("oracle_N"),
                                 policy=shared.get("policy"))
    certs = list(witness.certificates)
    if params.get("restrict") is not None:
        restricted = restrict_witness(inst["space"], witness,
                                      _number(params["restrict"],
                                              "restrict", int))
        certs.extend(restricted.certificates)
    return certs


def _run_ahsp_lattice_sum_trial(params, rng, index, shared) -> list[Certificate]:
    inst = generate_ahsp_lattice_sum_instance(params, rng)
    witness = lattice_sum_witness(inst["space"], inst["series"],
                                  inst["epsilon"],
                                  E_oracle=shared.get("E_oracle"),
                                  component_ahp=shared.get("component_ahp"),
                                  policy=shared.get("policy"))
    return list(witness.certificates)


def _run_duality_trial(params, rng, index, shared) -> list[Certificate]:
    seed = _number(params.get("sample_seed", 0), "sample_seed", int)
    _require(seed >= 0, f"param 'sample_seed' must be nonnegative, got {seed}")
    samples = _number(params.get("samples", 50), "samples", int)
    _require(samples >= 1, f"param 'samples' must be at least 1, got {samples}")
    inst = generate_duality_instance(params, rng)
    return duality_isometry_check(inst["space"], inst["functional"],
                                  seed=seed, samples=samples)


def _run_moduli_trial(params, rng, index, shared) -> list[Certificate]:
    space_data = params.get("space")
    _require(space_data is not None, "moduli_curve needs a space")
    modulus = params.get("modulus", "convexity")
    _require(modulus in ("convexity", "monotonicity"),
             f"modulus must be convexity or monotonicity, got {modulus!r}")
    eps = params.get("epsilons")
    if eps is None:
        hi = 1.99 if modulus == "convexity" else 0.99
        eps = np.linspace(0.05, hi,
                          _number(params.get("count", 16), "count", int)).tolist()
    _require(isinstance(eps, (list, tuple)), "epsilons must be a list")
    eps = [_number(e, "epsilons") for e in eps]
    space = (space_from_json(space_data) if isinstance(space_data, dict)
             else space_data)
    if modulus == "convexity":
        curve = convexity_curve(space, eps,
                                method=params.get("method", "auto"))
    else:
        curve = monotonicity_curve(space, eps)
    cap = 1.0
    vals = np.asarray([v for _, v in curve.samples], dtype=float)
    diffs = np.diff(vals) if vals.size > 1 else np.array([0.0])
    return [
        check("curve-finite", float(np.sum(~np.isfinite(vals))), "<=", 0.0),
        check("curve-lower", float(vals.min()), ">=", 0.0, tol=1e-12),
        check("curve-upper", float(vals.max()), "<=", cap, tol=1e-9),
        check("curve-monotone", float(diffs.min()), ">=", 0.0, tol=1e-9),
    ]


# ---------------------------------------------------------------------------
# per-kind set-up: precomputation shared by every trial of a scenario


def _no_setup(params: dict) -> dict:
    return {}


def _ahsp_direct_sum_setup(params: dict) -> dict:
    f = _plane_norm_from_params(params)
    oM = ahsp_oracle_for(EuclideanSpace(2))
    oN = ahsp_oracle_for(EuclideanSpace(2))
    return {"oracle_M": oM, "oracle_N": oN,
            "policy": eta_policy(f, oM, oN,
                                 _number(params.get("epsilon", 0.2),
                                         "epsilon"))}


def _ahsp_lattice_sum_setup(params: dict) -> dict:
    p = _number(params.get("p", 2.0), "p")
    m = _number(params.get("num_components", 3), "num_components", int)
    _require(m >= 1, "a lattice sum needs at least one component")
    E = LpLattice(m, p)
    components = [EuclideanSpace(2) for _ in range(m)]
    Z = lattice_sum_space(E, components)
    ahp = [UniformlyConvexAhspOracle(c) for c in components]
    oracle = default_profile_oracle(E)
    return {"E": E, "space": Z, "E_oracle": oracle, "component_ahp": ahp,
            "policy": lattice_sum_policy(
                Z, _number(params.get("epsilon", 0.2), "epsilon"), ahp,
                oracle)}


#: Every scenario kind: (instance generator, or None when trials build no
#: instance; trial runner; per-scenario set-up).
_KINDS = {
    "align": (generate_align_instance, _run_align_trial, _no_setup),
    "correct_l1sum": (generate_correct_l1sum_instance, _run_correct_trial,
                      _no_setup),
    "ahsp_direct_sum": (generate_ahsp_direct_sum_instance,
                        _run_ahsp_direct_sum_trial, _ahsp_direct_sum_setup),
    "ahsp_lattice_sum": (generate_ahsp_lattice_sum_instance,
                         _run_ahsp_lattice_sum_trial,
                         _ahsp_lattice_sum_setup),
    "moduli_curve": (None, _run_moduli_trial, _no_setup),
    "duality_check": (generate_duality_instance, _run_duality_trial,
                      _no_setup),
}
SCENARIO_KINDS = tuple(_KINDS)


def run_scenario(scenario: Scenario, seed: int) -> Report:
    """Run every trial of a scenario under one master seed.

    Identical (kind, params, seed) triples produce identical canonical
    report bytes; trial failures are recorded, never raised.
    """
    if scenario.kind not in _KINDS:
        raise ConfigError(f"unknown scenario kind {scenario.kind!r}")
    _, run, setup = _KINDS[scenario.kind]
    start = time.perf_counter()
    trials: list[TrialRecord] = []
    n_trials = _number(scenario.params.get("trials", 1), "trials", int)
    _require(n_trials >= 1, "trials must be at least 1")
    shared = setup(scenario.params)
    for index in range(n_trials):
        record = TrialRecord(index)
        rng = _trial_rng(seed, index)
        try:
            record.certificates = run(scenario.params, rng, index, shared)
        except ConfigError:
            raise
        except Exception as exc:  # per-trial failures are data, not crashes
            record.errors.append(f"{type(exc).__name__}: {exc}")
        trials.append(record)
    return Report(scenario, seed, trials, time.perf_counter() - start)
