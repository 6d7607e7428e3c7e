"""Command-line front end.

Every subcommand reads JSON files, runs one pipeline, prints its
certificates, and exits 0 exactly when every certificate passed; config
and usage problems exit 2, runtime failures exit 1.

    bpbkit run --scenario s.json --seed 7 --out report.json
    bpbkit verify --witness w.json --instance series.json
    bpbkit correct-l1sum --instance inst.json --out corrected.json
    bpbkit ahsp-direct-sum --instance inst.json --out witness.json
    bpbkit ahsp-restrict --witness w.json --component 1 --out out.json
    bpbkit ahsp-lattice-sum --instance inst.json --out witness.json
    bpbkit moduli-curve --space space.json --modulus convexity --csv out.csv
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .ahsp import (direct_sum_witness, restrict_witness,
                   verify_ahsp_witness, witness_from_json)
from .bpb import ConvexSeries, correct_operator_l1sum
from .errors import BpbkitError, ConfigError
from .harness import Report, run_scenario, scenario_from_json
from .lattice_sums import lattice_sum_witness
from .lattices import Absolute2Lattice
from .moduli import convexity_curve, monotonicity_curve
from .spaces import (DirectSumSpace, Operator, space_from_json,
                     vector_to_json)
from .util import canonical_json


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def _load_json(path: str):
    """Parse a JSON file; unreadable files, malformed JSON and non-finite
    numbers (``NaN``, ``Infinity``, overflowing literals) are config errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite_float,
                             parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc


def _parse(what: str, read):
    """``read()``, with a missing or malformed JSON field (a ``KeyError``,
    ``TypeError`` or ``ValueError`` while reading) turned into a config
    error that starts with ``what``."""
    try:
        return read()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _load_witness(path: str):
    data = _load_json(path)
    return _parse("a witness needs space, indices, points, functional, "
                  "epsilon", lambda: witness_from_json(data))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))
        fh.write("\n")


def _print_certs(certs) -> int:
    for c in certs:
        print(str(c))
    total = len(certs)
    fails = sum(1 for c in certs if not c.passed)
    print(f"{total - fails}/{total} certificates passed")
    return 0 if total > 0 and fails == 0 else 1


def _series_from_json(data: dict) -> ConvexSeries:
    weights, points = _parse(
        "a series needs weights and points",
        lambda: (np.asarray(data["weights"], dtype=float),
                 np.asarray(data["points"], dtype=float)))
    return ConvexSeries(weights, points)


def _direct_sum_from_json(data: dict) -> DirectSumSpace:
    space = space_from_json(data)
    if not isinstance(space, DirectSumSpace):
        raise ConfigError("the space must be a direct sum")
    return space


def _sum_instance(data: dict) -> tuple[DirectSumSpace, float]:
    return _parse("instance needs space, epsilon",
                  lambda: (_direct_sum_from_json(data["space"]),
                           float(data["epsilon"])))


def _cmd_run(args) -> int:
    scenario = scenario_from_json(_load_json(args.scenario))
    report: Report = run_scenario(scenario, args.seed)
    if args.out:
        _write_json(args.out, report.to_json())
    for trial in report.trials:
        for err in trial.errors:
            print(f"trial {trial.index}: {err}")
    print(f"{report.total_certificates} certificates, "
          f"{report.failures} failures, {report.error_count} errors "
          f"in {len(report.trials)} trials "
          f"({report.wall_time:.3f}s)")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    witness = _load_witness(args.witness)
    series = _series_from_json(_load_json(args.instance))
    return _print_certs(verify_ahsp_witness(series, witness))


def _cmd_correct_l1sum(args) -> int:
    data = _load_json(args.instance)
    op, vector, epsilon = _parse(
        "instance needs operator, vector, epsilon",
        lambda: (Operator.from_json(data["operator"]),
                 np.asarray(data["vector"], dtype=float),
                 float(data["epsilon"])))
    domain = op.domain
    if not isinstance(domain, DirectSumSpace):
        raise ConfigError("the operator domain must be a direct sum")
    correction = correct_operator_l1sum(list(domain.components), op.codomain,
                                        op, vector, epsilon)
    if args.out:
        _write_json(args.out, {
            "corrected_operator": correction.S.to_json(),
            "corrected_vector": vector_to_json(domain, correction.u),
            "dist_op": correction.dist_op,
            "dist_vec": correction.dist_vec,
        })
    return _print_certs(correction.certificates)


def _cmd_ahsp_direct_sum(args) -> int:
    data = _load_json(args.instance)
    space, epsilon = _sum_instance(data)
    if len(space.components) != 2 or not isinstance(space.combiner,
                                                    Absolute2Lattice):
        raise ConfigError("an absolute-sum instance needs exactly two "
                          "components under a plane norm")
    series = _series_from_json(data)
    witness = direct_sum_witness(space.components[0], space.components[1],
                                 space.combiner.norm2, series, epsilon)
    if args.out:
        _write_json(args.out, witness.to_json())
    return _print_certs(witness.certificates)


def _cmd_ahsp_restrict(args) -> int:
    witness = _load_witness(args.witness)
    if not isinstance(witness.space, DirectSumSpace):
        raise ConfigError("the witness space must be a direct sum")
    restricted = restrict_witness(witness.space, witness, args.component)
    if args.out:
        _write_json(args.out, restricted.to_json())
    return _print_certs(restricted.certificates)


def _cmd_ahsp_lattice_sum(args) -> int:
    data = _load_json(args.instance)
    space, epsilon = _sum_instance(data)
    series = _series_from_json(data)
    witness = lattice_sum_witness(space, series, epsilon)
    if args.out:
        _write_json(args.out, witness.to_json())
    return _print_certs(witness.certificates)


def _cmd_moduli_curve(args) -> int:
    space = space_from_json(_load_json(args.space))
    epsilons = _parse("--epsilons takes comma-separated finite numbers",
                      lambda: [_finite_float(tok)
                               for tok in args.epsilons.split(",")
                               if tok.strip()])
    if not epsilons:
        raise ConfigError("at least one epsilon is required")
    if args.modulus == "convexity":
        curve = convexity_curve(space, epsilons, method=args.method)
    else:
        curve = monotonicity_curve(space, epsilons)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(curve.to_csv())
    if args.out:
        _write_json(args.out, curve.to_json())
    if not args.csv and not args.out:
        sys.stdout.write(curve.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpbkit",
        description="norm-attainment corrections, witness pipelines, and "
                    "seeded scenario reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a seeded scenario and report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    for name in ("verify", "ahsp-verify"):
        p = sub.add_parser(name, help="check a witness against a series")
        p.add_argument("--witness", required=True)
        p.add_argument("--instance", required=True)
        p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("correct-l1sum",
                       help="correct an operator on an l1-type sum")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_correct_l1sum)

    p = sub.add_parser("ahsp-direct-sum",
                       help="witness for a series in a two-component sum")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ahsp_direct_sum)

    p = sub.add_parser("ahsp-restrict",
                       help="project a sum witness onto one component")
    p.add_argument("--witness", required=True)
    p.add_argument("--component", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ahsp_restrict)

    p = sub.add_parser("ahsp-lattice-sum",
                       help="witness for a series in a lattice sum")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ahsp_lattice_sum)

    p = sub.add_parser("moduli-curve", help="sample a modulus curve")
    p.add_argument("--space", required=True)
    p.add_argument("--modulus", choices=("convexity", "monotonicity"),
                   default="convexity")
    p.add_argument("--epsilons", default="0.1,0.2,0.5,1.0")
    p.add_argument("--method", default="auto")
    p.add_argument("--csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_moduli_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BpbkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
