"""One measurement in one fresh process.

Run by ``bench/run.py`` as a child process, one of:

* ``--mode setup``: import bpbkit and build the workload's shared state,
  then report the set-up time and exit;
* ``--mode measure``: set up, run untimed warm-up units, run timed rounds
  until ``--seconds`` have passed, replay the workload's scenarios, and
  report the unit timings;
* ``--mode trace``: set up under the tracer, then run the same fixed
  number of rounds untraced and traced, and report per-layer metrics.

The last line of standard output is one JSON object.  Every unit is
checked: a failing certificate, a failing verifier or an exception marks
the unit failed, records a one-line reason, and the run goes on.
"""

import time

# The set-up clock starts before bpbkit (and numpy) are imported.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Failure reasons kept in the result; the count covers them all.
MAX_REASONS = 20
# Traced rounds per second of --seconds, per workload: the untraced and
# the traced pass over the same rounds together take about --seconds on a
# 2-core Xeon.
TRACE_ROUNDS_PER_S = {"witness_mix": 2.0, "correction_mix": 6.0,
                      "moduli_sweep": 0.1}


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import bpbkit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bpbkit" / "__init__.py").is_file():
        raise LibraryMissing(f"no bpbkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bpbkit
    if Path(bpbkit.__file__).resolve().parent != SRC / "bpbkit":
        raise LibraryMissing(f"bpbkit was imported from {bpbkit.__file__}, "
                             f"not from {SRC}")
    bench_dir = str(ROOT / "bench")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import workloads
    return workloads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# units and rounds


class Run:
    """Counts, timings and failure reasons of one measurement."""

    def __init__(self, workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.unit_seconds: list[float] = []
        self.kind_seconds: dict[str, list[float]] = {}
        self.rounds = 0
        self.seconds = 0.0  # timed rounds, reports included
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.next_unit = 0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(reason)

    def warm_up(self) -> None:
        self.run_round(0, timed=False,
                       units=self.workload.warmup_units(self.seed))

    def run_round(self, round_index: int, timed: bool = True,
                  units=None) -> None:
        from bpbkit import harness
        perf = time.perf_counter
        tracer = self.tracer
        if units is None:
            units = self.workload.round_units(self.seed, round_index)
        records = []
        durations = []
        start = perf()
        for kind, thunk in units:
            uid = self.next_unit
            self.next_unit += 1
            if tracer is not None:
                tracer.begin(uid, kind)
            t0 = perf()
            try:
                certs = thunk()
                error = None
            except Exception as exc:  # a failed unit is data, not a crash
                certs = []
                error = f"{type(exc).__name__}: {exc}".splitlines()[0]
            durations.append(perf() - t0)
            if tracer is not None:
                tracer.end()
            record = harness.TrialRecord(uid, list(certs))
            if error is not None:
                record.errors.append(error)
            records.append(record)
            self.attempted += 1
            bad = [c.name for c in certs if not c.passed]
            if error is not None:
                self.fail(f"{kind} unit {uid}: {error}")
            elif not certs:
                self.fail(f"{kind} unit {uid}: no certificates")
            elif bad:
                self.fail(f"{kind} unit {uid}: failed {', '.join(bad)}")
        # the round's canonical report is part of the timed work
        if tracer is not None:
            tracer.begin(None, "report")
        report = harness.Report(
            harness.Scenario(self.workload.name,
                             {"seed": self.seed, "round": round_index}),
            self.seed, records, 0.0)
        report.canonical_bytes()
        if tracer is not None:
            tracer.end()
        if timed:
            self.seconds += perf() - start
            self.rounds += 1
            self.unit_seconds.extend(durations)
            for (kind, _), d in zip(units, durations):
                self.kind_seconds.setdefault(kind, []).append(d)

    def replay(self) -> str:
        """Replay each scenario twice; return the sha256 of the bytes."""
        from bpbkit import harness
        digest = hashlib.sha256()
        for scenario in self.workload.replay:
            self.attempted += 1
            try:
                first = harness.run_scenario(scenario, self.seed)
                second = harness.run_scenario(scenario, self.seed)
                data = first.canonical_bytes()
            except Exception as exc:
                self.fail(f"replay {scenario.kind}: {type(exc).__name__}: "
                          f"{exc}".splitlines()[0])
                continue
            digest.update(data)
            if data != second.canonical_bytes():
                self.fail(f"replay {scenario.kind}: bytes differ")
            elif not first.passed:
                self.fail(f"replay {scenario.kind}: report did not pass")
        return digest.hexdigest()


def tail(values: list[float]) -> tuple[float, int, int]:
    """The highest of p99 and p90 that has at least ten samples beyond it.

    The percentile is taken in consecutive blocks of units just large enough
    for ten samples beyond it (1000 for p99, 100 for p90) and the median
    over the blocks is reported, so that a burst of interference from the
    machine moves one block, not the result.  Returns ``(value, percentile,
    blocks)``; with fewer than 100 values, the median of all.
    """
    for pct, size in ((99, 1000), (90, 100)):
        blocks = len(values) // size
        if blocks:
            cuts = [statistics.quantiles(values[i * size:(i + 1) * size],
                                         n=100, method="inclusive")[pct - 1]
                    for i in range(blocks)]
            return statistics.median(cuts), pct, blocks
    return statistics.median(values), 50, 1


# ---------------------------------------------------------------------------
# modes


def set_up(name: str):
    workloads = import_library()
    workload = workloads.WORKLOADS[name]()
    workload.setup()
    return workload, time.perf_counter() - _PROCESS_START


def measure(workload, seed: int, seconds: float, setup_s: float,
            rounds: int | None = None) -> dict:
    """Warm up, then run timed rounds for ``seconds`` (or ``rounds``)."""
    run = Run(workload, seed)
    run.warm_up()
    start = time.perf_counter()
    r = 1
    while (r <= rounds) if rounds else (time.perf_counter() - start < seconds):
        run.run_round(r)
        r += 1
    elapsed = time.perf_counter() - start
    digest = run.replay()
    ms = [1e3 * s for s in run.unit_seconds]
    tail_ms, pct, blocks = tail(ms)
    return {
        "mode": "measure",
        "workload": workload.name,
        "seed": seed,
        "attempted": run.attempted,
        "failed": run.failed,
        "reasons": run.reasons,
        "timed_units": len(ms),
        "rounds": run.rounds,
        "elapsed_s": elapsed,
        "setup_s": setup_s,
        "trials_per_s": len(ms) / run.seconds,
        "trial_ms_p50": statistics.median(ms),
        "trial_ms_tail": tail_ms,
        "tail_percentile": pct,
        "tail_blocks": blocks,
        "kind_ms_p50": {k: 1e3 * statistics.median(v)
                        for k, v in sorted(run.kind_seconds.items())},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replay_sha256": digest,
        "env": environment(),
    }


def trace(name: str, seed: int, seconds: float, rounds: int | None = None,
          spans_path: Path | None = None) -> dict:
    """Per-layer metrics over a fixed set of rounds, plus trace overhead."""
    workloads = import_library()
    from tracer import Tracer, metric_specs
    tracer = Tracer()
    workload = workloads.WORKLOADS[name]()
    tracer.install(extra_modules=[workloads])
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    setup_metrics = tracer.setup_metrics()
    tracer.reset()
    if rounds is None:
        rounds = max(1, int(seconds * TRACE_ROUNDS_PER_S[name]))

    plain = Run(workload, seed)
    plain.warm_up()
    for r in range(1, rounds + 1):
        plain.run_round(r)
    traced = Run(workload, seed, tracer)
    tracer.install(extra_modules=[workloads])
    try:
        for r in range(1, rounds + 1):
            traced.run_round(r)
    finally:
        tracer.uninstall()

    units = len(traced.unit_seconds)
    wall = traced.seconds
    metrics = tracer.layer_metrics(units)
    metrics.update(setup_metrics)
    metrics["trace.unit_ms"] = 1e3 * wall / units
    metrics["trace.overhead_frac"] = wall / plain.seconds - 1.0
    specs = metric_specs()
    if {m["name"] for m in specs} != set(metrics):
        raise RuntimeError("computed metrics differ from the metric list")
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in specs}
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
    return {
        "mode": "trace",
        "workload": name,
        "seed": seed,
        "rounds": rounds,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "reasons": plain.reasons + traced.reasons,
        "timed_units": units,
        "self_ms_sum_per_unit": 1e3 * tracer.self_seconds() / units,
        "spans": len(tracer.spans),
        "dropped_spans": tracer.dropped_spans,
        "metrics": metrics,
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    try:
        if args.mode == "trace":
            spans = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            out = trace(args.workload, args.seed, args.seconds,
                        spans_path=spans)
        else:
            workload, setup_s = set_up(args.workload)
            if args.mode == "setup":
                out = {"mode": "setup", "setup_s": setup_s}
            else:
                out = measure(workload, args.seed, args.seconds, setup_s)
    except LibraryMissing as exc:
        print(f"measure: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
