"""Per-layer tracing from outside the library.

``Tracer.install`` wraps public functions and methods of bpbkit's modules
(the layers) and rebinds every module-level name that refers to a wrapped
function, so ``operator_norm`` is traced whether it is reached as
``spaces.operator_norm``, ``bpb.operator_norm`` or ``harness.operator_norm``.
``Tracer.uninstall`` puts every original object back.

Every wrapped call updates two counters under its layer key: calls and
self time (the call's duration minus the time spent in wrapped calls it
made).  Pipeline-level calls also record a span ``(name, start, end,
parent, unit)`` in memory; leaf kernels such as ``norm`` and ``coerce``
only count, so the 330k norm calls of one brute-force modulus do not
accumulate spans.  The spans are written out once, after the run.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

from bpbkit import (absolute, ahsp, alignment, bpb, certs, harness, lattices,
                    lattice_sums, moduli, spaces)

SPACE_CLASSES = (spaces.EuclideanSpace, spaces.LpSpace, spaces.PlaneSpace,
                 spaces.LatticeSpace, spaces.DirectSumSpace)
SPACE_METHODS = ("norm", "dual_norm", "norming_functional", "attaining_vector")
LATTICE_CLASSES = (lattices.LpLattice, lattices.WeightedL1Lattice,
                   lattices.Absolute2Lattice)
LATTICE_METHODS = ("norm_of", "dual_norm_of", "norming_of",
                   "dual_attaining_vector")
ABSOLUTE_METHODS = ("value", "dual_value", "sphere_point", "dual_pair")
OPERATOR_NORM_METHODS = ("one_dim", "l1_columns", "svd", "l1_sum_blocks",
                         "ascent")

# Pipeline-level module functions, traced with spans: (module, name).
SPAN_FUNCTIONS = (
    (absolute, "lemma_fact_delta"),
    (moduli, "monotonicity_modulus"),
    (alignment, "align_isometry"), (alignment, "verify_isometry"),
    (bpb, "cascade_l1sum"), (bpb, "filter_large_real_part"),
    (bpb, "correct_operator_l1sum"), (bpb, "verify_bpb_correction"),
    (ahsp, "direct_sum_witness"), (ahsp, "restrict_witness"),
    (ahsp, "verify_ahsp_witness"), (ahsp, "eta_policy"),
    (lattice_sums, "lattice_sum_witness"),
    (lattice_sums, "duality_isometry_check"),
    (lattice_sums, "sampled_dual_norm"), (lattice_sums, "lattice_sum_policy"),
    (harness, "generate_instance"),
)
# Leaf module functions, counted only.
LEAF_FUNCTIONS = ((lattice_sums, "kothe_dual_norm"), (certs, "check"))
# Layers whose work sits in set-up; they are also reported per set-up.
SETUP_KEYS = ("absolute.lemma_fact_delta", "ahsp.eta_policy",
              "lattice_sums.lattice_sum_policy")


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _convexity_key(args, kwargs, result) -> str:
    """Which path ``convexity_modulus`` took, by the rule ``convexity_curve``
    uses to label its curves."""
    space = args[0] if args else kwargs["space"]
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    closed = (method != "brute_force"
              and space.kind in ("euclidean", "lp")
              and getattr(space, "p", 2.0) not in (1.0, math.inf))
    return ("moduli.convexity_modulus."
            + ("closed_form" if closed else "brute_force"))


def _operator_norm_key(args, kwargs, result) -> str:
    return f"spaces.operator_norm.{result.method}"


def layer_keys() -> list[str]:
    """Every layer key with calls and self-time metrics, in report order."""
    keys = [f"spaces.{cls.kind}.{m}" for cls in SPACE_CLASSES
            for m in SPACE_METHODS]
    keys.append("spaces.coerce")
    keys += [f"spaces.operator_norm.{m}" for m in OPERATOR_NORM_METHODS]
    keys += [f"lattices.{m}" for m in LATTICE_METHODS]
    keys += [f"absolute.{m}" for m in ABSOLUTE_METHODS]
    keys += ["moduli.convexity_modulus.closed_form",
             "moduli.convexity_modulus.brute_force"]
    keys += [f"{_layer(mod)}.{name}" for mod, name in SPAN_FUNCTIONS]
    keys += [f"{_layer(mod)}.{name}" for mod, name in LEAF_FUNCTIONS]
    keys.append("harness.Report.canonical_bytes")
    return keys


def metric_specs() -> list[dict]:
    """The per-layer metrics of ``--trace 1``, as BENCHMARK.json lists them."""
    out = []
    for key in layer_keys():
        out.append({"name": f"{key}.calls", "unit": "count/unit",
                    "better": "lower"})
        out.append({"name": f"{key}.self_ms", "unit": "ms/unit",
                    "better": "lower"})
    out.append({"name": "spaces.operator_norm.exact_frac", "unit": "ratio",
                "better": "higher"})
    out.append({"name": "harness.report.bytes", "unit": "B/unit",
                "better": "lower"})
    for key in SETUP_KEYS:
        out.append({"name": f"setup.{key}.calls", "unit": "count",
                    "better": "lower"})
        out.append({"name": f"setup.{key}.self_ms", "unit": "ms",
                    "better": "lower"})
    out.append({"name": "trace.unit_ms", "unit": "ms/unit", "better": "lower"})
    out.append({"name": "trace.overhead_frac", "unit": "ratio",
                "better": "lower"})
    return out


class Tracer:
    """Counters and spans for one traced phase of a run."""

    # Spans beyond this many are counted in ``dropped_spans``, not kept.
    MAX_SPANS = 500_000

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []   # per active call: [child secs]
        self._span_stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Clear counters and spans; installed wrappers keep working."""
        self.calls.clear()
        self.self_s.clear()
        self.spans.clear()
        self.exact_operator_norms = 0
        self.report_bytes = 0
        self.dropped_spans = 0
        self.unit: int | None = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, orig, key: str, span: bool, key_of=None, on_result=None):
        stack, span_stack = self._stack, self._span_stack
        calls, self_s, perf = self.calls, self.self_s, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            idx = -1
            if span:
                if len(tracer.spans) < tracer.MAX_SPANS:
                    idx = len(tracer.spans)
                    parent = span_stack[-1] if span_stack else None
                    tracer.spans.append([key, 0.0, 0.0, parent, tracer.unit])
                else:
                    tracer.dropped_spans += 1
                span_stack.append(idx)
            name = key
            t0 = perf()
            try:
                result = orig(*args, **kwargs)
                if key_of is not None:
                    name = key_of(args, kwargs, result)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                t1 = perf()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if span:
                    span_stack.pop()
                    if idx >= 0:
                        rec = tracer.spans[idx]
                        rec[0], rec[1], rec[2] = name, t0, t1

        wrapper.__wrapped__ = orig
        return wrapper

    def _on_operator_norm(self, result) -> None:
        self.exact_operator_norms += bool(result.exact)

    def _on_report_bytes(self, result) -> None:
        self.report_bytes += len(result)

    def _patch_method(self, cls, name: str, key: str, span: bool = False,
                      on_result=None) -> None:
        orig = cls.__dict__[name]
        self._saved.append((cls, name, orig))
        setattr(cls, name, self._wrap(orig, key, span, on_result=on_result))

    def _patch_function(self, module, name: str, key: str, span: bool,
                        namespaces, key_of=None, on_result=None) -> None:
        orig = getattr(module, name)
        wrapper = self._wrap(orig, key, span, key_of, on_result)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    self._saved.append((ns, attr, orig))
                    setattr(ns, attr, wrapper)

    def install(self, extra_modules=()) -> None:
        """Wrap every layer; ``extra_modules`` rebind their names too."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "bpbkit" or n.startswith("bpbkit.")]
        namespaces += list(extra_modules)
        for cls in SPACE_CLASSES:
            for m in SPACE_METHODS:
                self._patch_method(cls, m, f"spaces.{cls.kind}.{m}")
        self._patch_method(spaces.NormedSpace, "coerce", "spaces.coerce")
        for cls in LATTICE_CLASSES:
            for m in LATTICE_METHODS:
                self._patch_method(cls, m, f"lattices.{m}")
        for m in ABSOLUTE_METHODS:
            self._patch_method(absolute.AbsoluteNorm2, m, f"absolute.{m}")
        self._patch_method(harness.Report, "canonical_bytes",
                           "harness.Report.canonical_bytes", span=True,
                           on_result=self._on_report_bytes)
        self._patch_function(spaces, "operator_norm", "spaces.operator_norm",
                             True, namespaces, key_of=_operator_norm_key,
                             on_result=self._on_operator_norm)
        self._patch_function(moduli, "convexity_modulus",
                             "moduli.convexity_modulus", True, namespaces,
                             key_of=_convexity_key)
        for mod, name in SPAN_FUNCTIONS:
            self._patch_function(mod, name, f"{_layer(mod)}.{name}", True,
                                 namespaces)
        for mod, name in LEAF_FUNCTIONS:
            self._patch_function(mod, name, f"{_layer(mod)}.{name}", False,
                                 namespaces)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    # -- unit boundaries ----------------------------------------------------

    def begin(self, unit: int, kind: str) -> None:
        """Open the root span of one unit (or of a round's serialisation)."""
        self.unit = unit
        self._stack.append([0.0])
        idx = len(self.spans)
        self.spans.append([f"unit.{kind}", time.perf_counter(), 0.0, None,
                           unit])
        self._span_stack.append(idx)

    def end(self) -> None:
        self._stack.pop()
        self.spans[self._span_stack.pop()][2] = time.perf_counter()
        self.unit = None

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Calls and self milliseconds per unit for every layer key."""
        out = {}
        for key in layer_keys():
            out[f"{key}.calls"] = self.calls.get(key, 0) / units
            out[f"{key}.self_ms"] = 1e3 * self.self_s.get(key, 0.0) / units
        total_norms = sum(self.calls.get(f"spaces.operator_norm.{m}", 0)
                          for m in OPERATOR_NORM_METHODS)
        # with no operator norms, none was inexact: 1.0, its "no change"
        out["spaces.operator_norm.exact_frac"] = (
            self.exact_operator_norms / total_norms if total_norms else 1.0)
        out["harness.report.bytes"] = self.report_bytes / units
        return out

    def setup_metrics(self) -> dict[str, float]:
        out = {}
        for key in SETUP_KEYS:
            out[f"setup.{key}.calls"] = float(self.calls.get(key, 0))
            out[f"setup.{key}.self_ms"] = 1e3 * self.self_s.get(key, 0.0)
        return out

    def self_seconds(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"name": name,
                                     "start_us": round(1e6 * (start - base), 1),
                                     "end_us": round(1e6 * (end - base), 1),
                                     "parent": parent, "unit": unit}) + "\n")
