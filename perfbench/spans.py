"""Spans around the public functions of popa_algebra, kept in memory.

The program is not instrumented: ``install`` replaces each public
function of each module, wherever a module of the package has bound it,
with a wrapper that records a span (name, start, end, parent, the
operation it served) and a few counts.  ``Element.apply_scalar`` is
wrapped on its class.  The scalar helpers of ``algebra`` that run once
per coordinate inside ``apply_scalar`` are left alone; their time is
part of that span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

MODULES = ("algebra", "solutions", "_kernels", "structure", "tilting",
           "special", "cli")

PER_COORDINATE = {"cexpm1", "expm1_any", "mu_scalar", "h_scalar",
                  "log1p_over_scalar", "exp_ratio_scalar", "growth_scalar"}

#: spans whose allocation peak is read with tracemalloc
PEAK_SPANS = {"_kernels.gs_residual_batch", "solutions.gamma"}


def _counts(name, args, kwargs, result) -> dict:
    """Work done by one call, read from its arguments and result."""
    if name == "_kernels.gs_residual_batch":
        return {"pairs": int(len(args[9]))}
    if name == "solutions.verify_gs":
        n = kwargs.get("n_samples", args[1] if len(args) > 1 else 10000)
        return {"pairs": int(n), "pairs_valid": int(result.samples_tested)}
    if name == "tilting.tilt_solve_fixed_point":
        return {"iterations": int(result.iterations)}
    if name == "algebra.Element.apply_scalar":
        return {"points": int(args[0].algebra.dim if args[0].algebra.componentwise
                              else 1)}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent, op, counts, peak_bytes]
        self._stack = []
        self._saved = []
        self.op = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        track_peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, {}, 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            peak = track_peak and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if peak:
                    span[6] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            span[5] = _counts(name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public function of the package, in every namespace."""
        mods = {m: importlib.import_module(f"popa_algebra.{m}") for m in MODULES}
        replace = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in PER_COORDINATE
                        and id(obj) not in replace):
                    replace[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        self._saved = []
        for mod in list(mods.values()) + [sys.modules["popa_algebra"]]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)])
        element = mods["algebra"].Element
        self._saved.append((element, "apply_scalar", element.apply_scalar))
        element.apply_scalar = self._wrap("algebra.Element.apply_scalar",
                                          element.apply_scalar)

    def uninstall(self):
        """Put every wrapped function back."""
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved = []


def shift(spans, offset: int) -> list:
    """Spans with their parent indices moved by offset (for slicing/joining)."""
    return [[s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1] + s[4:]
            for s in spans]


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans) -> dict:
    """Per-layer totals over a list of spans (one round of one workload)."""
    own = self_times(spans)
    total, self_t, calls, peak = {}, {}, {}, {}
    counts = {}
    for s, st in zip(spans, own):
        name = s[0]
        total[name] = total.get(name, 0.0) + (s[2] - s[1])
        self_t[name] = self_t.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        peak[name] = max(peak.get(name, 0), s[6])
        for k, v in s[5].items():
            counts[(name, k)] = counts.get((name, k), 0) + v

    def t(name):
        return total.get(name, 0.0)

    kern = "_kernels.gs_residual_batch"
    pairs = counts.get((kern, "pairs"), 0)
    out = {
        "kernels.batch_s": t(kern),
        "kernels.ns_per_pair": 1e9 * t(kern) / pairs if pairs else 0.0,
        "kernels.peak_mib": peak.get(kern, 0) / 2**20,
        "solutions.sample_box_s": t("solutions.sample_box"),
        "solutions.verify_self_s": self_t.get("solutions.verify_gs", 0.0),
        "solutions.pairs": counts.get(("solutions.verify_gs", "pairs"), 0),
        "solutions.pairs_valid": counts.get(("solutions.verify_gs", "pairs_valid"), 0),
        "solutions.gamma_s": t("solutions.gamma"),
        "solutions.gamma_calls": calls.get("solutions.gamma", 0),
        "solutions.gamma_peak_mib": peak.get("solutions.gamma", 0) / 2**20,
        "structure.validate_s": t("structure.validate_sigma"),
        "structure.validate_calls": calls.get("structure.validate_sigma", 0),
        "structure.partition_self_s": self_t.get("structure.recover_partition", 0.0),
        "structure.null_space_s": t("structure.null_space_basis"),
        "structure.factor_check_self_s": self_t.get("structure.factorize", 0.0),
        "structure.analyse_s": t("structure.analyse_sigma"),
        "tilting.solve_s": t("tilting.tilt_solve_fixed_point"),
        "tilting.solve_iterations": counts.get(
            ("tilting.tilt_solve_fixed_point", "iterations"), 0),
        "tilting.inverse_s": t("tilting.tilt_inverse"),
        "tilting.radiality_s": t("tilting.radiality_check"),
        "tilting.unboundedness_s": t("tilting.unboundedness_direction"),
        "algebra.apply_scalar_s": t("algebra.Element.apply_scalar"),
        "algebra.apply_scalar_points": counts.get(
            ("algebra.Element.apply_scalar", "points"), 0),
    }
    per_op = {}
    for s in spans:
        if s[0] == kern and s[4] is not None:
            acc = per_op.setdefault(s[4], [0.0, 0])
            acc[0] += s[2] - s[1]
            acc[1] += s[5]["pairs"]
    for op, (secs, n) in per_op.items():
        out[f"kernels.{op}.ns_per_pair"] = 1e9 * secs / n
    return out
