"""Span tracer for the traced benchmark run.

The tracer wraps named `lie2alg` functions from outside the library: each
wrapper is rebound in every `lie2alg` module that holds the original
object (``from .linalg import rref`` binds a separate name per module),
and the two hot kernels are wrapped on their classes.  Spans (name, start,
end, parent, op) stay in memory and are written out when the run ends.
The kernels called most often (``Mat.__matmul__`` and ``AltTensor.eval``)
keep a count and a total time per parent span instead of one span each.

Self time of a span is its duration minus the time covered by its child
spans, the aggregated kernel calls included.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (metric layer, module, function) for every function-level wrapper
TRACED_FUNCTIONS = (
    ("linalg", "linalg", "rref"),
    ("linalg", "linalg", "kernel_basis"),
    ("linalg", "linalg", "solve"),
    ("linalg", "linalg", "mat_inverse"),
    ("linalg", "linalg", "truncated_exp"),
    ("linalg", "linalg", "nilpotency_index"),
    ("core", "core", "validate_lie2"),
    ("core", "core", "validate_hom"),
    ("core", "core", "compose_hom"),
    ("core", "core", "hom_distance"),
    ("derivations", "derivations", "compute_der0_basis"),
    ("derivations", "derivations", "build_der_lie2"),
    ("derivations", "derivations", "inn0_basis"),
    ("derivations", "derivations", "adbar"),
    ("derivations", "derivations", "is_derivation0"),
    ("derivations", "derivations", "graded_bracket"),
    ("derivations", "derivations", "dbar"),
    ("automorphisms", "automorphisms", "star"),
    ("automorphisms", "automorphisms", "tau_inverse"),
    ("automorphisms", "automorphisms", "act"),
    ("automorphisms", "automorphisms", "partial"),
    ("automorphisms", "automorphisms", "ad_conjugate"),
    ("automorphisms", "automorphisms", "certify_aut0"),
    ("automorphisms", "automorphisms", "aut_inverse"),
    ("automorphisms", "automorphisms", "aut_compose"),
    ("automorphisms", "automorphisms", "check_crossed_module"),
    ("integration", "integration", "exp_der0"),
    ("integration", "integration", "exp_derM1"),
    ("integration", "integration", "check_one_parameter"),
    ("integration", "integration", "check_commuting_square"),
    ("integration", "integration", "recover_bracket"),
    ("integration", "integration", "recover_bracket_m1"),
    ("integration", "integration", "check_conjugation_identities"),
    ("integration", "integration", "random_aut0"),
    ("fileio", "fileio", "parse_lie2"),
    ("fileio", "fileio", "serialize_lie2"),
    ("cli", "cli", "run"),
)

# (metric name, class name, method name) for the per-parent aggregated kernels
TRACED_KERNELS = (
    ("linalg.matmul", "Mat", "__matmul__"),
    ("linalg.alt_eval", "AltTensor", "eval"),
)

# extra per-layer metrics: name -> (unit, better)
EXTRA_METRICS = {
    "linalg.rref.cells": ("count", "lower"),
    "linalg.matmul.mults": ("count", "lower"),
    "linalg.matmul.float_share": ("1", "lower"),
    "linalg.mat_inverse.none_share": ("1", "lower"),
    "linalg.alt_eval.zero_share": ("1", "lower"),
    "automorphisms.tau_inverse.none_share": ("1", "lower"),
    "integration.exp_der0.exact_share": ("1", "higher"),
    "integration.exp_derM1.exact_share": ("1", "higher"),
}


def span_names() -> list:
    return ([f"{layer}.{fn}" for layer, _, fn in TRACED_FUNCTIONS]
            + [name for name, _, _ in TRACED_KERNELS])


def layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(EXTRA_METRICS)
    return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Collects spans while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1, op id]
        self.kernel_agg = {}   # (parent index, name) -> [calls, total seconds]
        self.calls = {name: 0 for name in span_names()}
        self.self_s = {name: 0.0 for name in span_names()}
        self.counts = {"rref.cells": 0, "matmul.mults": 0, "matmul.float": 0,
                       "mat_inverse.none": 0, "alt_eval.zero": 0,
                       "tau_inverse.none": 0, "exp_der0.exact": 0, "exp_derM1.exact": 0}
        self._stack = []       # frames: [span index, seconds covered by children]
        self._op = -1
        self._restore = []     # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, op: int) -> None:
        self._op = op
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, perf_counter(), None, -1, op])

    def end(self) -> None:
        idx, _ = self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def _wrap(self, name, fn, observe):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            rec = [name, 0.0, None, parent[0] if parent else -1, tracer._op]
            spans.append(rec)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[1], rec[2] = t0, t1
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[1]
                if parent is not None:
                    parent[1] += t1 - t0
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_kernel(self, name, fn, observe):
        stack, calls, self_s, agg = self._stack, self.calls, self.self_s, self.kernel_agg

        def traced(*args):
            t0 = perf_counter()
            try:
                result = fn(*args)
            finally:
                dt = perf_counter() - t0
                calls[name] += 1
                self_s[name] += dt
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    key = (parent[0], name)
                else:
                    key = (-1, name)
                slot = agg.get(key)
                if slot is None:
                    agg[key] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt
            observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- extras observed on arguments and results ----------------------------

    def _obs_rref(self, args, result):
        m = args[0]
        self.counts["rref.cells"] += m.rows * m.cols

    def _obs_mat_inverse(self, args, result):
        if result is None:
            self.counts["mat_inverse.none"] += 1

    def _obs_tau_inverse(self, args, result):
        if result is None:
            self.counts["tau_inverse.none"] += 1

    def _obs_exp_der0(self, args, result):
        if result.hom.A0.mode == "exact":
            self.counts["exp_der0.exact"] += 1

    def _obs_exp_derM1(self, args, result):
        if result.mat.mode == "exact":
            self.counts["exp_derM1.exact"] += 1

    def _obs_matmul(self, args, result):
        a, b = args
        self.counts["matmul.mults"] += a.rows * a.cols * b.cols
        if a.mode == "float":
            self.counts["matmul.float"] += 1

    def _obs_alt_eval(self, args, result):
        if not any(result):
            self.counts["alt_eval.zero"] += 1

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function and kernel of the imported `package`."""
        observers = {
            "linalg.rref": self._obs_rref,
            "linalg.mat_inverse": self._obs_mat_inverse,
            "automorphisms.tau_inverse": self._obs_tau_inverse,
            "integration.exp_der0": self._obs_exp_der0,
            "integration.exp_derM1": self._obs_exp_derM1,
        }
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for layer, modname, fn_name in TRACED_FUNCTIONS:
            name = f"{layer}.{fn_name}"
            original = getattr(sys.modules[f"{prefix}.{modname}"], fn_name)
            wrapper = self._wrap(name, original, observers.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        linalg = sys.modules[f"{prefix}.linalg"]
        kernel_obs = {"linalg.matmul": self._obs_matmul, "linalg.alt_eval": self._obs_alt_eval}
        for name, cls_name, meth in TRACED_KERNELS:
            cls = getattr(linalg, cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap_kernel(name, original, kernel_obs[name]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values keyed by metric name (units in layer_metric_units)."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c, calls = self.counts, self.calls
        out["linalg.rref.cells"] = c["rref.cells"]
        out["linalg.matmul.mults"] = c["matmul.mults"]
        out["linalg.matmul.float_share"] = _share(c["matmul.float"], calls["linalg.matmul"])
        out["linalg.mat_inverse.none_share"] = _share(c["mat_inverse.none"], calls["linalg.mat_inverse"])
        out["linalg.alt_eval.zero_share"] = _share(c["alt_eval.zero"], calls["linalg.alt_eval"])
        out["automorphisms.tau_inverse.none_share"] = _share(
            c["tau_inverse.none"], calls["automorphisms.tau_inverse"])
        out["integration.exp_der0.exact_share"] = _share(
            c["exp_der0.exact"], calls["integration.exp_der0"])
        out["integration.exp_derM1.exact_share"] = _share(
            c["exp_derM1.exact"], calls["integration.exp_derM1"])
        return out

    def write(self, path) -> None:
        """Write spans and per-parent kernel aggregates as JSON."""
        kernels = [[parent, name, n, total] for (parent, name), (n, total)
                   in sorted(self.kernel_agg.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "kernel_fields": ["parent", "name", "calls", "total_s"],
                       "kernels": kernels}, fh, separators=(",", ":"))
