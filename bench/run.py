#!/usr/bin/env python3
"""Benchmark of the lie2alg library and its `lie2` command.

    python3 bench/run.py --workload derive --seed 1 --seconds 20 --trace 0

Run from any directory; the library is imported from ``src/`` of the
checkout that holds this file, in-process, on one core.  Workloads are
``derive``, ``verify-exact`` and ``verify-float`` (see workloads.py and
README.md).  The op list depends on the workload and the seed alone;
``--seconds`` sets how many verify cycles it holds.  With ``--trace 0``
the ops run untraced and the end-to-end metrics are reported; with
``--trace 1`` they run traced, after an untraced reference pass, and the
per-layer metrics are reported.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A provenance record and the trace spans go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 3        # set-up runs per benchmark run; setup_s takes their median
REF_SECONDS = 0.0025  # time of reference_kernel at the reference speed
REF_RUNS = 3          # kernel runs per speed sample; the sample is their median
REF_EVERY_S = 0.25    # least wall time between two speed samples
REF_WINDOW_S = 1.0    # least reach of the samples that give an op's speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "pass_ratio": "1",
    "exact_share": "1",
    "peak_rss_mb": "MB",
}
# end-to-end figures that can be exactly 0, reported with the traced run
CHECK_UNITS = {"checks.fail_ratio": "1", "checks.float_resid_max": "1"}


def import_lie2alg():
    """Import lie2alg from this checkout's src/; exit non-zero without it."""
    src = ROOT / "src"
    if not (src / "lie2alg" / "__init__.py").is_file():
        raise SystemExit(f"error: no lie2alg sources under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import lie2alg
    seconds = perf_counter() - t0
    if Path(lie2alg.__file__).resolve().parent != (src / "lie2alg").resolve():
        raise SystemExit(f"error: imported lie2alg from {lie2alg.__file__}, not {src}")
    return lie2alg, seconds


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def reference_kernel() -> Fraction:
    """Fixed pure-Python work of the kind lie2alg does (Fraction arithmetic,
    building and sorting a list), independent of the library."""
    total = Fraction(0)
    keys = []
    for i in range(1, 300):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
        keys.append((i * 7919) % 1013)
    keys.sort()
    return total


class SpeedProbe:
    """The speed of the machine, sampled between ops.

    A sample is the median time of REF_RUNS runs of `reference_kernel`
    over REF_SECONDS, so 1.5 means 1.5 times slower than the reference
    speed.  The machine is shared: identical runs differ by up to 1.6x in
    wall time as its load changes, so the timing metrics are scaled to the
    reference speed, each op by the median speed of the samples around it.
    """

    def __init__(self):
        self.times = []    # perf_counter at each sample, increasing
        self.speeds = []
        self._due = 0.0

    def sample(self, force: bool = False) -> None:
        if not force and perf_counter() < self._due:
            return
        t0 = perf_counter()
        runs = []
        for _ in range(REF_RUNS):
            t1 = perf_counter()
            reference_kernel()
            runs.append(perf_counter() - t1)
        self.times.append(t0)
        self.speeds.append(statistics.median(runs) / REF_SECONDS)
        self._due = perf_counter() + REF_EVERY_S

    def speed(self, start: float, end: float) -> float:
        """Median speed of the samples that lie within REF_WINDOW_S, or the
        span's own length if longer, of [start, end]; always including the
        last sample before it and the first one after."""
        n = len(self.times)
        reach = max(REF_WINDOW_S, end - start)
        before = max(bisect_right(self.times, start) - 1, 0)
        after = min(bisect_left(self.times, end), n - 1)
        lo = min(bisect_left(self.times, start - reach), before)
        hi = max(bisect_right(self.times, end + reach), after + 1)
        return statistics.median(self.speeds[lo:hi])

    def scaled(self, start: float, seconds: float) -> float:
        return seconds / self.speed(start, start + seconds)


@contextmanager
def timer(outcome):
    t0 = perf_counter()
    try:
        yield
    finally:
        outcome.start = t0
        outcome.seconds = perf_counter() - t0


def execute(wl, op, tracer=None, op_id=0):
    """Run one op; an exception is a failed op, recorded by type."""
    runner = wl.run_derive if op.suite == "derive" else wl.run_check
    outcome = wl.Outcome()
    if tracer is not None:
        tracer.begin(f"op:{op.suite}:{op.label}", op_id)
    try:
        runner(op, outcome, timer)
    except Exception as exc:  # the op boundary: count the crash and go on
        outcome.failed = True
        outcome.reason = type(exc).__name__
        outcome.traceback = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.end()
    return outcome


def run_ops(wl, ops: list, probe: SpeedProbe, tracer=None) -> list:
    results = []
    for i, op in enumerate(ops):
        probe.sample()
        results.append((op, execute(wl, op, tracer, i)))
    probe.sample(force=True)
    return results


def traced_phase(wl, lie2alg, ops: list, probe: SpeedProbe, spans_path: Path):
    """The op list traced, after an untraced reference pass.

    Returns the traced results, the per-layer metrics and the trace
    overhead: traced over untraced op time, at the reference speed, of the
    ops both passes run.  The reference pass leaves out the heavy ops (the
    two 16-dimensional derive algebras), which would double a long run."""
    from tracing import Tracer

    light = [op for op in ops if not op.heavy]
    untraced = run_ops(wl, light, probe)
    tracer = Tracer()
    tracer.install(lie2alg)
    try:
        results = run_ops(wl, ops, probe, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    traced = [(op, o) for op, o in results if not op.heavy]
    overhead = (sum(probe.scaled(o.start, o.seconds) for _, o in traced)
                / sum(probe.scaled(o.start, o.seconds) for _, o in untraced))
    return results, tracer.layer_metrics(), overhead


def tail(latencies: list):
    """The highest percentile, not below the median, with at least ten ops
    beyond it, and its value.

    With n >= 20 ops this is the 11th largest latency (nearest rank), at
    the percentile 100 (n - 10) / n; with fewer ops it is the median."""
    lat = sorted(latencies)
    n = len(lat)
    if n < 20:
        return 50.0, statistics.median(lat)
    return 100.0 * (n - 10) / n, lat[n - 11]


def timing(latencies: list) -> dict:
    pct, tail_s = tail(latencies)
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail_s,
            "tail_percentile": pct}


def summarize(results: list, probe: SpeedProbe) -> dict:
    outcomes = [o for _, o in results]
    lines = sum(o.exact_lines + o.float_lines for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "wrong": sum(o.wrong for o in outcomes),
        **timing([probe.scaled(o.start, o.seconds) for o in outcomes]),
        "measured": timing([o.seconds for o in outcomes]),
        "speed": statistics.median(probe.speeds),
        "pass_ratio": 1 - failed / len(outcomes),
        "fail_ratio": failed / len(outcomes),
        "exact_share": sum(o.exact_lines for o in outcomes) / lines if lines else 0.0,
        "float_resid_max": max((o.float_resid_max for o in outcomes), default=0.0),
        "failures": dict(Counter(o.reason for o in outcomes if o.failed)),
        "failing_lines": dict(Counter(name for o in outcomes for name in o.failing_lines)),
        "tracebacks": {o.reason: o.traceback for o in reversed(outcomes) if o.traceback},
        "op_counts": dict(Counter(f"{op.suite} {op.label}" for op, _ in results)),
        "op_latencies_ms": [[op.label, op.suite, op.seed, 1000 * o.seconds,
                             1000 * probe.scaled(o.start, o.seconds), o.dims]
                            for op, o in results],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest size, for smoke tests (see workloads.setup)")
    args = ap.parse_args(argv)

    lie2alg, import_s = import_lie2alg()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} (choose from {', '.join(wl.WORKLOADS)})")
    tag = (f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
           + ("-small" if args.small else ""))
    work_dir = OUT_DIR / tag

    probe = SpeedProbe()
    probe.sample(force=True)
    setup_runs = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        plan = wl.setup(args.workload, args.seed, work_dir / "inputs", args.small)
        wl.warm_up(plan)
        setup_runs.append((t0, perf_counter() - t0))
        probe.sample(force=True)
    setup_measured = import_s + statistics.median(s for _, s in setup_runs)
    setup_s = (import_s / probe.speeds[0]
               + statistics.median(probe.scaled(t0, s) for t0, s in setup_runs))

    ops = plan.ops(args.seconds)
    if args.trace:
        results, layer, overhead = traced_phase(wl, lie2alg, ops, probe,
                                                work_dir / "spans.json")
    else:
        results = run_ops(wl, ops, probe)
    s = summarize(results, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        from tracing import layer_metric_units
        units = {**{k: u for k, (u, _) in layer_metric_units().items()},
                 "trace_overhead": "1", **CHECK_UNITS}
        values = {**layer, "trace_overhead": overhead,
                  "checks.fail_ratio": s["fail_ratio"],
                  "checks.float_resid_max": s["float_resid_max"]}
    else:
        units = END_TO_END_UNITS
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  **{k: s[k] for k in END_TO_END_UNITS if k in s}}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "algebras": plan.algebras,
        "setup_runs_s": [s for _, s in setup_runs], "setup_measured_s": setup_measured,
        "import_s": import_s,
        **s, "peak_rss_mb": peak_rss_mb, "metrics": metrics,
    }
    (work_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"python {record['python']} nproc {record['nproc']} git {record['git_sha']}")
    print(f"ops {s['attempted']} failed {s['failed']} wrong {s['wrong']}; "
          f"op_tail_ms is p{s['tail_percentile']:.2f} of {s['attempted']} ops")
    print(f"machine speed {s['speed']:.4g} (reference kernel time / {REF_SECONDS} s); "
          "timing metrics are scaled to speed 1; as measured:")
    m = s["measured"]
    print(f"  setup_s {setup_measured:.6g} s, ops_per_s {m['ops_per_s']:.6g} 1/s, "
          f"op_p50_ms {m['op_p50_ms']:.6g} ms, op_tail_ms {m['op_tail_ms']:.6g} ms")
    if not args.trace:
        print(f"  {'fail_ratio':<40} {s['fail_ratio']:.6g} 1")
        print(f"  {'float_resid_max':<40} {s['float_resid_max']:.6g} 1")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"failures by kind: {json.dumps(s['failures'], sort_keys=True)}")
    print(f"failing lines: {json.dumps(s['failing_lines'], sort_keys=True)}")
    print(f"record: {work_dir / 'record.json'}")
    print(json.dumps({"correct": s["wrong"] == 0, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
