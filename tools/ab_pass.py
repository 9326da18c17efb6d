#!/usr/bin/env python3
"""Time this checkout against another tree, op by op, in one process.

    python3 tools/ab_pass.py OTHER_SRC [--workload derive|verify-exact|verify-float]
                             [--seed N] [--rounds R] [--small]

OTHER_SRC is the ``src/`` directory of the other tree (the one that holds
its ``lie2alg/``).  Both packages are copied into a temporary directory
under two names, ``ab_this`` and ``ab_other``, and imported side by side:
the package's own imports are relative, so each copy reads only its own
modules.  The inputs of the workload are built once, by ``setup`` of
``bench/workloads.py`` (read, not changed) with this checkout's package,
and both trees run the same ops on the same files:

* derive: parse -> ``build_der_lie2`` -> ``inn0_basis`` -> ``adbar`` ->
  ``validate_lie2`` -> ``validate_hom``, one op per algebra of the pass;
* verify-exact and verify-float: ``cli.run`` of one ``lie2 check`` call,
  one op per call of one cycle, with the cycle's seeds.

One untimed round comes first.  In each round every op runs once in each
tree, one right after the other, and which tree goes first alternates from
op to op and from round to round, so a drift of the host's speed falls on
both alike.  The outputs of the two trees are compared op by op (the
residual tables and dimensions of derive, the exit code and report text of
a check); a difference exits 1.  Printed: each tree's median time of a
round, the median and quartiles of the per-round ratio this/other (above 1
means this checkout is slower), and then, for each kind of op (its fixture
and suite, in the order of the cycle), how many ops of the round are of it
and the median over the rounds of its ratio this/other.  A whole-round
ratio can hide the kind of op that holds the benchmark's median.  Only the
standard library is needed.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("ab_this", "ab_other")


def load_trees(other_src: Path, into: Path) -> list:
    """The modules cli, core, derivations and fileio of this checkout and
    of the tree at other_src, each package copied into `into`."""
    for name, src in zip(NAMES, (ROOT / "src", other_src)):
        shutil.copytree(src / "lie2alg", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    return [{m: importlib.import_module(f"{name}.{m}") for m in ("cli", "core", "derivations", "fileio")}
            for name in NAMES]


def derive(tree: dict, op) -> tuple:
    """One derive op; the result is read after the timer stops."""
    L = tree["fileio"].parse_lie2(op.path.read_text(encoding="utf-8"), str(op.path))
    der = tree["derivations"].build_der_lie2(L)
    inner = tree["derivations"].inn0_basis(L)
    ad = tree["derivations"].adbar(L, der)
    return der, inner, tree["core"].validate_lie2(der.algebra), tree["core"].validate_hom(ad)


def derive_output(result) -> tuple:
    der, inner, *reports = result
    return (len(der.basis0), len(der.basisM1), len(inner),
            [(k, repr(r.value), r.witness) for report in reports for k, r in report.entries.items()])


def check(tree: dict, op) -> tuple:
    """One `lie2 check` op, with the argv of the benchmark's `run_check`."""
    return tree["cli"].run(["check", str(op.path), "--suite", op.suite,
                            "--samples", str(op.samples), "--seed", str(op.seed)])


def run_rounds(trees: list, ops: list, body, output, rounds: int) -> list:
    """Per timed round, after one untimed round, the list of (this seconds,
    other seconds) of each op; exits 1 when the two trees' outputs of an op
    differ."""
    times = []
    for r in range(rounds + 1):
        spent = []
        for k, op in enumerate(ops):
            pair, outs = [0.0, 0.0], [None, None]
            for t in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                start = perf_counter()
                result = body(trees[t], op)
                pair[t] = perf_counter() - start
                outs[t] = output(result)
            if outs[0] != outs[1]:
                raise SystemExit(f"error: the two trees differ on {op.label} ({op.suite})")
            spent.append(tuple(pair))
        if r:
            times.append(spent)
    return times


def summary(times: list, ops: list) -> list:
    totals = [[sum(pairs) for pairs in zip(*spent)] for spent in times]
    this = [a for a, _ in totals]
    other = [b for _, b in totals]
    q1, q2, q3 = statistics.quantiles([a / b for a, b in totals], n=4)
    lines = [f"this   median {1000 * statistics.median(this):.2f} ms per round",
             f"other  median {1000 * statistics.median(other):.2f} ms per round",
             f"ratio this/other  median {q2:.3f}  quartiles {q1:.3f} {q3:.3f}"]
    kinds = {}  # (fixture, suite) -> the positions of its ops in the round
    for k, op in enumerate(ops):
        kinds.setdefault((op.label, op.suite), []).append(k)
    for (label, suite), ks in kinds.items():
        ratio = statistics.median(sum(spent[k][0] for k in ks) / sum(spent[k][1] for k in ks)
                                  for spent in times)
        lines.append(f"kind {label} {suite}  ops {len(ks)}  ratio median {ratio:.3f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other_src", type=Path, help="the src/ directory of the other tree")
    ap.add_argument("--workload", default="derive", choices=("derive", "verify-exact", "verify-float"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--small", action="store_true", help="the smoke-test size of bench/workloads.py")
    args = ap.parse_args(argv)
    if not (args.other_src / "lie2alg" / "__init__.py").is_file():
        ap.error(f"no lie2alg package under {args.other_src}")
    if args.rounds < 2:
        ap.error("--rounds must be at least 2, for the quartiles")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    workloads = importlib.import_module("workloads")
    with tempfile.TemporaryDirectory() as tmp:
        trees = load_trees(args.other_src, Path(tmp))
        plan = workloads.setup(args.workload, args.seed, Path(tmp) / "inputs", args.small)
        if args.workload == "derive":
            ops, body, output = plan.cycle, derive, derive_output
        else:
            ops, body, output = plan.ops(0), check, tuple
        times = run_rounds(trees, ops, body, output, args.rounds)
    print(f"workload {args.workload}  seed {args.seed}  rounds {args.rounds}  ops per round {len(ops)}")
    print("\n".join(summary(times, ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
