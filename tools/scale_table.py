#!/usr/bin/env python3
"""Scale table of the derivation Lie 2-algebra build and its validation.

    python3 tools/scale_table.py string-sl:4 endo-id:2

For each algebra named on the command line it prints one row: the sizes
of the algebra and of Der(g), the seconds of `build_der_lie2`,
`inn0_basis`, `adbar`, `validate_lie2(Der)` and `validate_hom(adbar)`,
whether both validations passed, and the peak resident memory.  A row
times the whole of a derive op of the benchmark but for parsing.  Names are string-sl:N, the string Lie
2-algebra of sl_N (`core.make_string(fixtures.sl_structure(N))`, N >= 2),
and endo-id:N, the endomorphism Lie 2-algebra of the identity on Q^N
(`core.make_endo(Mat.identity(N))`, N >= 1).

Each algebra runs in its own subprocess, so each peak memory figure is
that algebra's alone.  The library is imported from ``src/`` of the
checkout that holds this file; only the standard library is needed.  The
exit status is 0 when every validation passed, 1 when one failed or a
subprocess crashed, and 2 on a bad name.  No timing is checked.
"""

from __future__ import annotations

import json
import re
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"(string-sl|endo-id):([0-9]+)")
MINIMUM = {"string-sl": 2, "endo-id": 1}


def parse_name(name: str):
    m = NAME.fullmatch(name)
    if m is None or int(m.group(2)) < MINIMUM[m.group(1)]:
        raise ValueError(f"bad algebra name {name!r}: expected string-sl:N (N >= 2) "
                         "or endo-id:N (N >= 1)")
    return m.group(1), int(m.group(2))


def measure(name: str) -> dict:
    """Build, reduce and validate one algebra in this process, in the order
    of a derive op."""
    sys.path.insert(0, str(ROOT / "src"))
    from lie2alg import core, derivations, fixtures, linalg

    kind, n = parse_name(name)
    if kind == "string-sl":
        L = core.make_string(fixtures.sl_structure(n))
    else:
        L = core.make_endo(linalg.Mat.identity(n))
    row = {"algebra": name, "size": f"{L.n0}\\|{L.n1}"}  # a bar escaped for the table
    t0 = perf_counter()
    der = derivations.build_der_lie2(L)
    t1 = perf_counter()
    derivations.inn0_basis(L)
    t2 = perf_counter()
    ad = derivations.adbar(L, der)
    t3 = perf_counter()
    ok = core.validate_lie2(der.algebra).ok
    t4 = perf_counter()
    ok = core.validate_hom(ad).ok and ok
    t5 = perf_counter()
    row.update(der_size=f"{der.algebra.n0}\\|{der.algebra.n1}", build_s=t1 - t0, inn0_s=t2 - t1,
               adbar_s=t3 - t2, validate_s=t4 - t3, validate_hom_s=t5 - t4, ok=ok,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return row


def main(argv: list) -> int:
    if argv[:1] == ["--one"] and len(argv) == 2:
        print(json.dumps(measure(argv[1])))
        return 0
    if not argv:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        for name in argv:
            parse_name(name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("| algebra | size | Der size | build s | inn0 s | adbar s | validate Der s | validate hom s "
          "| ok | peak RSS MB |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    status = 0
    for name in argv:
        proc = subprocess.run([sys.executable, __file__, "--one", name],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"| {name} | failed (exit {proc.returncode}) | | | | | | | False | |")
            print(proc.stderr, file=sys.stderr, end="")
            status = 1
            continue
        r = json.loads(proc.stdout.splitlines()[-1])
        print(f"| {r['algebra']} | {r['size']} | {r['der_size']} | {r['build_s']:.3f} "
              f"| {r['inn0_s']:.3f} | {r['adbar_s']:.3f} | {r['validate_s']:.3f} "
              f"| {r['validate_hom_s']:.3f} | {r['ok']} | {r['peak_rss_mb']:.0f} |")
        if not r["ok"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
