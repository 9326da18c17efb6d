"""Command-line surface: parses the `lie2` commands, loads their algebra
and element files, and prints their reports.

The randomized suites of `lie2 check` live in `integration.SUITES`, which
draws every sample; this module turns their lines into report lines.  The
`validate` command and the `axioms` suite print the `validate_lie2` report
of the algebra.  Every other command that reads an algebra runs that report
once, at load, and refuses an algebra that fails a law: the file is not a
Lie 2-algebra, so nothing computed on it would certify anything.

Every report line is machine-greppable:
    IDENTITY <name> RESIDUAL <value> MODE <exact|float>
Exact-mode lines must be literally zero; float-mode lines pass within the
line's tolerance.  Exit codes: 0 all within policy, 1 violation, 2 input
error, an algebra that fails a law included.  The same seed always
produces byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from .automorphisms import Aut0, Tau, classify_automorphism
from .core import Lie2Algebra, Lie2Hom, validate_hom, validate_lie2
from .derivations import (
    DerM1,
    Derivation0,
    classify_derivation,
    compute_der0_basis,
    derM1_basis,
    inn0_basis,
    is_derivation0,
)
from .fileio import ParseError, parse_element, parse_lie2, serialize_element, serialize_lie2
from .fixtures import NAMED_EXAMPLES
from .integration import DEFAULT, SUITES, ExpConfig, exp_der0, exp_derM1_unit
from .linalg import mat_inverse, rat, rat_str, scalar_kind

@dataclass(frozen=True)
class ReportLine:
    name: str
    residual: object
    mode: str
    tol: float = 0.0
    witness: object = None

    @property
    def passed(self) -> bool:
        """|residual| within the tolerance of the mode: 0 when exact (tol is
        not read), tol when float; a NaN residual fails."""
        return abs(self.residual) <= scalar_kind(self.mode).tolerance(self.tol)


def emit_report(header, lines) -> tuple:
    """Deterministic report text and overall pass flag."""
    out = list(header)
    ok = True
    for ln in lines:
        ok = ok and ln.passed
        suffix = ""
        if not ln.passed and ln.witness is not None:
            suffix = f" WITNESS {ln.witness}"
        out.append(f"IDENTITY {ln.name} RESIDUAL {rat_str(ln.residual)} MODE {ln.mode}{suffix}")
    out.append("RESULT " + ("PASS" if ok else "FAIL"))
    return "\n".join(out) + "\n", ok


def _load_algebra(spec: str) -> tuple:
    """(algebra, `validate_lie2` report of its laws) of a file or named example."""
    if spec in NAMED_EXAMPLES and not os.path.exists(spec):
        L = NAMED_EXAMPLES[spec]()
    else:
        path = Path(spec)
        if not path.exists():
            raise ParseError(spec, 1, "no such file or named example")
        L = parse_lie2(path.read_text(encoding="utf-8"), str(path))
    return L, validate_lie2(L)


def _require_laws(spec: str, laws) -> None:
    """Refuse the algebra of spec, whose laws `_load_algebra` reported, with
    a ValueError (exit 2) naming its first violated law and the witness.
    Files and named examples are exact, so a law holds iff its residual is 0."""
    violated = laws.violated()
    if violated:
        law = laws[violated[0]]
        raise ValueError(f"{spec} is not a Lie 2-algebra: law {violated[0]} has residual "
                         f"{rat_str(law.value)} at {law.witness}")


def _header(cmd: str, args, L: Lie2Algebra) -> list:
    return [f"lie2 {cmd} file={args.file}", f"dim0 {L.n0} dim1 {L.n1}"]


def _report_lines(prefix: str, report, mode: str, tol: float = 0.0) -> list:
    """One line per identity of a `ResidualReport`, named prefix + name,
    with its witness."""
    return [ReportLine(prefix + name, r.value, mode, tol, r.witness) for name, r in report]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> tuple:
    L, laws = _load_algebra(args.file)
    lines = _report_lines("axiom_", laws, L.mode, DEFAULT.tol)
    return emit_report(_header("validate", args, L), lines)


def _cmd_der(args) -> tuple:
    L, laws = _load_algebra(args.file)
    _require_laws(args.file, laws)
    basis = compute_der0_basis(L)
    inner = inn0_basis(L)
    out = _header("der", args, L)
    out.append(f"dim Der^0 = {len(basis)}")
    out.append(f"dim Der^-1 = {L.n1 * L.n0}")
    out.append(f"dim inn^0 = {len(inner)}")
    for shown, label, elems in ((args.basis, "Der^0", basis), (args.inner, "inn^0", inner)):
        for t, D in enumerate(elems if shown else ()):
            out.append(f"# {label} basis element {t}")
            out.append(serialize_element(D, L).rstrip("\n"))
    for label, elems in (("Der^0", basis), ("Der^-1", derM1_basis(L))) if args.classify else ():
        for t, D in enumerate(elems):
            flags = classify_derivation(L, D)
            out.append(f"classify {label}[{t}] weak={flags['weak']} "
                       f"strict={flags['strict']} homotopy={flags['homotopy']}")
    return "\n".join(out) + "\n", True


def _cmd_aut(args) -> tuple:
    L, laws = _load_algebra(args.file)
    _require_laws(args.file, laws)
    elem = parse_element(Path(args.element).read_text(encoding="utf-8"), L, args.element)
    header = _header("aut", args, L)
    if isinstance(elem, Lie2Hom):
        a0i, a1i = mat_inverse(elem.A0), mat_inverse(elem.A1)
        lines = _report_lines("hom_", validate_hom(elem), L.mode)
        lines.append(ReportLine("invertible", 0 if a0i is not None and a1i is not None else 1, "exact"))
        text, passed = emit_report(header, lines)
        if passed:  # every residual is 0 and both components invert
            flags = classify_automorphism(L, Aut0(elem, a0i, a1i))
            text += f"classify weak={flags['weak']} strict={flags['strict']}\n"
        return text, passed
    if isinstance(elem, Tau):  # weak iff tau is a unit: one elimination of I + d tau
        flags = classify_automorphism(L, elem)
        text, passed = emit_report(
            header, [ReportLine("tau_invertible", 0 if flags["weak"] else 1, "exact")])
        text += f"classify weak={flags['weak']} strict={flags['strict']}\n"
        return text, passed
    raise ParseError(args.element, 1, "aut expects a hom or tau block")


def _cmd_exp(args) -> tuple:
    L, laws = _load_algebra(args.file)
    _require_laws(args.file, laws)
    elem = parse_element(Path(args.element).read_text(encoding="utf-8"), L, args.element)
    cfg = ExpConfig(order=args.order, tol=args.tol)
    t = rat(args.t)
    header = _header("exp", args, L)
    if isinstance(elem, Derivation0):
        rep = is_derivation0(L, elem)
        if not rep.ok:
            return emit_report(header, _report_lines("der_", rep, L.mode))
        A = exp_der0(L, elem, t, cfg)
        resid = validate_hom(A.hom).max_value()
        text, passed = emit_report(
            header, [ReportLine("exp_hom_residual", resid, A.mode, cfg.tol)])
        text += serialize_element(A.hom, L)
        return text, passed
    if isinstance(elem, DerM1):
        tau, invertible = exp_derM1_unit(L, elem, t, cfg)
        text, passed = emit_report(
            header, [ReportLine("exp_tau_invertible", 0 if invertible else 1, "exact")])
        text += serialize_element(tau, L)
        return text, passed
    raise ParseError(args.element, 1, "exp expects a der0 or derM1 block")


def _cmd_check(args) -> tuple:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    L, laws = _load_algebra(args.file)
    cfg = ExpConfig(order=args.order, tol=args.tol)
    if args.suite == "axioms":
        lines = _report_lines("axiom_", laws, L.mode, cfg.tol)
    else:
        _require_laws(args.file, laws)
        suite = SUITES[args.suite](L, random.Random(args.seed), cfg, args.samples)
        lines = [ReportLine(*line) for line in suite]
    header = _header("check", args, L)
    header[0] += f" suite={args.suite} samples={args.samples} seed={args.seed}"
    return emit_report(header, lines)


def _cmd_example(args) -> tuple:
    if args.name not in NAMED_EXAMPLES:
        raise ParseError(args.name, 1, f"unknown example (choose from {', '.join(sorted(NAMED_EXAMPLES))})")
    return serialize_lie2(NAMED_EXAMPLES[args.name]()), True


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The `lie2` parser, built once per process: parsing a command line
    leaves the parser as it was, so every call can share it.  That saves
    only callers that run `run` many times in one process; the console
    script parses once."""
    p = argparse.ArgumentParser(
        prog="lie2",
        description="Validate Lie 2-algebras, compute their derivations and "
                    "automorphism 2-groups, and verify the exponential maps.")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check the coherence laws of an algebra file")
    pv.add_argument("file")

    pd = sub.add_parser("der", help="derivation space dimensions and bases")
    pd.add_argument("file")
    pd.add_argument("--basis", action="store_true")
    pd.add_argument("--inner", action="store_true")
    pd.add_argument("--classify", action="store_true")

    pa = sub.add_parser("aut", help="certify an element file as an automorphism")
    pa.add_argument("file")
    pa.add_argument("--element", required=True)

    pe = sub.add_parser("exp", help="exponentiate a derivation element")
    pe.add_argument("file")
    pe.add_argument("--element", required=True)
    pe.add_argument("--t", default="1")

    pc = sub.add_parser("check", help="run a randomized verification suite")
    pc.add_argument("file")
    pc.add_argument("--suite", required=True, choices=("axioms", *SUITES))
    pc.add_argument("--samples", type=int, default=25)
    pc.add_argument("--seed", type=int, default=0)
    # the exponential options of both commands, with ExpConfig's defaults
    for sp in (pe, pc):
        sp.add_argument("--order", type=int, default=DEFAULT.order,
                        help="largest Taylor degree of a float series")
        sp.add_argument("--tol", type=float, default=DEFAULT.tol)

    px = sub.add_parser("example", help="print a named example file")
    px.add_argument("--name", required=True)

    return p


def run(argv) -> tuple:
    """Parse arguments and execute; returns (exit_code, report_text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), ""
    try:
        text, passed = {
            "validate": _cmd_validate,
            "der": _cmd_der,
            "aut": _cmd_aut,
            "exp": _cmd_exp,
            "check": _cmd_check,
            "example": _cmd_example,
        }[args.command](args)
    except (OSError, ValueError) as exc:  # a ParseError included
        return 2, f"error: {exc}\n"
    except MemoryError:  # e.g. dimensions whose tables do not fit
        return 2, "error: out of memory\n"
    return (0 if passed else 1), text


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
