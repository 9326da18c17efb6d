"""Command-line surface: validation, derivation reports, automorphism
checks, exponentials and the randomized verification suites.

Every report line is machine-greppable:
    IDENTITY <name> RESIDUAL <value> MODE <exact|float>
Exact-mode lines must be literally zero; float-mode lines pass within the
line's tolerance.  Exit codes: 0 all within policy, 1 violation, 2 input
error.  The same seed always produces byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .automorphisms import (
    Aut0,
    Tau,
    check_crossed_module,
    classify_automorphism,
    random_tau,
    tau_is_invertible,
)
from .core import Lie2Algebra, Lie2Hom, validate_hom, validate_lie2
from .derivations import (
    DerM1,
    Derivation0,
    classify_derivation,
    compute_der0_basis,
    der0_distance,
    derM1_basis,
    graded_bracket,
    inn0_basis,
    is_derivation0,
    random_der0,
    random_derM1,
)
from .fileio import ParseError, parse_element, parse_lie2, serialize_element, serialize_lie2
from .fixtures import NAMED_EXAMPLES
from .integration import (
    DEFAULT,
    ExpConfig,
    _DENS,
    _joint_mode,
    check_commuting_square,
    check_conjugation_identities,
    check_one_parameter,
    exp_der0,
    exp_derM1,
    nilpotent_derivations,
    one_parameter_derM1,
    random_aut0,
    recover_bracket,
    recover_bracket_m1,
)
from .linalg import mat_distance, mat_inverse, rat, rat_str, scalar_kind

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


def _load_algebra(spec: str) -> Lie2Algebra:
    if spec in NAMED_EXAMPLES and not os.path.exists(spec):
        return NAMED_EXAMPLES[spec]()
    path = Path(spec)
    if not path.exists():
        raise ParseError(spec, 1, "no such file or named example")
    return parse_lie2(path.read_text(encoding="utf-8"), str(path))


def _header(cmd: str, args, L: Lie2Algebra) -> list:
    return [f"lie2 {cmd} file={args.file}", f"dim0 {L.n0} dim1 {L.n1}"]


def _report_lines(prefix: str, report, mode: str, tol: float = 0.0) -> list:
    """One line per identity of a `ResidualReport`, named prefix + name,
    with its witness."""
    return [ReportLine(prefix + name, r.value, mode, tol, r.witness) for name, r in report]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_axioms(L, rng, args, cfg):
    return _report_lines("axiom_", validate_lie2(L), L.mode, cfg.tol)


def _suite_crossed_module(L, rng, args, cfg):
    n = max(2, math.isqrt(max(args.samples - 1, 0)) + 1)
    nilpotent = nilpotent_derivations(L, compute_der0_basis(L))
    auts = [random_aut0(L, rng, nilpotent) for _ in range(n)]
    taus = [random_tau(L, rng) for _ in range(n)]
    return [ReportLine(name, resid, "exact", cfg.tol)
            for name, resid in check_crossed_module(L, auts, taus)]


def _suite_exp_square(L, rng, args, cfg):
    out = []
    for i in range(args.samples):
        T = random_derM1(L, rng, dens=_DENS)
        out.append(ReportLine(f"exp_square[{i}]", *check_commuting_square(L, T, cfg), cfg.tol))
    return out


def _suite_one_parameter(L, rng, args, cfg):
    out = []
    basis = compute_der0_basis(L)
    for i in range(args.samples):
        D = random_der0(L, rng, basis, dens=_DENS)
        t = Fraction(rng.randint(-8, 8), 8)
        s = Fraction(rng.randint(-8, 8), 8)
        out.append(ReportLine(f"one_param_deg0[{i}]", *check_one_parameter(L, D, t, s, cfg),
                              cfg.tol))
        T = random_derM1(L, rng, dens=_DENS)
        out.append(ReportLine(f"one_param_degM1[{i}]", *one_parameter_derM1(L, T, t, s, cfg),
                              cfg.tol))
    return out


def _suite_bracket_recovery(L, rng, args, cfg):
    # full-size draws: the finite-difference arguments are h-scaled anyway,
    # and the h^2 convergence signal must stay above the rounding floor
    out = []
    basis = compute_der0_basis(L)
    fd_tol = 1e-4
    for i in range(args.samples):
        for suffix, recover, distance, x, y in (
                ("", recover_bracket, der0_distance,
                 random_der0(L, rng, basis), random_der0(L, rng, basis)),
                ("_degM1", recover_bracket_m1, lambda a, b: mat_distance(a.theta, b.theta),
                 random_derM1(L, rng), random_derM1(L, rng))):
            want = graded_bracket(L, x, y).to_float()
            R1, R2 = recover(L, x, y, cfg)
            # Richardson: (4 R(h/2) - R(h)) / 3 cancels the h^2 term of the error
            richardson = (R2.scale(4.0) - R1).scale(1.0 / 3.0)
            out.append(ReportLine(f"bracket_recover{suffix}[{i}]", distance(richardson, want),
                                  "float", fd_tol))
            r1, r2 = distance(R1, want), distance(R2, want)
            if r2 > 1e-9:
                # halving h must cut the residual by about 4 (second order)
                out.append(ReportLine(f"bracket_convergence{suffix}[{i}]", abs(r1 / r2 - 4.0),
                                      "float", 0.5))
    return out


def _suite_conjugation(L, rng, args, cfg):
    return [ReportLine(name, resid, mode, cfg.tol)
            for name, resid, mode in
            check_conjugation_identities(L, rng, cfg, samples=args.samples)]


_SUITE_FNS = {
    "axioms": _suite_axioms,
    "crossed-module": _suite_crossed_module,
    "exp-square": _suite_exp_square,
    "one-parameter": _suite_one_parameter,
    "bracket-recovery": _suite_bracket_recovery,
    "conjugation": _suite_conjugation,
}
SUITES = tuple(_SUITE_FNS)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> tuple:
    L = _load_algebra(args.file)
    lines = _suite_axioms(L, None, args, ExpConfig())
    return emit_report(_header("validate", args, L), lines)


def _cmd_der(args) -> tuple:
    L = _load_algebra(args.file)
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
    L = _load_algebra(args.file)
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
    L = _load_algebra(args.file)
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
        tau = exp_derM1(L, elem, t, cfg)
        # the invertibility identity runs in the mode of tau: L converted with it
        invertible = tau_is_invertible(_joint_mode(L, (), tau)[1], tau)
        text, passed = emit_report(
            header, [ReportLine("exp_tau_invertible", 0 if invertible else 1, "exact")])
        text += serialize_element(tau, L)
        return text, passed
    raise ParseError(args.element, 1, "exp expects a der0 or derM1 block")


def _cmd_check(args) -> tuple:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    L = _load_algebra(args.file)
    cfg = ExpConfig(order=args.order, tol=args.tol)
    rng = random.Random(args.seed)
    header = _header("check", args, L)
    header[0] += f" suite={args.suite} samples={args.samples} seed={args.seed}"
    lines = _SUITE_FNS[args.suite](L, rng, args, cfg)
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
    pc.add_argument("--suite", required=True, choices=SUITES)
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
