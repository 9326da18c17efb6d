"""Workload inputs, operations and output checks for the benchmark.

Three workloads, each a list of *ops* (one unit of user work):

* ``derive``: one op is one algebra, end to end: parse its file, build
  the derivation Lie 2-algebra, the inner derivations and the adjoint
  homomorphism, and validate the derived algebra and the homomorphism.
* ``verify-exact``: one op is one ``lie2 check FILE --suite S`` call
  with S in axioms / crossed-module / exp-square / conjugation.
* ``verify-float``: one op is one ``lie2 check FILE --suite S`` call
  with S in one-parameter / bracket-recovery.

Every algebra is built, checked and written to a file in set-up; ops read
the files, so parsing is on the measured path.  Library functions are
looked up on their modules at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import random
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from lie2alg import cli, core, derivations, fileio, fixtures, linalg

WORKLOADS = ("derive", "verify-exact", "verify-float")

# derive: (name, constructor, expected (dim Der^0, dim Der^-1, dim inn^0)).
# string-sl3: Der^0 = sl3 + B^2(sl3; R) = 8 + 8 because H^1 = H^2 = 0.
def _string_sl3():
    return core.make_string(sl_structure(3))


def _endo_id2():
    return core.make_endo(linalg.Mat.identity(2))


NAMED_DERIVE = (
    ("string-sl2", fixtures.fix_str, (6, 3, 6)),
    ("skeletal-demo", fixtures.skeletal_demo, (10, 9, 9)),
    ("endo-id2", _endo_id2, (16, 16, 16)),
    ("string-sl3", _string_sl3, (16, 8, 16)),
)
# distinct random_fixture draws kept per (dim0, dim1) shape.  (2, 2) and
# (3, 1) hold two distinct algebras each, so both are kept and every run has
# the same small algebras around the (3, 2) draws.  (3, 2) holds many
# (endomorphism algebras of random 2x1 complexes, whose cost varies with
# their entries), and eight of them carry the median and the tail of derive.
DERIVE_DRAWS_PER_SHAPE = {(1, 1): 1, (2, 1): 1, (2, 2): 2, (3, 1): 2, (3, 2): 8}
DERIVE_DRAW_ATTEMPTS = 200

VERIFY_FILES = tuple(fixtures.NAMED_EXAMPLES)
# workload -> (suites, --samples, nominal seconds of one cycle at the seed
# commit, how often a cycle runs a (file, suite) pair when not once).
# The repeats place the statistics inside one kind of op rather than on the
# edge between two.  verify-exact: an odd cycle puts the median on one kind.
# verify-float: the median falls among six cheap bracket-recovery ops per
# cycle, and op_tail_ms (the 11th-largest latency) among three
# skeletal-demo one-parameter ops per cycle.
VERIFY_SUITES = {
    "verify-exact": (("axioms", "crossed-module", "exp-square", "conjugation"), 2, 2.8,
                     {("endo-1-1", "axioms"): 2}),
    "verify-float": (("one-parameter", "bracket-recovery"), 1, 6.5,
                     {("abelian", "one-parameter"): 3, ("endo-1-1", "one-parameter"): 2,
                      ("skeletal-demo", "one-parameter"): 3,
                      ("abelian", "bracket-recovery"): 3, ("endo-1-1", "bracket-recovery"): 3}),
}
DEFAULT_TOL = 1e-9

_LINE = re.compile(r"^IDENTITY (\S+) RESIDUAL (\S+) MODE (exact|float)")


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def _sl_basis(n: int) -> list:
    """E_ij (i != j) in row-major order, then H_k = E_kk - E_(k+1)(k+1)."""
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                m = [[0] * n for _ in range(n)]
                m[i][j] = 1
                basis.append(m)
    for k in range(n - 1):
        m = [[0] * n for _ in range(n)]
        m[k][k], m[k + 1][k + 1] = 1, -1
        basis.append(m)
    return basis


def _sl_coords(m: list, n: int) -> tuple:
    """Coordinates of a traceless matrix in the basis of `_sl_basis`."""
    off = [Fraction(m[i][j]) for i in range(n) for j in range(n) if i != j]
    diag, acc = [], Fraction(0)
    for k in range(n - 1):
        acc += m[k][k]
        diag.append(acc)
    return tuple(off + diag)


def sl_structure(n: int) -> linalg.AltTensor:
    """Structure constants of sl_n from commutators of its matrix basis."""
    basis = _sl_basis(n)

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    entries = {}
    for p in range(len(basis)):
        for q in range(p + 1, len(basis)):
            ab, ba = mul(basis[p], basis[q]), mul(basis[q], basis[p])
            vec = _sl_coords([[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)], n)
            if any(vec):
                entries[(p, q)] = vec
    return linalg.AltTensor(2, len(basis), len(basis), entries)


def _write_checked(L, path: Path) -> dict:
    """Validate `L`, write it, and require an equal parse round trip."""
    if not core.validate_lie2(L).ok:
        raise RuntimeError(f"{path.name}: set-up algebra fails validate_lie2")
    text = fileio.serialize_lie2(L)
    if fileio.parse_lie2(text, str(path)) != L:
        raise RuntimeError(f"{path.name}: serialize/parse round trip differs")
    path.write_text(text, encoding="utf-8")
    return {"file": path.name, "n0": L.n0, "n1": L.n1}


def _random_draws(rng: random.Random, seen: list, caps: dict) -> list:
    """Distinct random_fixture draws, at most caps[shape] of each
    (dim0, dim1) shape, none equal to an algebra in `seen`."""
    out, per_shape = [], {}
    for _ in range(DERIVE_DRAW_ATTEMPTS):
        L = fixtures.random_fixture(rng)
        shape = (L.n0, L.n1)
        if per_shape.get(shape, 0) >= caps.get(shape, 0):
            continue
        if all(L != other for other in seen):
            seen.append(L)
            out.append(L)
            per_shape[shape] = per_shape.get(shape, 0) + 1
    return out


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Op:
    label: str          # fixture name, for provenance
    suite: str          # suite name, or "derive"
    path: Path
    seed: int = 0
    samples: int = 0
    expect: tuple | None = None
    heavy: bool = False  # left out of the untraced reference pass of a traced run


@dataclass
class Plan:
    """The inputs of one workload and the fixed op list they give."""

    cycle: list                       # derive: the pass; verify: one cycle
    algebras: list = field(default_factory=list)
    rng: random.Random | None = None  # verify: per-op seeds
    nominal_cycle_s: float = 0.0

    def ops(self, seconds: float) -> list:
        """The ops of one run: the derive pass once, or as many verify cycles
        as fit in `seconds` at the nominal cycle time (at least one), each op
        with a fresh seed.  The list depends on the seed alone, never on the
        speed of the machine, so every run of a seed does the same work."""
        if self.rng is None:
            return list(self.cycle)
        cycles = max(1, round(seconds / self.nominal_cycle_s))
        return [Op(o.label, o.suite, o.path, self.rng.randrange(2 ** 31), o.samples)
                for _ in range(cycles) for o in self.cycle]


def setup(workload: str, seed: int, out_dir: Path, small: bool = False) -> Plan:
    """Build, check and write every input of `workload` for `seed`.

    `small` gives the smallest size, for smoke tests: derive without the
    two 16-dimensional algebras and with one draw per shape."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "derive":
        return _setup_derive(seed, out_dir, small)
    if workload in VERIFY_SUITES:
        return _setup_verify(workload, seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def _setup_derive(seed: int, out_dir: Path, small: bool) -> Plan:
    sc = sl_structure(3)
    if linalg.rank(core.killing_form(sc)) != sc.dim:
        raise RuntimeError("sl3 Killing form is degenerate")
    ops, algebras, seen = [], [], []
    for name, make, expect in NAMED_DERIVE[:2] if small else NAMED_DERIVE:
        L = make()
        seen.append(L)
        algebras.append(dict(_write_checked(L, out_dir / f"{name}.lie2"), name=name))
        ops.append(Op(name, "derive", out_dir / f"{name}.lie2", expect=expect,
                      heavy=expect[0] >= 16))
    caps = {shape: 1 for shape in DERIVE_DRAWS_PER_SHAPE} if small else DERIVE_DRAWS_PER_SHAPE
    rng = random.Random(f"derive:{seed}")
    for i, L in enumerate(_random_draws(rng, seen, caps)):
        name = f"random-{i:02d}"
        algebras.append(dict(_write_checked(L, out_dir / f"{name}.lie2"), name=name))
        ops.append(Op(name, "derive", out_dir / f"{name}.lie2"))
    # spread the short ops over the pass, so that their median samples the
    # machine over the whole run rather than over a few seconds of it
    rng.shuffle(ops)
    return Plan(ops, algebras=algebras)


def _setup_verify(workload: str, seed: int, out_dir: Path) -> Plan:
    suites, samples, nominal_s, repeats = VERIFY_SUITES[workload]
    algebras, cycle = [], []
    for name in VERIFY_FILES:
        path = out_dir / f"{name}.lie2"
        algebras.append(dict(_write_checked(fixtures.NAMED_EXAMPLES[name](), path), name=name))
        cycle += [Op(name, suite, path, samples=samples)
                  for suite in suites for _ in range(repeats.get((name, suite), 1))]
    return Plan(cycle, algebras=algebras, rng=random.Random(f"{workload}:{seed}"),
                nominal_cycle_s=nominal_s)


# ---------------------------------------------------------------------------
# ops and their checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    start: float = 0.0                  # perf_counter when the timed part began
    seconds: float = 0.0
    failed: bool = False
    wrong: bool = False                 # a result presented as valid is wrong
    reason: str = ""
    traceback: str = ""                 # of an exception the op raised
    failing_lines: list = field(default_factory=list)
    exact_lines: int = 0
    float_lines: int = 0
    float_resid_max: float = 0.0        # over float lines held to DEFAULT_TOL
    dims: tuple | None = None


def warm_up(plan: Plan) -> None:
    """One untimed op on an input the timed phase never uses."""
    path = plan.cycle[0].path.with_name("warm-up.lie2")
    _write_checked(fixtures.fix_ab(), path)
    suite = plan.cycle[0].suite
    out = Outcome()
    (run_derive if suite == "derive" else run_check)(
        Op("warm-up", suite, path, samples=1), out, nullcontext)
    if out.failed:
        raise RuntimeError(f"warm-up op failed: {out.reason} {out.failing_lines}")


def run_derive(op: Op, out: Outcome, timer) -> None:
    """One derive op; `timer` brackets the part the op latency measures."""
    with timer(out):
        L = fileio.parse_lie2(op.path.read_text(encoding="utf-8"), str(op.path))
        der = derivations.build_der_lie2(L)
        inner = derivations.inn0_basis(L)
        ad = derivations.adbar(L, der)
        reports = [core.validate_lie2(der.algebra), core.validate_hom(ad)]
    reports += [derivations.is_derivation0(L, D) for D in der.basis0]
    dims = (len(der.basis0), len(der.basisM1), len(inner))
    out.dims = dims
    lines = sum(len(r.entries) for r in reports)
    if L.mode == "exact":
        out.exact_lines = lines
    else:
        out.float_lines = lines
    bad = [name for name, ok in (("validate_lie2", reports[0].ok), ("validate_hom", reports[1].ok))
           if not ok]
    bad += [f"is_derivation0[{t}]" for t, r in enumerate(reports[2:]) if not r.ok]
    if dims[1] != L.n0 * L.n1 or dims[2] > dims[0]:
        bad.append(f"dims{dims}")
    if op.expect is not None and dims != op.expect:
        bad.append(f"dims{dims}!=expected{op.expect}")
    if bad:
        out.failed = out.wrong = True
        out.reason = "check"
        out.failing_lines = bad


def _line_passes(name: str, resid: float, mode: str) -> bool:
    if mode == "exact":
        return resid == 0
    if name.startswith("bracket_convergence"):
        return abs(resid) <= 0.5
    if name.startswith("bracket_"):
        return abs(resid) <= 1e-4
    return abs(resid) <= DEFAULT_TOL


def run_check(op: Op, out: Outcome, timer) -> None:
    """One `lie2 check` op through `cli.run`, with its report checked."""
    argv = ["check", str(op.path), "--suite", op.suite,
            "--samples", str(op.samples), "--seed", str(op.seed)]
    with timer(out):
        code, text = cli.run(argv)
    lines = [m.groups() for m in map(_LINE.match, text.splitlines()) if m]
    result = "PASS" if "RESULT PASS" in text else "FAIL" if "RESULT FAIL" in text else None
    for name, resid_text, mode in lines:
        resid = float(Fraction(resid_text)) if "/" in resid_text else float(resid_text)
        if mode == "exact":
            out.exact_lines += 1
        else:
            out.float_lines += 1
            if not name.startswith("bracket_"):
                out.float_resid_max = max(out.float_resid_max, abs(resid))
        if not _line_passes(name, resid, mode):
            out.failing_lines.append(name)
    if not lines or result is None:
        out.failed = True
        out.wrong = code == 0
        out.reason = f"exit {code}, no report"
        return
    # the verdict, exit code and line residuals must agree with each other
    if (result == "PASS") != (not out.failing_lines) or (code == 0) != (result == "PASS"):
        out.wrong = True
    if code != 0 or result != "PASS":
        out.failed = True
        out.reason = f"exit {code} RESULT {result}"
