import itertools
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lie2alg import cli, linalg
from lie2alg.cli import ReportLine, run
from lie2alg.core import make_endo
from lie2alg.fileio import serialize_element, serialize_lie2
from lie2alg.fixtures import fix_str, random_fixture, string_aut_hom
from lie2alg.linalg import Mat

GOLDEN = Path(__file__).parent / "golden"
ROOT = GOLDEN.parent.parent
NAMED = ("abelian", "string-sl2", "endo-1-1", "skeletal-demo")


def test_validate_named_examples_pass():
    for name in NAMED:
        code, text = run(["validate", name])
        assert code == 0, text
        assert "RESULT PASS" in text


def test_cached_parser_gives_the_results_of_a_fresh_one(monkeypatch):
    # one parser serves every call of a process; options and errors of one
    # call must not leak into the next
    calls = (
        (["check", "abelian", "--suite", "axioms"], 0),
        (["check", "abelian", "--suite", "no-such-suite"], 2),
        (["der", "endo-1-1", "--basis", "--inner", "--classify"], 0),
        (["der", "endo-1-1"], 0),
        (["aut", "endo-1-1"], 2),
        (["check", "endo-1-1", "--suite", "crossed-module", "--samples", "2", "--seed", "3"], 0),
        (["check", "endo-1-1", "--suite", "crossed-module", "--samples", "2"], 0),
        ([], 2),
        (["validate", "string-sl2"], 0),
        (["exp", "endo-1-1", "--element", "no-such-file", "--order", "x"], 2),
        (["example", "--name", "abelian"], 0),
    )
    assert cli._build_parser() is cli._build_parser()
    cached = [run(argv) for argv, _ in calls]
    assert [code for code, _ in cached] == [code for _, code in calls]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert [run(argv) for argv, _ in calls] == cached


def test_validate_broken_file_fails(tmp_path):
    bad = tmp_path / "bad.lie2"
    # a bracket without Jacobi: [x,y] = y, [x,z] = 0, [y,z] = x breaks b1
    bad.write_text("lie2 v1\ndim0 3\ndim1 0\nb00 0 1 1 1\nb00 1 2 0 1\n")
    code, text = run(["validate", str(bad)])
    assert code == 1
    assert "RESULT FAIL" in text
    assert "WITNESS" in text


def test_validate_missing_file_is_input_error():
    code, text = run(["validate", "no-such-file.lie2"])
    assert code == 2
    assert "error:" in text


def test_an_algebra_too_large_for_memory_is_input_error(monkeypatch):
    # dimensions whose tables exceed memory: a one-line error, no traceback;
    # the parser raises as it would, so nothing is allocated for real
    def parse_lie2(text, filename):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_lie2", parse_lie2)
    code, text = run(["validate", str(GOLDEN / "broken-c.lie2")])
    assert (code, text) == (2, "error: out of memory\n")


def test_an_oversized_header_is_refused_before_any_table_is_built(tmp_path):
    # dim0 3000, dim1 300 asks for 2.7e8 dense entries: refused from the
    # header alone, in milliseconds.  The call runs in a child process under
    # a 1 GiB address-space cap, so a parser that allocated first fails on
    # memory there instead of taking the host's
    f = tmp_path / "big.lie2"
    f.write_text("lie2 v1\ndim0 3000\ndim1 300\n")
    probe = ("import sys, time\nfrom lie2alg.cli import run\nstart = time.perf_counter()\n"
             "code, text = run(['validate', sys.argv[1]])\n"
             "print(code, time.perf_counter() - start)\nprint(text, end='')\n")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    proc = subprocess.run([sys.executable, "-c", probe, str(f)], capture_output=True, text=True,
                          timeout=120, preexec_fn=cap, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    head, text = proc.stdout.split("\n", 1)
    code, seconds = head.split()
    assert (int(code), text) == (2, f"error: {f}:3: dim0 3000 and dim1 300 need 270900000 dense "
                                    "entries, more than the limit of 10000000\n")
    assert float(seconds) < 0.5


def test_parse_error_is_input_error(tmp_path):
    f = tmp_path / "x.lie2"
    f.write_text("lie2 v1\ndim0 1\ndim1 1\nd 0 9 1\n")
    code, text = run(["validate", str(f)])
    assert code == 2
    assert "x.lie2:4" in text


def test_der_reports_dimensions():
    code, text = run(["der", "string-sl2"])
    assert code == 0
    assert "dim Der^0 = 6" in text
    assert "dim Der^-1 = 3" in text
    assert "dim inn^0 = 6" in text


def test_der_strict_sl2_file(tmp_path):
    # the degenerate degree -1 = 0 case flows through files and reports
    from lie2alg.fileio import serialize_lie2
    from lie2alg.fixtures import strict_sl2
    f = tmp_path / "strict.lie2"
    f.write_text(serialize_lie2(strict_sl2()))
    code, text = run(["der", str(f)])
    assert code == 0
    assert "dim Der^0 = 3" in text and "dim Der^-1 = 0" in text and "dim inn^0 = 3" in text


def _der_sections(text):
    """A der report split into its head and the blocks of --basis, --inner
    and --classify, each a list of lines."""
    sections = {"head": [], "basis": [], "inner": [], "classify": []}
    key = "head"
    for line in text.splitlines(keepends=True):
        for prefix, name in (("# Der^0 basis element", "basis"),
                             ("# inn^0 basis element", "inner"), ("classify ", "classify")):
            if line.startswith(prefix):
                key = name
        sections[key].append(line)
    return sections


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("der-*.txt")), ids=lambda p: p.stem)
def test_der_with_each_subset_of_flags_keeps_those_blocks_of_the_full_report(golden, monkeypatch):
    sections = _der_sections(golden.read_text(encoding="utf-8"))
    # every block the golden can hold is there, so each subset removes one
    assert sections["basis"] and sections["classify"]
    assert bool(sections["inner"]) == ("dim inn^0 = 0\n" not in sections["head"])
    name = golden.stem.removeprefix("der-")
    if (GOLDEN / f"{name}.lie2").exists():  # an algebra file, named from the repository root
        monkeypatch.chdir(ROOT)
        name = f"tests/golden/{name}.lie2"
    flags = ("basis", "inner", "classify")
    for size in range(len(flags) + 1):
        for subset in itertools.combinations(flags, size):
            want = "".join(sections["head"] + [ln for f in subset for ln in sections[f]])
            assert run(["der", name, *(f"--{f}" for f in subset)]) == (0, want), subset


def test_der_classify_lists_flags():
    code, text = run(["der", "abelian", "--classify"])
    assert code == 0
    assert "classify Der^0[0]" in text
    assert "weak=True" in text


def test_aut_accepts_automorphism(tmp_path):
    rng = random.Random(1)
    L = fix_str()
    elem = tmp_path / "a.elem"
    elem.write_text(serialize_element(string_aut_hom(L, rng), L))
    code, text = run(["aut", "string-sl2", "--element", str(elem)])
    assert code == 0
    assert "classify weak=True" in text


def test_aut_rejects_non_automorphism(tmp_path):
    elem = tmp_path / "a.elem"
    elem.write_text("hom\na0 0 0 2\na0 1 1 2\na0 2 2 2\na1 0 0 1\n")
    code, text = run(["aut", "string-sl2", "--element", str(elem)])
    assert code == 1
    assert "RESULT FAIL" in text


def test_aut_tau_invertibility(tmp_path):
    elem = tmp_path / "t.elem"
    elem.write_text("tau\ntau 0 0 1\n")
    code, text = run(["aut", "endo-1-1", "--element", str(elem)])
    assert code == 0
    elem.write_text("tau\ntau 0 0 -1\n")
    code, text = run(["aut", "endo-1-1", "--element", str(elem)])
    assert code == 1


def test_exp_der0_exact(tmp_path):
    # the nilpotent adjoint generator ad_e exponentiates exactly
    elem = tmp_path / "d.elem"
    elem.write_text("der0\nx0 1 0 -2\nx0 0 2 1\nlx 0 1 0 0\nlx 1 2 0 4\n")
    code, text = run(["exp", "string-sl2", "--element", str(elem)])
    assert "IDENTITY exp_hom_residual RESIDUAL 0 MODE exact" in text
    assert code == 0
    assert "hom" in text


def test_exp_overflowing_time_is_an_error(tmp_path):
    elem = tmp_path / "d.elem"
    elem.write_text("der0\nx0 0 0 1000\nx1 0 0 1000\n")
    code, text = run(["exp", "endo-1-1", "--element", str(elem), "--t", "1" + "0" * 308])
    assert code == 2
    assert "overflows" in text


def test_exp_time_too_large_for_a_float_is_an_error(tmp_path):
    # theta d = 1 is not nilpotent, so the series runs in float, and float(t)
    # would overflow before the norm check
    elem = tmp_path / "t.elem"
    elem.write_text("derM1\ntheta 0 0 1\n")
    code, text = run(["exp", "endo-1-1", "--element", str(elem), "--t", "1" + "0" * 400])
    assert (code, text) == (2, "error: exponential overflows: t is too large for a float\n")


def test_exp_overflowing_result_is_an_error(tmp_path):
    # ||D|| = 1000 is finite but e^1000 is not: the exponential itself
    # raises, before the homomorphism check would read a NaN residual
    elem = tmp_path / "d.elem"
    elem.write_text("der0\nx0 0 0 1000\nx1 0 0 1000\n")
    code, text = run(["exp", "endo-1-1", "--element", str(elem)])
    assert code == 2
    assert "exponential overflows" in text and "nan" not in text


def test_exp_derM1(tmp_path):
    elem = tmp_path / "t.elem"
    elem.write_text("derM1\ntheta 0 0 1\ntheta 0 1 -1\n")
    code, text = run(["exp", "string-sl2", "--element", str(elem)])
    assert code == 0
    assert "exp_tau_invertible RESIDUAL 0" in text
    assert "tau 0 0 1" in text  # d = 0: e^theta = theta


def test_check_suites_pass_on_string():
    for suite, samples in (("axioms", 1), ("crossed-module", 9),
                           ("exp-square", 4), ("one-parameter", 3),
                           ("bracket-recovery", 2), ("conjugation", 2)):
        code, text = run(["check", "string-sl2", "--suite", suite,
                          "--samples", str(samples), "--seed", "11"])
        assert code == 0, (suite, text)
        assert "RESULT PASS" in text


# the inputs on which the degree -1 probe failed while it was a plain
# central difference (bracket_recover_degM1 read 1.0e-4 to 4.7e-4 against
# the tolerance 1e-4, an O(h^2) error growing with |theta|^2): endo-id2 on
# 25 of seeds 1-40, and endo-id3 and three random algebras at seed 1
CENTRAL_DIFFERENCE_FAILURES = {
    "endo-id2": (lambda: make_endo(Mat.identity(2)), range(1, 41)),
    "endo-id3": (lambda: make_endo(Mat.identity(3)), [1]),
    **{f"random-{s}": (lambda s=s: random_fixture(random.Random(s)), [1]) for s in (5, 13, 16)},
}


@pytest.mark.parametrize("name", CENTRAL_DIFFERENCE_FAILURES)
def test_bracket_recovery_passes_where_the_central_difference_failed(name, tmp_path, monkeypatch):
    make, seeds = CENTRAL_DIFFERENCE_FAILURES[name]
    (tmp_path / f"{name}.lie2").write_text(serialize_lie2(make()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for seed in seeds:
        code, text = run(["check", f"{name}.lie2", "--suite", "bracket-recovery", "--samples", "2",
                          "--seed", str(seed)])
        assert code == 0, (seed, text)


def test_check_seed_reproducible():
    args = ["check", "string-sl2", "--suite", "conjugation", "--samples", "2", "--seed", "5"]
    code1, text1 = run(args)
    code2, text2 = run(args)
    assert (code1, text1) == (code2, text2)
    code3, text3 = run(args[:-1] + ["6"])
    assert text3 != text1  # different draws, same format


def test_check_seed_defaults_to_0_whatever_the_environment(monkeypatch):
    # --seed is the one way to set the seed: an exported LIE2_SEED, which
    # once gave its default, changes no report
    args = ["check", "string-sl2", "--suite", "exp-square", "--samples", "2"]
    monkeypatch.delenv("LIE2_SEED", raising=False)
    want = run(args)
    monkeypatch.setenv("LIE2_SEED", "5")
    code, text = run(args)
    assert (code, text) == want == run(args + ["--seed", "0"])
    assert code == 0 and "seed=0" in text.splitlines()[0]


def test_check_without_samples_is_input_error():
    # no sample would give a vacuous RESULT PASS
    for samples in ("0", "-3"):
        code, text = run(["check", "abelian", "--suite", "exp-square", "--samples", samples])
        assert (code, text) == (2, f"error: --samples must be at least 1, got {samples}\n")


def test_check_refuses_a_tolerance_or_step_that_is_not_finite_and_positive():
    # NaN fails every comparison and inf passes every residual, so neither
    # may reach a report
    for value in ("nan", "inf"):
        code, text = run(["check", "skeletal-demo", "--suite", "one-parameter", "--samples", "1",
                          "--seed", "1", "--tol", value])
        assert (code, text) == (2, "error: order >= 1 and finite tol > 0 required, "
                                   f"got order=24 tol={value}\n")


def test_a_huge_order_computes_only_the_taylor_bounds_its_plan_probes():
    # the plan bisects over range(1, order + 1), so an order of 10^9 returns
    # at once and leaves a few dozen cached bounds, not a billion
    linalg._theta.cache_clear()
    assert run(["check", "abelian", "--suite", "one-parameter", "--samples", "1", "--seed", "1",
                "--order", "1000000000"])[0] == 0
    assert linalg._theta.cache_info().currsize <= 64


def test_check_refuses_an_order_above_sys_maxsize():
    # no traceback and no violation (exit 1): an input error, with the bound named
    for order in (10 ** 19, 10 ** 400):
        code, text = run(["check", "abelian", "--suite", "one-parameter", "--samples", "1",
                          "--seed", "1", "--order", str(order)])
        assert (code, text) == (2, f"error: order <= sys.maxsize = {sys.maxsize} required, "
                                   f"got order={order}\n")


def test_example_output_parses(tmp_path):
    code, text = run(["example", "--name", "skeletal-demo"])
    assert code == 0
    f = tmp_path / "demo.lie2"
    f.write_text(text)
    code, text = run(["validate", str(f)])
    assert code == 0


@pytest.mark.parametrize("name", NAMED)
def test_an_example_file_reads_back_to_its_named_example(name, tmp_path):
    # the der report of the file differs from the named example's golden
    # only in line 1, which names the file
    f = tmp_path / f"{name}.lie2"
    f.write_text(run(["example", "--name", name])[1], encoding="utf-8")
    code, text = run(["der", str(f), "--basis", "--inner", "--classify"])
    assert code == 0
    want = (GOLDEN / f"der-{name}.txt").read_text(encoding="utf-8")
    assert text.partition("\n")[2] == want.partition("\n")[2]


def test_unknown_example():
    code, text = run(["example", "--name", "nope"])
    assert code == 2


def test_report_lines_are_greppable():
    code, text = run(["check", "abelian", "--suite", "exp-square",
                      "--samples", "2", "--seed", "0"])
    for line in text.splitlines():
        if line.startswith("IDENTITY"):
            parts = line.split()
            assert parts[0] == "IDENTITY" and parts[2] == "RESIDUAL" and parts[4] == "MODE"
            assert parts[5] in ("exact", "float")


def test_check_abelian_conjugation_and_bracket_recovery_pass():
    # the suites convert the all-zero abelian fixture to float for
    # bracket recovery; every zero of the float copy is a float zero, so the
    # star inverse and the exponentials never meet an exact operand
    for suite, samples in (("conjugation", 2), ("bracket-recovery", 1)):
        for seed in range(1, 21):
            code, text = run(["check", "abelian", "--suite", suite,
                              "--samples", str(samples), "--seed", str(seed)])
            assert code == 0 and "RESULT PASS" in text, (suite, seed, text)


def test_an_exact_report_line_passes_only_at_literal_zero():
    # exact lines are built with cfg.tol (the crossed-module suite), which they never read
    for tol in (0.0, 1e-9, 1.0):
        assert ReportLine("x", 0, "exact", tol).passed
        assert ReportLine("x", Fraction(0), "exact", tol).passed
        assert not ReportLine("x", Fraction(1, 10 ** 12), "exact", tol).passed
        assert not ReportLine("x", -1, "exact", tol).passed


def test_a_float_report_line_passes_within_its_tolerance():
    assert ReportLine("x", 1e-9, "float", 1e-9).passed
    assert ReportLine("x", -1e-9, "float", 1e-9).passed
    assert ReportLine("x", 0.0, "float", 0.0).passed
    assert not ReportLine("x", 2e-9, "float", 1e-9).passed
    assert not ReportLine("x", math.inf, "float", 1e-9).passed


def test_a_nan_residual_fails_in_either_mode():
    for mode in ("exact", "float"):
        assert not ReportLine("x", math.nan, mode, 1e-9).passed
