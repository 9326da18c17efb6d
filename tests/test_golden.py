"""Golden CLI reports: each report is compared byte for byte with a file
under tests/golden/.

Reports are documented as seed-deterministic, so any change in a residual,
a witness, a mode or a line order shows here.  The float lines (in the
conjugation, exp-square, one-parameter and bracket-recovery reports) hold
left-to-right float sums, formed with plain `+=` and never with builtin
`sum` (which compensates its rounding from Python 3.12 on), so the reports
are the same on every supported Python.

To rewrite the files from the code on the import path (only when a report
is meant to change), from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
from pathlib import Path

import pytest

from lie2alg.cli import run
from lie2alg.core import make_endo
from lie2alg.fileio import serialize_lie2
from lie2alg.linalg import Mat

GOLDEN = Path(__file__).parent / "golden"
NAMED = ("abelian", "string-sl2", "endo-1-1", "skeletal-demo")
SUITES = ("axioms", "crossed-module", "exp-square", "one-parameter", "bracket-recovery",
          "conjugation")
# a degree-0 element of skeletal-demo that breaks all four derivation laws
NON_DERIVATION = GOLDEN / "skeletal-demo-nonder.der0"
# (stem, algebra, element file, exit code) of the `lie2 aut` reports:
# string-sl2-aut.hom is `fixtures.string_aut_hom` at random.Random(2);
# string-sl2-nonaut.hom scales sl2 by 2, which breaks the bracket law;
# the two tau elements of endo-1-1 make 1 + d tau invertible and singular
AUT_CASES = (
    ("aut-string-sl2", "string-sl2", "string-sl2-aut.hom", 0),
    ("aut-string-sl2-nonaut", "string-sl2", "string-sl2-nonaut.hom", 1),
    ("aut-endo-1-1-tau", "endo-1-1", "endo-1-1-tau.tau", 0),
    ("aut-endo-1-1-tau-singular", "endo-1-1", "endo-1-1-tau-singular.tau", 1),
)
ROOT = GOLDEN.parent.parent
# an exact algebra file with denominators 3 and 7 that breaks b1 and b2 (exit 1);
# its report names the file, so it runs from the repository root, as CI runs it
BROKEN_B1_B2 = "tests/golden/broken-b1-b2.lie2"
# the aff1 sum under its adjoint action with an l3 of denominators 3 and 7
# that is not a cocycle: only law c fails (exit 1), on the integer image
BROKEN_C = "tests/golden/broken-c.lie2"


def _cases() -> dict:
    """Golden file stem -> (argv, exit code)."""
    cases = {}
    for name in NAMED:
        cases[f"validate-{name}"] = (["validate", name], 0)
        cases[f"der-{name}"] = (["der", name, "--basis", "--inner", "--classify"], 0)
        for suite in SUITES:
            cases[f"check-{suite}-{name}"] = (
                ["check", name, "--suite", suite, "--samples", "2", "--seed", "1"], 0)
    cases["exp-skeletal-demo-nonder"] = (
        ["exp", "skeletal-demo", "--element", str(NON_DERIVATION)], 1)
    for stem, name, element, code in AUT_CASES:
        cases[stem] = (["aut", name, "--element", str(GOLDEN / element)], code)
    cases["validate-broken-b1-b2"] = (["validate", BROKEN_B1_B2], 1)
    cases["validate-broken-c"] = (["validate", BROKEN_C], 1)
    return cases


CASES = _cases()


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_report(stem, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv, want_code = CASES[stem]
    code, text = run(argv)
    assert code == want_code, text
    assert text == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")


def _serialized_endo_id2(tmp_path, monkeypatch):
    """Write endo-id2.lie2 into tmp_path and run from there, so each report
    names the file as CI's reports of the same file do from line 2 on."""
    (tmp_path / "endo-id2.lie2").write_text(serialize_lie2(make_endo(Mat.identity(2))),
                                            encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def test_der_report_of_serialized_endo_id2(tmp_path, monkeypatch):
    # endo-id2 (4|4, Der 16|16) is the heaviest derive input, and its Der
    # basis holds Fractions; CI diffs the same report from the installed
    # script.  The golden file was written before the derivation build ran
    # in ints, and stays byte for byte.
    _serialized_endo_id2(tmp_path, monkeypatch)
    code, text = run(["der", "endo-id2.lie2", "--basis", "--inner", "--classify"])
    assert code == 0
    assert text == (GOLDEN / "der-endo-id2.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("suite", ["crossed-module", "conjugation", "bracket-recovery"])
def test_check_reports_of_serialized_endo_id2(suite, tmp_path, monkeypatch):
    # on endo-id2 d != 0, so I + d tau != I and tau^{-1} != -tau: the
    # crossed-module report reads each unit's partial(tau) and tau^{-1}
    # shared by every pair, the float conj_m1 and act_exp lines of the
    # conjugation report share one e^theta, bit for bit, and the degree -1
    # brackets are nonzero, so the bracket-recovery report holds
    # bracket_convergence_degM1 lines.  CI diffs the same reports from the
    # installed script.
    _serialized_endo_id2(tmp_path, monkeypatch)
    code, text = run(["check", "endo-id2.lie2", "--suite", suite, "--samples", "2", "--seed", "1"])
    assert code == 0
    assert text == (GOLDEN / f"check-{suite}-endo-id2.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem, want_code", [("endo-id2-tau", 0), ("endo-id2-tau-singular", 1)])
def test_aut_reports_of_serialized_endo_id2(stem, want_code, tmp_path, monkeypatch):
    # on endo-id2 d = I, so the unit test eliminates a 4 x 4 I + d tau (the
    # endo-1-1 taus give 1 x 1); both taus hold off-diagonal and fractional
    # entries, and the second makes rows 0 and 1 of I + d tau equal.  CI
    # diffs the same reports from the installed script.
    _serialized_endo_id2(tmp_path, monkeypatch)
    code, text = run(["aut", "endo-id2.lie2", "--element", str(GOLDEN / f"{stem}.tau")])
    assert code == want_code, text
    assert text == (GOLDEN / f"aut-{stem}.txt").read_text(encoding="utf-8")


# sha256 of "NAME SEED CODE\n" + report text of `lie2 check NAME --suite
# conjugation --samples 2 --seed SEED`, for NAME in NAMED and SEED = 1..40 in
# that order: the sampled pairs of the conjugation suite, and so every line
# of its reports, stay fixed over many more seeds than the golden files hold
CONJUGATION_SEEDS = range(1, 41)
CONJUGATION_DIGEST = "9e2b20dc048f0c9b57fd4d479e3c480234dc12252eb50743521f3e60cfea9319"


def test_conjugation_reports_match_their_pinned_digest():
    h = hashlib.sha256()
    for name in NAMED:
        for seed in CONJUGATION_SEEDS:
            code, text = run(["check", name, "--suite", "conjugation", "--samples", "2",
                              "--seed", str(seed)])
            h.update(f"{name} {seed} {code}\n{text}".encode())
    assert h.hexdigest() == CONJUGATION_DIGEST


# sha256 of "NAME SEED CODE\n" + report text of `lie2 check NAME --suite
# bracket-recovery --samples 2 --seed SEED`, for NAME in NAMED and SEED = 1..20
# in that order: every float residual of the finite-difference recovery, and
# so the order of its exponentials, products and differences, stays fixed
BRACKET_RECOVERY_SEEDS = range(1, 21)
BRACKET_RECOVERY_DIGEST = "a802b73c5494c36c2aaae88d7398a784636e763eb0d57cf8ee6f99fda38cb323"


def test_bracket_recovery_reports_match_their_pinned_digest():
    h = hashlib.sha256()
    for name in NAMED:
        for seed in BRACKET_RECOVERY_SEEDS:
            code, text = run(["check", name, "--suite", "bracket-recovery", "--samples", "2",
                              "--seed", str(seed)])
            h.update(f"{name} {seed} {code}\n{text}".encode())
    assert h.hexdigest() == BRACKET_RECOVERY_DIGEST



# sha256 of "NAME SEED CODE\n" + report text of `lie2 check NAME --suite SUITE
# --samples 2 --seed SEED`, for NAME in NAMED and SEED = 1..20 in that order:
# the float lines of these suites run the scaled and squared series, whose
# degree and squarings `truncated_exp` takes from the norm, so every term,
# sum and squaring of it stays fixed
FLOAT_SERIES_SEEDS = range(1, 21)
ONE_PARAMETER_DIGEST = "b77ee42045bc330753d683e74d9be4891065cb358ffe94e422ac4a0c50779083"
EXP_SQUARE_DIGEST = "53eef47f1ae16c47ad6f5567e2ada3a217b7b4e9a1d32f6d375ef728ac4292ca"


@pytest.mark.parametrize("suite, digest", [("one-parameter", ONE_PARAMETER_DIGEST),
                                           ("exp-square", EXP_SQUARE_DIGEST)],
                         ids=["one-parameter", "exp-square"])
def test_float_series_reports_match_their_pinned_digest(suite, digest):
    h = hashlib.sha256()
    for name in NAMED:
        for seed in FLOAT_SERIES_SEEDS:
            code, text = run(["check", name, "--suite", suite, "--samples", "2",
                              "--seed", str(seed)])
            h.update(f"{name} {seed} {code}\n{text}".encode())
    assert h.hexdigest() == digest

if __name__ == "__main__":
    for stem, (argv, _) in sorted(CASES.items()):
        code, text = run(argv)
        (GOLDEN / f"{stem}.txt").write_text(text, encoding="utf-8")
        print(f"{stem}: exit {code}")
