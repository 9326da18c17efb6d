"""Golden CLI reports: `CASES` is the one table of them.  Each report is
written by `cli.main` and compared, with its exit code, byte for byte with
a file under tests/golden/, and four pinned digests extend the check to many
more seeds.

Reports are documented as seed-deterministic, so any change in a residual,
a witness, a mode or a line order shows here.  The float lines (in the
conjugation, exp-square, one-parameter and bracket-recovery reports) hold
left-to-right float sums, formed with plain `+=` and never with builtin
`sum` (which compensates its rounding from Python 3.12 on), so the reports
are the same on every supported Python.

Every input file sits under tests/golden/ and is named from the repository
root, where the reports run, so a report that names its file reads the same
on every checkout.  A new golden is one `CASES` entry.  To rewrite every
golden file from the code on the import path (only when a report is meant
to change) and print the four digests, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import os
from pathlib import Path

import pytest

from lie2alg import cli
from lie2alg.core import make_endo
from lie2alg.fileio import serialize_lie2
from lie2alg.linalg import Mat

GOLDEN = Path(__file__).parent / "golden"
ROOT = GOLDEN.parent.parent
NAMED = ("abelian", "string-sl2", "endo-1-1", "skeletal-demo")
SUITES = ("axioms", "crossed-module", "exp-square", "one-parameter", "bracket-recovery",
          "conjugation")
# serialize_lie2(make_endo(Mat.identity(2))): 4|4 with d = I != 0, the heaviest
# derive input, whose Der basis holds Fractions.  I + d tau != I and
# tau^{-1} != -tau there, so its crossed-module report reads each unit's
# partial(tau) and tau^{-1} shared by every pair, the float conj_m1 and
# act_exp lines of its conjugation report share one e^theta bit for bit, and
# its degree -1 brackets are nonzero, so its bracket-recovery report holds
# bracket_convergence_degM1 lines
ENDO_ID2 = "tests/golden/endo-id2.lie2"
# golden stem of an algebra -> (its name on the command line, its check suites)
ALGEBRAS = {**{name: (name, SUITES) for name in NAMED},
            "endo-id2": (ENDO_ID2, ("crossed-module", "conjugation", "bracket-recovery"))}
# (stem, algebra, element file, exit code) of the `lie2 aut` reports:
# string-sl2-aut.hom is `fixtures.string_aut_hom` at random.Random(2);
# string-sl2-nonaut.hom scales sl2 by 2, which breaks the bracket law;
# the two tau elements of endo-1-1 make 1 + d tau invertible and singular;
# on endo-id2 the unit test eliminates a 4 x 4 I + d tau, and the singular
# tau there makes rows 0 and 1 of it equal
AUT_CASES = (
    ("aut-string-sl2", "string-sl2", "string-sl2-aut.hom", 0),
    ("aut-string-sl2-nonaut", "string-sl2", "string-sl2-nonaut.hom", 1),
    ("aut-endo-1-1-tau", "endo-1-1", "endo-1-1-tau.tau", 0),
    ("aut-endo-1-1-tau-singular", "endo-1-1", "endo-1-1-tau-singular.tau", 1),
    ("aut-endo-id2-tau", ENDO_ID2, "endo-id2-tau.tau", 0),
    ("aut-endo-id2-tau-singular", ENDO_ID2, "endo-id2-tau-singular.tau", 1),
)


def _cases() -> dict:
    """Golden file stem -> (argv, exit code)."""
    cases = {f"validate-{name}": (["validate", name], 0) for name in NAMED}
    for stem, (name, suites) in ALGEBRAS.items():
        cases[f"der-{stem}"] = (["der", name, "--basis", "--inner", "--classify"], 0)
        for suite in suites:
            cases[f"check-{suite}-{stem}"] = (
                ["check", name, "--suite", suite, "--samples", "2", "--seed", "1"], 0)
    # a degree-0 element of skeletal-demo that breaks all four derivation laws
    cases["exp-skeletal-demo-nonder"] = (
        ["exp", "skeletal-demo", "--element", "tests/golden/skeletal-demo-nonder.der0"], 1)
    for stem, name, element, code in AUT_CASES:
        cases[stem] = (["aut", name, "--element", f"tests/golden/{element}"], code)
    # broken-b1-b2 is an exact algebra file with denominators 3 and 7 that
    # breaks b1 and b2; broken-c is the aff1 sum under its adjoint action with
    # an l3 of denominators 3 and 7 that is not a cocycle: only law c fails,
    # on the integer image.  validate and the axioms suite print the laws and
    # exit 1; der and every other suite refuse the file with its first
    # violated law and exit 2
    for stem in ("broken-b1-b2", "broken-c"):
        path = f"tests/golden/{stem}.lie2"
        cases[f"validate-{stem}"] = (["validate", path], 1)
        cases[f"der-{stem}"] = (["der", path, "--basis", "--inner", "--classify"], 2)
        for suite in SUITES:
            cases[f"check-{suite}-{stem}"] = (
                ["check", path, "--suite", suite, "--samples", "2", "--seed", "1"],
                1 if suite == "axioms" else 2)
    return cases


CASES = _cases()


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_report(stem, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv, want_code = CASES[stem]
    code = cli.main(argv)
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")
    assert code == want_code


def test_golden_reports_and_cases_match_one_to_one():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def test_every_golden_input_file_is_named_by_a_case():
    named = {arg for argv, _ in CASES.values() for arg in argv}
    inputs = {f"tests/golden/{p.name}" for p in GOLDEN.iterdir() if p.suffix != ".txt"}
    assert inputs <= named, sorted(inputs - named)


def test_endo_id2_file_is_the_serializer_output():
    want = serialize_lie2(make_endo(Mat.identity(2))).encode("utf-8")
    assert (ROOT / ENDO_ID2).read_bytes() == want


# (suite, seeds, sha256 of "NAME SEED CODE\n" + report text of `lie2 check
# NAME --suite SUITE --samples 2 --seed SEED`, for NAME in NAMED and SEED in
# seeds, in that order): the sampled pairs of the conjugation suite, every
# float residual of the finite-difference bracket recovery, and every term,
# sum and squaring of the scaled and squared series of the one-parameter and
# exp-square suites, whose degree and squarings `truncated_exps` takes from
# the norm, stay fixed over many more seeds than the golden files hold
DIGESTS = (
    ("conjugation", range(1, 41),
     "9e2b20dc048f0c9b57fd4d479e3c480234dc12252eb50743521f3e60cfea9319"),
    ("bracket-recovery", range(1, 21),
     "a802b73c5494c36c2aaae88d7398a784636e763eb0d57cf8ee6f99fda38cb323"),
    ("one-parameter", range(1, 21),
     "d593fa6341d487498dbdc2117d4dddd94c79f5de9631cf568d4453efa08f8c5c"),
    ("exp-square", range(1, 21),
     "53eef47f1ae16c47ad6f5567e2ada3a217b7b4e9a1d32f6d375ef728ac4292ca"),
)


def _digest(suite, seeds) -> str:
    h = hashlib.sha256()
    for name in NAMED:
        for seed in seeds:
            code, text = cli.run(["check", name, "--suite", suite, "--samples", "2",
                                  "--seed", str(seed)])
            h.update(f"{name} {seed} {code}\n{text}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("suite, seeds, digest", DIGESTS, ids=[d[0] for d in DIGESTS])
def test_reports_match_their_pinned_digest(suite, seeds, digest):
    assert _digest(suite, seeds) == digest


if __name__ == "__main__":
    os.chdir(ROOT)
    (ROOT / ENDO_ID2).write_text(serialize_lie2(make_endo(Mat.identity(2))), encoding="utf-8")
    for stem, (argv, _) in sorted(CASES.items()):
        code, text = cli.run(argv)
        (GOLDEN / f"{stem}.txt").write_text(text, encoding="utf-8")
        print(f"{stem}: exit {code}")
    for suite, seeds, _ in DIGESTS:
        print(f"{suite} digest: {_digest(suite, seeds)}")
