import random
from fractions import Fraction

import pytest

from lie2alg.automorphisms import Tau
from lie2alg.core import hom_identity
from lie2alg.derivations import compute_der0_basis, random_der0, random_derM1
from lie2alg import fileio
from lie2alg.fileio import ParseError, parse_element, parse_lie2, serialize_element, serialize_lie2
from lie2alg.fixtures import (
    NAMED_EXAMPLES,
    fix_ab,
    fix_end,
    fix_str,
    rand_mat,
    random_fixture,
    string_aut_hom,
)
from lie2alg.linalg import Mat


def test_parse_abelian_minimal():
    L = parse_lie2("lie2 v1\ndim0 1\ndim1 1\n")
    assert L == fix_ab()


def test_round_trip_named_examples():
    for name, make in NAMED_EXAMPLES.items():
        L = make()
        assert parse_lie2(serialize_lie2(L)) == L, name


def test_round_trip_random_fixtures():
    rng = random.Random(100)
    algebras = [random_fixture(rng) for _ in range(8)]
    algebras += [random_fixture(random.Random(seed)) for seed in range(30)]
    for L in algebras:
        text = serialize_lie2(L)
        assert parse_lie2(text) == L and serialize_lie2(parse_lie2(text)) == text
        for elem in (random_der0(L, rng), random_derM1(L, rng), Tau(rand_mat(rng, L.n1, L.n0))):
            text = serialize_element(elem, L)
            assert serialize_element(parse_element(text, L), L) == text


def test_serialize_is_canonical():
    L = fix_str()
    text = serialize_lie2(L)
    # reordered entry lines parse to the same algebra and reserialize identically
    lines = text.splitlines()
    body = lines[3:]
    shuffled = "\n".join(lines[:3] + list(reversed(body))) + "\n"
    assert serialize_lie2(parse_lie2(shuffled)) == text


def test_comments_and_blanks_ignored():
    text = "# a demo\nlie2 v1\n\ndim0 1\ndim1 1\nd 0 0 1  # the identity complex\n"
    assert parse_lie2(text) == fix_end()


def test_parse_string_sl2_matches_constructor():
    text = """lie2 v1
dim0 3
dim1 1
b00 0 1 1 2
b00 0 2 2 -2
b00 1 2 0 1
l3 0 1 2 0 8
"""
    assert parse_lie2(text) == fix_str()


def test_error_messages_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_lie2("lie2 v1\ndim0 1\ndim1 1\nd 0 3 1\n", "demo.lie2")
    assert "demo.lie2:4" in str(exc.value)
    with pytest.raises(ParseError, match=":4"):
        parse_lie2("lie2 v1\ndim0 2\ndim1 1\nb00 1 0 0 1\n")  # i < j violated
    with pytest.raises(ParseError, match="duplicate"):
        parse_lie2("lie2 v1\ndim0 1\ndim1 1\nd 0 0 1\nd 0 0 2\n")
    with pytest.raises(ParseError, match="header"):
        parse_lie2("dim0 1\n")
    with pytest.raises(ParseError, match="rational"):
        parse_lie2("lie2 v1\ndim0 1\ndim1 1\nd 0 0 1.5\n")
    with pytest.raises(ParseError, match="unknown entry tag"):
        parse_lie2("lie2 v1\ndim0 1\ndim1 1\nbogus 0 0 1\n")


def test_element_round_trips():
    rng = random.Random(101)
    L = fix_str()
    A = string_aut_hom(L, rng)
    assert parse_element(serialize_element(A, L), L) == A
    D = compute_der0_basis(L)[0]
    got = parse_element(serialize_element(D, L), L)
    assert got.X0 == D.X0 and got.X1 == D.X1 and got.lX == D.lX
    T = random_derM1(L, rng)
    assert parse_element(serialize_element(T, L), L) == T
    t = Tau(Mat.from_rows([[1, Fraction(-1, 2), 0]]))
    assert parse_element(serialize_element(t, L), L) == t


def test_element_block_errors():
    L = fix_str()
    with pytest.raises(ParseError, match="unknown block"):
        parse_element("matrix\n", L)
    with pytest.raises(ParseError, match="unexpected tag"):
        parse_element("tau\ntheta 0 0 1\n", L)
    with pytest.raises(ParseError, match="out of range"):
        parse_element("tau\ntau 0 5 1\n", L)
    with pytest.raises(ParseError, match="empty"):
        parse_element("# nothing here\n", L)


def test_identity_hom_serialization():
    L = fix_end()
    text = serialize_element(hom_identity(L), L)
    assert text == "hom\na0 0 0 1\na1 0 0 1\n"


# One malformed input per diagnostic kind, with the exact ParseError text.
# Every entry line has a single fault, so the text does not depend on the
# order in which a line's checks run.
_ALG = "lie2 v1\ndim0 3\ndim1 1\n"
_ALGEBRA_DIAGNOSTICS = [
    ("", 'f.lie2:1: expected header "lie2 v1"'),
    ("# only a comment\n", 'f.lie2:1: expected header "lie2 v1"'),
    ("dim0 1\n", 'f.lie2:1: expected header "lie2 v1"'),
    ("lie2 v1\n", "f.lie2:1: missing dim0 line"),
    ("lie2 v1\ndim0 1\n", "f.lie2:2: missing dim1 line"),
    ("lie2 v1\ndim1 1\n", 'f.lie2:2: expected "dim0 <n>"'),
    ("lie2 v1\ndim0 1 2\n", 'f.lie2:2: expected "dim0 <n>"'),
    ("lie2 v1\ndim0 1\ndim0 1\n", 'f.lie2:3: expected "dim1 <n>"'),
    ("lie2 v1\ndim0 x\n", "f.lie2:2: bad dim0: 'x'"),
    ("lie2 v1\ndim0 1\ndim1 1/2\n", "f.lie2:3: bad dim1: '1/2'"),
    ("lie2 v1\ndim0 -1\n", "f.lie2:2: dim0 must be nonnegative"),
    # integers are ASCII -?[0-9]+: no underscore, '+' or non-ASCII digit
    ("lie2 v1\ndim0 1_0\ndim1 +1\nd 0_1 \u0660 1\n", "f.lie2:2: bad dim0: '1_0'"),
    ("lie2 v1\ndim0 1\ndim1 +1\n", "f.lie2:3: bad dim1: '+1'"),
    (_ALG + "d 0 \u0660 1\n", "f.lie2:4: bad column: '\u0660'"),
    (_ALG + "d 0 0 \u0663\n", "f.lie2:4: not a rational literal: '\u0663'"),
    (_ALG + "bogus 0 0 1\n", "f.lie2:4: unknown entry tag 'bogus'"),
    (_ALG + "a0 0 0 1\n", "f.lie2:4: unknown entry tag 'a0'"),
    (_ALG + "d 0 0\n", 'f.lie2:4: expected "d <i> <a> <rat>"'),
    (_ALG + "b00 0 1 1\n", 'f.lie2:4: expected "b00 <i> <j> <k> <rat>"'),
    (_ALG + "b01 0 0 0 1 1\n", 'f.lie2:4: expected "b01 <i> <a> <b> <rat>"'),
    (_ALG + "l3\n", 'f.lie2:4: expected "l3 <i> <j> <k> <a> <rat>"'),
    (_ALG + "d x 0 1\n", "f.lie2:4: bad row: 'x'"),
    (_ALG + "d 0 y 1\n", "f.lie2:4: bad column: 'y'"),
    (_ALG + "b00 0 z 1 1\n", "f.lie2:4: bad index: 'z'"),
    (_ALG + "b01 0 0 w 1\n", "f.lie2:4: bad index: 'w'"),
    (_ALG + "l3 0 1 2 v 1\n", "f.lie2:4: bad index: 'v'"),
    (_ALG + "d 3 0 1\n", "f.lie2:4: degree-0 index 3 out of range [0, 3)"),
    (_ALG + "d 0 1 1\n", "f.lie2:4: degree -1 index 1 out of range [0, 1)"),
    (_ALG + "d -1 0 1\n", "f.lie2:4: degree-0 index -1 out of range [0, 3)"),
    (_ALG + "b00 0 1 3 1\n", "f.lie2:4: degree-0 index 3 out of range [0, 3)"),
    (_ALG + "b01 4 0 0 1\n", "f.lie2:4: degree-0 index 4 out of range [0, 3)"),
    (_ALG + "b01 0 0 2 1\n", "f.lie2:4: degree -1 index 2 out of range [0, 1)"),
    (_ALG + "l3 0 1 5 0 1\n", "f.lie2:4: degree-0 index 5 out of range [0, 3)"),
    (_ALG + "l3 0 1 2 1 1\n", "f.lie2:4: degree -1 index 1 out of range [0, 1)"),
    (_ALG + "b00 1 0 0 1\n", "f.lie2:4: b00 indices must satisfy i < j"),
    (_ALG + "b00 1 1 0 1\n", "f.lie2:4: b00 indices must satisfy i < j"),
    (_ALG + "l3 0 2 1 0 1\n", "f.lie2:4: l3 indices must satisfy i < j < k"),
    (_ALG + "l3 1 0 2 0 1\n", "f.lie2:4: l3 indices must satisfy i < j < k"),
    (_ALG + "d 0 0 1\nd 0 0 2  # again\n", "f.lie2:5: duplicate entry 'd 0 0 2'"),
    (_ALG + "b00 0 1 1 2\n\nb00 0 1 1 2\n", "f.lie2:6: duplicate entry 'b00 0 1 1 2'"),
    (_ALG + "b01 0 0 0 1\nb01 0 0 0 1\n", "f.lie2:5: duplicate entry 'b01 0 0 0 1'"),
    (_ALG + "l3 0 1 2 0 8\nl3 0 1 2 0 -8\n", "f.lie2:5: duplicate entry 'l3 0 1 2 0 -8'"),
    (_ALG + "d 0 0 1.5\n", "f.lie2:4: not a rational literal: '1.5'"),
    (_ALG + "b00 0 1 1 1/0\n", "f.lie2:4: not a rational literal: '1/0'"),
    (_ALG + "l3 0 1 2 0 x\n", "f.lie2:4: not a rational literal: 'x'"),
]
_ELEMENT_DIAGNOSTICS = [
    ("", "e.el:1: empty element file"),
    ("# nothing here\n", "e.el:1: empty element file"),
    ("matrix\n", "e.el:1: unknown block type 'matrix'"),
    ("\nhom 1\n", "e.el:2: unknown block type 'hom 1'"),
    ("tau\ntheta 0 0 1\n", "e.el:2: unexpected tag 'theta' in tau block"),
    ("der0\na0 0 0 1\n", "e.el:2: unexpected tag 'a0' in der0 block"),
    ("hom\nd 0 0 1\n", "e.el:2: unexpected tag 'd' in hom block"),
    ("tau\ntau 0 0\n", "e.el:2: expected 3 arguments after 'tau'"),
    ("derM1\ntheta 0 0 1 1\n", "e.el:2: expected 3 arguments after 'theta'"),
    ("hom\na2 0 1 1\n", "e.el:2: expected 4 arguments after 'a2'"),
    ("der0\nlx 0 1 0 1 1\n", "e.el:2: expected 4 arguments after 'lx'"),
    ("hom\na0 x 0 1\n", "e.el:2: bad index: 'x'"),
    ("der0\nlx 0 1 y 1\n", "e.el:2: bad index: 'y'"),
    ("hom\na0 \u0663 0 1\n", "e.el:2: bad index: '\u0663'"),
    ("der0\nlx 0 1_0 0 1\n", "e.el:2: bad index: '1_0'"),
    ("tau\ntau 0 5 1\n", "e.el:2: index 5 out of range [0, 3)"),
    ("tau\ntau 1 0 1\n", "e.el:2: index 1 out of range [0, 1)"),
    ("hom\na1 0 1 1\n", "e.el:2: index 1 out of range [0, 1)"),
    ("der0\nx0 3 0 1\n", "e.el:2: index 3 out of range [0, 3)"),
    ("hom\na2 0 1 1 1\n", "e.el:2: index 1 out of range [0, 1)"),
    ("hom\na2 1 0 0 1\n", "e.el:2: a2 indices must satisfy i < j"),
    ("der0\nlx 2 2 0 1\n", "e.el:2: lx indices must satisfy i < j"),
    ("der0\nx1 0 0 1\nx1 0 0 1\n", "e.el:3: duplicate entry 'x1 0 0 1'"),
    ("hom\na2 0 1 0 1\na2 0 1 0 2 # again\n", "e.el:3: duplicate entry 'a2 0 1 0 2'"),
    ("derM1\ntheta 0 0 1.5\n", "e.el:2: not a rational literal: '1.5'"),
    ("der0\nlx 0 1 0 2/-3\n", "e.el:2: not a rational literal: '2/-3'"),
]


@pytest.mark.parametrize("text, message", _ALGEBRA_DIAGNOSTICS)
def test_algebra_diagnostic_text(text, message):
    with pytest.raises(ParseError) as exc:
        parse_lie2(text, "f.lie2")
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", _ELEMENT_DIAGNOSTICS)
def test_element_diagnostic_text(text, message):
    with pytest.raises(ParseError) as exc:
        parse_element(text, fix_str(), "e.el")
    assert str(exc.value) == message


def test_the_dense_entry_limit_counts_d_and_b01(monkeypatch):
    # n0 n1 + n0 n1^2 entries: 2|3 needs 6 + 18 = 24; b00 and l3 count none
    monkeypatch.setattr(fileio, "MAX_DENSE_ENTRIES", 24)
    assert parse_lie2("lie2 v1\ndim0 2\ndim1 3\n").n0 == 2
    assert parse_lie2("lie2 v1\ndim0 9\ndim1 0\n").n0 == 9
    with pytest.raises(ParseError) as exc:
        parse_lie2("lie2 v1\ndim0 1\ndim1 5\n", "f.lie2")
    assert str(exc.value) == "f.lie2:3: dim0 1 and dim1 5 need 30 dense entries, more than the limit of 24"
