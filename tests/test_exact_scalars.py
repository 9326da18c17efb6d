"""Exact values hold exact scalars only: every entry of an exact `Mat`,
`AltTensor` or vector is an `int` (never a `bool`) or a `Fraction`.

Integral scalars stay ints and a `Fraction` appears only where a division
makes one, so a stray `/` on two ints would put a float into an exact
value.  The sweep below runs every exact `linalg` operation on drawn
input; the golden runs walk every exact value the CLI builds.
"""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lie2alg.cli import run
from lie2alg.linalg import AltTensor, Mat, kernel, mat_inverse, rat, rref, truncated_exp

GOLDEN = Path(__file__).parent / "golden"
NAMED = ("abelian", "string-sl2", "endo-1-1", "skeletal-demo")
EXACT_SUITES = ("axioms", "crossed-module", "exp-square", "conjugation")


def _is_exact_scalar(x) -> bool:
    return type(x) is int or type(x) is Fraction


def _assert_exact(values):
    values = list(values)
    bad = [x for x in values if not _is_exact_scalar(x)]
    assert not bad, f"non-exact scalars {bad!r}"


def _assert_exact_mat(m: Mat):
    assert m.mode == "exact"
    _assert_exact(m.data)


def _assert_exact_tensor(t: AltTensor):
    assert t.mode == "exact"
    _assert_exact(x for v in t.entries.values() for x in v)


# literal input mixes ints, integral and proper Fractions, and bools, which
# an exact value must hold as ints
scalars = st.one_of(st.integers(-3, 3), st.booleans(),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))
sparse_scalars = st.tuples(st.integers(0, 9), scalars).map(lambda p: p[1] if p[0] >= 6 else 0)


def _vec(data, n):
    entries = data.draw(st.sampled_from([scalars, sparse_scalars]))
    return tuple(data.draw(st.lists(entries, min_size=n, max_size=n)))


def _mat(data, rows, cols):
    return Mat(rows, cols, _vec(data, rows * cols))


@settings(deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_mat_ring_operations_stay_exact(n, k, m, data):
    a, b, c = _mat(data, n, k), _mat(data, n, k), _mat(data, k, m)
    _assert_exact_mat(a)
    s = data.draw(scalars)
    for got in (a + b, a - b, -a, a.scale(s), a @ c):
        _assert_exact_mat(got)
    _assert_exact(a.apply(_vec(data, k)))


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_elimination_stays_exact(rows, cols, data):
    m = _mat(data, rows, cols)
    r, _ = rref(m)
    _assert_exact_mat(r)
    basis, coords = kernel(m)
    for v in basis:
        _assert_exact(v)
    if basis:
        cb = Mat.from_cols(basis, cols)
        got = coords(cb.apply(_vec(data, len(basis))))
        assert got is not None
        _assert_exact(got)
    sq = _mat(data, rows, rows)
    inv = mat_inverse(sq)
    if inv is not None:
        _assert_exact_mat(inv)
        assert sq @ inv == Mat.identity(rows)


@settings(deadline=None)
@given(st.integers(1, 4), st.data())
def test_truncated_exp_of_nilpotent_stays_exact(n, data):
    upper = [data.draw(scalars) if j > i else 0 for i in range(n) for j in range(n)]
    perm = data.draw(st.permutations(range(n)))
    p = Mat(n, n, [int(perm[i] == j) for i in range(n) for j in range(n)])
    m = p @ Mat(n, n, upper) @ p.transpose()
    _assert_exact_mat(truncated_exp(m, data.draw(scalars)))


@settings(deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.integers(0, 4), st.data())
def test_alt_tensor_operations_stay_exact(arity, dim, codim, m, data):
    dim = max(dim, arity)
    keys = list(itertools.combinations(range(dim), arity))
    t = AltTensor(arity, dim, codim, {key: _vec(data, codim)
                                      for key in data.draw(st.lists(st.sampled_from(keys),
                                                                    unique=True))})
    _assert_exact_tensor(t)
    _assert_exact(t.eval(*(_vec(data, dim) for _ in range(arity))))
    _assert_exact_tensor(t.pullback(_mat(data, dim, m)))
    _assert_exact_tensor(t.postcompose(_mat(data, m, codim)))
    _assert_exact_tensor(t.scale(data.draw(scalars)))


def test_integral_literals_and_quotients_are_ints():
    assert type(rat("4/2")) is int and rat("4/2") == 2
    assert type(rat("-3/6")) is Fraction
    assert [type(x) for x in Mat(1, 3, [True, Fraction(6, 3), Fraction(1, 2)]).data] == \
        [int, int, Fraction]
    inv = mat_inverse(Mat.from_rows([[2, 0], [0, 1]]))
    assert inv.data == (Fraction(1, 2), 0, 0, 1)
    assert [type(x) for x in inv.data] == [Fraction, int, int, int]
    # a pivot that divides its row leaves the row in ints
    r, _ = rref(Mat.from_rows([[2, 4], [1, 3]]))
    assert [type(x) for x in r.data] == [int] * 4


# ---------------------------------------------------------------------------
# every exact value built by the exact golden runs
# ---------------------------------------------------------------------------

@pytest.fixture
def exact_walk(monkeypatch):
    """Check the entries of every exact Mat and AltTensor built while the
    fixture is active; returns the number of exact values checked and the
    offending (kind, scalars) pairs."""
    seen = {"values": 0, "bad": []}

    def record(kind, mode, values):
        if mode != "exact":
            return
        values = list(values)
        seen["values"] += 1
        bad = [x for x in values if not _is_exact_scalar(x)]
        if bad:
            seen["bad"].append((kind, bad))

    mat_init, mat_result, alt_set = Mat.__init__, Mat._result.__func__, AltTensor._set

    def init(self, rows, cols, data):
        mat_init(self, rows, cols, data)
        record("Mat", self.mode, self.data)

    def result(cls, rows, cols, data, mode):
        out = mat_result(cls, rows, cols, data, mode)
        record("Mat", out.mode, out.data)
        return out

    def set_(self, arity, dim, codim, entries, mode):
        alt_set(self, arity, dim, codim, entries, mode)
        record("AltTensor", self.mode, (x for v in self.entries.values() for x in v))

    monkeypatch.setattr(Mat, "__init__", init)
    monkeypatch.setattr(Mat, "_result", classmethod(result))
    monkeypatch.setattr(AltTensor, "_set", set_)
    return seen


EXACT_RUNS = [(f"der-{name}", ["der", name, "--basis", "--inner", "--classify"])
              for name in NAMED]
EXACT_RUNS += [(f"check-{suite}-{name}",
                ["check", name, "--suite", suite, "--samples", "2", "--seed", "1"])
               for suite in EXACT_SUITES for name in NAMED]


@pytest.mark.parametrize("stem,argv", EXACT_RUNS, ids=[stem for stem, _ in EXACT_RUNS])
def test_golden_runs_build_exact_values_only(stem, argv, exact_walk):
    code, text = run(argv)
    assert code == 0 and text == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")
    assert exact_walk["values"] > 0 and not exact_walk["bad"], exact_walk["bad"][:5]
