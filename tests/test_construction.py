"""Values are built in one step, and the group laws built from them in one
pass: `Mat._result` and `AltTensor._set` set their slots through the slot
descriptors, `star` forms tau + tau' + tau d tau' over flat data, and
`compose_hom` forms no tensor when neither 2-component has an entry.  Each
is checked against the Mat and AltTensor expression it stands for: equal
values, the same types and modes, signed zeros included."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lie2alg.automorphisms import Tau, partial, random_tau, star, twist_hom
from lie2alg.core import Lie2Hom, compose_hom, hom_identity
from lie2alg.fileio import parse_lie2
from lie2alg.fixtures import NAMED_EXAMPLES, rand_cochain, random_fixture
from lie2alg.derivations import rand_mat
from lie2alg.linalg import AltTensor, Mat, ModeError, truncated_exp

GOLDEN = Path(__file__).resolve().parent / "golden"


def _typed(data):
    """Float entries by repr (signed zeros too), exact ones by type and value."""
    return [repr(x) if type(x) is float else (type(x), x) for x in data]


def _mat_view(m: Mat):
    return m.rows, m.cols, m.mode, _typed(m.data)


def _alt_view(t: AltTensor):
    return (t.arity, t.dim, t.codim, t.mode,
            [(key, _typed(v)) for key, v in t.entries.items()])


def _algebras():
    """The four named examples, endo-id2 and random_fixture seeds 0-9."""
    algebras = [make() for make in NAMED_EXAMPLES.values()]
    text = (GOLDEN / "endo-id2.lie2").read_text(encoding="utf-8")
    algebras.append(parse_lie2(text, "endo-id2.lie2"))
    return algebras + [random_fixture(random.Random(seed)) for seed in range(10)]


ALGEBRAS = _algebras()


def _float_mat(rng, rows: int, cols: int) -> Mat:
    """Float entries, about half of them signed zeros."""
    return Mat(rows, cols, [rng.uniform(-2, 2) if rng.random() < 0.5 else rng.choice((0.0, -0.0))
                            for _ in range(rows * cols)])


def _float_tensor(rng, dim: int, codim: int) -> AltTensor:
    entries = {key: tuple(rng.uniform(-2, 2) if rng.random() < 0.5 else rng.choice((0.0, -0.0))
                          for _ in range(codim))
               for key in itertools.combinations(range(dim), 2)}
    return AltTensor(2, dim, codim, entries, "float")


# ---------------------------------------------------------------------------
# one-step construction
# ---------------------------------------------------------------------------

def test_values_refuse_assignment():
    L = NAMED_EXAMPLES["endo-1-1"]()
    m, t, hom = Mat.from_rows([[1, 2]]), AltTensor(2, 2, 1, {(0, 1): (3,)}), hom_identity(L)
    for value, names in ((m, ("rows", "cols", "data", "mode", "other")),
                         (t, ("arity", "dim", "codim", "entries", "mode", "other")),
                         (hom, ("source", "target", "A0", "A1", "A2", "other")),
                         (L, ("n0", "n1", "d", "b00", "b01", "l3", "mode", "other"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    assert (m.rows, m.cols, m.data, m.mode) == (1, 2, (1, 2), "exact")
    assert t.entries == {(0, 1): (3,)} and hom.A0 == Mat.identity(L.n0)


def test_mat_result_gives_the_literal_matrix():
    rng = random.Random(5)
    for rows, cols in ((1, 1), (2, 3), (3, 2), (4, 4)):
        exact = [rng.choice((0, 1, -2, Fraction(1, 2), Fraction(-3, 4))) for _ in range(rows * cols)]
        for data in (exact, list(_float_mat(rng, rows, cols).data)):
            built, literal = Mat._result(rows, cols, data, Mat(rows, cols, data).mode), Mat(rows, cols, data)
            assert built == literal and _mat_view(built) == _mat_view(literal)
    # no data: the literal matrix is exact, a computed one keeps its mode
    assert Mat(0, 3, []).mode == "exact" and Mat._result(0, 3, [], "float").mode == "float"


def test_alt_result_gives_the_literal_tensor_with_sorted_keys_and_no_zero_values():
    rng = random.Random(6)
    for mode in ("exact", "float"):
        for dim, codim in ((2, 1), (3, 2), (4, 2)):
            keys = list(itertools.combinations(range(dim), 2))
            rng.shuffle(keys)  # out of order on purpose
            zero = (0,) * codim if mode == "exact" else (-0.0,) * codim
            entries = {}
            for n, key in enumerate(keys):
                if n % 3 == 0:
                    entries[key] = zero
                elif mode == "exact":
                    entries[key] = tuple(rng.choice((0, 1, Fraction(-1, 3))) for _ in range(codim))
                else:
                    entries[key] = tuple(rng.choice((0.0, -0.0, 1.5, -0.25)) for _ in range(codim))
            built = AltTensor._result(2, dim, codim, dict(entries), mode)
            literal = AltTensor(2, dim, codim, entries, mode)
            assert built == literal and _alt_view(built) == _alt_view(literal)
            assert list(built.entries) == sorted(built.entries)
            assert all(any(x != 0 for x in v) for v in built.entries.values())
    given = {}
    empty = AltTensor._result(2, 3, 1, given, "float")
    assert empty.entries == {} and empty.entries is not given and empty.mode == "float"
    assert AltTensor._result(2, 3, 1, {(0, 1): (0.0,)}, "float").entries == {}


def test_the_construction_hooks_see_every_value_built(monkeypatch):
    """The seams that the counting tests patch, `Mat.__init__`,
    `Mat._result` and `AltTensor._set`, see every value the library builds."""
    seen = set()
    mat_init, mat_result, alt_set = Mat.__init__, Mat._result.__func__, AltTensor._set

    def init(self, rows, cols, data):
        mat_init(self, rows, cols, data)
        seen.add(id(self))

    def result(cls, rows, cols, data, mode):
        out = mat_result(cls, rows, cols, data, mode)
        seen.add(id(out))
        return out

    def set_(self, arity, dim, codim, entries, mode):
        alt_set(self, arity, dim, codim, entries, mode)
        seen.add(id(self))

    monkeypatch.setattr(Mat, "__init__", init)
    monkeypatch.setattr(Mat, "_result", classmethod(result))
    monkeypatch.setattr(AltTensor, "_set", set_)
    L = NAMED_EXAMPLES["endo-1-1"]()
    rng = random.Random(3)
    m = Mat.from_rows([[1, 2], [0, Fraction(1, 2)]])
    t = AltTensor(2, 3, 2, {(0, 2): (1, 0), (1, 2): (0, 0)})
    tau, tau2 = random_tau(L, rng), random_tau(L, rng)
    A = twist_hom(L, hom_identity(L), tau)
    B = Lie2Hom(L, L, A.A0, A.A1, AltTensor.zero(2, L.n0, L.n1))
    values = [m, t, m @ m, m + m, m - m, -m, m.scale(3), m.transpose(), m.to_float(),
              Mat.zero(2, 2, "float"), truncated_exp(Mat.from_rows([[0, 1], [0, 0]])),
              t + t, t - t, -t, t.scale(2), t.to_float(), t.postcompose(m), t.pullback(Mat.identity(3)),
              AltTensor.zero(2, 2, 1), AltTensor.from_function(2, 3, 1, lambda key: (sum(key),)),
              star(L, tau, tau2).mat, tau.mat]
    for hom in (A, compose_hom(A, A), compose_hom(B, B), compose_hom(A, B), partial(L, tau).hom):
        values += [hom.A0, hom.A1, hom.A2]
    missing = [v for v in values if id(v) not in seen]
    assert not missing, missing


# ---------------------------------------------------------------------------
# the one-pass group laws against the expressions they stand for
# ---------------------------------------------------------------------------

def _star_reference(L, t1: Tau, t2: Tau) -> Mat:
    return t1.mat + t2.mat + t1.mat @ L.d @ t2.mat


@pytest.mark.parametrize("n", range(len(ALGEBRAS)))
def test_star_is_the_mat_expression_bit_for_bit(n):
    L = ALGEBRAS[n]
    rng = random.Random(100 + n)
    exact = [Tau(Mat.zero(L.n1, L.n0))] + [Tau(rand_mat(rng, L.n1, L.n0)) for _ in range(3)]
    floats = [t.to_float() for t in exact] + [Tau(_float_mat(rng, L.n1, L.n0)) for _ in range(4)]
    for K, taus in ((L, exact), (L.to_float(), floats)):
        for t1, t2 in itertools.product(taus, repeat=2):
            got = star(K, t1, t2)
            assert isinstance(got, Tau)
            assert _mat_view(got.mat) == _mat_view(_star_reference(K, t1, t2)), (n, t1, t2)


def _compose_reference(B: Lie2Hom, A: Lie2Hom) -> Lie2Hom:
    return Lie2Hom(A.source, B.target, B.A0 @ A.A0, B.A1 @ A.A1,
                   B.A2.pullback(A.A0) + A.A2.postcompose(B.A1))


def _homs(L, rng, mode: str) -> list:
    """Homs of L with zero and with nonzero 2-components, in one mode."""
    if mode == "exact":
        mats = [(rand_mat(rng, L.n0, L.n0), rand_mat(rng, L.n1, L.n1)) for _ in range(2)]
        tensors = [rand_cochain(rng, 2, L.n0, L.n1)]
    else:
        mats = [(_float_mat(rng, L.n0, L.n0), _float_mat(rng, L.n1, L.n1)) for _ in range(2)]
        tensors = [_float_tensor(rng, L.n0, L.n1)]
    K = L if mode == "exact" else L.to_float()
    homs = [hom_identity(K)]
    for (a0, a1), a2 in itertools.product(mats, [AltTensor.zero(2, L.n0, L.n1, mode)] + tensors):
        homs.append(Lie2Hom(K, K, a0, a1, a2))
    return homs


@pytest.mark.parametrize("n", range(len(ALGEBRAS)))
def test_compose_hom_is_the_tensor_expression_bit_for_bit(n):
    L = ALGEBRAS[n]
    rng = random.Random(200 + n)
    for mode in ("exact", "float"):
        for B, A in itertools.product(_homs(L, rng, mode), repeat=2):
            got, want = compose_hom(B, A), _compose_reference(B, A)
            assert got == want and (got.source, got.target) == (want.source, want.target)
            assert _mat_view(got.A0) == _mat_view(want.A0) and _mat_view(got.A1) == _mat_view(want.A1)
            assert _alt_view(got.A2) == _alt_view(want.A2), (n, mode)


def test_compose_hom_with_zero_2_components_still_refuses_mixed_modes():
    L = NAMED_EXAMPLES["endo-1-1"]()
    exact = hom_identity(L)
    mixed = Lie2Hom(L, L, exact.A0, exact.A1, AltTensor.zero(2, L.n0, L.n1, "float"))
    for B, A in ((mixed, exact), (exact, mixed)):
        with pytest.raises(ModeError):
            _compose_reference(B, A)
        with pytest.raises(ModeError):
            compose_hom(B, A)


def test_star_refuses_mixed_modes_and_wrong_shapes():
    L = NAMED_EXAMPLES["endo-1-1"]()
    t = Tau(Mat.from_rows([[1]]))
    with pytest.raises(ModeError):
        star(L, t, t.to_float())
    with pytest.raises(ModeError):
        star(L.to_float(), t, t)
    with pytest.raises(ValueError):
        star(L, t, Tau(Mat.from_rows([[1, 2]])))


def test_star_builds_one_mat(monkeypatch):
    built = []
    mat_init, mat_result = Mat.__init__, Mat._result.__func__

    def init(self, rows, cols, data):
        built.append("init")
        mat_init(self, rows, cols, data)

    def result(cls, rows, cols, data, mode):
        built.append("result")
        return mat_result(cls, rows, cols, data, mode)

    L = NAMED_EXAMPLES["endo-1-1"]()
    taus = [Tau(Mat.from_rows([[Fraction(1, 2)]])), Tau(Mat.from_rows([[-3]]))]
    floats = [t.to_float() for t in taus]
    Lf = L.to_float()
    monkeypatch.setattr(Mat, "__init__", init)
    monkeypatch.setattr(Mat, "_result", classmethod(result))
    for K, (t1, t2) in ((L, taus), (Lf, floats)):
        built.clear()
        star(K, t1, t2)
        assert built == ["result"]
