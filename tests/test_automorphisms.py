import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lie2alg import automorphisms, linalg

from lie2alg.automorphisms import (
    Aut0,
    Tau,
    act,
    ad_conjugate,
    aut_compose,
    aut_identity,
    aut_inverse,
    certify_aut0,
    check_crossed_module,
    classify_automorphism,
    partial,
    semidirect_multiply,
    star,
    tau_distance,
    tau_inverse,
    tau_is_invertible,
    tau_zero,
    twist_hom,
    random_tau,
)
from lie2alg.core import (
    Lie2Hom,
    make_endo,
    ce_coboundary,
    compose_hom,
    hom_distance,
    hom_identity,
    validate_hom,
)
from lie2alg.derivations import (
    DerM1,
    compute_der0_basis,
    is_derivation0,
    random_der0,
    random_derM1,
)
from lie2alg.fixtures import (
    fix_ab,
    fix_end,
    fix_str,
    rand_mat,
    random_fixture,
    skeletal_demo,
    sl2_structure,
    string_aut_hom,
    trivial_rep,
)
from lie2alg.cli import run
from lie2alg.linalg import AltTensor, Mat, mat_inverse

GOLDEN = Path(__file__).parent / "golden"


def string_aut0(L, rng):
    return certify_aut0(L, string_aut_hom(L, rng))


# ---------------------------------------------------------------------------
# degree 0
# ---------------------------------------------------------------------------

def test_identity_is_aut0():
    for L in (fix_ab(), fix_str(), fix_end()):
        assert certify_aut0(L, hom_identity(L)) == aut_identity(L)


def test_string_weak_automorphisms_certify():
    rng = random.Random(30)
    L = fix_str()
    for _ in range(5):
        A = string_aut0(L, rng)
        assert mat_inverse(A.hom.A0) == A.a0_inv


def test_string_scaling_degree_m1_fails():
    L = fix_str()
    A = Lie2Hom(L, L, Mat.identity(3), Mat.from_rows([[2]]), AltTensor.zero(2, 3, 1))
    assert "iii" in validate_hom(A).violated()
    with pytest.raises(ValueError, match="not a homomorphism"):
        certify_aut0(L, A)


def test_aut_inverse_uses_cache():
    rng = random.Random(31)
    L = fix_str()
    A = string_aut0(L, rng)
    Ai = aut_inverse(A)
    assert hom_distance(compose_hom(Ai.hom, A.hom), hom_identity(L)) == 0
    assert hom_distance(compose_hom(A.hom, Ai.hom), hom_identity(L)) == 0


def test_aut_inverse_identity_and_scaling():
    L = fix_ab()
    ident = certify_aut0(L, hom_identity(L))
    assert hom_distance(aut_inverse(ident).hom, ident.hom) == 0
    A = Lie2Hom(L, L, Mat.from_rows([[2]]), Mat.from_rows([[2]]), AltTensor.zero(2, 1, 1))
    Ainv = aut_inverse(certify_aut0(L, A)).hom
    assert Ainv.A0 == Mat.from_rows([[Fraction(1, 2)]])
    assert Ainv.A1 == Mat.from_rows([[Fraction(1, 2)]])


def test_aut_inverse_round_trip_exact():
    rng = random.Random(6)
    L = fix_str()
    for _ in range(5):
        A = string_aut0(L, rng)
        Ainv = aut_inverse(A).hom
        assert validate_hom(Ainv).ok
        assert hom_distance(compose_hom(Ainv, A.hom), hom_identity(L)) == 0
        assert hom_distance(compose_hom(A.hom, Ainv), hom_identity(L)) == 0


def test_certify_aut0_rejects_singular_components():
    L = fix_ab()
    A = Lie2Hom(L, L, Mat.zero(1, 1), Mat.identity(1), AltTensor.zero(2, 1, 1))
    assert validate_hom(A).ok
    with pytest.raises(ValueError, match="not invertible"):
        certify_aut0(L, A)


# ---------------------------------------------------------------------------
# the star monoid
# ---------------------------------------------------------------------------

def test_star_unit():
    rng = random.Random(32)
    for L in (fix_str(), fix_end()):
        t = Tau(rand_mat(rng, L.n1, L.n0))
        z = tau_zero(L)
        assert star(L, t, z) == t
        assert star(L, z, t) == t


def test_star_abelian_is_addition():
    rng = random.Random(33)
    L = fix_ab()
    t1, t2 = Tau(rand_mat(rng, L.n1, L.n0)), Tau(rand_mat(rng, L.n1, L.n0))
    assert star(L, t1, t2).mat == t1.mat + t2.mat


def test_star_endo_scalar_formula():
    L = fix_end()
    t1 = Tau(Mat.from_rows([[Fraction(1, 2)]]))
    t2 = Tau(Mat.from_rows([[Fraction(3)]]))
    got = star(L, t1, t2)
    assert got.mat.at(0, 0) == Fraction(1, 2) + 3 + Fraction(1, 2) * 3


def test_star_associative():
    rng = random.Random(34)
    for L in (fix_str(), fix_end()):
        ts = [Tau(rand_mat(rng, L.n1, L.n0)) for _ in range(3)]
        lhs = star(L, star(L, ts[0], ts[1]), ts[2])
        rhs = star(L, ts[0], star(L, ts[1], ts[2]))
        assert lhs == rhs


def test_tau_inverse_cases():
    L = fix_end()
    assert tau_inverse(L, tau_zero(L)) == tau_zero(L)
    t = Tau(Mat.from_rows([[Fraction(1, 2)]]))
    ti = tau_inverse(L, t)
    assert ti.mat.at(0, 0) == Fraction(-1, 2) / (1 + Fraction(1, 2))
    assert tau_inverse(L, Tau(Mat.from_rows([[-1]]))) is None
    Lab = fix_ab()
    t = Tau(Mat.from_rows([[Fraction(7, 3)]]))
    assert tau_inverse(Lab, t).mat == -t.mat


def test_tau_inverse_is_two_sided():
    rng = random.Random(35)
    for L in (fix_str(), fix_end()):
        for _ in range(10):
            t = random_tau(L, rng)
            ti = tau_inverse(L, t)
            assert star(L, t, ti) == tau_zero(L)
            assert star(L, ti, t) == tau_zero(L)


def test_invertibility_lemma_three_ways():
    # the three invertibility conditions agree, on mixed singular/regular draws
    rng = random.Random(36)
    L = fix_end()
    n_singular = 0
    for _ in range(120):
        t = Tau(Mat(1, 1, [Fraction(rng.randint(-4, 4), rng.choice([1, 2]))]))
        left = mat_inverse(Mat.identity(L.n0) + L.d @ t.mat) is not None
        right = mat_inverse(Mat.identity(L.n1) + t.mat @ L.d) is not None
        unit = tau_is_invertible(L, t)
        assert left == right == unit
        if not unit:
            n_singular += 1
        if unit:
            ti = tau_inverse(L, t)
            lhs = mat_inverse(Mat.identity(L.n0) + L.d @ t.mat)
            rhs = Mat.identity(L.n0) + L.d @ ti.mat
            assert lhs == rhs
    assert n_singular > 0  # the draws genuinely mix both branches


def test_invertibility_lemma_bigger_complex():
    rng = random.Random(37)
    from lie2alg.core import make_endo
    L = make_endo(rand_mat(rng, 2, 1))
    for _ in range(40):
        t = Tau(rand_mat(rng, L.n1, L.n0))
        left = mat_inverse(Mat.identity(L.n0) + L.d @ t.mat) is not None
        right = mat_inverse(Mat.identity(L.n1) + t.mat @ L.d) is not None
        assert left == right == tau_is_invertible(L, t)


def _ref_random_unit_tau(L, rng, dens):
    """random_tau with the Fraction test `tau_is_invertible`."""
    for _ in range(200):
        t = Tau(Mat(L.n1, L.n0, [Fraction(rng.randint(-3, 3), rng.choice(dens))
                                 for _ in range(L.n1 * L.n0)]))
        if tau_is_invertible(L, t):
            return t
    return tau_zero(L)


def _unit_tau_algebras():
    return ([fix_ab(), fix_str(), fix_end(), skeletal_demo(),
             make_endo(Mat.from_rows([[Fraction(8, 3)]]))]
            + [random_fixture(random.Random(seed)) for seed in range(20)])


def test_random_unit_tau_skips_a_singular_draw():
    # 1 + d tau = 0 at tau = -1 on endo-1-1 and at tau = -3/8 on d = 8/3;
    # random draws are rarely singular, so a seed whose first draw is
    # singular and whose second is a unit is looked up
    for L, dens, singular in ((fix_end(), (1, 2), -1),
                              (make_endo(Mat.from_rows([[Fraction(8, 3)]])), (8, 16),
                               Fraction(-3, 8))):
        assert tau_inverse(L, Tau(Mat.from_rows([[singular]]))) is None
        for seed in range(1000):
            draws = random.Random(seed)
            first, second = Tau(rand_mat(draws, 1, 1, dens)), Tau(rand_mat(draws, 1, 1, dens))
            if first.mat.at(0, 0) == singular and tau_is_invertible(L, second):
                break
        else:
            pytest.fail("no seed below 1000 draws a singular tau, then a unit")
        rng, ref = random.Random(seed), random.Random(seed)
        assert random_tau(L, rng, dens) == second == _ref_random_unit_tau(L, ref, dens)
        assert rng.getstate() == ref.getstate() == draws.getstate()


def test_random_unit_tau_matches_the_fraction_test():
    for L in _unit_tau_algebras():
        for dens in ((1, 2), (8, 16)):
            for seed in range(5):
                rng, ref = random.Random(seed), random.Random(seed)
                assert random_tau(L, rng, dens) == _ref_random_unit_tau(L, ref, dens)
                assert rng.getstate() == ref.getstate()


def test_random_unit_tau_after_200_singular_draws_raises():
    class Stuck(random.Random):
        def randint(self, a, b):
            return -3

        def choice(self, seq):
            return seq[0]

    # 1 + (8/3)(-3/8) = 0: every draw is singular
    L = make_endo(Mat.from_rows([[Fraction(8, 3)]]))
    with pytest.raises(ValueError, match="no unit tau in 200 draws"):
        random_tau(L, Stuck(0), (8, 16))


# ---------------------------------------------------------------------------
# twisting and the connecting map
# ---------------------------------------------------------------------------

def test_twist_by_zero_is_identity_op():
    rng = random.Random(38)
    L = fix_str()
    A = string_aut_hom(L, rng)
    assert hom_distance(twist_hom(L, A, tau_zero(L)), A) == 0


def test_twist_always_homomorphism():
    rng = random.Random(39)
    for L in (fix_str(), fix_end(), skeletal_demo()):
        for _ in range(4):
            A = hom_identity(L)
            t = Tau(rand_mat(rng, L.n1, L.n0))
            assert validate_hom(twist_hom(L, A, t)).ok
    L = fix_str()
    for _ in range(4):
        A = string_aut_hom(L, rng)
        t = Tau(rand_mat(rng, L.n1, L.n0))
        assert validate_hom(twist_hom(L, A, t)).ok


def test_partial_zero_is_identity():
    L = fix_str()
    assert hom_distance(partial(L, tau_zero(L)).hom, aut_identity(L).hom) == 0


def test_partial_string_formula():
    # on the string fixture partial(tau) = (I, I, -D tau)
    rng = random.Random(40)
    L = fix_str()
    t = Tau(rand_mat(rng, L.n1, L.n0))
    P = partial(L, t)
    assert P.hom.A0 == Mat.identity(3)
    assert P.hom.A1 == Mat.identity(1)
    xi = AltTensor(1, 3, 1, {(i,): (t.mat.at(0, i),) for i in range(3)})
    dxi = ce_coboundary(sl2_structure(), trivial_rep(3, 1), xi)
    assert P.hom.A2 == -dxi


def test_partial_is_group_homomorphism():
    rng = random.Random(41)
    for L in (fix_str(), fix_end()):
        for _ in range(6):
            t1 = random_tau(L, rng)
            t2 = random_tau(L, rng)
            lhs = partial(L, star(L, t1, t2)).hom
            rhs = compose_hom(partial(L, t1).hom, partial(L, t2).hom)
            assert hom_distance(lhs, rhs) == 0


def _ref_partial(L, t):
    """partial as three separate steps form it: the star-inverse, the
    twist of the identity (A0 + d tau, A1 + tau d, A2 + l^A_tau) and the
    inverses I + d tau^{-1}, I + tau^{-1} d."""
    ti = tau_inverse(L, t)
    hom = twist_hom(L, hom_identity(L), t)
    return Aut0(hom, Mat.identity(L.n0, L.mode) + L.d @ ti.mat,
                Mat.identity(L.n1, L.mode) + ti.mat @ L.d)


def test_partial_forms_d_tau_once(monkeypatch):
    rng = random.Random(44)
    cases = [(L, random_tau(L, rng)) for L in (fix_str(), fix_end())
             for _ in range(3)]
    cases += [(L.to_float(), t.to_float()) for L, t in cases[3:]]
    real = Mat.__matmul__
    for L, t in cases:
        want = _ref_partial(L, t)
        products = []

        def counting(a, b):
            products.append((a, b))
            return real(a, b)

        monkeypatch.setattr(Mat, "__matmul__", counting)
        got = partial(L, t)
        monkeypatch.setattr(Mat, "__matmul__", real)
        assert sum(a is L.d and b is t.mat for a, b in products) == 1
        assert got == want  # the hom and both cached inverses


def test_partial_lands_in_aut0():
    rng = random.Random(42)
    for L in (fix_str(), fix_end(), skeletal_demo()):
        t = random_tau(L, rng)
        hom = partial(L, t).hom
        assert certify_aut0(L, hom).hom == hom


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

def test_act_identity():
    rng = random.Random(43)
    L = fix_str()
    t = Tau(rand_mat(rng, L.n1, L.n0))
    assert act(L, aut_identity(L), t) == t


def test_act_string_drops_to_composition():
    rng = random.Random(44)
    L = fix_str()
    A = string_aut0(L, rng)
    t = Tau(rand_mat(rng, L.n1, L.n0))
    assert act(L, A, t).mat == t.mat @ A.a0_inv  # A1 = 1


def test_act_is_group_action():
    rng = random.Random(45)
    L = fix_str()
    A, B = string_aut0(L, rng), string_aut0(L, rng)
    t = Tau(rand_mat(rng, L.n1, L.n0))
    lhs = act(L, aut_compose(A, B), t)
    rhs = act(L, A, act(L, B, t))
    assert lhs == rhs


def test_act_preserves_invertibility():
    rng = random.Random(46)
    L = fix_end()
    A = certify_aut0(L, Lie2Hom(L, L, Mat.from_rows([[3]]), Mat.from_rows([[3]]),
                                AltTensor.zero(2, 1, 1)))
    for _ in range(10):
        t = random_tau(L, rng)
        assert tau_is_invertible(L, act(L, A, t))


# ---------------------------------------------------------------------------
# crossed-module laws
# ---------------------------------------------------------------------------

def test_crossed_module_abelian():
    rng = random.Random(47)
    L = fix_ab()
    auts = [aut_identity(L)]
    taus = [Tau(rand_mat(rng, L.n1, L.n0)) for _ in range(3)]
    for _, resid in check_crossed_module(L, auts, taus):
        assert resid == 0


def test_crossed_module_string_and_endo():
    rng = random.Random(48)
    L = fix_str()
    auts = [string_aut0(L, rng) for _ in range(3)] + [partial(L, Tau(rand_mat(rng, L.n1, L.n0)))]
    taus = [random_tau(L, rng) for _ in range(3)]
    for _, resid in check_crossed_module(L, auts, taus):
        assert resid == 0
    L = fix_end()
    auts = [certify_aut0(L, Lie2Hom(L, L, Mat.from_rows([[c]]), Mat.from_rows([[c]]),
                                    AltTensor.zero(2, 1, 1))) for c in (1, 2, Fraction(-1, 2))]
    taus = [random_tau(L, rng) for _ in range(3)]
    for _, resid in check_crossed_module(L, auts, taus):
        assert resid == 0


def test_corrupted_action_breaks_peiffer():
    rng = random.Random(49)
    L = fix_end()
    t1 = Tau(Mat.from_rows([[1]]))
    t2 = Tau(Mat.from_rows([[2]]))
    P = partial(L, t1)
    corrupted = Tau(P.hom.A1 @ t2.mat)  # action with the A0-inverse dropped
    proper = star(L, star(L, t1, t2), tau_inverse(L, t1))
    assert tau_distance(corrupted, proper) != 0


# ---------------------------------------------------------------------------
# the strict 2-group: semidirect pairs and their vertical composites
# ---------------------------------------------------------------------------
# A cell (g, h) is a semidirect pair (Aut0, Tau), from g to partial(h) g.
# Its horizontal product is `semidirect_multiply`.  The unit (aut_identity,
# tau = 0), inverses and the vertical composite (c2.g, c1.h * c2.h) of c1
# after c2 are written out in the tests.

def make_cell(L, rng, g=None):
    return g or string_aut0(L, rng), random_tau(L, rng)


def cell_target(L, c):
    return aut_compose(partial(L, c[1]), c[0])


def pair_distance(p, q):
    return max(hom_distance(p[0].hom, q[0].hom), tau_distance(p[1], q[1]))


def test_vcompose_identity_cell():
    rng = random.Random(50)
    L = fix_str()
    c2 = make_cell(L, rng)
    c1 = cell_target(L, c2), tau_zero(L)
    got = c2[0], star(L, c1[1], c2[1])
    assert pair_distance(got, c2) == 0
    assert hom_distance(cell_target(L, got).hom, c1[0].hom) == 0


def test_hmultiply_identity_cells():
    L = fix_str()
    e = aut_identity(L), tau_zero(L)
    got = semidirect_multiply(L, e, e)
    assert pair_distance(got, e) == 0


def test_interchange_law():
    # (a after c)(b after d) = (a b) after (c d), where target(c d) = source(a b)
    # because partial is a homomorphism and equivariant
    rng = random.Random(52)
    L = fix_str()
    for _ in range(3):
        c = make_cell(L, rng)
        a = make_cell(L, rng, cell_target(L, c))
        d = make_cell(L, rng)
        b = make_cell(L, rng, cell_target(L, d))
        ab, cd = semidirect_multiply(L, a, b), semidirect_multiply(L, c, d)
        assert hom_distance(cell_target(L, cd).hom, ab[0].hom) == 0
        lhs = cd[0], star(L, ab[1], cd[1])
        rhs = semidirect_multiply(L, (c[0], star(L, a[1], c[1])), (d[0], star(L, b[1], d[1])))
        assert pair_distance(lhs, rhs) == 0


# ---------------------------------------------------------------------------
# semidirect product group
# ---------------------------------------------------------------------------

def test_semidirect_unit():
    rng = random.Random(53)
    L = fix_str()
    p = make_cell(L, rng)
    e = aut_identity(L), tau_zero(L)
    assert pair_distance(semidirect_multiply(L, e, p), p) == 0
    assert pair_distance(semidirect_multiply(L, p, e), p) == 0


def test_semidirect_associative_and_inverse():
    # (A, tau)^{-1} = (A^{-1}, A^{-1} |> tau^{-1})
    rng = random.Random(54)
    L = fix_str()
    ps = [make_cell(L, rng) for _ in range(3)]
    lhs = semidirect_multiply(L, semidirect_multiply(L, ps[0], ps[1]), ps[2])
    rhs = semidirect_multiply(L, ps[0], semidirect_multiply(L, ps[1], ps[2]))
    assert pair_distance(lhs, rhs) == 0
    e = aut_identity(L), tau_zero(L)
    for A, t in ps:
        Ai = aut_inverse(A)
        pi = Ai, act(L, Ai, tau_inverse(L, t))
        assert pair_distance(semidirect_multiply(L, (A, t), pi), e) == 0
        assert pair_distance(semidirect_multiply(L, pi, (A, t)), e) == 0


def test_semidirect_abelian_splits():
    rng = random.Random(55)
    L = fix_ab()
    A = certify_aut0(L, Lie2Hom(L, L, Mat.from_rows([[2]]), Mat.from_rows([[3]]),
                                AltTensor.zero(2, 1, 1)))
    t1, t2 = Tau(rand_mat(rng, L.n1, L.n0)), Tau(rand_mat(rng, L.n1, L.n0))
    got = semidirect_multiply(L, (A, t1), (A, t2))
    # d = 0: star is addition and the action is A1 tau A0^{-1}
    assert got[1].mat == t1.mat + (A.hom.A1 @ t2.mat @ A.a0_inv)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_identity_and_zero_strict():
    L = fix_str()
    assert classify_automorphism(L, aut_identity(L)) == {"weak": True, "strict": True}
    assert classify_automorphism(L, tau_zero(L))["strict"]


def test_classify_weak_not_strict():
    rng = random.Random(56)
    L = fix_str()
    while True:
        A = string_aut0(L, rng)
        if not A.hom.A2.is_zero():
            break
    flags = classify_automorphism(L, A)
    assert flags["weak"] and not flags["strict"]


def test_classify_abelian_taus_strict():
    rng = random.Random(57)
    L = fix_ab()
    for _ in range(5):
        t = Tau(rand_mat(rng, L.n1, L.n0))
        assert classify_automorphism(L, t) == {"weak": True, "strict": True}


def test_strictness_stable_under_composition():
    rng = random.Random(58)
    L = fix_str()
    # strict automorphisms: A2 = 0 with A0 orthogonal; compose two of them
    s1 = certify_aut0(L, Lie2Hom(L, L, string_aut_hom(L, rng).A0, Mat.identity(1),
                                 AltTensor.zero(2, 3, 1)))
    s2 = certify_aut0(L, Lie2Hom(L, L, string_aut_hom(L, rng).A0, Mat.identity(1),
                                 AltTensor.zero(2, 3, 1)))
    assert classify_automorphism(L, s1)["strict"]
    assert classify_automorphism(L, aut_compose(s1, s2))["strict"]
    # strict taus on the endo fixture stay strict under star
    L = fix_end()
    taus = [random_tau(L, rng) for _ in range(4)]
    stricts = [t for t in taus if classify_automorphism(L, t)["strict"]]
    for t1 in stricts:
        for t2 in stricts:
            assert classify_automorphism(L, star(L, t1, t2))["strict"]


def _strict_by_stripped_hom(L, A):
    """Strictness as the homomorphism test of (A0, A1, 0), tolerance 0."""
    stripped = Lie2Hom(L, L, A.hom.A0, A.hom.A1, AltTensor.zero(2, L.n0, L.n1, L.mode))
    return (A.hom.A2.is_zero() and validate_hom(stripped).ok
            and mat_inverse(A.hom.A0) is not None and mat_inverse(A.hom.A1) is not None)


def test_classify_aut0_agrees_with_the_stripped_hom_without_inverting(monkeypatch):
    rng = random.Random(59)
    L = fix_str()
    elems = [aut_identity(L)] + [string_aut0(L, rng) for _ in range(3)]
    elems += [certify_aut0(L, Lie2Hom(L, L, string_aut_hom(L, rng).A0, Mat.identity(1),
                                      AltTensor.zero(2, 3, 1))) for _ in range(2)]
    want = [_strict_by_stripped_hom(L, A) for A in elems]
    assert True in want and False in want
    calls = []
    monkeypatch.setattr(automorphisms, "mat_inverse", calls.append)
    assert [classify_automorphism(L, A)["strict"] for A in elems] == want
    assert not calls  # the cached inverses of the Aut0 serve


def _count_mat_inverse(monkeypatch) -> list:
    """The matrices every module of the package inverts from now on."""
    calls, real = [], linalg.mat_inverse

    def counting(m):
        calls.append(m)
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("lie2alg") and hasattr(module, "mat_inverse"):
            monkeypatch.setattr(module, "mat_inverse", counting)
    return calls


def test_aut_report_inverts_each_component_once(monkeypatch):
    calls = _count_mat_inverse(monkeypatch)
    element = GOLDEN / "string-sl2-aut.hom"
    code, _ = run(["aut", "string-sl2", "--element", str(element)])
    assert code == 0 and len(calls) == 2  # A0 and A1, by certify_aut0


# the tau elements of the aut goldens: (element, algebra, exit code)
TAU_REPORTS = (
    ("endo-1-1-tau.tau", "endo-1-1", 0),
    ("endo-1-1-tau-singular.tau", "endo-1-1", 1),
    ("endo-id2-tau.tau", GOLDEN / "endo-id2.lie2", 0),
    ("endo-id2-tau-singular.tau", GOLDEN / "endo-id2.lie2", 1),
)


@pytest.mark.parametrize("element, algebra, want", TAU_REPORTS, ids=[t[0] for t in TAU_REPORTS])
def test_aut_report_of_a_tau_eliminates_i_plus_d_tau_once(element, algebra, want, monkeypatch):
    # the tau_invertible line is the weak flag of the classification
    calls = _count_mat_inverse(monkeypatch)
    code, _ = run(["aut", str(algebra), "--element", str(GOLDEN / element)])
    assert code == want and len(calls) == 1


# ---------------------------------------------------------------------------
# adjoint conjugation
# ---------------------------------------------------------------------------

def test_ad_identity_fixes_derivations():
    rng = random.Random(59)
    L = fix_str()
    D = random_der0(L, rng)
    got = ad_conjugate(L, aut_identity(L), D)
    assert got.X0 == D.X0 and got.X1 == D.X1 and got.lX == D.lX


def test_ad_tau_on_theta_abelian_trivial():
    rng = random.Random(60)
    L = fix_ab()
    t = Tau(rand_mat(rng, L.n1, L.n0))
    T = random_derM1(L, rng)
    assert ad_conjugate(L, t, T) == T


def test_ad_aut_preserves_membership():
    rng = random.Random(61)
    L = fix_str()
    basis = compute_der0_basis(L)
    for _ in range(4):
        A = string_aut0(L, rng)
        D = random_der0(L, rng, basis)
        got = ad_conjugate(L, A, D)
        assert is_derivation0(L, got).ok


def test_ad_aut_is_action():
    rng = random.Random(62)
    L = fix_str()
    basis = compute_der0_basis(L)
    A, B = string_aut0(L, rng), string_aut0(L, rng)
    D = random_der0(L, rng, basis)
    from lie2alg.derivations import der0_distance
    lhs = ad_conjugate(L, aut_compose(A, B), D)
    rhs = ad_conjugate(L, A, ad_conjugate(L, B, D))
    assert der0_distance(lhs, rhs) == 0
    T = random_derM1(L, rng)
    assert ad_conjugate(L, aut_compose(A, B), T) == ad_conjugate(L, A, ad_conjugate(L, B, T))


def test_ad_tau_on_theta_is_action():
    rng = random.Random(63)
    L = fix_end()
    t1 = random_tau(L, rng)
    t2 = random_tau(L, rng)
    T = random_derM1(L, rng)
    lhs = ad_conjugate(L, star(L, t1, t2), T)
    rhs = ad_conjugate(L, t1, ad_conjugate(L, t2, T))
    assert lhs == rhs


def test_each_unit_route_eliminates_i_plus_d_tau_once(monkeypatch):
    rng = random.Random(65)
    L = make_endo(Mat.identity(2))
    t, T = random_tau(L, rng), random_derM1(L, rng)
    D = random_der0(L, rng)
    calls, real = [], linalg.mat_inverse

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(automorphisms, "mat_inverse", counting)
    for route in (lambda: tau_inverse(L, t), lambda: tau_is_invertible(L, t),
                  lambda: ad_conjugate(L, t, D), lambda: ad_conjugate(L, t, T)):
        del calls[:]
        route()
        assert calls == [Mat.identity(L.n0) + L.d @ t.mat]
    # the unit test forms d tau and no star-inverse -tau (I + d tau)^{-1}
    products, real_mul = [], Mat.__matmul__

    def multiplying(a, b):
        products.append((a, b))
        return real_mul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", multiplying)
    assert tau_is_invertible(L, t)
    monkeypatch.setattr(Mat, "__matmul__", real_mul)
    assert len(products) == 1 and products[0][0] is L.d and products[0][1] is t.mat
    # d = I, and I + tau has equal rows 0 and 1: no unit
    singular = Tau(Mat(L.n1, L.n0, [0, 1, 0, 0, 1, 0, 0, 0] + [0] * 8))
    assert tau_inverse(L, singular) is None and not tau_is_invertible(L, singular)
    for target in (D, T):
        with pytest.raises(ValueError, match="not star-invertible"):
            ad_conjugate(L, singular, target)


def test_ad_tau_on_theta_is_the_conjugation_through_the_star_inverse():
    # (I + tau d) theta (I + d tau^{-1}), with (I + d tau)^{-1} written as
    # I + d tau^{-1}; on endo-id2 d = I, and the random fixtures mix shapes
    rng = random.Random(66)
    algebras = [make_endo(Mat.identity(2))] + [random_fixture(random.Random(seed))
                                                for seed in range(30)]
    for L in algebras:
        t, T = random_tau(L, rng), random_derM1(L, rng)
        left = Mat.identity(L.n1) + t.mat @ L.d
        right = Mat.identity(L.n0) + L.d @ tau_inverse(L, t).mat
        assert ad_conjugate(L, t, T).theta == left @ T.theta @ right


def test_ad_tau_on_der0_returns_semidirect_pair():
    rng = random.Random(64)
    L = fix_end()
    t = random_tau(L, rng)
    D = random_der0(L, rng)
    got = ad_conjugate(L, t, D)
    assert isinstance(got, tuple) and got[0] == D and isinstance(got[1], DerM1)
