import random
from fractions import Fraction

import pytest

from lie2alg.core import (
    Lie2Algebra,
    Lie2Hom,
    ce_coboundary,
    compose_hom,
    hom_distance,
    hom_identity,
    killing_form,
    make_endo,
    make_skeletal,
    make_string,
    validate_hom,
    validate_lie2,
)
from lie2alg.fixtures import (
    abelian_structure,
    adjoint_rep,
    aff1_sum_structure,
    fix_ab,
    fix_end,
    fix_str,
    rand_cochain,
    rand_mat,
    skeletal_demo,
    sl2_structure,
    solvable2_structure,
    strict_sl2,
    trivial_rep,
)
from lie2alg.linalg import AltTensor, Mat, truncated_exp


def sl2_aut(rng):
    """Random rational automorphism of sl2: a product of unipotent exponentials."""
    from lie2alg.core import lie_ad_matrices
    ads = lie_ad_matrices(sl2_structure())
    a0 = Mat.identity(3)
    for _ in range(rng.randint(1, 3)):
        g = rng.choice([ads[1], ads[2]])  # ad_e, ad_f are nilpotent
        a0 = a0 @ truncated_exp(g, Fraction(rng.randint(-2, 2), 2))
    return a0


def string_aut_hom(rng, L):
    """(A0, 1, omega) with A0 in Aut(sl2) and omega any 2-form."""
    return Lie2Hom(L, L, sl2_aut(rng), Mat.identity(1), rand_cochain(rng, 2, 3, 1))


# ---------------------------------------------------------------------------
# validate_lie2
# ---------------------------------------------------------------------------

def test_validate_abelian():
    assert validate_lie2(fix_ab()).ok


def test_validate_string_sl2():
    assert validate_lie2(fix_str()).ok


def test_validate_endo_and_strict_sl2():
    assert validate_lie2(fix_end()).ok
    assert validate_lie2(strict_sl2()).ok


def test_validate_skeletal_demo():
    L = skeletal_demo()
    assert not L.l3.is_zero()
    assert validate_lie2(L).ok


def test_perturbed_d_flags_axiom_a():
    L = fix_str()
    bad = Lie2Algebra(3, 1, Mat.from_cols([(1, 0, 0)], 3), L.b00, L.b01, L.l3)
    rep = validate_lie2(bad)
    assert not rep.ok
    assert "a1" in rep.violated() or "b2" in rep.violated()
    assert rep["b2"].witness is not None or rep["a1"].witness is not None


def test_perturbed_bracket_flags_jacobi():
    L = fix_str()
    entries = dict(L.b00.entries)
    entries[(0, 1)] = (1, 2, 0)  # [h,e] picks up a spurious h component
    bad = Lie2Algebra(3, 1, L.d, AltTensor(2, 3, 3, entries), L.b01, L.l3)
    rep = validate_lie2(bad)
    assert not rep.ok
    assert "b1" in rep.violated()
    assert rep["b1"].witness == (0, 1, 2)


def test_perturbed_action_flags_axiom_b2():
    L = fix_str()
    b01 = (Mat.from_rows([[1]]),) + L.b01[1:]
    bad = Lie2Algebra(3, 1, L.d, L.b00, b01, L.l3)
    rep = validate_lie2(bad)
    assert not rep.ok
    assert "b2" in rep.violated()


def test_axiom_c_detects_non_cocycle():
    # On a 4-dim algebra a generic 3-form is not closed; the coboundary
    # oracle confirms it, and the validator must flag the same axiom.
    sc = aff1_sum_structure()
    mu = AltTensor(3, 4, 1, {(1, 2, 3): (1,)})
    dmu = ce_coboundary(sc, trivial_rep(4, 1), mu)
    assert not dmu.is_zero()  # oracle: mu is not a cocycle
    bad = make_skeletal(sc, trivial_rep(4, 1), mu)
    rep = validate_lie2(bad)
    assert rep.violated() == ["c"]


def test_axiom_c_accepts_coboundary_l3_nontrivial_rep():
    # dim-4 base with a nontrivial action: the only case where the relative
    # sign between the two halves of the arity-4 law is observable
    sc = aff1_sum_structure()
    rep = adjoint_rep(sc)
    rng = random.Random(0)
    for _ in range(5):
        l3 = ce_coboundary(sc, rep, rand_cochain(rng, 2, 4, 4))
        assert validate_lie2(make_skeletal(sc, rep, l3)).ok


def test_scaled_l3_on_string_sl2_stays_valid():
    # With a 3-dim base and trivial coefficients every alternating 3-form
    # is closed, so rescaling l3 gives another valid algebra.
    L = fix_str()
    scaled = Lie2Algebra(3, 1, L.d, L.b00, L.b01, L.l3.scale(Fraction(9, 8)))
    assert validate_lie2(scaled).ok


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def test_identity_hom_validates():
    for L in (fix_ab(), fix_str(), fix_end(), skeletal_demo()):
        assert validate_hom(hom_identity(L)).ok


def test_string_weak_automorphism_validates():
    rng = random.Random(2)
    L = fix_str()
    for _ in range(5):
        assert validate_hom(string_aut_hom(rng, L)).ok


def test_doubling_is_not_a_hom():
    L = fix_str()
    A = Lie2Hom(L, L, Mat.identity(3).scale(2), Mat.identity(1), AltTensor.zero(2, 3, 1))
    rep = validate_hom(A)
    assert "i" in rep.violated()


def test_compose_identity_laws():
    rng = random.Random(3)
    L = fix_str()
    A = string_aut_hom(rng, L)
    assert hom_distance(compose_hom(hom_identity(L), A), A) == 0
    assert hom_distance(compose_hom(A, hom_identity(L)), A) == 0


def test_compose_a2_formula():
    # with B1 = 1 on the string fixture, (B . A)_2 = B2(A0., A0.) + A2
    rng = random.Random(4)
    L = fix_str()
    A = string_aut_hom(rng, L)
    B = string_aut_hom(rng, L)
    C = compose_hom(B, A)
    expected = B.A2.pullback(A.A0) + A.A2
    assert C.A2 == expected


def test_compose_associative():
    rng = random.Random(5)
    L = fix_str()
    A, B, C = (string_aut_hom(rng, L) for _ in range(3))
    left = compose_hom(compose_hom(C, B), A)
    right = compose_hom(C, compose_hom(B, A))
    assert hom_distance(left, right) == 0


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_killing_form_sl2():
    K = killing_form(sl2_structure())
    # traces of products of adjoint matrices in the (h, e, f) basis
    assert K.at(0, 0) == 8
    assert K.at(1, 2) == 4 and K.at(2, 1) == 4
    assert K.at(0, 1) == 0 and K.at(0, 2) == 0
    assert K == K.transpose()


def test_killing_form_abelian_zero():
    assert killing_form(abelian_structure(3)).is_zero()


def test_make_string_l3_value():
    L = fix_str()
    # l3(h, e, f) = K([h,e], f) = 2 K(e, f) = 8
    assert L.l3.eval_basis(0, 1, 2) == (8,)
    assert L.n1 == 1 and L.d.is_zero()


def test_make_string_abelian_all_zero():
    L = make_string(abelian_structure(1))
    assert L.l3.is_zero()
    assert validate_lie2(L).ok


def test_skeletal_with_cartan_form_equals_string():
    sc = sl2_structure()
    K = killing_form(sc)

    def cartan(key):
        i, j, k = key
        u = sc.eval_basis(i, j)
        return (sum(u[s] * K.at(s, k) for s in range(3)),)

    l3 = AltTensor.from_function(3, 3, 1, cartan)
    assert make_skeletal(sc, trivial_rep(3, 1), l3) == fix_str()


def test_make_endo_identity_complex():
    L = fix_end()
    assert L.n0 == 1 and L.n1 == 1
    assert L.d == Mat.from_rows([[1]])
    assert L.b00.is_zero()
    assert all(m.is_zero() for m in L.b01)


def test_make_endo_zero_to_r():
    L = make_endo(Mat.zero(1, 0))
    assert L.n0 == 1 and L.n1 == 0


def test_make_endo_random_dims_validate():
    rng = random.Random(7)
    for _ in range(6):
        v0, v1 = rng.randint(1, 3), rng.randint(1, 2)
        L = make_endo(rand_mat(rng, v0, v1))
        assert validate_lie2(L).ok


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg coboundary
# ---------------------------------------------------------------------------

def test_ce_constant_trivial_rep():
    sc = sl2_structure()
    f = AltTensor(0, 3, 1, {(): (Fraction(5),)})
    assert ce_coboundary(sc, trivial_rep(3, 1), f).is_zero()


def test_ce_dual_basis_value():
    sc = sl2_structure()
    xi = AltTensor(1, 3, 1, {(0,): (1,)})  # h*
    dxi = ce_coboundary(sc, trivial_rep(3, 1), xi)
    # D xi (x,y) = -xi([x,y]); on (e,f) this is -xi(h) = -1
    assert dxi.eval_basis(1, 2) == (-1,)
    assert dxi.eval_basis(0, 1) == (0,)
    assert dxi.eval_basis(0, 2) == (0,)


def test_ce_squares_to_zero():
    rng = random.Random(8)
    cases = [
        (sl2_structure(), trivial_rep(3, 1)),
        (sl2_structure(), adjoint_rep(sl2_structure())),
        (solvable2_structure(), adjoint_rep(solvable2_structure())),
        (aff1_sum_structure(), trivial_rep(4, 2)),
    ]
    for sc, rep in cases:
        for arity in range(0, min(3, sc.dim)):
            f = rand_cochain(rng, arity, sc.dim, rep[0].rows)
            assert ce_coboundary(sc, rep, ce_coboundary(sc, rep, f)).is_zero()


def _bits(x):
    """A float by type and bit pattern (signed zeros too); an exact scalar,
    an int or a Fraction, by value."""
    if type(x) is float:
        return float, x.hex()
    return ("exact" if type(x) in (int, Fraction) else type(x)), x


def _bracket01_reference(L, x, a):
    """[x, a] as a sum of full vectors, one per nonzero coordinate of x."""
    out = tuple(Fraction(0) if L.mode == "exact" else 0.0 for _ in range(L.n1))
    for i, xi in enumerate(x):
        if xi != 0:
            out = tuple(o + xi * v for o, v in zip(out, L.b01[i].apply(a)))
    return out


def test_bracket01_matches_reference():
    # exact values are exact (int or Fraction) and equal; float values carry
    # the same bits, signed zeros too
    rng = random.Random(41)
    for L in (fix_ab(), fix_str(), fix_end(), skeletal_demo(), make_endo(rand_mat(rng, 2, 1))):
        for M in (L, L.to_float()):
            cast = (lambda q: q) if M.mode == "exact" else float
            for _ in range(10):
                x = tuple(cast(Fraction(rng.choice([0, 0, -1, 2]), 3)) for _ in range(M.n0))
                a = tuple(cast(Fraction(rng.choice([0, 1, -2]), 5)) for _ in range(M.n1))
                got, want = M.bracket01(x, a), _bracket01_reference(M, x, a)
                assert [_bits(g) for g in got] == [_bits(w) for w in want]


def test_float_copies_are_float_in_every_tensor():
    # the mode is carried from construction, so all-zero tensors convert too
    for L in (fix_ab(), strict_sl2(), fix_str(), fix_end(), skeletal_demo()):
        Lf = L.to_float()
        assert Lf.mode == "float"
        assert {v.mode for v in (Lf.d, Lf.b00, Lf.l3, *Lf.b01)} == {"float"}
        assert hom_identity(Lf).A2.mode == "float"


def test_algebra_rejects_zero_tensors_of_the_other_mode():
    with pytest.raises(ValueError, match="mixed scalar modes"):
        Lie2Algebra(1, 1, Mat.from_rows([[0.5]]), AltTensor.zero(2, 1, 1), [Mat.zero(1, 1, "float")],
                    AltTensor.zero(3, 1, 1, "float"))
