import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lie2alg.core import (
    Lie2Algebra,
    ce_coboundary,
    lie_ad_matrices,
    make_endo,
    make_string,
    validate_hom,
    validate_lie2,
)
from lie2alg.derivations import (
    DerM1,
    Derivation0,
    adbar,
    adbar0_single,
    build_der_lie2,
    classify_derivation,
    compute_der0_basis,
    dbar,
    der0_distance,
    der0_zero,
    derM1_basis,
    derM1_zero,
    flatten_der0,
    graded_bracket,
    inn0_basis,
    is_derivation0,
    lie_cochain_action,
    random_der0,
    random_derM1,
)
from lie2alg.fileio import parse_element, serialize_element, serialize_lie2
from lie2alg.fixtures import (
    NAMED_EXAMPLES,
    fix_ab,
    fix_end,
    fix_str,
    rand_cochain,
    random_fixture,
    skeletal_demo,
    sl2_structure,
    sl_structure,
    strict_sl2,
    trivial_rep,
)
from lie2alg import core, derivations, linalg
from lie2alg.linalg import AltTensor, Mat, ModeError, basis_vec, rank, solve, vadd, vsub


def sl2_ad_as_der0(L, x, xi):
    """(ad_x acting on the string fixture, X1 = 0, lX = D xi)."""
    ads = lie_ad_matrices(sl2_structure())
    X0 = Mat.zero(3, 3)
    for i, c in enumerate(x):
        X0 = X0 + ads[i].scale(c)
    lX = ce_coboundary(sl2_structure(), trivial_rep(3, 1), xi)
    return Derivation0(X0, Mat.zero(1, 1), lX)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_zero_is_derivation():
    for L in (fix_ab(), fix_str(), fix_end(), skeletal_demo()):
        assert is_derivation0(L, der0_zero(L)).ok


def test_adjoint_generators_are_derivations():
    for L in (fix_str(), fix_end(), skeletal_demo()):
        for i in range(L.n0):
            assert is_derivation0(L, adbar0_single(L, basis_vec(L.n0, i, L.mode))).ok


def test_identity_fails_on_string():
    L = fix_str()
    D = Derivation0(Mat.identity(3), Mat.identity(1), AltTensor.zero(2, 3, 1))
    rep = is_derivation0(L, D)
    assert rep["a"].value != 0
    assert rep["a"].witness == (0, 1)  # (h, e)


# ---------------------------------------------------------------------------
# basis computation
# ---------------------------------------------------------------------------

def test_der0_dim_abelian():
    assert len(compute_der0_basis(fix_ab())) == 2


def test_der0_dim_string():
    assert len(compute_der0_basis(fix_str())) == 6


def test_der0_dim_strict_sl2():
    # classical result: all derivations of sl2 are inner
    assert len(compute_der0_basis(strict_sl2())) == 3


def test_der0_basis_soundness_and_completeness():
    rng = random.Random(10)
    for L in (fix_str(), fix_end(), skeletal_demo()):
        basis = compute_der0_basis(L)
        for D in basis:
            assert is_derivation0(L, D).ok
        flat = [flatten_der0(L, D) for D in basis]
        base_rank = rank(Mat.from_rows(flat))
        assert base_rank == len(basis)
        # independently constructed members do not increase the rank
        extras = [adbar0_single(L, basis_vec(L.n0, i, L.mode)) for i in range(L.n0)]
        extras += [dbar(L, random_derM1(L, rng)) for _ in range(3)]
        extras += [graded_bracket(L, basis[0], D) for D in basis[:3]]
        for E in extras:
            assert is_derivation0(L, E).ok
            assert rank(Mat.from_rows(flat + [flatten_der0(L, E)])) == base_rank


def test_der0_basis_of_a_float_algebra_raises():
    # the kernel is an exact computation: a float algebra is refused, not rounded
    with pytest.raises(ModeError):
        compute_der0_basis(skeletal_demo().to_float())


def test_is_derivation0_refuses_mixed_modes():
    L = fix_str()
    D = compute_der0_basis(L)[0]
    for alg, cand in ((L, D.to_float()), (L.to_float(), D)):
        with pytest.raises(ModeError):
            is_derivation0(alg, cand)


# ---------------------------------------------------------------------------
# dbar
# ---------------------------------------------------------------------------

def test_dbar_zero():
    L = fix_str()
    assert dbar(L, derM1_zero(L)).is_zero()


def test_dbar_string_is_minus_coboundary():
    L = fix_str()
    xi = AltTensor(1, 3, 1, {(0,): (1,)})  # h*
    theta = DerM1(Mat.from_rows([[1, 0, 0]]))
    D = dbar(L, theta)
    assert D.X0.is_zero() and D.X1.is_zero()
    dxi = ce_coboundary(sl2_structure(), trivial_rep(3, 1), xi)
    assert D.lX == -dxi


def test_dbar_endo_scalar():
    L = fix_end()
    D = dbar(L, DerM1(Mat.from_rows([[Fraction(3, 2)]])))
    assert D.X0 == Mat.from_rows([[Fraction(3, 2)]])
    assert D.X1 == Mat.from_rows([[Fraction(3, 2)]])
    assert D.lX.is_zero()


def test_dbar_lands_in_der0():
    rng = random.Random(11)
    for L in (fix_ab(), fix_str(), fix_end(), skeletal_demo()):
        for _ in range(4):
            assert is_derivation0(L, dbar(L, random_derM1(L, rng))).ok


# ---------------------------------------------------------------------------
# graded bracket
# ---------------------------------------------------------------------------

def test_bracket_skew():
    rng = random.Random(12)
    L = fix_str()
    D = random_der0(L, rng)
    assert graded_bracket(L, D, D).is_zero()


def test_bracket_of_theta_with_d_is_minus_that_of_d_with_theta():
    rng = random.Random(16)
    nonzero = 0
    for name, make in NAMED_EXAMPLES.items():
        L = make()
        D, T = random_der0(L, rng), random_derM1(L, rng)
        got = graded_bracket(L, T, D)
        assert isinstance(got, DerM1) and got == -graded_bracket(L, D, T), name
        nonzero += not got.is_zero()
    assert nonzero


def test_bracket_string_coadjoint_formula():
    # {(ad_x, 0, D xi), (ad_y, 0, D eta)} = (ad_[x,y], 0, D(ad*_x eta - ad*_y xi))
    rng = random.Random(13)
    L = fix_str()
    sc = sl2_structure()
    for _ in range(5):
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        y = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        xi = rand_cochain(rng, 1, 3, 1)
        eta = rand_cochain(rng, 1, 3, 1)
        Dx = sl2_ad_as_der0(L, x, xi)
        Dy = sl2_ad_as_der0(L, y, eta)
        assert is_derivation0(L, Dx).ok and is_derivation0(L, Dy).ok
        got = graded_bracket(L, Dx, Dy)
        xy = sc.eval(x, y)
        # coadjoint action on covectors: (ad*_x eta)(z) = -eta([x, z])
        def coad(v, cochain):
            return AltTensor.from_function(
                1, 3, 1, lambda key: tuple(-c for c in cochain.eval(sc.eval(v, (
                    Fraction(1) if key[0] == 0 else Fraction(0),
                    Fraction(1) if key[0] == 1 else Fraction(0),
                    Fraction(1) if key[0] == 2 else Fraction(0),
                )))))
        want = sl2_ad_as_der0(L, xy, coad(x, eta) - coad(y, xi))
        assert der0_distance(got, want) == 0


def test_bracket_deg_m1_abelian_vanishes():
    rng = random.Random(14)
    L = fix_ab()
    t1, t2 = random_derM1(L, rng), random_derM1(L, rng)
    assert graded_bracket(L, t1, t2).is_zero()


def test_bracket_closure_and_jacobi():
    rng = random.Random(15)
    for L in (fix_str(), fix_end()):
        D1, D2, D3 = (random_der0(L, rng) for _ in range(3))
        B = graded_bracket(L, D1, D2)
        assert is_derivation0(L, B).ok
        jac = graded_bracket(L, graded_bracket(L, D1, D2), D3) \
            + graded_bracket(L, graded_bracket(L, D2, D3), D1) \
            + graded_bracket(L, graded_bracket(L, D3, D1), D2)
        assert jac.is_zero()


def test_bracket_crossed_module_compat():
    # the transported degree -1 bracket: {dbar t, t'} = {t, t'} and
    # dbar{t, t'} = {dbar t, dbar t'}
    rng = random.Random(16)
    for L in (fix_str(), fix_end(), skeletal_demo()):
        for _ in range(4):
            t1, t2 = random_derM1(L, rng), random_derM1(L, rng)
            lhs = graded_bracket(L, dbar(L, t1), t2)
            rhs = graded_bracket(L, t1, t2)
            assert lhs.theta == rhs.theta
            lhs2 = dbar(L, graded_bracket(L, t1, t2))
            rhs2 = graded_bracket(L, dbar(L, t1), dbar(L, t2))
            assert der0_distance(lhs2, rhs2) == 0


# ---------------------------------------------------------------------------
# cochain action
# ---------------------------------------------------------------------------

def test_cochain_action_identity_scaling():
    omega = rand_cochain(random.Random(17), 2, 3, 1)
    got = lie_cochain_action(Mat.identity(3), Mat.identity(1), omega)
    assert got == omega.scale(-1)


def test_cochain_action_zero():
    omega = rand_cochain(random.Random(18), 2, 3, 1)
    assert lie_cochain_action(Mat.zero(3, 3), Mat.zero(1, 1), omega).is_zero()


def test_cochain_action_commutator():
    rng = random.Random(19)
    for _ in range(5):
        X0, Y0 = (Mat(3, 3, [Fraction(rng.randint(-2, 2)) for _ in range(9)]) for _ in range(2))
        X1, Y1 = (Mat(1, 1, [Fraction(rng.randint(-2, 2))]) for _ in range(2))
        omega = rand_cochain(rng, 2, 3, 1)
        lhs = lie_cochain_action(X0 @ Y0 - Y0 @ X0, X1 @ Y1 - Y1 @ X1, omega)
        rhs = lie_cochain_action(X0, X1, lie_cochain_action(Y0, Y1, omega)) \
            - lie_cochain_action(Y0, Y1, lie_cochain_action(X0, X1, omega))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the derivation Lie 2-algebra
# ---------------------------------------------------------------------------

def test_der_lie2_abelian():
    der = build_der_lie2(fix_ab())
    assert der.algebra.n0 == 2 and der.algebra.n1 == 1
    assert der.algebra.d.is_zero()
    assert validate_lie2(der.algebra).ok


def test_der_lie2_string():
    der = build_der_lie2(fix_str())
    assert der.algebra.n0 == 6 and der.algebra.n1 == 3
    assert der.algebra.l3.is_zero()
    assert validate_lie2(der.algebra).ok


def test_der_lie2_dbar_matches_columns():
    L = fix_str()
    der = build_der_lie2(L)
    for t, T in enumerate(der.basisM1):
        coords = der.algebra.d.col(t)
        rebuilt = der.der0_from_coords(coords)
        assert der0_distance(rebuilt, dbar(L, T)) == 0


def test_der0_coords_rejects_a_non_derivation():
    # the golden element breaks all four derivation laws, so it has no
    # coordinates in the degree-0 basis; the basis elements have unit ones
    L = skeletal_demo()
    der = build_der_lie2(L)
    for t, D in enumerate(der.basis0):
        assert der.der0_coords(D) == tuple(int(i == t) for i in range(len(der.basis0)))
    text = (Path(__file__).parent / "golden" / "skeletal-demo-nonder.der0").read_text(encoding="utf-8")
    with pytest.raises(ValueError):
        der.der0_coords(parse_element(text, L))


def test_der_lie2_random_fixtures_validate():
    rng = random.Random(20)
    for _ in range(6):
        L = random_fixture(rng)
        der = build_der_lie2(L)
        rep = validate_lie2(der.algebra)
        assert rep.ok, (L, {k: str(v.value) for k, v in rep})


def _flatten_der0_by_eval(L, D):
    """flatten_der0 through the signed evaluator on basis index pairs."""
    parts = list(D.X0.data) + list(D.X1.data)
    for key in itertools.combinations(range(L.n0), 2):
        parts.extend(D.lX.eval_basis(*key))
    return tuple(parts)


def test_flatten_der0_reads_stored_values():
    fixtures = [fix_ab(), fix_str(), fix_end(), skeletal_demo()]
    fixtures += [random_fixture(random.Random(seed)) for seed in range(10)]
    for L in fixtures:
        for D in build_der_lie2(L).basis0:
            assert flatten_der0(L, D) == _flatten_der0_by_eval(L, D)


# ---------------------------------------------------------------------------
# adjoint homomorphism and inner derivations
# ---------------------------------------------------------------------------

def test_adbar_abelian_is_zero():
    hom = adbar(fix_ab())
    assert hom.A0.is_zero() and hom.A1.is_zero() and hom.A2.is_zero()
    assert validate_hom(hom).ok


def test_adbar0_string_h():
    L = fix_str()
    D = adbar0_single(L, basis_vec(L.n0, 0, L.mode))
    # ad_h = diag(0, 2, -2) on (h, e, f); action on R is zero
    assert D.X0 == Mat.from_rows([[0, 0, 0], [0, 2, 0], [0, 0, -2]])
    assert D.X1.is_zero()
    # lX = l3(h, ., .) with l3(h, e, f) = 8
    assert D.lX.eval_basis(1, 2) == (8,)
    assert D.lX.eval_basis(0, 1) == (0,)


def test_adbar_validates_exactly():
    for L in (fix_str(), fix_end(), skeletal_demo()):
        assert validate_hom(adbar(L)).ok


def test_adbar_bracket_defect_identity():
    # {adbar0(x), adbar0(y)} = adbar0([x,y]) + dbar(l3(x, y, .))
    L = fix_str()
    for i, j in itertools.combinations(range(3), 2):
        x, y = basis_vec(L.n0, i, L.mode), basis_vec(L.n0, j, L.mode)
        lhs = graded_bracket(L, adbar0_single(L, x), adbar0_single(L, y))
        cols = [L.l3.eval(x, y, basis_vec(L.n0, t, L.mode)) for t in range(3)]
        theta = DerM1(Mat.from_cols(cols, 1))
        rhs = adbar0_single(L, L.b00.eval(x, y)) + dbar(L, theta)
        assert der0_distance(lhs, rhs) == 0


def test_inn0_dims():
    assert len(inn0_basis(fix_ab())) == 0
    assert len(inn0_basis(fix_str())) == 6
    assert len(inn0_basis(strict_sl2())) == 3


def test_inn0_is_ideal():
    rng = random.Random(21)
    for L in (fix_str(), fix_end(), skeletal_demo()):
        inn = inn0_basis(L)
        if not inn:
            continue
        span = Mat.from_cols([flatten_der0(L, D) for D in inn], len(flatten_der0(L, inn[0])))
        basis = compute_der0_basis(L)
        for D in basis:
            for I in inn:
                B = graded_bracket(L, D, I)
                assert solve(span, flatten_der0(L, B)) is not None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_zero_everything():
    L = fix_str()
    flags = classify_derivation(L, der0_zero(L))
    assert flags == {"weak": True, "strict": True, "homotopy": True}


def test_classify_string_dual_basis_not_strict():
    L = fix_str()
    theta = DerM1(Mat.from_rows([[1, 0, 0]]))  # h*, and [e,f] = h
    flags = classify_derivation(L, theta)
    assert flags["weak"] and not flags["strict"] and not flags["homotopy"]


def test_classify_weak_but_not_strict_degree0():
    L = fix_end()
    rng = random.Random(22)
    # push a nonzero lX into a strict algebra's derivation via dbar... d is
    # invertible here so lX stays zero; instead twist a skeletal fixture
    Ls = skeletal_demo()
    D = dbar(Ls, random_derM1(Ls, rng))
    assert not D.lX.is_zero()
    flags = classify_derivation(Ls, D)
    assert flags["weak"] and not flags["strict"] and flags["homotopy"]
    del L


def test_classify_homotopy_degree_m1():
    # on the skeletal demo a map ad_v: k -> k is a 1-cocycle for the adjoint
    # action, hence a homotopy derivation of degree -1 (d = 0 on both sides);
    # the identity map is not (it fails the cocycle condition by a factor 2)
    L = skeletal_demo()
    ads = lie_ad_matrices(sl2_structure())
    theta = DerM1(ads[0])
    flags = classify_derivation(L, theta)
    assert flags == {"weak": True, "strict": True, "homotopy": True}
    assert not classify_derivation(L, DerM1(Mat.identity(3)))["strict"]


def _strict_derM1_residual(L, T):
    """Reference: the max over pairs of |theta[x,y] - [x, theta y] - [theta x, y]|,
    the strictness residual classify_derivation used before it read dbar."""
    worst = Fraction(0) if L.mode == "exact" else 0.0
    for i, j in itertools.combinations(range(L.n0), 2):
        r = T.theta.apply(L.b00.eval_basis(i, j))
        r = vsub(r, L.b01[i].apply(T.theta.col(j)))
        r = vadd(r, L.b01[j].apply(T.theta.col(i)))
        worst = max(worst, max((abs(x) for x in r), default=worst))
    return worst


def test_degree_m1_strictness_matches_the_reference_residual():
    fixtures = [fix_ab(), fix_str(), fix_end(), skeletal_demo()]
    fixtures += [random_fixture(random.Random(seed)) for seed in range(30)]
    rng = random.Random(24)
    counts = {True: 0, False: 0}
    for L in fixtures:
        for T in derM1_basis(L) + [random_derM1(L, rng) for _ in range(5)]:
            strict = classify_derivation(L, T)["strict"]
            assert strict == (_strict_derM1_residual(L, T) == 0)
            counts[strict] += 1
    assert counts[True] and counts[False]


def test_homotopy_closed_under_bracket():
    L = skeletal_demo()
    rng = random.Random(23)
    ads = lie_ad_matrices(sl2_structure())
    theta = DerM1(ads[0] + ads[1].scale(Fraction(1, 2)))
    assert classify_derivation(L, theta)["homotopy"]
    for _ in range(4):
        D = random_der0(L, rng)
        B = graded_bracket(L, D, theta)
        # stays homotopy as long as D is (degree-0 homotopy = weak)
        flags = classify_derivation(L, B)
        assert flags["homotopy"]
    t2 = graded_bracket(L, theta, theta)
    assert classify_derivation(L, t2)["homotopy"]


def test_sl_structure_matches_sl2_and_is_a_lie_algebra():
    # sl2 in (E_01, E_10, H_0) is (e, f, h): [e,f] = h, [e,h] = -2e, [f,h] = 2f
    assert sl_structure(2) == AltTensor(2, 3, 3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0),
                                                   (1, 2): (0, 2, 0)})
    for n in (2, 3):
        assert validate_lie2(make_string(sl_structure(n))).ok


def test_string_sl3_derivation_lie2():
    # Der^0 = sl3 + B^2(sl3; R) = 8 + 8 because H^1 = H^2 = 0, all of it inner
    L = make_string(sl_structure(3))
    der = build_der_lie2(L)
    assert (der.algebra.n0, der.algebra.n1, len(inn0_basis(L))) == (16, 8, 16)
    assert validate_lie2(der.algebra).ok
    assert validate_hom(adbar(L, der)).ok


def test_string_sl4_derivation_lie2():
    # the scale case of the sparse solve: Der^0 = sl4 + B^2(sl4; R) = 15 + 15
    L = make_string(sl_structure(4))
    der = build_der_lie2(L)
    assert (der.algebra.n0, der.algebra.n1) == (30, 15)
    assert validate_lie2(der.algebra).ok
    assert validate_hom(adbar(L, der)).ok


# ---------------------------------------------------------------------------
# pinned derivation algebras
# ---------------------------------------------------------------------------

# sha256 of serialize_lie2(der.algebra) followed by the serialized basis0,
# recorded from the dense assembly that the sparse one replaced
DER_DIGESTS = {
    "abelian": "6f83920ea2480dc56705904a2ebbb74a40e29bfa1d3accd18905e24dcd81c555",
    "string-sl2": "be1cdabf08046653769826f9b0b5d880a40d606236b0ac0fb6d7d28872a62185",
    "endo-1-1": "fb75e3bead5d39472ecd0cf04f438a71a3b3480d29c77fd97be25c188d472fe4",
    "skeletal-demo": "fecb3f0ea2023b15dae6dbb409adaea9697f6d1b2fa4369478398bd40800ebd7",
    "string-sl3": "1595246ea8b69eee5e92c7649a23e2af752a87430745e664aae632df254642ad",
    "endo-id2": "4cc4c2e0f8145bdd5a899fdc647b54c4a4b6f5c1f2b791531b2a7dcce6049cc6",
    "random-0": "b834b5990e716f757820e521f908498a243918d050fc70a5887842580c9fabad",
    "random-1": "feca8de76e2e5add392e8b49c3fba1fb58818340805a7604415836b6e51053f7",
    "random-2": "93f0b46b7b657b93f340d7d4a58990952db1fd0166dd8a940d75bfb25e838a91",
    "random-3": "feca8de76e2e5add392e8b49c3fba1fb58818340805a7604415836b6e51053f7",
    "random-4": "feca8de76e2e5add392e8b49c3fba1fb58818340805a7604415836b6e51053f7",
    "random-5": "853af753f9d4d98eecf63359e0bc79d071a7f643f6ddf07b43a9d297b1da8e96",
    "random-6": "e47e1fff1139ab69631d25172b19a406b1921ec31519fa70d5c0eef5022525a8",
    "random-7": "5977665296ff623ad2e3a740983ec23db35b67d78089a9d35fb6f4a9c2801faa",
    "random-8": "feca8de76e2e5add392e8b49c3fba1fb58818340805a7604415836b6e51053f7",
    "random-9": "b834b5990e716f757820e521f908498a243918d050fc70a5887842580c9fabad",
    "random-10": "e47e1fff1139ab69631d25172b19a406b1921ec31519fa70d5c0eef5022525a8",
    "random-11": "b834b5990e716f757820e521f908498a243918d050fc70a5887842580c9fabad",
    "random-12": "b834b5990e716f757820e521f908498a243918d050fc70a5887842580c9fabad",
    "random-13": "0e7bacd10bf383509aca79b2121023b28fb922cd1e2ebb946067fdc315d1bc6c",
    "random-14": "e0a8da1ceb5d4ceb402adffe5e1768856e5baea4868b359183088eb86c400d1d",
    "random-15": "feca8de76e2e5add392e8b49c3fba1fb58818340805a7604415836b6e51053f7",
    "random-16": "64921485be9a3b895b1f212f7c41646464835b75f39064e4956f6e3746b09d9c",
    "random-17": "b834b5990e716f757820e521f908498a243918d050fc70a5887842580c9fabad",
    "random-18": "feca8de76e2e5add392e8b49c3fba1fb58818340805a7604415836b6e51053f7",
    "random-19": "e0a8da1ceb5d4ceb402adffe5e1768856e5baea4868b359183088eb86c400d1d",
    "random-20": "feca8de76e2e5add392e8b49c3fba1fb58818340805a7604415836b6e51053f7",
    "random-21": "feca8de76e2e5add392e8b49c3fba1fb58818340805a7604415836b6e51053f7",
    "random-22": "feca8de76e2e5add392e8b49c3fba1fb58818340805a7604415836b6e51053f7",
    "random-23": "0f5d6b592597f0b2c366a57cf11205ef7889066597bbcb4fd357ed1ec3464997",
    "random-24": "b834b5990e716f757820e521f908498a243918d050fc70a5887842580c9fabad",
    "random-25": "b834b5990e716f757820e521f908498a243918d050fc70a5887842580c9fabad",
    "random-26": "feca8de76e2e5add392e8b49c3fba1fb58818340805a7604415836b6e51053f7",
    "random-27": "b834b5990e716f757820e521f908498a243918d050fc70a5887842580c9fabad",
    "random-28": "e0a8da1ceb5d4ceb402adffe5e1768856e5baea4868b359183088eb86c400d1d",
    "random-29": "e47e1fff1139ab69631d25172b19a406b1921ec31519fa70d5c0eef5022525a8",
    "string-sl4": "d3b0a104807303b7b22f8ea0d4e3a14e58d9ca5879b772197c4c6896f522e3d0",
    "endo-id3": "d5a9390e01e06a261878b1235b1446ec4824c8cc1c4f06981240b2b00b7e55e4",
}


def _pinned_algebras():
    algebras = [(name, make()) for name, make in NAMED_EXAMPLES.items()]
    algebras += [("string-sl3", make_string(sl_structure(3))),
                 ("endo-id2", make_endo(Mat.identity(2)))]
    algebras += [(f"random-{seed}", random_fixture(random.Random(seed))) for seed in range(30)]
    algebras += [("string-sl4", make_string(sl_structure(4))),
                 ("endo-id3", make_endo(Mat.identity(3)))]
    return algebras


def test_derivation_algebras_match_their_pinned_digests():
    got = {}
    for name, L in _pinned_algebras():
        der = build_der_lie2(L)
        text = serialize_lie2(der.algebra) + "".join(serialize_element(D, L) for D in der.basis0)
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == DER_DIGESTS


# sha256 of the serialized inn0_basis, recorded from the dense reduction
# (rref of a Mat of the generators) that the sparse one replaced
INN_DIGESTS = {
    "abelian": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "string-sl2": "b8d0f2153e7408e8f1c6ced1c98530a324ac09f0d239f4e4351013b65c26c9bf",
    "endo-1-1": "8817d39d850e6511c97a11698d1acd7f7c02a3f2c758bad1ba1a7315d67e0579",
    "skeletal-demo": "dd20fcbb3c687e249171fa87d2044b065d7795da9cbc3ca29eacd060dfdaddc6",
    "string-sl3": "7637aeb316f5a886a02e579f58e809d9e0fc46b9b7521fce789066093b4b8119",
    "endo-id2": "fd63b7503b764d8d506a343df068af811c014779e14e9b69b544ea14403f7fea",
    "random-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1": "391b82e8ec92bb6e0767886206a0dbb5ed706a89a659aae22b3bac78ce30a8b9",
    "random-2": "b8d0f2153e7408e8f1c6ced1c98530a324ac09f0d239f4e4351013b65c26c9bf",
    "random-3": "391b82e8ec92bb6e0767886206a0dbb5ed706a89a659aae22b3bac78ce30a8b9",
    "random-4": "391b82e8ec92bb6e0767886206a0dbb5ed706a89a659aae22b3bac78ce30a8b9",
    "random-5": "1f735e2ee8472be6d07b2675ec74c146c18d9e87553cd6914b4c61d1fb7d00ac",
    "random-6": "1795a4c57b95b9a3c232a2f9909e94573d725f86c397e9a8f735f0cccd2822bc",
    "random-7": "0fd8bddd168e0edfe355e36b87130af2afc77fd0e0c303fd9229c2c6f1bfb3ad",
    "random-8": "391b82e8ec92bb6e0767886206a0dbb5ed706a89a659aae22b3bac78ce30a8b9",
    "random-9": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-10": "1795a4c57b95b9a3c232a2f9909e94573d725f86c397e9a8f735f0cccd2822bc",
    "random-11": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-12": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-13": "0139523fa05690cbaed6b94b63d44b5807082b4ea2d8f45fd06440eaeb992ed7",
    "random-14": "7323718b3cb104c153e6cdf17b1585c6844d4fd5bb8fb91b3ebd0c25e927d882",
    "random-15": "391b82e8ec92bb6e0767886206a0dbb5ed706a89a659aae22b3bac78ce30a8b9",
    "random-16": "b589b4d0c145ddea3f6364e32d3ac62f943ae6a9496ec241ecbeb7293f1dec5b",
    "random-17": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-18": "391b82e8ec92bb6e0767886206a0dbb5ed706a89a659aae22b3bac78ce30a8b9",
    "random-19": "7323718b3cb104c153e6cdf17b1585c6844d4fd5bb8fb91b3ebd0c25e927d882",
    "random-20": "391b82e8ec92bb6e0767886206a0dbb5ed706a89a659aae22b3bac78ce30a8b9",
    "random-21": "391b82e8ec92bb6e0767886206a0dbb5ed706a89a659aae22b3bac78ce30a8b9",
    "random-22": "391b82e8ec92bb6e0767886206a0dbb5ed706a89a659aae22b3bac78ce30a8b9",
    "random-23": "8817d39d850e6511c97a11698d1acd7f7c02a3f2c758bad1ba1a7315d67e0579",
    "random-24": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-25": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-26": "391b82e8ec92bb6e0767886206a0dbb5ed706a89a659aae22b3bac78ce30a8b9",
    "random-27": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-28": "7323718b3cb104c153e6cdf17b1585c6844d4fd5bb8fb91b3ebd0c25e927d882",
    "random-29": "1795a4c57b95b9a3c232a2f9909e94573d725f86c397e9a8f735f0cccd2822bc",
    "string-sl4": "4ab8f98ee7a44423c3481e8f4e52eb55e1f83d3e2d4c8c36f9bdc9ebeac0650c",
    "endo-id3": "ff813b115cffeece70c660294a59ef6a2c600e84bcd9350b9917a2a045a1a8cc",
}


def test_inner_bases_match_their_pinned_digests():
    got = {}
    for name, L in _pinned_algebras():
        text = "".join(serialize_element(D, L) for D in inn0_basis(L))
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == INN_DIGESTS


# sha256 of the serialized adbar(L) (its A0, A1 and A2), recorded from the
# assembly that read each adjoint generator through a Derivation0
ADBAR_DIGESTS = {
    "abelian": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "string-sl2": "39d27b37c350175c0d5671f51f9e4f0a7f2fe984868be51e3c83f2ae119bf6cc",
    "endo-1-1": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "skeletal-demo": "f2c9b089de987fc3731a4095ba566ce36d7029e61da23859f12defa4d1bd37a7",
    "string-sl3": "53b490063db3795efe0632506530d5867cda36ed5bea8793ee8a9048921c0e62",
    "endo-id2": "ac7c26e61817844dd5879bee1b968202a322ad7417a6d72348e6230be260dada",
    "random-0": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "random-1": "23f4c5affacf290cb66c1e6f25324673bf8e8e3f69dd0289389996c24b96f1f8",
    "random-2": "7daeebaa55feb6fdf5ee135406b5ba74508e3a092af01314542cd590c9799db1",
    "random-3": "23f4c5affacf290cb66c1e6f25324673bf8e8e3f69dd0289389996c24b96f1f8",
    "random-4": "23f4c5affacf290cb66c1e6f25324673bf8e8e3f69dd0289389996c24b96f1f8",
    "random-5": "0613ed02d93bd905bb7554451e4d721ac3db8d0b218646665602b440aea61ff1",
    "random-6": "eab106e1fb581d4fde3ef39bf15ebfbf73db4d9ec7669802c025a7d07b7a2e6f",
    "random-7": "2388a78d09d3f55807e08e0b92235dca3ba0434e22ce85aa5794a82e23b434dc",
    "random-8": "23f4c5affacf290cb66c1e6f25324673bf8e8e3f69dd0289389996c24b96f1f8",
    "random-9": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "random-10": "eab106e1fb581d4fde3ef39bf15ebfbf73db4d9ec7669802c025a7d07b7a2e6f",
    "random-11": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "random-12": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "random-13": "f6bb5fd665a012fe25e40e92ec0be4b4a1d90d991563b2b6b38b06d5b1717783",
    "random-14": "f3e0e9c3923f84464fd084894360eb1af996efcbe469811d7ea459d40d91e223",
    "random-15": "23f4c5affacf290cb66c1e6f25324673bf8e8e3f69dd0289389996c24b96f1f8",
    "random-16": "c97c7e900541801141248dc5a36e1b450b8db9ebfefb30f0a96d3f15a36fc83b",
    "random-17": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "random-18": "23f4c5affacf290cb66c1e6f25324673bf8e8e3f69dd0289389996c24b96f1f8",
    "random-19": "f3e0e9c3923f84464fd084894360eb1af996efcbe469811d7ea459d40d91e223",
    "random-20": "23f4c5affacf290cb66c1e6f25324673bf8e8e3f69dd0289389996c24b96f1f8",
    "random-21": "23f4c5affacf290cb66c1e6f25324673bf8e8e3f69dd0289389996c24b96f1f8",
    "random-22": "23f4c5affacf290cb66c1e6f25324673bf8e8e3f69dd0289389996c24b96f1f8",
    "random-23": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "random-24": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "random-25": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "random-26": "23f4c5affacf290cb66c1e6f25324673bf8e8e3f69dd0289389996c24b96f1f8",
    "random-27": "2ef6b26856cba01ac7c50e32788017a030992af47cf37b0a17fbac9ac6ea83f1",
    "random-28": "f3e0e9c3923f84464fd084894360eb1af996efcbe469811d7ea459d40d91e223",
    "random-29": "eab106e1fb581d4fde3ef39bf15ebfbf73db4d9ec7669802c025a7d07b7a2e6f",
    "string-sl4": "7690c21ae62734e0f25376616c028461cf1ac7fd73ad73dcd3f7809c1bed9dba",
    "endo-id3": "203e8eba910649035484135e0512d0da6e363476dce52c04d862b813bd953c5b",
}


def test_adjoint_homomorphisms_match_their_pinned_digests():
    got = {}
    for name, L in _pinned_algebras():
        got[name] = hashlib.sha256(serialize_element(adbar(L), L).encode()).hexdigest()
    assert got == ADBAR_DIGESTS


# ---------------------------------------------------------------------------
# the integer path of the derivation build
# ---------------------------------------------------------------------------

def _count_fractions(monkeypatch) -> dict:
    """A counter of Fraction constructions, split by whether an exact
    division (`linalg._quotient`, which `core` imports too) made them:
    constructors run __new__, and arithmetic results run __new__ or, from
    Python 3.12 on, _from_coprime_ints."""
    counts = {"division": 0, "other": 0}
    dividing = [False]

    def count(fn):
        def wrapper(*args, **kwargs):
            counts["division" if dividing[0] else "other"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def quotient(x, y, _q=linalg._quotient):
        dividing[0] = True
        try:
            return _q(x, y)
        finally:
            dividing[0] = False

    monkeypatch.setattr(Fraction, "__new__", count(Fraction.__new__))
    if "_from_coprime_ints" in vars(Fraction):
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(count(Fraction._from_coprime_ints.__func__)))
    monkeypatch.setattr(linalg, "_quotient", quotient)
    monkeypatch.setattr(core, "_quotient", quotient)
    return counts


def test_der_build_on_an_integer_image_makes_no_fraction_but_its_divisions(monkeypatch):
    # integer structure constants (D = 1): the constraint rows, the kernel,
    # the bracket table and the coords check all run in ints, and a Fraction
    # comes only from an exact division by a basis scale, once per
    # coordinate; skeletal-demo's basis vectors all have scale 1
    cases = [(name, L) for name, L in _pinned_algebras()
             if name in ("skeletal-demo", "string-sl3", "endo-id2")]
    wants = {name: serialize_lie2(build_der_lie2(L).algebra) for name, L in cases}
    counts = _count_fractions(monkeypatch)
    in_brackets = []
    bracket = derivations._bracket_flat

    def counted_bracket(*args):
        before = counts["division"] + counts["other"]
        out = bracket(*args)
        in_brackets.append(counts["division"] + counts["other"] - before)
        assert all(type(v) is int for v in out.values())
        return out

    monkeypatch.setattr(derivations, "_bracket_flat", counted_bracket)
    for name, L in cases:
        assert L.integer_image()[0] == 1
        counts.update(division=0, other=0)
        in_brackets.clear()
        der = build_der_lie2(Lie2Algebra(L.n0, L.n1, L.d, L.b00, L.b01, L.l3))  # no views yet
        assert counts["other"] == 0 and in_brackets and not any(in_brackets), name
        assert (counts["division"] == 0) == (name == "skeletal-demo"), name
        assert serialize_lie2(der.algebra) == wants[name]


def test_one_sweep_of_unit_images_serves_the_build_inn0_and_adbar(monkeypatch):
    # _dbar_flat runs once per unit map of the Hom basis and _ad_flat once
    # per basis vector of g_0, however many of the three read them
    calls = {"_dbar_flat": 0, "_ad_flat": 0}
    for fn in calls:
        def counted(*args, _fn=getattr(derivations, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(derivations, fn, counted)
    L = random_fixture(random.Random(14))
    der = build_der_lie2(L)
    inn0_basis(L)
    inn0_basis(L)
    adbar(L, der)
    assert calls == {"_dbar_flat": L.n0 * L.n1, "_ad_flat": L.n0}
    # an equal algebra built apart is another object, with its own sweep
    L2 = Lie2Algebra(L.n0, L.n1, L.d, L.b00, L.b01, L.l3)
    assert L2 == L
    inn0_basis(L2)
    assert calls == {"_dbar_flat": 2 * L.n0 * L.n1, "_ad_flat": 2 * L.n0}


def test_adbar_refuses_the_derivation_algebra_of_another_algebra():
    L1 = Lie2Algebra(2, 1, Mat.zero(2, 1), AltTensor.zero(2, 2, 2), [Mat.zero(1, 1)] * 2,
                     AltTensor.zero(3, 2, 1))  # the all-zero 2|1 algebra
    L2 = random_fixture(random.Random(14))
    assert (L1.n0, L1.n1) == (L2.n0, L2.n1) and L1 != L2
    with pytest.raises(ValueError, match="another algebra"):
        adbar(L2, build_der_lie2(L1))
    # an equal algebra built separately is the same algebra
    der = build_der_lie2(random_fixture(random.Random(14)))
    assert validate_hom(adbar(L2, der)).ok


def test_adbar_refuses_the_derivation_algebra_of_the_exact_copy():
    # the float copy equals L entry by entry, so only the mode check stops
    # it, before any work
    L = fix_str()
    with pytest.raises(ModeError, match="mode mismatch: exact vs float"):
        adbar(L.to_float(), build_der_lie2(L))


def test_is_derivation0_reports_a_nan_entry():
    L = fix_str()
    D = compute_der0_basis(L)[0].to_float()
    X0 = list(D.X0.data)
    X0[-1] = float("nan")
    rep = is_derivation0(L.to_float(), Derivation0(Mat(L.n0, L.n0, X0), D.X1, D.lX))
    assert not rep.ok and not rep.within(1.0)
    assert is_derivation0(L.to_float(), D).ok


def test_derivation_solve_builds_no_constraint_matrix(monkeypatch):
    # the constraint rows and the inner generators go to the elimination as
    # sparse rows: no Mat built on the way is larger than max(n0, n1)^2
    sizes = []
    real_init, real_result = Mat.__init__, Mat._result.__func__

    def init(self, rows, cols, data):
        sizes.append(rows * cols)
        real_init(self, rows, cols, data)

    def result(cls, rows, cols, data, mode):
        sizes.append(rows * cols)
        return real_result(cls, rows, cols, data, mode)

    monkeypatch.setattr(Mat, "__init__", init)
    monkeypatch.setattr(Mat, "_result", classmethod(result))
    for L in (make_string(sl_structure(3)), make_endo(Mat.identity(2))):
        sizes.clear()
        compute_der0_basis(L)
        inn0_basis(L)
        assert sizes and max(sizes) <= max(L.n0, L.n1) ** 2, (L.n0, L.n1, max(sizes))


def test_b01_is_the_bracket_with_each_hom_basis_vector():
    # the closed form X1 (x) I - I (x) X0^T against graded_bracket(D, T)
    algebras = [L for _, L in _pinned_algebras()[:6]]
    algebras += [random_fixture(random.Random(seed)) for seed in range(10)]
    for L in algebras:
        der = build_der_lie2(L)
        for p, D in enumerate(der.basis0):
            for t, T in enumerate(der.basisM1):
                assert der.algebra.b01[p].col(t) == graded_bracket(L, D, T).theta.data, (L, p, t)


@pytest.mark.parametrize("rows", [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                  [[1], [2]], [[0], [3]]])
def test_endo_algebra_is_der_of_the_abelian_complex_when_d_is_injective(rows):
    # Der of the complex with zero brackets and l3: d lX = 0 forces lX = 0,
    # so both constructors take their b01 from the one action on Hom
    dmat = Mat.from_rows(rows)
    v0, v1 = dmat.rows, dmat.cols
    abelian = Lie2Algebra(v0, v1, dmat, AltTensor.zero(2, v0, v0), [Mat.zero(v1, v1)] * v0,
                          AltTensor.zero(3, v0, v1))
    assert make_endo(dmat) == build_der_lie2(abelian).algebra


def test_endo_algebra_and_der_differ_when_d_has_a_kernel():
    # at d = 0 a derivation gains an lX with values in ker d, which no
    # endomorphism pair has: the two constructors stay separate
    dmat = Mat.zero(2, 1)
    abelian = Lie2Algebra(2, 1, dmat, AltTensor.zero(2, 2, 2), [Mat.zero(1, 1)] * 2,
                          AltTensor.zero(3, 2, 1))
    assert (make_endo(dmat).n0, build_der_lie2(abelian).algebra.n0) == (5, 6)


def test_inner_derivations_of_a_float_algebra_raise():
    L = fix_ab().to_float()
    with pytest.raises(ModeError, match="inner derivations need an exact algebra"):
        inn0_basis(L)
