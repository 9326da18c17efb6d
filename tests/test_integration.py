import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest

import lie2alg.automorphisms as automorphisms
import lie2alg.integration as integration
import lie2alg.linalg as linalg
from lie2alg.automorphisms import (
    act,
    ad_conjugate,
    aut_compose,
    aut_identity,
    check_crossed_module,
    random_tau,
    semidirect_multiply,
    star,
    tau_distance,
    tau_inverse,
    tau_zero,
)
from lie2alg.core import Lie2Algebra, compose_hom, hom_distance, validate_hom, validate_lie2
from lie2alg.derivations import (
    DerM1,
    Derivation0,
    adbar0_single,
    compute_der0_basis,
    dbar,
    der0_distance,
    der0_zero,
    derM1_basis,
    derM1_zero,
    graded_bracket,
    inn0_basis,
    random_der0,
    random_derM1,
)
from lie2alg.fixtures import (
    NAMED_EXAMPLES,
    fix_ab,
    fix_end,
    fix_str,
    rand_cochain,
    rand_mat,
    random_fixture,
    skeletal_demo,
    sl2_structure,
    sl_structure,
    strict_sl2,
)
from lie2alg.integration import (
    ExpConfig,
    _exp_homs,
    _joint_mode,
    _terminates,
    check_commuting_square,
    check_conjugation_identities,
    check_one_parameter,
    exp_der0,
    exp_derM1,
    nilpotent_derivations,
    one_parameter_derM1,
    random_aut0,
    recover_bracket,
    recover_bracket_m1,
)
from lie2alg.linalg import (
    AltTensor,
    Mat,
    ModeError,
    basis_vec,
    mat_distance,
    nilpotency_index,
    tensor_distance,
    truncated_exp,
    vadd,
    vsub,
)
from lie2alg.core import make_endo, make_skeletal, make_string


SMALL = (8, 16)  # denominators keeping series norms inside the N = 24 budget


def small_der0(L, rng, basis=None):
    return random_der0(L, rng, basis, dens=SMALL)


# ---------------------------------------------------------------------------
# exp on degree 0
# ---------------------------------------------------------------------------

def test_exp_zero_is_identity():
    L = fix_str()
    A = exp_der0(L, der0_zero(L))
    assert hom_distance(A.hom, aut_identity(L).hom) == 0


@pytest.mark.parametrize("value", [0, -1e-9, math.nan, math.inf])
@pytest.mark.parametrize("field", ["tol"])
def test_exp_config_requires_a_finite_positive_tol_and_step(field, value):
    with pytest.raises(ValueError, match=re.escape(
            f"order >= 1 and finite tol > 0 required, got order=24 tol={value}")):
        ExpConfig(**{field: value})


@pytest.mark.parametrize("order", [sys.maxsize + 1, 10 ** 19, 10 ** 400])
def test_exp_config_requires_an_order_of_at_most_sys_maxsize(order):
    # a larger cap cannot be planned: the degree search runs over range(1, order + 1)
    with pytest.raises(ValueError, match=re.escape(
            f"order <= sys.maxsize = {sys.maxsize} required, got order={order}")):
        ExpConfig(order=order)
    assert ExpConfig(order=sys.maxsize).order == sys.maxsize


@pytest.mark.parametrize("order", [2.5, 24.0, "3", math.nan])
def test_exp_config_requires_an_int_order(order):
    # refused where it is given, not later in the float plan's range()
    with pytest.raises(ValueError, match=re.escape(f"order must be an int, got order={order!r}")):
        ExpConfig(order=order)


def test_exp_rejects_non_derivation():
    L = fix_str()
    bad = Derivation0(Mat.identity(3), Mat.identity(1), L.l3.__class__.zero(2, 3, 1))
    with pytest.raises(ValueError):
        exp_der0(L, bad)


def test_exp_dbar_image_terminates_exactly():
    rng = random.Random(70)
    L = fix_str()
    T = random_derM1(L, rng)
    D = dbar(L, T)  # (0, 0, -D theta): both matrix parts vanish
    A = exp_der0(L, D)
    assert A.hom.A0 == Mat.identity(3)
    assert A.hom.A1 == Mat.identity(1)
    assert A.hom.A2 == D.lX  # series collapses to the linear term
    assert validate_hom(A.hom).ok


def test_exp_adbar_h_matches_diagonal_oracle():
    # ad_h = diag(0, 2, -2), so e^{ad_h} = diag(1, e^2, e^-2) exactly
    L = fix_str()
    D = adbar0_single(L, basis_vec(L.n0, 0, L.mode))
    A = exp_der0(L, D, 1, ExpConfig(order=24))
    expected = Mat.from_rows([[1.0, 0.0, 0.0],
                              [0.0, math.exp(2.0), 0.0],
                              [0.0, 0.0, math.exp(-2.0)]])
    assert mat_distance(A.hom.A0, expected) < 1e-9
    rep = validate_hom(A.hom)
    assert rep.max_value() < 1e-9


def test_exp_der0_float_certifies_within_tol():
    rng = random.Random(71)
    L = fix_str()
    basis = compute_der0_basis(L)
    for _ in range(4):
        D = small_der0(L, rng, basis)
        A = exp_der0(L, D, 1)
        assert validate_hom(A.hom).max_value() < 1e-9


# ---------------------------------------------------------------------------
# exp on degree -1
# ---------------------------------------------------------------------------

def test_exp_theta_zero():
    L = fix_str()
    assert exp_derM1(L, derM1_zero(L)) == tau_zero(L)


def test_exp_theta_abelian_is_theta():
    rng = random.Random(72)
    L = fix_ab()
    T = random_derM1(L, rng)
    assert exp_derM1(L, T).mat == T.theta


def test_exp_theta_endo_scalar():
    # d = 1 in the endo fixture: e^theta = e^t - 1 for scalar t
    L = fix_end()
    t = 0.375
    got = exp_derM1(L, DerM1(Mat.from_rows([[Fraction(3, 8)]])), 1,
                    ExpConfig(order=30))
    assert abs(got.mat.at(0, 0) - math.expm1(t)) < 1e-12
    # I + d e^theta = e^{d theta}
    lhs = 1.0 + got.mat.at(0, 0)
    assert abs(lhs - math.exp(t)) < 1e-12


def test_exp_theta_invertible():
    rng = random.Random(73)
    for L in (fix_str(), fix_end()):
        for _ in range(5):
            T = random_derM1(L, rng, dens=SMALL)
            t = exp_derM1(L, T)
            base = L if t.mat.mode == "exact" else L.to_float()
            assert tau_inverse(base, t) is not None


# ---------------------------------------------------------------------------
# one-parameter subgroups
# ---------------------------------------------------------------------------

def test_one_parameter_zero():
    L = fix_str()
    assert check_one_parameter(L, der0_zero(L), Fraction(1, 2), Fraction(1, 3)) == (0, "exact")


def test_one_parameter_dbar_image_exact():
    rng = random.Random(74)
    L = fix_str()
    D = dbar(L, random_derM1(L, rng))
    assert check_one_parameter(L, D, Fraction(2, 3), Fraction(-1, 2)) == (0, "exact")


def test_one_parameter_adbar_e_exact():
    # ad_e is nilpotent, so the whole one-parameter law holds exactly
    L = fix_str()
    D = adbar0_single(L, basis_vec(L.n0, 1, L.mode))
    assert _terminates(L, D)
    assert check_one_parameter(L, D, Fraction(1, 2), Fraction(1, 2)) == (0, "exact")


def test_one_parameter_float_residual():
    rng = random.Random(75)
    L = fix_str()
    basis = compute_der0_basis(L)
    for _ in range(5):
        D = small_der0(L, rng, basis)
        t = Fraction(rng.randint(-4, 4), 8)
        s = Fraction(rng.randint(-4, 4), 8)
        resid, mode = check_one_parameter(L, D, t, s)
        assert resid < 1e-9 and mode == ("exact" if _terminates(L, D) else "float")


def test_one_parameter_degree_m1():
    rng = random.Random(76)
    L = fix_str()
    T = random_derM1(L, rng)
    assert one_parameter_derM1(L, T, Fraction(1, 2), Fraction(1, 4)) == (0, "exact")
    L = fix_end()
    for _ in range(5):
        T = random_derM1(L, rng, dens=SMALL)
        resid, mode = one_parameter_derM1(L, T, Fraction(1, 2), Fraction(1, 4))
        assert resid < 1e-9 and mode == ("exact" if _terminates(L, T) else "float")


def test_one_parameter_checks_membership_once(monkeypatch):
    # one membership check, and one series of X0 and one of M for all three t
    L = fix_str()
    checks = _counting(monkeypatch, "is_derivation0")
    series = _counting_series(monkeypatch)
    ad_h, ad_e = (adbar0_single(L, basis_vec(L.n0, i, L.mode)) for i in (0, 1))
    for D, mode in ((ad_e, "exact"), (ad_h, "float")):
        del checks[:], series[:]
        assert check_one_parameter(L, D, Fraction(1, 2), Fraction(1, 4))[1] == mode
        assert (len(checks), len(series)) == (1, 2)
        assert all(len(ts) == 3 for _, ts, *_ in series)


def test_one_parameter_derM1_runs_one_series(monkeypatch):
    # one star series serves the three t, in either mode
    rng = random.Random(76)
    series = _counting_series(monkeypatch)
    modes = set()
    for L in (fix_str(), fix_end(), fix_end(), fix_end()):
        del series[:]
        T = random_derM1(L, rng, dens=SMALL)
        modes.add(one_parameter_derM1(L, T, Fraction(1, 2), Fraction(1, 4))[1])
        assert [len(ts) for _, ts, *_ in series] == [3]
    assert modes == {"exact", "float"}


def test_degree_m1_identities_decide_termination_once(monkeypatch):
    """`_joint_mode` tests theta d for nilpotency once; the exponentials run
    in the mode it decides, and the exact series stop at their first zero
    term, so no other nilpotency test runs."""
    L = fix_str()
    T = random_derM1(L, random.Random(76))
    calls = []
    for module in (integration, linalg):
        def counted(m, _original=module.nilpotency_index):
            calls.append(m)
            return _original(m)

        monkeypatch.setattr(module, "nilpotency_index", counted)
    for check in (lambda: one_parameter_derM1(L, T, Fraction(1, 2), Fraction(1, 3)),
                  lambda: check_commuting_square(L, T)):
        del calls[:]
        assert check() == (0, "exact")
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# the commuting square
# ---------------------------------------------------------------------------

def test_commuting_square_zero():
    L = fix_str()
    assert check_commuting_square(L, derM1_zero(L)) == (0, "exact")


def test_commuting_square_abelian():
    rng = random.Random(77)
    L = fix_ab()
    assert check_commuting_square(L, random_derM1(L, rng)) == (0, "exact")


def test_commuting_square_string_exact():
    rng = random.Random(78)
    L = fix_str()
    for _ in range(5):
        T = random_derM1(L, rng)
        assert check_commuting_square(L, T) == (0, "exact")


def test_commuting_square_endo_float():
    rng = random.Random(79)
    for dm in (Mat.from_rows([[1]]), rand_mat(random.Random(1), 2, 1)):
        L = make_endo(dm)
        for _ in range(5):
            T = random_derM1(L, rng, dens=SMALL)
            resid, mode = check_commuting_square(L, T)
            assert resid < 1e-9 and mode == "float"


# ---------------------------------------------------------------------------
# bracket recovery
# ---------------------------------------------------------------------------

def test_recover_bracket_self_is_zero():
    rng = random.Random(80)
    L = fix_str()
    basis = compute_der0_basis(L)
    D = small_der0(L, rng, basis)
    for got in recover_bracket(L, D, D):
        assert der0_distance(got, der0_zero(L).to_float()) < 1e-6


def test_recover_bracket_abelian_zero():
    rng = random.Random(81)
    L = fix_ab()
    D1, D2 = small_der0(L, rng), small_der0(L, rng)
    want = graded_bracket(L, D1, D2).to_float()
    for got in recover_bracket(L, D1, D2):
        assert der0_distance(got, want) < 1e-8


def test_recover_bracket_string_adjoint():
    L = fix_str()
    D1 = adbar0_single(L, basis_vec(L.n0, 0, L.mode))  # ad_h
    D2 = adbar0_single(L, basis_vec(L.n0, 1, L.mode))  # ad_e
    want = graded_bracket(L, D1, D2).to_float()
    for got in recover_bracket(L, D1, D2):
        assert der0_distance(got, want) < 1e-4


def test_recover_bracket_h2_convergence():
    rng = random.Random(82)
    L = fix_str()
    basis = compute_der0_basis(L)
    D1, D2 = small_der0(L, rng, basis), small_der0(L, rng, basis)
    want = graded_bracket(L, D1, D2).to_float()
    r1, r2 = (der0_distance(R, want) for R in recover_bracket(L, D1, D2))
    assert 3.5 <= r1 / r2 <= 4.5


def test_recover_bracket_degree_m1():
    rng = random.Random(83)
    L = fix_end()
    T1, T2 = random_derM1(L, rng, dens=SMALL), random_derM1(L, rng, dens=SMALL)
    want = graded_bracket(L, T1, T2).to_float()
    for got in recover_bracket_m1(L, T1, T2):
        assert mat_distance(got.theta, want.theta) < 1e-6


def ref_recover_bracket(L, D1, D2, cfg=ExpConfig()):
    """`recover_bracket` with each corner built on its own: fresh
    e^{+-(h/2)D} (squared for the h step), then (x y)(x^{-1} y^{-1}) with
    x = e^{s D1}, y = e^{t D2} at the corner (s, t)."""
    Lf, d1, d2 = L.to_float(), D1.to_float(), D2.to_float()
    h = integration._FD_STEP
    half = h / 2

    def element(D, s, squared):
        g = _exp_homs(Lf, D, (s,), cfg.order)[0]
        return compose_hom(g, g) if squared else g

    def corner(s, t, squared):
        x, y = element(d1, s, squared), element(d2, t, squared)
        xi, yi = element(d1, -s, squared), element(d2, -t, squared)
        return compose_hom(compose_hom(x, y), compose_hom(xi, yi))

    out = []
    for step, squared in ((h, True), (half, False)):
        pp, pm, mp, mm = (corner(s, t, squared)
                          for s, t in ((half, half), (half, -half), (-half, half), (-half, -half)))
        scale = 1.0 / (4.0 * step * step)
        out.append(Derivation0(((pp.A0 - pm.A0) - (mp.A0 - mm.A0)).scale(scale),
                               ((pp.A1 - pm.A1) - (mp.A1 - mm.A1)).scale(scale),
                               ((pp.A2 - pm.A2) - (mp.A2 - mm.A2)).scale(scale)))
    return tuple(out)


def ref_recover_bracket_m1(L, T1, T2, cfg=ExpConfig()):
    """`recover_bracket_m1` with each corner built on its own: fresh
    e^{+-(h/2) theta} (squared under star for the h step), then
    (x * y) * (x^{-1} * y^{-1}) with x = e^{s theta}, y = e^{t theta'} at
    the corner (s, t), x^{-1} and y^{-1} the star exponentials at -s, -t."""
    Lf, T1, T2 = L.to_float(), T1.to_float(), T2.to_float()
    h = integration._FD_STEP
    half = h / 2

    def element(T, s, squared):
        g = exp_derM1(Lf, T, s, cfg)
        return star(Lf, g, g) if squared else g

    def corner(s, t, squared):
        x, y = element(T1, s, squared), element(T2, t, squared)
        xi, yi = element(T1, -s, squared), element(T2, -t, squared)
        return star(Lf, star(Lf, x, y), star(Lf, xi, yi)).mat

    out = []
    for step, squared in ((h, True), (half, False)):
        m = ((corner(half, half, squared) - corner(half, -half, squared))
             - (corner(-half, half, squared) - corner(-half, -half, squared)))
        out.append(DerM1(m.scale(1.0 / (4.0 * step * step))))
    return tuple(out)


def _bracket_cases():
    """(label, algebra, D1, D2, T1, T2): full-size draws, as the
    bracket-recovery suite draws them, on the named examples and on 30
    random algebras."""
    algebras = ([(name, make()) for name, make in NAMED_EXAMPLES.items()]
                + [(f"random-{seed}", random_fixture(random.Random(seed))) for seed in range(30)])
    rng = random.Random(86)
    for label, L in algebras:
        basis = compute_der0_basis(L)
        D1, D2 = random_der0(L, rng, basis), random_der0(L, rng, basis)
        yield label, L, D1, D2, random_derM1(L, rng), random_derM1(L, rng)


def test_recover_bracket_equals_its_per_corner_reference_bit_for_bit(monkeypatch):
    cases = list(_bracket_cases())
    assert len(cases) == 34
    for step in (1e-3, 5e-4):
        monkeypatch.setattr(integration, "_FD_STEP", step)
        for label, L, D1, D2, T1, T2 in cases:
            got, want = recover_bracket(L, D1, D2), ref_recover_bracket(L, D1, D2)
            assert [(R.X0, R.X1, R.lX) for R in got] == [(R.X0, R.X1, R.lX) for R in want], label
            got_m1, want_m1 = recover_bracket_m1(L, T1, T2), ref_recover_bracket_m1(L, T1, T2)
            assert [R.theta for R in got_m1] == [R.theta for R in want_m1], label


def test_recover_bracket_from_squares_is_at_the_rounding_floor_of_the_direct_step(monkeypatch):
    # R(h) from the squares of e^{+-(h/2)D} against R(h) from e^{+-hD} built
    # at h, which is the h/2 estimate of the step 2h; they differ only by
    # rounding, whose floor in a quotient by 4 h^2 of corners of norm about
    # 1 is eps / (4 h^2), about 5.6e-11 (the 34 cases read at most 3 units)
    h = integration._FD_STEP
    floor = sys.float_info.epsilon / (4.0 * h * h)
    cases = list(_bracket_cases())
    squared = [recover_bracket(L, D1, D2)[0] for _, L, D1, D2, _, _ in cases]
    monkeypatch.setattr(integration, "_FD_STEP", 2 * h)
    for (label, L, D1, D2, _, _), R in zip(cases, squared):
        assert der0_distance(R, recover_bracket(L, D1, D2)[1]) <= 4 * floor, label


def _counting(monkeypatch, name, module=integration, calls=None):
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counting_series(monkeypatch):
    """The calls of the one Taylor loop, `truncated_exps`, whether
    `integration` or `linalg.block_exps` makes them: (m, ts, ...) each."""
    calls = _counting(monkeypatch, "truncated_exps")
    return _counting(monkeypatch, "truncated_exps", linalg, calls)


def test_recover_bracket_builds_four_exponentials_for_both_steps(monkeypatch):
    L = fix_str()
    D1 = adbar0_single(L, basis_vec(L.n0, 0, L.mode))
    D2 = adbar0_single(L, basis_vec(L.n0, 1, L.mode))
    series = _counting_series(monkeypatch)
    products = _counting(monkeypatch, "compose_hom")
    recover_bracket(L, D1, D2)
    # one series of X0 and one of M per generator, each for +-h/2; then 4
    # squares, and 4 products and 4 corners per step
    assert (len(series), len(products)) == (4, 20)
    assert all(ts == (integration._FD_STEP / 2, -integration._FD_STEP / 2) for _, ts, *_ in series)


def test_recover_bracket_m1_builds_four_exponentials_and_no_inverse(monkeypatch):
    rng = random.Random(87)
    L = fix_end()
    T1, T2 = random_derM1(L, rng), random_derM1(L, rng)
    series = _counting_series(monkeypatch)
    inverses = _counting(monkeypatch, "tau_inverse")
    products = _counting(monkeypatch, "star")
    recover_bracket_m1(L, T1, T2)
    # one series per generator for +-h/2; then 4 squares, and 4 products
    # and 4 corners per step
    assert (len(series), len(inverses), len(products)) == (2, 0, 20)


def test_crossed_module_check_forms_each_unit_image_and_inverse_once(monkeypatch):
    # partial(tau) once per unit and partial(A |> tau) once per pair, one
    # elimination each; every tau^{-1} is read off partial(tau)'s cached A0
    # inverse, so no tau_inverse runs, and each automorphism's inverse hom
    # is built once.  On endo-id2 I + d tau != I and tau^{-1} != -tau
    rng = random.Random(92)
    L = make_endo(Mat.identity(2))
    auts = [random_aut0(L, rng) for _ in range(2)]
    taus = [random_tau(L, rng, SMALL) for _ in range(2)]
    partials = _counting(monkeypatch, "partial", automorphisms)
    inverses = _counting(monkeypatch, "tau_inverse", automorphisms)
    aut_inverses = _counting(monkeypatch, "aut_inverse", automorphisms)
    eliminations = _counting(monkeypatch, "mat_inverse", automorphisms)
    assert [r for _, r in check_crossed_module(L, auts, taus)] == [0] * 8
    assert (len(partials), len(inverses)) == (2 + 2 * 2, 0)
    assert [A for A, in aut_inverses] == auts
    assert len(eliminations) == len(partials)


def test_conjugation_sample_builds_the_inverse_of_its_automorphism_once(monkeypatch):
    # conj0, conj_dbar and conj_adjoint share one aut_inverse(A) per sample
    inverses = _counting(monkeypatch, "aut_inverse")
    extra = _counting(monkeypatch, "aut_inverse", automorphisms)
    for L in (skeletal_demo(), make_endo(Mat.identity(2))):
        del inverses[:], extra[:]
        lines = check_conjugation_identities(L, random.Random(94), samples=2)
        assert {name.split("[")[0] for name, _, _ in lines} >= {"conj0", "conj_dbar", "conj_adjoint"}
        assert (len(inverses), len(extra)) == (2, 0)


def test_conjugation_sample_builds_e_theta_once_for_conj_m1_and_act_exp(monkeypatch):
    exps = _counting(monkeypatch, "_derM1_exps")
    modes = {name.split("[")[0]: mode
             for name, _, mode in check_conjugation_identities(fix_end(), random.Random(93), samples=1)}
    # e^theta, and the right sides e^{Ad(tau) theta} and e^{A1 theta A0^{-1}}
    assert len(exps) == 3
    assert modes["conj_m1"] == modes["act_exp"]


def test_theta_from_a2_keeps_the_float_mode_without_degree_m1():
    # n1 = 0: no entry could tell the mode, so the float algebra decides it
    L = make_skeletal(sl2_structure().to_float(), [Mat.zero(0, 0, "float")] * 3,
                      AltTensor.zero(3, 3, 0, "float"))
    theta = integration._theta_from_a2(L, aut_identity(L), (Fraction(1, 8),) * 3)
    assert theta.theta.mode == "float"
    assert dbar(L, theta).X0.mode == "float"


# ---------------------------------------------------------------------------
# semidirect exponential
# ---------------------------------------------------------------------------

def test_exp_semidirect_one_parameter_on_commuting_pairs():
    # the componentwise exponential (e^D, e^theta) is a one-parameter curve in
    # the semidirect group exactly when the two legs commute; differential
    # images on the string fixture have vanishing matrix parts, so they do
    rng = random.Random(85)
    L = fix_str()
    for _ in range(4):
        D = dbar(L, random_derM1(L, rng))
        T = random_derM1(L, rng)
        assert graded_bracket(L, D, T).is_zero()
        full = exp_der0(L, D.scale(2)), exp_derM1(L, T.scale(2))
        half = exp_der0(L, D), exp_derM1(L, T)
        assert {x.mode for x in (*full, *half)} == {"exact"}
        A, t = semidirect_multiply(L, half, half)
        assert hom_distance(full[0].hom, A.hom) == tau_distance(full[1], t) == 0


# ---------------------------------------------------------------------------
# conjugation identities
# ---------------------------------------------------------------------------

def test_conjugation_identities_string():
    rng = random.Random(86)
    L = fix_str()
    for name, resid, mode in check_conjugation_identities(L, rng, samples=3):
        if mode == "exact":
            assert resid == 0, name
        else:
            assert resid < 1e-9, (name, resid)


def test_conjugation_identities_endo():
    rng = random.Random(87)
    L = fix_end()
    for name, resid, mode in check_conjugation_identities(L, rng, samples=4):
        if mode == "exact":
            assert resid == 0, name
        else:
            assert resid < 1e-9, (name, resid)


def test_conjugation_identities_bigger_endo():
    rng = random.Random(88)
    L = make_endo(Mat.from_rows([[1], [0]]))
    for name, resid, mode in check_conjugation_identities(L, rng, samples=2):
        if mode == "exact":
            assert resid == 0, name
        else:
            assert resid < 1e-9, (name, resid)


def _conj_tau_der_algebras():
    return ([(name, f()) for name, f in NAMED_EXAMPLES.items()]
            + [("string-sl3", make_string(sl_structure(3))),
               ("endo-id2", make_endo(Mat.identity(2)))]
            + [(f"random-{seed}", random_fixture(random.Random(seed))) for seed in range(30)])


def test_conj_tau_der_holds_for_every_derivation_and_unit_tau():
    # tau * (e^D |> tau^{-1}) is the degree -1 leg of the one-parameter group
    # of Ad(tau) D = (D, theta) at 1, for D drawn from the whole Der^0 basis,
    # where X1 theta = theta X0 mostly fails; endo-id2 has d != 0 and
    # theta != 0, so there the X0 + d theta block differs from X0
    rng = random.Random(90)
    cfg = ExpConfig()
    modes = set()
    for name, L in _conj_tau_der_algebras():
        basis = compute_der0_basis(L)
        for _ in range(4 if name.startswith("random") else 2):
            D = small_der0(L, rng, basis)
            tau = random_tau(L, rng, SMALL)
            resid, mode = integration._conj_tau_der(L, cfg, D, tau)
            modes.add(mode)
            if mode == "exact":
                assert resid == 0, name
                continue
            Lf, Df, tf = L.to_float(), D.to_float(), tau.to_float()
            lhs = star(Lf, tf, act(Lf, exp_der0(Lf, Df), tau_inverse(Lf, tf)))
            assert resid <= 1e-12 * max(1.0, float(lhs.mat.max_abs())), (name, resid)
    assert modes == {"exact", "float"}


def test_one_non_terminating_leg_puts_every_operand_in_float():
    L = fix_end()
    T = random_derM1(L, random.Random(89), dens=SMALL)
    assert not _terminates(L, T) and _terminates(L, der0_zero(L))
    mode, Lm, (Df, Tf) = _joint_mode(L, (der0_zero(L), T))
    A = integration._der0_exps(Lm, Df, (1,), ExpConfig())[0]
    t = integration._derM1_exps(Lm, Tf, (1,), ExpConfig())[0]
    assert (mode, A.hom.A0.mode, A.a0_inv.mode, t.mat.mode) == ("float",) * 4
    resid, mode = check_commuting_square(L, T)
    assert resid < 1e-9 and mode == "float"
    # a float operand puts an identity in float, also one whose series terminates
    Ls = fix_str()
    resid, mode = check_commuting_square(Ls, random_derM1(Ls, random.Random(90)).to_float())
    assert resid < 1e-9 and mode == "float"


def test_joint_mode_follows_the_values():
    # exact iff the algebra and every value are exact and every exponentiated
    # series terminates; otherwise the algebra and all values go to float together
    rng = random.Random(91)
    L = fix_end()
    A, tau = random_aut0(L, rng), random_tau(L, rng, SMALL)
    D, T = der0_zero(L), derM1_zero(L)
    assert _terminates(L, D) and _terminates(L, T)
    mode, Lm, got = _joint_mode(L, (D, T), A, tau)
    assert mode == "exact" and Lm is L and all(g is v for g, v in zip(got, (D, T, A, tau)))
    nonterm = DerM1(Mat.from_rows([[Fraction(1, 2)]]))  # theta d = 1/2 (d = 1)
    assert not _terminates(L, nonterm)
    exact = [D, T, A, tau]
    cases = [exact[:i] + [exact[i].to_float()] + exact[i + 1:] for i in range(4)]
    cases.append([D, nonterm, A, tau])
    for d, t, a, ta in cases:
        for exps, operands in (((d, t), (a, ta)), ((t,), (d, a, ta))):
            mode, Lm, got = _joint_mode(L, exps, *operands)
            assert mode == "float" and Lm.mode == "float"
            assert [type(g) for g in got] == [type(v) for v in (*exps, *operands)]
            assert {g.mode for g in got} == {"float"}
    # Aut0.to_float converts the hom and both cached inverses
    Af = A.to_float()
    parts = (Af.hom.A0, Af.hom.A1, Af.hom.A2, Af.a0_inv, Af.a1_inv)
    assert {Af.mode, Af.algebra.mode, Af.hom.target.mode} | {x.mode for x in parts} == {"float"}
    assert Af.hom == A.hom.to_float()
    assert (Af.a0_inv, Af.a1_inv) == (A.a0_inv.to_float(), A.a1_inv.to_float())


def test_ad_tau_der0_matches_first_order_conjugation():
    # d/dt at 0 of tau * (e^{tD} |> tau^{-1}) is the degree -1 part of the
    # conjugated pair; this is the full content of the conjugation formula
    # for general (non-commuting) draws
    rng = random.Random(95)
    from lie2alg.core import make_endo, make_skeletal, make_string
    for L in (fix_str(), make_endo(Mat.from_rows([[1], [0]]))):
        basis = compute_der0_basis(L)
        for _ in range(3):
            D = random_der0(L, rng, basis, dens=SMALL)
            tau = random_tau(L, rng, SMALL)
            _, want = ad_conjugate(L, tau, D)
            Lf = L.to_float()
            tf = tau.to_float()
            fcfg = ExpConfig(order=30)
            h = 1e-5

            def curve(t):
                eD = exp_der0(Lf, D.to_float().scale(t), 1, fcfg)
                return star(Lf, tf, act(Lf, eD, tau_inverse(Lf, tf))).mat

            got = (curve(h) - curve(-h)).scale(1.0 / (2.0 * h))
            assert mat_distance(got, want.theta.to_float()) < 1e-7


def test_ad_matches_first_order_conjugation():
    # Ad(A) theta against the s-derivative of A |> e^{s theta} at 0
    rng = random.Random(89)
    L = fix_str()
    A = random_aut0(L, rng)
    T = random_derM1(L, rng)
    want = ad_conjugate(L, A, T).theta.to_float()
    h = 1e-6
    Lf = L.to_float()
    Af = A.to_float()
    plus = act(Lf, Af, exp_derM1(Lf, T.to_float(), h)).mat
    minus = act(Lf, Af, exp_derM1(Lf, T.to_float(), -h)).mat
    got = (plus - minus).scale(1.0 / (2.0 * h))
    assert mat_distance(got, want) < 1e-8


# ---------------------------------------------------------------------------
# exponentials of the inner and degree -1 bases
# ---------------------------------------------------------------------------

def test_inn_generators_abelian():
    # no inner degree-0 generators; one degree -1 generator, whose series
    # stops at theta (d = 0)
    L = fix_ab()
    assert inn0_basis(L) == []
    assert [exp_derM1(L, T).mat for T in derM1_basis(L)] == [Mat.identity(1)]


def test_float_inn_generators_of_abelian_multiply():
    # endo-1-1 is abelian with d = 1, so no generator's series terminates:
    # every generator lives over the float copy, identity and tau alike
    L = fix_end()
    gens = [(A, tau_zero(A.algebra)) for A in (exp_der0(L, D) for D in inn0_basis(L))]
    gens += [(aut_identity(L.to_float()), exp_derM1(L, T)) for T in derM1_basis(L)]
    assert len(gens) == 2
    for p, q in itertools.product(gens, gens):
        A, t = semidirect_multiply(p[0].algebra, p, q)
        assert A.hom.A0.mode == t.mat.mode == "float"
    assert all((A.algebra.mode, A.hom.A0.mode, t.mat.mode) == ("float",) * 3 for A, t in gens)


def test_float_exponential_composes_with_the_identity_of_its_algebra():
    L = fix_ab()
    A = exp_der0(L, der0_zero(L).to_float())
    AI = aut_compose(A, aut_identity(A.algebra))
    assert A.algebra.mode == AI.hom.A0.mode == "float"
    assert hom_distance(AI.hom, A.hom) == 0


def test_inn_generators_string_counts():
    L = fix_str()
    inner, degm1 = inn0_basis(L), derM1_basis(L)
    assert (len(inner), len(degm1)) == (6, 3)
    for D in inner:
        A = exp_der0(L, D)
        rep = validate_hom(A.hom)
        assert rep.ok if A.mode == "exact" else rep.max_value() < 1e-9
    for T in degm1:
        t = exp_derM1(L, T)
        assert tau_inverse(L if t.mode == L.mode else L.to_float(), t) is not None


def test_random_aut0_sampler_is_exact():
    rng = random.Random(90)
    for L in (fix_str(), fix_end()):
        for _ in range(3):
            A = random_aut0(L, rng)
            assert A.hom.A0.mode == "exact"
            assert validate_hom(A.hom).ok


def test_the_conjugation_suite_finds_the_nilpotent_derivations_once(monkeypatch):
    # random_aut0 draws from the caller's list, with the same draws as the
    # list it would compute
    for L in (fix_str(), skeletal_demo()):
        rng, ref = random.Random(4), random.Random(4)
        nilpotent = nilpotent_derivations(L, compute_der0_basis(L))
        assert random_aut0(L, rng, nilpotent=nilpotent) == random_aut0(L, ref)
        assert rng.getstate() == ref.getstate()
    calls = []
    find = integration.nilpotent_derivations
    monkeypatch.setattr(integration, "nilpotent_derivations",
                        lambda L, basis: calls.append(1) or find(L, basis))
    check_conjugation_identities(fix_str(), random.Random(1), samples=2)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the block exponentials against the series they replaced
# ---------------------------------------------------------------------------

def _ref_exp_a2(D, t, nmax):
    """The 2-component series as a triple loop: sum_{n>=1} t^n/n!
    sum_{i+j+k=n-1} binom(i+j, i) X1^k lX(X0^i x, X0^j y), summed to nmax."""
    n0, n1 = D.X0.rows, D.X1.rows
    mode = D.X0.mode
    pows0 = [Mat.identity(n0, mode)]
    pows1 = [Mat.identity(n1, mode)]
    for _ in range(nmax):
        pows0.append(pows0[-1] @ D.X0)
        pows1.append(pows1[-1] @ D.X1)
    zero = Fraction(0) if mode == "exact" else 0.0
    t = Fraction(t) if mode == "exact" else float(t)
    acc = {}
    for p, q in itertools.combinations(range(n0), 2):
        total = [zero] * n1
        for n in range(1, nmax + 1):
            coeff = t ** n / math.factorial(n)
            for i in range(n):
                for j in range(n - i):
                    v = D.lX.eval(pows0[i].col(p), pows0[j].col(q))
                    v = pows1[n - 1 - i - j].apply(v)
                    for c in range(n1):
                        total[c] += coeff * math.comb(i + j, i) * v[c]
        acc[(p, q)] = total
    return AltTensor(2, n0, n1, acc, mode)


def _ref_exp_derM1(L, T, t, nmax):
    """theta + theta d theta / 2! + ... summed to nmax terms."""
    exact = T.theta.mode == "exact"
    theta = T.theta.scale(Fraction(t) if exact else float(t))
    td = theta @ L.d
    acc = Mat.zero(L.n1, L.n0, T.theta.mode)
    power = theta
    for n in range(1, nmax + 1):
        acc = acc + power.scale(Fraction(1, math.factorial(n)) if exact else 1.0 / math.factorial(n))
        power = td @ power
    return acc


def _differential_fixtures():
    named = [mk() for mk in NAMED_EXAMPLES.values()]
    return named + [random_fixture(random.Random(seed)) for seed in range(10)]


def _nilpotent_derivations(L, rng):
    """Terminating basis derivations at random scales, and sums of pairs
    of them that still terminate."""
    basis = [D for D in compute_der0_basis(L) if _terminates(L, D)]
    out = [D.scale(Fraction(rng.randint(1, 5), rng.randint(1, 3))) for D in basis]
    for D1, D2 in itertools.combinations(basis, 2):
        D = D1 + D2.scale(Fraction(rng.randint(-3, 3), 2))
        if _terminates(L, D):
            out.append(D)
    return out


def _random_nilpotent(rng, n):
    """A strictly triangular matrix conjugated by a random permutation, so
    its entries sit on both sides of the diagonal."""
    perm = list(range(n))
    rng.shuffle(perm)
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        entries[perm[i]][perm[j]] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Mat.from_rows(entries)


def _relative_close(got, want, dist):
    return dist(got, want) <= 1e-12 * max(1.0, float(want.max_abs()))


def test_block_exp_equals_series_on_nilpotent_derivations():
    rng = random.Random(96)
    with_x0_and_lx = 0
    for L in _differential_fixtures():
        for D in _nilpotent_derivations(L, rng):
            p0, p1 = nilpotency_index(D.X0), nilpotency_index(D.X1)
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            A = exp_der0(L, D, t)
            assert A.hom.A0 == truncated_exp(D.X0, t)
            assert A.hom.A1 == truncated_exp(D.X1, t)
            assert A.hom.A2 == _ref_exp_a2(D, t, max(1, 2 * p0 + p1 - 2))
            with_x0_and_lx += not D.X0.is_zero() and not D.lX.is_zero()
    assert with_x0_and_lx >= 4


def test_block_exp_equals_series_on_random_nilpotent_triples():
    # no derivation property is needed for the identity, so every entry of
    # X0 (above and below the diagonal) and every pair of lX takes part
    rng = random.Random(97)
    for n0, n1 in ((2, 1), (3, 2), (4, 1), (4, 3)):
        for _ in range(3):
            D = Derivation0(_random_nilpotent(rng, n0), _random_nilpotent(rng, n1),
                            rand_cochain(rng, 2, n0, n1))
            nmax = 2 * nilpotency_index(D.X0) + nilpotency_index(D.X1)
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert _exp_homs(_abelian(n0, n1), D, (t,), 24)[0].A2 == _ref_exp_a2(D, t, nmax)


def test_block_exp_float_matches_series():
    rng = random.Random(98)
    for L in _differential_fixtures():
        Lf = L.to_float()
        basis = compute_der0_basis(L)
        for _ in range(2):
            D = small_der0(L, rng, basis).to_float()
            t = rng.uniform(-1.0, 1.0)
            got = _exp_homs(Lf, D, (t,), 24)[0]
            assert got.A2.mode == "float" or got.A2.is_zero()
            assert _relative_close(got.A2, _ref_exp_a2(D, t, 24), tensor_distance)
            assert _relative_close(got.A1, truncated_exp(D.X1.to_float(), t, 24), mat_distance)


def test_star_exp_equals_series():
    rng = random.Random(99)
    exact = 0
    for L in _differential_fixtures():
        for _ in range(3):
            T = random_derM1(L, rng, dens=SMALL)
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            q = nilpotency_index(T.theta @ L.d)
            if q is not None:
                exact += 1
                assert exp_derM1(L, T, t).mat == _ref_exp_derM1(L, T, t, q)
            Lf, Tf = L.to_float(), T.to_float()
            got = exp_derM1(Lf, Tf, float(t)).mat
            assert _relative_close(got, _ref_exp_derM1(Lf, Tf, float(t), 24), mat_distance)
    assert exact >= 10


def _abelian(n0, n1):
    return Lie2Algebra(n0, n1, Mat.zero(n0, n1), AltTensor.zero(2, n0, n0),
                       [Mat.zero(n1, n1)] * n0, AltTensor.zero(3, n0, n1))


def test_block_exp_small_degree_zero_space():
    # n0 = 0 and n0 = 1 leave no basis pair: A2 is the empty tensor
    half = Fraction(1, 2)
    for L in (_abelian(0, 2), fix_end()):
        D = Derivation0(Mat.identity(L.n0).scale(half), Mat.identity(L.n1).scale(half),
                        AltTensor.zero(2, L.n0, L.n1))
        A = exp_der0(L, D, 1)  # X1 is not nilpotent, so this runs in float
        assert A.hom.A2.is_zero() and (A.hom.A2.dim, A.hom.A2.codim) == (L.n0, L.n1)
        assert mat_distance(A.hom.A1, Mat.identity(L.n1, "float").scale(math.exp(0.5))) < 1e-14
    L = fix_end()
    D = Derivation0(Mat.zero(1, 1), Mat.zero(1, 1), AltTensor.zero(2, 1, 1))
    assert exp_der0(L, D, 1).hom == aut_identity(L).hom


def test_block_exp_nilpotent_wedge_action_still_runs_in_float():
    # on Lam^2 of a plane, X0 = diag(1, -1) acts by its trace, 0: M's
    # lower block is nilpotent although X0 is not
    L = _abelian(2, 1)
    lx = AltTensor(2, 2, 1, {(0, 1): (Fraction(1, 3),)})
    D = Derivation0(Mat.from_rows([[1, 0], [0, -1]]), Mat.from_rows([[Fraction(1, 2)]]), lx)
    assert not _terminates(L, D)
    A = exp_der0(L, D, 1)
    assert A.hom.A0.mode == A.hom.A1.mode == A.hom.A2.mode == "float"
    assert _relative_close(A.hom.A2, _ref_exp_a2(D.to_float(), 1.0, 24), tensor_distance)
    # the integral of e^{(1-s)/2} ds over [0, 1] is 2(e^{1/2} - 1)
    assert abs(A.hom.A2.eval_basis(0, 1)[0] - 2 * math.expm1(0.5) / 3) < 1e-14


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e12])
def test_block_exp_large_off_diagonal_block_keeps_accuracy(scale):
    # lX far larger than X0 and X1 must not add squarings to A1 = e^{tX1}
    rng = random.Random(100)
    n0, n1, t = 3, 2, 0.5
    lx = AltTensor(2, n0, n1, {pq: tuple(rng.uniform(-scale, scale) for _ in range(n1))
                               for pq in itertools.combinations(range(n0), 2)})
    D = Derivation0(Mat(n0, n0, [rng.uniform(-1, 1) for _ in range(n0 * n0)]),
                    Mat(n1, n1, [rng.uniform(-3, 3) for _ in range(n1 * n1)]), lx)
    got = _exp_homs(_abelian(n0, n1).to_float(), D, (t,), 24)[0]
    want = truncated_exp(D.X1.to_float(), t, 24)
    assert mat_distance(got.A1, want) <= 1e-14 * float(want.max_abs())
    assert _relative_close(got.A2, _ref_exp_a2(D, t, 24), tensor_distance)


def test_star_exp_large_theta_keeps_accuracy():
    # d = 2^-20, theta = 2^20: theta d = 1 and e^theta = 2^20 (e - 1)
    d = Mat.from_rows([[2.0 ** -20]])
    L = Lie2Algebra(1, 1, d, AltTensor.zero(2, 1, 1, "float"), [Mat.zero(1, 1, "float")],
                    AltTensor.zero(3, 1, 1, "float"))
    got = exp_derM1(L, DerM1(Mat.from_rows([[2.0 ** 20]])), 1.0).mat.at(0, 0)
    assert abs(got - 2.0 ** 20 * math.expm1(1.0)) <= 1e-14 * got


@pytest.mark.parametrize("t", [4, 8])
def test_one_parameter_large_time_scales_and_squares(t):
    # order-24 Taylor truncation at ||tD|| = 1.5 * 2t diverges without scaling
    L = fix_end()
    x = Mat.from_rows([[Fraction(3, 2)]])
    D = Derivation0(x, x, AltTensor.zero(2, 1, 1))
    big = exp_der0(L, D, 2 * t).hom
    largest = max(float(big.A0.max_abs()), float(big.A1.max_abs()))
    resid, mode = check_one_parameter(L, D, t, t)
    assert resid <= 1e-9 * max(1.0, largest) and mode == "float"


def test_star_exp_large_time_scales_and_squares():
    # d = 1 in the endo fixture: e^{8 theta} = e^{8 t} - 1 for theta = (t)
    L = fix_end()
    got = exp_derM1(L, DerM1(Mat.from_rows([[3]])), 8).mat.at(0, 0)
    assert abs(got - math.expm1(24.0)) <= 1e-12 * math.expm1(24.0)


def test_float_residuals_start_at_float_zero():
    L = strict_sl2()
    r, mode = one_parameter_derM1(L, derM1_zero(L).to_float(), Fraction(1, 2), Fraction(1, 3))
    assert mode == "float" and type(r) is float and r == 0
    rep = validate_lie2(fix_ab().to_float())
    assert [type(res.value) for _, res in rep] == [float] * 5
    assert type(rep.max_value()) is float
    exact_max = validate_lie2(fix_ab()).max_value()
    assert type(exact_max) in (int, Fraction) and exact_max == 0
    Z = Mat.zero(0, 0, "float")
    assert type(Z.max_abs()) is float and type(mat_distance(Z, Z)) is float
    T = AltTensor.zero(2, 2, 1, "float")
    assert type(T.max_abs()) is float and type(tensor_distance(T, T)) is float


def _conjugated_lx_by_formula(A, D):
    """lX of Ad(A) D entry by entry: A1 lX(u, v) - X1' A2(u, v) + A2(X0 u, v)
    + A2(u, X0 v), with u, v columns of A0^{-1} and X1' = A1 X1 A1^{-1}."""
    H = A.hom
    X1 = H.A1 @ D.X1 @ A.a1_inv

    def val(key):
        u, v = (A.a0_inv.col(i) for i in key)
        r = H.A1.apply(D.lX.eval(u, v))
        r = vsub(r, X1.apply(H.A2.eval(u, v)))
        r = vadd(r, H.A2.eval(D.X0.apply(u), v))
        return vadd(r, H.A2.eval(u, D.X0.apply(v)))

    return AltTensor.from_function(2, H.A2.dim, H.A2.codim, val, H.A0.mode)


def test_ad_conjugate_lx_is_the_cochain_action_formula():
    algebras = [make() for make in NAMED_EXAMPLES.values()]
    algebras += [random_fixture(random.Random(seed)) for seed in range(30)]
    for seed, L in enumerate(algebras):
        rng = random.Random(seed)
        basis = compute_der0_basis(L)
        nilpotent = nilpotent_derivations(L, basis)
        for _ in range(3):
            A = random_aut0(L, rng, nilpotent=nilpotent)
            D = random_der0(L, rng, basis)
            assert ad_conjugate(L, A, D).lX == _conjugated_lx_by_formula(A, D)


def test_a_float_t_on_an_exact_series_raises_as_scale_does():
    # an exact series takes t through the exact scalar check: a float t no
    # longer turns into the dyadic rational it stands for
    m = Mat(2, 2, [0, 1, 0, 0])
    with pytest.raises(ModeError):
        m.scale(0.1)
    with pytest.raises(ModeError):
        truncated_exp(m, 0.1)
    assert truncated_exp(m, Fraction(1, 10)) == Mat(2, 2, [1, Fraction(1, 10), 0, 1])
    assert truncated_exp(m, 3).data == (1, 3, 0, 1)
    assert truncated_exp(m.to_float(), Fraction(1, 10)).data == (1.0, 0.1, 0.0, 1.0)
    L = skeletal_demo()
    D = next(D for D in compute_der0_basis(L) if _terminates(L, D))
    with pytest.raises(ModeError):
        exp_der0(L, D, t=0.1)
    assert exp_der0(L, D, t=Fraction(1, 10)).mode == exp_der0(L, D, t=2).mode == "exact"
