"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here: exact criteria compare against literal
zero; float criteria use the stated bounds (1e-9 for truncated series at
order 24, 1e-4 for finite-difference bracket recovery at h = 1e-3, and a
halving factor within [3.5, 4.5] for the h^2 convergence check).
"""

import itertools
import random
import time
from fractions import Fraction

from lie2alg.automorphisms import (
    Tau,
    aut_compose,
    certify_aut0,
    check_crossed_module,
    classify_automorphism,
    random_tau,
    star,
    tau_inverse,
    tau_is_invertible,
)
from lie2alg.cli import run
from lie2alg.core import Lie2Hom, make_endo, validate_lie2
from lie2alg.derivations import (
    classify_derivation,
    compute_der0_basis,
    der0_distance,
    flatten_der0,
    graded_bracket,
    inn0_basis,
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
    strict_sl2,
    string_aut_hom,
)
from lie2alg.integration import (
    ExpConfig,
    _terminates,
    check_commuting_square,
    check_conjugation_identities,
    check_one_parameter,
    one_parameter_derM1,
    random_aut0,
    recover_bracket,
)
from lie2alg.linalg import AltTensor, Mat, mat_inverse, solve


def _report(num, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status} time={elapsed:.2f}s budget={budget}s {detail}")


def test_criterion_1_axioms():
    t0 = time.perf_counter()
    failures = []
    for name, L in (("abelian", fix_ab()), ("endo", fix_end()),
                    ("string", fix_str()), ("skeletal", skeletal_demo())):
        rep = validate_lie2(L)
        if not rep.ok:
            failures.append((name, rep.violated()))
    # single-entry perturbations of the string fixture, each flagged with
    # the axiom it breaks
    L = fix_str()
    d_pert = Mat.from_cols([(1, 0, 0)], 3)
    rep = validate_lie2(type(L)(3, 1, d_pert, L.b00, L.b01, L.l3))
    if not ({"a1", "b2"} & set(rep.violated())):
        failures.append(("d-perturbation", rep.violated()))
    entries = dict(L.b00.entries)
    entries[(0, 1)] = (1, 2, 0)
    rep = validate_lie2(type(L)(3, 1, L.d, AltTensor(2, 3, 3, entries), L.b01, L.l3))
    if "b1" not in rep.violated():
        failures.append(("bracket-perturbation", rep.violated()))
    b01 = (Mat.from_rows([[1]]),) + L.b01[1:]
    rep = validate_lie2(type(L)(3, 1, L.d, L.b00, b01, L.l3))
    if "b2" not in rep.violated():
        failures.append(("action-perturbation", rep.violated()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(1, ok, elapsed, 1, f"failures={failures}")
    assert not failures and elapsed < 1.0


def test_criterion_2_derivation_dims():
    t0 = time.perf_counter()
    code, text = run(["der", "string-sl2"])
    ok = code == 0 and "dim Der^0 = 6" in text and "dim Der^-1 = 3" in text
    strict_dim = len(compute_der0_basis(strict_sl2()))
    ok = ok and strict_dim == 3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(2, ok, elapsed, 1, f"strict_sl2_dim={strict_dim}")
    assert ok


def test_criterion_3_derivation_lie2():
    from lie2alg.derivations import build_der_lie2
    t0 = time.perf_counter()
    rng = random.Random(2024)
    failures = []
    for i in range(20):
        L = random_fixture(rng)
        assert L.n0 <= 3 and L.n1 <= 2
        der = build_der_lie2(L)
        rep = validate_lie2(der.algebra)
        if not (rep.ok and der.algebra.l3.is_zero()):
            failures.append((i, rep.violated()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(3, ok, elapsed, 10, f"failures={failures}")
    assert not failures and elapsed < 10.0


def test_criterion_4_crossed_module():
    t0 = time.perf_counter()
    rng = random.Random(7)
    worst = Fraction(0)
    count = 0
    for L, n in ((fix_str(), 8), (fix_end(), 8)):
        auts = [random_aut0(L, rng) for _ in range(n)]
        taus = [random_tau(L, rng) for _ in range(n)]
        for _, resid in check_crossed_module(L, auts, taus):
            worst = max(worst, resid)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst == 0 and count >= 100 and elapsed < 5.0
    _report(4, ok, elapsed, 5, f"samples={count} worst={worst}")
    assert ok


def test_criterion_5_invertibility_lemma():
    t0 = time.perf_counter()
    rng = random.Random(13)
    checked = 0
    singular = 0
    bad = []
    fixtures = [fix_end(), make_endo(Mat.from_rows([[1], [0]])), fix_str()]
    while checked < 120:
        L = fixtures[checked % len(fixtures)]
        t = Tau(rand_mat(rng, L.n1, L.n0))
        left = mat_inverse(Mat.identity(L.n0) + L.d @ t.mat) is not None
        right = mat_inverse(Mat.identity(L.n1) + t.mat @ L.d) is not None
        unit = tau_is_invertible(L, t)
        if not (left == right == unit):
            bad.append(t)
        if unit:
            ti = tau_inverse(L, t)
            lhs = mat_inverse(Mat.identity(L.n0) + L.d @ t.mat)
            rhs = Mat.identity(L.n0) + L.d @ ti.mat
            if lhs != rhs:
                bad.append(("inverse-formula", t))
        else:
            singular += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and singular > 0 and elapsed < 5.0
    _report(5, ok, elapsed, 5, f"checked={checked} singular={singular}")
    assert ok


def test_criterion_6_integration_square():
    t0 = time.perf_counter()
    rng = random.Random(21)
    cfg = ExpConfig(order=24, tol=1e-9)
    # exact on the string fixture (terminating series)
    L = fix_str()
    exact_bad = []
    for _ in range(10):
        T = random_derM1(L, rng)
        assert _terminates(L, T)
        r, mode = check_commuting_square(L, T, cfg)
        if r != 0 or mode != "exact":
            exact_bad.append(r)
    # float mode over endomorphism fixtures with nontrivial differentials
    fixtures = [fix_end(), make_endo(Mat.from_rows([[1], [0]])),
                make_endo(rand_mat(random.Random(3), 2, 1))]
    worst = 0.0
    count = 0
    for i in range(51):
        L = fixtures[i % len(fixtures)]
        T = random_derM1(L, rng, dens=(8, 16))
        worst = max(worst, float(check_commuting_square(L, T, cfg)[0]))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = not exact_bad and worst < 1e-9 and count >= 50 and elapsed < 10.0
    _report(6, ok, elapsed, 10, f"float_draws={count} worst={worst:.2e}")
    assert ok


def test_criterion_7_one_parameter():
    t0 = time.perf_counter()
    rng = random.Random(42)
    cfg = ExpConfig(order=24, tol=1e-9)
    worst = 0.0
    count = 0
    for L in (fix_str(), fix_end()):
        for _ in range(13):
            D = random_der0(L, rng, dens=(8, 16))
            t = Fraction(rng.randint(-8, 8), 8)
            s = Fraction(rng.randint(-8, 8), 8)
            worst = max(worst, float(check_one_parameter(L, D, t, s, cfg)[0]))
            count += 1
            T = random_derM1(L, rng, dens=(8, 16))
            worst = max(worst, float(one_parameter_derM1(L, T, t, s, cfg)[0]))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and count >= 50 and elapsed < 10.0
    _report(7, ok, elapsed, 10, f"draws={count} worst={worst:.2e}")
    assert ok


def test_criterion_8_bracket_recovery():
    t0 = time.perf_counter()
    rng = random.Random(99)
    worst = 0.0
    ratios = []
    for L in (fix_str(), make_endo(Mat.from_rows([[1], [0]]))):
        for _ in range(3):
            D1 = random_der0(L, rng)
            D2 = random_der0(L, rng)
            want = graded_bracket(L, D1, D2).to_float()
            r1, r2 = (der0_distance(R, want) for R in recover_bracket(L, D1, D2))
            worst = max(worst, float(r1))
            if r2 > 1e-9:
                ratios.append(r1 / r2)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and ratios and all(3.5 <= r <= 4.5 for r in ratios) and elapsed < 30.0
    _report(8, ok, elapsed, 30, f"worst={worst:.2e} ratios={[f'{r:.2f}' for r in ratios]}")
    assert ok


def test_criterion_9_conjugation_identities():
    t0 = time.perf_counter()
    cfg = ExpConfig(order=24, tol=1e-9)
    failures = []
    counts = {}
    for L, seed in ((fix_str(), 5), (fix_end(), 6)):
        rng = random.Random(seed)
        for name, resid, mode in check_conjugation_identities(L, rng, cfg, samples=13):
            key = name.split("[")[0]
            counts[key] = counts.get(key, 0) + 1
            if mode == "exact":
                if resid != 0:
                    failures.append((name, resid))
            elif float(resid) >= 1e-9:
                failures.append((name, resid))
    elapsed = time.perf_counter() - t0
    ok = not failures and all(c >= 25 for c in counts.values()) and elapsed < 30.0
    _report(9, ok, elapsed, 30, f"per_identity={min(counts.values())} failures={failures[:3]}")
    assert ok


def test_criterion_10_ideals_and_substructures():
    t0 = time.perf_counter()
    rng = random.Random(77)
    failures = []
    # inn^0 closed under bracketing with Der^0 (exact rank test)
    for L in (fix_str(), fix_end(), skeletal_demo()):
        inn = inn0_basis(L)
        basis = compute_der0_basis(L)
        if inn:
            span = Mat.from_cols([flatten_der0(L, D) for D in inn],
                                 len(flatten_der0(L, inn[0])))
            for D in basis:
                for I in inn:
                    if solve(span, flatten_der0(L, graded_bracket(L, D, I))) is None:
                        failures.append(("ideal", L))
    # homotopy derivations closed under the graded bracket
    L = skeletal_demo()
    from lie2alg.core import lie_ad_matrices
    from lie2alg.derivations import DerM1
    ads = lie_ad_matrices(sl2_structure())
    theta = DerM1(ads[0] + ads[2].scale(Fraction(1, 2)))
    if not classify_derivation(L, theta)["homotopy"]:
        failures.append(("homotopy-sample", theta))
    for _ in range(5):
        D = random_der0(L, rng)
        if not classify_derivation(L, graded_bracket(L, D, theta))["homotopy"]:
            failures.append(("homotopy-closure", D))
    # strict flags stable under composition / star
    L = fix_str()
    s1 = certify_aut0(L, Lie2Hom(L, L, string_aut_hom(L, rng).A0, Mat.identity(1),
                                 AltTensor.zero(2, 3, 1)))
    s2 = certify_aut0(L, Lie2Hom(L, L, string_aut_hom(L, rng).A0, Mat.identity(1),
                                 AltTensor.zero(2, 3, 1)))
    if not classify_automorphism(L, aut_compose(s1, s2))["strict"]:
        failures.append(("strict-compose", None))
    Le = fix_end()
    stricts = [t for t in (random_tau(Le, rng) for _ in range(6))
               if classify_automorphism(Le, t)["strict"]]
    for t1, t2 in itertools.product(stricts, stricts):
        if not classify_automorphism(Le, star(Le, t1, t2))["strict"]:
            failures.append(("strict-star", (t1, t2)))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(10, ok, elapsed, 10, f"failures={failures[:3]}")
    assert ok
