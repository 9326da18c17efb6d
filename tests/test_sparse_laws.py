"""Differential tests of the sparse law evaluators.

`validate_lie2`, `validate_hom`, the degree-0 derivation conditions, the
cochain action `lie_cochain_action`, `dbar`, the 2-component of the
tau-twist `twist_hom` and `adbar0_single` sum over the nonzero structure
constants only.  The references below are the earlier evaluators, which
apply every law to unit basis vectors through dense vectors, with [x, a]
summed one full vector per coordinate of x (`_bracket01_reference`); both
must give the same ResidualReport: the same value, of the same type, and
the same witness, for every key.  Exact values are equal.  Float values
are equal bit for bit where builtin `sum` adds floats left to right
(before Python 3.12) and within 1e-12 relative otherwise.
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

from lie2alg.automorphisms import Tau, twist_hom
from lie2alg.core import (
    Lie2Algebra,
    Lie2Hom,
    Residual,
    ResidualReport,
    ce_coboundary,
    hom_identity,
    lie_ad_matrices,
    make_endo,
    make_skeletal,
    make_string,
    validate_hom,
    validate_lie2,
)
from lie2alg.derivations import (
    Derivation0,
    DerM1,
    _der0_flat_len,
    adbar,
    adbar0_single,
    build_der_lie2,
    compute_der0_basis,
    dbar,
    der0_constraints,
    derM1_basis,
    is_derivation0,
    lie_cochain_action,
    random_der0,
    random_derM1,
    unflatten_der0,
)
from lie2alg.fileio import parse_element
from lie2alg.fixtures import (
    NAMED_EXAMPLES,
    abelian_structure,
    aff1_sum_structure,
    fix_end,
    fix_str,
    rand_cochain,
    rand_mat,
    rand_vec,
    random_fixture,
    sl2_structure,
    sl_structure,
    string_aut_hom,
    trivial_rep,
)
from lie2alg.linalg import (
    SPARSE_ZERO,
    AltTensor,
    Mat,
    basis_vec,
    kernel_basis,
    sparse_apply,
    sparse_comb,
    sparse_sum,
    vadd,
    vmax_abs,
    vscale,
    vsub,
    vzero,
)

BITWISE = sys.version_info < (3, 12)


# ---------------------------------------------------------------------------
# references: the unit-vector evaluators
# ---------------------------------------------------------------------------

class _RefAcc:
    def __init__(self, mode):
        self.value = Fraction(0) if mode == "exact" else 0.0
        self.witness = None

    def add(self, vec, witness):
        m = vmax_abs(vec)
        if m > self.value:
            self.value = m
            self.witness = witness

    def residual(self):
        return Residual(self.value, self.witness)


def _bracket01_reference(L, x, a):
    """[x, a] as a sum of full vectors, one per nonzero coordinate of x."""
    out = tuple(Fraction(0) if L.mode == "exact" else 0.0 for _ in range(L.n1))
    for i, xi in enumerate(x):
        if xi != 0:
            out = tuple(o + xi * v for o, v in zip(out, L.b01[i].apply(a)))
    return out


def ref_validate_lie2(L):
    n0, n1 = L.n0, L.n1
    acc = {k: _RefAcc(L.mode) for k in ("a1", "a2", "b1", "b2", "c")}
    e0 = [basis_vec(n0, i, L.mode) for i in range(n0)]
    e1 = [basis_vec(n1, a, L.mode) for a in range(n1)]

    for i in range(n0):
        for a in range(n1):
            lhs = L.d.apply(_bracket01_reference(L, e0[i], e1[a]))
            rhs = L.b00.eval(e0[i], L.d.col(a))
            acc["a1"].add(vsub(lhs, rhs), (i, a))

    for a in range(n1):
        for b in range(a, n1):
            r = vadd(_bracket01_reference(L, L.d.col(a), e1[b]),
                     _bracket01_reference(L, L.d.col(b), e1[a]))
            acc["a2"].add(r, (a, b))

    for i, j, k in itertools.combinations(range(n0), 3):
        x, y, z = e0[i], e0[j], e0[k]
        r = L.b00.eval(L.b00.eval(x, y), z)
        r = vadd(r, L.b00.eval(L.b00.eval(y, z), x))
        r = vadd(r, L.b00.eval(L.b00.eval(z, x), y))
        r = vadd(r, L.d.apply(L.l3.eval_basis(i, j, k)))
        acc["b1"].add(r, (i, j, k))

    for i, j in itertools.combinations(range(n0), 2):
        for a in range(n1):
            r = _bracket01_reference(L, L.b00.eval_basis(i, j), e1[a])
            r = vsub(r, _bracket01_reference(L, e0[i], _bracket01_reference(L, e0[j], e1[a])))
            r = vadd(r, _bracket01_reference(L, e0[j], _bracket01_reference(L, e0[i], e1[a])))
            r = vadd(r, L.l3.eval(e0[i], e0[j], L.d.col(a)))
            acc["b2"].add(r, (i, j, a))

    if L.l3.is_zero():
        acc["c"].add(vzero(n1, L.mode), None)
    else:
        for quad in itertools.combinations(range(n0), 4):
            xs = [e0[t] for t in quad]
            r = vzero(n1, L.mode)
            for a in range(4):
                rest = [xs[t] for t in range(4) if t != a]
                term = _bracket01_reference(L, xs[a], L.l3.eval(*rest))
                r = vadd(r, term if a % 2 == 0 else vscale(-1, term))
            for a, b in itertools.combinations(range(4), 2):
                rest = [xs[t] for t in range(4) if t not in (a, b)]
                term = L.l3.eval(L.b00.eval(xs[a], xs[b]), *rest)
                r = vadd(r, term if (a + b) % 2 == 0 else vscale(-1, term))
            acc["c"].add(r, quad)

    return ResidualReport({k: a.residual() for k, a in acc.items()})


def ref_der0_condition_vectors(L, D):
    n0, n1 = L.n0, L.n1
    e0 = [basis_vec(n0, i, L.mode) for i in range(n0)]
    e1 = [basis_vec(n1, a, L.mode) for a in range(n1)]
    x0col = [D.X0.col(i) for i in range(n0)]

    chain = [((D.X0 @ L.d) - (L.d @ D.X1)).data]

    cond_a = []
    for i, j in itertools.combinations(range(n0), 2):
        r = L.d.apply(D.lX.eval_basis(i, j))
        r = vsub(r, D.X0.apply(L.b00.eval_basis(i, j)))
        r = vadd(r, L.b00.eval(x0col[i], e0[j]))
        r = vadd(r, L.b00.eval(e0[i], x0col[j]))
        cond_a.append((r, (i, j)))

    cond_b = []
    for i in range(n0):
        for a in range(n1):
            r = D.lX.eval(e0[i], L.d.col(a))
            r = vsub(r, D.X1.apply(_bracket01_reference(L, e0[i], e1[a])))
            r = vadd(r, _bracket01_reference(L, x0col[i], e1[a]))
            r = vadd(r, _bracket01_reference(L, e0[i], D.X1.col(a)))
            cond_b.append((r, (i, a)))

    cond_c = []
    for i, j, k in itertools.combinations(range(n0), 3):
        r = D.X1.apply(L.l3.eval_basis(i, j, k))
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            r = vsub(r, D.lX.eval(e0[x], L.b00.eval_basis(y, z)))
            r = vsub(r, _bracket01_reference(L, e0[x], D.lX.eval_basis(y, z)))
            r = vsub(r, L.l3.eval(x0col[x], e0[y], e0[z]))
        cond_c.append((r, (i, j, k)))

    return chain, cond_a, cond_b, cond_c


def ref_is_derivation0(L, D):
    chain, ca, cb, cc = ref_der0_condition_vectors(L, D)
    acc = {k: _RefAcc(D.X0.mode) for k in ("chain", "a", "b", "c")}
    acc["chain"].add(chain[0], None)
    for key, group in (("a", ca), ("b", cb), ("c", cc)):
        for r, w in group:
            acc[key].add(r, w)
    return ResidualReport({k: v.residual() for k, v in acc.items()})


def ref_residual_flat(L, D):
    chain, ca, cb, cc = ref_der0_condition_vectors(L, D)
    out = list(chain[0])
    for group in (ca, cb, cc):
        for r, _ in group:
            out.extend(r)
    return tuple(out)


def ref_der0_constraints(L):
    """The constraint matrix probed on unit triples: column u is the stacked
    reference residual of the u-th unit triple of `flatten_der0`."""
    nfree = _der0_flat_len(L)
    units = [[Fraction(int(t == u)) for t in range(nfree)] for u in range(nfree)]
    nrows = len(ref_residual_flat(L, unflatten_der0(L, [Fraction(0)] * nfree)))
    return Mat.from_cols([ref_residual_flat(L, unflatten_der0(L, u)) for u in units], nrows)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _kind(x):
    """float for a float, "exact" for an exact scalar (an int or a Fraction)."""
    if type(x) is float:
        return float
    return "exact" if type(x) in (int, Fraction) else type(x)


def _same_float(x, y) -> bool:
    if BITWISE:
        return x.hex() == y.hex()
    return abs(x - y) <= 1e-12 * max(1.0, abs(y))


def assert_same_report(got: ResidualReport, want: ResidualReport):
    assert list(got.entries) == list(want.entries)
    for key, w in want:
        g = got[key]
        assert _kind(g.value) == _kind(w.value), (key, g, w)
        assert g.witness == w.witness, (key, g, w)
        if isinstance(w.value, float):
            assert _same_float(g.value, w.value), (key, g, w)
        else:
            assert g.value == w.value, (key, g, w)


def check_algebra(L: Lie2Algebra):
    assert_same_report(validate_lie2(L), ref_validate_lie2(L))


def check_candidate(L: Lie2Algebra, D: Derivation0):
    assert_same_report(is_derivation0(L, D), ref_is_derivation0(L, D))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _endo_id2():
    return make_endo(Mat.identity(2))


def _random_fixtures():
    return [random_fixture(random.Random(seed)) for seed in range(30)]


def _degenerate():
    """One empty degree: sl2 as a 3|0 Lie 2-algebra (dim Der^0 = 3) and the
    abelian 0|2 one (dim Der^0 = 4, all of gl(2) acting on g_{-1})."""
    return [make_skeletal(sl2_structure(), trivial_rep(3, 0), AltTensor.zero(3, 3, 0)),
            make_skeletal(abelian_structure(0), (), AltTensor.zero(3, 0, 2))]


def _aff1_non_cocycle():
    sc = aff1_sum_structure()
    return make_skeletal(sc, trivial_rep(4, 1), AltTensor(3, 4, 1, {(1, 2, 3): (1,)}))


def _bump(rng):
    return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))


def _with_entry(m: Mat, t: int, q) -> Mat:
    data = list(m.data)
    data[t] += q
    return Mat(m.rows, m.cols, data)


def _with_tensor_entry(t: AltTensor, key, c: int, q) -> AltTensor:
    entries = dict(t.entries)
    vec = list(entries.get(key, (Fraction(0),) * t.codim))
    vec[c] += q
    entries[key] = tuple(vec)
    return AltTensor(t.arity, t.dim, t.codim, entries, t.mode)


def perturbations(L: Lie2Algebra, rng) -> list:
    """Copies of L, each with one entry of d, b00, b01 or l3 changed."""
    n0, n1 = L.n0, L.n1
    out = []
    if n0 and n1:
        out.append(Lie2Algebra(n0, n1, _with_entry(L.d, rng.randrange(n0 * n1), _bump(rng)),
                               L.b00, L.b01, L.l3))
        b01 = list(L.b01)
        i = rng.randrange(n0)
        b01[i] = _with_entry(b01[i], rng.randrange(n1 * n1), _bump(rng))
        out.append(Lie2Algebra(n0, n1, L.d, L.b00, b01, L.l3))
    if n0 >= 2:
        key = tuple(sorted(rng.sample(range(n0), 2)))
        b00 = _with_tensor_entry(L.b00, key, rng.randrange(n0), _bump(rng))
        out.append(Lie2Algebra(n0, n1, L.d, b00, L.b01, L.l3))
    if n0 >= 3 and n1:
        key = tuple(sorted(rng.sample(range(n0), 3)))
        l3 = _with_tensor_entry(L.l3, key, rng.randrange(n1), _bump(rng))
        out.append(Lie2Algebra(n0, n1, L.d, L.b00, L.b01, l3))
    return out


def random_candidate(L: Lie2Algebra, rng) -> Derivation0:
    """A sparse random triple (X0, X1, lX); almost never a derivation."""
    flat = [_bump(rng) if rng.random() < 0.3 else Fraction(0) for _ in range(_der0_flat_len(L))]
    return unflatten_der0(L, flat)


def _bases():
    algebras = [f() for f in NAMED_EXAMPLES.values()] + _random_fixtures()[:12] + _degenerate()
    return [(L, compute_der0_basis(L)) for L in algebras]


# ---------------------------------------------------------------------------
# validate_lie2
# ---------------------------------------------------------------------------

def test_validate_matches_reference_on_random_fixtures():
    for L in _random_fixtures():
        check_algebra(L)


def test_validate_matches_reference_on_derived_algebras():
    for make in list(NAMED_EXAMPLES.values()) + [_endo_id2]:
        check_algebra(build_der_lie2(make()).algebra)


def test_validate_matches_reference_on_perturbed_algebras():
    rng = random.Random(5)
    algebras = [f() for f in NAMED_EXAMPLES.values()] + _random_fixtures() + [_endo_id2()]
    seen = set()
    for L in algebras:
        for _ in range(3):
            for bad in perturbations(L, rng):
                rep = ref_validate_lie2(bad)
                seen.update(rep.violated())
                check_algebra(bad)
    # every law is broken, and so compared with a witness, somewhere
    assert seen == {"a1", "a2", "b1", "b2", "c"}


def _scaled(L: Lie2Algebra, lam) -> Lie2Algebra:
    """L with every structure constant times lam; each law is homogeneous
    of degree 2, so a valid L stays valid and a broken one stays broken."""
    return Lie2Algebra(L.n0, L.n1, L.d.scale(lam), L.b00.scale(lam),
                       [m.scale(lam) for m in L.b01], L.l3.scale(lam))


def _scaled_copies():
    algebras = ([f() for f in NAMED_EXAMPLES.values()] + [build_der_lie2(_endo_id2()).algebra]
                + _random_fixtures()[:10])
    return [_scaled(L, lam) for lam in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 12))
            for L in algebras]


def test_validate_matches_reference_on_scaled_algebras():
    # the common denominator of the constants is a multiple of 3, 7 or 12
    for L in _scaled_copies():
        check_algebra(L)


def test_validate_matches_reference_on_perturbed_scaled_algebras():
    rng = random.Random(8)
    broken = set()  # the laws broken with a non-integral value
    copies = _scaled_copies()
    # the dense reference takes about 1.5 s on the 16|16 Der(endo-id2): perturb one copy of it
    copies = [L for L in copies if L.n0 < 16] + [L for L in copies if L.n0 == 16][:1]
    for L in copies:
        for bad in perturbations(L, rng):
            want = ref_validate_lie2(bad)
            for law in want.violated():
                assert want[law].witness is not None
                if Fraction(want[law].value).denominator != 1:
                    broken.add(law)
            assert_same_report(validate_lie2(bad), want)
    assert broken == {"a1", "a2", "b1", "b2", "c"}


def test_validate_runs_exact_laws_without_fraction_arithmetic(monkeypatch):
    L = build_der_lie2(_endo_id2()).algebra  # built, and its sparse view read, unpatched
    want = validate_lie2(L)
    assert_same_report(want, ref_validate_lie2(L))

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in validate_lie2")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__neg__"):
        monkeypatch.setattr(Fraction, name, refuse)
    got = validate_lie2(L)
    monkeypatch.undo()
    assert_same_report(got, want)


def test_validate_matches_reference_on_aff1_non_cocycle():
    L = _aff1_non_cocycle()
    want = ref_validate_lie2(L)
    assert want.violated() == ["c"] and want["c"].witness is not None
    check_algebra(L)


def test_validate_matches_reference_on_arity_four_law_with_action():
    # a nontrivial action makes both halves of the arity-4 law nonzero, so
    # their relative sign shows; random l3 break the law, coboundaries keep it
    sc = aff1_sum_structure()
    rep = lie_ad_matrices(sc)
    rng = random.Random(11)
    for _ in range(4):
        for l3 in (rand_cochain(rng, 3, 4, 4), ce_coboundary(sc, rep, rand_cochain(rng, 2, 4, 4))):
            L = make_skeletal(sc, rep, l3)
            check_algebra(L)
            check_algebra(L.to_float())


def test_validate_matches_reference_on_float_copies():
    rng = random.Random(6)
    algebras = [f() for f in NAMED_EXAMPLES.values()] + _random_fixtures() + [_aff1_non_cocycle()]
    algebras += [bad for L in algebras[:8] for bad in perturbations(L, rng)]
    for L in algebras:
        check_algebra(L.to_float())


def _random_float_algebra(rng, n0, n1):
    """Random float structure constants, a fifth of them zero; no law
    holds, and the sums have several rounded terms, so their order shows."""
    def draw(n):
        return [rng.uniform(-1, 1) if rng.random() < 0.8 else 0.0 for _ in range(n)]

    def alt(arity, codim):
        return AltTensor(arity, n0, codim, {key: draw(codim) for key in
                                            itertools.combinations(range(n0), arity)}, "float")

    return Lie2Algebra(n0, n1, Mat(n0, n1, draw(n0 * n1)), alt(2, n0),
                       [Mat(n1, n1, draw(n1 * n1)) for _ in range(n0)], alt(3, n1))


def test_laws_match_reference_on_random_float_constants():
    rng = random.Random(12)
    for n0, n1 in ((4, 5), (5, 4), (6, 2)):
        L = _random_float_algebra(rng, n0, n1)
        check_algebra(L)
        lx = {key: [rng.uniform(-1, 1) for _ in range(n1)]
              for key in itertools.combinations(range(n0), 2)}
        D = Derivation0(Mat(n0, n0, [rng.uniform(-1, 1) for _ in range(n0 * n0)]),
                        Mat(n1, n1, [rng.uniform(-1, 1) for _ in range(n1 * n1)]),
                        AltTensor(2, n0, n1, lx, "float"))
        check_candidate(L, D)


# ---------------------------------------------------------------------------
# degree-0 derivation conditions
# ---------------------------------------------------------------------------

def test_der0_conditions_match_reference_on_members_and_non_members():
    rng = random.Random(7)
    for L, basis in _bases():
        for _ in range(3):
            member = random_der0(L, rng)
            assert ref_is_derivation0(L, member).ok
            check_candidate(L, member)
            check_candidate(L, random_candidate(L, rng))
        for D in basis:
            check_candidate(L, D)


def test_der0_conditions_match_reference_on_perturbed_algebras():
    # the same candidate against a broken algebra exercises every term
    rng = random.Random(8)
    for L, basis in _bases()[:8]:
        for bad in perturbations(L, rng):
            check_candidate(bad, random_der0(L, rng))
            check_candidate(bad, random_candidate(L, rng))


def test_der0_conditions_match_reference_on_float_copies():
    rng = random.Random(9)
    for L, basis in _bases():
        Lf = L.to_float()
        for D in (random_der0(L, rng), random_candidate(L, rng)):
            check_candidate(Lf, D.to_float())


def test_der0_constraints_match_the_probed_reference():
    # the directly assembled rows, densified here, equal the residuals of unit
    # triples, entry for entry: every term of every family, with its sign and
    # block; no row stores a zero or an unknown out of range
    algebras = [f() for f in NAMED_EXAMPLES.values()]
    algebras += [make_string(sl_structure(3)), _endo_id2()] + _random_fixtures() + _degenerate()
    for L in algebras:
        rows, want = der0_constraints(L), ref_der0_constraints(L)
        nfree = _der0_flat_len(L)
        assert all(v != 0 and 0 <= u < nfree for r in rows for u, v in r.items())
        got = Mat(len(rows), nfree, [r.get(u, 0) for r in rows for u in range(nfree)])
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got == want


def test_der0_basis_is_the_kernel_of_the_reference_matrix():
    for L, basis in _bases():
        want = [unflatten_der0(L, v) for v in kernel_basis(ref_der0_constraints(L))]
        assert list(basis) == want


# ---------------------------------------------------------------------------
# the action of degree-0 pairs on cochains
# ---------------------------------------------------------------------------

def ref_lie_cochain_action(X0, X1, omega):
    """The dense formula: every key, on basis vectors and columns of X0."""
    n = omega.dim

    def val(key):
        r = X1.apply(omega.eval_basis(*key))
        for t in range(len(key)):
            args = [basis_vec(n, key[s], omega.mode) if s != t else X0.col(key[t])
                    for s in range(len(key))]
            r = vsub(r, omega.eval(*args))
        return r

    return AltTensor.from_function(omega.arity, n, omega.codim, val, omega.mode)


def check_action(X0, X1, omega):
    got, want = lie_cochain_action(X0, X1, omega), ref_lie_cochain_action(X0, X1, omega)
    assert got.mode == want.mode == omega.mode
    if omega.mode == "exact":
        assert got == want
        return
    assert list(got.entries) == list(want.entries)
    # float.hex tells -0.0 from 0.0, so signed zeros are compared too
    for key, vec in want.entries.items():
        assert all(type(g) is float and _same_float(g, w) for g, w in zip(got.entries[key], vec)), key


def test_cochain_action_matches_reference_on_derivation_pairs():
    rng = random.Random(13)
    for L, basis in _bases():
        pairs = [(D, E) for D in basis[:6] for E in basis[:6]]
        pairs += [(random_der0(L, rng), random_der0(L, rng)) for _ in range(3)]
        pairs += [(random_candidate(L, rng), random_candidate(L, rng))]
        for D, E in pairs:
            check_action(D.X0, D.X1, E.lX)
            check_action(D.X0.to_float(), D.X1.to_float(), E.lX.to_float())


def _float_draw(rng, n):
    """Floats in (-1, 1), a third of them zero of either sign: sums round,
    so their order shows, and signed zeros meet the skipped terms."""
    return [rng.uniform(-1, 1) if rng.random() < 0.67 else rng.choice([0.0, -0.0])
            for _ in range(n)]


def test_cochain_action_is_bitwise_on_random_float_pairs():
    rng = random.Random(14)
    for arity, n, codim in ((0, 3, 2), (1, 4, 3), (2, 5, 4), (2, 6, 2), (3, 5, 3)):
        for _ in range(4):
            keys = [k for k in itertools.combinations(range(n), arity) if rng.random() < 0.5]
            omega = AltTensor(arity, n, codim, {k: _float_draw(rng, codim) for k in keys}, "float")
            X0 = Mat(n, n, _float_draw(rng, n * n))
            X1 = Mat(codim, codim, _float_draw(rng, codim * codim))
            check_action(X0, X1, omega)


# ---------------------------------------------------------------------------
# the differential and the adjoint generators
# ---------------------------------------------------------------------------

def ref_dbar(L, T):
    """The dense formula: the 2-component on unit vectors."""
    def lval(key):
        i, j = key
        r = T.theta.apply(L.b00.eval_basis(i, j))
        r = vsub(r, _bracket01_reference(L, basis_vec(L.n0, i, L.mode), T.theta.col(j)))
        return vadd(r, _bracket01_reference(L, basis_vec(L.n0, j, L.mode), T.theta.col(i)))

    return Derivation0(L.d @ T.theta, T.theta @ L.d,
                       AltTensor.from_function(2, L.n0, L.n1, lval, L.mode))


def ref_twist_lower(L, A, t):
    """The dense formula on unit vectors: tau[x, y] - [A0 x, tau y]
    + [A0 y, tau x] + [d tau y, tau x]."""
    tm = t.mat

    def val(key):
        i, j = key
        tx, ty = tm.col(i), tm.col(j)
        r = tm.apply(L.b00.eval_basis(i, j))
        r = vsub(r, _bracket01_reference(L, A.A0.col(i), ty))
        r = vadd(r, _bracket01_reference(L, A.A0.col(j), tx))
        return vadd(r, _bracket01_reference(L, L.d.apply(ty), tx))

    return AltTensor.from_function(2, L.n0, L.n1, val, L.mode)


def ref_adbar0_single(L, x):
    """The dense formula: [x, e_j] and l3(x, e_i, e_j) on unit vectors, and
    X1 the sum of x_m b01[m]."""
    e0 = [basis_vec(L.n0, j, L.mode) for j in range(L.n0)]
    cols = [v for j in range(L.n0) for v in L.b00.eval(x, e0[j])]
    X1 = Mat.zero(L.n1, L.n1, L.mode)
    for m, xi in zip(L.b01, x):
        if xi != 0:
            X1 = X1 + m.scale(xi)
    lX = AltTensor.from_function(
        2, L.n0, L.n1, lambda key: L.l3.eval(x, e0[key[0]], e0[key[1]]), L.mode)
    return Derivation0(Mat._result(L.n0, L.n0, cols, L.mode).transpose(), X1, lX)


def _same_floats(got, want) -> bool:
    return len(got) == len(want) and all(
        type(g) is float and _same_float(g, w) for g, w in zip(got, want))


def assert_same_tensor(got: AltTensor, want: AltTensor):
    assert got.mode == want.mode
    if want.mode == "exact":
        assert got == want
        return
    assert list(got.entries) == list(want.entries)
    for key, vec in want.entries.items():
        assert _same_floats(got.entries[key], vec), key


def assert_same_derivation(got: Derivation0, want: Derivation0):
    parts = ((got.X0, want.X0), (got.X1, want.X1), (got.lX, want.lX))
    assert [g.mode for g, _ in parts] == [w.mode for _, w in parts]
    if want.mode == "exact":
        assert got == want
        return
    # float.hex tells -0.0 from 0.0, so signed zeros are compared too
    for g, w in parts[:2]:
        assert (g.rows, g.cols) == (w.rows, w.cols) and _same_floats(g.data, w.data)
    assert_same_tensor(got.lX, want.lX)


def _signed_float_algebra(rng, n0, n1):
    """Random float structure constants, a third of them zero of either sign."""
    def alt(arity, codim):
        return AltTensor(arity, n0, codim, {key: _float_draw(rng, codim) for key in
                                            itertools.combinations(range(n0), arity)}, "float")

    return Lie2Algebra(n0, n1, Mat(n0, n1, _float_draw(rng, n0 * n1)), alt(2, n0),
                       [Mat(n1, n1, _float_draw(rng, n1 * n1)) for _ in range(n0)], alt(3, n1))


def _generator_algebras():
    return ([f() for f in NAMED_EXAMPLES.values()] + _random_fixtures() + _degenerate()
            + [make_string(sl_structure(3)), _endo_id2(), _aff1_non_cocycle()])


def test_dbar_matches_reference():
    rng = random.Random(21)
    for L in _generator_algebras():
        thetas = derM1_basis(L) + [random_derM1(L, rng) for _ in range(2)]
        for T in thetas:
            assert_same_derivation(dbar(L, T), ref_dbar(L, T))
            Lf, Tf = L.to_float(), T.to_float()
            assert_same_derivation(dbar(Lf, Tf), ref_dbar(Lf, Tf))


def test_twist_lower_matches_reference():
    """The identity of each named example, string-sl3 and the random
    fixtures, and four sampled automorphisms of string-sl2, each twisted by
    two random taus, in exact and in float mode: the 2-component of
    `twist_hom` is A2 plus the reference correction."""
    rng = random.Random(27)
    algebras = ([f() for f in NAMED_EXAMPLES.values()] + [make_string(sl_structure(3))]
                + _random_fixtures())
    cases = [(L, hom_identity(L)) for L in algebras]
    cases += [(fix_str(), string_aut_hom(fix_str(), rng)) for _ in range(4)]
    for L, A in cases:
        for t in (Tau(rand_mat(rng, L.n1, L.n0)), Tau(rand_mat(rng, L.n1, L.n0))):
            assert_same_tensor(twist_hom(L, A, t).A2, A.A2 + ref_twist_lower(L, A, t))
            Lf, Af, tf = L.to_float(), A.to_float(), t.to_float()
            assert_same_tensor(twist_hom(Lf, Af, tf).A2, Af.A2 + ref_twist_lower(Lf, Af, tf))


def test_adbar0_single_matches_reference():
    rng = random.Random(22)
    for L in _generator_algebras():
        xs = [basis_vec(L.n0, i, L.mode) for i in range(L.n0)]
        xs += [rand_vec(rng, L.n0) for _ in range(2)]
        for x in xs:
            assert_same_derivation(adbar0_single(L, x), ref_adbar0_single(L, x))
            Lf, xf = L.to_float(), tuple(float(v) for v in x)
            assert_same_derivation(adbar0_single(Lf, xf), ref_adbar0_single(Lf, xf))


def test_generators_are_bitwise_on_random_float_constants():
    rng = random.Random(23)
    for n0, n1 in ((4, 3), (5, 2), (3, 4)):
        for _ in range(3):
            L = _signed_float_algebra(rng, n0, n1)
            T = DerM1(Mat(n1, n0, _float_draw(rng, n1 * n0)))
            assert_same_derivation(dbar(L, T), ref_dbar(L, T))
            x = tuple(_float_draw(rng, n0))
            assert_same_derivation(adbar0_single(L, x), ref_adbar0_single(L, x))


def test_twist_lower_is_bitwise_on_random_float_constants():
    rng = random.Random(28)
    for n0, n1 in ((4, 3), (5, 2), (3, 4)):
        for _ in range(3):
            L = _signed_float_algebra(rng, n0, n1)
            A = Lie2Hom(L, L, Mat(n0, n0, _float_draw(rng, n0 * n0)), Mat.identity(n1, "float"),
                        AltTensor.zero(2, n0, n1, "float"))
            t = Tau(Mat(n1, n0, _float_draw(rng, n1 * n0)))
            assert_same_tensor(twist_hom(L, A, t).A2, A.A2 + ref_twist_lower(L, A, t))


# ---------------------------------------------------------------------------
# validate_hom
# ---------------------------------------------------------------------------

def ref_validate_hom(A):
    """The dense evaluator: every law on unit basis vectors."""
    src, tgt = A.source, A.target
    acc = {k: _RefAcc(A.A0.mode) for k in ("chain", "i", "ii", "iii")}

    chain = (tgt.d @ A.A1) - (A.A0 @ src.d)
    acc["chain"].add(chain.data, None)

    e0 = [basis_vec(src.n0, i, src.mode) for i in range(src.n0)]
    e1 = [basis_vec(src.n1, a, src.mode) for a in range(src.n1)]
    img0 = [A.A0.col(i) for i in range(src.n0)]
    img1 = [A.A1.col(a) for a in range(src.n1)]

    for i, j in itertools.combinations(range(src.n0), 2):
        r = A.A0.apply(src.b00.eval_basis(i, j))
        r = vsub(r, tgt.b00.eval(img0[i], img0[j]))
        r = vsub(r, tgt.d.apply(A.A2.eval_basis(i, j)))
        acc["i"].add(r, (i, j))

    for i in range(src.n0):
        for a in range(src.n1):
            r = A.A1.apply(_bracket01_reference(src, e0[i], e1[a]))
            r = vsub(r, _bracket01_reference(tgt, img0[i], img1[a]))
            r = vsub(r, A.A2.eval(e0[i], src.d.col(a)))
            acc["ii"].add(r, (i, a))

    for i, j, k in itertools.combinations(range(src.n0), 3):
        r = vzero(tgt.n1, tgt.mode)
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            r = vadd(r, _bracket01_reference(tgt, img0[x], A.A2.eval_basis(y, z)))
            r = vsub(r, A.A2.eval(src.b00.eval_basis(x, y), e0[z]))
        r = vadd(r, tgt.l3.eval(img0[i], img0[j], img0[k]))
        r = vsub(r, A.A1.apply(src.l3.eval_basis(i, j, k)))
        acc["iii"].add(r, (i, j, k))

    return ResidualReport({k: a.residual() for k, a in acc.items()})


def check_hom(A: Lie2Hom):
    assert_same_report(validate_hom(A), ref_validate_hom(A))


def hom_perturbations(A: Lie2Hom, rng) -> list:
    """Copies of A, each with one entry of A0, A1 or A2 changed."""
    src, tgt = A.source, A.target
    out = []
    if A.A0.data:
        out.append(Lie2Hom(src, tgt, _with_entry(A.A0, rng.randrange(len(A.A0.data)), _bump(rng)),
                           A.A1, A.A2))
    if A.A1.data:
        out.append(Lie2Hom(src, tgt, A.A0,
                           _with_entry(A.A1, rng.randrange(len(A.A1.data)), _bump(rng)), A.A2))
    if src.n0 >= 2 and tgt.n1:
        key = tuple(sorted(rng.sample(range(src.n0), 2)))
        out.append(Lie2Hom(src, tgt, A.A0, A.A1,
                           _with_tensor_entry(A.A2, key, rng.randrange(tgt.n1), _bump(rng))))
    return out


def _golden_homs():
    """The homs behind the four `lie2 aut` golden reports: the two hom
    files against string-sl2, and the identity twisted by each tau file of
    endo-1-1."""
    golden = Path(__file__).parent / "golden"
    homs = []
    for name in ("string-sl2-aut.hom", "string-sl2-nonaut.hom"):
        L = fix_str()
        homs.append(parse_element((golden / name).read_text(encoding="utf-8"), L))
    for name in ("endo-1-1-tau.tau", "endo-1-1-tau-singular.tau"):
        L = fix_end()
        tau = parse_element((golden / name).read_text(encoding="utf-8"), L)
        homs.append(twist_hom(L, hom_identity(L), tau))
    return homs


def test_validate_hom_matches_reference_on_adbar_and_perturbed_homs():
    rng = random.Random(24)
    for L in _random_fixtures():
        for A in (adbar(L), hom_identity(L)):
            for B in [A] + hom_perturbations(A, rng):
                check_hom(B)
                check_hom(B.to_float())


def test_validate_hom_matches_reference_on_golden_and_sampled_homs():
    rng = random.Random(25)
    homs = _golden_homs() + [string_aut_hom(fix_str(), rng) for _ in range(4)]
    homs += [adbar(make_string(sl_structure(3))), adbar(_endo_id2())]
    for A in homs:
        for B in [A] + hom_perturbations(A, rng):
            check_hom(B)
            check_hom(B.to_float())


def test_validate_hom_is_bitwise_on_random_float_homs():
    rng = random.Random(26)
    for (n0, n1), (m0, m1) in (((3, 2), (4, 3)), ((4, 3), (3, 2)), ((5, 2), (4, 4))):
        for _ in range(3):
            src, tgt = _signed_float_algebra(rng, n0, n1), _signed_float_algebra(rng, m0, m1)
            A2 = AltTensor(2, n0, m1, {key: _float_draw(rng, m1) for key in
                                       itertools.combinations(range(n0), 2)}, "float")
            check_hom(Lie2Hom(src, tgt, Mat(m0, n0, _float_draw(rng, m0 * n0)),
                              Mat(m1, n1, _float_draw(rng, m1 * n1)), A2))


# ---------------------------------------------------------------------------
# laws b1 and b2 at sizes the dense reference cannot reach
# ---------------------------------------------------------------------------

def ref_tuple_b1_b2(L):
    """The per-tuple loops of laws b1 and b2 that the pair-by-pair
    evaluation replaced: four sparse sums at every index tuple, on the
    constants as they are (no integer image)."""
    n0, n1 = L.n0, L.n1
    d, b00, b01, l3 = L.sparse()
    acc = {k: _RefAcc(L.mode) for k in ("b1", "b2")}

    def br00(u, k):  # [u, e_k] for u in g_0
        return sparse_comb((u[m], b00.get((m, k), SPARSE_ZERO)) for m in sorted(u))

    def br01(u, a):  # [u, e_a] for u in g_0
        return sparse_comb((u[m], b01[m][a]) for m in sorted(u))

    for i, j, k in itertools.combinations(range(n0), 3):
        r = sparse_sum((1, br00(b00.get((i, j), SPARSE_ZERO), k)),
                       (1, br00(b00.get((j, k), SPARSE_ZERO), i)),
                       (1, br00(b00.get((k, i), SPARSE_ZERO), j)),
                       (1, sparse_apply(d, l3.get((i, j, k), SPARSE_ZERO))))
        acc["b1"].add(list(r.values()), (i, j, k))

    for i, j in itertools.combinations(range(n0), 2):
        bij = b00.get((i, j), SPARSE_ZERO)
        for a in range(n1):
            r = sparse_sum((1, br01(bij, a)),
                           (-1, sparse_apply(b01[i], b01[j][a])),
                           (1, sparse_apply(b01[j], b01[i][a])),
                           (1, sparse_comb((x, l3.get((i, j, m), SPARSE_ZERO))
                                           for m, x in sorted(d[a].items()))))
            acc["b2"].add(list(r.values()), (i, j, a))

    return ResidualReport({k: a.residual() for k, a in acc.items()})


def _string_der_copies():
    """Der(string-sl4) and Der(string-sl5) (30|15 and 48|24), each with a copy
    that has one b00 entry changed and one that has one b01 entry changed,
    all scaled by 2/7: exact laws then run on an integer image, and every
    float constant is rounded, so the order of each float sum shows."""
    rng = random.Random(26)
    out = []
    for n in (4, 5):
        A = build_der_lie2(make_string(sl_structure(n))).algebra
        key = tuple(sorted(rng.sample(range(A.n0), 2)))
        b00 = _with_tensor_entry(A.b00, key, rng.randrange(A.n0), _bump(rng))
        b01 = list(A.b01)
        i = rng.randrange(A.n0)
        b01[i] = _with_entry(b01[i], rng.randrange(A.n1 * A.n1), _bump(rng))
        out += [_scaled(M, Fraction(2, 7)) for M in (A, Lie2Algebra(A.n0, A.n1, A.d, b00, A.b01, A.l3),
                                                     Lie2Algebra(A.n0, A.n1, A.d, A.b00, b01, A.l3))]
    return out


def test_pair_by_pair_laws_match_the_per_tuple_loops_on_large_derivation_algebras():
    broken = set()
    for L in _string_der_copies():
        for M in (L, L.to_float()):
            want = ref_tuple_b1_b2(M)
            got = validate_lie2(M)
            assert_same_report(ResidualReport({k: got[k] for k in ("b1", "b2")}), want)
            broken.update((M.mode, law) for law in want.violated())
    # both laws are broken, and so compared with a witness, in both modes
    assert broken == {(mode, law) for mode in ("exact", "float") for law in ("b1", "b2")}
