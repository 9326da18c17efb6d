import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lie2alg import fixtures, linalg
from lie2alg.derivations import _der0_flat_len, compute_der0_basis, der0_constraints, flatten_der0
from lie2alg.linalg import (
    AltTensor,
    Mat,
    ModeError,
    _taylor_plan,
    basis_vec,
    block_exps,
    common_denominator,
    kernel,
    kernel_basis,
    mat_distance,
    mat_inverse,
    nilpotency_index,
    rank,
    rat,
    rat_str,
    row_sum_norm,
    rref,
    scalar_zero,
    solve,
    sparse_eval,
    truncated_exp,
    truncated_exps,
    vec_is_zero,
    vzero,
)


def test_rat_grammar():
    assert rat("7") == Fraction(7)
    assert rat("-3/2") == Fraction(-3, 2)
    assert rat(" 0 ") == 0
    assert rat("4/6") == Fraction(2, 3)
    for bad in ["", "1/0", "1/-2", "--3", "3.5", "a", "1/"]:
        with pytest.raises(ValueError):
            rat(bad)


def test_rat_str_round_trip():
    for q in [Fraction(0), Fraction(7), Fraction(-3, 2), Fraction(2, 3)]:
        assert rat(rat_str(q)) == q


def test_rref_identity():
    ident = Mat.identity(2)
    red, pivots = rref(ident)
    assert red == ident
    assert pivots == [0, 1]


def test_rref_zero():
    z = Mat.zero(2, 3)
    red, pivots = rref(z)
    assert red == z
    assert pivots == []


def test_rref_rank_deficient():
    # hand row-reduction: R2 <- R2 - 2 R1 leaves [[1,2],[0,0]]
    m = Mat.from_rows([[1, 2], [2, 4]])
    red, pivots = rref(m)
    assert red == Mat.from_rows([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_rejects_float():
    with pytest.raises(ModeError):
        rref(Mat.from_rows([[1.0, 2.0]]))


def test_kernel_identity_empty():
    assert kernel_basis(Mat.identity(3)) == []
    basis, coords = kernel(Mat.identity(3))
    assert basis == [] and coords((0, 0, 0)) == ()
    assert coords((0, 1, 0)) is None
    # no columns: the zero space, whose one vector is ()
    basis, coords = kernel(Mat.zero(2, 0))
    assert basis == [] and coords(()) == ()


def test_kernel_zero_full():
    basis = kernel_basis(Mat.zero(1, 2))
    assert len(basis) == 2
    assert basis[0] == (1, 0)
    assert basis[1] == (0, 1)
    # every vector is in the kernel of a zero matrix, and is its own coordinates
    _, coords = kernel(Mat.zero(1, 2))
    assert coords((Fraction(2, 3), -5)) == (Fraction(2, 3), -5)
    for bad in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            coords(bad)


def test_kernel_line():
    # direct substitution: m v = 0 for v = (1, -1)
    m = Mat.from_rows([[1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 1 == 0
    assert v[1] != 0 and v[0] / v[1] == -1
    # the basis vector is (-1, 1): 2 (-1, 1) = (-2, 2), and (1, 1) is off the line
    _, coords = kernel(m)
    assert coords((-2, 2)) == (2,)
    assert coords((1, 1)) is None
    with pytest.raises(ValueError):
        coords((1,))
    with pytest.raises(ModeError):
        kernel(Mat.from_rows([[1.0, 1.0]]))


def test_mat_inverse_cases():
    assert mat_inverse(Mat.identity(3)) == Mat.identity(3)
    assert mat_inverse(Mat.from_rows([[2]])) == Mat.from_rows([[Fraction(1, 2)]])
    m = Mat.from_rows([[1, 1], [0, 1]])
    inv = mat_inverse(m)
    # multiply-back oracle
    assert m @ inv == Mat.identity(2)
    assert inv @ m == Mat.identity(2)
    assert inv == Mat.from_rows([[1, -1], [0, 1]])
    assert mat_inverse(Mat.from_rows([[1, 2], [2, 4]])) is None


def test_common_denominator():
    assert common_denominator([]) == 1
    assert common_denominator(iter([3, 0, -5])) == 1
    assert common_denominator([Fraction(1, 4), 2, Fraction(-5, 6), Fraction(3, 4)]) == 12
    values = [Fraction(1, 3), Fraction(2, 7), Fraction(-5, 12)]
    D = common_denominator(values)
    assert D == 84 and all((x * D).denominator == 1 for x in values)


def test_mat_inverse_float():
    m = Mat.from_rows([[2.0, 1.0], [1.0, 1.0]])
    inv = mat_inverse(m)
    assert mat_distance(m @ inv, Mat.identity(2, "float")) < 1e-12
    # a pivot column that eliminates to exact zeros: singular, as in exact mode
    assert mat_inverse(Mat.from_rows([[1.0, 2.0], [2.0, 4.0]])) is None
    assert mat_inverse(Mat.zero(2, 2, "float")) is None


def test_solve_consistent_and_not():
    m = Mat.from_rows([[1, 2], [0, 0]])
    assert solve(m, (3, 0)) == (3, 0)
    assert solve(m, (0, 1)) is None
    # no unknowns: only b = 0 is solved, by the empty vector
    empty = Mat(2, 0, [])
    assert solve(empty, (0, 0)) == ()
    assert solve(empty, (0, 1)) is None


def test_truncated_exp_zero():
    assert truncated_exp(Mat.zero(2, 2), 1) == Mat.identity(2)


def test_truncated_exp_nilpotent_exact():
    m = Mat.from_rows([[0, 1], [0, 0]])
    assert truncated_exp(m, 1) == Mat.from_rows([[1, 1], [0, 1]])
    assert truncated_exp(m, Fraction(1, 2)) == Mat.from_rows([[1, Fraction(1, 2)], [0, 1]])


def test_truncated_exp_exact_stops_at_the_first_zero_term_or_at_order():
    shift = Mat(5, 5, [int(j == i + 1) for i in range(5) for j in range(5)])  # index 5 > order
    want = power = Mat.identity(5)
    for n in range(1, 5):
        power = power @ shift
        want = want + power.scale(Fraction(1, math.factorial(n)))
    assert truncated_exp(shift, 1, order=2) == want
    # an exact m that is not nilpotent has no zero term: no truncated sum
    # passes as exact; at t = 0 the second term vanishes, and e^0 = I
    m = Mat.from_rows([[1, 1, 0], [0, 2, 1], [0, 0, 0]])
    for bad, order in ((m, 2), (m, 24), (Mat.from_rows([[1, 1], [0, 2]]), 24)):
        with pytest.raises(ValueError, match="not nilpotent"):
            truncated_exp(bad, 1, order)
    assert truncated_exp(m, 0) == Mat.identity(3)


def test_truncated_exp_float_scalar():
    got = truncated_exp(Mat.from_rows([[1]]).to_float(), 1, order=20)
    assert abs(got.at(0, 0) - math.e) < 1e-12


def test_a_string_t_on_a_float_series_raises_as_scale_does():
    m = Mat(1, 1, [1.0])
    with pytest.raises(ModeError):
        m.scale("0.5")
    with pytest.raises(ModeError):
        truncated_exp(m, "0.5")
    for t in (1, 0.5, Fraction(1, 2)):  # _joint_mode hands rational t to float series
        assert abs(truncated_exp(m, t).at(0, 0) - math.exp(t)) < 1e-12


def test_truncated_exp_float_scales_and_squares():
    got = truncated_exp(Mat.from_rows([[20]]).to_float(), 1).at(0, 0)
    assert abs(got - math.exp(20)) <= 1e-13 * math.exp(20)
    rot = truncated_exp(Mat.from_rows([[0, -1], [1, 0]]).to_float(), 30)
    want = Mat.from_rows([[math.cos(30), -math.sin(30)], [math.sin(30), math.cos(30)]])
    assert mat_distance(rot, want) < 1e-12


@pytest.mark.parametrize("x", [1, 1000])
def test_truncated_exp_float_overflowing_norm_raises(x):
    with pytest.raises(ValueError, match="overflows"):
        truncated_exp(Mat.from_rows([[x]]).to_float(), 1e308)


@pytest.mark.parametrize("t", [10**400, -10**400, Fraction(10**400, 3)],
                         ids=["1e400", "-1e400", "1e400/3"])
def test_truncated_exp_float_time_too_large_for_a_float_raises(t):
    # float(t) itself overflows, before the norm is read
    with pytest.raises(ValueError, match="exponential overflows"):
        truncated_exp(Mat.from_rows([[1.0]]), t)


def test_truncated_exp_float_overflowing_result_raises():
    # ||t m|| = 1000 is finite, e^1000 is not; e^700 is
    assert math.isfinite(truncated_exp(Mat.from_rows([[700.0]]), 1).at(0, 0))
    with pytest.raises(ValueError, match="exponential overflows"):
        truncated_exp(Mat.from_rows([[1000.0]]), 1)


def test_block_exp_float_overflowing_top_right_block_raises():
    # b is scaled down by 2^-1023 for the series; the block 10 b overflows
    # only when scaled back, after truncated_exps has checked its result
    a = c = Mat.from_rows([[0.0]])
    assert block_exps(a, Mat.from_rows([[1e308]]), c, (1,))[0][1] == Mat.from_rows([[1e308]])
    with pytest.raises(ValueError, match="exponential overflows"):
        block_exps(a, Mat.from_rows([[1e308]]), c, (10,))


def test_truncated_exp_float_below_theta_is_the_plain_series_of_the_least_degree():
    # ||m|| = 0.375 lies in (theta_12, theta_13]: no squaring, and the
    # degree-13 sum, bit for bit; the cap (order) cannot raise the degree
    m = Mat.from_rows([[0.125, -0.25], [0.0625, 0.0]])
    assert _taylor_plan(row_sum_norm(m), 24) == (13, 0)
    term = want = Mat.identity(2, "float")
    for n in range(1, 14):
        term = (term @ m).scale(1.0 / n)
        want = want + term
    assert truncated_exp(m, 1, 24) == truncated_exp(m, 1, 13) == truncated_exp(m, 1, 40) == want



def ref_truncated_exp(m, t=1, order=24):
    """The earlier `Mat` loop of `truncated_exp`: each term is term @ m,
    scaled by t / n, then added, with a `Mat` built at every step; a float
    m takes its degree and squarings from `_taylor_plan`, as `truncated_exp`
    does.  An exact m must be nilpotent."""
    s = 0
    if m.mode == "float":
        t = float(t)
        top, s = _taylor_plan(abs(t) * row_sum_norm(m), order)
        t = math.ldexp(t, -s)
    else:
        t, top = Fraction(t), m.rows  # a nilpotent m: term m.rows is zero
    result = term = Mat.identity(m.rows, m.mode)
    for n in range(1, top + 1):
        term = term @ m
        if m.mode == "exact" and term.is_zero():
            break
        term = term.scale(t / n if m.mode == "float" else Fraction(t, n))
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


def _typed(data):
    """Float entries by repr (signed zeros too), exact ones by type and value."""
    return [repr(x) if type(x) is float else (type(x), x) for x in data]


def _exp_cases(rng):
    """Seeded sparse matrices of sizes 0-7: float ones with signed zeros,
    exact ones nilpotent (strictly upper triangular, permuted) or not."""
    for size in range(8):
        for _ in range(2):
            yield Mat.zero(size, size, "float") if size == 0 else Mat(
                size, size, [rng.uniform(-2, 2) if rng.random() < 0.4 else rng.choice((0.0, -0.0))
                             for _ in range(size * size)])
            perm = rng.sample(range(size), size)
            for nilpotent in (True, False):
                data = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                        if rng.random() < 0.4 and (perm[j] > perm[i] or not nilpotent) else 0
                        for i in range(size) for j in range(size)]
                yield Mat(size, size, data)


def test_truncated_exp_matches_the_mat_loop_reference():
    rng = random.Random(2024)
    ts = {"float": (1e-3, -1e-3, 0.5, 1, 4, 30),
          "exact": (Fraction(1, 1000), Fraction(-1, 1000), Fraction(1, 2), 1, 4, 30)}
    for m in _exp_cases(rng):
        for t in ts[m.mode]:
            for order in (1, 2, 5, 24):
                if m.mode == "exact" and nilpotency_index(m) is None:
                    with pytest.raises(ValueError, match="not nilpotent"):
                        truncated_exp(m, t, order)
                    continue
                got, want = truncated_exp(m, t, order), ref_truncated_exp(m, t, order)
                assert (got.rows, got.cols, got.mode) == (want.rows, want.cols, want.mode)
                assert _typed(got.data) == _typed(want.data), (m, t, order)


def test_truncated_exp_builds_no_intermediate_mat(monkeypatch):
    """The series, the squarings and the nilpotency test run on flat lists:
    no `Mat` product, scaling or sum is formed on the way."""
    float_m = Mat.from_rows([[0.0, 3.0, -0.0], [1.5, 0.0, 2.0], [0.0, -1.0, 0.25]])
    cases = [(float_m, 4), (Mat.from_rows([[0, 2, 1], [0, 0, -1], [0, 0, 0]]), Fraction(2, 3))]
    not_nilpotent = Mat.from_rows([[1, 1], [0, 2]])
    want = [ref_truncated_exp(m, t) for m, t in cases]

    def refuse(*args):
        raise AssertionError("Mat operation inside the exponential kernel")

    for name in ("__matmul__", "scale", "__add__"):
        monkeypatch.setattr(Mat, name, refuse)
    got = [truncated_exp(m, t) for m, t in cases]
    with pytest.raises(ValueError, match="not nilpotent"):
        truncated_exp(not_nilpotent, Fraction(1, 2))
    indices = [nilpotency_index(m) for m, _ in cases] + [nilpotency_index(not_nilpotent)]
    monkeypatch.undo()
    assert [_typed(g.data) for g in got] == [_typed(w.data) for w in want]
    assert indices == [None, 3, None]


def test_one_series_gives_minus_t_and_halvings_as_their_own_calls():
    """`truncated_exps` anchors its series at the largest |t|: -t reads the
    anchor's terms times (-1)^n and t 2^-k times 2^-kn, both exact, so each
    equals its own one-t call.  In float that is bit for bit, signed zeros
    included, for -t also when the series squares, and for t 2^-k when it
    does not.  In exact mode the values are equal, and for -t the type of
    every entry too (elsewhere an int may come out as a Fraction of
    denominator 1)."""
    rng = random.Random(2025)
    squared = halved = 0
    for m in _exp_cases(rng):
        exact = m.mode == "exact"
        if exact and nilpotency_index(m) is None:
            continue
        for t in ((Fraction(3, 2), 1, 4, Fraction(-1, 3)) if exact else (0.3, 1.0, -2.5, 30.0)):
            halvings = [Fraction(t, 2 ** k) if exact else math.ldexp(t, -k) for k in (1, 2, 5)]
            ts = (halvings[0], t, -t, *halvings[1:])
            got = dict(zip(ts, truncated_exps(m, ts)))
            s = 0 if exact else _taylor_plan(abs(t) * row_sum_norm(m), 24)[1]
            for x in (t, -t):
                assert _typed(got[x].data) == _typed(truncated_exp(m, x).data), (m, t, x)
            for x in halvings:
                if exact:
                    assert got[x] == truncated_exp(m, x), (m, t, x)
                elif s == 0:
                    assert _typed(got[x].data) == _typed(truncated_exp(m, x).data), (m, t, x)
            squared += s > 0
            halved += s == 0 and not exact and m.rows > 0
    assert squared >= 10 and halved >= 10


def _block_cases():
    """(a, b, c, t) with ||b|| <= max(||a||, ||c||, 1/2), so that `block_exps`
    balances nothing: float at t = 1/2 (no squaring) and t = 40 (squarings),
    and exact, where M's top row vanishes from its second power on, before
    M^2 does."""
    a = Mat.from_rows([[0.25, -0.5], [0.0, 0.125]])
    b = Mat.from_rows([[0.5, 0.0, -0.25], [0.0, -0.0, 0.5]])
    c = Mat.from_rows([[0.0, 0.5, 0.0], [-0.25, 0.0, 0.125], [0.0, 0.0, 0.5]])
    shift = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    return [(a, b, c, 0.5), (a, b, c, 40.0), (Mat.zero(1, 1), Mat.from_rows([[0, 0, 2]]), shift, 3)]


def test_block_exps_sums_the_top_rows_alone_unless_it_squares(monkeypatch):
    """Row i of a product depends on row i of its left factor alone, so
    `block_exps` sums only the top a.rows rows of M's series when it does not
    square, and every row when it does; either way its blocks are those of
    the whole series (`truncated_exp` of M), bit for bit and typed."""
    products, flat_mul = [], linalg._flat_mul

    def counting(a, n, brows, m, zero):
        if m > 1:  # not a row-sum norm, whose right factor is one column
            products.append(n)
        return flat_mul(a, n, brows, m, zero)

    for a, b, c, t in _block_cases():
        n, size = a.rows, a.rows + c.rows
        rows = [a.row(i) + b.row(i) for i in range(n)] + [vzero(n, a.mode) + c.row(i) for i in range(c.rows)]
        E = truncated_exp(Mat.from_rows(rows), t)
        want = ([E.at(i, j) for i in range(n) for j in range(n)],
                [E.at(i, j) for i in range(n) for j in range(n, size)])
        monkeypatch.setattr(linalg, "_flat_mul", counting)
        del products[:]
        got = block_exps(a, b, c, (t,))[0]
        monkeypatch.undo()
        assert [_typed(g.data) for g in got] == [_typed(w) for w in want], (a, t)
        squares = a.mode == "float" and _taylor_plan(t * row_sum_norm(Mat.from_rows(rows)), 24)[1] > 0
        assert products and set(products) == {size if squares else n}, (t, products)
    # the exact top row stops at its first zero, its second term: two
    # one-row products, where the whole M stops at its third
    assert products == [1, 1]


def test_block_exps_exact_top_rows_are_exact_without_a_nilpotent_corner():
    # M = [[0, 0], [0, 1]] is not nilpotent, but its top row is zero: the
    # top blocks are e^{t 0} = 1 and the integral of 0, exactly
    zero, one = Mat.zero(1, 1), Mat.identity(1)
    assert block_exps(zero, zero, one, (1, Fraction(-1, 2))) == [(one, zero)] * 2
    with pytest.raises(ValueError, match="not nilpotent"):
        truncated_exp(Mat.from_rows([[0, 0], [0, 1]]), 1)

def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(30):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = Mat(r, c, [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(r * c)])
        assert rank(m) + len(kernel_basis(m)) == c
        for v in kernel_basis(m):
            assert vec_is_zero(m.apply(v))


def test_inverse_iff_trivial_kernel():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = Mat(n, n, [Fraction(rng.randint(-2, 2)) for _ in range(n * n)])
        assert (mat_inverse(m) is not None) == (kernel_basis(m) == [])


def test_exp_additivity_nilpotent():
    m = Mat.from_rows([[0, 2, 1], [0, 0, -1], [0, 0, 0]])
    assert nilpotency_index(m) == 3
    t, s = Fraction(2, 3), Fraction(-1, 2)
    assert truncated_exp(m, t + s) == truncated_exp(m, t) @ truncated_exp(m, s)


def test_nilpotency_detection():
    assert nilpotency_index(Mat.zero(2, 2)) == 1
    assert nilpotency_index(Mat.identity(2)) is None
    assert nilpotency_index(Mat.from_rows([[0, 1], [0, 0]])) == 2


def test_mode_mixing_rejected():
    a = Mat.from_rows([[1, 0], [0, 1]])
    b = Mat.from_rows([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModeError):
        a @ b
    with pytest.raises(ModeError):
        a + b
    with pytest.raises(ModeError):
        Mat.from_rows([[Fraction(1, 2), 2.0]])
    # plain ints are mode-agnostic literals
    assert Mat.from_rows([[1, 2.0]]).mode == "float"


small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.lists(small_rats, min_size=9, max_size=9))
def test_alt_tensor_antisymmetry(vals):
    # arity-2 tensor on a 3-dim space with 1-dim values
    entries = {(0, 1): (vals[0],), (0, 2): (vals[1],), (1, 2): (vals[2],)}
    t = AltTensor(2, 3, 1, entries)
    u = tuple(vals[3:6])
    v = tuple(vals[6:9])
    assert t.eval(u, v)[0] == -t.eval(v, u)[0]
    assert t.eval(u, u)[0] == 0
    for i in range(3):
        for j in range(3):
            assert t.eval_basis(i, j)[0] == -t.eval_basis(j, i)[0]


def test_alt_tensor_basis_eval_signs():
    t = AltTensor(3, 3, 1, {(0, 1, 2): (Fraction(5),)})
    assert t.eval_basis(0, 1, 2) == (5,)
    assert t.eval_basis(1, 0, 2) == (-5,)
    assert t.eval_basis(2, 0, 1) == (5,)
    assert t.eval_basis(0, 0, 2) == (0,)


def test_alt_tensor_eval_matches_minors():
    t = AltTensor(2, 2, 1, {(0, 1): (Fraction(1),)})
    u, v = (Fraction(2), Fraction(3)), (Fraction(5), Fraction(7))
    # det [[2,3],[5,7]] = -1
    assert t.eval(u, v) == (-1,)


def test_alt_tensor_pullback_postcompose():
    t = AltTensor(2, 2, 1, {(0, 1): (Fraction(1),)})
    b = Mat.from_rows([[2, 0], [0, 3]])
    pb = t.pullback(b)
    assert pb.eval_basis(0, 1) == (6,)
    m = Mat.from_rows([[4], [1]])
    pc = t.postcompose(m)
    assert pc.eval_basis(0, 1) == (4, 1)


def test_alt_tensor_arity_zero():
    t = AltTensor(0, 3, 2, {(): (Fraction(1), Fraction(2))})
    assert t.eval() == (1, 2)
    assert AltTensor.zero(0, 3, 2).eval() == (0, 0)


@pytest.mark.parametrize("vectors", [((1, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0, 5)), ((), ())])
def test_alt_tensor_eval_rejects_a_vector_of_another_length(vectors):
    # as `Mat.apply` does: a stray coordinate must not be read or dropped silently
    with pytest.raises(ValueError, match="vector length mismatch"):
        AltTensor(2, 3, 1, {(0, 1): (1,)}).eval(*vectors)
    with pytest.raises(ValueError, match="vector length mismatch"):
        AltTensor.zero(2, 3, 1, "float").eval(*vectors)


@pytest.mark.parametrize("indices", [(0, 7), (-1, 1), (3, 0), (0, 3)])
def test_alt_tensor_eval_basis_rejects_an_index_outside_the_domain(indices):
    with pytest.raises(ValueError, match=r"index outside range\(3\)"):
        AltTensor(2, 3, 1, {(0, 1): (1,)}).eval_basis(*indices)
    assert AltTensor(2, 3, 1, {(0, 1): (1,)}).eval_basis(2, 0) == (0,)


# ---------------------------------------------------------------------------
# support-aware kernels against dense references
# ---------------------------------------------------------------------------

def _dense_eval(t, *vectors):
    """AltTensor.eval with every permutation term formed, zero factors included."""
    zero = Fraction(0) if t.mode == "exact" else 0.0
    if t.arity == 0:
        return t.entries.get((), (zero,) * t.codim)
    out = [zero] * t.codim
    for key, vec in t.entries.items():
        minor = 0
        for p in itertools.permutations(range(t.arity)):
            inversions = sum(p[i] > p[j] for i, j in itertools.combinations(range(t.arity), 2))
            sign = -1 if inversions % 2 else 1
            minor += sign * math.prod(vectors[a][key[p[a]]] for a in range(t.arity))
        if minor != 0:
            for c in range(t.codim):
                out[c] += minor * vec[c]
    return tuple(out)


def _dense_apply(m, vec):
    # left-to-right sums over every t from 0.0, as in _dense_matmul (builtin
    # float sum() compensates its rounding from Python 3.12 on)
    zero = Fraction(0) if m.mode == "exact" else 0.0
    out = []
    for i in range(m.rows):
        acc = zero
        for t in range(m.cols):
            acc += m.at(i, t) * vec[t]
        out.append(acc)
    return tuple(out)


def _bits(vec):
    """Exact mode: values, each exact (an int or a Fraction); float mode:
    the IEEE bit patterns (signed zeros too)."""
    return tuple((float, x.hex()) if type(x) is float
                 else ("exact" if type(x) in (int, Fraction) else type(x), x) for x in vec)


def _scalars(mode):
    if mode == "exact":
        return small_rats
    return st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _sparse_vec(draw, n, mode):
    """A length-n vector whose zero pattern is drawn independently of its values."""
    values = draw(st.lists(_scalars(mode), min_size=n, max_size=n))
    zeros = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    zero = Fraction(0) if mode == "exact" else draw(st.sampled_from([0.0, -0.0]))
    return tuple(zero if z else v for v, z in zip(values, zeros))


def _mat(rows, cols, data, mode):
    """A matrix of drawn data in `mode`; empty data is exact unless built as
    a zero of the mode."""
    return Mat(rows, cols, data) if data else Mat.zero(rows, cols, mode)


@st.composite
def _tensor_and_args(draw):
    mode = draw(st.sampled_from(["exact", "float"]))
    arity = draw(st.integers(0, 3))
    dim = draw(st.integers(max(arity, 1), 5))
    codim = draw(st.integers(1, 3))
    keys = draw(st.lists(st.sampled_from(list(itertools.combinations(range(dim), arity))),
                         unique=True))
    entries = {key: draw(_sparse_vec(codim, mode)) for key in keys}
    t = AltTensor(arity, dim, codim, entries, mode)
    # arguments come from a small pool, so the same vector often fills two slots
    pool = draw(st.lists(_sparse_vec(dim, mode), min_size=1, max_size=3))
    args = [draw(st.sampled_from(pool)) for _ in range(arity)]
    return t, args


def ref_alt_eval(t, *vectors):
    """The earlier permutation sum of `AltTensor.eval`: exact mode forms only
    the terms whose factors are all nonzero; float mode, and exact mode on
    fully dense arguments, form every term."""
    k = t.arity
    if k == 0:
        return t.entries.get((), t._zero_vec())
    supports = None
    if t.mode == "exact":
        supports = [{i for i, x in enumerate(v) if x} for v in vectors]
        if not all(supports):
            return t._zero_vec()
        if all(len(s) == t.dim for s in supports):
            supports = None
    out = list(t._zero_vec())
    perms = [(p, -1 if sum(p[i] > p[j] for i, j in itertools.combinations(range(k), 2)) % 2
              else 1) for p in itertools.permutations(range(k))]
    for key, vec in t.entries.items():
        terms = perms if supports is None else [
            (p, sign) for p, sign in perms
            if all(key[p[a]] in supports[a] for a in range(k))]
        minor = sum(sign * math.prod(vectors[a][key[p[a]]] for a in range(k))
                    for p, sign in terms)
        if minor != 0:
            for c in range(t.codim):
                out[c] += minor * vec[c]
    return tuple(out)


def _signed_draw(rng, n, mode):
    """n scalars of `mode`, a third of them zero (of either sign in float)."""
    if mode == "exact":
        return [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) if rng.random() < 0.67 else 0
                for _ in range(n)]
    return [rng.uniform(-1, 1) if rng.random() < 0.67 else rng.choice((0.0, -0.0))
            for _ in range(n)]


def test_alt_eval_and_pullback_match_the_permutation_sum_reference():
    rng = random.Random(31)
    for mode, arity in itertools.product(("exact", "float"), range(4)):
        for _ in range(40):
            dim, codim = rng.randint(max(arity, 1), 5), rng.randint(1, 3)
            keys = [k for k in itertools.combinations(range(dim), arity) if rng.random() < 0.7]
            t = AltTensor(arity, dim, codim, {k: _signed_draw(rng, codim, mode) for k in keys},
                          mode)
            # a small pool, so the same vector often fills two slots
            pool = [tuple(_signed_draw(rng, dim, mode)) for _ in range(2)]
            for _ in range(3):
                args = [rng.choice(pool) for _ in range(arity)]
                assert _bits(t.eval(*args)) == _bits(ref_alt_eval(t, *args))
            cols = rng.randint(1, 4)
            b = Mat(dim, cols, _signed_draw(rng, dim * cols, mode))
            got = t.pullback(b)
            for key in itertools.combinations(range(cols), arity):
                want = ref_alt_eval(t, *(b.col(j) for j in key))
                assert _bits(got.eval_basis(*key)) == _bits(want)


def ref_sparse_eval(t, *vectors):
    """The earlier loop of `sparse_eval`: every stored key tested against
    the support of the vectors."""
    k, support, out = t.arity, set().union(*vectors), {}
    perms = [(p, -1 if sum(p[i] > p[j] for i, j in itertools.combinations(range(k), 2)) % 2
              else 1) for p in itertools.permutations(range(k))]
    for key, vec in t.entries.items():
        if not support.issuperset(key):
            continue
        minor = 0
        for p, sign in perms:
            factors = [vectors[a].get(key[p[a]]) for a in range(k)]
            if all(factors):
                minor += sign * math.prod(factors)
        if minor:
            for c, y in enumerate(vec):
                if y:
                    out[c] = out[c] + minor * y if c in out else minor * y
    return out


def test_sparse_eval_walks_the_support_or_the_keys_as_the_key_loop_does():
    """Both ways of `sparse_eval`, the k-subsets of a small support and the
    stored keys of a sparse tensor, give the key loop's sums: the same
    components in the same order, exact values of the same type, floats
    bit for bit (a NaN and a -0.0 value included)."""
    def typed(out):
        return [(c, x.hex() if type(x) is float else (type(x), x)) for c, x in out.items()]

    rng = random.Random(37)
    ways = set()
    for mode, arity in itertools.product(("exact", "float"), range(4)):
        for _ in range(60):
            dim, codim = rng.randint(max(arity, 1), 7), rng.randint(1, 3)
            density = rng.choice((0.2, 0.6, 1.0))
            keys = [k for k in itertools.combinations(range(dim), arity) if rng.random() < density]
            entries = {k: _signed_draw(rng, codim, mode) for k in keys}
            if mode == "float" and entries:
                entries[rng.choice(keys)] = [math.nan, -0.0, 1.0][:codim]
            t = AltTensor(arity, dim, codim, entries, mode)
            for _ in range(3):
                size = rng.randint(0, dim)
                draws = [zip(rng.sample(range(dim), size), _signed_draw(rng, size, mode))
                         for _ in range(arity)]
                vectors = [{i: x for i, x in pairs if x} for pairs in draws]
                support = set().union(*vectors)
                ways.add(math.comb(len(support), arity) < len(t.entries))
                assert typed(sparse_eval(t, *vectors)) == typed(ref_sparse_eval(t, *vectors))
    assert ways == {True, False}


@given(_tensor_and_args())
def test_alt_eval_matches_dense_reference(case):
    t, args = case
    assert _bits(t.eval(*args)) == _bits(_dense_eval(t, *args))


@given(st.sampled_from(["exact", "float"]), st.integers(0, 4), st.integers(0, 5), st.data())
def test_mat_apply_matches_dense_reference(mode, rows, cols, data):
    m = _mat(rows, cols, data.draw(_sparse_vec(rows * cols, mode)), mode)
    vec = data.draw(_sparse_vec(cols, mode))
    assert m.mode == mode
    assert _bits(m.apply(vec)) == _bits(_dense_apply(m, vec))


def _dense_matmul(a, b):
    # left-to-right sums over every t from 0.0 (builtin float sum() compensates
    # its rounding from Python 3.12 on, so it is not used here)
    zero = Fraction(0) if a.mode == "exact" else 0.0
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = zero
            for t in range(a.cols):
                acc += a.at(i, t) * b.at(t, j)
            out.append(acc)
    return Mat(a.rows, b.cols, out)


@given(st.sampled_from(["exact", "float"]), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_mat_matmul_matches_dense_reference(mode, n, k, m, data):
    a = _mat(n, k, data.draw(_sparse_vec(n * k, mode)), mode)
    b = _mat(k, m, data.draw(_sparse_vec(k * m, mode)), mode)
    got, want = a @ b, _dense_matmul(a, b)
    assert (got.rows, got.cols, got.mode) == (n, m, mode)
    assert _bits(got.data) == _bits(want.data)


@given(st.sampled_from(["exact", "float"]), st.integers(0, 3), st.integers(0, 4), st.data())
def test_mat_add_sub_neg_match_dense_reference(mode, rows, cols, data):
    # exact sums skip zero operands; float ones stay dense, signed zeros included
    a = _mat(rows, cols, data.draw(_sparse_vec(rows * cols, mode)), mode)
    b = _mat(rows, cols, data.draw(_sparse_vec(rows * cols, mode)), mode)
    for got, want in ((a + b, [x + y for x, y in zip(a.data, b.data)]),
                      (a - b, [x + (-y) for x, y in zip(a.data, b.data)]),
                      (-a, [-x for x in a.data])):
        assert (got.rows, got.cols, got.mode) == (rows, cols, mode)
        assert _bits(got.data) == _bits(want)


def test_mat_add_sub_neg_keep_float_signed_zeros():
    a = Mat(1, 4, [0.0, 0.0, -0.0, -0.0])
    b = Mat(1, 4, [0.0, -0.0, 0.0, -0.0])
    assert _bits((a + b).data) == _bits((0.0, 0.0, 0.0, -0.0))
    assert _bits((a - b).data) == _bits((0.0, 0.0, -0.0, 0.0))
    assert _bits((-a).data) == _bits((-0.0, -0.0, 0.0, 0.0))


def test_alt_eval_repeated_basis_arguments_vanish():
    t = AltTensor(3, 4, 2, {(0, 1, 2): (Fraction(5), Fraction(-1)), (1, 2, 3): (Fraction(2), 0)})
    e = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)]
    assert t.eval(e[1], e[1], e[2]) == (0, 0)
    assert t.eval(e[2], e[1], e[3]) == (-2, 0)
    assert t.eval(e[0], (0, 0, 0, 0), e[2]) == (0, 0)


def test_float_sums_run_left_to_right_on_every_python():
    # compensated summation (builtin sum() from Python 3.12 on) would give 1.0,
    # 1.0 and 1e16 + 2 here; plain left-to-right sums lose the small terms
    assert _bits(Mat(1, 3, [1.0, 1.0, 1.0]).apply((1e16, 1.0, -1e16))) == _bits((0.0,))
    assert Mat(3, 3, [1e16, 0, 0, 0, 1.0, 0, 0, 0, -1e16]).trace() == 0.0
    assert row_sum_norm(Mat(1, 3, [1e16, 1.0, -1.0])) == 1e16


def test_mat_apply_rejects_a_vector_of_the_other_mode():
    # a float coordinate, even a zero one, does not meet an exact matrix, nor a
    # Fraction a float one; ints fit either mode, as in literal data
    m = Mat.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ModeError):
        m.apply((0.0, 0.0))
    with pytest.raises(ModeError):
        m.to_float().apply((0, Fraction(1, 2)))
    out = m.apply((0, Fraction(1, 2)))
    assert out == (1, 2) and all(type(x) in (int, Fraction) for x in out)
    assert _bits(m.to_float().apply((1, 0))) == _bits((1.0, 3.0))


def test_alt_tensor_eval_rejects_a_vector_of_the_other_mode():
    # as `Mat.apply` does: an exact tensor read a float vector into (1.5, 3.0)
    t = AltTensor(2, 3, 2, {(0, 1): (1, 2), (1, 2): (3, 0)})
    with pytest.raises(ModeError):
        t.eval((1.5, 0, 0), (0, 1, 0))
    with pytest.raises(ModeError):
        t.to_float().eval((Fraction(3, 2), 0, 0), (0, 1, 0))
    assert t.eval((Fraction(3, 2), 0, 0), (0, 1, 0)) == (Fraction(3, 2), 3)
    assert t.to_float().eval((1.5, 0, 0), (0, 1, 0)) == (1.5, 3.0)


# ---------------------------------------------------------------------------
# coordinates in the span of a kernel basis
# ---------------------------------------------------------------------------

def _basis_columns(basis, n):
    """The n x len(basis) matrix whose columns are the basis vectors."""
    return Mat(n, len(basis), [v[j] for j in range(n) for v in basis])


@given(st.integers(1, 5), st.integers(0, 5), st.data())
def test_span_coords_equals_solve(rows, cols, data):
    m = Mat(rows, cols, data.draw(st.lists(small_rats, min_size=rows * cols,
                                           max_size=rows * cols)))
    basis, coords = kernel(m)
    cb = _basis_columns(basis, cols)
    # the basis columns are independent, so solve's one solution is the only one
    x = tuple(data.draw(st.lists(small_rats, min_size=len(basis), max_size=len(basis))))
    b = cb.apply(x)
    assert coords(b) == x == solve(cb, b)
    other = tuple(data.draw(st.lists(small_rats, min_size=cols, max_size=cols)))
    assert coords(other) == solve(cb, other)


def test_span_coords_off_span_is_none():
    # x + y = z: the basis is (-1, 1, 0) and (1, 0, 1), at free columns 1 and 2
    basis, coords = kernel(Mat.from_rows([[1, 1, -1]]))
    assert basis == [(-1, 1, 0), (1, 0, 1)]
    assert coords((5, 2, 7)) == (2, 7)
    assert coords((5, 2, 6)) is None
    assert coords((1, 0, 0)) is None
    # a zero kernel holds the zero vector only
    _, coords = kernel(Mat.identity(2))
    assert coords((0, 0)) == ()
    assert coords((0, 1)) is None


# ---------------------------------------------------------------------------
# sympy as an independent oracle (test-only; skipped when sympy is absent)
# ---------------------------------------------------------------------------

def _to_sympy(m):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.data])


# Entries are dense, or zero-heavy (about 70% zeros): on the larger shapes
# the sparsest candidate row is then often not the topmost one, so the
# elimination order differs from the textbook one while the reduced form
# must not.
zero_heavy_rats = st.tuples(st.integers(0, 9), small_rats).map(
    lambda p: p[1] if p[0] >= 7 else Fraction(0))


def _draw_mat(data, rows, cols):
    entries = data.draw(st.sampled_from([small_rats, zero_heavy_rats]))
    return Mat(rows, cols, data.draw(st.lists(entries, min_size=rows * cols,
                                              max_size=rows * cols)))


@settings(deadline=None)  # the first example pays for importing sympy
@given(st.integers(1, 8), st.integers(1, 10), st.data())
def test_rref_and_solve_match_sympy(rows, cols, data):
    m = _draw_mat(data, rows, cols)
    sm = _to_sympy(m)
    red, pivots = rref(m)
    sred, spivots = sm.rref()
    assert list(spivots) == pivots
    assert _to_sympy(red) == sred
    b = tuple(data.draw(st.lists(small_rats, min_size=rows, max_size=rows)))
    sb = _to_sympy(Mat(rows, 1, b))
    x = solve(m, b)
    assert (x is None) == (sm.row_join(sb).rank() > sm.rank())
    if x is not None:
        assert sm * _to_sympy(Mat(cols, 1, x)) == sb


@settings(deadline=None)
@given(st.integers(1, 8), st.integers(1, 10), st.data())
def test_kernel_basis_and_rank_match_sympy(rows, cols, data):
    m = _draw_mat(data, rows, cols)
    sm = _to_sympy(m)
    assert rank(m) == sm.rank()
    basis, coords = kernel(m)
    assert basis == kernel_basis(m)
    # both set one free column to 1 and the others to 0, so the bases agree
    got = [_to_sympy(Mat(cols, 1, v)) for v in basis]
    assert got == sm.nullspace()
    # the coordinates of a combination of the basis are its coefficients
    x = tuple(data.draw(st.lists(zero_heavy_rats, min_size=len(basis), max_size=len(basis))))
    assert coords(tuple(sum((c * v[j] for c, v in zip(x, basis)), Fraction(0))
                        for j in range(cols))) == x
    # any vector is in the span iff sympy's m b vanishes
    b = tuple(data.draw(st.lists(data.draw(st.sampled_from([small_rats, zero_heavy_rats])),
                                 min_size=cols, max_size=cols)))
    assert (coords(b) is None) == (not (sm * _to_sympy(Mat(cols, 1, b))).is_zero_matrix)


@settings(deadline=None)
@given(st.integers(1, 8), st.booleans(), st.data())
def test_mat_inverse_matches_sympy(n, shift, data):
    m = _draw_mat(data, n, n)
    if shift:  # zero-heavy matrices are mostly singular; shifted ones mostly not
        m = m + Mat.identity(n)
    sm = _to_sympy(m)
    inv = mat_inverse(m)
    assert (inv is None) == (sm.det() == 0)
    if inv is not None:
        assert _to_sympy(inv) == sm.inv()


@settings(deadline=None)
@given(st.integers(1, 8), st.integers(1, 10), st.booleans(), st.data())
def test_span_coords_matches_sympy(rows, cols, in_span, data):
    m = _draw_mat(data, rows, cols)
    basis, coords = kernel(m)
    cb = _basis_columns(basis, cols)
    scb = _to_sympy(cb)
    x = tuple(data.draw(st.lists(zero_heavy_rats, min_size=len(basis), max_size=len(basis))))
    assert coords(cb.apply(x)) == x
    # b is a combination of the basis, or any vector (then mostly off the span)
    b = cb.apply(tuple(data.draw(st.lists(small_rats, min_size=len(basis),
                                          max_size=len(basis))))) if in_span else \
        tuple(data.draw(st.lists(zero_heavy_rats, min_size=cols, max_size=cols)))
    sb = _to_sympy(Mat(cols, 1, b))
    got = coords(b)
    assert (got is None) == (scb.row_join(sb).rank() > len(basis))
    if got is not None:
        assert scb * _to_sympy(Mat(len(basis), 1, got)) == sb


def test_der0_constraint_kernels_match_sympy():
    # the assembled constraint rows the derivation solve reduces, densified
    # here; no row stores a zero
    algebras = [fixtures.fix_str(), fixtures.skeletal_demo()]
    algebras += [fixtures.random_fixture(random.Random(seed)) for seed in range(10)]
    for L in algebras:
        rows, n = der0_constraints(L), _der0_flat_len(L)
        assert all(v != 0 for r in rows for v in r.values())
        c = Mat(len(rows), n, [r.get(u, 0) for r in rows for u in range(n)])
        want = _to_sympy(c).nullspace()
        assert [_to_sympy(Mat(n, 1, v)) for v in kernel_basis(c)] == want
        got = [_to_sympy(Mat(n, 1, flatten_der0(L, D))) for D in compute_der0_basis(L)]
        assert got == want


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.data())
def test_truncated_exp_of_nilpotent_matches_sympy(n, data):
    # strictly upper triangular, then conjugated by a permutation: nilpotent,
    # but not triangular in the basis the kernel sees
    upper = [data.draw(small_rats) if j > i else Fraction(0) for i in range(n) for j in range(n)]
    perm = data.draw(st.permutations(range(n)))
    p = Mat(n, n, [Fraction(int(perm[i] == j)) for i in range(n) for j in range(n)])
    m = p @ Mat(n, n, upper) @ p.transpose()
    t = data.draw(small_rats)
    got = truncated_exp(m, t)
    assert got.mode == "exact"
    assert _to_sympy(got) == _to_sympy(m.scale(t)).exp()


@given(st.sampled_from(["exact", "float"]), st.integers(0, 3), st.integers(0, 3), st.data())
def test_mat_results_equal_coerced_construction(mode, n, k, data):
    # results of @, +, -, unary minus and scale skip the coercion of __init__;
    # rebuilding them through __init__ must change nothing: values, types, and
    # the mode, except that empty literal data is exact while an empty result
    # keeps the mode of its operands
    a = _mat(n, k, data.draw(_sparse_vec(n * k, mode)), mode)
    b = _mat(n, k, data.draw(_sparse_vec(n * k, mode)), mode)
    c = _mat(k, n, data.draw(_sparse_vec(k * n, mode)), mode)
    s = data.draw(st.sampled_from([2, -1]) | _scalars(mode))
    for got in (a @ c, a + b, a - b, -a, a.scale(s)):
        want = Mat(got.rows, got.cols, got.data)
        assert got.mode == mode and _bits(got.data) == _bits(want.data)
        assert want.mode == (mode if got.data else "exact")


def test_mat_user_data_keeps_mode_checks():
    with pytest.raises(ModeError):
        Mat(1, 2, [Fraction(1, 2), 0.5])
    with pytest.raises(ModeError):
        Mat(1, 1, [1]) + Mat(1, 1, [1.0])
    with pytest.raises(ModeError):
        Mat(1, 1, [1]).scale(0.5)
    assert Mat(0, 3, []).mode == "exact" and Mat.zero(2, 0, "float").mode == "float"
    assert (Mat.zero(2, 0, "float") @ Mat.zero(0, 2, "float")).mode == "float"
    with pytest.raises(ModeError):
        Mat.zero(2, 0, "float") @ Mat.zero(0, 2)


def test_empty_float_mat_product_stays_float():
    for a, b in ((Mat.zero(2, 0, "float"), Mat.zero(0, 3, "float")),
                 (Mat.zero(0, 2, "float"), Mat.zero(2, 3, "float")),
                 (Mat.zero(2, 2, "float"), Mat.zero(2, 0, "float"))):
        got = a @ b
        assert got.mode == "float" and all(isinstance(x, float) for x in got.data)
    assert Mat.identity(0, "float").mode == "float" and Mat.zero(0, 2).to_float().mode == "float"
    assert Mat.zero(3, 0, "float").transpose().mode == "float"


def test_tensor_mode_is_declared_or_read_from_the_values():
    assert AltTensor(2, 2, 1, {(0, 1): (0,)}, "float").mode == "float"
    assert AltTensor(2, 2, 1, {(0, 1): (0.5,)}).mode == "float"
    assert AltTensor(2, 2, 1, {(0, 1): (1,)}).mode == "exact"
    assert (AltTensor.zero(2, 2, 1, "float") + AltTensor.zero(2, 2, 1, "float")).mode == "float"
    with pytest.raises(ModeError):
        AltTensor(2, 2, 1, {(0, 1): (Fraction(1, 2),)}, "float")
    # as in Mat, one float entry in any value makes every value float
    mixed = AltTensor(2, 3, 1, {(0, 1): (1,), (0, 2): (0.5,)})
    assert mixed.mode == "float" and mixed.entries == {(0, 1): (1.0,), (0, 2): (0.5,)}
    assert type(mixed.entries[(0, 1)][0]) is float
    with pytest.raises(ModeError):
        AltTensor.zero(2, 2, 1, "float") + AltTensor.zero(2, 2, 1)
    with pytest.raises(ModeError):
        AltTensor.zero(2, 2, 1).postcompose(Mat.zero(1, 1, "float"))


# ---------------------------------------------------------------------------
# mode names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: Mat.zero(2, 2, "Exact"), lambda: Mat.identity(2, "exct"),
    lambda: Mat.identity(0, "exct"),
    lambda: vzero(2, "Exact"), lambda: basis_vec(2, 0, "exct"), lambda: scalar_zero("EXACT"),
    lambda: AltTensor.zero(2, 3, 1, "floaty"), lambda: AltTensor(2, 2, 1, {}, "Float"),
    lambda: AltTensor(2, 2, 1, {(0, 1): (1,)}, "exact "),
], ids=["Mat.zero", "Mat.identity", "Mat.identity-0x0", "vzero", "basis_vec", "scalar_zero",
        "AltTensor.zero", "AltTensor-no-values", "AltTensor-values"])
def test_an_unknown_mode_name_raises_at_construction(make):
    with pytest.raises(ValueError, match="unknown scalar mode"):
        make()


def test_known_mode_names_build_their_kind():
    assert Mat.zero(1, 2, "float").data == (0.0, 0.0)
    assert Mat.identity(2, "exact").data == (1, 0, 0, 1)
    assert [type(x) for x in vzero(2, "float") + basis_vec(2, 1, "exact")] == [float] * 2 + [int] * 2
    assert (scalar_zero("exact"), AltTensor.zero(2, 3, 1, "float").mode) == (0, "float")
