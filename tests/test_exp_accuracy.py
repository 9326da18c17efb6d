"""Float `truncated_exp` against mpmath.

The rule (`linalg._taylor_plan`): with x = |t| ||m|| (max row sum), s is
the least s >= 0 with tail_order(x / 2^s) <= 2^-53, and m the least degree
with tail_m(x / 2^s) <= 2^-53, where tail_k(y) = y^{k+1}/(k+1)! /
(1 - y/(k+2)) e^y bounds the relative truncation error of the degree-k
Taylor sum.  These tests hold the rule to that definition, evaluated here
at 40 digits, and the results to their bound against `mpmath.expm`.
"""

import math
import random
import sys
import time

import mpmath
import pytest

from lie2alg import cli, integration, linalg
from lie2alg.linalg import Mat, _taylor_plan, _theta, row_sum_norm, truncated_exp

U = 2.0 ** -53
# the code evaluates tail_k in floats, in logs; its rounding is far below this
SLACK = 1e-12
ORDERS = (1, 2, 5, 13, 24, 30)


def _tail(k, y):
    """tail_k(y) at 40 digits; infinite where the geometric bound fails."""
    if y >= k + 2:
        return mpmath.inf
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        return y ** (k + 1) / mpmath.factorial(k + 1) / (1 - y / (k + 2)) * mpmath.exp(y)


def _norms():
    """Norms x across the scale, with each theta_k of ORDERS and the float
    just above it, where the plan changes."""
    xs = [0.0, 1e-300, 1e-20, 1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 8.0, 30.0, 1e3, 1e10, 1e300]
    for order in ORDERS:
        for k in range(1, order + 1):
            theta = _theta(k)
            xs += [theta, math.nextafter(theta, math.inf), 5 * theta]
    return xs


def test_taylor_plan_meets_the_bound_with_the_least_squarings_and_degree():
    for order in ORDERS:
        for x in _norms():
            m, s = _taylor_plan(x, order)
            assert 1 <= m <= order and s >= 0, (x, order)
            y = math.ldexp(x, -s)
            assert _tail(m, y) <= U * (1 + SLACK), (x, order, m, s)
            # one squaring fewer breaks the bound of the cap, one degree less
            # breaks it at the chosen squarings
            assert s == 0 or _tail(order, math.ldexp(x, 1 - s)) > U * (1 - SLACK), (x, order)
            assert m == 1 or _tail(m - 1, y) > U * (1 - SLACK), (x, order, m, s)


def test_no_squaring_up_to_theta_of_the_order():
    assert 2.13 < _theta(24) < 2.15
    for order in ORDERS:
        theta = _theta(order)
        for x in (0.0, theta / 3, theta):
            assert _taylor_plan(x, order)[1] == 0
        assert _taylor_plan(math.nextafter(theta, math.inf), order)[1] == 1
        thetas = [_theta(k) for k in range(1, order + 1)]
        assert thetas == sorted(set(thetas))  # increasing


def test_a_large_order_computes_only_the_thetas_it_probes():
    # theta_k is about 2.1 at k = 24 and grows with k, so a norm of 1 needs
    # no squaring and the degree does not depend on a cap of 24 or more
    cached = _theta.cache_info().currsize
    start = time.perf_counter()
    assert _taylor_plan(1.0, 10 ** 9) == _taylor_plan(1.0, 24)
    assert time.perf_counter() - start < 1.0
    assert _theta.cache_info().currsize - cached <= 2 * 30  # about log2(10^9) bisection probes
    # the largest order a range can hold plans as fast
    assert _taylor_plan(1.0, sys.maxsize) == _taylor_plan(1.0, 24)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("order", [sys.maxsize + 1, 10 ** 19, 10 ** 400])
def test_order_above_sys_maxsize_raises(order):
    with pytest.raises(ValueError, match=f"order must be from 1 to sys.maxsize = {sys.maxsize}"):
        truncated_exp(Mat.from_rows([[1.0]]), 1, order)


def _random_mat(rng, size, norm, dense):
    data = [rng.uniform(-1, 1) if dense or rng.random() < 0.35 else 0.0 for _ in range(size * size)]
    if not any(data):
        data[0] = 1.0
    m = Mat(size, size, data)
    return m.scale(norm / row_sum_norm(m))


def test_products_are_the_degree_plus_the_squarings(monkeypatch):
    """Each float call forms m + s products (and one for the norm); at the
    default order that is never more products, nor more squarings, than 24
    terms at ||tm|| <= 1/2 take."""
    rng, count = random.Random(3), [0]
    flat_mul = linalg._flat_mul

    def counting(*args):
        count[0] += 1
        return flat_mul(*args)

    monkeypatch.setattr(linalg, "_flat_mul", counting)
    for size in (1, 3, 5):
        for norm in (1e-3, 0.3, 1, 2.5, 7, 40):
            m = _random_mat(rng, size, norm, dense=True)
            for t in (1, -0.5, 3):
                x = abs(t) * row_sum_norm(m)
                half_rule_s = max(0, math.ceil(math.log2(2 * x)))
                for order in (1, 5, 24):
                    count[0] = 0
                    truncated_exp(m, t, order)
                    deg, s = _taylor_plan(x, order)
                    assert count[0] == 1 + deg + s
                    if order == 24:
                        assert s <= half_rule_s and deg + s <= 24 + half_rule_s


def _mp_norm(rows):
    return max(sum(abs(v) for v in r) for r in rows)


def test_float_exp_is_within_its_bound_of_mpmath():
    """Relative error, in the max row sum norm, of sizes 1-6 and norms 1e-3
    to 30, dense and sparse, at orders 1, 5 and 24: at most the truncation
    bound plus a rounding model, (m + n) u e^{2y} for the degree-m sum of
    an n x n matrix of norm y, both doubled by each of the s squarings (to
    first order).  Order 1 squares about 30 times and still converges."""
    rng = random.Random(11)
    for size in range(1, 7):
        for norm in (1e-3, 1e-2, 0.1, 0.5, 1, 2, 3, 8, 30):
            for dense in (True, False):
                m = _random_mat(rng, size, norm, dense)
                with mpmath.workdps(40):
                    e = mpmath.expm(mpmath.matrix([list(m.row(i)) for i in range(size)]))
                    want = [[e[i, j] for j in range(size)] for i in range(size)]
                    scale = _mp_norm(want)
                    for order in (1, 5, 24):
                        got = truncated_exp(m, 1, order)
                        err = _mp_norm([[got.at(i, j) - want[i][j] for j in range(size)]
                                        for i in range(size)]) / scale
                        deg, s = _taylor_plan(row_sum_norm(m), order)
                        y = math.ldexp(row_sum_norm(m), -s)
                        bound = 2 ** s * (_tail(deg, y) + (deg + size) * U * math.exp(2 * y))
                        assert err <= bound, (size, norm, dense, order, float(err), float(bound))
                        if order == 24:
                            assert err < 1e-14 * (1 + norm)


def test_order_one_still_converges():
    got = truncated_exp(Mat.from_rows([[1.0]]), 1, order=1).at(0, 0)
    assert abs(got - math.e) < 1e-7 * math.e
    rot = truncated_exp(Mat.from_rows([[0.0, -1.0], [1.0, 0.0]]), 30, order=1)
    assert abs(rot.at(0, 0) - math.cos(30)) < 1e-6 and abs(rot.at(1, 0) - math.sin(30)) < 1e-6


def _plain_series(m, t=1, order=24):
    """The order-24 Taylor sum with no scaling and squaring."""
    term = out = Mat.identity(m.rows, "float")
    for n in range(1, order + 1):
        term = (term @ m).scale(float(t) / n)
        out = out + term
    return out


def _mp_series(m, t=1, order=24):
    """e^{tm} by mpmath at 40 digits, as a Mat holding mpf entries."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix([[x * mpmath.mpf(t) for x in m.row(i)] for i in range(m.rows)]))
        return Mat._result(m.rows, m.cols, [e[i, j] for i in range(m.rows) for j in range(m.cols)],
                           "float")


def _rel_errors(got, want):
    """(A0, A2) errors of got against want: max entry difference over max
    entry of want."""
    def a2(h):
        return [x for key in sorted(want.A2.entries)
                for x in h.A2.entries.get(key, (0.0,) * h.A2.codim)]

    out = []
    for g, w in ((got.A0.data, want.A0.data), (a2(got), a2(want))):
        out.append(max(abs(a - b) for a, b in zip(g, w)) / max(abs(b) for b in w))
    return out


def test_conjugation_exponentials_of_the_found_case_match_the_plain_series(monkeypatch):
    """`lie2 check skeletal-demo --suite conjugation --samples 2 --seed
    746966549`: the A0 and A2 of every float e^D it forms err, against
    mpmath, by at most twice the unsquared order-24 series."""
    calls, exp_hom = [], integration._exp_hom

    def record(L, D, t, order):
        if L.mode == "float":
            calls.append((L, D, t, order))
        return exp_hom(L, D, t, order)

    monkeypatch.setattr(integration, "_exp_hom", record)
    code, _ = cli.run(["check", "skeletal-demo", "--suite", "conjugation", "--samples", "2",
                       "--seed", "746966549"])
    monkeypatch.undo()
    assert code == 0 and len(calls) >= 4

    def with_series(series, args):
        monkeypatch.setattr(linalg, "truncated_exp", series)
        monkeypatch.setattr(integration, "truncated_exp", series)
        try:
            return exp_hom(*args)
        finally:
            monkeypatch.undo()

    for args in calls:
        want = with_series(_mp_series, args)
        new = _rel_errors(exp_hom(*args), want)
        plain = _rel_errors(with_series(_plain_series, args), want)
        assert new[0] <= 2 * plain[0] and new[1] <= 2 * plain[1], (new, plain)


@pytest.mark.parametrize("order", [0, -1])
def test_order_below_one_raises(order):
    with pytest.raises(ValueError, match="order"):
        truncated_exp(Mat.from_rows([[1.0]]), 1, order)


@pytest.mark.parametrize("order", [2.5, 24.0, "3", None])
@pytest.mark.parametrize("data", [[[1.0]], [[0, 1], [0, 0]]], ids=["float", "exact"])
def test_an_order_that_is_no_int_raises(order, data):
    # a float order would reach range() in `_taylor_plan`, a string a comparison
    with pytest.raises(ValueError, match=f"order must be from 1 to sys.maxsize = {sys.maxsize}, an int"):
        truncated_exp(Mat.from_rows(data), 1, order)
