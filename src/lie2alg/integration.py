"""Exponential maps from derivations to automorphisms, and the checks
that the automorphism 2-group integrates the derivation Lie 2-algebra.

Every exponential is a block of one matrix exponential, computed by
`linalg.truncated_exp` (Van Loan 1978).  For a degree-0 derivation
D = (X0, X1, lX), A0 = e^{tX0}, and A1, A2 are the top-left and top-right
blocks of e^{tM}, M = [[X1, LX], [0, Lam]] on g_{-1} + Lam^2 g_0, where LX
is lX on increasing basis pairs and Lam is X0 acting as a derivation on
Lam^2 g_0.  The star exponential of theta is the top-right block of
e^{tN}, N = [[theta d, theta], [0, 0]].  Series terminate (and everything
stays exact) when M or N is nilpotent, which holds exactly when X0 and X1,
or theta d, are; otherwise the computation converts to float and scales
and squares a series truncated at a configurable order.  Finite-difference
probes recover the graded bracket from group commutators at second order
in the step; one step builds the four exponentials (and, in degree -1,
their star inverses) once, and its four commutators share them.

The scalar mode follows the values, and is decided once per identity:
`_joint_mode` keeps an identity exact iff the algebra and every operand
are exact and every series the identity exponentiates terminates;
otherwise it converts the algebra and all operands to float together, so
both sides of an identity, and every exponential within it, share one
mode.  Every value carries its mode from construction, so an exponential
inside an identity, run on the converted values, makes the same choice,
and `truncated_exp` simply follows the mode of its input.  The checks
return (residual, mode) pairs: the mode label of each report line is the
mode that computed it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .automorphisms import (
    Aut0,
    Tau,
    TauDraws,
    TwoGroupCell,
    act,
    ad_conjugate,
    aut_compose,
    aut_identity,
    certify_aut0,
    conjugate_hom,
    partial,
    random_tau,
    star,
    tau_distance,
    tau_inverse,
    tau_of_draws,
    tau_zero,
)
from .core import Lie2Algebra, Lie2Hom, compose_hom, hom_distance
from .derivations import (
    DerM1,
    Derivation0,
    _der0_combination,
    adbar0_single,
    compute_der0_basis,
    dbar,
    der0_distance,
    derM1_basis,
    graded_bracket,
    inn0_basis,
    is_derivation0,
    random_der0,
    random_derM1,
    ratio_draws,
)
from .linalg import (
    AltTensor,
    Mat,
    nilpotency_index,
    row_sum_norm,
    truncated_exp,
    vzero,
)


@dataclass(frozen=True)
class ExpConfig:
    """Truncation, tolerance and finite-difference step of the exponential
    maps.

    The scalar mode is not configured: it follows the values (see
    `_joint_mode`).  A float series sums `order` terms, with scaling and
    squaring, and a float identity passes within `tol`; `fd_step` is the
    step of the bracket-recovery finite differences.
    """

    order: int = 24
    tol: float = 1e-9
    fd_step: float = 1e-3

    def __post_init__(self):
        if self.order < 1 or self.tol <= 0 or self.fd_step <= 0:
            raise ValueError("order >= 1, tol > 0 and fd_step > 0 required")


DEFAULT = ExpConfig()


def der0_terminating(D: Derivation0):
    """Nilpotency indices (p0, p1) when the degree-0 series terminates."""
    if D.mode != "exact":
        return None
    p0 = nilpotency_index(D.X0)
    p1 = nilpotency_index(D.X1)
    if p0 is None or p1 is None:
        return None
    return p0, p1


def derM1_terminating(L: Lie2Algebra, T: DerM1):
    """Nilpotency index of theta d when the degree -1 series terminates."""
    if T.mode != "exact" or L.mode != "exact":
        return None
    return nilpotency_index(T.theta @ L.d)


def _exp_upper(a: Mat, b: Mat, c: Mat, t, order: int):
    """Top-left and top-right blocks of e^{tM} for M = [[a, b], [0, c]], in
    the mode of a, b and c.

    The top-right block is the integral of e^{(t-s)a} b e^{sc} over
    [0, t] (Van Loan 1978).  M is nilpotent exactly when a and c are.  That
    block is linear in b, so in float mode b is scaled by an exact power of
    two 2^-k to a norm of at most max(||a||, ||c||, 1/2) and the block by
    2^k afterwards: a large b then adds no squarings, which would cost the
    top-left block e^{ta} accuracy."""
    n, m, mode, k = a.rows, c.rows, a.mode, 0
    if mode == "float":
        nb, cap = row_sum_norm(b), max(row_sum_norm(a), row_sum_norm(c), 0.5)
        if cap < nb < math.inf:
            # 2^k stays a finite float: a finite nb is below 2^1024
            k = min(1023, math.ceil(math.log2(nb) - math.log2(cap)))
            b = b.scale(2.0 ** -k)
    rows = [a.row(i) + b.row(i) for i in range(n)] + [vzero(n, mode) + c.row(i) for i in range(m)]
    E = truncated_exp(Mat._result(n + m, n + m, [x for r in rows for x in r], mode), t, order)
    top = Mat._result(n, m, [E.at(i, j) for i in range(n) for j in range(n, n + m)], mode)
    return (Mat._result(n, n, [E.at(i, j) for i in range(n) for j in range(n)], mode),
            top.scale(2.0 ** k) if k else top)


def _exp_hom(L: Lie2Algebra, D: Derivation0, t, order: int) -> Lie2Hom:
    """e^{tD} = (e^{tX0}, A1, A2), with A1 and A2 the blocks of e^{tM},
    M = [[X1, LX], [0, Lam]].  Lam(e_p^e_q) = X0e_p^e_q + e_p^X0e_q, written
    in the increasing-pair basis with the sign of the swap.  The top-right
    block is sum_{n>=1} t^n/n! sum_{i+j+k=n-1} binom(i+j, i)
    X1^k lX(X0^i ., X0^j .) on the pairs."""
    n0, n1, mode = D.X0.rows, D.X1.rows, L.mode
    pairs = list(itertools.combinations(range(n0), 2))
    index = {pq: j for j, pq in enumerate(pairs)}
    npairs = len(pairs)
    lam = list(vzero(npairs * npairs, mode))
    for j, (p, q) in enumerate(pairs):
        for r in range(n0):
            for u, v, x in ((r, q, D.X0.at(r, p)), (p, r, D.X0.at(r, q))):
                if x and u != v:
                    if u < v:
                        lam[index[(u, v)] * npairs + j] += x
                    else:
                        lam[index[(v, u)] * npairs + j] -= x
    cols = [D.lX.eval_basis(p, q) for p, q in pairs]
    LX = Mat._result(n1, npairs, [v[i] for i in range(n1) for v in cols], mode)
    A1, top = _exp_upper(D.X1, LX, Mat._result(npairs, npairs, lam, mode), t, order)
    A2 = AltTensor._result(2, n0, n1, {pq: top.col(j) for j, pq in enumerate(pairs)}, mode)
    return Lie2Hom(L, L, truncated_exp(D.X0, t, order), A1, A2)


def _terminates(L: Lie2Algebra, X) -> bool:
    return (derM1_terminating(L, X) if isinstance(X, DerM1) else der0_terminating(X)) is not None


def _joint_mode(L: Lie2Algebra, exps, *operands):
    """The one mode decision of an identity that exponentiates `exps`.

    Returns (mode, algebra, exps + operands).  The mode is "exact" iff the
    algebra and every value (Aut0, Tau, Derivation0 or DerM1) are exact and
    every series in `exps` terminates, and the values come back as given;
    otherwise the algebra and every value are converted to float together.
    An exponential called on the returned values decides the same mode:
    float values never terminate, and exact ones were found to.
    """
    values = (*exps, *operands)
    if (L.mode == "exact" and all(x.mode == "exact" for x in values)
            and all(_terminates(L, X) for X in exps)):
        return "exact", L, values
    return "float", L.to_float(), tuple(x.to_float() for x in values)


def _exp_der0_at(L: Lie2Algebra, D: Derivation0, ts, cfg: ExpConfig):
    """(mode, [e^{tD} for t in ts]): one mode decision and one membership
    check for D, then one certified exponential per t."""
    mode, L, (D,) = _joint_mode(L, (D,))
    tol = 0 if mode == "exact" else cfg.tol
    rep = is_derivation0(L, D)
    if not rep.within(tol):
        raise ValueError(f"not a derivation within tol {tol}: {rep!r}")
    return mode, [certify_aut0(L, _exp_hom(L, D, t, cfg.order), tol=tol) for t in ts]


def exp_der0(L: Lie2Algebra, D: Derivation0, t=1, cfg: ExpConfig = DEFAULT) -> Aut0:
    """Exponential of a degree-0 derivation: (e^{tX0}, e^{tX1}, e^{t lX}).

    Rejects non-members.  Terminating (nilpotent) input is summed exactly
    and certified with zero residual; otherwise the series truncates at
    cfg.order in float and certifies within cfg.tol.
    """
    return _exp_der0_at(L, D, (t,), cfg)[1][0]


def exp_derM1(L: Lie2Algebra, T: DerM1, t=1, cfg: ExpConfig = DEFAULT) -> Tau:
    """Exponential into the star group:
    e^theta = theta + theta d theta / 2! + theta d theta d theta / 3! + ...,
    the top-right block of e^{tN} for N = [[theta d, theta], [0, 0]].
    Exact when theta d is nilpotent."""
    mode, L, (T,) = _joint_mode(L, (T,))
    return Tau(_exp_upper(T.theta @ L.d, T.theta, Mat.zero(L.n0, L.n0, mode), t, cfg.order)[1])


# ---------------------------------------------------------------------------
# one-parameter and commuting-square checks
# ---------------------------------------------------------------------------

def check_one_parameter(L: Lie2Algebra, D: Derivation0, t, s, cfg: ExpConfig = DEFAULT):
    """(residual, mode) of e^{(t+s)D} against e^{tD} e^{sD}, componentwise."""
    mode, (lhs, a, b) = _exp_der0_at(L, D, (Fraction(t) + Fraction(s), t, s), cfg)
    return hom_distance(lhs.hom, compose_hom(a.hom, b.hom)), mode


def one_parameter_derM1(L: Lie2Algebra, T: DerM1, t, s, cfg: ExpConfig = DEFAULT):
    """(residual, mode) of e^{(t+s)theta} against e^{t theta} * e^{s theta}."""
    mode, L, (T,) = _joint_mode(L, (T,))
    lhs = exp_derM1(L, T, Fraction(t) + Fraction(s), cfg)
    a = exp_derM1(L, T, t, cfg)
    b = exp_derM1(L, T, s, cfg)
    return tau_distance(lhs, star(L, a, b)), mode


def check_commuting_square(L: Lie2Algebra, T: DerM1, cfg: ExpConfig = DEFAULT):
    """(residual, mode) of partial(e^theta) against e^{dbar(theta)}."""
    mode, L, (T,) = _joint_mode(L, (T,))
    lhs = partial(L, exp_derM1(L, T, 1, cfg)).hom
    return hom_distance(lhs, exp_der0(L, dbar(L, T), 1, cfg).hom), mode


# ---------------------------------------------------------------------------
# bracket recovery by finite differences
# ---------------------------------------------------------------------------

def _commutators(mul, xs, ys):
    """The four group commutators F(s, t) = ((x y) x^{-1}) y^{-1} of a
    finite-difference step, in the order (h, h), (h, -h), (-h, h), (-h, -h).

    xs = ((x, x^{-1}) at s = h, (x, x^{-1}) at s = -h), ys likewise in t:
    the step builds each exponential and inverse once, and the four
    commutators share them.  `mul` is the group product.
    """
    return [mul(mul(mul(x, y), xi), yi) for x, xi in xs for y, yi in ys]


def recover_bracket(L: Lie2Algebra, D1: Derivation0, D2: Derivation0,
                    cfg: ExpConfig = DEFAULT) -> Derivation0:
    """Mixed central finite difference of the group commutator curve at 0.

    [F(h,h) - F(h,-h) - F(-h,h) + F(-h,-h)] / (4 h^2) applied to each of
    (A0, A1, A2), F(s, t) = e^{sD1} e^{tD2} e^{-sD1} e^{-tD2}; within O(h^2)
    of the graded bracket.  The step builds the four exponentials e^{+-hD1},
    e^{+-hD2} once, and the four commutators share them.
    """
    Lf, d1, d2 = L.to_float(), D1.to_float(), D2.to_float()
    h = cfg.fd_step
    a, ai = (_exp_hom(Lf, d1, s, cfg.order) for s in (h, -h))
    b, bi = (_exp_hom(Lf, d2, t, cfg.order) for t in (h, -h))
    pp, pm, mp, mm = _commutators(compose_hom, ((a, ai), (ai, a)), ((b, bi), (bi, b)))
    scale = 1.0 / (4.0 * h * h)
    return Derivation0(((pp.A0 - pm.A0) - (mp.A0 - mm.A0)).scale(scale),
                       ((pp.A1 - pm.A1) - (mp.A1 - mm.A1)).scale(scale),
                       (pp.A2 - pm.A2 - mp.A2 + mm.A2).scale(scale))


def bracket_recovery_residual(L, D1, D2, cfg: ExpConfig = DEFAULT):
    got = recover_bracket(L, D1, D2, cfg)
    want = graded_bracket(L, D1, D2).to_float()
    return der0_distance(got, want)


def recover_bracket_m1(L: Lie2Algebra, T1: DerM1, T2: DerM1,
                       cfg: ExpConfig = DEFAULT) -> DerM1:
    """Finite-difference commutator of e^{s theta}, e^{t theta'} under star.

    The step builds the four star exponentials e^{+-h theta}, e^{+-h theta'}
    and their four star inverses once, and the four commutators share them.
    """
    Lf, T1, T2 = L.to_float(), T1.to_float(), T2.to_float()
    h = cfg.fd_step

    def with_inverses(T):
        return [(e, tau_inverse(Lf, e)) for e in (exp_derM1(Lf, T, s, cfg) for s in (h, -h))]

    pp, pm, mp, mm = (c.mat for c in _commutators(
        lambda x, y: star(Lf, x, y), with_inverses(T1), with_inverses(T2)))
    m = (pp - pm) - (mp - mm)
    return DerM1(m.scale(1.0 / (4.0 * h * h)))


# ---------------------------------------------------------------------------
# the semidirect exponential
# ---------------------------------------------------------------------------

def exp_semidirect(L: Lie2Algebra, pair, cfg: ExpConfig = DEFAULT):
    """Componentwise exponential (e^{(X, lX)}, e^theta) of a semidirect pair.

    Both legs run in one scalar mode: exact only if both series terminate.
    The componentwise formula is a one-parameter curve for the semidirect
    product precisely when the two legs commute ({D, theta} = 0).
    """
    _, L, (D, T) = _joint_mode(L, pair)
    return TwoGroupCell(exp_der0(L, D, 1, cfg), exp_derM1(L, T, 1, cfg))


# ---------------------------------------------------------------------------
# conjugation identities
# ---------------------------------------------------------------------------

def _conj_der0(L: Lie2Algebra, cfg: ExpConfig, A: Aut0, D: Derivation0, E: Derivation0):
    """(residual, mode) of A e^D A^{-1} = e^E, in one joint mode."""
    mode, L, (D, E, A) = _joint_mode(L, (D, E), A)
    lhs = conjugate_hom(A, exp_der0(L, D, 1, cfg).hom)
    return hom_distance(lhs, exp_der0(L, E, 1, cfg).hom), mode


def _theta_from_a2(L: Lie2Algebra, A: Aut0, x: tuple) -> DerM1:
    """The degree -1 map y |-> A2(x, A0^{-1} y)."""
    cols = [A.hom.A2.eval(x, A.a0_inv.col(j)) for j in range(L.n0)]
    return DerM1(Mat.from_cols(cols, L.n1))


# the denominators of the conjugation suite's draws, and their lcm
_DENS = (8, 16)
_DEN = math.lcm(*_DENS)


class _IvImages:
    """Integer images of the draws of `_commuting_iv_sample`, built once per
    call, on which its accept test runs in ints.

    sigma is the common denominator of the legs X0, X1 of every basis
    derivation.  A draw p/q scales to the integer 16 p/q, so the legs of
    D = sum c_k B_k scale to 16 sigma (X0, X1); `taus` draws tau with its
    images T = 16 tau and M = 16 delta (I + d tau).
    """

    def __init__(self, L: Lie2Algebra, der_basis):
        self.n0, self.n1 = L.n0, L.n1
        legs = [B.X0.data + B.X1.data for B in der_basis]
        self.sigma = math.lcm(1, *(x.denominator for leg in legs for x in leg))
        self.legs = [[(t, int(x * self.sigma)) for t, x in enumerate(leg) if x]
                     for leg in legs]
        self.taus = TauDraws(L, _DENS)

    def legs_image(self, pairs) -> tuple:
        """16 sigma (X0, X1) of the combination with coefficients `pairs`."""
        n00 = self.n0 * self.n0
        acc = [0] * (n00 + self.n1 * self.n1)
        for (p, q), leg in zip(pairs, self.legs):
            w = p * (_DEN // q)
            if w:
                for t, x in leg:
                    acc[t] += w * x
        return (Mat._result(self.n0, self.n0, acc[:n00], "exact"),
                Mat._result(self.n1, self.n1, acc[n00:], "exact"))


def _theta_image(X0: Mat, X1: Mat, T: Mat, adj: Mat) -> Mat:
    """(T X0 - X1 T) adj: for the integer images of `_IvImages`, a nonzero
    multiple of theta, the degree -1 part of `ad_conjugate(L, tau, D)`.

    theta = X1 tau' + tau X0 + tau X0 d tau' with tau' = -tau C,
    C = (I + d tau)^{-1}, is (tau X0 - X1 tau) C, and adj = +-det(M) M^{-1}
    with M = 16 delta (I + d tau); so the image is 16 sigma det / delta
    times theta, with det the signed determinant `adjugate_det` returns.
    """
    return (T @ X0 - X1 @ T) @ adj


def _commuting_iv_sample(L: Lie2Algebra, rng, der_basis):
    """(D, tau) whose conjugated pair has star-commuting legs.

    Tries up to 40 random pairs, D drawn as `random_der0` draws it and tau
    by `TauDraws.draw`, the loop of `random_tau(invertible=True)`, and takes
    the first whose conjugated degree -1 leg theta commutes with D
    (X1 theta = theta X0); the test runs on the integer images of
    `_IvImages` (theta by
    `_theta_image`), and D and tau are built from the same draws only on
    acceptance.  Then it falls back to derivations with vanishing matrix
    parts (whose conjugated degree -1 leg is zero), then to D = 0.
    Measured over rng seeds 0-19, skeletal-demo never accepts, so its
    conj_tau_der lines test only the flat fallback (theta = 0);
    string-sl2 falls back in 12 of 20, abelian and endo-1-1 never.
    """
    images = _IvImages(L, der_basis)
    for _ in range(40):
        dpairs = ratio_draws(rng, len(der_basis), _DENS)
        tpairs, T, adj = images.taus.draw(rng)
        X0, X1 = images.legs_image(dpairs)
        Y = _theta_image(X0, X1, T, adj)
        if X1 @ Y == Y @ X0:
            D = _der0_combination(
                L, ((Fraction(p, q), B) for (p, q), B in zip(dpairs, der_basis)))
            return D, tau_of_draws(L, tpairs)
    flat = [B for B in der_basis if B.X0.is_zero() and B.X1.is_zero()]
    tau = _random_invertible_tau(L, rng)
    return random_der0(L, rng, flat, dens=_DENS), tau


def check_conjugation_identities(L: Lie2Algebra, rng, cfg: ExpConfig = DEFAULT,
                                 samples: int = 5) -> list:
    """Residuals for the conjugation identity suite.

    Identities: conj0 (A e^D A^{-1} = e^{Ad(A) D}), conj_m1
    (tau * e^theta * tau^{-1} = e^{Ad(tau) theta}), act_exp
    (A |> e^theta = e^{A1 theta A0^{-1}}), conj_tau_der (tau * (e^D |> tau^{-1})
    = e^{degree -1 part of Ad(tau) D}), conj_dbar (transport of differentials)
    and conj_adjoint (transport of adjoint generators).
    Returns (name, residual, mode) triples, one mode decision per identity:
    exact where the values are exact and every series of both sides
    terminates.
    """
    der_basis = compute_der0_basis(L)
    out = []
    for idx in range(samples):
        A = random_aut0(L, rng, cfg, der_basis)
        D = random_der0(L, rng, der_basis, dens=_DENS)
        T = random_derM1(L, rng, dens=_DENS)
        tau = _random_invertible_tau(L, rng)

        # (i) A e^D A^{-1} = e^{Ad(A) D}
        out.append((f"conj0[{idx}]", *_conj_der0(L, cfg, A, D, ad_conjugate(L, A, D))))

        # (ii) tau * e^theta * tau^{-1} = e^{(I + tau d) theta (I + d tau)^{-1}};
        # here and in (iii) the conjugated theta d is similar to theta d, so
        # T alone decides the mode
        mode, Lm, (Tm, adT, taum) = _joint_mode(L, (T,), ad_conjugate(L, tau, T), tau)
        lhs_t = star(Lm, star(Lm, taum, exp_derM1(Lm, Tm, 1, cfg)), tau_inverse(Lm, taum))
        out.append((f"conj_m1[{idx}]", tau_distance(lhs_t, exp_derM1(Lm, adT, 1, cfg)), mode))

        # (iii) A |> e^theta = e^{A1 theta A0^{-1}}
        actT = ad_conjugate(L, A, T)
        mode, Lm, (Tm, actTm, Am) = _joint_mode(L, (T,), actT, A)
        lhs_t = act(Lm, Am, exp_derM1(Lm, Tm, 1, cfg))
        out.append((f"act_exp[{idx}]", tau_distance(lhs_t, exp_derM1(Lm, actTm, 1, cfg)), mode))

        # (iv) tau * (e^D |> tau^{-1}) = e^{X1 tau^{-1} + tau X0 + tau X0 d tau^{-1}}.
        # The right side uses the componentwise semidirect exponential, which
        # agrees with the conjugated one-parameter curve exactly when the two
        # legs of the conjugated pair commute; sampled accordingly (the
        # general case matches at first order only, covered by the
        # finite-difference probes).
        Dc, tauc = _commuting_iv_sample(L, rng, der_basis)
        _, theta_part = ad_conjugate(L, tauc, Dc)
        mode, Lm, (Dc, theta_part, tauc) = _joint_mode(L, (Dc, theta_part), tauc)
        eD = exp_der0(Lm, Dc, 1, cfg)
        lhs_t = star(Lm, tauc, act(Lm, eD, tau_inverse(Lm, tauc)))
        rhs_t = exp_derM1(Lm, theta_part, 1, cfg)
        out.append((f"conj_tau_der[{idx}]", tau_distance(lhs_t, rhs_t), mode))

        # transport of differentials: A e^{dbar T} A^{-1} = e^{dbar(A1 T A0^{-1})}
        out.append((f"conj_dbar[{idx}]", *_conj_der0(L, cfg, A, dbar(L, T), dbar(L, actT))))

        # transport of adjoint generators:
        # A e^{adbar0(x)} A^{-1} = e^{adbar0(A0 x) + dbar(A2(x, A0^{-1} .))}
        x = tuple(Fraction(rng.randint(-2, 2), 8) for _ in range(L.n0))
        rhs_exp = adbar0_single(L, A.hom.A0.apply(x)) + dbar(L, _theta_from_a2(L, A, x))
        out.append((f"conj_adjoint[{idx}]", *_conj_der0(L, cfg, A, adbar0_single(L, x), rhs_exp)))

    return out


# ---------------------------------------------------------------------------
# inner automorphism generators
# ---------------------------------------------------------------------------

def inn_group_generators(L: Lie2Algebra, cfg: ExpConfig = DEFAULT) -> list:
    """Exponentials of the inner degree-0 basis and of the degree -1 basis,
    as 2-group cells (degree-0 generators carry tau = 0, degree -1
    generators ride on the identity)."""
    gens = []
    for D in inn0_basis(L):
        A = exp_der0(L, D, 1, cfg)
        gens.append(TwoGroupCell(A, tau_zero(A.algebra)))
    for T in derM1_basis(L):
        _, base, (T,) = _joint_mode(L, (T,))
        gens.append(TwoGroupCell(aut_identity(base), exp_derM1(base, T, 1, cfg)))
    return gens


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _random_invertible_tau(L: Lie2Algebra, rng) -> Tau:
    return random_tau(L, rng, dens=_DENS, invertible=True)


def random_aut0(L: Lie2Algebra, rng, cfg: ExpConfig = DEFAULT, der_basis=None) -> Aut0:
    """Exact random automorphism: a product of connecting-map images and
    terminating exponentials of basis derivations."""
    if der_basis is None:
        der_basis = compute_der0_basis(L)
    nilpotent = [D for D in der_basis if der0_terminating(D) is not None]
    out = aut_identity(L)
    for _ in range(rng.randint(1, 3)):
        if nilpotent and rng.random() < 0.5:
            D = rng.choice(nilpotent).scale(Fraction(rng.randint(-2, 2), 2))
            out = aut_compose(out, exp_der0(L, D, 1, cfg))
        else:
            out = aut_compose(out, partial(L, _random_invertible_tau(L, rng)))
    return out
