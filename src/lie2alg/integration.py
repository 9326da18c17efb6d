"""Exponential maps from derivations to automorphisms, and the checks
that the automorphism 2-group integrates the derivation Lie 2-algebra.

Every exponential is a block of one matrix exponential, computed by
`linalg.truncated_exps`; `linalg.block_exps` gives the upper blocks (Van
Loan 1978) and sums only the top block-row of the series.  For a degree-0
derivation D = (X0, X1, lX), A0 = e^{tX0}, and A1, A2 are the top-left
and top-right blocks of e^{tM}, M = [[X1, LX], [0, Lam]] on
g_{-1} + Lam^2 g_0, where LX is lX on increasing basis pairs and Lam is
X0 acting as a derivation on Lam^2 g_0.  The star exponential of theta is
the top-right block of e^{tN}, N = [[theta d, theta], [0, 0]].  An
identity that needs a generator at several t ((t + s, t, s) in the
one-parameter checks, +-h/2 in the bracket probes) runs one series of it
for all of them, anchored at the t of largest |t|: ts = (t,) is the
series of one t, bit for bit, and so is -t.  Series terminate (and everything
stays exact) when M or N is nilpotent, which holds exactly when X0 and X1,
or theta d, are; otherwise the computation converts to float and scales
and squares a series whose degree and squarings `truncated_exps` takes
from the norm, with the degree capped at a configurable order.

The conjugation suite checks that the 2-group integrates the derivations
also across degrees: conjugating the one-parameter group (e^{tD}, 0) by
(id, tau) gives the one-parameter group of Ad(tau) D = (D, theta) in the
semidirect product, whose degree -1 leg at t = 1 is sigma e^{-X0}, sigma
the top-right block of exp([[X1, theta], [0, X0 + d theta]]) (one more
`block_exps`; the derivation is in `_conj_tau_der`).  It holds for every D
and unit tau, so no pair is sampled for a special property.  A sample
builds the inverse of its automorphism A once (`aut_inverse`): the conj0,
conj_dbar and conj_adjoint lines take it as an operand of their mode
decision, so A^{-1} is converted with A when a line runs in float.

Finite-difference probes recover the graded bracket from group
commutators, in both degrees by one body (`_recover`) at the fixed step
h = `_FD_STEP`: it builds e^{+-(h/2)X}, e^{+-(h/2)Y} once, each sign
pair from one series, and takes their squares for the step h, so one
call gives the estimates R(h) and R(h/2),
whose Richardson combination (4 R(h/2) - R(h)) / 3 is within O(h^4) of
the bracket.  Degree 0 runs it with `compose_hom`, degree -1 with `star`;
e^{-(h/2) theta} is the star inverse of e^{(h/2) theta}, so no inverse is
eliminated.  The four commutators of a step come from four shared products.

The scalar mode follows the values, and is decided once per identity:
`_joint_mode` keeps an identity exact iff the algebra and every operand
are exact and every series the identity exponentiates terminates;
otherwise it converts the algebra and all operands to float together, so
both sides of an identity, and every exponential within it, share one
mode.  `exp_der0` and `exp_derM1` are `_joint_mode` plus a body in the
decided mode (`_der0_exps`, `_derM1_exps`); an identity decides once and
calls the bodies, and `truncated_exps` simply follows the mode of its
input.  The checks return (residual, mode) pairs: the mode label of each
report line is the mode that computed it.  `exp_derM1_unit` tests the unit
property of e^theta in the mode that computed it.

The randomized suites of `lie2 check` live here: `SUITES` maps each name
to a function (L, rng, cfg, samples) that draws every sample from rng and
returns the report lines (name, residual, mode, tolerance).  The
conjugation, exp-square and one-parameter suites draw with the
denominators `_DENS`.  Bracket-recovery draws full-size, and
`_bracket_lines` holds its Richardson combination to 1e-4 and its
convergence ratio to 0.5; every other line is held to cfg.tol.  Every
draw from the degree-0 basis reads it off the algebra object, as do the
draws from its nilpotent members (`nilpotent_derivations`): both are views
(`Lie2Algebra.view`), so no suite holds or passes a basis, and an algebra
object eliminates and scans its basis once however many draws it serves.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .automorphisms import (
    Aut0,
    Tau,
    act,
    ad_conjugate,
    aut_compose,
    aut_identity,
    aut_inverse,
    certify_aut0,
    check_crossed_module,
    partial,
    random_tau,
    star,
    tau_distance,
    tau_inverse,
    tau_is_invertible,
)
from .core import Lie2Algebra, Lie2Hom, compose_hom, hom_distance
from .derivations import (
    DerM1,
    Derivation0,
    adbar0_single,
    compute_der0_basis,
    dbar,
    der0_distance,
    graded_bracket,
    is_derivation0,
    random_der0,
    random_derM1,
)
from .linalg import (
    AltTensor,
    Mat,
    block_exps,
    mat_distance,
    nilpotency_index,
    scalar_kind,
    truncated_exps,
    vzero,
)


@dataclass(frozen=True)
class ExpConfig:
    """Truncation and tolerance of the exponential maps.

    The scalar mode is not configured: it follows the values (see
    `_joint_mode`).  `order` caps the degree of a float series, whose
    degree and squarings `linalg.truncated_exps` takes from the norm (a
    smaller cap costs more squarings); a float identity passes within
    `tol`.  `order` is an int from 1 to sys.maxsize, the largest cap a
    series can be planned for, and `tol` must be finite and positive.  The
    bracket-recovery step is no option: it is fixed at `_FD_STEP`.
    """

    order: int = 24
    tol: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.order, int):
            raise ValueError(f"order must be an int, got order={self.order!r}")
        # written so that NaN fails every comparison and is refused
        if self.order < 1 or not 0 < self.tol < math.inf:
            raise ValueError("order >= 1 and finite tol > 0 required, "
                             f"got order={self.order} tol={self.tol}")
        if self.order > sys.maxsize:
            raise ValueError(f"order <= sys.maxsize = {sys.maxsize} required, got order={self.order}")


DEFAULT = ExpConfig()


def _exp_homs(L: Lie2Algebra, D: Derivation0, ts, order: int) -> list:
    """[e^{tD} for t in ts], e^{tD} = (e^{tX0}, A1, A2), with A1 and A2 the
    blocks of e^{tM}, M = [[X1, LX], [0, Lam]].  Lam(e_p^e_q) = X0e_p^e_q +
    e_p^X0e_q, written in the increasing-pair basis with the sign of the
    swap.  The top-right block is sum_{n>=1} t^n/n! sum_{i+j+k=n-1}
    binom(i+j, i) X1^k lX(X0^i ., X0^j .) on the pairs.  Lam, LX and M are
    built once, and one series of M and one of X0 serve every t."""
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
    blocks = block_exps(D.X1, LX, Mat._result(npairs, npairs, lam, mode), ts, order)
    return [Lie2Hom(L, L, A0, A1,
                    AltTensor._result(2, n0, n1, {pq: top.col(j) for j, pq in enumerate(pairs)}, mode))
            for A0, (A1, top) in zip(truncated_exps(D.X0, ts, order), blocks)]


def _terminates(L: Lie2Algebra, X) -> bool:
    """Whether the exact series of X terminates: whether every generator it
    exponentiates is nilpotent, tested in order, X0 then X1 for a
    Derivation0, theta d for a DerM1, and a square Mat itself."""
    gens = ((X.X0, X.X1) if isinstance(X, Derivation0)
            else (X.theta @ L.d,) if isinstance(X, DerM1) else (X,))
    return all(nilpotency_index(m) is not None for m in gens)


def _joint_mode(L: Lie2Algebra, exps, *operands):
    """The one mode decision of an identity that exponentiates `exps`.

    Returns (mode, algebra, exps + operands).  The mode is "exact" iff the
    algebra and every value (Aut0, Tau, Derivation0, DerM1 or Mat) are exact
    and every series in `exps` terminates (`_terminates`), and the values
    come back as given; otherwise the algebra and every value are converted to float together.
    An exponential called on the returned values decides the same mode:
    float values stay float, and exact ones were found to terminate.
    """
    values = (*exps, *operands)
    if (L.mode == "exact" and all(x.mode == "exact" for x in values)
            and all(_terminates(L, X) for X in exps)):
        return "exact", L, values
    return "float", L.to_float(), tuple(x.to_float() for x in values)


def _der0_exps(L: Lie2Algebra, D: Derivation0, ts, cfg: ExpConfig) -> list:
    """[e^{tD} for t in ts] in the decided mode of L (`_joint_mode`): one
    membership check for D, then one certified exponential per t, all from
    the two series of `_exp_homs`."""
    tol = scalar_kind(L.mode).tolerance(cfg.tol)
    rep = is_derivation0(L, D)
    if not rep.within(tol):
        raise ValueError(f"not a derivation within tol {tol}: {rep!r}")
    return [certify_aut0(L, h, tol=tol) for h in _exp_homs(L, D, ts, cfg.order)]


def _derM1_exps(L: Lie2Algebra, T: DerM1, ts, cfg: ExpConfig) -> list:
    """[e^{t theta} for t in ts] in the decided mode of L (`_joint_mode`),
    the top-right blocks of e^{tN}, N = [[theta d, theta], [0, 0]], from
    one series of N."""
    zero = Mat.zero(L.n0, L.n0, L.mode)
    return [Tau(top) for _, top in block_exps(T.theta @ L.d, T.theta, zero, ts, cfg.order)]


def exp_der0(L: Lie2Algebra, D: Derivation0, t=1, cfg: ExpConfig = DEFAULT) -> Aut0:
    """Exponential of a degree-0 derivation: (e^{tX0}, e^{tX1}, e^{t lX}).

    Rejects non-members.  Terminating (nilpotent) input is summed exactly
    and certified with zero residual; otherwise the series is summed in
    float to a degree of at most cfg.order and certifies within cfg.tol.
    """
    _, L, (D,) = _joint_mode(L, (D,))
    return _der0_exps(L, D, (t,), cfg)[0]


def exp_derM1(L: Lie2Algebra, T: DerM1, t=1, cfg: ExpConfig = DEFAULT) -> Tau:
    """Exponential into the star group:
    e^theta = theta + theta d theta / 2! + theta d theta d theta / 3! + ...,
    the top-right block of e^{tN} for N = [[theta d, theta], [0, 0]].
    Exact when theta d is nilpotent."""
    _, L, (T,) = _joint_mode(L, (T,))
    return _derM1_exps(L, T, (t,), cfg)[0]


def exp_derM1_unit(L: Lie2Algebra, T: DerM1, t=1, cfg: ExpConfig = DEFAULT) -> tuple:
    """(e^{t theta}, whether it is a unit of the star group), as `exp_derM1`
    gives it; the unit test runs in the mode of e^{t theta}, on L converted
    with it."""
    _, L, (T,) = _joint_mode(L, (T,))
    tau = _derM1_exps(L, T, (t,), cfg)[0]
    return tau, tau_is_invertible(L, tau)


# ---------------------------------------------------------------------------
# one-parameter and commuting-square checks
# ---------------------------------------------------------------------------

def check_one_parameter(L: Lie2Algebra, D: Derivation0, t, s, cfg: ExpConfig = DEFAULT):
    """(residual, mode) of e^{(t+s)D} against e^{tD} e^{sD}, componentwise;
    one mode decision, one membership check of D and one series of each
    generator serve all three."""
    mode, L, (D,) = _joint_mode(L, (D,))
    lhs, a, b = _der0_exps(L, D, (Fraction(t) + Fraction(s), t, s), cfg)
    return hom_distance(lhs.hom, compose_hom(a.hom, b.hom)), mode


def one_parameter_derM1(L: Lie2Algebra, T: DerM1, t, s, cfg: ExpConfig = DEFAULT):
    """(residual, mode) of e^{(t+s)theta} against e^{t theta} * e^{s theta},
    all three from one series."""
    mode, L, (T,) = _joint_mode(L, (T,))
    lhs, a, b = _derM1_exps(L, T, (Fraction(t) + Fraction(s), t, s), cfg)
    return tau_distance(lhs, star(L, a, b)), mode


def check_commuting_square(L: Lie2Algebra, T: DerM1, cfg: ExpConfig = DEFAULT):
    """(residual, mode) of partial(e^theta) against e^{dbar(theta)}; theta
    decides the mode of both, as d theta is nilpotent iff theta d is."""
    mode, L, (T,) = _joint_mode(L, (T,))
    lhs = partial(L, _derM1_exps(L, T, (1,), cfg)[0]).hom
    return hom_distance(lhs, _der0_exps(L, dbar(L, T), (1,), cfg)[0].hom), mode


# ---------------------------------------------------------------------------
# bracket recovery by finite differences
# ---------------------------------------------------------------------------

# the step h of both bracket-recovery probes; their Richardson combination
# errs by O(h^4), so no step needs tuning
_FD_STEP = 1e-3


def _bracket_estimate(mul, leg, step, x, xi, y, yi):
    """[F(h,h) - F(h,-h)] - [F(-h,h) - F(-h,-h)], over 4 h^2 for h = step,
    F(s, t) = x_s y_t x_s^{-1} y_t^{-1} the group commutator.

    x, xi, y, yi are x_h, x_h^{-1}, y_h, y_h^{-1}; `mul` is the group
    product and `leg` takes an element to the derivation its entries form.
    The four corners come from four products, P = xy, Q = xy^{-1},
    R = x^{-1}y and S = x^{-1}y^{-1}: F(h,h) = PS, F(h,-h) = QR,
    F(-h,h) = RQ and F(-h,-h) = SP.
    """
    P, Q, R, S = mul(x, y), mul(x, yi), mul(xi, y), mul(xi, yi)
    pp, pm, mp, mm = (leg(F) for F in (mul(P, S), mul(Q, R), mul(R, Q), mul(S, P)))
    return ((pp - pm) - (mp - mm)).scale(1.0 / (4.0 * step * step))


def _recover(exp, mul, leg, x, y):
    """(R(h), R(h/2)), h = `_FD_STEP`: `_bracket_estimate` at both steps.

    `exp(z, ts)` is the list of group elements e^{sz}, s in ts, from one
    series of z.  The h/2 step builds e^{+(h/2)x} and e^{-(h/2)x} from one
    series, and e^{+-(h/2)y} from another; -h/2 reads the terms of h/2
    times (-1)^n, so both are bit for bit what a series of each alone would
    give.  The h step takes their squares under `mul` as e^{+-hx} and
    e^{+-hy}.
    """
    half = _FD_STEP / 2
    elems = [g for z in (x, y) for g in exp(z, (half, -half))]
    return tuple(_bracket_estimate(mul, leg, step, *gs)
                 for step, gs in ((_FD_STEP, [mul(g, g) for g in elems]), (half, elems)))


def recover_bracket(L: Lie2Algebra, D1: Derivation0, D2: Derivation0,
                    cfg: ExpConfig = DEFAULT) -> tuple:
    """(R(h), R(h/2)) of the commutator of e^{sD1}, e^{tD2} under
    composition (`_recover`), each within O(h^2) of the graded bracket."""
    Lf = L.to_float()
    return _recover(lambda D, ts: _exp_homs(Lf, D, ts, cfg.order), compose_hom,
                    lambda F: Derivation0(F.A0, F.A1, F.A2), D1.to_float(), D2.to_float())


def recover_bracket_m1(L: Lie2Algebra, T1: DerM1, T2: DerM1,
                       cfg: ExpConfig = DEFAULT) -> tuple:
    """(R(h), R(h/2)) of the commutator of e^{s theta}, e^{t theta'} under
    star (`_recover`), each within O(h^2) of the graded bracket."""
    Lf = L.to_float()
    return _recover(lambda T, ts: _derM1_exps(Lf, T, ts, cfg), lambda a, b: star(Lf, a, b),
                    lambda c: DerM1(c.mat), T1.to_float(), T2.to_float())


def _bracket_lines(L: Lie2Algebra, name: str, recover, distance, x, y, cfg: ExpConfig) -> list:
    """The report lines of one bracket-recovery probe of [x, y].

    bracket_recover<name> is the distance of the Richardson combination
    (4 R(h/2) - R(h)) / 3, which cancels the h^2 term of the error, to the
    bracket, within 1e-4; bracket_convergence<name> checks that halving h
    cuts the error of R by about 4 (second order), within 0.5, wherever
    R(h/2) is off by more than 1e-9, above the rounding floor.
    """
    want = graded_bracket(L, x, y).to_float()
    R1, R2 = recover(L, x, y, cfg)
    richardson = (R2.scale(4.0) - R1).scale(1.0 / 3.0)
    out = [(f"bracket_recover{name}", distance(richardson, want), "float", 1e-4)]
    r1, r2 = distance(R1, want), distance(R2, want)
    if r2 > 1e-9:
        out.append((f"bracket_convergence{name}", abs(r1 / r2 - 4.0), "float", 0.5))
    return out


# ---------------------------------------------------------------------------
# conjugation identities
# ---------------------------------------------------------------------------

def _conj_der0(L: Lie2Algebra, cfg: ExpConfig, A: Aut0, Ai: Aut0, D: Derivation0,
               E: Derivation0):
    """(residual, mode) of A e^D A^{-1} = e^E, in one joint mode; Ai is
    `aut_inverse(A)`, which the caller builds once for all its lines."""
    mode, L, (D, E, A, Ai) = _joint_mode(L, (D, E), A, Ai)
    lhs = compose_hom(compose_hom(A.hom, _der0_exps(L, D, (1,), cfg)[0].hom), Ai.hom)
    return hom_distance(lhs, _der0_exps(L, E, (1,), cfg)[0].hom), mode


def _theta_from_a2(L: Lie2Algebra, A: Aut0, x: tuple) -> DerM1:
    """The degree -1 map y |-> A2(x, A0^{-1} y)."""
    cols = [A.hom.A2.eval(x, A.a0_inv.col(j)) for j in range(L.n0)]
    entries = scalar_kind(A.mode).entries(c[i] for i in range(L.n1) for c in cols)
    return DerM1(Mat._result(L.n1, L.n0, entries, A.mode))


def _conj_tau_der(L: Lie2Algebra, cfg: ExpConfig, D: Derivation0, tau: Tau):
    """(residual, mode) of tau * (e^D |> tau^{-1}) = sigma e^{-X0}, with
    sigma the top-right block of exp([[X1, theta], [0, X0 + d theta]]) and
    theta the degree -1 part of Ad(tau) D; one `block_exps` (Van Loan 1978)
    gives sigma, and e^{-X0} is the cached inverse of e^D's A0.

    Conjugating the one-parameter group (e^{tD}, 0) by (id, tau) gives the
    curve g(t) = (e^{tD}, tau(t)), tau(t) = tau * (e^{tD} |> tau^{-1}), the
    one-parameter group of Ad(tau) D = (D, theta).  It is a one-parameter
    subgroup under `semidirect_multiply`, so tau(t + h) = tau(t) *
    (e^{tD} |> tau(h)); at h = 0 this gives tau' = (I + tau(t) d) e^{tX1}
    theta e^{-tX0}.  With sigma(t) = tau(t) e^{tX0} and d X1 = X0 d it reads
    sigma' = e^{tX1} theta + sigma (X0 + d theta), sigma(0) = 0, solved by
    the top-right block above at t = 1.  When X1 theta = theta X0, X0
    commutes with d theta and the right side is e^theta.

    Exact iff D, theta and tau are exact and X0, X1 and X0 + d theta are
    nilpotent (`_joint_mode`).
    """
    theta = ad_conjugate(L, tau, D)[1].theta
    mode, L, (D, c, theta, tau) = _joint_mode(L, (D, D.X0 + L.d @ theta), theta, tau)
    eD = _der0_exps(L, D, (1,), cfg)[0]
    lhs = star(L, tau, act(L, eD, tau_inverse(L, tau)))
    sigma = block_exps(D.X1, theta, c, (1,), cfg.order)[0][1]
    return tau_distance(lhs, Tau(sigma @ eD.a0_inv)), mode


# the denominators of the suites' random draws (the conjugation, exp-square
# and one-parameter suites, and the units of `random_aut0`)
_DENS = (8, 16)


def check_conjugation_identities(L: Lie2Algebra, rng, cfg: ExpConfig = DEFAULT,
                                 samples: int = 5) -> list:
    """Residuals for the conjugation identity suite.

    Identities: conj0 (A e^D A^{-1} = e^{Ad(A) D}), conj_m1
    (tau * e^theta * tau^{-1} = e^{Ad(tau) theta}), act_exp
    (A |> e^theta = e^{A1 theta A0^{-1}}), conj_tau_der (tau * (e^D |> tau^{-1})
    = sigma e^{-X0}, the one-parameter group of Ad(tau) D = (D, theta) at 1,
    for every D and unit tau: see `_conj_tau_der`), conj_dbar (transport of
    differentials) and conj_adjoint (transport of adjoint generators).
    conj_tau_der draws D as `random_aut0` draws its exact factors, a
    nilpotent basis derivation times p/2 (`_nilpotent_draw`), or a
    `random_der0` combination when the basis has no nilpotent element.
    Returns (name, residual, mode) triples, one mode decision per identity:
    exact where the values are exact and every series of both sides
    terminates.
    """
    out = []
    for idx in range(samples):
        A = random_aut0(L, rng)
        Ai = aut_inverse(A)
        D = random_der0(L, rng, dens=_DENS)
        T = random_derM1(L, rng, dens=_DENS)
        tau = random_tau(L, rng, _DENS)

        # (i) A e^D A^{-1} = e^{Ad(A) D}
        out.append((f"conj0[{idx}]", *_conj_der0(L, cfg, A, Ai, D, ad_conjugate(L, A, D))))

        # (ii) tau * e^theta * tau^{-1} = e^{(I + tau d) theta (I + d tau)^{-1}}
        # and (iii) A |> e^theta = e^{A1 theta A0^{-1}}, in one mode and from
        # one e^theta: the conjugated theta d is similar to theta d, and A
        # and tau are exact, so T alone decides the mode
        actT = ad_conjugate(L, A, T)
        mode, Lm, (Tm, adT, taum, actTm, Am) = _joint_mode(L, (T,), ad_conjugate(L, tau, T), tau, actT, A)
        eT = _derM1_exps(Lm, Tm, (1,), cfg)[0]
        lhs_t = star(Lm, star(Lm, taum, eT), tau_inverse(Lm, taum))
        rhs_t, rhs_a = (_derM1_exps(Lm, X, (1,), cfg)[0] for X in (adT, actTm))
        out.append((f"conj_m1[{idx}]", tau_distance(lhs_t, rhs_t), mode))
        out.append((f"act_exp[{idx}]", tau_distance(act(Lm, Am, eT), rhs_a), mode))

        # (iv) tau * (e^D |> tau^{-1}) = sigma e^{-X0}
        Dc = (_nilpotent_draw(L, rng) if nilpotent_derivations(L)
              else random_der0(L, rng, dens=_DENS))
        out.append((f"conj_tau_der[{idx}]",
                    *_conj_tau_der(L, cfg, Dc, random_tau(L, rng, _DENS))))

        # transport of differentials: A e^{dbar T} A^{-1} = e^{dbar(A1 T A0^{-1})}
        out.append((f"conj_dbar[{idx}]", *_conj_der0(L, cfg, A, Ai, dbar(L, T), dbar(L, actT))))

        # transport of adjoint generators:
        # A e^{adbar0(x)} A^{-1} = e^{adbar0(A0 x) + dbar(A2(x, A0^{-1} .))}
        x = tuple(Fraction(rng.randint(-2, 2), 8) for _ in range(L.n0))
        rhs_exp = adbar0_single(L, A.hom.A0.apply(x)) + dbar(L, _theta_from_a2(L, A, x))
        out.append((f"conj_adjoint[{idx}]", *_conj_der0(L, cfg, A, Ai, adbar0_single(L, x), rhs_exp)))

    return out


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def nilpotent_derivations(L: Lie2Algebra) -> tuple:
    """The members of the degree-0 basis of L (`compute_der0_basis`) whose
    exact exponential terminates (`_terminates`), in basis order: the
    factors `random_aut0` and the conjugation suite draw from.  A view
    (`Lie2Algebra.view`), so each algebra object scans its basis once."""
    return L.view(_nilpotent_members)


def _nilpotent_members(L: Lie2Algebra) -> tuple:
    return tuple(D for D in compute_der0_basis(L) if _terminates(L, D))


def _nilpotent_draw(L: Lie2Algebra, rng) -> Derivation0:
    """One of `nilpotent_derivations(L)`, times p/2 with p in -2..2."""
    return rng.choice(nilpotent_derivations(L)).scale(Fraction(rng.randint(-2, 2), 2))


def random_aut0(L: Lie2Algebra, rng) -> Aut0:
    """Exact random automorphism: a product of connecting-map images and
    terminating exponentials of basis derivations (`_nilpotent_draw`).
    The factors come from `nilpotent_derivations(L)`, a view, so repeated
    draws on one algebra object scan its basis once.  Every exponential
    terminates and is summed exactly, so no `ExpConfig` applies."""
    out = aut_identity(L)
    for _ in range(rng.randint(1, 3)):
        if nilpotent_derivations(L) and rng.random() < 0.5:
            out = aut_compose(out, exp_der0(L, _nilpotent_draw(L, rng)))
        else:
            out = aut_compose(out, partial(L, random_tau(L, rng, _DENS)))
    return out


# ---------------------------------------------------------------------------
# the randomized suites of `lie2 check`
# ---------------------------------------------------------------------------

def _crossed_module_suite(L: Lie2Algebra, rng, cfg: ExpConfig, samples: int) -> list:
    # n automorphisms and n units: n^2 >= samples (and >= 4) pairs for each law
    n = max(2, math.isqrt(max(samples - 1, 0)) + 1)
    auts = [random_aut0(L, rng) for _ in range(n)]
    taus = [random_tau(L, rng) for _ in range(n)]
    return [(name, resid, "exact", cfg.tol) for name, resid in check_crossed_module(L, auts, taus)]


def _exp_square_suite(L: Lie2Algebra, rng, cfg: ExpConfig, samples: int) -> list:
    return [(f"exp_square[{i}]", *check_commuting_square(L, random_derM1(L, rng, dens=_DENS), cfg),
             cfg.tol) for i in range(samples)]


def _one_parameter_suite(L: Lie2Algebra, rng, cfg: ExpConfig, samples: int) -> list:
    out = []
    for i in range(samples):
        D = random_der0(L, rng, dens=_DENS)
        t = Fraction(rng.randint(-8, 8), 8)
        s = Fraction(rng.randint(-8, 8), 8)
        out.append((f"one_param_deg0[{i}]", *check_one_parameter(L, D, t, s, cfg), cfg.tol))
        T = random_derM1(L, rng, dens=_DENS)
        out.append((f"one_param_degM1[{i}]", *one_parameter_derM1(L, T, t, s, cfg), cfg.tol))
    return out


def _bracket_recovery_suite(L: Lie2Algebra, rng, cfg: ExpConfig, samples: int) -> list:
    # full-size draws: the finite-difference arguments are h-scaled anyway,
    # and the h^2 convergence signal must stay above the rounding floor
    out = []
    for i in range(samples):
        D1, D2 = random_der0(L, rng), random_der0(L, rng)
        T1, T2 = random_derM1(L, rng), random_derM1(L, rng)
        out += _bracket_lines(L, f"[{i}]", recover_bracket, der0_distance, D1, D2, cfg)
        out += _bracket_lines(L, f"_degM1[{i}]", recover_bracket_m1,
                              lambda a, b: mat_distance(a.theta, b.theta), T1, T2, cfg)
    return out


def _conjugation_suite(L: Lie2Algebra, rng, cfg: ExpConfig, samples: int) -> list:
    return [(*line, cfg.tol) for line in check_conjugation_identities(L, rng, cfg, samples)]


# name -> suite: each maps (L, rng, cfg, samples) to its report lines
# (name, residual, mode, tolerance), drawing from rng in a fixed order
SUITES = {
    "crossed-module": _crossed_module_suite,
    "exp-square": _exp_square_suite,
    "one-parameter": _one_parameter_suite,
    "bracket-recovery": _bracket_recovery_suite,
    "conjugation": _conjugation_suite,
}
