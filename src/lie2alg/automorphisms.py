"""The automorphism 2-group of a Lie 2-algebra.

Degree 0 holds the invertible weak self-homomorphisms under composition;
degree -1 holds the units of the monoid (Hom(g_0, g_{-1}), star) with
tau * tau' = tau + tau' + tau d tau'.  Together with the connecting map
and the natural action they form a crossed module of groups, realized
here with exact arithmetic so every law is an equality test.  A twist
by tau runs the 2-component loop of `dbar` (`derivations._lower_term`).
The strict 2-group carries the same data as the crossed module (Brown &
Spencer 1976): its morphisms are the (Aut0, Tau) pairs, a group under the
semidirect product `semidirect_multiply`, and `check_crossed_module`
checks its laws.

Each inverse has one route.  An automorphism's inverse hom comes from
its cached component inverses (`aut_inverse`).  A unit tau has the
star-inverse -tau (I + d tau)^{-1}, and the one elimination of I + d tau
is `_unit_core`, which `tau_inverse`, `tau_is_invertible`, `partial` and
the Tau cases of `ad_conjugate` call.

Kept as library API: `tau_zero`, the unit of the star monoid, beside
`core.hom_identity`, the unit of degree 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Lie2Algebra,
    Lie2Hom,
    compose_hom,
    hom_distance,
    hom_identity,
    validate_hom,
)
from .derivations import DerM1, Derivation0, _lower_term, lie_cochain_action, rand_mat
from .linalg import (_KINDS, Mat, _flat_mul, _nonzero_rows, _same_mode, mat_distance, mat_inverse,
                     sparse_columns)


@dataclass(frozen=True)
class Tau:
    """Degree -1 endomorphism g_0 -> g_{-1} (an element of the star monoid)."""

    mat: Mat

    @property
    def mode(self) -> str:
        return self.mat.mode

    def to_float(self) -> "Tau":
        return Tau(self.mat.to_float())


@dataclass(frozen=True)
class Aut0:
    """Certified weak automorphism with cached component inverses."""

    hom: Lie2Hom
    a0_inv: Mat
    a1_inv: Mat

    @property
    def algebra(self) -> Lie2Algebra:
        return self.hom.source

    @property
    def mode(self) -> str:
        return self.a0_inv.mode

    def to_float(self) -> "Aut0":
        """The float copy of the hom and of both cached inverses."""
        return Aut0(self.hom.to_float(), self.a0_inv.to_float(), self.a1_inv.to_float())


def tau_zero(L: Lie2Algebra) -> Tau:
    return Tau(Mat.zero(L.n1, L.n0, L.mode))


def tau_distance(a: Tau, b: Tau):
    return mat_distance(a.mat, b.mat)


# ---------------------------------------------------------------------------
# degree 0
# ---------------------------------------------------------------------------

def certify_aut0(L: Lie2Algebra, A: Lie2Hom, tol=0) -> Aut0:
    """Validate and cache the component inverses; raises on failure."""
    rep = validate_hom(A)
    if not rep.within(tol):
        raise ValueError(f"not a homomorphism: residuals {rep!r}")
    a0i = mat_inverse(A.A0)
    a1i = mat_inverse(A.A1)
    if a0i is None or a1i is None:
        raise ValueError("components are not invertible")
    return Aut0(A, a0i, a1i)


def aut_identity(L: Lie2Algebra) -> Aut0:
    ident = Mat.identity(L.n0, L.mode), Mat.identity(L.n1, L.mode)
    return Aut0(hom_identity(L), ident[0], ident[1])


def aut_compose(A: Aut0, B: Aut0) -> Aut0:
    """A after B, reusing cached inverses: (AB)^{-1} parts are B^-1 A^-1."""
    return Aut0(compose_hom(A.hom, B.hom), B.a0_inv @ A.a0_inv, B.a1_inv @ A.a1_inv)


def aut_inverse(A: Aut0) -> Aut0:
    """The inverse automorphism, from the cached component inverses; its
    2-component is -A1^{-1} A2 (A0^{-1} x A0^{-1})."""
    A2 = -(A.hom.A2.pullback(A.a0_inv).postcompose(A.a1_inv))
    return Aut0(Lie2Hom(A.hom.target, A.hom.source, A.a0_inv, A.a1_inv, A2), A.hom.A0, A.hom.A1)


# ---------------------------------------------------------------------------
# degree -1: the star monoid and its unit group
# ---------------------------------------------------------------------------

def star(L: Lie2Algebra, t1: Tau, t2: Tau) -> Tau:
    """tau * tau' = tau + tau' + tau d tau'; associative with unit 0.

    One pass over the flat row-major data: (tau d) tau' by two `_flat_mul`
    products, then added to tau + tau' by the sum rule of the mode, so the
    values are those of `t1.mat + t2.mat + t1.mat @ L.d @ t2.mat` (floats
    bit for bit, signed zeros too) and one Mat is built.  Mixed modes raise
    ModeError and shapes other than n1 x n0 (for d n0 x n1) ValueError, as
    those Mat operations do."""
    a, b, d = t1.mat, t2.mat, L.d
    kind = _KINDS[_same_mode(a, b, d)]
    if (a.rows, a.cols) != (b.rows, b.cols) or (d.rows, d.cols) != (a.cols, a.rows):
        raise ValueError("shape mismatch")
    ad = _flat_mul(a.data, a.rows, _nonzero_rows(d.data, d.rows, d.cols), d.cols, kind.zero)
    adb = _flat_mul(ad, a.rows, _nonzero_rows(b.data, b.rows, b.cols), b.cols, kind.zero)
    return Tau(Mat._result(a.rows, a.cols, kind.add(zip(kind.add(zip(a.data, b.data)), adb)), a.mode))


def _unit_core(L: Lie2Algebra, t: Tau, a0=None, required: bool = True):
    """(I + d tau)^{-1}, the one elimination of a unit tau; a0 is I + d tau
    when the caller holds it.  A non-unit raises ValueError, or gives None
    when a unit is not `required`."""
    core = mat_inverse(Mat.identity(L.n0, L.mode) + L.d @ t.mat if a0 is None else a0)
    if core is None and required:
        raise ValueError("tau is not star-invertible")
    return core


def tau_inverse(L: Lie2Algebra, t: Tau):
    """Star-inverse -tau (I + d tau)^{-1}, present iff I + d tau is invertible."""
    core = _unit_core(L, t, required=False)
    return None if core is None else Tau(-(t.mat @ core))


def tau_is_invertible(L: Lie2Algebra, t: Tau) -> bool:
    return _unit_core(L, t, required=False) is not None


def twist_hom(L: Lie2Algebra, A: Lie2Hom, t: Tau) -> Lie2Hom:
    """Shift a self-homomorphism by a degree -1 map:
    (A0 + d tau, A1 + tau d, A2 + l^A_tau); always a homomorphism again.
    The correction l^A_tau(x,y) = tau[x,y] - [A0 x, tau y] - [tau x, A0 y]
    - [tau x, d tau y] runs the loop of `dbar`'s 2-component
    (`derivations._lower_term`, a = A0, c = d tau); d tau is formed once,
    for A0 + d tau and for l^A_tau."""
    dt = L.d @ t.mat
    lower = _lower_term(L, sparse_columns(t.mat), sparse_columns(A.A0), sparse_columns(dt))
    return Lie2Hom(L, L, A.A0 + dt, A.A1 + t.mat @ L.d, A.A2 + lower)


def partial(L: Lie2Algebra, t: Tau) -> Aut0:
    """The connecting map: invertible tau |-> (I + d tau, I + tau d, l^id_tau).

    The star-inverse tau^{-1} = -tau (I + d tau)^{-1} is read off the hom's
    first component, I + d tau, so d tau is formed once.  The cached
    inverses come from it: (I + d tau)^{-1} = I + d tau^{-1} and likewise on
    the other side, so no elimination runs beyond the one that decides
    invertibility.
    """
    hom = twist_hom(L, hom_identity(L), t)
    ti = -(t.mat @ _unit_core(L, t, hom.A0))
    a0i = Mat.identity(L.n0, L.mode) + L.d @ ti
    a1i = Mat.identity(L.n1, L.mode) + ti @ L.d
    return Aut0(hom, a0i, a1i)


def act(L: Lie2Algebra, A: Aut0, t: Tau) -> Tau:
    """Natural action of degree-0 on degree -1: A |> tau = A1 tau A0^{-1}."""
    return Tau(A.hom.A1 @ t.mat @ A.a0_inv)


# ---------------------------------------------------------------------------
# crossed-module laws
# ---------------------------------------------------------------------------

def check_crossed_module(L: Lie2Algebra, auts, taus) -> list:
    """Residuals of equivariance and the Peiffer identity on given samples.

    Equivariance compares partial(A |> tau) with A partial(tau) A^{-1};
    Peiffer compares partial(tau) |> tau' with tau * tau' * tau^{-1}.
    Each unit's partial(tau) is formed once, before both loops, and its
    star inverse is read off it as -tau (I + d tau)^{-1}, the cached A0
    inverse; each automorphism's inverse hom is likewise built once.
    Returns (name, residual) pairs, one per sample.
    """
    units = [(t, partial(L, t)) for t in taus]
    units = [(t, pt, Tau(-(t.mat @ pt.a0_inv))) for t, pt in units]
    inverses = [aut_inverse(A).hom for A in auts]
    out = []
    for s, ((A, Ai), (t, pt, _)) in enumerate(itertools.product(zip(auts, inverses), units)):
        lhs = partial(L, act(L, A, t)).hom
        rhs = compose_hom(compose_hom(A.hom, pt.hom), Ai)
        out.append((f"equivariance[{s}]", hom_distance(lhs, rhs)))
    for s, ((t1, pt1, t1i), (t2, _, _)) in enumerate(itertools.product(units, units)):
        rhs = star(L, star(L, t1, t2), t1i)
        out.append((f"peiffer[{s}]", tau_distance(act(L, pt1, t2), rhs)))
    return out


# ---------------------------------------------------------------------------
# the semidirect product group
# ---------------------------------------------------------------------------

def semidirect_multiply(L: Lie2Algebra, p1, p2) -> tuple:
    """The group law of the 2-group on (Aut0, Tau) pairs:
    (A, tau) (A', tau') = (A A', tau * (A |> tau'))."""
    A1, t1 = p1
    A2, t2 = p2
    return aut_compose(A1, A2), star(L, t1, act(L, A1, t2))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_automorphism(L: Lie2Algebra, elem) -> dict:
    """Flags {weak, strict}.

    Degree 0: strict iff A2 = 0 and the homomorphism residuals are literally
    0 (tolerance 0); every Aut0 carries both component inverses.
    Degree -1: strict iff tau[x,y] = [x, tau y] + [tau x, y] + [tau x, d tau y],
    that is iff the twist l^id_tau of the identity vanishes.
    """
    if isinstance(elem, Aut0):
        strict = elem.hom.A2.is_zero() and validate_hom(elem.hom).ok
        return {"weak": True, "strict": strict}
    if isinstance(elem, Tau):
        return {"weak": tau_is_invertible(L, elem),
                "strict": twist_hom(L, hom_identity(L), elem).A2.is_zero()}
    raise TypeError("expected Aut0 or Tau")


# ---------------------------------------------------------------------------
# adjoint conjugation on derivations
# ---------------------------------------------------------------------------

def ad_conjugate(L: Lie2Algebra, conj, target):
    """Adjoint action of the automorphism 2-group on derivations.

    Four cases:
      Aut0 on Derivation0 -> Derivation0: A0 X0 A0^{-1}, X1' = A1 X1 A1^{-1}
          and (A1 lX - L_(X0, X1') A2)(A0^{-1} ., A0^{-1} .), with L the
          action on cochains (`lie_cochain_action`);
      Aut0 on DerM1 -> DerM1: A1 theta A0^{-1}, the natural action `act`;
      Tau on Derivation0 -> (Derivation0, DerM1): the degree-0 part is
          untouched and the degree -1 part is X1 tau^{-1} + tau X0
          + tau X0 d tau^{-1} (tau^{-1} = -tau (I + d tau)^{-1} the
          star-inverse);
      Tau on DerM1 -> DerM1: (I + tau d) theta (I + d tau)^{-1}.
    Each Tau case eliminates I + d tau once (`_unit_core`); a non-unit
    raises ValueError.
    """
    if isinstance(conj, Aut0) and isinstance(target, Derivation0):
        A = conj.hom
        X1 = A.A1 @ target.X1 @ conj.a1_inv
        lX = target.lX.postcompose(A.A1) - lie_cochain_action(target.X0, X1, A.A2)
        return Derivation0(A.A0 @ target.X0 @ conj.a0_inv, X1, lX.pullback(conj.a0_inv))
    if isinstance(conj, Aut0) and isinstance(target, DerM1):
        return DerM1(act(L, conj, Tau(target.theta)).mat)
    if isinstance(conj, Tau) and isinstance(target, Derivation0):
        tm = conj.mat
        tim = -(tm @ _unit_core(L, conj))
        theta = target.X1 @ tim + tm @ target.X0 + tm @ target.X0 @ L.d @ tim
        return (target, DerM1(theta))
    if isinstance(conj, Tau) and isinstance(target, DerM1):
        left = Mat.identity(L.n1, L.mode) + conj.mat @ L.d
        return DerM1(left @ target.theta @ _unit_core(L, conj))
    raise TypeError("unsupported conjugation pair")


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------

def random_tau(L: Lie2Algebra, rng, dens=(1, 2)) -> Tau:
    """Random rational unit tau: the first of up to 200 draws that is a unit
    (`tau_is_invertible`), each with its entries `ratio_draws` row-major
    (`rand_mat`); 200 singular draws raise ValueError."""
    for _ in range(200):
        t = Tau(rand_mat(rng, L.n1, L.n0, dens))
        if tau_is_invertible(L, t):
            return t
    raise ValueError("no unit tau in 200 draws: each was singular")
