"""The automorphism 2-group of a Lie 2-algebra.

Degree 0 holds the invertible weak self-homomorphisms under composition;
degree -1 holds the units of the monoid (Hom(g_0, g_{-1}), star) with
tau * tau' = tau + tau' + tau d tau'.  Together with the connecting map
and the natural action they form a crossed module of groups, realized
here with exact arithmetic so every law is an equality test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import (
    Lie2Algebra,
    Lie2Hom,
    compose_hom,
    hom_distance,
    hom_identity,
    validate_hom,
)
from .derivations import DerM1, Derivation0, lie_cochain_action, ratio_draws
from .linalg import AltTensor, Mat, adjugate_det, mat_distance, mat_inverse, vadd, vsub


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

def is_aut0(L: Lie2Algebra, A: Lie2Hom, tol=0):
    """(flag, residual report): A is an automorphism iff the homomorphism
    residuals vanish (within tol) and both components are invertible."""
    rep = validate_hom(A)
    invertible = mat_inverse(A.A0) is not None and mat_inverse(A.A1) is not None
    ok = invertible and all(abs(r.value) <= tol for _, r in rep)
    return ok, rep


def certify_aut0(L: Lie2Algebra, A: Lie2Hom, tol=0) -> Aut0:
    """Validate and cache the component inverses; raises on failure."""
    rep = validate_hom(A)
    if not all(abs(r.value) <= tol for _, r in rep):
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


def conjugate_hom(A: Aut0, B: Lie2Hom) -> Lie2Hom:
    """The composite A B A^{-1}."""
    return compose_hom(compose_hom(A.hom, B), aut_inverse(A).hom)


def aut_distance(A: Aut0, B: Aut0):
    return hom_distance(A.hom, B.hom)


# ---------------------------------------------------------------------------
# degree -1: the star monoid and its unit group
# ---------------------------------------------------------------------------

def star(L: Lie2Algebra, t1: Tau, t2: Tau) -> Tau:
    """tau * tau' = tau + tau' + tau d tau'; associative with unit 0."""
    return Tau(t1.mat + t2.mat + (t1.mat @ L.d @ t2.mat))


def tau_inverse(L: Lie2Algebra, t: Tau):
    """Star-inverse -tau (I + d tau)^{-1}, present iff I + d tau is invertible."""
    core = mat_inverse(Mat.identity(L.n0, L.mode) + L.d @ t.mat)
    if core is None:
        return None
    return Tau(-(t.mat @ core))


def tau_is_invertible(L: Lie2Algebra, t: Tau) -> bool:
    return tau_inverse(L, t) is not None


def twist_lower(L: Lie2Algebra, A: Lie2Hom, t: Tau) -> AltTensor:
    """The 2-component correction l^A_tau(x,y) = tau[x,y] - [A0 x, tau y]
    - [tau x, A0 y] - [tau x, d tau y]."""
    tm = t.mat

    def val(key):
        i, j = key
        x, y = L.e0(i), L.e0(j)
        a0x, a0y = A.A0.col(i), A.A0.col(j)
        tx, ty = tm.col(i), tm.col(j)
        r = tm.apply(L.b00.eval_basis(i, j))
        r = vsub(r, L.bracket01(a0x, ty))
        r = vadd(r, L.bracket01(a0y, tx))          # -[tau x, A0 y] = +[A0 y, tau x]
        r = vadd(r, L.bracket01(L.dv(ty), tx))     # -[tau x, d tau y] = +[d tau y, tau x]
        return r

    return AltTensor.from_function(2, L.n0, L.n1, val, L.mode)


def twist_hom(L: Lie2Algebra, A: Lie2Hom, t: Tau) -> Lie2Hom:
    """Shift a self-homomorphism by a degree -1 map:
    (A0 + d tau, A1 + tau d, A2 + l^A_tau); always a homomorphism again."""
    return Lie2Hom(L, L, A.A0 + L.d @ t.mat, A.A1 + t.mat @ L.d,
                   A.A2 + twist_lower(L, A, t))


def partial(L: Lie2Algebra, t: Tau) -> Aut0:
    """The connecting map: invertible tau |-> (I + d tau, I + tau d, l^id_tau).

    The cached inverses come from the star-inverse: (I + d tau)^{-1} =
    I + d tau^{-1} and likewise on the other side, so no elimination runs.
    """
    ti = tau_inverse(L, t)
    if ti is None:
        raise ValueError("tau is not star-invertible")
    hom = twist_hom(L, hom_identity(L), t)
    a0i = Mat.identity(L.n0, L.mode) + L.d @ ti.mat
    a1i = Mat.identity(L.n1, L.mode) + ti.mat @ L.d
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
    Returns (name, residual) pairs, one per sample.
    """
    out = []
    for s, (A, t) in enumerate(itertools.product(auts, taus)):
        lhs = partial(L, act(L, A, t)).hom
        rhs = conjugate_hom(A, partial(L, t).hom)
        out.append((f"equivariance[{s}]", hom_distance(lhs, rhs)))
    for s, (t1, t2) in enumerate(itertools.product(taus, taus)):
        lhs = act(L, partial(L, t1), t2)
        t1i = tau_inverse(L, t1)
        rhs = star(L, star(L, t1, t2), t1i)
        out.append((f"peiffer[{s}]", tau_distance(lhs, rhs)))
    return out


# ---------------------------------------------------------------------------
# the semidirect product group and the 2-group cells
# ---------------------------------------------------------------------------

class TwoGroupCell(NamedTuple):
    """Cell of the associated strict 2-group: source g, morphism datum h.
    Under horizontal product the cells are the semidirect pairs (A, tau)."""

    g: Aut0
    h: Tau


def semidirect_identity(L: Lie2Algebra) -> TwoGroupCell:
    return TwoGroupCell(aut_identity(L), tau_zero(L))


def semidirect_multiply(L: Lie2Algebra, p1, p2) -> TwoGroupCell:
    """(A, tau) (A', tau') = (A A', tau * (A |> tau'))."""
    A1, t1 = p1
    A2, t2 = p2
    return TwoGroupCell(aut_compose(A1, A2), star(L, t1, act(L, A1, t2)))


def semidirect_inverse(L: Lie2Algebra, p) -> TwoGroupCell:
    A, t = p
    ti = tau_inverse(L, t)
    if ti is None:
        raise ValueError("tau is not star-invertible")
    Ai = aut_inverse(A)
    return TwoGroupCell(Ai, act(L, Ai, ti))


def semidirect_distance(L: Lie2Algebra, p1, p2):
    return max(aut_distance(p1[0], p2[0]), tau_distance(p1[1], p2[1]))


# the horizontal product of cells is the semidirect product of their pairs
hmultiply = semidirect_multiply
cell_distance = semidirect_distance


def cell_source(L: Lie2Algebra, c: TwoGroupCell) -> Aut0:
    return c.g


def cell_target(L: Lie2Algebra, c: TwoGroupCell) -> Aut0:
    return aut_compose(partial(L, c.h), c.g)


def cell_identity(L: Lie2Algebra, g: Aut0) -> TwoGroupCell:
    return TwoGroupCell(g, tau_zero(L))


def vcompose(L: Lie2Algebra, c1: TwoGroupCell, c2: TwoGroupCell) -> TwoGroupCell:
    """Vertical composite c1 after c2; needs target(c2) = source(c1)."""
    if aut_distance(cell_target(L, c2), cell_source(L, c1)) != 0:
        raise ValueError("cells are not vertically composable")
    return TwoGroupCell(c2.g, star(L, c1.h, c2.h))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_automorphism(L: Lie2Algebra, elem) -> dict:
    """Flags {weak, strict}.

    Degree 0: strict iff A2 = 0, the homomorphism residuals are literally 0
    (tolerance 0) and the cached component inverses are present.
    Degree -1: strict iff tau[x,y] = [x, tau y] + [tau x, y] + [tau x, d tau y],
    that is iff the twist l^id_tau of the identity vanishes.
    """
    if isinstance(elem, Aut0):
        strict = (elem.hom.A2.is_zero() and elem.a0_inv is not None
                  and elem.a1_inv is not None and validate_hom(elem.hom).ok)
        return {"weak": True, "strict": strict}
    if isinstance(elem, Tau):
        return {"weak": tau_is_invertible(L, elem),
                "strict": twist_lower(L, hom_identity(L), elem).is_zero()}
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
      Aut0 on DerM1 -> DerM1: A1 theta A0^{-1};
      Tau on Derivation0 -> (Derivation0, DerM1): the degree-0 part is
          untouched and the degree -1 part is X1 tau^{-1} + tau X0
          + tau X0 d tau^{-1} (tau^{-1} the star-inverse);
      Tau on DerM1 -> DerM1: (I + tau d) theta (I + d tau)^{-1}.
    """
    if isinstance(conj, Aut0) and isinstance(target, Derivation0):
        A = conj.hom
        X1 = A.A1 @ target.X1 @ conj.a1_inv
        lX = target.lX.postcompose(A.A1) - lie_cochain_action(target.X0, X1, A.A2)
        return Derivation0(A.A0 @ target.X0 @ conj.a0_inv, X1, lX.pullback(conj.a0_inv))
    if isinstance(conj, Aut0) and isinstance(target, DerM1):
        return DerM1(conj.hom.A1 @ target.theta @ conj.a0_inv)
    if isinstance(conj, Tau) and isinstance(target, Derivation0):
        ti = tau_inverse(L, conj)
        if ti is None:
            raise ValueError("tau is not star-invertible")
        tm, tim = conj.mat, ti.mat
        theta = target.X1 @ tim + tm @ target.X0 + tm @ target.X0 @ L.d @ tim
        return (target, DerM1(theta))
    if isinstance(conj, Tau) and isinstance(target, DerM1):
        ti = tau_inverse(L, conj)
        if ti is None:
            raise ValueError("tau is not star-invertible")
        left = Mat.identity(L.n1, L.mode) + conj.mat @ L.d
        right = Mat.identity(L.n0, L.mode) + L.d @ ti.mat  # = (I + d tau)^{-1}
        return DerM1(left @ target.theta @ right)
    raise TypeError("unsupported conjugation pair")


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------

class TauDraws:
    """The draws of `random_tau(invertible=True)` on one algebra, with their
    invertibility decided in ints.

    A tau with `ratio_draws` entries p/q, q in dens, scales to the integer
    T = den tau, den = lcm(dens), and I + d tau to the integer
    M = den delta (I + d tau), with delta the common denominator of d; tau
    is a unit iff det(M) != 0.
    """

    def __init__(self, L: Lie2Algebra, dens):
        self.n0, self.n1, self.dens = L.n0, L.n1, dens
        self.den = math.lcm(*dens)
        entries = [Fraction(x) for x in L.d.data]
        self.delta = math.lcm(1, *(x.denominator for x in entries))
        self.d = Mat._result(L.n0, L.n1, [int(x * self.delta) for x in entries], "exact")
        self.diag = Mat.identity(L.n0).scale(self.den * self.delta)

    def image(self, pairs) -> tuple:
        """(T, +-adj(M), +-det(M)) of the tau with entries `pairs`, by
        `adjugate_det`: (T, None, 0) when M is singular."""
        T = Mat._result(self.n1, self.n0, [p * (self.den // q) for p, q in pairs], "exact")
        return (T, *adjugate_det(self.diag + self.d @ T))

    def draw(self, rng) -> tuple:
        """(pairs, T, adj) of the first of up to 200 draws with det(M) != 0;
        after 200 singular draws, those of tau = 0."""
        count = self.n1 * self.n0
        for _ in range(200):
            pairs = ratio_draws(rng, count, self.dens)
            T, adj, det = self.image(pairs)
            if det:
                return pairs, T, adj
        pairs = [(0, 1)] * count
        return (pairs, *self.image(pairs)[:2])


def tau_of_draws(L: Lie2Algebra, pairs) -> Tau:
    """The tau whose entries are the (numerator, denominator) `pairs`."""
    return Tau(Mat(L.n1, L.n0, [Fraction(p, q) for p, q in pairs]))


def random_tau(L: Lie2Algebra, rng, dens=(1, 2), invertible: bool = False) -> Tau:
    """Random rational tau; invertible=True rejection-samples to units
    through `TauDraws` (tau = 0 after a bounded search), False takes the
    first draw."""
    if invertible:
        return tau_of_draws(L, TauDraws(L, dens).draw(rng)[0])
    return tau_of_draws(L, ratio_draws(rng, L.n1 * L.n0, dens))
