"""Named example algebras and seeded random fixtures for suites and tests.

Random entries are drawn by `derivations.ratio_draws` and random
matrices by `derivations.rand_mat`, as in every seeded sampler.

Some builders are test data by design, and no code of the package calls
them: `abelian_structure`, `aff1_sum_structure`, `strict_sl2` (sl2 with
g_{-1} = 0) and `string_aut_hom` (a weak automorphism of the string
algebra with a nonzero 2-component).  A representation by adjoint
matrices is `core.lie_ad_matrices`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .core import Lie2Algebra, Lie2Hom, ce_coboundary, lie_ad_matrices, make_endo, make_skeletal, make_string
from .derivations import rand_mat, ratio_draws
from .linalg import AltTensor, Mat, truncated_exp


# ---------------------------------------------------------------------------
# structure-constant catalog
# ---------------------------------------------------------------------------

def abelian_structure(n: int) -> AltTensor:
    return AltTensor.zero(2, n, n)


def sl2_structure() -> AltTensor:
    """sl2 in the basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return AltTensor(2, 3, 3, {
        (0, 1): (0, 2, 0),
        (0, 2): (0, 0, -2),
        (1, 2): (1, 0, 0),
    })


def solvable2_structure() -> AltTensor:
    """The nonabelian 2-dimensional Lie algebra: [x, y] = y."""
    return AltTensor(2, 2, 2, {(0, 1): (0, 1)})


def heisenberg3_structure() -> AltTensor:
    """Heisenberg algebra: [p, q] = z, z central."""
    return AltTensor(2, 3, 3, {(0, 1): (0, 0, 1)})


def aff1_sum_structure() -> AltTensor:
    """Two commuting copies of the affine line algebra: [x_i, y_i] = y_i."""
    return AltTensor(2, 4, 4, {(0, 1): (0, 1, 0, 0), (2, 3): (0, 0, 0, 1)})


def sl_structure(n: int) -> AltTensor:
    """sl_n in the basis E_ij (i != j, row-major), then H_k = E_kk - E_(k+1)(k+1).

    The structure constants are the coordinates of matrix commutators.  A
    traceless diagonal matrix has H-coordinates equal to the partial sums of
    its first n - 1 diagonal entries.
    """
    def unit(i, j):
        data = [0] * (n * n)
        data[i * n + j] = 1
        return Mat(n, n, data)

    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis = [unit(i, j) for i, j in offdiag]
    basis += [unit(k, k) - unit(k + 1, k + 1) for k in range(n - 1)]

    def coords(m: Mat) -> tuple:
        diag = itertools.accumulate(m.at(k, k) for k in range(n - 1))
        return tuple(m.at(i, j) for i, j in offdiag) + tuple(diag)

    def commutator(key):
        x, y = basis[key[0]], basis[key[1]]
        return coords(x @ y - y @ x)

    return AltTensor.from_function(2, len(basis), len(basis), commutator)


def trivial_rep(n: int, m: int) -> tuple:
    return tuple(Mat.zero(m, m) for _ in range(n))


# ---------------------------------------------------------------------------
# named fixtures
# ---------------------------------------------------------------------------

def fix_ab() -> Lie2Algebra:
    """One-dimensional abelian fixture: everything zero."""
    return Lie2Algebra(1, 1, Mat.zero(1, 1), AltTensor.zero(2, 1, 1),
                       [Mat.zero(1, 1)], AltTensor.zero(3, 1, 1))


def fix_str() -> Lie2Algebra:
    """String Lie 2-algebra of sl2."""
    return make_string(sl2_structure())


def fix_end() -> Lie2Algebra:
    """Endomorphism algebra of the complex R --1--> R."""
    return make_endo(Mat.from_rows([[1]]))


def strict_sl2() -> Lie2Algebra:
    """sl2 viewed as a strict Lie 2-algebra with zero degree -1 part."""
    sc = sl2_structure()
    return Lie2Algebra(3, 0, Mat.zero(3, 0), sc, [Mat.zero(0, 0)] * 3,
                       AltTensor.zero(3, 3, 0))


def skeletal_demo() -> Lie2Algebra:
    """Skeletal algebra on sl2 acting on itself, with an exact 3-cocycle."""
    sc = sl2_structure()
    rep = lie_ad_matrices(sc)
    omega = AltTensor(2, 3, 3, {(0, 1): (0, 1, 0)})
    l3 = ce_coboundary(sc, rep, omega)
    return make_skeletal(sc, rep, l3)


NAMED_EXAMPLES = {
    "abelian": fix_ab,
    "string-sl2": fix_str,
    "endo-1-1": fix_end,
    "skeletal-demo": skeletal_demo,
}


# ---------------------------------------------------------------------------
# seeded random draws
# ---------------------------------------------------------------------------

def rand_vec(rng: random.Random, n: int, dens=(1, 2)) -> tuple:
    """n entries p/q drawn by `derivations.ratio_draws`."""
    return tuple(Fraction(p, q) for p, q in ratio_draws(rng, n, dens))


def rand_cochain(rng: random.Random, arity: int, dim: int, codim: int, dens=(1, 2)) -> AltTensor:
    entries = {key: rand_vec(rng, codim, dens)
               for key in itertools.combinations(range(dim), arity)}
    return AltTensor(arity, dim, codim, entries)


def sl2_aut_matrix(rng: random.Random) -> Mat:
    """Random rational automorphism of sl2: a product of unipotent
    exponentials of the nilpotent inner derivations."""
    ads = lie_ad_matrices(sl2_structure())
    a0 = Mat.identity(3)
    for _ in range(rng.randint(1, 3)):
        g = rng.choice([ads[1], ads[2]])
        a0 = a0 @ truncated_exp(g, Fraction(rng.randint(-2, 2), 2))
    return a0


def string_aut_hom(L: Lie2Algebra, rng: random.Random):
    """Exact weak automorphism (A0, 1, omega) of the string fixture."""
    return Lie2Hom(L, L, sl2_aut_matrix(rng), Mat.identity(1), rand_cochain(rng, 2, 3, 1))


def random_fixture(rng: random.Random) -> Lie2Algebra:
    """A random valid Lie 2-algebra of dimensions at most (3 | 2).

    Draws a skeletal algebra over a catalog Lie algebra with a coboundary
    3-cocycle, or an endomorphism algebra of a small random complex.
    Constructed instances are valid by construction; the validator is the
    check, not the filter.
    """
    kind = rng.randrange(4)
    if kind == 0:
        # skeletal on a <=3-dim algebra with trivial coefficients; the 3-dim
        # algebras keep m = 1 so the derivation space stays small enough for
        # downstream exact validation to be quick
        sc = rng.choice([sl2_structure(), heisenberg3_structure(), solvable2_structure()])
        m = rng.randint(1, 2) if sc.dim == 2 else 1
        rep = trivial_rep(sc.dim, m)
        l3 = ce_coboundary(sc, rep, rand_cochain(rng, 2, sc.dim, m))
        return make_skeletal(sc, rep, l3)
    if kind == 1:
        # skeletal with the adjoint representation of the 2-dim solvable algebra
        sc = solvable2_structure()
        rep = lie_ad_matrices(sc)
        l3 = ce_coboundary(sc, rep, rand_cochain(rng, 2, 2, 2))
        return make_skeletal(sc, rep, l3)
    if kind == 2:
        # endomorphism algebra of a random small complex
        v0 = rng.randint(1, 2)
        v1 = 1
        for _ in range(20):
            L = make_endo(rand_mat(rng, v0, v1))
            if L.n0 <= 3 and L.n1 <= 2:
                return L
        return fix_end()
    # small abelian
    return Lie2Algebra(2, 1, Mat.zero(2, 1), AltTensor.zero(2, 2, 2),
                       [Mat.zero(1, 1)] * 2, AltTensor.zero(3, 2, 1))
