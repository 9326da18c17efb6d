"""Derivations of a Lie 2-algebra and the strict Lie 2-algebra they form.

Degree-0 derivations are triples (X0, X1, lX); degree minus-1 derivations
are maps theta: g_0 -> g_{-1} (the full Hom space).  The four degree-0
conditions are written once, in `_der0_condition_vectors`, as sums over the
nonzero structure constants of the algebra (`Lie2Algebra.sparse`).  The
membership test evaluates them on one candidate; the degree-0 space is the
kernel of the stacked homogeneous linear system obtained by evaluating them
on the unknowns themselves, as linear forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Lie2Algebra, Lie2Hom, ResidualReport, _Acc
from .linalg import (
    SPARSE_ZERO,
    AltTensor,
    Mat,
    ModeError,
    _same_mode,
    kernel,
    mat_distance,
    rref,
    scalar_zero,
    sparse_alt,
    sparse_apply,
    sparse_columns,
    sparse_comb,
    sparse_sum,
    tensor_distance,
    vadd,
    vscale,
    vsub,
    vzero,
)


@dataclass(frozen=True)
class Derivation0:
    """Degree-0 derivation candidate (X0, X1, lX)."""

    X0: Mat
    X1: Mat
    lX: AltTensor

    def __add__(self, other: "Derivation0") -> "Derivation0":
        return Derivation0(self.X0 + other.X0, self.X1 + other.X1, self.lX + other.lX)

    def __sub__(self, other: "Derivation0") -> "Derivation0":
        return Derivation0(self.X0 - other.X0, self.X1 - other.X1, self.lX - other.lX)

    def __neg__(self) -> "Derivation0":
        return Derivation0(-self.X0, -self.X1, -self.lX)

    def scale(self, s) -> "Derivation0":
        return Derivation0(self.X0.scale(s), self.X1.scale(s), self.lX.scale(s))

    @property
    def mode(self) -> str:
        return self.X0.mode

    def to_float(self) -> "Derivation0":
        return Derivation0(self.X0.to_float(), self.X1.to_float(), self.lX.to_float())

    def is_zero(self) -> bool:
        return self.X0.is_zero() and self.X1.is_zero() and self.lX.is_zero()


@dataclass(frozen=True)
class DerM1:
    """Degree minus-1 derivation: a linear map g_0 -> g_{-1}."""

    theta: Mat

    def __add__(self, other: "DerM1") -> "DerM1":
        return DerM1(self.theta + other.theta)

    def __sub__(self, other: "DerM1") -> "DerM1":
        return DerM1(self.theta - other.theta)

    def __neg__(self) -> "DerM1":
        return DerM1(-self.theta)

    def scale(self, s) -> "DerM1":
        return DerM1(self.theta.scale(s))

    @property
    def mode(self) -> str:
        return self.theta.mode

    def to_float(self) -> "DerM1":
        return DerM1(self.theta.to_float())

    def is_zero(self) -> bool:
        return self.theta.is_zero()


def der0_zero(L: Lie2Algebra) -> Derivation0:
    return Derivation0(Mat.zero(L.n0, L.n0, L.mode), Mat.zero(L.n1, L.n1, L.mode),
                       AltTensor.zero(2, L.n0, L.n1, L.mode))


def _der0_combination(L: Lie2Algebra, terms) -> Derivation0:
    """The sum of c D over the (c, D) pairs of terms, zero coefficients skipped."""
    out = der0_zero(L)
    for c, D in terms:
        if c != 0:
            out = out + D.scale(c)
    return out


def derM1_zero(L: Lie2Algebra) -> DerM1:
    return DerM1(Mat.zero(L.n1, L.n0, L.mode))


def der0_distance(a: Derivation0, b: Derivation0):
    return max(mat_distance(a.X0, b.X0), mat_distance(a.X1, b.X1),
               tensor_distance(a.lX, b.lX))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _der0_condition_vectors(L: Lie2Algebra, x0: list, x1: list, lx: dict) -> dict:
    """Residual vectors of the conditions on (X0, X1, lX), by family.

    x0 and x1 are the columns of X0 and X1 (`sparse_columns`), lx the values
    of lX on every ordering of its keys (`sparse_alt`).  The result maps
    "chain", "a", "b" and "c" to (length, [(vector, witness), ...]): sparse
    vectors ({index: value}) of that length, one per basis tuple, zero ones
    included, so positions in the stacked residual are fixed.  The chain is
    one vector, X0 d - d X1 row-major.  Sums run over the nonzero constants
    of L and entries of the parts only; the entries of the parts need +,
    unary - and products with scalars, so they may be linear forms.
    """
    n0, n1 = L.n0, L.n1
    d, b00, b01, l3 = L.sparse()

    chain = {}
    for a in range(n1):
        col = sparse_sum((1, sparse_apply(x0, d[a])), (-1, sparse_apply(d, x1[a])))
        for r, v in col.items():
            chain[r * n1 + a] = v

    cond_a = []
    for i, j in itertools.combinations(range(n0), 2):
        r = sparse_sum(
            (1, sparse_apply(d, lx.get((i, j), SPARSE_ZERO))),
            (-1, sparse_apply(x0, b00.get((i, j), SPARSE_ZERO))),
            (1, sparse_comb((x, b00.get((m, j), SPARSE_ZERO)) for m, x in sorted(x0[i].items()))),
            (1, sparse_comb((x, b00.get((i, m), SPARSE_ZERO)) for m, x in sorted(x0[j].items()))))
        cond_a.append((r, (i, j)))

    cond_b = []
    for i in range(n0):
        for a in range(n1):
            r = sparse_sum(
                (1, sparse_comb((x, lx.get((i, m), SPARSE_ZERO)) for m, x in sorted(d[a].items()))),
                (-1, sparse_apply(x1, b01[i][a])),
                (1, sparse_comb((x, b01[m][a]) for m, x in sorted(x0[i].items()))),
                (1, sparse_apply(b01[i], x1[a])))
            cond_b.append((r, (i, a)))

    cond_c = []
    for i, j, k in itertools.combinations(range(n0), 3):
        terms = [(1, sparse_apply(x1, l3.get((i, j, k), SPARSE_ZERO)))]
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            terms += [
                (-1, sparse_comb((v, lx.get((x, m), SPARSE_ZERO))
                                 for m, v in sorted(b00.get((y, z), SPARSE_ZERO).items()))),
                (-1, sparse_apply(b01[x], lx.get((y, z), SPARSE_ZERO))),
                (-1, sparse_comb((v, l3.get((m, y, z), SPARSE_ZERO))
                                 for m, v in sorted(x0[x].items())))]
        cond_c.append((sparse_sum(*terms), (i, j, k)))

    return {"chain": (n0 * n1, [(chain, None)]), "a": (n0, cond_a),
            "b": (n1, cond_b), "c": (n1, cond_c)}


def is_derivation0(L: Lie2Algebra, D: Derivation0) -> ResidualReport:
    """Residuals of the degree-0 derivation conditions (chain, a, b, c)."""
    _same_mode(D.X0, L)
    _same_mode(L, D.X1)
    families = _der0_condition_vectors(
        L, sparse_columns(D.X0), sparse_columns(D.X1), sparse_alt(D.lX))
    out = {}
    for key, (_, group) in families.items():
        acc = _Acc(D.mode)
        for r, w in group:
            acc.add(r.values(), w)
        out[key] = acc.residual()
    return ResidualReport(out)


def _der0_flat_len(L: Lie2Algebra) -> int:
    return L.n0 * L.n0 + L.n1 * L.n1 + math.comb(L.n0, 2) * L.n1


def flatten_der0(L: Lie2Algebra, D: Derivation0) -> tuple:
    """X0, X1 (row-major), then lX on each increasing pair (i, j) in
    lexicographic order, read from its stored values (zero when absent)."""
    parts = list(D.X0.data) + list(D.X1.data)
    zero = vzero(D.lX.codim, D.lX.mode)
    for key in itertools.combinations(range(L.n0), 2):
        parts.extend(D.lX.entries.get(key, zero))
    return tuple(parts)


def unflatten_der0(L: Lie2Algebra, vec) -> Derivation0:
    n0, n1 = L.n0, L.n1
    vec = list(vec)
    X0 = Mat(n0, n0, vec[:n0 * n0])
    X1 = Mat(n1, n1, vec[n0 * n0:n0 * n0 + n1 * n1])
    rest = vec[n0 * n0 + n1 * n1:]
    entries = {}
    for t, key in enumerate(itertools.combinations(range(n0), 2)):
        entries[key] = tuple(rest[t * n1:(t + 1) * n1])
    return Derivation0(X0, X1, AltTensor(2, n0, n1, entries))


class _Form(dict):
    """A linear form {unknown: coefficient} in the unknowns of `flatten_der0`."""

    __slots__ = ()

    def __add__(self, other: "_Form") -> "_Form":
        out = _Form(self)
        for u, v in other.items():
            out[u] = out[u] + v if u in out else v
        return out

    def __neg__(self) -> "_Form":
        return _Form({u: -v for u, v in self.items()})

    def __mul__(self, s) -> "_Form":
        return _Form({u: v * s for u, v in self.items()})

    __rmul__ = __mul__


def der0_constraints(L: Lie2Algebra) -> Mat:
    """The matrix of the degree-0 derivation conditions.

    The conditions are linear in (X0, X1, lX), so `_der0_condition_vectors`
    evaluated on the unknowns themselves, as unit linear forms, gives each
    residual coordinate as a linear form: row t of the matrix is the t-th
    coordinate of the stacked residual vectors (chain, then (a), (b) and (c)
    by basis tuple), column u the coefficient of the u-th unknown of
    `flatten_der0`.  The kernel is exact, so a float algebra raises
    `ModeError`.
    """
    if L.mode != "exact":
        raise ModeError("der0_constraints requires exact scalars")
    n0, n1 = L.n0, L.n1
    nfree = _der0_flat_len(L)
    unit = [_Form({u: 1}) for u in range(nfree)]
    x0 = [{r: unit[r * n0 + m] for r in range(n0)} for m in range(n0)]
    x1 = [{r: unit[n0 * n0 + r * n1 + a] for r in range(n1)} for a in range(n1)]
    lx = {}
    for p, (i, j) in enumerate(itertools.combinations(range(n0), 2)):
        lx[i, j] = {c: unit[n0 * n0 + n1 * n1 + p * n1 + c] for c in range(n1)}
        lx[j, i] = {c: -f for c, f in lx[i, j].items()}
    rows = [vec.get(c, SPARSE_ZERO)
            for size, group in _der0_condition_vectors(L, x0, x1, lx).values()
            for vec, _ in group for c in range(size)]
    data = [0] * (len(rows) * nfree)
    for t, form in enumerate(rows):
        for u, v in form.items():
            data[t * nfree + u] = v
    return Mat._result(len(rows), nfree, data, "exact")


def _der0_kernel(L: Lie2Algebra):
    """(basis, coords) of the degree-0 derivation space from one elimination
    of `der0_constraints` (`linalg.kernel`): coords(D) is the coordinate
    tuple of D in the basis, and raises ValueError when D is off the span."""
    vecs, span = kernel(der0_constraints(L))

    def coords(D: Derivation0) -> tuple:
        c = span(flatten_der0(L, D))
        if c is None:
            raise ValueError("not in the degree-0 derivation span")
        return c

    return [unflatten_der0(L, v) for v in vecs], coords


def compute_der0_basis(L: Lie2Algebra) -> list:
    """Basis of the degree-0 derivation space: the kernel of
    `der0_constraints`, in kernel order (deterministic)."""
    return _der0_kernel(L)[0]


# ---------------------------------------------------------------------------
# the differential and brackets
# ---------------------------------------------------------------------------

def dbar(L: Lie2Algebra, T: DerM1) -> Derivation0:
    """Differential into degree 0: (d theta, theta d, l_{delta(theta)})."""
    X0 = L.d @ T.theta
    X1 = T.theta @ L.d

    def lval(key):
        i, j = key
        r = T.theta.apply(L.b00.eval_basis(i, j))
        r = vsub(r, L.bracket01(L.e0(i), T.theta.col(j)))
        r = vadd(r, L.bracket01(L.e0(j), T.theta.col(i)))
        return r

    return Derivation0(X0, X1, AltTensor.from_function(2, L.n0, L.n1, lval, L.mode))


def lie_cochain_action(X0: Mat, X1: Mat, omega: AltTensor) -> AltTensor:
    """Action of a degree-0 pair on alternating cochains with degree -1 values.

    (L_X omega)(x_1..x_k) = X1 omega(x_1..x_k) - sum_i omega(.., X0 x_i, ..).

    On basis arguments the value at a key is X1 omega(key) minus, slot by
    slot, the sum over m of X0[m, key_t] omega(key with slot t set to m).
    Only keys that one of those terms reaches from a nonzero value of omega
    are formed, and each sum runs over nonzero entries by increasing m, the
    order of the dense evaluation on basis vectors: exact results are equal
    and finite float results are the dense left-to-right sums bit for bit.
    """
    _same_mode(X0, omega)
    _same_mode(X1, omega)
    w = sparse_alt(omega)
    x0 = sparse_columns(X0)
    x1 = sparse_columns(X1)
    keys = set(omega.entries)
    for key in omega.entries:
        for t, m in enumerate(key):
            rest = key[:t] + key[t + 1:]
            for i, x in enumerate(X0.row(m)):
                if x and i not in rest:
                    keys.add(tuple(sorted(rest + (i,))))
    zero = scalar_zero(omega.mode)
    entries = {}
    for key in keys:
        r = [zero] * omega.codim
        for t, y in sorted(w.get(key, SPARSE_ZERO).items()):
            for c, a in x1[t].items():
                r[c] += a * y
        for t in range(len(key)):
            s = {}  # the slot-t sum, on the coordinates it reaches
            for m, x in sorted(x0[key[t]].items()):
                for c, y in w.get(key[:t] + (m,) + key[t + 1:], SPARSE_ZERO).items():
                    s[c] = s.get(c, zero) + x * y
            for c, v in s.items():
                r[c] -= v
        entries[key] = tuple(r)
    return AltTensor._result(omega.arity, omega.dim, omega.codim, entries, omega.mode)


def graded_bracket(L: Lie2Algebra, a, b):
    """Graded bracket on derivations.

    degree 0 x degree 0 -> degree 0 (commutators plus the action on lX);
    degree 0 x degree -1 -> degree -1 (commutator);
    degree -1 x degree -1 -> degree -1 (the bracket transported along the
    differential: theta d theta' - theta' d theta).
    """
    if isinstance(a, Derivation0) and isinstance(b, Derivation0):
        X0 = a.X0 @ b.X0 - b.X0 @ a.X0
        X1 = a.X1 @ b.X1 - b.X1 @ a.X1
        lX = lie_cochain_action(a.X0, a.X1, b.lX) - lie_cochain_action(b.X0, b.X1, a.lX)
        return Derivation0(X0, X1, lX)
    if isinstance(a, Derivation0) and isinstance(b, DerM1):
        return DerM1(a.X1 @ b.theta - b.theta @ a.X0)
    if isinstance(a, DerM1) and isinstance(b, Derivation0):
        return -graded_bracket(L, b, a)
    if isinstance(a, DerM1) and isinstance(b, DerM1):
        return DerM1(a.theta @ L.d @ b.theta - b.theta @ L.d @ a.theta)
    raise TypeError("graded_bracket expects derivation types")


# ---------------------------------------------------------------------------
# the derivation Lie 2-algebra
# ---------------------------------------------------------------------------

def derM1_basis(L: Lie2Algebra) -> list:
    """Standard basis of Hom(g_0, g_{-1}), row-major."""
    out = []
    for a in range(L.n1):
        for b in range(L.n0):
            data = [0] * (L.n1 * L.n0)
            data[a * L.n0 + b] = 1
            out.append(DerM1(Mat(L.n1, L.n0, data)))
    return out


@dataclass(frozen=True)
class DerLie2:
    """The derivation Lie 2-algebra in computed bases.

    `algebra` is the strict Lie 2-algebra realization (l3 = 0) whose
    degree-0 coordinates refer to `basis0` and degree -1 coordinates to
    the standard Hom basis `basisM1`.
    """

    algebra: Lie2Algebra
    basis0: tuple
    basisM1: tuple
    _coords: object  # coordinates of a degree-0 derivation in basis0
    _base: Lie2Algebra

    def der0_coords(self, D: Derivation0) -> tuple:
        return self._coords(D)

    def derM1_coords(self, T: DerM1) -> tuple:
        return T.theta.data

    def der0_from_coords(self, c) -> Derivation0:
        return _der0_combination(self._base, zip(c, self.basis0))


def build_der_lie2(L: Lie2Algebra) -> DerLie2:
    """Assemble the strict derivation Lie 2-algebra of L in explicit bases."""
    basis0, coords = _der0_kernel(L)
    basisM1 = derM1_basis(L)
    r = len(basis0)
    m = len(basisM1)
    dmat = Mat.from_cols([coords(dbar(L, T)) for T in basisM1], r)

    b00 = AltTensor.from_function(
        2, r, r, lambda key: coords(graded_bracket(L, basis0[key[0]], basis0[key[1]])))

    b01 = []
    for D in basis0:
        cols = [graded_bracket(L, D, T).theta.data for T in basisM1]
        b01.append(Mat.from_cols(cols, m))

    algebra = Lie2Algebra(r, m, dmat, b00, b01, AltTensor.zero(3, r, m))
    return DerLie2(algebra, tuple(basis0), tuple(basisM1), coords, L)


# ---------------------------------------------------------------------------
# adjoint and inner derivations
# ---------------------------------------------------------------------------

def adbar0_single(L: Lie2Algebra, x: tuple) -> Derivation0:
    """The degree-0 derivation ([x, .], l3(x, ., .)) attached to x in g_0."""
    # built from its columns as rows, then transposed: an empty X0 keeps L's mode
    cols = [v for j in range(L.n0) for v in L.bracket00(x, L.e0(j))]
    X0 = Mat._result(L.n0, L.n0, cols, L.mode).transpose()
    X1 = L.act0_mat(x)
    lX = AltTensor.from_function(
        2, L.n0, L.n1, lambda key: L.l3.eval(x, L.e0(key[0]), L.e0(key[1])), L.mode)
    return Derivation0(X0, X1, lX)


def ad1_single(L: Lie2Algebra, a: tuple) -> DerM1:
    """The degree -1 derivation [a, .] attached to a in g_{-1}."""
    cols = [v for j in range(L.n0) for v in L.bracket10(a, L.e0(j))]
    return DerM1(Mat._result(L.n0, L.n1, cols, L.mode).transpose())


def adbar(L: Lie2Algebra, der: DerLie2 | None = None) -> Lie2Hom:
    """The adjoint homomorphism from L into its derivation Lie 2-algebra.

    Degree 0 sends x to ([x,.], l3(x,.,.)), degree -1 sends a to [a,.],
    and the 2-component is (y,z) |-> -l3(y,z,.).
    """
    if der is None:
        der = build_der_lie2(L)
    target = der.algebra
    A0 = Mat.from_cols([der.der0_coords(adbar0_single(L, L.e0(i))) for i in range(L.n0)], target.n0)
    A1 = Mat.from_cols([der.derM1_coords(ad1_single(L, L.e1(a))) for a in range(L.n1)], target.n1)

    def a2val(key):
        j, k = key
        cols = [vscale(-1, L.l3.eval_basis(j, k, t)) for t in range(L.n0)]
        return der.derM1_coords(DerM1(Mat.from_cols(cols, L.n1)))

    A2 = AltTensor.from_function(2, L.n0, target.n1, a2val, L.mode)
    return Lie2Hom(L, target, A0, A1, A2)


def inn0_basis(L: Lie2Algebra) -> list:
    """Basis of inner degree-0 derivations: the span of the adjoint image
    and the image of the differential, by row reduction (generator order:
    adjoint generators first, then differential images of the Hom basis)."""
    gens = [adbar0_single(L, L.e0(i)) for i in range(L.n0)]
    gens += [dbar(L, T) for T in derM1_basis(L)]
    if not gens:
        return []
    rows = Mat.from_rows([flatten_der0(L, D) for D in gens])
    red, pivots = rref(rows)
    return [unflatten_der0(L, red.row(t)) for t in range(len(pivots))]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_derivation(L: Lie2Algebra, elem) -> dict:
    """Flags {weak, strict, homotopy} for a derivation of either degree.

    Degree 0: weak means the three conditions hold; strict additionally
    requires lX = 0; any weak degree-0 derivation is a homotopy one.
    Degree -1: every map is weak; strict means theta[x,y] = [theta x, y]
    + [x, theta y], that is the 2-component of dbar(theta) vanishes;
    homotopy additionally requires d theta = 0 = theta d.
    """
    if isinstance(elem, Derivation0):
        weak = is_derivation0(L, elem).ok
        strict = elem.lX.is_zero() and weak
        return {"weak": weak, "strict": strict, "homotopy": weak}
    if isinstance(elem, DerM1):
        bracket_ok = dbar(L, elem).lX.is_zero()
        closed = (L.d @ elem.theta).is_zero() and (elem.theta @ L.d).is_zero()
        return {"weak": True, "strict": bracket_ok, "homotopy": bracket_ok and closed}
    raise TypeError("expected Derivation0 or DerM1")


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------

def random_der0(L: Lie2Algebra, rng, basis=None, dens=(1, 2)) -> Derivation0:
    """Random rational combination of a degree-0 derivation basis; each
    coefficient draws rng.randint(-3, 3), then rng.choice(dens), in basis order."""
    if basis is None:
        basis = compute_der0_basis(L)
    return _der0_combination(
        L, ((Fraction(rng.randint(-3, 3), rng.choice(dens)), D) for D in basis))


def random_derM1(L: Lie2Algebra, rng, dens=(1, 2)) -> DerM1:
    data = [Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(L.n1 * L.n0)]
    return DerM1(Mat(L.n1, L.n0, data))
