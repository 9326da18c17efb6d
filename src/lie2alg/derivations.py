"""Derivations of a Lie 2-algebra and the strict Lie 2-algebra they form.

Degree-0 derivations are triples (X0, X1, lX); degree minus-1 derivations
are maps theta: g_0 -> g_{-1} (the full Hom space).  The four degree-0
conditions are written once, in `_der0_condition_vectors`, as sums over the
nonzero structure constants of the algebra (`Lie2Algebra.sparse`).  The
membership test evaluates them on one candidate.  Evaluated on the
unknowns themselves, as linear forms, they give the sparse rows of the
stacked homogeneous linear system (`der0_constraints`), and the degree-0
space is the kernel of those rows, from the one exact elimination of the
package (`linalg._kernel`); the inner derivations are reduced by the same
elimination.  No dense matrix of either system is built.

The derivation solve runs in ints.  Every condition is linear in the
structure constants, so on their integer image (`Lie2Algebra.integer_image`,
every constant times the lcm D of their denominators) each constraint row
is D times the true one and the kernel is the same; the elimination is
fraction-free, and each basis vector comes out as a primitive integer
vector with one scale.  The sparse form of each basis derivation is read
straight off that vector, so the brackets and the membership checks of the
build run in ints, and each coordinate is divided once.

dbar and the adjoint map have sparse evaluators, `_dbar_flat` and
`_ad_flat`, which give the `flatten_der0` coordinates of an image as a
sparse vector; `dbar` and `adbar0_single` wrap them.  The unit images of
the Hom basis and of g_0, on the integer image, are one sweep per algebra
object (`_unit_images`, a `Lie2Algebra.view`): the Der build, the inner
derivations and `adbar` all read it and feed it straight to the
elimination, with no Derivation0 formed.  The degree-0 kernel, with the
basis read off it (`_der0_kernel`, `compute_der0_basis`), is a view too,
so an algebra object eliminates its constraint rows once: the Der build,
`random_der0` and the nilpotent members of the basis
(`integration.nilpotent_derivations`) all read that one basis, and no
caller passes it along.

The derivation Lie 2-algebra (`build_der_lie2`) reads each basis derivation
once into a sparse form (`_Sparse0`: the columns and rows of X0 and X1, lX
on every ordering of its keys).  The bracket of two basis derivations is
taken on those forms and read in the basis by the kernel coordinates of the
same elimination; the bracket with degree -1 is the closed form
X1 (x) I - I (x) X0^T (`core._hom_action`, which gives `core.make_endo` its
b01 too).  `dbar`, `adbar0_single`, `graded_bracket` and
`lie_cochain_action` sum over nonzero terms only, in the order of the dense
evaluation on unit vectors: exact results are equal, and float results are
the dense left-to-right sums bit for bit.  The 2-component of `dbar` and
that of the tau-twist (`automorphisms.twist_hom`) are one loop,
`_lower_pairs`, which visits only the pairs a nonzero column of theta
reaches.

Kept as library API: `der0_zero` and `derM1_zero`, the zero derivations
of each degree, beside `automorphisms.tau_zero` and `core.hom_identity`;
and `DerLie2.der0_coords` with its inverse `DerLie2.der0_from_coords`,
the coordinates of a degree-0 derivation in the basis of Der(g), in
which a group law such as Baker-Campbell-Hausdorff is written.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import Lie2Algebra, Lie2Hom, ResidualReport, _Acc, _bracket01, _hom_action
from .linalg import (
    SPARSE_ZERO,
    AltTensor,
    Mat,
    _kernel,
    _reduce,
    _same_mode,
    _vector,
    basis_vec,
    mat_distance,
    scalar_kind,
    scalar_zero,
    sparse_alt,
    sparse_apply,
    sparse_columns,
    sparse_comb,
    sparse_dense,
    sparse_rows,
    sparse_sum,
    tensor_distance,
    vmax_abs,
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
    """The sum of c D over the (c, D) pairs of terms, in one pass over the
    flat coordinates (`flatten_der0`): zero coefficients and zero entries
    are skipped, so each coordinate adds its nonzero terms in term order."""
    kind = scalar_kind(L.mode)
    flat = [kind.zero] * _der0_flat_len(L)
    for c, D in terms:
        if c != 0:
            c = kind.scalar(c)
            for t, v in enumerate(flatten_der0(L, D)):
                if v:
                    flat[t] += c * v
    return unflatten_der0(L, flat)


def derM1_zero(L: Lie2Algebra) -> DerM1:
    return DerM1(Mat.zero(L.n1, L.n0, L.mode))


def der0_distance(a: Derivation0, b: Derivation0):
    return vmax_abs((mat_distance(a.X0, b.X0), mat_distance(a.X1, b.X1),
                     tensor_distance(a.lX, b.lX)))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _der0_condition_vectors(L: Lie2Algebra, sp, x0: list, x1: list, lx: dict) -> dict:
    """Residual vectors of the conditions on (X0, X1, lX), by family.

    sp holds the nonzero structure constants of L, `L.sparse()` or its
    integer image (`Lie2Algebra.integer_image`).  x0 and x1 are the columns
    of X0 and X1 (`sparse_columns`), lx the values of lX on every ordering
    of its keys (`sparse_alt`).  The result maps
    "chain", "a", "b" and "c" to (length, [(vector, witness), ...]): sparse
    vectors ({index: value}) of that length, one per basis tuple, zero ones
    included, so positions in the stacked residual are fixed.  The chain is
    one vector, X0 d - d X1 row-major.  Sums run over the nonzero constants
    of L and entries of the parts only; the entries of the parts need +,
    unary - and products with scalars, so they may be linear forms.  A sum
    over the entries m of a column of X0 walks them by increasing m and
    reads each constant by key from sp; a missing constant is the empty
    vector, which adds nothing.
    """
    n0, n1 = L.n0, L.n1
    d, b00, b01, l3 = sp
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
    _same_mode(D.X0, L, D.X1)
    families = _der0_condition_vectors(
        L, L.sparse(), sparse_columns(D.X0), sparse_columns(D.X1), sparse_alt(D.lX))
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
    """The triple of `flatten_der0` coordinates in the mode of L, read by
    the kind of L (`entries`): exact values take their canonical form,
    float ones stay as they are, and a value of the other mode raises
    ModeError."""
    n0, n1, mode = L.n0, L.n1, L.mode
    vec = scalar_kind(mode).entries(vec)
    X0 = Mat._result(n0, n0, vec[:n0 * n0], mode)
    X1 = Mat._result(n1, n1, vec[n0 * n0:n0 * n0 + n1 * n1], mode)
    rest = vec[n0 * n0 + n1 * n1:]
    entries = {}
    for t, key in enumerate(itertools.combinations(range(n0), 2)):
        entries[key] = tuple(rest[t * n1:(t + 1) * n1])
    return Derivation0(X0, X1, AltTensor._result(2, n0, n1, entries, mode))


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
        return self if s == 1 else _Form({u: v * s for u, v in self.items()})

    __rmul__ = __mul__


def der0_constraints(L: Lie2Algebra) -> list:
    """The rows of the degree-0 derivation conditions, as sparse vectors.

    The conditions are linear in (X0, X1, lX), so `_der0_condition_vectors`
    evaluated on the unknowns themselves, as unit linear forms, gives each
    residual coordinate as a linear form: row t is the t-th coordinate of
    the stacked residual vectors (chain, then (a), (b) and (c) by basis
    tuple), {u: coefficient of the u-th unknown of `flatten_der0`}, with
    the exact zeros that a sum of forms can hold dropped.  There are
    `_der0_flat_len(L)` unknowns.  The kernel is exact, so a float algebra
    raises `ModeError`.
    """
    return _constraint_rows(L, L.sparse())


def _constraint_rows(L: Lie2Algebra, sp) -> list:
    """The rows of `der0_constraints`, on the structure constants sp (see
    `_der0_condition_vectors`): each row is linear in them, so on the
    integer image every row is D times the true one."""
    scalar_kind(L.mode).require_exact("der0_constraints requires exact scalars")
    f = _form(L, {u: _Form({u: 1}) for u in range(_der0_flat_len(L))})  # the unknowns
    return [{u: v for u, v in vec.get(c, SPARSE_ZERO).items() if v}
            for size, group in _der0_condition_vectors(L, sp, f.x0, f.x1, f.lx).values()
            for vec, _ in group for c in range(size)]


def _der0_kernel(L: Lie2Algebra):
    """(vecs, coords, basis) of the degree-0 derivation space, from one
    elimination (`linalg._kernel`) of the constraint rows of the integer
    image of L: D times those of `der0_constraints`, with the same kernel.
    vecs holds each basis vector as a primitive integer vector of
    `flatten_der0` coordinates with its scale (see `_kernel`), and basis
    the triple of each (`compute_der0_basis`).  coords(v, scale=1) is the
    coordinate tuple in the basis of v / scale, v a vector of
    `flatten_der0` coordinates, dense or sparse, and raises ValueError when
    v is off the span.  A view (`Lie2Algebra.view`): the basis and
    `build_der_lie2` read the one elimination."""
    vecs, span = _kernel(_constraint_rows(L, L.integer_image()[1]), _der0_flat_len(L))

    def coords(v, scale=1) -> tuple:
        c = span(v, scale)
        if c is None:
            raise ValueError("not in the degree-0 derivation span")
        return c

    return vecs, coords, tuple(_derivation(L, v, s) for v, s in vecs)


def _derivation(L: Lie2Algebra, v: dict, s: int) -> Derivation0:
    """The triple of `flatten_der0` coordinates v / s, v an integer vector."""
    return unflatten_der0(L, _vector(v, s, _der0_flat_len(L)))


def compute_der0_basis(L: Lie2Algebra) -> tuple:
    """Basis of the degree-0 derivation space: the kernel of
    `der0_constraints`, in kernel order (deterministic).  A view
    (`Lie2Algebra.view`), built once per algebra: `DerLie2.basis0`, the
    samplers and `integration.nilpotent_derivations` read this tuple."""
    return L.view(_der0_kernel)[2]


# ---------------------------------------------------------------------------
# the differential and brackets
# ---------------------------------------------------------------------------

def _lower_pairs(L: Lie2Algebra, sp, th: list, a: list, c: list) -> dict:
    """(x, y) |-> theta[x, y] - [a x, theta y] + [a y, theta x] + [c y, theta x]
    from the sparse columns th of theta: g_0 -> g_{-1} and a, c of maps
    g_0 -> g_0, as {(i, j): sparse value} on the pairs i < j where a term
    is nonzero: the 2-component of `dbar` (a = I, c = 0) and of the twist
    `automorphisms.twist_hom` (a = A0, c = d tau).  Every term has a
    factor theta, so a pair is skipped when columns i and j of theta are
    zero and [e_i, e_j] misses the nonzero columns; the four terms of a
    pair it keeps are one `sparse_sum`, a bracket with an empty column of
    theta being the empty vector.  The brackets [u, w] with u in g_0 and w
    in g_{-1} are `core._bracket01`.  Sums run over nonzero terms in the
    order of the dense evaluation on unit vectors, so float results are
    those sums bit for bit.  sp holds the structure constants read (see
    `_der0_condition_vectors`)."""
    _, b00, b01, _ = sp
    support = {m for m, col in enumerate(th) if col}
    out = {}
    for i, j in itertools.combinations(range(L.n0), 2):
        bij = b00.get((i, j), SPARSE_ZERO)
        if th[i] or th[j] or not support.isdisjoint(bij):
            r = sparse_sum((1, sparse_apply(th, bij)), (-1, _bracket01(b01, a[i], th[j])),
                           (1, _bracket01(b01, a[j], th[i])), (1, _bracket01(b01, c[j], th[i])))
            if r:
                out[i, j] = r
    return out


def _lower_term(L: Lie2Algebra, th: list, a: list, c: list) -> AltTensor:
    """`_lower_pairs` as an alternating 2-tensor g_0 x g_0 -> g_{-1}."""
    lower = _lower_pairs(L, L.sparse(), th, a, c)
    return AltTensor._result(2, L.n0, L.n1, {key: sparse_dense(r, L.n1, scalar_zero(L.mode))
                                             for key, r in lower.items()}, L.mode)


def _dbar_flat(L: Lie2Algebra, sp, th: list) -> dict:
    """The `flatten_der0` coordinates of dbar(theta) as a sparse vector, from
    the sparse columns th of theta and the structure constants sp: d theta
    and theta d by `sparse_apply`, the 2-component by `_lower_pairs`."""
    n0, n1 = L.n0, L.n1
    d = sp.d
    flat = {}
    for j, col in enumerate(th):
        flat.update((r * n0 + j, v) for r, v in sparse_apply(d, col).items())
    for a, col in enumerate(d):
        flat.update((n0 * n0 + r * n1 + a, v) for r, v in sparse_apply(th, col).items())
    lower = _lower_pairs(L, sp, th, [{i: 1} for i in range(n0)], [SPARSE_ZERO] * n0)
    for (i, j), r in lower.items():
        off = _pair_offset(L, i, j)
        flat.update((off + c, v) for c, v in r.items())
    return flat


def _pair_offset(L: Lie2Algebra, i: int, j: int) -> int:
    """Where lX on the pair i < j starts in `flatten_der0` coordinates: the
    pair is number i (2 n0 - i - 1) / 2 + j - i - 1 in lexicographic order."""
    n0, n1 = L.n0, L.n1
    return n0 * n0 + n1 * n1 + (i * (2 * n0 - i - 1) // 2 + j - i - 1) * n1


def _unit_thetas(L: Lie2Algebra) -> list:
    """The sparse columns of each map of `derM1_basis`, exact."""
    return [[{t // L.n0: 1} if j == t % L.n0 else SPARSE_ZERO for j in range(L.n0)]
            for t in range(L.n1 * L.n0)]


def dbar(L: Lie2Algebra, T: DerM1) -> Derivation0:
    """Differential into degree 0: (d theta, theta d, l_{delta(theta)}),
    l_{delta(theta)}(x, y) = theta[x, y] - [x, theta y] + [y, theta x]:
    the triple of the sparse coordinates of `_dbar_flat`."""
    _same_mode(L, T)
    flat = _dbar_flat(L, L.sparse(), sparse_columns(T.theta))
    return unflatten_der0(L, sparse_dense(flat, _der0_flat_len(L), scalar_zero(L.mode)))


class _Sparse0(NamedTuple):
    """A degree-0 triple (X0, X1, lX) read once as sparse vectors."""

    x0: list       # columns of X0
    x0_rows: list  # rows of X0
    x1: list       # columns of X1
    x1_rows: list  # rows of X1
    lx: dict       # lX on every ordering of its stored keys (`sparse_alt`)
    keys: tuple    # the stored keys of lX, increasing


def _sparse0(X0: Mat, X1: Mat, lX: AltTensor) -> _Sparse0:
    return _Sparse0(sparse_columns(X0), sparse_rows(X0), sparse_columns(X1),
                    sparse_rows(X1), sparse_alt(lX), tuple(lX.entries))


def _form(L: Lie2Algebra, v: dict) -> _Sparse0:
    """The sparse form of the triple whose `flatten_der0` coordinates are the
    sparse vector v, increasing, read straight off v: no Derivation0."""
    n0, n1 = L.n0, L.n1
    x0, x0_rows, x1, x1_rows = ([{} for _ in range(n)] for n in (n0, n0, n1, n1))
    lx, pairs = {}, list(itertools.combinations(range(n0), 2))
    for u, x in v.items():
        if u < n0 * n0:
            x0[u % n0][u // n0] = x0_rows[u // n0][u % n0] = x
        elif u < n0 * n0 + n1 * n1:
            r, a = divmod(u - n0 * n0, n1)
            x1[a][r] = x1_rows[r][a] = x
        else:
            t, c = divmod(u - n0 * n0 - n1 * n1, n1)
            lx.setdefault(pairs[t], {})[c] = x
            lx.setdefault(pairs[t][::-1], {})[c] = -x
    return _Sparse0(x0, x0_rows, x1, x1_rows, lx, tuple(k for k in lx if k[0] < k[1]))


def _action(a: _Sparse0, w: dict, keys, zero) -> dict:
    """(L_(X0, X1) omega) on sparse forms: {key: sparse value} at every key
    that a term reaches from a stored key of omega; w is `sparse_alt(omega)`
    and keys are its stored keys (see `lie_cochain_action`).  The vectors
    of `sparse_columns` and `sparse_alt` hold their indices in increasing
    order, so iterating them runs each sum by increasing index.  A pair
    with X0 = 0 and X1 = 0 forms an empty value at each stored key of
    omega, which its callers drop as zero."""
    reached = set(keys)
    for key in keys:
        for t, m in enumerate(key):
            rest = key[:t] + key[t + 1:]
            for i in a.x0_rows[m]:
                if i not in rest:
                    reached.add(tuple(sorted(rest + (i,))))
    out = {}
    for key in reached:
        r = {}
        for t, y in w.get(key, SPARSE_ZERO).items():
            for c, x in a.x1[t].items():
                r[c] = r.get(c, zero) + x * y
        for t, k in enumerate(key):
            s = {}  # the slot-t sum, on the coordinates it reaches
            for m, x in a.x0[k].items():
                for c, y in w.get(key[:t] + (m,) + key[t + 1:], SPARSE_ZERO).items():
                    s[c] = s.get(c, zero) + x * y
            for c, v in s.items():
                r[c] = r.get(c, zero) - v
        out[key] = r
    return out


def lie_cochain_action(X0: Mat, X1: Mat, omega: AltTensor) -> AltTensor:
    """Action of a degree-0 pair on alternating cochains with degree -1 values.

    (L_X omega)(x_1..x_k) = X1 omega(x_1..x_k) - sum_i omega(.., X0 x_i, ..).

    On basis arguments the value at a key is X1 omega(key) minus, slot by
    slot, the sum over m of X0[m, key_t] omega(key with slot t set to m).
    Only keys that one of those terms reaches from a nonzero value of omega
    (through the sparse rows of X0) are formed, and each sum runs over
    nonzero entries by increasing m, the order of the dense evaluation on
    basis vectors: exact results are equal and finite float results are the
    dense left-to-right sums bit for bit.
    """
    _same_mode(X0, omega, X1)
    form = _sparse0(X0, X1, omega)
    zero = scalar_zero(omega.mode)
    entries = {key: sparse_dense(r, omega.codim, zero)
               for key, r in _action(form, form.lx, form.keys, zero).items()}
    return AltTensor._result(omega.arity, omega.dim, omega.codim, entries, omega.mode)


def _product(p_rows: list, q_rows: list, zero, off: int, n: int) -> dict:
    """PQ from the sparse rows of P and Q, n the number of columns of Q, as
    {off + i n + j: value}: row-major from offset off.  Each entry adds its
    nonzero terms by increasing inner index, from zero, as `Mat.__matmul__`
    does."""
    out = {}
    for i, row in enumerate(p_rows):
        base = off + i * n
        for t, x in row.items():
            for j, y in q_rows[t].items():
                out[base + j] = out.get(base + j, zero) + x * y
    return out


def _bracket_flat(L: Lie2Algebra, a: _Sparse0, b: _Sparse0, zero) -> dict:
    """The bracket of two degree-0 triples on their sparse forms, as a sparse
    vector in `flatten_der0` coordinates with its zero values dropped: the
    commutators [X0, Y0] and [X1, Y1], then L_a lY - L_b lX.  Each
    difference is formed in place, its first term then its second
    subtracted, an entry the second misses being the first's."""
    n0, n1 = L.n0, L.n1
    flat = {}
    for p, q, off, n in ((a.x0_rows, b.x0_rows, 0, n0), (a.x1_rows, b.x1_rows, n0 * n0, n1)):
        flat.update(_product(p, q, zero, off, n))
        for k, v in _product(q, p, zero, off, n).items():
            flat[k] = flat.get(k, zero) - v
    for key, u in _action(a, b.lx, b.keys, zero).items():
        flat.update((_pair_offset(L, *key) + c, v) for c, v in u.items())
    for key, u in _action(b, a.lx, a.keys, zero).items():
        off = _pair_offset(L, *key)
        for c, v in u.items():
            flat[off + c] = flat.get(off + c, zero) - v
    return {t: v for t, v in flat.items() if v}


def graded_bracket(L: Lie2Algebra, a, b):
    """Graded bracket on derivations.

    degree 0 x degree 0 -> degree 0 (commutators plus the action on lX);
    degree 0 x degree -1 -> degree -1 (commutator);
    degree -1 x degree -1 -> degree -1 (the bracket transported along the
    differential: theta d theta' - theta' d theta).
    """
    if isinstance(a, Derivation0) and isinstance(b, Derivation0):
        _same_mode(a, b)
        zero = scalar_zero(a.mode)
        flat = _bracket_flat(L, _sparse0(a.X0, a.X1, a.lX), _sparse0(b.X0, b.X1, b.lX), zero)
        return unflatten_der0(L, sparse_dense(flat, _der0_flat_len(L), zero))
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
    """Standard basis of Hom(g_0, g_{-1}), row-major, in the mode of L."""
    m = L.n1 * L.n0
    return [DerM1(Mat._result(L.n1, L.n0, basis_vec(m, t, L.mode), L.mode)) for t in range(m)]


@dataclass(frozen=True)
class DerLie2:
    """The derivation Lie 2-algebra in computed bases.

    `algebra` is the strict Lie 2-algebra realization (l3 = 0) whose
    degree-0 coordinates refer to `basis0`, the basis of the algebra itself
    (`compute_der0_basis`), and degree -1 coordinates to the standard Hom
    basis `basisM1`.
    """

    algebra: Lie2Algebra
    basis0: tuple
    basisM1: tuple
    _coords: object  # coordinates in basis0 of a vector of flatten_der0 coordinates
    _base: Lie2Algebra

    def der0_coords(self, D: Derivation0) -> tuple:
        return self._coords(flatten_der0(self._base, D))

    def der0_from_coords(self, c) -> Derivation0:
        return _der0_combination(self._base, zip(c, self.basis0))


def build_der_lie2(L: Lie2Algebra) -> DerLie2:
    """Assemble the strict derivation Lie 2-algebra of L in explicit bases.

    The work runs in ints.  The basis comes from the kernel of the integer
    image of L (`_der0_kernel`, a view that also holds `basis0`, the tuple
    of `compute_der0_basis`), as primitive integer vectors v with scales
    s (basis vector v / s), and each is read once into its sparse form (the
    columns and rows of X0 and X1, and lX on every ordering of its keys)
    straight off v (`_form`).  b00 is the bracket of two basis derivations,
    the commutators and the cochain action taken on the integer forms, as a
    sparse integer vector in the coordinates of `flatten_der0`
    (`_bracket_flat`); the bracket is bilinear, so that vector is s_p s_q
    times the true one, and the kernel coordinates check it against every
    pivot row they meet, in ints, and divide once per coordinate.  d is
    read the same way from the dbar images of the unit maps of the Hom
    basis on the integer image, D times the true ones, kept on L
    (`_unit_images`), with no Derivation0 formed.  b01 is the closed form
    ad_D(theta) = X1 theta - theta X0 (`core._hom_action`, on the rows of
    s X1 and the columns of s X0, divided by s); the degree -1 space is all
    of Hom(g_0, g_{-1}), so its brackets need no membership check.  Every
    matrix and tensor is built from computed exact values, with no
    coercion.
    """
    vecs, coords, basis0 = L.view(_der0_kernel)
    basisM1 = derM1_basis(L)
    D, _, dbar_units = L.view(_unit_images)
    r, m, n0, n1 = len(vecs), len(basisM1), L.n0, L.n1
    dcols = [coords(u, D) for u in dbar_units]
    dmat = Mat._result(r, m, [dcols[j][i] for i in range(r) for j in range(m)], "exact")

    forms = [_form(L, v) for v, _ in vecs]
    entries = {}
    for p, q in itertools.combinations(range(r), 2):
        flat = _bracket_flat(L, forms[p], forms[q], 0)
        if flat:
            entries[p, q] = coords(flat, vecs[p][1] * vecs[q][1])
    b00 = AltTensor._result(2, r, r, entries, "exact")

    b01 = [_hom_action(f.x1_rows, f.x0, n0, n1, s) for f, (_, s) in zip(forms, vecs)]
    algebra = Lie2Algebra(r, m, dmat, b00, b01, AltTensor.zero(3, r, m))
    return DerLie2(algebra, basis0, tuple(basisM1), coords, L)


# ---------------------------------------------------------------------------
# adjoint and inner derivations
# ---------------------------------------------------------------------------

def _ad_flat(L: Lie2Algebra, sp, u: dict) -> dict:
    """The `flatten_der0` coordinates of adbar0(x) as a sparse vector, x in
    g_0 with nonzero coordinates u (increasing), on the structure constants
    sp (see `_der0_condition_vectors`): column j of X0 is [x, e_j], column
    a of X1 is [x, e_a] and lX(e_i, e_j) is l3(x, e_i, e_j).  For each m in
    u it reads b00(m, .), b01[m] and l3(m, ., .); every coordinate adds its
    nonzero terms by increasing m, the order of the dense evaluation on
    unit vectors, so float results are those sums bit for bit."""
    _, b00, b01, l3 = sp
    n0, n1 = L.n0, L.n1
    off1, off2 = n0 * n0, n0 * n0 + n1 * n1
    flat = {}
    for m, x in u.items():
        terms = [(r * n0 + j, y) for j in range(n0) for r, y in b00.get((m, j), SPARSE_ZERO).items()]
        terms += [(off1 + c * n1 + a, y) for a, col in enumerate(b01[m]) for c, y in col.items()]
        terms += [(off2 + p * n1 + c, y)
                  for p, (i, j) in enumerate(itertools.combinations(range(n0), 2))
                  for c, y in l3.get((m, i, j), SPARSE_ZERO).items()]
        for t, y in terms:
            flat[t] = flat[t] + x * y if t in flat else x * y
    return flat


def _unit_images(L: Lie2Algebra) -> tuple:
    """(D, ad, dbar): the one sweep of unit images of L on its integer image
    (`Lie2Algebra.integer_image`), each D times the true one, as sparse
    vectors: ad[i] is `_ad_flat` of e_i of g_0 and dbar[t] `_dbar_flat` of
    unit map t of `derM1_basis`.  A view (`Lie2Algebra.view`), so
    `build_der_lie2` (d), `inn0_basis` (its generators) and `adbar` (A0)
    share it."""
    D, sp = L.integer_image()
    return (D, [_ad_flat(L, sp, {i: 1}) for i in range(L.n0)],
            [_dbar_flat(L, sp, th) for th in _unit_thetas(L)])


def adbar0_single(L: Lie2Algebra, x: tuple) -> Derivation0:
    """The degree-0 derivation ([x, .], l3(x, ., .)) attached to x in g_0:
    the triple of the sparse coordinates of `_ad_flat`."""
    kind = scalar_kind(L.mode)
    u = {m: kind.scalar(v) for m, v in enumerate(x) if v}
    return unflatten_der0(L, sparse_dense(_ad_flat(L, L.sparse(), u), _der0_flat_len(L), kind.zero))


def adbar(L: Lie2Algebra, der: DerLie2 | None = None) -> Lie2Hom:
    """The adjoint homomorphism from L into its derivation Lie 2-algebra.

    Degree 0 sends x to ([x,.], l3(x,.,.)), degree -1 sends a to [a,.],
    and the 2-component is (y,z) |-> -l3(y,z,.).  Column i of A0 is read in
    the basis of `der` from the unit image of e_i on the integer image of
    L (`_unit_images`), D times the true one, so the coordinates divide by
    D.  A1 and A2 are the structure constants themselves, in the row-major
    Hom coordinates of the degree -1 basis: column a of A1 is [e_a, .] =
    -[., e_a], entry -b01[t][a][c] at row c n0 + t, and A2(e_j, e_k) is
    e_t |-> -l3(e_j, e_k, e_t), entry -l3(e_j, e_k, e_t)[c] at c n0 + t.
    A `der` built for another algebra raises ValueError.
    """
    if der is None:
        der = build_der_lie2(L)
    elif der._base != L:
        raise ValueError("der is the derivation Lie 2-algebra of another algebra")
    _same_mode(der._base, L)
    target = der.algebra
    n0, n1, m = L.n0, L.n1, target.n1
    _, _, b01, l3 = L.sparse()
    # -[e_t, e_a] and -l3(e_j, e_k, e_t), each at the row-major Hom coordinate c n0 + t
    a1 = {(c * n0 + t, a): -v for t in range(n0) for a, u in enumerate(b01[t]) for c, v in u.items()}
    a2 = {(j, k, c * n0 + t): -v for (j, k, t), u in l3.items() if j < k for c, v in u.items()}
    D, ad_units, _ = L.view(_unit_images)
    A0 = Mat.from_cols([der._coords(u, D) for u in ad_units], target.n0)
    A1 = Mat(m, n1, [a1.get((r, a), 0) for r in range(m) for a in range(n1)])
    A2 = AltTensor.from_function(2, n0, m, lambda jk: [a2.get((*jk, r), 0) for r in range(m)],
                                 target.mode)
    return Lie2Hom(L, target, A0, A1, A2)


def inn0_basis(L: Lie2Algebra) -> list:
    """Basis of inner degree-0 derivations: the span of the adjoint image
    and the image of the differential, as the reduced pivot rows of the one
    exact elimination (`linalg._reduce`) of the generators, in pivot
    order.  The generators are the unit images of L on its integer image
    (`_unit_images`), adjoint ones first, then dbar of each unit map of the
    Hom basis: D times the true ones, which spans the same space, so the
    reduced rows are the same.  No Derivation0 is formed for them.  A float
    algebra raises `ModeError`."""
    scalar_kind(L.mode).require_exact("inner derivations need an exact algebra: "
                                      "their basis comes from an exact row reduction")
    _, ad_units, dbar_units = L.view(_unit_images)
    rows = [{t: v for t, v in g.items() if v} for g in ad_units + dbar_units]
    pivot_rows, pivots = _reduce(rows, _der0_flat_len(L))
    return [_derivation(L, r, r[c]) for r, c in zip(pivot_rows, pivots)]


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
        D = dbar(L, elem)  # (d theta, theta d, the 2-component)
        bracket_ok = D.lX.is_zero()
        closed = D.X0.is_zero() and D.X1.is_zero()
        return {"weak": True, "strict": bracket_ok, "homotopy": bracket_ok and closed}
    raise TypeError("expected Derivation0 or DerM1")


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------

def ratio_draws(rng, count: int, dens) -> list:
    """count (numerator, denominator) pairs, each drawing rng.randint(-3, 3),
    then rng.choice(dens): the draws of every seeded sampler, in one place."""
    return [(rng.randint(-3, 3), rng.choice(dens)) for _ in range(count)]


def rand_mat(rng, rows: int, cols: int, dens=(1, 2)) -> Mat:
    """A rows x cols matrix of `ratio_draws` entries p/q, row-major."""
    return Mat(rows, cols, [Fraction(p, q) for p, q in ratio_draws(rng, rows * cols, dens)])


def random_der0(L: Lie2Algebra, rng, *, dens=(1, 2)) -> Derivation0:
    """Random rational combination of the degree-0 derivation basis of L
    (`compute_der0_basis`, a view); the coefficients are `ratio_draws`, in
    basis order."""
    basis = compute_der0_basis(L)
    pairs = ratio_draws(rng, len(basis), dens)
    return _der0_combination(L, ((Fraction(p, q), D) for (p, q), D in zip(pairs, basis)))


def random_derM1(L: Lie2Algebra, rng, dens=(1, 2)) -> DerM1:
    """Random rational theta (`rand_mat`)."""
    return DerM1(rand_mat(rng, L.n1, L.n0, dens))
