"""Lie 2-algebras and weak homomorphisms.

A Lie 2-algebra is a two-term complex g_{-1} --d--> g_0 with a graded skew
bracket and an alternating trilinear map l3 measuring the failure of
Jacobi, subject to coherence laws (Baez and Crans 2004).  Everything here
is represented by structure constants; validators return per-axiom residual
tables so tests can assert exactly which law broke and where.
`validate_lie2` reads the constants through `Lie2Algebra.sparse`, a view of
the nonzero ones computed once per algebra (`Lie2Algebra.view`), and runs
the laws on pairs of basis vectors rather than on index tuples, so each law
costs what its nonzero terms cost.  In exact mode it runs the laws on the
integer image of the constants (`Lie2Algebra.integer_image`, another view),
so the sums stay in ints.  Each law is homogeneous of degree 2 in them, so
scaling every constant by their common denominator D scales every residual
by D^2 and leaves the worst one and its witness in place.  A NaN constant,
or a NaN entry of a homomorphism, gives a NaN residual or distance, never a
zero.

Vectors of g_0 and g_{-1} are tuples, and the algebra's structure is
read through its tensors: the bracket on g_0 is `b00.eval`, the
differential `d.apply`, [e_i, a] the matrix `b01[i]`, and a basis vector
`linalg.basis_vec`.  `ResidualReport.violated`, the names of the laws
with a nonzero residual, is kept as library API beside `ok` and `within`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .linalg import (
    SPARSE_ZERO,
    AltTensor,
    Mat,
    _exact,
    _quotient,
    _same_mode,
    kernel,
    mat_distance,
    scalar_kind,
    scalar_zero,
    sparse_alt,
    sparse_apply,
    sparse_columns,
    sparse_comb,
    sparse_dense,
    sparse_eval,
    sparse_rows,
    sparse_sum,
    tensor_distance,
    vmax_abs,
)


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Residual:
    value: object  # an exact int or Fraction (exact mode), or a float
    witness: tuple | None = None


class ResidualReport:
    """Named max-abs residuals, one entry per condition."""

    def __init__(self, entries: dict):
        self.entries = dict(entries)

    def __getitem__(self, name: str) -> Residual:
        return self.entries[name]

    def __iter__(self):
        return iter(self.entries.items())

    @property
    def ok(self) -> bool:
        return all(r.value == 0 for r in self.entries.values())

    def max_value(self):
        return vmax_abs([r.value for r in self.entries.values()])

    def within(self, tol) -> bool:
        return all(abs(r.value) <= tol for r in self.entries.values())

    def violated(self) -> list:
        return [name for name, r in self.entries.items() if r.value != 0]

    def __repr__(self):
        body = ", ".join(f"{k}={r.value}" for k, r in self.entries.items())
        return f"ResidualReport({body})"


class _Acc:
    """Tracks the worst residual vector seen and its witness, starting at
    the zero of the mode of the values checked."""

    def __init__(self, mode: str):
        self.value = scalar_zero(mode)
        self.witness = None

    def add(self, vec, witness):
        """vec: the values of a residual vector (its zeros may be left out)."""
        m = vmax_abs(vec)
        if m > self.value or m != m and self.value == self.value:  # the first NaN stays
            self.value = m
            self.witness = witness

    def residual(self) -> Residual:
        return Residual(self.value, self.witness)


# ---------------------------------------------------------------------------
# Lie 2-algebras
# ---------------------------------------------------------------------------

class SparseStructure(NamedTuple):
    """The nonzero structure constants of a Lie 2-algebra, as sparse
    vectors ({index: value}, see `linalg.sparse_columns`)."""

    d: list     # d[a]: column a of d
    b00: dict   # (i, j) -> [e_i, e_j], for both orders of every nonzero pair
    b01: list   # b01[i][a]: [e_i, e_a]
    l3: dict    # (i, j, k) -> l3(e_i, e_j, e_k), for every ordering


class Lie2Algebra:
    """Structure constants of a semistrict Lie 2-algebra.

    Attributes:
        n0, n1: dimensions of the degree-0 and degree minus-1 spaces.
        d: n0 x n1 matrix of the differential g_{-1} -> g_0.
        b00: alternating bracket on g_0 (values in g_0).
        b01: per-basis-vector action matrices; b01[i] is the map
            a |-> [e_i, a] on g_{-1}.  The other order is its negative.
        l3: alternating trilinear map on g_0 with values in g_{-1}.
    """

    __slots__ = ("n0", "n1", "d", "b00", "b01", "l3", "mode", "_views")

    def __init__(self, n0: int, n1: int, d: Mat, b00: AltTensor, b01, l3: AltTensor):
        b01 = tuple(b01)
        if (d.rows, d.cols) != (n0, n1):
            raise ValueError(f"d must be {n0}x{n1}")
        if (b00.arity, b00.dim, b00.codim) != (2, n0, n0):
            raise ValueError("b00 must be an alternating 2-tensor on g0")
        if len(b01) != n0 or any((m.rows, m.cols) != (n1, n1) for m in b01):
            raise ValueError("b01 must hold n0 matrices of shape n1 x n1")
        if (l3.arity, l3.dim, l3.codim) != (3, n0, n1):
            raise ValueError("l3 must be an alternating 3-tensor g0 -> g-1")
        modes = {v.mode for v in (d, b00, l3, *b01)}
        if len(modes) > 1:
            raise ValueError("mixed scalar modes across tensors")
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b00", b00)
        object.__setattr__(self, "b01", b01)
        object.__setattr__(self, "l3", l3)
        object.__setattr__(self, "mode", modes.pop())
        object.__setattr__(self, "_views", {})

    def __setattr__(self, *a):
        raise AttributeError("Lie2Algebra is immutable")

    def view(self, build):
        """build(self), computed on first use and kept on this object: the
        views `sparse` and `integer_image`, the float copy `to_float`, and
        the unit images of `derivations`.  An algebra is immutable, so a view
        never goes stale; an equal algebra built apart computes its own."""
        views = self._views
        return views[build] if build in views else views.setdefault(build, build(self))

    def sparse(self) -> SparseStructure:
        """The nonzero structure constants, computed on first use."""
        return self.view(_sparse_structure)

    def integer_image(self) -> tuple:
        """(D, the nonzero constants times D), computed on first use: D is
        the lcm of the denominators of the exact constants
        (`linalg.common_denominator`, 1 for a float algebra, whose constants
        stay as they are), and every constant x becomes the int
        x.numerator (D / x.denominator), with no Fraction operation.  Every
        bilinear law and every linear image of the constants scales by a
        power of D on it, and its sums stay in ints."""
        return self.view(_integer_image)

    def to_float(self) -> "Lie2Algebra":
        """L in float mode: L itself when float; an exact L builds its float
        copy once, as a view (`view`), so every float identity on L shares
        that copy and its own views."""
        return scalar_kind(self.mode).to_float(self, lambda L: L.view(Lie2Algebra._float_copy))

    def _float_copy(self) -> "Lie2Algebra":
        return Lie2Algebra(self.n0, self.n1, self.d.to_float(), self.b00.to_float(),
                           tuple(m.to_float() for m in self.b01), self.l3.to_float())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Lie2Algebra) and self.n0 == other.n0 and self.n1 == other.n1
                and self.d == other.d and self.b00 == other.b00
                and self.b01 == other.b01 and self.l3 == other.l3)

    def __hash__(self):
        return hash((self.n0, self.n1, self.d, self.b00, self.b01, self.l3))

    def __repr__(self):
        return f"Lie2Algebra(n0={self.n0}, n1={self.n1})"


def _sparse_structure(L: Lie2Algebra) -> SparseStructure:
    return SparseStructure(sparse_columns(L.d), sparse_alt(L.b00),
                           [sparse_columns(m) for m in L.b01], sparse_alt(L.l3))


def _integer_image(L: Lie2Algebra) -> tuple:
    d, b00, b01, l3 = sp = L.sparse()
    D = scalar_kind(L.mode).denominator(
        x for v in itertools.chain(d, *b01, b00.values(), l3.values()) for x in v.values())

    def scale(v):
        return {c: x.numerator * (D // x.denominator) for c, x in v.items()}

    return D, sp if D == 1 else SparseStructure(
        [scale(v) for v in d], {key: scale(v) for key, v in b00.items()},
        [[scale(v) for v in m] for m in b01], {key: scale(v) for key, v in l3.items()})


# ---------------------------------------------------------------------------
# g_0 acting on g_{-1}, on sparse forms
# ---------------------------------------------------------------------------

def _bracket01(b01: list, u: dict, w: dict) -> dict:
    """[u, w] for u in g_0 and w in g_{-1}, from the sparse columns b01[m]
    of [e_m, .]: the sum of u[m] [e_m, w] by increasing m, the order in
    which u holds its indices (as `sparse_columns` holds them)."""
    return sparse_comb((x, sparse_apply(b01[m], w)) for m, x in u.items())


def _ce_value(br: dict, act: list, f: dict, key: tuple) -> dict:
    """(delta f)(e_key), delta the Chevalley-Eilenberg coboundary of the Lie
    algebra with bracket br acting through the sparse columns act[m] of
    [e_m, .], f a cochain; br and f hold every ordering of their keys, with
    increasing indices in each value (`sparse_alt`), and key is increasing.
    The terms are added in order: (-1)^a [e_(key a), f(key without a)] by a,
    then (-1)^(a+b) f([e_(key a), e_(key b)], key without a, b) by pair
    a < b, each the sum over the bracket's coordinates m by increasing m."""
    k = len(key)
    terms = [(-1 if a % 2 else 1, sparse_apply(act[key[a]], f.get(key[:a] + key[a + 1:], SPARSE_ZERO)))
             for a in range(k)]
    for a, b in itertools.combinations(range(k), 2):
        rest = tuple(key[c] for c in range(k) if c not in (a, b))
        terms.append((-1 if (a + b) % 2 else 1, sparse_comb((x, f.get((m,) + rest, SPARSE_ZERO))
                      for m, x in br.get((key[a], key[b]), SPARSE_ZERO).items())))
    return sparse_sum(*terms)


def _hom_action(x1_rows: list, x0: list, n0: int, n1: int, s: int = 1) -> Mat:
    """The matrix of theta |-> X1 theta - theta X0 on row-major Hom(g_0, g_{-1}),
    from the sparse rows of s X1 and the sparse columns of s X0, X0 and X1
    exact and s an int > 0: X1 (x) I - I (x) X0^T, entry ((a, b), (c, e)) =
    X1[a, c] [b = e] - [a = c] X0[e, b], each divided by s once, in
    canonical exact form.  The b01 of `make_endo` and of
    `derivations.build_der_lie2`."""
    m = n1 * n0
    data = [0] * (m * m)
    for a, b in itertools.product(range(n1), range(n0)):  # row (a, b)
        row = (a * n0 + b) * m
        for c, x in x1_rows[a].items():
            data[row + c * n0 + b] += x
        for e, x in x0[b].items():
            data[row + a * n0 + e] -= x
    return Mat._result(m, m, [_exact(x) if s == 1 else x and _quotient(x, s) for x in data], "exact")


# The law evaluators below run a law for one index at every value of the
# last one at once.  Every sum runs over the support of a vector in its
# order, which is increasing: that of `sparse_columns` and `sparse_alt`.

def _apply(cols: dict, vecs: dict) -> dict:
    """{key: the sum of x cols[t] over (t, x) in u} for key, u in vecs: the
    matrix with sparse columns cols ({t: column}) on each vector."""
    out = {}
    for key, u in vecs.items():
        r = out[key] = {}
        for t, x in u.items():
            for c, y in cols.get(t, SPARSE_ZERO).items():
                r[c] = r[c] + x * y if c in r else x * y
    return out


def _br_all(u: dict, rows) -> dict:
    """{key: the sum of x rows[m][key] over (m, x) in u}: [u, e_key] when
    rows[m] holds [e_m, e_key]."""
    out = {}
    for m, x in u.items():
        for key, v in rows[m].items():
            r = out.setdefault(key, {})
            for c, y in v.items():
                r[c] = r[c] + x * y if c in r else x * y
    return out


def _add_into(out: dict, sign: int, terms: dict):
    """out[key] += sign terms[key], as `sparse_sum` adds."""
    for key, v in terms.items():
        r = out.setdefault(key, {})
        for c, y in v.items():
            y = -y if sign < 0 else y
            r[c] = r[c] + y if c in r else y


def _record(acc: _Acc, r: dict, key: tuple, low=-1):
    """The nonzero residuals r[x], x > low, into acc by increasing x, with
    witness key + (x,); a zero residual changes no maximum."""
    for x in sorted(r):
        if x > low and any(r[x].values()):
            acc.add(r[x].values(), key + (x,))


def validate_lie2(L: Lie2Algebra) -> ResidualReport:
    """Residuals of the five coherence identities, exactly zero iff valid.

    Keys: "a1" (d[x,a] = [x,da]), "a2" ([da,b] = [a,db]),
    "b1" ([[x,y],z] + cyc = -d l3(x,y,z)),
    "b2" ([[x,y],a] + cyc = -l3(x,y,da)),
    "c"  (the signed arity-4 coherence law for l3: the Chevalley-Eilenberg
    coboundary formula applied to l3, `_ce_value`, the evaluator of
    `ce_coboundary`; when d = 0 it says that l3 is a 3-cocycle).
    Witnesses are the basis tuples achieving the max residual, the first
    one in each law's enumeration order.  Each law sums over the nonzero
    structure constants only (`Lie2Algebra.sparse`), adding its terms in
    the order of the dense evaluation on unit vectors, so values and
    witnesses are those of that evaluation (floats bit for bit).  A NaN
    constant gives a NaN residual, which fails `ok` and `within`.

    The laws run as matrix identities: a1 for each i at every a, a2 for
    each a at every b >= a, and b1 and b2 for each pair i < j, b1 at every
    k > j and b2 at every a of g_{-1} (ad[e_i, e_j] - [ad e_i, ad e_j] plus
    the l3 term).  The rows [e_m, .] of the brackets are read once, and each
    term of a law is formed, as its own sum, only where a nonzero factor of
    it reaches; the terms are then added in the order of the law, as
    `sparse_sum` adds them.  A residual that is zero at every coordinate
    changes no maximum and is skipped, so the cost is that of the nonzero
    products of constants, not of the C(n0, 2) n1 index tuples of b2.  The
    last index runs in increasing order, so the first maximum is the same
    as by tuples.

    Exact laws run in ints.  Every term of every law is a product of
    exactly two structure constants, so with D the lcm of the denominators
    of the nonzero constants, the laws on the integer image (every constant
    times D) have residual vectors D^2 times the true ones.  As D^2 > 0, the
    first maximum of each law and its witness are the same; the reported
    value is that maximum divided by D^2, exactly.  Float constants are
    used as they are (D = 1).
    """
    n0, n1 = L.n0, L.n1
    D, (d, b00, b01, l3) = L.integer_image()
    acc = {k: _Acc(L.mode) for k in ("a1", "a2", "b1", "b2", "c")}
    ad0 = [{} for _ in range(n0)]  # ad0[m][k] = [e_m, e_k]
    adT = [{} for _ in range(n0)]  # adT[k][m] = [e_m, e_k]
    for (m, k), v in b00.items():
        ad0[m][k] = adT[k][m] = v
    ad1 = [{a: v for a, v in enumerate(cols) if v} for cols in b01]  # ad1[m][a] = [e_m, e_a]
    dcols = dict(enumerate(d))
    l3ij = {}  # (i, j) -> {k: l3(e_i, e_j, e_k)}
    for (i, j, k), v in l3.items():
        l3ij.setdefault((i, j), {})[k] = v

    for i in range(n0):
        r = _apply(dcols, ad1[i])  # d [e_i, e_a] at every a
        _add_into(r, -1, _apply(ad0[i], dcols))  # [e_i, d e_a]
        _record(acc["a1"], r, (i,))

    da = [_br_all(u, ad1) for u in d]  # da[a][b] = [d e_a, e_b]
    for a in range(n1):
        _record(acc["a2"], {b: sparse_sum((1, da[a].get(b, SPARSE_ZERO)), (1, da[b].get(a, SPARSE_ZERO)))
                            for b in range(a, n1)}, (a,))

    # b1 and b2 pair by pair: for i < j, every term of the law at every k > j
    # (b1) or every a (b2) where its factors are nonzero, each its own sum;
    # the terms are added in the order of the law, as `sparse_sum` adds them
    for i, j in itertools.combinations(range(n0), 2):
        bij, lij = ad0[i].get(j, SPARSE_ZERO), l3ij.get((i, j), SPARSE_ZERO)
        r = _br_all(bij, ad0)  # [[e_i, e_j], e_k]
        _add_into(r, 1, _apply(adT[i], {k: v for k, v in ad0[j].items() if k > j}))  # [[e_j, e_k], e_i]
        _add_into(r, 1, _apply(adT[j], {k: adT[i][k] for k in ad0[i] if k > j}))  # [[e_k, e_i], e_j]
        _add_into(r, 1, _apply(dcols, {k: v for k, v in lij.items() if k > j}))  # d l3(e_i, e_j, e_k)
        _record(acc["b1"], r, (i, j), j)
        r = _br_all(bij, ad1)  # [[e_i, e_j], e_a]
        _add_into(r, -1, _apply(ad1[i], ad1[j]))  # [e_i, [e_j, e_a]]
        _add_into(r, 1, _apply(ad1[j], ad1[i]))  # [e_j, [e_i, e_a]]
        _add_into(r, 1, _apply(lij, dcols) if lij else {})  # l3(e_i, e_j, d e_a)
        _record(acc["b2"], r, (i, j))

    # law c is the coboundary of l3; every term contains l3, so it holds when l3 = 0
    for quad in itertools.combinations(range(n0), 4) if l3 else ():
        acc["c"].add(_ce_value(b00, b01, l3, quad).values(), quad)

    return ResidualReport({k: Residual(a.value if D == 1 else _quotient(a.value, D * D), a.witness)
                           for k, a in acc.items()})


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class Lie2Hom:
    """Weak homomorphism (A0, A1, A2) between Lie 2-algebras."""

    __slots__ = ("source", "target", "A0", "A1", "A2")

    def __init__(self, source: Lie2Algebra, target: Lie2Algebra, A0: Mat, A1: Mat, A2: AltTensor):
        if (A0.rows, A0.cols) != (target.n0, source.n0):
            raise ValueError("A0 shape mismatch")
        if (A1.rows, A1.cols) != (target.n1, source.n1):
            raise ValueError("A1 shape mismatch")
        if (A2.arity, A2.dim, A2.codim) != (2, source.n0, target.n1):
            raise ValueError("A2 shape mismatch")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "A2", A2)

    def __setattr__(self, *a):
        raise AttributeError("Lie2Hom is immutable")

    def to_float(self) -> "Lie2Hom":
        return Lie2Hom(self.source.to_float(), self.target.to_float(),
                       self.A0.to_float(), self.A1.to_float(), self.A2.to_float())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Lie2Hom) and self.A0 == other.A0
                and self.A1 == other.A1 and self.A2 == other.A2
                and self.source == other.source and self.target == other.target)

    def __hash__(self):
        return hash((self.A0, self.A1, self.A2))

    def __repr__(self):
        return f"Lie2Hom({self.source!r} -> {self.target!r})"


def hom_identity(L: Lie2Algebra) -> Lie2Hom:
    return Lie2Hom(L, L, Mat.identity(L.n0, L.mode), Mat.identity(L.n1, L.mode),
                   AltTensor.zero(2, L.n0, L.n1, L.mode))


def validate_hom(A: Lie2Hom) -> ResidualReport:
    """Residuals of the chain condition and the three homomorphism laws.

    Keys: "chain" (d A1 = A0 d, no witness), "i" (on pairs of degree-0
    basis vectors), "ii" (on a degree-0 and a degree -1 basis vector) and
    "iii" (on triples).  Each law sums over the nonzero structure constants
    of source and target (`Lie2Algebra.sparse`) and the nonzero entries of
    the columns of A0 and A1 and the values of A2, adding its terms in the
    order of the dense evaluation on unit vectors, so values and witnesses
    are those of that evaluation (floats bit for bit).

    Every law runs per index tuple, as one `sparse_sum` of its terms.  Law
    ii on (i, a) adds A1 [e_i, e_a], -[A0 e_i, A1 e_a] (`_bracket01`) and
    -A2(e_i, d e_a).  Tables of the terms over every index, in the shape of
    `validate_lie2`, saved about 0.3% of a derive pass: the adjoint
    homomorphism's columns of A0 have disjoint supports, so each term
    occurs in one tuple only.
    """
    src, tgt = A.source, A.target
    sd, sb00, sb01, sl3 = src.sparse()
    td, _, tb01, _ = tgt.sparse()
    a0, a1, a2 = sparse_columns(A.A0), sparse_columns(A.A1), sparse_alt(A.A2)
    acc = {k: _Acc(A.A0.mode) for k in ("chain", "i", "ii", "iii")}

    for a in range(src.n1):
        r = sparse_sum((1, sparse_apply(td, a1[a])), (-1, sparse_apply(a0, sd[a])))
        acc["chain"].add(r.values(), None)

    for i, j in itertools.combinations(range(src.n0), 2):
        r = sparse_sum((1, sparse_apply(a0, sb00.get((i, j), SPARSE_ZERO))),
                       (-1, sparse_eval(tgt.b00, a0[i], a0[j])),
                       (-1, sparse_apply(td, a2.get((i, j), SPARSE_ZERO))))
        acc["i"].add(r.values(), (i, j))

    for i, a in itertools.product(range(src.n0), range(src.n1)):
        r = sparse_sum((1, sparse_apply(a1, sb01[i][a])),
                       (-1, _bracket01(tb01, a0[i], a1[a])),
                       (-1, sparse_comb((x, a2.get((i, m), SPARSE_ZERO))  # A2(e_i, d e_a)
                                        for m, x in sd[a].items())))
        acc["ii"].add(r.values(), (i, a))

    for i, j, k in itertools.combinations(range(src.n0), 3):
        terms = []
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            terms.append((1, _bracket01(tb01, a0[x], a2.get((y, z), SPARSE_ZERO))))
            terms.append((-1, sparse_comb((v, a2.get((m, z), SPARSE_ZERO))  # A2([e_x, e_y], e_z)
                                          for m, v in sorted(sb00.get((x, y), SPARSE_ZERO).items()))))
        terms.append((1, sparse_eval(tgt.l3, a0[i], a0[j], a0[k])))
        terms.append((-1, sparse_apply(a1, sl3.get((i, j, k), SPARSE_ZERO))))
        acc["iii"].add(sparse_sum(*terms).values(), (i, j, k))

    return ResidualReport({k: a.residual() for k, a in acc.items()})


def compose_hom(B: Lie2Hom, A: Lie2Hom) -> Lie2Hom:
    """Composite homomorphism B after A; (B.A)_2 = B2(A0 x A0) + B1 A2."""
    if A.target != B.source:
        raise ValueError("homomorphisms are not composable")
    A2 = B.A2.pullback(A.A0) + A.A2.postcompose(B.A1)
    return Lie2Hom(A.source, B.target, B.A0 @ A.A0, B.A1 @ A.A1, A2)


def hom_distance(A: Lie2Hom, B: Lie2Hom):
    """Max abs componentwise difference over (A0, A1, A2); NaN when an
    entry of either is NaN."""
    return vmax_abs((mat_distance(A.A0, B.A0), mat_distance(A.A1, B.A1),
                     tensor_distance(A.A2, B.A2)))


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def lie_ad_matrices(sc: AltTensor) -> list:
    """Adjoint matrices of a Lie algebra given by structure constants."""
    n, kind = sc.dim, scalar_kind(sc.mode)
    # the rows of ad_i^T are the columns [e_i, e_j]
    return [Mat._result(n, n, kind.entries(x for j in range(n) for x in sc.eval_basis(i, j)),
                        sc.mode).transpose() for i in range(n)]


def killing_form(sc: AltTensor) -> Mat:
    """K(x, y) = trace(ad_x ad_y); symmetric."""
    ads, n = lie_ad_matrices(sc), sc.dim
    traces = ((ads[i] @ ads[j]).trace() for i in range(n) for j in range(n))
    return Mat._result(n, n, scalar_kind(sc.mode).entries(traces), sc.mode)


def make_string(sc: AltTensor) -> Lie2Algebra:
    """String Lie 2-algebra of a Lie algebra: R --0--> k, l3 = K([x,y], z).

    Intended for semisimple input; the Killing form is computed either way
    and a Jacobi failure of the input surfaces in the validator.
    """
    n = sc.dim
    Kt = killing_form(sc).transpose()

    def l3_val(key):  # K(u, e_k) = (K^T u)[k], summed by `Mat.apply`
        i, j, k = key
        return (Kt.apply(sc.eval_basis(i, j))[k],)

    l3 = AltTensor.from_function(3, n, 1, l3_val, sc.mode)
    return Lie2Algebra(n, 1, Mat.zero(n, 1, sc.mode), sc, [Mat.zero(1, 1, sc.mode)] * n, l3)


def make_skeletal(sc: AltTensor, rep, l3: AltTensor) -> Lie2Algebra:
    """Skeletal Lie 2-algebra: d = 0, [x,u] = rep_x(u), given l3.

    Passes the validator iff sc is a Lie algebra, rep a representation
    and l3 a 3-cocycle for the associated coboundary operator.
    """
    rep = tuple(rep)
    n = sc.dim
    m = rep[0].rows if rep else l3.codim
    return Lie2Algebra(n, m, Mat.zero(n, m, sc.mode), sc, rep, l3)


def _endo_data(dmat: Mat):
    """Basis of degree-0 endomorphism pairs (F0, F1) commuting with dmat, and
    coords(F0, F1), the coordinates of a pair in it from the same elimination
    (`linalg.kernel`); a pair off the span raises ValueError."""
    v0, v1 = dmat.rows, dmat.cols

    def pair(vec) -> tuple:  # the unknowns are the entries of F0, then of F1
        return Mat(v0, v0, vec[:v0 * v0]), Mat(v1, v1, vec[v0 * v0:])

    units = Mat.identity(v0 * v0 + v1 * v1)
    unit_pairs = [pair(units.col(u)) for u in range(units.cols)]
    cols = [(F0 @ dmat - dmat @ F1).data for F0, F1 in unit_pairs]
    basis, span = kernel(Mat.from_cols(cols, v0 * v1))

    def coords(F0: Mat, F1: Mat) -> tuple:
        c = span(F0.data + F1.data)
        if c is None:
            raise ValueError("value escaped the degree-0 span")
        return c

    return [pair(vec) for vec in basis], coords


def make_endo(dmat: Mat) -> Lie2Algebra:
    """Strict Lie 2-algebra of endomorphisms of a two-term complex.

    Degree 0 is the space of pairs (F0, F1) with F0 dmat = dmat F1 under
    the commutator bracket, degree -1 is Hom(V_0, V_{-1}), and the
    differential sends theta to (dmat theta, theta dmat).  The degree-0
    basis follows kernel output order, so results are deterministic.
    """
    v0, v1 = dmat.rows, dmat.cols
    pairs, coords = _endo_data(dmat)
    n0 = len(pairs)
    n1 = v1 * v0
    units = Mat.identity(n1)
    thetas = [Mat(v1, v0, units.col(t)) for t in range(n1)]  # row-major unit maps
    d = Mat.from_cols([coords(dmat @ theta, theta @ dmat) for theta in thetas], n0)

    def b00_val(key):
        (F0, F1), (G0, G1) = pairs[key[0]], pairs[key[1]]
        return coords(F0 @ G0 - G0 @ F0, F1 @ G1 - G1 @ F1)

    b00 = AltTensor.from_function(2, n0, n0, b00_val)

    b01 = [_hom_action(sparse_rows(F1), sparse_columns(F0), v0, v1) for F0, F1 in pairs]

    return Lie2Algebra(n0, n1, d, b00, b01, AltTensor.zero(3, n0, n1))


def ce_coboundary(sc: AltTensor, rep, f: AltTensor) -> AltTensor:
    """Lie algebra coboundary operator on cochains with values in a module.

    rep is one matrix per basis vector of the algebra; f is an alternating
    k-cochain.  Squares to zero whenever rep is a representation.  Each value
    is `_ce_value` on the sparse forms of sc, rep and f, the evaluator of
    law c of `validate_lie2`.  sc, rep and f must share one mode.
    """
    rep = tuple(rep)
    n = sc.dim
    if f.dim != n:
        raise ValueError("cochain domain mismatch")
    if f.arity > n:
        raise ValueError("cochain arity exceeds the algebra dimension")
    for t in (sc, *rep):
        _same_mode(t, f)
    br, act, fs = sparse_alt(sc), [sparse_columns(m) for m in rep], sparse_alt(f)
    zero = scalar_zero(f.mode)

    def val(key):
        return sparse_dense(_ce_value(br, act, fs, key), f.codim, zero)

    return AltTensor.from_function(f.arity + 1, n, f.codim, val, f.mode)
