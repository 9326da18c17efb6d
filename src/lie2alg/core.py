"""Lie 2-algebras and weak homomorphisms.

A Lie 2-algebra is a two-term complex g_{-1} --d--> g_0 with a graded
skew bracket and an alternating trilinear map l3 measuring the failure
of Jacobi, subject to coherence laws.  Everything here is represented
by structure constants; validators return per-axiom residual tables so
tests can assert exactly which law broke and where.  `validate_lie2` reads
the constants through `Lie2Algebra.sparse`, a view of the nonzero ones
computed once per algebra, so each law costs what its nonzero terms cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .linalg import (
    SPARSE_ZERO,
    AltTensor,
    Mat,
    basis_vec,
    kernel,
    mat_distance,
    scalar_zero,
    sparse_alt,
    sparse_apply,
    sparse_columns,
    sparse_comb,
    sparse_eval,
    sparse_sum,
    tensor_distance,
    vadd,
    vmax_abs,
    vscale,
    vzero,
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
        return max((r.value for r in self.entries.values()), default=0)

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
        if m > self.value:
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

    __slots__ = ("n0", "n1", "d", "b00", "b01", "l3", "mode", "_sparse")

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
        object.__setattr__(self, "_sparse", None)

    def __setattr__(self, *a):
        raise AttributeError("Lie2Algebra is immutable")

    def sparse(self) -> SparseStructure:
        """The nonzero structure constants, computed on first use."""
        if self._sparse is None:
            object.__setattr__(self, "_sparse", SparseStructure(
                sparse_columns(self.d), sparse_alt(self.b00),
                [sparse_columns(m) for m in self.b01], sparse_alt(self.l3)))
        return self._sparse

    # basis helpers -------------------------------------------------------
    def e0(self, i: int) -> tuple:
        return basis_vec(self.n0, i, self.mode)

    def e1(self, a: int) -> tuple:
        return basis_vec(self.n1, a, self.mode)

    def dcol(self, a: int) -> tuple:
        return self.d.col(a)

    def dv(self, a: tuple) -> tuple:
        return self.d.apply(a)

    # brackets ------------------------------------------------------------
    def bracket00(self, x: tuple, y: tuple) -> tuple:
        return self.b00.eval(x, y)

    def bracket01(self, x: tuple, a: tuple) -> tuple:
        """[x, a] for x in g_0, a in g_{-1}."""
        out = list(vzero(self.n1, self.mode))
        for i, xi in enumerate(x):
            if xi != 0:
                v = self.b01[i].apply(a)
                # an exact zero term changes no sum; a float one may flip a zero's sign
                dense = isinstance(xi, float) or (v and isinstance(v[0], float))
                for c, y in enumerate(v):
                    if y or dense:
                        out[c] += xi * y
        return tuple(out)

    def bracket10(self, a: tuple, x: tuple) -> tuple:
        """[a, x] = -[x, a]."""
        return vscale(-1, self.bracket01(x, a))

    def to_float(self) -> "Lie2Algebra":
        if self.mode == "float":
            return self
        return Lie2Algebra(self.n0, self.n1, self.d.to_float(), self.b00.to_float(),
                           tuple(m.to_float() for m in self.b01), self.l3.to_float())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Lie2Algebra) and self.n0 == other.n0 and self.n1 == other.n1
                and self.d == other.d and self.b00 == other.b00
                and self.b01 == other.b01 and self.l3 == other.l3)

    def __hash__(self):
        return hash((self.n0, self.n1, self.d, self.b00, self.b01, self.l3))

    def __repr__(self):
        return f"Lie2Algebra(n0={self.n0}, n1={self.n1})"


def validate_lie2(L: Lie2Algebra) -> ResidualReport:
    """Residuals of the five coherence identities, exactly zero iff valid.

    Keys: "a1" (d[x,a] = [x,da]), "a2" ([da,b] = [a,db]),
    "b1" ([[x,y],z] + cyc = -d l3(x,y,z)),
    "b2" ([[x,y],a] + cyc = -l3(x,y,da)),
    "c"  (the signed arity-4 coherence law for l3).
    Witnesses are the basis tuples achieving the max residual, the first
    one in each law's enumeration order.  Each law sums over the nonzero
    structure constants only (`Lie2Algebra.sparse`), adding its terms in
    the order of the dense evaluation on unit vectors, so values and
    witnesses are those of that evaluation (floats bit for bit).
    """
    n0, n1 = L.n0, L.n1
    d, b00, b01, l3 = L.sparse()
    acc = {k: _Acc(L.mode) for k in ("a1", "a2", "b1", "b2", "c")}

    def br00(u, k):  # [u, e_k] for u in g_0
        return sparse_comb((u[m], b00.get((m, k), SPARSE_ZERO)) for m in sorted(u))

    def br01(u, a):  # [u, e_a] for u in g_0
        return sparse_comb((u[m], b01[m][a]) for m in sorted(u))

    def l3_pair(u, s, t):  # l3(u, e_s, e_t) for u in g_0
        return sparse_comb((u[m], l3.get((m, s, t), SPARSE_ZERO)) for m in sorted(u))

    for i in range(n0):
        for a in range(n1):
            lhs = sparse_apply(d, b01[i][a])
            rhs = sparse_comb((x, b00.get((i, m), SPARSE_ZERO)) for m, x in sorted(d[a].items()))
            acc["a1"].add(sparse_sum((1, lhs), (-1, rhs)).values(), (i, a))

    for a in range(n1):
        for b in range(a, n1):
            r = sparse_sum((1, br01(d[a], b)), (1, br01(d[b], a)))
            acc["a2"].add(r.values(), (a, b))

    for i, j, k in itertools.combinations(range(n0), 3):
        r = sparse_sum((1, br00(b00.get((i, j), SPARSE_ZERO), k)),
                       (1, br00(b00.get((j, k), SPARSE_ZERO), i)),
                       (1, br00(b00.get((k, i), SPARSE_ZERO), j)),
                       (1, sparse_apply(d, l3.get((i, j, k), SPARSE_ZERO))))
        acc["b1"].add(r.values(), (i, j, k))

    for i, j in itertools.combinations(range(n0), 2):
        bij = b00.get((i, j), SPARSE_ZERO)
        for a in range(n1):
            r = sparse_sum((1, br01(bij, a)),
                           (-1, sparse_apply(b01[i], b01[j][a])),
                           (1, sparse_apply(b01[j], b01[i][a])),
                           (1, sparse_comb((x, l3.get((i, j, m), SPARSE_ZERO))
                                           for m, x in sorted(d[a].items()))))
            acc["b2"].add(r.values(), (i, j, a))

    # every term of the arity-4 law contains l3, so it holds when l3 = 0
    for quad in itertools.combinations(range(n0), 4) if l3 else ():
        terms = []
        for a in range(4):
            rest = quad[:a] + quad[a + 1:]
            terms.append((-1 if a % 2 else 1,
                          sparse_apply(b01[quad[a]], l3.get(rest, SPARSE_ZERO))))
        for a, b in itertools.combinations(range(4), 2):
            s, t = (quad[c] for c in range(4) if c not in (a, b))
            terms.append((-1 if (a + b) % 2 else 1,
                          l3_pair(b00.get((quad[a], quad[b]), SPARSE_ZERO), s, t)))
        acc["c"].add(sparse_sum(*terms).values(), quad)

    return ResidualReport({k: a.residual() for k, a in acc.items()})


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
    """
    src, tgt = A.source, A.target
    sd, sb00, sb01, sl3 = src.sparse()
    td, _, tb01, _ = tgt.sparse()
    a0, a1, a2 = sparse_columns(A.A0), sparse_columns(A.A1), sparse_alt(A.A2)
    acc = {k: _Acc(A.A0.mode) for k in ("chain", "i", "ii", "iii")}

    def br01(u, w):  # [u, w] in the target, for u in g_0 and w in g_{-1}
        return sparse_comb((u[m], sparse_apply(tb01[m], w)) for m in sorted(u))

    for a in range(src.n1):
        r = sparse_sum((1, sparse_apply(td, a1[a])), (-1, sparse_apply(a0, sd[a])))
        acc["chain"].add(r.values(), None)

    for i, j in itertools.combinations(range(src.n0), 2):
        r = sparse_sum((1, sparse_apply(a0, sb00.get((i, j), SPARSE_ZERO))),
                       (-1, sparse_eval(tgt.b00, a0[i], a0[j])),
                       (-1, sparse_apply(td, a2.get((i, j), SPARSE_ZERO))))
        acc["i"].add(r.values(), (i, j))

    for i in range(src.n0):
        for a in range(src.n1):
            r = sparse_sum((1, sparse_apply(a1, sb01[i][a])),
                           (-1, br01(a0[i], a1[a])),
                           (-1, sparse_comb((x, a2.get((i, m), SPARSE_ZERO))  # A2(e_i, d e_a)
                                            for m, x in sorted(sd[a].items()))))
            acc["ii"].add(r.values(), (i, a))

    for i, j, k in itertools.combinations(range(src.n0), 3):
        terms = []
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            terms.append((1, br01(a0[x], a2.get((y, z), SPARSE_ZERO))))
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
    """Max abs componentwise difference over (A0, A1, A2)."""
    return max(mat_distance(A.A0, B.A0), mat_distance(A.A1, B.A1),
               tensor_distance(A.A2, B.A2))


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def lie_ad_matrices(sc: AltTensor) -> list:
    """Adjoint matrices of a Lie algebra given by structure constants."""
    n = sc.dim
    return [Mat.from_cols([sc.eval_basis(i, j) for j in range(n)], n) for i in range(n)]


def killing_form(sc: AltTensor) -> Mat:
    """K(x, y) = trace(ad_x ad_y); symmetric."""
    ads = lie_ad_matrices(sc)
    n = sc.dim
    return Mat.from_rows([[(ads[i] @ ads[j]).trace() for j in range(n)] for i in range(n)])


def make_string(sc: AltTensor) -> Lie2Algebra:
    """String Lie 2-algebra of a Lie algebra: R --0--> k, l3 = K([x,y], z).

    Intended for semisimple input; the Killing form is computed either way
    and a Jacobi failure of the input surfaces in the validator.
    """
    n = sc.dim
    K = killing_form(sc)

    def l3_val(key):
        i, j, k = key
        u = sc.eval_basis(i, j)
        return (sum((u[s] * K.at(s, k) for s in range(n)), 0),)

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

    b01 = []
    for F0, F1 in pairs:
        cols = [((F1 @ theta) - (theta @ F0)).data for theta in thetas]
        b01.append(Mat.from_cols(cols, n1))

    return Lie2Algebra(n0, n1, d, b00, b01, AltTensor.zero(3, n0, n1))


def ce_coboundary(sc: AltTensor, rep, f: AltTensor) -> AltTensor:
    """Lie algebra coboundary operator on cochains with values in a module.

    rep is one matrix per basis vector of the algebra; f is an alternating
    k-cochain.  Squares to zero whenever rep is a representation.
    """
    rep = tuple(rep)
    n = sc.dim
    if f.dim != n:
        raise ValueError("cochain domain mismatch")
    if f.arity > n:
        raise ValueError("cochain arity exceeds the algebra dimension")
    m = f.codim

    def val(key):
        out = vzero(m, f.mode)
        k = len(key)
        for a in range(k):
            rest = tuple(key[t] for t in range(k) if t != a)
            term = rep[key[a]].apply(f.eval_basis(*rest))
            out = vadd(out, term if a % 2 == 0 else vscale(-1, term))
        for a, b in itertools.combinations(range(k), 2):
            rest = [basis_vec(n, key[t], f.mode) for t in range(k) if t not in (a, b)]
            term = f.eval(sc.eval_basis(key[a], key[b]), *rest)
            out = vadd(out, term if (a + b) % 2 == 0 else vscale(-1, term))
        return out

    return AltTensor.from_function(f.arity + 1, n, m, val, f.mode)
