"""Exact-rational (and float) linear algebra.

Scalars are exact rationals in exact mode or `float` in analytic mode.
An exact scalar is an `int` or a `fractions.Fraction`.  Literal data,
scalars and pivot quotients take the canonical form (`_exact`: an `int`
when integral), and sums and products of ints stay ints, so integral data
is computed in ints; a `Fraction` enters only with a non-integral value (a
division, a literal p/q, a sampled draw).  Every exact division goes
through `Fraction`, never `/` on two ints, which would give a float.

Every value keeps the scalar mode it was built in, all-zero and empty
values included: literal data is float iff an entry is (for a tensor,
an entry of any of its values), a zero or identity takes its mode as an
argument, and a computed result has the mode of its operands.  Mixing
the two modes in one expression raises `ModeError`; so does a float t on
an exact `truncated_exps`, or a t that is no number on a float one, as a
bad scalar does in `Mat.scale`.  A mode name other than "exact" or "float"
raises ValueError where a value is built from it.

Every rule that differs between the modes lives in one table of scalar
kinds, `_Exact` and `_Float` (see the "scalar kinds" section): zero and
one, the scalar check and the coercion of literal data, the sum rule
(exact sums skip zeros, float sums stay dense), rendering, the tolerance
of an identity, the common denominator, the "requires exact" guard and
whether a float copy converts.  `scalar_kind(mode)` looks a kind up by
its mode name and `kind_of(values)` reads it off literal values; values
carry the name, as `.mode`.  Elsewhere the package calls the kinds
rather than testing modes, except `integration._joint_mode`, which
decides the mode of an identity.  The branches left here are algorithm
choices: the exact and the scaled-and-squared series of `truncated_exps`,
the float balancing of `block_exps`, and elimination vs partial pivoting
in `mat_inverse`; tests/test_scalar_seam.py holds this module to at most
10 mode-test lines.

`truncated_exps` holds the one Taylor loop of the package, for every t a
caller needs of one generator: the terms are computed once, at the t of
largest |t|, and each other t reads them times (t / anchor)^n up to its
own degree, with the anchor's squarings.  `truncated_exp` is its one-t
case, which sums what it summed before the sharing.  -t, and t 2^-k when
the series does not square, give in float the bits of their own one-t
calls (multiplying by -1 or 2^-k is exact); exact results are equal in
value.  `block_exps` gives the top
blocks of e^{tM}, M = [[a, b], [0, c]], and sums only the top rows of the
series when it does not square: row i of a product depends on row i of
the left factor alone, so those rows are the whole sum's bit for bit.

Row reduction, kernel bases and exact inverses are only available in
exact mode, where results are exact by construction; they share one
elimination over sparse rows (`_reduce`).  It runs in ints, fraction-free:
each pivot row is an integer row with one denominator, its entry at its
pivot, and each kernel basis vector a primitive integer vector with one
scale (`_kernel`), so a `Fraction` is formed only where a reduced row, a
basis vector or a coordinate is divided out, once per entry.
`rref`, `kernel`, `kernel_basis`, `rank`, `solve` and exact
`mat_inverse` all run it.  Nothing in the package calls `rref`,
`kernel_basis`, `solve` or `rank`: they stay public because the
benchmark's tracer and workloads (bench/) call them by name.
`common_denominator` gives the factor that scales rational data to an
integer image.  All values are immutable and all operations are pure.
Sparse vectors ({index: value}) serve the law evaluators and
`AltTensor.eval`, which runs through `sparse_eval`; see the "sparse
vectors" section.  `Mat.max_abs` and `AltTensor.max_abs`, the largest
entry in absolute value, are kept as library API: the scale of a value,
against which a float residual can be read.

A value is built in one step: its slots are set through their
descriptors (`_slot_setters`), one call per slot, and assignment to it
raises AttributeError.  Literal data goes through `Mat.__init__` and
`AltTensor.__init__`, which coerce it; a computed value, whose entries
already share a mode, goes through `Mat._result` or `AltTensor._result`.
`Mat._result` and `AltTensor._set` (which both `AltTensor` constructors
run) are the construction seams: every computed Mat and every AltTensor
passes one of them, so a hook there sees each value built.  `_set` keeps
the stored keys sorted and drops zero values, and skips both when there
are no entries.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import re
import sys
from fractions import Fraction
from types import MappingProxyType

_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


class ModeError(TypeError):
    """Raised when exact and float values meet in one expression."""


def _exact(q):
    """The canonical exact form of an int or Fraction q: an int when q is
    integral (a bool becomes its int), else the Fraction."""
    return q.numerator if q.denominator == 1 else q


def _quotient(x, y):
    """The exact quotient x / y of two exact scalars, in canonical form."""
    return _exact(Fraction(x, y))


def common_denominator(values) -> int:
    """The lcm of the denominators of exact scalars, 1 for none."""
    return math.lcm(1, *(x.denominator for x in values))


def rat(text: str):
    """Parse a rational literal: optional '-', integer, optional '/positive-integer'.
    The value is canonical: an int when integral, else a Fraction."""
    m = _RAT_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return _quotient(num, den)


def rat_str(q) -> str:
    """Render a scalar in the literal grammar (floats use repr)."""
    return kind_of((q,)).render(q)


# ---------------------------------------------------------------------------
# scalar kinds: every rule that differs between exact and float mode
# ---------------------------------------------------------------------------

class _Exact:
    """Exact scalars: ints and Fractions, in canonical form (`_exact`).
    Sums skip zero operands, which changes no exact value; identities hold
    literally, with tolerance 0."""

    name, zero, one = "exact", 0, 1

    def scalar(self, s):
        """s in canonical form; a float (or a non-number) raises ModeError."""
        if isinstance(s, (int, Fraction)):
            return _exact(s)
        raise ModeError(f"{type(s).__name__} scalar applied to exact value")

    def entries(self, values) -> tuple:
        """Literal values in this kind: ints as they are, any other value
        through `scalar`."""
        return tuple(e if type(e) is int else self.scalar(e) for e in values)

    def add(self, pairs) -> list:
        """The sums a + b of (a, b) pairs, a zero operand skipped."""
        return [(a + b if a else b) if b else a for a, b in pairs]

    def neg(self, values) -> list:
        """The negatives of values, a zero kept as it is."""
        return [-a if a else a for a in values]

    def render(self, q) -> str:
        """q in the literal grammar, p or p/q."""
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    def tolerance(self, tol):
        """What an identity in this kind is held to, given the float
        tolerance tol: 0, as exact identities hold literally."""
        return 0

    def denominator(self, values) -> int:
        """The factor that scales values to integers (`common_denominator`)."""
        return common_denominator(values)

    def require_exact(self, message: str):
        """Pass: exact values admit the exact-only operations."""

    def to_float(self, value, convert):
        """The float copy of an exact value: `convert(value)`."""
        return convert(value)


class _Float:
    """Float scalars.  ints fit too and are converted; sums stay dense, so
    signed zeros come out as the dense operations make them; identities
    hold within a tolerance."""

    name, zero, one = "float", 0.0, 1.0

    def scalar(self, s):
        """s as a float; a Fraction (or a non-number) raises ModeError."""
        if isinstance(s, (int, float)):
            return float(s)
        raise ModeError(f"{type(s).__name__} scalar applied to float value")

    def entries(self, values) -> tuple:
        """Literal values in this kind, each through `scalar`."""
        return tuple(map(self.scalar, values))

    def add(self, pairs) -> list:
        return [a + b for a, b in pairs]

    def neg(self, values) -> list:
        return [-a for a in values]

    def render(self, q) -> str:
        return repr(q)

    def tolerance(self, tol):
        return tol

    def denominator(self, values) -> int:
        """1: float values are used as they are."""
        return 1

    def require_exact(self, message: str):
        """Raise ModeError(message): an exact-only operation met floats."""
        raise ModeError(message)

    def to_float(self, value, convert):
        """A float value is its own float copy."""
        return value


_KINDS = {k.name: k for k in (_Exact(), _Float())}


def scalar_kind(mode: str):
    """The kind of a mode name, "exact" or "float"; any other name raises
    ValueError."""
    if mode not in _KINDS:
        raise ValueError(f"unknown scalar mode {mode!r}: expected 'exact' or 'float'")
    return _KINDS[mode]


def kind_of(values):
    """The kind of literal values: float iff one of them is a float."""
    return _KINDS["float" if any(isinstance(e, float) for e in values) else "exact"]


def scalar_zero(mode: str):
    """The zero scalar of a mode: the int 0 when exact, 0.0 when float."""
    return scalar_kind(mode).zero


def _slot_setters(cls) -> tuple:
    """The `__set__` of each slot of cls, in `__slots__` order.  An immutable
    value class sets its slots through these, one call per slot, where
    `object.__setattr__` would look each slot up by name first."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


def _same_mode(a, *others) -> str:
    """The mode a shares with each of others; the first that differs
    raises ModeError."""
    for b in others:
        if a.mode != b.mode:
            raise ModeError(f"mode mismatch: {a.mode} vs {b.mode}")
    return a.mode


# ---------------------------------------------------------------------------
# vectors (plain tuples)
# ---------------------------------------------------------------------------

def vzero(n: int, mode: str = "exact") -> tuple:
    return (scalar_zero(mode),) * n


def basis_vec(n: int, i: int, mode: str = "exact") -> tuple:
    k = scalar_kind(mode)
    return tuple(k.one if j == i else k.zero for j in range(n))


def vadd(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: tuple, v: tuple) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: tuple) -> tuple:
    return tuple(-a for a in u)


def vscale(s, u: tuple) -> tuple:
    return tuple(s * a for a in u)


def vmax_abs(u, default=0):
    """The largest |a| over the entries of u, a sequence or a dict view (the
    first among equals), or `default` when there are none.  A NaN entry
    gives NaN: `max` compares with >, which a NaN fails, so it would pass a
    NaN after the first entry over as if it were no entry."""
    m = max(map(abs, u), default=default)
    if isinstance(m, float) and m == m and any(a != a for a in u):
        return math.nan
    return m


def vec_is_zero(u: tuple) -> bool:
    return all(a == 0 for a in u)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Mat:
    """Immutable dense matrix, row-major, single scalar mode."""

    __slots__ = ("rows", "cols", "data", "mode")

    def __init__(self, rows: int, cols: int, data):
        """A matrix of literal data; empty data is exact."""
        data = list(data)
        if len(data) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(data)}")
        kind = kind_of(data)
        set_rows, set_cols, set_data, set_mode = _MAT_SLOTS
        set_rows(self, rows)
        set_cols(self, cols)
        set_data(self, kind.entries(data))
        set_mode(self, kind.name)

    def __setattr__(self, *args):
        raise AttributeError("Mat is immutable")

    @classmethod
    def _result(cls, rows: int, cols: int, data: list, mode: str) -> "Mat":
        """A computed matrix whose entries already share `mode`: no
        coercion, and empty data keeps `mode` too."""
        out = object.__new__(cls)
        set_rows, set_cols, set_data, set_mode = _MAT_SLOTS
        set_rows(out, rows)
        set_cols(out, cols)
        set_data(out, tuple(data))
        set_mode(out, mode)
        return out

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [e for r in rows for e in r])

    @classmethod
    def zero(cls, rows: int, cols: int, mode: str = "exact") -> "Mat":
        return cls._result(rows, cols, vzero(rows * cols, mode), mode)

    @classmethod
    @functools.cache  # a Mat is immutable, so each (n, mode) is built once
    def identity(cls, n: int, mode: str = "exact") -> "Mat":
        return cls._result(n, n, [x for i in range(n) for x in basis_vec(n, i, mode)],
                           scalar_kind(mode).name)

    @classmethod
    def from_cols(cls, cols, nrows: int) -> "Mat":
        cols = [tuple(c) for c in cols]
        return cls(nrows, len(cols), [cols[j][i] for i in range(nrows) for j in range(len(cols))])

    def at(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    # sums and negation by the rule of the kind: exact ones skip zeros, float
    # ones stay dense
    def __add__(self, other: "Mat") -> "Mat":
        return Mat._result(self.rows, self.cols, _KINDS[self.mode].add(self._pairs(other)), self.mode)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other  # a - b is a + (-b), in float bit for bit

    def __neg__(self) -> "Mat":
        return Mat._result(self.rows, self.cols, _KINDS[self.mode].neg(self.data), self.mode)

    def _pairs(self, other: "Mat"):
        _same_mode(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return zip(self.data, other.data)

    def scale(self, s) -> "Mat":
        s = _KINDS[self.mode].scalar(s)
        return Mat._result(self.rows, self.cols, [s * a for a in self.data], self.mode)

    def __matmul__(self, other: "Mat") -> "Mat":
        _same_mode(self, other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = _flat_mul(self.data, self.rows, _nonzero_rows(other.data, other.rows, other.cols),
                        other.cols, _KINDS[self.mode].zero)
        return Mat._result(self.rows, other.cols, out, self.mode)

    def apply(self, vec: tuple) -> tuple:
        """The product m vec, through `_flat_mul` with vec as a one-column
        right factor.  The coordinates of vec are literal values of the mode
        of m (`entries` of its kind): one of the other mode raises ModeError."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        kind = _KINDS[self.mode]
        brows = [[(0, y)] if y else [] for y in kind.entries(vec)]
        return tuple(_flat_mul(self.data, self.rows, brows, 1, kind.zero))

    def transpose(self) -> "Mat":
        return Mat._result(self.cols, self.rows,
                           [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
                           self.mode)

    def trace(self):
        """The sum of the diagonal, through `_flat_mul` (a row times ones)."""
        kind = _KINDS[self.mode]
        diagonal = [self.at(i, i) for i in range(self.rows)]
        return _flat_mul(diagonal, 1, [[(0, kind.one)]] * self.rows, 1, kind.zero)[0]

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.data)

    def max_abs(self):
        return vmax_abs(self.data, scalar_zero(self.mode))

    def to_float(self) -> "Mat":
        return Mat._result(self.rows, self.cols, [float(a) for a in self.data], "float")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        rows = [" ".join(rat_str(self.at(i, j)) for j in range(self.cols)) for i in range(self.rows)]
        return "Mat[" + "; ".join(rows) + "]"


_MAT_SLOTS = _slot_setters(Mat)


def _nonzero_rows(data, rows: int, cols: int) -> list:
    """The nonzero entries of each row of row-major `data`, as (col, value)
    pairs: the right factor of `_flat_mul`."""
    return [[(j, y) for j, y in enumerate(data[i * cols:(i + 1) * cols]) if y] for i in range(rows)]


def _flat_mul(a, n: int, brows: list, m: int, zero) -> list:
    """The row-major entries of the product of the n x len(brows) row-major
    entries `a` with the matrix of m columns whose nonzero rows are `brows`
    (`_nonzero_rows`); the one dense matrix product loop of the package:
    `Mat.__matmul__`, `Mat.apply` (a one-column right factor), `Mat.trace`,
    `row_sum_norm`, `nilpotency_index` and `truncated_exps` sum through it.
    The sparse-basis products of the derivation build, whose factors are
    {col: value} rows, run through `derivations._product` instead: there the
    dense row-major form costs more (Python 3.11 on a shared 2-vCPU host:
    the commutators of a derive pass took 19.2 ms through this loop against
    12.8 ms, those of endo-id3 225 ms against 59 ms).

    Row i accumulates, from `zero`, the rows of brows picked by the nonzero
    entries of row i of a, in increasing order, with plain `+=`: no builtin
    `sum`, which compensates float rounding from Python 3.12 on, so results
    are the same on every Python.  Exact sums do not depend on their order;
    for finite floats each skipped product is a signed zero, which changes
    no running sum started at 0.0, so float results are the dense
    left-to-right sums bit for bit.
    """
    k, out = len(brows), []
    for i in range(n):
        acc = [zero] * m
        for t, row in enumerate(brows, i * k):
            x = a[t]
            if x:
                for j, y in row:
                    acc[j] += x * y
        out += acc
    return out


def _exact_rows(m: Mat, what: str) -> list:
    """The rows of an exact matrix as sparse vectors ({col: value})."""
    _KINDS[m.mode].require_exact(f"{what} requires exact scalars")
    return sparse_rows(m)


def _reduce(rows: list, ncols: int):
    """Reduce exact sparse rows ({col: value}) to reduced row-echelon form;
    the one rational elimination of the package, run in ints.

    Each row is first scaled by the lcm of its denominators, which leaves
    the row space alone, so every entry is an int from then on.  Columns
    are taken in increasing order.  The pivot of a column is the sparsest
    row with a nonzero entry there and no pivot yet (the first such row
    among equals); the column is then cleared from every other row, above
    and below, fraction-free: a row r with entry f there becomes
    (p/g) r - (f/g) prow, g = gcd(p, f), p the pivot entry, and is divided
    by the gcd of its entries when it was scaled.  A pivot row stands for
    its reduced row, the row divided by its entry at its pivot (its
    denominator), which later steps only scale.  Only nonzero entries are
    stored or touched.  Returns the pivot rows in pivot order and the
    strictly increasing pivot columns; every other row reduces to zero.
    The reduced row-echelon form is unique, so the reduced rows do not
    depend on the pivot choices, though their integer multiples may.  The
    rows passed in are consumed.
    """
    for i, r in enumerate(rows):
        if any(type(x) is not int for x in r.values()):
            den = common_denominator(r.values())
            rows[i] = {j: x.numerator * (den // x.denominator) for j, x in r.items()}
    where = [set() for _ in range(ncols)]  # column -> rows with a nonzero entry there
    for i, r in enumerate(rows):
        for j in r:
            where[j].add(i)
    taken, pivot_rows, pivots = set(), [], []
    for c in range(ncols):
        candidates = [i for i in where[c] if i not in taken]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        pv = prow[c]
        for i in where[c] - {p}:
            r = rows[i]
            f = r[c]
            a, f = pv // (g := math.gcd(pv, f)), f // g
            if a != 1:
                for j in r:
                    r[j] *= a
            for j, y in prow.items():
                v = r.get(j)
                if v is None:
                    r[j] = -f * y
                    where[j].add(i)
                else:
                    v -= f * y
                    if v:
                        r[j] = v
                    else:
                        del r[j]
                        where[j].discard(i)
            if a != 1 and (g := math.gcd(*r.values())) != 1:
                for j in r:
                    r[j] //= g
        taken.add(p)
        pivot_rows.append(prow)
        pivots.append(c)
    return pivot_rows, pivots


def _dense_data(rows: list, pivots: list, cols) -> list:
    """The row-major entries, at the columns cols, of the reduced rows that
    the pivot rows of `_reduce` stand for: each row divided by its entry at
    its pivot, zeros filled in."""
    return [x for r, c in zip(rows, pivots) for x in (_quotient(r[j], r[c]) if j in r else 0 for j in cols)]


def rref(m: Mat):
    """Reduced row-echelon form of an exact matrix.

    Pivot rule: each column in turn takes the sparsest row that can pivot
    there, scaled to a leading 1, with elimination above and below (see
    `_reduce`).  The reduced row-echelon form of a matrix is unique, so the
    result does not depend on which rows pivot.  Returns the reduced
    matrix (the pivot rows in order, then zero rows) and the strictly
    increasing list of pivot columns.
    """
    pivot_rows, pivots = _reduce(_exact_rows(m, "rref"), m.cols)
    data = _dense_data(pivot_rows, pivots, range(m.cols)) + [0] * ((m.rows - len(pivots)) * m.cols)
    return Mat._result(m.rows, m.cols, data, "exact"), pivots


def kernel(m: Mat):
    """The exact null space of m from one elimination: (basis, coords), the
    basis as vectors of canonical exact values (see `_kernel`)."""
    vecs, coords = _kernel(_exact_rows(m, "kernel"), m.cols)
    return [_vector(v, s, m.cols) for v, s in vecs], coords


def _vector(v: dict, s: int, n: int) -> tuple:
    """The vector of length n that the integer vector v with scale s stands
    for, v / s, in canonical exact form."""
    return tuple(_quotient(v[j], s) if s != 1 and j in v else v.get(j, 0) for j in range(n))


def _kernel(rows: list, ncols: int):
    """The null space of exact sparse rows ({col: value}, no stored zeros)
    in ncols unknowns, from one elimination (`_reduce`): (basis, coords).

    The basis has one vector per free column: the free column set to 1, the
    other free columns 0, read off the pivot rows.  Each is given as a
    primitive integer vector v ({index: int}, increasing) with its scale s,
    an int > 0: the basis vector is v / s, so s is v at its free column.
    coords(b, scale=1), the coordinates in the basis of b / scale, are b
    read at the free columns, each divided by scale once, and b is in the
    span iff every pivot row, an integer row, vanishes on b; off the span
    coords returns None.  b is a vector, whose wrong length raises
    ValueError, or a sparse vector ({index: value}, see "sparse vectors"
    below); either way only the pivot rows that meet the support of b are
    visited, and an integer b is checked in ints.  The rows passed in are
    consumed.
    """
    pivot_rows, pivots = _reduce(rows, ncols)
    free = sorted(set(range(ncols)) - set(pivots))
    touched = [[] for _ in range(ncols)]  # column -> (pivot row number, entry)
    for t, r in enumerate(pivot_rows):
        for j, x in r.items():
            touched[j].append((t, x))
    vecs = []
    for f in free:
        # entry -x / den at each pivot column, den the pivot row's entry at its pivot
        terms = [(pivots[t], x, pivot_rows[t][pivots[t]]) for t, x in touched[f]]
        s = math.lcm(1, *(den // math.gcd(x, den) for _, x, den in terms))
        vecs.append((dict(sorted([(c, -x * s // den) for c, x, den in terms] + [(f, s)])), s))

    position = {f: p for p, f in enumerate(free)}

    def coords(b, scale=1):
        if isinstance(b, dict):
            support = b.items()
        elif len(b) != ncols:
            raise ValueError("vector length mismatch")
        else:
            support = [(j, y) for j, y in enumerate(b) if y]
        rb = {}  # the pivot rows applied to b, over the nonzero entries of b
        out = [0] * len(free)
        for j, y in support:
            for t, x in touched[j]:
                rb[t] = rb.get(t, 0) + x * y
            p = position.get(j)
            if p is not None:
                out[p] = y if scale == 1 else _quotient(y, scale)
        return None if any(rb.values()) else tuple(out)

    return vecs, coords


def kernel_basis(m: Mat) -> list:
    """Basis of the exact null space (see `kernel`)."""
    return kernel(m)[0]


def mat_inverse(m: Mat):
    """Inverse of a square matrix, or None when singular.

    Exact mode inverts by row reduction of the augmented matrix; float
    mode uses Gauss-Jordan with partial pivoting.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    n = m.rows
    if m.mode == "exact":
        rows = sparse_rows(m)
        for i, r in enumerate(rows):
            r[n + i] = 1
        pivot_rows, pivots = _reduce(rows, 2 * n)
        if pivots != list(range(n)):
            return None
        return Mat._result(n, n, _dense_data(pivot_rows, pivots, range(n, 2 * n)), "exact")
    rows = [list(m.row(i)) + [1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = max(range(c, n), key=lambda i: abs(rows[i][c]))
        if rows[pr][c] == 0.0:
            return None
        rows[c], rows[pr] = rows[pr], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0.0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return Mat._result(n, n, [x for r in rows for x in r[n:]], "float")


def solve(m: Mat, b: tuple):
    """One exact solution of m x = b (free variables set to 0), or None.

    x is read off the null space of [m | -b] (`_kernel`): when the column of
    -b is free it is the last free column, and the last basis vector is
    (x, 1), held as the integer vector (s x, s) with its scale s; when it
    pivots, every basis vector is 0 there and there is no x."""
    rows = _exact_rows(m, "solve")
    rhs = _KINDS["exact"].entries([b[i] for i in range(m.rows)])
    for r, v in zip(rows, rhs):
        if v:
            r[m.cols] = -v
    vecs = _kernel(rows, m.cols + 1)[0]
    return _vector(*vecs[-1], m.cols) if vecs and m.cols in vecs[-1][0] else None


def rank(m: Mat) -> int:
    return len(_reduce(_exact_rows(m, "rank"), m.cols)[1])


def nilpotency_index(m: Mat):
    """Smallest k <= dim with m^k = 0, or None if m is not nilpotent."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    n, zero = m.rows, scalar_zero(m.mode)
    p, brows = m.data, _nonzero_rows(m.data, n, n)
    for k in range(1, n + 1):
        if not any(p):
            return k
        p = _flat_mul(p, n, brows, n, zero)
    return 1 if n == 0 else None


def row_sum_norm(m: Mat) -> float:
    """The max row sum of |entries| as a float, the norm that sets the
    degree and the number of squarings in float `truncated_exps`; the row
    sums are |m| times ones, through `_flat_mul`."""
    kind = _KINDS[m.mode]
    sums = _flat_mul([abs(x) for x in m.data], m.rows, [[(0, kind.one)]] * m.cols, 1, kind.zero)
    return max(map(float, sums), default=0.0)


_LOG_UNIT_ROUNDOFF = -53 * math.log(2)  # log 2^-53


def _log_tail(k: int, y: float) -> float:
    """log tail_k(y), tail_k(y) = y^{k+1}/(k+1)! / (1 - y/(k+2)) e^y, for
    0 < y < k + 2.  For ||X|| = y the remainder of the degree-k Taylor sum
    of e^X is at most y^{k+1}/(k+1)! / (1 - y/(k+2)) (its terms fall by a
    ratio below y/(k+2)), and ||e^X|| >= e^{-y}, so tail_k(y) bounds the
    relative truncation error.  In logs, so no power or factorial overflows."""
    return (k + 1) * math.log(y) - math.lgamma(k + 2) - math.log1p(-y / (k + 2)) + y


@functools.cache
def _theta(k: int) -> float:
    """theta_k, the largest float y with tail_k(y) <= 2^-53: a bisection
    of (0, k + 2), where tail_k increases from below 2^-53 to infinity.
    The thetas increase with k, as tail_k(y) < tail_{k-1}(y) for y < k + 1.
    Cached one degree at a time, on first use, not at import."""
    lo, hi = 0.0, float(k + 2)
    mid = (lo + hi) / 2
    while lo < mid < hi:
        if _log_tail(k, mid) <= _LOG_UNIT_ROUNDOFF:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    return lo


def _taylor_plan(x: float, order: int) -> tuple:
    """(m, s) for a float series of norm x = ||tm||: s is the least s >= 0
    with tail_order(x / 2^s) <= 2^-53, m the least m >= 1 with
    tail_m(x / 2^s) <= 2^-53 (so m <= order), see `_log_tail`.  Summing m
    terms at t / 2^s and squaring s times then truncates below the unit
    roundoff (Higham 2005; Al-Mohy and Higham 2009).  Only theta_order and
    the thetas the bisection probes are computed, so a large order costs
    about log2(order) of them."""
    s = 0
    while math.ldexp(x, -s) > _theta(order):
        s += 1
    return _degree(math.ldexp(x, -s), order), s


def _degree(y: float, order: int) -> int:
    """The least m >= 1 with tail_m(y) <= 2^-53, for 0 <= y <= theta_order."""
    return bisect.bisect_left(range(1, order + 1), y, key=_theta) + 1


def truncated_exp(m: Mat, t=1, order: int = 24) -> Mat:
    """The exponential e^{tm}: `truncated_exps` at the one t."""
    return truncated_exps(m, (t,), order)[0]


def truncated_exps(m: Mat, ts, order: int = 24, rows=None) -> list:
    """[e^{tm} for t in ts] by one Taylor series, in the mode of m; the only
    series in the package.  With `rows` given, each result is the top
    `rows` rows of e^{tm}, and only those rows are summed.

    An exact series stops at its first zero term, so the result is the true
    exponential, exactly, and `order` plays no part.  When no term vanishes
    by term m.rows + 1 (m is not nilpotent and some t != 0) it raises
    ValueError rather than return a truncated sum as exact.  Its ts are
    exact scalars: a float t raises ModeError, as a float scalar does in
    `Mat.scale`.  A float m takes int, float or Fraction ts; any other t
    raises ModeError.  It is scaled and squared (Higham 2005) with the
    degree and the squarings taken from the norm: with x = |t| ||m||, ||.||
    the max row sum, `_taylor_plan` picks the least s and then the least
    degree m <= `order` whose truncation bound at x / 2^s is at most 2^-53;
    m terms of the series are summed at t / 2^s and the result is squared s
    times.  `order` caps the degree: a smaller cap costs more squarings, and
    one that is no int or lies outside 1 to sys.maxsize raises ValueError.  At
    the default 24 the series is summed up to x / 2^s <= theta_24 (about
    2.14), so a small x costs a few terms and no squaring, and no call
    does more products or squarings than 24 terms at ||tm|| <= 1/2 would.
    A norm x of 2^1023 or more (2x is not finite, a NaN included) raises
    ValueError, and so do a t too large for a float and a result with an
    entry that overflows to inf or NaN.

    The series is anchored at the t of largest |t|, the first among equals:
    its terms are computed as a call with that t alone computes them, and
    its plan sets s for every t.  Each other t reads its terms as those
    terms times (t / anchor)^n, up to its own degree (the least whose bound
    at |t| ||m|| / 2^s is at most 2^-53), and squares its own sum s times.
    A call with one t sums the series that call did before the sharing, bit
    for bit.  Multiplying by -1 or by 2^-k is exact, so in float -anchor,
    and anchor 2^-k when s = 0, come out bit for bit as their own one-t
    calls, and any other t agrees with its own call to rounding.  An exact
    result equals its own call's in value, and for -anchor in the type of
    each entry too; elsewhere an integral entry may be a Fraction of
    denominator 1 where its own call holds an int.

    The series and the squarings run on flat row-major lists through
    `_flat_mul`, with the nonzero rows of m built once: term n is term
    n - 1 times m, scaled by t / n, and is added as `Mat.__add__` adds, so
    results are those of the same `Mat` operations (in float bit for bit,
    signed zeros included); only the results are built as `Mat`s.  Row i of
    a product depends on row i of its left factor alone, so the top rows,
    summed alone, are those of the whole sum bit for bit.  When s > 0 the
    squarings need every row, and every row is summed.  An exact sum of the
    top rows stops at the first term whose top rows vanish, as every later
    term's do, so it is exact.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    if not (isinstance(order, int) and 1 <= order <= sys.maxsize):
        raise ValueError(f"order must be from 1 to sys.maxsize = {sys.maxsize}, an int, got {order!r}")
    size, mode, s = m.rows, m.mode, 0
    kind, exact = _KINDS[mode], mode == "exact"
    if not exact:
        try:
            ts = [float(kind_of((t,)).scalar(t)) for t in ts]
        except OverflowError:
            raise ValueError("exponential overflows: t is too large for a float") from None
        norm = row_sum_norm(m)
        for t in ts:
            if not math.isfinite(2 * (abs(t) * norm)):
                raise ValueError(f"exponential overflows: ||t m|| = {abs(t) * norm} is not below 2^1023")
        anchor = max(ts, key=abs, default=0.0)
        top, s = _taylor_plan(abs(anchor) * norm, order)
        degrees = [_degree(math.ldexp(abs(t) * norm, -s), order) for t in ts]
        ratios = [t / anchor if anchor else 0.0 for t in ts]
        anchor = math.ldexp(anchor, -s)
    else:
        # an exact m is nilpotent iff a term vanishes, by term m.rows at the latest
        ts = [kind.scalar(t) for t in ts]
        anchor, top = max(ts, key=abs, default=0), size + 1
        degrees, ratios = [top] * len(ts), [_quotient(t, anchor) if anchor else 0 for t in ts]
    k = size if rows is None else rows
    summed = k if s == 0 else size
    zero, brows = kind.zero, _nonzero_rows(m.data, size, size)
    term = Mat.identity(size, mode).data[:summed * size]
    sums = [term] * len(ts)
    for n in range(1, top + 1):
        term = _flat_mul(term, summed, brows, size, zero)
        if exact and not any(term):
            break
        c = _quotient(anchor, n) if exact else anchor / n
        term = [c * a for a in term]
        for i, (r, d) in enumerate(zip(ratios, degrees)):
            if n <= d:
                q = r ** n
                sums[i] = kind.add(zip(sums[i], term if q == 1 else [q * a for a in term]))
    else:
        if exact:
            raise ValueError("exact exponential of a matrix that is not nilpotent")
    out = []
    for t, result in zip(ts, sums):
        for _ in range(s):
            result = _flat_mul(result, size, _nonzero_rows(result, size, size), size, zero)
        result = result[:k * size]
        if not exact and not all(map(math.isfinite, result)):
            raise ValueError(f"exponential overflows: e^(t m) is not finite at ||t m|| = {abs(t) * norm}")
        out.append(Mat._result(k, size, result, mode))
    return out


def block_exps(a: Mat, b: Mat, c: Mat, ts, order: int = 24) -> list:
    """[(top-left, top-right) blocks of e^{tM} for t in ts], M = [[a, b], [0, c]],
    in the mode of a, b and c, by one `truncated_exps` over the top a.rows
    rows of M, which sums only those rows unless it squares.

    The top-right block is the integral of e^{(t-s)a} b e^{sc} over
    [0, t] (Van Loan 1978).  M is nilpotent exactly when a and c are.  That
    block is linear in b, so in float mode b is scaled by an exact power of
    two 2^-k to a norm of at most max(||a||, ||c||, 1/2) and the block by
    2^k afterwards: a large b then adds no squarings, which would cost the
    top-left block e^{ta} accuracy.  A block that overflows to inf or NaN
    when scaled back raises ValueError, as `truncated_exps` does."""
    n, m, mode, k = a.rows, c.rows, a.mode, 0
    if mode == "float":
        nb, cap = row_sum_norm(b), max(row_sum_norm(a), row_sum_norm(c), 0.5)
        if cap < nb < math.inf:
            # 2^k stays a finite float: a finite nb is below 2^1024
            k = min(1023, math.ceil(math.log2(nb) - math.log2(cap)))
            b = b.scale(2.0 ** -k)
    rows = [a.row(i) + b.row(i) for i in range(n)] + [vzero(n, mode) + c.row(i) for i in range(m)]
    out = []
    for E in truncated_exps(Mat._result(n + m, n + m, [x for r in rows for x in r], mode), ts, order, n):
        top = Mat._result(n, m, [E.at(i, j) for i in range(n) for j in range(n, n + m)], mode)
        if k:
            top = top.scale(2.0 ** k)
            if not all(map(math.isfinite, top.data)):
                raise ValueError(f"exponential overflows: the top-right block is not finite at ||b|| = {nb}")
        out.append((Mat._result(n, n, [E.at(i, j) for i in range(n) for j in range(n)], mode), top))
    return out


# ---------------------------------------------------------------------------
# alternating tensors
# ---------------------------------------------------------------------------

def _perm_sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


@functools.cache
def _signed_perms(k: int) -> tuple:
    """Every permutation of range(k) with its sign, in `itertools` order."""
    return tuple((p, _perm_sign(p)) for p in itertools.permutations(range(k)))


class AltTensor:
    """Alternating k-linear map (R^dim)^k -> R^codim.

    Only strictly increasing index tuples are stored (zero values are
    dropped); evaluation on arbitrary index tuples applies the
    permutation sign, and repeated indices give zero.  Evaluation on
    vectors is the multilinear alternating extension.
    """

    __slots__ = ("arity", "dim", "codim", "entries", "mode")

    def __init__(self, arity: int, dim: int, codim: int, entries=None, mode: str | None = None):
        """A tensor of literal values, all in `mode` when it is given, else
        float iff an entry of any value is a float, as in `Mat`; no values
        and no mode make it exact."""
        entries, clean = entries or {}, {}
        kind = kind_of(e for v in entries.values() for e in v) if mode is None else scalar_kind(mode)
        for key, vec in entries.items():
            key = tuple(key)
            if len(key) != arity or any(not (0 <= i < dim) for i in key):
                raise ValueError(f"bad index tuple {key}")
            if any(key[i] >= key[i + 1] for i in range(arity - 1)):
                raise ValueError(f"index tuple not strictly increasing: {key}")
            if len(vec) != codim:
                raise ValueError("value length mismatch")
            clean[key] = kind.entries(vec)
        self._set(arity, dim, codim, clean, kind.name)

    def _set(self, arity, dim, codim, entries: dict, mode: str):
        set_arity, set_dim, set_codim, set_entries, set_mode = _ALT_SLOTS
        set_arity(self, arity)
        set_dim(self, dim)
        set_codim(self, codim)
        set_entries(self, dict(sorted((k, v) for k, v in entries.items() if not vec_is_zero(v)))
                    if entries else {})
        set_mode(self, mode)

    def __setattr__(self, *args):
        raise AttributeError("AltTensor is immutable")

    @classmethod
    def _result(cls, arity: int, dim: int, codim: int, entries: dict, mode: str) -> "AltTensor":
        """A computed tensor whose values already share `mode`: no coercion;
        zero values are dropped and keys sorted, as in __init__."""
        out = object.__new__(cls)
        out._set(arity, dim, codim, entries, mode)
        return out

    @classmethod
    def zero(cls, arity: int, dim: int, codim: int, mode: str = "exact") -> "AltTensor":
        return cls._result(arity, dim, codim, {}, scalar_kind(mode).name)

    @classmethod
    def from_function(cls, arity: int, dim: int, codim: int, fn, mode: str | None = None) -> "AltTensor":
        """Build from a callback on strictly increasing basis tuples."""
        entries = {}
        for key in itertools.combinations(range(dim), arity):
            entries[key] = tuple(fn(key))
        return cls(arity, dim, codim, entries, mode)

    def _zero_vec(self) -> tuple:
        return vzero(self.codim, self.mode)

    def eval_basis(self, *indices) -> tuple:
        """Value on basis indices, with the sign of the sorting permutation;
        an index outside range(dim) raises ValueError."""
        if len(indices) != self.arity:
            raise ValueError("arity mismatch")
        if not all(0 <= i < self.dim for i in indices):
            raise ValueError(f"index outside range({self.dim}): {indices}")
        if len(set(indices)) != len(indices):
            return self._zero_vec()
        order = sorted(range(len(indices)), key=lambda i: indices[i])
        sign = _perm_sign(order)
        key = tuple(sorted(indices))
        vec = self.entries.get(key)
        if vec is None:
            return self._zero_vec()
        return vec if sign == 1 else vneg(vec)

    def eval(self, *vectors) -> tuple:
        """Multilinear alternating evaluation on length-`dim` vectors:
        `sparse_eval` on their supports.  As in `Mat.apply`, the coordinates
        are literal values of the mode of the tensor (`entries` of its
        kind), so one of the other mode raises ModeError, and a vector of
        another length raises ValueError."""
        if len(vectors) != self.arity:
            raise ValueError("arity mismatch")
        if any(len(v) != self.dim for v in vectors):
            raise ValueError("vector length mismatch")
        if not vectors:
            return self.entries.get((), self._zero_vec())
        kind = _KINDS[self.mode]
        r = sparse_eval(self, *({i: x for i, x in enumerate(kind.entries(v)) if x} for v in vectors))
        return sparse_dense(r, self.codim, kind.zero)

    def __add__(self, other: "AltTensor") -> "AltTensor":
        """The values of the two tensors added key by key."""
        self._compat(other)
        zero = self._zero_vec()
        entries = {k: vadd(self.entries.get(k, zero), other.entries.get(k, zero))
                   for k in set(self.entries) | set(other.entries)}
        return AltTensor._result(self.arity, self.dim, self.codim, entries, self.mode)

    def __sub__(self, other: "AltTensor") -> "AltTensor":
        """self + -other: in float the key-by-key difference bit for bit,
        but for the sign of a zero entry at a key `other` does not store
        (a stored -0.0 minus an absent 0.0 comes out as +0.0)."""
        return self + -other

    def __neg__(self) -> "AltTensor":
        return AltTensor._result(self.arity, self.dim, self.codim,
                                 {k: vneg(v) for k, v in self.entries.items()}, self.mode)

    def scale(self, s) -> "AltTensor":
        s = _KINDS[self.mode].scalar(s)
        return AltTensor._result(self.arity, self.dim, self.codim,
                                 {k: vscale(s, v) for k, v in self.entries.items()}, self.mode)

    def postcompose(self, m: Mat) -> "AltTensor":
        """Apply a matrix to the values: (m . omega)."""
        if m.cols != self.codim:
            raise ValueError("shape mismatch")
        _same_mode(self, m)
        return AltTensor._result(self.arity, self.dim, m.rows,
                                 {k: m.apply(v) for k, v in self.entries.items()}, self.mode)

    def pullback(self, b: Mat) -> "AltTensor":
        """Precompose every argument with b: omega(b ., ..., b .), by
        `sparse_eval` on the columns of b, read once (`sparse_columns`).  b
        has the mode of the tensor (`_same_mode`), so its entries are not
        read again.  A tensor with no entries, or of arity 0, takes no
        argument to precompose: its entries stay as they are."""
        if b.rows != self.dim:
            raise ValueError("shape mismatch")
        _same_mode(self, b)
        if not (self.entries and self.arity):
            return AltTensor._result(self.arity, b.cols, self.codim, self.entries, self.mode)
        cols, zero = sparse_columns(b), _KINDS[self.mode].zero
        entries = {key: sparse_dense(sparse_eval(self, *(cols[j] for j in key)), self.codim, zero)
                   for key in itertools.combinations(range(b.cols), self.arity)}
        return AltTensor._result(self.arity, b.cols, self.codim, entries, self.mode)

    def is_zero(self) -> bool:
        return not self.entries

    def max_abs(self):
        return vmax_abs([vmax_abs(v) for v in self.entries.values()], scalar_zero(self.mode))

    def to_float(self) -> "AltTensor":
        return AltTensor._result(self.arity, self.dim, self.codim,
                                 {k: tuple(float(x) for x in v) for k, v in self.entries.items()},
                                 "float")

    def _compat(self, other: "AltTensor"):
        if (self.arity, self.dim, self.codim) != (other.arity, other.dim, other.codim):
            raise ValueError("tensor shape mismatch")
        _same_mode(self, other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AltTensor)
                and (self.arity, self.dim, self.codim) == (other.arity, other.dim, other.codim)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.arity, self.dim, self.codim, tuple(self.entries.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}:({', '.join(rat_str(x) for x in v)})" for k, v in self.entries.items())
        return f"AltTensor({self.arity},{self.dim}->{self.codim}; {body})"


_ALT_SLOTS = _slot_setters(AltTensor)


# ---------------------------------------------------------------------------
# sparse vectors ({index: value}, nonzero values only)
# ---------------------------------------------------------------------------
#
# The law evaluators in `core` and `derivations`, and `AltTensor.eval`,
# work on these.  Each sum adds its nonzero terms in the order of the dense
# sum over every term, so exact results are equal and float results are the
# dense sums bit for bit (a skipped term is a signed zero, which changes no
# nonzero sum).

SPARSE_ZERO = MappingProxyType({})  # the zero vector, read-only


def sparse_columns(m: Mat) -> list:
    """The columns of m as sparse vectors."""
    cols = [{} for _ in range(m.cols)]
    for i in range(m.rows):
        for j, x in enumerate(m.row(i)):
            if x:
                cols[j][i] = x
    return cols


def sparse_rows(m: Mat) -> list:
    """The rows of m as sparse vectors."""
    return [{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)]


def sparse_alt(t: AltTensor) -> dict:
    """The values of t on every ordering of its nonzero keys, with the
    permutation sign: {index tuple: sparse vector}."""
    out = {}
    for key, vec in t.entries.items():
        pos = {c: x for c, x in enumerate(vec) if x}
        neg = {c: -x for c, x in pos.items()}
        for p, sign in _signed_perms(t.arity):
            out[tuple(key[a] for a in p)] = pos if sign == 1 else neg
    return out


def sparse_comb(terms) -> dict:
    """The sum of coef * vec over (coef, sparse vec) pairs, in their order."""
    out = {}
    for s, vec in terms:
        for c, v in vec.items():
            out[c] = out[c] + s * v if c in out else s * v
    return out


def sparse_apply(cols, u: dict) -> dict:
    """The sum of u[t] * cols[t] over the support of u, by increasing t:
    a matrix with sparse columns applied to a sparse vector."""
    return sparse_comb((u[t], cols[t]) for t in sorted(u))


def sparse_eval(t: AltTensor, *vectors: dict) -> dict:
    """t on sparse vectors, the one alternating evaluator: the stored keys
    in increasing order, each key's permutation terms in their fixed order
    (those with a zero factor skipped), then the key's minor times its
    value.  Only keys inside the support of the vectors can contribute:
    when its k-subsets are fewer than the stored keys, they are walked in
    increasing order and looked up, else every stored key is tested
    against the support; both visit the same keys in the same order."""
    k, entries = t.arity, t.entries
    support = set().union(*vectors)
    perms = _signed_perms(k)
    if math.comb(len(support), k) < len(entries):
        keys = [key for key in itertools.combinations(sorted(support), k) if key in entries]
    else:
        keys = [key for key in entries if support.issuperset(key)]
    out = {}
    for key in keys:
        vec, minor = entries[key], 0
        for p, sign in perms:
            factors = [vectors[a].get(key[p[a]]) for a in range(k)]
            if all(factors):
                minor += sign * math.prod(factors)
        if minor:
            for c, y in enumerate(vec):
                if y:
                    out[c] = out[c] + minor * y if c in out else minor * y
    return out


def sparse_dense(vec: dict, n: int, zero) -> tuple:
    """A sparse vector as a tuple of length n.  A zero value that cancelled
    out reads as `zero`, the +0.0 the dense sums give in float mode."""
    return tuple(vec.get(c) or zero for c in range(n))


def sparse_sum(*terms) -> dict:
    """The signed sum of (sign, sparse vec) pairs, added term by term."""
    out = {}
    for sign, vec in terms:
        for c, v in vec.items():
            if sign < 0:
                v = -v
            out[c] = out[c] + v if c in out else v
    return out


def tensor_distance(a: AltTensor, b: AltTensor):
    """Max abs difference over all strictly increasing tuples."""
    if (a.arity, a.dim, a.codim) != (b.arity, b.dim, b.codim):
        raise ValueError("tensor shape mismatch")
    za, zb = a._zero_vec(), b._zero_vec()
    return vmax_abs([vmax_abs(vsub(a.entries.get(k, za), b.entries.get(k, zb)))
                     for k in set(a.entries) | set(b.entries)], scalar_zero(a.mode))


def mat_distance(a: Mat, b: Mat):
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return vmax_abs(vsub(a.data, b.data), scalar_zero(a.mode))
