"""Structure-constant file formats.

Algebra files ("lie2 v1") carry dimensions and sparse entry lines for the
differential, the two bracket blocks and l3; element files carry one typed
block (hom / der0 / derM1 / tau).  Omitted entries are zero.  Both share
one grammar, the tag tables below: an entry line is a tag, its integer
index slots and a rational.  One reader checks each line in one order
(integers, ranges, increasing indices, duplicates, the rational) and
reports line-numbered diagnostics; canonical serialization sorts entries
lexicographically, so parse(serialize(x)) = x.
"""

from __future__ import annotations

from typing import NamedTuple

from .automorphisms import Tau
from .core import Lie2Algebra, Lie2Hom
from .derivations import DerM1, Derivation0
from .linalg import AltTensor, Mat, rat, rat_str


class ParseError(ValueError):
    def __init__(self, filename: str, line: int, message: str):
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line
        self.message = message


class _Tag(NamedTuple):
    """The grammar of one entry tag."""

    slots: tuple     # per index: (degree 0 or 1 of its space, bad-integer word, range word)
    increasing: int  # how many leading indices must strictly increase
    usage: str       # the message for a wrong argument count
    attr: str = ""   # the element attribute the tag fills (element tags only)


_I, _A = (0, "index", "degree-0 index"), (1, "index", "degree -1 index")
_ALGEBRA_TAGS = {
    "d": _Tag(((0, "row", "degree-0 index"), (1, "column", "degree -1 index")), 0,
              'expected "d <i> <a> <rat>"'),
    "b00": _Tag((_I, _I, _I), 2, 'expected "b00 <i> <j> <k> <rat>"'),
    "b01": _Tag((_I, _A, _A), 0, 'expected "b01 <i> <a> <b> <rat>"'),
    "l3": _Tag((_I, _I, _I, _A), 3, 'expected "l3 <i> <j> <k> <a> <rat>"'),
}

# block -> (element type, {tag: grammar}), fields (tag, attribute, index
# degrees, increasing) in constructor order
_BLOCKS = {
    block: (cls, {tag: _Tag(tuple((deg, "index", "index") for deg in degs), increasing,
                            f"expected {len(degs) + 1} arguments after {tag!r}", attr)
                  for tag, attr, degs, increasing in fields})
    for block, cls, fields in (
        ("hom", Lie2Hom, (("a0", "A0", (0, 0), 0), ("a1", "A1", (1, 1), 0), ("a2", "A2", (0, 0, 1), 2))),
        ("der0", Derivation0, (("x0", "X0", (0, 0), 0), ("x1", "X1", (1, 1), 0), ("lx", "lX", (0, 0, 1), 2))),
        ("derM1", DerM1, (("theta", "theta", (1, 0), 0),)),
        ("tau", Tau, (("tau", "mat", (1, 0), 0),)))
}


def _significant_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _parse_int(tok: str, what: str, filename: str, no: int) -> int:
    """An ASCII integer, -?[0-9]+; a sign is kept so that negative values
    reach the range checks.  Unlike int(), no '+', '_' or non-ASCII digit."""
    digits = tok[1:] if tok.startswith("-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(filename, no, f"bad {what}: {tok!r}")
    return int(tok)


def _read_entries(lines, tags: dict, dims, filename: str, unknown: str) -> dict:
    """Check entry lines against `tags`; `dims` = (n0, n1).  Returns
    {tag: {indices: value}}; `unknown` formats the message for a tag not
    in the table."""
    data = {tag: {} for tag in tags}
    for no, line in lines:
        tag, *args = line.split()
        spec = tags.get(tag)
        if spec is None:
            raise ParseError(filename, no, unknown.format(tag))
        if len(args) != len(spec.slots) + 1:
            raise ParseError(filename, no, spec.usage)
        idx = tuple(_parse_int(tok, word, filename, no)
                    for tok, (_, word, _) in zip(args, spec.slots))
        for v, (deg, _, word) in zip(idx, spec.slots):
            if not 0 <= v < dims[deg]:
                raise ParseError(filename, no, f"{word} {v} out of range [0, {dims[deg]})")
        if any(idx[s] >= idx[s + 1] for s in range(spec.increasing - 1)):
            rule = " < ".join("ijk"[:spec.increasing])
            raise ParseError(filename, no, f"{tag} indices must satisfy {rule}")
        if idx in data[tag]:
            raise ParseError(filename, no, f"duplicate entry {line!r}")
        try:
            data[tag][idx] = rat(args[-1])
        except ValueError as exc:
            raise ParseError(filename, no, str(exc)) from None
    return data


def _mat(entries: dict, rows: int, cols: int) -> Mat:
    """The matrix with entry (r, c) = entries[(r, c)], zero if absent."""
    data = [0] * (rows * cols)
    for (r, c), v in entries.items():
        data[r * cols + c] = v
    return Mat(rows, cols, data)


def _alt(entries: dict, arity: int, dim: int, codim: int) -> AltTensor:
    """The alternating tensor with value coordinate c on key k = entries[(*k, c)]."""
    vecs = {}
    for (*key, c), v in entries.items():
        vecs.setdefault(tuple(key), [0] * codim)[c] = v
    return AltTensor(arity, dim, codim, vecs)


def _build(entries: dict, spec: _Tag, dims):
    """The value of a tag: a matrix for two indices (row, column), else an
    alternating tensor keyed by all indices but the last (its coordinate)."""
    sizes = [dims[deg] for deg, _, _ in spec.slots]
    if len(sizes) == 2:
        return _mat(entries, *sizes)
    return _alt(entries, len(sizes) - 1, sizes[0], sizes[-1])


def _emit_mat(out: list, tag: str, m: Mat):
    for n, v in enumerate(m.data):
        if v != 0:
            out.append(f"{tag} {n // m.cols} {n % m.cols} {rat_str(v)}")


def _emit_alt(out: list, tag: str, t: AltTensor):
    for key, vec in sorted(t.entries.items()):
        for c, v in enumerate(vec):
            if v != 0:
                out.append(f"{tag} {' '.join(map(str, key))} {c} {rat_str(v)}")


def parse_lie2(text: str, filename: str = "<string>") -> Lie2Algebra:
    """Parse an algebra file into exact-rational structure constants."""
    lines = list(_significant_lines(text))
    if not lines or lines[0][1] != "lie2 v1":
        no = lines[0][0] if lines else 1
        raise ParseError(filename, no, 'expected header "lie2 v1"')
    dims = []
    for idx, key in enumerate(("dim0", "dim1"), start=1):
        if idx >= len(lines):
            raise ParseError(filename, lines[-1][0], f"missing {key} line")
        no, line = lines[idx]
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(filename, no, f'expected "{key} <n>"')
        dims.append(_parse_int(parts[1], key, filename, no))
        if dims[-1] < 0:
            raise ParseError(filename, no, f"{key} must be nonnegative")
    n0, n1 = dims
    data = _read_entries(lines[3:], _ALGEBRA_TAGS, dims, filename, "unknown entry tag {!r}")
    d, b00, l3 = (_build(data[tag], _ALGEBRA_TAGS[tag], dims) for tag in ("d", "b00", "l3"))
    # file entry (i, a, b): coefficient of f_b in [e_i, f_a] -> matrix i, entry (b, a)
    b01 = [_mat({(b, a): v for (j, a, b), v in data["b01"].items() if j == i}, n1, n1)
           for i in range(n0)]
    return Lie2Algebra(n0, n1, d, b00, b01, l3)


def serialize_lie2(L: Lie2Algebra) -> str:
    """Canonical text form: sorted sparse entries, zeros omitted."""
    out = ["lie2 v1", f"dim0 {L.n0}", f"dim1 {L.n1}"]
    _emit_mat(out, "d", L.d)
    _emit_alt(out, "b00", L.b00)
    for i, m in enumerate(L.b01):
        _emit_mat(out, f"b01 {i}", m.transpose())  # [e_i, f_a] on f_b is m.at(b, a)
    _emit_alt(out, "l3", L.l3)
    return "\n".join(out) + "\n"


def parse_element(text: str, L: Lie2Algebra, filename: str = "<string>"):
    """Parse a typed element block against the dimensions of L.

    Returns a Lie2Hom, Derivation0, DerM1 or Tau according to the block type.
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(filename, 1, "empty element file")
    no0, block = lines[0]
    if block not in _BLOCKS:
        raise ParseError(filename, no0, f"unknown block type {block!r}")
    cls, tags = _BLOCKS[block]
    dims = (L.n0, L.n1)
    data = _read_entries(lines[1:], tags, dims, filename,
                         "unexpected tag {!r} in " + block + " block")
    parts = [_build(data[tag], spec, dims) for tag, spec in tags.items()]
    return cls(L, L, *parts) if cls is Lie2Hom else cls(*parts)


def serialize_element(obj, L: Lie2Algebra) -> str:
    """Canonical text form of a typed element."""
    for block, (cls, tags) in _BLOCKS.items():
        if isinstance(obj, cls):
            out = [block]
            for tag, spec in tags.items():
                value = getattr(obj, spec.attr)
                (_emit_alt if isinstance(value, AltTensor) else _emit_mat)(out, tag, value)
            return "\n".join(out) + "\n"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
