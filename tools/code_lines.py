#!/usr/bin/env python3
"""Count the lines that hold code in Python sources.

    python3 tools/code_lines.py [PATH ...]      (default: src/lie2alg)

A line holds code when a token other than a comment, a docstring or
whitespace starts on it or spans it.  A docstring is a string that is a
statement on its own: the first token of its logical line and the last one
before the line ends.  Blank lines, comment lines and docstring lines are
left out, so the count does not move when code is reformatted into longer
lines or when prose is added.  Each PATH is a file or a directory (its
``*.py`` files, recursively); the count is printed per file, then the
total.  Only the standard library is needed.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def code_tokens(source: str) -> list:
    """The tokens of `source` that hold code: no comment, no docstring, no
    whitespace token."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    out, line = [], []  # line: the significant tokens of the current logical line
    for tok in tokens:
        if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if not (len(line) == 1 and line[0].type == tokenize.STRING):
                out += line
            line = []
        elif tok.type not in _SKIP:
            line.append(tok)
    return out


def code_line_numbers(source: str) -> set:
    """The numbers of the lines of `source` that hold code."""
    return {n for tok in code_tokens(source) for n in range(tok.start[0], tok.end[0] + 1)}


def count(path: Path) -> int:
    return len(code_line_numbers(path.read_text(encoding="utf-8")))


def _shown(path: Path) -> str:
    """path relative to the repository root when it lies inside it."""
    try:
        return str(path.resolve().relative_to(ROOT))
    except ValueError:
        return str(path)


def main(argv: list) -> int:
    paths = [Path(a) for a in argv] or [ROOT / "src" / "lie2alg"]
    files = []
    for p in paths:
        if p.is_dir():
            files += sorted(p.rglob("*.py"))
        elif p.is_file():
            files.append(p)
        else:
            print(f"error: no such file or directory: {p}", file=sys.stderr)
            return 2
    total = 0
    for f in files:
        n = count(f)
        total += n
        print(f"{n:6d}  {_shown(f)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
