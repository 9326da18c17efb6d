"""Exact vs float is decided in `lie2alg.linalg` alone.

The rules that differ between the two scalar modes live in the kind table
of `linalg` (`scalar_kind`, `kind_of`).  This test greps the code of every
module of the package, docstrings and comments left out, for each spelling
of a mode test: a comparison with a mode name or of a `mode`, an
`isinstance` or `type` test against `float` or `Fraction`, `kind is`, an
`.exact` flag, a mode name looked up in a set, tuple or dict literal, and
the `numbers` tower.  `linalg.py` may hold at most 10 such lines; outside
it, only `integration._joint_mode`, the one mode decision of an identity,
may hold one.

Float sums give the same digits on every Python only when added with
plain `+`: from Python 3.12 on the builtin `sum` compensates float
rounding.  So no module of the package calls it.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lie2alg"
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_NAME = r"""["'](?:exact|float)["']"""
MODE_TEST = re.compile("|".join((
    r"\bmode\s*[!=]=",                                        # mode == ..., L.mode != ...
    r"[!=]=\s*" + _NAME, _NAME + r"\s*[!=]=",                 # ... == "float", "exact" != ...
    r"\bisinstance\s*\([^)]*\b(?:float|Fraction)\b",          # isinstance(x, float)
    r"\btype\s*\([^)]*\)\s*(?:is|==|!=|in|not)\b.*\b(?:float|Fraction)\b",  # type(x) is float
    r"\bkind\s+is\b",                                         # kind is / kind is not
    r"\.\s*exact\b",                                          # an exact flag
    r"\bin\s*[(\[{][^)\]}]*" + _NAME,                         # mode in ("exact", ...)
    r"\{\s*" + _NAME + r"\s*:",                               # {"exact": ..., "float": ...}[mode]
    r"\bnumbers\b",                                           # numbers.Rational, numbers.Real
)))
LINALG_BUDGET = 10


def mode_test_lines(path: Path) -> list:
    """(line number, code) of each line of path whose code, docstrings and
    comments left out, holds a mode test."""
    lines = {}
    for tok in code_lines.code_tokens(path.read_text(encoding="utf-8")):
        lines.setdefault(tok.start[0], []).append(tok.string)
    found = [(n, " ".join(toks)) for n, toks in sorted(lines.items())]
    return [(n, code) for n, code in found if MODE_TEST.search(code)]


def _function_lines(path: Path, name: str) -> range:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError(f"{path.name} has no function {name}")


@pytest.mark.parametrize("code", [
    'if mode == "float":', 'exact = m.mode != other', 'x if "exact" == m.mode else y',
    'if isinstance(s, float):', 'isinstance(s, (int, Fraction))', 'type(x) is float',
    'type(q) is not Fraction', 'type(x) in (int, Fraction)', 'if kind is FLOAT:',
    'if self.kind is not other.kind:', 'if m.exact:', 'if mode in ("exact", "ring"):',
    'if mode not in {"float"}:', 'f = {"exact": g, "float": h}[mode]',
    'isinstance(x, numbers.Rational)',
])
def test_the_grep_finds_every_spelling_of_a_mode_test(code):
    assert MODE_TEST.search(code)


@pytest.mark.parametrize("code", [
    'k = scalar_kind(mode)', 'return _KINDS[self.mode].add(pairs)', 'x = _exact(q)',
    'Mat._result(n, n, data, "exact")', 'if type(e) is int:', 'mode = mode or default',
])
def test_the_grep_passes_over_kind_calls(code):
    assert not MODE_TEST.search(code)


def test_docstrings_and_comments_are_not_code(tmp_path):
    f = tmp_path / "m.py"
    f.write_text('"""if mode == "float": in prose"""\n\n'
                 'def g(mode):\n    """isinstance(x, float) in prose."""\n'
                 '    return mode  # mode == "exact" in a comment\n')
    assert mode_test_lines(f) == []
    f.write_text('def g(mode):\n    """prose"""\n    return mode == "exact"\n')
    assert mode_test_lines(f) == [(3, 'return mode == "exact"')]


def test_linalg_holds_at_most_ten_mode_test_lines():
    found = mode_test_lines(PACKAGE / "linalg.py")
    assert len(found) <= LINALG_BUDGET, "\n".join(f"linalg.py:{n}: {c}" for n, c in found)


def test_only_joint_mode_decides_the_mode_outside_linalg():
    allowed = {("integration.py", n) for n in _function_lines(PACKAGE / "integration.py",
                                                               "_joint_mode")}
    stray = [f"{path.name}:{n}: {code}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"
             for n, code in mode_test_lines(path) if (path.name, n) not in allowed]
    assert stray == []
    assert len(mode_test_lines(PACKAGE / "integration.py")) == 1


def builtin_sum_calls(source: str) -> list:
    """The line numbers of the calls of the builtin `sum` in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def test_the_sum_check_finds_a_call():
    assert builtin_sum_calls("x = 1\ny = sum(v, 0) + total.sum()\n") == [2]


def test_no_module_calls_the_builtin_sum():
    found = [f"{path.name}:{n}" for path in sorted(PACKAGE.glob("*.py"))
             for n in builtin_sum_calls(path.read_text(encoding="utf-8"))]
    assert found == []
