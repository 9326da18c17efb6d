"""Every public name of `lie2alg` has a use or a documented place.

A public function or class of a module under `src/lie2alg`, or a public
method of such a class, must appear somewhere other than its own
definition: in code under `src/lie2alg`, in `bench/*.py` or `tools/*.py`
(as an identifier, or as a part of a dotted string constant such as the
tracer's "linalg.rref"), or in backticks in its module's docstring, which
is where kept library API is named.  Dunder methods are exempt.  A name
that only tests reach fails until it is either deleted or documented.

The package namespace states no API of its own: its public names are its
submodules, and `import lie2alg` loads the modules it always has.
"""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lie2alg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
IDENT = re.compile(r"[A-Za-z_]\w*")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _identifiers(tree: ast.AST) -> Counter:
    """The names a tree reads: plain names, attributes and imported names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.asname or node.name] += 1
            out[node.name] += node.asname is not None
    return out


def _dotted_strings(tree: ast.AST) -> set:
    """The parts of every string constant that is a dotted identifier."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and DOTTED.fullmatch(node.value)
            for part in node.value.split(".")}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(label, name, node) of each public function and class at module
    level and each public non-dunder method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and _public(node.name):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and _public(item.name):
                        yield f"{node.name}.{item.name}", item.name, item


def _documented(tree: ast.Module) -> set:
    doc = ast.get_docstring(tree) or ""
    return {tok for span in re.findall(r"`([^`]*)`", doc) for tok in IDENT.findall(span)}


TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in MODULES}
OUTSIDE = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def unreached_names() -> list:
    """`module.name` of each public name with neither a use nor a mention."""
    in_src = sum((_identifiers(tree) for tree in TREES.values()), Counter())
    outside = set()
    for path in OUTSIDE:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        outside |= set(_identifiers(tree)) | _dotted_strings(tree)
    missing = []
    for path, tree in TREES.items():
        documented = _documented(tree)
        for label, name, node in _definitions(tree):
            used_elsewhere = in_src[name] > _identifiers(node)[name]
            if not (used_elsewhere or name in outside or name in documented):
                missing.append(f"{path.stem}.{label}")
    return missing


def test_every_public_name_is_used_or_documented():
    assert unreached_names() == []


def test_the_check_sees_the_package():
    names = {label for tree in TREES.values() for label, _, _ in _definitions(tree)}
    assert {"Lie2Algebra", "Lie2Algebra.sparse", "truncated_exp", "twist_hom"} <= names
    assert "Lie2Algebra.__init__" not in names


def test_the_package_namespace_holds_its_submodules_only():
    # a fresh interpreter, so no other test's imports show
    probe = ("import sys, lie2alg\n"
             "print(sorted(n for n in sys.modules if n.startswith('lie2alg.')))\n"
             "print(sorted(n for n in vars(lie2alg) if not n.startswith('_')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={"PYTHONPATH": str(PACKAGE.parent)})
    loaded = ["automorphisms", "core", "derivations", "integration", "linalg"]
    assert proc.stdout.splitlines() == [str([f"lie2alg.{m}" for m in loaded]), str(loaded)]
