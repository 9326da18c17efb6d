"""The package needs only the standard library: every import under
src/lie2alg names a standard-library module or the package itself, and
sits at module level, where this check sees it (an import inside a function
or class would escape it).  Every module-level import of src/lie2alg and of
tests/ is used."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "lie2alg").rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _import_faults(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    where = path.relative_to(ROOT)
    bad = []
    if path in SRC:
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []  # relative: inside the package
            else:
                continue
            if id(node) not in top:
                bad.append(f"{where}:{node.lineno}: imports inside a function or class")
            bad += [f"{where}:{node.lineno}: imports {name}" for name in names
                    if name.split(".")[0] not in ("lie2alg", *sys.stdlib_module_names)]
    if path.name == "__init__.py":
        return bad  # the package namespace re-exports what it imports
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            bad += [f"{where}:{node.lineno}: imports {alias.name} and never uses it"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used]
    return bad


def test_src_imports_only_the_standard_library_at_module_level_and_every_import_is_used():
    assert SRC and TESTS
    assert [fault for path in SRC + TESTS for fault in _import_faults(path)] == []
