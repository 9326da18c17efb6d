"""The CLI parses, loads and prints; `integration` owns the suites.

`src/lie2alg/cli.py` imports no underscore-prefixed name from another
`lie2alg` module, reads none off an imported module, and calls no sampler
(a `random_*` function): every draw of a suite happens in `integration`.
The denominators of the suites' draws, `_DENS`, are defined and read in
`integration.py` alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lie2alg"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def private_reaches(tree: ast.Module) -> list:
    """(line, name) of each underscore-prefixed name the code takes from
    another module of the package: a relative or `lie2alg` import of it, or
    an attribute of a module imported from the package."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("lie2alg")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                modules.add(alias.asname or alias.name)  # `from . import integration`
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.startswith("lie2alg")}
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return sorted(found)


def sampler_calls(tree: ast.Module) -> list:
    """(line, name) of each call of a `random_*` function."""
    return sorted((node.lineno, name) for node in ast.walk(tree) if isinstance(node, ast.Call)
            for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", "")]
            if name.startswith("random_"))


def test_the_checks_find_what_they_look_for():
    tree = ast.parse("from .integration import _DENS, SUITES\n"
                     "from lie2alg.linalg import _exact\n"
                     "from . import integration\n"
                     "import lie2alg.core as core\n"
                     "x = integration._joint_mode(core._Acc, random_tau(L, rng))\n"
                     "y = integration.random_der0(L, rng)\n")
    assert private_reaches(tree) == [(1, "_DENS"), (2, "_exact"), (5, "_Acc"),
                                     (5, "_joint_mode")]
    assert sampler_calls(tree) == [(5, "random_tau"), (6, "random_der0")]


def test_cli_takes_no_private_name_and_draws_no_sample():
    tree = _tree(PACKAGE / "cli.py")
    assert private_reaches(tree) == []
    assert sampler_calls(tree) == []


def test_the_draw_denominators_live_in_integration_alone():
    where = {}
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and node.id == "_DENS":
                where.setdefault(path.name, set()).add(type(node.ctx).__name__)
            elif isinstance(node, ast.Attribute) and node.attr == "_DENS" \
                    or isinstance(node, ast.alias) and node.name == "_DENS":
                where.setdefault(path.name, set()).add("import")
    assert where == {"integration.py": {"Store", "Load"}}
