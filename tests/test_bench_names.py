"""Every `lie2alg` name the benchmark calls resolves in the package.

`bench/tracing.py` wraps functions by (module, name) and kernels by
(class, method) of `linalg`, and `bench/workloads.py` calls attributes of
the `lie2alg` modules it imports.  A rename or deletion in `src/` would
otherwise surface only when the benchmark runs.  The files under `bench/`
are read, never imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("cli", "core", "derivations", "fileio", "fixtures", "linalg")


def _tuple_of(tree: ast.Module, name: str) -> tuple:
    """The literal value of the module-level tuple `name`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracing.py defines no {name}")


def _attribute_chains(tree: ast.Module) -> set:
    """Every `module.attr[.attr...]` chain on a `lie2alg` module name, and
    each of its prefixes, as a tuple of names."""
    chains = set()
    for node in ast.walk(tree):
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if parts and isinstance(base, ast.Name) and base.id in MODULES:
            chains.add((base.id, *reversed(parts)))
    return chains


def _resolve(module: str, *names):
    obj = importlib.import_module(f"lie2alg.{module}")
    for name in names:
        obj = getattr(obj, name)
    return obj


TRACING = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
WORKLOADS = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
FUNCTIONS = [(module, fn) for _, module, fn in _tuple_of(TRACING, "TRACED_FUNCTIONS")]
KERNELS = [("linalg", cls, meth) for _, cls, meth in _tuple_of(TRACING, "TRACED_KERNELS")]
CHAINS = _attribute_chains(WORKLOADS)


@pytest.mark.parametrize("chain", sorted({*FUNCTIONS, *KERNELS, *CHAINS}), ids=".".join)
def test_benchmark_name_resolves(chain):
    _resolve(*chain)  # AttributeError when the name is gone


def test_every_source_of_names_is_read():
    assert FUNCTIONS and KERNELS
    assert ("linalg", "rank") in CHAINS and ("core", "validate_lie2") in CHAINS
