"""Modules of the package talk through public names.

No module imports, or reads as a module attribute, an underscore name of
another package module, and `PINNED`, the list of exceptions, is empty.
The benchmark's tracer wraps `_rref`, `_rref_prime` and `_poly_roots_prime`
by name where they are defined.  The first two are aliases of the public
`row_reduce` that no module calls by those names; only `degeneracy`, which
defines `_poly_roots_prime`, calls it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import triwedge

PACKAGE = Path(triwedge.__file__).parent
PINNED: frozenset[str] = frozenset()


def _is_package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "triwedge"


def private_cross_module_names(source: str) -> list[str]:
    """Underscore names a module takes from other package modules, as
    ``"line: name"``, leaving out the pinned ones."""
    tree = ast.parse(source)
    found = []
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_import(node):
            for alias in node.names:
                if node.module is None or node.module == "triwedge":
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_") and alias.name not in PINNED:
                    found.append(f"{node.lineno}: {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and node.attr not in PINNED
        ):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_takes_private_names_from_another():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_cross_module_names(path.read_text()))
    }
    assert found == {}


def test_the_check_sees_imports_and_module_attributes():
    source = (
        "from __future__ import annotations\n"
        "from random import _inst\n"
        "from .degeneracy import _random_coords, _poly_roots_prime, build_M\n"
        "from triwedge.exact_scalar import _rref, _rref_prime\n"
        "from . import congruence as cg\n"
        "line = cg._odd_line_attempt\n"
    )
    assert private_cross_module_names(source) == [
        "3: _random_coords",
        "3: _poly_roots_prime",
        "4: _rref",
        "4: _rref_prime",
        "6: cg._odd_line_attempt",
    ]
