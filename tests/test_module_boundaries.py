"""Modules of the package talk through public names.

No module imports, or reads as a module attribute, an underscore name of
another package module, and `PINNED`, the list of exceptions, is empty.
The benchmark's tracer wraps `_rref`, `_rref_prime` and `_poly_roots_prime`
by name where they are defined.  The first two are aliases of the public
`row_reduce` that no module calls by those names; only `degeneracy`, which
defines `_poly_roots_prime`, calls it.

No module imports a name it never reads either, in the package or in the
tests: a lint check on the AST, since the package declares no dependencies
and no linter is installed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import triwedge

PACKAGE = Path(triwedge.__file__).parent
TESTS = Path(__file__).parent
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


def _annotation_names(node: ast.expr | None) -> set[str]:
    """The names an annotation reads, also when it is a string (a forward
    reference), which the interpreter never evaluates under
    ``from __future__ import annotations``."""
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, as ``"line: name"``.

    A name is read where it is loaded (also as the base of an attribute),
    where a string annotation names it, and where ``__all__`` lists it;
    ``from __future__`` imports are left out."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def test_no_test_module_imports_a_name_it_never_reads():
    found = {
        path.name: names
        for path in sorted(TESTS.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def test_the_unused_import_check_sees_reads_annotations_and_exports():
    source = (
        "from __future__ import annotations\n"
        "import random, os.path\n"
        "from .exact_scalar import Matrix, FieldSpec, Scalar, rank_kernel as rk\n"
        "from .form_analysis import LinearSubspace, build_M\n"
        "__all__ = ['build_M']\n"
        "def f(x: 'LinearSubspace') -> Scalar:\n"
        "    return os.path.join(rk, random)\n"
    )
    assert unused_imports(source) == ["3: Matrix", "3: FieldSpec"]
