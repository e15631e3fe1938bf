"""Every module-level import in the package, its tests and its demos is
used, and the test oracles import nothing from the package's linear
algebra and no private (underscore-prefixed) name of the package.

The check reads each file's syntax tree: a name bound by a top-level
``import`` or ``from ... import`` must occur somewhere else in the file,
as a name or as the root of an attribute chain.  ``from __future__``
imports and the package ``__init__.py`` (whose imports are re-exports) are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for d in (ROOT / "src" / "gimel", ROOT / "tests", ROOT / "demos")
    for p in d.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scan_finds_an_unused_import():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b as c\nsys.exit(os)\n"
    assert unused_imports(src) == [(3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def linalg_imports(source: str):
    """Lines of the import statements that reach ``gimel.linalg``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [f"{module}.{alias.name}" for alias in node.names] + [module]
        else:
            continue
        if any(n == "gimel.linalg" or n.startswith("gimel.linalg.") for n in names):
            found.append(node.lineno)
    return found


def test_linalg_import_scan():
    src = "import gimel.linalg\nfrom gimel import linalg\nfrom gimel.linalg import rref\nfrom gimel import ring\n"
    assert linalg_imports(src) == [1, 2, 3]


def test_oracles_share_no_elimination_with_the_package():
    """The oracles in conftest.py eliminate with their own code."""
    assert linalg_imports((ROOT / "tests" / "conftest.py").read_text(encoding="utf-8")) == []


def private_imports(source: str):
    """Lines of the import statements that take an underscore-prefixed
    module or name from ``gimel``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            paths = [node.module.split(".") + [alias.name] for alias in node.names]
        else:
            continue
        if any(p[0] == "gimel" and any(n.startswith("_") for n in p[1:]) for p in paths):
            found.append(node.lineno)
    return found


def test_private_import_scan():
    src = (
        "from gimel.filtration import ScalarComplex, _top\n"
        "from gimel import _private\n"
        "import gimel._module\n"
        "from gimel._module import name\n"
        "from gimel.ring import exact\n"
        "from os import _exit\n"
        "import gimel.linalg\n"
    )
    assert private_imports(src) == [1, 2, 3, 4]


def test_oracles_import_no_private_name_of_the_package():
    """The oracles in conftest.py use only the package's public names."""
    assert private_imports((ROOT / "tests" / "conftest.py").read_text(encoding="utf-8")) == []
