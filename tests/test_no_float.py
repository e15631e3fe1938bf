"""No floating point in the package: arithmetic stays exact.

The check reads each file's syntax tree and fails on a float literal or a
call of ``float``.  The one exemption is ``cli.plot_cmd``, which writes the
plot CSV in decimal.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gimel"
EXEMPT = {("cli.py", "plot_cmd")}


def float_uses(source: str, filename: str):
    """(line, what) for each float literal or float() call outside the
    exempt functions of this file."""
    found = []

    def visit(node, skip):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skip = skip or (filename, node.name) in EXEMPT
        if not skip:
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append((node.lineno, repr(node.value)))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append((node.lineno, "float()"))
        for child in ast.iter_child_nodes(node):
            visit(child, skip)

    visit(ast.parse(source), False)
    return sorted(found)


def test_scan_finds_floats():
    src = (
        "x = 0.5\n"
        "def f(v):\n    return float(v) + 1e3\n"
        "def plot_cmd(v):\n    return float(v) * 0.5\n"
    )
    assert float_uses(src, "other.py") == [
        (1, "0.5"), (3, "1000.0"), (3, "float()"), (5, "0.5"), (5, "float()")
    ]
    assert float_uses(src, "cli.py") == [(1, "0.5"), (3, "1000.0"), (3, "float()")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_in_package(path):
    assert float_uses(path.read_text(encoding="utf-8"), path.name) == []
