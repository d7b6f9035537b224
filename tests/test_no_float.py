"""The package computes in exact integers and rationals only.

A static scan of every module under src/segreals: no float literal, no
call to float() or round(), no true division operator, and nothing from
`math` beyond its exact integer functions.  Certification rests on
exact arithmetic, so a float anywhere is a bug even when tests pass.
"""

import ast
from pathlib import Path

import pytest

import segreals

MODULES = sorted(Path(segreals.__file__).parent.glob("*.py"))
INTEGER_MATH = {"isqrt", "gcd", "lcm"}


def float_uses(tree: ast.AST) -> list[str]:
    """Each forbidden construct in the tree, as 'line: what'."""
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "round"):
            what = f"call to {node.func.id}()"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division '/'"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and node.attr not in INTEGER_MATH:
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = {alias.name for alias in node.names} - INTEGER_MATH
            if names:
                what = f"from math import {', '.join(sorted(names))}"
        if what:
            found.append(f"{node.lineno}: {what}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_float(path):
    assert float_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_modules_found():
    assert {"cut.py", "qpos.py", "approx.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "y = float(3)",
    "z = round(7, 2)",
    "w = 1 / 2",
    "v /= 2",
    "import math\nu = math.sqrt(2)",
    "from math import log",
])
def test_scan_catches(source):
    assert float_uses(ast.parse(source))


def test_scan_allows_integer_arithmetic():
    source = "import math\nq = 7 // 2\nr = math.isqrt(10) + math.gcd(4, 6) + math.lcm(2, 3)"
    assert float_uses(ast.parse(source)) == []
