"""The surface relation and the parameter map have one source each.

fricke_action.omega4_of holds the cubic X*Y*Z + X^2 + Y^2 + Z^2 - wX*X -
wY*Y - wZ*Z + w4 = 4, and fricke_action.omega_of_traces the map from the
traces (px, py, pz, pinf) to (wX, wY, wZ, w4).  A product of the three
coordinates, a product of the four traces, or a parameter sum a*b + c*d
over the four traces written out anywhere else under src/ would be a
second copy of one of them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COORDS = ["x", "y", "z"]
TRACES = {"px": "px", "py": "py", "pz": "pz", "pinf": "pinf", "pi": "pinf"}


def _factors(node):
    """The factors of a product chain a * b * ..., or [node] for a non-product."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    return [node]


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _kind(node):
    """"XYZ", "p4" or "w" when node writes out one of the formulas' products."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        names = [_name(f) for f in _factors(node) if not isinstance(f, ast.Constant)]
        if sorted(str(n).lower() for n in names) == COORDS:
            return "XYZ"
        if sorted(TRACES.get(n, "") for n in names) == ["pinf", "px", "py", "pz"]:
            return "p4"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        sides = [_factors(node.left), _factors(node.right)]
        names = [TRACES.get(_name(f), "") for side in sides for f in side]
        if all(len(side) == 2 for side in sides) and sorted(names) == ["pinf", "px", "py", "pz"]:
            return "w"
    return None


def formula_products(source: str) -> list:
    """(enclosing function, line, kind) of every written-out product."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        kind = _kind(node)
        if kind:
            # a product inside a flagged one is part of the same copy
            out.append((func, node.lineno, kind))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return out


def test_checker_flags_written_out_products_only():
    src = (
        "def f(X, Y, Z, s, p, px, py, pz, pi, wx, wy, wz):\n"
        "    a = X * Y * Z + 2 * x * (y * z)\n"
        "    b = s.Z * s.X * s.Y * 4\n"
        "    c = X * Y + Z, 'X * Y * Z', wx * wy * wz\n"
        "    d = p.px * p.py * p.pz * p.pinf\n"
        "    e = px * pi + py * pz\n"
        "    g = py * pz - X, px * px + py * py, px * py * pz\n"
        "# X * Y * Z\n"
        "h = pz * px + pi * py\n"
    )
    assert formula_products(src) == [
        ("f", 2, "XYZ"), ("f", 2, "XYZ"), ("f", 3, "XYZ"), ("f", 5, "p4"), ("f", 6, "w"),
        ("<module>", 9, "w"),
    ]


def test_formulas_are_written_out_only_in_their_source():
    found = [
        (str(p.relative_to(ROOT / "src")), func, kind)
        for p in sorted((ROOT / "src").rglob("*.py"))
        for func, _, kind in formula_products(p.read_text())
    ]
    source = "fricke_orbits/fricke_action.py"
    assert found == [
        (source, "omega4_of", "XYZ"),
        (source, "omega_of_traces", "w"),
        (source, "omega_of_traces", "w"),
        (source, "omega_of_traces", "w"),
        (source, "omega_of_traces", "p4"),
    ]
