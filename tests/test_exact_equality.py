"""Ring values have one equality: == (or !=), decided by one float
separation test and the exact normal form.

CosSum.__eq__ is the one place that tests a difference for zero.  A call
of .is_zero() on a sum or difference, or compare(...) or
compare_tuples(...) tested against 0 with == or !=, written anywhere else
under src/ would be a second copy of that decision.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARES = {"compare", "compare_tuples"}


def _called(node):
    """The called name of a call node, or None."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _is_zero_literal(node):
    return isinstance(node, ast.Constant) and node.value == 0 and not isinstance(node.value, bool)


def _kind(node):
    """"is_zero" or "compare" when node writes out a second equality."""
    if (_called(node) == "is_zero" and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.BinOp)
            and isinstance(node.func.value.op, (ast.Add, ast.Sub))):
        return "is_zero"
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, sides, sides[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                _called(a) in COMPARES and _is_zero_literal(b)
                for a, b in ((left, right), (right, left))
            ):
                return "compare"
    return None


def second_equalities(source: str) -> list:
    """(enclosing function, line, kind) of every second equality; the
    difference test inside CosSum.__eq__ is the one allowed."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        kind = _kind(node)
        if kind and not (kind == "is_zero" and scope[-2:] == ("CosSum", "__eq__")):
            out.append((scope[-1] if scope else "<module>", node.lineno, kind))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def test_checker_flags_second_equalities_only():
    src = (
        "class CosSum:\n"
        "    def __eq__(self, o):\n"
        "        return (self - o).is_zero()\n"
        "    def other(self, o):\n"
        "        return (self + o).is_zero() or self.is_zero() or f(o).is_zero()\n"
        "def f(a, b, t):\n"
        "    x = (a - b).is_zero(), compare(a, b) == 0, 0 != t.compare_tuples(a, b)\n"
        "    y = compare(a, b) < 0, compare(a, b) == 1, a == b, a != b, d.is_zero()\n"
        "    z = 1 < compare_tuples(a, b) != 0\n"
        "class Other:\n"
        "    def __eq__(self, o):\n"
        "        return (self - o).is_zero()\n"
        "w = compare(1, 2) != 0\n"
    )
    assert second_equalities(src) == [
        ("other", 5, "is_zero"), ("f", 7, "is_zero"), ("f", 7, "compare"),
        ("f", 7, "compare"), ("f", 9, "compare"), ("__eq__", 12, "is_zero"),
        ("<module>", 13, "compare"),
    ]


def test_ring_equality_has_one_source():
    found = [
        (str(p.relative_to(ROOT / "src")), func, line, kind)
        for p in sorted((ROOT / "src").rglob("*.py"))
        for func, line, kind in second_equalities(p.read_text())
    ]
    assert found == []
