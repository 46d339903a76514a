"""CosSum keeps its coefficients as integer numerators _t over one common
denominator _q, and only trig_field reads those fields: every other module
goes through the ring operations or the Fraction view `terms`.  The one
reader outside is fricke_action._tame, which tests coefficient sizes on
every apply.  Inside CosSum, sums, negation, products and _finish run on
ints alone and call no Fraction constructor.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = {"_t", "_q"}
ALLOWED = ("fricke_action.py", "_tame")
INT_ONLY = ("__add__", "__sub__", "__neg__", "__mul__", "_plus", "_finish")


def _walk(source: str):
    """(enclosing scopes, node) of every node of the module."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        out.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def field_reads(source: str) -> list:
    """(enclosing function, line) of every attribute ._t or ._q."""
    return [(scope[-1] if scope else "<module>", node.lineno)
            for scope, node in _walk(source)
            if isinstance(node, ast.Attribute) and node.attr in FIELDS]


def fraction_calls(source: str, cls: str, methods) -> list:
    """(method, line) of every call of Fraction or fractions.Fraction in the
    given methods of class cls."""
    out = []
    for scope, node in _walk(source):
        if (len(scope) >= 2 and scope[0] == cls and scope[1] in methods
                and isinstance(node, ast.Call)):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "Fraction") or (
                    isinstance(f, ast.Attribute) and f.attr == "Fraction"):
                out.append((scope[1], node.lineno))
    return out


def _methods(source: str, cls: str) -> set:
    return {scope[1] for scope, node in _walk(source)
            if len(scope) == 2 and scope[0] == cls and isinstance(node, ast.FunctionDef)}


def test_checkers_flag_field_reads_and_fraction_calls():
    src = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "def peek(v):\n"
        "    return v._t, v._q, v.terms, v._float\n"
        "class CosSum:\n"
        "    def __add__(self, o):\n"
        "        return Fraction(1) + fractions.Fraction(2, 3)\n"
        "    def terms(self):\n"
        "        return Fraction(self._q)\n"
        "Q = CosSum()._q\n"
    )
    assert field_reads(src) == [("peek", 4), ("peek", 4), ("terms", 9), ("<module>", 10)]
    assert fraction_calls(src, "CosSum", INT_ONLY) == [("__add__", 7), ("__add__", 7)]


def test_only_trig_field_and_tame_read_the_numerators():
    found = [
        (p.name, func, line)
        for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "trig_field.py"
        for func, line in field_reads(p.read_text())
    ]
    assert [f for f in found if f[:2] != ALLOWED] == []
    assert {f[:2] for f in found} == {ALLOWED}


def test_ring_arithmetic_builds_no_fraction():
    source = (ROOT / "src" / "fricke_orbits" / "trig_field.py").read_text()
    assert set(INT_ONLY) <= _methods(source, "CosSum")
    assert fraction_calls(source, "CosSum", INT_ONLY) == []
