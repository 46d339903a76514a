"""The mixed-radix layout of the configuration index has one source.

_kernels.LAYOUTS names each class's index axes.  A product of their
sizes written out as a number under src/ (961 = 31^2, 6889 = 83^2,
29791 = 31^3, 213559 = 31 * 83^2) would be a second copy of the layout.
"""

import ast
import math
from pathlib import Path

from fricke_orbits import _kernels
from fricke_orbits.orbit_search import get_search_tables

ROOT = Path(__file__).resolve().parent.parent
RADICES = {961, 6889, 29791, 213559}


def radix_literals(source: str) -> list:
    """(line, value) of every numeric literal in source equal to a radix."""
    return sorted(
        (n.lineno, n.value) for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Constant) and type(n.value) in (int, float) and n.value in RADICES
    )


def test_checker_flags_numbers_only():
    src = "a = 961\nb = '6889'\nc = 29791.0\nd = 31 ** 3\n# 213559\n"
    assert radix_literals(src) == [(1, 961), (3, 29791.0)]


def test_radices_are_the_layout_products():
    kt = get_search_tables().kernel
    per_row = {
        cls: math.prod(len(kt.dicts[d]) for _, d in _kernels.LAYOUTS[cls].axes)
        for cls in (1, 2, 3, 4)
    }
    assert per_row == {1: 29791, 2: 6889, 3: 213559, 4: 83}
    assert {31 * 31, 83 * 83} | (set(per_row.values()) - {83}) == RADICES


def test_no_radix_literal_in_src():
    found = [
        (str(p.relative_to(ROOT)), line, value)
        for p in sorted((ROOT / "src").rglob("*.py"))
        for line, value in radix_literals(p.read_text())
    ]
    assert found == []
