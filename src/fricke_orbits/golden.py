"""Bundled reference data for the 45 exceptional finite orbits.

Each entry records the orbit size, the parameter triple (wX, wY, wZ)
together with the value 4 - w4, a representative point given through its
angle triple (rX, rY, rZ) -- the point itself being
(2cos(pi rX), 2cos(pi rY), 2cos(pi rZ)) -- and the rational 4-tuple of
PVI parameters (tx, ty, tz, tinf) whose trace data reproduces the same
parameter triple up to equivalence.

All non-rational entries are exact elements of the cosine ring, written
in terms of g = 2cos(pi/5) (so sqrt5 = 2g - 1), sqrt2 = 2cos(pi/4) and
2cos(2pi k/7).  The verify pipeline compares search output against this
table; nothing here is derived at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .trig_field import CosSum, cos_value, from_rational

__all__ = ["GoldenRow", "GOLDEN_ROWS", "golden_row"]


def _C(num: int, den: int) -> CosSum:
    return cos_value(num, den)


def _R(num: int, den: int = 1) -> CosSum:
    return from_rational(Fraction(num, den))


# 2cos(pi/5) = (1+sqrt5)/2, the golden ratio.
_G = _C(1, 5)
_SQRT2 = _C(1, 4)


@dataclass(frozen=True)
class GoldenRow:
    idx: int
    size: int
    omega: Tuple[CosSum, CosSum, CosSum]
    four_minus_omega4: CosSum
    rep_angles: Tuple[Fraction, Fraction, Fraction]
    theta: Tuple[Fraction, Fraction, Fraction, Fraction]

    @property
    def omega4(self) -> CosSum:
        return _R(4) - self.four_minus_omega4

    @property
    def rep_point(self) -> Tuple[CosSum, CosSum, CosSum]:
        return tuple(cos_value(a) for a in self.rep_angles)  # type: ignore[return-value]


def _fr(num: int, den: int = 1) -> Fraction:
    return Fraction(num, den)


def _row(idx, size, wx, wy, wz, fm4, rep, theta) -> GoldenRow:
    conv = lambda v: v if isinstance(v, CosSum) else _R(v)
    return GoldenRow(
        idx,
        size,
        (conv(wx), conv(wy), conv(wz)),
        conv(fm4),
        tuple(_fr(*t) for t in rep),  # type: ignore[arg-type]
        tuple(_fr(*t) for t in theta),  # type: ignore[arg-type]
    )


GOLDEN_ROWS: Tuple[GoldenRow, ...] = (
    _row(1, 5, 0, 1, 1, 0, ((2, 3), (1, 3), (1, 3)), ((2, 5), (1, 5), (1, 3), (2, 3))),
    _row(2, 5, 3, 2, 2, -3, ((1, 3), (1, 3), (1, 3)), ((1, 5), (2, 5), (1, 5), (2, 5))),
    _row(3, 6, 1, 0, 0, 2, ((1, 2), (1, 3), (1, 3)), ((1, 2), (1, 3), (1, 3), (1, 2))),
    _row(4, 6, _SQRT2, 0, 0, 1, ((1, 4), (1, 3), (3, 4)), ((1, 2), (1, 4), (1, 2), (2, 3))),
    _row(5, 6, 3, 2 * _SQRT2, 2 * _SQRT2, -4, ((1, 2), (1, 4), (1, 4)), ((1, 4), (1, 4), (1, 3), (1, 3))),
    _row(6, 6, 2 - 2 * _G, 2 - _G, 2 - _G, 2 * _G - 3, ((4, 5), (1, 3), (1, 3)), ((2, 5), (1, 5), (2, 5), (2, 3))),
    _row(7, 6, 2 * _G, 1 + _G, 1 + _G, -1 - 2 * _G, ((2, 5), (1, 3), (1, 3)), ((1, 5), (2, 5), (1, 5), (1, 3))),
    _row(8, 7, 1, 1, 1, 0, ((1, 2), (1, 2), (1, 2)), ((2, 7), (2, 7), (2, 7), (4, 7))),
    _row(9, 8, 2, 0, 0, 0, ((0, 1), (1, 3), (2, 3)), ((1, 4), (1, 2), (1, 4), (1, 2))),
    _row(10, 8, 1, _SQRT2, _SQRT2, 0, ((1, 2), (1, 2), (1, 2)), ((1, 3), (1, 2), (1, 4), (2, 3))),
    _row(11, 8, 1 + _G, 1, 1, -_G, ((1, 3), (1, 2), (1, 2)), ((1, 2), (1, 5), (2, 5), (4, 5))),
    _row(12, 8, 2 - _G, 1, 1, _G - 1, ((1, 3), (1, 2), (1, 2)), ((2, 5), (1, 2), (2, 5), (4, 5))),
    _row(13, 9, 3 - 2 * _G, 3 - 2 * _G, 3 - 2 * _G, 5 * _G - 6, ((4, 5), (3, 5), (3, 5)), ((2, 5), (2, 5), (2, 5), (2, 3))),
    _row(14, 9, 1 + 2 * _G, 1 + 2 * _G, 1 + 2 * _G, -5 * _G - 1, ((2, 5), (1, 5), (1, 5)), ((1, 5), (1, 5), (1, 5), (1, 3))),
    _row(15, 10, 1, 0, 0, 1, ((1, 3), (1, 3), (2, 3)), ((1, 2), (1, 5), (1, 2), (3, 5))),
    _row(16, 10, 4 - 2 * _G, 4 - 2 * _G, 4 - 2 * _G, 7 * _G - 9, ((3, 5), (3, 5), (3, 5)), ((0, 1), (0, 1), (0, 1), (-4, 5))),
    _row(17, 10, 2 + 2 * _G, 2 + 2 * _G, 2 + 2 * _G, -7 * _G - 2, ((1, 5), (1, 5), (1, 5)), ((0, 1), (0, 1), (0, 1), (-2, 5))),
    _row(18, 10, 1 - _G, 1 - _G, 1 - _G, 0, ((1, 2), (1, 2), (1, 2)), ((1, 3), (1, 3), (1, 3), (4, 5))),
    _row(19, 10, _G, _G, _G, 0, ((1, 2), (1, 2), (1, 2)), ((1, 3), (1, 3), (1, 3), (2, 5))),
    _row(20, 12, 0, 0, 0, 3, ((2, 3), (1, 4), (1, 4)), ((1, 2), (1, 2), (1, 2), (2, 3))),
    _row(21, 12, 1, 0, 0, 2, ((0, 1), (1, 4), (3, 4)), ((1, 3), (1, 2), (1, 2), (2, 3))),
    _row(22, 12, 2, 2 * _G - 1, 2 * _G - 1, -2, ((1, 5), (2, 5), (2, 5)), ((1, 3), (1, 3), (1, 5), (2, 5))),
    _row(23, 12, 1 + _G, _G, _G, 1 - 2 * _G, ((2, 5), (2, 5), (2, 5)), ((1, 5), (1, 5), (1, 3), (1, 2))),
    _row(24, 12, 2 - _G, 1 - _G, 1 - _G, 2 * _G - 1, ((4, 5), (4, 5), (4, 5)), ((2, 5), (2, 5), (1, 3), (1, 2))),
    _row(25, 12, _G, _G - 1, 1, 0, ((1, 2), (1, 2), (1, 2)), ((2, 5), (1, 3), (1, 2), (4, 5))),
    _row(26, 15, 2 - _G, 2 - _G, 2 - _G, 2 * _G - 2, ((1, 2), (3, 5), (3, 5)), ((1, 3), (1, 3), (1, 3), (3, 5))),
    _row(27, 15, 1 + _G, 1 + _G, 1 + _G, -2 * _G, ((1, 2), (1, 5), (1, 5)), ((1, 3), (1, 3), (1, 3), (1, 5))),
    _row(28, 15, 3 - _G, 2 - 2 * _G, 2 - 2 * _G, 3 * _G - 4, ((3, 5), (4, 5), (4, 5)), ((3, 5), (3, 5), (2, 3), (2, 3))),
    _row(29, 15, 2 + _G, 2 * _G, 2 * _G, -3 * _G - 1, ((1, 5), (2, 5), (2, 5)), ((1, 3), (1, 3), (4, 5), (4, 5))),
    _row(30, 16, 0, 0, 0, 2, ((2, 3), (2, 3), (2, 3)), ((1, 2), (1, 2), (1, 2), (3, 4))),
    _row(31, 18, 2, 2, 2, -1, ((0, 1), (1, 5), (3, 5)), ((1, 3), (1, 3), (1, 3), (1, 3))),
    _row(32, 18, 1 - _C(2, 7), 1 - _C(2, 7), 1 - _C(2, 7), 2 * _C(2, 7), ((6, 7), (5, 7), (5, 7)), ((4, 7), (4, 7), (4, 7), (1, 3))),
    _row(33, 18, 1 - _C(4, 7), 1 - _C(4, 7), 1 - _C(4, 7), 2 * _C(4, 7), ((2, 7), (3, 7), (3, 7)), ((1, 3), (1, 7), (1, 7), (6, 7))),
    _row(34, 18, 1 - _C(6, 7), 1 - _C(6, 7), 1 - _C(6, 7), 2 * _C(6, 7), ((4, 7), (1, 7), (1, 7)), ((2, 7), (2, 7), (2, 7), (1, 3))),
    _row(35, 20, 2 - _G, 0, 0, 2 * _G, ((0, 1), (1, 3), (2, 3)), ((0, 1), (0, 1), (1, 10), (9, 10))),
    _row(36, 20, 1 + _G, 0, 0, 2 - 2 * _G, ((0, 1), (1, 3), (2, 3)), ((0, 1), (0, 1), (3, 10), (7, 10))),
    _row(37, 20, 1, 1 - _G, 1 - _G, _G, ((2, 3), (3, 5), (3, 5)), ((1, 3), (1, 3), (1, 2), (2, 5))),
    _row(38, 20, 1, _G, _G, 1 - _G, ((2, 3), (1, 5), (1, 5)), ((1, 3), (1, 3), (1, 2), (4, 5))),
    _row(39, 24, 1, 1, 1, 1, ((1, 5), (1, 2), (1, 2)), ((1, 3), (1, 3), (1, 3), (1, 2))),
    _row(40, 30, -_G, 0, 0, 2 - _G, ((2, 3), (2, 3), (2, 3)), ((1, 15), (1, 15), (7, 30), (23, 30))),
    _row(41, 30, _G - 1, 0, 0, 1 + _G, ((2, 3), (2, 3), (2, 3)), ((2, 15), (2, 15), (1, 30), (29, 30))),
    _row(42, 36, 1, 0, 0, 2, ((0, 1), (1, 5), (4, 5)), ((0, 1), (0, 1), (1, 6), (5, 6))),
    _row(43, 40, 0, 0, 0, 3 - _G, ((2, 5), (2, 5), (2, 5)), ((3, 20), (3, 20), (3, 20), (17, 20))),
    _row(44, 40, 0, 0, 0, 2 + _G, ((4, 5), (4, 5), (4, 5)), ((1, 20), (1, 20), (1, 20), (19, 20))),
    _row(45, 72, 0, 0, 0, 3, ((1, 2), (1, 5), (2, 5)), ((1, 12), (1, 12), (1, 12), (11, 12))),
)


def golden_row(idx: int) -> GoldenRow:
    if not 1 <= idx <= len(GOLDEN_ROWS):
        raise ValueError(f"orbit index must lie in 1..{len(GOLDEN_ROWS)}, got {idx}")
    row = GOLDEN_ROWS[idx - 1]
    if row.idx != idx:  # pragma: no cover - table ordering is fixed
        raise ValueError("reference table out of order")
    return row

