"""Rational vanishing sums of cosines, sum_j cos(2*pi*phi_j) = 0, for n <= 6.

A tuple is irreducible when no proper nonempty subset also sums to zero.
Tuples are considered up to permutations, per-coordinate phi -> 1-phi, and the
simultaneous change phi_j -> 1/2-phi_j; the canonical representative folds
every coordinate into [0, 1/2], sorts, and takes the lexicographic minimum of
the tuple and its folded simultaneous image.

Up to this equivalence the irreducible tuples fall into four infinite
one-parameter families (pairs II_phi; triples III_phi; five- and six-term
progressions V_phi, VI_phi built on fifths) plus finitely many sporadic
tuples: one triple III_1, four quadruples IV, seven 5-tuples (V_1, V_2, V_3)
and thirteen 6-tuples (VI_1 .. VI_5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Set, Tuple, Union

from .trig_field import CosSum, _fold, cos_value, from_rational

Phi = Tuple[Fraction, ...]


class BudgetExceeded(ValueError):
    """Enumeration visited more candidates than the configured limit."""


@dataclass(frozen=True)
class PhiTuple:
    phis: Phi
    irreducible: bool
    family: str


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def fold_half(q) -> Fraction:
    """Reduce an angle to [0, 1/2] using cos(2*pi*q) = cos(2*pi*(1-q))."""
    return _fold(2 * _frac(q)) / 2


def canonicalize(t: Iterable) -> Phi:
    folded = tuple(sorted(fold_half(q) for q in t))
    flipped = tuple(sorted(fold_half(Fraction(1, 2) - q) for q in folded))
    return min(folded, flipped)


def cos2pi_sum(t: Iterable) -> CosSum:
    """Exact value of sum_j cos(2*pi*phi_j) in the cosine ring."""
    acc = from_rational(0)
    for q in t:
        q = _frac(q) % 1
        acc = acc + cos_value(2 * q.numerator, q.denominator) * Fraction(1, 2)
    return acc


def is_irreducible(t: Iterable) -> bool:
    """No proper nonempty subset vanishes (the tuple itself must vanish)."""
    t = [_frac(q) for q in t]
    n = len(t)
    vals = [math.cos(2 * math.pi * float(q)) for q in t]
    # a subset vanishes iff its complement does, so half the masks suffice
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        if size > n // 2 or (2 * size == n and not mask & 1):
            continue
        if size == n:
            continue
        fsum = sum(vals[i] for i in range(n) if mask >> i & 1)
        if abs(fsum) > 1e-7:
            continue
        sub = [t[i] for i in range(n) if mask >> i & 1]
        if cos2pi_sum(sub).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# family membership
# ---------------------------------------------------------------------------

def _f(a, b) -> Fraction:
    return Fraction(a, b)


_SPORADIC: Dict[str, List[Tuple[Fraction, ...]]] = {
    "III_1": [(_f(1, 10), _f(3, 10), _f(1, 3))],
    "IV": [
        (_f(0, 1), _f(1, 5), _f(1, 3), _f(2, 5)),
        (_f(1, 30), _f(1, 6), _f(11, 30), _f(2, 5)),
        (_f(1, 15), _f(4, 15), _f(3, 10), _f(1, 3)),
        (_f(1, 7), _f(2, 7), _f(3, 7), _f(1, 6)),
    ],
    "V_1": [
        (_f(0, 1), _f(1, 30), _f(1, 3), _f(11, 30), _f(2, 5)),
        (_f(0, 1), _f(1, 5), _f(7, 30), _f(1, 3), _f(13, 30)),
    ],
    "V_2": [
        (_f(L, 7) + _f(1, 6), _f(L, 7) - _f(1, 6), _f(2 * L, 7),
         _f(3 * L, 7), _f(1, 6))
        for L in (1, 2, 3)
    ],
    "V_3": [
        (_f(1, 7), _f(2, 7), _f(3, 7), _f(0, 1), _f(1, 3)),
        (_f(1, 7), _f(2, 7), _f(3, 7), _f(1, 10), _f(3, 10)),
    ],
    "VI_1": [(_f(1, 11), _f(2, 11), _f(3, 11), _f(4, 11), _f(5, 11),
              _f(1, 6))],
    "VI_2": [
        (_f(L, 7) + _f(1, 6), _f(L, 7) - _f(1, 6), _f(2 * L, 7),
         _f(3 * L, 7), _f(0, 1), _f(1, 3))
        for L in (1, 2, 3)
    ],
    "VI_3": [
        (_f(L, 7) + _f(1, 6), _f(L, 7) - _f(1, 6), _f(2 * L, 7),
         _f(3 * L, 7), _f(1, 10), _f(3, 10))
        for L in (1, 2, 3)
    ],
    "VI_4": [
        (_f(L, 7) + _f(1, 6), _f(L, 7) - _f(1, 6), _f(2 * L, 7) + _f(1, 6),
         _f(2 * L, 7) - _f(1, 6), _f(3 * L, 7), _f(1, 6))
        for L in (1, 2, 3)
    ],
    "VI_5": [
        (_f(1, 7), _f(2, 7), _f(3, 7), _f(0, 1), _f(1, 5), _f(2, 5)),
        (_f(1, 7), _f(2, 7), _f(3, 7), _f(1, 15), _f(4, 15), _f(3, 10)),
        (_f(1, 7), _f(2, 7), _f(3, 7), _f(1, 10), _f(2, 15), _f(7, 15)),
    ],
}

_SPORADIC_CANONICAL: Dict[str, Set[Phi]] = {
    tag: {canonicalize(t) for t in rows} for tag, rows in _SPORADIC.items()
}

_SHIFT_OFFSETS: Dict[str, Tuple[Fraction, ...]] = {
    "III_phi": (_f(0, 1), _f(1, 3), _f(-1, 3)),
    "V_phi": (_f(0, 1), _f(1, 5), _f(2, 5), _f(3, 5), _f(4, 5)),
    "VI_phi": (_f(1, 6), _f(-1, 6), _f(1, 5), _f(2, 5), _f(3, 5), _f(4, 5)),
}


def _matches_shift_family(t: Phi, offsets: Tuple[Fraction, ...]) -> bool:
    half = Fraction(1, 2)
    for ti in set(t):
        for o in set(offsets):
            for phi in (ti - o, 1 - ti - o, half - ti - o, half + ti - o):
                if canonicalize(phi + off for off in offsets) == t:
                    return True
    return False


def family_tag(t: Iterable) -> str:
    """Classify a canonical irreducible vanishing tuple."""
    t = canonicalize(t)
    n = len(t)
    if n == 2:
        return "II_phi" if t[0] + t[1] == Fraction(1, 2) else "other"
    if n == 3:
        if t in _SPORADIC_CANONICAL["III_1"]:
            return "III_1"
        if _matches_shift_family(t, _SHIFT_OFFSETS["III_phi"]):
            return "III_phi"
        return "other"
    if n == 4:
        return "IV" if t in _SPORADIC_CANONICAL["IV"] else "other"
    if n == 5:
        for tag in ("V_1", "V_2", "V_3"):
            if t in _SPORADIC_CANONICAL[tag]:
                return tag
        if _matches_shift_family(t, _SHIFT_OFFSETS["V_phi"]):
            return "V_phi"
        return "other"
    if n == 6:
        for tag in ("VI_1", "VI_2", "VI_3", "VI_4", "VI_5"):
            if t in _SPORADIC_CANONICAL[tag]:
                return tag
        if _matches_shift_family(t, _SHIFT_OFFSETS["VI_phi"]):
            return "VI_phi"
        return "other"
    return "other"


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

DenSpec = Union[int, Iterable[int]]


def _allowed_dens(den_bound: DenSpec) -> List[int]:
    if isinstance(den_bound, int):
        return list(range(1, den_bound + 1))
    return sorted(set(int(d) for d in den_bound))


def build_values(den_bound: DenSpec) -> List[Fraction]:
    """All reduced fractions in [0, 1/2] with an allowed denominator."""
    dens = set(_allowed_dens(den_bound))
    out = {Fraction(0)} if 1 in dens else set()
    for d in dens:
        for a in range(1, d + 1):
            q = Fraction(a, d)
            if 2 * q <= 1 and q.denominator in dens:
                out.add(q)
    return sorted(out)


_TOL = 1e-9


def enumerate_vanishing(n: int, den_bound: DenSpec,
                        budget: int = 50_000_000) -> List[PhiTuple]:
    """All canonical irreducible vanishing n-tuples over the given
    denominators, in deterministic (sorted) order.

    Candidates come from a pruned search over sorted tuples with float
    partial sums; every survivor is confirmed exactly.
    """
    if not 2 <= n <= 6:
        raise ValueError("n must be between 2 and 6")
    vals = build_values(den_bound)
    m = len(vals)
    cosv = [math.cos(2 * math.pi * float(q)) for q in vals]  # descending
    nodes = 0
    found: Dict[Phi, PhiTuple] = {}

    def confirm(idx: Sequence[int]) -> None:
        t = [vals[i] for i in idx]
        # reducibility first: its subset checks stay at small denominator
        # levels, while a full-sum exact check on a reducible mixed-
        # denominator tuple could be needlessly expensive
        if not is_irreducible(t):
            return
        if not cos2pi_sum(t).is_zero():
            return
        c = canonicalize(t)
        if c not in found:
            found[c] = PhiTuple(c, True, family_tag(c))

    def two_level(start: int, fsum: float, prefix: List[int]) -> None:
        nonlocal nodes
        lo, hi = start, m - 1
        while lo <= hi:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"more than {budget} candidates")
            t = fsum + cosv[lo] + cosv[hi]
            if t > _TOL:
                lo += 1
            elif t < -_TOL:
                hi -= 1
            else:
                # collect the whole tolerance plateau below hi for this lo
                j = hi
                while j >= lo and abs(fsum + cosv[lo] + cosv[j]) <= _TOL:
                    confirm(prefix + [lo, j])
                    j -= 1
                lo += 1

    def rec(start: int, depth: int, fsum: float, prefix: List[int]) -> None:
        nonlocal nodes
        remaining = n - depth
        if remaining == 2:
            two_level(start, fsum, prefix)
            return
        # the smallest admissible cosine: all remaining values are <= cosv[i],
        # so feasibility needs fsum + remaining*cosv[i] >= -TOL eventually and
        # fsum + cosv[i] - (remaining-1) <= TOL
        lo, hi = start, m
        while lo < hi:
            mid = (lo + hi) // 2
            if fsum + cosv[mid] - (remaining - 1) > _TOL:
                lo = mid + 1
            else:
                hi = mid
        for i in range(lo, m):
            c = cosv[i]
            if fsum + c + (remaining - 1) * c < -_TOL:
                break
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"more than {budget} candidates")
            prefix.append(i)
            rec(i, depth + 1, fsum + c, prefix)
            prefix.pop()

    rec(0, 0, 0.0, [])
    return [found[k] for k in sorted(found)]

