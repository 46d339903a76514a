"""The induced action of the three involutions on trace coordinates (X, Y, Z).

Each generator changes exactly one coordinate:

    x: X -> wX - X - Y*Z,   y: Y -> wY - Y - Z*X,   z: Z -> wZ - Z - X*Y,

where (wX, wY, wZ) are fixed surface parameters.  Orbits live on the cubic
surface X*Y*Z + X^2 + Y^2 + Z^2 - wX*X - wY*Y - wZ*Z + w4 = 4, whose
parameters come from the four local traces (px, py, pz, pinf) by

    wX = px*pinf + py*pz,   wY = py*pinf + pz*px,   wZ = pz*pinf + px*py,
    w4 = px^2 + py^2 + pz^2 + pinf^2 + px*py*pz*pinf.

omega4_of and omega_of_traces are the package's one copy of each
formula.  Two parameter triples related by coordinate
permutations combined with even sign flips (a K4 x S3 family of 24
transforms, w4 untouched) give equivalent orbit structures.

The module also handles 2-colored suborbits: the subgraph generated by two of
the three involutions.  A finite one is either a simple cycle of 2N points or
a line of N points with a self-loop at each end, where N is the period of the
two-step recursion on the moving coordinate pair; for N > 1 the frozen
coordinate must equal 2cos(pi*n/N) with gcd(n, N) = 1.
"""

from __future__ import annotations

import itertools
import math

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .trig_field import (
    CosSum, compare, cos_value, from_rational, level_of, separated, totient,
)

Point3 = Tuple[CosSum, CosSum, CosSum]


class Omega(NamedTuple):
    wx: CosSum
    wy: CosSum
    wz: CosSum
    w4: CosSum


def _conv(v) -> CosSum:
    return v if isinstance(v, CosSum) else from_rational(v)


def make_point(x, y, z) -> Point3:
    return (_conv(x), _conv(y), _conv(z))


def make_omega(wx, wy, wz, w4) -> Omega:
    return Omega(_conv(wx), _conv(wy), _conv(wz), _conv(w4))


# colors are indexed 0=x, 1=y, 2=z throughout
COLORS = "xyz"


def _tame(v: CosSum) -> CosSum:
    # iterated moves multiply coordinates, so representations can swell
    # until their float evaluation drifts; collapse a value with a
    # coefficient m/q whose lowest terms have a numerator or denominator
    # above 1024, read off the value's integer numerators m over its
    # common denominator q by g = gcd(m, q), or with more terms than
    # max(6, phi(2L)), L its level.  A normal form has at most phi(2L)
    # terms, so a collapse on the term count never adds any (one on a
    # large coefficient can); a few-term value at a high level is kept,
    # since its normal form is far denser (2cos(pi/3080) alone has 177
    # terms there)
    n, q = len(v._t), v._q
    if (n > 6 and n > totient(2 * level_of(v))) or any(
        abs(m) // g > 1024 or q // g > 1024 for _, m in v._t for g in (math.gcd(m, q),)
    ):
        return v.reduced()
    return v


def apply(g: str, p: Point3, w: Omega) -> Point3:
    X, Y, Z = p
    if g == "x":
        return (_tame(w.wx - X - Y * Z), Y, Z)
    if g == "y":
        return (X, _tame(w.wy - Y - Z * X), Z)
    if g == "z":
        return (X, Y, _tame(w.wz - Z - X * Y))
    raise ValueError(f"unknown generator {g!r}")


def omega4_of(p, wx, wy, wz):
    """The unique w4 putting p on the surface with parameters (wx, wy, wz);
    by + - * and an int literal only, so on CosSum, Fraction, QuadExt,
    floats and float arrays alike."""
    X, Y, Z = p
    return 4 + wx * X + wy * Y + wz * Z - (X * Y * Z + X * X + Y * Y + Z * Z)


def fricke_residual(p, w: Omega):
    """Surface residual w4 - omega4_of(p): zero exactly on the surface."""
    return w.w4 - omega4_of(p, w.wx, w.wy, w.wz)


def omega_of_traces(px, py, pz, pinf) -> Omega:
    """Surface parameters (wX, wY, wZ, w4) of the four local traces, on
    any ring as omega4_of."""
    return Omega(
        px * pinf + py * pz,
        py * pinf + pz * px,
        pz * pinf + px * py,
        px * px + py * py + pz * pz + pinf * pinf + px * py * pz * pinf,
    )


def points_equal(p: Point3, q: Point3) -> bool:
    """Exact equality of points: one float pass over all three coordinate
    pairs first, so a separated pair anywhere rejects before any exact
    work, then == on each pair."""
    if any(separated(a, b) for a, b in zip(p, q)):
        return False
    return all(a == b for a, b in zip(p, q))


class PointSet:
    """Set of exact points with near-constant membership tests.

    Points are bucketed by a quantized float key; the +-1 neighbor buckets are
    probed too, so equal values with different terms still collide.  A match
    is confirmed exactly, by terms alone where close_orbit stored both as one
    dictionary entry.
    """

    _SCALE = float(1 << 20)

    def __init__(self) -> None:
        self._buckets: Dict[Tuple[int, int, int], List[int]] = {}
        self.points: List[Point3] = []

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def _qkey(cls, p: Point3) -> Tuple[int, int, int]:
        return tuple(int(math.floor(c.float_value() * cls._SCALE)) for c in p)

    def find(self, p: Point3) -> Optional[int]:
        kx, ky, kz = self._qkey(p)
        for dx, dy, dz in itertools.product((0, -1, 1), repeat=3):
            for idx in self._buckets.get((kx + dx, ky + dy, kz + dz), ()):
                if points_equal(p, self.points[idx]):
                    return idx
        return None

    def add(self, p: Point3) -> int:
        idx = len(self.points)
        self.points.append(p)
        self._buckets.setdefault(self._qkey(p), []).append(idx)
        return idx


# ---------------------------------------------------------------------------
# parameter equivalences: 6 permutations x 4 even sign patterns
# ---------------------------------------------------------------------------

_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))

Equivalence = Tuple[Tuple[int, int, int], Tuple[int, int, int]]


def all_equivalences() -> Tuple[Equivalence, ...]:
    return tuple((perm, signs) for perm in _PERMS for signs in _SIGNS)


def equiv_transform(t: Equivalence, p: Point3, w: Omega) -> Tuple[Point3, Omega]:
    """Apply one of the 24 symmetries to a point and its parameters; w4 is
    invariant."""
    perm, signs = t
    new_p = tuple(p[perm[i]] * signs[i] for i in range(3))
    ws = (w.wx, w.wy, w.wz)
    new_w = tuple(ws[perm[i]] * signs[i] for i in range(3))
    return new_p, Omega(new_w[0], new_w[1], new_w[2], w.w4)


def canonical_key(points: Sequence[Point3], w: Omega) -> Tuple[CosSum, ...]:
    """Lexicographically minimal image over the 24 equivalences of
    (w4, w triple, sorted point list).

    Two complete orbits are equivalent iff their keys compare equal under the
    exact total order.

    Every entry of every image is w4, or +v or -v for a coordinate or
    parameter v.  Those values are sorted once under the exact total order
    `compare`, so equal values are adjacent and one comparison per
    neighbouring pair gives them one integer rank: ranks compare exactly as
    the values do.  Sorting points by rank tuples (stably, as the exact sort
    did) and taking the first minimal rank tuple in all_equivalences() order
    therefore picks the image the exact lexicographic comparison picks.
    Every image starts with w4 and its signed w triple, so only the images
    whose triple ranks least have their points ranked and sorted.  Its
    entries are the original objects for sign +1 and one cached -v for
    sign -1, which has the terms of v * -1, so the key is the same term for
    term as building every image and comparing entry by entry.
    """
    ws = (w.wx, w.wy, w.wz)
    objs = {id(v): v for v in itertools.chain(ws, *points)}
    negs = {k: -v for k, v in objs.items()}
    # in float order the list is sorted up to float ties, so the exact sort
    # runs in about one compare per value
    order = sorted([w.w4, *objs.values(), *negs.values()], key=float)
    order.sort(key=cmp_to_key(compare))
    rank = {id(order[0]): 0}
    r = 0
    for prev, v in zip(order, order[1:]):
        r += prev != v
        rank[id(v)] = r

    def signed(v: CosSum, s: int) -> CosSum:
        return v if s == 1 else negs[id(v)]

    prefix = {
        (perm, signs): [rank[id(signed(ws[perm[i]], signs[i]))] for i in range(3)]
        for perm, signs in all_equivalences()
    }
    least = min(prefix.values())
    best = best_t = None
    for (perm, signs), head in prefix.items():
        if head != least:
            continue
        tp = [tuple(rank[id(signed(p[perm[i]], signs[i]))] for i in range(3))
              for p in points]
        idx = sorted(range(len(points)), key=tp.__getitem__)
        cand = [c for j in idx for c in tp[j]]
        if best is None or cand < best:
            best, best_t = cand, (perm, signs, idx)
    perm, signs, idx = best_t
    key = [w.w4] + [signed(ws[perm[i]], signs[i]) for i in range(3)]
    for j in idx:
        key.extend(signed(points[j][perm[i]], signs[i]) for i in range(3))
    return tuple(key)


def keys_equal(a: Sequence[CosSum], b: Sequence[CosSum]) -> bool:
    # lengths first: tuple == would compare the entries before the lengths
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# 2-colored suborbits
# ---------------------------------------------------------------------------

PERIOD_CAP = 10082  # no finite suborbit of an in-range orbit is longer

_PAIRS = {"yz": (1, 2, 0), "xz": (0, 2, 1), "xy": (0, 1, 2)}


@dataclass(frozen=True)
class Suborbit:
    pair: str                 # the two moving colors, e.g. "yz"
    shape: str                # "cycle" or "line"
    points: Tuple[Point3, ...]
    length: int               # N: recursion period; cycle has 2N points, line N
    common: CosSum            # the frozen coordinate
    n_common: Optional[int]   # frozen = 2cos(pi*n_common/length) when length > 1


class Diverges(ValueError):
    """The suborbit (or orbit) is infinite or exceeds the search range."""


def cosine_angle(v: CosSum, max_den: int = PERIOD_CAP) -> Optional[Fraction]:
    """Return n/N in (0, 1) with v = 2cos(pi*n/N), or None.

    Candidate fractions come from the float arccos; each is tested with ==,
    whose float separation rejects a wrong candidate before any exact work,
    so limited precision can only yield a None for a denominator far beyond
    any finite suborbit in range.
    """
    fv = v.float_value()
    if abs(fv) >= 2 or v == 2 or v == -2:
        return None
    approx = math.acos(max(-1.0, min(1.0, fv / 2))) / math.pi
    seen = set()
    for den in (max_den, 5040, 144, 24):
        if den > max_den:
            continue
        q = Fraction(approx).limit_denominator(den)
        if q in seen or not 0 < q < 1:
            continue
        seen.add(q)
        if v == cos_value(q):
            return q
    return None


def _ray(p: Point3, img: Point3, w: Omega, colors: Tuple[str, str], cap: int,
         listed: int = 0) -> Tuple[List[Point3], bool]:
    """Walk from p, whose image by colors[0] is img, by colors[0], colors[1],
    colors[0], ...; return the points from p on in walk order and whether
    the walk came back to p (a cycle) rather than to a point the next color
    fixes (a line end).  Raises Diverges past cap points, counting listed
    points met before p."""
    pts = [p]
    a, b = colors
    while not points_equal(img, pts[-1]):
        if points_equal(img, p):
            return pts, True
        if listed + len(pts) >= cap:
            raise Diverges(f"suborbit exceeded {cap} points")
        pts.append(img)
        a, b = b, a
        img = apply(a, img, w)
    return pts, False


def suborbit(p: Point3, w: Omega, pair: str = "yz") -> Suborbit:
    """The suborbit of p under the two colors of pair, each point once.

    A cycle is listed in walk order from p, first color first; a line from
    the end nearer to p (the first color's end on a tie), away from its
    self-loop.
    """
    i1, i2, ifix = _PAIRS[pair]
    c1, c2 = COLORS[i1], COLORS[i2]
    common = p[ifix]

    q1 = apply(c1, p, w)
    q2 = apply(c2, p, w)
    if points_equal(q1, p) and points_equal(q2, p):
        # a point fixed by both colors; no constraint on the frozen coordinate
        return Suborbit(pair, "line", (p,), 1, common, None)

    frac = cosine_angle(common)
    if frac is None:
        raise Diverges(
            f"{pair}-suborbit is infinite: frozen coordinate is not of the "
            "form 2cos(pi*n/N) in range")
    n, length = frac.numerator, frac.denominator
    cap = 2 * length + 2
    side1, closed = _ray(p, q1, w, (c1, c2), cap)
    if closed:
        assert len(side1) == 2 * length, (len(side1), length)
        return Suborbit(pair, "cycle", tuple(side1), length, common, n)
    side2, _ = _ray(p, q2, w, (c2, c1), cap, len(side1) - 1)
    assert len(side1) + len(side2) - 1 == length, (len(side1), len(side2), length)
    near, far = (side1, side2) if len(side1) <= len(side2) else (side2, side1)
    return Suborbit(pair, "line", tuple(near[::-1] + far[1:]), length, common, n)


def double_step(vals: Tuple[CosSum, CosSum], fixed: CosSum,
                w1: CosSum, w2: CosSum) -> Tuple[CosSum, CosSum]:
    """One period step of the moving pair: first color then second."""
    a, b = vals
    a2 = w1 - a - fixed * b
    b2 = w2 - b - fixed * a2
    return a2, b2


def closed_form(fixed: CosSum, w1: CosSum, w2: CosSum,
                a0: CosSum, b0: CosSum, k: int) -> Tuple[CosSum, CosSum]:
    """Exact k-th iterate of double_step from (a0, b0).

    Generic branch (fixed != +-2): the step is a rotation by an angle lam
    with fixed = 2cos(lam/2), and the ratios sin(m*lam/2)/sin(lam/2) are
    Chebyshev polynomials in the frozen coordinate, so everything stays in
    the ring.  Degenerate branch (fixed = +-2): the iterate is polynomial
    in k.
    """
    f = fixed
    if f == 2 or f == -2:
        sign = 1 if f == 2 else -1
        wp_a = (w1 + sign * w2) * Fraction(1, 8)
        wm_a = w1 - sign * w2
        wp_b = (w2 + sign * w1) * Fraction(1, 8)
        wm_b = w2 - sign * w1
        part_a = wp_a - wm_a * Fraction(k, 2) + wm_a * (k * k)
        part_b = wp_b + wm_b * Fraction(k, 2) + wm_b * (k * k)
        alpha = a0 - wp_a
        beta = b0 - wp_b
        ak = alpha * (1 - 2 * k) + beta * (-sign * 2 * k) + part_a
        bk = alpha * (sign * 2 * k) + beta * (1 + 2 * k) + part_b
        return ak, bk

    # one reciprocal for both: from_rational(1) / denom keeps a rational
    # denom on its rational path and inverts any other once
    recip = from_rational(1) / (from_rational(4) - f * f)
    ca = (w1 * 2 - f * w2) * recip
    cb = (w2 * 2 - f * w1) * recip
    alpha = a0 - ca
    beta = b0 - cb

    # s(m) = sin(m*lam/2)/sin(lam/2) as a Chebyshev polynomial in f
    cheb = {0: from_rational(0), 1: from_rational(1)}

    def s(m: int) -> CosSum:
        neg = m < 0
        m = abs(m)
        if m not in cheb:
            for j in range(max(cheb) + 1, m + 1):
                cheb[j] = f * cheb[j - 1] - cheb[j - 2]
        return -cheb[m] if neg else cheb[m]

    ak = s(1 - 2 * k) * alpha - s(2 * k) * beta + ca
    bk = s(2 * k) * alpha + s(1 + 2 * k) * beta + cb
    return ak, bk


def suborbit_parity_checks(sub: Suborbit, w: Omega) -> bool:
    """Exact parity identities tying together the moving coordinate sequences.

    With p+- = (w1 +- w2)/(2 +- fixed):
      N even, n odd:  a_k + a_{k+N/2} = p+ + p-,  b_k + b_{k+N/2} = p+ - p-
      N odd,  n even: a_k + b_{k+(N-1)/2} = p+
      N odd,  n odd:  a_k - b_{k+(N-1)/2} = p-
    """
    N, n = sub.length, sub.n_common
    if N <= 1:
        return True
    i1, i2, _ = _PAIRS[sub.pair]
    ws = (w.wx, w.wy, w.wz)
    w1, w2 = ws[i1], ws[i2]
    f = sub.common
    start = sub.points[0]
    seq = [(start[i1], start[i2])]
    for _ in range(2 * N):
        seq.append(double_step(seq[-1], f, w1, w2))

    p_plus = (w1 + w2) / (2 + f)
    p_minus = (w1 - w2) / (2 - f)
    for k in range(N):
        ak, bk = seq[k]
        if N % 2 == 0:
            a2, b2 = seq[k + N // 2]
            if ak + a2 != p_plus + p_minus or bk + b2 != p_plus - p_minus:
                return False
        elif n % 2 == 0:
            if ak + seq[k + (N - 1) // 2][1] != p_plus:
                return False
        elif ak - seq[k + (N - 1) // 2][1] != p_minus:
            return False
    return True
