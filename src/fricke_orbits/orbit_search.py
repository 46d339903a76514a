"""Exhaustive enumeration of finite orbits with bounded coordinate values.

A finite orbit that is neither a one-parameter family member nor of
Cayley type contains a good generating configuration: a point fixed by
at most one of the three coordinate involutions, together with its three
images, at least two of them also good.  Coordinates of good points in
such orbits take values in small explicit dictionaries of 2*cos(pi*n/N)
with bounded N.  Enumerating, up to the 24 parameter symmetries, every
way to choose the configuration coordinates from the dictionaries splits
into four arenas (by which coordinate values coincide and whether one
image is doubly fixed), giving roughly 1.2e8 seeds in total.

Each seed is closed by repeatedly resolving missing neighbors until the
graph closes, a value outside every admissible extension appears, or a
size cap proves divergence.  The hot scan runs in floating point
(_kernels); a surviving seed that lies in no orbit already closed, up to
the 24 symmetries, is then re-derived and closed again in exact
arithmetic, and each orbit is verified point by point on the surface
before being reported.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import chain, combinations_with_replacement
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .fricke_action import (
    COLORS,
    Omega,
    Point3,
    PointSet,
    all_equivalences,
    apply,
    canonical_key,
    equiv_transform,
    fricke_residual,
    keys_equal,
    make_omega,
    omega4_of,
    points_equal,
)
from .trig_field import (
    CosSum,
    compare_tuples,
    cos_value,
    match_dictionary,
)

__all__ = [
    "CapError",
    "ConsistencyError",
    "DictEntry",
    "Dictionaries",
    "GenConfig",
    "OrbitRecord",
    "SearchResult",
    "build_dictionaries",
    "cayley_orbit",
    "check_involutions",
    "check_search_args",
    "class_counter",
    "classify_special",
    "close_orbit",
    "component_labels",
    "decode_config",
    "full_search",
    "get_dictionaries",
    "get_search_tables",
    "golden_assignment",
    "golden_match",
    "verify_record",
]

EPS = 1e-8

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# dictionaries of admissible good-coordinate values


@dataclass(frozen=True)
class DictEntry:
    """One admissible coordinate value 2*cos(pi*angle)."""

    angle: Fraction
    value: CosSum
    fval: float


@dataclass(frozen=True)
class Dictionaries:
    """The four nested value dictionaries.

    s1 applies when the two defining parameters of a two-color suborbit
    have distinct squares, s2 when they are equal and nonzero, s3 when
    both vanish but the orbit parameters do not all vanish, and s4 is
    the union used whenever the case is not known in advance.
    """

    s1: Tuple[DictEntry, ...]
    s2: Tuple[DictEntry, ...]
    s3: Tuple[DictEntry, ...]
    s4: Tuple[DictEntry, ...]
    min_gap: float

    def floats(self, which: str) -> List[float]:
        return [e.fval for e in getattr(self, which)]


def _entries(angles) -> Tuple[DictEntry, ...]:
    ents = [DictEntry(a, cos_value(a), 2.0 * math.cos(math.pi * a)) for a in sorted(set(angles))]
    ents.sort(key=lambda e: e.fval)
    return tuple(ents)


def build_dictionaries() -> Dictionaries:
    def coprime(limit) -> List[Fraction]:
        return [
            Fraction(n, N)
            for N in range(2, limit + 1)
            for n in range(1, N)
            if math.gcd(n, N) == 1
        ]

    a1 = coprime(10)
    extra = [
        Fraction(n, N)
        for N in (11, 15, 21)
        for n in range(1, N, 2)
        if math.gcd(n, N) == 1
    ]
    a2 = a1 + extra
    a3 = coprime(15)
    a4 = a3 + [Fraction(n, 21) for n in range(1, 21) if math.gcd(n, 21) == 1]

    s1, s2, s3, s4 = _entries(a1), _entries(a2), _entries(a3), _entries(a4)
    if (len(s1), len(s2), len(s3), len(s4)) != (31, 46, 71, 83):
        raise AssertionError("dictionary cardinalities changed")
    gaps = [b.fval - a.fval for a, b in zip(s4, s4[1:])]
    min_gap = min(gaps)
    if min_gap <= 1e-3:
        raise AssertionError("dictionary values too close for float matching")
    return Dictionaries(s1, s2, s3, s4, min_gap)


_DICTS: Optional[Dictionaries] = None


def get_dictionaries() -> Dictionaries:
    global _DICTS
    if _DICTS is None:
        _DICTS = build_dictionaries()
    return _DICTS


# ---------------------------------------------------------------------------
# configuration arenas


@dataclass(frozen=True)
class SearchTables:
    """The seed rows of the four classes and their float mirror.

    tri1, pair2, pair3 and tri4 are the seed rows of classes 1-4, each a
    tuple of dictionary positions, one per seed coordinate of the class's
    _kernels.LAYOUTS entry (tri4, 98,770 rows, is a uint8 array of them);
    the exact decode reads its values through them.  kernel holds the same
    seeds as float columns for the scan.
    """

    dicts: Dictionaries
    kernel: _kernels.ScanTables
    tri1: Tuple[Tuple[int, int, int], ...]
    pair2: Tuple[Tuple[int, int], ...]
    pair3: Tuple[Tuple[int, int], ...]
    tri4: np.ndarray


def build_search_tables(d: Optional[Dictionaries] = None) -> SearchTables:
    d = d or get_dictionaries()
    s1, s4 = d.s1, d.s4
    floats = {"s1": np.array(d.floats("s1")), "s4": np.array(d.floats("s4"))}

    # class 1: the seed point ranges over sorted nonnegative triples and,
    # mirrored, sorted nonpositive ones; primes range over all of s1
    nn1 = [i for i, e in enumerate(s1) if e.angle <= _HALF]
    np1 = [i for i, e in enumerate(s1) if e.angle >= _HALF][::-1]
    zero1 = nn1[0]
    assert len(nn1) == 16 and np1[0] == zero1
    tri1 = [*combinations_with_replacement(nn1, 3), *combinations_with_replacement(np1, 3)]
    assert len(tri1) == 1632

    # class 2: one image is doubly fixed; seed has 0 <= Y <= Z, Z > 0
    pos4 = [i for i, e in enumerate(s4) if e.angle < _HALF]
    zero4 = next(i for i, e in enumerate(s4) if e.angle == _HALF)
    assert len(pos4) == 41
    pair2 = []
    for rank, iz in enumerate(pos4):
        for iy in [zero4] + pos4[: rank + 1]:
            pair2.append((iy, iz))
    assert len(pair2) == 902

    # class 3: two parameters coincide; seed has |Y| <= Z with Z, Y in s1
    pair3 = []
    for iz in nn1:
        az = s1[iz].angle
        for iy in range(31):
            ay = s1[iy].angle
            if min(ay, 1 - ay) >= az:
                pair3.append((iy, iz))
    assert len(pair3) == 256

    # class 4: all three parameters coincide; sorted seed triples over s4,
    # one uint8 row each: as tuples they took 6.8 MB
    triples = combinations_with_replacement(range(83), 3)
    tri4 = np.fromiter(chain.from_iterable(triples), np.uint8).reshape(-1, 3)
    assert len(tri4) == math.comb(85, 3)

    # one float column per seed coordinate, indexed by its position column
    seeds = {}
    for cls, rows in ((1, tri1), (2, pair2), (3, pair3), (4, tri4)):
        values = floats[_kernels.LAYOUTS[cls].seed_dict]
        positions = np.asarray(rows)
        seeds[cls] = tuple(values[positions[:, j]] for j in range(positions.shape[1]))
    # the all-zero configuration appears in both class-1 chains; process it once
    zero = (zero1,) * 3
    skip1 = _kernels.encode(1, tri1.index(zero, 1), zero, floats)
    kt = _kernels.ScanTables(floats["s1"], floats["s4"], seeds, skip1)
    return SearchTables(d, kt, tuple(tri1), tuple(pair2), tuple(pair3), tri4)


_TABLES: Optional[SearchTables] = None


def get_search_tables() -> SearchTables:
    global _TABLES
    if _TABLES is None:
        _TABLES = build_search_tables()
    return _TABLES


def class_counter(cls: int) -> int:
    """Number of configurations the scan of one arena processes: its index
    space less, in class 1, the skipped duplicate of the all-zero seed."""

    return _kernels.class_size(cls, get_search_tables().kernel) - int(cls == 1)


@dataclass(frozen=True)
class GenConfig:
    """One decoded configuration: seed point, parameters, image values."""

    cls: int
    index: int
    point: Point3
    omega: Omega
    primes: Tuple[CosSum, CosSum, CosSum]


def decode_config(cls: int, index: int, t: Optional[SearchTables] = None) -> GenConfig:
    """The exact configuration of a flat index, decoded by its class's
    _kernels layout; ValueError for a class outside 1..4."""

    t = t or get_search_tables()
    lay = _kernels.layout(cls)
    rows = (t.tri1, t.pair2, t.pair3, t.tri4)[cls - 1]
    vals = {"s1": [e.value for e in t.dicts.s1], "s4": [e.value for e in t.dicts.s4]}
    seed = vals[lay.seed_dict]
    v = _kernels.decode(cls, index, vals, lambda row: [seed[i] for i in rows[row]])
    point = (v["X"], v["Y"], v["Z"])
    w4 = omega4_of(point, v["wx"], v["wy"], v["wz"])
    return GenConfig(
        cls, index, point, Omega(v["wx"], v["wy"], v["wz"], w4), (v["Xp"], v["Yp"], v["Zp"])
    )


# ---------------------------------------------------------------------------
# exact closure


class ConsistencyError(RuntimeError):
    """The pipeline contradicts itself: a survivor whose scan size is not
    its orbit's exact size, or a closed orbit the exact check rejects."""


class CapError(ConsistencyError):
    """The closure exceeded its size cap without resolving."""


@dataclass
class OrbitRecord:
    """A closed finite orbit: exact points, per-color neighbors, parameters."""

    points: Tuple[Point3, ...]
    neighbors: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
    omega: Omega
    source: Tuple[int, int] = (0, -1)

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def canonical(self) -> Tuple[CosSum, ...]:
        return canonical_key(self.points, self.omega)


def close_orbit(
    point: Point3,
    omega: Omega,
    cap: int = _kernels.CAP,
    source: Tuple[int, int] = (0, -1),
    restrict_to_dictionary: bool = True,
) -> Optional[OrbitRecord]:
    """Close the orbit of a point exactly; None when it cannot be finite.

    With restrict_to_dictionary (the search semantics), a new point is
    accepted only when its changed coordinate lies in the largest value
    dictionary or the point is doubly fixed, and identically vanishing
    parameters are rejected up front since they belong to the Cayley
    family (see cayley_orbit).  Each image's new coordinate is tested
    against s4 exactly before the lookup; a confirmed one is replaced by
    the entry's own CosSum, so later products, comparisons and keys see
    single-term values.  Without it any new point is accepted and the
    caller guarantees finiteness.  As in the float closure, the cap is
    tested only when a point is added.
    """

    ws = (omega.wx, omega.wy, omega.wz)
    if restrict_to_dictionary:
        if all(c.is_zero() for c in ws) and omega.w4.is_zero():
            return None
        d = get_dictionaries()
        s4vals = d.s4
        s4f = d.floats("s4")
    ps = PointSet()
    ps.add(tuple(point))
    nbr: List[List[int]] = [[-1], [-1], [-1]]
    i = 0
    while i < len(ps.points):
        p = ps.points[i]
        for c, g in enumerate("xyz"):
            if nbr[c][i] >= 0:
                continue
            q = apply(g, p, omega)
            v = q[c]
            good = True
            if restrict_to_dictionary:
                k = match_dictionary(v.float_value(), s4f, EPS)
                good = k is not None and v == s4vals[k].value
                if good:
                    v = s4vals[k].value
                    q = q[:c] + (v,) + q[c + 1:]
            j = ps.find(q)
            if j is not None:
                if nbr[c][j] != -1:
                    return None
                nbr[c][i] = j
                nbr[c][j] = i
                continue
            o1 = 1 if c == 0 else 0
            o2 = 1 if c == 2 else 2
            if not good:
                r1 = q[o1] * 2 + v * q[o2] - ws[o1]
                r2 = q[o2] * 2 + v * q[o1] - ws[o2]
                if not (r1.is_zero() and r2.is_zero()):
                    return None
            if len(ps.points) >= cap:
                raise CapError(f"closure exceeded {cap} points from source {source}")
            idx = ps.add(q)
            for cc in range(3):
                nbr[cc].append(-1)
            nbr[c][idx] = i
            nbr[c][i] = idx
            if not good:
                nbr[o1][idx] = idx
                nbr[o2][idx] = idx
        i += 1
    return OrbitRecord(
        tuple(ps.points), tuple(tuple(col) for col in nbr), omega, source
    )


def check_involutions(tables: Sequence[Sequence[int]], n: int) -> None:
    """Raise ValueError unless each table maps range(n) to itself as an
    involution: one partner per point, the point itself for a fixed one."""

    for c, col in enumerate(tables):
        if len(col) != n:
            raise ValueError("neighbor table size mismatch")
        for i in range(n):
            j = col[i]
            if not (0 <= j < n) or col[j] != i:
                raise ValueError(f"color {COLORS[c]} relation is not an involution")


def component_labels(tables: Sequence[Sequence[int]], n: int) -> List[int]:
    """For each of the n points, the smallest point of its connected
    component in the graph whose edges are i -- col[i] for each table."""

    labels = [-1] * n
    for i in range(n):
        if labels[i] < 0:
            labels[i] = i
            todo = [i]
            while todo:
                k = todo.pop()
                for col in tables:
                    if labels[col[k]] < 0:
                        labels[col[k]] = i
                        todo.append(col[k])
    return labels


def verify_record(rec: OrbitRecord) -> bool:
    """Exact re-check: involution tables, surface membership, every edge.

    The residual is evaluated at the smallest point of each connected
    component of the neighbour table.  `apply` maps x to wx - x - yz, the
    other root of the residual as a quadratic in x, so R(s_x p) = R(p)
    identically (and so for y and z); every edge is then confirmed
    exactly, which carries the residual across its component.

    Each edge is confirmed once, from its lower end (j >= i, so self-loops
    too): apply is an involution as a polynomial identity, wx - (wx - x -
    yz) - yz = x, and _tame does not change a value, so apply(g, p_i) =
    p_j implies apply(g, p_j) = p_i.
    """

    check_involutions(rec.neighbors, rec.size)
    labels = component_labels(rec.neighbors, rec.size)
    for i, p in enumerate(rec.points):
        if labels[i] == i and not fricke_residual(p, rec.omega).is_zero():
            raise ValueError(f"point {i} is off the surface")
        for c, g in enumerate(COLORS):
            j = rec.neighbors[c][i]
            if j >= i and not points_equal(apply(g, p, rec.omega), rec.points[j]):
                raise ValueError(f"edge {g} at point {i} mismatches the table")
    return True


# ---------------------------------------------------------------------------
# degenerate families


_SIZE_TAG = {1: "I", 2: "II", 3: "III", 4: "IV"}


def classify_special(rec: OrbitRecord) -> Optional[Tuple[str, Dict[str, CosSum]]]:
    """Tag orbits of size <= 4: they always belong to a parametric family.

    Size 1: a triple fixed point.  Size 2: one connecting color, the
    shared coordinates vanish.  Size 3: a center linked to two leaves by
    different colors, one common coordinate.  Size 4: a center linked to
    three doubly-fixed leaves, all three parameters equal.  Larger
    records are never family members and get None.
    """

    n = rec.size
    if n > 4:
        return None
    nb = rec.neighbors
    ws = (rec.omega.wx, rec.omega.wy, rec.omega.wz)
    degree = [sum(1 for c in range(3) if nb[c][i] != i) for i in range(n)]
    if n == 1:
        if degree != [0]:
            raise ValueError("1-point record with a dangling edge")
        x, y, z = rec.points[0]
        return "I", {"x": x, "y": y, "z": z}
    if n == 2:
        links = [c for c in range(3) if nb[c][0] == 1]
        if len(links) != 1 or degree != [1, 1]:
            raise ValueError("2-point record is not a single edge")
        c = links[0]
        o1 = 1 if c == 0 else 0
        o2 = 1 if c == 2 else 2
        if not (rec.points[0][o1].is_zero() and rec.points[0][o2].is_zero()):
            raise ValueError("2-point record with nonzero shared coordinates")
        if not (ws[o1].is_zero() and ws[o2].is_zero()):
            raise ValueError("2-point record with nonzero side parameters")
        return "II", {"a": rec.points[0][c], "b": rec.points[1][c]}
    if n == 3:
        centers = [i for i in range(n) if degree[i] == 2]
        if len(centers) != 1 or sorted(degree) != [1, 1, 2]:
            raise ValueError("3-point record is not a 2-leaf star")
        i0 = centers[0]
        links = [c for c in range(3) if nb[c][i0] != i0]
        val = ws[links[0]]
        if val != ws[links[1]]:
            raise ValueError("3-point record with unequal leaf parameters")
        return "III", {"omega": val}
    centers = [i for i in range(n) if degree[i] == 3]
    if len(centers) != 1 or sorted(degree) != [1, 1, 1, 3]:
        raise ValueError("4-point record is not a 3-leaf star")
    if not ws[0] == ws[1] == ws[2]:
        raise ValueError("4-point record with unequal parameters")
    return "IV", {"omega": ws[0]}


def cayley_orbit(ry, rz) -> OrbitRecord:
    """Finite orbit for identically vanishing parameters.

    With Y = 2cos(pi*ry) and Z = 2cos(pi*rz) the surface equation at
    w = 0 factors through X = -2cos(pi*(ry +- rz)), so the orbit of
    (-2cos(pi*(ry+rz)), Y, Z) stays inside values 2cos(pi*k/D) for the
    common denominator D and must close.
    """

    ry = Fraction(ry)
    rz = Fraction(rz)
    seed = (cos_value(ry + rz) * -1, cos_value(ry), cos_value(rz))
    w = make_omega(0, 0, 0, 0)
    if not fricke_residual(seed, w).is_zero():
        raise AssertionError("degenerate surface identity failed")
    den = math.lcm(ry.denominator, rz.denominator)
    rec = close_orbit(
        seed, w, cap=4 * den * den + 16, restrict_to_dictionary=False
    )
    if rec is None:
        raise AssertionError("degenerate orbit failed to close")
    return rec


# ---------------------------------------------------------------------------
# full search


@dataclass
class SearchResult:
    records: List[OrbitRecord]
    family_hits: Dict[str, int]
    processed: Dict[int, int]
    cayley_skips: int
    cap_hits: int
    survivors: int
    candidates: int
    junk: int
    backend: str
    threads: int
    eps: float
    elapsed: float
    timings: Dict[str, float] = field(default_factory=dict)


# the 24 symmetries as coordinate indices and signs, all_equivalences() order
_PERM, _SIGN = np.array(all_equivalences()).transpose(1, 0, 2)


def _float_orbit_key(pc: np.ndarray, ws, w4: float) -> frozenset:
    """Each point's least row (w4, w triple, point) over the 24 symmetries,
    on a 1e-6 grid.  Symmetric orbits get equal keys, and distinct orbits
    share no point, so a point with its parameters lies in a keyed orbit or
    an image of it exactly when its one-point key's row is in that key; a
    grid-boundary miss only costs a duplicate exact closure."""

    grid = np.rint(pc * 1e6).astype(np.int64)
    wsi = np.rint(np.asarray(ws) * 1e6).astype(np.int64)
    n = grid.shape[1]
    # rows[t, :, i] is the w triple and point i under symmetry t
    rows = np.concatenate([
        np.repeat((wsi[_PERM] * _SIGN)[:, :, None], n, axis=2), grid[_PERM] * _SIGN[:, :, None],
    ], axis=1)
    # columns point-major, sorted by point, then row: each point's least
    # row leads its run of 24
    cols = rows.transpose(1, 2, 0).reshape(6, -1)
    order = np.lexsort((*cols[::-1], np.repeat(np.arange(n), 24)))
    w4i = round(w4 * 1e6)
    return frozenset((w4i, *row) for row in cols[:, order[::24]].T.tolist())


def _record_cmp(a: OrbitRecord, b: OrbitRecord) -> int:
    if a.size != b.size:
        return -1 if a.size < b.size else 1
    return compare_tuples(a.canonical, b.canonical)


def _threads_from_env() -> int:
    """FRICKE_THREADS as a positive int, else the CPU count.

    Raises ValueError, naming the variable, for anything but a positive
    integer, as --threads does.
    """
    env = os.environ.get("FRICKE_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"FRICKE_THREADS must be a positive integer, got {env!r}")
    return threads


def check_search_args(threads: Optional[int], eps: float) -> None:
    """Raise ValueError unless eps lies in (0, half the dictionary gap),
    which NaN does not, and threads, when given, is at least 1."""

    gap = get_dictionaries().min_gap
    if not 0 < eps < gap / 2:
        raise ValueError(f"eps must lie in (0, {gap / 2:.6g}), half the dictionary gap")
    if threads is not None and threads < 1:
        raise ValueError("threads must be at least 1")


def full_search(
    threads: Optional[int] = None,
    eps: float = EPS,
    backend: Optional[str] = None,
) -> SearchResult:
    """Scan all four arenas and return the verified exceptional orbits.

    The result list is sorted by (size, canonical key) and is identical
    for every thread count: work is split into fixed chunks merged in
    index order, and all decisions downstream of the float scan are
    exact.  Every survivor of size > 4 has the exact size of its orbit and
    every record passes verify_record, or ConsistencyError is raised.
    Arguments failing check_search_args, and a backend other than None or
    "numpy", raise ValueError before anything is scanned.

    timings holds the seconds of tables, scan.class1 to scan.class4 (each
    summed over the class's chunks inside the workers), dedup (seed decode
    and key lookup), close (exact closures, keys and the sort) and verify.
    """

    t0 = time.perf_counter()
    check_search_args(threads, eps)
    if backend not in (None, "numpy"):
        raise ValueError(f"backend must be numpy, got {backend!r}")
    if threads is None:
        threads = _threads_from_env()
    tables = get_search_tables()
    kt = tables.kernel
    timings = {"tables": time.perf_counter() - t0}

    tasks = []
    for cls in (1, 2, 3, 4):
        timings[f"scan.class{cls}"] = 0.0
        size = _kernels.class_size(cls, kt)
        for start in range(0, size, _kernels.CHUNK):
            tasks.append((cls, start, min(size, start + _kernels.CHUNK)))

    def run(task):
        t = time.perf_counter()
        res = _kernels.scan_chunk(*task, kt, eps, "numpy")
        return task[0], time.perf_counter() - t, res

    # records of size <= 4 always belong to a parametric family: tally them
    # by size and keep the rest for the exact pipeline
    fam: Counter = Counter()
    big: List[Tuple[int, int, int]] = []
    processed = {1: 0, 2: 0, 3: 0, 4: 0}
    ncay = 0
    ncap = 0
    with ThreadPoolExecutor(max_workers=threads) as ex:
        for cls, dt, (idxs, sizes, nproc, cay, cap) in ex.map(run, tasks):
            timings[f"scan.class{cls}"] += dt
            processed[cls] += nproc
            ncay += cay
            ncap += cap
            for i, s in zip(idxs, sizes):
                if s <= 4:
                    fam[_SIZE_TAG[s]] += 1
                else:
                    big.append((cls, int(i), int(s)))

    # a survivor whose seed lies in an orbit already closed is only checked
    # against that orbit's size; any other is closed exactly
    t = time.perf_counter()
    dedup = 0.0
    seen: Dict[tuple, int] = {}  # float key row -> exact orbit size
    records: List[OrbitRecord] = []
    ncand = junk = 0
    for cls, idx, fsz in big:
        t1 = time.perf_counter()
        X, Y, Z, wx, wy, wz, w4 = _kernels.decode_float(cls, idx, kt)
        (row,) = _float_orbit_key(np.array([[X], [Y], [Z]]), (wx, wy, wz), w4)
        known = seen.get(row)
        dedup += time.perf_counter() - t1
        if known is not None:
            if known != fsz:
                raise ConsistencyError(f"class {cls} index {idx} lies in a closed orbit "
                                       f"of {known} points, the scan gave {fsz}")
            continue
        ncand += 1
        g = decode_config(cls, idx, tables)
        try:
            rec = close_orbit(
                g.point,
                g.omega,
                cap=min(_kernels.CAP, 2 * fsz + 8),
                source=(cls, idx),
            )
        except CapError:
            ncap += 1
            continue
        if rec is None:
            junk += 1
            continue
        if rec.size != fsz:
            raise ConsistencyError(
                f"exact closure disagrees with the float closure: class {cls} "
                f"index {idx} closes at {rec.size} points, the scan gave {fsz}"
            )
        ws = [float(v) for v in rec.omega]
        key = _float_orbit_key(np.array(rec.points, float).T, ws[:3], ws[3])
        seen.update(dict.fromkeys(key, rec.size))
        if any(keys_equal(rec.canonical, r.canonical) for r in records):
            continue
        records.append(rec)
    records.sort(key=cmp_to_key(_record_cmp))
    timings["dedup"] = dedup
    timings["close"] = time.perf_counter() - t - dedup

    t = time.perf_counter()
    for rec in records:
        try:
            verify_record(rec)
        except ValueError as exc:
            raise ConsistencyError(
                f"orbit of class {rec.source[0]} index {rec.source[1]} fails "
                f"verify_record: {exc}"
            ) from exc
    timings["verify"] = time.perf_counter() - t
    return SearchResult(
        records=records,
        family_hits=dict(fam),
        processed=processed,
        cayley_skips=ncay,
        cap_hits=ncap,
        survivors=sum(fam.values()) + len(big),
        candidates=ncand,
        junk=junk,
        backend="numpy",
        threads=threads,
        eps=eps,
        elapsed=time.perf_counter() - t0,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# matching against the bundled reference table


def _matches_row(rec: OrbitRecord, row) -> bool:
    if rec.size != row.size:
        return False
    if rec.omega.w4 != row.omega4:
        return False
    gw = Omega(row.omega[0], row.omega[1], row.omega[2], row.omega4)
    rep = row.rep_point
    rws = (rec.omega.wx, rec.omega.wy, rec.omega.wz)
    for t in all_equivalences():
        tp, tw = equiv_transform(t, rep, gw)
        if tw[:3] == rws:
            if any(points_equal(tp, p) for p in rec.points):
                return True
    return False


def golden_assignment(
    records: Sequence[OrbitRecord], rows: Sequence, complete: bool = True
) -> Tuple[Dict[int, int], List[str]]:
    """The record-to-row bijection: ({record position: row idx}, problems).

    A record matches a row when the sizes agree, the parameters agree up to
    the 24 symmetries and the transformed representative lies in the
    record.  A row goes to the one record matching it unless an earlier
    row took that record; otherwise it is ambiguous, or, with complete, a
    problem when no record matches it.  Records left without a row are
    reported only when every row is settled.  Problems count records
    from 1.
    """

    used: Dict[int, int] = {}
    problems: List[str] = []
    for row in rows:
        matches = [i for i, rec in enumerate(records) if _matches_row(rec, row)]
        if len(matches) == 1 and matches[0] not in used:
            used[matches[0]] = row.idx
        elif matches:
            problems.append(f"row {row.idx}: ambiguous matches {[i + 1 for i in matches]}")
        elif complete:
            problems.append(f"row {row.idx}: no computed orbit matches")
    if not problems:
        problems = [
            f"computed orbit {i + 1} (size {rec.size}) matches no row"
            for i, rec in enumerate(records) if i not in used
        ]
    return used, problems


def golden_match(records: Sequence[OrbitRecord], complete: bool = True) -> List[int]:
    """1-based reference row index for each record; ValueError with the
    first problem of golden_assignment against the bundled table."""

    from .golden import GOLDEN_ROWS

    used, problems = golden_assignment(records, GOLDEN_ROWS, complete)
    if problems:
        raise ValueError(problems[0])
    return [used[i] for i in range(len(records))]
