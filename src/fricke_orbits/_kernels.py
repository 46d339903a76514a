"""Configuration layouts and the float scan of the orbit search.

The search examines roughly 1.2e8 candidate seeds.  Each seed is a point
(X, Y, Z) plus parameters (wx, wy, wz) fed to a closure routine that
repeatedly resolves missing neighbors: link to an already known point,
append a new good point when the changed coordinate is a dictionary
value, accept a doubly-fixed point when the two fixed-point relations
2*A + V*B = w hold, and reject otherwise.  A seed survives when the
graph closes; survivors are re-derived and confirmed in exact arithmetic
by orbit_search.

A configuration is a flat index into one of four classes, each defined
once in LAYOUTS.  decode evaluates that definition on float arrays for the
scan and on CosSum values for orbit_search.decode_config.

The closure of one seed is _close_pylist.  scan_chunk runs numpy over a
range of seeds: a vectorized prefilter tests necessary pass conditions on
image shells of every seed, and only the candidates passing all of them
are closed.  It works in stages on a shrinking set of seeds:

1. Prefix stage (classes 1 and 3).  A condition that does not read the
   last index axis is tested once per prefix idx // radix, on values
   decoded at the prefix's first index.  Exactly one weight reads the
   last axis: wz in class 1 (the axis is Zp), wx in class 3 (Xp).  The
   stage tests two second-shell checks without the fixed-point equation
   of that weight (class 1: ay and bx; class 3: cy and bz), and keeps
   every prefix whose other weights are within eps of 0, since it may
   hold a Cayley seed; class 3 also keeps only prefixes with Zp in s1.
2. Solve stage (classes 2 and 4).  Every check of these classes reads
   the free axis, but two of them read it affinely: Zp and Yp in class 4
   (axis Xp), Zp and bx in class 2 (axis X, per (row, Yp)).  Each
   alternative of such a check is then solved for the axis instead of
   tested on every seed: a value by a sorted join against the 83 * 83
   differences of s4 (E. Horowitz and S. Sahni, J. ACM 21, 1974), a link
   or a fixed-point equation as a window of the axis, or every value or
   none where the axis drops out.  The stage keeps the seeds both checks
   admit, and every seed of the Cayley window, where the weight w (class
   4) or wy (class 2), affine in the axis, is within eps of 0.  It works
   on blocks of _NUMPY_BLOCK (row, last-axis value) pairs and marks the
   seeds, in index order, at most _NUMPY_BLOCK at a time: class 4 keeps
   about 0.2 % of its seeds, class 2 about 1.5 %.
3. Grouping.  The first stage runs on blocks of _NUMPY_BLOCK prefixes,
   each decoded at one index, or of _NUMPY_BLOCK // 83 seed rows, each
   solved for its 83 last-axis values.  What it keeps, prefixes or seeds,
   is collected across blocks, in index order; prefixes are expanded over
   the last axis (31 or 83 values), and the seeds are decoded in full,
   _NUMPY_BLOCK at a time.
4. Cayley seeds are counted on the expanded seeds.
5. The shell checks run one at a time, most rejecting first, and the
   seed columns are compacted after each one.  Classes 1 and 3 add two
   third-shell checks: ayz, the z-image of (Xp, ay, Z), and bzx, the
   x-image of (X, Yp, bz).  Class 1 leaves out its first shell, whose
   images are s1 values by construction.
6. Cayley seeds are dropped from the candidates, which a lockstep
   closure settles in batches of up to _LOCKSTEP_ROWS seeds: a seed whose
   three images link back to it is a one-point orbit at once; every other
   seed of a batch advances one BFS slot per numpy iteration, with the float
   operations of _close_pylist in the same order, so each gets the result
   the per-seed closure gives.  When a few dozen seeds are left, they
   are finished by _close_pylist.

Dictionary membership is an O(1) bucket lookup that returns the same
bracketing entries as np.searchsorted.

The scan returns the survivors, sizes and statistics that _close_pylist
gives when run on every seed of the range (class 3 keeping only seeds
with Zp in s1, and Cayley seeds counted, not closed);
tests/test_orbit_search.py checks this against that per-seed loop, at
several eps.  It does because every check is a necessary condition for
the closure to accept the seed, and a prefix-stage condition is a check
with one equation left out, so it is implied by the check; a solve stage
is a check evaluated as a set, so the check implies it, and it keeps
every Cayley seed besides, so the Cayley count is unchanged.  A seed a
stage drops fails the full conjunction too, and evaluation order does
not change a conjunction.  The class-1 first-shell checks, left out, are
shown never to fail.  Nothing reported from this module is trusted
without the exact confirmation pass.

Why a check is necessary.  Let F_c(p) be the point p with coordinate c
replaced by fl(w_c - p_c - p_a*p_b), the image the closure computes.  A
check follows a chain of distinct moves c_1..c_k from the seed s_0 (k <= 2,
and k = 3 for ayz and bzx, tested in classes 1 and 3): s_j =
F_c_j(s_(j-1)), and tests v, the c_k coordinate of s_k.  Take a closure that accepts the seed, with
points P[i] and neighbours N_c[i], and follow the same moves: i_0 = 0 and
i_j = N_c_j[i_(j-1)].  Write d_j for the largest coordinate difference
between P[i_j] and s_j, and B = 2 + eps.

- Origins.  A point appended by a move copies its other two coordinates
  from its parent, so P_c[i] is a seed value (an s4 entry), a value the
  closure found within eps of an s4 entry, or the new coordinate of a
  doubly-fixed point appended by a c-move (a fixed point).  A fixed
  point's other two neighbours are itself, so it has no children, and a
  chain of distinct moves enters it only from its parent and then stays.
- Bounds.  Dictionary values lie in [-2, 2], so a weight, two values plus
  a product of two, has |w| <= W = 8; class 2's wx reads its computed Xp
  and has W = 18.2 over its grid (tests/test_orbit_search.py).  Every
  coordinate is then within B, except the new coordinate of a fixed point,
  within V = W + B + B*B: 14.1, or 24.2 in class 2.
- Steps.  P[i_j] differs from F_c_j(P[i_(j-1)]) by at most delta: 0 when
  appended from i_(j-1); eps for a link made from i_(j-1) or a fixed
  point's loop (the closure's own tests); (1 + 2B)*eps, about 5*eps, for
  a link made from i_j.  F_c moves a difference d by at most (1 + |a| +
  |b| + d)*d: about 5*d at an ordinary point, (1 + B + V)*d, 17.1*d in
  classes 1 and 3, at a fixed point.  Each step adds a rounding error
  below 1e-13 (all values stay below 64).
- Depth.  d_1 <= eps, since the seed's slots are resolved from the seed.
  d_2 <= 5 + 5*1 = 10 eps, or eps if i_1 is a fixed point (d_1 = 0).
  d_3 <= 5 + 5*10 = 55 eps through ordinary points; entering a fixed
  point at step 2 costs no delta, so d_2 <= 5 eps and d_3 <= 1 + 17.1*5,
  about 86 eps.
- Tests.  If P_c[i_k] is a seed or s4-near value, v lies within eps + d_k
  <= 87 eps of s4.  If i_k is a fixed point entered at step k, by an
  append, d_k <= 5*d_(k-1) (5 eps at depth 2, 50 at depth 3), and its
  equations, within eps at P[i_k], hold at s_k within eps + (2 + V + B +
  d_k)*d_k: about 92 eps at depth 2 (142 in class 2) and 906 at depth 3.
  Otherwise P_c[i_k] is a coordinate the chain inherited and the first
  case applies.

The checks therefore use 128*eps on values (_TOL_VALUE) and 1024*eps on
fixed-point equations (_TOL_FIXED), which leave room for the rounding
terms for any eps >= 1e-10.  Links to seed and first-shell values are
extra alternatives, only weakening a check.  The smallest s4 gap is
6.4e-3, so at the default eps = 1e-8 the tolerances cost no measurable
selectivity.

Why a solve stage keeps every seed its checks admit.  The stage computes
each image, weight and fixed-point residual of a check from the seed row,
the axis value and, in class 2, q = (Yp - Y)/Z as the decode computes
it, not from the decoded seed: class 4's Zp as Xp + c with c = X + Y*Z -
Z - X*Y, class 2's Zp as Z + Y*q, and so on.  Both sides are at most 15
float operations on values below 64 (class 2's wx reaches 18.2, bx*Yp
48), each rounding by at most 3.6e-15 and multiplied on by at most two
values of s4, so they differ by less than 30 * 4 * 3.6e-15 = 4.3e-13;
on sampled rows of both classes the largest difference is 1.4e-14
(tests/test_orbit_search.py).  Every window is widened by
_SOLVE_ROUND = 1e-12 beyond the check's tolerance (128 or 1024 eps, eps
for a Cayley weight), in the units of the quantity tested, and by
_SOLVE_ROUND again in the axis for the rounding of the division that
turns |a*x + b| <= tol into a window of x: relative 2^-52 on a bound,
below 1e-15 where the bound lies in [-4, 4], and beyond that it moves no
dictionary entry across.  The pairwise differences are rounded by at
most 4.4e-16.  So a seed whose checks pass on the decoded seed lies in a
window or a joined pair of the stage, which keeps it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, NamedTuple, Tuple

import numpy as np

from .fricke_action import omega4_of

__all__ = [
    "CAP",
    "CHUNK",
    "LAYOUTS",
    "Layout",
    "ScanTables",
    "backend_name",
    "class_size",
    "close_float",
    "decode",
    "decode_float",
    "encode",
    "layout",
    "scan_chunk",
]

# Good points in a non-Cayley finite orbit are at most 71^2 * 2 = 10082,
# bad points at most two more; the closure gives up past this bound.
CAP = 2 * 10082 + 2

# Fixed work-splitting unit: thread counts change scheduling, never results.
CHUNK = 1 << 20


def backend_name() -> str:
    """The scan backend, "numpy", the only one there is."""
    return "numpy"


@dataclass(frozen=True, eq=False)
class ScanTables:
    """Float dictionaries and per-class seed columns.

    s1/s4: sorted dictionary values.  seeds[cls]: one float column per
    seed coordinate of LAYOUTS[cls], indexed by seed row.  skip1: the
    class-1 index of the all-zero configuration of the mirrored sign
    chain, which the scan skips as a duplicate.  The scan's lookups over
    s1 and s4, s4 as a list and its difference join are built on first
    use and kept for every later scan_chunk.
    """

    s1: np.ndarray
    s4: np.ndarray
    seeds: Dict[int, Tuple[np.ndarray, ...]]
    skip1: int

    @property
    def dicts(self) -> Dict[str, np.ndarray]:
        return {"s1": self.s1, "s4": self.s4}

    @cached_property
    def look1(self) -> "_Lookup":
        return _Lookup(self.s1)

    @cached_property
    def look4(self) -> "_Lookup":
        return _Lookup(self.s4)

    @cached_property
    def s4list(self) -> list:
        return self.s4.tolist()

    @cached_property
    def join(self) -> Tuple[np.ndarray, np.ndarray]:
        return _difference_join(self.s4)


# ---------------------------------------------------------------------------
# configuration layouts


class Layout(NamedTuple):
    """How the flat configuration indices of one class decode.

    seed: the coordinates a seed row holds, values of dictionary seed_dict.
    axes: (name, dictionary) of the free values in mixed-radix order, the
    last fastest: index = (row * n1 + i1) * n2 + i2 ..., n the size of an
    axis's dictionary and i the value's position in it.  params: wx, wy, wz
    and any prime computed on the way, by + - * / only, from the values
    passed by name.  A prime a class does not hold is its _IMAGES image.
    """

    seed: Tuple[str, ...]
    seed_dict: str
    axes: Tuple[Tuple[str, str], ...]
    params: Callable[..., Dict[str, object]]


def _params1(X, Y, Z, Xp, Yp, Zp):
    return dict(wx=X + Xp + Y * Z, wy=Y + Yp + X * Z, wz=Z + Zp + X * Y)


def _params2(Y, Z, X, Yp):
    # the x-image (Xp, Y, Z) is fixed by y and z: 2Y + Xp*Z = wy, 2Z + Xp*Y = wz
    Xp = X + (Yp - Y) / Z
    return dict(Xp=Xp, wx=X + Xp + Y * Z, wy=Y + Yp + X * Z, wz=Z + Z + Xp * Y)


def _params3(Y, Z, Yp, X, Xp):
    wy = Y + Yp + X * Z
    return dict(wx=X + Xp + Y * Z, wy=wy, wz=wy)


def _params4(X, Y, Z, Xp):
    wx = X + Xp + Y * Z
    return dict(wx=wx, wy=wx, wz=wx)


LAYOUTS = {
    1: Layout(("X", "Y", "Z"), "s1", (("Xp", "s1"), ("Yp", "s1"), ("Zp", "s1")), _params1),
    2: Layout(("Y", "Z"), "s4", (("X", "s4"), ("Yp", "s4")), _params2),
    3: Layout(("Y", "Z"), "s1", (("Yp", "s1"), ("X", "s4"), ("Xp", "s4")), _params3),
    4: Layout(("X", "Y", "Z"), "s4", (("Xp", "s4"),), _params4),
}


def layout(cls: int) -> Layout:
    """The layout of class cls; ValueError for a class outside 1..4."""
    if cls not in LAYOUTS:
        raise ValueError("class must be 1..4")
    return LAYOUTS[cls]


def decode(cls: int, index, dicts, seed_values) -> "_Cols":
    """The named values of flat index `index` of class cls: one int over
    CosSum values or an int array over float arrays, by the same steps.

    dicts maps a dictionary name to its values, seed_values a seed row to
    its seed's values.  The result computes any other image when read.
    """

    lay = layout(cls)
    v = _Cols()
    for name, d in reversed(lay.axes):
        index, i = divmod(index, len(dicts[d]))
        v[name] = dicts[d][i]
    v.update(zip(lay.seed, seed_values(index)))
    v.update(lay.params(**v))
    return v


def encode(cls: int, row: int, positions, dicts) -> int:
    """The flat index of seed row `row` with axis positions `positions`."""
    for (_, d), i in zip(layout(cls).axes, positions):
        row = row * len(dicts[d]) + i
    return row


def _row_size(cls: int, t: ScanTables) -> int:
    """Number of flat indices per seed row of class cls: its axis sizes."""
    return math.prod(len(t.dicts[d]) for _, d in layout(cls).axes)


def class_size(cls: int, t: ScanTables) -> int:
    """Number of flat indices of class cls: seed rows times axis sizes."""
    return _row_size(cls, t) * len(t.seeds[cls][0])


# ---------------------------------------------------------------------------
# per-seed float closure


def _close_pylist(X, Y, Z, wx, wy, wz, s4, eps):
    """The closure of one seed over the sorted dictionary list s4.

    Points are kept as coordinate lists and neighbor slots as index lists,
    -1 while unknown and the point's own index at a fixed point.  Returns
    (result, [px, py, pz], [nx, ny, nz]), the result being the closed
    size, 0 for "cannot be finite" or -1 past CAP points.
    _close_lockstep runs the same float operations in the same order.
    """

    P = ([X], [Y], [Z])
    N = ([-1], [-1], [-1])
    ws = (wx, wy, wz)
    m = len(s4)
    n = 1
    i = 0
    while i < n:
        for c in range(3):
            col = N[c]
            if col[i] >= 0:
                continue
            o1 = 1 if c == 0 else 0
            o2 = 1 if c == 2 else 2
            pc, p1, p2 = P[c], P[o1], P[o2]
            a1 = p1[i]
            a2 = p2[i]
            v = ws[c] - pc[i] - a1 * a2
            found = -1
            for j in range(n):
                if abs(pc[j] - v) <= eps and abs(p1[j] - a1) <= eps and abs(p2[j] - a2) <= eps:
                    found = j
                    break
            if found >= 0:
                if col[found] != -1:
                    return 0, P, N
                col[i] = found
                col[found] = i
                continue
            k = bisect.bisect_left(s4, v)
            good = (k < m and abs(s4[k] - v) <= eps) or (
                k > 0 and abs(s4[k - 1] - v) <= eps
            )
            if good:
                if n >= CAP:
                    return -1, P, N
                pc.append(v)
                p1.append(a1)
                p2.append(a2)
                for cc in range(3):
                    N[cc].append(-1)
                col[n] = i
                col[i] = n
                n += 1
                continue
            if abs(2.0 * a1 + v * a2 - ws[o1]) <= eps and abs(
                2.0 * a2 + v * a1 - ws[o2]
            ) <= eps:
                if n >= CAP:
                    return -1, P, N
                pc.append(v)
                p1.append(a1)
                p2.append(a2)
                for cc in range(3):
                    N[cc].append(-1)
                col[n] = i
                col[i] = n
                N[o1][n] = n
                N[o2][n] = n
                n += 1
                continue
            return 0, P, N
        i += 1
    return n, P, N


def close_float(X, Y, Z, wx, wy, wz, s4, eps, want_points=False):
    """Run the closure on one float seed.

    Returns size (0 reject, -1 cap) or, with want_points, the tuple
    (size, coords[3, size], slots[3, size]).
    """

    res, P, N = _close_pylist(X, Y, Z, wx, wy, wz, list(s4), eps)
    if not want_points:
        return res
    n = max(res, 0)
    return (
        res,
        np.array([P[0][:n], P[1][:n], P[2][:n]], np.float64),
        np.array([N[0][:n], N[1][:n], N[2][:n]], np.int64),
    )


# ---------------------------------------------------------------------------
# the scan: staged necessary conditions, then the lockstep closure


class _Lookup:
    """np.searchsorted(d, v) in constant time over a sorted dictionary d.

    Bucket j holds the floats v whose scaled offset (v - d[0]) * scale,
    clipped to the table and truncated, is j.  The scale is twice the
    inverse of the smallest gap of d, so a bucket holds at most one entry.
    Entries and queries take their buckets through the same monotone float
    operations, so an entry in an earlier bucket lies below v and one in a
    later bucket above v; only the entry in v's own bucket is compared.
    The rank is then the number of entries below v, as searchsorted returns.
    """

    def __init__(self, d: np.ndarray):
        self.origin = float(d[0])
        self.scale = 2.0 / float(np.min(np.diff(d)))
        self.size = int((float(d[-1]) - self.origin) * self.scale) + 2
        where = self.bucket(d)
        if np.any(np.diff(where) < 1):
            raise ValueError("two dictionary entries share a bucket")
        self.before = np.searchsorted(where, np.arange(self.size))
        self.entry = np.full(self.size, np.inf)
        self.entry[where] = d
        # d[k - 1] and d[k] for rank k, clipped to the ends of d
        pos = np.arange(len(d) + 1)
        self.lower = d[np.clip(pos - 1, 0, len(d) - 1)]
        self.upper = d[np.clip(pos, 0, len(d) - 1)]

    def bucket(self, v):
        return np.clip((v - self.origin) * self.scale, 0, self.size - 1).astype(np.intp)

    def rank(self, v):
        """np.searchsorted(d, v) for every float v."""
        j = self.bucket(v)
        return self.before[j] + (v > self.entry[j])

    def near(self, v, eps):
        """Whether an entry of d lies within eps of v: the two entries that
        bracket v, the nearest among them, are compared."""
        k = self.rank(v)
        return (np.abs(self.lower[k] - v) <= eps) | (np.abs(self.upper[k] - v) <= eps)


_SEED = ("X", "Y", "Z", "wx", "wy", "wz")

# The images the prefilter tests, name -> (w, coordinate, a, b): the image
# is w - coordinate - a*b, the neighbour the closure computes.  Xp, Yp and
# Zp (first shell) are the images of the seed; ay is the y-image of the
# x-image, bx the x-image of the y-image, and so on (second shell); ayz is
# the z-image of (Xp, ay, Z) and bzx the x-image of (X, Yp, bz) (third).
_IMAGES = {
    "Xp": ("wx", "X", "Y", "Z"),
    "Yp": ("wy", "Y", "X", "Z"),
    "Zp": ("wz", "Z", "X", "Y"),
    "ay": ("wy", "Y", "Xp", "Z"),
    "az": ("wz", "Z", "Xp", "Y"),
    "bx": ("wx", "X", "Yp", "Z"),
    "bz": ("wz", "Z", "X", "Yp"),
    "cx": ("wx", "X", "Y", "Zp"),
    "cy": ("wy", "Y", "X", "Zp"),
    "ayz": ("wz", "Z", "Xp", "ay"),
    "bzx": ("wx", "X", "Yp", "bz"),
}

# name -> (links, p1, p2, w1, w2).  The closure accepts an image v only as
# a link to a known point, whose coordinate v must then equal, as a
# dictionary value, or as a doubly-fixed point: 2*p1 + v*p2 = w1 and
# 2*p2 + v*p1 = w2.
_CHECKS = {
    "Xp": (("X",), "Y", "Z", "wy", "wz"),
    "Yp": (("Y",), "X", "Z", "wx", "wz"),
    "Zp": (("Z",), "X", "Y", "wx", "wy"),
    "ay": (("Y", "Yp"), "Xp", "Z", "wx", "wz"),
    "az": (("Z", "Zp"), "Xp", "Y", "wx", "wy"),
    "bx": (("X", "Xp"), "Yp", "Z", "wy", "wz"),
    "bz": (("Z", "Zp"), "X", "Yp", "wx", "wy"),
    "cx": (("X", "Xp"), "Y", "Zp", "wy", "wz"),
    "cy": (("Y", "Yp"), "X", "Zp", "wx", "wz"),
    "ayz": (("Z", "Zp"), "Xp", "ay", "wx", "wy"),
    "bzx": (("X", "Xp"), "Yp", "bz", "wy", "wz"),
}

# Checks per class, most rejecting first.  Class 1 leaves out the first
# shell: its images are s1 values by construction, so those checks cannot
# fail (tests/test_orbit_search.py proves it over the whole grid).  In
# class 3, ayz rejects most of what the second shell passes.
_ORDER = {
    1: ("bzx", "ayz", "cx", "bz", "az", "cy", "bx", "ay"),
    2: ("bz", "bx", "cx", "Zp", "cy", "Xp", "Yp", "ay", "az"),
    3: ("ayz", "bzx", "bx", "cx", "ay", "az", "cy", "bz", "Xp", "Yp", "Zp"),
    4: ("cy", "Yp", "bz", "ay", "az", "Xp", "Zp", "bx", "cx"),
}

# Classes with a prefix stage: the checks it weakens, and the weight that
# reads the last index axis, which they and the Cayley test leave out.
_PREFIX = {1: (("ay", "bx"), "wz"), 3: (("cy", "bz"), "wx")}


class _Cols(dict):
    """Named values: columns of equal length over a set of seeds, or the
    values of one configuration.  An image is computed from _IMAGES the
    first time it is read."""

    def __missing__(self, key):
        w, c, a, b = _IMAGES[key]
        self[key] = v = self[w] - self[c] - self[a] * self[b]
        return v

    def take(self, keep):
        return _Cols((k, v[keep]) for k, v in self.items())


# Tolerances of the checks in units of eps, covering the float error of
# depth-3 images (module docstring).
_TOL_VALUE = 128.0
_TOL_FIXED = 1024.0


def _check(cols: _Cols, name: str, look4: _Lookup, eps: float, drop: str = ""):
    """Necessary condition for the closure to accept image `name`, with
    tolerance _TOL_VALUE*eps on values and links and _TOL_FIXED*eps on
    fixed points.  With drop naming a weight, the fixed-point alternative
    leaves out the equation with that weight: a weaker condition that
    does not read it."""

    eps_d = _TOL_VALUE * eps
    eps_b = _TOL_FIXED * eps
    links, p1, p2, w1, w2 = _CHECKS[name]
    v = cols[name]
    ok = look4.near(v, eps_d)
    for c in links:
        ok |= np.abs(v - cols[c]) <= eps_d
    a1, a2 = cols[p1], cols[p2]
    fixed = np.ones(len(v), bool)
    if w1 != drop:
        fixed &= np.abs(2.0 * a1 + v * a2 - cols[w1]) <= eps_b
    if w2 != drop:
        fixed &= np.abs(2.0 * a2 + v * a1 - cols[w2]) <= eps_b
    return ok | fixed


def _cayley(cols: _Cols, eps: float):
    """Mask of the Cayley seeds, |wx|, |wy|, |wz|, |omega4| <= eps; omega4
    is computed only where |wx| <= eps."""

    cay = np.abs(cols["wx"]) <= eps
    sel = np.flatnonzero(cay)
    if len(sel):
        X, Y, Z, wx, wy, wz = (cols[k][sel] for k in _SEED)
        cay[sel] = (
            (np.abs(wy) <= eps)
            & (np.abs(wz) <= eps)
            & (np.abs(omega4_of((X, Y, Z), wx, wy, wz)) <= eps)
        )
    return cay


def _prefix_keep(cls: int, pref: np.ndarray, radix: int, t: ScanTables, eps: float):
    """Mask of the prefixes idx // radix whose seeds may pass the class's
    index filter and prefilter, or may be Cayley seeds.

    The values are decoded at the first index of each prefix; the ones
    used here do not depend on the last axis, so they are the same floats
    for every seed of the prefix.
    """

    cols = _Cols(zip(_SEED, _decode_vec(cls, pref * radix, t)))
    names, drop = _PREFIX[cls]
    keep = np.ones(len(pref), bool)
    for name in names:
        keep &= _check(cols, name, t.look4, eps, drop)
    # a Cayley seed has every weight within eps of 0
    cay = np.ones(len(pref), bool)
    for w in ("wx", "wy", "wz"):
        if w != drop:
            cay &= np.abs(cols[w]) <= eps
    keep |= cay
    if cls == 3:
        # the scan keeps a class-3 seed only if Zp is an s1 value
        keep &= t.look1.near(cols["Zp"], eps)
    return keep


# Most a float quantity of the solve stage, computed from a seed row and an
# axis value, differs from the same quantity as a check computes it from
# the decoded seed (module docstring).
_SOLVE_ROUND = 1e-12


def _ranges(lo, hi):
    """(k, j) for every j in [lo[k], hi[k]), by k, then j."""
    n = np.maximum(hi - lo, 0)
    k = np.repeat(np.arange(len(n)), n)
    return k, np.arange(len(k)) - (np.cumsum(n) - n)[k] + lo[k]


def _window(d, lo, hi):
    """Index range [a, b) of the entries of sorted d within [lo, hi]."""
    return np.searchsorted(d, lo), np.searchsorted(d, hi, "right")


def _affine_window(d, a, b, tol):
    """Index range of the entries x of sorted d with |a*x + b| <= tol,
    widened by _SOLVE_ROUND for the rounding of the division; where a is
    0, all of d or nothing."""

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u, v = (-tol - b) / a, (tol - b) / a
        lo, hi = np.minimum(u, v), np.maximum(u, v)
    flat = a == 0
    every = np.abs(b) <= tol
    lo = np.where(flat, np.where(every, -np.inf, np.inf), lo)
    hi = np.where(flat, np.where(every, np.inf, -np.inf), hi)
    return _window(d, lo - _SOLVE_ROUND, hi + _SOLVE_ROUND)


def _window_mask(n, *windows):
    """Mask of shape (*lo.shape, n), true at the j inside any index range
    [lo, hi) given."""

    mask = np.zeros(np.shape(windows[0][0]) + (n,), bool)
    flat = mask.reshape(-1, n)
    k, j = _ranges(*(np.concatenate([w[i].ravel() for w in windows]) for i in (0, 1)))
    flat[k % len(flat), j] = True
    return mask


def _difference_join(d):
    """The differences d[j] - d[i] of all pairs, sorted, and the i of each."""

    diff = (d[None, :] - d[:, None]).ravel()
    order = np.argsort(diff, kind="stable")
    return diff[order], order // len(d)


def _solve4(rows, t: ScanTables, eps: float):
    """Sorted flat indices of the seeds of class-4 rows `rows` (consecutive)
    that may pass both the Zp and the Yp check, or be Cayley seeds.

    Every weight is w = Xp + base, base = X + Y*Z, so an image name in Zp,
    Yp is Xp + c, c = base - coord - a*b by _IMAGES, and each alternative
    of its check confines Xp: a value s4[j] = Xp + c to the i of the pairs
    s4[j] - s4[i] = c of the difference join, a link to a window, the two
    fixed-point equations, affine in Xp, to one window or every Xp.
    """

    s4, n = t.s4, len(t.s4)
    row = dict(zip(LAYOUTS[4].seed, (c[rows] for c in t.seeds[4])))
    base = row["X"] + row["Y"] * row["Z"]
    tol_v = _TOL_VALUE * eps + _SOLVE_ROUND
    tol_f = _TOL_FIXED * eps + _SOLVE_ROUND
    diffs, first = t.join
    # the two checks side by side: rows of Zp, then rows of Yp
    cols = []
    for name in ("Zp", "Yp"):
        _, coord, a, b = _IMAGES[name]
        (link,), p1, p2, _, _ = _CHECKS[name]
        cols.append((base - row[coord] - row[a] * row[b], row[link], row[p1], row[p2]))
    c, link, p1, p2 = (np.concatenate(v) for v in zip(*cols))
    w0 = np.concatenate([base, base])
    # 2*p1 + (Xp + c)*p2 = w and 2*p2 + (Xp + c)*p1 = w
    lo1, hi1 = _affine_window(s4, p2 - 1.0, 2.0 * p1 + c * p2 - w0, tol_f)
    lo2, hi2 = _affine_window(s4, p1 - 1.0, 2.0 * p2 + c * p1 - w0, tol_f)
    lo_l, hi_l = _window(s4, link - c - tol_v, link - c + tol_v)
    lo_f, hi_f = np.maximum(lo1, lo2), np.minimum(hi1, hi2)
    pair, j = _ranges(*_window(diffs, c - tol_v, c + tol_v))
    x = first[j]
    # a mask per check, marked from its rows' windows and values
    m = len(rows)
    split = np.searchsorted(pair, m)
    keep = True
    for h, sel in ((slice(0, m), slice(0, split)), (slice(m, 2 * m), slice(split, None))):
        mask = _window_mask(n, (lo_l[h], hi_l[h]), (lo_f[h], hi_f[h]))
        mask[pair[sel] - h.start, x[sel]] = True
        keep = keep & mask
    # Cayley seeds: |w| <= eps
    tol = eps + _SOLVE_ROUND
    keep |= _window_mask(n, _window(s4, -base - tol, -base + tol))
    return rows[0] * n + np.flatnonzero(keep)


def _solve2(rows, t: ScanTables, eps: float):
    """Sorted flat indices of the seeds of class-2 rows `rows` (consecutive)
    that may pass both the Zp and the bx check, or be Cayley seeds, in
    index order, one array per run of rows of at most _NUMPY_BLOCK seeds.

    With q = (Yp - Y)/Z as _params2 computes it, Xp = X + q, and neither
    Zp = Z + Y*q nor c = bx - X = q + Z*(Y - Yp) reads X.  Per (row, Yp):
    for Zp, a value or a link admits every X; the fixed-point equation of
    wx, Zp*Y = q + Y*Z, does not read X, and that of wy, X*(Zp - Z) =
    Yp - Y, confines X to a window.  For bx, a link to X or Xp admits every
    X, a value s4[j] = X + c the i of the pairs s4[j] - s4[i] = c of the
    difference join; the fixed-point equation of wy, Yp - Y + c*Z = 0, does
    not read X, and that of wz, X*(Yp - Y) + c*Yp - q*Y = 0, confines X to
    a window.  A Cayley seed has |wy| = |Y + Yp + X*Z| <= eps, one more
    window of X.  These are solved for all (row, Yp) pairs at once; the
    seeds are then marked a run of rows at a time.
    """

    s4, n = t.s4, len(t.s4)
    row = dict(zip(LAYOUTS[2].seed, (c[rows, None] for c in t.seeds[2])))
    Y, Z, Yp = row["Y"], row["Z"], s4[None, :]
    tol_v = _TOL_VALUE * eps + _SOLVE_ROUND
    tol_f = _TOL_FIXED * eps + _SOLVE_ROUND
    diffs, first = t.join
    q = (Yp - Y) / Z
    zp = Z + Y * q
    c = q + Z * (Y - Yp)
    dy = Yp - Y
    ranges = []
    for every, fixed, (lo, hi) in (
        (t.look4.near(zp, tol_v) | (np.abs(zp - Z) <= tol_v),
         np.abs(zp * Y - q - Y * Z) <= tol_f,
         _affine_window(s4, zp - Z, -dy, tol_f)),
        ((np.abs(c) <= tol_v) | (np.abs(c - q) <= tol_v),
         np.abs(dy + c * Z) <= tol_f,
         _affine_window(s4, dy, c * Yp - q * Y, tol_f)),
    ):
        lo = np.where(every, 0, np.where(fixed, lo, n)).ravel()
        hi = np.where(every, n, np.where(fixed, hi, 0)).ravel()
        ranges.append((lo, hi))
    (zlo, zhi), (blo, bhi) = ranges
    # bx values inside Zp's window, then the windows of both checks
    pair, j = _ranges(*_window(diffs, (c - tol_v).ravel(), (c + tol_v).ravel()))
    x = first[j]
    inside = (zlo[pair] <= x) & (x < zhi[pair])
    pair, x = pair[inside], x[inside]
    lo, hi = np.maximum(zlo, blo), np.minimum(zhi, bhi)
    clo, chi = _affine_window(s4, np.broadcast_to(Z, zp.shape), Y + Yp, eps + _SOLVE_ROUND)
    clo, chi = clo.ravel(), chi.ravel()
    run = max(1, _NUMPY_BLOCK // _row_size(2, t))
    cut = np.searchsorted(pair, np.arange(0, len(rows) + run, run) * n)
    for r in range(0, len(rows), run):
        a, b = r * n, min(len(rows), r + run) * n
        # the mask is indexed (row, Yp, X); flat indices run (row, X, Yp)
        keep = _window_mask(n, (lo[a:b], hi[a:b]), (clo[a:b], chi[a:b])).reshape(-1, n)
        k = slice(cut[r // run], cut[r // run + 1])
        keep[pair[k] - a, x[k]] = True
        keep = keep.reshape(-1, n, n).transpose(0, 2, 1)
        yield (rows[0] + r) * n * n + np.flatnonzero(keep)


def _decode_vec(cls: int, idx, t: ScanTables):
    """(X, Y, Z, wx, wy, wz) of flat indices: float arrays, one entry per
    index of the int array idx, or floats for one int idx.  Raises
    ValueError for a class outside 1..4.  The scan computes every image
    from these six, as the closure does, not from an axis value."""

    v = decode(cls, idx, t.dicts, lambda row: [c[row] for c in t.seeds[cls]])
    return tuple(v[k] for k in _SEED)


def decode_float(cls: int, idx: int, t: ScanTables) -> Tuple[float, ...]:
    """Seed (X, Y, Z, wx, wy, wz, w4) of one flat configuration index."""

    X, Y, Z, wx, wy, wz = (float(v) for v in _decode_vec(cls, idx, t))
    return X, Y, Z, wx, wy, wz, omega4_of((X, Y, Z), wx, wy, wz)


# Most seeds a scan stage holds.  On a 2-CPU Xeon VM, 1 << 16 took the
# peak RSS of full_search 2.5 MB higher than this, at the same speed.
_NUMPY_BLOCK = 1 << 15

# Most seeds a lockstep batch closes at once.  The live arrays take 48
# bytes per row and point slot.  Before the third-shell checks, class 1's
# first block of 2^17 seeds sent about 32,000 candidates to the closure
# (about 2,000 now, and class 3's about 7,000); closing them all at once
# took the benchmark's peak RSS from 65 to 107 MB, while 2,048 or 4,096
# rows kept it at 65 MB, at the same speed.
_LOCKSTEP_ROWS = 2048

# Live rows at which a batch hands its remaining seeds to _close_pylist.
# One long orbit would otherwise keep a nearly empty batch iterating: for
# a 72-point orbit on a 2-CPU Xeon VM, 33 rows in lockstep took 23 ms and
# 33 per-seed closures 20 ms, 128 rows 32 ms against 77 ms.
_LOCKSTEP_HANDOFF = 32


def _close_lockstep(seeds: np.ndarray, look4: _Lookup, s4list, eps: float) -> np.ndarray:
    """_close_pylist's result for every row (X, Y, Z, wx, wy, wz) of seeds.

    The rows advance together, one BFS slot per iteration, and each row
    runs the float operations of _close_pylist in the same order: the
    cursor moves to the next unknown slot 3*i + c below 3*n (none left:
    accepted with size n), v = w_c - p_c - a1*a2 is linked to the first
    point within eps in all three coordinates (rejected if that slot is
    filled), else appended as a dictionary value (look4.near, the same
    two-neighbour test as bisect), else as a doubly-fixed point, else
    rejected; an append at n >= CAP gives -1.  A row whose three images
    of the seed each lie within eps of the seed's own coordinate links all
    three slots to the seed: it gets 1 before the loop.  Finished rows are
    dropped, the point width doubles as needed, and once at most
    _LOCKSTEP_HANDOFF rows are live they are closed by _close_pylist from
    their start.
    """

    res = np.zeros(len(seeds), np.int64)
    X, Y, Z, wx, wy, wz = seeds.T
    one = (np.abs(X - (wx - X - Y * Z)) <= eps) & (np.abs(Y - (wy - Y - X * Z)) <= eps)
    one &= np.abs(Z - (wz - Z - X * Y)) <= eps
    res[one] = 1
    rid = np.flatnonzero(~one)
    ws = seeds[rid, 3:].T
    # P[c, r, j] is coordinate c of point j of row r, NaN where there is no
    # point, so that no link test matches it; N[r, j, c] is the c-neighbour
    # of that point, -1 while unknown, and N[r].ravel()[s] slot s.
    P = np.full((3, len(rid), 4), np.nan)
    P[:, :, 0] = seeds[rid, :3].T
    N = np.full((len(rid), 4, 3), -1, np.int64)
    n = np.ones(len(rid), np.int64)
    s = np.zeros(len(rid), np.int64)
    while len(rid) > _LOCKSTEP_HANDOFF:
        # n < width in every row, so slot s <= 3*n is in range, and the
        # slots from 3*n on are unknown, which stops the cursor there
        ar = np.arange(len(rid))
        Nf = N.reshape(len(rid), 3 * N.shape[1])
        k = np.flatnonzero(Nf[ar, s] >= 0)
        while len(k):
            s[k] += 1
            k = k[Nf[k, s[k]] >= 0]
        i, c = np.divmod(s, 3)
        done = i >= n
        if done.any():
            res[rid[done]] = n[done]
            live = ~done
            rid, N, n, s, i, c = (x[live] for x in (rid, N, n, s, i, c))
            P, ws = P[:, live], ws[:, live]
            ar = np.arange(len(rid))
            Nf = N.reshape(len(rid), 3 * N.shape[1])
        o1 = (c == 0).astype(np.int64)
        o2 = np.where(c == 2, 1, 2)
        q = P[:, ar, i]
        a1, a2 = q[o1, ar], q[o2, ar]
        v = ws[c, ar] - q[c, ar] - a1 * a2
        q[c, ar] = v
        match = np.abs(P[0] - q[0, :, None]) <= eps
        match &= np.abs(P[1] - q[1, :, None]) <= eps
        match &= np.abs(P[2] - q[2, :, None]) <= eps
        j = match.argmax(axis=1)
        link = match[ar, j]
        good = look4.near(v, eps)
        fixed = (np.abs(2.0 * a1 + v * a2 - ws[o1, ar]) <= eps) & (
            np.abs(2.0 * a2 + v * a1 - ws[o2, ar]) <= eps
        )
        add = ~link & (good | fixed)
        fixed &= add & ~good
        out = link & (Nf[ar, 3 * j + c] != -1)
        capped = add & (n >= CAP)
        out |= capped | ~(link | add)
        res[rid[capped]] = -1
        r = np.flatnonzero(link & ~out)
        Nf[r, s[r]] = j[r]
        Nf[r, 3 * j[r] + c[r]] = i[r]
        r = np.flatnonzero(add & ~out)
        P[:, r, n[r]] = q[:, r]
        Nf[r, s[r]] = n[r]
        Nf[r, 3 * n[r] + c[r]] = i[r]
        r = np.flatnonzero(fixed & ~out)
        Nf[r, 3 * n[r] + o1[r]] = n[r]
        Nf[r, 3 * n[r] + o2[r]] = n[r]
        n[add] += 1
        s += 1
        if out.any():
            live = ~out
            rid, N, n, s = (x[live] for x in (rid, N, n, s))
            P, ws = P[:, live], ws[:, live]
        if len(n) and n.max() >= N.shape[1]:
            P = np.concatenate([P, np.full_like(P, np.nan)], axis=2)
            N = np.concatenate([N, np.full_like(N, -1)], axis=1)
    for r in rid.tolist():
        res[r] = _close_pylist(*seeds[r].tolist(), s4list, eps)[0]
    return res


def scan_chunk(cls: int, start: int, stop: int, t: ScanTables, eps: float, backend: str):
    """Scan one contiguous index range; returns (idx, size, processed, cayley, cap).

    backend must be "numpy", the one scan there is; anything else raises
    ValueError.  The stages are those of the module docstring.  The first
    stage runs on blocks of _NUMPY_BLOCK prefixes idx // radix (classes 1
    and 3, radix the last axis) or of the seed rows idx // radix holding
    _NUMPY_BLOCK (row, last-axis value) pairs (classes 2 and 4, radix the
    seeds of a row).  What it keeps, prefixes or flat indices, is gathered
    across blocks and expanded, decoded and checked _NUMPY_BLOCK seeds at a
    time, so that no stage holds more than _NUMPY_BLOCK seeds; the seeds
    are cut to [start, stop) there.  The candidates are gathered in index
    order and closed _LOCKSTEP_ROWS at a time, each with the result the
    per-seed closure gives, so the output is that of the full conjunction
    evaluated on every seed, and does not depend on how a range is split
    into calls.
    """

    if backend != "numpy":
        raise ValueError("unknown backend %r" % backend)
    out_idx = []
    out_size = []
    nproc = max(0, stop - start) - int(cls == 1 and start <= t.skip1 < stop)
    ncay = 0
    ncap = 0
    pend_idx = np.empty(0, np.int64)
    pend = np.empty((0, len(_SEED)))

    def close(m):
        nonlocal pend_idx, pend, ncap
        res = _close_lockstep(pend[:m], t.look4, t.s4list, eps)
        ncap += int(np.count_nonzero(res == -1))
        out_idx.extend(pend_idx[:m][res > 0].tolist())
        out_size.extend(res[res > 0].tolist())
        pend_idx, pend = pend_idx[m:], pend[m:]

    def expand(kept):
        nonlocal ncay, pend_idx, pend
        idx = kept
        if cls in _PREFIX:
            idx = (kept[:, None] * radix + np.arange(radix)).ravel()
        idx = idx[np.searchsorted(idx, start):np.searchsorted(idx, stop)]
        if cls == 1:
            idx = idx[idx != t.skip1]
        if not len(idx):
            return
        cols = _Cols(zip(_SEED, _decode_vec(cls, idx, t)))
        cols["idx"] = idx
        ncay += int(np.count_nonzero(_cayley(cols, eps)))
        for name in _ORDER[cls]:
            cols = cols.take(_check(cols, name, t.look4, eps))
        cols = cols.take(~_cayley(cols, eps))
        pend_idx = np.concatenate([pend_idx, cols["idx"]])
        pend = np.concatenate([pend, np.stack([cols[k] for k in _SEED], axis=1)])
        while len(pend) >= _LOCKSTEP_ROWS:
            close(_LOCKSTEP_ROWS)

    axis = len(t.dicts[LAYOUTS[cls].axes[-1][1]])
    if cls in _PREFIX:
        # a prefix is decoded once, at its first index
        radix, group, step = axis, _NUMPY_BLOCK // axis, _NUMPY_BLOCK

        def first_stage(pref):
            yield pref[_prefix_keep(cls, pref, radix, t, eps)]
    else:
        # a row holds `axis` (row, last-axis value) pairs
        radix, group, step = _row_size(cls, t), _NUMPY_BLOCK, _NUMPY_BLOCK // axis

        def first_stage(rows):
            if cls == 4:
                yield _solve4(rows, t, eps)
            else:
                yield from _solve2(rows, t, eps)

    first, last = start // radix, -(-stop // radix)
    kept = np.empty(0, np.int64)
    for a in range(first, last, step):
        for part in first_stage(np.arange(a, min(last, a + step), dtype=np.int64)):
            kept = np.concatenate([kept, part])
            while len(kept) >= group:
                expand(kept[:group])
                kept = kept[group:]
    expand(kept)
    close(len(pend))
    return out_idx, out_size, nproc, ncay, ncap
