"""Backend-selectable float scan loops for the orbit search.

The search examines roughly 1.2e8 candidate seeds.  Each seed is a point
(X, Y, Z) plus parameters (wx, wy, wz) fed to a closure routine that
repeatedly resolves missing neighbors: link to an already known point,
append a new good point when the changed coordinate is a dictionary
value, accept a doubly-fixed point when the two fixed-point relations
2*A + V*B = w hold, and reject otherwise.  A seed survives when the
graph closes; survivors are re-derived and confirmed in exact arithmetic
by orbit_search.

Two interchangeable backends share the same closure source:

* ``numba``: the scan loops below are jitted (nogil) and run over raw
  index ranges.
* ``numpy``: a vectorized prefilter evaluates necessary pass conditions
  for the first two image shells of every seed; only the rare candidates
  passing all of them run the (uncompiled) closure.

The prefilter conditions are strictly weaker than the closure's accept
conditions, so both backends produce identical survivor lists and
statistics.  All work here is double precision with a tolerance well
below half the minimal dictionary gap; nothing reported from this module
is trusted without the exact confirmation pass.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Tuple

import numpy as np

try:  # pragma: no cover - exercised implicitly by backend tests
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    numba = None
    HAVE_NUMBA = False

__all__ = [
    "CAP",
    "CHUNK",
    "HAVE_NUMBA",
    "ScanTables",
    "backend_name",
    "class_size",
    "close_float",
    "decode_float",
    "scan_chunk",
]

# Good points in a non-Cayley finite orbit are at most 71^2 * 2 = 10082,
# bad points at most two more; the closure gives up past this bound.
CAP = 2 * 10082 + 2

# Fixed work-splitting unit: thread counts change scheduling, never results.
CHUNK = 1 << 20


def backend_name() -> str:
    """The backend FRICKE_ORBITS_BACKEND forces, else the fastest installed.

    Raises ValueError, naming the variable, for an unknown value or for
    numba forced while it is not installed.
    """
    forced = os.environ.get("FRICKE_ORBITS_BACKEND", "").strip().lower()
    if not forced:
        return "numba" if HAVE_NUMBA else "numpy"
    if forced not in ("numba", "numpy"):
        raise ValueError("FRICKE_ORBITS_BACKEND must be numba or numpy, got %r" % forced)
    if forced == "numba" and not HAVE_NUMBA:
        raise ValueError("FRICKE_ORBITS_BACKEND=numba but numba is not installed")
    return forced


class ScanTables(NamedTuple):
    """Float dictionaries and per-class coordinate tables.

    s1/s4: sorted dictionary values.  c1*: 1632 ordered seed triples for
    class 1 (both sign chains) and the single flat index skipped in the
    mirrored chain.  p2*: 902 (Y, Z) pairs for class 2.  p3*: 256 (Y, Z)
    pairs for class 3.  c4*: 98770 ordered triples for class 4.
    """

    s1: np.ndarray
    s4: np.ndarray
    c1x: np.ndarray
    c1y: np.ndarray
    c1z: np.ndarray
    skip1: int
    p2y: np.ndarray
    p2z: np.ndarray
    p3y: np.ndarray
    p3z: np.ndarray
    c4x: np.ndarray
    c4y: np.ndarray
    c4z: np.ndarray


def class_size(cls: int, t: ScanTables) -> int:
    if cls == 1:
        return len(t.c1x) * 31 ** 3
    if cls == 2:
        return len(t.p2y) * 83 * 83
    if cls == 3:
        return len(t.p3y) * 31 * 83 * 83
    if cls == 4:
        return len(t.c4x) * 83
    raise ValueError("class must be 1..4")


# ---------------------------------------------------------------------------
# closure core (single source; compiled and plain execution)


def _close_impl(pc, nb, X, Y, Z, wx, wy, wz, s4, eps):
    # pc: float64 (3, CAP) coordinates; nb: int64 (3, CAP) neighbor slots,
    # -1 unknown, own index = fixed point.  Returns the closed size, 0 for
    # "cannot be finite", -1 for cap overflow.
    cap = pc.shape[1]
    pc[0, 0] = X
    pc[1, 0] = Y
    pc[2, 0] = Z
    nb[0, 0] = -1
    nb[1, 0] = -1
    nb[2, 0] = -1
    n = 1
    i = 0
    while i < n:
        c = 0
        while c < 3:
            if nb[c, i] >= 0:
                c += 1
                continue
            o1 = 1 if c == 0 else 0
            o2 = 1 if c == 2 else 2
            if c == 0:
                w = wx
            elif c == 1:
                w = wy
            else:
                w = wz
            v = w - pc[c, i] - pc[o1, i] * pc[o2, i]
            found = -1
            j = 0
            while j < n:
                if (
                    abs(pc[c, j] - v) <= eps
                    and abs(pc[o1, j] - pc[o1, i]) <= eps
                    and abs(pc[o2, j] - pc[o2, i]) <= eps
                ):
                    found = j
                    break
                j += 1
            if found >= 0:
                if nb[c, found] != -1:
                    return 0
                nb[c, i] = found
                nb[c, found] = i
                c += 1
                continue
            k = np.searchsorted(s4, v)
            good = False
            if k < s4.shape[0] and abs(s4[k] - v) <= eps:
                good = True
            elif k > 0 and abs(s4[k - 1] - v) <= eps:
                good = True
            if good:
                if n >= cap:
                    return -1
                pc[c, n] = v
                pc[o1, n] = pc[o1, i]
                pc[o2, n] = pc[o2, i]
                nb[0, n] = -1
                nb[1, n] = -1
                nb[2, n] = -1
                nb[c, n] = i
                nb[c, i] = n
                n += 1
                c += 1
                continue
            a1 = pc[o1, i]
            a2 = pc[o2, i]
            if o1 == 0:
                w1 = wx
            elif o1 == 1:
                w1 = wy
            else:
                w1 = wz
            if o2 == 1:
                w2 = wy
            else:
                w2 = wz
            if abs(2.0 * a1 + v * a2 - w1) <= eps and abs(2.0 * a2 + v * a1 - w2) <= eps:
                if n >= cap:
                    return -1
                pc[c, n] = v
                pc[o1, n] = a1
                pc[o2, n] = a2
                nb[c, n] = i
                nb[o1, n] = n
                nb[o2, n] = n
                nb[c, i] = n
                n += 1
                c += 1
                continue
            return 0
        i += 1
    return n


def _omega4(X, Y, Z, wx, wy, wz):
    return 4.0 + wx * X + wy * Y + wz * Z - (X * Y * Z + X * X + Y * Y + Z * Z)


def _make_scan1(close, omega4):
    def scan(start, stop, skip, c1x, c1y, c1z, s1, s4, eps, out_idx, out_size):
        pc = np.empty((3, CAP), np.float64)
        nb = np.empty((3, CAP), np.int64)
        m = 0
        nproc = 0
        ncay = 0
        ncap = 0
        for idx in range(start, stop):
            if idx == skip:
                continue
            nproc += 1
            t = idx // 29791
            r = idx - t * 29791
            a = r // 961
            r2 = r - a * 961
            b = r2 // 31
            cc = r2 - b * 31
            X = c1x[t]
            Y = c1y[t]
            Z = c1z[t]
            wx = X + s1[a] + Y * Z
            wy = Y + s1[b] + X * Z
            wz = Z + s1[cc] + X * Y
            w4 = omega4(X, Y, Z, wx, wy, wz)
            if abs(wx) <= eps and abs(wy) <= eps and abs(wz) <= eps and abs(w4) <= eps:
                ncay += 1
                continue
            res = close(pc, nb, X, Y, Z, wx, wy, wz, s4, eps)
            if res == -1:
                ncap += 1
            elif res > 0:
                out_idx[m] = idx
                out_size[m] = res
                m += 1
        return m, nproc, ncay, ncap

    return scan


def _make_scan2(close, omega4):
    def scan(start, stop, p2y, p2z, s4, eps, out_idx, out_size):
        pc = np.empty((3, CAP), np.float64)
        nb = np.empty((3, CAP), np.int64)
        m = 0
        nproc = 0
        ncay = 0
        ncap = 0
        for idx in range(start, stop):
            nproc += 1
            t = idx // 6889
            r = idx - t * 6889
            iX = r // 83
            iYp = r - iX * 83
            Y = p2y[t]
            Z = p2z[t]
            X = s4[iX]
            Yp = s4[iYp]
            Xp = X + (Yp - Y) / Z
            wx = X + Xp + Y * Z
            wy = Y + Yp + X * Z
            wz = 2.0 * Z + Xp * Y
            w4 = omega4(X, Y, Z, wx, wy, wz)
            if abs(wx) <= eps and abs(wy) <= eps and abs(wz) <= eps and abs(w4) <= eps:
                ncay += 1
                continue
            res = close(pc, nb, X, Y, Z, wx, wy, wz, s4, eps)
            if res == -1:
                ncap += 1
            elif res > 0:
                out_idx[m] = idx
                out_size[m] = res
                m += 1
        return m, nproc, ncay, ncap

    return scan


def _make_scan3(close, omega4):
    def scan(start, stop, p3y, p3z, s1, s4, eps, out_idx, out_size):
        pc = np.empty((3, CAP), np.float64)
        nb = np.empty((3, CAP), np.int64)
        m = 0
        nproc = 0
        ncay = 0
        ncap = 0
        for idx in range(start, stop):
            nproc += 1
            t = idx // 213559
            r = idx - t * 213559
            iYp = r // 6889
            r2 = r - iYp * 6889
            iX = r2 // 83
            iXp = r2 - iX * 83
            Y = p3y[t]
            Z = p3z[t]
            Yp = s1[iYp]
            X = s4[iX]
            Xp = s4[iXp]
            Zp = (Y + Yp + X * Z) - Z - X * Y
            k = np.searchsorted(s1, Zp)
            good = False
            if k < s1.shape[0] and abs(s1[k] - Zp) <= eps:
                good = True
            elif k > 0 and abs(s1[k - 1] - Zp) <= eps:
                good = True
            if not good:
                continue
            wx = X + Xp + Y * Z
            wy = Y + Yp + X * Z
            wz = wy
            w4 = omega4(X, Y, Z, wx, wy, wz)
            if abs(wx) <= eps and abs(wy) <= eps and abs(wz) <= eps and abs(w4) <= eps:
                ncay += 1
                continue
            res = close(pc, nb, X, Y, Z, wx, wy, wz, s4, eps)
            if res == -1:
                ncap += 1
            elif res > 0:
                out_idx[m] = idx
                out_size[m] = res
                m += 1
        return m, nproc, ncay, ncap

    return scan


def _make_scan4(close, omega4):
    def scan(start, stop, c4x, c4y, c4z, s4, eps, out_idx, out_size):
        pc = np.empty((3, CAP), np.float64)
        nb = np.empty((3, CAP), np.int64)
        m = 0
        nproc = 0
        ncay = 0
        ncap = 0
        for idx in range(start, stop):
            nproc += 1
            t = idx // 83
            iXp = idx - t * 83
            X = c4x[t]
            Y = c4y[t]
            Z = c4z[t]
            wc = X + s4[iXp] + Y * Z
            w4 = omega4(X, Y, Z, wc, wc, wc)
            if abs(wc) <= eps and abs(w4) <= eps:
                ncay += 1
                continue
            res = close(pc, nb, X, Y, Z, wc, wc, wc, s4, eps)
            if res == -1:
                ncap += 1
            elif res > 0:
                out_idx[m] = idx
                out_size[m] = res
                m += 1
        return m, nproc, ncay, ncap

    return scan


def _close_pylist(X, Y, Z, wx, wy, wz, s4, eps):
    """List-based twin of _close_impl: same operations in the same order,
    so every branch decision matches the compiled version bit for bit.
    Returns (result, [px, py, pz], [nx, ny, nz])."""

    import bisect

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


_close_py = _close_impl
_SCAN_PY = {
    1: _make_scan1(_close_py, _omega4),
    2: _make_scan2(_close_py, _omega4),
    3: _make_scan3(_close_py, _omega4),
    4: _make_scan4(_close_py, _omega4),
}

_NB_CACHE: dict = {}


def _compiled_close():
    if "close" not in _NB_CACHE:
        _NB_CACHE["close"] = numba.njit(nogil=True, fastmath=False)(_close_impl)
    return _NB_CACHE["close"]


def _compiled_scans():
    if 1 not in _NB_CACHE:
        jit = numba.njit(nogil=True, fastmath=False)
        close_nb = _compiled_close()
        omega4_nb = jit(_omega4)
        _NB_CACHE[1] = jit(_make_scan1(close_nb, omega4_nb))
        _NB_CACHE[2] = jit(_make_scan2(close_nb, omega4_nb))
        _NB_CACHE[3] = jit(_make_scan3(close_nb, omega4_nb))
        _NB_CACHE[4] = jit(_make_scan4(close_nb, omega4_nb))
    return _NB_CACHE


# ---------------------------------------------------------------------------
# plain helpers


def decode_float(cls: int, idx: int, t: ScanTables) -> Tuple[float, ...]:
    """Seed (X, Y, Z, wx, wy, wz, w4) of one flat configuration index."""

    if cls == 1:
        ti, r = divmod(idx, 29791)
        a, r2 = divmod(r, 961)
        b, cc = divmod(r2, 31)
        X, Y, Z = t.c1x[ti], t.c1y[ti], t.c1z[ti]
        wx = X + t.s1[a] + Y * Z
        wy = Y + t.s1[b] + X * Z
        wz = Z + t.s1[cc] + X * Y
    elif cls == 2:
        ti, r = divmod(idx, 6889)
        iX, iYp = divmod(r, 83)
        Y, Z = t.p2y[ti], t.p2z[ti]
        X, Yp = t.s4[iX], t.s4[iYp]
        Xp = X + (Yp - Y) / Z
        wx = X + Xp + Y * Z
        wy = Y + Yp + X * Z
        wz = 2.0 * Z + Xp * Y
    elif cls == 3:
        ti, r = divmod(idx, 213559)
        iYp, r2 = divmod(r, 6889)
        iX, iXp = divmod(r2, 83)
        Y, Z = t.p3y[ti], t.p3z[ti]
        X, Xp, Yp = t.s4[iX], t.s4[iXp], t.s1[iYp]
        wx = X + Xp + Y * Z
        wy = Y + Yp + X * Z
        wz = wy
    elif cls == 4:
        ti, iXp = divmod(idx, 83)
        X, Y, Z = t.c4x[ti], t.c4y[ti], t.c4z[ti]
        wx = wy = wz = X + t.s4[iXp] + Y * Z
    else:
        raise ValueError("class must be 1..4")
    return X, Y, Z, wx, wy, wz, _omega4(X, Y, Z, wx, wy, wz)


def close_float(X, Y, Z, wx, wy, wz, s4, eps, want_points=False):
    """Run the closure on one float seed.

    Returns size (0 reject, -1 cap) or, with want_points, the tuple
    (size, coords[3, size], slots[3, size]).
    """

    if HAVE_NUMBA:
        pc = np.empty((3, CAP), np.float64)
        nb = np.empty((3, CAP), np.int64)
        res = _compiled_close()(pc, nb, X, Y, Z, wx, wy, wz, np.asarray(s4), eps)
        if not want_points:
            return res
        n = max(res, 0)
        return res, pc[:, :n].copy(), nb[:, :n].copy()
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
# numpy backend: vectorized necessary conditions, then the shared closure


def _in_dict_vec(v, d, eps):
    k = np.searchsorted(d, v)
    ok = np.zeros(v.shape, dtype=bool)
    lo = np.clip(k - 1, 0, len(d) - 1)
    hi = np.clip(k, 0, len(d) - 1)
    ok |= np.abs(d[lo] - v) <= eps
    ok |= np.abs(d[hi] - v) <= eps
    return ok


def _prefilter_mask(X, Y, Z, wx, wy, wz, s4, eps):
    """Necessary conditions for closure success on the first two shells."""

    eps_d = 4.0 * eps
    eps_b = 16.0 * eps
    Xp = wx - X - Y * Z
    Yp = wy - Y - X * Z
    Zp = wz - Z - X * Y

    def check(v, ax0, ax1, p1, p2, w1, w2):
        ok = _in_dict_vec(v, s4, eps_d)
        ok |= np.abs(v - ax0) <= eps_d
        if ax1 is not None:
            ok |= np.abs(v - ax1) <= eps_d
        ok |= (np.abs(2.0 * p1 + v * p2 - w1) <= eps_b) & (
            np.abs(2.0 * p2 + v * p1 - w2) <= eps_b
        )
        return ok

    # first shell: images of the seed point itself
    mask = check(Xp, X, None, Y, Z, wy, wz)
    mask &= check(Yp, Y, None, X, Z, wx, wz)
    mask &= check(Zp, Z, None, X, Y, wx, wy)
    # second shell: images of the three one-step points
    ay = wy - Y - Xp * Z
    az = wz - Z - Xp * Y
    bx = wx - X - Yp * Z
    bz = wz - Z - X * Yp
    cx = wx - X - Y * Zp
    cy = wy - Y - X * Zp
    mask &= check(ay, Y, Yp, Xp, Z, wx, wz)
    mask &= check(az, Z, Zp, Xp, Y, wx, wy)
    mask &= check(bx, X, Xp, Yp, Z, wy, wz)
    mask &= check(bz, Z, Zp, X, Yp, wx, wy)
    mask &= check(cx, X, Xp, Y, Zp, wy, wz)
    mask &= check(cy, Y, Yp, X, Zp, wx, wz)
    return mask


def _decode_vec(cls: int, idx: np.ndarray, t: ScanTables, eps: float):
    if cls == 1:
        ti, r = np.divmod(idx, 29791)
        a, r2 = np.divmod(r, 961)
        b, cc = np.divmod(r2, 31)
        X, Y, Z = t.c1x[ti], t.c1y[ti], t.c1z[ti]
        wx = X + t.s1[a] + Y * Z
        wy = Y + t.s1[b] + X * Z
        wz = Z + t.s1[cc] + X * Y
        keep = None
    elif cls == 2:
        ti, r = np.divmod(idx, 6889)
        iX, iYp = np.divmod(r, 83)
        Y, Z = t.p2y[ti], t.p2z[ti]
        X, Yp = t.s4[iX], t.s4[iYp]
        Xp = X + (Yp - Y) / Z
        wx = X + Xp + Y * Z
        wy = Y + Yp + X * Z
        wz = 2.0 * Z + Xp * Y
        keep = None
    elif cls == 3:
        ti, r = np.divmod(idx, 213559)
        iYp, r2 = np.divmod(r, 6889)
        iX, iXp = np.divmod(r2, 83)
        Y, Z = t.p3y[ti], t.p3z[ti]
        X, Xp, Yp = t.s4[iX], t.s4[iXp], t.s1[iYp]
        Zp = (Y + Yp + X * Z) - Z - X * Y
        keep = _in_dict_vec(Zp, t.s1, eps)
        wx = X + Xp + Y * Z
        wy = Y + Yp + X * Z
        wz = wy
    else:
        ti, iXp = np.divmod(idx, 83)
        X, Y, Z = t.c4x[ti], t.c4y[ti], t.c4z[ti]
        wx = X + t.s4[iXp] + Y * Z
        wy = wx
        wz = wx
        keep = None
    return X, Y, Z, wx, wy, wz, keep


_NUMPY_BLOCK = 1 << 16


def _scan_chunk_numpy(cls, start, stop, t: ScanTables, eps):
    s4list = t.s4.tolist()
    out_idx = []
    out_size = []
    nproc = 0
    ncay = 0
    ncap = 0
    for a in range(start, stop, _NUMPY_BLOCK):
        b = min(stop, a + _NUMPY_BLOCK)
        idx = np.arange(a, b, dtype=np.int64)
        if cls == 1 and a <= t.skip1 < b:
            idx = idx[idx != t.skip1]
        nproc += len(idx)
        X, Y, Z, wx, wy, wz, keep = _decode_vec(cls, idx, t, eps)
        if keep is not None:
            idx, X, Y, Z = idx[keep], X[keep], Y[keep], Z[keep]
            wx, wy, wz = wx[keep], wy[keep], wz[keep]
        w4 = _omega4(X, Y, Z, wx, wy, wz)
        cay = (
            (np.abs(wx) <= eps)
            & (np.abs(wy) <= eps)
            & (np.abs(wz) <= eps)
            & (np.abs(w4) <= eps)
        )
        ncay += int(cay.sum())
        live = ~cay
        live &= _prefilter_mask(X, Y, Z, wx, wy, wz, t.s4, eps)
        for pos in np.flatnonzero(live):
            res, _, _ = _close_pylist(
                float(X[pos]),
                float(Y[pos]),
                float(Z[pos]),
                float(wx[pos]),
                float(wy[pos]),
                float(wz[pos]),
                s4list,
                eps,
            )
            if res == -1:
                ncap += 1
            elif res > 0:
                out_idx.append(int(idx[pos]))
                out_size.append(int(res))
    return out_idx, out_size, nproc, ncay, ncap


def _scan_chunk_loop(cls, start, stop, t: ScanTables, eps, scans):
    out_idx = np.empty(stop - start, np.int64)
    out_size = np.empty(stop - start, np.int64)
    if cls == 1:
        m, nproc, ncay, ncap = scans[1](
            start, stop, t.skip1, t.c1x, t.c1y, t.c1z, t.s1, t.s4, eps, out_idx, out_size
        )
    elif cls == 2:
        m, nproc, ncay, ncap = scans[2](
            start, stop, t.p2y, t.p2z, t.s4, eps, out_idx, out_size
        )
    elif cls == 3:
        m, nproc, ncay, ncap = scans[3](
            start, stop, t.p3y, t.p3z, t.s1, t.s4, eps, out_idx, out_size
        )
    elif cls == 4:
        m, nproc, ncay, ncap = scans[4](
            start, stop, t.c4x, t.c4y, t.c4z, t.s4, eps, out_idx, out_size
        )
    else:
        raise ValueError("class must be 1..4")
    return list(out_idx[:m]), list(out_size[:m]), nproc, ncay, ncap


def scan_chunk(cls: int, start: int, stop: int, t: ScanTables, eps: float, backend: str):
    """Scan one contiguous index range; returns (idx, size, processed, cayley, cap)."""

    if backend == "numba":
        return _scan_chunk_loop(cls, start, stop, t, eps, _compiled_scans())
    if backend == "numpy":
        return _scan_chunk_numpy(cls, start, stop, t, eps)
    if backend == "plain":  # reference path, test use only
        return _scan_chunk_loop(cls, start, stop, t, eps, _SCAN_PY)
    raise ValueError("unknown backend %r" % backend)
