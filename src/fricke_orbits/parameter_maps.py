"""Parameter maps between theta tuples and surface parameters.

The four theta parameters of a rank-2 isomonodromy problem enter the
orbit machinery only through p_nu = 2cos(pi*theta_nu) and the derived
surface parameters

    wX = px*pinf + py*pz,   wY = py*pinf + pz*px,   wZ = pz*pinf + px*py,
    w4 = px^2 + py^2 + pz^2 + pinf^2 + px*py*pz*pinf.

This module evaluates that map (fricke_action.omega_of_traces) exactly
and in floats, provides the cubic satisfied by xi = sum of p^2
together with its closed-form roots, implements the
standard Backlund transformations on theta and on the surface
parameters, and recovers all bounded-denominator theta tuples for a
given parameter set by exhaustive search over cosine values.
"""

from __future__ import annotations

import itertools
import math

from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

import numpy as np

from ._kernels import _ranges
from .fricke_action import Omega, omega_of_traces
from .trig_field import CosSum, compare_tuples, cos_value, from_rational

_HALF = Fraction(1, 2)


class Theta(NamedTuple):
    """Rational parameter 4-tuple; delta is half the coordinate sum."""

    tx: Fraction
    ty: Fraction
    tz: Fraction
    tinf: Fraction

    @property
    def delta(self) -> Fraction:
        return (self.tx + self.ty + self.tz + self.tinf) * _HALF


def make_theta(tx, ty, tz, tinf) -> Theta:
    return Theta(Fraction(tx), Fraction(ty), Fraction(tz), Fraction(tinf))


class PTuple(NamedTuple):
    px: CosSum
    py: CosSum
    pz: CosSum
    pinf: CosSum


def p_of_theta(t: Theta) -> PTuple:
    return PTuple(*(cos_value(q) for q in t))


def omega_from_theta(t: Theta) -> Omega:
    """Exact surface parameters (wX, wY, wZ, w4) of a theta tuple."""

    return omega_of_traces(*p_of_theta(t))


# ---------------------------------------------------------------------------
# the cubic satisfied by xi = px^2 + py^2 + pz^2 + pinf^2


def xi_cubic(w: Omega) -> Tuple[CosSum, CosSum, CosSum]:
    """Coefficients (a, b, c) of xi^3 - a*xi^2 + b*xi - c = 0."""

    sq = w.wx * w.wx + w.wy * w.wy + w.wz * w.wz
    a = w.w4 + from_rational(16)
    b = w.wx * w.wy * w.wz - sq * 4 + w.w4 * 32
    c = (
        w.wx * w.wx * w.wy * w.wy
        + w.wx * w.wx * w.wz * w.wz
        + w.wy * w.wy * w.wz * w.wz
        - w.w4 * sq * 4
        + w.w4 * w.w4 * 16
    )
    return a, b, c


def xi_root_check(w: Omega, xi: CosSum) -> bool:
    a, b, c = xi_cubic(w)
    return xi * xi * xi - a * xi * xi + b * xi == c


def xi_roots(t: Theta) -> Tuple[CosSum, CosSum, CosSum]:
    """The three roots (xi0, xi+, xi-) expressed through theta.

    xi0 is the sum of squared p values; the other two are
    8*(1 + prod cos(pi*theta) +/- prod sin(pi*theta)), evaluated in the
    ring via 2sin(pi*q) = 2cos(pi*(1/2 - q)).
    """

    p = p_of_theta(t)
    xi0 = p.px * p.px + p.py * p.py + p.pz * p.pz + p.pinf * p.pinf
    cos_prod = omega_of_traces(*p).w4 - xi0  # w4 = xi0 + px*py*pz*pinf
    sin_prod = from_rational(1)
    for q in t:
        sin_prod = sin_prod * cos_value(_HALF - q)
    half = from_rational(_HALF)
    base = from_rational(8) + half * cos_prod
    return xi0, base + half * sin_prod, base - half * sin_prod


# ---------------------------------------------------------------------------
# Backlund transformations

BT_NAMES = (
    "s_x", "s_y", "s_z", "s_inf", "s_delta",
    "r_x", "r_y", "r_z", "P_xy", "P_yz",
)

# The solution-level data of each transformation (the new dependent
# variable and the new independent variable) is out of scope and kept
# only as opaque strings for display.
BT_SOLUTION_METADATA: Dict[str, Tuple[str, str]] = {
    "s_x": ("w", "t"),
    "s_y": ("w", "t"),
    "s_z": ("w", "t"),
    "s_inf": ("w", "t"),
    "s_delta": ("w + delta/p", "t"),
    "r_x": ("t/w", "t"),
    "r_y": ("(w-t)/(w-1)", "t"),
    "r_z": ("t(w-1)/(w-t)", "t"),
    "P_xy": ("1-w", "1-t"),
    "P_yz": ("w/t", "1/t"),
}


def apply_bt(name: str, t: Theta) -> Theta:
    """One fundamental transformation acting on the theta tuple."""

    x, y, z, f = t
    if name == "s_x":
        return Theta(-x, y, z, f)
    if name == "s_y":
        return Theta(x, -y, z, f)
    if name == "s_z":
        return Theta(x, y, -z, f)
    if name == "s_inf":
        return Theta(x, y, z, 2 - f)
    if name == "s_delta":
        d = t.delta
        return Theta(x - d, y - d, z - d, f - d)
    if name == "r_x":
        return Theta(f - 1, z, y, x + 1)
    if name == "r_y":
        return Theta(z, f - 1, x, y + 1)
    if name == "r_z":
        return Theta(y, x, f - 1, z + 1)
    if name == "P_xy":
        return Theta(y, x, z, f)
    if name == "P_yz":
        return Theta(x, z, y, f)
    raise ValueError(f"unknown transformation {name!r}")


def bt_omega(name: str, w: Omega) -> Omega:
    """The same transformation on surface parameters; w4 never moves."""

    if name in ("s_x", "s_y", "s_z", "s_inf", "s_delta"):
        return w
    if name == "r_x":
        return Omega(w.wx, -w.wy, -w.wz, w.w4)
    if name == "r_y":
        return Omega(-w.wx, w.wy, -w.wz, w.w4)
    if name == "r_z":
        return Omega(-w.wx, -w.wy, w.wz, w.w4)
    if name == "P_xy":
        return Omega(w.wy, w.wx, w.wz, w.w4)
    if name == "P_yz":
        return Omega(w.wx, w.wz, w.wy, w.w4)
    raise ValueError(f"unknown transformation {name!r}")


# ---------------------------------------------------------------------------
# relatedness of two theta tuples under the reflection group

# Pair-swap permutations appearing in the solution family for a fixed
# parameter set: identity and the three double transpositions.
_V_PERMS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
_SIGNS4 = tuple(itertools.product((1, -1), repeat=4))


def _p_canonical(p: Sequence[CosSum]) -> Tuple[CosSum, ...]:
    """Lexicographic minimum over pair swaps and coordinate sign flips."""

    best = None
    for perm in _V_PERMS:
        base = tuple(p[i] for i in perm)
        for signs in _SIGNS4:
            cand = tuple(v if s > 0 else -v for v, s in zip(base, signs))
            if best is None or compare_tuples(cand, best) < 0:
                best = cand
    return best


def _p_variants(t: Theta) -> List[Tuple[CosSum, ...]]:
    # the three xi-branches: identity, s_delta, s_delta s_x
    branches = (
        t,
        apply_bt("s_delta", t),
        apply_bt("s_delta", apply_bt("s_x", t)),
    )
    return [_p_canonical(p_of_theta(u)) for u in branches]


def d4_related(a: Theta, b: Theta) -> bool:
    """Whether two solutions for one parameter set are reflection-related.

    Decided at the p level: canonical forms under pair swaps and sign
    flips must meet on one of the three branch representatives.  Both
    tuples are assumed to solve the same (w, w4) system; for unrelated
    parameter sets the answer carries no meaning.
    """

    va, vb = _p_variants(a), _p_variants(b)
    return any(ca == cb for ca in va for cb in vb)


# ---------------------------------------------------------------------------
# bounded-denominator recovery of theta from the parameters


def _angles_up_to(den_bound: int) -> List[Fraction]:
    out: Set[Fraction] = set()
    for d in range(1, den_bound + 1):
        for n in range(d + 1):
            out.add(Fraction(n, d))
    return sorted(out)


def theta_candidates_for_omega(w: Omega, den_bound: int = 30) -> List[Theta]:
    """All rational theta in [0, 2)^4 with bounded denominator mapping to w.

    Candidate p values are 2cos(pi*a) over every rational angle a in
    [0, 1] with denominator at most den_bound.  A float sweep solves
    px*pinf = wX - py*pz by a sorted-products window (1e-6, far above
    roundoff, far below any true separation that matters because every
    survivor is confirmed exactly in the ring) and screens the window's
    tuples on wY, wZ and w4 in one array pass per py; each surviving
    angle 4-tuple is expanded into the theta mirrors a and 2-a.
    """

    angles = _angles_up_to(den_bound)
    m = len(angles)
    pf = np.array([2.0 * math.cos(math.pi * float(a)) for a in angles])
    wxf, wyf, wzf, w4f = (c.float_value() for c in w)

    prod = np.outer(pf, pf).ravel()
    order = np.argsort(prod, kind="stable")
    sprod = prod[order]

    hits: Set[Tuple[int, int, int, int]] = set()
    for iy in range(m):
        targets = wxf - pf[iy] * pf
        lo = np.searchsorted(sprod, targets - 1e-6)
        hi = np.searchsorted(sprod, targets + 1e-6)
        # the windows of all iz, concatenated: sorted positions lo[iz]..hi[iz]-1
        iz, pos = _ranges(lo, hi)
        ix, iinf = np.divmod(order[pos], m)
        cw = omega_of_traces(pf[ix], pf[iy], pf[iz], pf[iinf])
        keep = ((np.abs(wyf - cw.wy) <= 1e-6) & (np.abs(wzf - cw.wz) <= 1e-6)
                & (np.abs(w4f - cw.w4) <= 1e-6))
        hits.update(zip(ix[keep].tolist(), itertools.repeat(iy),
                        iz[keep].tolist(), iinf[keep].tolist()))

    out: Set[Theta] = set()
    for ix, iy, iz, iinf in sorted(hits):
        quad = (angles[ix], angles[iy], angles[iz], angles[iinf])
        cw = omega_of_traces(*(cos_value(q) for q in quad))
        if cw != w:
            continue
        mirrors = [
            (q,) if q == 0 else ((q,) if q == 1 else (q, 2 - q)) for q in quad
        ]
        for combo in itertools.product(*mirrors):
            out.add(Theta(*combo))
    return sorted(out)
