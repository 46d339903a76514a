"""Theta/omega maps, the xi cubic, Backlund table, shifts, recovery."""

import math
import random

from fractions import Fraction
from typing import Dict, Tuple

import numpy as np
import pytest

from fricke_orbits.fricke_action import Omega, all_equivalences, equiv_transform
from fricke_orbits.golden import golden_row
from fricke_orbits.parameter_maps import (
    BT_NAMES,
    BT_SOLUTION_METADATA,
    Theta,
    apply_bt,
    bt_omega,
    d4_related,
    make_theta,
    omega_from_theta,
    p_of_theta,
    theta_candidates_for_omega,
    xi_cubic,
    xi_root_check,
    xi_roots,
)
from fricke_orbits.trig_field import cos_value, from_rational

F = Fraction


def omega_equivalent(a: Omega, b: Omega) -> bool:
    """Same parameters up to coordinate permutations and even sign flips."""

    if a.w4 != b.w4:
        return False
    zero3 = (from_rational(0),) * 3
    for t in all_equivalences():
        _, wa = equiv_transform(t, zero3, a)
        if wa[:3] == b[:3]:
            return True
    return False


# Words composed right to left; each translates one theta coordinate by 2.
SHIFT_WORDS: Dict[str, Tuple[str, ...]] = {
    "x": ("s_x", "s_delta") + ("s_y", "s_z", "s_inf", "s_delta") * 2,
    "y": ("s_y", "s_delta") + ("s_x", "s_z", "s_inf", "s_delta") * 2,
    "z": ("s_z", "s_delta") + ("s_x", "s_y", "s_inf", "s_delta") * 2,
    "inf": ("s_inf", "s_delta") + ("s_x", "s_y", "s_z", "s_delta") * 2,
}


def shift_operator(nu: str, t: Theta) -> Theta:
    """Translate theta_nu by 2 through the composed reflection word."""

    if nu not in SHIFT_WORDS:
        raise ValueError(f"unknown coordinate {nu!r}")
    u = t
    for name in reversed(SHIFT_WORDS[nu]):
        u = apply_bt(name, u)
    bump = {"x": 0, "y": 1, "z": 2, "inf": 3}[nu]
    expected = Theta(*(q + 2 if i == bump else q for i, q in enumerate(t)))
    if u != expected:
        raise RuntimeError(f"shift word for {nu} produced {u}, not {expected}")
    return u


def _rand_theta(rng, den=12, span=48):
    return Theta(*(F(rng.randint(-span, span), rng.randint(1, den))
                   for _ in range(4)))


def _omegas_equal(a, b):
    return all((u - v).is_zero() for u, v in zip(a, b))


# ---------------------------------------------------------------------------
# omega from theta


def test_omega_klein_row():
    w = omega_from_theta(make_theta(F(2, 7), F(2, 7), F(2, 7), F(4, 7)))
    assert all((c - from_rational(1)).is_zero() for c in w[:3])
    assert (from_rational(4) - w.w4).is_zero()


def test_omega_picard_case():
    w = omega_from_theta(make_theta(0, 0, 0, 1))
    assert all(c.is_zero() for c in w)


def test_omega_five_fold_row_up_to_equivalence():
    w = omega_from_theta(make_theta(F(1, 5), F(2, 5), F(1, 5), F(2, 5)))
    g = golden_row(2)
    assert omega_equivalent(w, Omega(*g.omega, g.omega4))
    assert (from_rational(4) - w.w4 + from_rational(3)).is_zero()
    # same triple in a different order is equivalent, a sign flip of one
    # coordinate with the others fixed is not
    assert omega_equivalent(w, Omega(w.wy, w.wx, w.wz, w.w4))
    assert not omega_equivalent(w, Omega(-w.wx, w.wy, w.wz, w.w4))


def test_delta_is_half_sum():
    t = make_theta(F(1, 2), F(1, 3), F(1, 5), F(1, 7))
    assert t.delta == (F(1, 2) + F(1, 3) + F(1, 5) + F(1, 7)) / 2


# ---------------------------------------------------------------------------
# the xi cubic


def test_xi_cubic_vanishing_parameters():
    w = Omega(*(from_rational(0),) * 4)
    a, b, c = xi_cubic(w)
    assert (a - from_rational(16)).is_zero() and b.is_zero() and c.is_zero()
    # roots of xi^3 - 16 xi^2: {0, 0, 16}
    assert xi_root_check(w, from_rational(0))
    assert xi_root_check(w, from_rational(16))
    assert not xi_root_check(w, from_rational(5))
    x0, xp, xm = xi_roots(make_theta(0, 0, 0, 1))
    assert (x0 - from_rational(16)).is_zero()
    assert xp.is_zero() and xm.is_zero()


def test_xi_roots_klein_row():
    t = make_theta(F(2, 7), F(2, 7), F(2, 7), F(4, 7))
    w = omega_from_theta(t)
    for xi in xi_roots(t):
        assert xi_root_check(w, xi)


def test_xi_roots_random_thetas():
    rng = random.Random(20140926)
    for _ in range(100):
        t = _rand_theta(rng)
        w = omega_from_theta(t)
        a, b, c = xi_cubic(w)
        x0, xp, xm = xi_roots(t)
        assert (x0 + xp + xm - a).is_zero()
        assert (x0 * xp + x0 * xm + xp * xm - b).is_zero()
        assert (x0 * xp * xm - c).is_zero()


# ---------------------------------------------------------------------------
# the transformation table


def test_bt_theta_columns():
    t = make_theta(F(1, 2), F(1, 3), F(1, 5), F(1, 7))
    assert apply_bt("s_x", t) == make_theta(F(-1, 2), F(1, 3), F(1, 5), F(1, 7))
    assert apply_bt("s_inf", t) == make_theta(F(1, 2), F(1, 3), F(1, 5), F(13, 7))
    d = t.delta
    assert apply_bt("s_delta", t) == Theta(t.tx - d, t.ty - d, t.tz - d, t.tinf - d)
    assert apply_bt("r_x", t) == make_theta(F(-6, 7), F(1, 5), F(1, 3), F(3, 2))
    assert apply_bt("P_xy", t) == make_theta(F(1, 3), F(1, 2), F(1, 5), F(1, 7))
    assert apply_bt("P_yz", t) == make_theta(F(1, 2), F(1, 5), F(1, 3), F(1, 7))
    with pytest.raises(ValueError):
        apply_bt("s_t", t)


def test_bt_omega_columns():
    rng = random.Random(7)
    t = _rand_theta(rng)
    w = omega_from_theta(t)
    assert _omegas_equal(bt_omega("r_x", w), Omega(w.wx, -w.wy, -w.wz, w.w4))
    assert _omegas_equal(bt_omega("P_xy", w), Omega(w.wy, w.wx, w.wz, w.w4))
    for name in BT_NAMES:
        assert (bt_omega(name, w).w4 - w.w4).is_zero()


def test_bt_action_commutes_with_omega_map():
    # the omega columns of the table are forced by the theta columns
    rng = random.Random(123)
    for _ in range(25):
        t = _rand_theta(rng, den=8, span=16)
        w = omega_from_theta(t)
        for name in BT_NAMES:
            assert _omegas_equal(omega_from_theta(apply_bt(name, t)),
                                 bt_omega(name, w))


def test_bt_involutions():
    rng = random.Random(99)
    for _ in range(20):
        t = _rand_theta(rng)
        for name in BT_NAMES:
            assert apply_bt(name, apply_bt(name, t)) == t


def test_bt_metadata_strings():
    assert set(BT_SOLUTION_METADATA) == set(BT_NAMES)
    assert BT_SOLUTION_METADATA["P_yz"] == ("w/t", "1/t")


# ---------------------------------------------------------------------------
# shift operators


def test_shift_examples():
    assert shift_operator("x", make_theta(0, 0, 0, 0)) == make_theta(2, 0, 0, 0)
    got = shift_operator("inf", make_theta(F(1, 2), F(1, 3), F(1, 5), F(1, 7)))
    assert got == make_theta(F(1, 2), F(1, 3), F(1, 5), F(15, 7))
    with pytest.raises(ValueError):
        shift_operator("delta", make_theta(0, 0, 0, 0))


def test_shift_words_translate_by_two():
    rng = random.Random(4242)
    for _ in range(50):
        t = _rand_theta(rng)
        for k, nu in enumerate(("x", "y", "z", "inf")):
            got = shift_operator(nu, t)
            want = Theta(*(q + 2 if i == k else q for i, q in enumerate(t)))
            assert got == want


# ---------------------------------------------------------------------------
# recovery of theta from omega


def test_candidates_contain_published_tuples():
    cases = [
        (8, make_theta(F(2, 7), F(2, 7), F(2, 7), F(4, 7))),
        (31, make_theta(F(1, 3), F(1, 3), F(1, 3), F(1, 3))),
        (45, make_theta(F(1, 12), F(1, 12), F(1, 12), F(11, 12))),
    ]
    for idx, t in cases:
        g = golden_row(idx)
        cands = theta_candidates_for_omega(Omega(*g.omega, g.omega4), 30)
        assert t in cands


def test_candidates_five_fold_row_both_forms():
    t = make_theta(F(1, 5), F(2, 5), F(1, 5), F(2, 5))
    w = omega_from_theta(t)
    assert t in theta_candidates_for_omega(w, 30)
    # the table stores the x<->y swapped equivalent of this parameter triple
    g = golden_row(2)
    swapped = apply_bt("P_xy", t)
    assert swapped in theta_candidates_for_omega(Omega(*g.omega, g.omega4), 30)


def test_candidates_round_trip_and_related():
    t = make_theta(F(1, 5), F(2, 5), F(1, 5), F(2, 5))
    w = omega_from_theta(t)
    cands = theta_candidates_for_omega(w, 30)
    assert len(cands) > 0
    for u in cands[::7]:
        assert _omegas_equal(omega_from_theta(u), w)
    for u in cands[::17]:
        assert d4_related(t, u)


def test_candidates_nonempty_for_all_rows():
    for idx in range(1, 46):
        g = golden_row(idx)
        assert theta_candidates_for_omega(Omega(*g.omega, g.omega4), 30)


def _brute_force_quads(w, den_bound):
    """Every angle 4-tuple in [0, 1] with denominators up to den_bound whose
    traces map to w: all tuples screened at once in floats, the map written
    out, then confirmed exactly."""
    angles = sorted({F(n, d) for d in range(1, den_bound + 1) for n in range(d + 1)})
    pf = np.array([2.0 * math.cos(math.pi * float(a)) for a in angles])
    px, py, pz, pinf = np.meshgrid(pf, pf, pf, pf, indexing="ij")
    near = np.ones(px.shape, dtype=bool)
    for value, target in (
        (px * pinf + py * pz, w.wx), (py * pinf + pz * px, w.wy),
        (pz * pinf + px * py, w.wz),
        (px * px + py * py + pz * pz + pinf * pinf + px * py * pz * pinf, w.w4),
    ):
        near &= np.abs(value - target.float_value()) <= 1e-5
    out = set()
    for idx in zip(*np.nonzero(near)):
        quad = tuple(angles[i] for i in idx)
        x, y, z, f = (cos_value(q) for q in quad)
        if all((a - b).is_zero() for a, b in zip(
                (x * f + y * z, y * f + z * x, z * f + x * y,
                 x * x + y * y + z * z + f * f + x * y * z * f), w)):
            out.add(quad)
    return out


@pytest.mark.parametrize("idx", [1, 2, 12, 31, 45])
def test_candidates_match_brute_force(idx):
    g = golden_row(idx)
    w = Omega(*g.omega, g.omega4)
    cands = theta_candidates_for_omega(w, 8)
    assert {tuple(min(q, 2 - q) for q in t) for t in cands} == _brute_force_quads(w, 8)


def test_d4_related_branches():
    t = make_theta(F(1, 5), F(2, 5), F(1, 5), F(2, 5))
    assert d4_related(t, t)
    assert d4_related(t, apply_bt("s_delta", t))
    assert d4_related(t, apply_bt("s_x", apply_bt("s_delta", t)))
    # mirrored coordinates keep the same p tuple
    assert d4_related(t, Theta(2 - t.tx, t.ty, t.tz, t.tinf))
    other = make_theta(F(2, 7), F(2, 7), F(2, 7), F(4, 7))
    assert not d4_related(t, other)


def test_p_values_unchanged_by_simple_reflections():
    rng = random.Random(31337)
    for _ in range(20):
        t = _rand_theta(rng)
        p = p_of_theta(t)
        for name in ("s_x", "s_y", "s_z", "s_inf"):
            q = p_of_theta(apply_bt(name, t))
            assert all((u - v).is_zero() for u, v in zip(p, q))
