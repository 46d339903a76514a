import bisect
import math
import random
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np
import pytest

from fricke_orbits import _kernels
from fricke_orbits.fricke_action import (
    Omega,
    all_equivalences,
    apply,
    fricke_residual,
    keys_equal,
    make_omega,
    make_point,
    omega4_of,
    points_equal,
)
from fricke_orbits.orbit_search import (
    EPS,
    CapError,
    GenConfig,
    OrbitRecord,
    _SIZE_TAG,
    _float_orbit_key,
    cayley_orbit,
    class_counter,
    classify_special,
    close_orbit,
    decode_config,
    full_search,
    get_dictionaries,
    get_search_tables,
    golden_match,
    verify_record,
)
from fricke_orbits.golden import GOLDEN_ROWS
from fricke_orbits.orbit_graphs import bad_points, build_graph
from fricke_orbits.trig_field import cos_value, from_rational, match_dictionary

from test_cli import _first_blocks_only

D = get_dictionaries()
T = get_search_tables()
KT = T.kernel


# ---------------------------------------------------------------------------
# dictionaries


def test_dictionary_cardinalities():
    assert (len(D.s1), len(D.s2), len(D.s3), len(D.s4)) == (31, 46, 71, 83)


def test_dictionary_nesting():
    a1 = {e.angle for e in D.s1}
    a2 = {e.angle for e in D.s2}
    a3 = {e.angle for e in D.s3}
    a4 = {e.angle for e in D.s4}
    assert a1 < a2 < a4
    assert a1 < a3 < a4
    assert not (a2 <= a3)  # the odd-denominator extras skip level three


def test_dictionary_values_exact():
    for e in D.s4:
        assert (e.value - cos_value(e.angle)).is_zero()
        assert abs(e.fval - 2.0 * math.cos(math.pi * e.angle)) < 1e-12


def test_dictionary_sorted_with_gap():
    for a, b in zip(D.s4, D.s4[1:]):
        assert b.fval - a.fval > 1e-3
    assert D.min_gap > 2 * EPS


def test_dictionary_sign_split():
    half = Fraction(1, 2)
    nonneg = [e for e in D.s1 if e.angle <= half]
    assert len(nonneg) == 16
    pos4 = [e for e in D.s4 if e.angle < half]
    neg4 = [e for e in D.s4 if e.angle > half]
    zero4 = [e for e in D.s4 if e.angle == half]
    assert (len(pos4), len(zero4), len(neg4)) == (41, 1, 41)
    assert zero4[0].value.is_zero()


# ---------------------------------------------------------------------------
# arenas and counters


def test_class_counters():
    assert class_counter(1) == 48_618_911
    assert class_counter(2) == 6_213_878
    assert class_counter(3) == 54_671_104
    assert class_counter(4) == 8_197_910


def test_class_sizes_vs_counters():
    # the class-1 index space is one larger: the duplicated all-zero seed
    # is skipped during the scan
    assert _kernels.class_size(1, KT) == class_counter(1) + 1
    for cls in (2, 3, 4):
        assert _kernels.class_size(cls, KT) == class_counter(cls)


def enumerate_class(
    cls: int, start: int = 0, stop: Optional[int] = None
) -> Iterator[GenConfig]:
    """Decoded configurations of one arena, in scan order."""

    t = get_search_tables()
    size = _kernels.class_size(cls, t.kernel)
    if stop is None or stop > size:
        stop = size
    for idx in range(start, stop):
        if cls == 1 and idx == t.kernel.skip1:
            continue
        yield decode_config(cls, idx, t)


def test_enumerate_skips_duplicate_zero_seed():
    skip = KT.skip1
    got = [g.index for g in enumerate_class(1, skip - 2, skip + 2)]
    assert got == [skip - 2, skip - 1, skip + 1]


def _random_indices(cls, count, seed):
    rng = random.Random(seed)
    size = _kernels.class_size(cls, KT)
    return [rng.randrange(size) for _ in range(count)]


@pytest.mark.parametrize("cls", [1, 2, 3, 4])
def test_decode_primes_are_the_images(cls):
    # the stored prime values must be exactly the one-step images of the
    # seed under the three involutions
    for idx in _random_indices(cls, 25, 100 + cls):
        if cls == 1 and idx == KT.skip1:
            continue
        g = decode_config(cls, idx)
        for c, color in enumerate("xyz"):
            img = apply(color, g.point, g.omega)
            assert (img[c] - g.primes[c]).is_zero()
        assert fricke_residual(g.point, g.omega).is_zero()


def test_decode_class2_image_is_doubly_fixed():
    for idx in _random_indices(2, 40, 7):
        g = decode_config(2, idx)
        q = apply("x", g.point, g.omega)
        assert points_equal(apply("y", q, g.omega), q)
        assert points_equal(apply("z", q, g.omega), q)


def test_decode_class3_parameters_coincide():
    for idx in _random_indices(3, 40, 8):
        g = decode_config(3, idx)
        assert (g.omega.wy - g.omega.wz).is_zero()


def test_decode_class4_parameters_all_coincide():
    for idx in _random_indices(4, 40, 9):
        g = decode_config(4, idx)
        assert (g.omega.wx - g.omega.wy).is_zero()
        assert (g.omega.wx - g.omega.wz).is_zero()


def test_decode_matches_float_decode():
    for cls in (1, 2, 3, 4):
        for idx in _random_indices(cls, 15, 20 + cls):
            if cls == 1 and idx == KT.skip1:
                continue
            g = decode_config(cls, idx)
            f = _kernels.decode_float(cls, idx, KT)
            exact = [c.float_value() for c in g.point] + [
                g.omega.wx.float_value(),
                g.omega.wy.float_value(),
                g.omega.wz.float_value(),
                g.omega.w4.float_value(),
            ]
            for a, b in zip(exact, f):
                assert abs(a - b) < 1e-9


# The decodes as they were written before the class layouts: one float
# and one exact body per class, with the radices spelled out.  Class 2's
# exact wz, w4 and Zp were computed by a second division by Z.

def _ref_columns():
    s1, s4 = KT.s1, KT.s4
    return {
        1: [np.array([s1[t[k]] for t in T.tri1]) for k in range(3)],
        2: [np.array([s4[p[k]] for p in T.pair2]) for k in range(2)],
        3: [np.array([s1[p[k]] for p in T.pair3]) for k in range(2)],
        4: [np.array([s4[t[k]] for t in T.tri4]) for k in range(3)],
    }


_REF_COLUMNS = _ref_columns()


def _ref_decode_vec(cls, idx):
    s1, s4, col = KT.s1, KT.s4, _REF_COLUMNS[cls]
    if cls == 1:
        ti, r = np.divmod(idx, 29791)
        a, r2 = np.divmod(r, 961)
        b, cc = np.divmod(r2, 31)
        X, Y, Z = col[0][ti], col[1][ti], col[2][ti]
        wx = X + s1[a] + Y * Z
        wy = Y + s1[b] + X * Z
        wz = Z + s1[cc] + X * Y
    elif cls == 2:
        ti, r = np.divmod(idx, 6889)
        iX, iYp = np.divmod(r, 83)
        Y, Z = col[0][ti], col[1][ti]
        X, Yp = s4[iX], s4[iYp]
        Xp = X + (Yp - Y) / Z
        wx = X + Xp + Y * Z
        wy = Y + Yp + X * Z
        wz = 2.0 * Z + Xp * Y
    elif cls == 3:
        ti, r = np.divmod(idx, 213559)
        iYp, r2 = np.divmod(r, 6889)
        iX, iXp = np.divmod(r2, 83)
        Y, Z = col[0][ti], col[1][ti]
        X, Xp, Yp = s4[iX], s4[iXp], s1[iYp]
        wx = X + Xp + Y * Z
        wy = Y + Yp + X * Z
        wz = wy
    else:
        ti, iXp = np.divmod(idx, 83)
        X, Y, Z = col[0][ti], col[1][ti], col[2][ti]
        wx = X + s4[iXp] + Y * Z
        wy = wx
        wz = wx
    return X, Y, Z, wx, wy, wz


def _ref_omega4(X, Y, Z, wx, wy, wz):
    """The scan's float w4, written out in its operation order with a float
    literal: the reference omega4_of must match bit for bit."""
    return 4.0 + wx * X + wy * Y + wz * Z - (X * Y * Z + X * X + Y * Y + Z * Z)


def _ref_decode_config(cls, index):
    s1, s4 = D.s1, D.s4
    if cls == 1:
        ti, r = divmod(index, 31 ** 3)
        a, r2 = divmod(r, 961)
        b, c = divmod(r2, 31)
        ix, iy, iz = T.tri1[ti]
        X, Y, Z = s1[ix].value, s1[iy].value, s1[iz].value
        Xp, Yp, Zp = s1[a].value, s1[b].value, s1[c].value
        wx = X + Xp + Y * Z
        wy = Y + Yp + X * Z
        wz = Z + Zp + X * Y
    elif cls == 2:
        ti, r = divmod(index, 6889)
        iX, iYp = divmod(r, 83)
        iy, iz = T.pair2[ti]
        Y, Z = s4[iy].value, s4[iz].value
        X, Yp = s4[iX].value, s4[iYp].value
        Xp = X + (Yp - Y) / Z
        Zp = Z - Y * (Y - Yp) / Z
        wx = X + Xp + Y * Z
        wy = Y + Yp + X * Z
        wz = Z + Zp + X * Y
    elif cls == 3:
        ti, r = divmod(index, 213559)
        iYp, r2 = divmod(r, 6889)
        iX, iXp = divmod(r2, 83)
        iy, iz = T.pair3[ti]
        Y, Z = s1[iy].value, s1[iz].value
        X, Xp, Yp = s4[iX].value, s4[iXp].value, s1[iYp].value
        wx = X + Xp + Y * Z
        wy = Y + Yp + X * Z
        wz = wy
        Zp = wz - Z - X * Y
    else:
        ti, iXp = divmod(index, 83)
        ix, iy, iz = T.tri4[ti]
        X, Y, Z = s4[ix].value, s4[iy].value, s4[iz].value
        Xp = s4[iXp].value
        wx = X + Xp + Y * Z
        wy = wx
        wz = wx
        Yp = wy - Y - X * Z
        Zp = wz - Z - X * Y
    point = (X, Y, Z)
    return point, (wx, wy, wz, omega4_of(point, wx, wy, wz)), (Xp, Yp, Zp)


def _layout_indices(cls, count, seed):
    """Seeded indices plus the ends of the index space, of seed rows and
    of prefixes (class 1 per 31, class 3 per 83), and class 1's skipped
    index with its neighbours."""

    size = _kernels.class_size(cls, KT)
    row = size // {1: len(T.tri1), 2: len(T.pair2), 3: len(T.pair3), 4: len(T.tri4)}[cls]
    rng = random.Random(300 + cls)
    idx = {0, size - 1, row - 1, row, row + 1, size - row, 31 * 83, 83 * 83 - 1}
    idx |= {rng.randrange(size // 83) * 83 for _ in range(count // 4)}
    idx |= {rng.randrange(size // 31) * 31 for _ in range(count // 4)}
    idx |= {rng.randrange(size) for _ in range(count)}
    if cls == 1:
        idx |= set(range(KT.skip1 - 3, KT.skip1 + 4))
    return sorted(idx)


@pytest.mark.parametrize("cls", [1, 2, 3, 4])
def test_float_decode_matches_reference_bitwise(cls):
    idx = np.array(_layout_indices(cls, 4000, 0))
    got = _kernels._decode_vec(cls, idx, KT)
    for a, b in zip(got, _ref_decode_vec(cls, idx)):
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
    X, Y, Z, wx, wy, wz = got
    w4 = omega4_of((X, Y, Z), wx, wy, wz)
    assert w4.dtype == np.float64
    assert w4.tobytes() == _ref_omega4(X, Y, Z, wx, wy, wz).tobytes()
    for i in idx[::37].tolist():
        want = [float(v[0]) for v in _ref_decode_vec(cls, np.array([i]))]
        want.append(_ref_omega4(*want))
        assert [v.hex() for v in _kernels.decode_float(cls, i, KT)] == [v.hex() for v in want]


@pytest.mark.parametrize("cls", [1, 2, 3, 4])
def test_exact_decode_matches_reference(cls):
    # term for term, but for class 2's wz (now Z + Z + Xp*Y, the float
    # formula), w4 and Zp, which are equal values
    for idx in _layout_indices(cls, 40, 1):
        g = decode_config(cls, idx)
        point, omega, primes = _ref_decode_config(cls, idx)
        got = dict(zip(("X", "Y", "Z", "wx", "wy", "wz", "w4", "Xp", "Yp", "Zp"),
                       (*g.point, *g.omega, *g.primes)))
        want = dict(zip(got, (*point, *omega, *primes)))
        for name, a in got.items():
            b = want[name]
            if cls == 2 and name in ("wz", "w4", "Zp"):
                assert (a - b).is_zero(), name
            else:
                assert (a.terms, a._float) == (b.terms, b._float), name


@pytest.mark.parametrize("cls", [0, 5])
def test_decode_rejects_unknown_class(cls):
    with pytest.raises(ValueError):
        decode_config(cls, 0)
    with pytest.raises(ValueError):
        _kernels.decode_float(cls, 0, KT)
    with pytest.raises(ValueError):
        _kernels.class_size(cls, KT)


# ---------------------------------------------------------------------------
# exact closure


W5 = make_omega(0, 1, 1, 4)


def test_close_orbit_worked_example():
    rec = close_orbit(make_point(-1, 1, 1), W5)
    assert rec is not None and rec.size == 5
    assert bad_points(build_graph(rec)) == (0,)
    # starting anywhere in the orbit gives the same point set
    rec2 = close_orbit(make_point(0, 0, 0), W5)
    assert rec2 is not None and rec2.size == 5
    from fricke_orbits.fricke_action import keys_equal

    assert keys_equal(rec.canonical, rec2.canonical)


def test_close_orbit_rejects_generic_parameters():
    # first image coordinate is 1/3: not admissible, not doubly fixed
    w = make_omega(from_rational(Fraction(1, 3)), 1, 1, 2)
    assert close_orbit(make_point(-1, 1, 1), w) is None


def test_close_orbit_refuses_cayley_parameters():
    assert close_orbit(make_point(1, 1, 1), make_omega(0, 0, 0, 0)) is None


def test_close_orbit_cap():
    with pytest.raises(CapError):
        close_orbit(make_point(-1, 1, 1), W5, cap=3)


def test_close_orbit_rejects_before_the_cap(monkeypatch):
    # the first image, x = 1/3, is rejected; the cap is tested only when a
    # point is added, so a one-point cap does not decide first, exactly as
    # in the float closure
    w = make_omega(Fraction(1, 3), 1, 1, 2)
    assert close_orbit(make_point(-1, 1, 1), w, cap=1) is None
    monkeypatch.setattr(_kernels, "CAP", 1)
    res, _, _ = _kernels._close_pylist(-1.0, 1.0, 1.0, 1 / 3, 1.0, 1.0, KT.s4.tolist(), EPS)
    assert res == 0


def _is_snapped(rec, s4_floats):
    """Every coordinate of a point that is neither the seed nor a bad point
    is the s4 entry's own object, or the seed's object it inherits."""
    bad = set(bad_points(build_graph(rec)))
    seed = rec.points[0]
    for i, p in enumerate(rec.points[1:], 1):
        if i in bad:
            continue
        for c, v in enumerate(p):
            k = match_dictionary(v.float_value(), s4_floats, EPS)
            if not (v is seed[c] or (k is not None and v is D.s4[k].value)):
                return False
    return True


def test_close_orbit_stores_dictionary_entries(golden_records):
    s4f = D.floats("s4")
    entries = {id(e.value) for e in D.s4}
    snapped = 0
    for rec in golden_records:
        assert _is_snapped(rec, s4f)
        snapped += sum(id(v) in entries for p in rec.points[1:] for v in p)
    assert snapped > 1000
    # the closure without the dictionary keeps its computed values
    rec = cayley_orbit(Fraction(1, 5), Fraction(2, 5))
    assert not any(id(v) in entries for p in rec.points for v in p)


def test_close_orbit_from_redundant_terms():
    # 2cos(pi/5) - 2cos(2pi/5) - 1 = 0, written with two cosine terms
    zero = cos_value(1, 5) - cos_value(2, 5) - 1
    assert zero.terms and zero.is_zero()
    cases = [(make_point(-1, 1, 1), W5)]
    cases += [(row.rep_point, Omega(*row.omega, row.omega4)) for row in GOLDEN_ROWS[::6]]
    for point, w in cases:
        plain = close_orbit(point, w)
        seed = tuple(v + zero for v in point)
        assert all(a.terms != b.terms for a, b in zip(seed, point))
        rec = close_orbit(seed, w)
        assert rec.size == plain.size
        assert keys_equal(rec.canonical, plain.canonical)
        verify_record(rec)


def test_verify_record_catches_tampering():
    rec = close_orbit(make_point(-1, 1, 1), W5)
    broken = type(rec)(
        rec.points, (rec.neighbors[1], rec.neighbors[0], rec.neighbors[2]),
        rec.omega, rec.source,
    )
    with pytest.raises(ValueError):
        verify_record(broken)


def _with_points(rec, changes):
    pts = list(rec.points)
    for i, p in changes.items():
        pts[i] = p
    return OrbitRecord(tuple(pts), rec.neighbors, rec.omega, rec.source)


def _corruptions(rec):
    """Records that keep the neighbour table an involution and keep point 0
    on the surface, each with at least one wrong edge."""
    n = rec.size
    pts = rec.points
    # point 0 is the lower end of every edge at it; another orbit point
    # there keeps the residual zero
    yield _with_points(rec, {0: pts[1]})
    # the last point is the higher end of every edge at it but its loops
    yield _with_points(rec, {n - 1: pts[0]})
    k = n // 2
    x = pts[k][0]
    other = next(e.value for e in D.s4 if abs(e.fval - x.float_value()) > 0.1)
    # one coordinate swapped for another dictionary value; two points swapped
    yield _with_points(rec, {k: (other, pts[k][1], pts[k][2])})
    yield _with_points(rec, {1: pts[n - 1], n - 1: pts[1]})
    # an edge of two points turned into a self-loop at each
    c = next(c for c in range(3) if rec.neighbors[c][k] != k)
    j = rec.neighbors[c][k]
    col = list(rec.neighbors[c])
    col[k], col[j] = k, j
    nbrs = list(rec.neighbors)
    nbrs[c] = tuple(col)
    yield OrbitRecord(rec.points, tuple(nbrs), rec.omega, rec.source)


@pytest.mark.parametrize("which", ["W5", "row30"])
def test_verify_record_rejects_wrong_edges(which):
    if which == "W5":
        rec = close_orbit(make_point(-1, 1, 1), W5)
    else:
        # no self-loops: its point 0 only has higher neighbours and its
        # last point only lower ones, so each end is checked alone
        row = GOLDEN_ROWS[29]
        rec = close_orbit(row.rep_point, Omega(*row.omega, row.omega4))
        for col in rec.neighbors:
            assert all(col[i] != i for i in range(rec.size))
            assert col[0] > 0 and col[-1] < rec.size - 1
    assert verify_record(rec)
    for broken in _corruptions(rec):
        for col in broken.neighbors:
            assert all(col[col[i]] == i for i in range(broken.size))
        assert fricke_residual(broken.points[0], broken.omega).is_zero()
        with pytest.raises(ValueError, match="mismatches the table"):
            verify_record(broken)


def test_verify_record_checks_every_component():
    # two fixed points, each its own component: (0, 0, 0) is on the
    # surface, (-2, -2, -2) is not (residual 4), and every edge holds
    w = make_omega(0, 0, 0, 4)
    pts = (make_point(0, 0, 0), make_point(-2, -2, -2))
    for p in pts:
        for g in "xyz":
            assert points_equal(apply(g, p, w), p)
    assert fricke_residual(pts[0], w).is_zero()
    assert (fricke_residual(pts[1], w) - 4).is_zero()
    rec = OrbitRecord(pts, ((0, 1), (0, 1), (0, 1)), w)
    with pytest.raises(ValueError, match="point 1 is off the surface"):
        verify_record(rec)


# ---------------------------------------------------------------------------
# parametric families


def test_classify_type_i():
    # triple fixed point: parameters determined by the coordinates
    x, y, z = cos_value(1, 5), cos_value(2, 5), cos_value(1, 3)
    w = Omega(x * 2 + y * z, y * 2 + x * z, z * 2 + x * y, None)
    from fricke_orbits.fricke_action import omega4_of

    w = Omega(w.wx, w.wy, w.wz, omega4_of((x, y, z), w.wx, w.wy, w.wz))
    rec = close_orbit((x, y, z), w)
    assert rec.size == 1
    tag, params = classify_special(rec)
    assert tag == "I"
    assert (params["x"] - x).is_zero()


def test_classify_type_ii():
    # two points sharing zero coordinates, linked by one color
    a, b = from_rational(1), cos_value(1, 5)
    w4 = from_rational(4) + a * b
    rec = close_orbit(
        (a, from_rational(0), from_rational(0)),
        Omega(a + b, from_rational(0), from_rational(0), w4),
    )
    assert rec.size == 2
    tag, params = classify_special(rec)
    assert tag == "II"
    got = sorted([params["a"].float_value(), params["b"].float_value()])
    want = sorted([a.float_value(), b.float_value()])
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))


def test_classify_type_iii():
    om = cos_value(1, 5)
    w = make_omega(2, om, om, 5)
    rec = close_orbit(make_point(1, 0, 0), w)
    assert rec.size == 3
    tag, params = classify_special(rec)
    assert tag == "III"
    assert (params["omega"] - om).is_zero()


def test_classify_type_iv():
    om = from_rational(1)
    rec = close_orbit(make_point(1, 1, 1), Omega(om, om, om, from_rational(3)))
    assert rec.size == 4
    tag, params = classify_special(rec)
    assert tag == "IV"
    assert (params["omega"] - om).is_zero()


def test_classify_large_is_none():
    rec = close_orbit(make_point(-1, 1, 1), W5)
    assert classify_special(rec) is None


# scan blocks of 2^17 seeds whose survivors of size <= 4 are: class 3
# [0, 2^17) sizes 1-3, class 4 [2^17, 2^18) one each of sizes 2 and 4,
# class 1 [2^21, ...) sizes 1, 3 and 4, and, for a wider sample of size 4,
# the blocks of classes 2, 3 and 4 that hold 82, 94 and 112 of them
_FAMILY_BLOCKS = ((3, 0), (4, 1 << 17), (1, 1 << 21),
                  (2, 786_432), (3, 7_602_176), (4, 7_733_248))


def test_classify_special_is_the_oracle_of_the_family_tally():
    # full_search tallies survivors of size <= 4 into families I-IV by their
    # float size alone; a seeded sample of each size closed exactly must
    # have that size and the family the tally counts it in
    rng = random.Random(20)
    sampled = {}
    for cls, start in _FAMILY_BLOCKS:
        idxs, sizes, _, _, _ = _kernels.scan_chunk(cls, start, start + (1 << 17), KT, EPS,
                                                   "numpy")
        by_size = {}
        for idx, fsz in zip(idxs, sizes):
            if fsz <= 4:
                by_size.setdefault(fsz, []).append(idx)
        for fsz, pool in sorted(by_size.items()):
            for idx in rng.sample(pool, min(20, len(pool))):
                g = decode_config(cls, idx)
                rec = close_orbit(g.point, g.omega, cap=2 * fsz + 8)
                assert rec is not None and rec.size == fsz, (cls, idx)
                assert classify_special(rec)[0] == _SIZE_TAG[fsz], (cls, idx)
                sampled[fsz] = sampled.get(fsz, 0) + 1
    assert sorted(sampled) == [1, 2, 3, 4] and min(sampled.values()) >= 20


# ---------------------------------------------------------------------------
# degenerate (vanishing-parameter) orbits


# sizes frozen from an independent float breadth-first walk
CAYLEY_SIZES = [
    ((Fraction(1, 3), Fraction(1, 3)), 4),
    ((Fraction(1, 2), Fraction(1, 2)), 2),
    ((Fraction(1, 5), Fraction(2, 5)), 12),
    ((Fraction(1, 4), Fraction(1, 4)), 8),
    ((Fraction(1, 6), Fraction(1, 6)), 16),
    ((Fraction(2, 5), Fraction(2, 5)), 12),
    ((Fraction(1, 3), Fraction(1, 6)), 16),
    ((Fraction(1, 7), Fraction(2, 7)), 24),
]


@pytest.mark.parametrize("angles,size", CAYLEY_SIZES)
def test_cayley_orbit_sizes(angles, size):
    rec = cayley_orbit(*angles)
    assert rec.size == size
    verify_record(rec)


def test_cayley_orbit_denominators_divide():
    from fricke_orbits.fricke_action import cosine_angle

    ry, rz = Fraction(1, 5), Fraction(2, 5)
    den = 5
    rec = cayley_orbit(ry, rz)
    for p in rec.points:
        for c in p:
            ang = cosine_angle(c)
            if ang is None:  # the endpoints +-2 carry angle 0 or 1
                assert (c - from_rational(2)).is_zero() or (
                    c + from_rational(2)
                ).is_zero()
            else:
                assert den % ang.denominator == 0


def test_cayley_four_point_shape():
    # the generic vanishing-parameter orbit of (1,1,1) is a 3-leaf star,
    # not a 2-cycle
    rec = cayley_orbit(Fraction(1, 3), Fraction(1, 3))
    degree = [
        sum(1 for c in range(3) if rec.neighbors[c][i] != i)
        for i in range(rec.size)
    ]
    assert sorted(degree) == [1, 1, 1, 3]


# ---------------------------------------------------------------------------
# float kernels


def test_close_float_worked_example():
    res, pc, nb = _kernels.close_float(
        -1.0, 1.0, 1.0, 0.0, 1.0, 1.0, KT.s4, EPS, want_points=True
    )
    assert res == 5
    assert nb.shape == (3, 5)
    # doubly fixed seed point: y and z loops
    assert nb[1][0] == 0 and nb[2][0] == 0 and nb[0][0] == 1


@pytest.mark.parametrize("cls,start,stop", [
    (1, 0, 30000),
    (1, 24_000_000, 24_060_000),
    (2, 0, 30000),
    (2, 3_000_000, 3_060_000),
    (3, 27_000_000, 27_200_000),
    (4, 4_000_000, 4_060_000),
    # the numpy scan filters class 1 per 31 and class 3 per 83 indices
    # before it expands them: ranges that start and end inside a prefix,
    # contain the skipped seed, cross a seed triple (class 1, 29,791) or a
    # (Y, Z) pair (class 3, 213,559), with survivors and Cayley seeds
    # (1,707,108 is one of class 1's 15)
    (1, KT.skip1 - 100, 817 * 29791 + 113),
    (3, 30 * 213559 - 71_201, 30 * 213559 + 40_000),
    (1, 1_707_090, 1_707_125),
    (3, 1_000_005, 1_000_070),
    # class 3's first seed row, Y = Z = 0, sends the most seeds to the
    # closure; a range that crosses its first 131,072-config block
    (3, 0, 40_000),
    (3, 111_072, 151_072),
    (1, 0, 0),
    (2, 0, 0),
    (3, 0, 0),
    (4, 0, 0),
    # classes 2 and 4 solve per seed row (6,889 and 83 seeds): ranges that
    # start and end inside a row, with survivors, and with a Cayley seed
    # (13,730 and 509), one inside a single row
    (2, 41, 800),
    (2, 6_800, 14_000),
    (2, 13_700, 13_760),
    (4, 500, 540),
    (4, 4_004_630, 4_004_700),
])
def test_scan_matches_per_seed_reference(cls, start, stop):
    # the numpy scan, the production path, against the per-seed reference
    out = _kernels.scan_chunk(cls, start, stop, KT, EPS, "numpy")
    assert out == _per_seed_reference(cls, start, stop)


def _per_seed_reference(cls, start, stop, eps=EPS):
    """scan_chunk's output computed one seed at a time: the seed and w4 as
    decode_float gives them, for class 3 the index filter Zp in s1, the
    Cayley test, then _close_pylist on every other seed.  The seeds are
    decoded in one _decode_vec call, which decode_float makes per index."""

    s1, s4 = KT.s1.tolist(), KT.s4.tolist()
    out_idx, out_size = [], []
    nproc = ncay = ncap = 0
    idxs = np.arange(start, stop)
    seeds = np.stack(_kernels._decode_vec(cls, idxs, KT), axis=1).tolist()
    for idx, (X, Y, Z, wx, wy, wz) in zip(idxs.tolist(), seeds):
        if cls == 1 and idx == KT.skip1:
            continue
        nproc += 1
        w4 = _ref_omega4(X, Y, Z, wx, wy, wz)
        if cls == 3:
            zp = wz - Z - X * Y
            k = bisect.bisect_left(s1, zp)
            if not any(abs(d - zp) <= eps for d in s1[max(k - 1, 0):k + 1]):
                continue
        if max(abs(wx), abs(wy), abs(wz), abs(w4)) <= eps:
            ncay += 1
            continue
        res = _kernels._close_pylist(X, Y, Z, wx, wy, wz, s4, eps)[0]
        if res == -1:
            ncap += 1
        elif res > 0:
            out_idx.append(idx)
            out_size.append(res)
    return out_idx, out_size, nproc, ncay, ncap


@pytest.mark.parametrize("eps", [1e-10, EPS, 1e-6, 1e-5])
@pytest.mark.parametrize("cls,start,stop", [
    (1, 0, 40_000),
    (3, 0, 40_000),
    (1, 1_700_000, 1_760_000),
    (3, 27_000_000, 27_100_000),
    (2, 0, 30_000),
    (2, 3_000_000, 3_030_000),
    (4, 0, 41_000),
    (4, 4_000_000, 4_040_000),
])
def test_scan_matches_per_seed_reference_across_eps(cls, start, stop, eps):
    # the prefilter's tolerances scale with eps, and each check must stay
    # a necessary condition of the closure at every eps
    out = _kernels.scan_chunk(cls, start, stop, KT, eps, "numpy")
    assert out == _per_seed_reference(cls, start, stop, eps)


@pytest.mark.parametrize("cls", [1, 2, 3])
def test_numpy_scan_matches_per_seed_closure_on_heavy_blocks(cls, monkeypatch):
    # the first 2^17 seeds of classes 1 and 3 send the most candidates to
    # the closure (class 1: about 2,000, class 3: about 7,000), so class 3
    # fills several lockstep batches, and both reach the hand-off to the
    # per-seed closure; class 2's first rows have Y = 0, where Zp = Z is a
    # link for every X, so its solve stage keeps 63,022 of those seeds, two
    # groups, and about 1,600 reach the closure
    rows, handed = [], []
    lockstep, pylist = _kernels._close_lockstep, _kernels._close_pylist
    monkeypatch.setattr(_kernels, "_close_lockstep",
                        lambda seeds, *a: rows.append(len(seeds)) or lockstep(seeds, *a))
    monkeypatch.setattr(_kernels, "_close_pylist",
                        lambda *a: handed.append(a) or pylist(*a))
    out = _kernels.scan_chunk(cls, 0, 1 << 17, KT, EPS, "numpy")
    monkeypatch.undo()
    assert out == _per_seed_reference(cls, 0, 1 << 17)
    assert len(out[0]) > 100 and handed
    least = {1: 1, 2: 0.75, 3: 2}[cls] * _kernels._LOCKSTEP_ROWS
    assert sum(rows) > least


def test_class3_third_shell_checks_drop_only_rejected_seeds(monkeypatch):
    # ayz and bzx cut the closure candidates of class 3's first block of
    # 131,072 configurations from about 12,400 to about 7,000, and the scan
    # output is what the second-shell checks alone give
    rows = []
    lockstep = _kernels._close_lockstep
    monkeypatch.setattr(_kernels, "_close_lockstep",
                        lambda seeds, *a: rows.append(len(seeds)) or lockstep(seeds, *a))
    out = _kernels.scan_chunk(3, 0, 1 << 17, KT, EPS, "numpy")
    third = sum(rows)
    rows.clear()
    second = tuple(n for n in _kernels._ORDER[3] if n not in ("ayz", "bzx"))
    monkeypatch.setitem(_kernels._ORDER, 3, second)
    assert _kernels.scan_chunk(3, 0, 1 << 17, KT, EPS, "numpy") == out
    assert len(out[0]) > 100
    assert third <= 7_100 < 12_000 < sum(rows)


def test_scan_builds_its_lookups_once_per_table_set(monkeypatch):
    # the lookups, the s4 list and the difference join are built on a
    # table set's first scan and kept for every later one
    t = _kernels.ScanTables(KT.s1, KT.s4, KT.seeds, KT.skip1)
    built = []
    for name in ("_Lookup", "_difference_join"):
        make = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name,
                            lambda d, name=name, make=make: built.append(name) or make(d))
    for cls in (1, 2, 3, 4):
        _kernels.scan_chunk(cls, 0, 20_000, t, EPS, "numpy")
    assert sorted(built) == ["_Lookup", "_Lookup", "_difference_join"]
    for cls in (1, 2, 3, 4):
        assert _kernels.scan_chunk(cls, 20_000, 40_000, t, EPS, "numpy") == _per_seed_reference(
            cls, 20_000, 40_000)
    assert len(built) == 3


def _prefix_radix(cls):
    return len(KT.dicts[_kernels.LAYOUTS[cls].axes[-1][1]])


def _solve_stage(cls, rows, t=KT, eps=EPS):
    """The flat indices the solve stage of class 2 or 4 keeps of `rows`."""

    if cls == 4:
        return _kernels._solve4(rows, t, eps)
    return np.concatenate(list(_kernels._solve2(rows, t, eps)))


@pytest.mark.parametrize("cls", [1, 2, 3, 4])
def test_scan_does_not_depend_on_how_a_range_is_split(cls):
    # scan_chunk gathers what its first stage keeps of a range, prefixes in
    # classes 1 and 3 and seeds in classes 2 and 4, and expands it in
    # groups of _NUMPY_BLOCK seeds; cutting the range elsewhere regroups
    # them and must give the same survivors, in order, and the same counters
    start, stop = 0, min(1 << 23, _kernels.class_size(cls, KT))
    if cls in _kernels._PREFIX:
        radix = _prefix_radix(cls)
        group = _kernels._NUMPY_BLOCK // radix
        pref = np.arange(start // radix, stop // radix)
        kept = pref[_kernels._prefix_keep(cls, pref, radix, KT, EPS)]
    else:
        # a unit is a seed row: 6,889 seeds in class 2, 83 in class 4
        radix = _kernels._row_size(cls, KT)
        group = _kernels._NUMPY_BLOCK
        kept = _solve_stage(cls, np.arange(start // radix, stop // radix)) // radix
    if cls == 4:
        # class 4 keeps 17,954 seeds of its 8.2M, less than one group: cut
        # inside two rows that hold kept seeds
        at = (len(kept) // 3, 2 * len(kept) // 3)
    else:
        # the whole range expands in more than one group: cut inside a unit
        # of the first group, and inside the first unit of the second
        assert len(kept) > group
        at = (group // 2, group)
    cuts = [start, int(kept[at[0]]) * radix + 7, int(kept[at[1]]) * radix + radix // 2, stop]
    parts = [_kernels.scan_chunk(cls, a, b, KT, EPS, "numpy") for a, b in zip(cuts, cuts[1:])]
    merged = (
        [i for p in parts for i in p[0]],
        [n for p in parts for n in p[1]],
        *(sum(p[k] for p in parts) for k in (2, 3, 4)),
    )
    whole = _kernels.scan_chunk(cls, start, stop, KT, EPS, "numpy")
    assert whole[0] and whole[3]
    assert merged == whole


def _admitted(cls, rows, t=KT, eps=EPS):
    """The seeds of `rows` that pass the checks the solve stage solves, Zp
    and bx in class 2, Zp and Yp in class 4, as _check evaluates them on
    the decoded seeds, or are Cayley seeds: flat indices and the seed
    columns."""

    radix = _kernels._row_size(cls, t)
    idx = (np.asarray(rows)[:, None] * radix + np.arange(radix)).ravel()
    cols = _kernels._Cols(zip(_kernels._SEED, _kernels._decode_vec(cls, idx, t)))
    look = _kernels._Lookup(t.s4)
    ok = _kernels._check(cols, "Zp", look, eps)
    ok &= _kernels._check(cols, "bx" if cls == 2 else "Yp", look, eps)
    return idx[ok | _kernels._cayley(cols, eps)], cols


@pytest.mark.parametrize("eps", [1e-10, EPS, 1e-5])
@pytest.mark.parametrize("cls", [2, 4])
def test_solve_stage_keeps_every_seed_its_checks_admit(cls, eps):
    # sampled runs of rows, and the rows whose slopes vanish: class-2 rows
    # with Y = 0 (Zp = Z, a link for every X) or Y = 1 (the wx fixed-point
    # equation holds for every Yp), class-4 rows with X or Y = 1 (a
    # fixed-point equation that does not read Xp)
    nrows = len(KT.seeds[cls][0])
    count = 40 if cls == 2 else 400
    starts = list(np.random.default_rng(cls).integers(0, nrows - count, 4))
    seed = dict(zip(_kernels.LAYOUTS[cls].seed, KT.seeds[cls]))
    for name, value in ((("Y", 0.0), ("Y", 1.0)) if cls == 2 else (("X", 1.0), ("Y", 1.0))):
        first = np.flatnonzero(np.abs(seed[name] - value) < 1e-12)[0]
        starts.append(min(int(first), nrows - count))
    total = 0
    for a in starts:
        rows = np.arange(a, a + count)
        got = _solve_stage(cls, rows, eps=eps)
        want, _ = _admitted(cls, rows, eps=eps)
        assert np.all(np.diff(got) > 0)
        radix = _kernels._row_size(cls, KT)
        assert got[0] >= a * radix and got[-1] < (a + count) * radix
        assert np.isin(want, got).all()
        # and few more: the rounding margin and the Cayley windows, which
        # test one weight of four, add about one seed per row
        assert len(got) <= 1.05 * len(want) + count
        total += len(want)
    assert total > 100


def _one_row_tables(cls, *values):
    """ScanTables holding one constructed class-cls seed row."""

    seeds = {cls: tuple(np.array([v], float) for v in values)}
    return _kernels.ScanTables(KT.s1, KT.s4, seeds, 0)


def _alternatives(cols, name, at):
    """For image `name` of seed `at`: its distance to s4, its distance to
    the link coordinate, and the larger fixed-point residual, each in
    units of EPS."""

    links, p1, p2, w1, w2 = _kernels._CHECKS[name]
    v = cols[name][at]
    value = np.min(np.abs(KT.s4 - v))
    link = min(abs(v - cols[c][at]) for c in links)
    fixed = max(abs(2.0 * cols[p1][at] + v * cols[p2][at] - cols[w1][at]),
                abs(2.0 * cols[p2][at] + v * cols[p1][at] - cols[w2][at]))
    return value / EPS, link / EPS, fixed / EPS


def _assert_solved(cls, t, at):
    """Seed `at` of the one-row tables t passes the joined checks, and the
    solve stage keeps every seed the joined checks pass."""

    want, cols = _admitted(cls, [0], t)
    assert at in want
    assert np.isin(want, _solve_stage(cls, np.arange(1), t)).all()
    return cols


def test_solve_stage_keeps_constructed_class4_seeds():
    s4 = KT.s4
    i, j = 30, 50
    # Value near the 128*eps edge.  In a row (X, Y, Y), Zp = Yp =
    # X + Xp + Y*Y - Y - X*Y; X puts it 127.9 eps above s4[j] at Xp = s4[i].
    Y = 0.3
    X = (s4[j] + 127.9 * EPS - s4[i] - Y * Y + Y) / (1.0 - Y)
    cols = _assert_solved(4, _one_row_tables(4, X, Y, Y), i)
    for name in ("Zp", "Yp"):
        value, link, fixed = _alternatives(cols, name, i)
        assert 127.8 < value <= 128 and link > 1024 and fixed > 1024
    # Link near the 128*eps edge: the same, with Zp = Yp 127.9 eps above Y
    m = 50
    X = (2.0 * Y - Y * Y - s4[m] + 127.9 * EPS) / (1.0 - Y)
    cols = _assert_solved(4, _one_row_tables(4, X, Y, Y), m)
    for name in ("Zp", "Yp"):
        value, link, fixed = _alternatives(cols, name, m)
        assert value > 128 and 127.8 < link <= 128 and fixed > 1024
    # Fixed point near the 1024*eps edge, with a slope that vanishes.  In a
    # row (1, Y, Z) the fixed-point equation of Zp with wy, and of Yp with
    # wz, reads Y = Z, whatever Xp; Y = Z = 1 - sqrt(2 - Xp) makes the
    # other ones hold too, at Zp = Yp = 2.  Z = Y - d puts the larger
    # residual, Yp's with wx, at 1015 eps.
    Y = 1.0 - math.sqrt(2.0 - s4[i])
    d = 1000 * EPS
    for _ in range(3):
        _, cols = _admitted(4, [0], _one_row_tables(4, 1.0, Y, Y - d))
        d *= 1015 / max(_alternatives(cols, name, i)[2] for name in ("Zp", "Yp"))
    cols = _assert_solved(4, _one_row_tables(4, 1.0, Y, Y - d), i)
    for name in ("Zp", "Yp"):
        value, link, fixed = _alternatives(cols, name, i)
        assert value > 128 and link > 128 and fixed <= 1024
    assert _alternatives(cols, "Yp", i)[2] > 1014
    # Y and X next to 1, the rows the table holds (1.0000000000000002),
    # and a few eps off: a slope of Zp's or Yp's fixed-point equations
    # nearly vanishes
    for one in (1.0 + 2.2e-16, 1.0 + 50 * EPS, 1.0 - 3 * EPS):
        for X, Y, Z in ((s4[20], one, s4[60]), (one, s4[25], s4[70]), (one, one, s4[10])):
            t = _one_row_tables(4, X, Y, Z)
            want, _ = _admitted(4, [0], t)
            assert np.isin(want, _solve_stage(4, np.arange(1), t)).all()


def test_solve_stage_keeps_constructed_class2_seeds():
    s4, n = KT.s4, len(KT.s4)
    # In a row with Z = 1, bx = X + q + Z*(Y - Yp) is X exactly, a link, so
    # the Zp check alone decides; Zp = Z + Y*q, q = Yp - Y, reads no X.
    # Value near the 128*eps edge: Y puts Zp 127.9 eps above s4[j] at
    # Yp = s4[i], and every X is kept.
    i, j = 70, 48
    target = s4[j] + 127.9 * EPS
    Y = (s4[i] + math.sqrt(s4[i] * s4[i] - 4.0 * (target - 1.0))) / 2.0
    for at in (3 * n + i, 77 * n + i):
        cols = _assert_solved(2, _one_row_tables(2, Y, 1.0), at)
        value, link, fixed = _alternatives(cols, "Zp", at)
        assert 127.8 < value <= 128 and link > 128 and fixed > 1024
    # Yp next to Y: with Z = 0.5 and Y = s4[i] + d, Zp lies Y*d/Z, 127.9
    # eps, from Z, a link; bx lies Z*d, 62 eps, from Xp, a link too (its
    # fixed-point residuals are O(d) as well), and d*(1/Z - Z), 185 eps,
    # from X and from s4
    i = 48
    d = 127.9 * EPS * 0.5 / s4[i]
    for at in (i, 40 * n + i):
        cols = _assert_solved(2, _one_row_tables(2, s4[i] + d, 0.5), at)
        value, link, fixed = _alternatives(cols, "Zp", at)
        assert value > 128 and 127.8 < link <= 128
        value, link, fixed = _alternatives(cols, "bx", at)
        assert value > 128 and 61 < link < 63
    # Fixed point near the 1024*eps edge: X*(Zp - Z) = Yp - Y holds at
    # X = Z/Y.  X = 2cos(pi/5) and Yp = 2cos(2pi/5) have X*Yp = 1, so
    # Y = Yp + d makes it hold up to X*d*d, while Zp*Y = q + Y*Z is off by
    # (1 - Y*Y)*d, 1015 eps, and Zp lies about that far from Z and from 1.
    k, m = 66, 49
    d = 1015 * EPS / (1.0 - s4[m] * s4[m])
    cols = _assert_solved(2, _one_row_tables(2, s4[m] + d, 1.0), k * n + m)
    value, link, fixed = _alternatives(cols, "Zp", k * n + m)
    assert value > 128 and link > 128 and 1014 < fixed <= 1024
    # In a row with Y = 0, Zp = Z, a link, so bx alone decides: bx = X + c,
    # c = Yp*(1/Z - Z); Z puts bx 127.9 eps above s4[j] at X = s4[i].
    i, j, m = 20, 45, 60
    target = s4[j] - s4[i] + 127.9 * EPS
    Z = (math.sqrt(target * target + 4.0 * s4[m] * s4[m]) - target) / (2.0 * s4[m])
    cols = _assert_solved(2, _one_row_tables(2, 0.0, Z), i * n + m)
    value, link, fixed = _alternatives(cols, "bx", i * n + m)
    assert 127.8 < value <= 128 and link > 128 and fixed > 1024


def test_solve_stage_rounding_stays_below_its_margin():
    # The solve stage rewrites each image as an axis value plus a constant
    # of the row; on sampled rows the rewritten image, the fixed-point
    # residuals and the weights differ from what _check and _cayley compute
    # on the decoded seeds by far less than _SOLVE_ROUND.
    s4, n = KT.s4, len(KT.s4)
    worst = 0.0
    rows = np.random.default_rng(41).integers(0, len(KT.seeds[4][0]), 3000)
    X, Y, Z = (np.repeat(c[rows], n) for c in KT.seeds[4])
    cols = _kernels._Cols(zip(_kernels._SEED, _kernels._decode_vec(
        4, (rows[:, None] * n + np.arange(n)).ravel(), KT)))
    Xp = np.tile(s4, len(rows))
    base = X + Y * Z
    row = {"X": X, "Y": Y, "Z": Z}
    worst = max(worst, np.abs(cols["wx"] - (Xp + base)).max())
    for name in ("Zp", "Yp"):
        _, coord, a, b = _kernels._IMAGES[name]
        _, p1, p2, w1, w2 = _kernels._CHECKS[name]
        c = base - row[coord] - row[a] * row[b]
        v = cols[name]
        worst = max(worst, np.abs(v - (Xp + c)).max())
        for q1, q2, w in ((p1, p2, w1), (p2, p1, w2)):
            e = 2.0 * cols[q1] + v * cols[q2] - cols[w]
            affine = (row[q2] - 1.0) * Xp + (2.0 * row[q1] + c * row[q2] - base)
            worst = max(worst, np.abs(e - affine).max())
    rows = np.random.default_rng(42).integers(0, len(KT.seeds[2][0]), 30)
    Y, Z = (np.repeat(c[rows], n * n) for c in KT.seeds[2])
    cols = _kernels._Cols(zip(_kernels._SEED, _kernels._decode_vec(
        2, (rows[:, None] * n * n + np.arange(n * n)).ravel(), KT)))
    X, Yp = np.tile(np.repeat(s4, n), len(rows)), np.tile(s4, n * len(rows))
    q = (Yp - Y) / Z
    zp = Z + Y * q
    c = q + Z * (Y - Yp)
    v, b = cols["Zp"], cols["bx"]
    worst = max(
        worst,
        np.abs(v - zp).max(),
        np.abs(2.0 * X + v * Y - cols["wx"] - (zp * Y - q - Y * Z)).max(),
        np.abs(2.0 * Y + v * X - cols["wy"] - ((zp - Z) * X + (Y - Yp))).max(),
        np.abs(b - (X + c)).max(),
        np.abs(2.0 * Yp + b * Z - cols["wy"] - ((Yp - Y) + c * Z)).max(),
        np.abs(2.0 * Z + b * Yp - cols["wz"] - (X * (Yp - Y) + (c * Yp - q * Y))).max(),
        np.abs(cols["wy"] - (Z * X + (Y + Yp))).max(),
    )
    assert 0 < worst < _kernels._SOLVE_ROUND / 20


@pytest.mark.parametrize("cls,start,stop", [
    (1, 0, 1 << 21),
    (2, 0, 1 << 20),
    (3, 0, 1 << 21),
    (4, 0, 1 << 21),
])
def test_no_scan_stage_holds_more_than_a_block(cls, start, stop, monkeypatch):
    # a stage holds at most _NUMPY_BLOCK seeds, in ranges that need several
    # stages: every decode inside the scan gets at most that many indices,
    # a solve stage solves at most that many (row, last-axis value) pairs,
    # and marks at most that many seeds at once
    decoded, pairs, marked = [], [], []
    decode_vec, window_mask = _kernels._decode_vec, _kernels._window_mask
    monkeypatch.setattr(_kernels, "_decode_vec",
                        lambda c, idx, t: decoded.append(np.size(idx)) or decode_vec(c, idx, t))
    monkeypatch.setattr(_kernels, "_window_mask",
                        lambda *a: (lambda m: marked.append(m.size) or m)(window_mask(*a)))
    for name in ("_solve2", "_solve4"):
        solve = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda rows, *a, solve=solve: pairs.append(
            len(rows) * len(KT.s4)) or solve(rows, *a))
    _kernels.scan_chunk(cls, start, stop, KT, EPS, "numpy")
    assert decoded and max(decoded) <= _kernels._NUMPY_BLOCK
    assert bool(pairs) == (len(marked) > 1) == (cls in (2, 4))
    assert max(pairs + marked, default=0) <= _kernels._NUMPY_BLOCK


def test_weight_ranges_of_the_float_error_bound():
    # The module docstring bounds the prefilter's float error taking
    # dictionary values in [-2, 2], hence |w| <= 8, except class 2, whose
    # wx reads the computed Xp = X + (Yp - Y)/Z: |w| <= 18.2 over its grid.
    assert np.abs(KT.s4).max() <= 2.0
    size = _kernels.class_size(2, KT)
    top = max(
        np.abs(w).max()
        for a in range(0, size, _kernels.CHUNK)
        for w in _kernels._decode_vec(2, np.arange(a, min(size, a + _kernels.CHUNK)), KT)[3:]
    )
    assert 8.0 < top <= 18.2


@pytest.mark.parametrize("cls", [1, 3])
def test_prefix_checks_read_no_last_axis_value(cls):
    # The prefix stage decodes each prefix at its first index and applies
    # the result to every seed of the prefix.  Every value its checks and
    # its Cayley test read must therefore be the same float at the
    # prefix's last index; the weight they leave out must not be.
    names, drop = _kernels._PREFIX[cls]
    read = {w for w in ("wx", "wy", "wz") if w != drop}
    for name in names:
        links, p1, p2, w1, w2 = _kernels._CHECKS[name]
        read |= {name, *links, p1, p2, w1, w2} - {drop}
    if cls == 3:
        read.add("Zp")
    radix = _prefix_radix(cls)
    pref = np.random.default_rng(cls).integers(0, _kernels.class_size(cls, KT) // radix, 50_000)
    first, last = (
        _kernels._Cols(zip(_kernels._SEED, _kernels._decode_vec(cls, pref * radix + k, KT)))
        for k in (0, radix - 1)
    )
    for name in sorted(read):
        assert np.array_equal(first[name].view(np.int64), last[name].view(np.int64)), name
    assert not np.array_equal(first[drop], last[drop])


# Scan seeds as (class, index), each closing to the size or result noted:
# rejected, rejected after a doubly-fixed append (+), 1, 2, 5+, 6+, 10+,
# 12, 15+, 18+, 20+, 36+, 40 and 72 points.
_CLOSURE_SEEDS = [
    (1, 0), (1, 1), (1, 2), (1, 3), (1, 63088), (1, 70032),
    (1, 14895), (1, 44687), (1, 480), (2, 718724), (1, 2100105),
    (3, 3275069), (1, 5133), (1, 10987913), (2, 2289416), (1, 1412106),
    (1, 1411874), (1, 11504298), (1, 1412091),
    (1, 1559119), (1, 11504291), (1, 25868781), (1, 35967832),
]

# The worked example (-1, 1, 1) with w = (0, 1, 1): its fifth point is
# (0, 0, 0), appended after the width has grown from 4 to 8.
_WORKED_SEED = (-1.0, 1.0, 1.0, 0.0, 1.0, 1.0)

# With the dictionary of quarters in [-3, 3] and eps = 0.1, this seed's
# closure finds a link to a point whose slot is already filled and is
# rejected; accepting that link would close it at 4 points.
_QUARTERS = [k / 4 for k in range(-12, 13)]
_FILLED_LINK_SEED = (0.0625, -0.25, -0.4375, 0.0625, -0.5, -0.75)


def _seed_rows(pairs):
    return np.array([_kernels.decode_float(c, i, KT)[:6] for c, i in pairs])


def _in_lockstep(rows):
    # each seed more often than the hand-off bound, so that its copies
    # stay live together and close without the hand-off
    return np.repeat(np.asarray(rows, np.float64), _kernels._LOCKSTEP_HANDOFF + 1, axis=0)


def _lockstep_results(seeds, d=KT.s4, eps=EPS):
    """The lockstep closure's results, checked seed by seed against
    _close_pylist."""

    seeds = np.asarray(seeds, np.float64).reshape(-1, 6)
    d = np.asarray(d, np.float64)
    got = _kernels._close_lockstep(seeds, _kernels._Lookup(d), d.tolist(), eps)
    want = [_kernels._close_pylist(*row, d.tolist(), eps)[0] for row in seeds.tolist()]
    assert got.dtype == np.int64 and got.tolist() == want
    return want


def test_lockstep_closure_empty_batch():
    assert _lockstep_results(np.empty((0, 6))) == []


def test_lockstep_closure_mixed_batch(monkeypatch):
    # three copies of every scan seed and the worked example in lockstep:
    # the width doubles from 4 to 32, finished rows are dropped, and the
    # longest orbits are handed off to the per-seed closure
    seeds = np.concatenate([
        np.tile(_seed_rows(_CLOSURE_SEEDS), (3, 1)), _in_lockstep([_WORKED_SEED])
    ])
    handed = []
    pylist = _kernels._close_pylist

    def counting(*args):
        handed.append(args[:6])
        return pylist(*args)

    monkeypatch.setattr(_kernels, "_close_pylist", counting)
    got = _kernels._close_lockstep(
        seeds, _kernels._Lookup(KT.s4), KT.s4.tolist(), EPS
    ).tolist()
    monkeypatch.undo()
    assert 0 < len(handed) <= _kernels._LOCKSTEP_HANDOFF
    assert got == _lockstep_results(seeds)
    assert got[:len(_CLOSURE_SEEDS)] == [
        0, 0, 0, 0, 0, 0, 1, 1, 2, 5, 6, 10, 12, 15, 18, 20, 36, 36, 40,
        72, 72, 72, 72,
    ]
    assert got[-1] == 5


def test_lockstep_closure_one_point_orbits(monkeypatch):
    # A seed whose three images each lie within eps of its own coordinate
    # is a one-point orbit: class 2's seeds with Yp = Y, and constructed
    # seeds with one image 0.9*eps off.  Settled before the loop, none is
    # handed to _close_pylist.  With one image 1.1*eps off, the closure
    # goes on and rejects.
    scan = _kernels.scan_chunk(2, 0, 30_000, KT, EPS, "numpy")
    ones = _seed_rows([(2, i) for i, n in zip(scan[0], scan[1]) if n == 1][:5])
    X, Y, Z = KT.s4[60], -KT.s4[10], KT.s4[50]
    fixed = np.array([X, Y, Z, X + X + Y * Z, Y + Y + X * Z, Z + Z + X * Y])
    near, off = [fixed], []
    for c in range(3):
        for d, rows in ((0.9, near), (-0.9, near), (1.1, off)):
            seed = fixed.copy()
            seed[3 + c] += d * EPS
            rows.append(seed)
    handed = []
    pylist = _kernels._close_pylist
    monkeypatch.setattr(_kernels, "_close_pylist", lambda *a: handed.append(a) or pylist(*a))
    got = _kernels._close_lockstep(np.concatenate([ones, near]), _kernels._Lookup(KT.s4),
                                   KT.s4.tolist(), EPS)
    assert got.tolist() == [1] * 12 and not handed
    monkeypatch.undo()
    got = _lockstep_results(np.concatenate([ones, _in_lockstep(near), _in_lockstep(off)]))
    copies = _kernels._LOCKSTEP_HANDOFF + 1
    assert got == [1] * (5 + 7 * copies) + [0] * (3 * copies)


def test_lockstep_closure_link_into_filled_slot():
    got = _lockstep_results(_in_lockstep([_FILLED_LINK_SEED]), _QUARTERS, 0.1)
    assert got[0] == 0


# With the quarters and eps = 0.02, this seed's x-image -0.018 links back
# to the seed itself, 0.9*eps away, and its closure accepts it at 2 points.
# The check ay recomputes the y-image from that x-image: -0.054, 2.7*eps
# from the value 0 the closure used, and 2.7*eps from every quarter.
_NEAR_LINK_SEED = (0.0, 0.0, -3.0, -0.018, 0.0, -3.0)


def test_checks_accept_seed_linked_near_eps():
    # Every check is a necessary condition for the closure to accept a
    # seed; a tolerance too tight for a second-shell image breaks that.
    eps = 0.02
    res, P, N = _kernels._close_pylist(*_NEAR_LINK_SEED, _QUARTERS, eps)
    assert res == 2 and N[0][0] == 0
    cols = _kernels._Cols(zip(_kernels._SEED, np.array(_NEAR_LINK_SEED)[:, None]))
    used = P[1][N[1][N[0][0]]]
    assert abs(cols["ay"][0] - used) > 2.5 * eps
    look = _kernels._Lookup(np.array(_QUARTERS))
    for name in sorted(set().union(*_kernels._ORDER.values())):
        assert _kernels._check(cols, name, look, eps).all(), name


def test_checks_accept_second_shell_fixed_point_near_eps():
    # The seed (1, 2100105) closes at 6 points, and its second-shell images
    # bx and cx are doubly-fixed points: no s4 value or link lies within
    # _TOL_VALUE*eps of them.  Moving wx by 0.8*eps leaves the closure's
    # result, which tests fixed points within eps, and puts the fixed-point
    # equations of both images 0.8*eps off, so only the fixed-point
    # tolerance accepts them.
    seed = list(_kernels.decode_float(1, 2100105, KT)[:6])
    seed[3] += 0.8 * EPS
    assert _kernels._close_pylist(*seed, KT.s4.tolist(), EPS)[0] == 6
    cols = _kernels._Cols(zip(_kernels._SEED, np.array(seed)[:, None]))
    look = _kernels._Lookup(KT.s4)
    eps_d = _kernels._TOL_VALUE * EPS
    for name in ("bx", "cx"):
        links, p1, p2, w1, w2 = _kernels._CHECKS[name]
        v = cols[name]
        assert not look.near(v, eps_d).any()
        assert all(abs(v - cols[c])[0] > eps_d for c in links)
        for a1, a2, w in ((p1, p2, w1), (p2, p1, w2)):
            residual = abs(2.0 * cols[a1] + v * cols[a2] - cols[w])[0]
            assert 0.7 * EPS < residual <= EPS
    for name in sorted(set().union(*_kernels._ORDER.values())):
        assert _kernels._check(cols, name, look, EPS).all(), name


def test_lockstep_closure_doubly_fixed_append():
    seeds = _in_lockstep(_seed_rows([(2, 718724), (1, 1411874), (3, 3275069)]))
    assert _lockstep_results(seeds)[::_kernels._LOCKSTEP_HANDOFF + 1] == [5, 36, 10]


def test_lockstep_closure_cap(monkeypatch):
    monkeypatch.setattr(_kernels, "CAP", 5)
    got = _lockstep_results(_in_lockstep(_seed_rows(_CLOSURE_SEEDS)))
    # orbits of more than 5 points hit the cap, and so do the six rejected
    # seeds, whose rejection comes after a sixth point; 5 points still close
    assert got[::_kernels._LOCKSTEP_HANDOFF + 1] == [-1] * 6 + [1, 1, 2, 5] + [-1] * 13


def _lookup_probes(look, d, rng):
    edges = look.origin + np.arange(-2, look.size + 2) / look.scale
    eps_d = _kernels._TOL_VALUE * EPS
    return np.concatenate([
        d,
        np.nextafter(d, -np.inf),
        np.nextafter(d, np.inf),
        d - eps_d,
        d + eps_d,
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        [-np.inf, -50.0, -2.5, np.nextafter(-2.0, -np.inf), 2.0, 2.5, 50.0, np.inf],
        [rng.uniform(-50.0, 50.0) for _ in range(20000)],
        [rng.uniform(-2.1, 2.1) for _ in range(20000)],
    ])


@pytest.mark.parametrize("name", ["s1", "s4"])
def test_bucket_lookup_matches_searchsorted(name):
    d = getattr(KT, name)
    look = _kernels._Lookup(d)
    v = _lookup_probes(look, d, random.Random(23))
    k = np.searchsorted(d, v)
    assert np.array_equal(look.rank(v), k)
    lo = np.clip(k - 1, 0, len(d) - 1)
    hi = np.clip(k, 0, len(d) - 1)
    # the largest eps full_search accepts: 2 * eps < min_gap
    largest = np.nextafter(D.min_gap / 2, 0.0)
    assert 2 * largest < D.min_gap
    for eps in (EPS, largest):
        for tol in (eps, _kernels._TOL_VALUE * eps):
            ref = (np.abs(d[lo] - v) <= tol) | (np.abs(d[hi] - v) <= tol)
            assert np.array_equal(look.near(v, tol), ref)


@pytest.mark.parametrize("image,radix", [("Xp", 961), ("Yp", 31), ("Zp", 1)])
def test_class1_first_shell_checks_cannot_fail(image, radix):
    # The numpy scan leaves out class 1's first-shell checks.  Over every
    # seed triple and every value of the prime the image reads, the image
    # lies within 4*eps of an s4 value, so each of those checks passes.
    idx = (np.arange(len(T.tri1))[:, None] * 29791
           + np.arange(31) * radix).ravel()
    cols = _kernels._Cols(zip(_kernels._SEED, _kernels._decode_vec(1, idx, KT)))
    v = cols[image]
    k = np.searchsorted(KT.s4, v)
    lo = KT.s4[np.clip(k - 1, 0, len(KT.s4) - 1)]
    hi = KT.s4[np.clip(k, 0, len(KT.s4) - 1)]
    gap = np.minimum(np.abs(lo - v), np.abs(hi - v))
    assert len(v) == 1632 * 31
    assert gap.max() <= 4.0 * EPS
    assert _kernels._check(cols, image, _kernels._Lookup(KT.s4), EPS).all()


def test_scan_skips_duplicate_zero_seed():
    skip = KT.skip1
    out = _kernels.scan_chunk(1, skip - 5, skip + 5, KT, EPS, "numpy")
    assert out[2] == 9  # processed


def test_float_survivors_match_exact_closure():
    # every float survivor in a slice must close exactly at the same size
    idxs, sizes, _, _, _ = _kernels.scan_chunk(2, 0, 30000, KT, EPS, "numpy")
    assert idxs, "slice should contain survivors"
    for idx, fsz in zip(idxs[:60], sizes[:60]):
        g = decode_config(2, idx)
        rec = close_orbit(g.point, g.omega, cap=2 * fsz + 8)
        assert rec is not None and rec.size == fsz


def test_float_rejections_match_exact_closure():
    # and slice configs the scan rejected must not close exactly either
    idxs, _, _, _, _ = _kernels.scan_chunk(3, 0, 9000, KT, EPS, "numpy")
    surviving = set(idxs)
    rng = random.Random(4)
    checked = 0
    while checked < 40:
        idx = rng.randrange(9000)
        if idx in surviving:
            continue
        g = decode_config(3, idx)
        rec = close_orbit(g.point, g.omega)
        assert rec is None
        checked += 1


# the chunk each class is checked on: the first, and for class 4 the
# fourth, the first of its chunks with more than one survivor of size > 4
# (chunks 0-3 hold 0, 0, 1 and 13 of them)
_ORACLE_CHUNK = {1: 0, 2: 0, 3: 0, 4: 3}


@pytest.mark.parametrize("cls", [1, 2, 3, 4])
def test_float_decisions_match_exact_closure_in_every_class(cls):
    # every float survivor of size > 4 in the chunk, and 40 seeded ones of
    # size <= 4, close exactly at their float size; 50 seeded seeds the
    # scan rejected close to None (the class-1 seed the scan skips as a
    # duplicate is not a rejection)
    start = _ORACLE_CHUNK[cls] * _kernels.CHUNK
    idxs, sizes, _, _, _ = _kernels.scan_chunk(
        cls, start, start + _kernels.CHUNK, KT, EPS, "numpy")
    rng = random.Random(22 + cls)
    small = [(i, s) for i, s in zip(idxs, sizes) if s <= 4]
    survivors = [(i, s) for i, s in zip(idxs, sizes) if s > 4]
    survivors += rng.sample(small, min(40, len(small)))
    for idx, fsz in survivors:
        g = decode_config(cls, idx)
        rec = close_orbit(g.point, g.omega, cap=2 * fsz + 8)
        assert rec is not None and rec.size == fsz, (cls, idx)
    kept = set(idxs) | {KT.skip1}
    rejected = set()
    while len(rejected) < 50:
        idx = rng.randrange(start, start + _kernels.CHUNK)
        if idx not in kept:
            rejected.add(idx)
    for idx in sorted(rejected):
        g = decode_config(cls, idx)
        assert close_orbit(g.point, g.omega) is None, (cls, idx)


@pytest.mark.parametrize("cls", [1, 2, 3, 4])
@pytest.mark.parametrize("where", ["first", "middle"])
def test_float_cayley_seeds_are_refused_by_the_exact_closure(cls, where):
    # every float Cayley seed of a block of 2^17 seeds, the class's first or
    # the one holding its middle index: the scan counts each of them, and
    # each has all four parameters exactly zero, which close_orbit refuses
    block = 1 << 17
    size = _kernels.class_size(cls, KT)
    start = 0 if where == "first" else size // 2 // block * block
    stop = min(size, start + block)
    idx = np.arange(start, stop)
    idx = idx[idx != KT.skip1]
    cols = _kernels._Cols(zip(_kernels._SEED, _kernels._decode_vec(cls, idx, KT)))
    cay = _kernels._cayley(cols, EPS)
    if cls == 3:
        # as the scan does, class 3 keeps only seeds with Zp in s1
        cay &= KT.look1.near(cols["Zp"], EPS)
    assert np.count_nonzero(cay) == _kernels.scan_chunk(cls, start, stop, KT, EPS, "numpy")[3]
    for i in idx[cay].tolist():
        g = decode_config(cls, i)
        assert all(w.is_zero() for w in g.omega), (cls, i)
        assert close_orbit(g.point, g.omega) is None


def test_prefix_stage_keeps_a_cayley_prefix_its_checks_drop():
    # the class-1 seed (X, Y, Z) = (2cos(pi/10), 2cos(pi/5), -2cos(3pi/10))
    # lies on the Cayley cubic: Xp = 0, Yp = 2cos(2pi/5) and Zp = -2cos(pi/10)
    # put every weight at 0.  With -2cos(pi/5) left out of s4, ay = -Y is
    # neither a value nor a link, and the fixed-point equation the prefix
    # stage keeps, 2*Xp + ay*Z = wx, misses by |Y*Z| = 1.9: only the Cayley
    # exemption keeps the prefix (Xp, Yp), and the scan then counts the seed
    def entry(d, angle):
        return d[np.argmin(np.abs(d - 2.0 * math.cos(math.pi * Fraction(angle))))]

    s1 = np.array(sorted(entry(KT.s1, a) for a in ("1/2", "2/5", "9/10")))
    s4 = KT.s4[KT.s4 != entry(KT.s4, "4/5")]
    assert len(s4) == len(KT.s4) - 1
    seed = tuple(np.array([entry(KT.s1, a)]) for a in ("1/10", "1/5", "7/10"))
    t = _kernels.ScanTables(s1, s4, {1: seed}, -1)
    radix = len(s1)
    pref = np.arange(radix * radix)
    cay = int(np.flatnonzero(s1 == entry(s1, "1/2"))[0]) * radix + int(
        np.flatnonzero(s1 == entry(s1, "2/5"))[0])
    cols = _kernels._Cols(zip(_kernels._SEED, _kernels._decode_vec(1, pref * radix, t)))
    assert not _kernels._check(cols, "ay", t.look4, EPS, "wz")[cay]
    assert abs(2.0 * cols["Xp"][cay] + cols["ay"][cay] * cols["Z"][cay] - cols["wx"][cay]) > 1.9
    assert _kernels._prefix_keep(1, pref, radix, t, EPS)[cay]
    idx = np.arange(_kernels.class_size(1, t))
    cols = _kernels._Cols(zip(_kernels._SEED, _kernels._decode_vec(1, idx, t)))
    ncay = int(np.count_nonzero(_kernels._cayley(cols, EPS)))
    assert ncay == 1
    assert _kernels.scan_chunk(1, 0, len(idx), t, EPS, "numpy")[3] == ncay


# ---------------------------------------------------------------------------
# float dedup key


def _float_orbit_key_loop(pc, ws, w4):
    """The least of a float orbit's 24 symmetric images, each the tuple
    (w4, its w triple, its points sorted by (x, y, z)) on a 1e-6 grid: one
    stack and one lexsort per symmetry, the least key tuple kept."""

    grid = np.rint(pc * 1e6).astype(np.int64)
    wsi = [int(round(v * 1e6)) for v in ws]
    w4i = int(round(w4 * 1e6))
    best = None
    for perm, signs in all_equivalences():
        tw = (wsi[perm[0]] * signs[0], wsi[perm[1]] * signs[1], wsi[perm[2]] * signs[2])
        arr = np.stack([grid[perm[i]] * signs[i] for i in range(3)])
        order = np.lexsort((arr[2], arr[1], arr[0]))
        key = (w4i,) + tw + tuple(arr[:, order].T.reshape(-1).tolist())
        if best is None or key < best:
            best = key
    return best


def _float_orbits(golden_orbits):
    """(pc, ws, w4) of the 45 reference orbits, then of random clouds whose
    coordinates repeat and tie in sign, with and without noise below the
    1e-6 grid."""

    out = []
    for points, w in golden_orbits:
        pc = np.array([[c.float_value() for c in p] for p in points]).T
        out.append((pc, tuple(v.float_value() for v in w[:3]), w.w4.float_value()))
    rng = np.random.default_rng(11)
    for k in range(120):
        n = int(rng.integers(1, 60))
        pc = rng.choice([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5], size=(3, n))
        if k % 2:
            pc = pc + rng.uniform(-3e-7, 3e-7, size=(3, n))
        ws = tuple(rng.choice([-1.0, 0.0, 1.0, 2.5], size=3))
        out.append((pc, ws, float(rng.uniform(-20.0, 20.0))))
    return out


def test_float_orbit_key_matches_the_per_symmetry_loop(golden_orbits):
    # over the 45 reference orbits and their 24 images each, two keys are
    # equal exactly when the least-image keys of the loop are: one class
    # per orbit
    orbits = _float_orbits(golden_orbits)[:45]
    keys, loop_keys = [], []
    for pc, ws, w4 in orbits:
        for perm, signs in all_equivalences():
            image = pc[list(perm)] * np.array(signs, float)[:, None]
            tw = tuple(ws[perm[i]] * signs[i] for i in range(3))
            keys.append(_float_orbit_key(image, tw, w4))
            loop_keys.append(_float_orbit_key_loop(image, tw, w4))
    assert len(set(keys)) == len(set(loop_keys)) == len(set(zip(keys, loop_keys))) == 45
    assert all(len(row) == 7 and all(type(v) is int for v in row) for k in keys for row in k)
    # each point's one-point key lies in its own orbit's key and in no other
    owner = {}
    for k, (pc, ws, w4) in enumerate(orbits):
        for row in _float_orbit_key(pc, ws, w4):
            assert owner.setdefault(row, k) == k
    for k, (pc, ws, w4) in enumerate(orbits):
        for i in range(pc.shape[1]):
            (row,) = _float_orbit_key(pc[:, [i]], ws, w4)
            assert owner.get(row) == k


def test_float_orbit_key_is_invariant_under_the_24_symmetries(golden_orbits):
    for pc, ws, w4 in _float_orbits(golden_orbits)[::7]:
        key = _float_orbit_key(pc, ws, w4)
        for perm, signs in all_equivalences():
            image = pc[list(perm)] * np.array(signs, float)[:, None]
            tw = tuple(ws[perm[i]] * signs[i] for i in range(3))
            assert _float_orbit_key(image, tw, w4) == key


def test_full_search_closes_the_candidates_of_the_least_image_dedup(monkeypatch):
    # on the first 2^17 seeds of each class, the survivors full_search
    # closes exactly are those the dedup it replaced kept: each size > 4
    # survivor re-closed in float and kept unless the least of its 24
    # images was seen before
    seen, cand = set(), []
    for cls in (1, 2, 3, 4):
        idxs, sizes, _, _, _ = _kernels.scan_chunk(cls, 0, 1 << 17, KT, EPS, "numpy")
        for idx, fsz in zip(idxs, sizes):
            if fsz <= 4:
                continue
            X, Y, Z, wx, wy, wz, w4 = _kernels.decode_float(cls, idx, KT)
            res, pc, _ = _kernels.close_float(X, Y, Z, wx, wy, wz, KT.s4, EPS, want_points=True)
            assert res == fsz
            key = _float_orbit_key_loop(pc, (wx, wy, wz), w4)
            if key not in seen:
                seen.add(key)
                cand.append((cls, idx))
    _first_blocks_only(monkeypatch)
    res = full_search(threads=1)
    assert res.candidates == len(cand) == len(res.records) == 11
    assert sorted(rec.source for rec in res.records) == cand


# ---------------------------------------------------------------------------
# full search (session fixture in conftest, shared with other test files)


@pytest.mark.parametrize("kwargs", [
    {"threads": 0}, {"eps": 0.0}, {"eps": math.nan}, {"eps": D.min_gap / 2},
])
def test_full_search_rejects_bad_arguments(kwargs):
    # checked before any seed is scanned
    with pytest.raises(ValueError):
        full_search(**kwargs)


def test_full_search_finds_the_table(search_result):
    res = search_result
    assert len(res.records) == 45
    assert golden_match(res.records) and res.junk == 0 and res.cap_hits == 0
    assert res.processed == {c: class_counter(c) for c in (1, 2, 3, 4)}
