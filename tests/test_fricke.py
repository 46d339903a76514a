import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from fricke_orbits import trig_field
from fricke_orbits.fricke_action import (
    _PAIRS,
    COLORS,
    Diverges,
    PointSet,
    Suborbit,
    all_equivalences,
    apply,
    canonical_key,
    closed_form,
    cosine_angle,
    double_step,
    equiv_transform,
    fricke_residual,
    keys_equal,
    make_omega,
    make_point,
    omega4_of,
    points_equal,
    suborbit,
    suborbit_parity_checks,
)
from fricke_orbits.trig_field import compare_tuples, cos_value, from_rational

# a 5-point orbit used as a worked example throughout: parameters
# (wx, wy, wz) = (0, 1, 1), w4 = 4
W5 = make_omega(0, 1, 1, 4)
P1 = make_point(-1, 1, 1)
P2 = make_point(0, 1, 1)
P3 = make_point(0, 1, 0)
P4 = make_point(0, 0, 0)
P5 = make_point(0, 0, 1)
ORBIT5 = (P1, P2, P3, P4, P5)

# full adjacency of the example as (point, {color: image}) pairs
ADJ = [
    (P1, {"x": P2, "y": P1, "z": P1}),
    (P2, {"x": P1, "y": P5, "z": P3}),
    (P3, {"x": P3, "y": P4, "z": P2}),
    (P4, {"x": P4, "y": P3, "z": P5}),
    (P5, {"x": P5, "y": P2, "z": P4}),
]


def rand_cos(rng, spread=3):
    v = from_rational(Fraction(rng.randint(-spread, spread),
                               rng.randint(1, 2)))
    if rng.random() < 0.8:
        d = rng.choice((2, 3, 4, 5, 6))
        n = rng.randint(1, d - 1)
        v = v + cos_value(n, d) * rng.randint(-2, 2)
    return v


def rand_point_omega(rng):
    p = (rand_cos(rng), rand_cos(rng), rand_cos(rng))
    w = make_omega(rand_cos(rng), rand_cos(rng), rand_cos(rng),
                   rand_cos(rng))
    return p, w


def test_apply_example_adjacency():
    for p, images in ADJ:
        for g, img in images.items():
            assert points_equal(apply(g, p, W5), img)


def test_apply_is_involution():
    rng = random.Random(20260814)
    for _ in range(60):
        p, w = rand_point_omega(rng)
        for g in "xyz":
            assert points_equal(apply(g, apply(g, p, w), w), p)


def test_points_equal_around_tie_band(monkeypatch):
    exact_calls = []
    reduce = trig_field.to_cyclotomic

    def counted(a):
        exact_calls.append(a)
        return reduce(a)

    monkeypatch.setattr(trig_field, "to_cyclotomic", counted)
    # equal values with different terms
    a, one = cos_value(1, 5) - cos_value(2, 5), from_rational(1)
    y, z = cos_value(1, 7), from_rational(Fraction(-3, 2))
    assert points_equal((a, y, z), (one, y, z))
    assert len(exact_calls) == 1  # y and z have identical terms
    assert points_equal((a, y, z), (a, y, z))
    assert len(exact_calls) == 1
    for mass in (1, 10 ** 9):
        am, onem = a * mass, one * mass
        # 40 times float_error(am) lies outside the band 2*(err_a + err_b),
        # a quarter of it inside; only inside does the exact path run
        for off, outside in ((Fraction(40 * trig_field.float_error(am)), True),
                             (Fraction(trig_field.float_error(am) / 4), False)):
            for b in (onem + off, onem - off):
                assert trig_field.separated(am, b) == outside
                for p, q in (((am, y, z), (b, y, z)), ((y, z, am), (y, z, b))):
                    before = len(exact_calls)
                    assert not points_equal(p, q)
                    assert not points_equal(q, p)
                    assert (len(exact_calls) > before) == (not outside)


def test_residual_is_invariant():
    rng = random.Random(7)
    for _ in range(60):
        p, w = rand_point_omega(rng)
        r = fricke_residual(p, w)
        for g in "xyz":
            assert (fricke_residual(apply(g, p, w), w) - r).is_zero()


def test_omega4_of():
    w4 = omega4_of(P1, W5.wx, W5.wy, W5.wz)
    assert (w4 - from_rational(4)).is_zero()
    for p in ORBIT5:
        assert fricke_residual(p, W5).is_zero()
    # the one-cell surface: all parameters zero
    cayley_pt = make_point(1, 1, 1)
    zero = from_rational(0)
    assert omega4_of(cayley_pt, zero, zero, zero).is_zero()
    assert fricke_residual(cayley_pt, make_omega(0, 0, 0, 0)).is_zero()


def test_equivalences_form_a_group():
    ts = all_equivalences()
    assert len(ts) == 24 and len(set(ts)) == 24
    assert ts[0] == ((0, 1, 2), (1, 1, 1))
    rng = random.Random(99)
    p, w = rand_point_omega(rng)
    r = fricke_residual(p, w)
    for t in ts:
        tp, tw = equiv_transform(t, p, w)
        assert (fricke_residual(tp, tw) - r).is_zero()
        # each transform has an inverse in the family
        back = [u for u in ts
                if points_equal(equiv_transform(u, tp, tw)[0], p)
                and (equiv_transform(u, tp, tw)[1].wx - w.wx).is_zero()
                and (equiv_transform(u, tp, tw)[1].wy - w.wy).is_zero()
                and (equiv_transform(u, tp, tw)[1].wz - w.wz).is_zero()]
        assert back, t


def test_canonical_key_invariance():
    key = canonical_key(ORBIT5, W5)
    assert len(key) == 4 + 3 * len(ORBIT5)
    for t in all_equivalences():
        tp = [equiv_transform(t, p, W5)[0] for p in ORBIT5]
        tw = equiv_transform(t, ORBIT5[0], W5)[1]
        assert keys_equal(key, canonical_key(tp, tw))
    rng = random.Random(5)
    shuffled = list(ORBIT5)
    rng.shuffle(shuffled)
    assert keys_equal(key, canonical_key(shuffled, W5))
    other = canonical_key([make_point(1, 1, 1)], make_omega(0, 0, 0, 0))
    assert not keys_equal(key, other)


def _ref_canonical_key(points, w):
    """The direct method, kept as the reference: build all 24 images, sort
    each one's points and take the first minimum, all under exact
    comparison."""
    best = None
    ws = (w.wx, w.wy, w.wz)
    for perm, signs in all_equivalences():
        tw = [ws[perm[i]] * signs[i] for i in range(3)]
        tp = [tuple(p[perm[i]] * signs[i] for i in range(3)) for p in points]
        tp.sort(key=cmp_to_key(compare_tuples))
        flat = [w.w4] + tw
        for p in tp:
            flat.extend(p)
        cand = tuple(flat)
        if best is None or compare_tuples(cand, best) < 0:
            best = cand
    return best


def _assert_same_terms(key, ref):
    assert len(key) == len(ref)
    for i, (v, r) in enumerate(zip(key, ref)):
        assert v.terms == r.terms, i
        assert v.float_value() == r.float_value(), i


def test_canonical_key_matches_reference_on_golden_orbits(golden_orbits):
    for points, w in golden_orbits:
        _assert_same_terms(canonical_key(points, w), _ref_canonical_key(points, w))


def test_canonical_key_invariance_on_golden_orbits(golden_orbits):
    rng = random.Random(45)
    for points, w in golden_orbits[::15]:
        key = canonical_key(points, w)
        shuffled = list(points)
        rng.shuffle(shuffled)
        assert keys_equal(key, canonical_key(shuffled, w))
        for t in all_equivalences():
            tp = [equiv_transform(t, p, w)[0] for p in points]
            tw = equiv_transform(t, points[0], w)[1]
            assert keys_equal(key, canonical_key(tp, tw))


def test_canonical_key_constructed_ties():
    # one value written two ways, and two values whose floats tie
    one = cos_value(1, 5) - cos_value(2, 5)
    a = cos_value(1, 7)
    a_up = a + Fraction(1, 10 ** 12)
    assert one.terms != from_rational(1).terms
    assert abs(a_up.float_value() - a.float_value()) < 1e-10
    points = [
        make_point(1, 0, a), (one, from_rational(0), a),  # equal points
        (one, a, from_rational(0)), (from_rational(1), a_up, from_rational(0)),
        (a_up, one, -a), (a, from_rational(1), -a_up), (-a, -a_up, one),
    ]
    w = make_omega(one, 1, a, a_up)
    key = canonical_key(points, w)
    _assert_same_terms(key, _ref_canonical_key(points, w))
    rng = random.Random(3)
    for _ in range(4):
        shuffled = list(points)
        rng.shuffle(shuffled)
        _assert_same_terms(canonical_key(shuffled, w),
                           _ref_canonical_key(shuffled, w))
    for t in all_equivalences():
        tp = [equiv_transform(t, p, w)[0] for p in points]
        tw = equiv_transform(t, points[0], w)[1]
        assert keys_equal(key, canonical_key(tp, tw))


def test_cosine_angle():
    assert cosine_angle(from_rational(0)) == Fraction(1, 2)
    assert cosine_angle(from_rational(1)) == Fraction(1, 3)
    assert cosine_angle(from_rational(-1)) == Fraction(2, 3)
    assert cosine_angle(cos_value(3, 11)) == Fraction(3, 11)
    assert cosine_angle(from_rational(2)) is None
    assert cosine_angle(from_rational(-2)) is None
    assert cosine_angle(from_rational(Fraction(1, 2))) is None
    assert cosine_angle(from_rational(3)) is None
    # a value assembled from several terms still resolves: this difference
    # equals 1 = 2cos(pi/3)
    golden = cos_value(1, 5) - cos_value(2, 5)
    assert cosine_angle(golden) == Fraction(1, 3)


def test_suborbit_cycle_example():
    sub = suborbit(P2, W5, "yz")
    assert sub.shape == "cycle"
    assert sub.length == 2
    assert sub.n_common == 1
    assert sub.common.is_zero()
    assert len(sub.points) == 4
    for p in (P2, P3, P4, P5):
        assert any(points_equal(p, q) for q in sub.points)
    assert suborbit_parity_checks(sub, W5)


def test_suborbit_line_example():
    sub = suborbit(P1, W5, "xz")
    assert sub.shape == "line"
    assert sub.length == 3
    assert sub.n_common == 1
    assert (sub.common - from_rational(1)).is_zero()
    # walk order from the end with the self-loop
    assert [points_equal(a, b) for a, b in zip(sub.points, (P1, P2, P3))] \
        == [True, True, True]
    assert suborbit_parity_checks(sub, W5)

    sub2 = suborbit(P1, W5, "xy")
    assert sub2.shape == "line" and sub2.length == 3
    for p in (P1, P2, P5):
        assert any(points_equal(p, q) for q in sub2.points)


def test_suborbit_single_point():
    sub = suborbit(P1, W5, "yz")
    assert sub.shape == "line" and sub.length == 1
    assert len(sub.points) == 1 and sub.n_common is None
    # a doubly fixed point with frozen coordinate far outside [-2, 2]
    w = make_omega(0, 7, 7, 0)
    p = make_point(5, 1, 1)
    sub = suborbit(p, w, "yz")
    assert sub.shape == "line" and sub.length == 1


def test_suborbit_assorted_lengths():
    cases = [
        # (frozen value, start moving pair, w1, w2, expected N, expected n)
        (from_rational(-1), (3, 5), 1, 2, 3, 2),
        (cos_value(1, 4), (0, 0), 1, 1, 4, 1),
        (cos_value(2, 5), (Fraction(1, 2), Fraction(1, 3)), 2, 1, 5, 2),
        (cos_value(1, 6), (1, 0), 1, 3, 6, 1),
    ]
    for f, (a0, b0), w1, w2, exp_n_len, exp_n in cases:
        p = (f, from_rational(a0), from_rational(b0))
        w = make_omega(0, w1, w2, 0)
        sub = suborbit(p, w, "yz")
        assert sub.length == exp_n_len
        assert sub.n_common == exp_n
        assert suborbit_parity_checks(sub, w)
        if sub.shape == "cycle":
            assert len(sub.points) == 2 * sub.length
        else:
            assert len(sub.points) == sub.length


def test_suborbit_diverges():
    zero = make_omega(0, 0, 0, 0)
    with pytest.raises(Diverges):
        suborbit(make_point(3, 1, 1), zero, "yz")
    with pytest.raises(Diverges):
        suborbit(make_point(2, 1, 0), zero, "yz")
    with pytest.raises(Diverges):
        suborbit(make_point(Fraction(1, 2), 1, 1), zero, "yz")


def _ref_suborbit(p, w, pair="yz"):
    """The three-pass method, kept as the reference: a breadth-first search
    into a PointSet, a scan of both colors at every point for self-loops,
    and a walk that lists each point once, from the first self-loop in
    search order for a line."""
    i1, i2, ifix = _PAIRS[pair]
    c1, c2 = COLORS[i1], COLORS[i2]
    common = p[ifix]
    if points_equal(apply(c1, p, w), p) and points_equal(apply(c2, p, w), p):
        return Suborbit(pair, "line", (p,), 1, common, None)
    frac = cosine_angle(common)
    if frac is None:
        raise Diverges("frozen coordinate")
    n, length = frac.numerator, frac.denominator
    cap = 2 * length + 2
    ps = PointSet()
    ps.add(p)
    frontier = [p]
    while frontier:
        nxt = []
        for q in frontier:
            for c in (c1, c2):
                img = apply(c, q, w)
                if ps.find(img) is None:
                    if len(ps) >= cap:
                        raise Diverges("cap")
                    ps.add(img)
                    nxt.append(img)
        frontier = nxt
    pts = ps.points
    loops = [(i, c) for i, q in enumerate(pts) for c in (c1, c2)
             if points_equal(apply(c, q, w), q)]
    if loops:
        shape = "line"
        start, loop_color = min(loops)
        cur, col, other = pts[start], (c2 if loop_color == c1 else c1), loop_color
    else:
        shape = "cycle"
        cur, col, other = p, c1, c2
    ordered = [cur]
    while len(ordered) < len(pts):
        img = apply(col, cur, w)
        if points_equal(img, cur):
            col, other = other, col
            continue
        if not any(points_equal(img, q) for q in ordered):
            ordered.append(img)
        cur = img
        col, other = other, col
    return Suborbit(pair, shape, tuple(ordered), length, common, n)


def _assert_same_suborbit(sub, ref):
    assert (sub.pair, sub.shape, sub.length, sub.n_common) == \
        (ref.pair, ref.shape, ref.length, ref.n_common)
    assert sub.common is ref.common
    assert len(sub.points) == len(ref.points)
    for i, (a, b) in enumerate(zip(sub.points, ref.points)):
        assert points_equal(a, b), i


# a line of five points: x frozen at 2cos(pi/5), y fixes its start
F5 = cos_value(1, 5)
W_LINE5 = make_omega(0, 1, 2, 0)
P_LINE5 = (F5, (from_rational(1) - F5 * Fraction(1, 3)) * Fraction(1, 2),
           from_rational(Fraction(1, 3)))


def test_suborbit_matches_reference_on_every_kind_of_start():
    line5 = _ref_suborbit(P_LINE5, W_LINE5, "yz").points
    assert len(line5) == 5
    cases = [
        (P2, W5, "yz"),  # a cycle
        (P2, W5, "xz"),  # middle of a line of three: equal distance to both ends
        (P3, W5, "xz"),  # the x end of that line (x is the first color)
        (P1, W5, "xz"),  # its z end
        (P1, W5, "yz"),  # fixed by both colors
    ] + [(q, W_LINE5, "yz") for q in line5]  # both ends, off-centre, centre
    kinds = set()
    for p, w, pair in cases:
        sub = suborbit(p, w, pair)
        _assert_same_suborbit(sub, _ref_suborbit(p, w, pair))
        kinds.add((sub.shape, sub.length))
    assert kinds == {("cycle", 2), ("line", 3), ("line", 1), ("line", 5)}


def test_suborbit_matches_reference_on_golden_orbits(golden_orbits):
    # every (point, pair) of every fifth orbit, 372 calls; all 2,157 calls
    # of the 45 take several seconds under the reference
    for points, w in golden_orbits[::5]:
        for p in points:
            for pair in ("yz", "xz", "xy"):
                _assert_same_suborbit(suborbit(p, w, pair), _ref_suborbit(p, w, pair))


def test_closed_form_generic():
    rng = random.Random(31337)
    fs = [
        cos_value(1, 5),
        cos_value(3, 7),
        from_rational(Fraction(1, 2)),
        cos_value(1, 6) + from_rational(1),  # magnitude above 2 is fine
    ]
    for f in fs:
        for _ in range(4):
            w1, w2 = rand_cos(rng), rand_cos(rng)
            a0, b0 = rand_cos(rng), rand_cos(rng)
            vals = (a0, b0)
            for k in range(7):
                ak, bk = closed_form(f, w1, w2, a0, b0, k)
                assert (ak - vals[0]).is_zero(), (f, k)
                assert (bk - vals[1]).is_zero(), (f, k)
                vals = double_step(vals, f, w1, w2)


def test_closed_form_degenerate():
    rng = random.Random(424242)
    for f in (from_rational(2), from_rational(-2)):
        for _ in range(6):
            w1, w2 = rand_cos(rng), rand_cos(rng)
            a0, b0 = rand_cos(rng), rand_cos(rng)
            vals = (a0, b0)
            for k in range(7):
                ak, bk = closed_form(f, w1, w2, a0, b0, k)
                assert (ak - vals[0]).is_zero(), (f, k)
                assert (bk - vals[1]).is_zero(), (f, k)
                vals = double_step(vals, f, w1, w2)
