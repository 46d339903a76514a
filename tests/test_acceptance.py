"""Acceptance gate: one test per shipping criterion.

Each test is a single pass/fail line under `pytest -v`.  Frozen numbers
come from the embedded reference table and from independent oracle runs
recorded in the test suites of the individual modules.
"""

import random

from fractions import Fraction
from typing import Tuple

from fricke_orbits.cli import render_search
from fricke_orbits.cosine_sums import canonicalize, enumerate_vanishing
from fricke_orbits.fricke_action import (
    Omega,
    PointSet,
    apply,
    cos_value,
    fricke_residual,
    from_rational,
    make_omega,
    make_point,
    points_equal,
    suborbit,
    suborbit_parity_checks,
    double_step,
    closed_form,
    _PAIRS,
)
from fricke_orbits.golden import GOLDEN_ROWS, golden_row
from fricke_orbits.orbit_graphs import build_graph, lambda_orbit_count
from fricke_orbits.orbit_search import (
    cayley_orbit,
    close_orbit,
    full_search,
    get_dictionaries,
    golden_assignment,
)
from fricke_orbits.parameter_maps import (
    apply_bt,
    make_theta,
    omega_from_theta,
    theta_candidates_for_omega,
    xi_cubic,
    xi_root_check,
    xi_roots,
)
from fricke_orbits.sl2_monodromy import (
    ReducibleLocus,
    act,
    invariants,
    omegas_of,
    random_triple,
    reconstruct,
)


DIVISORS_60 = tuple(d for d in range(1, 61) if 60 % d == 0)

FROZEN_COUNTERS = {1: 48_618_911, 2: 6_213_878, 3: 54_671_104, 4: 8_197_910}


def size_multiset() -> Tuple[int, ...]:
    return tuple(sorted(r.size for r in GOLDEN_ROWS))


def _rand_value(rng):
    v = cos_value(Fraction(rng.randint(0, 24), rng.randint(1, 12)))
    if rng.random() < 0.3:
        v = v * rng.choice((-1, 2, Fraction(1, 2)))
    if rng.random() < 0.3:
        v = v + from_rational(rng.randint(-2, 2))
    return v


def _rand_point_omega(rng):
    p = tuple(_rand_value(rng) for _ in range(3))
    w = Omega(*(_rand_value(rng) for _ in range(4)))
    return p, w


def test_criterion_01_full_search_reproduces_reference_table(search_result):
    """45 exceptional orbits; sizes, parameters and 4-w4 match exactly."""
    assert len(search_result.records) == 45
    assert sorted(r.size for r in search_result.records) == sorted(size_multiset())
    _, diffs = golden_assignment(search_result.records, GOLDEN_ROWS)
    assert diffs == []
    assert search_result.threads == 1
    assert search_result.elapsed <= 1800  # single-threaded budget: 30 minutes


def test_criterion_02_dictionary_cardinalities_and_gap():
    """Value dictionaries hold 31/46/71/83 entries; min gap above 1e-3."""
    d = get_dictionaries()
    assert (len(d.s1), len(d.s2), len(d.s3), len(d.s4)) == (31, 46, 71, 83)
    assert d.min_gap > 1e-3


def test_criterion_03_configuration_counters(search_result):
    """Per-class counters match the frozen literals (all four exactly,
    so classes 2 and 3 have no deviation to document)."""
    assert search_result.processed == FROZEN_COUNTERS


def test_criterion_04_worked_five_point_example():
    """Seed (-1,1,1) with parameters (0,1,1,4) closes to the 5 known
    points; y,z loops sit at the seed; one orbit under the half-turn
    subgroup."""
    w = make_omega(0, 1, 1, 4)
    seed = make_point(-1, 1, 1)
    rec = close_orbit(seed, w)
    assert rec is not None and rec.size == 5
    expected = [
        make_point(-1, 1, 1),
        make_point(0, 1, 1),
        make_point(0, 1, 0),
        make_point(0, 0, 0),
        make_point(0, 0, 1),
    ]
    for q in expected:
        assert any(points_equal(q, p) for p in rec.points)
    i0 = next(i for i, p in enumerate(rec.points) if points_equal(p, seed))
    loop_colors = tuple(
        "xyz"[c] for c in range(3) if rec.neighbors[c][i0] == i0
    )
    assert loop_colors == ("y", "z")
    assert lambda_orbit_count(build_graph(rec)) == 1


def test_criterion_05_vanishing_sum_catalogues():
    """Divisor-60 lists hold 7/5/3/6 tuples; the four shifted-triple
    quadruples appear up to denominator 42."""
    counts = {n: len(enumerate_vanishing(n, DIVISORS_60)) for n in (3, 4, 5, 6)}
    assert counts == {6: 7, 5: 5, 4: 3, 3: 6}
    quads = enumerate_vanishing(4, 42)
    iv = [t.phis for t in quads if t.family == "IV"]
    assert len(iv) == 4
    listed = (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7), Fraction(1, 6))
    assert canonicalize(listed) in iv


def test_criterion_06a_involutions_and_residual_invariance():
    """x, y, z are exact involutions and preserve the surface residual
    (1000 random point/parameter draws)."""
    rng = random.Random(1001)
    for _ in range(1000):
        p, w = _rand_point_omega(rng)
        res = fricke_residual(p, w)
        for g in "xyz":
            q = apply(g, p, w)
            assert points_equal(apply(g, q, w), p)
            assert (fricke_residual(q, w) - res).is_zero()


def test_criterion_06b_matrix_action_induces_trace_formulas():
    """The conjugation action on matrix triples reproduces the
    one-coordinate update formulas and fixes the p traces (1000 cases)."""
    rng = random.Random(1002)
    for _ in range(1000):
        t = random_triple(rng)
        s = invariants(t)
        wx, wy, wz, _ = omegas_of(s)
        sx, sy, sz = (invariants(act(g, t)) for g in "xyz")
        assert sx.X == wx - s.X - s.Y * s.Z and (sx.Y, sx.Z) == (s.Y, s.Z)
        assert sy.Y == wy - s.Y - s.Z * s.X and (sy.X, sy.Z) == (s.X, s.Z)
        assert sz.Z == wz - s.Z - s.X * s.Y and (sz.X, sz.Y) == (s.X, s.Y)
        for im in (sx, sy, sz):
            assert im[:4] == s[:4]
            assert omegas_of(im) == (wx, wy, wz, omegas_of(s)[3])


def test_criterion_06c_suborbit_closed_forms_and_parity(search_result):
    """Two-color suborbit closed forms and parity identities hold on
    every suborbit of every exceptional orbit."""
    n_suborbits = 0
    for rec in search_result.records:
        ws = (rec.omega.wx, rec.omega.wy, rec.omega.wz)
        index = PointSet()
        for p in rec.points:
            index.add(p)
        for pair in ("yz", "xz", "xy"):
            seen = set()
            i1, i2, _ = _PAIRS[pair]
            for i, p in enumerate(rec.points):
                if i in seen:
                    continue
                sub = suborbit(p, rec.omega, pair)
                for q in sub.points:
                    j = index.find(q)
                    assert j is not None
                    seen.add(j)
                n_suborbits += 1
                assert suborbit_parity_checks(sub, rec.omega)
                # closed form against the literal double-step iteration
                start = sub.points[0]
                vals = (start[i1], start[i2])
                w1, w2 = ws[i1], ws[i2]
                checks = sorted({0, 1, 2, min(sub.length, 5), sub.length})
                k_prev, cur = 0, vals
                for k in checks:
                    for _ in range(k - k_prev):
                        cur = double_step(cur, sub.common, w1, w2)
                    k_prev = k
                    ak, bk = closed_form(sub.common, w1, w2, vals[0], vals[1], k)
                    assert (ak - cur[0]).is_zero() and (bk - cur[1]).is_zero()
            assert len(seen) == rec.size
    assert n_suborbits >= 45 * 3


def test_criterion_06d_reconstruction_round_trip():
    """Trace seven-tuples reconstruct to matrix triples with the same
    invariants (1000 non-reducible cases)."""
    rng = random.Random(1003)
    done = 0
    while done < 1000:
        s = invariants(random_triple(rng))
        try:
            t = reconstruct(s)
        except ReducibleLocus:
            continue
        assert invariants(t) == s
        done += 1


def test_criterion_07_theta_recovery_and_cubic_roots():
    """Published parameter tuples are recovered for rows 2, 8, 31, 45;
    the cubic root expressions check out exactly on 100 random tuples."""
    for idx in (2, 8, 31, 45):
        row = golden_row(idx)
        w = Omega(*row.omega, row.omega4)
        cands = theta_candidates_for_omega(w, 30)
        pub = make_theta(*row.theta)
        assert pub in cands or apply_bt("P_xy", pub) in cands
    rng = random.Random(1004)
    for _ in range(100):
        t = make_theta(*(Fraction(rng.randint(-24, 24), rng.randint(1, 12))
                         for _ in range(4)))
        w = omega_from_theta(t)
        a, _, _ = xi_cubic(w)
        roots = xi_roots(t)
        assert all(xi_root_check(w, xi) for xi in roots)
        assert (roots[0] + roots[1] + roots[2] - a).is_zero()


def test_criterion_08_no_orbit_splits_under_half_turns(search_result):
    """Every exceptional orbit and each parametric-family instance forms
    a single orbit under the half-turn subgroup."""
    for rec in search_result.records:
        assert lambda_orbit_count(build_graph(rec)) == 1
    x, y, z = cos_value(1, 5), cos_value(2, 5), cos_value(1, 3)
    from fricke_orbits.fricke_action import omega4_of

    wx, wy, wz = x * 2 + y * z, y * 2 + x * z, z * 2 + x * y
    family_instances = [
        close_orbit((x, y, z), Omega(wx, wy, wz, omega4_of((x, y, z), wx, wy, wz))),
        close_orbit(
            (from_rational(1), from_rational(0), from_rational(0)),
            Omega(from_rational(1) + cos_value(1, 5), from_rational(0),
                  from_rational(0), from_rational(4) + cos_value(1, 5)),
        ),
        close_orbit(make_point(1, 0, 0), make_omega(2, cos_value(1, 5), cos_value(1, 5), 5)),
        close_orbit(make_point(1, 1, 1), make_omega(1, 1, 1, 3)),
    ]
    assert [rec.size for rec in family_instances] == [1, 2, 3, 4]
    for rec in family_instances:
        assert lambda_orbit_count(build_graph(rec)) == 1


def test_criterion_09_vanishing_parameter_handling():
    """The search refuses all-zero parameter seeds; the explicit closure
    contains the two stated points with zero cubic residuals (honest
    closure has 4 points, recorded deviation)."""
    zero = make_omega(0, 0, 0, 0)
    assert close_orbit(make_point(1, 1, 1), zero) is None
    rec = cayley_orbit(Fraction(1, 3), Fraction(1, 3))
    assert rec.size == 4
    for stated in (make_point(1, 1, 1), make_point(-2, 1, 1)):
        assert any(points_equal(stated, p) for p in rec.points)
    for p in rec.points:
        assert fricke_residual(p, zero).is_zero()


def test_criterion_10_byte_identical_across_thread_counts(search_result):
    """A second run with a different thread count renders the same
    bytes in every output format."""
    other = full_search(threads=2)
    for fmt in ("text", "json", "csv"):
        assert render_search(other, fmt) == render_search(search_result, fmt)
