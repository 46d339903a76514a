import random
from fractions import Fraction

import pytest

from fricke_orbits.fricke_action import fricke_residual, omega_of_traces
from fricke_orbits.sl2_monodromy import (
    Mat2,
    NotRepresentable,
    QuadExt,
    ReducibleLocus,
    SevenTuple,
    Triple,
    act,
    derived_trace_tbac,
    invariants,
    omegas_of,
    random_triple,
    reconstruct,
    seven_residual,
)


def identity_triple():
    e = Mat2.identity()
    return Triple(e, e, e)


def test_identity_triple_invariants():
    assert invariants(identity_triple()) == SevenTuple(*[Fraction(2)] * 7)


def test_diagonal_triple_invariants():
    m = Mat2(Fraction(2), Fraction(0), Fraction(0), Fraction(1, 2))
    s = invariants(Triple(m, m, m))
    assert s.px == s.py == s.pz == Fraction(5, 2)
    assert s.X == s.Y == s.Z == Fraction(17, 4)
    assert s.pinf == Fraction(65, 8)


def test_act_fixes_identity_triple():
    t = identity_triple()
    for g in "xyzstr":
        assert act(g, t) == t


def test_generators_are_involutions_on_matrices():
    rng = random.Random(5)
    for _ in range(50):
        t = random_triple(rng)
        for g in "xyz":
            assert act(g, act(g, t)) == t


def test_induced_coordinate_action():
    # the matrix action must reproduce the one-coordinate update formulas
    rng = random.Random(6)
    for _ in range(300):
        t = random_triple(rng)
        s = invariants(t)
        wx, wy, wz, _ = omegas_of(s)
        sx, sy, sz = (invariants(act(g, t)) for g in "xyz")
        assert sx.X == wx - s.X - s.Y * s.Z and (sx.Y, sx.Z) == (s.Y, s.Z)
        assert sy.Y == wy - s.Y - s.Z * s.X and (sy.X, sy.Z) == (s.X, s.Z)
        assert sz.Z == wz - s.Z - s.X * s.Y and (sz.X, sz.Y) == (s.X, s.Y)
        # p traces are untouched by the involutions
        for im in (sx, sy, sz):
            assert im[:4] == s[:4]


def test_residual_vanishes_on_triples():
    rng = random.Random(7)
    for _ in range(200):
        s = invariants(random_triple(rng))
        assert seven_residual(s) == 0


def test_fricke_residual_vanishes_on_matrix_invariants():
    # the search's own surface relation and parameter map, checked against
    # matrix traces over Q, over Q(sqrt 2) through a factor of trace
    # 2*sqrt(2), and on triples rebuilt over a quadratic extension
    rng = random.Random(12)
    r2 = QuadExt(Fraction(0), Fraction(1), Fraction(2))
    m = Mat2(r2 + 1, Fraction(0), Fraction(0), r2 - 1)
    irrational = rebuilt = 0
    for _ in range(100):
        t = random_triple(rng)
        s = invariants(t)
        q = invariants(Triple(m @ t.mx, t.my, t.mz))
        irrational += any(isinstance(v, QuadExt) and v.b != 0 for v in q)
        try:
            u = reconstruct(s)
        except ReducibleLocus:
            u = t
        rebuilt += isinstance(u.mx.a, QuadExt)
        for v in (s, q, invariants(u)):
            w = omega_of_traces(v.px, v.py, v.pz, v.pinf)
            assert fricke_residual((v.X, v.Y, v.Z), w) == 0
    assert irrational > 90 and rebuilt > 50


def test_presentation_relations_on_invariants():
    rng = random.Random(8)
    for _ in range(60):
        t = random_triple(rng)
        s = invariants(t)
        assert invariants(act("r", act("r", t))) == s
        assert invariants(act("s", act("s", act("s", t)))) == s
        assert invariants(act("t", act("t", t))) == s
        tr2 = act("t", act("r", act("t", act("r", t))))
        assert invariants(tr2) == s
        sr2 = act("s", act("r", act("s", act("r", t))))
        assert invariants(sr2) == s


def test_derived_trace():
    assert derived_trace_tbac(invariants(identity_triple())) == 2
    rng = random.Random(9)
    for _ in range(100):
        t = random_triple(rng)
        assert derived_trace_tbac(invariants(t)) == ((t.mx @ t.my) @ t.mz).trace()
    # commuting diagonal triple: both orderings coincide with pinf
    d = Mat2(Fraction(3), Fraction(0), Fraction(0), Fraction(1, 3))
    s = invariants(Triple(d, d, d))
    assert derived_trace_tbac(s) == s.pinf


def test_reconstruct_roundtrip():
    rng = random.Random(10)
    done = 0
    while done < 100:
        t = random_triple(rng)
        s = invariants(t)
        try:
            t2 = reconstruct(s)
        except ReducibleLocus:
            continue
        assert invariants(t2) == s
        done += 1


def test_reconstruct_is_deterministic():
    rng = random.Random(11)
    while True:
        s = invariants(random_triple(rng))
        try:
            a = reconstruct(s)
        except ReducibleLocus:
            continue
        assert reconstruct(s) == a
        break


def test_reconstruct_reducible_identity_like():
    with pytest.raises(ReducibleLocus):
        reconstruct(SevenTuple(*[Fraction(2)] * 7))


def test_reconstruct_quaternion_like_rejected():
    s = SevenTuple(*[Fraction(0)] * 7)
    assert seven_residual(s) == -4
    with pytest.raises(NotRepresentable):
        reconstruct(s)
