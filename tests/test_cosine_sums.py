import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable

import pytest

from fricke_orbits.cosine_sums import (
    BudgetExceeded,
    PhiTuple,
    build_values,
    canonicalize,
    cos2pi_sum,
    enumerate_vanishing,
    family_tag,
    is_irreducible,
)

F = Fraction

DIVISORS_OF_60 = tuple(d for d in range(1, 61) if 60 % d == 0)


def is_vanishing(t: Iterable) -> bool:
    return cos2pi_sum(t).is_zero()


def classify(t: Iterable) -> PhiTuple:
    c = canonicalize(t)
    if not is_vanishing(c):
        return PhiTuple(c, False, "other")
    irr = is_irreducible(c)
    return PhiTuple(c, irr, family_tag(c) if irr else "other")


TRIPLES_60 = [
    (F(0), F(1, 3), F(1, 3)),
    (F(1, 60), F(19, 60), F(7, 20)),
    (F(1, 30), F(3, 10), F(11, 30)),
    (F(1, 20), F(17, 60), F(23, 60)),
    (F(1, 15), F(4, 15), F(2, 5)),
    (F(1, 10), F(3, 10), F(1, 3)),
]
QUADS_60 = [
    (F(0), F(1, 5), F(1, 3), F(2, 5)),
    (F(1, 30), F(1, 6), F(11, 30), F(2, 5)),
    (F(1, 15), F(4, 15), F(3, 10), F(1, 3)),
]
FIVES_60 = [
    (F(0), F(1, 5), F(1, 5), F(2, 5), F(2, 5)),
    (F(1, 60), F(11, 60), F(13, 60), F(23, 60), F(5, 12)),
    (F(1, 30), F(1, 6), F(7, 30), F(11, 30), F(13, 30)),
    (F(0), F(1, 30), F(1, 3), F(11, 30), F(2, 5)),
    (F(0), F(1, 5), F(7, 30), F(1, 3), F(13, 30)),
]
SIXES_60 = [
    (F(0), F(1, 30), F(1, 5), F(11, 30), F(2, 5), F(2, 5)),
    (F(0), F(1, 30), F(7, 30), F(1, 3), F(11, 30), F(13, 30)),
    (F(0), F(1, 5), F(1, 5), F(7, 30), F(2, 5), F(13, 30)),
    (F(1, 60), F(1, 60), F(13, 60), F(7, 20), F(23, 60), F(5, 12)),
    (F(1, 60), F(1, 20), F(11, 60), F(23, 60), F(23, 60), F(5, 12)),
    (F(1, 60), F(11, 60), F(13, 60), F(13, 60), F(5, 12), F(9, 20)),
    (F(1, 12), F(7, 60), F(17, 60), F(19, 60), F(19, 60), F(7, 20)),
]
QUADS_ALL = QUADS_60 + [(F(1, 7), F(2, 7), F(3, 7), F(1, 6))]


def test_is_vanishing():
    assert is_vanishing((F(0), F(1, 5), F(1, 3), F(2, 5)))
    assert is_vanishing((F(1, 10), F(3, 10), F(1, 3)))
    assert not is_vanishing((F(1, 7), F(1, 7), F(1, 7)))
    assert is_vanishing((F(1, 8), F(3, 8)))
    assert is_vanishing((F(0), F(1, 3), F(1, 3)))
    assert is_vanishing((F(1, 4),))
    assert not is_vanishing((F(0), F(1, 3)))


def test_is_irreducible():
    assert is_irreducible((F(0), F(1, 5), F(1, 3), F(2, 5)))
    assert is_irreducible((F(0), F(1, 3), F(1, 3)))
    # two independently vanishing pairs
    assert not is_irreducible((F(1, 8), F(3, 8), F(1, 12), F(5, 12)))
    # contains a vanishing singleton
    assert not is_irreducible((F(1, 4), F(1, 8), F(3, 8)))
    for t in TRIPLES_60 + QUADS_ALL + FIVES_60 + SIXES_60:
        assert is_vanishing(t) and is_irreducible(t), t


def test_canonicalize():
    got = canonicalize((F(4, 5), F(3, 5), F(3, 5)))
    # folding gives (1/5, 2/5, 2/5); its simultaneous flip sorts smaller
    assert got == (F(1, 10), F(1, 10), F(3, 10))
    assert canonicalize(got) == got
    assert canonicalize((F(1, 10), F(3, 10), F(1, 3))) == \
        canonicalize((F(2, 5), F(1, 5), F(1, 6)))
    # the 7-based quadruple canonicalizes to its flipped image
    assert canonicalize((F(1, 7), F(2, 7), F(3, 7), F(1, 6))) == \
        (F(1, 14), F(3, 14), F(1, 3), F(5, 14))


def test_canonicalize_random_equivalences():
    rng = random.Random(2026)
    for _ in range(300):
        n = rng.randint(2, 6)
        t = [F(rng.randint(0, 59), 60) for _ in range(n)]
        c = canonicalize(t)
        assert canonicalize(c) == c
        u = list(t)
        rng.shuffle(u)
        u = [q if rng.random() < 0.5 else 1 - q for q in u]
        if rng.random() < 0.5:
            u = [F(1, 2) - q for q in u]
        assert canonicalize(u) == c


def test_family_tags():
    assert family_tag((F(1, 8), F(3, 8))) == "II_phi"
    assert family_tag((F(1, 10), F(3, 10), F(1, 3))) == "III_1"
    assert family_tag((F(0), F(1, 3), F(1, 3))) == "III_phi"
    assert family_tag((F(1, 60), F(19, 60), F(7, 20))) == "III_phi"
    for q in QUADS_ALL:
        assert family_tag(q) == "IV", q
    assert family_tag((F(0), F(1, 30), F(1, 3), F(11, 30), F(2, 5))) == "V_1"
    assert family_tag((F(2, 7) + F(1, 6), F(2, 7) - F(1, 6), F(4, 7),
                       F(6, 7), F(1, 6))) == "V_2"
    assert family_tag((F(1, 7), F(2, 7), F(3, 7), F(1, 10), F(3, 10))) == "V_3"
    assert family_tag((F(0), F(1, 5), F(1, 5), F(2, 5), F(2, 5))) == "V_phi"
    assert family_tag((F(1, 11), F(2, 11), F(3, 11), F(4, 11), F(5, 11),
                       F(1, 6))) == "VI_1"
    assert family_tag((F(1, 7), F(2, 7), F(3, 7), F(1, 10), F(2, 15),
                       F(7, 15))) == "VI_5"
    phi = F(1, 30)
    vi_phi = [phi + o for o in (F(1, 6), F(-1, 6), F(1, 5), F(2, 5),
                                F(3, 5), F(4, 5))]
    assert family_tag(vi_phi) == "VI_phi"
    # a vanishing but reducible tuple is not any family's member
    pt = classify((F(1, 8), F(3, 8), F(1, 12), F(5, 12)))
    assert not pt.irreducible and pt.family == "other"


def test_divisor60_triples():
    got = enumerate_vanishing(3, DIVISORS_OF_60)
    assert len(got) == 6
    assert {pt.phis for pt in got} == {canonicalize(t) for t in TRIPLES_60}
    assert all(pt.family in ("III_phi", "III_1") for pt in got)


def test_divisor60_quadruples():
    got = enumerate_vanishing(4, DIVISORS_OF_60)
    assert {pt.phis for pt in got} == {canonicalize(t) for t in QUADS_60}
    assert all(pt.family == "IV" for pt in got)


def test_divisor60_fives():
    got = enumerate_vanishing(5, DIVISORS_OF_60)
    assert len(got) == 5
    assert {pt.phis for pt in got} == {canonicalize(t) for t in FIVES_60}
    assert {pt.family for pt in got} == {"V_phi", "V_1"}


def test_divisor60_sixes():
    got = enumerate_vanishing(6, DIVISORS_OF_60)
    assert len(got) == 7
    assert {pt.phis for pt in got} == {canonicalize(t) for t in SIXES_60}
    assert all(pt.family == "VI_phi" for pt in got)


def test_quadruples_den42():
    got = enumerate_vanishing(4, 42)
    assert len(got) == 4
    assert {pt.phis for pt in got} == {canonicalize(t) for t in QUADS_ALL}
    assert all(pt.family == "IV" for pt in got)


def test_float_oracle_completeness_n3():
    vals = build_values(DIVISORS_OF_60)
    exact = {pt.phis for pt in enumerate_vanishing(3, DIVISORS_OF_60)}
    for t in combinations_with_replacement(vals, 3):
        s = sum(math.cos(2 * math.pi * float(q)) for q in t)
        if abs(s) < 1e-10 and is_vanishing(t) and is_irreducible(t):
            assert canonicalize(t) in exact, t


def test_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_vanishing(6, DIVISORS_OF_60, budget=10)

