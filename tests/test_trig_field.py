import functools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fricke_orbits import fricke_action, trig_field
from fricke_orbits.orbit_search import decode_config, get_dictionaries, get_search_tables
from fricke_orbits.trig_field import (
    CosSum,
    compare,
    cos_value,
    cyclotomic_poly,
    float_error,
    from_rational,
    match_dictionary,
    separated,
    to_cyclotomic,
)


# ---------------------------------------------------------------------------
# independent zero-test oracle: the trace form.
# Tr(zeta_n^k) = mu(d) * phi(n) / phi(d) with d = n / gcd(n, k), and for a real
# element a, Tr(a^2) = sum of squares of the real conjugates, so it vanishes
# iff a does.  This shares no code with the cyclotomic reduction under test.
# ---------------------------------------------------------------------------


def _totient(n):
    out, p, m = 1, 2, n
    while p * p <= m:
        if m % p == 0:
            out *= p - 1
            m //= p
            while m % p == 0:
                out *= p
                m //= p
        p += 1
    if m > 1:
        out *= m - 1
    return out


def _mobius(n):
    out, p, m = 1, 2, n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def _trace_zeta(n, k):
    d = n // math.gcd(k % n, n)
    return Fraction(_mobius(d) * _totient(n), _totient(d))


def is_zero_trace_oracle(a):
    if not a.terms:
        return True
    level = 1
    for (_, den), _ in a.terms:
        level = level * den // math.gcd(level, den)
    n = 2 * level
    vec = {}
    for (num, den), c in a.terms:
        k = num * (level // den)
        vec[k % n] = vec.get(k % n, Fraction(0)) + c
        vec[(n - k) % n] = vec.get((n - k) % n, Fraction(0)) + c
    total = Fraction(0)
    for i, ci in vec.items():
        for j, cj in vec.items():
            total += ci * cj * _trace_zeta(n, i + j)
    return total == 0


# ---------------------------------------------------------------------------
# construction and folding
# ---------------------------------------------------------------------------


def test_angle_folding():
    fold = trig_field._fold_int
    assert fold(4, 3) == fold(2, 3)
    assert fold(-1, 3) == fold(1, 3)
    assert fold(7, 3) == fold(1, 3)
    assert fold(0, 5) == (0, 1)
    assert (cos_value(4, 3) - cos_value(2, 3)).is_zero()


def test_constants():
    assert cos_value(0, 1) == from_rational(2)
    assert cos_value(1, 1) == from_rational(-2)
    assert cos_value(1, 3) == from_rational(1)  # 2cos(pi/3) = 1
    assert cos_value(1, 2).is_zero()  # 2cos(pi/2) = 0
    assert cos_value(1, 2).terms == ()  # the zero term is not stored


def test_float_values():
    assert cos_value(1, 3).float_value() == pytest.approx(1.0, abs=1e-12)
    assert cos_value(1, 5).float_value() == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    assert from_rational(2).float_value() == 2.0


# ---------------------------------------------------------------------------
# is_zero against classical identities and the independent oracle
# ---------------------------------------------------------------------------


def test_golden_ratio_identity():
    a = cos_value(1, 5) - cos_value(2, 5) - 1
    assert a.is_zero()
    assert is_zero_trace_oracle(a)
    assert abs(a.mp_value(50)) < mpmath.mpf(10) ** -45


def test_heptagon_identity():
    a = cos_value(1, 7) + cos_value(3, 7) + cos_value(5, 7) - 1
    assert a.is_zero()
    assert is_zero_trace_oracle(a)


def test_product_identity():
    # 2cos(pi/5) * 2cos(2pi/5) = 2cos(3pi/5) + 2cos(pi/5) = 1
    a = cos_value(1, 5) * cos_value(2, 5)
    assert a == from_rational(1)


def test_nonzero_values():
    for a in [cos_value(1, 7), cos_value(1, 5) - cos_value(2, 5),
              cos_value(1, 9) + cos_value(2, 9)]:
        assert not a.is_zero()
        assert not is_zero_trace_oracle(a)


def test_is_zero_matches_trace_oracle_randomized():
    rng = random.Random(20260814)
    dens = [1, 2, 3, 4, 5, 6, 8, 10, 12]
    zero_templates = [
        cos_value(1, 5) - cos_value(2, 5) - 1,
        cos_value(1, 3) - 1,
        cos_value(2, 3) + 1,
        cos_value(1, 6) * cos_value(1, 6) - 3,
    ]
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            den = rng.choice(dens)
            num = rng.randint(0, den)
            key = (num, den)
            terms[key] = terms.get(key, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        a = CosSum(terms)
        if rng.random() < 0.3:
            a = a - a  # force an exact zero with a messy representation
        elif rng.random() < 0.3:
            q1 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            a = zero_templates[rng.randrange(len(zero_templates))] * q1
        assert a.is_zero() == is_zero_trace_oracle(a)


# ---------------------------------------------------------------------------
# ring laws (randomized, exact)
# ---------------------------------------------------------------------------


def _random_cossum(rng):
    dens = [1, 2, 3, 4, 5, 6, 10, 12]
    terms = {}
    for _ in range(rng.randint(0, 3)):
        den = rng.choice(dens)
        terms[(rng.randint(0, den), den)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return CosSum(terms)


def test_ring_laws():
    rng = random.Random(7)
    for _ in range(120):
        a, b, c = (_random_cossum(rng) for _ in range(3))
        assert (a + b - (b + a)).is_zero()
        assert (a * b - b * a).is_zero()
        assert ((a + b) + c - (a + (b + c))).is_zero()
        assert ((a * b) * c - (a * (b * c))).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        assert (a + (-a)).is_zero()
        assert (a * 1 - a).is_zero()
        assert (a ** 3 - a * a * a).is_zero()


def test_division_roundtrip():
    rng = random.Random(11)
    count = 0
    while count < 40:
        a = _random_cossum(rng)
        if a.is_zero():
            continue
        count += 1
        assert (a * a.inverse() - 1).is_zero()
        b = _random_cossum(rng) + 1
        if b.is_zero():
            continue
        assert ((a / b) * b - a).is_zero()
    with pytest.raises(ZeroDivisionError):
        CosSum().inverse()
    assert (cos_value(1, 5) / 2 * 2 - cos_value(1, 5)).is_zero()
    # the Galois norm at high levels, on every nonzero s4 entry (the class-2
    # divisor of decode_config), and on 1 written without a rational term;
    # the inverse is in the normal form of reduced()
    fixed = [
        cos_value(2, 105) + cos_value(1, 7) * 2 + cos_value(1, 3),
        cos_value(1, 210) + cos_value(1, 7),
        cos_value(1, 420) + cos_value(1, 5) * 2,
        cos_value(1, 5) - cos_value(2, 5),
    ] + [e.value for e in get_dictionaries().s4 if not e.value.is_zero()]
    assert len(fixed) == 4 + 82
    for a in fixed:
        inv = a.inverse()
        assert a * inv == 1
        assert inv.terms == inv.reduced().terms


# ---------------------------------------------------------------------------
# term arithmetic against the Fraction-angle reference
# ---------------------------------------------------------------------------
# The reference folds every angle as a Fraction and re-normalizes every
# result from raw terms.  CosSum must give the same terms, tuple for tuple,
# and the same float, bit for bit.


def _ref_fold(fr):
    fr = fr % 2
    return 2 - fr if fr > 1 else fr


def _ref_normalize(raw):
    acc = {}
    for (num, den), coeff in raw.items():
        c = Fraction(coeff)
        if c == 0:
            continue
        fr = _ref_fold(Fraction(num, den))
        pair = (fr.numerator, fr.denominator)
        if pair == (1, 2):
            continue
        acc[pair] = acc.get(pair, Fraction(0)) + c
    return tuple(sorted((k, v) for k, v in acc.items() if v != 0))


def _ref_float(terms):
    f = 0.0
    for (num, den), c in terms:
        f += float(c) * 2.0 * math.cos(math.pi * num / den)
    return f


def _ref_add(ta, tb):
    acc = dict(ta)
    for k, c in tb:
        acc[k] = acc.get(k, Fraction(0)) + c
    return _ref_normalize(acc)


def _ref_scale(ta, q):
    return _ref_normalize({k: v * q for k, v in ta})


def _ref_mul(ta, tb):
    acc = {}
    for (n1, d1), c1 in ta:
        a1 = Fraction(n1, d1)
        for (n2, d2), c2 in tb:
            a2 = Fraction(n2, d2)
            for ang in (a1 + a2, a1 - a2):
                fr = _ref_fold(ang)
                key = (fr.numerator, fr.denominator)
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return _ref_normalize(acc)


def _ref_pow(ta, n):
    out, base = _ref_normalize({(0, 1): Fraction(1, 2)}), ta
    while n:
        if n & 1:
            out = _ref_mul(out, base)
        base = _ref_mul(base, base) if n > 1 else base
        n >>= 1
    return out


def _ref_symmetrize(coeffs, level):
    acc = {}
    for k, c in enumerate(coeffs):
        if c:
            fr = _ref_fold(Fraction(k, level))
            key = (fr.numerator, fr.denominator)
            acc[key] = acc.get(key, Fraction(0)) + c / 2
    return _ref_normalize(acc)


def _same(value, terms):
    assert value.terms == terms
    assert value.float_value().hex() == _ref_float(terms).hex()


# the divisors of 3080 = 2^3 * 5 * 7 * 11: every sum and product stays at a
# level that divides 3080
_REF_DENS = [d for d in range(1, 3081) if 3080 % d == 0]


def _raw_terms(rng):
    raw = {}
    for _ in range(rng.randint(1, 4)):
        den = rng.choice(_REF_DENS)
        num = rng.randint(-2 * den, 3 * den)  # unfolded, not reduced
        coeff = rng.choice([rng.randint(-5, 5),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
        raw[(num, den)] = coeff
        if rng.random() < 0.3:  # the same angle again, folded from the other side
            raw[(2 * den - num, den)] = rng.randint(-3, 3)
    return raw


def test_term_arithmetic_matches_fraction_reference():
    rng = random.Random(3080)
    for _ in range(500):
        fr = Fraction(rng.randint(-9000, 9000), rng.choice(_REF_DENS))
        assert trig_field._fold(fr) == _ref_fold(fr)
    pool = []
    for _ in range(60):
        raw = _raw_terms(rng)
        a = CosSum(raw)
        _same(a, _ref_normalize(raw))
        pool.append(a)
    # products folding to the angles 0, 1 and 1/2, and sums cancelling to 0
    pool += [cos_value(1, 4), cos_value(1, 3), cos_value(2, 3), cos_value(1, 1),
             cos_value(3, 4) * Fraction(-7, 3), cos_value(1, 5) - cos_value(2, 5)]
    assert (cos_value(1, 4) * cos_value(1, 4)).terms == (((0, 1), 1),)
    assert (cos_value(1, 3) * cos_value(2, 3)).terms == (((1, 1), 1), ((1, 3), 1))
    # CosSum converts a coefficient as numerator / denominator, the double
    # float(Fraction) gives, bit for bit, also past the range of a double
    for c in [c for a in pool for _, c in a.terms] + [
            Fraction(10 ** 30 + 1, 7), Fraction(-2 ** 80, 3 ** 40), Fraction(1, 3 ** 700),
            Fraction(7 ** 400, 3 ** 400 + 1)]:
        assert (c.numerator / c.denominator).hex() == float(c).hex()
    for _ in range(400):
        a, b = rng.choice(pool), rng.choice(pool)
        q = rng.choice([rng.randint(-4, 4) or 3,
                        Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))])
        _same(a + b, _ref_add(a.terms, b.terms))
        _same(a - b, _ref_add(a.terms, _ref_scale(b.terms, -1)))
        _same(-a, _ref_scale(a.terms, -1))
        _same(a * b, _ref_mul(a.terms, b.terms))
        _same(a * q, _ref_scale(a.terms, Fraction(q)))
        _same(q * a, _ref_scale(a.terms, Fraction(q)))
        _same(a / q, _ref_normalize({k: v / q for k, v in a.terms}))
        _same(a + q, _ref_add(a.terms, ((((0, 1), Fraction(q) / 2),))))
        _same(a - a, ())
        _same(a * b - b * a, ())
    for a in pool[:20]:
        for n in range(4):
            _same(a ** n, _ref_pow(a.terms, n))
        el = to_cyclotomic(a)
        _same(a.reduced(), _ref_symmetrize(el.coeffs, el.level))
    random_pool = pool[:60]
    assert max(math.lcm(*(d for (_, d), _ in (a * b).terms))
               for a in random_pool for b in random_pool) == 3080


# ---------------------------------------------------------------------------
# backend details
# ---------------------------------------------------------------------------


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_poly(105)[7] == -2 and len(cyclotomic_poly(105)) == 49


# ---------------------------------------------------------------------------
# the normal form against the direct method: Phi_n by dividing x^n - 1 by
# every lower cyclotomic factor, and a dense long division of the length-2L
# exponent vector by Phi_{2L} in Python ints.
# ---------------------------------------------------------------------------


def _ref_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    if len(num) - 1 < dn:
        return [], num
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@functools.lru_cache(maxsize=None)
def _ref_cyclotomic_poly(n):
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _ref_divmod(poly, list(_ref_cyclotomic_poly(d)))
            assert not rem
    return tuple(poly)


def _ref_to_cyclotomic(a):
    if not a.terms:
        return 1, (Fraction(0),)
    level = 1
    for (_, den), _ in a.terms:
        level = level * den // math.gcd(level, den)
    n = 2 * level
    vec = [Fraction(0)] * n
    for (num, den), c in a.terms:
        k = num * (level // den)
        vec[k % n] += c
        vec[(n - k) % n] += c
    common = 1
    for c in vec:
        common = common * c.denominator // math.gcd(common, c.denominator)
    phi = list(_ref_cyclotomic_poly(n))
    _, rem = _ref_divmod([int(c * common) for c in vec], phi)
    rem += [0] * (len(phi) - 1 - len(rem))
    return level, tuple(Fraction(r, common) for r in rem)


def _mobius_cyclotomic_poly(n):
    """Phi_n = prod_{d | n} (1 - x^d)^mu(n/d) for n > 1, as a power series
    truncated past its degree: independent of both builders."""
    deg = _totient(n)
    out = [1] + [0] * deg
    divs = [d for d in range(1, n + 1) if n % d == 0]
    for d in divs:  # multiply by (1 - x^d) first, so every division is exact
        if _mobius(n // d) == 1:
            for k in range(deg, d - 1, -1):
                out[k] -= out[k - d]
    for d in divs:
        if _mobius(n // d) == -1:
            for k in range(d, deg + 1):
                out[k] += out[k - d]
    return tuple(out)


def test_cyclotomic_poly_matches_reference():
    for n in range(1, 400):
        assert cyclotomic_poly(n) == _ref_cyclotomic_poly(n), n
    assert cyclotomic_poly(6160) == _ref_cyclotomic_poly(6160)
    # the reference build of Phi_30030 divides by 63 factors of degree up to
    # 30030; the Moebius product gives every coefficient in a fraction of it
    phi = cyclotomic_poly(30030)
    assert len(phi) - 1 == _totient(30030) == 5760
    assert phi == _mobius_cyclotomic_poly(30030)
    assert _mobius_cyclotomic_poly(105) == _ref_cyclotomic_poly(105)


def _level_set_values(dens):
    rng = random.Random(sum(dens))
    # 2**50 starts in int64 and usually outgrows its bound mid-division;
    # 10**30 starts on Python ints
    for big in (3, 2 ** 50, 10 ** 30):
        for _ in range(3):
            terms = {}
            for _ in range(rng.randint(1, 7)):
                den = rng.choice(dens)
                terms[(rng.randrange(0, 2 * den), den)] = Fraction(
                    rng.randint(-big, big), rng.choice((1, 2, 3, 7)))
            yield CosSum(terms)


def _every_level_values():
    """Values at each level L in 1..120: a term 2cos(pi/L) fixes the level,
    the others lie at divisors of L.  Level 2 cannot occur, since its only
    new term 2cos(pi/2) = 0 is never stored."""
    assert CosSum({(1, 2): 1}).terms == ()
    rng = random.Random(120)
    for level in range(1, 121):
        if level == 2:
            continue
        dens = [d for d in range(1, level + 1) if level % d == 0]
        for big in (3, 2 ** 50, 10 ** 30):
            terms = {(1, level): Fraction(rng.randint(1, big), rng.choice((1, 2, 3)))}
            for _ in range(rng.randint(0, 5)):
                den = rng.choice(dens)
                terms[(rng.randrange(0, 2 * den), den)] = Fraction(
                    rng.randint(-big, big), rng.choice((1, 2, 3, 7)))
            a = CosSum(terms)
            assert math.lcm(*(d for (_, d), _ in a.terms)) == level
            yield a


def _dense_3080_value():
    """At least 500 terms at level 3080, with small coefficients."""
    rng = random.Random(3080)
    terms = {(k, 3080): Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 5)))
             for k in rng.sample(range(3081), 540)}
    a = CosSum(terms)
    assert len(a.terms) >= 500
    return a


# Level 3080, below 2**62 in every entry of the class table: the divisions
# by Phi_2 and Phi_10 stay in int64, the one by Phi_70 passes the bound and
# goes on in Python ints, and Phi_770 divides those
_OBJECT_INNER = CosSum({(1, 8): 2 ** 58, (1, 3080): 1, (3, 7): 2 ** 59,
                        (209, 280): 2 ** 60})


@pytest.mark.parametrize("values", [
    pytest.param(functools.partial(_level_set_values, dens), id="-".join(map(str, dens)))
    for dens in [
        (64,), (81,), (121,),              # prime-power levels
        (385,), (1155,), (2730,),          # squarefree levels
        (8, 9, 5, 7), (12, 35), (2520,), (3080,), (4, 6, 10, 15),  # mixed
    ]
] + [
    pytest.param(_every_level_values, id="every-level-1-120"),
    pytest.param(lambda: [_dense_3080_value()], id="dense-3080"),
    pytest.param(lambda: [_OBJECT_INNER], id="object-inner-3080"),
])
def test_to_cyclotomic_matches_dense_reduction(values):
    for a in values():
        el = to_cyclotomic(a)
        assert (el.level, el.coeffs) == _ref_to_cyclotomic(a), el.level
        assert all(type(c) is Fraction for c in el.coeffs)
        assert el.common > 0 and math.gcd(el.common, *el.numer) == 1
        assert el.is_zero() == all(c == 0 for c in el.coeffs)


def _record_row_divisions(monkeypatch):
    """Record (len(den), columns cleared, input dtype, output dtype) for
    every _divmod_rows call."""
    calls = []
    divide = trig_field._divmod_rows

    def recording(rows, den):
        quot, rem = divide(rows, den)
        calls.append((len(den), quot.shape[1], np.asarray(rows).dtype, rem.dtype))
        return quot, rem

    monkeypatch.setattr(trig_field, "_divmod_rows", recording)
    return calls


def test_object_path_starts_inside_the_reduction(monkeypatch):
    to_cyclotomic(_OBJECT_INNER)  # build the polynomials first
    calls = _record_row_divisions(monkeypatch)
    to_cyclotomic(_OBJECT_INNER)
    assert [c[0] - 1 for c in calls] == [1, 4, 24, 240]  # Phi_2, 10, 70, 770
    assert [str(c[2]) for c in calls] == ["int64", "int64", "int64", "object"]
    assert [str(c[3]) for c in calls] == ["int64", "int64", "object", "object"]


def test_reduction_clears_sum_of_prefix_totients(monkeypatch):
    # level 3080: n = 6160 = 8 * 770, 770 = 2*5*7*11.  One division by
    # Phi_770 clears 770 - phi(770) = 530 columns; one prime at a time
    # clears phi(1) + phi(2) + phi(10) + phi(70) = 1 + 1 + 4 + 24 = 30
    a = _dense_3080_value()
    want = to_cyclotomic(a)
    calls = _record_row_divisions(monkeypatch)
    assert to_cyclotomic(a) == want
    assert [c[0] - 1 for c in calls] == [_totient(m) for m in (2, 10, 70, 770)]
    assert [c[1] for c in calls] == [_totient(m) for m in (1, 2, 10, 70)]
    assert sum(c[1] for c in calls) == 30


def test_reduction_holds_two_class_tables_at_most():
    """tracemalloc peak of one dense level-3080 call: at most two s x r
    int64 tables (s = 8, r = 770) beside the map from exponents to
    numerators that the call builds first."""
    a = _dense_3080_value()
    want = to_cyclotomic(a)  # build the polynomials first
    level, n = 3080, 6160
    common = math.lcm(*(c.denominator for _, c in a.terms))
    tracemalloc.start()
    exps = {}
    for (num, den), c in a.terms:
        k = num * (level // den)
        for e in (k % n, -k % n):
            exps[e] = exps.get(e, 0) + c.numerator * (common // c.denominator)
    entry_map = tracemalloc.get_traced_memory()[0]
    del exps
    tracemalloc.stop()
    tracemalloc.start()
    try:
        el = to_cyclotomic(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert el == want
    assert peak <= 2 * 8 * 770 * 8 + entry_map, (peak, entry_map)


def test_row_division_restarts_exactly_past_int64():
    phi = cyclotomic_poly(30)
    rng = random.Random(4)
    # entries below 2**62 whose running bound crosses it mid-division, and
    # entries past int64 from the start, next to a small case
    for top in (5, 2 ** 60, 2 ** 61 - 1, 10 ** 30):
        rows = [[rng.randint(-top, top) for _ in range(30)] for _ in range(3)]
        quot, rem = trig_field._divmod_rows(rows, phi)
        for row, q, r in zip(rows, quot.tolist(), rem.tolist()):
            ref_q, ref_r = _ref_divmod(row, phi)
            assert q == ref_q
            assert r == ref_r + [0] * (len(phi) - 1 - len(ref_r))


def test_normal_form_of_zero():
    a = cos_value(1, 5) - cos_value(2, 5) - 1
    el = to_cyclotomic(a)
    assert all(c == 0 for c in el.coeffs)
    b = cos_value(1, 7) - cos_value(2, 7)
    el2 = to_cyclotomic(b)
    assert any(c != 0 for c in el2.coeffs)
    assert el2.level == 7 and len(el2.coeffs) == 6  # deg Phi_14


# ---------------------------------------------------------------------------
# normal-form size, and when apply collapses a value into it
# ---------------------------------------------------------------------------


def _values_at_level(rng, level, count, terms=(1, 12)):
    """count seeded values of level exactly `level`, each with a number of
    terms in the inclusive range `terms` and small coefficients."""
    keys = sorted({trig_field._fold_int(k, level) for k in range(level + 1)} - {(1, 2), (1, level)})
    out = []
    for _ in range(count):
        picked = rng.sample(keys, min(len(keys), rng.randint(*terms) - 1)) + [(1, level)]
        a = CosSum({key: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                    for key in picked})
        assert terms[0] <= len(a.terms) <= terms[1] and trig_field.level_of(a) == level
        out.append(a)
    return out


def test_totient_and_level_of():
    assert [trig_field.totient(n) for n in range(1, 3000)] == [_totient(n) for n in range(1, 3000)]
    assert trig_field.level_of(cos_value(1, 8) + cos_value(2, 35) * 3 + 1) == 280
    assert trig_field.level_of(from_rational(5)) == 1


@pytest.mark.parametrize("level", [3, 15, 21, 105, 770, 2520, 3080])
def test_normal_form_has_at_most_phi_2l_terms(level):
    # each of the phi(2L) power-basis entries folds to a key of its own
    rng = random.Random(level)
    bound = trig_field.totient(2 * level)
    dense = (bound, bound + 40) if level <= 105 else (1, 12)
    for a in _values_at_level(rng, level, 4) + _values_at_level(rng, level, 2, dense):
        assert len(a.reduced().terms) <= bound


@pytest.mark.parametrize("level", [195, 770, 2520, 3080])
def test_tame_keeps_few_term_values_at_a_high_level(level):
    # 7 to 12 terms is more than 6 and far below phi(2L) >= 96
    rng = random.Random(level)
    for a in _values_at_level(rng, level, 6, (7, 12)):
        assert fricke_action._tame(a).terms == a.terms


@pytest.mark.parametrize("level", [10, 15, 30, 60])
def test_tame_collapses_past_phi_2l_terms(level):
    rng = random.Random(level)
    bound = max(6, trig_field.totient(2 * level))
    for a in _values_at_level(rng, level, 4, (bound + 1, bound + 12)):
        out = fricke_action._tame(a)
        assert out.terms == a.reduced().terms and out == a
        assert len(out.terms) < len(a.terms)


@pytest.mark.parametrize("level", [5, 15, 105, 770])
def test_tame_collapses_large_coefficients(level):
    # pile-ups: large coefficients that cancel down to a normal form; the
    # first has too few terms for the term count to collapse it
    rng = random.Random(level)
    piles = [(cos_value(1, 5) - cos_value(2, 5)) * 2000]
    piles += [r + (a - r) * 2000
              for a in _values_at_level(rng, level, 3, (2, 6)) for r in [a.reduced()]]
    for piled in piles:
        assert any(abs(c.numerator) > 1024 for _, c in piled.terms)
        out = fricke_action._tame(piled)
        assert out.terms == piled.reduced().terms and out == piled
        assert len(out.terms) <= len(piled.terms)
    assert fricke_action._tame(piles[0]).terms == from_rational(2000).terms


def test_is_zero_fast_path_at_large_coefficient_mass(monkeypatch):
    exact_calls = []
    reduce = trig_field.to_cyclotomic

    def counted(a):
        exact_calls.append(a)
        return reduce(a)

    monkeypatch.setattr(trig_field, "to_cyclotomic", counted)
    rng = random.Random(12)
    dens = [5, 7, 9, 12, 14, 15, 20, 21, 30, 35, 60]
    for _ in range(20):
        terms = {}
        for _ in range(40):
            den = rng.choice(dens)
            terms[(rng.randrange(0, 2 * den), den)] = Fraction(
                rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 9))
        a = CosSum(terms)
        zero = a - a.reduced()
        assert zero.is_zero()
        # 1e-12 is far below float_error at this coefficient mass, so the
        # exact path must decide, and it must find the value nonzero
        near = zero + Fraction(1, 10 ** 12)
        before = len(exact_calls)
        assert not near.is_zero()
        assert len(exact_calls) == before + 1


def test_float_matches_mpmath():
    rng = random.Random(3)
    for _ in range(50):
        a = _random_cossum(rng)
        assert a.float_value() == pytest.approx(float(a.mp_value(50)), abs=1e-12)


def test_match_dictionary():
    values = sorted(2 * math.cos(math.pi * n / 5) for n in range(1, 5))
    idx = match_dictionary(values[2] + 3e-9, values, eps=1e-8)
    assert idx == 2
    assert match_dictionary(1.93, values, eps=1e-8) is None
    assert match_dictionary(-2.0 + 1e-12, values, eps=1e-8) is None


def test_total_order():
    assert compare(cos_value(1, 5), cos_value(2, 5)) == 1
    assert compare(cos_value(2, 5), cos_value(1, 5)) == -1
    assert compare(cos_value(1, 5) - cos_value(2, 5), from_rational(1)) == 0
    # values 1e-12 apart get the sign of their difference
    tiny = Fraction(1, 10 ** 12)
    a = cos_value(1, 5)
    assert compare(a, a + tiny) == -1
    assert compare(a + tiny, a) == 1


def _mp_sign(d):
    v = d.mp_value(60)
    return (v > 0) - (v < 0)


def _count_exact_work(monkeypatch):
    """Record every cyclotomic reduction and every mpmath evaluation."""
    calls = []
    reduce, mp_value = trig_field.to_cyclotomic, CosSum.mp_value

    def counted_reduce(a):
        calls.append(a)
        return reduce(a)

    def counted_mp_value(a, dps=50):
        calls.append(a)
        return mp_value(a, dps)

    monkeypatch.setattr(trig_field, "to_cyclotomic", counted_reduce)
    monkeypatch.setattr(CosSum, "mp_value", counted_mp_value)
    return calls


def test_compare_around_tie_band(monkeypatch):
    bases = [cos_value(1, 5), cos_value(3, 7) - cos_value(1, 9) * Fraction(2, 3),
             from_rational(Fraction(-7, 3)), cos_value(1, 5) - cos_value(2, 5)]
    cases = []
    for mass in (1, 10 ** 9):
        for a in bases:
            a = a * mass
            # 40 times float_error(a) lies outside the band 2*(err_a + err_b)
            # around a, a quarter of it inside
            for off, outside in ((Fraction(40 * float_error(a)), True),
                                 (Fraction(float_error(a) / 4), False)):
                for b in (a + off, a - off):
                    cases.append((a, b, outside, _mp_sign(a - b)))
    calls = _count_exact_work(monkeypatch)
    for a, b, outside, sign in cases:
        assert sign != 0
        assert separated(a, b) == separated(b, a) == outside
        before = len(calls)
        assert compare(a, b) == sign
        assert compare(b, a) == -sign
        # the exact path runs only when the floats are not separated
        assert (len(calls) > before) == (not outside)
    assert compare(bases[3], from_rational(1)) == 0
    assert compare(bases[3] * 10 ** 9, from_rational(10 ** 9)) == 0


def test_compare_float_difference_matches_float_of_difference(golden_records, monkeypatch):
    """The premise of compare's fast path, on every pair canonical_key
    compares over the 45 reference orbits, and on each edge's computed
    image coordinate against the stored neighbour coordinate, the pair
    points_equal sees in verify_record: each cached float lies within
    float_error of the value at 60 digits, a separated pair gets the sign
    of its float difference without exact work, and only a pair that is
    not separated runs the exact path."""
    pairs = []

    def recording(a, b):
        pairs.append((a, b))
        return compare(a, b)

    monkeypatch.setattr(fricke_action, "compare", recording)
    for rec in golden_records:
        fricke_action.canonical_key(rec.points, rec.omega)
    assert len(pairs) > 800
    for rec in golden_records:
        for i, p in enumerate(rec.points):
            for c, g in enumerate("xyz"):
                q = rec.points[rec.neighbors[c][i]]
                pairs.append((fricke_action.apply(g, p, rec.omega)[c], q[c]))
    for v in {id(v): v for pair in pairs for v in pair}.values():
        assert abs(v.float_value() - v.mp_value(60)) <= float_error(v)
    calls = _count_exact_work(monkeypatch)
    ties = 0
    for a, b in pairs:
        before = len(calls)
        got = compare(a, b)
        if separated(a, b):
            assert got == (1 if a.float_value() > b.float_value() else -1)
            assert len(calls) == before
        else:
            ties += 1
            assert got == 0 or len(calls) > before
        assert (got == 0) == (a == b)
    assert 0 < ties < len(pairs)


def test_float_error_bounds_adversarial_sums():
    """float_error bounds |_float - value| on 1000 seeded sums of 1 to 60 terms,
    denominators up to 2520 and coefficients up to 1e12, half of them with
    cancelling pairs of neighbouring angles; and on sums whose terms are
    each below half an ulp of a leading rational, so that recursive
    summation drops them all.  Those reach more than 16 * 2**-52 times the
    mass, so neither the term count nor the mass can leave the bound."""
    rng = random.Random(20261020)
    sums = []
    for i in range(1000):
        terms = {}
        for _ in range(rng.randint(1, 60)):
            den = rng.randint(1, 2520)
            coeff = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 2520))
            num = rng.randint(0, 2 * den)
            terms[(num, den)] = coeff
            if i % 2 and num < den:
                terms[(num + 1, den)] = -coeff
        sums.append(CosSum(terms))
    for n in (20, 40, 60):
        big = 2 ** 40
        # each term small * 2cos(pi*k/2520), k < 1260, is positive and
        # below half an ulp of the running sum 2*big, so it rounds away
        small = Fraction(45, 100) * Fraction(2 ** 41, 2 ** 52) / 2
        terms = {(0, 1): Fraction(big)}
        terms.update({(k, 2520): small for k in range(1, n)})
        sums.append(CosSum(terms))
    worst_count = worst_mass = 0.0
    for v in sums:
        err = abs(v.float_value() - v.mp_value(60))
        assert err <= float_error(v), v
        mass = float(sum(abs(c) for _, c in v.terms))
        worst_count = max(worst_count, err / (2.0 ** -52 * 16 * mass))
        worst_mass = max(worst_mass, err / (2.0 ** -52 * (len(v.terms) + 16)))
    assert worst_count > 1 and worst_mass > 1


# ---------------------------------------------------------------------------
# the representation: integer numerators over one common denominator
# ---------------------------------------------------------------------------
# A value holds _t, sorted ((num, den), m) with m a nonzero int, and _q > 0
# with gcd(_q, *m) == 1; terms is the Fraction view.  The references below
# evaluate the module docstring's float expressions over that view, with
# each coefficient as c.numerator / c.denominator.


def _class4_values_at_level(level):
    """Seed point, parameters and primes decode_config gives for the first
    class-4 index whose values have level `level`."""
    t = get_search_tables()
    levels = [trig_field.level_of(e.value) for e in t.dicts.s4]
    for row, tri in enumerate(t.tri4.tolist()):
        base = math.lcm(*(levels[i] for i in tri))
        for ixp, lv in enumerate(levels):
            if level % base == 0 and math.lcm(base, lv) == level:
                g = decode_config(4, row * len(levels) + ixp)
                assert max(trig_field.level_of(v) for v in g.point) <= level
                return [*g.point, *g.omega, *g.primes]
    raise AssertionError(level)


def _representation_pool(golden_records):
    """The seeded pool of test_term_arithmetic_matches_fraction_reference,
    its sums, products and rational multiples, the coordinates and
    parameters of the 45 golden orbits, and decoded values at levels 2520
    and 3080."""
    rng = random.Random(3080)
    pool = [CosSum(_raw_terms(rng)) for _ in range(60)]
    pool += [cos_value(1, 4), cos_value(1, 3), cos_value(2, 3), cos_value(1, 1),
             cos_value(3, 4) * Fraction(-7, 3), cos_value(1, 5) - cos_value(2, 5), CosSum()]
    pool += [op(a, b) for a, b in zip(pool, pool[1:])
             for op in (CosSum.__add__, CosSum.__sub__, CosSum.__mul__)]
    pool += [a * Fraction(-9, 14) for a in pool[:60]] + [a / Fraction(-4, 3) for a in pool[:60]]
    pool += [v for rec in golden_records for p in rec.points for v in p]
    pool += [w for rec in golden_records for w in rec.omega]
    pool += _class4_values_at_level(2520) + _class4_values_at_level(3080)
    return pool


def _float_over_terms(terms):
    f = 0.0
    for (num, den), c in terms:
        f += c.numerator / c.denominator * 2.0 * math.cos(math.pi * num / den)
    return f


def _float_error_over_terms(terms):
    mass = 0.0
    for _, c in terms:
        mass += abs(c.numerator / c.denominator)
    return 2.0 ** -52 * (len(terms) + 16) * mass


def test_values_hold_integer_numerators_over_one_denominator(golden_records):
    pool = _representation_pool(golden_records)
    assert {trig_field.level_of(v) for v in pool} >= {2520, 3080}
    for v in pool:
        keys = [k for k, _ in v._t]
        assert type(v._q) is int and v._q > 0
        assert math.gcd(v._q, *(m for _, m in v._t)) == 1
        assert keys == sorted(set(keys)) and (1, 2) not in keys
        assert all(type(m) is int and m != 0 for _, m in v._t)
        assert all(0 <= num <= den and math.gcd(num, den) == 1 for num, den in keys)
        assert v.terms == tuple((k, Fraction(m, v._q)) for k, m in v._t)
        # _q is the least common denominator of the Fraction coefficients
        assert v._q == math.lcm(*(c.denominator for _, c in v.terms))


def test_float_and_its_bound_match_the_fraction_expressions(golden_records):
    # m / q and c.numerator / c.denominator are the same correctly rounded
    # double, also for coefficients past the range of a double's mantissa
    pool = _representation_pool(golden_records) + [
        CosSum({(1, 5): Fraction(10 ** 30 + 1, 7), (2, 7): Fraction(1, 3 ** 700)}),
        CosSum({(1, 9): Fraction(-2 ** 80, 3 ** 40), (1, 1): Fraction(7 ** 400, 3 ** 400 + 1)}),
        CosSum({(k, 2520): Fraction(k, 2 ** 60 + k) for k in range(1, 40)}),
    ]
    for v in pool:
        assert v._float.hex() == _float_over_terms(v.terms).hex()
        assert float_error(v).hex() == _float_error_over_terms(v.terms).hex()


def _tame_collapses_by_fractions(v):
    """Whether _tame collapses v, decided on the Fraction coefficients."""
    n = len(v.terms)
    return (n > 6 and n > trig_field.totient(2 * trig_field.level_of(v))) or any(
        abs(c.numerator) > 1024 or c.denominator > 1024 for _, c in v.terms)


def test_tame_decides_on_coefficients_in_lowest_terms(golden_records):
    rng = random.Random(1024)
    piles = [(cos_value(1, 5) - cos_value(2, 5)) * 2000]
    piles += [r + (a - r) * 2000
              for level in (5, 15, 105, 770)
              for a in _values_at_level(rng, level, 3, (2, 6)) for r in [a.reduced()]]
    assert all(any(abs(c.numerator) > 1024 for _, c in p.terms) for p in piles)
    # at the edges: a numerator or denominator of 1024 is kept and 1025
    # collapses; an integer numerator above 1024 over the common
    # denominator is kept when the coefficient in lowest terms is small
    edges = [
        CosSum({(1, 5): 1024, (1, 7): Fraction(-1, 1024)}),
        CosSum({(1, 5): 1000, (2, 7): Fraction(1, 3)}),
        CosSum({(1, 5): Fraction(1023, 1024), (2, 7): Fraction(1, 3)}),
        CosSum({(1, 5): 1025}),
        CosSum({(1, 5): Fraction(1, 1025)}),
        CosSum({(1, 5): Fraction(-1025, 1024), (1, 7): 3}),
    ]
    assert edges[1]._t[0][1] == 3000
    decided = []
    for v in _representation_pool(golden_records) + piles + edges:
        want = _tame_collapses_by_fractions(v)
        out = fricke_action._tame(v)
        assert (out is not v) == want
        assert out.terms == (v.reduced().terms if want else v.terms)
        decided.append(want)
    assert decided[-6:] == [False, False, False, True, True, True]
    assert all(decided[-6 - len(piles):-6])
