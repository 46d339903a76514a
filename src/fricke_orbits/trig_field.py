"""Exact arithmetic in the ring generated over Q by values 2cos(pi*r), r rational.

Every quantity the orbit machinery touches (trace coordinates, surface
parameters, dictionary entries) lives in this ring.  A value is stored as a
finite Q-linear combination of terms 2cos(pi*num/den); the product rule
2cosA*2cosB = 2cos(A+B) + 2cos(A-B) keeps the ring closed.

Terms are canonical: each key (num, den) is an angle folded into [0, 1] in
lowest terms, (1, 2) never occurs since 2cos(pi/2) = 0, no coefficient is
zero, and the terms are sorted by key.  Only the public constructor folds
raw input; every operation that starts from canonical terms keeps the
keys canonical with integer arithmetic alone.  A product puts both angles
over L = lcm(den1, den2), adds and subtracts the integer numerators, folds
each result k mod 2L into [0, L] by k -> 2L - k, and reduces k/L by one
gcd; its coefficients are summed as integers over one common denominator.

The term basis is NOT linearly independent (2cos(pi/5) - 2cos(2pi/5) = 1), so
structural comparison is meaningless.  Equality is decided exactly: is_zero
embeds the value into Q(zeta) for a primitive n-th root of unity, n = 2L with
L the lcm of the denominators, and takes the remainder of the exponent
polynomial modulo the n-th cyclotomic polynomial Phi_n.  Phi_n is the minimal
polynomial of zeta, so that remainder (the power-basis normal form) is unique.

A normal form at level L keeps deg Phi_2L = phi(2L) coefficients, for the
exponents k < phi(2L) <= L, and each such k folds to a key k/L of its own,
so reduced() returns at most phi(2L) terms (level_of and totient give L and
phi(2L)).  That is a bound, not a compression: a value with few terms at a
high level is far denser in normal form (2cos(pi/770) alone has 175 terms
there, of at most 480).

Inverses need no second polynomial arithmetic.  For u prime to 2L the
Galois automorphism zeta -> zeta^u of Q(zeta) sends 2cos(pi*k/L) to
2cos(pi*u*k/L), so it maps a term key (num, den) to _fold_int(num*u, den):
u is prime to 2*den, so the key stays canonical, over the same den.  u and
2L - u act alike on real values, and the odd u in [1, L) prime to L stand
for the Galois group of the real field Q(cos(pi/L)).  The product of a's
conjugates over that group is its norm N(a), a rational, nonzero when a is
(L. C. Washington, Introduction to Cyclotomic Fields, GTM 83, ch. 2).  So
a^-1 = rest / N(a), with rest the product of the conjugates for u >= 3;
inverse reads N(a) off the normal form of a*rest and reduces the quotient.

The remainder is computed without a dense division by Phi_n:

* Phi_n is built from the primes of n alone: with r = rad(n) the product of
  the distinct primes and s = n / r, Phi_n(x) = Phi_r(x^s), and a squarefree
  m*p (p prime, p not dividing m) has Phi_mp(x) = Phi_m(x^p) / Phi_m(x).
* Because Phi_n only has powers of x^s, the exponents split by residue class
  j mod s.  Each class is a polynomial in x^s of degree below r, reduced
  modulo Phi_r; coefficient i of class j is the coefficient of x^(j + s*i).
  Pieced together this is the remainder modulo Phi_n itself.
* A class is reduced modulo Phi_r one prime at a time.  For r = m*p, p the
  largest prime of r (so p does not divide m), Phi_r = Phi_m(x^p) / Phi_m(x)
  divides Phi_m(x^p).  Split the class by exponent mod p into p polynomials
  of degree below m and reduce each modulo Phi_m the same way (at m = 1
  they are constants).  Interleaved back, they give a polynomial of degree
  below p*phi(m) congruent to the class modulo Phi_m(x^p), hence modulo
  Phi_r, and a division by Phi_r then clears only phi(m) leading
  coefficients.  Over the prime prefixes that is sum phi(m) steps, 30 for
  r = 770, instead of the r - phi(r) = 530 of one division by Phi_r.
* Every polynomial of degree below deg Phi_n that differs from the exponent
  polynomial by a multiple of Phi_n is its remainder modulo Phi_n, which is
  unique: the normal form is the same, entry for entry, as a direct
  division.
* All rows of one stage are divided together by a numpy row update on
  integers over the common denominator of the coefficients.  It runs in
  int64 while a running bound proves that no intermediate value reaches
  2**62, and goes on from the same column on exact Python ints
  (dtype=object) the first time the bound cannot be proved.

Doubles are a fast path only, under one proven bound.  A value caches
_float, the double sum over its terms of c * 2.0 * cos(pi*num/den).  With
u = 2**-53, one term's error is at most 2u|c| times 1 (the correctly
rounded c.numerator / c.denominator) + 3pi (math.pi*num/den rounds three
times; num, den < 2**53 convert exactly) + 2 (libm's cos, ASSUMED within 1
ulp, glibc's documented bound: the one assumption) + 1 (the product),
below 2u|c|*13.5.  Recursive summation from 0.0 adds (n - 1)*u times the
sum of the n |terms| (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 4), so |_float - v| <= 2**-52 * (n + 16) * sum|c|,
which float_error returns; the slack of 3.5 covers the second-order terms
and the bound's own rounding for n < 2**20, barring overflow and underflow.
separated(a, b) asks for a float gap above twice the two bounds, which also
covers the gap's rounding: then a != b, and the gap has the sign of a - b.
==, is_zero, compare and points_equal all run that test first and the
exact normal form only when it fails.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

Rational = Union[int, Fraction]


def _fold_int(k: int, level: int) -> Tuple[int, int]:
    """The angle k/level (units of pi) as a term key: folded into [0, 1] by
    cos(pi*(a+2)) = cos(pi*a) = cos(-pi*a) and reduced to lowest terms."""
    level2 = 2 * level
    k %= level2
    if k > level:
        k = level2 - k
    g = math.gcd(k, level)
    return k // g, level // g


def _fold(fr: Fraction) -> Fraction:
    """Fold an angle (in units of pi) into [0, 1]."""
    return Fraction(*_fold_int(fr.numerator, fr.denominator))


def _common_den(terms) -> int:
    """Least common denominator of the coefficients of canonical terms."""
    return math.lcm(*{c.denominator for _, c in terms})


def _normalize_terms(raw: Mapping) -> Dict[Tuple[int, int], Fraction]:
    """Merge raw constructor input into a term map with canonical keys."""
    acc: Dict[Tuple[int, int], Fraction] = {}
    for key, coeff in raw.items():
        c = Fraction(coeff)
        if c == 0:
            continue
        fr = Fraction(*key) if isinstance(key, tuple) else Fraction(key)
        pair = _fold_int(fr.numerator, fr.denominator)
        acc[pair] = acc.get(pair, Fraction(0)) + c
    return acc


class CosSum:
    """Immutable element of the cosine ring: sum of coeff * 2cos(pi*num/den).

    ``terms`` is a sorted tuple of ((num, den), coeff) pairs.  Each key is an
    angle folded into [0, 1] in lowest terms, (1, 2) never occurs
    (2cos(pi/2) = 0), and every coefficient is a nonzero Fraction.  Sums,
    negation and rational scaling keep keys canonical, so they only merge
    coefficients.  A product of terms num1/den1 and num2/den2 works on
    integer angles over L = lcm(den1, den2): with g = gcd(den1, den2),
    a = num1*(den2/g) and b = num2*(den1/g), each of (a +- b) mod 2L is
    folded by k -> 2L - k when k > L and reduced by one gcd(k, L).  Its
    coefficients are summed as integers over the product of the two
    factors' common denominators, one Fraction per resulting key.

    Not hashable on purpose: equal values can have different term dictionaries,
    so callers dedup through float buckets plus exact confirmation.
    """

    __slots__ = ("terms", "_float")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, raw: Mapping = ()):  # raw: {(num, den) | rational: coeff}
        self._finish(_normalize_terms(dict(raw)))

    @classmethod
    def _canon(cls, acc: Dict[Tuple[int, int], Fraction]) -> "CosSum":
        """Build from a term map whose keys are already canonical; the map
        is consumed."""
        out = object.__new__(cls)
        out._finish(acc)
        return out

    def _finish(self, acc: Dict[Tuple[int, int], Fraction]) -> None:
        acc.pop((1, 2), None)
        terms = tuple(sorted(kc for kc in acc.items() if kc[1]))
        object.__setattr__(self, "terms", terms)
        f = 0.0
        for (num, den), c in terms:
            f += c.numerator / c.denominator * 2.0 * math.cos(math.pi * num / den)
        object.__setattr__(self, "_float", f)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CosSum is immutable")

    # -- ring structure -------------------------------------------------------

    def _coerce(self, other) -> Optional["CosSum"]:
        if isinstance(other, CosSum):
            return other
        if isinstance(other, (int, Fraction)):
            return from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for k, c in o.terms:
            acc[k] = acc[k] + c if k in acc else c
        return CosSum._canon(acc)

    __radd__ = __add__

    def __neg__(self):
        return CosSum._canon({k: -c for k, c in self.terms})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for k, c in o.terms:
            acc[k] = acc[k] - c if k in acc else -c
        return CosSum._canon(acc)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CosSum._canon({k: v * c for k, v in self.terms})
        if not isinstance(other, CosSum):
            return NotImplemented
        # coefficients as integers over one denominator per factor, so the
        # products accumulate as ints and become Fractions once per key
        q1, q2 = _common_den(self.terms), _common_den(other.terms)
        right = [(n2, d2, c2.numerator * (q2 // c2.denominator))
                 for (n2, d2), c2 in other.terms]
        acc: Dict[Tuple[int, int], int] = {}
        gcd = math.gcd
        for (n1, d1), c1 in self.terms:
            m1 = c1.numerator * (q1 // c1.denominator)
            for n2, d2, m2 in right:
                g = gcd(d1, d2)
                level = d1 // g * d2
                a = n1 * (d2 // g)
                b = n2 * (d1 // g)
                m = m1 * m2
                for key in (_fold_int(a + b, level), _fold_int(a - b, level)):
                    acc[key] = acc.get(key, 0) + m
        q = q1 * q2
        return CosSum._canon({k: Fraction(m, q) for k, m in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("CosSum division by zero")
            return CosSum._canon({k: v / c for k, v in self.terms})
        if not isinstance(other, CosSum):
            return NotImplemented
        q = other.as_rational()
        if q is not None:
            return self / q
        return self * other.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- predicates and conversions -------------------------------------------

    def as_rational(self) -> Optional[Fraction]:
        """Fraction value if the stored representation is visibly rational."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (num, den), c = self.terms[0]
            if den == 1:
                return 2 * c if num == 0 else -2 * c
        return None

    def is_zero(self) -> bool:
        """Exact: separated from 0 on floats (the bound and its libm
        assumption are in the module docstring), else the normal form."""
        return not self.terms or (
            not separated(self, _ZERO) and to_cyclotomic(self).is_zero())

    def __eq__(self, other):
        """Exact: identical terms are equal, separated floats are not, and
        the rest go to (self - other).is_zero()."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.terms == o.terms:
            return True
        return not separated(self, o) and (self - o).is_zero()

    def __float__(self) -> float:
        return self._float

    def float_value(self) -> float:
        return self._float

    def mp_value(self, dps: int = 50):
        """High-precision evaluation (mpmath real)."""
        # imported on first use: the import takes about 3.7 MB, and the
        # scan and the exact decode never evaluate at high precision
        import mpmath

        with mpmath.workdps(dps):
            total = mpmath.mpf(0)
            for (num, den), c in self.terms:
                total += mpmath.mpf(c.numerator) / c.denominator * 2 * mpmath.cos(
                    mpmath.pi * num / den
                )
            return total

    def inverse(self) -> "CosSum":
        """Exact multiplicative inverse (the ring is a field on nonzero
        values): the product of the other conjugates over the norm, in the
        normal form of reduced().  See the module docstring."""
        if self.is_zero():
            raise ZeroDivisionError("CosSum division by zero")
        level = level_of(self)
        rest = from_rational(1)
        for u in range(3, level, 2):
            if math.gcd(u, level) == 1:
                rest = rest * CosSum._canon(
                    {_fold_int(num * u, den): c for (num, den), c in self.terms})
        return (rest / (self * rest).reduced().as_rational()).reduced()

    def reduced(self) -> "CosSum":
        """Canonical representative via the cyclotomic normal form.

        Iterated arithmetic can pile up many cancelling terms with large
        coefficients; their float evaluation then drifts.  Reducing the
        power-basis embedding modulo the cyclotomic polynomial collapses
        the representation back to few small terms.
        """
        el = to_cyclotomic(self)
        return _symmetrize(el.numer, el.common, el.level)

    def __repr__(self) -> str:
        return f"CosSum({cossum_to_str(self)})"


# -- cyclotomic normal form ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class CyclotomicElement:
    """Normal form: rational vector in the power basis of a primitive 2L-th
    root of unity, reduced modulo the 2L-th cyclotomic polynomial.

    The vector is kept as integers over one common denominator, in lowest
    terms (gcd(common, *numer) == 1), so equal vectors have equal fields.
    """

    level: int  # L; the root of unity has order 2L
    numer: Tuple[int, ...]  # length = deg Phi_{2L}
    common: int  # positive

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.common) for x in self.numer)

    def is_zero(self) -> bool:
        return not any(self.numer)


def _primes(n: int) -> Tuple[int, ...]:
    """The distinct primes of n, ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def totient(n: int) -> int:
    """Euler's phi(n); phi(2L) = deg Phi_2L is the length of a normal form
    at level L."""
    for p in _primes(n):
        n -= n // p
    return n


def level_of(a: CosSum) -> int:
    """The level L of a value: the lcm of its term denominators, so that
    its terms live in Q(zeta) for a primitive 2L-th root of unity zeta."""
    return math.lcm(*{den for (_, den), _ in a.terms})


# Every intermediate of the int64 division stays below this, so neither a
# product c*den[j] nor a difference can wrap.
_INT64_SAFE = 1 << 62


def _absmax(a: np.ndarray) -> int:
    """max |a| as a Python int, without an array of absolute values.  A
    short array goes through a list, which costs less than two reductions."""
    if a.size <= 64:
        return max(map(abs, a.ravel().tolist()))
    return max(int(a.max()), -int(a.min()))


def _divmod_rows(rows, den: Sequence[int]):
    """Divide each integer row (coefficients ascending) by the monic den.

    rows is a sequence of equal-length rows or a 2-D int64 or object array;
    an array is divided in place.  Returns (quotients, remainders), views of
    one 2-D array with a row per input row: a remainder row has
    len(den) - 1 entries.  Column i is cleared by
    num[:, i-dn:i] -= c*den[:-1], where c = num[:, i] stays in place as
    quotient coefficient i - dn (den is monic).  The update runs in int64
    while the running bound max|num| + sum_i max|c_i| * max|den| proves that
    no entry can reach 2**62.  The first time it cannot, the division goes on
    from that column on exact Python ints (dtype=object); every int64 step
    before it was exact, so the integers are the same.
    """
    num = np.asarray(rows)
    dn = len(den) - 1
    big = max(max(den), -min(den))
    bound = _absmax(num)
    if num.dtype != object and bound >= _INT64_SAFE:
        num = num.astype(object)
    d = np.array(den[:-1], dtype=num.dtype)
    for i in range(num.shape[1] - 1, dn - 1, -1):
        c = num[:, i]
        top = _absmax(c)
        if not top:
            continue
        bound += top * big
        if num.dtype != object and bound >= _INT64_SAFE:
            num = num.astype(object)
            d = d.astype(object)
            c = num[:, i]
        num[:, i - dn:i] -= np.multiply.outer(c, d)
    return num[:, dn:], num[:, :dn]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Tuple[int, ...]:
    """Coefficients (ascending, monic, integer) of the n-th cyclotomic polynomial.

    With r = rad(n) the product of the distinct primes of n and s = n / r,
    Phi_n(x) = Phi_r(x^s); a squarefree n = m*p, p its largest prime, gives
    Phi_n(x) = Phi_m(x^p) / Phi_m(x).  Only the prefixes of n's prime list
    are built, not every divisor.
    """
    primes = _primes(n)
    if not primes:
        return (-1, 1)
    r = math.prod(primes)
    if r != n:
        return tuple(_stretch(cyclotomic_poly(r), n // r))
    base = cyclotomic_poly(n // primes[-1])
    quot, rem = _divmod_rows([_stretch(base, primes[-1])], base)
    assert not rem.any()
    return tuple(quot[0].tolist())


def _stretch(poly: Sequence[int], s: int) -> list:
    """Coefficients of poly(x^s)."""
    out = [0] * (s * (len(poly) - 1) + 1)
    out[::s] = poly
    return out


def to_cyclotomic(a: CosSum) -> CyclotomicElement:
    """Embed at level L = lcm of denominators and reduce mod Phi_{2L}.

    Each term c*2cos(pi*k/L) adds c at exponents k and -k modulo n = 2L,
    summed as integers over the common denominator of the coefficients.
    With r = rad(n) and s = n / r, Phi_n(x) = Phi_r(x^s), so the exponents
    split by residue class j mod s: class j holds the polynomial g_j with
    f(x) = sum_j x^j g_j(x^s), and coefficient i of g_j mod Phi_r lands at
    power j + s*i.

    g_j is reduced modulo Phi_r one prime at a time.  With r = m*p and p
    the largest prime of r, p does not divide m and Phi_r(x) =
    Phi_m(x^p) / Phi_m(x), so Phi_r divides Phi_m(x^p).  Writing
    g(x) = sum_{t<p} x^t g_t(x^p), each g_t (length m) is reduced modulo
    Phi_m to h_t, down to m = 1, where the rows are constants.  Then
    sum_t x^t h_t(x^p) is congruent to g modulo Phi_m(x^p), so modulo
    Phi_r, and has degree below p*phi(m): dividing it by Phi_r, of degree
    (p-1)*phi(m), clears phi(m) columns.  The splits run first, on the whole
    s x r table, until every row is one entry; the interleaves and
    divisions then run from the smallest prime up, all rows at once.

    The result has degree below s*phi(r) = deg Phi_n and differs from f by
    a multiple of Phi_n, so it is the unique remainder of f modulo Phi_n:
    the same normal form as a dense division by Phi_n, entry for entry.
    At most two arrays of s*r entries are live at a time.
    """
    if not a.terms:
        return CyclotomicElement(1, (0,), 1)
    level = level_of(a)
    n = 2 * level
    common = _common_den(a.terms)
    exps: Dict[int, int] = {}
    for (num, den), c in a.terms:
        k = num * (level // den)
        v = c.numerator * (common // c.denominator)
        for e in (k % n, -k % n):
            exps[e] = exps.get(e, 0) + v
    primes = _primes(n)
    r = math.prod(primes)
    s = n // r
    # exponent e = j + s*i in row j, column i; then each row of length m*p
    # splits by column mod p into p rows of length m, for the primes from
    # the largest down, until every row holds one entry; each split drops
    # the table it was made from
    es = np.fromiter(exps, np.int64, len(exps))
    vals = list(exps.values())
    del exps
    num = np.zeros((s, r), np.int64 if max(map(abs, vals)) < _INT64_SAFE else object)
    num[es % s, es // s] = vals
    del es, vals
    for p in reversed(primes):
        rows, width = num.shape[0], num.shape[1] // p
        num = num.reshape(rows, width, p).transpose(0, 2, 1).reshape(rows * p, width)
    # up again: p rows reduced modulo Phi_m interleave into one polynomial
    # of degree below p*phi(m), which a division by Phi_mp takes to phi(mp)
    m = 1
    for p in primes:
        rows, width = num.shape[0] // p, num.shape[1]
        m *= p
        num = num.reshape(rows, p, width).transpose(0, 2, 1).reshape(rows, width * p)
        num = _divmod_rows(num, cyclotomic_poly(m))[1]
    numer = num.T.reshape(-1)
    del num
    g = math.gcd(common, int(np.gcd.reduce(numer)))
    if g > 1:
        numer //= g
    return CyclotomicElement(level, tuple(numer.tolist()), common // g)


def _symmetrize(numer: Sequence[int], common: int, level: int) -> CosSum:
    """Rebuild a CosSum from a power-basis vector numer / common known to
    represent a real value: sum c_k zeta^k = sum (c_k/2) * 2cos(pi*k/level).
    Numerators are summed as integers per key, one Fraction per key."""
    acc: Dict[Tuple[int, int], int] = {}
    for k, x in enumerate(numer):
        if x:
            key = _fold_int(k, level)
            acc[key] = acc.get(key, 0) + x
    common *= 2
    return CosSum._canon({k: Fraction(x, common) for k, x in acc.items()})


# -- module-level operations (the public vocabulary) ---------------------------


_ZERO = CosSum()


def cos_value(r, den: int = None) -> CosSum:
    """The ring element 2cos(pi*r)."""
    fr = Fraction(r) if den is None else Fraction(r, den)
    return CosSum._canon({_fold_int(fr.numerator, fr.denominator): Fraction(1)})


def from_rational(q: Rational) -> CosSum:
    """The ring element q."""
    return CosSum._canon({(0, 1): Fraction(q) / 2})


def match_dictionary(v: float, floats: Sequence[float], eps: float = 1e-8) -> Optional[int]:
    """Index of the unique entry within eps of v in an ascending float list."""
    i = bisect.bisect_left(floats, v)
    best = None
    for j in (i - 1, i):
        if 0 <= j < len(floats) and abs(floats[j] - v) <= eps:
            if best is not None:
                raise ValueError("dictionary entries closer than 2*eps")
            best = j
    return best


def float_error(v: CosSum) -> float:
    """A bound on |v._float - v|: 2**-52 * (len(v.terms) + 16) * sum|c|,
    derived in the module docstring from _finish's operation order."""
    mass = 0.0
    for _, c in v.terms:
        mass += abs(c.numerator / c.denominator)
    return 2.0 ** -52 * (len(v.terms) + 16) * mass


def separated(a: CosSum, b: CosSum) -> bool:
    """Whether the cached floats prove a != b: their gap exceeds twice the
    sum of the two float_error bounds.  The gap then also has the sign of
    a - b."""
    return abs(a._float - b._float) > 2.0 * (float_error(a) + float_error(b))


def compare(a: CosSum, b: CosSum) -> int:
    """Total order: float first, exact sign on ties.  Returns -1/0/1.

    When the cached floats are separated, the sign of their difference is
    the sign of a - b (see float_error for the bound and the libm
    assumption it rests on).  Only otherwise is a - b built; a zero is
    decided exactly, and a nonzero difference inside the band gets its
    sign at rising mpmath precision.
    """
    if separated(a, b):
        return -1 if a._float < b._float else 1
    d = a - b
    if d.is_zero():
        return 0
    import mpmath  # on first use, as in CosSum.mp_value

    for dps in (60, 120, 240):
        v = d.mp_value(dps)
        if abs(v) > mpmath.mpf(10) ** (-(dps - 10)):
            return -1 if v < 0 else 1
    raise ArithmeticError("could not separate values at 240 digits")


def compare_tuples(a: Sequence[CosSum], b: Sequence[CosSum]) -> int:
    for x, y in zip(a, b):
        c = compare(x, y)
        if c:
            return c
    return (len(a) > len(b)) - (len(a) < len(b))


# -- lossless ring value <-> string codec ---------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?2cos\(pi\*(\d+)/(\d+)\)$")


def cossum_to_str(v: CosSum) -> str:
    """Canonical string form: cosine terms by rising angle, rational tail.

    Angles are folded into (0, 1/2): 2cos(pi*q) with q > 1/2 is rewritten
    as -2cos(pi*(1-q)), and the rational cosines (q in {0, 1/3, 1/2, 1})
    move into the rational tail.
    """

    rat = Fraction(0)
    folded: Dict[Tuple[int, int], Fraction] = {}
    for (num, den), c in v.terms:
        q = Fraction(num, den)
        if q > Fraction(1, 2):
            q, c = 1 - q, -c
        if q == 0:
            rat += c * 2
        elif q == Fraction(1, 2):
            continue
        elif q == Fraction(1, 3):
            rat += c
        else:
            key = (q.denominator, q.numerator)
            folded[key] = folded.get(key, Fraction(0)) + c
    terms = [(k, c) for k, c in folded.items() if c != 0]
    terms.sort(key=lambda t: t[0])
    parts = []
    for (den, num), c in terms:
        core = f"2cos(pi*{num}/{den})"
        if c == 1:
            parts.append(core)
        elif c == -1:
            parts.append("-" + core)
        else:
            parts.append(f"{c}*{core}")
    if rat != 0 or not parts:
        parts.append(str(rat))
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def cossum_from_str(s: str) -> CosSum:
    """The inverse of cossum_to_str; anything it does not parse, a zero
    denominator included, raises ValueError naming the literal."""
    text = s.replace(" ", "")
    if not text:
        raise ValueError("empty ring literal")
    out = from_rational(0)
    try:
        for tok in re.findall(r"[+-]?[^+-]+", text):
            sign = 1
            if tok[0] == "+":
                tok = tok[1:]
            elif tok[0] == "-":
                sign, tok = -1, tok[1:]
            m = _TERM_RE.match(tok)
            if m:
                coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
                out = out + cos_value(int(m.group(2)), int(m.group(3))) * (sign * coeff)
            else:
                out = out + from_rational(sign * Fraction(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad ring literal {s!r}: {exc}") from exc
    return out
