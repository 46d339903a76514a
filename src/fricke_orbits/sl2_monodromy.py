"""Matrix-level action on SL2 triples, trace invariants, and reconstruction.

The three involutions x, y, z and the auxiliary maps s, t, r act on triples
(Mx, My, Mz) of SL2 matrices.  Seven traces

    px = Tr Mx, py = Tr My, pz = Tr Mz, pinf = Tr(Mz My Mx),
    X = Tr(My Mz), Y = Tr(Mz Mx), Z = Tr(Mx My)

are the invariants the rest of the package works with; this module exists to
validate the induced coordinate action against honest matrix computations and
to rebuild a triple from its invariants.  The surface relation and the
parameter map are fricke_action's own functions, run here on exact scalars.

All arithmetic is exact: rational entries in, rational or quadratic-extension
entries out.  No floats anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .fricke_action import Omega, fricke_residual, omega_of_traces


class ReducibleLocus(ValueError):
    """The invariants lie on the stratum where they do not separate conjugacy
    classes (all three matrices share an eigenvector)."""


class NotRepresentable(ValueError):
    """No SL2 triple has these invariants (nonzero surface residual)."""


# ---------------------------------------------------------------------------
# scalars: Q and Q(sqrt(D))
# ---------------------------------------------------------------------------


def _rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True, slots=True)
class QuadExt:
    """a + b*sqrt(d) with rational a, b and a fixed non-square rational d."""

    a: Fraction
    b: Fraction
    d: Fraction

    def _lift(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise TypeError("mixed quadratic extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.d)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + self.b * o.b * self.d,
                       self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - o.b * o.b * o.d
        if norm == 0:
            raise ZeroDivisionError
        conj = QuadExt(o.a / norm, -o.b / norm, self.d)
        return self * conj

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"({self.a}+{self.b}*sqrt({self.d}))"


Scalar = Union[int, Fraction, QuadExt]


# ---------------------------------------------------------------------------
# matrices and triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Mat2:
    """2x2 matrix with exact entries; the library only builds det-1 matrices."""

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def inv(self) -> "Mat2":
        # adjugate; valid because det = 1
        return Mat2(self.d, -self.b, -self.c, self.a)

    def trace(self) -> Scalar:
        return self.a + self.d

    @staticmethod
    def identity() -> "Mat2":
        one, zero = Fraction(1), Fraction(0)
        return Mat2(one, zero, zero, one)


class Triple(NamedTuple):
    mx: Mat2
    my: Mat2
    mz: Mat2


class SevenTuple(NamedTuple):
    px: Scalar
    py: Scalar
    pz: Scalar
    pinf: Scalar
    X: Scalar
    Y: Scalar
    Z: Scalar


def invariants(tr: Triple) -> SevenTuple:
    mx, my, mz = tr
    return SevenTuple(
        mx.trace(), my.trace(), mz.trace(),
        ((mz @ my) @ mx).trace(),
        (my @ mz).trace(), (mz @ mx).trace(), (mx @ my).trace(),
    )


def act(g: str, tr: Triple) -> Triple:
    """One generator step at the matrix level."""
    mx, my, mz = tr
    if g == "x":
        return Triple(mx.inv(), my.inv(), (mx @ mz.inv()) @ mx.inv())
    if g == "y":
        return Triple((my @ mx.inv()) @ my.inv(), my.inv(), mz.inv())
    if g == "z":
        return Triple(mx.inv(), (mz @ my.inv()) @ mz.inv(), mz.inv())
    if g == "s":
        return Triple(mz, mx, my)
    if g == "t":
        return Triple(mz, my, (my @ mx) @ my.inv())
    if g == "r":
        return Triple(mz.inv(), my.inv(), mx.inv())
    raise ValueError(f"unknown generator {g!r}")


def omegas_of(s: SevenTuple) -> Omega:
    """Surface parameters (wX, wY, wZ, w4) determined by the four p traces."""
    return omega_of_traces(s.px, s.py, s.pz, s.pinf)


def seven_residual(s: SevenTuple) -> Scalar:
    """Residual of the surface relation; exactly zero on invariants of triples."""
    return fricke_residual((s.X, s.Y, s.Z), omegas_of(s))


def derived_trace_tbac(s: SevenTuple) -> Scalar:
    """Trace of the reversed product Mx*My*Mz, recovered from the seven traces.

    pinf is the trace of Mz*My*Mx = My*Mx*Mz (cyclic); the trace of the
    opposite ordering is determined by the linear identity below.
    """
    return (s.X * s.px + s.Y * s.py + s.Z * s.pz
            - s.px * s.py * s.pz - s.pinf)


def random_triple(rng, shears: int = 3) -> Triple:
    """Random rational det-1 triple from products of elementary shears."""

    def shear_product():
        m = Mat2.identity()
        for _ in range(shears):
            q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if rng.random() < 0.5:
                m = m @ Mat2(Fraction(1), q, Fraction(0), Fraction(1))
            else:
                m = m @ Mat2(Fraction(1), Fraction(0), q, Fraction(1))
        return m

    return Triple(shear_product(), shear_product(), shear_product())


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def _on_single_point_locus(s: SevenTuple) -> bool:
    """True when all three involutions fix the point (X,Y,Z): the stratum of
    common-eigenvector triples."""
    wx, wy, wz, _ = omegas_of(s)
    return (wx == 2 * s.X + s.Y * s.Z
            and wy == 2 * s.Y + s.Z * s.X
            and wz == 2 * s.Z + s.X * s.Y)


def reconstruct(s: SevenTuple) -> Triple:
    """Build a triple whose invariants are exactly s.

    Gauge: the anchor matrix is diagonal (lambda, 1/lambda) and one off-diagonal
    entry of the second matrix is set to 1.  Anchors are tried in the fixed
    order px, py, pz, Z, Y, X (first with trace^2 != 4).
    """
    res = seven_residual(s)
    if res != 0:
        raise NotRepresentable(f"surface residual is {res}, not 0")
    if _on_single_point_locus(s):
        raise ReducibleLocus("invariants satisfy the single-point relations")

    txyz = derived_trace_tbac(s)  # Tr(Mx My Mz)
    px, py, pz, pinf, X, Y, Z = s

    # (ta, tb, tc, tab, tac, tbc, tabc, assemble(Ma, Mb, Mc) -> (Mx, My, Mz))
    anchors = [
        (px, py, pz, Z, Y, X, txyz,
         lambda A, B, C: Triple(A, B, C)),
        (py, px, pz, Z, X, Y, pinf,
         lambda A, B, C: Triple(B, A, C)),
        (pz, py, px, X, Y, Z, pinf,
         lambda A, B, C: Triple(C, B, A)),
        # product anchors: Ma is a two-letter product, unpacked afterwards
        (Z, py, pz, px, txyz, py * pz - X, Y,
         lambda A, B, C: Triple(A @ B, B.inv(), C)),
        (Y, px, py, pz, txyz, px * py - Z, X,
         lambda A, B, C: Triple(B.inv(), C, A @ B)),
        (X, pz, px, py, txyz, pz * px - Y, Z,
         lambda A, B, C: Triple(C, A @ B, B.inv())),
    ]
    for ta, tb, tc, tab, tac, tbc, tabc, assemble in anchors:
        if ta * ta != 4:
            return _reconstruct_at_anchor(ta, tb, tc, tab, tac, tbc, tabc,
                                          assemble, s)
    raise ReducibleLocus("every admissible anchor trace is +-2")


def _reconstruct_at_anchor(ta, tb, tc, tab, tac, tbc, tabc, assemble,
                           s: SevenTuple) -> Triple:
    disc = Fraction(ta * ta - 4)
    root = _rational_sqrt(disc)
    if root is not None:
        lift = Fraction
        sq = root
    else:
        lift = lambda q: QuadExt(Fraction(q), Fraction(0), disc)  # noqa: E731
        sq = QuadExt(Fraction(0), Fraction(1), disc)
    lam = (lift(ta) + sq) / 2
    lam_inv = 1 / lam

    def diag_solve(trace_plain, trace_weighted):
        # m11 + m22 = trace_plain, lam*m11 + m22/lam = trace_weighted
        m11 = (lift(trace_weighted) - lam_inv * lift(trace_plain)) / (lam - lam_inv)
        return m11, lift(trace_plain) - m11

    b11, b22 = diag_solve(tb, tab)
    c11, c22 = diag_solve(tc, tac)
    m11, m22 = diag_solve(tbc, tabc)  # diagonal of Mb @ Mc

    one, zero = lift(1), lift(0)
    p_bb = b11 * b22 - one  # b12*b21
    p_cc = c11 * c22 - one  # c12*c21
    p_bc = m11 - b11 * c11  # b12*c21
    p_cb = m22 - b22 * c22  # b21*c12

    if p_bb != 0:
        b12, b21 = one, p_bb
        c21 = p_bc
        c12 = p_cb / p_bb
    elif p_cc != 0:
        c12, c21 = one, p_cc
        b21 = p_cb
        b12 = p_bc / p_cc
    elif p_bc != 0:
        b12, b21 = one, zero
        c21, c12 = p_bc, zero
    elif p_cb != 0:
        c12, c21 = one, zero
        b21, b12 = p_cb, zero
    else:
        raise ReducibleLocus("triple is simultaneously triangular in this gauge")

    if (b12 * b21 != p_bb or c12 * c21 != p_cc
            or b12 * c21 != p_bc or b21 * c12 != p_cb):
        raise NotRepresentable("inconsistent off-diagonal products")

    ma = Mat2(lam, zero, zero, lam_inv)
    mb = Mat2(b11, b12, b21, b22)
    mc = Mat2(c11, c12, c21, c22)
    out = assemble(ma, mb, mc)
    if invariants(out) != s:
        raise NotRepresentable("reconstruction verification failed")
    return out
