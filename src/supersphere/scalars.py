"""Exact scalar coefficients: Gaussian rationals times sqrt(m) times pi^k.

A scalar is a finite sum of components c * sqrt(m) * pi**k with c a Gaussian
rational, m a squarefree positive integer and k an integer.  Components with
distinct (m, k) never merge; in the algebraic identities of this package at
most one component ever survives, but exact integration of trigonometric
polynomials legitimately produces sums of distinct pi powers, so the sum form
is kept closed under + and *.

Each component is stored as one record of plain integers
(radical, pi, re, im, den) standing for (re + i*im)/den * sqrt(radical) *
pi**pi, in canonical form: den > 0, gcd(re, im, den) = 1, and a zero
component is dropped.  A scalar keeps its records in one tuple sorted by
(radical, pi).  Equal scalars therefore have equal tuples, so equality and
hashing are tuple operations, and arithmetic never builds a ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Union

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)

# one canonical component (radical, pi, re, im, den):
# (re + i*im)/den * sqrt(radical) * pi**pi
Record = tuple[int, int, int, int, int]


def squarefree_split(m: int) -> tuple[int, int]:
    """Split m >= 1 as g*g * m0 with m0 squarefree; returns (g, m0)."""
    if m < 1:
        raise ValueError("radical radicand must be >= 1, got %r" % (m,))
    g = 1
    m0 = m
    d = 2
    while d * d <= m0:
        while m0 % (d * d) == 0:
            m0 //= d * d
            g *= d
        d += 1
    return g, m0


def _canon(rad: int, pi: int, re: int, im: int, den: int) -> Record:
    """Divide out gcd(re, im, den); den > 0 and (re, im) != (0, 0)."""
    g = gcd(re, im, den)
    if g == 1:
        return (rad, pi, re, im, den)
    return (rad, pi, re // g, im // g, den // g)


def _times(x: Record, y: Record) -> Record:
    """The product of two records; a product of nonzero Gaussian rationals is nonzero."""
    m1, k1, re1, im1, d1 = x
    m2, k2, re2, im2, d2 = y
    # both radicands are squarefree, so with g = gcd(m1, m2)
    # sqrt(m1) * sqrt(m2) = g * sqrt((m1/g) * (m2/g))
    g = gcd(m1, m2)
    return _canon((m1 // g) * (m2 // g), k1 + k2,
                  (re1 * re2 - im1 * im2) * g, (re1 * im2 + im1 * re2) * g, d1 * d2)


def _plus(x: Record, y: Record) -> Record | None:
    """The sum of two records of one (radical, pi), or None when they cancel."""
    rad, pi, re1, im1, d1 = x
    _, _, re2, im2, d2 = y
    g = gcd(d1, d2)
    f1, f2 = d2 // g, d1 // g
    re = re1 * f1 + re2 * f2
    im = im1 * f1 + im2 * f2
    return _canon(rad, pi, re, im, d1 * f1) if re or im else None


def _by_part(rows: Iterable[tuple[Record, object]]) -> list[tuple[int, int, int, list[tuple]]]:
    """(record, payload) rows grouped by the record's (radical, pi), in key
    order: one (radical, pi, den, [(re, im, payload), ...]) per part, with den
    the lcm of the part's denominators and each re, im over den."""
    by_key: dict[tuple[int, int], list[tuple[Record, object]]] = {}
    for row in rows:
        by_key.setdefault(row[0][:2], []).append(row)
    parts = []
    for (rad, pi), group in sorted(by_key.items()):
        den = math.lcm(*(rec[4] for rec, _ in group))
        parts.append((rad, pi, den, [(re * f, im * f, payload)
                                     for (_, _, re, im, d), payload in group for f in (den // d,)]))
    return parts


def _collect(rows: Iterable[tuple[Record, int]], den: int) -> "Scalar":
    """sum record * w / den over (record, w), canonicalised once per (radical, pi)."""
    out = []
    for rad, pi, lcm, group in _by_part(rows):
        re_sum = sum(re * w for re, _, w in group)
        im_sum = sum(im * w for _, im, w in group)
        if re_sum or im_sum:
            out.append(_canon(rad, pi, re_sum, im_sum, lcm * den))
    return Scalar(tuple(out))


def _parts_of(value) -> tuple[Record, ...] | None:
    """The records of a Scalar, int or Fraction; None for any other type."""
    if isinstance(value, Scalar):
        return value._parts
    if isinstance(value, (int, Fraction)):
        return ((1, 0, value.numerator, 0, value.denominator),) if value else ()
    return None


class Scalar:
    """Immutable exact coefficient; do not mutate after construction.

    ``Scalar(parts)`` takes a tuple of records that is already canonical:
    sorted by (radical, pi), squarefree radicands, canonical records, no zero
    component.  ``Scalar.of`` builds a scalar from arbitrary rationals and
    radicand.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: tuple[Record, ...] = ()):
        self._parts = parts

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(re: RationalLike = 0, im: RationalLike = 0, radical: int = 1, pi: int = 0) -> "Scalar":
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))
                and type(radical) is int and type(pi) is int):
            raise TypeError("Scalar.of takes int or Fraction parts and an int radical and pi, "
                            "got %r" % ((re, im, radical, pi),))
        g, m0 = squarefree_split(radical)
        # over the lcm of two reduced denominators the record is canonical
        den = math.lcm(re.denominator, im.denominator)
        re, im = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
        if not re and not im:
            return Scalar()
        return Scalar((_canon(m0, pi, re * g, im * g, den),))

    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar.of(1)

    @staticmethod
    def i() -> "Scalar":
        return Scalar.of(0, 1)

    @staticmethod
    def coerce(value: "Scalar | RationalLike") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar.of(value)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._parts

    @property
    def is_simple(self) -> bool:
        """True when the scalar is a single (radical, pi) component or zero."""
        return len(self._parts) <= 1

    def components(self) -> list[tuple[int, int, Fraction, Fraction]]:
        """Sorted (radical, pi, re, im) tuples."""
        return [(rad, pi, Fraction(re, den), Fraction(im, den))
                for rad, pi, re, im, den in self._parts]

    def _single(self) -> Record:
        if not self._parts:
            return (1, 0, 0, 0, 1)
        if len(self._parts) > 1:
            raise ValueError("scalar %s is not a single radical/pi component" % (self,))
        return self._parts[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar | RationalLike") -> "Scalar":
        op = _parts_of(other)
        if op is None:
            return NotImplemented
        parts = self._parts
        if not op:
            return self
        if not parts:
            return Scalar(op)
        if len(parts) == 1 == len(op):
            x, y = parts[0], op[0]
            if x[0] != y[0] or x[1] != y[1]:
                return Scalar((x, y) if x < y else (y, x))
            rec = _plus(x, y)
            return Scalar((rec,) if rec else ())
        return _collect([(rec, 1) for rec in parts + op], 1)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(tuple([(rad, pi, -re, -im, den) for rad, pi, re, im, den in self._parts]))

    def __sub__(self, other: "Scalar | RationalLike") -> "Scalar":
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other: "Scalar | RationalLike") -> "Scalar":
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other: "Scalar | RationalLike") -> "Scalar":
        parts = self._parts
        if type(other) is int:
            # each record keeps its (radical, pi), so no merge and no sort
            if not other:
                return Scalar()
            if len(parts) == 1:
                rad, pi, re, im, den = parts[0]
                return Scalar((_canon(rad, pi, re * other, im * other, den),))
            return Scalar(tuple([_canon(rad, pi, re * other, im * other, den)
                                 for rad, pi, re, im, den in parts]))
        op = _parts_of(other)
        if op is None:
            return NotImplemented
        if len(parts) == 1 == len(op):
            return Scalar((_times(parts[0], op[0]),))
        if not parts or not op:
            return Scalar()
        return _collect(((_times(x, y), 1) for x in parts for y in op), 1)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Inverse of a single-component scalar: 1/(g sqrt(m) pi^k)."""
        rad, pi, re, im, den = self._single()
        if not re and not im:
            raise ZeroDivisionError("scalar zero has no inverse")
        # den/(re + i im) = den (re - i im)/(re^2 + im^2), and 1/sqrt(m) = sqrt(m)/m
        return Scalar((_canon(rad, -pi, den * re, -den * im, (re * re + im * im) * rad),))

    def __truediv__(self, other: "Scalar | RationalLike") -> "Scalar":
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self * Scalar.coerce(other).inverse()

    def conjugate(self) -> "Scalar":
        return Scalar(tuple([(rad, pi, re, -im, den) for rad, pi, re, im, den in self._parts]))

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        op = _parts_of(other)
        if op is None:
            return NotImplemented
        return self._parts == op

    def __hash__(self) -> int:
        # a purely rational scalar equals its Fraction, so it hashes as one
        parts = self._parts
        if not parts:
            return hash(_ZERO)
        rad, pi, re, im, den = parts[0]
        if len(parts) == 1 and rad == 1 and not pi and not im:
            return hash(Fraction(re, den))
        return hash(parts)

    # -- numeric / display ---------------------------------------------------

    def as_int(self) -> int:
        """Exact integer value; raises ValueError if not an exact integer."""
        rad, pi, re, im, den = self._single()
        if rad != 1 or pi != 0 or im != 0 or den != 1:
            raise ValueError("scalar %s is not an exact integer" % (self,))
        return re

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for rad, pi, re, im in self.components():
            if im == 0:
                g = str(re)
            elif re == 0:
                g = "%si" % (im,)
            else:
                g = "(%s%s%si)" % (re, "+" if im > 0 else "", im)
            if rad != 1:
                g += "*sqrt(%d)" % rad
            if pi != 0:
                g += "*pi^%d" % pi if pi != 1 else "*pi"
            bits.append(g)
        return " + ".join(bits)

    # -- serialization -------------------------------------------------------

    def reduced_parts(self) -> list[tuple[int, int, int, int, int, int]]:
        """Sorted components as (re num, re den, im num, im den, radical, pi),
        each part reduced on its own: the numbers to_obj lays out."""
        out = []
        for rad, pi, re, im, den in self._parts:
            g_re, g_im = gcd(re, den), gcd(im, den)
            out.append((re // g_re, den // g_re, im // g_im, den // g_im, rad, pi))
        return out

    def to_obj(self) -> list[dict]:
        """Sorted components, each part a reduced [numerator, denominator]."""
        return [{"re": [re, re_den], "im": [im, im_den], "radical": rad, "pi": pi}
                for re, re_den, im, im_den, rad, pi in self.reduced_parts()]

    @staticmethod
    def from_obj(obj: Iterable[dict]) -> "Scalar":
        """to_obj's components, each one record over the lcm of its two
        denominators, summed by (radical, pi); int fields only."""
        rows = []
        for comp in obj:
            (re, re_den), (im, im_den) = comp["re"], comp["im"]
            rad, pi = comp.get("radical", 1), comp.get("pi", 0)
            if not all(type(v) is int for v in (re, re_den, im, im_den, rad, pi)):
                raise TypeError("scalar component %r has a field that is not an int" % (comp,))
            if not re_den or not im_den:
                raise ValueError("scalar component %r has a zero denominator" % (comp,))
            # to_obj writes squarefree radicands, almost all 1
            g, m0 = (1, 1) if rad == 1 else squarefree_split(rad)
            den = abs(re_den * im_den) // gcd(re_den, im_den)
            rows.append(((m0, pi, re * (den // re_den) * g, im * (den // im_den) * g, den), 1))
        return _collect(rows, 1)


def rat(num: int, den: int = 1) -> Scalar:
    """The rational scalar num/den of two ints, built as its record."""
    if not den:
        raise ZeroDivisionError("Fraction(%d, 0)" % num)
    if not num:
        return Scalar()
    if den < 0:
        num, den = -num, -den
    return Scalar((_canon(1, 0, num, 0, den),))


def sqrt_binomials(n: int) -> list[Scalar]:
    """The exact square roots of C(n, k), k = 0..n, each g*sqrt(m0).

    C(n, k + 1) = C(n, k) (n - k) / (k + 1), so each step adds the prime
    exponents of n - k and subtracts those of k + 1, and g and m0 change only
    at those few primes.  The factors are read off one sieve of smallest
    prime factors up to n.
    """
    if n < 0:
        raise ValueError("sqrt_binomials needs n >= 0, got %r" % (n,))
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for q in range(p * p, n + 1, p):
                if spf[q] == q:
                    spf[q] = p
    exps: dict[int, int] = {}
    g = m0 = 1
    row = [Scalar(((1, 0, 1, 0, 1),))]
    for k in range(n):
        for x, step in ((n - k, 1), (k + 1, -1)):
            while x > 1:
                p = spf[x]
                x //= p
                e = exps[p] = exps.get(p, 0) + step
                # p divides m0 exactly when its exponent is odd, and each pair goes to g
                if e & 1:
                    m0 *= p
                    if step < 0:
                        g //= p
                else:
                    m0 //= p
                    if step > 0:
                        g *= p
        row.append(Scalar(((m0, 0, g, 0, 1),)))
    return row


@lru_cache(maxsize=None)
def _binomial_row(g: int) -> tuple[int, ...]:
    """The binomial coefficients C(g, j), j = 0..g, each from the one before."""
    return tuple(accumulate(range(g), lambda c, j: c * (g - j) // (j + 1), initial=1))


@lru_cache(maxsize=None)
def _one_minus_t_power(l: int) -> tuple[int, ...]:
    """The coefficients (-1)^k C(l, k) of (1 - t)^l."""
    return tuple(-c if k & 1 else c for k, c in enumerate(_binomial_row(l)))


def _dense_parts(terms: Iterable[tuple[int, Scalar, int, int]],
                 row_of: Callable[[int, int, int], tuple[int, ...]]
                 ) -> Iterator[tuple[int, int, int, list[int], list[int]]]:
    """Each (radical, pi) part of sum sign * s * t^m * row over (sign, s, m, l),
    in key order, as (radical, pi, den, re, im): the coefficients of t^0..t^N
    as two dense integer lists over the part's common denominator den.  N is
    the largest m + l, and row_of(N, m, l) gives the coefficients of the
    term's row, added from t^m on; a one-entry row costs one addition.
    """
    terms = list(terms)
    top = max((m + l for _, _, m, l in terms), default=0)
    for rad, pi, den, group in _by_part((rec, (sign, m, l))
                                        for sign, s, m, l in terms for rec in s._parts):
        re_acc, im_acc = [0] * (top + 1), [0] * (top + 1)
        for re, im, (sign, m, l) in group:
            row = row_of(top, m, l)
            for acc, c in ((re_acc, sign * re), (im_acc, sign * im)):
                if c and len(row) == 1:
                    acc[m] += c
                elif c:
                    end = m + len(row)
                    acc[m:end] = [x + c * y for x, y in zip(acc[m:end], row)]
        yield rad, pi, den, re_acc, im_acc


def binomial_sum(terms: Iterable[tuple[int, Scalar, int, int]]) -> tuple[Scalar, ...]:
    """sum sign * s * t^m * (1 - t)^l over (sign, s, m, l), as the
    coefficients of t^0, t^1, ... with trailing zeros stripped.

    Each (radical, pi) component is summed as two dense integer lists over
    one common denominator, so the expansion multiplies plain integers only.
    """
    coeffs: dict[int, list[Record]] = {}
    parts = _dense_parts(terms, lambda top, m, l: _one_minus_t_power(l))
    for rad, pi, den, re_acc, im_acc in parts:
        for k, (re, im) in enumerate(zip(re_acc, im_acc)):
            if re or im:
                coeffs.setdefault(k, []).append(_canon(rad, pi, re, im, den))
    return tuple(Scalar(tuple(coeffs.get(k, ()))) for k in range(max(coeffs, default=-1) + 1))


def binomial_sum_is_zero(terms: Iterable[tuple[int, Scalar, int, int]]) -> bool:
    """not binomial_sum(terms), decided in the Bernstein basis of degree N,
    the largest m + l, with no expansion in powers of t.

    Degree elevation writes t^m (1 - t)^l as the sum over j of
    C(N - m - l, j) t^(m + j) (1 - t)^(N - m - j), and the t^k (1 - t)^(N - k),
    k = 0..N, are a basis of the polynomials of degree at most N (R. T.
    Farouki, "The Bernstein polynomial basis: a centennial retrospective",
    CAGD 29 (2012) 379-419).  So the sum is zero exactly when every summed
    coefficient is, and a term with m + l = N costs one addition.
    """
    parts = _dense_parts(terms, lambda top, m, l: _binomial_row(top - m - l))
    return not any(any(re_acc) or any(im_acc) for _, _, _, re_acc, im_acc in parts)


def weighted_sum(terms: Iterable[tuple[Scalar, int]], den: int) -> Scalar:
    """sum s * w / den over (s, w), each weight w an int: two integers per
    (radical, pi) over den times the lcm of the part's denominators,
    canonicalised once, so no gcd is taken per term."""
    return _collect(((rec, w) for s, w in terms for rec in s._parts), den)


# a map key -> Gaussian rational as (den, [(key, re, im), ...]): each value is
# (re + i*im)/den over one common denominator
GaussianVector = tuple[int, list[tuple[Hashable, int, int]]]


def gaussian_vector(values: Mapping[Hashable, Scalar]) -> GaussianVector | None:
    """The Gaussian-rational scalars in values over their common denominator,
    or None when one of them carries a radical or a power of pi."""
    recs = []
    for key, s in values.items():
        parts = s._parts
        if len(parts) != 1 or parts[0][0] != 1 or parts[0][1]:
            return None
        recs.append((key, parts[0]))
    den = math.lcm(*(rec[4] for _, rec in recs))
    return den, [(key, re * (den // d), im * (den // d)) for key, (_, _, re, im, d) in recs]


def combine(terms: Iterable[tuple[Scalar, GaussianVector]]) -> dict[Hashable, Scalar]:
    """sum s * v over (s, v), with zero values dropped.

    The products are grouped by the (radical, pi) component of s and summed
    as plain integers over one common denominator per component; v is a
    Gaussian vector, so a component's radical and pi power pass to the sum
    unchanged and each output key gets one canonical record per component.
    """
    rows = (((rad, pi, re, im, d * den), recs)
            for s, (den, recs) in terms for rad, pi, re, im, d in s._parts)
    # in key order, so each output key's records come sorted
    out: dict[Hashable, list[Record]] = {}
    for rad, pi, den, group in _by_part(rows):
        acc: dict[Hashable, list[int]] = {}
        for s_re, s_im, recs in group:
            for key, re, im in recs:
                got = acc.get(key)
                if got is None:
                    acc[key] = [s_re * re - s_im * im, s_re * im + s_im * re]
                else:
                    got[0] += s_re * re - s_im * im
                    got[1] += s_re * im + s_im * re
        for key, (re, im) in acc.items():
            if re or im:
                out.setdefault(key, []).append(_canon(rad, pi, re, im, den))
    return {key: Scalar(tuple(recs)) for key, recs in out.items()}
