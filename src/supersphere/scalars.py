"""Exact scalar coefficients: Gaussian rationals times sqrt(m) times pi^k.

A scalar is a finite sum of components c * sqrt(m) * pi**k with c a Gaussian
rational, m a squarefree positive integer and k an integer.  Components with
distinct (m, k) never merge; in the algebraic identities of this package at
most one component ever survives, but exact integration of trigonometric
polynomials legitimately produces sums of distinct pi powers, so the sum form
is kept closed under + and *.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


class Scalar:
    """Immutable exact coefficient; do not mutate after construction."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Mapping[tuple[int, int], tuple[Fraction, Fraction]] | None = None):
        clean: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
        if parts:
            for (rad, pi), (re, im) in parts.items():
                if re == 0 and im == 0:
                    continue
                g, m0 = squarefree_split(rad)
                if g != 1:
                    re, im = re * g, im * g
                key = (m0, pi)
                if key in clean:
                    ore, oim = clean[key]
                    re, im = ore + re, oim + im
                    if re == 0 and im == 0:
                        del clean[key]
                        continue
                clean[key] = (re, im)
        self._parts = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(re: RationalLike = 0, im: RationalLike = 0, radical: int = 1, pi: int = 0) -> "Scalar":
        return Scalar({(radical, pi): (Fraction(re), Fraction(im))})

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
    def sqrt_int(m: int) -> "Scalar":
        """Exact sqrt of a positive integer, reduced to g*sqrt(m0)."""
        return Scalar.of(1, 0, radical=m)

    @staticmethod
    def pi_power(k: int) -> "Scalar":
        return Scalar.of(1, 0, 1, k)

    @staticmethod
    def coerce(value: "Scalar | RationalLike") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar.of(Fraction(value))

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
        return [(rad, pi, re, im) for (rad, pi), (re, im) in sorted(self._parts.items())]

    def _single(self) -> tuple[int, int, Fraction, Fraction]:
        if self.is_zero:
            return (1, 0, _ZERO, _ZERO)
        if not self.is_simple:
            raise ValueError("scalar %s is not a single radical/pi component" % (self,))
        (rad, pi), (re, im) = next(iter(self._parts.items()))
        return (rad, pi, re, im)

    @property
    def gaussian(self) -> tuple[Fraction, Fraction]:
        rad, pi, re, im = self._single()
        return (re, im)

    @property
    def radical(self) -> int:
        return self._single()[0]

    @property
    def pi_exp(self) -> int:
        return self._single()[1]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar | RationalLike") -> "Scalar":
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        merged = dict(self._parts)
        for key, (re, im) in other._parts.items():
            if key in merged:
                ore, oim = merged[key]
                merged[key] = (ore + re, oim + im)
            else:
                merged[key] = (re, im)
        return Scalar(merged)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar({k: (-re, -im) for k, (re, im) in self._parts.items()})

    def __sub__(self, other: "Scalar | RationalLike") -> "Scalar":
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other: "Scalar | RationalLike") -> "Scalar":
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other: "Scalar | RationalLike") -> "Scalar":
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        out: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
        for (rad1, pi1), (re1, im1) in self._parts.items():
            for (rad2, pi2), (re2, im2) in other._parts.items():
                # sqrt(m) * sqrt(m') = g * sqrt(m m' / g^2)
                g, m0 = squarefree_split(rad1 * rad2)
                re = (re1 * re2 - im1 * im2) * g
                im = (re1 * im2 + im1 * re2) * g
                key = (m0, pi1 + pi2)
                if key in out:
                    ore, oim = out[key]
                    out[key] = (ore + re, oim + im)
                else:
                    out[key] = (re, im)
        return Scalar(out)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Inverse of a single-component scalar: 1/(g sqrt(m) pi^k)."""
        rad, pi, re, im = self._single()
        if re == 0 and im == 0:
            raise ZeroDivisionError("scalar zero has no inverse")
        norm = re * re + im * im
        # 1/sqrt(m) = sqrt(m)/m
        return Scalar.of(re / norm / rad, -im / norm / rad, rad, -pi)

    def __truediv__(self, other: "Scalar | RationalLike") -> "Scalar":
        return self * Scalar.coerce(other).inverse()

    def conjugate(self) -> "Scalar":
        return Scalar({k: (re, -im) for k, (re, im) in self._parts.items()})

    # -- comparison / hashing ------------------------------------------------

    def _key(self):
        return tuple(sorted(self._parts.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        # a purely rational scalar equals its Fraction, so it hashes as one
        if not self._parts:
            return hash(_ZERO)
        (key, (re, im)), *rest = self._parts.items()
        if not rest and key == (1, 0) and im == 0:
            return hash(re)
        return hash(self._key())

    # -- numeric / display ---------------------------------------------------

    def to_complex(self) -> complex:
        total = 0j
        for (rad, pi), (re, im) in self._parts.items():
            total += complex(re + im * 1j) * math.sqrt(rad) * math.pi ** pi
        return total

    def as_int(self) -> int:
        """Exact integer value; raises ValueError if not an exact integer."""
        if self.is_zero:
            return 0
        rad, pi, re, im = self._single()
        if rad != 1 or pi != 0 or im != 0 or re.denominator != 1:
            raise ValueError("scalar %s is not an exact integer" % (self,))
        return int(re)

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
                g = "(%s%+si)" % (re, im)
            if rad != 1:
                g += "*sqrt(%d)" % rad
            if pi != 0:
                g += "*pi^%d" % pi if pi != 1 else "*pi"
            bits.append(g)
        return " + ".join(bits)

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> list[dict]:
        return [
            {"re": [re.numerator, re.denominator],
             "im": [im.numerator, im.denominator],
             "radical": rad, "pi": pi}
            for rad, pi, re, im in self.components()
        ]

    @staticmethod
    def from_obj(obj: Iterable[dict]) -> "Scalar":
        total = Scalar.zero()
        for comp in obj:
            re = Fraction(comp["re"][0], comp["re"][1])
            im = Fraction(comp["im"][0], comp["im"][1])
            total = total + Scalar.of(re, im, comp.get("radical", 1), comp.get("pi", 0))
        return total


def rat(num: int, den: int = 1) -> Scalar:
    """Shorthand for a rational scalar."""
    return Scalar.of(Fraction(num, den))
