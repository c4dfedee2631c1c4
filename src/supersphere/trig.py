"""Exact half-angle polynomials on the (theta, phi) rectangle and their integrals.

PhaseHalfAngle holds the pullbacks through berezin's one chart: monomials
cos^hc(theta/2) sin^hs(theta/2) e^(i k phi) with exact Scalar coefficients,
closed under d/dtheta, d/dphi (berezin._jacobian takes both in one pass)
and complex conjugation.  integrate_half_angle integrates one over
theta in [0, pi], phi in [0, 2 pi] in closed form: each monomial gives a
Beta value B((hc+1)/2, (hs+1)/2) times 2 pi for k = 0, and nothing else, and
the Beta values are summed as integers over one denominator.

TrigPoly stores cos^p(theta) sin^q(theta) cos^r(phi) sin^s(phi) monomials
with q, s in {0, 1} after eliminating sin^2 = 1 - cos^2.  It, the whole-angle
expansion PhaseHalfAngle.to_trigpoly and wallis_integrate are the
independent oracle for integrate_half_angle, used by the tests and by
`verify --suite chern`; production does not call them.  The numeric
quadrature oracle over both representations lives in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Mapping

from .scalars import Scalar, weighted_sum


class ChartError(Exception):
    pass


def _acc(store: dict, key, val: Scalar) -> None:
    if key in store:
        store[key] = store[key] + val
    else:
        store[key] = val


# The oracle: bench/tracer.py binds TrigPoly.__mul__, PhaseHalfAngle.to_trigpoly
# and wallis_integrate by name (tests/test_bench_contract.py checks it), so
# deleting them has to come with the benchmark change that retargets its
# trig ops.
class TrigPoly:
    """Normal form: q, s in {0, 1}; no zero coefficients stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int, int], Scalar] | None = None):
        normal: dict[tuple[int, int, int, int], Scalar] = {}
        if terms:
            stack = list(terms.items())
            while stack:
                (p, q, r, s), coeff = stack.pop()
                if coeff.is_zero:
                    continue
                if q >= 2:
                    stack.append(((p, q - 2, r, s), coeff))
                    stack.append(((p + 2, q - 2, r, s), -coeff))
                    continue
                if s >= 2:
                    stack.append(((p, q, r, s - 2), coeff))
                    stack.append(((p, q, r + 2, s - 2), -coeff))
                    continue
                _acc(normal, (p, q, r, s), coeff)
        self.terms = {k: v for k, v in normal.items() if not v.is_zero}

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly()

    @staticmethod
    def constant(c: Scalar | int | Fraction) -> "TrigPoly":
        return TrigPoly({(0, 0, 0, 0): Scalar.coerce(c)})

    @staticmethod
    def monomial(p: int = 0, q: int = 0, r: int = 0, s: int = 0,
                 coeff: Scalar | int | Fraction = 1) -> "TrigPoly":
        return TrigPoly({(p, q, r, s): Scalar.coerce(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            _acc(terms, k, v)
        return TrigPoly(terms)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            c = Scalar.coerce(other)
            return TrigPoly({k: v * c for k, v in self.terms.items()})
        out: dict[tuple[int, int, int, int], Scalar] = {}
        for (p1, q1, r1, s1), c1 in self.terms.items():
            for (p2, q2, r2, s2), c2 in other.terms.items():
                _acc(out, (p1 + p2, q1 + q2, r1 + r2, s1 + s2), c1 * c2)
        return TrigPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (p, q, r, s), c in sorted(self.terms.items()):
            mono = "".join(part for part, e in (
                ("cosT^%d" % p, p), ("sinT^%d" % q, q),
                ("cosP^%d" % r, r), ("sinP^%d" % s, s)) if e)
            bits.append("(%r)%s" % (c, mono or "1"))
        return " + ".join(bits)


def _wallis_half(p: int) -> Fraction:
    """(p-1)!! / p!! for even p >= 0."""
    num, den = 1, 1
    for k in range(p - 1, 0, -2):
        num *= k
    for k in range(p, 0, -2):
        den *= k
    return Fraction(num, den)


def integrate_theta(p: int, q: int) -> Scalar:
    """Exact integral of cos^p(t) sin^q(t) over [0, pi], q in {0, 1}."""
    if q == 1:
        if p % 2 == 0:
            return Scalar.of(Fraction(2, p + 1))
        return Scalar.zero()
    if p % 2 == 1:
        return Scalar.zero()
    return Scalar.of(_wallis_half(p), 0, 1, 1)


def integrate_phi(r: int, s: int) -> Scalar:
    """Exact integral of cos^r(t) sin^s(t) over [0, 2 pi], s in {0, 1}."""
    if s == 1 or r % 2 == 1:
        return Scalar.zero()
    return Scalar.of(2 * _wallis_half(r), 0, 1, 1)


def wallis_integrate(f: TrigPoly) -> Scalar:
    """Exact double integral over theta in [0, pi], phi in [0, 2 pi]."""
    total = Scalar.zero()
    for (p, q, r, s), c in f.terms.items():
        total = total + c * integrate_theta(p, q) * integrate_phi(r, s)
    return total


class PhaseHalfAngle:
    """Exact expressions sum c * cos^hc(theta/2) sin^hs(theta/2) e^(i k phi)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], Scalar] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero}

    @staticmethod
    def zero() -> "PhaseHalfAngle":
        return PhaseHalfAngle()

    @staticmethod
    def constant(c: Scalar | int | Fraction) -> "PhaseHalfAngle":
        return PhaseHalfAngle({(0, 0, 0): Scalar.coerce(c)})

    @staticmethod
    def monomial(hc: int = 0, hs: int = 0, k: int = 0,
                 coeff: Scalar | int | Fraction = 1) -> "PhaseHalfAngle":
        return PhaseHalfAngle({(hc, hs, k): Scalar.coerce(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PhaseHalfAngle") -> "PhaseHalfAngle":
        terms = dict(self.terms)
        for key, val in other.terms.items():
            _acc(terms, key, val)
        return PhaseHalfAngle(terms)

    def __neg__(self) -> "PhaseHalfAngle":
        return PhaseHalfAngle({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "PhaseHalfAngle") -> "PhaseHalfAngle":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            c = Scalar.coerce(other)
            return PhaseHalfAngle({k: v * c for k, v in self.terms.items()})
        out: dict[tuple[int, int, int], Scalar] = {}
        for (c1, s1, k1), v1 in self.terms.items():
            for (c2, s2, k2), v2 in other.terms.items():
                _acc(out, (c1 + c2, s1 + s2, k1 + k2), v1 * v2)
        return PhaseHalfAngle(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseHalfAngle):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        bits = ["(%r)c%ds%de%d" % (v, hc, hs, k)
                for (hc, hs, k), v in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"

    def conjugate(self) -> "PhaseHalfAngle":
        """The complex conjugate: each coefficient conjugated, e^(i k phi) to
        e^(-i k phi)."""
        return PhaseHalfAngle({(hc, hs, -k): v.conjugate() for (hc, hs, k), v in self.terms.items()})

    def to_trigpoly(self) -> TrigPoly:
        """Rewrite in whole angles; every monomial needs hc + hs even."""
        total = TrigPoly.zero()
        cos_t = TrigPoly.monomial(p=1)
        sin_t = TrigPoly.monomial(q=1)
        one = TrigPoly.constant(1)
        half = Scalar.of(Fraction(1, 2))
        for (hc, hs, k), v in self.terms.items():
            _check_whole_angle(hc, hs)
            part = TrigPoly.constant(v)
            if hc % 2:  # one cos(t/2) sin(t/2) pair -> sin(t)/2
                part = part * sin_t * half
                hc -= 1
                hs -= 1
            # cos^2(t/2) = (1 + cos t)/2, sin^2(t/2) = (1 - cos t)/2
            for _ in range(hc // 2):
                part = part * (one + cos_t) * half
            for _ in range(hs // 2):
                part = part * (one - cos_t) * half
            total = total + part * _phase_to_trig(k)
        return total


def _check_whole_angle(hc: int, hs: int) -> None:
    if (hc + hs) % 2:
        raise ChartError(
            "monomial cos^%d sin^%d of the half angle has no whole-angle form" % (hc, hs))


_TWO_PI = Scalar.of(2, 0, 1, 1)
_TWO_PI_SQUARED = Scalar.of(2, 0, 1, 2)


def integrate_half_angle(f: PhaseHalfAngle) -> Scalar:
    """Exact double integral over theta in [0, pi], phi in [0, 2 pi].

    The phase integrates to 2 pi for k = 0 and to 0 otherwise, and
    int_0^pi cos^hc(t/2) sin^hs(t/2) dt = B((hc+1)/2, (hs+1)/2), a rational
    for odd hc and pi times a rational for even hc (_beta_sum).  The terms of
    each kind are summed as integers over one common denominator.  Every
    monomial needs hc + hs even, as for to_trigpoly; the term-by-term sum of
    Beta values is a test oracle.
    """
    odd, even = [], []
    for (hc, hs, k), v in f.terms.items():
        _check_whole_angle(hc, hs)
        if not k:
            (odd if hc & 1 else even).append((hc >> 1, hs >> 1, v))
    return _beta_sum(odd, 1) * _TWO_PI + _beta_sum(even, 0) * _TWO_PI_SQUARED


def _beta_sum(terms: list[tuple[int, int, Scalar]], odd: int) -> Scalar:
    """sum v B over (p, q, v) of one kind, the factor pi of the even kind left out.

    With s = p + q + odd and m the largest s, the odd kind (hc = 2p+1,
    hs = 2q+1) has B = p! q!/s! = p! q! (m!/s!)/m!, and the even kind
    (hc = 2p, hs = 2q) has B/pi = (2p)! (2q)!/(4^s p! q! s!)
    = [(2p)!/p!] [(2q)!/q!] 4^(m-s) (m!/s!)/(4^m m!).  So every Beta value is
    an integer over m! or 4^m m!, read off one running table of j! or
    (2j)!/j! and one m!/s! per distinct s.
    """
    if not terms:
        return Scalar()
    m = max(p + q for p, q, _ in terms) + odd
    top = max(max(p, q) for p, q, _ in terms)
    # j! for the odd kind, (2j)!/j! = 2 (2j - 1) (2j - 2)!/(j - 1)! for the even
    table = list(accumulate(range(1, top + 1), lambda g, j: g * (j if odd else 4 * j - 2),
                            initial=1))
    tails: dict[int, int] = {}
    weighted = []
    for p, q, v in terms:
        s = p + q + odd
        tail = tails.get(s)
        if tail is None:
            tail = tails[s] = math.prod(range(s + 1, m + 1))
        weighted.append((v, table[p] * table[q] * tail << (0 if odd else 2 * (m - s))))
    return weighted_sum(weighted, math.factorial(m) << (0 if odd else 2 * m))


def _phase_to_trig(k: int) -> TrigPoly:
    """e^(i k phi) expanded as (cos phi +- i sin phi)^|k|."""
    if k == 0:
        return TrigPoly.constant(1)
    base = TrigPoly({(0, 0, 1, 0): Scalar.one(),
                     (0, 0, 0, 1): Scalar.of(0, 1 if k > 0 else -1)})
    out = TrigPoly.constant(1)
    for _ in range(abs(k)):
        out = out * base
    return out
