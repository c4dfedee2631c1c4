"""Free graded-commutative *-algebra on named even/odd generators.

Elements are finite sums of scalar-weighted monomials.  Odd generators square
to zero and anticommute; even generators commute with everything.  Each
generator carries a conjugation partner for the diamond involution, which is
antilinear, multiplicative in the written order, and squares to
(-1)^parity on homogeneous elements.

Monomials are compared in graded lexicographic order where later-declared
generators are lexicographically greater; this makes b*b the leading monomial
of the unit-superdeterminant relation when the generators are declared in the
order a, a*, b, b*, ...

A monomial is one int, laid out from the top down as

    [total degree | e_{n-1} | ... | e_1 | e_0 | odd bits]

with an EXP_BITS-wide field for the exponent of each generator (0 or 1 for
an odd one) and one bit per odd generator, in declaration order, at the
bottom.  Integer order is then the graded order, a product is the sum of
the two ints (zero when their odd bits overlap, signed by popcounts of the
odd bits), and a quotient by a divisor is the difference.  A degree below
2**EXP_BITS keeps every field from carrying into the next; a monomial or
product that would reach it raises MonomialOverflowError.  Only this module
reads the layout: the rest of the package goes through GeneratorTable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scalars import GaussianVector, Scalar, RationalLike, gaussian_vector

EVEN = 0
ODD = 1

# a monomial: one int, laid out as above
Monomial = int

ONE_MONO: Monomial = 0

# width of each exponent field; the degree of every monomial stays below 2**EXP_BITS
EXP_BITS = 16
_FIELD = (1 << EXP_BITS) - 1


class SuperAlgebraError(Exception):
    pass


class UnknownGeneratorError(SuperAlgebraError):
    pass


class AlgebraMismatchError(SuperAlgebraError):
    pass


class ParityError(SuperAlgebraError):
    pass


class InvertibilityError(SuperAlgebraError):
    pass


class RewriteOrderError(SuperAlgebraError):
    pass


class MonomialOverflowError(SuperAlgebraError):
    """A monomial whose degree does not fit in an exponent field."""


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class GeneratorTable:
    """Ordered declaration of generators with parities and diamond partners.

    The declaration order is the canonical total order on generators and is
    fixed for the lifetime of the table.
    """

    def __init__(self, entries: Sequence[tuple[str, int, str, int]]):
        self.names: tuple[str, ...] = tuple(e[0] for e in entries)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        self.parities: tuple[int, ...] = tuple(e[1] for e in entries)
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        partners = []
        signs = []
        for name, parity, partner, sign in entries:
            if partner not in self.index:
                raise UnknownGeneratorError("diamond partner %r not declared" % partner)
            if sign not in (1, -1):
                raise ValueError("diamond sign must be +-1")
            partners.append(self.index[partner])
            signs.append(sign)
        self.diamond_partner: tuple[int, ...] = tuple(partners)
        self.diamond_sign: tuple[int, ...] = tuple(signs)
        self._validate_involution()
        self._layout()

    def _layout(self) -> None:
        """The field of each generator, its monomial and the odd-bit tables."""
        n = len(self.names)
        odd = [i for i in range(n) if self.parities[i] == ODD]
        odd_bit = {i: 1 << k for k, i in enumerate(odd)}
        self._odd_mask = (1 << len(odd)) - 1
        self._shifts = tuple(len(odd) + EXP_BITS * i for i in range(n))
        self._deg_shift = len(odd) + EXP_BITS * n
        # the smallest int whose degree field reads 2**EXP_BITS
        self._limit = 1 << (self._deg_shift + EXP_BITS)
        self.units: tuple[Monomial, ...] = tuple(
            (1 << self._deg_shift) + (1 << self._shifts[i]) + odd_bit.get(i, 0) for i in range(n))
        self._even_fields = tuple((i, self._shifts[i]) for i in range(n) if i not in odd_bit)
        # odd bits -> the odd generator indices, increasing
        self._odd_factors = _Memo(lambda bits: tuple(i for i in odd if bits & odd_bit[i]))
        # odd bits o2 -> the bits j with an odd number of bits of o2 below j, so
        # moving o2 past o1 takes popcount(o1 & _flips[o2]) swaps, mod 2
        self._flips = _Memo(lambda bits: sum(
            1 << j for j in range(len(odd)) if (bits & ((1 << j) - 1)).bit_count() & 1))
        # diamond: each even field's partner monomial and whether an odd
        # exponent flips the sign; odd bits -> (image monomial, sign)
        self._even_diamond = tuple((s, self.units[self.diamond_partner[i]],
                                    self.diamond_sign[i] < 0) for i, s in self._even_fields)
        self._odd_diamond = _Memo(self._diamond_odd)

    def _diamond_odd(self, bits: int) -> tuple[Monomial, int]:
        img, sign = ONE_MONO, 1
        for i in self._odd_factors[bits]:
            # distinct odd generators have distinct partners, so no product is zero
            s, img = self.multiply(img, self.units[self.diamond_partner[i]])
            sign *= s * self.diamond_sign[i]
        return img, sign

    # -- monomials ---------------------------------------------------------------

    def monomial(self, even: Iterable[tuple[int, int]] = (), odd: Iterable[int] = ()) -> Monomial:
        """The monomial with exponent e of each even generator (i, e) and each
        odd generator of `odd` once; the inverse of `factors`.

        Raises ValueError for a misplaced or repeated generator or an exponent
        that is not a nonnegative int, and MonomialOverflowError when the
        degree reaches 2**EXP_BITS.
        """
        mono = 0
        seen = 0
        for i, e in even:
            if self.parities[i] != EVEN or type(e) is not int or e < 0:
                raise ValueError("generator %s cannot have exponent %r in the even part"
                                 % (self.names[i], e))
            mono += e * self.units[i]
        for i in odd:
            if self.parities[i] != ODD or seen >> i & 1:
                raise ValueError("odd part must hold distinct odd generators, got %s"
                                 % self.names[i])
            seen |= 1 << i
            mono += self.units[i]
        return self._checked(mono)

    def _checked(self, mono: Monomial) -> Monomial:
        if mono >= self._limit:
            raise MonomialOverflowError("monomial degree %d reaches 2**%d"
                                        % (mono >> self._deg_shift, EXP_BITS))
        return mono

    def factors(self, mono: Monomial) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        """(even part, odd part): the (index, exponent > 0) pairs of the even
        generators and the indices of the odd ones, each increasing."""
        return (tuple([(i, e) for i, s in self._even_fields if (e := mono >> s & _FIELD)]),
                self._odd_factors[mono & self._odd_mask])

    def mono_str(self, mono: Monomial) -> str:
        """mono as written in Element reprs, such as a^2*b*eta, or 1."""
        even, odd = self.factors(mono)
        bits = [self.names[i] if e == 1 else "%s^%d" % (self.names[i], e) for i, e in even]
        bits.extend(self.names[i] for i in odd)
        return "*".join(bits) if bits else "1"

    def odd_factors(self, mono: Monomial) -> tuple[int, ...]:
        """The indices of the odd generators of mono, increasing."""
        return self._odd_factors[mono & self._odd_mask]

    def exponent(self, mono: Monomial, i: int) -> int:
        return mono >> self._shifts[i] & _FIELD

    def parity(self, mono: Monomial) -> int:
        return (mono & self._odd_mask).bit_count() & 1

    def multiply(self, m1: Monomial, m2: Monomial) -> tuple[int, Monomial] | None:
        """Product of monomials: (sign, monomial), or None if zero.  With
        _multiply_into for sums, the one rule that signs a monomial product."""
        o1, o2 = m1 & self._odd_mask, m2 & self._odd_mask
        if o1 & o2:
            return None
        return -1 if (o1 & self._flips[o2]).bit_count() & 1 else 1, self._checked(m1 + m2)

    def _factor(self, terms: Iterable[tuple[Monomial, Scalar]],
                odd_negated: bool = False) -> list[tuple[Monomial, int, int, Scalar]]:
        """The right factor of _multiply_into: (monomial, odd bits, their
        flips, scalar) per term.  odd_negated negates the terms of odd
        parity, the sign of moving the sum past an odd factor."""
        odd_mask, flips = self._odd_mask, self._flips
        out = []
        for m, s in terms:
            o = m & odd_mask
            out.append((m, o, flips[o], -s if odd_negated and o.bit_count() & 1 else s))
        return out

    def _multiply_into(self, acc: dict[Monomial, Scalar], left: Iterable[tuple[Monomial, Scalar]],
                       right: list[tuple[Monomial, int, int, Scalar]],
                       negate: bool = False) -> None:
        """Add the product of the sums left and right (from _factor), signed
        as by multiply and negated when negate is set, into acc."""
        odd_mask, limit = self._odd_mask, self._limit
        for m1, s1 in left:
            o1 = m1 & odd_mask
            for m2, o2, f2, s2 in right:
                if o1 & o2:
                    continue
                mono = m1 + m2
                if mono >= limit:
                    self._checked(mono)
                s = s1 * s2
                if ((o1 & f2).bit_count() & 1) != negate:
                    s = -s
                acc[mono] = acc[mono] + s if mono in acc else s

    def _multiply_records(self, out: dict[Monomial, list[int]],
                          left: Iterable[tuple[Monomial, int, int]],
                          right: Iterable[tuple[Monomial, int, int]]) -> None:
        """Add the product of two sums of (monomial, re, im) integer records,
        signed as by multiply, into out: monomial -> [re, im]."""
        odd_mask, flips, limit = self._odd_mask, self._flips, self._limit
        right = [(m2, m2 & odd_mask, flips[m2 & odd_mask], re2, im2) for m2, re2, im2 in right]
        for m1, re1, im1 in left:
            o1 = m1 & odd_mask
            for m2, o2, f2, re2, im2 in right:
                if o1 & o2:
                    continue
                mono = m1 + m2
                if mono >= limit:
                    self._checked(mono)
                re, im = re1 * re2 - im1 * im2, re1 * im2 + im1 * re2
                if (o1 & f2).bit_count() & 1:
                    re, im = -re, -im
                acc = out.get(mono)
                if acc is None:
                    out[mono] = [re, im]
                else:
                    acc[0] += re
                    acc[1] += im

    def partials(self, mono: Monomial) -> list[tuple[int, int, Monomial]]:
        """(g, c, mono / g) per generator g of mono, so that d(mono) is the sum
        of c (mono / g) dg: c is the exponent of an even g, and for an odd g
        the sign of moving dg rightwards past the odd factors after it."""
        even, odd = self.factors(mono)
        units = self.units
        out = [(i, e, mono - units[i]) for i, e in even]
        sign = 1 if len(odd) & 1 else -1
        for i in odd:
            out.append((i, sign, mono - units[i]))
            sign = -sign
        return out

    def divide(self, mono: Monomial, i: int) -> Monomial:
        """The quotient of mono by generator i, which must divide it; for an
        odd generator, the sign of moving it out is the caller's."""
        if not mono >> self._shifts[i] & _FIELD:
            raise ValueError("%s does not divide the monomial" % self.names[i])
        return mono - self.units[i]

    def _validate_involution(self) -> None:
        for i in range(len(self.names)):
            j = self.diamond_partner[i]
            if self.parities[j] != self.parities[i]:
                raise ParityError("diamond partner of %s has different parity" % self.names[i])
            # applying diamond twice must give (-1)^parity
            total = self.diamond_sign[i] * self.diamond_sign[j]
            want = -1 if self.parities[i] == ODD else 1
            if self.diamond_partner[j] != i or total != want:
                raise ValueError("diamond is not an involution up to parity sign on %s"
                                 % self.names[i])

    @staticmethod
    def build(*, conjugate_pairs: Sequence[tuple[str, str, int]] = (),
              self_conjugate: Sequence[tuple[str, int]] = (),
              order: Sequence[str] | None = None) -> "GeneratorTable":
        """Assemble a table from (name, partner-name, parity) pairs.

        For a pair (g, gd) of parity p, diamond maps g -> gd with sign +1 and
        gd -> g with sign (-1)^p, so diamond(diamond(g)) = (-1)^p g.
        Self-conjugate generators must be even (sign +1) or get sign pairs
        that cannot close; odd self-conjugates are not supported here.
        """
        entry_map: dict[str, tuple[str, int, str, int]] = {}
        names: list[str] = []
        for g, gd, parity in conjugate_pairs:
            back = -1 if parity == ODD else 1
            entry_map[g] = (g, parity, gd, 1)
            entry_map[gd] = (gd, parity, g, back)
            names.extend([g, gd])
        for g, parity in self_conjugate:
            if parity == ODD:
                raise ValueError("odd self-conjugate generator %s not representable" % g)
            entry_map[g] = (g, parity, g, 1)
            names.append(g)
        if order is not None:
            names = list(order)
        return GeneratorTable([entry_map[n] for n in names])

    def parity_of_name(self, name: str) -> int:
        return self.parities[self._idx(name)]

    def _idx(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownGeneratorError("generator %r is not declared" % name) from None

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GeneratorTable)
                and self.names == other.names
                and self.parities == other.parities
                and self.diamond_partner == other.diamond_partner
                and self.diamond_sign == other.diamond_sign)

    def __hash__(self) -> int:
        return hash((self.names, self.parities))

    def __repr__(self) -> str:
        return "GeneratorTable(%s)" % ", ".join(self.names)

    # -- element constructors ------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {ONE_MONO: Scalar.one()})

    def scalar(self, value: Scalar | RationalLike) -> "Element":
        s = Scalar.coerce(value)
        return Element(self, {ONE_MONO: s} if not s.is_zero else {})

    def gen(self, name: str) -> "Element":
        return Element(self, {self.units[self._idx(name)]: Scalar.one()})

    def element(self, raw: Iterable[tuple[Scalar | RationalLike, Sequence[str]]]) -> "Element":
        """Normalize a list of (scalar, generator-name sequence) words.

        Each word is the product of its generators in the written order,
        folded through multiply: a word with a repeated odd generator is zero.
        Every name is looked up, so an undeclared one raises
        UnknownGeneratorError also in a zero word.
        """
        out: dict[Monomial, Scalar] = {}
        for coeff, word in raw:
            self._add_word(out, Scalar.coerce(coeff), ONE_MONO, word)
        return Element(self, out)

    def _add_word(self, out: dict[Monomial, Scalar], coeff: Scalar, mono: Monomial,
                  word: Sequence[str]) -> None:
        """Add coeff * mono * (the generators of word, in the written order),
        folded through multiply, into out; a zero product adds nothing.  Every
        name is looked up first."""
        sign = 1
        for unit in [self.units[self._idx(name)] for name in word]:
            prod = self.multiply(mono, unit)
            if prod is None:
                return
            sign, mono = sign * prod[0], prod[1]
        if sign < 0:
            coeff = -coeff
        out[mono] = out[mono] + coeff if mono in out else coeff


class Element:
    """Canonical sum of scalar-weighted monomials over a generator table."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GeneratorTable, terms: Mapping[Monomial, Scalar]):
        self.algebra = algebra
        self.terms: dict[Monomial, Scalar] = {m: s for m, s in terms.items() if not s.is_zero}

    @classmethod
    def _nonzero(cls, algebra: GeneratorTable, terms: dict[Monomial, Scalar]) -> "Element":
        """The element over terms, taken as they are: no coefficient may be zero."""
        x = object.__new__(cls)
        x.algebra = algebra
        x.terms = terms
        return x

    # -- basic ring operations ----------------------------------------------

    def _check(self, other: "Element") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatchError("elements live over different generator tables")

    @staticmethod
    def sum(algebra: GeneratorTable, items: Iterable["Element"]) -> "Element":
        """The sum of the items, added into one dict and filtered for zeros once.

        Raises TypeError for an item that is not an Element and
        AlgebraMismatchError when an item lives over another table.
        """
        out: dict[Monomial, Scalar] = {}
        for x in items:
            if type(x) is not Element:
                raise TypeError("Element.sum takes Elements, not %s; forms.sum_entries "
                                "sums Elements and forms" % type(x).__name__)
            if x.algebra is not algebra and x.algebra != algebra:
                raise AlgebraMismatchError("elements live over different generator tables")
            if not out:
                # the first terms are copied whole
                out.update(x.terms)
                continue
            for m, s in x.terms.items():
                out[m] = out[m] + s if m in out else s
        return Element(algebra, out)

    def __add__(self, other: "Element | Scalar | RationalLike") -> "Element":
        other = self._coerce(other)
        return NotImplemented if other is None else self._plus(other, False)

    __radd__ = __add__

    def __neg__(self) -> "Element":
        return Element._nonzero(self.algebra, {m: -s for m, s in self.terms.items()})

    def __sub__(self, other: "Element | Scalar | RationalLike") -> "Element":
        other = self._coerce(other)
        return NotImplemented if other is None else self._plus(other, True)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other._plus(self, True)

    def _plus(self, other: "Element", negate: bool) -> "Element":
        """self + other, or self - other if negate, from one copy of self's terms."""
        self._check(other)
        out = dict(self.terms)
        for m, s in other.terms.items():
            s = -s if negate else s
            out[m] = s = out[m] + s if m in out else s
            if s.is_zero:
                del out[m]
        return Element._nonzero(self.algebra, out)

    def _coerce(self, other) -> "Element | None":
        """other in this algebra, or None, so that + and - return NotImplemented
        and leave an operand such as a SuperForm to its own reflected method."""
        if isinstance(other, Element):
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            return self.algebra.scalar(other)
        return None

    def __mul__(self, other):
        # the Element test comes first: the abstract Fraction check is slow
        if type(other) is not Element:
            if not isinstance(other, (Scalar, int, Fraction)):
                return NotImplemented
            s = Scalar.coerce(other)
            if s.is_zero:
                return self.algebra.zero()
            # a product of nonzero scalars is nonzero
            return Element._nonzero(self.algebra, {m: c * s for m, c in self.terms.items()})
        self._check(other)
        table = self.algebra
        out: dict[Monomial, Scalar] = {}
        table._multiply_into(out, self.terms.items(), table._factor(other.terms.items()))
        return Element(table, out)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "Element":
        if type(n) is not int:
            raise TypeError("the exponent must be an int, not %s" % type(n).__name__)
        if n < 0:
            raise ValueError("negative powers are not defined; use graded_inverse")
        result = self.algebra.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = self._coerce(other)
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals its scalar (and an int or Fraction), so it hashes as one
        if self.terms.keys() <= {ONE_MONO}:
            return hash(self.constant_term())
        return hash((self.algebra.names, tuple(self.sorted_terms())))

    def parity(self) -> str:
        """'zero', 'even', 'odd' or 'mixed'."""
        if not self.terms:
            return "zero"
        parities = {self.algebra.parity(m) for m in self.terms}
        if parities == {0}:
            return "even"
        if parities == {1}:
            return "odd"
        return "mixed"

    def even_part(self) -> "Element":
        parity = self.algebra.parity
        return Element._nonzero(self.algebra,
                                {m: s for m, s in self.terms.items() if not parity(m)})

    def odd_part(self) -> "Element":
        parity = self.algebra.parity
        return Element._nonzero(self.algebra, {m: s for m, s in self.terms.items() if parity(m)})

    def body(self) -> "Element":
        """Monomials containing no odd generator."""
        odd_mask = self.algebra._odd_mask
        return Element._nonzero(self.algebra,
                                {m: s for m, s in self.terms.items() if not m & odd_mask})

    def soul(self) -> "Element":
        odd_mask = self.algebra._odd_mask
        return Element._nonzero(self.algebra,
                                {m: s for m, s in self.terms.items() if m & odd_mask})

    def constant_term(self) -> Scalar:
        return self.terms.get(ONE_MONO, Scalar.zero())

    # -- involution ----------------------------------------------------------

    def diamond(self) -> "Element":
        """Antilinear multiplicative involution: applied factorwise in order.

        It maps distinct monomials to distinct ones, so each image is written
        once and no coefficient cancels.
        """
        return self._diamond(1)

    def _diamond(self, sign: int, images: dict | None = None) -> "Element":
        """sign * self.diamond() for sign = +-1, each coefficient conjugated
        and signed in one pass over its records; images keeps each
        monomial's (image, sign), so elements that share it walk it once."""
        alg = self.algebra
        odd_mask, odd_images, even_images = alg._odd_mask, alg._odd_diamond, alg._even_diamond
        if images is None:
            images = {}
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self.terms.items():
            got = images.get(mono)
            if got is None:
                # the odd factors keep their written order, then re-sort
                img, s = odd_images[mono & odd_mask]
                # even factors map independently of order
                for shift, unit, flips in even_images:
                    e = mono >> shift & _FIELD
                    if e:
                        img += e * unit
                        if flips and e & 1:
                            s = -s
                got = images[mono] = img, s
            img, s = got
            # conj((re + i im)/den) times s is (s re - i s im)/den
            s *= sign
            out[img] = Scalar(tuple([(rad, pi, s * re, -s * im, den)
                                     for rad, pi, re, im, den in coeff._parts]))
        return Element._nonzero(alg, out)

    # -- substitution ---------------------------------------------------------

    def substitute(self, images: Mapping[str, "Element"],
                   target: GeneratorTable | None = None) -> "Element":
        """Algebra homomorphism sending each generator to its image.

        Generators absent from the mapping must exist in the target table and
        map to themselves.  Images must preserve parity (zero is allowed).
        """
        return SubstitutionMap(self.algebra, images, target).apply(self)

    # -- display / serialization ----------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """The terms, largest monomial first."""
        terms = self.terms
        return [(m, terms[m]) for m in sorted(terms, reverse=True)]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join("(%s)*%s" % (s, self.algebra.mono_str(m)) for m, s in self.sorted_terms())

    def to_obj(self) -> list[dict]:
        names = self.algebra.names
        out = []
        for mono, coeff in self.sorted_terms():
            even, odd = self.algebra.factors(mono)
            for comp in coeff.to_obj():
                out.append({
                    "coeff": comp,
                    "even": {names[i]: e for i, e in even},
                    "odd": [names[i] for i in odd],
                })
        return out

    @staticmethod
    def from_obj(algebra: GeneratorTable, obj: Iterable[dict]) -> "Element":
        """The inverse of to_obj.  Each even part is one monomial, built by
        GeneratorTable.monomial, which rejects an odd name or an exponent that
        is not a nonnegative int there.  The odd part may name odd generators
        only; they fold through multiply in the written order, so an unsorted
        list is signed and a repeated name gives zero.  An unknown name raises
        UnknownGeneratorError."""
        out: dict[Monomial, Scalar] = {}
        for term in obj:
            even = algebra.monomial([(algebra._idx(name), e)
                                     for name, e in term.get("even", {}).items()])
            odd = term.get("odd", [])
            if any(algebra.parity_of_name(name) != ODD for name in odd):
                raise ValueError("the odd part %r holds an even generator" % (odd,))
            algebra._add_word(out, Scalar.from_obj([term["coeff"]]), even, odd)
        return Element(algebra, out)


class SubstitutionMap:
    """An algebra homomorphism from `source` to `target`, with its powers.

    The images' parities are checked once.  Each generator keeps the list of
    its image's powers, grown by one product at a time, so every power is
    built once however many monomials or form coefficients use it.
    """

    def __init__(self, source: GeneratorTable, images: Mapping[str, Element],
                 target: GeneratorTable | None = None):
        if target is None:
            target = next((im.algebra for im in images.values()), source)
        self.source = source
        self.target = target
        self._powers: dict[int, list[Element]] = {}
        for name, im in images.items():
            i = source._idx(name)
            want = source.parities[i]
            got = im.parity()
            if got != "zero" and got != ("odd" if want else "even"):
                raise ParityError("image of %s must be %s, got %s"
                                  % (name, "odd" if want else "even", got))
            if im.algebra is not target and im.algebra != target:
                raise AlgebraMismatchError("image of %s lives over another table" % name)
            self._powers[i] = [im]

    def power(self, i: int, e: int) -> Element:
        """The image of source generator i, raised to e >= 1."""
        pows = self._powers.get(i)
        if pows is None:
            pows = self._powers[i] = [self.target.gen(self.source.names[i])]
        while len(pows) < e:
            pows.append(pows[-1] * pows[0])
        return pows[e - 1]

    def apply(self, x: Element) -> Element:
        """The image of x: one Element.sum of the images of its terms."""
        terms = []
        for mono, coeff in x.terms.items():
            even, odd = self.source.factors(mono)
            factors = [self.power(i, e) for i, e in even]
            factors.extend(self.power(i, 1) for i in odd)
            term = factors[0] * coeff if factors else self.target.scalar(coeff)
            for f in factors[1:]:
                term = term * f
            terms.append(term)
        return Element.sum(self.target, terms)


class RewriteSystem:
    """The rewrite rule lead -> replacement, applied in closed form.

    The lead is a monomial in even generators with coefficient 1, the
    replacement is lower in the graded-lex order and shares no generator with
    the lead.  One monomial lead is a Groebner basis by itself, so q * lead^k
    (largest k) has the unique normal form q * replacement^k.
    """

    def __init__(self, algebra: GeneratorTable, lead: Element, replacement: Element):
        self.algebra = algebra
        mono = next(iter(lead.terms), None)
        even, odd = algebra.factors(mono) if mono is not None else ((), ())
        if len(lead.terms) != 1 or lead.terms[mono] != Scalar.one() or odd or not even:
            raise ValueError("rule lead must be a monomial in even generators, coefficient 1")
        if any(m >= mono for m in replacement.terms):
            raise RewriteOrderError("replacement monomial does not decrease the term order")
        # the lead holds only even generators, so only even ones can clash
        if {i for i, _ in even}.intersection(
                i for m in replacement.terms for i, _ in algebra.factors(m)[0]):
            raise ValueError("the rule's replacement shares a generator with its lead")
        self.lead: Monomial = mono
        self.replacement = replacement
        # the lead's (field shift, exponent) pairs, which find k in q * lead^k
        self._lead_fields = tuple((algebra._shifts[i], e) for i, e in even)
        # _powers[k] is replacement^k, each power built from the one below it,
        # _factors[k] the same power as reduce's right factor,
        # and _vectors[k] the same power as a Gaussian vector
        self._powers: list[Element] = [algebra.one()]
        self._factors: list[list[tuple[Monomial, int, int, Scalar]]] = []
        self._vectors: list[GaussianVector | None] = []

    def _power(self, k: int) -> Element:
        pows = self._powers
        while len(pows) <= k:
            pows.append(pows[-1] * self.replacement)
        return pows[k]

    def _factored_power(self, k: int) -> list[tuple[Monomial, int, int, Scalar]]:
        """replacement^k as the right factor of _multiply_into."""
        facs = self._factors
        while len(facs) <= k:
            facs.append(self.algebra._factor(self._power(len(facs)).terms.items()))
        return facs[k]

    def reduce(self, x: Element) -> Element:
        """The unique normal form: the terms q * lead^k are grouped by k, and
        each group's quotients q are multiplied by replacement^k in one product."""
        if x.algebra is not self.algebra and x.algebra != self.algebra:
            raise AlgebraMismatchError("element lives over a different generator table")
        table, lead, fields = self.algebra, self.lead, self._lead_fields
        out: dict[Monomial, Scalar] = {}
        quotients: dict[int, list[tuple[Monomial, Scalar]]] = {}
        for mono, coeff in x.terms.items():
            k = min((mono >> shift & _FIELD) // e for shift, e in fields)
            if not k:
                out[mono] = out[mono] + coeff if mono in out else coeff
            else:
                quotients.setdefault(k, []).append((mono - k * lead, coeff))
        # replacement^k has degree at most that of lead^k, so no product overflows
        for k, quots in quotients.items():
            table._multiply_into(out, quots, self._factored_power(k))
        return Element(table, out)

    def multiply_vectors(self, v: GaussianVector, w: GaussianVector) -> GaussianVector:
        """reduce(x * y) for x and y given as Gaussian vectors over monomials,
        computed on their integer records with no Scalar or Element built.

        The result is what gaussian_vector gives on the normal form's terms,
        up to the order of its entries: no zero value and the least common
        denominator.  Raises MonomialOverflowError as Element.__mul__ does, and
        ValueError when the replacement is not over the Gaussian integers.
        """
        (d1, left), (d2, right) = v, w
        out: dict[Monomial, list[int]] = {}
        self.algebra._multiply_records(out, left, right)
        # q * lead^k -> q * replacement^k as in reduce; the replacement shares
        # no generator with the lead, so what it writes needs no rewrite
        lead, fields = self.lead, self._lead_fields
        ks = [(mono, k) for mono in out
              if (k := min((mono >> shift & _FIELD) // e for shift, e in fields))]
        for mono, k in ks:
            re, im = out.pop(mono)
            self.algebra._multiply_records(out, [(mono - k * lead, re, im)], self._vector(k))
        recs = [(m, re, im) for m, (re, im) in out.items() if re or im]
        den = d1 * d2
        g = math.gcd(den, *(x for _, re, im in recs for x in (re, im)))
        if g > 1:
            recs = [(m, re // g, im // g) for m, re, im in recs]
        return den // g, recs

    def _vector(self, k: int) -> list[tuple[Monomial, int, int]]:
        """The integer records of replacement^k."""
        vecs = self._vectors
        while len(vecs) <= k:
            vecs.append(gaussian_vector(self._power(len(vecs)).terms))
        if vecs[k] is None or vecs[k][0] != 1:
            raise ValueError("the rule's replacement is not over the Gaussian integers")
        return vecs[k][1]


def unit_body(u: Element, context: str = "") -> Scalar:
    """u's body when it is one nonzero constant, else InvertibilityError led by context."""
    odd_mask = u.algebra._odd_mask
    if [m for m in u.terms if not m & odd_mask] != [ONE_MONO]:
        raise InvertibilityError("%sbody of %r is not an invertible scalar" % (context, u))
    return u.terms[ONE_MONO]


def graded_inverse(u: Element, rewrites: RewriteSystem | None = None) -> Element:
    """Inverse of c(1 + nu) with c an invertible scalar and nu nilpotent soul.

    The series sum((-nu)^k) terminates: every non-body monomial contains an
    odd generator, which no product or rule (its lead is even) takes away.
    Raises InvertibilityError when the reduced body is not a nonzero constant.
    """
    if rewrites is not None:
        u = rewrites.reduce(u)
    c_inv = unit_body(u).inverse()
    nu = u.soul() * c_inv
    powers, power = [], u.algebra.one()
    while not power.is_zero:
        powers.append(power)
        power = -(power * nu)
        if rewrites is not None:
            power = rewrites.reduce(power)
    return Element.sum(u.algebra, powers) * c_inv
