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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scalars import Scalar, RationalLike

EVEN = 0
ODD = 1

# A monomial is (even_part, odd_part):
#   even_part: tuple of (generator index, exponent > 0), sorted by index
#   odd_part:  tuple of generator indices, strictly increasing
Monomial = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]

ONE_MONO: Monomial = ((), ())


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
        i = self._idx(name)
        if self.parities[i] == EVEN:
            mono: Monomial = (((i, 1),), ())
        else:
            mono = ((), (i,))
        return Element(self, {mono: Scalar.one()})

    def element(self, raw: Iterable[tuple[Scalar | RationalLike, Sequence[str]]]) -> "Element":
        """Normalize a list of (scalar, generator-name sequence) words.

        Reordering two adjacent generators multiplies by (-1)^(p1*p2); a word
        with a repeated odd generator is zero.
        """
        out: dict[Monomial, Scalar] = {}
        for coeff, word in raw:
            even: dict[int, int] = {}
            odd: list[int] = []
            for name in word:
                i = self._idx(name)
                if self.parities[i] == ODD:
                    odd.append(i)
                else:
                    even[i] = even.get(i, 0) + 1
            sign = _sort_odd(odd)
            if sign == 0:
                continue
            s = Scalar.coerce(coeff)
            mono: Monomial = (tuple(sorted(even.items())), tuple(odd))
            if sign < 0:
                s = -s
            out[mono] = out[mono] + s if mono in out else s
        return Element(self, out)


def _sort_odd(indices: list[int]) -> int:
    """Sort odd generator indices in place; the sign of the reordering.

    Every swap of two odd generators flips the sign; 0 when one repeats.
    """
    sign = 1
    for a in range(1, len(indices)):
        b = a
        while b > 0 and indices[b - 1] > indices[b]:
            indices[b - 1], indices[b] = indices[b], indices[b - 1]
            sign = -sign
            b -= 1
    if any(indices[k] == indices[k - 1] for k in range(1, len(indices))):
        return 0
    return sign


def mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono[0]) + len(mono[1])


def mono_parity(mono: Monomial) -> int:
    return len(mono[1]) & 1


def mono_key(mono: Monomial, n_gens: int):
    """Graded-lex sort key; later-declared generators weigh more."""
    exps = [0] * n_gens
    for i, e in mono[0]:
        exps[i] = e
    for i in mono[1]:
        exps[i] += 1
    return (mono_degree(mono), tuple(reversed(exps)))


def _merge_odd(o1: tuple[int, ...], o2: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Merge two sorted odd index tuples; None when a generator repeats.

    The sign is (-1)^inversions for interleaving o1 before o2.
    """
    if not o1:
        return 1, o2
    if not o2:
        return 1, o1
    merged: list[int] = []
    sign = 1
    i = j = 0
    while i < len(o1) and j < len(o2):
        a, b = o1[i], o2[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            if (len(o1) - i) & 1:
                sign = -sign
    merged.extend(o1[i:])
    merged.extend(o2[j:])
    return sign, tuple(merged)


def mono_mul(m1: Monomial, m2: Monomial) -> tuple[int, Monomial] | None:
    """Product of canonical monomials: (sign, monomial), or None if zero."""
    odd = _merge_odd(m1[1], m2[1])
    if odd is None:
        return None
    sign, odd_part = odd
    if not m1[0]:
        even_part = m2[0]
    elif not m2[0]:
        even_part = m1[0]
    else:
        acc = dict(m1[0])
        for i, e in m2[0]:
            acc[i] = acc.get(i, 0) + e
        even_part = tuple(sorted(acc.items()))
    return sign, (even_part, odd_part)


def mono_divides(lead: Monomial, mono: Monomial) -> bool:
    le, lo = lead
    me, mo = mono
    if not set(lo) <= set(mo):
        return False
    exps = dict(me)
    return all(exps.get(i, 0) >= e for i, e in le)


def mono_divide(mono: Monomial, lead: Monomial) -> tuple[int, Monomial]:
    """mono = sign * quotient * lead; requires mono_divides(lead, mono)."""
    exps = dict(mono[0])
    for i, e in lead[0]:
        exps[i] -= e
    even_part = tuple(sorted((i, e) for i, e in exps.items() if e > 0))
    lead_odd = set(lead[1])
    quot_odd = tuple(i for i in mono[1] if i not in lead_odd)
    sign = 1
    for q in quot_odd:
        for l in lead[1]:
            if q > l:
                sign = -sign
    return sign, (even_part, quot_odd)


class Element:
    """Canonical sum of scalar-weighted monomials over a generator table."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GeneratorTable, terms: Mapping[Monomial, Scalar]):
        self.algebra = algebra
        self.terms: dict[Monomial, Scalar] = {m: s for m, s in terms.items() if not s.is_zero}

    # -- basic ring operations ----------------------------------------------

    def _check(self, other: "Element") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatchError("elements live over different generator tables")

    def __add__(self, other: "Element | Scalar | RationalLike") -> "Element":
        other = self._coerce(other)
        self._check(other)
        terms = dict(self.terms)
        for m, s in other.terms.items():
            if m in terms:
                terms[m] = terms[m] + s
            else:
                terms[m] = s
        return Element(self.algebra, terms)

    __radd__ = __add__

    def __neg__(self) -> "Element":
        return Element(self.algebra, {m: -s for m, s in self.terms.items()})

    def __sub__(self, other: "Element | Scalar | RationalLike") -> "Element":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            return self.algebra.scalar(other)
        raise TypeError("cannot coerce %r into the algebra" % (other,))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            s = Scalar.coerce(other)
            return Element(self.algebra, {m: c * s for m, c in self.terms.items()})
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        out: dict[Monomial, Scalar] = {}
        for m1, s1 in self.terms.items():
            for m2, s2 in other.terms.items():
                prod = mono_mul(m1, m2)
                if prod is None:
                    continue
                sign, mono = prod
                s = s1 * s2
                if sign < 0:
                    s = -s
                if mono in out:
                    out[mono] = out[mono] + s
                else:
                    out[mono] = s
        return Element(self.algebra, out)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "Element":
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
        return hash((self.algebra.names, tuple(sorted(self.terms.items(),
                    key=lambda kv: mono_key(kv[0], len(self.algebra))))))

    def parity(self) -> str:
        """'zero', 'even', 'odd' or 'mixed'."""
        if not self.terms:
            return "zero"
        parities = {mono_parity(m) for m in self.terms}
        if parities == {0}:
            return "even"
        if parities == {1}:
            return "odd"
        return "mixed"

    def even_part(self) -> "Element":
        return Element(self.algebra, {m: s for m, s in self.terms.items() if not mono_parity(m)})

    def odd_part(self) -> "Element":
        return Element(self.algebra, {m: s for m, s in self.terms.items() if mono_parity(m)})

    def body(self) -> "Element":
        """Monomials containing no odd generator."""
        return Element(self.algebra, {m: s for m, s in self.terms.items() if not m[1]})

    def soul(self) -> "Element":
        return Element(self.algebra, {m: s for m, s in self.terms.items() if m[1]})

    def constant_term(self) -> Scalar:
        return self.terms.get(ONE_MONO, Scalar.zero())

    # -- involution ----------------------------------------------------------

    def diamond(self) -> "Element":
        """Antilinear multiplicative involution: applied factorwise in order."""
        alg = self.algebra
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self.terms.items():
            s = coeff.conjugate()
            # even factors map independently of order
            even_acc: dict[int, int] = {}
            for i, e in mono[0]:
                j = alg.diamond_partner[i]
                if alg.diamond_sign[i] < 0 and e % 2:
                    s = -s
                even_acc[j] = even_acc.get(j, 0) + e
            # odd factors: image sequence keeps written order, then re-sorts
            img: list[int] = []
            sign = 1
            for i in mono[1]:
                sign *= alg.diamond_sign[i]
                img.append(alg.diamond_partner[i])
            sign *= _sort_odd(img)
            if sign < 0:
                s = -s
            new_mono: Monomial = (tuple(sorted(even_acc.items())), tuple(img))
            if new_mono in out:
                out[new_mono] = out[new_mono] + s
            else:
                out[new_mono] = s
        return Element(alg, out)

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
        n = len(self.algebra)
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0], n), reverse=True)

    def _mono_str(self, mono: Monomial) -> str:
        names = self.algebra.names
        bits = []
        for i, e in mono[0]:
            bits.append(names[i] if e == 1 else "%s^%d" % (names[i], e))
        for i in mono[1]:
            bits.append(names[i])
        return "*".join(bits) if bits else "1"

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join("(%s)*%s" % (s, self._mono_str(m)) for m, s in self.sorted_terms())

    def to_obj(self) -> list[dict]:
        names = self.algebra.names
        out = []
        for mono, coeff in self.sorted_terms():
            for comp in coeff.to_obj():
                out.append({
                    "coeff": comp,
                    "even": {names[i]: e for i, e in mono[0]},
                    "odd": [names[i] for i in mono[1]],
                })
        return out

    @staticmethod
    def from_obj(algebra: GeneratorTable, obj: Iterable[dict]) -> "Element":
        words = []
        for term in obj:
            word = [name for name, e in term.get("even", {}).items() for _ in range(e)]
            word.extend(term.get("odd", []))
            words.append((Scalar.from_obj([term["coeff"]]), word))
        return algebra.element(words)


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
        """The image of x, summed into one dict."""
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in x.terms.items():
            factors = [self.power(i, e) for i, e in mono[0]]
            factors.extend(self.power(i, 1) for i in mono[1])
            term = factors[0] * coeff if factors else self.target.scalar(coeff)
            for f in factors[1:]:
                term = term * f
            for m, s in term.terms.items():
                out[m] = out[m] + s if m in out else s
        return Element(self.target, out)


class RewriteSystem:
    """Ordered rewrite rules lead-monomial -> replacement element.

    Every rule must strictly decrease the graded-lex order, which guarantees
    termination of exhaustive rewriting.
    """

    def __init__(self, algebra: GeneratorTable,
                 rules: Sequence[tuple[Element, Element]] | Sequence[tuple[Monomial, Element]] = ()):
        self.algebra = algebra
        self.rules: list[tuple[Monomial, Element]] = []
        for lead, repl in rules:
            if isinstance(lead, Element):
                if len(lead.terms) != 1:
                    raise ValueError("rule lead must be a single monomial")
                (mono, coeff), = lead.terms.items()
                if coeff != Scalar.one():
                    raise ValueError("rule lead must have coefficient 1")
                lead = mono
            self._add(lead, repl)

    def _add(self, lead: Monomial, repl: Element) -> None:
        n = len(self.algebra)
        lk = mono_key(lead, n)
        for m in repl.terms:
            if mono_key(m, n) >= lk:
                raise RewriteOrderError(
                    "replacement monomial does not decrease the term order")
        self.rules.append((lead, repl))

    def reduce(self, x: Element) -> Element:
        """Unique normal form under exhaustive rewriting; idempotent.

        Worklist algorithm: every rewrite replaces a monomial by strictly
        smaller ones, so the loop terminates; irreducible monomials are final
        regardless of coefficient and may be merged immediately.
        """
        if x.algebra is not self.algebra and x.algebra != self.algebra:
            raise AlgebraMismatchError("element lives over a different generator table")
        normal: dict[Monomial, Scalar] = {}
        work: dict[Monomial, Scalar] = dict(x.terms)
        while work:
            mono, coeff = work.popitem()
            if coeff.is_zero:
                continue
            hit = None
            for lead, repl in self.rules:
                if mono_divides(lead, mono):
                    hit = (lead, repl)
                    break
            if hit is None:
                acc = normal.get(mono)
                normal[mono] = coeff if acc is None else acc + coeff
                continue
            lead, repl = hit
            sign, quot = mono_divide(mono, lead)
            s = coeff if sign > 0 else -coeff
            piece = Element(self.algebra, {quot: s}) * repl
            for m2, s2 in piece.terms.items():
                if m2 in work:
                    work[m2] = work[m2] + s2
                elif m2 in normal:
                    normal[m2] = normal[m2] + s2
                else:
                    work[m2] = s2
        return Element(self.algebra, normal)


def graded_inverse(u: Element, rewrites: RewriteSystem | None = None) -> Element:
    """Inverse of c(1 + nu) with c an invertible scalar and nu nilpotent soul.

    The series sum((-nu)^k) terminates because every non-body monomial
    contains an odd generator.  Raises InvertibilityError when the reduced
    body is not a nonzero multiple of 1.
    """
    if rewrites is not None:
        u = rewrites.reduce(u)
    body = u.body()
    c = body.constant_term()
    if c.is_zero or len(body.terms) != 1:
        raise InvertibilityError("body of %r is not an invertible scalar" % (u,))
    c_inv = c.inverse()
    nu = u.soul() * c_inv
    acc = u.algebra.one()
    power = u.algebra.one()
    guard = sum(1 for p in u.algebra.parities if p == ODD) + 1
    for _ in range(guard):
        power = -(power * nu)
        if rewrites is not None:
            power = rewrites.reduce(power)
        if power.is_zero:
            break
        acc = acc + power
    else:
        raise InvertibilityError("nilpotent series for %r did not terminate" % (u,))
    return acc * c_inv
