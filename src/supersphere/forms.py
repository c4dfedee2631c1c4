"""Graded differential forms over the free algebra.

A form is a sum of terms (coefficient Element) * (wedge monomial of
generator differentials).  Signs follow the bigraded rule: for bihomogeneous
factors of form degrees p, q and Grassmann parities |w|, |t|,

    w ^ t = (-1)^(p q + |w||t|) t ^ w.

Consequences used everywhere: differentials of even generators anticommute
with every differential and square to zero; differentials of odd generators
commute with each other and dh ^ dh survives; functions commute with a
differential unless both are odd.  The exterior derivative has form degree 1
and Grassmann parity 0, obeys the graded Leibniz rule and d . d = 0, and
commutes with the diamond involution, carried to forms by
(dg)^diamond = d(g^diamond).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import (AlgebraMismatchError, Element, GeneratorTable, Monomial,
                      ParityError, RewriteSystem, SubstitutionMap)
from .scalars import Scalar

# wedge monomial: tuple of generator indices, sorted ascending
Wedge = tuple[int, ...]


def sort_wedge(table: GeneratorTable, items: Sequence[int]) -> tuple[int, Wedge] | None:
    """Sort differential indices into a canonical wedge; None when it vanishes.

    Swapping adjacent differentials gives -1 unless both generators are odd;
    a repeated even-generator differential kills the term.
    """
    work = list(items)
    sign = 1
    # insertion sort; counts of swaps decide the sign
    for a in range(1, len(work)):
        b = a
        while b > 0 and work[b - 1] > work[b]:
            g1, g2 = work[b - 1], work[b]
            if not (table.parities[g1] and table.parities[g2]):
                sign = -sign
            work[b - 1], work[b] = g2, g1
            b -= 1
    for k in range(1, len(work)):
        if work[k] == work[k - 1] and table.parities[work[k]] == 0:
            return None
    return sign, tuple(work)


def wedge_grassmann_parity(table: GeneratorTable, w: Wedge) -> int:
    return sum(table.parities[i] for i in w) & 1


class SuperForm:
    """Sum of Element-weighted wedge monomials; degree-0 terms are allowed."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GeneratorTable, terms: Mapping[Wedge, Element]):
        self.algebra = algebra
        self.terms: dict[Wedge, Element] = {w: c for w, c in terms.items() if not c.is_zero}

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def zero(algebra: GeneratorTable) -> "SuperForm":
        return SuperForm(algebra, {})

    @staticmethod
    def from_element(x: Element) -> "SuperForm":
        return SuperForm(x.algebra, {(): x})

    @staticmethod
    def differential(algebra: GeneratorTable, name: str) -> "SuperForm":
        return SuperForm(algebra, {(algebra._idx(name),): algebra.one()})

    def _coerce(self, other) -> "SuperForm":
        if isinstance(other, SuperForm):
            return other
        if isinstance(other, Element):
            return SuperForm.from_element(other)
        if isinstance(other, (Scalar, int, Fraction)):
            return SuperForm.from_element(self.algebra.scalar(other))
        raise TypeError("cannot coerce %r to a form" % (other,))

    # -- linear structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @staticmethod
    def sum(algebra: GeneratorTable, items: Iterable["SuperForm | Element"]) -> "SuperForm":
        """The sum of the items; an Element item is a form of degree 0.

        The coefficients are grouped by wedge, and each wedge met more than
        once takes a single Element.sum.  Raises AlgebraMismatchError when an
        item lives over another table.
        """
        out: dict[Wedge, Element] = {}
        more: dict[Wedge, list[Element]] = {}
        for x in items:
            if x.algebra is not algebra and x.algebra != algebra:
                raise AlgebraMismatchError("forms live over different generator tables")
            terms = x.terms if isinstance(x, SuperForm) else {(): x}
            if not out:
                # as in Element.sum, the first terms are copied whole
                out.update(terms)
                continue
            for w, c in terms.items():
                if w in out:
                    more.setdefault(w, [out[w]]).append(c)
                else:
                    out[w] = c
        for w, cs in more.items():
            out[w] = Element.sum(algebra, cs)
        return SuperForm(algebra, out)

    def __add__(self, other) -> "SuperForm":
        return SuperForm.sum(self.algebra, (self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "SuperForm":
        return SuperForm(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> "SuperForm":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __eq__(self, other) -> bool:
        if isinstance(other, (Element, Scalar, int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, SuperForm):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    # -- multiplication -------------------------------------------------------------

    def __mul__(self, other) -> "SuperForm":
        """Wedge product, one pass through wedge_into; the exterior product
        symbol is left implicit."""
        if isinstance(other, (Scalar, int, Fraction)):
            return SuperForm(self.algebra, {w: c * other for w, c in self.terms.items()})
        other = self._coerce(other)
        table = self.algebra
        if other.algebra is not table and other.algebra != table:
            raise AlgebraMismatchError("forms live over different generator tables")
        out: dict[Wedge, dict[Monomial, Scalar]] = {}
        wedge_into(out, table, self.terms, other.terms, {})
        return form_of(table, out)

    def __rmul__(self, other) -> "SuperForm":
        if isinstance(other, (Element, Scalar, int, Fraction)):
            return self._coerce(other) * self
        return NotImplemented

    # -- structure helpers ------------------------------------------------------------

    def form_degrees(self) -> set[int]:
        return {len(w) for w in self.terms}

    def grassmann_parity(self) -> int:
        parities = set()
        parity = self.algebra.parity
        for w, c in self.terms.items():
            wp = wedge_grassmann_parity(self.algebra, w)
            for mono in c.terms:
                parities.add((parity(mono) + wp) & 1)
        if len(parities) > 1:
            raise ParityError("form has mixed Grassmann parity")
        return parities.pop() if parities else 0

    # -- operations ---------------------------------------------------------------------

    def diamond(self) -> "SuperForm":
        """Involution: coefficients conjugate, (dg)^dia = d(g^dia) factorwise."""
        return self._diamond(1)

    def _diamond(self, sign: int) -> "SuperForm":
        """sign * self.diamond() for sign = +-1, in one pass."""
        table = self.algebra
        out: dict[Wedge, Element] = {}
        for w, c in self.terms.items():
            s = sign
            image: list[int] = []
            for i in w:
                s *= table.diamond_sign[i]
                image.append(table.diamond_partner[i])
            merged = sort_wedge(table, image)
            if merged is None:
                continue
            s2, wn = merged
            coeff = c._diamond(s * s2)
            out[wn] = out[wn] + coeff if wn in out else coeff
        return SuperForm(table, out)

    def body_project(self) -> "SuperForm":
        """Kill odd generators and their differentials; body() the coefficients."""
        table = self.algebra
        return SuperForm(table, {w: c.body() for w, c in self.terms.items()
                                 if not any(table.parities[i] for i in w)})

    def map_coefficients(self, fn) -> "SuperForm":
        return SuperForm(self.algebra, {w: fn(c) for w, c in self.terms.items()})

    def substitute(self, images: Mapping[str, Element],
                   target: GeneratorTable | None = None) -> "SuperForm":
        """Pull the form through an algebra map: coefficients substitute and
        each differential dg maps to d(image of g).  One substitution map
        serves every coefficient, so each power of an image is built once."""
        smap = SubstitutionMap(self.algebra, images, target)
        diff_images: dict[int, SuperForm] = {}
        pieces = []
        for w, c in self.terms.items():
            piece = SuperForm.from_element(smap.apply(c))
            for i in w:
                img = diff_images.get(i)
                if img is None:
                    img = diff_images[i] = d(smap.power(i, 1))
                piece = piece * img
            pieces.append(piece)
        return SuperForm.sum(smap.target, pieces)

    # -- display / serialization -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Wedge, Element]]:
        """The terms in display order: by form degree, then by wedge."""
        terms = self.terms
        return [(w, terms[w]) for w in sorted(terms, key=lambda w: (len(w), w))]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = self.algebra.names
        return " + ".join("(%r) %s" % (c, "^".join("d" + names[i] for i in w) or "1")
                          for w, c in self.sorted_terms())

    def layout(self) -> list[dict]:
        """The to_obj document with each coefficient left as an Element."""
        names = self.algebra.names
        return [{"coeff": c, "wedge": [names[i] for i in w]} for w, c in self.sorted_terms()]

    def to_obj(self) -> list[dict]:
        return [{"coeff": t["coeff"].to_obj(), "wedge": t["wedge"]} for t in self.layout()]

    @staticmethod
    def from_obj(algebra: GeneratorTable, obj: Iterable[dict]) -> "SuperForm":
        pieces = []
        for term in obj:
            piece = SuperForm.from_element(Element.from_obj(algebra, term["coeff"]))
            for name in term["wedge"]:
                piece = piece * SuperForm.differential(algebra, name)
            pieces.append(piece)
        return SuperForm.sum(algebra, pieces)


def wedge_into(out: dict[Wedge, dict[Monomial, Scalar]], table: GeneratorTable,
               left: Mapping[Wedge, Element], right: Mapping[Wedge, Element],
               factors: dict[int, list]) -> None:
    """Add the wedge product of the forms with terms left and right into out:
    wedge -> monomial -> scalar.

    Each product term c1 m1 w1 * c2 m2 w2 goes straight into the dict of its
    output wedge, signed by the wedge sort of w1 w2, by moving m2's odd
    generators past w1's odd differentials and by the monomial product m1 m2.
    factors caches right's factored coefficients for each parity of w1 met
    (an odd w1 negates the odd m2); a caller that multiplies several left
    forms by one right form passes the same dict each time.
    """
    for w1, c1 in left.items():
        odd_w1 = wedge_grassmann_parity(table, w1)
        right_factors = factors.get(odd_w1)
        if right_factors is None:
            right_factors = factors[odd_w1] = [(w2, table._factor(c2.terms.items(), odd_w1))
                                               for w2, c2 in right.items()]
        terms = c1.terms.items()
        for w2, factor in right_factors:
            merged = sort_wedge(table, w1 + w2)
            if merged is not None:
                sign, w = merged
                table._multiply_into(out.setdefault(w, {}), terms, factor, sign < 0)


def form_of(table: GeneratorTable, out: Mapping[Wedge, Mapping[Monomial, Scalar]]) -> SuperForm:
    """The form with the summed coefficients out: wedge -> monomial -> scalar."""
    return SuperForm(table, {w: Element(table, t) for w, t in out.items()})


def sum_entries(items: Sequence[Element | SuperForm]) -> Element | SuperForm:
    """The sum of a nonempty list of Elements and forms, for matrix entries
    and pairings that may hold either kind: an Element unless a form is
    among the items."""
    algebra = items[0].algebra
    if any(isinstance(x, SuperForm) for x in items):
        return SuperForm.sum(algebra, items)
    return Element.sum(algebra, items)


def d(x: Element | SuperForm) -> SuperForm:
    """Exterior derivative.

    On a monomial written in canonical order, each factor f contributes
    (monomial with f removed) * df with the sign of moving df rightwards past
    the remaining factors (odd-odd swaps only).
    """
    if isinstance(x, Element):
        table = x.algebra
        # dividing by one generator is injective, so distinct monomials give
        # distinct quotients and no two terms meet in the coefficient of dg
        out: dict[Wedge, dict[Monomial, Scalar]] = {}
        for mono, coeff in x.terms.items():
            even_part, odd_part = table.factors(mono)
            for i, e in even_part:
                out.setdefault((i,), {})[table.divide(mono, i)] = coeff * e
            for k, i in enumerate(odd_part):
                out.setdefault((i,), {})[table.divide(mono, i)] = (
                    coeff if (len(odd_part) - k - 1) % 2 == 0 else -coeff)
        return form_of(table, out)
    if isinstance(x, SuperForm):
        pieces = []
        for w, c in x.terms.items():
            # each differential of c lands in its own wedge
            piece_terms: dict[Wedge, Element] = {}
            for (i,), ci in d(c).terms.items():
                merged = sort_wedge(x.algebra, (i,) + w)
                if merged is None:
                    continue
                sign, wn = merged
                piece_terms[wn] = ci if sign > 0 else -ci
            pieces.append(SuperForm(x.algebra, piece_terms))
        return SuperForm.sum(x.algebra, pieces)
    raise TypeError("d expects an Element or SuperForm")


class DifferentialIdeal:
    """Reduction data: element rewrite rules plus form rules.

    A form rule (gen, dgen, replacement) rewrites any term whose coefficient
    monomial is divisible by `gen` and whose wedge contains `dgen`:
    gen * dgen -> replacement.  Replacements must not reintroduce dgen.
    """

    def __init__(self, rewrites: RewriteSystem,
                 form_rules: Sequence[tuple[Element, SuperForm, SuperForm]] = ()):
        self.rewrites = rewrites
        self.algebra = rewrites.algebra
        self.form_rules: list[tuple[int, int, SuperForm]] = []
        for gen, dgen, repl in form_rules:
            (gmono, gcoeff), = gen.terms.items()
            even, odd = self.algebra.factors(gmono)
            if odd or len(even) != 1 or even[0][1] != 1 or gcoeff != Scalar.one():
                raise ValueError("form rule generator part must be a single even generator")
            gi = even[0][0]
            (dw, dcoeff), = dgen.terms.items()
            if len(dw) != 1 or not dcoeff == self.algebra.one():
                raise ValueError("form rule wedge part must be a single differential")
            di = dw[0]
            for w in repl.terms:
                if di in w:
                    raise ValueError("replacement reintroduces the eliminated differential")
            self.form_rules.append((gi, di, repl))

    def reduce(self, omega: SuperForm | Element) -> SuperForm:
        """Coefficients to normal form, then eliminate rule pairs to fixpoint."""
        if isinstance(omega, Element):
            omega = SuperForm.from_element(omega)
        if omega.algebra is not self.algebra and omega.algebra != self.algebra:
            raise AlgebraMismatchError("form lives over a different generator table")
        work = omega.map_coefficients(self.rewrites.reduce)
        while True:
            hit = next(((w, mono, gi, di, repl)
                        for w, c in work.terms.items()
                        for gi, di, repl in self.form_rules if di in w
                        for mono in c.terms if self.algebra.exponent(mono, gi)), None)
            if hit is None:
                return work
            w, mono, gi, di, repl = hit
            coeff = work.terms[w].terms[mono]
            # split off the rewritten monomial
            remainder = dict(work.terms[w].terms)
            del remainder[mono]
            new_terms = dict(work.terms)
            if remainder:
                new_terms[w] = Element(self.algebra, remainder)
            else:
                del new_terms[w]
            base = SuperForm(self.algebra, new_terms)
            # mono = quot * gi (even generator commutes freely)
            quot = self.algebra.divide(mono, gi)
            # move the eliminated differential to the front of the wedge
            pos = w.index(di)
            rest = w[:pos] + w[pos + 1:]
            sign, _ = sort_wedge(self.algebra, (di,) + rest)
            front = Element(self.algebra, {quot: coeff if sign > 0 else -coeff})
            piece = (SuperForm.from_element(front) * repl
                     * SuperForm(self.algebra, {rest: self.algebra.one()}))
            # base coefficients stay normal; only the new piece needs reducing
            work = base + piece.map_coefficients(self.rewrites.reduce)
