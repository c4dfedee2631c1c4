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

        Every coefficient goes into one wedge -> monomial dict through
        add_terms.  Raises TypeError for an item that is neither a form nor an
        Element and AlgebraMismatchError when an item lives over another
        table.
        """
        out: dict[Wedge, dict[Monomial, Scalar]] = {}
        for x in items:
            if not isinstance(x, (SuperForm, Element)):
                raise TypeError("SuperForm.sum takes forms and Elements, not %s"
                                % type(x).__name__)
            if x.algebra is not algebra and x.algebra != algebra:
                raise AlgebraMismatchError("forms live over different generator tables")
            for w, c in form_terms(x).items():
                add_terms(out, w, c.terms)
        return form_of(algebra, out)

    def __add__(self, other) -> "SuperForm":
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self) -> "SuperForm":
        return SuperForm(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> "SuperForm":
        return self._plus(other, True)

    def _plus(self, other, negate: bool) -> "SuperForm":
        """self + other, or self - other when negate is set, from one copy of self's terms."""
        other = self._coerce(other)
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraMismatchError("forms live over different generator tables")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = (-c if negate else c) if w not in out else out[w]._plus(c, negate)
        return SuperForm(self.algebra, out)

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
            for i in w:
                s *= table.diamond_sign[i]
            # the image permutes the differentials, so no two wedges meet
            merged = sort_wedge(table, [table.diamond_partner[i] for i in w])
            if merged is not None:
                out[merged[1]] = c._diamond(s * merged[0])
        return SuperForm(table, out)

    def body_project(self) -> "SuperForm":
        """Kill odd generators and their differentials; body() the coefficients."""
        table = self.algebra
        return SuperForm(table, {w: c.body() for w, c in self.terms.items()
                                 if not any(table.parities[i] for i in w)})

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
        """The inverse of to_obj.  Each wedge is put in order by sort_wedge,
        so an unsorted wedge is signed and a repeated even differential
        gives zero."""
        out: dict[Wedge, dict[Monomial, Scalar]] = {}
        for term in obj:
            coeff = Element.from_obj(algebra, term["coeff"])
            merged = sort_wedge(algebra, [algebra._idx(name) for name in term["wedge"]])
            if merged is not None:
                add_terms(out, merged[1], coeff.terms, merged[0] < 0)
        return form_of(algebra, out)


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


def add_terms(out: dict[Wedge, dict[Monomial, Scalar]], wedge: Wedge,
              terms: Mapping[Monomial, Scalar], negate: bool = False) -> None:
    """Add terms (monomial -> scalar), negated when negate is set, into
    out[wedge].  With form_of, the one way a form is assembled from pieces."""
    acc = out.setdefault(wedge, {})
    for m, s in terms.items():
        if negate:
            s = -s
        acc[m] = acc[m] + s if m in acc else s


def form_terms(x: Element | SuperForm) -> Mapping[Wedge, Element]:
    """The terms of x as a form: an Element is the form {(): x} of degree 0."""
    return x.terms if isinstance(x, SuperForm) else {(): x}


def sum_entries(items: Sequence[Element | SuperForm]) -> Element | SuperForm:
    """The sum of a nonempty list of Elements and forms, for matrix entries
    and pairings that may hold either kind: an Element unless a form is
    among the items."""
    algebra = items[0].algebra
    if any(isinstance(x, SuperForm) for x in items):
        return SuperForm.sum(algebra, items)
    return Element.sum(algebra, items)


def d(x: Element | SuperForm) -> SuperForm:
    """Exterior derivative in one pass, d(c dw) = dc ^ dw, with an Element the
    form of degree 0: each partial of a monomial of c (GeneratorTable.partials)
    goes straight into its coefficient of dg ^ dw, sorted once per (w, g)."""
    if not isinstance(x, (Element, SuperForm)):
        raise TypeError("d expects an Element or SuperForm")
    table = x.algebra
    out: dict[Wedge, dict[Monomial, Scalar]] = {}
    for w, c in form_terms(x).items():
        # g -> (coefficient dict of the sorted dg ^ dw, its sign), or () when it vanishes
        targets: dict[int, tuple] = {}
        for mono, coeff in c.terms.items():
            for i, e, q in table.partials(mono):
                t = targets.get(i)
                if t is None:
                    merged = sort_wedge(table, (i,) + w) if w else (1, (i,))
                    t = targets[i] = (() if merged is None
                                      else (out.setdefault(merged[1], {}), merged[0]))
                if t:
                    acc, sign = t
                    e *= sign
                    s = coeff if e == 1 else -coeff if e == -1 else coeff * e
                    acc[q] = acc[q] + s if q in acc else s
    return form_of(table, out)


class DifferentialIdeal:
    """The form rule gen * dgen -> replacement beside an element rewrite
    system, applied in closed form.  gen is one even generator with
    coefficient 1 and dgen the differential of an even generator, both kept
    as indices: dgen appears at most once in a wedge and the replacement
    holds none, so no term is rewritten twice.
    """

    def __init__(self, rewrites: RewriteSystem, gen: Element, dgen: SuperForm,
                 replacement: SuperForm):
        table = self.algebra = rewrites.algebra
        self.rewrites = rewrites
        even = table.factors(next(iter(gen.terms), 0))[0]
        gi = even[0][0] if len(even) == 1 else None
        if gi is None or gen != table.gen(table.names[gi]):
            raise ValueError("the rule's generator must be one even generator, coefficient 1")
        di = next((w[0] for w in dgen.terms if len(w) == 1), None)
        if di is None or table.parities[di] or dgen != SuperForm(table, {(di,): table.one()}):
            raise ValueError("the rule's differential must be d of one even generator")
        if any(di in w for w in replacement.terms):
            raise ValueError("the replacement reintroduces the eliminated differential")
        self.gen, self.dgen, self.replacement = gi, di, replacement
        # the replacement's coefficients as the right factors of _multiply_into
        self._factors = [(w, table._factor(c.terms.items())) for w, c in replacement.terms.items()]

    def reduce(self, omega: SuperForm | Element) -> SuperForm:
        """The coefficients in normal form, then each term q * gen * dgen ^ rest
        rewritten once, to q * replacement ^ rest with its coefficients in
        normal form."""
        table, gi, di, reduce = self.algebra, self.gen, self.dgen, self.rewrites.reduce
        if omega.algebra is not table and omega.algebra != table:
            raise AlgebraMismatchError("form lives over a different generator table")
        out: dict[Wedge, dict[Monomial, Scalar]] = {}
        pieces: dict[Wedge, dict[Monomial, Scalar]] = {}
        for w, c in form_terms(omega).items():
            terms = reduce(c).terms
            quots = [(table.divide(m, gi), s) for m, s in terms.items()
                     if table.exponent(m, gi)] if di in w else ()
            if quots:
                terms = {m: s for m, s in terms.items() if not table.exponent(m, gi)}
                # dgen is even, so moving it to the front of w takes (-1)^pos
                pos = w.index(di)
                rest = w[:pos] + w[pos + 1:]
                for wr, factor in self._factors:
                    merged = sort_wedge(table, wr + rest)
                    if merged is not None:
                        table._multiply_into(pieces.setdefault(merged[1], {}), quots, factor,
                                             (merged[0] < 0) != (pos % 2 == 1))
            add_terms(out, w, terms)
        for w, t in pieces.items():
            add_terms(out, w, reduce(Element(table, t)).terms)
        return form_of(table, out)
