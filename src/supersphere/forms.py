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

from typing import Iterable, Mapping, Sequence

from .algebra import (AlgebraMismatchError, Element, GeneratorTable, Monomial,
                      ParityError, RewriteSystem, SubstitutionMap, mono_parity)
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
        if isinstance(other, (Scalar, int)):
            return SuperForm.from_element(self.algebra.scalar(other))
        raise TypeError("cannot coerce %r to a form" % (other,))

    # -- linear structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other) -> "SuperForm":
        other = self._coerce(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms[w] + c if w in terms else c
        return SuperForm(self.algebra, terms)

    __radd__ = __add__

    def __neg__(self) -> "SuperForm":
        return SuperForm(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> "SuperForm":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __eq__(self, other) -> bool:
        if isinstance(other, (Element, int, Scalar)):
            other = self._coerce(other)
        if not isinstance(other, SuperForm):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    # -- multiplication -------------------------------------------------------------

    def __mul__(self, other) -> "SuperForm":
        """Wedge product; the exterior product symbol is left implicit."""
        if isinstance(other, (Scalar, int)):
            return SuperForm(self.algebra, {w: c * other for w, c in self.terms.items()})
        other = self._coerce(other)
        table = self.algebra
        out: dict[Wedge, Element] = {}
        for w1, c1 in self.terms.items():
            odd_count = wedge_grassmann_parity(table, w1)
            for w2, c2 in other.terms.items():
                merged = sort_wedge(table, w1 + w2)
                if merged is None:
                    continue
                sign, w = merged
                # move the even/odd parts of c2 through the differentials of w1
                for c2_part, flip in ((c2.even_part(), False), (c2.odd_part(), True)):
                    if c2_part.is_zero:
                        continue
                    coeff = c1 * c2_part
                    if (sign < 0) != (flip and odd_count):
                        coeff = -coeff
                    out[w] = out[w] + coeff if w in out else coeff
        return SuperForm(self.algebra, out)

    def __rmul__(self, other) -> "SuperForm":
        if isinstance(other, (Element, Scalar, int)):
            return self._coerce(other) * self
        return NotImplemented

    # -- structure helpers ------------------------------------------------------------

    def form_degrees(self) -> set[int]:
        return {len(w) for w in self.terms}

    def grassmann_parity(self) -> int:
        parities = set()
        for w, c in self.terms.items():
            wp = wedge_grassmann_parity(self.algebra, w)
            for mono in c.terms:
                parities.add((mono_parity(mono) + wp) & 1)
        if len(parities) > 1:
            raise ParityError("form has mixed Grassmann parity")
        return parities.pop() if parities else 0

    # -- operations ---------------------------------------------------------------------

    def diamond(self) -> "SuperForm":
        """Involution: coefficients conjugate, (dg)^dia = d(g^dia) factorwise."""
        table = self.algebra
        out: dict[Wedge, Element] = {}
        for w, c in self.terms.items():
            sign = 1
            image: list[int] = []
            for i in w:
                sign *= table.diamond_sign[i]
                image.append(table.diamond_partner[i])
            merged = sort_wedge(table, image)
            if merged is None:
                continue
            s2, wn = merged
            coeff = c.diamond()
            if sign * s2 < 0:
                coeff = -coeff
            out[wn] = out[wn] + coeff if wn in out else coeff
        return SuperForm(table, out)

    def body_project(self) -> "SuperForm":
        """Kill odd generators and their differentials; body() the coefficients."""
        table = self.algebra
        out: dict[Wedge, Element] = {}
        for w, c in self.terms.items():
            if any(table.parities[i] for i in w):
                continue
            cb = c.body()
            if not cb.is_zero:
                out[w] = out[w] + cb if w in out else cb
        return SuperForm(table, out)

    def map_coefficients(self, fn) -> "SuperForm":
        return SuperForm(self.algebra, {w: fn(c) for w, c in self.terms.items()})

    def substitute(self, images: Mapping[str, Element],
                   target: GeneratorTable | None = None,
                   differential_images: Mapping[str, "SuperForm"] | None = None
                   ) -> "SuperForm":
        """Pull the form through an algebra map: coefficients substitute and
        each differential dg maps to d(image of g), unless an explicit 1-form
        image for dg is supplied.  One substitution map serves every
        coefficient, so each power of an image is built once."""
        smap = SubstitutionMap(self.algebra, images, target)
        diff_images: dict[int, SuperForm] = {}
        out: dict[Wedge, Element] = {}
        for w, c in self.terms.items():
            term = SuperForm.from_element(smap.apply(c))
            for i in w:
                img = diff_images.get(i)
                if img is None:
                    name = self.algebra.names[i]
                    if differential_images and name in differential_images:
                        img = differential_images[name]
                    else:
                        img = d(smap.power(i, 1))
                    diff_images[i] = img
                term = term * img
            for wn, cn in term.terms.items():
                out[wn] = out[wn] + cn if wn in out else cn
        return SuperForm(smap.target, out)

    # -- display / serialization -----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = self.algebra.names
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            wedge = "^".join("d" + names[i] for i in w) or "1"
            bits.append("(%r) %s" % (self.terms[w], wedge))
        return " + ".join(bits)

    def to_obj(self) -> list[dict]:
        names = self.algebra.names
        return [{"coeff": self.terms[w].to_obj(), "wedge": [names[i] for i in w]}
                for w in sorted(self.terms, key=lambda w: (len(w), w))]

    @staticmethod
    def from_obj(algebra: GeneratorTable, obj: Iterable[dict]) -> "SuperForm":
        total = SuperForm.zero(algebra)
        for term in obj:
            coeff = Element.from_obj(algebra, term["coeff"])
            wedge = tuple(algebra._idx(n) for n in term["wedge"])
            piece = SuperForm.from_element(coeff)
            for i in wedge:
                piece = piece * SuperForm(algebra, {(i,): algebra.one()})
            total = total + piece
        return total


def d(x: Element | SuperForm) -> SuperForm:
    """Exterior derivative.

    On a monomial written in canonical order, each factor f contributes
    (monomial with f removed) * df with the sign of moving df rightwards past
    the remaining factors (odd-odd swaps only).
    """
    if isinstance(x, Element):
        table = x.algebra
        out: dict[Wedge, Element] = {}
        for mono, coeff in x.terms.items():
            even_part, odd_part = mono
            for i, e in even_part:
                if e == 1:
                    rest_even = tuple((j, ee) for j, ee in even_part if j != i)
                else:
                    rest_even = tuple((j, ee - 1) if j == i else (j, ee)
                                      for j, ee in even_part)
                quot: Monomial = (rest_even, odd_part)
                val = Element(table, {quot: coeff * e})
                out[(i,)] = out[(i,)] + val if (i,) in out else val
            for k, i in enumerate(odd_part):
                quot = (even_part, odd_part[:k] + odd_part[k + 1:])
                c = coeff if (len(odd_part) - k - 1) % 2 == 0 else -coeff
                val = Element(table, {quot: c})
                out[(i,)] = out[(i,)] + val if (i,) in out else val
        return SuperForm(table, out)
    if isinstance(x, SuperForm):
        total = SuperForm.zero(x.algebra)
        for w, c in x.terms.items():
            dc = d(c)
            piece_terms: dict[Wedge, Element] = {}
            for (i,), ci in dc.terms.items():
                merged = sort_wedge(x.algebra, (i,) + w)
                if merged is None:
                    continue
                sign, wn = merged
                val = ci if sign > 0 else -ci
                piece_terms[wn] = piece_terms[wn] + val if wn in piece_terms else val
            total = total + SuperForm(x.algebra, piece_terms)
        return total
    raise TypeError("d expects an Element or SuperForm")


def wedge(a: SuperForm | Element, b: SuperForm | Element) -> SuperForm:
    if isinstance(a, Element):
        a = SuperForm.from_element(a)
    return a * b


def body_project(omega: SuperForm) -> SuperForm:
    return omega.body_project()


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
            if gmono[1] or len(gmono[0]) != 1 or gmono[0][0][1] != 1 or gcoeff != Scalar.one():
                raise ValueError("form rule generator part must be a single even generator")
            gi = gmono[0][0][0]
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
                        for mono in c.terms if dict(mono[0]).get(gi, 0) >= 1), None)
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
            exps = dict(mono[0])
            exps[gi] -= 1
            quot: Monomial = (tuple(sorted((i, e) for i, e in exps.items() if e > 0)),
                              mono[1])
            # move the eliminated differential to the front of the wedge
            pos = w.index(di)
            rest = w[:pos] + w[pos + 1:]
            sign, _ = sort_wedge(self.algebra, (di,) + rest)
            front = Element(self.algebra, {quot: coeff if sign > 0 else -coeff})
            piece = (SuperForm.from_element(front) * repl
                     * SuperForm(self.algebra, {rest: self.algebra.one()}))
            # base coefficients stay normal; only the new piece needs reducing
            work = base + piece.map_coefficients(self.rewrites.reduce)
