"""Slow reference routes that production no longer takes, kept as test oracles."""

from __future__ import annotations

from supersphere.algebra import (Element, GeneratorTable, RewriteSystem, SubstitutionMap,
                                 EVEN, ODD)
from supersphere.forms import SuperForm, d
from supersphere.scalars import Scalar


class SubstitutionLocalizer:
    """Forms on the group in the localization at b, by plain substitution.

    b* -> (1 - a a*) b~ and db* -> -b~ (a da* + a* da) - b~^2 (1 - a a*) db
    over the free algebra on a, a*, b, b~, eta, eta*, followed by the rewrite
    b b~ -> 1.  The output is an Element or SuperForm over that algebra, and
    it is zero exactly when the input lies in the differential ideal of
    a a* + b b* = 1; the torus-graded LocalizedModel must agree with it.
    """

    def __init__(self):
        self.table = GeneratorTable.build(
            conjugate_pairs=[("eta", "eta*", ODD)],
            self_conjugate=[("a", EVEN), ("a*", EVEN), ("b", EVEN), ("b~", EVEN)],
            order=["a", "a*", "b", "b~", "eta", "eta*"])
        t = self.table
        binv = t.gen("b~")
        self.rewrites = RewriteSystem(t, [(t.gen("b") * binv, t.one())])
        one_m = t.one() - t.gen("a") * t.gen("a*")
        self.images = {
            "a": t.gen("a"), "a*": t.gen("a*"), "b": t.gen("b"),
            "b*": one_m * binv,
            "eta": t.gen("eta"), "eta*": t.gen("eta*"),
        }
        da = SuperForm.differential(t, "a")
        dad = SuperForm.differential(t, "a*")
        db = SuperForm.differential(t, "b")
        self.differential_images = {
            "b*": -(binv * (t.gen("a") * dad + t.gen("a*") * da))
                  - (binv * binv * one_m) * db,
        }

    def project(self, x: Element | SuperForm):
        if isinstance(x, Element):
            return self.rewrites.reduce(x.substitute(self.images, self.table))
        return self._substitute_form(x).map_coefficients(self.rewrites.reduce)

    def _substitute_form(self, omega: SuperForm) -> SuperForm:
        """omega pulled through the images, db* sent to its explicit 1-form."""
        smap = SubstitutionMap(omega.algebra, self.images, self.table)
        total = SuperForm.zero(self.table)
        for w, c in omega.terms.items():
            term = SuperForm.from_element(smap.apply(c))
            for i in w:
                name = omega.algebra.names[i]
                img = self.differential_images.get(name)
                term = term * (d(smap.power(i, 1)) if img is None else img)
            total = total + term
        return total

    def is_zero_mod(self, x: Element | SuperForm) -> bool:
        return self.project(x).is_zero

    def torus_terms(self, x: Element | SuperForm) -> dict:
        """The projection re-encoded as ``TorusForm.terms``.

        After b b~ -> 1 each monomial a^i a*^j b^k b~^l has k = 0 or l = 0,
        so it is a^(i-j) b^(k-l) t^min(i, j) (a*^(j-i) when j > i), and
        distinct monomials give distinct (key, power of t).  The wedges hold
        no db~, so their indices are those of the group table.
        """
        if isinstance(x, Element):
            x = SuperForm.from_element(x)
        a, ad, b, binv = (self.table.index[n] for n in ("a", "a*", "b", "b~"))
        polys: dict[tuple, dict[int, Scalar]] = {}
        for w, c in self.project(x).terms.items():
            for (even, odd), s in c.terms.items():
                e = dict(even)
                key = (w, odd, e.get(a, 0) - e.get(ad, 0), e.get(b, 0) - e.get(binv, 0))
                polys.setdefault(key, {})[min(e.get(a, 0), e.get(ad, 0))] = s
        return {key: tuple(poly.get(m, Scalar.zero()) for m in range(max(poly) + 1))
                for key, poly in polys.items()}
