"""Equality modulo the ideal of a a* + b b* = 1, in a torus-graded model.

``LocalizedModel.project`` maps a form over the group generators a, a*, b,
b*, eta, eta* to its canonical ``TorusForm``, so a form lies in the
differential ideal of the relation exactly when its projection is zero, and
two forms are equal modulo the ideal exactly when their projections are.
``LocalizedModel.is_zero_mod``, which ``GroupSpace.equal_mod`` asks about a
difference, projects without expanding: each key's polynomial is decided
zero in the Bernstein basis and never written in powers of t.
"""

from __future__ import annotations

from .algebra import AlgebraMismatchError, Element, GeneratorTable
from .forms import SuperForm, form_terms, sort_wedge
from .scalars import Scalar, binomial_sum, binomial_sum_is_zero


class TorusForm:
    """A form modulo the ideal, in the canonical torus-graded encoding.

    ``terms`` maps (wedge, odd monomial, p, q) to the tuple of coefficients
    of t^0, t^1, ... (t = a a*, trailing zeros stripped) of the polynomial
    f with coefficient a^p b^q f(t), read a*^(-p) b^q f(t) when p < 0.  Keys
    with a zero polynomial are absent, so equal classes have equal terms.
    A TorusForm is built from each key's terms (sign, s, m, l) of
    sign * s * t^m * (1 - t)^l and expands them on the first read of
    ``terms``; before that, ``is_zero`` decides each key in the Bernstein
    basis (scalars.binomial_sum_is_zero).  Immutable; do not mutate
    ``terms``.
    """

    __slots__ = ("_groups", "_terms", "names")

    # longest repr before the remaining keys are summarised
    REPR_LIMIT = 400

    def __init__(self, groups: dict[tuple, list[tuple[int, Scalar, int, int]]],
                 names: tuple[str, ...]):
        self._groups = groups
        self._terms: dict[tuple, tuple[Scalar, ...]] | None = None
        self.names = names

    @property
    def terms(self) -> dict[tuple, tuple[Scalar, ...]]:
        if self._terms is None:
            self._terms = {key: poly for key, group in self._groups.items()
                           if (poly := binomial_sum(group))}
            self._groups = None
        return self._terms

    @property
    def is_zero(self) -> bool:
        if self._terms is None:
            return all(binomial_sum_is_zero(group) for group in self._groups.values())
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusForm):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def _key_str(self, key: tuple) -> str:
        wedge, odd, p, q = key
        names = self.names
        bits = ["a^%d" % p] if p > 0 else ["a*^%d" % -p] if p < 0 else []
        bits.extend(["b^%d" % q] if q else [])
        bits.extend(names[i] for i in odd)
        return "%s %s" % (" ".join(bits) or "1", "^".join("d" + names[i] for i in wedge) or "1")

    def __repr__(self) -> str:
        text, shown = "", 0
        for key in sorted(self.terms):
            piece = "%s%s: %r" % (", " if text else "", self._key_str(key), list(self.terms[key]))
            if len(text) + len(piece) > self.REPR_LIMIT:
                text += piece[:self.REPR_LIMIT - len(text)]
                break
            text += piece
            shown += 1
        hidden = len(self.terms) - shown
        return "TorusForm(%s%s)" % (text, "... (%d more keys)" % hidden if hidden else "")


class LocalizedModel:
    """Faithful model of forms on the group: b* := (1 - a a*) b^(-1).

    The relation hypersurface a a* + b b* = 1 is smooth, so its module of
    Kahler differentials is torsion free and injects into the localization
    at b: the forms over a, a*, b, b^(-1), eta, eta* on da, da*, db, deta,
    deta*.  Substituting b* and db* accordingly kills the differential
    ideal exactly.

    The relation is invariant under the torus a -> u a, b -> v b (|u| =
    |v| = 1), so a Laurent monomial a^i a*^j b^q is fixed by its bidegree
    (p, q) = (i - j, q) and a power of t = a a*.  ``project`` writes each
    term c a^i a*^j b^k b*^l (odd) (wedge) as the key (wedge, odd, i - j,
    k - l) with the polynomial c t^min(i, j) (1 - t)^l, and each db* as
    -a b^(-1) da* - a* b^(-1) da - (1 - t) b^(-2) db: a shift of (p, q) and
    one more power of t or of (1 - t).  The result is a canonical TorusForm,
    so membership in the ideal is a zero test and equality modulo the ideal
    is structural equality; ``is_zero_mod`` runs the zero test on the
    unexpanded projection.  This is the U(1) charge grading of
    check_equivariance taken one grading further.
    """

    def __init__(self, table: GeneratorTable):
        self.table = table
        self._a, self._ad, self._b, self._bd = (table._idx(n) for n in ("a", "a*", "b", "b*"))
        # db* -> (differential, dp, dq, extra power of (1 - t), t rule), each
        # with sign -1; the t rule r adds a power of t when r * p < 0
        # (a times a*^k, or a* times a^k)
        self._dbd_images = ((self._ad, 1, -1, 0, 1), (self._a, -1, -1, 0, -1),
                            (self._b, 0, -2, 1, 0))

    def _wedge_images(self, wedge: tuple[int, ...]) -> list[tuple]:
        """(sign, wedge, dp, dq, dl, t rule) for each term of the wedge's image."""
        if self._bd not in wedge:
            return [(1, wedge, 0, 0, 0, 0)]
        pos = wedge.index(self._bd)
        out = []
        for i, dp, dq, dl, rule in self._dbd_images:
            merged = sort_wedge(self.table, wedge[:pos] + (i,) + wedge[pos + 1:])
            if merged is not None:
                out.append((-merged[0], merged[1], dp, dq, dl, rule))
        return out

    def project(self, x: Element | SuperForm) -> TorusForm:
        """The class of x modulo the ideal; x must live over the group table.
        The polynomials are left as sums of t^m (1 - t)^l until ``terms``
        is read, which ``is_zero`` does not need."""
        if x.algebra is not self.table and x.algebra != self.table:
            raise AlgebraMismatchError("the localized model takes forms over the group table, "
                                       "not over %r" % (x.algebra,))
        a, ad, b, bd = self._a, self._ad, self._b, self._bd
        exponent, odd_factors = self.table.exponent, self.table.odd_factors
        groups: dict[tuple, list] = {}
        for wedge, coeff in form_terms(x).items():
            images = self._wedge_images(wedge)
            for mono, s in coeff.terms.items():
                odd = odd_factors(mono)
                i, j, k, l = (exponent(mono, a), exponent(mono, ad), exponent(mono, b),
                              exponent(mono, bd))
                for sign, w, dp, dq, dl, rule in images:
                    groups.setdefault((w, odd, i - j + dp, k - l + dq), []).append(
                        (sign, s, min(i, j) + (rule * (i - j) < 0), l + dl))
        return TorusForm(groups, self.table.names)

    def is_zero_mod(self, x: Element | SuperForm) -> bool:
        """Whether x lies in the differential ideal: project(x).is_zero,
        decided with no polynomial expanded in powers of t."""
        return self.project(x).is_zero
