"""Slow reference routes that production no longer takes, kept as test oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from supersphere.algebra import (Element, GeneratorTable, RewriteSystem, SubstitutionMap,
                                 EVEN, ODD, graded_inverse)
from supersphere.berezin import FOUR_PI
from supersphere.forms import (DifferentialIdeal, SuperForm, add_terms, d, form_of, sort_wedge,
                               sum_entries, wedge_grassmann_parity)
from supersphere.localized import TorusForm
from supersphere.matrices import SuperMatrix, _blocks, _det
from supersphere.monopole import (CHERN_SCALAR, MINUS, base_space, chern_form,
                                  coordinate_chern_form, coordinate_images, group_space,
                                  normalize_sign)
from supersphere.scalars import Scalar, rat
from supersphere.trig import ChartError, PhaseHalfAngle, TrigPoly, integrate_half_angle


# The tuple monomial kernel, the oracle for the packed one of supersphere.algebra.
# A tuple monomial is (even part, odd part): the (generator index, exponent > 0)
# pairs sorted by index, and the odd generator indices, strictly increasing,
# as GeneratorTable.factors returns them.
TupleMonomial = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]


def mono_degree(mono: TupleMonomial) -> int:
    return sum(e for _, e in mono[0]) + len(mono[1])


def mono_key(mono: TupleMonomial, n_gens: int):
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


def mono_mul(m1: TupleMonomial, m2: TupleMonomial) -> tuple[int, TupleMonomial] | None:
    """Product of canonical tuple monomials: (sign, monomial), or None if zero."""
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


# Legendre's formula for the square roots of binomials, the oracle for
# scalars.sqrt_binomials, which steps one row from C(n, k) to C(n, k + 1).

def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if sieve[p]]


def sqrt_binomial(n: int, k: int) -> Scalar:
    """Exact sqrt of C(n, k) for 0 <= k <= n, with no trial division.

    C(n, k) has no prime factor above n; Legendre's formula gives the
    exponent of each prime p <= n as the sum over p**j of
    floor(n/p**j) - floor(k/p**j) - floor((n-k)/p**j).
    """
    if not 0 <= k <= n:
        raise ValueError("sqrt_binomial needs 0 <= k <= n, got n=%r, k=%r" % (n, k))
    g = m0 = 1
    for p in _primes_upto(n):
        e = 0
        q = p
        while q <= n:
            e += n // q - k // q - (n - k) // q
            q *= p
        g *= p ** (e >> 1)
        if e & 1:
            m0 *= p
    return Scalar(((m0, 0, g, 0, 1),))


# Words signed by an insertion sort, the oracle for GeneratorTable.element,
# which folds a word through GeneratorTable.multiply, and psi from such words,
# the oracle for psi built from its formula.

def sort_odd(indices: list[int]) -> int:
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


def word_by_sorting(table: GeneratorTable, coeff, word) -> Element:
    """coeff times the word: the even names counted, the odd ones sorted by sort_odd."""
    idx = [table.index[name] for name in word]
    odd = [i for i in idx if table.parities[i] == ODD]
    sign = sort_odd(odd)
    if not sign:
        return table.zero()
    even: dict[int, int] = {}
    for i in idx:
        if table.parities[i] == EVEN:
            even[i] = even.get(i, 0) + 1
    return Element(table, {table.monomial(even.items(), odd): Scalar.coerce(coeff) * sign})


def psi_from_words(sign: str, n: int) -> list[Element]:
    """The components of psi(sign, n), each written as generator words and
    normalized by GeneratorTable.element."""
    element = group_space().table.element
    u, v, h = ("a", "b", "eta") if normalize_sign(sign) == MINUS else ("a*", "b*", "eta*")
    half, minus_eighth = rat(1, 2), rat(-1, 8)
    comps = []
    for k in range(n):
        root = sqrt_binomial(n - 1, k)
        comps.append(element([(half * root, [h] + [u] * (n - 1 - k) + [v] * k)]))
    for k in range(n + 1):
        root = sqrt_binomial(n, k)
        w = [u] * (n - k) + [v] * k
        comps.append(element([(root, w), (minus_eighth * root, ["eta", "eta*"] + w)]))
    return comps


# The wedge product by split parts, the oracle for the one-pass SuperForm.__mul__:
# each right coefficient is split into its even and odd parts, each part is
# multiplied as an Element, negated as a whole when it must move past an odd
# wedge, and the Elements are merged per output wedge.

def split_parts_wedge(x: SuperForm, y: SuperForm) -> SuperForm:
    table = x.algebra
    right = [(w2, ((c2.even_part(), False), (c2.odd_part(), True)))
             for w2, c2 in y.terms.items()]
    out: dict = {}
    for w1, c1 in x.terms.items():
        odd_count = wedge_grassmann_parity(table, w1)
        for w2, parts in right:
            merged = sort_wedge(table, w1 + w2)
            if merged is None:
                continue
            sign, w = merged
            for c2_part, flip in parts:
                if c2_part.is_zero:
                    continue
                coeff = c1 * c2_part
                if (sign < 0) != (flip and odd_count):
                    coeff = -coeff
                out[w] = out[w] + coeff if w in out else coeff
    return SuperForm(table, out)


# The exterior derivative by recursion, the oracle for the one-pass forms.d:
# d of an Element is built as a form, and d of a form takes d(c) of every
# coefficient as a form of its own and sorts each differential into w.

def d_by_recursion(x: Element | SuperForm) -> SuperForm:
    table = x.algebra
    out: dict = {}
    if isinstance(x, Element):
        # dividing by one generator is injective, so distinct monomials give
        # distinct quotients and no two terms meet in the coefficient of dg
        for mono, coeff in x.terms.items():
            even_part, odd_part = table.factors(mono)
            for i, e in even_part:
                out.setdefault((i,), {})[table.divide(mono, i)] = coeff * e
            for k, i in enumerate(odd_part):
                out.setdefault((i,), {})[table.divide(mono, i)] = (
                    coeff if (len(odd_part) - k - 1) % 2 == 0 else -coeff)
        return form_of(table, out)
    for w, c in x.terms.items():
        for (i,), ci in d_by_recursion(c).terms.items():
            merged = sort_wedge(table, (i,) + w)
            if merged is not None:
                add_terms(out, merged[1], ci.terms, merged[0] < 0)
    return form_of(table, out)


# The differential ideal's rule to a fixpoint, the oracle for the one-pass
# DifferentialIdeal.reduce: each search finds one monomial q * gen in the
# coefficient of a wedge that holds dgen, splits it off and adds the piece
# q * replacement ^ rest with its coefficients reduced, until no term is hit.

def ideal_reduce_to_fixpoint(ideal: DifferentialIdeal, omega: SuperForm) -> SuperForm:
    table, gi, di, repl = ideal.algebra, ideal.gen, ideal.dgen, ideal.replacement

    def reduced(form: SuperForm) -> SuperForm:
        return SuperForm(table, {w: ideal.rewrites.reduce(c) for w, c in form.terms.items()})

    work = reduced(omega)
    while True:
        hit = next(((w, mono) for w, c in work.terms.items() if di in w
                    for mono in c.terms if table.exponent(mono, gi)), None)
        if hit is None:
            return work
        w, mono = hit
        coeff = work.terms[w].terms[mono]
        remainder = dict(work.terms[w].terms)
        del remainder[mono]
        new_terms = dict(work.terms)
        new_terms[w] = Element(table, remainder)
        base = SuperForm(table, new_terms)
        # mono = quot * gen (the even generator commutes freely); the
        # eliminated differential moves to the front of the wedge
        quot = table.divide(mono, gi)
        pos = w.index(di)
        rest = w[:pos] + w[pos + 1:]
        sign, _ = sort_wedge(table, (di,) + rest)
        front = Element(table, {quot: coeff if sign > 0 else -coeff})
        piece = SuperForm.from_element(front) * repl * SuperForm(table, {rest: table.one()})
        work = base + reduced(piece)


def coordinate_volume_form() -> SuperForm:
    """x0 dx1 dx2 + x1 dx2 dx0 + x2 dx0 dx1 in the coordinate algebra."""
    s = base_space()
    dx0, dx1, dx2 = (s.differential(nm) for nm in ("x0", "x1", "x2"))
    return s.x0 * dx1 * dx2 + s.x1 * dx2 * dx0 + s.x2 * dx0 * dx1


# The product entry by entry, the oracle for the one-pass SuperMatrix.__matmul__:
# each of the d products of an entry is its own Element or SuperForm, and the
# entry is their n-ary sum.

def matmul_by_entries(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    x._check_shape(y)
    d = range(x.shape.dim)
    rows = [[sum_entries([x.entries[i][k] * y.entries[k][j] for k in d]) for j in d]
            for i in d]
    parity = None
    if x.parity is not None and y.parity is not None:
        parity = (x.parity + y.parity) % 2
    return SuperMatrix(x.shape, rows, parity)


# The superdeterminant by three inverses, the oracle for sdet's one inverse:
# det D is inverted inside D^-1 and again for the result, and det(A - B D^-1 C)
# is inverted only to check that it can be.

def _inverse_by_adjugate(entries: list[list[Element]], algebra: GeneratorTable,
                         rewrites: RewriteSystem) -> list[list[Element]]:
    d = len(entries)
    det_inv = graded_inverse(rewrites.reduce(_det(entries, algebra)), rewrites)
    if d == 1:
        return [[det_inv]]
    inv = [[algebra.zero()] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [[entries[r][c] for c in range(d) if c != j] for r in range(d) if r != i]
            cof = _det(minor, algebra)
            inv[j][i] = rewrites.reduce((-cof if (i + j) % 2 else cof) * det_inv)
    return inv


def sdet_by_three_inverses(x: SuperMatrix, rewrites: RewriteSystem) -> Element:
    algebra = rewrites.algebra
    even_idx, odd_idx = _blocks(x)
    A = [[x.entries[i][j] for j in even_idx] for i in even_idx]
    B = [[x.entries[i][j] for j in odd_idx] for i in even_idx]
    C = [[x.entries[i][j] for j in even_idx] for i in odd_idx]
    D = [[x.entries[i][j] for j in odd_idx] for i in odd_idx]
    if not odd_idx:
        return rewrites.reduce(_det(A, algebra))
    D_inv = _inverse_by_adjugate(D, algebra, rewrites)
    m, n = len(even_idx), len(odd_idx)
    schur = [[rewrites.reduce(Element.sum(algebra, [A[i][j]] + [
        -(B[i][k] * D_inv[k][l] * C[l][j]) for k in range(n) for l in range(n)]))
        for j in range(m)] for i in range(m)]
    det_schur = rewrites.reduce(_det(schur, algebra))
    graded_inverse(det_schur, rewrites)
    det_D = rewrites.reduce(_det(D, algebra))
    return rewrites.reduce(det_schur * graded_inverse(det_D, rewrites))


# The circle action by substitution, the oracle for the charge tests: the group
# generators with the circle pair w, w* adjoined, b b* -> 1 - a a* and w w* -> 1.
CIRCLE_TABLE = GeneratorTable.build(conjugate_pairs=[
    ("a", "a*", EVEN), ("b", "b*", EVEN), ("eta", "eta*", ODD), ("w", "w*", EVEN)])
CIRCLE_REWRITES = (
    RewriteSystem(CIRCLE_TABLE, CIRCLE_TABLE.gen("b") * CIRCLE_TABLE.gen("b*"),
                  CIRCLE_TABLE.one() - CIRCLE_TABLE.gen("a") * CIRCLE_TABLE.gen("a*")),
    RewriteSystem(CIRCLE_TABLE, CIRCLE_TABLE.gen("w") * CIRCLE_TABLE.gen("w*"),
                  CIRCLE_TABLE.one()))


def circle_reduce(x: Element) -> Element:
    """The normal form modulo both circle rules, applied in turn.

    The two leads share no generator and neither replacement holds the other
    lead, so the second reduction leaves the first's output irreducible.
    """
    for rewrites in CIRCLE_REWRITES:
        x = rewrites.reduce(x)
    return x


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
        self.rewrites = RewriteSystem(t, t.gen("b") * binv, t.one())
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
        form = self._substitute_form(x)
        return SuperForm(form.algebra, {w: self.rewrites.reduce(c) for w, c in form.terms.items()})

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
            for mono, s in c.terms.items():
                even, odd = self.table.factors(mono)
                e = dict(even)
                key = (w, odd, e.get(a, 0) - e.get(ad, 0), e.get(b, 0) - e.get(binv, 0))
                polys.setdefault(key, {})[min(e.get(a, 0), e.get(ad, 0))] = s
        return {key: tuple(poly.get(m, Scalar.zero()) for m in range(max(poly) + 1))
                for key, poly in polys.items()}


# -- factorizations into the bilinear invariants -------------------------------
# The factorizations of the per-monomial oracle of the coordinate emission; they
# work on generator counts, not on packed monomials.

def _counts(table: GeneratorTable, mono) -> dict[str, int]:
    even, odd = table.factors(mono)
    counts = {table.names[i]: e for i, e in even}
    counts.update((table.names[i], 1) for i in odd)
    return counts


def factor_invariants(table: GeneratorTable, mono) -> tuple[str, ...]:
    """Names of the bilinear invariants whose product is +-mono, odd one
    first, then a a*, a b*, b a*, b b* as often as each divides."""
    counts = {name: 0 for name in ("a", "a*", "b", "b*")}
    counts.update(_counts(table, mono))
    has_eta, has_etad = counts.pop("eta", 0), counts.pop("eta*", 0)
    chosen: list[str] = []
    if has_eta and has_etad:
        chosen.append("eta eta*")
    elif has_eta or has_etad:
        partner = next((p for p in (("a*", "b*") if has_eta else ("a", "b")) if counts[p]), None)
        if partner is None:
            raise ValueError("unbalanced odd monomial %s" % table.mono_str(mono))
        counts[partner] -= 1
        chosen.append("eta " + partner if has_eta else partner + " eta*")
    for left, right in (("a", "a*"), ("a", "b*"), ("b", "a*"), ("b", "b*")):
        k = min(counts[left], counts[right])
        chosen += ["%s %s" % (left, right)] * k
        counts[left] -= k
        counts[right] -= k
    if any(counts.values()):
        raise ValueError("monomial %s is not U(1)-invariant" % table.mono_str(mono))
    return tuple(chosen)


def random_factorization(table: GeneratorTable, mono, names, rng) -> tuple[str, ...]:
    """Divide mono down to 1 by invariants of names ("x y": generators x, y),
    each step taking one that divides at random (rng.choice)."""
    counts = _counts(table, mono)
    chosen: list[str] = []
    while any(counts.values()):
        dividing = [name for name in names
                    if all(counts.get(gen, 0) for gen in name.split())]
        if not dividing:
            raise ValueError("monomial %s is not a product of the invariants"
                             % table.mono_str(mono))
        name = rng.choice(dividing)
        for gen in name.split():
            counts[gen] -= 1
        chosen.append(name)
    return tuple(chosen)


# -- derivatives of half-angle polynomials -------------------------------------
# berezin._add_jacobian takes both partials of a term pair in one pass; these
# build each derivative as its own PhaseHalfAngle, the route it replaced.

def _acc(out: dict, key, val: Scalar) -> None:
    out[key] = out[key] + val if key in out else val


def partial_theta(f: PhaseHalfAngle) -> PhaseHalfAngle:
    """d/dtheta with theta the full angle: d cos(t/2) = -sin(t/2)/2 dt."""
    out: dict[tuple[int, int, int], Scalar] = {}
    for (hc, hs, k), v in f.terms.items():
        if hc:
            _acc(out, (hc - 1, hs + 1, k), v * rat(-hc, 2))
        if hs:
            _acc(out, (hc + 1, hs - 1, k), v * rat(hs, 2))
    return PhaseHalfAngle(out)


def partial_phi(f: PhaseHalfAngle) -> PhaseHalfAngle:
    out: dict[tuple[int, int, int], Scalar] = {}
    for (hc, hs, k), v in f.terms.items():
        if k:
            _acc(out, (hc, hs, k), v * Scalar.of(0, k))
    return PhaseHalfAngle(out)


def jacobian_by_partials(u: PhaseHalfAngle, v: PhaseHalfAngle) -> PhaseHalfAngle:
    """The d theta ^ d phi coefficient of du ^ dv, from four derivatives."""
    return partial_theta(u) * partial_phi(v) - partial_phi(u) * partial_theta(v)


# -- the cartesian chart of the base -------------------------------------------
# berezin_integral pulls a form in the sphere coordinates back along the orbit
# map and through the group section chart, whose entries are unit monomials;
# this chart of the base and its pullback through powers of its entries, the
# route it replaced, are its oracle.

def base_chart() -> dict[str, PhaseHalfAngle]:
    """x0 = cos t, x1 = sin t cos phi, x2 = sin t sin phi."""
    cs = PhaseHalfAngle.monomial(hc=1, hs=1)
    plus = PhaseHalfAngle.monomial(k=1)
    minus = PhaseHalfAngle.monomial(k=-1)
    return {
        "x0": PhaseHalfAngle.monomial(hc=2) - PhaseHalfAngle.monomial(hs=2),
        "x1": cs * (plus + minus),
        "x2": cs * (plus - minus) * Scalar.of(0, -1),
    }


# the base chart's integral of the reference volume form against
# d theta ^ d phi; the tests derive it again from the volume form
BASE_CHART_VOLUME = FOUR_PI


def chart_powers(table: GeneratorTable, chart) -> Callable[[int, int], PhaseHalfAngle]:
    """power(idx, exp): the chart expression of generator idx to the power
    exp; each power is built once per returned function."""
    powers: dict[int, list[PhaseHalfAngle]] = {}

    def power(idx: int, exp: int) -> PhaseHalfAngle:
        pows = powers.get(idx)
        if pows is None:
            name = table.names[idx]
            if name not in chart:
                raise ChartError("chart does not supply generator %r" % name)
            pows = powers[idx] = [chart[name]]
        while len(pows) < exp:
            pows.append(pows[-1] * pows[0])
        return pows[exp - 1]
    return power


def element_pullback_by_powers(x: Element, power) -> PhaseHalfAngle:
    """The body element x through the powers of a chart: each monomial is
    the product of its generators' powers times its coefficient."""
    table = x.algebra
    out = PhaseHalfAngle.zero()
    for mono, scal in x.terms.items():
        even, odd = table.factors(mono)
        if odd:
            raise ChartError("form still contains odd generators; body-project first")
        part = PhaseHalfAngle.constant(scal)
        for idx, exp in even:
            part = part * power(idx, exp)
        out = out + part
    return out


def chart_pullback_by_powers(omega: SuperForm, chart) -> PhaseHalfAngle:
    """The d theta ^ d phi density of a body-projected form through any
    chart, by the powers of its entries and the four partial derivatives."""
    table = omega.algebra
    power = chart_powers(table, chart)
    top = PhaseHalfAngle.zero()
    for w, coeff in omega.terms.items():
        if any(table.parities[i] for i in w):
            raise ChartError("form still contains odd differentials; body-project first")
        value = element_pullback_by_powers(coeff, power)
        exprs = [power(idx, 1) for idx in w]
        if len(exprs) == 2:
            top = top + value * jacobian_by_partials(*exprs)
    return top


def base_chart_integral(omega: SuperForm) -> Scalar:
    """The Berezin integral of a form in the sphere coordinates through the
    base chart, normalised so that the reference volume integrates to 4 pi."""
    top = chart_pullback_by_powers(omega.body_project(), base_chart())
    return integrate_half_angle(top) * FOUR_PI / BASE_CHART_VOLUME


# -- the half-angle integral, one Beta value per term ---------------------------
# trig.integrate_half_angle sums each kind's Beta values as integers over one
# common denominator; this adds them as Scalars term by term, the route it
# replaced.

def integrate_half_angle_by_terms(f: PhaseHalfAngle) -> Scalar:
    """Exact double integral over theta in [0, pi], phi in [0, 2 pi]: for
    k = 0, v times 2 pi B((hc+1)/2, (hs+1)/2), each Beta value reduced on
    its own; every monomial needs hc + hs even."""
    odd = even = Scalar.zero()      # the rational and the pi-times-rational parts
    fact = [1]
    for (hc, hs, k), v in f.terms.items():
        if (hc + hs) % 2:
            raise ValueError("cos^%d sin^%d of the half angle has no whole-angle form" % (hc, hs))
        if k:
            continue
        while len(fact) <= max(hc, hs):
            fact.append(fact[-1] * len(fact))
        p, q = hc >> 1, hs >> 1
        if hc & 1:
            odd = odd + v * rat(fact[p] * fact[q], fact[p + q + 1])
        else:
            even = even + v * rat(fact[hc] * fact[hs],
                                  4 ** (p + q) * fact[p] * fact[q] * fact[p + q])
    return odd * Scalar.of(2, 0, 1, 1) + even * Scalar.of(2, 0, 1, 2)


# -- numeric quadrature -------------------------------------------------------

QUAD_ORDER = 64   # Gauss-Legendre points per axis


def to_complex(x: Scalar) -> complex:
    """x as a complex float: the sum of (re + i im) sqrt(m) pi^k over its components."""
    return sum((complex(re, im) * math.sqrt(rad) * math.pi ** pi
                for rad, pi, re, im in x.components()), 0j)


def evaluate_trigpoly(f: TrigPoly, theta: float, phi: float) -> complex:
    """f at one point: sum c cos^p(theta) sin^q(theta) cos^r(phi) sin^s(phi)."""
    total = 0j
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    for (p, q, r, s), c in f.terms.items():
        total += to_complex(c) * ct ** p * st ** q * cp ** r * sp ** s
    return total


def evaluate_grid(f: PhaseHalfAngle | TrigPoly, thetas, phis):
    """f on the outer grid thetas x phis (numpy arrays)."""
    total = np.zeros((len(thetas), len(phis)), dtype=complex)
    if isinstance(f, TrigPoly):
        ct, st = np.cos(thetas), np.sin(thetas)
        cp, sp = np.cos(phis), np.sin(phis)
        for (p, q, r, s), c in f.terms.items():
            total += to_complex(c) * np.outer(ct ** p * st ** q, cp ** r * sp ** s)
    else:
        ch, sh = np.cos(thetas / 2), np.sin(thetas / 2)
        for (hc, hs, k), v in f.terms.items():
            total += to_complex(v) * np.outer(ch ** hc * sh ** hs, np.exp(1j * k * phis))
    return total


def quad_oracle(f: PhaseHalfAngle | TrigPoly) -> complex:
    """Product Gauss-Legendre approximation of the exact double integral
    over theta in [0, pi], phi in [0, 2 pi]."""
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
    thetas = (nodes + 1.0) * (np.pi / 2.0)
    phis = (nodes + 1.0) * np.pi
    grid = evaluate_grid(f, thetas, phis)
    w_t = weights * (np.pi / 2.0)
    w_p = weights * np.pi
    return complex(w_t @ grid @ w_p)


# -- the coordinate Chern form against the group-space one ---------------------

def coordinate_chern_form_corrected(sign: str, n: int) -> SuperForm:
    """coordinate_chern_form with +2 x0 dxi- dxi+ in its last term.

    The verbatim term is -2 x0 dxi- dxi+ times 1/(4 pi i), so the corrected
    form adds 4 x0 dxi- dxi+ / (4 pi i) = -(i/pi) x0 dxi- dxi+, negated for
    the + sign like the rest of the form.
    """
    s = base_space()
    fix = (s.x0 * s.differential("xi-") * s.differential("xi+")) * Scalar.of(0, -1, 1, -1)
    return coordinate_chern_form(sign, n) + (fix if normalize_sign(sign) == MINUS else -fix)


@dataclass
class CoordinateChernReport:
    """Comparison of the coordinate Chern expression with the curvature route."""

    n: int
    verbatim_matches: bool
    corrected_matches: bool
    difference: TorusForm | None


def coordinate_chern_report(n: int) -> CoordinateChernReport:
    """Check both coordinate variants against the group-space Chern form.

    The group-space computation is authoritative; a mismatch of the verbatim
    transcription is reported with its witness, never patched silently.
    """
    g = group_space()
    images = coordinate_images()
    group_form = chern_form(MINUS, n)
    verbatim = coordinate_chern_form(MINUS, n).substitute(images, g.table)
    corrected = coordinate_chern_form_corrected(MINUS, n).substitute(images, g.table)
    v_ok = g.equal_mod(verbatim, group_form)
    c_ok = g.equal_mod(corrected, group_form)
    witness = None if v_ok else g.localizer.project(verbatim - group_form)
    return CoordinateChernReport(n, v_ok, c_ok, witness)


# The closed forms of supersphere.monopole as the SuperForm algebra builds
# them: sums and wedge products of fresh differentials, the route production
# took before it read each form from its term table.

def connection_closed_form_by_algebra(sign: str, n: int) -> SuperForm:
    """(n - 1/4 eta eta*)(a da* + b db*) + 1/8 (eta deta* + eta* deta), negated
    for the + sign."""
    sign = normalize_sign(sign)
    g = group_space()
    da_d, db_d, de, ded = (g.differential(x) for x in ("a*", "b*", "eta", "eta*"))
    form = ((g.table.scalar(n) - rat(1, 4) * g.eta * g.etad) * (g.a * da_d + g.b * db_d)
            + rat(1, 8) * (g.eta * ded + g.etad * de))
    return form if sign == MINUS else -form


def chern_closed_form_by_algebra(sign: str, n: int) -> SuperForm:
    """-(1/(2 pi i)) [n (da da* + db db*) + 1/4 d(a eta*) d(eta a*)
    + 1/4 d(b eta*) d(eta b*)], negated for the + sign."""
    sign = normalize_sign(sign)
    g = group_space()
    da, dad, db, dbd = (g.differential(x) for x in ("a", "a*", "b", "b*"))
    quarter = rat(1, 4)
    form = (g.table.scalar(n) * (da * dad + db * dbd)
            + quarter * d(g.a * g.etad) * d(g.eta * g.ad)
            + quarter * d(g.b * g.etad) * d(g.eta * g.bd))
    form = form * CHERN_SCALAR
    return form if sign == MINUS else -form


def chern_intermediate_form_by_algebra(sign: str, n: int) -> SuperForm:
    """-(1/(2 pi i)) [(da da* + db db*)(n - 1/4 eta eta*)
    + 1/4 (a da* + b db*)(eta deta* - eta* deta) + 1/4 deta deta*]."""
    sign = normalize_sign(sign)
    g = group_space()
    da, dad, db, dbd, de, ded = (g.differential(x)
                                 for x in ("a", "a*", "b", "b*", "eta", "eta*"))
    form = ((da * dad + db * dbd) * (g.table.scalar(n) - rat(1, 4) * g.eta * g.etad)
            + rat(1, 4) * (g.a * dad + g.b * dbd) * (g.eta * ded - g.etad * de)
            + rat(1, 4) * de * ded)
    form = form * CHERN_SCALAR
    return form if sign == MINUS else -form
