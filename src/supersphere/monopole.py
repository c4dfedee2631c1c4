"""Monopole projectors over the (2,2)-supersphere.

Builds the unitary group element, the sphere coordinates, the normalized
supervectors psi of either sign family, the projectors p = |psi><psi|,
their connection and curvature forms, and the Chern 2-superform, all as exact
identities modulo the unit-superdeterminant relation b b* -> 1 - a a*.

The two families are named by sign: at n the sign-minus family, built from
a, b, eta, has Chern number +n, and the sign-plus family, built from the
diamonded generators, has -n.  Conventions fixed against the explicit
sign-minus and sign-plus projectors at n = 1 and the explicit connection form
(re-derived in the test suite by elimination over the four candidate sign
placements):

    <phi|chi> = sum_alpha phi_alpha (chi_alpha)^diamond

    p[alpha,beta] = +- psi_alpha (psi_beta)^diamond, the Koszul sign sitting
    on the row parity for the minus family and on the column parity for the
    plus family (making the two families exact supertransposes).

The first n entries of psi are odd, so the projector matrices are stored
odd-block-first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .algebra import (ONE_MONO, Element, GeneratorTable, Monomial, RewriteSystem, EVEN,
                      ODD, SuperAlgebraError)
from .forms import DifferentialIdeal, SuperForm, d, sum_entries
from .localized import LocalizedModel
from .matrices import BlockShape, SuperMatrix, EVEN_FIRST, ODD_FIRST, exp_nilpotent, sdet
from .scalars import GaussianVector, Scalar, combine, gaussian_vector, rat, sqrt_binomials

MINUS = "-"
PLUS = "+"


def normalize_sign(sign: str) -> str:
    if sign in (MINUS, "minus"):
        return MINUS
    if sign in (PLUS, "plus"):
        return PLUS
    raise ValueError("sign must be '+'/'plus' or '-'/'minus', got %r" % (sign,))


class ExpansionError(SuperAlgebraError):
    """Raised when a matrix fails to expand in the fixture basis."""


# ---------------------------------------------------------------------------
# algebras

@dataclass(frozen=True)
class GroupSpace:
    """The free *-algebra on a, a*, b, b*, eta, eta* with its reductions."""

    table: GeneratorTable
    rewrites: RewriteSystem
    ideal: DifferentialIdeal  # no production caller; the benchmark binds it
    localizer: LocalizedModel

    def equal_mod(self, x, y) -> bool:
        """Equality modulo the differential ideal (decided in the localization)."""
        return self.localizer.is_zero_mod(x - y)

    @property
    def a(self) -> Element: return self.table.gen("a")
    @property
    def ad(self) -> Element: return self.table.gen("a*")
    @property
    def b(self) -> Element: return self.table.gen("b")
    @property
    def bd(self) -> Element: return self.table.gen("b*")
    @property
    def eta(self) -> Element: return self.table.gen("eta")
    @property
    def etad(self) -> Element: return self.table.gen("eta*")

    def differential(self, name: str) -> SuperForm:
        return SuperForm.differential(self.table, name)


@functools.cache
def group_space() -> GroupSpace:
    """The group algebra, built on the first call and shared afterwards."""
    table = GeneratorTable.build(conjugate_pairs=[
        ("a", "a*", EVEN), ("b", "b*", EVEN), ("eta", "eta*", ODD)])
    a, ad = table.gen("a"), table.gen("a*")
    b, bd = table.gen("b"), table.gen("b*")
    rewrites = RewriteSystem(table, b * bd, table.one() - a * ad)
    da = SuperForm.differential(table, "a")
    dad = SuperForm.differential(table, "a*")
    dbd = SuperForm.differential(table, "b*")
    db_repl = -(a * dad + ad * da + b * dbd)
    ideal = DifferentialIdeal(rewrites, bd, SuperForm.differential(table, "b"), db_repl)
    return GroupSpace(table, rewrites, ideal, LocalizedModel(table))


@dataclass(frozen=True)
class BaseSpace:
    """Coordinate algebra on x0, x1, x2 (real even) and xi-, xi+ (odd)."""

    table: GeneratorTable
    rewrites: RewriteSystem

    @property
    def x0(self) -> Element: return self.table.gen("x0")
    @property
    def x1(self) -> Element: return self.table.gen("x1")
    @property
    def x2(self) -> Element: return self.table.gen("x2")
    @property
    def xim(self) -> Element: return self.table.gen("xi-")
    @property
    def xip(self) -> Element: return self.table.gen("xi+")

    def differential(self, name: str) -> SuperForm:
        return SuperForm.differential(self.table, name)


@functools.cache
def base_space() -> BaseSpace:
    """The coordinate algebra, built on the first call and shared afterwards."""
    # x0 is declared last so x0^2 leads the sphere relation; normal forms
    # then keep xi- xi+ monomials, matching the displayed projectors
    table = GeneratorTable.build(
        self_conjugate=[("x0", EVEN), ("x1", EVEN), ("x2", EVEN)],
        conjugate_pairs=[("xi-", "xi+", ODD)],
        order=["xi-", "xi+", "x2", "x1", "x0"])
    one = table.one()
    x0, x1, x2 = (table.gen(n) for n in ("x0", "x1", "x2"))
    ferm = table.gen("xi-") * table.gen("xi+")
    rewrites = RewriteSystem(table, x0 * x0, one - x1 ** 2 - x2 ** 2 - 2 * ferm)
    return BaseSpace(table, rewrites)


# ---------------------------------------------------------------------------
# fixture matrices and the group element

def block_shape_1_2() -> BlockShape:
    return BlockShape(1, 2, EVEN_FIRST)


def osp_fixtures(space: GroupSpace | None = None) -> dict[str, SuperMatrix]:
    """The five generator matrices: A0, A1, A2 even, R+, R- odd; ``space`` is not read."""
    g = group_space()
    sh = block_shape_1_2()
    half_i = Scalar.of(0, Fraction(1, 2))
    half = Fraction(1, 2)

    def mat(rows, parity):
        return SuperMatrix.from_rational(sh, g.table, rows, parity)

    return {
        "A0": mat([[0, 0, 0], [0, half_i, 0], [0, 0, -half_i]], 0),
        "A1": mat([[0, 0, 0], [0, 0, half_i], [0, half_i, 0]], 0),
        "A2": mat([[0, 0, 0], [0, 0, half], [0, -half, 0]], 0),
        "R+": mat([[0, -half, 0], [0, 0, 0], [-half, 0, 0]], 1),
        "R-": mat([[0, 0, half], [-half, 0, 0], [0, 0, 0]], 1),
    }


def group_element() -> SuperMatrix:
    """The parametrized unitary 3x3 supermatrix s(a, b, eta)."""
    g = group_space()
    one = g.table.one()
    a, ad, b, bd, eta, etad = g.a, g.ad, g.b, g.bd, g.eta, g.etad
    e8 = one - rat(1, 8) * eta * etad
    rows = [
        [one + rat(1, 4) * eta * etad, rat(-1, 2) * eta, rat(1, 2) * etad],
        [rat(-1, 2) * (a * etad - bd * eta), a * e8, -bd * e8],
        [rat(-1, 2) * (b * etad + ad * eta), b * e8, ad * e8],
    ]
    return SuperMatrix(block_shape_1_2(), rows, parity=0)


def check_group_identities() -> str | tuple[str, Element] | None:
    """None when the group element is unitary with unit superdeterminant and
    its coordinates satisfy the sphere relation sum x_mu^2 + 2 xi- xi+ = 1,
    else the first identity that fails; a superdeterminant comes with its
    difference from 1."""
    g = group_space()
    s = group_element()
    ident = SuperMatrix.identity(s.shape, g.table)
    if (s @ s.dagger()).reduce(g.rewrites) != ident:
        return "s s-dagger = 1"
    if (s.dagger() @ s).reduce(g.rewrites) != ident:
        return "s-dagger s = 1"
    det = sdet(s, g.rewrites) - g.table.one()
    if not det.is_zero:
        return ("Sdet(s) = 1", det)
    c = coordinate_images()
    total = c["x0"] ** 2 + c["x1"] ** 2 + c["x2"] ** 2 + 2 * (c["xi-"] * c["xi+"])
    if not g.rewrites.reduce(total - g.table.one()).is_zero:
        return "sphere relation"


def check_nilpotent_exp() -> str | None:
    """None when the two odd exponential factorizations behave as stated,
    else the first statement that fails, with X = eta R+ and Y = eta* R-.

    The naive product exp(X) exp(Y) is not exp(X + Y): the two differ by the
    exact commutator correction, and exp(X) exp(Y) = exp(X + Y + [X, Y]/2)
    holds as [X, [X, Y]] = 0.  The sum form exp(X + Y) is the odd factor of
    the parametrized group element, and (X + Y)^3 = 0.
    """
    g = group_space()
    fix = osp_fixtures()
    X = fix["R+"].scale(g.eta)
    Y = fix["R-"].scale(g.etad)
    product = exp_nilpotent(X, g.table) @ exp_nilpotent(Y, g.table)
    total = X + Y
    sum_form = exp_nilpotent(total, g.table)
    if product == sum_form:
        return "exp(X) exp(Y) = exp(X + Y), with no commutator correction"
    comm = (X @ Y - Y @ X).scale(rat(1, 2))
    if product != exp_nilpotent(total + comm, g.table):
        return "exp(X) exp(Y) != exp(X + Y + [X, Y]/2)"
    s_odd = group_element().substitute(
        {"a": g.table.one(), "a*": g.table.one(),
         "b": g.table.zero(), "b*": g.table.zero()})
    if sum_form != s_odd:
        return "exp(X + Y) is not the odd factor of the group element"
    if not all(e.is_zero for row in (total @ total @ total).entries for e in row):
        return "(X + Y)^3 != 0"


# ---------------------------------------------------------------------------
# coordinates

def coordinate_images(space: GroupSpace | None = None) -> dict[str, Element]:
    """The sphere coordinates x0, x1, x2, xi-, xi+ by base generator name, as
    group expressions read off the orbit map s (2/i A0) s^dagger.

    The orbit matrix is expanded over the fixture basis 2/i A_k and 2 R_alpha;
    a failure of the expansion raises ExpansionError.  ``space`` is not read:
    the only group algebra is group_space(), and bench/workloads.py passes it.
    """
    g = group_space()
    s = group_element()
    # (2/i) A0 = diag(0, 1, -1)
    mid = SuperMatrix.from_rational(block_shape_1_2(), g.table,
                                    [[0, 0, 0], [0, 1, 0], [0, 0, -1]], 0)
    M = (s @ mid @ s.dagger()).reduce(g.rewrites)
    half = rat(1, 2)
    half_i = Scalar.of(0, Fraction(1, 2))
    x0 = M.entries[1][1]
    x1 = half * (M.entries[1][2] + M.entries[2][1])
    x2 = half_i * (M.entries[1][2] - M.entries[2][1])
    xip = -M.entries[0][1]
    xim = M.entries[0][2]
    # confirm M is exactly x_k (2/i A_k) + xi_a (2 R_a)
    checks = [
        (M.entries[0][0], g.table.zero()),
        (M.entries[2][2], -x0),
        (M.entries[1][2], x1 - Scalar.i() * x2),
        (M.entries[2][1], x1 + Scalar.i() * x2),
        (M.entries[2][0], -xip),
        (M.entries[1][0], -xim),
    ]
    for got, want in checks:
        if not (got - want).is_zero:
            raise ExpansionError("orbit matrix is not in the span of the fixture basis")
    return {"x0": x0, "x1": x1, "x2": x2, "xi-": xim, "xi+": xip}


def check_inversion_identities() -> str | None:
    """None when the inversion formulas expressing the bilinear invariants in
    x, xi hold, else the names of those that fail, joined by ", ".

    Substitutes the coordinate expressions into each base image of the
    emission table and reduces against its group monomial; mismatches are
    reported, never patched.
    """
    g = group_space()
    images = coordinate_images()
    failed = [name for name, (mono, image) in _invariant_units().items()
              if not g.rewrites.reduce(Element(g.table, {mono: Scalar.one()})
                                       - image.substitute(images, g.table)).is_zero]
    return ", ".join(failed) or None


# ---------------------------------------------------------------------------
# psi vectors, pairing, projectors

@dataclass
class PsiVector:
    """Row supervector with n odd components then n + 1 even ones."""

    sign: str
    n: int
    components: list[Element]

    def block_parity(self, alpha: int) -> int:
        return 1 if alpha < self.n else 0

    def diamonded(self) -> list[Element]:
        return [c.diamond() for c in self.components]


@functools.cache
def _psi_factors() -> tuple[Element, Element, Element]:
    """eta/2, eta*/2 and 1 - eta eta*/8, the factors of psi's components,
    built once: at small n they cost as much as the components."""
    g = group_space()
    return rat(1, 2) * g.eta, rat(1, 2) * g.etad, g.table.one() - rat(1, 8) * g.eta * g.etad


def _binomial_powers(table: GeneratorTable, sign: str, n: int) -> list[Element]:
    """sqrt(C(n, k)) u^(n-k) v^k for k = 0..n, with (u, v) = (a, b) for sign
    minus and (a*, b*) for plus."""
    iu, iv = (table.index[name] for name in (("a", "b") if sign == MINUS else ("a*", "b*")))
    return [Element(table, {table.monomial(((iu, n - k), (iv, k))): root})
            for k, root in enumerate(sqrt_binomials(n))]


def _family(sign: str, n: int) -> str:
    """The normalized sign of the family (sign, n), once n is checked."""
    sign = normalize_sign(sign)
    if type(n) is not int:
        raise TypeError("n must be an int, not %s" % type(n).__name__)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return sign


def psi_body(sign: str, n: int) -> list[Element]:
    """The nonzero bodies of the components of psi(sign, n), which are its
    n + 1 even components without their factor 1 - eta eta*/8."""
    return _binomial_powers(group_space().table, _family(sign, n), n)


def psi(sign: str, n: int, space: GroupSpace | None = None) -> PsiVector:
    """The normalized (n, n+1) supervector of the given sign family,

        psi_k     = (h/2) (sqrt(C(n-1, k)) u^(n-1-k) v^k),  k < n,
        psi_(n+k) = (sqrt(C(n, k)) u^(n-k) v^k) (1 - eta eta*/8),  k <= n,

    with (u, v, h) = (a, b, eta) for sign minus and (a*, b*, eta*) for plus;
    the even components are psi_body's times the last factor, and the
    Element products supply every sign.  ``space`` is not read.
    """
    sign = _family(sign, n)
    table = group_space().table
    half_eta, half_etad, norm_factor = _psi_factors()
    half_h = half_eta if sign == MINUS else half_etad
    comps = [half_h * x for x in _binomial_powers(table, sign, n - 1)]
    comps.extend(x * norm_factor for x in _binomial_powers(table, sign, n))
    return PsiVector(sign, n, comps)


def _require_psi(psi_vec, call: str) -> None:
    """Refuse anything but a PsiVector where psi is the input."""
    if not isinstance(psi_vec, PsiVector):
        raise TypeError("takes the psi vector, as in %s, not %s"
                        % (call, type(psi_vec).__name__))


def pairing(phi, chi):
    """<phi|chi> = sum phi_alpha (chi_alpha)^diamond.

    Accepts sequences of Elements or SuperForms (entries must share a kind);
    the diamond on forms conjugates factorwise with (dg)^dia = d(g^dia).
    """
    phi_list = list(phi.components if isinstance(phi, PsiVector) else phi)
    chi_list = list(chi.components if isinstance(chi, PsiVector) else chi)
    if not phi_list or len(phi_list) != len(chi_list):
        raise ValueError("pairing requires equal nonzero lengths")
    return sum_entries([p_c * c_c.diamond() for p_c, c_c in zip(phi_list, chi_list)])


@dataclass
class Projector:
    """Idempotent self-adjoint supermatrix with unit supertrace."""

    sign: str
    n: int
    matrix: SuperMatrix

    @property
    def charge(self) -> int:
        """First Chern number carried by this projector: +n for sign minus."""
        return self.n if self.sign == MINUS else -self.n


def projector_shape(n: int) -> BlockShape:
    return BlockShape(n + 1, n, ODD_FIRST)


def _outer_entry(psi_vec: PsiVector, dia: list[Element], alpha: int, beta: int) -> Element:
    """+-(psi_alpha psi_beta^dia), the Koszul sign placed as in _signed_outer."""
    entry = psi_vec.components[alpha] * dia[beta]
    if psi_vec.block_parity(alpha if psi_vec.sign == MINUS else beta):
        entry = -entry
    return entry


def _signed_outer(psi_vec: PsiVector) -> list[list]:
    """Rows of |psi><psi|: +-(psi_alpha psi_beta^dia).

    Koszul sign placement: the sign-plus family (built from the diamonded
    generators) carries the sign on the column parity instead of the row
    parity; this is the unique placement for which the explicit sign-minus and
    sign-plus projector matrices at n = 1 and the supertransposition relation
    between the two families all hold simultaneously (the test suite
    re-derives this by elimination).
    """
    dia = psi_vec.diamonded()
    dim = len(dia)
    return [[_outer_entry(psi_vec, dia, alpha, beta) for beta in range(dim)]
            for alpha in range(dim)]


def _self_adjoint(shape: BlockShape, upper) -> SuperMatrix:
    """The even matrix p = p^dagger whose entry (i, j), i <= j, is upper(i, j).

    On an even matrix the adjoint is the entrywise diamond followed by the
    supertranspose, so for i < j
    p[j][i] = (-1)^(tau_j (tau_j + tau_i)) p[i][j]^dia
    with tau the storage parity.  The diamond commutes with the group rewrite
    b b* -> 1 - a a* and with the coordinate emission, so a mirrored entry of
    a reduced or emitted projector is the one computing it would give.
    """
    dim = shape.dim
    tau = [shape.storage_parity(i) for i in range(dim)]
    rows: list[list] = [[None] * dim for _ in range(dim)]
    # each distinct monomial of the matrix is walked to its diamond image once
    images: dict[Monomial, tuple[Monomial, int]] = {}
    for i in range(dim):
        for j in range(i, dim):
            entry = rows[i][j] = upper(i, j)
            if j > i:
                rows[j][i] = entry._diamond(-1 if tau[j] * (tau[j] + tau[i]) % 2 else 1, images)
    return SuperMatrix(shape, rows, parity=0)


def _upper_entry(psi_vec: PsiVector):
    """The function (alpha, beta) -> p[alpha][beta] in rewrite normal form,
    which projector and projector_to_base call for alpha <= beta only."""
    dia = psi_vec.diamonded()
    reduce = group_space().rewrites.reduce
    return lambda alpha, beta: reduce(_outer_entry(psi_vec, dia, alpha, beta))


def projector(psi_vec: PsiVector, space: GroupSpace | None = None) -> Projector:
    """p[alpha][beta] = +-(psi_alpha psi_beta^dia), signs per _signed_outer,
    each entry in rewrite normal form.

    Only the entries with alpha <= beta are multiplied and reduced;
    _self_adjoint mirrors the rest.  ``space`` is not read.
    """
    _require_psi(psi_vec, "projector(psi(sign, n))")
    matrix = _self_adjoint(projector_shape(psi_vec.n), _upper_entry(psi_vec))
    return Projector(psi_vec.sign, psi_vec.n, matrix)


# ---------------------------------------------------------------------------
# equivariance

# U(1) charge of each group generator.  The circle acts by a -> a w,
# b -> b w, eta -> eta w, and each starred generator picks up w* = w^(-1), so
# a monomial of charge q (the sum over its factors) is multiplied by w^q.
# The only rewrite rule, b b* -> 1 - a a*, has charge 0 on both sides, so
# every rewrite step keeps the charge of a monomial and the normal form of x
# is the sum of the normal forms of its charge-homogeneous parts x_q.  With
# w, w* adjoined and w w* -> 1, the substitution test
# reduce(x(a w, ...) - w^n x) = 0 therefore reads
# sum_q (w^q - w^n) reduce(x_q) = 0; distinct powers of w keep the terms
# apart, so it holds exactly when reduce(x_q) = 0 for every q != n, that is
# when reduce(x) is homogeneous of charge n.  Reading charges off the normal
# form is a complete decision procedure, and w is never built.
U1_CHARGE = {"a": 1, "b": 1, "eta": 1, "a*": -1, "b*": -1, "eta*": -1}


def u1_charge(table: GeneratorTable, mono: Monomial, wedge: tuple[int, ...] = ()) -> int:
    """U(1) charge of a monomial over the group generators, times the
    differentials of the generators in wedge, each of its generator's charge."""
    names = table.names
    even, odd = table.factors(mono)
    return (sum(U1_CHARGE[names[i]] * e for i, e in even)
            + sum(U1_CHARGE[names[i]] for i in (*odd, *wedge)))


def _has_charge(x: Element, charge: int) -> bool:
    return all(u1_charge(x.algebra, mono) == charge for mono in x.terms)


def check_equivariance(sign: str, n: int) -> str | None:
    """None when psi picks up w^n (sign -) or (w*)^n (sign +) and p is
    invariant, else the first psi component or projector entry that does not.

    Decided by the U(1) charge grading: every monomial of every reduced psi
    component has charge n (sign -) or -n (sign +), and every monomial of
    every projector entry has charge 0.
    """
    g = group_space()
    vec = psi(sign, n)
    want = n if vec.sign == MINUS else -n
    for alpha, c in enumerate(vec.components):
        if not _has_charge(g.rewrites.reduce(c), want):
            return "psi component %d is not of charge %d" % (alpha, want)
    for alpha, row in enumerate(projector(vec).matrix.entries):
        for beta, entry in enumerate(row):
            if not _has_charge(entry, 0):
                return "projector entry (%d, %d) is not of charge 0" % (alpha, beta)


def section_to_equivariant(psi_vec: PsiVector, f) -> Element:
    """Image of a section column under the module isomorphism: sum psi_alpha f_alpha."""
    _require_psi(psi_vec, "section_to_equivariant(psi(sign, n), f)")
    f_list = list(f)
    if len(f_list) != len(psi_vec.components):
        raise ValueError("section must have 2n+1 components")
    return Element.sum(group_space().table,
                       [pa * fa for pa, fa in zip(psi_vec.components, f_list)])


# ---------------------------------------------------------------------------
# connection, curvature, Chern forms

def _verified(products: list, negated_closed: SuperForm, what: str) -> None:
    """Raise unless the products phi_alpha (chi_alpha)^diamond of a pairing sum
    to the closed form modulo the ideal: one zero test on one sum of the
    products and the negated form."""
    g = group_space()
    if not g.localizer.is_zero_mod(SuperForm.sum(g.table, [*products, negated_closed])):
        raise SuperAlgebraError("%s: pairing route disagrees with the closed form" % what)


def _signed(sign: str, n: int, scale: Scalar) -> Scalar:
    """scale for the sign-minus family (sign, n), -scale for sign plus."""
    return scale if _family(sign, n) == MINUS else -scale


def _form_of(rows: list, factor: Scalar) -> SuperForm:
    """factor times the form of a term table: each row (wedge, words) is the
    term element(words) d(wedge), its wedge written in canonical order."""
    table = group_space().table
    return SuperForm(table, {tuple(table.index[x] for x in wedge):
                             table.element([(c * factor, word) for c, word in words])
                             for wedge, words in rows})


_ONE, _QUARTER, _EIGHTH = rat(1), rat(1, 4), rat(1, 8)


def connection_form(psi_vec: PsiVector) -> SuperForm:
    """A = <psi|d psi>, returned as connection_closed_form(sign, n) once verified.

    Raises SuperAlgebraError when psi is not normalized or its sign label is wrong.
    """
    _require_psi(psi_vec, "connection_form(psi(sign, n))")
    comps = psi_vec.components
    closed = connection_closed_form(psi_vec.sign, psi_vec.n)
    _verified([c * d(c).diamond() for c in comps], -closed, "connection, n=%d" % psi_vec.n)
    return closed


def connection_closed_form(sign: str, n: int) -> SuperForm:
    """(n - 1/4 eta eta*)(a da* + b db*) + 1/8 (eta deta* + eta* deta), negated
    for the + sign."""
    return _form_of([(("a*",), [(n, ("a",)), (-_QUARTER, ("a", "eta", "eta*"))]),
                     (("b*",), [(n, ("b",)), (-_QUARTER, ("b", "eta", "eta*"))]),
                     (("eta",), [(_EIGHTH, ("eta*",))]), (("eta*",), [(_EIGHTH, ("eta",))])],
                    _signed(sign, n, _ONE))


def supertrace_p_dp_dp(proj: Projector) -> SuperForm:
    """Str(p (dp)^2) evaluated without forming the full triple product."""
    p = proj.matrix
    dp = p.map_entries(d)
    T = dp @ dp
    dim = p.shape.dim
    terms = []
    for i in range(dim):
        for k in range(dim):
            term = p.entries[i][k] * T.entries[k][i]
            terms.append(-term if p.shape.type_parity(i) else term)
    return SuperForm.sum(terms[0].algebra, terms)


CHERN_SCALAR = Scalar.of(0, Fraction(1, 2), 1, -1)  # -(1/(2 pi i)) = i/(2 pi)


def chern_form(components: Sequence[Element]) -> SuperForm:
    """First Chern 2-superform -(1/(2 pi i)) <d psi|d psi> of the psi with
    the given components, such as psi(sign, n).components, from the pairing.

    Under the pairing and outer-product conventions fixed here the exact
    identity Str(p (dp)^2) = -<d psi|d psi> holds for normalized psi (two odd
    1-forms commute with a +1 only through the bigraded rule), so the
    normalization that reproduces the explicit closed 2-superform and the
    integer charges is

        C1 = -(1/(2 pi i)) <d psi|d psi> = +(1/(2 pi i)) Str(p (dp)^2).

    The pairing costs O(d) form products against O(d^3) for Str(p (dp)^2),
    d = 2n + 1; supertrace_p_dp_dp stays as the test oracle.  The form is
    returned as computed, not rewritten: chern_form_canonical gives the
    verified representative.

    Given the nonzero bodies of psi's components instead, such as
    psi_body(sign, n), it returns the body projection of the Chern form: the
    body map is an algebra morphism that commutes with d, wedge products and
    the diamond, so pairing the differentials of the bodies gives the body of
    -(1/(2 pi i)) <d psi|d psi>; the test suite checks it against the body of
    the Str(p (dp)^2) oracle.  The bodies hold no odd generator, so the
    pairing is a body form as it stands.  No relation reduction is needed:
    the chart pullback evaluates the constraint exactly.
    """
    dpsi = [d(c) for c in components]
    return pairing(dpsi, dpsi) * CHERN_SCALAR


def chern_form_canonical(psi_vec: PsiVector) -> SuperForm:
    """The paper's expanded expression of C1, CHERN_SCALAR dA from the verified
    connection A.

    C1 = CHERN_SCALAR <d psi|d psi>, and three steps make it CHERN_SCALAR dA:
    connection_form checks <psi|d psi> = A modulo the differential ideal, in
    one zero test; d<psi|d psi> = <d psi|d psi> term for term, as
    d((d psi_alpha)^dia) = d d(psi_alpha^dia) = 0; and d maps the ideal into
    itself, so d of the checked identity is <d psi|d psi> = dA modulo it.
    Raises SuperAlgebraError when the connection check fails.
    """
    _require_psi(psi_vec, "chern_form_canonical(psi(sign, n))")
    return d(connection_form(psi_vec)) * CHERN_SCALAR


def chern_closed_form(sign: str, n: int, space: GroupSpace | None = None) -> SuperForm:
    """-(1/(2 pi i)) [n (da da* + db db*) + 1/4 d(a eta*) d(eta a*)
    + 1/4 d(b eta*) d(eta b*)], negated for the + sign.  ``space`` is not read."""
    q = _QUARTER
    body = [(n, ()), (-q, ("eta", "eta*"))]
    return _form_of([(("a", "a*"), body), (("b", "b*"), body),
                     (("a", "eta"), [(q, ("a*", "eta*"))]), (("a*", "eta*"), [(q, ("a", "eta"))]),
                     (("b", "eta"), [(q, ("b*", "eta*"))]), (("b*", "eta*"), [(q, ("b", "eta"))]),
                     (("eta", "eta*"), [(q, ("a", "a*")), (q, ("b", "b*"))])],
                    _signed(sign, n, CHERN_SCALAR))


def coordinate_chern_form(sign: str, n: int) -> SuperForm:
    """The Chern 2-superform written in the sphere coordinates.

    (n / 4 pi) (x0 dx1 dx2 + x1 dx2 dx0 + x2 dx0 dx1)(1 + 3 xi- xi+)
    + (1 / 4 pi i) [ (dx1 - i dx2) xi+ dxi+ - (dx1 + i dx2) xi- dxi-
       + dx0 (xi- dxi+ + xi+ dxi-) + (x1 - i x2) dxi+ dxi+
       - (x1 + i x2) dxi- dxi- - 2 x0 dxi- dxi+ ],
    negated for the + sign.

    This transcribes the source expression verbatim.  The group-space
    curvature computation needs +2 x0 dxi- dxi+ in the last term; the test
    suite checks that one-term correction.  Both have the same body, so
    Berezin integrals are unaffected.
    """
    sign = _family(sign, n)
    s = base_space()
    one = s.table.one()
    i = Scalar.i()
    x0, x1, x2 = s.x0, s.x1, s.x2
    xim, xip = s.xim, s.xip
    dx0, dx1, dx2 = (s.differential(nm) for nm in ("x0", "x1", "x2"))
    dxm, dxp = s.differential("xi-"), s.differential("xi+")
    over_4pi = Scalar.of(Fraction(n, 4), 0, 1, -1)
    bos = (x0 * dx1 * dx2 + x1 * dx2 * dx0 + x2 * dx0 * dx1) * (one + 3 * xim * xip)
    bos = bos * over_4pi
    quarter_pi_i = Scalar.of(0, Fraction(-1, 4), 1, -1)  # 1/(4 pi i) = -i/(4 pi)
    fer = ((dx1 - i * dx2) * xip * dxp - (dx1 + i * dx2) * xim * dxm
           + dx0 * (xim * dxp + xip * dxm)
           + (x1 - i * x2) * dxp * dxp - (x1 + i * x2) * dxm * dxm
           - 2 * (x0 * dxm * dxp))
    fer = fer * quarter_pi_i
    form = bos + fer
    return form if sign == MINUS else -form


# ---------------------------------------------------------------------------
# coordinate emission of projectors

class CoordinateEmissionError(SuperAlgebraError):
    """Raised when an entry does not factor through the base invariants."""


@functools.cache
def _invariant_units() -> Mapping[str, tuple[Monomial, Element]]:
    """Each bilinear invariant by name: (group monomial, base expression).

    Built on the first call and shared afterwards, so the mapping is read-only.
    """
    g, s = group_space(), base_space()
    one = s.table.one()
    i = Scalar.i()
    x0, x1, x2, xim, xip = s.x0, s.x1, s.x2, s.xim, s.xip
    one_fer = one + xim * xip
    units = {
        "eta eta*": (g.eta * g.etad, 4 * (xim * xip)),
        "eta a*": (g.eta * g.ad, -(x1 + i * x2) * xim + (one + x0) * xip),
        "eta b*": (g.eta * g.bd, (x1 - i * x2) * xip - (one - x0) * xim),
        "a eta*": (g.a * g.etad, -(x1 - i * x2) * xip - (one + x0) * xim),
        "b eta*": (g.b * g.etad, -(x1 + i * x2) * xim - (one - x0) * xip),
        "a a*": (g.a * g.ad, rat(1, 2) * (one + x0 * one_fer)),
        "b b*": (g.b * g.bd, rat(1, 2) * (one - x0 * one_fer)),
        "a b*": (g.a * g.bd, rat(1, 2) * (x1 - i * x2) * one_fer),
        "b a*": (g.b * g.ad, rat(1, 2) * (x1 + i * x2) * one_fer),
    }
    table = {}
    for name, (group, image) in units.items():
        if list(group.terms.values()) != [Scalar.one()]:
            raise CoordinateEmissionError("invariant %s is not a unit monomial: %r" % (name, group))
        table[name] = (next(iter(group.terms)), image)
    return MappingProxyType(table)


def _base_converter():
    """A function taking U(1)-invariant group elements to sphere coordinates.

    It keeps one dict from group monomial to its reduced base image as a
    Gaussian vector, for as long as the returned function lives: the entries
    of one matrix share most monomials.  A missing image is
    multiply_vectors(image(mono / u), image(u)) for the first bilinear
    invariant u whose two generators divide mono.  The image is an algebra
    morphism on the invariants, and mono = (mono / u) u with sign +1: the even
    invariants come first, so only the last u of a chain may be odd, and its
    quotient is 1 (eta eta* is the first odd one, so no quotient keeps an odd
    generator).
    """
    units = _invariant_units()
    group = group_space().table
    exponent = group.exponent
    base = base_space()
    multiply = base.rewrites.multiply_vectors
    # (first generator, second generator, monomial, name, image); a unit image
    # off the Gaussian rationals fails at the first monomial it divides
    divisors = []
    for name in ("b b*", "b a*", "a b*", "a a*",
                 "eta eta*", "eta a*", "eta b*", "a eta*", "b eta*"):
        mono, img = units[name]
        first, second = (group.index[gen] for gen in name.split())
        divisors.append((first, second, mono, name, gaussian_vector(img.terms)))
    images: dict[Monomial, GaussianVector] = {ONE_MONO: (1, [(ONE_MONO, 1, 0)])}

    def image(mono: Monomial) -> GaussianVector:
        # walk down to a stored quotient, then store the chain on the way up:
        # a failing monomial and its quotients are never stored
        chain = []
        rest = mono
        while rest not in images:
            for first, second, unit, name, unit_vec in divisors:
                if exponent(rest, first) and exponent(rest, second):
                    break
            else:
                raise CoordinateEmissionError(
                    "monomial %s is not a product of the bilinear invariants"
                    % group.mono_str(mono))
            if unit_vec is None:
                raise CoordinateEmissionError("image of %s is not over the Gaussian rationals"
                                              % name)
            chain.append((rest, unit_vec))
            rest -= unit
        vec = images[rest]
        for quotient, unit_vec in reversed(chain):
            vec = images[quotient] = multiply(vec, unit_vec)
        return vec

    def to_base(x: Element) -> Element:
        pairs = [(coeff, image(mono)) for mono, coeff in x.terms.items()]
        # the images are unique normal forms, so the conversion is linear and
        # a sum of reduced images is already reduced; combine drops zeros
        return Element._nonzero(base.table, combine(pairs))

    return to_base


def element_to_base(x: Element) -> Element:
    """Rewrite a U(1)-invariant group element in sphere coordinates.

    Each monomial is divided, one bilinear invariant aa*, ab*, eta a*, ... at
    a time, down to 1, and the coordinate expressions of the invariants are
    multiplied exactly; a monomial that does not divide down to 1 raises
    CoordinateEmissionError, so an element that is not U(1)-invariant cannot
    produce a silent error.
    """
    return _base_converter()(x)


def projector_to_base(psi_vec: PsiVector) -> SuperMatrix:
    """The projector of psi_vec with every entry written in sphere coordinates.

    Only the entries with alpha <= beta are built, each converted as it is
    reduced, by one converter, so each distinct monomial is imaged once;
    _self_adjoint mirrors the rest, since image(u^dia) = image(u)^dia for
    every bilinear invariant u.  No group projector is built.
    """
    _require_psi(psi_vec, "projector_to_base(psi(sign, n))")
    to_base, entry = _base_converter(), _upper_entry(psi_vec)
    return _self_adjoint(projector_shape(psi_vec.n), lambda a, b: to_base(entry(a, b)))
