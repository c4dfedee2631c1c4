"""Monopole projectors over the (2,2)-supersphere.

Builds the unitary group element, the sphere coordinates, the normalized
supervectors psi for either sign of the charge, the projectors p = |psi><psi|,
their connection and curvature forms, and the Chern 2-superform, all as exact
identities modulo the unit-superdeterminant relation b b* -> 1 - a a*.

Conventions fixed against the explicit charge -1 and +1 projectors and the
explicit connection form (re-derived in the test suite by elimination over
the four candidate sign placements):

    <phi|chi> = sum_alpha phi_alpha (chi_alpha)^diamond

    p[alpha,beta] = +- psi_alpha (psi_beta)^diamond, the Koszul sign sitting
    on the row parity for the minus family and on the column parity for the
    plus family (making the two families exact supertransposes).

The first n entries of psi are odd, so the projector matrices are stored
odd-block-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (ONE_MONO, Element, GeneratorTable, Monomial, RewriteSystem, EVEN,
                      ODD, SuperAlgebraError, mono_mul)
from .forms import DifferentialIdeal, SuperForm, d
from .matrices import BlockShape, SuperMatrix, EVEN_FIRST, ODD_FIRST, exp_nilpotent, sdet
from .scalars import Scalar, rat

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

class LocalizedModel:
    """Faithful model of forms on the group: b* := (1 - a a*) b^(-1).

    The relation hypersurface a a* + b b* = 1 is smooth, so its module of
    Kahler differentials is torsion free and injects into the localization
    at b.  Substituting b* and db* accordingly kills the differential ideal
    exactly, which turns ideal-membership checks into plain zero tests in
    the free algebra on a, a*, b, b^(-1), eta, eta* with b b^(-1) -> 1.
    The two-rule rewrite reduction stays in use for canonical display, but
    equality modulo the ideal is decided here.
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
        out = x.substitute(self.images, self.table, self.differential_images)
        return out.map_coefficients(self.rewrites.reduce)

    def is_zero_mod(self, x: Element | SuperForm) -> bool:
        return self.project(x).is_zero


@dataclass(frozen=True)
class GroupSpace:
    """The free *-algebra on a, a*, b, b*, eta, eta* with its reductions."""

    table: GeneratorTable
    rewrites: RewriteSystem
    ideal: DifferentialIdeal
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


_group_space: GroupSpace | None = None


def group_space() -> GroupSpace:
    global _group_space
    if _group_space is None:
        table = GeneratorTable.build(conjugate_pairs=[
            ("a", "a*", EVEN), ("b", "b*", EVEN), ("eta", "eta*", ODD)])
        a, ad = table.gen("a"), table.gen("a*")
        b, bd = table.gen("b"), table.gen("b*")
        rewrites = RewriteSystem(table, [(b * bd, table.one() - a * ad)])
        da = SuperForm.differential(table, "a")
        dad = SuperForm.differential(table, "a*")
        dbd = SuperForm.differential(table, "b*")
        db_repl = -(a * dad + ad * da + b * dbd)
        ideal = DifferentialIdeal(rewrites, [(bd, SuperForm.differential(table, "b"), db_repl)])
        _group_space = GroupSpace(table, rewrites, ideal, LocalizedModel())
    return _group_space


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


_base_space: BaseSpace | None = None


def base_space() -> BaseSpace:
    global _base_space
    if _base_space is None:
        # x0 is declared last so x0^2 leads the sphere relation; normal forms
        # then keep xi- xi+ monomials, matching the displayed projectors
        table = GeneratorTable.build(
            self_conjugate=[("x0", EVEN), ("x1", EVEN), ("x2", EVEN)],
            conjugate_pairs=[("xi-", "xi+", ODD)],
            order=["xi-", "xi+", "x2", "x1", "x0"])
        one = table.one()
        x0, x1, x2 = (table.gen(n) for n in ("x0", "x1", "x2"))
        ferm = table.gen("xi-") * table.gen("xi+")
        rewrites = RewriteSystem(table, [(x0 * x0, one - x1 ** 2 - x2 ** 2 - 2 * ferm)])
        _base_space = BaseSpace(table, rewrites)
    return _base_space


# ---------------------------------------------------------------------------
# fixture matrices and the group element

def block_shape_1_2() -> BlockShape:
    return BlockShape(1, 2, EVEN_FIRST)


def osp_fixtures(space: GroupSpace | None = None) -> dict[str, SuperMatrix]:
    """The five generator matrices: A0, A1, A2 even, R+, R- odd."""
    g = space or group_space()
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


def group_element(space: GroupSpace | None = None) -> SuperMatrix:
    """The parametrized unitary 3x3 supermatrix s(a, b, eta)."""
    g = space or group_space()
    one = g.table.one()
    a, ad, b, bd, eta, etad = g.a, g.ad, g.b, g.bd, g.eta, g.etad
    e8 = one - rat(1, 8) * eta * etad
    rows = [
        [one + rat(1, 4) * eta * etad, rat(-1, 2) * eta, rat(1, 2) * etad],
        [rat(-1, 2) * (a * etad - bd * eta), a * e8, -bd * e8],
        [rat(-1, 2) * (b * etad + ad * eta), b * e8, ad * e8],
    ]
    return SuperMatrix(block_shape_1_2(), rows, parity=0)


@dataclass
class NilpotentExpReport:
    """Comparison of the two odd exponential factorizations.

    The product exp(eta R+) exp(eta* R-) and the sum form
    exp(eta R+ + eta* R-) differ by the exact commutator correction
    (1/2)[eta R+, eta* R-]; `product_equals_sum` records whether the naive
    equality holds (it does not), `bch_equal` whether the corrected identity
    exp(X)exp(Y) = exp(X+Y+[X,Y]/2) holds, and `sum_matches_group_factor`
    whether the sum form reproduces the odd factor of the parametrized group
    element (it does).
    """

    product_form: SuperMatrix
    sum_form: SuperMatrix
    difference: SuperMatrix
    product_equals_sum: bool
    bch_equal: bool
    sum_matches_group_factor: bool
    terminates_at_order_two: bool


def nilpotent_exp_report(space: GroupSpace | None = None) -> NilpotentExpReport:
    g = space or group_space()
    fix = osp_fixtures(g)
    X = fix["R+"].scale(g.eta)
    Y = fix["R-"].scale(g.etad)
    product = exp_nilpotent(X, g.table) @ exp_nilpotent(Y, g.table)
    total = X + Y
    sum_form = exp_nilpotent(total, g.table)
    diff = product - sum_form
    zero = all(e.is_zero for row in diff.entries for e in row)
    # BCH correction: exp(X)exp(Y) = exp(X + Y + [X, Y]/2) for [X,[X,Y]] = 0
    comm = (X @ Y - Y @ X).scale(Scalar.of(Fraction(1, 2)))
    bch = exp_nilpotent(total + comm, g.table)
    bch_equal = all((a - b).is_zero for r1, r2 in zip(product.entries, bch.entries)
                    for a, b in zip(r1, r2))
    s_odd = group_element(g).substitute(
        {"a": g.table.one(), "a*": g.table.one(),
         "b": g.table.zero(), "b*": g.table.zero()})
    sum_matches = sum_form == s_odd
    # the squared series terminates: third power vanishes identically
    cube = total @ total @ total
    terminates = all(e.is_zero for row in cube.entries for e in row)
    return NilpotentExpReport(product, sum_form, diff, zero, bch_equal,
                              sum_matches, terminates)


# ---------------------------------------------------------------------------
# coordinates

@dataclass
class CoordinateSet:
    """Sphere coordinates as expressions in the group generators."""

    x0: Element
    x1: Element
    x2: Element
    xim: Element
    xip: Element

    def images(self) -> dict[str, Element]:
        """Map from base-algebra generator names to group expressions."""
        return {"x0": self.x0, "x1": self.x1, "x2": self.x2,
                "xi-": self.xim, "xi+": self.xip}


def base_coordinates(space: GroupSpace | None = None) -> CoordinateSet:
    """Extract the coordinates from the orbit map s (2/i A0) s^dagger.

    The result is expanded over the fixture basis 2/i A_k and 2 R_alpha; a
    failure of the expansion raises ExpansionError.
    """
    g = space or group_space()
    s = group_element(g)
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
    return CoordinateSet(x0, x1, x2, xim, xip)


def coordinate_images(space: GroupSpace | None = None) -> dict[str, Element]:
    return base_coordinates(space).images()


@dataclass
class IdentityCheck:
    name: str
    holds: bool
    witness: Element | None = None


def inversion_identities(space: GroupSpace | None = None) -> list[IdentityCheck]:
    """Verify the inversion formulas expressing group invariants in x, xi.

    Substitutes the coordinate expressions into each right-hand side and
    reduces; mismatches are reported, never patched.
    """
    g = space or group_space()
    coords = base_coordinates(g)
    one = g.table.one()
    i = Scalar.i()
    x0, x1, x2, xim, xip = coords.x0, coords.x1, coords.x2, coords.xim, coords.xip
    one_fer = one + xim * xip
    cases = [
        ("quarter-eta-eta* = xi- xi+", rat(1, 4) * g.eta * g.etad, xim * xip),
        ("a a*", g.a * g.ad, rat(1, 2) * (one + x0 * one_fer)),
        ("b b*", g.b * g.bd, rat(1, 2) * (one - x0 * one_fer)),
        ("a b*", g.a * g.bd, rat(1, 2) * (x1 - i * x2) * one_fer),
        ("eta a*", g.eta * g.ad, -(x1 + i * x2) * xim + (one + x0) * xip),
        ("eta b*", g.eta * g.bd, (x1 - i * x2) * xip - (one - x0) * xim),
    ]
    out = []
    for name, lhs, rhs in cases:
        diff = g.rewrites.reduce(lhs - rhs)
        out.append(IdentityCheck(name, diff.is_zero, None if diff.is_zero else diff))
    return out


def sphere_relation_check(space: GroupSpace | None = None) -> bool:
    """sum x_mu^2 + 2 xi- xi+ reduces to 1."""
    g = space or group_space()
    c = base_coordinates(g)
    total = c.x0 ** 2 + c.x1 ** 2 + c.x2 ** 2 + 2 * (c.xim * c.xip)
    return g.rewrites.reduce(total - g.table.one()).is_zero


# ---------------------------------------------------------------------------
# psi vectors, pairing, projectors

@dataclass
class PsiVector:
    """Row supervector with n odd components then n + 1 even ones."""

    sign: str
    n: int
    components: list[Element]

    @property
    def algebra(self) -> GeneratorTable:
        return self.components[0].algebra

    def block_parity(self, alpha: int) -> int:
        return 1 if alpha < self.n else 0

    def diamonded(self) -> list[Element]:
        return [c.diamond() for c in self.components]


def psi(sign: str, n: int, space: GroupSpace | None = None) -> PsiVector:
    """The normalized (n, n+1) supervector for charge -sign n."""
    sign = normalize_sign(sign)
    if n < 1:
        raise ValueError("n must be a positive integer")
    g = space or group_space()
    element = g.table.element
    u, v, h = ("a", "b", "eta") if sign == MINUS else ("a*", "b*", "eta*")
    half, minus_eighth = rat(1, 2), rat(-1, 8)
    comps: list[Element] = []
    for k in range(n):
        root = Scalar.sqrt_binomial(n - 1, k)
        comps.append(element([(half * root, [h] + [u] * (n - 1 - k) + [v] * k)]))
    # (1 - eta eta*/8) u^(n-k) v^k
    for k in range(n + 1):
        root = Scalar.sqrt_binomial(n, k)
        w = [u] * (n - k) + [v] * k
        comps.append(element([(root, w), (minus_eighth * root, ["eta", "eta*"] + w)]))
    return PsiVector(sign, n, comps)


def pairing(phi, chi):
    """<phi|chi> = sum phi_alpha (chi_alpha)^diamond.

    Accepts sequences of Elements or SuperForms (entries must share a kind);
    the diamond on forms conjugates factorwise with (dg)^dia = d(g^dia).
    """
    phi_list = list(phi.components if isinstance(phi, PsiVector) else phi)
    chi_list = list(chi.components if isinstance(chi, PsiVector) else chi)
    if len(phi_list) != len(chi_list):
        raise ValueError("pairing requires equal lengths")
    acc = None
    for p_c, c_c in zip(phi_list, chi_list):
        term = p_c * c_c.diamond()
        acc = term if acc is None else acc + term
    return acc


@dataclass
class Projector:
    """Idempotent self-adjoint supermatrix with unit supertrace."""

    sign: str
    n: int
    matrix: SuperMatrix

    @property
    def charge(self) -> int:
        """First Chern number carried by this projector."""
        return self.n if self.sign == MINUS else -self.n


def projector_shape(n: int) -> BlockShape:
    return BlockShape(n + 1, n, ODD_FIRST)


def _signed_outer(psi_vec: PsiVector, kernel: SuperForm | None = None) -> list[list]:
    """Rows of |psi> K <psi|: +-(psi_alpha K psi_beta^dia), K = 1 when None.

    Koszul sign placement: the charge +n family (built from the diamonded
    generators) carries the sign on the column parity instead of the row
    parity; this is the unique placement for which the explicit charge -1 and
    +1 projector matrices and the supertransposition relation between the two
    families all hold simultaneously (the test suite re-derives this by
    elimination).
    """
    dia = psi_vec.diamonded()
    on_rows = psi_vec.sign == MINUS
    rows = []
    for alpha, pa in enumerate(psi_vec.components):
        left = pa if kernel is None else pa * kernel
        row = []
        for beta, pb in enumerate(dia):
            entry = left * pb
            if psi_vec.block_parity(alpha if on_rows else beta):
                entry = -entry
            row.append(entry)
        rows.append(row)
    return rows


def projector(psi_vec: PsiVector, reduce: bool = True,
              space: GroupSpace | None = None) -> Projector:
    """p[alpha][beta] = +-(psi_alpha psi_beta^dia), signs per _signed_outer."""
    g = space or group_space()
    rows = _signed_outer(psi_vec)
    if reduce:
        rows = [[g.rewrites.reduce(e) for e in row] for row in rows]
    return Projector(psi_vec.sign, psi_vec.n,
                     SuperMatrix(projector_shape(psi_vec.n), rows, parity=0))


def outer_with_kernel(psi_vec: PsiVector, kernel: SuperForm) -> SuperMatrix:
    """|psi> K <psi| with the projector sign placement, K a scalar form."""
    return SuperMatrix(projector_shape(psi_vec.n), _signed_outer(psi_vec, kernel), parity=0)


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


def u1_charge(table: GeneratorTable, mono: Monomial) -> int:
    """U(1) charge of a monomial over the group generators."""
    names = table.names
    return (sum(U1_CHARGE[names[i]] * e for i, e in mono[0])
            + sum(U1_CHARGE[names[i]] for i in mono[1]))


def _has_charge(x: Element, charge: int) -> bool:
    return all(u1_charge(x.algebra, mono) == charge for mono in x.terms)


@dataclass
class EquivarianceReport:
    sign: str
    n: int
    psi_covariant: bool
    projector_invariant: bool


def check_equivariance(sign: str, n: int) -> EquivarianceReport:
    """psi picks up w^n (sign -) or (w*)^n (sign +); p is invariant.

    Decided by the U(1) charge grading: every monomial of every reduced psi
    component has charge n (sign -) or -n (sign +), and every monomial of
    every projector entry has charge 0.
    """
    sign = normalize_sign(sign)
    g = group_space()
    vec = psi(sign, n)
    want = n if sign == MINUS else -n
    covariant = all(_has_charge(g.rewrites.reduce(c), want) for c in vec.components)
    invariant = all(_has_charge(entry, 0)
                    for row in projector(vec).matrix.entries for entry in row)
    return EquivarianceReport(sign, n, covariant, invariant)


def section_to_equivariant(sign: str, n: int, f, space: GroupSpace | None = None) -> Element:
    """Image of a section column under the module isomorphism: sum psi_alpha f_alpha."""
    vec = psi(sign, n, space)
    f_list = list(f)
    if len(f_list) != 2 * n + 1:
        raise ValueError("section must have 2n+1 components")
    acc = None
    for pa, fa in zip(vec.components, f_list):
        term = pa * fa
        acc = term if acc is None else acc + term
    return acc


# ---------------------------------------------------------------------------
# connection, curvature, Chern forms

def connection_form(psi_vec: PsiVector, reduced: bool = True,
                    space: GroupSpace | None = None) -> SuperForm:
    """A = <psi|d psi>; anti-hermitian 1-superform."""
    g = space or group_space()
    acc = pairing(psi_vec.components, [d(c) for c in psi_vec.components])
    return g.ideal.reduce(acc) if reduced else acc


def connection_closed_form(sign: str, n: int, space: GroupSpace | None = None) -> SuperForm:
    """(n - 1/4 eta eta*)(a da* + b db*) + 1/8 (eta deta* + eta* deta), negated
    for the + sign."""
    sign = normalize_sign(sign)
    g = space or group_space()
    one = g.table.one()
    da_d = g.differential("a*")
    db_d = g.differential("b*")
    de = g.differential("eta")
    ded = g.differential("eta*")
    form = ((g.table.scalar(n) - rat(1, 4) * g.eta * g.etad) * (g.a * da_d + g.b * db_d)
            + rat(1, 8) * (g.eta * ded + g.etad * de))
    return form if sign == MINUS else -form


def curvature(proj: Projector) -> SuperMatrix:
    """p (dp)^2 with entrywise exterior derivative and wedge products."""
    dp = proj.matrix.map_entries(d)
    return proj.matrix @ dp @ dp


def supertrace_p_dp_dp(proj: Projector) -> SuperForm:
    """Str(p (dp)^2) evaluated without forming the full triple product."""
    p = proj.matrix
    dp = p.map_entries(d)
    T = dp @ dp
    dim = p.shape.dim
    acc = None
    for i in range(dim):
        inner = None
        for k in range(dim):
            term = p.entries[i][k] * T.entries[k][i]
            inner = term if inner is None else inner + term
        if p.shape.type_parity(i):
            inner = -inner
        acc = inner if acc is None else acc + inner
    return acc


CHERN_SCALAR = Scalar.of(0, Fraction(1, 2), 1, -1)  # -(1/(2 pi i)) = i/(2 pi)


def _pairing_chern_form(components: list[Element]) -> SuperForm:
    """-(1/(2 pi i)) <d psi|d psi> for the given psi components."""
    dpsi = [d(c) for c in components]
    return pairing(dpsi, dpsi) * CHERN_SCALAR


def chern_form(sign: str, n: int, reduced: bool = True,
               space: GroupSpace | None = None) -> SuperForm:
    """First Chern 2-superform of the projector, from the O(d) pairing.

    Under the pairing and outer-product conventions fixed here the exact
    identity Str(p (dp)^2) = -<d psi|d psi> holds for normalized psi (two odd
    1-forms commute with a +1 only through the bigraded rule), so the
    normalization that reproduces the explicit closed 2-superform and the
    integer charges is

        C1 = -(1/(2 pi i)) <d psi|d psi> = +(1/(2 pi i)) Str(p (dp)^2).

    The pairing costs O(d) form products against O(d^3) for Str(p (dp)^2),
    d = 2n + 1; supertrace_p_dp_dp stays as the test oracle.
    """
    sign = normalize_sign(sign)
    g = space or group_space()
    form = _pairing_chern_form(psi(sign, n, g).components)
    return g.ideal.reduce(form) if reduced else form


def chern_form_body(sign: str, n: int, space: GroupSpace | None = None) -> SuperForm:
    """Body projection of the Chern form, from the pairing of the body psi.

    The body map is an algebra morphism that commutes with d, wedge products
    and the diamond, so pairing the differentials of the body components
    gives the body of -(1/(2 pi i)) <d psi|d psi>; the test suite checks it
    against the body of the Str(p (dp)^2) oracle.  No relation reduction is
    needed: the chart pullback evaluates the constraint exactly.
    """
    sign = normalize_sign(sign)
    g = space or group_space()
    vec = psi(sign, n, g)
    return _pairing_chern_form([c.body() for c in vec.components]).body_project()


def chern_form_canonical(sign: str, n: int, space: GroupSpace | None = None) -> SuperForm:
    """Reduced closed-form representative, verified against the pairing route.

    Raises SuperAlgebraError when -(1/(2 pi i)) <d psi|d psi> and the closed
    form disagree modulo the differential ideal (they never should).
    """
    sign = normalize_sign(sign)
    g = space or group_space()
    closed = chern_closed_form(sign, n, g)
    computed = chern_form(sign, n, reduced=False, space=g)
    if not g.equal_mod(computed, closed):
        raise SuperAlgebraError(
            "Chern pairing route disagrees with the closed form at n=%d" % n)
    return g.ideal.reduce(closed)


def chern_closed_form(sign: str, n: int, space: GroupSpace | None = None) -> SuperForm:
    """-(1/(2 pi i)) [n (da da* + db db*) + 1/4 d(a eta*) d(eta a*)
    + 1/4 d(b eta*) d(eta b*)], negated for the + sign."""
    sign = normalize_sign(sign)
    g = space or group_space()
    da = g.differential("a")
    dad = g.differential("a*")
    db = g.differential("b")
    dbd = g.differential("b*")
    quarter = rat(1, 4)
    form = (g.table.scalar(n) * (da * dad + db * dbd)
            + quarter * d(g.a * g.etad) * d(g.eta * g.ad)
            + quarter * d(g.b * g.etad) * d(g.eta * g.bd))
    form = form * CHERN_SCALAR
    return form if sign == MINUS else -form


def chern_intermediate_form(sign: str, n: int, space: GroupSpace | None = None) -> SuperForm:
    """The equivalent expanded expression:
    -(1/(2 pi i)) [(da da* + db db*)(n - 1/4 eta eta*)
    + 1/4 (a da* + b db*)(eta deta* - eta* deta) + 1/4 deta deta*]."""
    sign = normalize_sign(sign)
    g = space or group_space()
    da = g.differential("a")
    dad = g.differential("a*")
    db = g.differential("b")
    dbd = g.differential("b*")
    de = g.differential("eta")
    ded = g.differential("eta*")
    form = ((da * dad + db * dbd) * (g.table.scalar(n) - rat(1, 4) * g.eta * g.etad)
            + rat(1, 4) * (g.a * dad + g.b * dbd) * (g.eta * ded - g.etad * de)
            + rat(1, 4) * de * ded)
    form = form * CHERN_SCALAR
    return form if sign == MINUS else -form


def coordinate_chern_form(sign: str, n: int, base: BaseSpace | None = None,
                          corrected: bool = False) -> SuperForm:
    """The Chern 2-superform written in the sphere coordinates.

    (n / 4 pi) (x0 dx1 dx2 + x1 dx2 dx0 + x2 dx0 dx1)(1 + 3 xi- xi+)
    + (1 / 4 pi i) [ (dx1 - i dx2) xi+ dxi+ - (dx1 + i dx2) xi- dxi-
       + dx0 (xi- dxi+ + xi+ dxi-) + (x1 - i x2) dxi+ dxi+
       - (x1 + i x2) dxi- dxi- - 2 x0 dxi- dxi+ ],
    negated for the + sign.

    With corrected=True the last fermionic term enters as +2 x0 dxi- dxi+;
    that sign is the unique choice matching the group-space curvature
    computation (see coordinate_chern_report), while the default transcribes
    the source expression verbatim.  The two variants have the same body, so
    Berezin integrals are unaffected.
    """
    sign = normalize_sign(sign)
    s = base or base_space()
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
    last = 2 * (x0 * dxm * dxp)
    fer = ((dx1 - i * dx2) * xip * dxp - (dx1 + i * dx2) * xim * dxm
           + dx0 * (xim * dxp + xip * dxm)
           + (x1 - i * x2) * dxp * dxp - (x1 + i * x2) * dxm * dxm
           + (last if corrected else -last))
    fer = fer * quarter_pi_i
    form = bos + fer
    return form if sign == MINUS else -form


@dataclass
class CoordinateChernReport:
    """Comparison of the coordinate Chern expression with the curvature route."""

    n: int
    verbatim_matches: bool
    corrected_matches: bool
    difference: SuperForm | None


def coordinate_chern_report(n: int, space: GroupSpace | None = None) -> CoordinateChernReport:
    """Check both coordinate variants against the group-space Chern form.

    The group-space computation is authoritative; a mismatch of the verbatim
    transcription is reported with its witness, never patched silently.
    """
    g = space or group_space()
    images = coordinate_images(g)
    group_form = chern_form(MINUS, n, reduced=False, space=g)
    verbatim = coordinate_chern_form(MINUS, n).substitute(images, g.table)
    corrected = coordinate_chern_form(MINUS, n, corrected=True).substitute(images, g.table)
    v_ok = g.equal_mod(verbatim, group_form)
    c_ok = g.equal_mod(corrected, group_form)
    witness = None if v_ok else g.localizer.project(verbatim - group_form)
    return CoordinateChernReport(n, v_ok, c_ok, witness)


def coordinate_volume_form(base: BaseSpace | None = None) -> SuperForm:
    """x0 dx1 dx2 + x1 dx2 dx0 + x2 dx0 dx1 in the coordinate algebra."""
    s = base or base_space()
    dx0, dx1, dx2 = (s.differential(nm) for nm in ("x0", "x1", "x2"))
    return s.x0 * dx1 * dx2 + s.x1 * dx2 * dx0 + s.x2 * dx0 * dx1


# ---------------------------------------------------------------------------
# coordinate emission of projectors

class CoordinateEmissionError(SuperAlgebraError):
    """Raised when an entry does not factor through the base invariants."""


def _invariant_units(g: GroupSpace, s: BaseSpace) -> dict[str, tuple[Monomial, Element]]:
    """Each bilinear invariant by name: (group monomial, base expression)."""
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
    return table


def _factor_invariants(names: list[str], mono: Monomial) -> tuple[str, ...]:
    """Names of the bilinear invariants whose product is +-mono, odd one first."""
    counts = {name: 0 for name in ("a", "a*", "b", "b*")}
    for i, e in mono[0]:
        counts[names[i]] = e
    odd_names = {names[i] for i in mono[1]}
    has_eta, has_etad = "eta" in odd_names, "eta*" in odd_names
    chosen: list[str] = []
    if has_eta and has_etad:
        chosen.append("eta eta*")
    elif has_eta or has_etad:
        partner = next((p for p in (("a*", "b*") if has_eta else ("a", "b")) if counts[p]), None)
        if partner is None:
            raise CoordinateEmissionError("unbalanced odd monomial %r" % (mono,))
        counts[partner] -= 1
        chosen.append("eta " + partner if has_eta else partner + " eta*")
    for left, right in (("a", "a*"), ("a", "b*"), ("b", "a*"), ("b", "b*")):
        k = min(counts[left], counts[right])
        chosen += ["%s %s" % (left, right)] * k
        counts[left] -= k
        counts[right] -= k
    if any(counts.values()):
        raise CoordinateEmissionError("monomial %r is not U(1)-invariant" % (mono,))
    return tuple(chosen)


def _base_converter(space: GroupSpace, base: BaseSpace):
    """A function taking U(1)-invariant group elements to sphere coordinates.

    Its table maps each factorization (u1, ..., uk) into bilinear invariants
    to (group monomial, sign, base image), each built from its prefix; the
    entries of one matrix share most factorizations, so they share the table.
    """
    units = _invariant_units(space, base)
    names = space.table.names
    reduce = base.rewrites.reduce
    table: dict[tuple[str, ...], tuple[Monomial, int, Element]] = {(): (ONE_MONO, 1, base.table.one())}

    def image(key: tuple[str, ...]) -> tuple[Monomial, int, Element]:
        hit = table.get(key)
        if hit is None:
            mono, sign, img = image(key[:-1])
            unit_mono, unit_img = units[key[-1]]
            # at most one unit is odd, so the product never vanishes
            unit_sign, mono = mono_mul(mono, unit_mono)
            hit = table[key] = (mono, sign * unit_sign, reduce(img * unit_img))
        return hit

    def to_base(x: Element) -> Element:
        terms: dict[Monomial, Scalar] = {}
        for mono, coeff in x.terms.items():
            got, sign, img = image(_factor_invariants(names, mono))
            # the candidate factorization must reproduce the monomial
            if got != mono:
                raise CoordinateEmissionError("factorization failed for %r" % (mono,))
            if sign < 0:
                coeff = -coeff
            for m, c in img.terms.items():
                c = coeff * c
                terms[m] = terms[m] + c if m in terms else c
        # reduce returns the unique normal form, so it is linear and a sum of
        # reduced images is already reduced
        return Element(base.table, terms)

    return to_base


def element_to_base(x: Element, space: GroupSpace | None = None,
                    base: BaseSpace | None = None) -> Element:
    """Rewrite a U(1)-invariant group element in sphere coordinates.

    Each monomial is factored into the bilinear invariants aa*, ab*, eta a*,
    ... whose coordinate expressions are substituted exactly; the candidate
    factorization is verified against the monomial, so a wrong pairing cannot
    produce a silent error.
    """
    return _base_converter(space or group_space(), base or base_space())(x)


def projector_to_base(proj: Projector, space: GroupSpace | None = None,
                      base: BaseSpace | None = None) -> SuperMatrix:
    """The projector with every entry rewritten in sphere coordinates."""
    to_base = _base_converter(space or group_space(), base or base_space())
    return SuperMatrix(proj.matrix.shape,
                       [[to_base(e) for e in row] for row in proj.matrix.entries], parity=0)


def group_identities_report(space: GroupSpace | None = None) -> list[IdentityCheck]:
    """Unitarity and unit superdeterminant of the group element."""
    g = space or group_space()
    s = group_element(g)
    ident = SuperMatrix.identity(s.shape, g.table)
    ssd = (s @ s.dagger()).reduce(g.rewrites)
    sds = (s.dagger() @ s).reduce(g.rewrites)
    det = sdet(s, g.rewrites)
    out = [
        IdentityCheck("s s-dagger = 1", ssd == ident),
        IdentityCheck("s-dagger s = 1", sds == ident),
        IdentityCheck("Sdet(s) = 1", det == g.table.one(),
                      None if det == g.table.one() else det - g.table.one()),
        IdentityCheck("sphere relation", sphere_relation_check(g)),
    ]
    return out
