"""The monopole construction: group element, coordinates, projectors, forms."""

import dataclasses
import json
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersphere import monopole
from supersphere.algebra import EVEN, ODD, Element, GeneratorTable, RewriteSystem, mono_mul
from supersphere.berezin import chern_number
from supersphere.forms import SuperForm, d
from supersphere.matrices import BlockShape, EVEN_FIRST, SuperMatrix, sdet
from supersphere.monopole import (CHERN_SCALAR, MINUS, PLUS, CoordinateEmissionError,
                                  base_coordinates, base_space, check_equivariance,
                                  chern_closed_form, chern_form, chern_form_body,
                                  chern_form_canonical, chern_intermediate_form,
                                  connection_closed_form, connection_form,
                                  coordinate_chern_form, coordinate_chern_report,
                                  coordinate_images, curvature, element_to_base,
                                  EquivarianceReport, group_element,
                                  group_identities_report, group_space,
                                  inversion_identities, nilpotent_exp_report,
                                  osp_fixtures, outer_with_kernel, pairing, projector,
                                  projector_to_base, psi, section_to_equivariant,
                                  sphere_relation_check, supertrace_p_dp_dp, u1_charge,
                                  Projector, PsiVector, block_shape_1_2,
                                  _factor_invariants, _invariant_units)
from supersphere.scalars import Scalar, rat
from supersphere.tests_support import random_element


@pytest.fixture(scope="module")
def g():
    return group_space()


def _fixture(name):
    with resources.files("supersphere.fixtures").joinpath(name).open() as fh:
        return json.load(fh)


# -- group element -------------------------------------------------------------

def test_group_element_unitary(g):
    s = group_element(g)
    ident = SuperMatrix.identity(s.shape, g.table)
    assert (s @ s.dagger()).reduce(g.rewrites) == ident
    assert (s.dagger() @ s).reduce(g.rewrites) == ident


def test_group_element_sdet_one(g):
    assert sdet(group_element(g), g.rewrites) == g.table.one()


def test_group_element_at_unit_parameters(g):
    s = group_element(g).substitute({"a": g.table.one(), "a*": g.table.one(),
                                     "b": g.table.zero(), "b*": g.table.zero(),
                                     "eta": g.table.zero(), "eta*": g.table.zero()})
    assert s == SuperMatrix.identity(BlockShape(1, 2, EVEN_FIRST), g.table)


def test_group_identities_report(g):
    assert all(item.holds for item in group_identities_report(g))


# -- nilpotent exponentials ------------------------------------------------------

def test_exponential_series_terminates_at_order_two(g):
    rep = nilpotent_exp_report(g)
    assert rep.terminates_at_order_two


def test_exponential_product_vs_sum(g):
    """The naive product = sum equality fails by an exact commutator term.

    The documented discrepancy is (1/2)[eta R+, eta* R-] =
    (1/8) eta eta* diag(0, 1, -1); the corrected factorization holds and the
    sum form is the odd factor of the parametrized group element.
    """
    rep = nilpotent_exp_report(g)
    assert rep.product_equals_sum is False
    fix = osp_fixtures(g)
    bch_term = fix["A0"].scale(Scalar.of(0, Fraction(-1, 4)) * (g.eta * g.etad))
    assert rep.difference == bch_term
    assert rep.bch_equal
    assert rep.sum_matches_group_factor


# -- coordinates -------------------------------------------------------------------

def test_coordinates_match_displayed_formulas(g):
    c = base_coordinates(g)
    one = g.table.one()
    fer = one - rat(1, 4) * g.eta * g.etad
    i = Scalar.i()
    R = g.rewrites
    assert R.reduce(c.x0 - (g.a * g.ad - g.b * g.bd) * fer).is_zero
    assert R.reduce(c.x0 - (2 * (g.a * g.ad) - one) * fer).is_zero
    assert R.reduce(c.x1 - (g.a * g.bd + g.b * g.ad) * fer).is_zero
    assert R.reduce(c.x2 - i * (g.a * g.bd - g.b * g.ad) * fer).is_zero
    assert R.reduce(c.xim - rat(-1, 2) * (g.a * g.etad + g.eta * g.bd)).is_zero
    assert R.reduce(c.xip - rat(1, 2) * (g.eta * g.ad - g.b * g.etad)).is_zero


def test_coordinates_reality_properties(g):
    c = base_coordinates(g)
    R = g.rewrites
    for x in (c.x0, c.x1, c.x2):
        assert R.reduce(x.diamond() - x).is_zero
        assert x.parity() == "even"
    assert R.reduce(c.xim.diamond() - c.xip).is_zero
    assert R.reduce(c.xip.diamond() + c.xim).is_zero
    assert c.xim.parity() == "odd" and c.xip.parity() == "odd"
    # fermionic coordinates have no body
    assert c.xim.body().is_zero and c.xip.body().is_zero


def test_sphere_relation(g):
    assert sphere_relation_check(g)


def test_quarter_eta_identity(g):
    c = base_coordinates(g)
    target = rat(1, 4) * g.eta * g.etad - c.xim * c.xip
    assert g.rewrites.reduce(target).is_zero


def test_inversion_identities_hold(g):
    checks = inversion_identities(g)
    assert len(checks) == 6
    for item in checks:
        assert item.holds, item.name


def test_inversion_identities_degenerate_without_eta(g):
    """With eta = 0 the fermionic identities collapse to 0 = 0."""
    kill = {"eta": g.table.zero(), "eta*": g.table.zero()}
    c = base_coordinates(g)
    for expr in (c.xim, c.xip):
        assert expr.substitute(kill, g.table).is_zero


# -- psi vectors ----------------------------------------------------------------------

def test_psi_minus_one_components(g):
    v = psi(MINUS, 1, g)
    one = g.table.one()
    e8 = one - rat(1, 8) * g.eta * g.etad
    assert v.components == [rat(1, 2) * g.eta, e8 * g.a, e8 * g.b]


def test_psi_minus_two_has_sqrt2(g):
    v = psi(MINUS, 2, g)
    e8 = g.table.one() - rat(1, 8) * g.eta * g.etad
    assert v.components[3] == g.table.scalar(Scalar.sqrt_int(2)) * e8 * g.a * g.b
    assert v.components[1] == rat(1, 2) * g.eta * g.b


def _psi_by_products(g, sign, n):
    """Oracle for psi: the components as products of generator Elements."""
    factor = g.table.one() - rat(1, 8) * g.eta * g.etad
    u, v, h = (g.a, g.b, g.eta) if sign == MINUS else (g.ad, g.bd, g.etad)
    comps = [rat(1, 2) * Scalar.sqrt_binomial(n - 1, k) * h * u ** (n - 1 - k) * v ** k
             for k in range(n)]
    comps += [Scalar.sqrt_binomial(n, k) * factor * u ** (n - k) * v ** k
              for k in range(n + 1)]
    return comps


def test_psi_matches_product_oracle(g):
    for n in range(1, 9):
        for sign in (MINUS, PLUS):
            assert psi(sign, n, g).components == _psi_by_products(g, sign, n), (sign, n)


def test_psi_normalized(g):
    one = g.table.one()
    for n in (1, 2, 3):
        for sign in (MINUS, PLUS):
            v = psi(sign, n, g)
            assert g.rewrites.reduce(pairing(v, v) - one).is_zero, (sign, n)


def test_psi_requires_positive_n(g):
    with pytest.raises(ValueError):
        psi(MINUS, 0, g)


def test_psi_families_related_by_diamond(g):
    for n in (1, 2, 3):
        vm, vp = psi(MINUS, n, g), psi(PLUS, n, g)
        assert [c.diamond() for c in vm.components] == vp.components


def test_pairing_zero_and_shape_mismatch(g):
    v = psi(MINUS, 1, g)
    zero = [g.table.zero()] * 3
    assert pairing(zero, v.components).is_zero
    with pytest.raises(ValueError):
        pairing(v.components, v.components[:2])


# -- projectors --------------------------------------------------------------------------

def test_projector_identities(g):
    one = g.table.one()
    for n in (1, 2, 3):
        for sign in (MINUS, PLUS):
            mat = projector(psi(sign, n, g)).matrix
            assert (mat @ mat).reduce(g.rewrites) == mat, ("p^2", sign, n)
            assert mat.dagger().reduce(g.rewrites) == mat, ("dagger", sign, n)
            assert g.rewrites.reduce(mat.supertrace()) == one, ("Str", sign, n)
            assert mat.validate_parity()


def test_validate_parity_checks_form_entries(g):
    dp = projector(psi(MINUS, 1, g)).matrix.map_entries(d)
    assert dp.validate_parity()
    assert not SuperMatrix(dp.shape, dp.entries, parity=1).validate_parity()


def test_supertrace_charge_three(g):
    assert g.rewrites.reduce(projector(psi(MINUS, 3, g)).matrix.supertrace()) \
        == g.table.one()


def test_projector_diagonal_is_radical_free(g):
    """The square-root binomial factors always cancel on the diagonal."""
    for n in (2, 3):
        mat = projector(psi(MINUS, n, g)).matrix
        for k in range(2 * n + 1):
            for coeff in mat.entries[k][k].terms.values():
                assert all(rad == 1 for rad, _, _, _ in coeff.components())


def test_projector_supertranspose_relation(g):
    for n in (1, 2, 3):
        pm = projector(psi(MINUS, n, g)).matrix
        pp = projector(psi(PLUS, n, g)).matrix
        assert pm.supertranspose() == pp


def test_projector_charge_labels(g):
    assert projector(psi(MINUS, 2, g)).charge == 2
    assert projector(psi(PLUS, 2, g)).charge == -2


def test_golden_projectors_via_coordinate_emission(g):
    base = base_space()
    for sign, fname in ((MINUS, "p_minus_1.json"), (PLUS, "p_plus_1.json")):
        want = SuperMatrix.from_obj(base.table, _fixture(fname)["matrix"])
        got = projector_to_base(projector(psi(sign, 1, g)))
        assert got == want, sign


def test_golden_projector_via_pullback_substitution(g):
    """Substituting the coordinate expressions into the golden entries
    reproduces the group-space projector exactly."""
    base = base_space()
    images = coordinate_images(g)
    for sign, fname in ((MINUS, "p_minus_1.json"), (PLUS, "p_plus_1.json")):
        golden = SuperMatrix.from_obj(base.table, _fixture(fname)["matrix"])
        proj = projector(psi(sign, 1, g)).matrix
        for i in range(3):
            for j in range(3):
                pulled = golden.entries[i][j].substitute(images, g.table)
                assert g.rewrites.reduce(pulled - proj.entries[i][j]).is_zero, (sign, i, j)


def test_projector_sign_placement_uniquely_fixed(g):
    """Brute-force elimination over the four Koszul sign placements.

    Exactly one placement per charge family reproduces the displayed
    matrices: the row parity for the minus family and the column parity for
    the plus family (the latter equals the supertranspose of the former).
    """
    base = base_space()
    images = coordinate_images(g)

    def build(vec, placement):
        n = vec.n
        dia = [c.diamond() for c in vec.components]
        rows = []
        for alpha in range(2 * n + 1):
            row = []
            for beta in range(2 * n + 1):
                entry = vec.components[alpha] * dia[beta]
                sign = 1
                if placement in ("row", "both") and vec.block_parity(alpha):
                    sign = -sign
                if placement in ("col", "both") and vec.block_parity(beta):
                    sign = -sign
                row.append(g.rewrites.reduce(entry if sign > 0 else -entry))
            rows.append(row)
        return rows

    for sign, fname, expected in ((MINUS, "p_minus_1.json", "row"),
                                  (PLUS, "p_plus_1.json", "col")):
        golden = SuperMatrix.from_obj(base.table, _fixture(fname)["matrix"])
        target = [[g.rewrites.reduce(golden.entries[i][j].substitute(images, g.table))
                   for j in range(3)] for i in range(3)]
        matches = []
        for placement in ("none", "row", "col", "both"):
            rows = build(psi(sign, 1, g), placement)
            if all(rows[i][j] == target[i][j] for i in range(3) for j in range(3)):
                matches.append(placement)
        assert matches == [expected], (sign, matches)


# -- equivariance ----------------------------------------------------------------------

def test_equivariance_reports(g):
    for n in (1, 2, 3):
        for sign in (MINUS, PLUS):
            rep = check_equivariance(sign, n)
            assert rep.psi_covariant and rep.projector_invariant, (sign, n)


# The circle action by substitution, the oracle for the charge test: the group
# generators with the circle pair w, w* adjoined, and w w* -> 1.
CIRCLE_TABLE = GeneratorTable.build(conjugate_pairs=[
    ("a", "a*", EVEN), ("b", "b*", EVEN), ("eta", "eta*", ODD), ("w", "w*", EVEN)])
CIRCLE_REWRITES = RewriteSystem(CIRCLE_TABLE, [
    (CIRCLE_TABLE.gen("b") * CIRCLE_TABLE.gen("b*"),
     CIRCLE_TABLE.one() - CIRCLE_TABLE.gen("a") * CIRCLE_TABLE.gen("a*")),
    (CIRCLE_TABLE.gen("w") * CIRCLE_TABLE.gen("w*"), CIRCLE_TABLE.one())])


def u1_images() -> dict[str, Element]:
    t = CIRCLE_TABLE
    w, wd = t.gen("w"), t.gen("w*")
    return {
        "a": t.gen("a") * w, "a*": t.gen("a*") * wd,
        "b": t.gen("b") * w, "b*": t.gen("b*") * wd,
        "eta": t.gen("eta") * w, "eta*": t.gen("eta*") * wd,
    }


def u1_embedding() -> SuperMatrix:
    """diag(1, w, w*) over the circle table."""
    t = CIRCLE_TABLE
    z = t.zero()
    rows = [[t.one(), z, z], [z, t.gen("w"), z], [z, z, t.gen("w*")]]
    return SuperMatrix(block_shape_1_2(), rows, parity=0)


def _lift(x: Element) -> Element:
    return x.substitute({}, CIRCLE_TABLE)


def _substitution_report(sign, n) -> EquivarianceReport:
    """psi(a w, ...) = w^n psi (or w*^n) and p(a w, ...) = p, by substitution.

    Reads psi and projector through the module, so a patched one is checked.
    """
    images = u1_images()
    vec = monopole.psi(sign, n)
    w_pow = CIRCLE_TABLE.gen("w" if sign == MINUS else "w*") ** n
    covariant = all(
        CIRCLE_REWRITES.reduce(c.substitute(images, CIRCLE_TABLE) - w_pow * _lift(c)).is_zero
        for c in vec.components)
    invariant = all(
        CIRCLE_REWRITES.reduce(e.substitute(images, CIRCLE_TABLE) - _lift(e)).is_zero
        for row in monopole.projector(vec).matrix.entries for e in row)
    return EquivarianceReport(sign, n, covariant, invariant)


def test_charge_check_matches_substitution_oracle():
    for n in (1, 2):
        for sign in (MINUS, PLUS):
            assert check_equivariance(sign, n) == _substitution_report(sign, n), (sign, n)


def test_wrong_charge_in_psi_component_is_caught(g, monkeypatch):
    original = monopole.psi

    def bad_psi(sign, n, space=None):
        vec = original(sign, n, space)
        comps = list(vec.components)
        comps[-1] = comps[-1] + g.ad ** n          # charge -n beside charge +n
        return PsiVector(vec.sign, vec.n, comps)

    monkeypatch.setattr(monopole, "psi", bad_psi)
    rep = check_equivariance(MINUS, 2)
    assert not rep.psi_covariant
    assert rep == _substitution_report(MINUS, 2)


def test_zero_of_wrong_charge_is_not_a_witness(g, monkeypatch):
    # (a a* + b b* - 1) a^2 vanishes modulo the relation: only the normal form
    # of a component counts, so the check stays covariant
    original = monopole.psi
    relation = g.a * g.ad + g.b * g.bd - g.table.one()

    def padded_psi(sign, n, space=None):
        vec = original(sign, n, space)
        comps = list(vec.components)
        comps[0] = comps[0] + relation * g.a ** 2
        return PsiVector(vec.sign, vec.n, comps)

    monkeypatch.setattr(monopole, "psi", padded_psi)
    rep = check_equivariance(MINUS, 1)
    assert rep.psi_covariant
    assert rep == _substitution_report(MINUS, 1)


def test_wrong_charge_in_projector_entry_is_caught(g, monkeypatch):
    original = monopole.projector

    def bad_projector(vec, reduce=True, space=None):
        proj = original(vec, reduce, space)
        rows = [list(row) for row in proj.matrix.entries]
        rows[0][0] = rows[0][0] + g.a * g.bd * g.b   # charge +1
        return Projector(proj.sign, proj.n, SuperMatrix(proj.matrix.shape, rows, parity=0))

    monkeypatch.setattr(monopole, "projector", bad_projector)
    rep = check_equivariance(PLUS, 2)
    assert rep.psi_covariant and not rep.projector_invariant
    assert rep == _substitution_report(PLUS, 2)


def _charges(x: Element) -> set[int]:
    return {u1_charge(x.algebra, mono) for mono in x.terms}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_charge_is_a_grading(seed):
    """Products add charges, the diamond negates them, reduce keeps them."""
    g = group_space()
    rng = random.Random(seed)
    x = random_element(g.table, rng)
    y = random_element(g.table, rng)
    for m1 in x.terms:
        for m2 in y.terms:
            prod = mono_mul(m1, m2)
            if prod is not None:
                assert u1_charge(g.table, prod[1]) == (u1_charge(g.table, m1)
                                                       + u1_charge(g.table, m2))
    assert _charges(x * y) <= {p + q for p in _charges(x) for q in _charges(y)}
    assert _charges(x.diamond()) == {-q for q in _charges(x)}
    for q in _charges(x):
        part = Element(g.table, {m: c for m, c in x.terms.items()
                                 if u1_charge(g.table, m) == q})
        assert _charges(g.rewrites.reduce(part)) <= {q}


def test_psi_covariance_exact_power(g):
    images = u1_images()
    v = psi(MINUS, 1, g)
    w = CIRCLE_TABLE.gen("w")
    for comp in v.components:
        moved = comp.substitute(images, CIRCLE_TABLE)
        assert CIRCLE_REWRITES.reduce(moved - w * _lift(comp)).is_zero


def test_unit_circle_substitution_is_identity(g):
    t = CIRCLE_TABLE
    images = {name: img.substitute({"w": t.one(), "w*": t.one()}, t)
              for name, img in u1_images().items()}
    x = _lift(g.a * g.etad + g.b * g.bd)
    assert x.substitute(images, t) == x


def test_circle_action_is_right_multiplication(g):
    """s(aw, bw, eta w) equals s(a,b,eta) diag(1, w, w*) mod w w* = 1."""
    s = group_element(g).substitute({}, CIRCLE_TABLE)
    moved = s.substitute(u1_images(), CIRCLE_TABLE)
    prod = s @ u1_embedding()
    diff = moved - prod
    assert all(CIRCLE_REWRITES.reduce(e).is_zero for row in diff.entries for e in row)


# -- sections and equivariant maps --------------------------------------------------------

def test_section_to_equivariant_zero(g):
    assert section_to_equivariant(MINUS, 2, [g.table.zero()] * 5, g).is_zero


def test_section_to_equivariant_unit_slots(g):
    n, k = 3, 1
    f = [g.table.zero()] * (2 * n + 1)
    f[n + k] = g.table.one()           # unit vector in slot k of the even block
    got = section_to_equivariant(MINUS, n, f, g)
    e8 = g.table.one() - rat(1, 8) * g.eta * g.etad
    import math
    want = g.table.scalar(Scalar.sqrt_int(math.comb(n, k))) * e8 * \
        g.a ** (n - k) * g.b ** k
    assert got == want


def test_section_to_equivariant_general_shape(g):
    n = 2
    f = [g.table.scalar(j + 1) for j in range(2 * n + 1)]
    phi = section_to_equivariant(MINUS, n, f, g)
    v = psi(MINUS, n, g)
    want = sum((comp * fj for comp, fj in zip(v.components, f)), g.table.zero())
    assert phi == want
    with pytest.raises(ValueError):
        section_to_equivariant(MINUS, n, f[:-1], g)


# -- connection forms -----------------------------------------------------------------------

def test_connection_closed_form(g):
    for n in (1, 2, 3, 4):
        a_form = connection_form(psi(MINUS, n, g), space=g)
        closed = g.ideal.reduce(connection_closed_form(MINUS, n, g))
        assert a_form == closed, n


def test_connection_antihermitian_and_sign_flip(g):
    for n in (1, 2, 3):
        am = connection_form(psi(MINUS, n, g), space=g)
        ap = connection_form(psi(PLUS, n, g), space=g)
        assert g.ideal.reduce(am.diamond() + am).is_zero
        assert g.ideal.reduce(ap + am).is_zero


def test_connection_matches_golden_fixture(g):
    want = SuperForm.from_obj(g.table, _fixture("a_minus_1.json")["form"])
    assert connection_form(psi(MINUS, 1, g), space=g) == want


# -- curvature and Chern forms -----------------------------------------------------------------

def test_curvature_entries_are_even_two_forms(g):
    """Form degree 2 throughout, Grassmann-even in the block sense: the
    parity of each entry matches the row/column type parities."""
    proj = projector(psi(MINUS, 1, g))
    cur = curvature(proj)
    shape = proj.matrix.shape
    for i, row in enumerate(cur.entries):
        for j, entry in enumerate(row):
            if entry.is_zero:
                continue
            assert entry.form_degrees() == {2}
            want = (shape.type_parity(i) + shape.type_parity(j)) % 2
            assert entry.grassmann_parity() == want


def test_curvature_equals_outer_kernel_up_to_convention_sign(g):
    """p (dp)^2 = -|psi> <d psi|d psi> <psi| under the conventions used here.

    The minus sign is forced by the pairing with the diamond on the second
    slot: commuting the two odd-parity 1-forms in the gamma contraction
    flips the kernel, see the package documentation.
    """
    for n in (1, 2):
        vec = psi(MINUS, n, g)
        proj = projector(vec)
        cur = curvature(proj)
        kernel = pairing([d(c) for c in vec.components],
                         [d(c) for c in vec.components])
        rhs = outer_with_kernel(vec, kernel)
        dim = 2 * n + 1
        for i in range(dim):
            for j in range(dim):
                assert g.localizer.is_zero_mod(cur.entries[i][j]
                                               + rhs.entries[i][j]), (n, i, j)


def test_supertrace_curvature_vs_pairing(g):
    for n in (1, 2):
        for sign in (MINUS, PLUS):
            vec = psi(sign, n, g)
            S = supertrace_p_dp_dp(projector(vec))
            K = pairing([d(c) for c in vec.components],
                        [d(c) for c in vec.components])
            assert g.localizer.is_zero_mod(S + K), (sign, n)


def test_chern_form_chain(g):
    for n in (1, 2):
        for sign in (MINUS, PLUS):
            computed = chern_form(sign, n, reduced=False, space=g)
            assert g.equal_mod(computed, chern_closed_form(sign, n, g)), (sign, n)
            assert g.equal_mod(computed, chern_intermediate_form(sign, n, g)), (sign, n)


def test_chern_form_smoncf_lines_equal_under_display_reduction(g):
    for n in (1, 2):
        lhs = g.ideal.reduce(chern_intermediate_form(MINUS, n, g))
        rhs = g.ideal.reduce(chern_closed_form(MINUS, n, g))
        assert lhs == rhs


def test_chern_form_sign_flip(g):
    for n in (1, 2):
        cm = chern_form(MINUS, n, reduced=False, space=g)
        cp = chern_form(PLUS, n, reduced=False, space=g)
        assert g.equal_mod(cp, -cm)


def test_chern_form_canonical_matches_fixture(g):
    want = SuperForm.from_obj(g.table, _fixture("c1_minus_1.json")["form"])
    assert chern_form_canonical(MINUS, 1, g) == want


def test_chern_pairing_route_at_larger_n(g):
    """Chern numbers and the verified canonical form beyond the oracle's range."""
    for n in (8, 12):
        assert chern_number(MINUS, n, space=g) == n
        assert chern_number(PLUS, n, space=g) == -n
    for sign in (MINUS, PLUS):
        want = g.ideal.reduce(chern_closed_form(sign, 6, g))
        assert chern_form_canonical(sign, 6, g) == want, sign


def test_chern_body_route_agrees_with_full_route(g):
    """The body pairing route matches the body of the Str(p (dp)^2) oracle."""
    for n in (1, 2, 3):
        for sign in (MINUS, PLUS):
            oracle = -supertrace_p_dp_dp(projector(psi(sign, n, g))) * CHERN_SCALAR
            full = oracle.body_project()
            fast = chern_form_body(sign, n, g)
            assert g.localizer.is_zero_mod(full - fast), (sign, n)


def test_coordinate_chern_report(g):
    """The verbatim coordinate expression misses the group-space form by one
    fermionic sign; the corrected variant (+2 x0 dxi- dxi+) matches.  The
    discrepancy is reported with a witness, never patched silently."""
    for n in (1, 2):
        rep = coordinate_chern_report(n, g)
        assert rep.corrected_matches, n
        assert not rep.verbatim_matches, n
        assert rep.difference is not None and not rep.difference.is_zero


def test_coordinate_chern_variants_share_body(g):
    for n in (1, 2):
        verbatim = coordinate_chern_form(MINUS, n)
        corrected = coordinate_chern_form(MINUS, n, corrected=True)
        assert verbatim.body_project() == corrected.body_project()


# -- coordinate emission --------------------------------------------------------------------

def test_element_to_base_roundtrip_n2(g):
    base = base_space()
    images = coordinate_images(g)
    proj = projector(psi(MINUS, 2, g))
    emitted = projector_to_base(proj, g, base)
    for i in range(5):
        for j in range(5):
            pulled = emitted.entries[i][j].substitute(images, g.table)
            assert g.rewrites.reduce(pulled - proj.matrix.entries[i][j]).is_zero, (i, j)


def _element_to_base_oracle(x, g, base):
    """The per-monomial route: factor each monomial into the bilinear
    invariants, multiply their group elements and base expressions, check the
    group product against the monomial, and reduce the sum once."""
    units = {name: (_unit_group(g, name), expr)
             for name, (_, expr) in _invariant_units(g, base).items()}
    out = base.table.zero()
    for mono, coeff in x.terms.items():
        group_prod, base_prod = g.table.one(), base.table.one()
        for name in _factor_invariants(g.table.names, mono):
            ge, be = units[name]
            group_prod = group_prod * ge
            base_prod = base_prod * be
        target = Element(g.table, {mono: Scalar.one()})
        if group_prod == target:
            out = out + coeff * base_prod
        else:
            assert group_prod == -target, mono
            out = out - coeff * base_prod
    return base.rewrites.reduce(out)


def _unit_group(g, name):
    first, second = name.split()
    return g.table.gen(first) * g.table.gen(second)


@pytest.mark.parametrize("sign", [MINUS, PLUS])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_projector_to_base_matches_per_monomial_oracle(g, sign, n):
    base = base_space()
    proj = projector(psi(sign, n, g))
    emitted = projector_to_base(proj, g, base)
    for row, got_row in zip(proj.matrix.entries, emitted.entries):
        for entry, got in zip(row, got_row):
            assert got == _element_to_base_oracle(entry, g, base)


def test_element_to_base_matches_per_monomial_oracle(g):
    base = base_space()
    entries = projector(psi(PLUS, 2, g)).matrix.entries
    one_entry = entries[4][4]
    two_rows = entries[1][1] + entries[3][4]
    for x in (one_entry, two_rows):
        assert len(x.terms) > 1
        assert element_to_base(x, g, base) == _element_to_base_oracle(x, g, base)


def test_element_to_base_rejects_non_invariant(g):
    with pytest.raises(CoordinateEmissionError):
        element_to_base(g.a, g)
    with pytest.raises(CoordinateEmissionError):
        element_to_base(g.eta, g)


def test_element_to_base_checks_the_factorization():
    # the factorization ignores odd generators other than eta, eta*, so only
    # the check of the units' product against the monomial catches a t
    # element_to_base reads only the table of the group space
    table = GeneratorTable.build(conjugate_pairs=[
        ("a", "a*", EVEN), ("b", "b*", EVEN), ("eta", "eta*", ODD), ("t", "t*", ODD)])
    space = dataclasses.replace(group_space(), table=table)
    with pytest.raises(CoordinateEmissionError, match="factorization failed"):
        element_to_base(space.a * space.ad * space.table.gen("t"), space)
