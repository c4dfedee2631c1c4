"""The monopole construction: group element, coordinates, projectors, forms."""

import dataclasses
import functools
import itertools
import json
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersphere import monopole
from supersphere.algebra import EVEN, ODD, Element, GeneratorTable, SuperAlgebraError
from supersphere.berezin import chern_number
from supersphere.forms import SuperForm, d
from supersphere.matrices import BlockShape, EVEN_FIRST, SuperMatrix, exp_nilpotent, sdet
from supersphere.monopole import (CHERN_SCALAR, MINUS, PLUS, CoordinateEmissionError,
                                  base_space, check_equivariance, check_group_identities,
                                  check_inversion_identities, check_nilpotent_exp,
                                  chern_closed_form, chern_form, chern_form_canonical,
                                  connection_closed_form, connection_form,
                                  coordinate_chern_form,
                                  coordinate_images, element_to_base,
                                  group_element, group_space,
                                  osp_fixtures, pairing, projector,
                                  projector_to_base, psi, psi_body, section_to_equivariant,
                                  supertrace_p_dp_dp, u1_charge,
                                  Projector, PsiVector, block_shape_1_2,
                                  _base_converter, _invariant_units, _self_adjoint,
                                  _signed_outer)
from supersphere.scalars import Scalar, rat
from supersphere.tests_support import random_element

from oracles import (CIRCLE_TABLE, chern_closed_form_by_algebra,
                     chern_intermediate_form_by_algebra, circle_reduce,
                     connection_closed_form_by_algebra, coordinate_chern_form_corrected,
                     coordinate_chern_report, factor_invariants, psi_from_words,
                     random_factorization, sqrt_binomial)


@pytest.fixture(scope="module")
def g():
    return group_space()


def _fixture(name):
    with resources.files("supersphere.fixtures").joinpath(name).open() as fh:
        return json.load(fh)


# -- group element -------------------------------------------------------------

def test_group_element_unitary(g):
    s = group_element()
    ident = SuperMatrix.identity(s.shape, g.table)
    assert (s @ s.dagger()).reduce(g.rewrites) == ident
    assert (s.dagger() @ s).reduce(g.rewrites) == ident


def test_group_element_sdet_one(g):
    assert sdet(group_element(), g.rewrites) == g.table.one()


def test_group_element_at_unit_parameters(g):
    s = group_element().substitute({"a": g.table.one(), "a*": g.table.one(),
                                     "b": g.table.zero(), "b*": g.table.zero(),
                                     "eta": g.table.zero(), "eta*": g.table.zero()})
    assert s == SuperMatrix.identity(BlockShape(1, 2, EVEN_FIRST), g.table)


def test_group_identities_hold(g):
    assert check_group_identities() is None


def _doubled_group_element():
    s = group_element()
    s.entries[1][1] = s.entries[1][1] * 2
    return s


def test_group_identities_name_the_first_that_fails(g, monkeypatch):
    monkeypatch.setattr(monopole, "group_element", _doubled_group_element)
    assert check_group_identities() == "s s-dagger = 1"


def test_group_identities_give_the_superdeterminant_difference(g, monkeypatch):
    # i s stays unitary, and Sdet(i s) = i / i^2 = -i
    right = monopole.group_element
    monkeypatch.setattr(monopole, "group_element", lambda: right().scale(Scalar.i()))
    assert check_group_identities() == ("Sdet(s) = 1", g.table.scalar(Scalar.of(-1, -1)))


def test_group_identities_check_the_sphere_relation(g, monkeypatch):
    right = monopole.coordinate_images

    def scaled_x0():
        images = right()
        images["x0"] = images["x0"] * 2
        return images
    monkeypatch.setattr(monopole, "coordinate_images", scaled_x0)
    assert check_group_identities() == "sphere relation"


# -- nilpotent exponentials ------------------------------------------------------

def _odd_exponents(g):
    fix = osp_fixtures()
    return fix["R+"].scale(g.eta), fix["R-"].scale(g.etad)


def test_exponential_series_terminates_at_order_two(g):
    X, Y = _odd_exponents(g)
    total = X + Y
    assert all(e.is_zero for row in (total @ total @ total).entries for e in row)
    assert check_nilpotent_exp() is None


def test_exponential_product_vs_sum(g):
    """The naive product = sum equality fails by an exact commutator term.

    The documented discrepancy is (1/2)[eta R+, eta* R-] =
    (1/8) eta eta* diag(0, 1, -1); the corrected factorization holds and the
    sum form is the odd factor of the parametrized group element.
    """
    X, Y = _odd_exponents(g)
    difference = (exp_nilpotent(X, g.table) @ exp_nilpotent(Y, g.table)
                  - exp_nilpotent(X + Y, g.table))
    fix = osp_fixtures()
    bch_term = fix["A0"].scale(Scalar.of(0, Fraction(-1, 4)) * (g.eta * g.etad))
    assert difference == bch_term
    assert check_nilpotent_exp() is None


def test_exponential_check_refuses_a_product_equal_to_the_sum(g, monkeypatch):
    # with R- = 0 the commutator vanishes and the naive equality holds
    right = monopole.osp_fixtures

    def no_r_minus():
        fix = right()
        fix["R-"] = fix["R-"].scale(0)
        return fix
    monkeypatch.setattr(monopole, "osp_fixtures", no_r_minus)
    assert check_nilpotent_exp() == "exp(X) exp(Y) = exp(X + Y), with no commutator correction"


def test_exponential_check_catches_a_wrong_commutator_correction(g, monkeypatch):
    # the series cut after the linear term breaks exp(X) exp(Y) = exp(X + Y + [X, Y]/2)
    monkeypatch.setattr(monopole, "exp_nilpotent",
                        lambda x, table: SuperMatrix.identity(x.shape, table) + x)
    assert check_nilpotent_exp() == "exp(X) exp(Y) != exp(X + Y + [X, Y]/2)"


def test_exponential_check_compares_the_group_factor(g, monkeypatch):
    monkeypatch.setattr(monopole, "group_element", _doubled_group_element)
    assert check_nilpotent_exp() == "exp(X + Y) is not the odd factor of the group element"


# -- coordinates -------------------------------------------------------------------

def test_coordinates_match_displayed_formulas(g):
    c = coordinate_images()
    one = g.table.one()
    fer = one - rat(1, 4) * g.eta * g.etad
    i = Scalar.i()
    R = g.rewrites
    assert R.reduce(c["x0"] - (g.a * g.ad - g.b * g.bd) * fer).is_zero
    assert R.reduce(c["x0"] - (2 * (g.a * g.ad) - one) * fer).is_zero
    assert R.reduce(c["x1"] - (g.a * g.bd + g.b * g.ad) * fer).is_zero
    assert R.reduce(c["x2"] - i * (g.a * g.bd - g.b * g.ad) * fer).is_zero
    assert R.reduce(c["xi-"] - rat(-1, 2) * (g.a * g.etad + g.eta * g.bd)).is_zero
    assert R.reduce(c["xi+"] - rat(1, 2) * (g.eta * g.ad - g.b * g.etad)).is_zero


def test_coordinates_reality_properties(g):
    c = coordinate_images()
    R = g.rewrites
    for x in (c["x0"], c["x1"], c["x2"]):
        assert R.reduce(x.diamond() - x).is_zero
        assert x.parity() == "even"
    assert R.reduce(c["xi-"].diamond() - c["xi+"]).is_zero
    assert R.reduce(c["xi+"].diamond() + c["xi-"]).is_zero
    assert c["xi-"].parity() == "odd" and c["xi+"].parity() == "odd"
    # fermionic coordinates have no body
    assert c["xi-"].body().is_zero and c["xi+"].body().is_zero


def test_sphere_relation(g):
    c = coordinate_images()
    total = c["x0"] ** 2 + c["x1"] ** 2 + c["x2"] ** 2 + 2 * (c["xi-"] * c["xi+"])
    assert g.rewrites.reduce(total - g.table.one()).is_zero


def test_quarter_eta_identity(g):
    c = coordinate_images()
    target = rat(1, 4) * g.eta * g.etad - c["xi-"] * c["xi+"]
    assert g.rewrites.reduce(target).is_zero


def test_inversion_identities_hold(g):
    assert len(_invariant_units()) == 9
    assert check_inversion_identities() is None


def test_inversion_identities_check_the_emission_table(g, monkeypatch):
    # the identities are the emission table's own base images, so a wrong
    # sign in one of them is reported under its name
    units = dict(_invariant_units())
    mono, image = units["b a*"]
    units["b a*"] = (mono, -image)
    monkeypatch.setattr(monopole, "_invariant_units", lambda: units)
    assert check_inversion_identities() == "b a*"
    mono, image = units["a a*"]
    units["a a*"] = (mono, image * 2)
    assert check_inversion_identities() == "a a*, b a*"


def test_inversion_identities_degenerate_without_eta(g):
    """With eta = 0 the fermionic identities collapse to 0 = 0."""
    kill = {"eta": g.table.zero(), "eta*": g.table.zero()}
    c = coordinate_images()
    for expr in (c["xi-"], c["xi+"]):
        assert expr.substitute(kill, g.table).is_zero


# -- psi vectors ----------------------------------------------------------------------

def test_psi_minus_one_components(g):
    v = psi(MINUS, 1)
    one = g.table.one()
    e8 = one - rat(1, 8) * g.eta * g.etad
    assert v.components == [rat(1, 2) * g.eta, e8 * g.a, e8 * g.b]


def test_psi_minus_two_has_sqrt2(g):
    v = psi(MINUS, 2)
    e8 = g.table.one() - rat(1, 8) * g.eta * g.etad
    assert v.components[3] == g.table.scalar(Scalar.of(1, 0, 2)) * e8 * g.a * g.b
    assert v.components[1] == rat(1, 2) * g.eta * g.b


def _psi_by_products(g, sign, n):
    """Oracle for psi: the components as products of generator Elements."""
    factor = g.table.one() - rat(1, 8) * g.eta * g.etad
    u, v, h = (g.a, g.b, g.eta) if sign == MINUS else (g.ad, g.bd, g.etad)
    comps = [rat(1, 2) * sqrt_binomial(n - 1, k) * h * u ** (n - 1 - k) * v ** k
             for k in range(n)]
    comps += [sqrt_binomial(n, k) * factor * u ** (n - k) * v ** k
              for k in range(n + 1)]
    return comps


def test_psi_matches_product_oracle(g):
    for n in range(1, 9):
        for sign in (MINUS, PLUS):
            assert psi(sign, n).components == _psi_by_products(g, sign, n), (sign, n)


@pytest.mark.parametrize("sign", [MINUS, PLUS])
def test_psi_matches_the_word_oracle(sign):
    for n in (*range(1, 9), 64):
        assert psi(sign, n).components == psi_from_words(sign, n), (sign, n)


@pytest.mark.parametrize("sign", [MINUS, PLUS])
def test_psi_body_is_the_nonzero_body_of_psi(sign):
    # psi builds its even components from psi_body, so the bodies are also
    # compared with those of the word oracle
    for n in (*range(1, 9), 64):
        bodies = [c.body() for c in psi(sign, n).components]
        assert all(b.is_zero for b in bodies[:n]), (sign, n)
        assert psi_body(sign, n) == bodies[n:], (sign, n)
        assert psi_body(sign, n) == [c.body() for c in psi_from_words(sign, n)[n:]], (sign, n)


@pytest.mark.parametrize("sign, n", [(MINUS, 0), (PLUS, -1), ("up", 2)])
def test_psi_body_checks_sign_and_n(sign, n):
    with pytest.raises(ValueError):
        psi_body(sign, n)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", [connection_closed_form, chern_closed_form,
                                   coordinate_chern_form])
def test_closed_forms_check_n_as_psi_does(build, n):
    """A closed form exists for the n that psi takes, and no other."""
    for sign in (MINUS, PLUS):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            build(sign, n)


@pytest.mark.parametrize("n", [Fraction(3, 2), 2.0, True])
@pytest.mark.parametrize("build", [
    psi, psi_body, chern_number, connection_closed_form, chern_closed_form,
    coordinate_chern_form,
    pytest.param(lambda sign, n: chern_form_canonical(psi(sign, n)), id="chern_form_canonical"),
])
def test_n_must_be_an_int(build, n):
    """No Fraction, float or bool stands for a charge, as none does for a
    radical or a power of pi in Scalar.of.  The Chern form of CLI chern takes
    psi, which refuses the n."""
    for sign in (MINUS, PLUS):
        with pytest.raises(TypeError, match="n must be an int"):
            build(sign, n)


def test_psi_normalized(g):
    one = g.table.one()
    for n in (1, 2, 3):
        for sign in (MINUS, PLUS):
            v = psi(sign, n)
            assert g.rewrites.reduce(pairing(v, v) - one).is_zero, (sign, n)


def test_psi_requires_positive_n(g):
    with pytest.raises(ValueError):
        psi(MINUS, 0)


def test_psi_families_related_by_diamond(g):
    for n in (1, 2, 3):
        vm, vp = psi(MINUS, n), psi(PLUS, n)
        assert [c.diamond() for c in vm.components] == vp.components


def test_pairing_zero_and_shape_mismatch(g):
    v = psi(MINUS, 1)
    zero = [g.table.zero()] * 3
    assert pairing(zero, v.components).is_zero
    with pytest.raises(ValueError):
        pairing(v.components, v.components[:2])
    with pytest.raises(ValueError):
        pairing([], [])


def test_pairing_does_linear_work(g, monkeypatch):
    """The pairing of d psi at n = 64 filters at most 6 terms in Element.__init__
    per term of its 2n + 1 products.  Building the products filters about 3
    per term and the one n-ary sum each term once more: 4.2 in all.  A running
    sum refilters its whole accumulator on every +, which reads 56 here."""
    dpsi = [d(c) for c in psi(MINUS, 64).components]
    product_terms = sum(len(c.terms) for x in dpsi for c in (x * x.diamond()).terms.values())
    filtered = 0
    init = Element.__init__

    def counting_init(self, algebra, terms):
        nonlocal filtered
        filtered += len(terms)
        init(self, algebra, terms)

    monkeypatch.setattr(Element, "__init__", counting_init)
    pairing(dpsi, dpsi)
    assert filtered <= 6 * product_terms, (filtered, product_terms)


# -- projectors --------------------------------------------------------------------------

def test_projector_identities(g):
    one = g.table.one()
    for n in (1, 2, 3):
        for sign in (MINUS, PLUS):
            mat = projector(psi(sign, n)).matrix
            assert (mat @ mat).reduce(g.rewrites) == mat, ("p^2", sign, n)
            assert mat.dagger().reduce(g.rewrites) == mat, ("dagger", sign, n)
            assert g.rewrites.reduce(mat.supertrace()) == one, ("Str", sign, n)
            assert mat.validate_parity()


def test_projector_matches_full_outer_oracle(g):
    """projector computes the upper triangle and mirrors the rest by
    p = p^dagger; every entry equals the reduced product it stands for."""
    for n in range(1, 7):
        for sign in (MINUS, PLUS):
            vec = psi(sign, n)
            full = [[g.rewrites.reduce(e) for e in row] for row in _signed_outer(vec)]
            assert projector(vec).matrix.entries == full, (sign, n)


def test_validate_parity_checks_form_entries(g):
    dp = projector(psi(MINUS, 1)).matrix.map_entries(d)
    assert dp.validate_parity()
    assert not SuperMatrix(dp.shape, dp.entries, parity=1).validate_parity()


def test_supertrace_charge_three(g):
    assert g.rewrites.reduce(projector(psi(MINUS, 3)).matrix.supertrace()) \
        == g.table.one()


def test_projector_diagonal_is_radical_free(g):
    """The square-root binomial factors always cancel on the diagonal."""
    for n in (2, 3):
        mat = projector(psi(MINUS, n)).matrix
        for k in range(2 * n + 1):
            for coeff in mat.entries[k][k].terms.values():
                assert all(rad == 1 for rad, _, _, _ in coeff.components())


def test_projector_supertranspose_relation(g):
    for n in (1, 2, 3):
        pm = projector(psi(MINUS, n)).matrix
        pp = projector(psi(PLUS, n)).matrix
        assert pm.supertranspose() == pp


def test_projector_charge_labels(g):
    assert projector(psi(MINUS, 2)).charge == 2
    assert projector(psi(PLUS, 2)).charge == -2
    # one label per family: the charge a projector reports is its Chern number
    for n in (1, 2, 3):
        for sign in (MINUS, PLUS):
            assert projector(psi(sign, n)).charge == chern_number(sign, n), (sign, n)


def test_golden_projectors_via_coordinate_emission(g):
    base = base_space()
    for sign, fname in ((MINUS, "p_minus_1.json"), (PLUS, "p_plus_1.json")):
        want = SuperMatrix.from_obj(base.table, _fixture(fname)["matrix"])
        got = projector_to_base(psi(sign, 1))
        assert got == want, sign


def test_golden_projector_via_pullback_substitution(g):
    """Substituting the coordinate expressions into the golden entries
    reproduces the group-space projector exactly."""
    base = base_space()
    images = coordinate_images()
    for sign, fname in ((MINUS, "p_minus_1.json"), (PLUS, "p_plus_1.json")):
        golden = SuperMatrix.from_obj(base.table, _fixture(fname)["matrix"])
        proj = projector(psi(sign, 1)).matrix
        for i in range(3):
            for j in range(3):
                pulled = golden.entries[i][j].substitute(images, g.table)
                assert g.rewrites.reduce(pulled - proj.entries[i][j]).is_zero, (sign, i, j)


def test_projector_sign_placement_uniquely_fixed(g):
    """Brute-force elimination over the four Koszul sign placements.

    Exactly one placement per sign family reproduces the displayed
    matrices: the row parity for the minus family and the column parity for
    the plus family (the latter equals the supertranspose of the former).
    """
    base = base_space()
    images = coordinate_images()

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
            rows = build(psi(sign, 1), placement)
            if all(rows[i][j] == target[i][j] for i in range(3) for j in range(3)):
                matches.append(placement)
        assert matches == [expected], (sign, matches)


# -- equivariance ----------------------------------------------------------------------

def test_equivariance_holds(g):
    for n in (1, 2, 3):
        for sign in (MINUS, PLUS):
            assert check_equivariance(sign, n) is None, (sign, n)


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


def _substitution_check(sign, n) -> str | None:
    """psi(a w, ...) = w^n psi (or w*^n) and p(a w, ...) = p, by substitution:
    None, or the first psi component or projector entry that fails, worded as
    check_equivariance words it.

    Reads psi and projector through the module, so a patched one is checked.
    """
    images = u1_images()
    vec = monopole.psi(sign, n)
    w_pow = CIRCLE_TABLE.gen("w" if sign == MINUS else "w*") ** n
    for alpha, c in enumerate(vec.components):
        if not circle_reduce(c.substitute(images, CIRCLE_TABLE) - w_pow * _lift(c)).is_zero:
            return "psi component %d is not of charge %d" % (alpha, n if sign == MINUS else -n)
    for alpha, row in enumerate(monopole.projector(vec).matrix.entries):
        for beta, e in enumerate(row):
            if not circle_reduce(e.substitute(images, CIRCLE_TABLE) - _lift(e)).is_zero:
                return "projector entry (%d, %d) is not of charge 0" % (alpha, beta)


def test_charge_check_matches_substitution_oracle():
    for n in (1, 2):
        for sign in (MINUS, PLUS):
            assert check_equivariance(sign, n) == _substitution_check(sign, n), (sign, n)


def test_wrong_charge_in_psi_component_is_caught(g, monkeypatch):
    original = monopole.psi

    def bad_psi(sign, n):
        vec = original(sign, n)
        comps = list(vec.components)
        comps[-1] = comps[-1] + g.ad ** n          # charge -n beside charge +n
        return PsiVector(vec.sign, vec.n, comps)

    monkeypatch.setattr(monopole, "psi", bad_psi)
    witness = check_equivariance(MINUS, 2)
    assert witness == "psi component 4 is not of charge 2"
    assert witness == _substitution_check(MINUS, 2)


def test_zero_of_wrong_charge_is_not_a_witness(g, monkeypatch):
    # (a a* + b b* - 1) a^2 vanishes modulo the relation: only the normal form
    # of a component counts, so the check stays covariant
    original = monopole.psi
    relation = g.a * g.ad + g.b * g.bd - g.table.one()

    def padded_psi(sign, n):
        vec = original(sign, n)
        comps = list(vec.components)
        comps[0] = comps[0] + relation * g.a ** 2
        return PsiVector(vec.sign, vec.n, comps)

    monkeypatch.setattr(monopole, "psi", padded_psi)
    assert check_equivariance(MINUS, 1) is None
    assert _substitution_check(MINUS, 1) is None


def test_wrong_charge_in_projector_entry_is_caught(g, monkeypatch):
    original = monopole.projector

    def bad_projector(vec):
        proj = original(vec)
        rows = [list(row) for row in proj.matrix.entries]
        rows[0][0] = rows[0][0] + g.a * g.bd * g.b   # charge +1
        return Projector(proj.sign, proj.n, SuperMatrix(proj.matrix.shape, rows, parity=0))

    monkeypatch.setattr(monopole, "projector", bad_projector)
    witness = check_equivariance(PLUS, 2)
    assert witness == "projector entry (0, 0) is not of charge 0"
    assert witness == _substitution_check(PLUS, 2)


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
            prod = g.table.multiply(m1, m2)
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
    v = psi(MINUS, 1)
    w = CIRCLE_TABLE.gen("w")
    for comp in v.components:
        moved = comp.substitute(images, CIRCLE_TABLE)
        assert circle_reduce(moved - w * _lift(comp)).is_zero


def test_unit_circle_substitution_is_identity(g):
    t = CIRCLE_TABLE
    images = {name: img.substitute({"w": t.one(), "w*": t.one()}, t)
              for name, img in u1_images().items()}
    x = _lift(g.a * g.etad + g.b * g.bd)
    assert x.substitute(images, t) == x


def test_circle_action_is_right_multiplication(g):
    """s(aw, bw, eta w) equals s(a,b,eta) diag(1, w, w*) mod w w* = 1."""
    s = group_element().substitute({}, CIRCLE_TABLE)
    moved = s.substitute(u1_images(), CIRCLE_TABLE)
    prod = s @ u1_embedding()
    diff = moved - prod
    assert all(circle_reduce(e).is_zero for row in diff.entries for e in row)


# -- sections and equivariant maps --------------------------------------------------------

def test_section_to_equivariant_zero(g):
    assert section_to_equivariant(psi(MINUS, 2), [g.table.zero()] * 5).is_zero


def test_section_to_equivariant_unit_slots(g):
    n, k = 3, 1
    f = [g.table.zero()] * (2 * n + 1)
    f[n + k] = g.table.one()           # unit vector in slot k of the even block
    got = section_to_equivariant(psi(MINUS, n), f)
    e8 = g.table.one() - rat(1, 8) * g.eta * g.etad
    import math
    want = g.table.scalar(Scalar.of(1, 0, math.comb(n, k))) * e8 * \
        g.a ** (n - k) * g.b ** k
    assert got == want


def test_section_to_equivariant_general_shape(g):
    n = 2
    f = [g.table.scalar(j + 1) for j in range(2 * n + 1)]
    v = psi(MINUS, n)
    phi = section_to_equivariant(v, f)
    want = sum((comp * fj for comp, fj in zip(v.components, f)), g.table.zero())
    assert phi == want
    with pytest.raises(ValueError):
        section_to_equivariant(v, f[:-1])


# -- connection forms -----------------------------------------------------------------------

def test_connection_closed_form(g):
    """connection_form returns the closed form; oracle: the pairing through the ideal rules."""
    for n in range(1, 7):
        for sign in (MINUS, PLUS):
            vec = psi(sign, n)
            want = g.ideal.reduce(pairing(vec, [d(c) for c in vec.components]))
            assert connection_form(vec) == want, (sign, n)


def test_d_of_the_connection_pairing_is_the_curvature_pairing(g):
    """d<psi|d psi> = <d psi|d psi> term for term, with no reduction: the
    step from the verified connection to the Chern form."""
    for n in range(1, 9):
        for sign in (MINUS, PLUS):
            vec = psi(sign, n)
            dpsi = [d(c) for c in vec.components]
            assert d(pairing(vec, dpsi)) == pairing(dpsi, dpsi), (sign, n)


@pytest.mark.parametrize("build, oracle", [
    (connection_closed_form, connection_closed_form_by_algebra),
    (chern_closed_form, chern_closed_form_by_algebra),
    (lambda sign, n: chern_form_canonical(psi(sign, n)), chern_intermediate_form_by_algebra),
], ids=["connection", "chern-closed", "chern-intermediate"])
def test_closed_forms_from_term_tables_match_the_form_algebra(g, build, oracle):
    """Each closed form read from its term table, and the verified Chern form
    (d of the first, times CHERN_SCALAR), is term for term the form that sums
    and wedge products of differentials build."""
    for n in (*range(1, 9), 64):
        for sign in (MINUS, PLUS):
            assert build(sign, n) == oracle(sign, n), (sign, n)
    assert chern_closed_form(PLUS, 3, g) == chern_closed_form_by_algebra(PLUS, 3)


def test_connection_antihermitian_and_sign_flip(g):
    for n in (1, 2, 3):
        am = connection_form(psi(MINUS, n))
        ap = connection_form(psi(PLUS, n))
        assert g.ideal.reduce(am.diamond() + am).is_zero
        assert g.ideal.reduce(ap + am).is_zero


def test_connection_matches_golden_fixture(g):
    want = SuperForm.from_obj(g.table, _fixture("a_minus_1.json")["form"])
    assert connection_form(psi(MINUS, 1)) == want


# -- curvature and Chern forms -----------------------------------------------------------------

def test_curvature_entries_are_even_two_forms(g):
    """Form degree 2 throughout, Grassmann-even in the block sense: the
    parity of each entry matches the row/column type parities."""
    proj = projector(psi(MINUS, 1))
    dp = proj.matrix.map_entries(d)
    cur = proj.matrix @ dp @ dp
    shape = proj.matrix.shape
    for i, row in enumerate(cur.entries):
        for j, entry in enumerate(row):
            if entry.is_zero:
                continue
            assert {len(w) for w in entry.terms} == {2}
            want = (shape.type_parity(i) + shape.type_parity(j)) % 2
            assert entry.grassmann_parity() == want


def test_curvature_equals_outer_kernel_up_to_convention_sign(g):
    """p (dp)^2 = -|psi> <d psi|d psi> <psi| under the conventions used here.

    The minus sign is forced by the pairing with the diamond on the second
    slot: commuting the two odd-parity 1-forms in the gamma contraction
    flips the kernel, see the package documentation.
    """
    for n in (1, 2):
        vec = psi(MINUS, n)
        proj = projector(vec)
        dp = proj.matrix.map_entries(d)
        cur = proj.matrix @ dp @ dp
        kernel = pairing([d(c) for c in vec.components],
                         [d(c) for c in vec.components])
        # |psi> K <psi| = p K, as K is Grassmann-even
        rhs = proj.matrix.map_entries(lambda e: e * kernel)
        dim = 2 * n + 1
        for i in range(dim):
            for j in range(dim):
                assert g.localizer.is_zero_mod(cur.entries[i][j]
                                               + rhs.entries[i][j]), (n, i, j)


def test_supertrace_curvature_vs_pairing(g):
    for n in (1, 2):
        for sign in (MINUS, PLUS):
            vec = psi(sign, n)
            S = supertrace_p_dp_dp(projector(vec))
            K = pairing([d(c) for c in vec.components],
                        [d(c) for c in vec.components])
            assert g.localizer.is_zero_mod(S + K), (sign, n)


def test_chern_form_chain(g):
    for n in (1, 2):
        for sign in (MINUS, PLUS):
            vec = psi(sign, n)
            computed = chern_form(vec.components)
            assert g.equal_mod(computed, chern_closed_form(sign, n)), (sign, n)
            assert g.equal_mod(computed, chern_form_canonical(vec)), (sign, n)


def test_chern_form_smoncf_lines_equal_under_display_reduction(g):
    for n in (1, 2):
        lhs = g.ideal.reduce(chern_form_canonical(psi(MINUS, n)))
        rhs = g.ideal.reduce(chern_closed_form(MINUS, n))
        assert lhs == rhs


def test_chern_form_sign_flip(g):
    for n in (1, 2):
        cm = chern_form(psi(MINUS, n).components)
        cp = chern_form(psi(PLUS, n).components)
        assert g.equal_mod(cp, -cm)


def test_chern_form_canonical_matches_fixture(g):
    want = SuperForm.from_obj(g.table, _fixture("c1_minus_1.json")["form"])
    assert chern_form_canonical(psi(MINUS, 1)) == want


def test_chern_pairing_route_at_larger_n(g):
    """Chern numbers and the verified canonical form beyond the oracle's range."""
    for n in (8, 12):
        assert chern_number(MINUS, n) == n
        assert chern_number(PLUS, n) == -n
    # oracle: the closed form through the ideal rules
    for n in range(1, 9):
        for sign in (MINUS, PLUS):
            want = g.ideal.reduce(chern_closed_form(sign, n))
            assert chern_form_canonical(psi(sign, n)) == want, (sign, n)


def test_chern_form_is_the_intermediate_form_for_its_own_n_only(g):
    """The Bernstein zero test on the pairing route up to n = 64: the pairing
    form minus the expanded expression is zero at n and not at n + 1, where
    the verified route raises, and the zero test agrees with the projection.
    The expanded expression at n is chern_form_canonical(psi(sign, n)), built
    once per n and reused as the n + 1 form of the step before."""
    for sign in (MINUS, PLUS):
        expanded = chern_form_canonical(psi(sign, 1))
        for n in range(1, 65):
            computed = chern_form(psi(sign, n).components)
            expanded_next = chern_form_canonical(psi(sign, n + 1))
            same = computed - expanded
            off = computed - expanded_next
            assert g.localizer.is_zero_mod(same), (sign, n)
            assert not g.localizer.is_zero_mod(off), (sign, n)
            if n in (1, 2, 8, 64):
                assert g.localizer.project(same).is_zero
                assert not g.localizer.project(off).is_zero
                with pytest.raises(SuperAlgebraError, match="disagrees"):
                    monopole._verified([computed], -expanded_next, "Chern")
            expanded = expanded_next


def _scaled(vec):
    return PsiVector(vec.sign, vec.n, [c * rat(2) for c in vec.components])


@pytest.mark.parametrize("route", [
    lambda: chern_form_canonical(_scaled(psi(MINUS, 1))),
    lambda: connection_form(_scaled(psi(MINUS, 1))),
    lambda: connection_form(PsiVector(PLUS, 1, psi(MINUS, 1).components)),
    lambda: connection_form(PsiVector(MINUS, 2, psi(PLUS, 2).components)),
], ids=["chern-scaled-psi", "connection-scaled-psi", "connection-wrong-sign-label",
        "connection-plus-psi-labelled-minus"])
def test_chern_form_canonical_raises_when_the_pairing_disagrees(g, route):
    """A psi that is not normalized, or whose sign label is wrong, gives a
    pairing that is not the closed form, and the verified route raises."""
    with pytest.raises(SuperAlgebraError, match="disagrees"):
        route()


def test_chern_body_route_agrees_with_full_route(g):
    """The body pairing route matches the body of the Str(p (dp)^2) oracle."""
    for n in (1, 2, 3):
        for sign in (MINUS, PLUS):
            oracle = -supertrace_p_dp_dp(projector(psi(sign, n))) * CHERN_SCALAR
            full = oracle.body_project()
            fast = chern_form(psi_body(sign, n))
            assert g.localizer.is_zero_mod(full - fast), (sign, n)


def test_coordinate_chern_report(g):
    """The verbatim coordinate expression misses the group-space form by one
    fermionic sign; the corrected variant (+2 x0 dxi- dxi+) matches.  The
    discrepancy is reported with a witness, never patched silently."""
    for n in (1, 2):
        rep = coordinate_chern_report(n)
        assert rep.corrected_matches, n
        assert not rep.verbatim_matches, n
        assert rep.difference is not None and not rep.difference.is_zero


def test_coordinate_chern_variants_share_body(g):
    for n in (1, 2):
        verbatim = coordinate_chern_form(MINUS, n)
        corrected = coordinate_chern_form_corrected(MINUS, n)
        assert verbatim.body_project() == corrected.body_project()


# -- coordinate emission --------------------------------------------------------------------

def test_element_to_base_roundtrip_n2(g):
    images = coordinate_images()
    proj = projector(psi(MINUS, 2))
    emitted = projector_to_base(psi(MINUS, 2))
    for i in range(5):
        for j in range(5):
            pulled = emitted.entries[i][j].substitute(images, g.table)
            assert g.rewrites.reduce(pulled - proj.matrix.entries[i][j]).is_zero, (i, j)


def _element_to_base_oracle(x, g, base, factor=factor_invariants):
    """The per-monomial route: factor each monomial into the bilinear
    invariants by factor(table, monomial), multiply their group elements and
    base expressions, check the group product against the monomial, and
    reduce the sum once."""
    units = {name: (_unit_group(g, name), expr)
             for name, (_, expr) in _invariant_units().items()}
    out = base.table.zero()
    for mono, coeff in x.terms.items():
        group_prod, base_prod = g.table.one(), base.table.one()
        for name in factor(g.table, mono):
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
    proj = projector(psi(sign, n))
    emitted = projector_to_base(psi(sign, n))
    for row, got_row in zip(proj.matrix.entries, emitted.entries):
        for entry, got in zip(row, got_row):
            assert got == _element_to_base_oracle(entry, g, base)


@pytest.mark.parametrize("sign", [MINUS, PLUS])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_projector_to_base_matches_entrywise_conversion(g, sign, n):
    """Converting each upper entry as it is built from psi, then mirroring,
    equals converting every reduced product of the full outer matrix, the
    lower triangle included, with no mirror on the way."""
    vec = psi(sign, n)
    to_base = _base_converter()
    want = [[to_base(g.rewrites.reduce(e)) for e in row] for row in _signed_outer(vec)]
    assert projector_to_base(vec).entries == want


def test_projector_to_base_takes_the_psi_vector():
    with pytest.raises(TypeError, match=r"projector_to_base\(psi\(sign, n\)\), not Projector"):
        projector_to_base(projector(psi(MINUS, 1)))


@pytest.mark.parametrize("function, rest", [
    (projector, ()), (projector_to_base, ()), (connection_form, ()),
    (chern_form_canonical, ()), (section_to_equivariant, ([],)),
])
def test_what_takes_psi_refuses_anything_else(function, rest):
    """Each function whose input is psi names its calling form when given
    psi's component list instead, before any work."""
    pattern = r"as in %s\(psi\(sign, n\)[^)]*\), not list" % function.__name__
    with pytest.raises(TypeError, match=pattern):
        function(psi(MINUS, 1).components, *rest)


@pytest.mark.parametrize("build", [
    lambda **kw: psi(PLUS, 2, **kw), lambda **kw: projector(psi(MINUS, 2), **kw),
    lambda **kw: chern_closed_form(PLUS, 2, **kw), osp_fixtures, coordinate_images,
], ids=["psi", "projector", "chern_closed_form", "osp_fixtures", "coordinate_images"])
def test_the_space_parameters_are_not_read(g, build):
    """These parameters exist only for bench/workloads.py's calls, which pass
    group_space(); each function reads group_space() itself, so passing it
    changes nothing."""
    assert build(space=g) == build()


@pytest.mark.parametrize("coords", ["group", "base"])
def test_mirror_walks_each_distinct_monomial_once(monkeypatch, coords):
    """_self_adjoint diamonds each distinct monomial of the strict upper
    triangle once per matrix: one lookup of its odd factors' image per walk."""
    vec = psi(PLUS, 3)
    mat = projector(vec).matrix if coords == "group" else projector_to_base(vec)
    table = mat.entries[0][0].algebra
    odd_images, walks = table._odd_diamond, []

    class Counting(dict):
        def __getitem__(self, bits):
            walks.append(bits)
            return odd_images[bits]
    monkeypatch.setattr(table, "_odd_diamond", Counting())
    dim = mat.shape.dim
    assert _self_adjoint(mat.shape, lambda i, j: mat.entries[i][j]) == mat
    strict = [mat.entries[i][j] for i in range(dim) for j in range(i + 1, dim)]
    distinct = set().union(*(x.terms for x in strict))
    assert len(walks) == len(distinct)
    assert len(distinct) < sum(len(x.terms) for x in strict)


def test_base_converter_commutes_with_diamond(g):
    """image(x^dia) = image(x)^dia on the nine bilinear invariants and on all
    their products of up to three factors, before and after reduction."""
    base = base_space()
    to_base = _base_converter()
    units = [Element(g.table, {mono: Scalar.one()})
             for mono, _ in _invariant_units().values()]
    assert len(units) == 9
    seen = 0
    for k in (1, 2, 3):
        for factors in itertools.combinations_with_replacement(units, k):
            x = factors[0]
            for f in factors[1:]:
                x = x * f
            for y in (x, g.rewrites.reduce(x)):
                assert to_base(y.diamond()) == to_base(y).diamond(), factors
            seen += not x.is_zero
    assert seen > 100   # a product with eta or eta* twice vanishes


def test_element_to_base_matches_per_monomial_oracle(g):
    base = base_space()
    entries = projector(psi(PLUS, 2)).matrix.entries
    one_entry = entries[4][4]
    two_rows = entries[1][1] + entries[3][4]
    for x in (one_entry, two_rows):
        assert len(x.terms) > 1
        assert element_to_base(x) == _element_to_base_oracle(x, g, base)


_rationals = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                         max_denominator=6))
# coefficients with up to three (radical, pi) parts
_scalars = st.lists(st.builds(Scalar.of, _rationals, _rationals, st.sampled_from((1, 2, 6)),
                              st.integers(-1, 1)),
                    min_size=1, max_size=3).map(lambda parts: sum(parts, Scalar.zero()))
_UNIT_NAMES = tuple(_invariant_units())
# (coefficient, invariant names, times aa* + bb* - 1) per term of a sum
_invariant_sum_terms = st.lists(st.tuples(_scalars, st.lists(st.sampled_from(_UNIT_NAMES),
                                                             max_size=3), st.booleans()),
                                min_size=1, max_size=4)


def _invariant_sum(g, terms):
    units = {name: Element(g.table, {mono: Scalar.one()})
             for name, (mono, _) in _invariant_units().items()}
    relation = units["a a*"] + units["b b*"] - 1
    x = g.table.zero()
    for coeff, names, cancel in terms:
        term = g.table.scalar(coeff)
        for name in names:
            term = term * units[name]
        x = x + (term * relation if cancel else term)
    return x


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_invariant_sum_terms)
def test_base_converter_matches_per_monomial_oracle_on_invariant_sums(terms):
    """Random sums of products of the nine invariants with multi-part
    coefficients.  A term times aa* + bb* - 1 has images that cancel to 0,
    so its output coefficients must be dropped."""
    g, base = group_space(), base_space()
    x = _invariant_sum(g, terms)
    assert _base_converter()(x) == _element_to_base_oracle(x, g, base)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_invariant_sum_terms, st.randoms(use_true_random=False))
def test_base_image_does_not_depend_on_the_division_order(terms, rng):
    """The converter divides each monomial by the invariants in one fixed
    order.  That is sound because the image is a homomorphism on the
    invariants: the per-monomial oracle gives the same image whichever
    dividing invariant it takes at each step."""
    g, base = group_space(), base_space()
    x = _invariant_sum(g, terms)
    at_random = _element_to_base_oracle(
        x, g, base, lambda table, mono: random_factorization(table, mono, _UNIT_NAMES, rng))
    assert at_random == _element_to_base_oracle(x, g, base)
    assert at_random == _base_converter()(x)


def test_base_converter_rejects_an_image_off_the_gaussian_rationals(g, monkeypatch):
    base = base_space()
    units = dict(_invariant_units())
    mono, image = units["a a*"]
    units["a a*"] = (mono, image * Scalar.of(1, 0, 2))
    monkeypatch.setattr(monopole, "_invariant_units", lambda: units)
    to_base = _base_converter()
    assert to_base(g.b * g.bd) == _element_to_base_oracle(g.b * g.bd, g, base)
    with pytest.raises(CoordinateEmissionError, match="Gaussian rationals"):
        to_base(g.a * g.ad)


def test_invariant_units_are_one_read_only_table():
    units = _invariant_units()
    assert _invariant_units() is units
    assert len(units) == 9
    with pytest.raises(TypeError):
        units["a a*"] = units["b b*"]


def _count_multiplications(monkeypatch) -> list:
    """The first operand of each RewriteSystem.multiply_vectors call of the
    base space from now on, in a list that grows as they are made."""
    rewrites = base_space().rewrites
    original = rewrites.multiply_vectors
    calls = []
    monkeypatch.setattr(rewrites, "multiply_vectors",
                        lambda v, w: calls.append(v) or original(v, w))
    return calls


def test_projector_to_base_builds_its_table_per_call(monkeypatch):
    """The converter's images of group monomials live as long as one
    conversion, so a second call builds every image again instead of holding
    them for the process."""
    calls = _count_multiplications(monkeypatch)
    vec = psi(MINUS, 2)
    first = projector_to_base(vec)
    built = len(calls)
    assert built > 0
    assert projector_to_base(vec) == first
    assert len(calls) == 2 * built


def test_base_converter_images_each_monomial_once(monkeypatch):
    """A second conversion of the same element by one converter multiplies
    nothing: every image it needs is stored."""
    calls = _count_multiplications(monkeypatch)
    entries = projector(psi(PLUS, 3)).matrix.entries
    x = entries[0][0] + entries[2][5] + entries[6][6]
    to_base = _base_converter()
    first = to_base(x)
    built = len(calls)
    assert built > 0
    assert to_base(x) == first
    assert len(calls) == built


@pytest.mark.parametrize("sign", [MINUS, PLUS])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projector_to_base_multiplications_are_bounded(monkeypatch, sign, n):
    """Each distinct monomial of the upper triangle costs one
    multiply_vectors call, 2 (n + 1)^2 - 1 calls in all."""
    vec = psi(sign, n)
    calls = _count_multiplications(monkeypatch)
    projector_to_base(vec)
    assert 0 < len(calls) <= 2 * (n + 1) ** 2 - 1


def test_element_to_base_rejects_non_invariant(g):
    with pytest.raises(CoordinateEmissionError):
        element_to_base(g.a)
    with pytest.raises(CoordinateEmissionError):
        element_to_base(g.eta)


def test_element_to_base_checks_the_factorization(g, monkeypatch):
    # over a table with another odd pair t, t*, a a* t divides by a a* down
    # to t, which no invariant divides; the invariants are built over that
    # table, as the converter reads only the table of the group space
    table = GeneratorTable.build(conjugate_pairs=[
        ("a", "a*", EVEN), ("b", "b*", EVEN), ("eta", "eta*", ODD), ("t", "t*", ODD)])
    want = element_to_base(g.a * g.ad)
    space = dataclasses.replace(g, table=table)
    monkeypatch.setattr(monopole, "group_space", lambda: space)
    monkeypatch.setattr(monopole, "_invariant_units",
                        functools.cache(monopole._invariant_units.__wrapped__))
    assert element_to_base(space.a * space.ad) == want
    with pytest.raises(CoordinateEmissionError, match="not a product of the bilinear"):
        element_to_base(space.a * space.ad * space.table.gen("t"))


def test_base_converter_reuses_images_only_of_checked_monomials(g):
    """One converter over elements that share monomials gives the oracle's
    result each time, and a monomial that fails keeps failing after other
    conversions: neither it nor a quotient on its chain is stored."""
    base = base_space()
    entries = projector(psi(MINUS, 2)).matrix.entries
    shared = [entries[0][0], entries[0][0] * Scalar.of(0, 2) + entries[1][1],
              entries[1][1] - entries[2][2], entries[0][0]]
    to_base = _base_converter()
    for _ in range(2):
        for x in shared:
            assert to_base(x) == _element_to_base_oracle(x, g, base)
        for bad in (g.a, g.a * g.ad + g.a * g.ad * g.eta, g.eta):
            with pytest.raises(CoordinateEmissionError, match="not a product of the bilinear"):
                to_base(bad)
        assert to_base(g.a * g.ad) == _element_to_base_oracle(g.a * g.ad, g, base)
