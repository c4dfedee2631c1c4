"""Graded differential forms: derivative, wedge signs, projection, pullback."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supersphere.algebra import EVEN, ODD, AlgebraMismatchError, GeneratorTable, ParityError
from supersphere.berezin import chart_pullback, group_section_chart, orbit_pullback
from supersphere import forms
from supersphere.forms import DifferentialIdeal, SuperForm, d
from supersphere.monopole import base_space, chern_closed_form, chern_form, group_space, psi
from supersphere.scalars import Scalar, rat
from supersphere.tests_support import random_element
from supersphere.trig import ChartError, TrigPoly

from oracles import (SubstitutionLocalizer, base_chart, chart_pullback_by_powers,
                     coordinate_volume_form, d_by_recursion, ideal_reduce_to_fixpoint,
                     partial_phi, partial_theta, split_parts_wedge, to_complex)

ORACLE = SubstitutionLocalizer()


@pytest.fixture(scope="module")
def g():
    return group_space()


@pytest.fixture(scope="module")
def diffs(g):
    return {n: g.differential(n) for n in g.table.names}


def test_d_examples(g, diffs):
    assert d(g.table.one()).is_zero
    assert d(g.a * g.etad) == diffs["a"] * g.etad + g.a * diffs["eta*"]
    assert d(d(g.a * g.b)).is_zero


def test_ideal_reduce_rejects_another_table(g):
    # the group generators without eta, eta*: same names, different table
    other = GeneratorTable.build(conjugate_pairs=[("a", "a*", EVEN), ("b", "b*", EVEN)])
    omega = other.gen("b*") * SuperForm.differential(other, "b")
    with pytest.raises(AlgebraMismatchError):
        g.ideal.reduce(omega)
    with pytest.raises(AlgebraMismatchError):
        g.ideal.reduce(SuperForm.zero(other))


def test_d_squared_random(g):
    rng = random.Random(31)
    for _ in range(120):
        x = random_element(g.table, rng)
        assert d(d(x)).is_zero
        omega = x * g.differential(rng.choice(g.table.names))
        assert d(d(omega)).is_zero


def test_wedge_sign_examples(g, diffs):
    da, db, de, ded = diffs["a"], diffs["b"], diffs["eta"], diffs["eta*"]
    assert da * db == -(db * da)
    assert g.etad * de == -(de * g.etad)
    assert not (de * de).is_zero
    assert (da * da).is_zero


def test_wedge_commutation_involutive(g):
    """Applying the bihomogeneous swap twice returns the original term."""
    rng = random.Random(32)
    names = g.table.names
    for _ in range(40):
        x = random_element(g.table, rng, parity=rng.randint(0, 1), max_word=2)
        y = random_element(g.table, rng, parity=rng.randint(0, 1), max_word=2)
        omega = x * g.differential(rng.choice(names))
        tau = y * g.differential(rng.choice(names))
        try:
            p1 = omega.grassmann_parity()
            p2 = tau.grassmann_parity()
        except Exception:
            continue
        sign = (-1) ** (1 * 1 + p1 * p2)
        # the swap law, and its second application returning the original
        assert omega * tau == sign * (tau * omega)
        assert tau * omega == sign * (omega * tau)


def test_graded_leibniz(g):
    rng = random.Random(33)
    for _ in range(60):
        x = random_element(g.table, rng)
        y = random_element(g.table, rng)
        assert d(x * y) == d(x) * y + x * d(y)
    # degree-1 sign: d(omega tau) = d omega tau - omega d tau for 1-forms
    omega = g.a * g.differential("eta")
    tau = g.etad * g.differential("b")
    assert d(omega * tau) == d(omega) * tau - omega * d(tau)


def test_d_commutes_with_diamond(g):
    rng = random.Random(34)
    for _ in range(60):
        x = random_element(g.table, rng)
        assert d(x.diamond()) == d(x).diamond()
        omega = x * g.differential(rng.choice(g.table.names))
        assert d(omega.diamond()) == d(omega).diamond()


def test_body_project_examples(g, diffs):
    assert (diffs["eta"] * diffs["eta*"]).body_project().is_zero
    one = g.table.one()
    omega = (one - rat(1, 4) * g.eta * g.etad) * (diffs["a"] * diffs["a*"])
    assert omega.body_project() == diffs["a"] * diffs["a*"]


def test_body_project_is_algebra_map(g):
    rng = random.Random(35)
    names = g.table.names
    for _ in range(60):
        omega = random_element(g.table, rng) * g.differential(rng.choice(names))
        tau = random_element(g.table, rng) * g.differential(rng.choice(names))
        assert (omega * tau).body_project() == omega.body_project() * tau.body_project()


def test_differential_ideal_group_relation(g):
    rel = g.a * d(g.ad) + g.ad * d(g.a) + g.b * d(g.bd) + g.bd * d(g.b)
    assert g.ideal.reduce(rel).is_zero


def test_differential_ideal_idempotent(g):
    rng = random.Random(36)
    for _ in range(20):
        omega = random_element(g.table, rng) * g.differential(
            rng.choice(g.table.names))
        reduced = g.ideal.reduce(omega)
        assert g.ideal.reduce(reduced) == reduced


def _ideal_test_form(table, rng):
    """A random form of degree at most 2 with b* db terms: some carry b*^2
    or a second differential on either side, and the coefficients hold b b*
    for the element rule to reduce first."""
    names = table.names
    bd, db = table.gen("b*"), SuperForm.differential(table, "b")
    pieces = []
    for _ in range(rng.randint(1, 3)):
        piece = random_element(table, rng) * SuperForm.differential(table, rng.choice(names))
        if rng.random() < 0.5:
            piece = piece * SuperForm.differential(table, rng.choice(names))
        pieces.append(piece)
    for _ in range(rng.randint(1, 3)):
        coeff = random_element(table, rng) * bd ** rng.randint(1, 2)
        other = SuperForm.differential(table, rng.choice(names))
        pieces.append(rng.choice((coeff * db, coeff * db * other, coeff * other * db)))
    return SuperForm.sum(table, pieces)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_ideal_reduce_matches_the_fixpoint_oracle(seed):
    """The one-pass reduce against the rule applied to a fixpoint, term for
    term, on forms with b* db terms; the result is its own reduction."""
    g = group_space()
    omega = _ideal_test_form(g.table, random.Random(seed))
    got = g.ideal.reduce(omega)
    want = ideal_reduce_to_fixpoint(g.ideal, omega)
    assert ({w: c.terms for w, c in got.terms.items()}
            == {w: c.terms for w, c in want.terms.items()})
    assert g.ideal.reduce(got) == got


def test_differential_ideal_rejects_rules_it_cannot_apply_in_one_pass(g):
    table, db = g.table, g.differential("b")
    repl = -(g.a * g.differential("a*") + g.ad * g.differential("a") + g.b * g.differential("b*"))
    assert DifferentialIdeal(g.rewrites, g.bd, db, repl).reduce(g.bd * db) == repl
    # d eta is odd, and d eta ^ d eta survives
    with pytest.raises(ValueError):
        DifferentialIdeal(g.rewrites, g.bd, g.differential("eta"), repl)
    with pytest.raises(ValueError):
        DifferentialIdeal(g.rewrites, g.bd, db, repl + g.a * db * g.differential("a"))
    for gen in (2 * g.bd, g.bd * g.bd, g.a * g.bd, g.eta, g.bd + g.a, table.one(), table.zero()):
        with pytest.raises(ValueError):
            DifferentialIdeal(g.rewrites, gen, db, repl)
    for dgen in (db * 2, g.a * db, db + g.differential("a"), db * g.differential("a"),
                 SuperForm.zero(table)):
        with pytest.raises(ValueError):
            DifferentialIdeal(g.rewrites, g.bd, dgen, repl)


def test_localized_model_kills_random_ideal_members(g):
    """Any multiple of the relation or of its differential must vanish."""
    rng = random.Random(37)
    relation = g.a * g.ad + g.b * g.bd - g.table.one()
    rho = d(g.a * g.ad + g.b * g.bd)
    for _ in range(40):
        f = random_element(g.table, rng)
        omega = random_element(g.table, rng) * g.differential(
            rng.choice(g.table.names))
        member = f * rho + relation * omega
        assert g.localizer.is_zero_mod(member)
        assert g.localizer.is_zero_mod(relation * f)


def test_localized_model_decides_ideal_membership(g):
    loc = g.localizer
    one = g.table.one()
    assert loc.is_zero_mod(g.a * g.ad + g.b * g.bd - one)
    assert loc.is_zero_mod(d(g.a * g.ad + g.b * g.bd))
    # a representative with b paired against db*: in the ideal, but outside
    # the reach of the display rewrite rules
    hidden = (g.b * d(g.bd) + g.bd * d(g.b)) + (g.a * d(g.ad) + g.ad * d(g.a))
    assert loc.is_zero_mod(hidden)
    assert not loc.is_zero_mod(g.differential("a"))
    assert not loc.is_zero_mod(g.b * d(g.bd))


def test_localized_model_rejects_another_table(g):
    s = base_space()
    with pytest.raises(AlgebraMismatchError):
        g.localizer.project(s.x0 * s.differential("x1"))
    with pytest.raises(AlgebraMismatchError):
        g.localizer.is_zero_mod(s.x0)


def test_torus_form_repr_is_bounded(g):
    big = g.localizer.project(sum((g.a ** k * g.differential("a") for k in range(200)),
                                  SuperForm.zero(g.table)))
    assert len(big.terms) == 200
    text = repr(big)
    assert len(text) <= big.REPR_LIMIT + len("TorusForm(... (200 more keys))")
    assert text.endswith(" more keys))")
    small = g.localizer.project((g.bd * g.eta) * g.differential("eta"))
    assert repr(small) == "TorusForm(b^-1 eta deta: [1, -1])"
    assert repr(g.localizer.project(g.table.zero())) == "TorusForm()"


def test_torus_form_reads_the_closed_form_difference(g):
    diff = g.localizer.project(chern_form(psi("-", 3).components)
                               - chern_closed_form("-", 4))
    # -(1/(2 pi i)) (da da* + db db*), with db* pushed into the localization
    assert set(diff.terms) == {((0, 1), (), 0, 0), ((0, 2), (), -1, -1), ((1, 2), (), 1, -1)}
    assert all(poly == (Scalar.of(0, Fraction(-1, 2), 1, -1),) for poly in diff.terms.values())


def _random_wedge(table, rng, with_dbd):
    names = rng.sample(table.names, rng.randint(0, 2))
    if with_dbd and "b*" not in names:
        names.insert(rng.randrange(len(names) + 1), "b*")
    return names


def _random_small_form(table, rng, with_dbd=False):
    total = SuperForm.zero(table)
    for _ in range(rng.randint(1, 2)):
        piece = SuperForm.from_element(random_element(table, rng))
        for name in _random_wedge(table, rng, with_dbd and rng.random() < 0.7):
            piece = piece * SuperForm.differential(table, name)
        total = total + piece
    return total


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_torus_projection_agrees_with_the_substitution_oracle(seed):
    g = group_space()
    rng = random.Random(seed)
    x = _random_small_form(g.table, rng)
    if rng.random() < 0.5:
        # an ideal member r rel h + d(rel) h, often with db* in the wedge of h
        rel = g.a * g.ad + g.b * g.bd - g.table.one()
        h = _random_small_form(g.table, rng, with_dbd=True)
        y = x + random_element(g.table, rng) * rel * h + d(rel) * h
    else:
        y = x + _random_small_form(g.table, rng, with_dbd=rng.random() < 0.5)
    px, py = g.localizer.project(x), g.localizer.project(y)
    assert (px == py) == ORACLE.is_zero_mod(x - y) == g.localizer.is_zero_mod(x - y)
    assert g.localizer.project(x - y).terms == ORACLE.torus_terms(x - y)
    if px == py:
        assert hash(px) == hash(py)


def _laws_element(table, rng, terms):
    """A sum of terms words of two generators, with small Gaussian integer
    coefficients, drawn as the benchmark's algebra-laws inputs are."""
    total = table.zero()
    for _ in range(terms):
        coeff = Scalar.of(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-2, 2))
        total = total + table.element([(coeff, [rng.choice(table.names) for _ in range(2)])])
    return total


def _laws_one_form(table, rng):
    total = SuperForm.zero(table)
    for _ in range(2):
        total = total + (_laws_element(table, rng, 2)
                         * SuperForm.differential(table, rng.choice(table.names)))
    return total


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_zero_test_agrees_with_the_projection_on_shifted_pairs(seed):
    """is_zero_mod against project(...).is_zero on the benchmark's equal-mod
    pairs: a 1-form omega and omega shifted by an ideal element.  A
    projection's zero test, read before its terms, agrees with the expanded
    terms, and the projection equals a fresh one."""
    g = group_space()
    table, rng = g.table, random.Random(seed)
    rel = g.a * g.ad + g.b * g.bd - table.one()
    omega = _laws_one_form(table, rng)
    dg = SuperForm.differential(table, rng.choice(table.names))
    shifted = (omega + (_laws_element(table, rng, 2) * rel) * dg
               + _laws_element(table, rng, 2) * d(rel))
    other = _laws_one_form(table, rng)
    for x in (omega - shifted, omega, omega - other, shifted - other):
        assert g.localizer.is_zero_mod(x) == g.localizer.project(x).is_zero
        proj = g.localizer.project(x)
        zero = proj.is_zero
        assert zero == (not proj.terms)
        assert proj == g.localizer.project(x)
    assert g.localizer.is_zero_mod(omega - shifted)
    assert g.equal_mod(omega, shifted)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_d_maps_the_ideal_into_itself(seed):
    """d(f r + h dr) is in the ideal for a function f and a 1-form h, with
    r = aa* + bb* - 1, so d of an identity modulo the ideal holds modulo it."""
    g = group_space()
    table, rng = g.table, random.Random(seed)
    rel = g.a * g.ad + g.b * g.bd - table.one()
    member = _laws_one_form(table, rng) * d(rel) + random_element(table, rng) * rel
    assert g.localizer.is_zero_mod(member)
    assert g.localizer.is_zero_mod(d(member))


def test_pullback_of_low_degree_forms_is_zero(g):
    """Only 2-forms have a d theta ^ d phi component."""
    s = base_space()
    for low in (SuperForm.from_element(s.x1 * s.x2), s.differential("x0").body_project()):
        assert chart_pullback_by_powers(low, base_chart()).is_zero
        assert chart_pullback(orbit_pullback(low), group_section_chart()).is_zero
    assert chart_pullback(g.a * g.differential("b*"), group_section_chart()).is_zero


def test_pullback_of_base_differential():
    """d x0 under x0 = cos theta -> -sin theta d theta."""
    x0 = base_chart()["x0"]
    assert partial_theta(x0).to_trigpoly() == TrigPoly.monomial(q=1, coeff=Scalar.of(-1))
    assert partial_phi(x0).is_zero


def _ev(expr, t, p):
    """Numeric value of a half-angle polynomial at (theta, phi)."""
    total = 0j
    for (hc, hs, k), v in expr.terms.items():
        total += (to_complex(v) * math.cos(t / 2) ** hc * math.sin(t / 2) ** hs
                  * complex(math.cos(k * p), math.sin(k * p)))
    return total


def _numeric_jacobian(chart, fa, fb, theta, phi, h=1e-6):
    """Finite-difference oracle for the d(fa) ^ d(fb) density at a point."""
    a, b = chart[fa], chart[fb]
    da_t = (_ev(a, theta + h, phi) - _ev(a, theta - h, phi)) / (2 * h)
    da_p = (_ev(a, theta, phi + h) - _ev(a, theta, phi - h)) / (2 * h)
    db_t = (_ev(b, theta + h, phi) - _ev(b, theta - h, phi)) / (2 * h)
    db_p = (_ev(b, theta, phi + h) - _ev(b, theta, phi - h)) / (2 * h)
    return da_t * db_p - da_p * db_t


def _random_body_two_form(rng, space, names):
    """A sum over several wedge pairs with coefficients of degree <= 3, and its terms."""
    table = space.table
    pairs = [(p, q) for i, p in enumerate(names) for q in names[i + 1:]]
    omega = SuperForm.zero(table)
    spec = []
    for fa, fb in rng.sample(pairs, rng.randint(2, min(4, len(pairs)))):
        if rng.random() < 0.5:
            fa, fb = fb, fa
        for _ in range(rng.randint(1, 3)):
            c = Scalar.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
            word = [rng.choice(names) for _ in range(rng.randint(0, 3))]
            coeff = table.scalar(c)
            for name in word:
                coeff = coeff * table.gen(name)
            omega = omega + coeff * space.differential(fa) * space.differential(fb)
            spec.append((c, word, fa, fb))
    return omega, spec


def test_pullback_da_dastar_matches_numeric_oracle(g):
    omega = g.differential("a") * g.differential("a*")
    dens = chart_pullback(omega.body_project(), group_section_chart())
    # exact value: (i/2) sin theta
    assert dens.to_trigpoly() == TrigPoly.monomial(q=1, coeff=Scalar.of(0, Fraction(1, 2)))
    rng = random.Random(38)
    cases = [(g, ("a", "a*", "b", "b*"), group_section_chart(), chart_pullback),
             (base_space(), ("x0", "x1", "x2"), base_chart(), chart_pullback_by_powers)]
    for space, names, chart, pullback in cases:
        for _ in range(30):
            omega, spec = _random_body_two_form(rng, space, names)
            dens = pullback(omega, chart)
            for _ in range(2):
                theta, phi = rng.uniform(0.1, math.pi - 0.1), rng.uniform(0, 2 * math.pi)
                want = sum(to_complex(c) * math.prod(_ev(chart[nm], theta, phi) for nm in word)
                           * _numeric_jacobian(chart, fa, fb, theta, phi)
                           for c, word, fa, fb in spec)
                assert abs(_ev(dens, theta, phi) - want) < 1e-6


def test_pullback_volume_form_orientation():
    vol = coordinate_volume_form().body_project()
    dens = chart_pullback_by_powers(vol, base_chart())
    assert dens.to_trigpoly() == TrigPoly.monomial(q=1)  # + sin theta d theta d phi
    # along the orbit map the group section chart reflects phi
    dens = chart_pullback(orbit_pullback(vol), group_section_chart())
    assert dens.to_trigpoly() == TrigPoly.monomial(q=1, coeff=-1)


def test_pullback_requires_body_projection(g):
    omega = g.eta * g.differential("a")
    with pytest.raises(ChartError):
        chart_pullback(omega, group_section_chart())
    with pytest.raises(ChartError):
        chart_pullback(g.differential("eta"), group_section_chart())


def test_pullback_missing_generator():
    s = base_space()
    chart = {"x0": base_chart()["x0"]}
    with pytest.raises(ChartError, match="does not supply generator 'x1'"):
        chart_pullback_by_powers((s.x1 * s.differential("x1")).body_project(), chart)
    # a differential whose generator the chart lacks
    g = group_space()
    chart = {name: group_section_chart()[name] for name in ("a", "a*", "b*")}
    with pytest.raises(ChartError, match="does not supply generator 'b'"):
        chart_pullback(g.a * g.differential("a*") * g.differential("b"), chart)


def test_form_serialization_roundtrip(g):
    omega = (g.a * g.differential("a*") * g.differential("eta")
             + rat(1, 8) * g.differential("eta") * g.differential("eta"))
    assert SuperForm.from_obj(g.table, omega.to_obj()) == omega


def test_from_obj_sorts_each_wedge_as_the_product_chain(g):
    """An unsorted wedge is signed, a repeated even differential gives zero
    and a repeated d eta is kept, as in the chain of wedge products."""
    coeff = g.a * g.etad + rat(1, 2) * g.eta
    wedges = (["b", "a"], ["eta*", "a", "eta"], ["a", "b", "a"], ["eta", "eta"],
              ["eta*", "eta", "eta"], ["b*", "eta", "b", "eta"])
    for wedge in wedges:
        chain = SuperForm.from_element(coeff)
        for name in wedge:
            chain = chain * g.differential(name)
        assert SuperForm.from_obj(g.table, [{"coeff": coeff.to_obj(), "wedge": wedge}]) == chain
    da_db = {"coeff": coeff.to_obj(), "wedge": ["a", "b"]}
    db_da = {"coeff": coeff.to_obj(), "wedge": ["b", "a"]}
    assert SuperForm.from_obj(g.table, [db_da]) == -SuperForm.from_obj(g.table, [da_db])
    assert SuperForm.from_obj(g.table, [da_db, db_da]).is_zero
    assert SuperForm.from_obj(g.table, [{"coeff": coeff.to_obj(), "wedge": ["a", "b", "a"]}]).is_zero
    assert not SuperForm.from_obj(g.table, [{"coeff": coeff.to_obj(), "wedge": ["eta", "eta"]}]).is_zero


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from((1, 2)))
def test_d_of_a_form_is_the_sum_of_dc_wedge_dw(seed, degree):
    """d(sum_w c_w dw) = sum_w d(c_w) ^ (1 dw), each product by
    SuperForm.__mul__, on random 1-forms and 2-forms."""
    table, rng = group_space().table, random.Random(seed)
    omega = SuperForm.zero(table)
    for _ in range(rng.randint(1, 4)):
        piece = SuperForm.from_element(random_element(table, rng))
        for _ in range(degree):
            piece = piece * SuperForm.differential(table, rng.choice(table.names))
        omega = omega + piece
    want = SuperForm.zero(table)
    for w, c in omega.terms.items():
        want = want + d(c) * SuperForm(table, {w: table.one()})
    assert d(omega) == want


def test_forms_over_different_tables_do_not_add(g):
    # the wedges do not overlap, so no coefficient sum meets the other table
    base = base_space()
    with pytest.raises(AlgebraMismatchError):
        g.differential("a") + base.differential("x1")
    with pytest.raises(AlgebraMismatchError):
        g.differential("a") + base.table.gen("x1")
    with pytest.raises(AlgebraMismatchError):
        SuperForm.sum(g.table, [g.differential("a"), base.table.gen("x1")])


def test_form_sum_refuses_an_item_that_is_neither_a_form_nor_an_element(g):
    for item in (3, Scalar.one(), "form"):
        with pytest.raises(TypeError, match="forms and Elements"):
            SuperForm.sum(g.table, [g.differential("a"), item])


def test_an_element_adds_to_a_form_on_either_side(g):
    # Element + SuperForm leaves the sum to SuperForm.__radd__ and __rsub__
    x = g.a * g.ad + g.eta * g.etad
    f = d(g.b) + g.b * g.differential("a*")
    assert x + f == f + x
    assert x - f == -(f - x)
    assert (x + f).terms[()] == x and (x - f).terms[(2,)] == -g.table.one()
    with pytest.raises(TypeError):
        x + "form"


# canonical wedges over a, a*, b, b*, eta, eta*: deta ^ deta survives
_WEDGES = ((), (0,), (2,), (0, 3), (4,), (4, 4), (1, 5))
_TERMS = st.lists(st.tuples(st.sampled_from(_WEDGES), st.integers(-2, 2),
                            st.lists(st.sampled_from(("a", "a*", "b", "eta")), max_size=2)),
                  max_size=4)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example(forms=[], element=False, cancel=False)
@example(forms=[[((0,), 1, ["a"])]], element=False, cancel=False)
@example(forms=[[((0,), 1, ["a"]), ((4,), 2, ["eta"])]], element=True, cancel=True)
@given(st.lists(_TERMS, max_size=4), st.booleans(), st.booleans())
def test_form_sum_matches_a_plain_merge(forms, element, cancel):
    """SuperForm.sum against merging every (wedge, monomial) coefficient in
    one dict; an Element item is a form of degree 0."""
    table = group_space().table
    items = []
    for terms in forms:
        words = {}
        for w, c, word in terms:
            words.setdefault(w, []).append((c, word))
        items.append(SuperForm(table, {w: table.element(ws) for w, ws in words.items()}))
    if element:
        items.append(table.element([(rat(1, 3), ["a", "eta"]), (2, [])]))
    if cancel and items:
        items.append(-items[0])
    merged: dict = {}
    for x in items:
        for w, c in (x.terms.items() if isinstance(x, SuperForm) else [((), x)]):
            acc = merged.setdefault(w, {})
            for m, s in c.terms.items():
                acc[m] = acc[m] + s if m in acc else s
    want = {w: t for w, t in ((w, {m: s for m, s in t.items() if not s.is_zero})
                              for w, t in merged.items()) if t}
    got = SuperForm.sum(table, items)
    assert {w: c.terms for w, c in got.terms.items()} == want


# canonical wedges of form degree 0, 1 and 2 over a, a*, b, b*, eta, eta*,
# with deta ^ deta, deta ^ deta* and deta* ^ deta*
_FACTOR_WEDGES = ((), (0,), (1,), (3,), (4,), (5,), (0, 1), (0, 3), (2, 3), (1, 4), (0, 5),
                  (4, 4), (4, 5), (5, 5))
_FACTOR = st.lists(st.tuples(st.sampled_from(_FACTOR_WEDGES),
                             st.sampled_from((1, -1, 2, rat(1, 3), Scalar.of(0, 1),
                                              Scalar.of(1, 0, 2))),
                             st.lists(st.sampled_from(("a", "a*", "b", "b*", "eta", "eta*")),
                                      max_size=3)),
                   min_size=1, max_size=5)


def _factor(table, terms):
    words: dict = {}
    for w, c, word in terms:
        words.setdefault(w, []).append((c, word))
    return SuperForm(table, {w: table.element(ws) for w, ws in words.items()})


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@example(left=[((4,), 1, ["eta"])], right=[((5,), 1, ["eta*"])], square=False)
@example(left=[((4,), 1, []), ((5,), 1, ["eta"])], right=[], square=True)
@example(left=[((0,), 1, []), ((3,), 1, ["a"])], right=[], square=True)
@given(_FACTOR, _FACTOR, st.booleans())
def test_wedge_product_matches_the_split_parts_product(left, right, square):
    """The one-pass product against the split-parts oracle, both ways round;
    a factor wedged with itself cancels its cross terms where they anticommute."""
    table = group_space().table
    x = _factor(table, left)
    y = x if square else _factor(table, right)
    assert (x * y).terms == split_parts_wedge(x, y).terms
    assert (y * x).terms == split_parts_wedge(y, x).terms


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@example(terms=[((), 1, ["eta", "eta*"])])
@example(terms=[((4,), 1, ["a", "eta*"]), ((5,), -1, ["eta", "b"])])
@example(terms=[((0, 5), 2, ["eta", "eta*"]), ((1, 4), 1, ["eta*", "a"])])
@given(_FACTOR)
def test_d_matches_the_recursive_oracle(terms):
    """The one-pass d against d(c) taken as a form of its own and sorted into
    each wedge, on forms of degree 0 to 2 and on their Element coefficients."""
    table = group_space().table
    omega = _factor(table, terms)
    assert d(omega).terms == d_by_recursion(omega).terms
    for c in omega.terms.values():
        assert d(c).terms == d_by_recursion(c).terms


@pytest.mark.parametrize("word", [["e1", "e2", "e1*"], ["a", "e2*", "e1", "a", "e2"],
                                  ["e2*", "e1*", "e2", "a", "e1"], ["e2", "a", "e1"]])
def test_d_signs_each_of_up_to_four_odd_factors(word):
    """Beyond the two odd generators of the group table: dg moves rightwards
    past every odd factor after g."""
    table = GeneratorTable.build(conjugate_pairs=[("a", "a*", EVEN), ("e1", "e1*", ODD),
                                                  ("e2", "e2*", ODD)])
    x = table.element([(Scalar.of(2, 1), word)])
    omega = x * SuperForm.differential(table, "e2") * SuperForm.differential(table, "a")
    for y in (x, omega):
        assert d(y).terms == d_by_recursion(y).terms


def test_d_of_a_form_makes_no_inner_call_of_d(g, monkeypatch):
    calls = []
    one_pass = forms.d

    def counted(x):
        calls.append(x)
        return one_pass(x)
    monkeypatch.setattr(forms, "d", counted)
    omega = (g.a * g.eta * g.differential("b")
             + g.b * g.etad * g.differential("eta") * g.differential("a"))
    assert forms.d(omega) == d_by_recursion(omega)
    assert len(calls) == 1


def test_wedge_product_rejects_another_table(g):
    base = base_space()
    for other in (base.differential("x1"), base.table.gen("x1"),
                  SuperForm.from_element(base.table.gen("xi-"))):
        with pytest.raises(AlgebraMismatchError):
            g.differential("a") * other
        with pytest.raises(AlgebraMismatchError):
            split_parts_wedge(g.a * g.differential("a"), SuperForm(base.table, {}) + other)


def test_wedge_function(g):
    # an Element on the left is wedged as a 0-form
    assert SuperForm.from_element(g.a) * g.differential("b") == g.a * g.differential("b")


def test_forms_accept_fraction_scalars(g):
    half = Fraction(1, 2)
    da = g.differential("a")
    assert da * half == da * rat(1, 2)
    assert half * da == rat(1, 2) * da
    assert da + half == da + rat(1, 2)
    assert SuperForm.from_element(g.table.scalar(half)) == half


# Oracle for substitution: the route production used before the substitution
# map, one square-and-multiply power per monomial factor and a running sum.

def _old_image(images, target, name):
    base = images.get(name)
    return target.gen(name) if base is None else base


def _old_substitute(x, images, target):
    for name, im in images.items():
        want = "odd" if x.algebra.parity_of_name(name) == ODD else "even"
        if im.parity() not in ("zero", want):
            raise ParityError("image of %s must be %s" % (name, want))
    out = target.zero()
    for mono, coeff in x.terms.items():
        term = target.scalar(coeff)
        even, odd = x.algebra.factors(mono)
        for i, e in even:
            term = term * _old_image(images, target, x.algebra.names[i]) ** e
        for i in odd:
            term = term * _old_image(images, target, x.algebra.names[i])
        out = out + term
    return out


def _old_form_substitute(omega, images, target):
    total = SuperForm.zero(target)
    for w, c in omega.terms.items():
        term = SuperForm.from_element(_old_substitute(c, images, target))
        for i in w:
            term = term * d(_old_image(images, target, omega.algebra.names[i]))
        total = total + term
    return total


def _high_power_element(table, rng):
    """A few terms, each one or two generators to a power up to 6, maybe odd factors."""
    total = table.zero()
    odd_names = [nm for nm in table.names if table.parity_of_name(nm) == ODD]
    even_names = [nm for nm in table.names if table.parity_of_name(nm) == EVEN]
    for _ in range(rng.randint(1, 3)):
        word = []
        for name in rng.sample(even_names, rng.randint(0, 2)):
            word.extend([name] * rng.randint(1, 6))
        word.extend(rng.sample(odd_names, rng.randint(0, 2)))
        total = total + table.element([(Scalar.of(rng.randint(-3, 3), rng.randint(-3, 3)), word)])
    return total


def _random_form(table, rng):
    total = SuperForm.zero(table)
    for _ in range(rng.randint(1, 3)):
        piece = SuperForm.from_element(_high_power_element(table, rng))
        for name in rng.sample(table.names, rng.randint(0, 2)):
            piece = piece * SuperForm.differential(table, name)
        total = total + piece
    return total


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_substitution_matches_the_per_monomial_route(seed):
    g = group_space()
    rng = random.Random(seed)
    x = _high_power_element(g.table, rng)
    omega = _random_form(g.table, rng)
    if rng.random() < 0.3:
        # the substitution oracle's images, b* -> (1 - a a*) b^(-1)
        target, images = ORACLE.table, ORACLE.images
    else:
        # each generator kept, sent to zero, or sent to a random image of its parity
        target, images = g.table, {}
        for name in g.table.names:
            parity = g.table.parity_of_name(name)
            pick = rng.randrange(3)
            if pick == 1:
                images[name] = g.table.zero()
            elif pick == 2:
                images[name] = random_element(g.table, rng, parity=parity,
                                              max_terms=2, max_word=2)
    assert x.substitute(images, target) == _old_substitute(x, images, target)
    assert omega.substitute(images, target) == _old_form_substitute(omega, images, target)


def test_substitution_checks_image_parity(g):
    x = g.a * g.eta
    for bad in ({"eta": g.a}, {"a": g.eta}, {"a": g.a + g.eta}):
        with pytest.raises(ParityError):
            x.substitute(bad, g.table)
        with pytest.raises(ParityError):
            _old_substitute(x, bad, g.table)
        with pytest.raises(ParityError):
            SuperForm.from_element(x).substitute(bad, g.table)
        # checked even when the form has no coefficient using the generator
        with pytest.raises(ParityError):
            g.differential("b").substitute(bad, g.table)
    other = GeneratorTable.build(conjugate_pairs=[("a", "a*", EVEN)])
    with pytest.raises(AlgebraMismatchError):
        g.a.substitute({"a": other.gen("a")}, g.table)
