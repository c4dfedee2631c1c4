"""Graded differential forms: derivative, wedge signs, projection, pullback."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersphere.algebra import EVEN, ODD, AlgebraMismatchError, GeneratorTable, ParityError
from supersphere.berezin import base_chart, chart_pullback, group_section_chart
from supersphere.forms import SuperForm, body_project, d, wedge
from supersphere.monopole import base_space, group_space
from supersphere.scalars import Scalar, rat
from supersphere.tests_support import random_element
from supersphere.trig import ChartError, TrigPoly


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
    assert body_project(diffs["eta"] * diffs["eta*"]).is_zero
    one = g.table.one()
    omega = (one - rat(1, 4) * g.eta * g.etad) * (diffs["a"] * diffs["a*"])
    assert body_project(omega) == diffs["a"] * diffs["a*"]


def test_body_project_is_algebra_map(g):
    rng = random.Random(35)
    names = g.table.names
    for _ in range(60):
        omega = random_element(g.table, rng) * g.differential(rng.choice(names))
        tau = random_element(g.table, rng) * g.differential(rng.choice(names))
        assert body_project(omega * tau) == body_project(omega) * body_project(tau)


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


def test_pullback_of_base_differential():
    """d x0 under x0 = cos theta -> -sin theta d theta."""
    s = base_space()
    dens = chart_pullback(s.differential("x0").body_project(), base_chart())
    assert dens.d_theta.to_trigpoly() == TrigPoly.monomial(q=1, coeff=Scalar.of(-1))
    assert dens.d_phi.is_zero and dens.top.is_zero


def _numeric_two_form_density(chart, fa, fb, theta, phi, h=1e-6):
    """Finite-difference oracle for the d(fa) ^ d(fb) density at a point."""
    def ev(expr, t, p):
        total = 0j
        for (hc, hs, k), v in expr.terms.items():
            total += (v.to_complex() * math.cos(t / 2) ** hc
                      * math.sin(t / 2) ** hs
                      * complex(math.cos(k * p), math.sin(k * p)))
        return total

    a, b = chart[fa], chart[fb]
    da_t = (ev(a, theta + h, phi) - ev(a, theta - h, phi)) / (2 * h)
    da_p = (ev(a, theta, phi + h) - ev(a, theta, phi - h)) / (2 * h)
    db_t = (ev(b, theta + h, phi) - ev(b, theta - h, phi)) / (2 * h)
    db_p = (ev(b, theta, phi + h) - ev(b, theta, phi - h)) / (2 * h)
    return da_t * db_p - da_p * db_t


def test_pullback_da_dastar_matches_numeric_oracle(g):
    omega = g.differential("a") * g.differential("a*")
    dens = chart_pullback(omega.body_project(), group_section_chart())
    # exact value: (i/2) sin theta
    assert dens.top.to_trigpoly() == TrigPoly.monomial(q=1, coeff=Scalar.of(0, Fraction(1, 2)))
    chart = group_section_chart()
    for theta, phi in ((0.7, 1.1), (2.0, 4.0)):
        want = _numeric_two_form_density(chart, "a", "a*", theta, phi)
        got = dens.top.to_trigpoly().evaluate(theta, phi)
        assert abs(got - want) < 1e-6


def test_pullback_volume_form_orientation():
    from supersphere.monopole import coordinate_volume_form
    vol = coordinate_volume_form().body_project()
    dens = chart_pullback(vol, base_chart())
    assert dens.top.to_trigpoly() == TrigPoly.monomial(q=1)  # + sin theta d theta d phi


def test_pullback_requires_body_projection(g):
    omega = g.eta * g.differential("a")
    with pytest.raises(ChartError):
        chart_pullback(omega, group_section_chart())
    with pytest.raises(ChartError):
        chart_pullback(g.differential("eta"), group_section_chart())


def test_pullback_missing_generator():
    s = base_space()
    chart = {"x0": base_chart()["x0"]}
    with pytest.raises(ChartError):
        chart_pullback((s.x1 * s.differential("x1")).body_project(), chart)


def test_form_serialization_roundtrip(g):
    omega = (g.a * g.differential("a*") * g.differential("eta")
             + rat(1, 8) * g.differential("eta") * g.differential("eta"))
    assert SuperForm.from_obj(g.table, omega.to_obj()) == omega


def test_wedge_function(g):
    assert wedge(g.a, g.differential("b")) == g.a * g.differential("b")


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
        for i, e in mono[0]:
            term = term * _old_image(images, target, x.algebra.names[i]) ** e
        for i in mono[1]:
            term = term * _old_image(images, target, x.algebra.names[i])
        out = out + term
    return out


def _old_form_substitute(omega, images, target, differential_images=None):
    total = SuperForm.zero(target)
    for w, c in omega.terms.items():
        term = SuperForm.from_element(_old_substitute(c, images, target))
        for i in w:
            name = omega.algebra.names[i]
            if differential_images and name in differential_images:
                term = term * differential_images[name]
            else:
                term = term * d(_old_image(images, target, name))
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
        # the localizer's own images, b* -> (1 - a a*) b^(-1)
        loc = g.localizer
        target, images, diff_images = loc.table, loc.images, loc.differential_images
    else:
        # each generator kept, sent to zero, or sent to a random image of its parity
        target, images, diff_images = g.table, {}, {}
        for name in g.table.names:
            parity = g.table.parity_of_name(name)
            pick = rng.randrange(3)
            if pick == 1:
                images[name] = g.table.zero()
            elif pick == 2:
                images[name] = random_element(g.table, rng, parity=parity,
                                              max_terms=2, max_word=2)
            if rng.random() < 0.3:
                diff_images[name] = d(random_element(g.table, rng, parity=parity,
                                                     max_terms=2, max_word=2))
    assert x.substitute(images, target) == _old_substitute(x, images, target)
    if rng.random() < 0.5:
        diff_images = None
    assert (omega.substitute(images, target, diff_images)
            == _old_form_substitute(omega, images, target, diff_images))


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
