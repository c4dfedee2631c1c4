"""Graded differential forms: derivative, wedge signs, projection, pullback."""

import math
import random
from fractions import Fraction

import pytest

from supersphere.algebra import EVEN, AlgebraMismatchError, GeneratorTable
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
    assert dens.d_theta == TrigPoly.monomial(q=1, coeff=Scalar.of(-1))
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
    assert dens.top == TrigPoly.monomial(q=1, coeff=Scalar.of(0, Fraction(1, 2)))
    chart = group_section_chart()
    for theta, phi in ((0.7, 1.1), (2.0, 4.0)):
        want = _numeric_two_form_density(chart, "a", "a*", theta, phi)
        got = dens.top.evaluate(theta, phi)
        assert abs(got - want) < 1e-6


def test_pullback_volume_form_orientation():
    from supersphere.monopole import coordinate_volume_form
    vol = coordinate_volume_form().body_project()
    dens = chart_pullback(vol, base_chart())
    assert dens.top == TrigPoly.monomial(q=1)          # + sin theta d theta d phi


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
