"""Exact integration: Wallis formulas, charts, Chern numbers, quad oracle."""

import math
import random
from fractions import Fraction

import pytest

from supersphere.berezin import (QUAD_ORDER_MAX, base_chart, base_chart_normalizer,
                                 berezin_chern_number, berezin_integral,
                                 chart_pullback, chern_number,
                                 group_chart_normalizer, group_section_chart,
                                 quad_oracle, quad_order)
from supersphere.monopole import (MINUS, PLUS, base_space, coordinate_chern_form,
                                  coordinate_volume_form)
from supersphere.scalars import Scalar, rat
from supersphere.trig import TrigPoly, wallis_integrate


def test_trigpoly_normal_form():
    sin2 = TrigPoly.monomial(q=1) * TrigPoly.monomial(q=1)
    assert sin2 == TrigPoly.constant(1) - TrigPoly.monomial(p=2)
    sphi2 = TrigPoly.monomial(s=1) * TrigPoly.monomial(s=1)
    assert sphi2 == TrigPoly.constant(1) - TrigPoly.monomial(r=2)
    for key in sin2.terms:
        assert key[1] in (0, 1) and key[3] in (0, 1)


def test_trigpoly_evaluation_self_test():
    rng = random.Random(41)
    for _ in range(30):
        terms = {}
        for _ in range(4):
            key = (rng.randrange(4), rng.randrange(3), rng.randrange(4), rng.randrange(3))
            terms[key] = Scalar.of(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                                   Fraction(rng.randrange(-3, 4)))
        poly = TrigPoly(terms)
        th = rng.uniform(0, math.pi)
        ph = rng.uniform(0, 2 * math.pi)
        direct = sum(v.to_complex() * math.cos(th) ** p * math.sin(th) ** q
                     * math.cos(ph) ** r * math.sin(ph) ** s
                     for (p, q, r, s), v in terms.items())
        assert abs(poly.evaluate(th, ph) - direct) < 1e-12


def test_wallis_examples():
    assert wallis_integrate(TrigPoly.monomial(q=1)) == Scalar.of(4, 0, 1, 1)
    assert wallis_integrate(TrigPoly.monomial(p=1, q=1)).is_zero
    sin3cos2 = (TrigPoly.monomial(q=1) * TrigPoly.monomial(q=1)
                * TrigPoly.monomial(q=1) * TrigPoly.monomial(r=2))
    got = wallis_integrate(sin3cos2)
    assert got == Scalar.of(Fraction(4, 3), 0, 1, 1)
    # numeric quadrature confirms the same value
    assert abs(quad_oracle(sin3cos2) - (4.0 / 3.0) * math.pi) < 1e-9


def test_wallis_phi_odd_vanishes():
    assert wallis_integrate(TrigPoly.monomial(s=1)).is_zero
    assert wallis_integrate(TrigPoly.monomial(r=3)).is_zero


def test_wallis_linear_and_matches_quad_on_random():
    rng = random.Random(42)
    for _ in range(110):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randrange(7), rng.randrange(2), rng.randrange(7), rng.randrange(2))
            terms[key] = Scalar.of(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
                                   Fraction(rng.randrange(-3, 4)))
        f = TrigPoly(terms)
        g_poly = TrigPoly({(rng.randrange(4), 0, rng.randrange(4), 0): Scalar.of(2)})
        lhs = wallis_integrate(f + g_poly)
        rhs = wallis_integrate(f) + wallis_integrate(g_poly)
        assert lhs == rhs
        assert abs(quad_oracle(f) - wallis_integrate(f).to_complex()) < 1e-9


def test_quad_oracle_examples():
    assert abs(quad_oracle(TrigPoly.monomial(q=1)) - 4 * math.pi) < 1e-9
    assert quad_oracle(TrigPoly.zero()) == 0
    # pulled-back Chern density for n = 2 integrates to 2 x the normalizer,
    # the normalizer being the reference volume integral divided by 4 pi
    from supersphere.monopole import chern_form_body
    dens = chart_pullback(chern_form_body(MINUS, 2), group_section_chart())
    normalizer = group_chart_normalizer().to_complex() / (4 * math.pi)
    assert abs(quad_oracle(dens.top) - 2 * normalizer) < 1e-9
    assert abs(quad_oracle(dens.top) - wallis_integrate(dens.top).to_complex()) < 1e-9


def test_quad_order_env_override(monkeypatch):
    monkeypatch.setenv("SUPERSPHERE_QUAD_ORDER", "32")
    assert abs(quad_oracle(TrigPoly.monomial(q=1)) - 4 * math.pi) < 1e-9


def test_quad_order_default(monkeypatch):
    monkeypatch.delenv("SUPERSPHERE_QUAD_ORDER", raising=False)
    assert quad_order() == 64


@pytest.mark.parametrize("value", ["abc", "0", str(QUAD_ORDER_MAX + 1)])
def test_quad_order_rejects_bad_values(monkeypatch, value):
    # checked before any grid is built, so the huge value allocates nothing
    monkeypatch.setenv("SUPERSPHERE_QUAD_ORDER", value)
    with pytest.raises(ValueError, match="SUPERSPHERE_QUAD_ORDER"):
        quad_order()
    with pytest.raises(ValueError, match="SUPERSPHERE_QUAD_ORDER"):
        quad_oracle(TrigPoly.monomial(q=1))


def test_chart_normalizers():
    assert base_chart_normalizer() == Scalar.of(4, 0, 1, 1)
    assert group_chart_normalizer() == Scalar.of(-4, 0, 1, 1)


def test_chern_numbers_small():
    for n in (1, 2, 3):
        assert chern_number(MINUS, n) == n
        assert chern_number(PLUS, n) == -n


def test_chern_number_beyond_the_radical_cliff():
    # psi(48) has radicands up to C(48, 24) ~ 3.2e13, too many to trial-divide
    assert chern_number(MINUS, 48) == 48
    assert chern_number(PLUS, 48) == -48


def test_chern_number_orientation_invariance():
    # swapping the chart orientation flips the density integral and the
    # normalizer together, leaving the quotient unchanged
    assert group_chart_normalizer(-1) == -group_chart_normalizer(1)
    assert base_chart_normalizer(-1) == -base_chart_normalizer(1)
    for n in (1, 2):
        assert chern_number(MINUS, n, orientation=-1) == n
        assert chern_number(PLUS, n, orientation=-1) == -n


def test_chern_number_requires_positive_n():
    with pytest.raises(ValueError):
        chern_number(MINUS, 0)


def test_berezin_reference_volume():
    vol = coordinate_volume_form()
    quarter = Scalar.of(Fraction(1, 4), 0, 1, -1)
    assert berezin_integral(vol * quarter) == Scalar.one()


def test_berezin_fermionic_forms_vanish():
    s = base_space()
    ferm = s.xim * s.differential("xi-") * s.differential("xi+")
    assert berezin_integral(ferm).is_zero
    mixed = (s.x0 * s.xim * s.differential("x1") * s.differential("xi+"))
    assert berezin_integral(mixed).is_zero


def test_coordinate_chern_body_is_volume_multiple():
    """Body projection kills every fermionic term, leaving (n/4pi) vol."""
    quarter = Scalar.of(Fraction(1, 4), 0, 1, -1)
    for n in (1, 2, 3):
        body = coordinate_chern_form(MINUS, n).body_project()
        want = coordinate_volume_form() * (quarter * Scalar.of(n))
        assert body == want


def test_berezin_coordinate_chern_path():
    for n in (1, 2):
        assert berezin_chern_number(MINUS, n) == n
        assert berezin_chern_number(PLUS, n) == -n
        # the verbatim transcription has the same body, so the same integers
        verbatim = coordinate_chern_form(MINUS, n)
        assert berezin_integral(verbatim).as_int() == n


def test_paths_agree():
    for n in (1, 2):
        for sign in (MINUS, PLUS):
            assert chern_number(sign, n) == berezin_chern_number(sign, n)


def test_nonintegral_value_raises():
    with pytest.raises(ValueError):
        (Scalar.of(Fraction(1, 3))).as_int()
    bad = coordinate_volume_form() * Scalar.of(Fraction(1, 3), 0, 1, -1)
    with pytest.raises(ValueError):
        berezin_integral(bad).as_int()
