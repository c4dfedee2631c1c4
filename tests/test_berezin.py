"""Exact integration: Beta closed forms, the Wallis oracle, charts, Chern numbers, quad oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import supersphere.berezin as berezin
from supersphere.berezin import (FOUR_PI, GROUP_CHART_VOLUME, ExactnessError, _add_jacobian,
                                 _element_pullback, _jacobian, _read_chart,
                                 berezin_chern_number, berezin_integral, chart_pullback,
                                 chern_integral, chern_number, group_section_chart,
                                 orbit_pullback)
from supersphere.forms import SuperForm, d
from supersphere.monopole import (MINUS, PLUS, base_space, chern_closed_form, chern_form_body,
                                  coordinate_chern_form, coordinate_images, group_space)
from supersphere.scalars import Scalar, rat
from supersphere.trig import ChartError, PhaseHalfAngle, TrigPoly, integrate_half_angle, wallis_integrate

from oracles import (BASE_CHART_VOLUME, base_chart, base_chart_integral, chart_powers,
                     chart_pullback_by_powers, coordinate_volume_form,
                     element_pullback_by_powers, evaluate_trigpoly,
                     integrate_half_angle_by_terms, jacobian_by_partials, quad_oracle, to_complex)


# Oracle for the chart normalisers: each chart's integral of the reference
# volume form, derived from the volume forms themselves.  Production uses the
# constant GROUP_CHART_VOLUME instead, and the base chart is itself an oracle.

def group_volume_body_form():
    """The reference volume form pushed to the group generators, body part."""
    coords = coordinate_images()
    sig = [coords[x].body() for x in ("x0", "x1", "x2")]
    ds = [d(x) for x in sig]
    return sig[0] * ds[1] * ds[2] + sig[1] * ds[2] * ds[0] + sig[2] * ds[0] * ds[1]


def group_chart_normalizer(chart=None):
    dens = chart_pullback(group_volume_body_form(), chart or group_section_chart())
    return wallis_integrate(dens.to_trigpoly())


def base_chart_normalizer(chart=None):
    dens = chart_pullback_by_powers(coordinate_volume_form().body_project(), chart or base_chart())
    return wallis_integrate(dens.to_trigpoly())


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
        direct = sum(to_complex(v) * math.cos(th) ** p * math.sin(th) ** q
                     * math.cos(ph) ** r * math.sin(ph) ** s
                     for (p, q, r, s), v in terms.items())
        assert abs(evaluate_trigpoly(poly, th, ph) - direct) < 1e-12


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
        assert abs(quad_oracle(f) - to_complex(wallis_integrate(f))) < 1e-9


def test_quad_oracle_examples():
    assert abs(quad_oracle(TrigPoly.monomial(q=1)) - 4 * math.pi) < 1e-9
    assert quad_oracle(TrigPoly.zero()) == 0
    # pulled-back Chern density for n = 2 integrates to 2 x the normalizer,
    # the normalizer being the reference volume integral divided by 4 pi
    dens = chart_pullback(chern_form_body(MINUS, 2), group_section_chart())
    normalizer = to_complex(group_chart_normalizer()) / (4 * math.pi)
    assert abs(quad_oracle(dens) - 2 * normalizer) < 1e-9
    assert abs(quad_oracle(dens) - to_complex(wallis_integrate(dens.to_trigpoly()))) < 1e-9


def test_half_angle_beta_examples():
    # sin t = 2 cos(t/2) sin(t/2): B(1, 1) = 1, times 2 pi
    assert integrate_half_angle(PhaseHalfAngle.monomial(1, 1, coeff=2)) == Scalar.of(4, 0, 1, 1)
    # the constant: B(1/2, 1/2) = pi, times 2 pi
    assert integrate_half_angle(PhaseHalfAngle.constant(1)) == Scalar.of(2, 0, 1, 2)
    # cos^4(t/2) sin^2(t/2): B(5/2, 3/2) = pi/16
    assert integrate_half_angle(PhaseHalfAngle.monomial(4, 2)) == Scalar.of(Fraction(1, 8), 0, 1, 2)
    # cos^3(t/2) sin^5(t/2): B(2, 3) = 1/12
    assert integrate_half_angle(PhaseHalfAngle.monomial(3, 5)) == Scalar.of(Fraction(1, 6), 0, 1, 1)
    assert integrate_half_angle(PhaseHalfAngle.monomial(1, 1, k=2)).is_zero
    assert integrate_half_angle(PhaseHalfAngle.zero()).is_zero


@pytest.mark.parametrize("k", [0, 3])
def test_half_angle_odd_degree_raises(k):
    f = PhaseHalfAngle.monomial(2, 2) + PhaseHalfAngle.monomial(1, 2, k=k)
    with pytest.raises(ChartError, match="whole-angle"):
        integrate_half_angle(f)
    with pytest.raises(ChartError, match="whole-angle"):
        f.to_trigpoly()


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_coeffs = st.builds(Scalar.of, _rationals, _rationals,
                    st.sampled_from([1, 2, 3, 6]), st.integers(-1, 1))
# (hc, hs, k) with hc + hs even
_even_keys = st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(-3, 3)).map(
    lambda key: (key[0], key[1] + (key[0] + key[1]) % 2, key[2]))
half_angle_polys = st.dictionaries(_even_keys, _coeffs, max_size=6).map(PhaseHalfAngle)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(half_angle_polys)
def test_half_angle_integral_matches_wallis_oracle(f):
    assert integrate_half_angle(f) == wallis_integrate(f.to_trigpoly())


# large exponents, most terms at phase 0, and coefficients that mix several
# (radical, pi) parts, so both kinds share output parts
_large_even_keys = st.tuples(st.integers(0, 60), st.integers(0, 59),
                             st.sampled_from([0, 0, 0, 1, -2])).map(
    lambda key: (key[0], key[1] + (key[0] + key[1]) % 2, key[2]))
_mixed_coeffs = st.lists(_coeffs, min_size=1, max_size=3).map(sum)
large_half_angle_polys = st.dictionaries(_large_even_keys, _mixed_coeffs, max_size=8).map(PhaseHalfAngle)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(large_half_angle_polys)
@example(PhaseHalfAngle({(60, 0, 0): Scalar.of(1, 0, 1, -1), (59, 1, 0): Scalar.of(3),
                         (1, 59, 0): Scalar.of(0, 1, 2), (0, 60, 0): Scalar.of(5, 0, 2, 1)}))
def test_half_angle_integral_matches_the_per_term_oracle(f):
    assert integrate_half_angle(f) == integrate_half_angle_by_terms(f)


@pytest.mark.parametrize("n", [64, 257, 1000])
def test_half_angle_integral_of_the_chern_density_matches_the_per_term_oracle(monkeypatch, n):
    # the density chern_number integrates, at exponents up to 2n + 1
    densities = []
    original = berezin.integrate_half_angle

    def recording(f):
        densities.append(f)
        return original(f)
    monkeypatch.setattr(berezin, "integrate_half_angle", recording)
    for sign, want in ((MINUS, n), (PLUS, -n)):
        densities.clear()
        assert chern_number(sign, n) == want
        [top] = densities
        assert integrate_half_angle(top) == integrate_half_angle_by_terms(top)


def test_quad_oracle_takes_half_angle_polynomials():
    assert abs(quad_oracle(PhaseHalfAngle.monomial(1, 1, coeff=2)) - 4 * math.pi) < 1e-9
    f = PhaseHalfAngle({(4, 2, 0): Scalar.of(1, 2), (3, 1, -1): Scalar.of(5)})
    assert abs(quad_oracle(f) - to_complex(integrate_half_angle(f))) < 1e-9
    assert abs(quad_oracle(f) - quad_oracle(f.to_trigpoly())) < 1e-9


def test_chart_normalizers():
    # the constants production divides by are these derivations
    assert base_chart_normalizer() == BASE_CHART_VOLUME == Scalar.of(4, 0, 1, 1)
    assert group_chart_normalizer() == GROUP_CHART_VOLUME == Scalar.of(-4, 0, 1, 1)
    # the orbit map takes the reference volume form to the group one
    assert orbit_pullback(coordinate_volume_form()) == group_volume_body_form()


def test_chern_number_pulls_back_once(monkeypatch):
    # chern_number pulls psi back before pairing: it builds no form, so it
    # neither wedges nor calls chart_pullback; and it pulls each monomial back
    # by its exponents, so it multiplies no half-angle polynomials
    calls = []
    original = berezin.chart_pullback

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(berezin, "chart_pullback", counting)
    wedges = []
    wedge = SuperForm.__mul__

    def counting_wedge(*args):
        wedges.append(args)
        return wedge(*args)
    monkeypatch.setattr(SuperForm, "__mul__", counting_wedge)
    products = []
    product = PhaseHalfAngle.__mul__

    def counting_product(*args):
        products.append(args)
        return product(*args)
    monkeypatch.setattr(PhaseHalfAngle, "__mul__", counting_product)
    assert chern_number(MINUS, 2) == 2
    assert calls == [] and wedges == [] and products == []
    assert berezin_integral(coordinate_volume_form()) == Scalar.of(4, 0, 1, 1)
    assert len(calls) == 1


def test_chern_number_density_is_the_pulled_back_form(monkeypatch):
    # the density chern_number integrates is, term for term, the oracle's:
    # the group section chart pullback of the body pairing form
    densities = []
    original = berezin.integrate_half_angle

    def recording(f):
        densities.append(f)
        return original(f)
    monkeypatch.setattr(berezin, "integrate_half_angle", recording)
    for n in range(1, 9):
        for sign, want in ((MINUS, n), (PLUS, -n)):
            densities.clear()
            assert chern_number(sign, n) == want
            oracle = chart_pullback(chern_form_body(sign, n), group_section_chart())
            assert densities == [oracle]


_GAUSSIAN = st.builds(Scalar.of, _rationals, _rationals)


def _body_elements(table, names):
    """Strategy: sums of up to four Gaussian-rational multiples of words in names."""
    words = st.lists(st.sampled_from(names), max_size=3)
    return st.lists(st.tuples(_GAUSSIAN, words), max_size=4).map(table.element)


_GROUP_TABLE = group_space().table
_BASE_TABLE = base_space().table
_BASE_NAMES = ["x0", "x1", "x2"]
# each chart with the element and form pullbacks taken through it: production's
# through the group section chart, the powers oracle's through the base chart
_GROUP_ROUTE = (group_section_chart(),
                lambda x: _element_pullback(x, _read_chart(_GROUP_TABLE, group_section_chart())),
                chart_pullback)
_BASE_ROUTE = (base_chart(),
               lambda x: element_pullback_by_powers(x, chart_powers(_BASE_TABLE, base_chart())),
               chart_pullback_by_powers)
_CHARTED = st.one_of(
    st.tuples(st.just(_GROUP_ROUTE), _body_elements(_GROUP_TABLE, ["a", "a*", "b", "b*"]),
              _body_elements(_GROUP_TABLE, ["a", "a*", "b", "b*"])),
    st.tuples(st.just(_BASE_ROUTE), _body_elements(_BASE_TABLE, _BASE_NAMES),
              _body_elements(_BASE_TABLE, _BASE_NAMES)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_CHARTED)
def test_element_pullback_is_multiplicative(case):
    (_, pull, _), f, g = case
    assert pull(f * g) == pull(f) * pull(g)
    assert pull(f + g) == pull(f) + pull(g)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_CHARTED)
def test_chart_pullback_obeys_the_chain_rule(case):
    (chart, _, form_pullback), f, g = case
    power = chart_powers(f.algebra, chart)
    want = _jacobian(element_pullback_by_powers(f, power), element_pullback_by_powers(g, power))
    assert form_pullback(d(f) * d(g), chart) == want
    assert form_pullback(d(g) * d(f), chart) == -want


# sums of up to three body 2-forms c dx dy over x0, x1, x2, c of degree <= 3
_BASE_BODY_TWO_FORMS = st.lists(
    st.tuples(_body_elements(_BASE_TABLE, _BASE_NAMES), st.permutations(_BASE_NAMES)),
    min_size=1, max_size=3).map(lambda terms: SuperForm.sum(_BASE_TABLE, [
        c * d(_BASE_TABLE.gen(x)) * d(_BASE_TABLE.gen(y)) for c, (x, y, _) in terms]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_BASE_BODY_TWO_FORMS)
def test_berezin_integral_matches_the_base_chart_oracle(omega):
    # the orbit map and the group section chart against the cartesian chart
    assert berezin_integral(omega) == base_chart_integral(omega)


for _n in range(1, 5):
    for _sign in (MINUS, PLUS):
        test_berezin_integral_matches_the_base_chart_oracle = example(coordinate_chern_form(
            _sign, _n))(test_berezin_integral_matches_the_base_chart_oracle)


# any (hc, hs, k), odd hc + hs included: the Jacobian needs no whole angle
_any_keys = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(-3, 3))
_multi_term_polys = st.dictionaries(_any_keys, _coeffs, min_size=1, max_size=5).map(PhaseHalfAngle)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_multi_term_polys, _multi_term_polys)
@example(PhaseHalfAngle({(0, 0, 0): Scalar.of(3), (0, 2, 1): Scalar.of(1, 1, 2, 1)}),
         PhaseHalfAngle({(2, 0, 0): Scalar.of(0, 1, 3, -1), (1, 1, -2): Scalar.of(2)}))
@example(PhaseHalfAngle.monomial(hc=1, k=1), PhaseHalfAngle.monomial(hc=1, k=-1))
def test_one_pass_jacobian_matches_the_partials(u, v):
    assert _jacobian(u, v) == jacobian_by_partials(u, v)
    out = {}
    _add_jacobian(out, u, v)
    _add_jacobian(out, v, u)
    assert PhaseHalfAngle(out).is_zero


_RADICAL_GROUP_BODIES = st.lists(
    st.tuples(_coeffs, st.lists(st.sampled_from(["a", "a*", "b", "b*"]), max_size=4)),
    max_size=4).map(_GROUP_TABLE.element)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_RADICAL_GROUP_BODIES)
def test_section_chart_turns_the_diamond_into_conjugation(x):
    reading = _read_chart(_GROUP_TABLE, group_section_chart())
    assert _element_pullback(x.diamond(), reading) == _element_pullback(x, reading).conjugate()


def test_read_chart_takes_exponents_only_from_unit_monomials():
    names = _GROUP_TABLE.names
    assert _read_chart(_GROUP_TABLE, group_section_chart()) == tuple(
        {"a": (1, 0, 1), "a*": (1, 0, -1), "b": (0, 1, 0), "b*": (0, 1, 0)}.get(name)
        for name in names)
    with pytest.raises(ChartError, match="'x0' is not a unit monomial"):
        _read_chart(_BASE_TABLE, base_chart())
    # a unit monomial with another coefficient is refused too
    scaled = dict(group_section_chart(), b=PhaseHalfAngle.monomial(hs=1, coeff=2))
    with pytest.raises(ChartError, match="'b' is not a unit monomial"):
        _read_chart(_GROUP_TABLE, scaled)


_LONG_GROUP_BODIES = st.lists(
    st.tuples(_coeffs, st.lists(st.sampled_from(["a", "a*", "b", "b*"]), max_size=9)),
    max_size=6).map(_GROUP_TABLE.element)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_LONG_GROUP_BODIES)
def test_exponent_pullback_matches_the_power_route(x):
    # the powers of the chart's entries, the route a multi-term chart takes,
    # are the oracle for the exponent table on the group section chart
    chart = group_section_chart()
    assert (_element_pullback(x, _read_chart(_GROUP_TABLE, chart))
            == element_pullback_by_powers(x, chart_powers(_GROUP_TABLE, chart)))


@pytest.mark.parametrize("table, word, chart, match", [
    (_GROUP_TABLE, ["a", "eta"], group_section_chart(), "odd generators"),
    (_BASE_TABLE, ["x1", "xi+"], base_chart(), "odd generators"),
    (_GROUP_TABLE, ["a", "b*"], base_chart(), "does not supply generator 'a'"),
    (_BASE_TABLE, ["x0", "x2"], {"x0": base_chart()["x0"]}, "does not supply generator 'x2'"),
    (_GROUP_TABLE, ["a", "b*"], {"a": group_section_chart()["a"]}, "does not supply generator 'b\\*'"),
])
def test_element_pullback_rejects_what_the_chart_cannot_take(table, word, chart, match):
    # the powers oracle takes any chart; production takes unit monomials only
    unit = all(len(expr.terms) == 1 for expr in chart.values())
    x = table.element([(1, word)])
    with pytest.raises(ChartError, match=match):
        element_pullback_by_powers(x, chart_powers(table, chart))
    if unit:
        with pytest.raises(ChartError, match=match):
            _element_pullback(x, _read_chart(table, chart))
    # two even differentials, so only the coefficient x can fail
    u, v = [table.element([(1, [name])])
            for name, parity in zip(table.names, table.parities) if not parity][:2]
    with pytest.raises(ChartError, match=match):
        chart_pullback_by_powers(x * d(u) * d(v), chart)
    with pytest.raises(ChartError, match=match if unit else "is not a unit monomial"):
        chart_pullback(x * d(u) * d(v), chart)


def test_berezin_integral_takes_forms_in_the_sphere_coordinates():
    g = group_space()
    with pytest.raises(ChartError, match="not written in the sphere coordinates"):
        berezin_integral(g.a * g.differential("a*") * g.differential("b"))


def test_chern_numbers_small():
    for n in (1, 2, 3):
        assert chern_number(MINUS, n) == n
        assert chern_number(PLUS, n) == -n


def test_chern_number_beyond_the_radical_cliff():
    # psi(48) has radicands up to C(48, 24) ~ 3.2e13, too many to trial-divide
    assert chern_number(MINUS, 48) == 48
    assert chern_number(PLUS, 48) == -48


def test_chern_number_at_production_scale():
    for n in (64, 128):
        assert chern_number(MINUS, n) == n
        assert chern_number(PLUS, n) == -n


def _mirrored(chart):
    """The chart composed with phi -> -phi, which reverses d theta ^ d phi."""
    return {name: PhaseHalfAngle({(hc, hs, -k): v for (hc, hs, k), v in expr.terms.items()})
            for name, expr in chart.items()}


def test_chern_number_orientation_invariance():
    # reversing the chart orientation flips the density integral and the
    # chart's reference volume integral together, leaving the quotient unchanged
    group_mirror, base_mirror = _mirrored(group_section_chart()), _mirrored(base_chart())
    assert group_chart_normalizer(group_mirror) == -GROUP_CHART_VOLUME
    assert base_chart_normalizer(base_mirror) == -BASE_CHART_VOLUME
    for n in (1, 2):
        for sign, want in ((MINUS, n), (PLUS, -n)):
            top = chart_pullback(chern_form_body(sign, n), group_mirror)
            assert integrate_half_angle(top) * FOUR_PI / -GROUP_CHART_VOLUME == want
            top = chart_pullback_by_powers(coordinate_chern_form(sign, n).body_project(),
                                           base_mirror)
            assert integrate_half_angle(top) * FOUR_PI / -BASE_CHART_VOLUME == want
            # the coordinate path, pulled back along the orbit map
            top = chart_pullback(orbit_pullback(coordinate_chern_form(sign, n)), group_mirror)
            assert integrate_half_angle(top) * FOUR_PI / -GROUP_CHART_VOLUME == want


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


def test_chern_integral_of_half_a_chern_form_is_an_exactness_error():
    with pytest.raises(ExactnessError, match="Chern integral is not an exact integer: 1/2"):
        chern_integral(chern_closed_form(MINUS, 1) * rat(1, 2))


def test_nonintegral_value_raises():
    with pytest.raises(ValueError):
        (Scalar.of(Fraction(1, 3))).as_int()
    bad = coordinate_volume_form() * Scalar.of(Fraction(1, 3), 0, 1, -1)
    with pytest.raises(ValueError):
        berezin_integral(bad).as_int()
