"""Exact Berezin integration and Chern numbers.

The Berezin integral over the supersphere reduces to body projection
followed by an ordinary integral over the underlying two-sphere.  Forms are
pulled back through an exact trigonometric chart to their top density, the
d theta ^ d phi coefficient, a sum of half-angle monomials
c * cos^a(t/2) sin^b(t/2) e^(i k phi); it is integrated in closed form (each
monomial is a Beta value B((a+1)/2, (b+1)/2) times 2 pi delta_k0), and
normalized by the chart's own integral of the reference volume form.  That
integral is a constant of the chart, -4 pi for the group section chart and
+4 pi for the base chart; the tests derive it again from the volume forms.
The whole-angle TrigPoly expansion with Wallis formulas is the exact oracle
for the integrator; the test suite adds a numeric one, a product
Gauss-Legendre rule.

chern_number builds no form: it pulls the body components of psi back first
and pairs their Jacobians; chern_integral of monopole.chern_form_body is its
oracle.
"""

from __future__ import annotations

from typing import Callable

from .algebra import Element, GeneratorTable
from .forms import SuperForm
from .monopole import CHERN_SCALAR, psi
from .scalars import Scalar
from .trig import ChartError, PhaseHalfAngle, integrate_half_angle

Chart = dict[str, PhaseHalfAngle]


class ExactnessError(Exception):
    """An exact computation produced a non-integer where an integer is required."""


def group_section_chart() -> Chart:
    """a = cos(t/2) e^(i phi), b = sin(t/2); odd generators already projected out."""
    return {
        "a": PhaseHalfAngle.monomial(hc=1, k=1),
        "a*": PhaseHalfAngle.monomial(hc=1, k=-1),
        "b": PhaseHalfAngle.monomial(hs=1),
        "b*": PhaseHalfAngle.monomial(hs=1),
    }


def base_chart() -> Chart:
    """x0 = cos t, x1 = sin t cos phi, x2 = sin t sin phi."""
    cs = PhaseHalfAngle.monomial(hc=1, hs=1)
    plus = PhaseHalfAngle.monomial(k=1)
    minus = PhaseHalfAngle.monomial(k=-1)
    return {
        "x0": PhaseHalfAngle.monomial(hc=2) - PhaseHalfAngle.monomial(hs=2),
        "x1": cs * (plus + minus),
        "x2": cs * (plus - minus) * Scalar.of(0, -1),
    }


def _chart_powers(table: GeneratorTable, chart: Chart) -> Callable[[int, int], PhaseHalfAngle]:
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


def _add_into(out: dict[tuple[int, int, int], Scalar], f: PhaseHalfAngle) -> None:
    """Add the terms of f into out."""
    for key, c in f.terms.items():
        out[key] = out[key] + c if key in out else c


def _element_pullback(x: Element, power: Callable[[int, int], PhaseHalfAngle]) -> PhaseHalfAngle:
    """The body element x through the chart of `power`, a ring homomorphism."""
    table = x.algebra
    value: dict[tuple[int, int, int], Scalar] = {}
    for mono, scal in x.terms.items():
        even, odd = table.factors(mono)
        if odd:
            raise ChartError("form still contains odd generators; body-project first")
        part = PhaseHalfAngle.constant(scal)
        for idx, exp in even:
            part = part * power(idx, exp)
        _add_into(value, part)
    return PhaseHalfAngle(value)


def _jacobian(u: PhaseHalfAngle, v: PhaseHalfAngle) -> PhaseHalfAngle:
    """The d theta ^ d phi coefficient of du ^ dv."""
    return u.partial_theta() * v.partial_phi() - u.partial_phi() * v.partial_theta()


def chart_pullback(omega: SuperForm, chart: Chart) -> PhaseHalfAngle:
    """Pull a body-projected form back to its exact d theta ^ d phi density.

    Each surviving generator must appear in the chart; differentials are the
    formal theta/phi derivatives of the chart expressions, so d x_i ^ d x_j
    pulls back to their Jacobian.  Terms of form degree other than 2 have no
    top component and contribute nothing, but are validated all the same.
    """
    table = omega.algebra
    power = _chart_powers(table, chart)
    top: dict[tuple[int, int, int], Scalar] = {}
    for w, coeff in omega.terms.items():
        if any(table.parities[i] for i in w):
            raise ChartError("form still contains odd differentials; body-project first")
        value = _element_pullback(coeff, power)
        exprs = [power(idx, 1) for idx in w]
        if len(exprs) == 2:
            _add_into(top, value * _jacobian(*exprs))
    return PhaseHalfAngle(top)


FOUR_PI = Scalar.of(4, 0, 1, 1)

# Each chart's integral of the reference volume form against d theta ^ d phi.
# The group section chart runs against the base orientation.  Both constants
# are re-derived from the volume forms in the tests.
GROUP_CHART_VOLUME = -FOUR_PI
BASE_CHART_VOLUME = FOUR_PI


def _exact_int(value: Scalar, what: str) -> int:
    try:
        return value.as_int()
    except ValueError:
        raise ExactnessError("%s is not an exact integer: %r" % (what, value)) from None


def chern_integral(omega: SuperForm) -> int:
    """Exact integral of a Chern 2-superform written in the group generators.

    Body projection, pullback through the group section chart, exact
    integration, division by the chart's reference volume integral.  The
    chart satisfies a a* + b b* = 1, so forms equal modulo the differential
    ideal give the same value.  The result must be an exact integer.
    """
    return _group_chern_integral(chart_pullback(omega.body_project(), group_section_chart()))


def _group_chern_integral(top: PhaseHalfAngle) -> int:
    """The Chern integral of a top density in the group section chart."""
    return _exact_int(integrate_half_angle(top) * FOUR_PI / GROUP_CHART_VOLUME, "Chern integral")


def chern_number(sign: str, n: int) -> int:
    """Exact first Chern number: +n for the '-' family, -n for '+'.

    Pullback through the group section chart commutes with d and wedge
    products and turns the diamond into the chart's conjugation, so the top
    density of -(1/(2 pi i)) <d psi|d psi> is CHERN_SCALAR times the sum of the
    Jacobians of the pulled-back body(psi_k) and body(psi_k)^diamond.  No form
    is built and the odd components of psi, whose body is zero, are skipped;
    the tests check the density against the pullback of chern_form_body.
    """
    vec = psi(sign, n)
    power = _chart_powers(vec.components[0].algebra, group_section_chart())
    top: dict[tuple[int, int, int], Scalar] = {}
    for comp in vec.components:
        body = comp.body()
        if not body.is_zero:
            _add_into(top, _jacobian(_element_pullback(body, power),
                                     _element_pullback(body.diamond(), power)))
    return _group_chern_integral(PhaseHalfAngle(top) * CHERN_SCALAR)


def berezin_integral(omega: SuperForm) -> Scalar:
    """Berezin integral of a 2-superform written in the sphere coordinates.

    Body projection sends xi and d xi to zero; the top density of what
    remains is pulled back through the cartesian chart and integrated
    exactly, normalised so that the reference volume integrates to 4 pi.
    """
    top = chart_pullback(omega.body_project(), base_chart())
    return integrate_half_angle(top) * FOUR_PI / BASE_CHART_VOLUME


def berezin_chern_number(sign: str, n: int) -> int:
    """Chern number along the base-coordinate path (coordinate Chern form)."""
    from .monopole import coordinate_chern_form
    return _exact_int(berezin_integral(coordinate_chern_form(sign, n)),
                      "coordinate Chern integral")
