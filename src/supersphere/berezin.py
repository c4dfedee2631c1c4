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
"""

from __future__ import annotations

from .forms import SuperForm
from .monopole import chern_form_body, normalize_sign
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


def chart_pullback(omega: SuperForm, chart: Chart) -> PhaseHalfAngle:
    """Pull a body-projected form back to its exact d theta ^ d phi density.

    Each surviving generator must appear in the chart; differentials are the
    formal theta/phi derivatives of the chart expressions, so d x_i ^ d x_j
    pulls back to their Jacobian.  Terms of form degree other than 2 have no
    top component and contribute nothing, but are validated all the same.
    """
    table = omega.algebra

    # generator index -> [expr, expr^2, ...], each power built once per call
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

    top: dict[tuple[int, int, int], Scalar] = {}
    for w, coeff in omega.terms.items():
        if any(table.parities[i] for i in w):
            raise ChartError("form still contains odd differentials; body-project first")
        value: dict[tuple[int, int, int], Scalar] = {}
        for mono, scal in coeff.terms.items():
            even, odd = table.factors(mono)
            if odd:
                raise ChartError("form still contains odd generators; body-project first")
            part = PhaseHalfAngle.constant(scal)
            for idx, exp in even:
                part = part * power(idx, exp)
            for key, c in part.terms.items():
                value[key] = value[key] + c if key in value else c
        exprs = [power(idx, 1) for idx in w]
        if len(exprs) == 2:
            u, v = exprs
            jacobian = u.partial_theta() * v.partial_phi() - u.partial_phi() * v.partial_theta()
            for key, c in (PhaseHalfAngle(value) * jacobian).terms.items():
                top[key] = top[key] + c if key in top else c
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
    top = chart_pullback(omega.body_project(), group_section_chart())
    return _exact_int(integrate_half_angle(top) * FOUR_PI / GROUP_CHART_VOLUME, "Chern integral")


def chern_number(sign: str, n: int) -> int:
    """Exact first Chern number: +n for the '-' family, -n for '+'.

    The Chern integral of the body pairing form, which skips the odd
    components of psi.
    """
    sign = normalize_sign(sign)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return chern_integral(chern_form_body(sign, n))


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
