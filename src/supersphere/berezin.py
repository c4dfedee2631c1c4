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

A chart whose entries are all unit monomials, as the group section chart,
is read once into a table of exponent vectors (hc, hs, k) per generator, and
each body monomial pulls back to the one key its exponents dot that table,
with its own coefficient.  A chart with a multi-term entry, as the base
chart, pulls back through products of the powers of its entries; on the
group section chart that route is the tests' oracle.

chern_number builds no form: it pulls each body component of psi back once,
takes the pullback of its diamond by conjugation and sums the Jacobians of
the pairs into one density; chern_integral of monopole.chern_form_body, the
pairing of the same bodies, is its oracle.  CLI chern integrates the printed
form, CHERN_SCALAR dA of the verified connection A, with chern_integral.
Both pull back through _element_pullback.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import mul
from typing import Callable, Optional, Union

from .algebra import Element, GeneratorTable
from .forms import SuperForm
from .monopole import CHERN_SCALAR, psi_body
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


_ONE = PhaseHalfAngle.constant(1)
_UNIT = Scalar.one()

# A chart as _element_pullback reads it: each generator's (hc, hs, k), or
# None where the chart lacks it, for a chart of unit monomials; the chart's
# powers for any other
ChartReading = Union[tuple[Optional[tuple[int, int, int]], ...], Callable[[int, int], PhaseHalfAngle]]


def _read_chart(table: GeneratorTable, chart: Chart) -> ChartReading:
    """chart read once against the generators of table.  When every entry is
    one monomial with coefficient 1, as in the group section chart, the
    reading is a table of exponent vectors; otherwise, as in the base chart,
    it is _chart_powers."""
    rows: list[tuple[int, int, int] | None] = [None] * len(table.names)
    for name, expr in chart.items():
        if len(expr.terms) != 1 or _UNIT not in expr.terms.values():
            return _chart_powers(table, chart)
        if name in table.index:
            rows[table.index[name]] = next(iter(expr.terms))
    return tuple(rows)




def _element_pullback(x: Element, reading: ChartReading) -> PhaseHalfAngle:
    """The body element x through a chart read by _read_chart, a ring homomorphism.

    Through a table of exponent vectors each monomial of x goes to one key,
    the dot product of its exponents with the table, and keeps its own
    coefficient.  Through the powers of a chart with a multi-term entry each
    monomial is the product of its generators' powers times its coefficient.
    """
    table = x.algebra
    value: dict[tuple[int, int, int], Scalar] = {}
    for mono, scal in x.terms.items():
        even, odd = table.factors(mono)
        if odd:
            raise ChartError("form still contains odd generators; body-project first")
        if callable(reading):
            factors = [reading(idx, exp) for idx, exp in even]
            part = reduce(mul, factors) if factors else _ONE
            for key, c in part.terms.items():
                c = c * scal
                value[key] = value[key] + c if key in value else c
            continue
        hc = hs = k = 0
        for idx, exp in even:
            row = reading[idx]
            if row is None:
                raise ChartError("chart does not supply generator %r" % table.names[idx])
            hc += exp * row[0]
            hs += exp * row[1]
            k += exp * row[2]
        key = (hc, hs, k)
        value[key] = value[key] + scal if key in value else scal
    return PhaseHalfAngle(value)


# the factor i/2 of every Jacobian term, applied once per density
_HALF_I = Scalar.of(0, Fraction(1, 2))


def _add_jacobian(out: dict[tuple[int, int, int], Scalar], u: PhaseHalfAngle, v: PhaseHalfAngle) -> None:
    """Add the d theta ^ d phi coefficient of du ^ dv, divided by i/2, into
    out, term pair by term pair.  With C = cos(t/2), S = sin(t/2), d/dphi of
    a term t is i k t and d/dtheta (C^a S^b) = -(a/2) C^(a-1) S^(b+1) +
    (b/2) C^(a+1) S^(b-1), so c1 C^a1 S^b1 e^(i k1 phi) times
    c2 C^a2 S^b2 e^(i k2 phi) gives (i/2) c1 c2 (k1 a2 - k2 a1) at
    C^(A-1) S^(B+1) and (i/2) c1 c2 (k2 b1 - k1 b2) at C^(A+1) S^(B-1), with
    A = a1 + a2, B = b1 + b2, both at phase k1 + k2."""
    right = list(v.terms.items())
    for (a1, b1, k1), c1 in u.terms.items():
        for (a2, b2, k2), c2 in right:
            w_cos, w_sin = k1 * a2 - k2 * a1, k2 * b1 - k1 * b2
            if not (w_cos or w_sin):
                continue
            c = c1 * c2
            a, b, k = a1 + a2, b1 + b2, k1 + k2
            if w_cos:
                key, t = (a - 1, b + 1, k), c * w_cos
                out[key] = out[key] + t if key in out else t
            if w_sin:
                key, t = (a + 1, b - 1, k), c * w_sin
                out[key] = out[key] + t if key in out else t


def _jacobian(u: PhaseHalfAngle, v: PhaseHalfAngle) -> PhaseHalfAngle:
    """The d theta ^ d phi coefficient of du ^ dv."""
    out: dict[tuple[int, int, int], Scalar] = {}
    _add_jacobian(out, u, v)
    return PhaseHalfAngle(out) * _HALF_I


def chart_pullback(omega: SuperForm, chart: Chart) -> PhaseHalfAngle:
    """Pull a body-projected form back to its exact d theta ^ d phi density.

    Each surviving generator must appear in the chart; differentials are the
    formal theta/phi derivatives of the chart expressions, so d x_i ^ d x_j
    pulls back to their Jacobian.  Terms of form degree other than 2 have no
    top component and contribute nothing, but are validated all the same.
    """
    table = omega.algebra
    reading = _read_chart(table, chart)
    power = _chart_powers(table, chart)
    top: dict[tuple[int, int, int], Scalar] = {}
    for w, coeff in omega.terms.items():
        if any(table.parities[i] for i in w):
            raise ChartError("form still contains odd differentials; body-project first")
        value = _element_pullback(coeff, reading)
        exprs = [power(idx, 1) for idx in w]
        if len(exprs) == 2:
            for key, c in (value * _jacobian(*exprs)).terms.items():
                top[key] = top[key] + c if key in top else c
    return PhaseHalfAngle(top)


FOUR_PI = Scalar.of(4, 0, 1, 1)

# Each chart's integral of the reference volume form against d theta ^ d phi.
# The group section chart runs against the base orientation.  Both constants
# are re-derived from the volume forms in the tests.
GROUP_CHART_VOLUME = -FOUR_PI
BASE_CHART_VOLUME = FOUR_PI
_GROUP_NORMALIZER = FOUR_PI / GROUP_CHART_VOLUME


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
    return _exact_int(integrate_half_angle(top) * _GROUP_NORMALIZER, "Chern integral")


_CHERN_HALF_I = CHERN_SCALAR * _HALF_I
_GROUP_CHART = group_section_chart()    # read only


@cache
def _group_reading(table: GeneratorTable) -> ChartReading:
    """The group section chart read against table, once per table."""
    return _read_chart(table, _GROUP_CHART)


def chern_number(sign: str, n: int) -> int:
    """Exact first Chern number: +n for the '-' family, -n for '+'.

    Pullback through the group section chart commutes with d and wedge
    products and, as the chart sends a*, b* to the conjugates of a, b, turns
    the diamond into complex conjugation.  So the top density of
    -(1/(2 pi i)) <d psi|d psi> is CHERN_SCALAR times the sum of the Jacobians
    of each pulled-back body of psi (psi_body; the odd components have none)
    and its conjugate.  No form is built; the tests check the density against
    the pullback of chern_form_body.
    """
    body = psi_body(sign, n)
    reading = _group_reading(body[0].algebra)
    top: dict[tuple[int, int, int], Scalar] = {}
    for comp in body:
        f = _element_pullback(comp, reading)
        _add_jacobian(top, f, f.conjugate())
    return _group_chern_integral(PhaseHalfAngle({key: c * _CHERN_HALF_I for key, c in top.items()}))


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
