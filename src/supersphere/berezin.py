"""Exact Berezin integration and Chern numbers.

The Berezin integral over the supersphere reduces to body projection
followed by an ordinary integral over the underlying two-sphere, through one
chart, the group section chart a = cos(t/2) e^(i phi), b = sin(t/2).  Forms
are pulled back to their top density, the d theta ^ d phi coefficient, a sum
of half-angle monomials c * cos^a(t/2) sin^b(t/2) e^(i k phi); it is
integrated in closed form (each monomial is a Beta value
B((a+1)/2, (b+1)/2) times 2 pi delta_k0), and normalized by the chart's
integral of the reference volume form, the constant -4 pi, which the tests
derive again from the volume forms.  The whole-angle TrigPoly expansion with
Wallis formulas is the exact oracle for the integrator; the test suite adds
a numeric one, a product Gauss-Legendre rule.

The chart's entries are unit monomials, so it is read once into a table of
exponent vectors (hc, hs, k) per generator, and each body monomial pulls
back to the one key its exponents dot that table, with its own coefficient.

A form in the sphere coordinates is first pulled back along the orbit map
to the bodies of the group images of x0, x1, x2: 2 a a* - 1, a b* + a* b and
i(a b* - a* b), which the chart sends to cos t, sin t cos phi and
-sin t sin phi: the cartesian chart, the tests' oracle, with phi reflected,
whose volume constant is +4 pi.

chern_number builds no form: it pulls each body component of psi back once,
takes the pullback of its diamond by conjugation and sums the Jacobians of
the pairs into one density; chern_integral of monopole.chern_form_body, the
pairing of the same bodies, is its oracle.  CLI chern integrates the printed
form, CHERN_SCALAR dA of the verified connection A, with chern_integral.
All pull back through _element_pullback.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Optional

from .algebra import Element, GeneratorTable
from .forms import SuperForm
from .monopole import (CHERN_SCALAR, base_space, coordinate_chern_form, coordinate_images,
                       group_space, psi_body)
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


_UNIT = Scalar.one()

# A chart as _element_pullback reads it: each generator's (hc, hs, k), or
# None where the chart lacks it
ChartReading = tuple[Optional[tuple[int, int, int]], ...]


def _read_chart(table: GeneratorTable, chart: Chart) -> ChartReading:
    """chart read once against the generators of table, as a table of
    exponent vectors.  Every entry must be one monomial with coefficient 1,
    as in the group section chart; any other raises ChartError."""
    rows: list[tuple[int, int, int] | None] = [None] * len(table.names)
    for name, expr in chart.items():
        if len(expr.terms) != 1 or _UNIT not in expr.terms.values():
            raise ChartError("chart entry for %r is not a unit monomial" % name)
        if name in table.index:
            rows[table.index[name]] = next(iter(expr.terms))
    return tuple(rows)


def _element_pullback(x: Element, reading: ChartReading) -> PhaseHalfAngle:
    """The body element x through a chart read by _read_chart, a ring
    homomorphism: each monomial of x goes to one key, the dot product of its
    exponents with the table, and keeps its own coefficient."""
    table = x.algebra
    value: dict[tuple[int, int, int], Scalar] = {}
    for mono, scal in x.terms.items():
        even, odd = table.factors(mono)
        if odd:
            raise ChartError("form still contains odd generators; body-project first")
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
    """Pull a body-projected form back through a chart of unit monomials to
    its exact d theta ^ d phi density.

    Each surviving generator must appear in the chart; differentials are the
    formal theta/phi derivatives of the chart monomials, so d x_i ^ d x_j
    pulls back to their Jacobian.  Terms of form degree other than 2 have no
    top component and contribute nothing, but are validated all the same.
    """
    table = omega.algebra
    reading = _read_chart(table, chart)
    top: dict[tuple[int, int, int], Scalar] = {}
    for w, coeff in omega.terms.items():
        if any(table.parities[i] for i in w):
            raise ChartError("form still contains odd differentials; body-project first")
        value = _element_pullback(coeff, reading)
        exprs = [_element_pullback(table.gen(table.names[idx]), reading) for idx in w]
        if len(exprs) == 2:
            for key, c in (value * _jacobian(*exprs)).terms.items():
                top[key] = top[key] + c if key in top else c
    return PhaseHalfAngle(top)


FOUR_PI = Scalar.of(4, 0, 1, 1)

# The group section chart's integral of the reference volume form against
# d theta ^ d phi, against the base orientation; the tests derive it again.
GROUP_CHART_VOLUME = -FOUR_PI
_GROUP_NORMALIZER = FOUR_PI / GROUP_CHART_VOLUME


def _exact_int(value: Scalar, what: str) -> int:
    try:
        return value.as_int()
    except ValueError:
        raise ExactnessError("%s is not an exact integer: %r" % (what, value)) from None


_GROUP_CHART = group_section_chart()    # read only


def _group_integral(top: PhaseHalfAngle) -> Scalar:
    """A top density's integral, normalised so the reference volume gives 4 pi."""
    return integrate_half_angle(top) * _GROUP_NORMALIZER


def chern_integral(omega: SuperForm) -> int:
    """Exact integral of a Chern 2-superform written in the group generators.

    Body projection, pullback through the group section chart, exact
    integration, division by the chart's reference volume integral.  The
    chart satisfies a a* + b b* = 1, so forms equal modulo the differential
    ideal give the same value.  The result must be an exact integer.
    """
    return _exact_int(_group_integral(chart_pullback(omega.body_project(), _GROUP_CHART)),
                      "Chern integral")


_CHERN_HALF_I = CHERN_SCALAR * _HALF_I


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
    top = PhaseHalfAngle({key: c * _CHERN_HALF_I for key, c in top.items()})
    return _exact_int(_group_integral(top), "Chern integral")


@cache
def _coordinate_bodies() -> dict[str, Element]:
    """The bodies of the group images of x0, x1, x2 (read only)."""
    images = coordinate_images()
    return {name: images[name].body() for name in ("x0", "x1", "x2")}


def orbit_pullback(omega: SuperForm) -> SuperForm:
    """The body of a form in the sphere coordinates pulled back along the orbit
    map to the group generators; ChartError for a form over any other table."""
    if omega.algebra != base_space().table:
        raise ChartError("form is not written in the sphere coordinates")
    return omega.body_project().substitute(_coordinate_bodies(), group_space().table)


def berezin_integral(omega: SuperForm) -> Scalar:
    """Berezin integral of a 2-superform written in the sphere coordinates.

    Body projection sends xi and d xi to zero; what remains is pulled back
    along the orbit map and integrated as chern_integral integrates.
    """
    return _group_integral(chart_pullback(orbit_pullback(omega), _GROUP_CHART))


def berezin_chern_number(sign: str, n: int) -> int:
    """Chern number along the base-coordinate path (coordinate Chern form)."""
    return _exact_int(berezin_integral(coordinate_chern_form(sign, n)),
                      "coordinate Chern integral")
