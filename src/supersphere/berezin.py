"""Exact Berezin integration and Chern numbers.

The Berezin integral over the supersphere reduces to body projection
followed by an ordinary integral over the underlying two-sphere.  Forms are
pulled back through an exact trigonometric chart, integrated with closed
Wallis-type formulas, and normalized by the chart's own integral of the
reference volume form, fixed to +4 pi; a product Gauss-Legendre rule serves
as an independent numeric oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .forms import SuperForm
from .monopole import (GroupSpace, chern_form_body, coordinate_volume_form,
                       group_space, group_volume_body_form, normalize_sign)
from .scalars import Scalar
from .trig import ChartError, PhaseHalfAngle, TrigPoly, wallis_integrate

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


@dataclass
class PullbackDensity:
    """Components of a pulled-back form on the (theta, phi) chart."""

    constant: TrigPoly
    d_theta: TrigPoly
    d_phi: TrigPoly
    top: TrigPoly       # coefficient of d theta ^ d phi


_FourTuple = tuple[PhaseHalfAngle, PhaseHalfAngle, PhaseHalfAngle, PhaseHalfAngle]


def _wedge2(u: _FourTuple, v: _FourTuple) -> _FourTuple:
    u0, u1, u2, u12 = u
    v0, v1, v2, v12 = v
    return (u0 * v0,
            u0 * v1 + u1 * v0,
            u0 * v2 + u2 * v0,
            u0 * v12 + u12 * v0 + u1 * v2 - u2 * v1)


def chart_pullback(omega: SuperForm, chart: Chart,
                   orientation: int = 1) -> PullbackDensity:
    """Pull a body-projected form back to exact trig densities.

    Each surviving generator must appear in the chart; differentials are the
    formal theta/phi derivatives of the chart expressions.  `orientation`
    = -1 integrates against d phi ^ d theta instead, flipping the top
    component.
    """
    table = omega.algebra
    zero = PhaseHalfAngle.zero()
    acc: _FourTuple = (zero, zero, zero, zero)
    for w, coeff in omega.terms.items():
        if any(table.parities[i] for i in w):
            raise ChartError("form still contains odd differentials; body-project first")
        value = PhaseHalfAngle.zero()
        for mono, scal in coeff.terms.items():
            if mono[1]:
                raise ChartError("form still contains odd generators; body-project first")
            part = PhaseHalfAngle.constant(scal)
            for idx, exp in mono[0]:
                name = table.names[idx]
                if name not in chart:
                    raise ChartError("chart does not supply generator %r" % name)
                part = part * chart[name] ** exp
            value = value + part
        term: _FourTuple = (value, zero, zero, zero)
        for idx in w:
            name = table.names[idx]
            if name not in chart:
                raise ChartError("chart does not supply generator %r" % name)
            expr = chart[name]
            diff: _FourTuple = (zero, expr.partial_theta(), expr.partial_phi(), zero)
            term = _wedge2(term, diff)
        acc = tuple(a + b for a, b in zip(acc, term))  # type: ignore[assignment]
    top = acc[3] if orientation > 0 else -acc[3]
    return PullbackDensity(acc[0].to_trigpoly(), acc[1].to_trigpoly(),
                           acc[2].to_trigpoly(), top.to_trigpoly())


QUAD_ORDER_MAX = 4096


def quad_order() -> int:
    """Gauss-Legendre order from SUPERSPHERE_QUAD_ORDER (default 64).

    The value must be an integer in 1..QUAD_ORDER_MAX; the bound keeps the
    order x order evaluation grid to a bounded amount of memory.
    """
    raw = os.environ.get("SUPERSPHERE_QUAD_ORDER", "64")
    try:
        order = int(raw)
    except ValueError:
        order = 0
    if not 1 <= order <= QUAD_ORDER_MAX:
        raise ValueError("SUPERSPHERE_QUAD_ORDER must be an integer in 1..%d, got %r"
                         % (QUAD_ORDER_MAX, raw))
    return order


def quad_oracle(f: TrigPoly) -> complex:
    """Product Gauss-Legendre approximation of the Wallis integral."""
    import numpy as np
    order = quad_order()
    nodes, weights = np.polynomial.legendre.leggauss(order)
    thetas = (nodes + 1.0) * (np.pi / 2.0)
    phis = (nodes + 1.0) * np.pi
    grid = f.evaluate_grid(thetas, phis)
    w_t = weights * (np.pi / 2.0)
    w_p = weights * np.pi
    return complex(w_t @ grid @ w_p)


FOUR_PI = Scalar.of(4, 0, 1, 1)


def _orientation_scale(reference_integral: Scalar) -> Scalar:
    """4 pi / R for the chart's reference-volume integral R = +-4 pi."""
    if reference_integral.is_zero:
        raise ExactnessError("chart reference volume integral vanished")
    return FOUR_PI * reference_integral.inverse()


def group_chart_normalizer(orientation: int = 1) -> Scalar:
    vol = group_volume_body_form()
    dens = chart_pullback(vol, group_section_chart(), orientation)
    return wallis_integrate(dens.top)


def base_chart_normalizer(orientation: int = 1) -> Scalar:
    vol = coordinate_volume_form()
    dens = chart_pullback(vol.body_project(), base_chart(), orientation)
    return wallis_integrate(dens.top)


def chern_number(sign: str, n: int, orientation: int = 1,
                 space: GroupSpace | None = None) -> int:
    """Exact first Chern number: +n for the '-' family, -n for '+'.

    Pipeline: Chern form, body projection, pullback through the group
    section chart, exact integration, division by the orientation
    normalizer.  The result must be an exact integer.
    """
    sign = normalize_sign(sign)
    if n < 1:
        raise ValueError("n must be a positive integer")
    g = space or group_space()
    body_form = chern_form_body(sign, n, g)
    dens = chart_pullback(body_form, group_section_chart(), orientation)
    integral = wallis_integrate(dens.top)
    ref = group_chart_normalizer(orientation)
    value = integral * _orientation_scale(ref)
    try:
        return value.as_int()
    except ValueError:
        raise ExactnessError("Chern integral is not an exact integer: %r" % (value,)) from None


def berezin_integral(omega: SuperForm, orientation: int = 1) -> Scalar:
    """Berezin integral of a 2-superform written in the sphere coordinates.

    Body projection sends xi and d xi to zero; what remains is pulled back
    through the cartesian chart and integrated exactly, with the orientation
    fixed by the reference volume integral = +4 pi.
    """
    body_form = omega.body_project()
    dens = chart_pullback(body_form, base_chart(), orientation)
    integral = wallis_integrate(dens.top)
    ref = base_chart_normalizer(orientation)
    return integral * _orientation_scale(ref)


def berezin_chern_number(sign: str, n: int) -> int:
    """Chern number along the base-coordinate path (coordinate Chern form)."""
    from .monopole import coordinate_chern_form
    value = berezin_integral(coordinate_chern_form(sign, n))
    try:
        return value.as_int()
    except ValueError:
        raise ExactnessError("coordinate Chern integral is not an integer: %r"
                             % (value,)) from None
