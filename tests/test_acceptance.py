"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass line; exact criteria use structural equality of
canonical forms (zero tolerance), the numeric oracle uses 1e-9.
"""

import random
import time

from supersphere.berezin import berezin_chern_number, chern_number
from supersphere.forms import d
from supersphere.matrices import SuperMatrix, sdet
from supersphere.monopole import (MINUS, PLUS, base_space, chern_closed_form,
                                  chern_form, check_equivariance, check_group_identities,
                                  check_inversion_identities,
                                  connection_closed_form, connection_form,
                                  coordinate_images, group_element, group_space,
                                  pairing, projector, projector_to_base, psi,
                                  supertrace_p_dp_dp, _invariant_units)
from supersphere.scalars import Scalar
from supersphere.tests_support import random_element, random_supermatrix
from supersphere.trig import PhaseHalfAngle, TrigPoly, integrate_half_angle, wallis_integrate

from oracles import quad_oracle, to_complex
from test_monopole import _fixture


def _report(k, name):
    print("ACCEPTANCE %d (%s): PASS" % (k, name))


def test_criterion_1_chern_numbers_to_six():
    start = time.monotonic()
    for n in range(1, 7):
        assert chern_number(MINUS, n) == n, n
        assert chern_number(PLUS, n) == -n, n
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "total runtime %.1fs exceeds 60s" % elapsed
    _report(1, "exact Chern numbers +-n for n=1..6 in %.1fs" % elapsed)


def test_criterion_2_golden_projector():
    g = group_space()
    base = base_space()
    images = coordinate_images()
    golden = SuperMatrix.from_obj(base.table, _fixture("p_minus_1.json")["matrix"])
    proj = projector(psi(MINUS, 1)).matrix
    # coordinate entries substituted into group variables match entry by entry
    for i in range(3):
        for j in range(3):
            pulled = golden.entries[i][j].substitute(images, g.table)
            assert g.rewrites.reduce(pulled - proj.entries[i][j]).is_zero, (i, j)
    # and the emitted coordinate matrix is the golden one on the nose
    assert projector_to_base(projector(psi(MINUS, 1))) == golden
    golden_plus = SuperMatrix.from_obj(base.table, _fixture("p_plus_1.json")["matrix"])
    st = projector_to_base(projector(psi(MINUS, 1)))  # base-coordinate matrix
    st_group = projector(psi(MINUS, 1)).matrix.supertranspose()
    for i in range(3):
        for j in range(3):
            pulled = golden_plus.entries[i][j].substitute(images, g.table)
            assert g.rewrites.reduce(pulled - st_group.entries[i][j]).is_zero, (i, j)
    _report(2, "charge -1 projector and its supertranspose match the displayed matrices")


def test_criterion_3_projector_identities():
    g = group_space()
    one = g.table.one()
    for n in range(1, 5):
        mats = {}
        for sign in (MINUS, PLUS):
            mat = projector(psi(sign, n)).matrix
            mats[sign] = mat
            assert (mat @ mat).reduce(g.rewrites) == mat, ("p^2", sign, n)
            assert mat.dagger().reduce(g.rewrites) == mat, ("dagger", sign, n)
            assert g.rewrites.reduce(mat.supertrace()) == one, ("Str", sign, n)
        assert mats[MINUS].supertranspose() == mats[PLUS], n
    _report(3, "p^2 = p, p-dagger = p, Str p = 1, st(p-) = p+ for n=1..4")


def test_criterion_4_connection_forms():
    g = group_space()
    for n in range(1, 5):
        a_minus = connection_form(psi(MINUS, n))
        assert a_minus == g.ideal.reduce(connection_closed_form(MINUS, n)), n
        a_plus = connection_form(psi(PLUS, n))
        assert g.ideal.reduce(a_plus + a_minus).is_zero, n
    _report(4, "connection 1-forms match the closed expression, A+n = -A-n, n=1..4")


def test_criterion_5_chern_form_chain():
    g = group_space()
    for n in range(1, 4):
        for sign in (MINUS, PLUS):
            vec = psi(sign, n)
            stra = supertrace_p_dp_dp(projector(vec))
            kern = pairing([d(c) for c in vec.components],
                           [d(c) for c in vec.components])
            # under the conventions here Str(p (dp)^2) = -<d psi|d psi> exactly
            assert g.localizer.is_zero_mod(stra + kern), (sign, n)
            computed = chern_form(sign, n)
            assert g.equal_mod(computed, chern_closed_form(sign, n)), (sign, n)
        cm = chern_form(MINUS, n)
        cp = chern_form(PLUS, n)
        assert g.equal_mod(cp, -cm), n
    _report(5, "Chern-form chain and C1(p+) = -C1(p-) for n=1..3")


def test_criterion_6_group_identities():
    g = group_space()
    s = group_element()
    ident = SuperMatrix.identity(s.shape, g.table)
    assert (s @ s.dagger()).reduce(g.rewrites) == ident
    assert (s.dagger() @ s).reduce(g.rewrites) == ident
    assert sdet(s, g.rewrites) == g.table.one()
    # the sphere relation is the last identity check_group_identities decides
    assert check_group_identities() is None
    assert len(_invariant_units()) == 9 and check_inversion_identities() is None
    _report(6, "group unitarity, Sdet = 1, sphere relation, inversion identities")


def test_criterion_7_equivariance():
    for n in range(1, 4):
        for sign in (MINUS, PLUS):
            assert check_equivariance(sign, n) is None, (sign, n)
    _report(7, "psi covariance and projector invariance under the circle action, n=1..3")


def test_criterion_8_property_suites():
    g = group_space()
    rng = random.Random(20260808)
    failures = 0
    # graded commutativity and involution on >= 100 random elements
    for _ in range(120):
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        x = random_element(g.table, rng, parity=px)
        y = random_element(g.table, rng, parity=py)
        sign = -1 if px and py else 1
        if x * y != sign * (y * x):
            failures += 1
        if x.diamond().diamond() != ((-1) ** px) * x:
            failures += 1
    # supertranspose, supertrace and superdeterminant laws on >= 50 matrices
    for k in range(50):
        x = random_supermatrix(g.table, rng, parity=rng.randint(0, 1))
        y = random_supermatrix(g.table, rng, parity=rng.randint(0, 1))
        sign = -1 if x.parity and y.parity else 1
        rhs = y.supertranspose() @ x.supertranspose()
        if (x @ y).supertranspose() != (rhs if sign > 0 else -rhs):
            failures += 1
        if x.supertranspose().supertrace() != x.supertrace():
            failures += 1
        if not ((x @ y).supertrace() - sign * (y @ x).supertrace()).is_zero:
            failures += 1
        xi = random_supermatrix(g.table, rng, parity=0, invertible=True)
        yi = random_supermatrix(g.table, rng, parity=0, invertible=True)
        sx, sy = sdet(xi, g.rewrites), sdet(yi, g.rewrites)
        if not g.rewrites.reduce(sdet(xi @ yi, g.rewrites) - sx * sy).is_zero:
            failures += 1
        if not g.rewrites.reduce(sdet(xi.supertranspose(), g.rewrites) - sx).is_zero:
            failures += 1
    # d . d = 0 on >= 100 random forms
    for _ in range(110):
        x = random_element(g.table, rng)
        omega = x * g.differential(rng.choice(g.table.names))
        if not d(d(x)).is_zero or not d(d(omega)).is_zero:
            failures += 1
    # exact Wallis integration (the oracle) vs numeric quadrature on >= 100 polynomials
    from fractions import Fraction
    for _ in range(110):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randrange(7), rng.randrange(2),
                   rng.randrange(7), rng.randrange(2))
            terms[key] = Scalar.of(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
                                   Fraction(rng.randrange(-3, 4)))
        f = TrigPoly(terms)
        if abs(quad_oracle(f) - to_complex(wallis_integrate(f))) > 1e-9:
            failures += 1
    # closed-form half-angle integration vs numeric quadrature on >= 100
    # polynomials of even half-angle degree
    for _ in range(110):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            hc, hs = rng.randrange(9), rng.randrange(9)
            key = (hc, hs + (hc + hs) % 2, rng.randint(-3, 3))
            terms[key] = Scalar.of(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
                                   Fraction(rng.randrange(-3, 4)))
        f = PhaseHalfAngle(terms)
        if abs(quad_oracle(f) - to_complex(integrate_half_angle(f))) > 1e-9:
            failures += 1
    assert failures == 0
    _report(8, "randomized property suites, zero failures")


def test_criterion_9_oracle_agreement():
    for n in (1, 2):
        for sign in (MINUS, PLUS):
            assert chern_number(sign, n) == berezin_chern_number(sign, n), (sign, n)
    _report(9, "group-section and base-coordinate Berezin paths agree for n=1,2")
