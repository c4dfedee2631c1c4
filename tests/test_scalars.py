"""Exact scalar arithmetic: Gaussian rationals, radicals, pi powers."""

import ast
import math
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import supersphere
from supersphere.scalars import (Scalar, binomial_sum, binomial_sum_is_zero, combine,
                                 gaussian_vector, rat, sqrt_binomials, squarefree_split,
                                 weighted_sum)

from oracles import sqrt_binomial, to_complex


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(360) == (6, 10)
    with pytest.raises(ValueError):
        squarefree_split(0)


def test_radical_products():
    assert Scalar.of(1, 0, 2) * Scalar.of(1, 0, 2) == Scalar.of(2)
    assert Scalar.of(1, 0, 2) * Scalar.of(1, 0, 3) == Scalar.of(1, 0, 6)
    assert Scalar.of(1, 0, 6) * Scalar.of(1, 0, 10) == Scalar.of(2, 0, 15)
    assert Scalar.of(1, 0, 12) == Scalar.of(2, 0, 3)


def test_pi_exponents_add():
    assert Scalar.of(1, 0, 1, 1) * Scalar.of(1, 0, 1, 2) == Scalar.of(1, 0, 1, 3)
    assert Scalar.of(2, 0, 1, -1) * Scalar.of(Fraction(1, 2), 0, 1, 1) == Scalar.one()


def test_zero_canonical():
    z = Scalar.of(0)
    assert z.is_zero
    assert z == Scalar.zero()
    assert (Scalar.of(1) - Scalar.of(1)).is_zero
    assert z.components() == [] and z.as_int() == 0


def test_gaussian_arithmetic():
    i = Scalar.i()
    assert i * i == Scalar.of(-1)
    x = Scalar.of(Fraction(1, 2), Fraction(3, 4))
    assert x.conjugate() == Scalar.of(Fraction(1, 2), Fraction(-3, 4))
    assert x * x.inverse() == Scalar.one()
    assert (Scalar.of(3) / Scalar.of(2)) == rat(3, 2)


def test_inverse_with_radical_and_pi():
    x = Scalar.of(2, 0, 3, 1)      # 2 sqrt(3) pi
    assert x * x.inverse() == Scalar.one()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()


def test_mixed_component_sums():
    x = Scalar.of(1) + Scalar.of(1, 0, 2)          # 1 + sqrt(2): kept as two parts
    assert not x.is_simple
    assert x + (-x) == Scalar.zero()
    y = x * Scalar.of(1, 0, 2)                     # sqrt2 + 2
    assert y == Scalar.of(1, 0, 2) + Scalar.of(2)
    with pytest.raises(ValueError):
        x.inverse()


@pytest.mark.parametrize("zero", [0, Fraction(0), Scalar.zero()])
def test_a_zero_factor_gives_zero_with_no_collection(zero, monkeypatch):
    """A zero operand returns zero before the per-part collection, on either
    side and with a multi-part or one-record scalar on the other."""
    multi = Scalar.of(1, 2) + Scalar.of(3, 0, 2) + Scalar.of(-1, 0, 1, 2)
    calls = []
    collect = supersphere.scalars._collect
    monkeypatch.setattr(supersphere.scalars, "_collect",
                        lambda *args: calls.append(args) or collect(*args))
    for x in (multi, Scalar.of(Fraction(2, 3), -1), Scalar.zero()):
        for got in (x * zero, zero * x):
            assert type(got) is Scalar and got.is_zero and got == Scalar.zero()
    assert calls == []
    # the patch is seen: a product of nonzero multi-part scalars collects once
    assert not (multi * multi).is_zero and len(calls) == 1


def test_as_int():
    assert Scalar.of(5).as_int() == 5
    assert Scalar.zero().as_int() == 0
    for bad in (Scalar.of(Fraction(1, 2)), Scalar.of(1, 0, 2), Scalar.of(1, 0, 1, 1),
                Scalar.of(1, 1)):
        with pytest.raises(ValueError):
            bad.as_int()


def test_serialization_roundtrip():
    x = Scalar.of(Fraction(3, 7), Fraction(-1, 2), 6, -1) + Scalar.of(2)
    assert Scalar.from_obj(x.to_obj()) == x


def test_repr_signs_the_imaginary_part():
    assert repr(Scalar.of(3, 2)) == "(3+2i)"
    assert repr(Scalar.of(Fraction(1, 2), Fraction(1, 3))) == "(1/2+1/3i)"
    assert repr(Scalar.of(3, -2)) == "(3-2i)"
    assert repr(Scalar.of(1, 1, 2, 1)) == "(1+1i)*sqrt(2)*pi"
    assert repr(Scalar.of(0, -1)) == "-1i"


def test_to_complex():
    x = Scalar.of(1, 1, 2, 1)
    want = complex(1, 1) * math.sqrt(2) * math.pi
    assert abs(to_complex(x) - want) < 1e-12


def _float_uses(source: str) -> list[str]:
    """Each float or complex literal, float() or complex() call, and math.pi
    or math.sqrt in the source, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            what = node.func.id + "()"
        elif (isinstance(node, ast.Attribute) and node.attr in ("pi", "sqrt")
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            what = "math." + node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [a.name for a in node.names if a.name in ("pi", "sqrt")]
            if not names:
                continue
            what = "from math import " + ", ".join(names)
        else:
            continue
        found.append("%d: %s" % (node.lineno, what))
    return found


def test_package_has_no_floating_point():
    """The package computes exactly: no module but cli.py, which only times its
    checks, has a float or complex literal, calls float() or complex(), or
    reads math.pi or math.sqrt."""
    assert len(_float_uses("x = complex(re / den, im / den) * math.sqrt(m) * math.pi ** k\n"
                           "y = float(0.5) + 1j\nfrom math import gcd, pi\n")) == 7
    package = Path(supersphere.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {"cli.py", "scalars.py", "monopole.py"} <= {path.name for path in modules}
    found = {path.name: _float_uses(path.read_text())
             for path in modules if path.name != "cli.py"}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_sqrt_binomial_matches_trial_division():
    for n in range(31):
        row = sqrt_binomials(n)
        assert len(row) == n + 1
        for k in range(n + 1):
            want = Scalar.of(1, 0, math.comb(n, k))
            assert row[k] == want and sqrt_binomial(n, k) == want, (n, k)
    with pytest.raises(ValueError):
        sqrt_binomial(3, 4)
    with pytest.raises(ValueError):
        sqrt_binomials(-1)


@pytest.mark.parametrize("n", [64, 360, 997, 1024])
def test_sqrt_binomials_match_legendre(n):
    """The row steps each prime exponent from C(n, k) to C(n, k + 1)."""
    assert sqrt_binomials(n) == [sqrt_binomial(n, k) for k in range(n + 1)]


# Reference model: {(m, k): (Fraction re, Fraction im)} with every radical
# product split again by trial division, as the kernel did before it kept
# integer records.

def ref_normal(items):
    out = {}
    for (rad, pi), (re, im) in items:
        g, m0 = squarefree_split(rad)
        ore, oim = out.get((m0, pi), (Fraction(0), Fraction(0)))
        out[(m0, pi)] = (ore + re * g, oim + im * g)
    return {key: v for key, v in out.items() if v != (0, 0)}


def ref_of(terms):
    return ref_normal(((rad, pi), (Fraction(re), Fraction(im))) for re, im, rad, pi in terms)


def ref_add(x, y):
    return ref_normal([*x.items(), *y.items()])


def ref_neg(x):
    return {key: (-re, -im) for key, (re, im) in x.items()}


def ref_mul(x, y):
    return ref_normal(((r1 * r2, p1 + p2), (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2))
                      for (r1, p1), (a1, b1) in x.items() for (r2, p2), (a2, b2) in y.items())


def ref_conjugate(x):
    return {key: (re, -im) for key, (re, im) in x.items()}


def ref_inverse(x):
    ((rad, pi), (re, im)), = x.items()
    norm = re * re + im * im
    return {(rad, -pi): (re / norm / rad, -im / norm / rad)}


def as_ref(x: Scalar):
    return {(rad, pi): (re, im) for rad, pi, re, im in x.components()}


def build(terms) -> Scalar:
    total = Scalar.zero()
    for re, im, rad, pi in terms:
        total = total + Scalar.of(re, im, rad, pi)
    return total


rationals = st.one_of(st.integers(-6, 6),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)))
components = st.tuples(rationals, rationals, st.integers(1, 60), st.integers(-2, 2))
sums = st.lists(components, max_size=4)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(sums, sums, rationals)
def test_kernel_matches_reference_model(xs, ys, q):
    x, y = build(xs), build(ys)
    rx, ry = ref_of(xs), ref_of(ys)
    assert as_ref(x) == rx
    assert as_ref(x + y) == ref_add(rx, ry)
    assert as_ref(x - y) == ref_add(rx, ref_neg(ry))
    assert as_ref(x * y) == ref_mul(rx, ry)
    assert as_ref(x * q) == as_ref(q * x) == ref_mul(rx, ref_of([(q, 0, 1, 0)]))
    assert as_ref(x + q) == ref_add(rx, ref_of([(q, 0, 1, 0)]))
    assert as_ref(-x) == ref_neg(rx)
    assert as_ref(x.conjugate()) == ref_conjugate(rx)
    assert (x == y) == (rx == ry)
    # equal values built along different routes are equal and hash alike
    for a, b in ((x * y, y * x), (x + y - y, x), (build(xs[::-1]), x)):
        assert a == b and hash(a) == hash(b)
    if set(rx) <= {(1, 0)} and all(im == 0 for _re, im in rx.values()):
        value = rx.get((1, 0), (Fraction(0),))[0]
        assert x == value and hash(x) == hash(value)
    for term in xs:
        c, rc = Scalar.of(*term), ref_of([term])
        if rc:
            assert as_ref(c.inverse()) == ref_inverse(rc)
            assert c * c.inverse() == Scalar.one()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, -1)), sums, st.integers(0, 3), st.integers(0, 5)),
                max_size=5))
def test_binomial_sum_matches_scalar_arithmetic(terms):
    """sum sign s t^m (1 - t)^l, against the expansion in Scalar arithmetic."""
    want = [Scalar.zero()] * 9
    for sign, xs, m, l in terms:
        for k in range(l + 1):
            want[m + k] = want[m + k] + build(xs) * (sign * (-1) ** k * math.comb(l, k))
    while want and want[-1].is_zero:
        want.pop()
    got = binomial_sum([(sign, build(xs), m, l) for sign, xs, m, l in terms])
    assert got == tuple(want)


binomial_terms = st.lists(st.tuples(st.sampled_from((1, -1)), sums, st.integers(0, 3),
                                    st.integers(0, 5)), max_size=4)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@example(terms=[], elevated=[(1, [(1, 0, 1, 0)], 0, 0, 1, None)])
@example(terms=[], elevated=[(1, [(1, 0, 1, 0)], 0, 0, 1, 1)])
@example(terms=[], elevated=[(1, [(1, 0, 1, 0), (2, 1, 3, 1)], 1, 0, 4, None)])
@given(binomial_terms,
       st.lists(st.tuples(st.sampled_from((1, -1)), sums, st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 6), st.one_of(st.none(), st.integers(0, 6))),
                max_size=3))
def test_bernstein_zero_test_agrees_with_the_dense_sum(terms, elevated):
    """binomial_sum_is_zero against not binomial_sum, on random terms plus
    cancelling sets built by degree elevation: sign s t^m (1 - t)^l against
    each -sign C(g, j) s t^(m + j) (1 - t)^(l + g - j), one of them doubled
    when `perturb` names it."""
    items = [(sign, build(xs), m, l) for sign, xs, m, l in terms]
    for sign, xs, m, l, g, perturb in elevated:
        x = build(xs)
        items.append((sign, x, m, l))
        for j in range(g + 1):
            c = math.comb(g, j) * (2 if perturb == j else 1)
            items.append((-sign, x * c, m + j, l + g - j))
    assert binomial_sum_is_zero(items) == (not binomial_sum(items))
    if not terms and all(perturb is None or perturb > g for *_, g, perturb in elevated):
        assert binomial_sum_is_zero(items)


# two coefficients of two (radical, pi) parts each, over unequal denominators
_MULTI = [[(Fraction(1, 2), Fraction(-1, 3), 1, 0), (Fraction(2, 5), 0, 2, 1)],
          [(Fraction(1, 3), 1, 1, 0), (Fraction(-1, 4), Fraction(1, 6), 2, 1)]]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@example(terms=[], den=1)
@example(terms=[(_MULTI[0], 3), (_MULTI[1], -5)], den=7)
@given(st.lists(st.tuples(sums, st.integers(-10**6, 10**6)), max_size=5), st.integers(1, 36))
def test_weighted_sum_matches_scalar_arithmetic(terms, den):
    """sum s * w / den against Scalar arithmetic; the terms with each weight
    negated added cancel to exactly zero."""
    items = [(build(xs), w) for xs, w in terms]
    want = Scalar.zero()
    for s, w in items:
        want = want + s * w
    got = weighted_sum(items, den)
    _assert_canonical(got)
    assert got == want / den
    assert weighted_sum(items + [(s, -w) for s, w in items], den) == Scalar.zero()


gaussians = st.builds(Scalar.of, rationals, rationals).filter(lambda x: not x.is_zero)
vectors = st.dictionaries(st.sampled_from("abc"), gaussians, max_size=3)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@example(terms=[])
@example(terms=[(_MULTI[0], {"a": Scalar.of(Fraction(1, 2)), "b": Scalar.of(0, Fraction(2, 3))}),
                (_MULTI[1], {"b": Scalar.of(Fraction(3, 4), 1)})])
@given(st.lists(st.tuples(sums, vectors), max_size=4))
def test_combine_matches_scalar_arithmetic(terms):
    """sum s * v over Gaussian vectors v against Scalar arithmetic, key by
    key with zeros dropped; the terms with each s negated added cancel to no
    key at all."""
    items = [(build(xs), gaussian_vector(v)) for xs, v in terms]
    want: dict = {}
    for xs, v in terms:
        for key, c in v.items():
            want[key] = want.get(key, Scalar.zero()) + build(xs) * c
    got = combine(items)
    for x in got.values():
        _assert_canonical(x)
    assert got == {key: x for key, x in want.items() if not x.is_zero}
    assert combine(items + [(-s, v) for s, v in items]) == {}


def test_gaussian_vector_refuses_radicals_pi_powers_and_sums():
    x = Scalar.of(Fraction(1, 2), Fraction(1, 3))
    assert gaussian_vector({"x": x, "y": Scalar.of(2)}) == (6, [("x", 3, 2), ("y", 12, 0)])
    assert gaussian_vector({}) == (1, [])
    for bad in (Scalar.of(1, 0, 2), Scalar.of(1, 0, 1, 1), Scalar.of(1, 2, 1, -1),
                Scalar.of(3, 0, 5, 2), Scalar.one() + Scalar.of(1, 0, 3),
                Scalar.one() + Scalar.of(1, 0, 1, 2)):
        assert gaussian_vector({"x": x, "y": bad}) is None


def _to_obj_by_fractions(x: Scalar) -> list[dict]:
    """The serialization read off components(), one Fraction per part."""
    return [{"re": [re.numerator, re.denominator], "im": [im.numerator, im.denominator],
             "radical": rad, "pi": pi}
            for rad, pi, re, im in x.components()]


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(sums)
def test_to_obj_matches_fraction_route(xs):
    """to_obj reads the integer records directly; the output is the one the
    Fraction route gives, with plain int leaves, and it reads back."""
    x = build(xs)
    obj = x.to_obj()
    assert obj == _to_obj_by_fractions(x)
    assert all(type(v) is int for comp in obj for part in ("re", "im") for v in comp[part])
    assert Scalar.from_obj(obj) == x


def _from_obj_by_fractions(obj) -> Scalar:
    """The reader that builds two Fractions per component and adds each one."""
    total = Scalar.zero()
    for comp in obj:
        re = Fraction(comp["re"][0], comp["re"][1])
        im = Fraction(comp["im"][0], comp["im"][1])
        total = total + Scalar.of(re, im, comp.get("radical", 1), comp.get("pi", 0))
    return total


nonzero = st.integers(-40, 40).filter(bool)
raw_components = st.fixed_dictionaries(
    {"re": st.tuples(st.integers(-40, 40), nonzero), "im": st.tuples(st.integers(-40, 40), nonzero),
     "radical": st.integers(1, 60), "pi": st.integers(-2, 2)})


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.lists(raw_components, max_size=5))
def test_from_obj_reads_any_integer_records_as_the_fraction_route(obj):
    """Unreduced parts, negative denominators, non-squarefree radicands and
    repeated (radical, pi) keys read as the Fraction reader reads them."""
    assert Scalar.from_obj(obj) == _from_obj_by_fractions(obj)


def test_from_obj_reduces_and_signs_its_input():
    def comp(re, im, radical=1, pi=0):
        return {"re": list(re), "im": list(im), "radical": radical, "pi": pi}

    assert Scalar.from_obj([comp((2, 4), (-6, -8))]) == Scalar.of(Fraction(1, 2), Fraction(3, 4))
    assert Scalar.from_obj([comp((3, -6), (0, -5))]) == rat(-1, 2)
    assert Scalar.from_obj([comp((1, 1), (0, 1), 12, 1)]) == Scalar.of(2, 0, 3, 1)
    assert Scalar.from_obj([comp((1, 2), (1, 1)), comp((-2, 4), (-3, 3))]).is_zero
    for re, im in (((1, 0), (0, 1)), ((1, 2), (1, 0)), ((0, 0), (0, 0))):
        with pytest.raises(ValueError):
            Scalar.from_obj([comp(re, im)])
    assert Scalar.from_obj([comp((1, 1), (0, 1), 8)]) == Scalar.of(2, 0, 2)
    # a bad radicand is refused for a zero value too, as Scalar.of refuses it
    for re, radical in (((1, 1), 0), ((1, 1), -3), ((0, 7), 0), ((0, 1), -5)):
        with pytest.raises(ValueError):
            Scalar.from_obj([comp(re, (0, -3), radical)])


def test_from_obj_refuses_fields_that_are_not_ints():
    """A float or bool radical, pi or part is refused, not stored in a record."""
    good = {"re": [1, 2], "im": [0, 1], "radical": 2, "pi": 1}
    for field, bad in (("radical", 2.0), ("radical", True), ("pi", 1.5), ("pi", True),
                       ("pi", "1"), ("re", [1.0, 2]), ("re", [1, 2.0]), ("im", [0, True]),
                       ("im", [Fraction(1, 2), 1])):
        with pytest.raises(TypeError):
            Scalar.from_obj([{**good, field: bad}])
    assert Scalar.from_obj([good]) == Scalar.of(Fraction(1, 2), 0, 2, 1)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.just(0), st.integers(-10**30, 10**30)),
       st.one_of(st.just(0), st.integers(-10**30, 10**30)))
def test_rat_matches_fraction_route(p, q):
    if not q:
        with pytest.raises(ZeroDivisionError):
            rat(p, q)
        return
    x = rat(p, q)
    assert x == Scalar.of(Fraction(p, q))
    assert hash(x) == hash(Fraction(p, q))
    assert rat(p) == Scalar.of(p)


def test_floats_do_not_enter_exact_scalars():
    """A float operand is refused on either side of every operator, and
    Scalar.of takes only int or Fraction parts and an int radical and pi (a
    bool would be written to JSON as true)."""
    one = Scalar.one()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right in ((one, 1.5), (1.5, one)):
            with pytest.raises(TypeError):
                op(left, right)
    for args in ((0.1,), (1, 0.5), (1, 0, 2.0), (1, 0, 1, 1.0), (Fraction(1, 2), 0, "2"),
                 (1, 0, True), (1, 0, 1, True)):
        with pytest.raises(TypeError):
            Scalar.of(*args)
    with pytest.raises(TypeError):
        Scalar.coerce(0.5)


def test_of_checks_the_radicand_of_a_zero_value_too():
    for args in ((0, 0, 0), (0, 0, -5), (1, 0, 0), (Fraction(1, 2), 1, -3)):
        with pytest.raises(ValueError):
            Scalar.of(*args)
    assert Scalar.of(0, 0, 12).is_zero and Scalar.of(0, 0, 12, 3).is_zero


def _invert(x: Scalar) -> Scalar:
    return x.inverse() if x.is_simple and not x.is_zero else x


# scalars built through every constructor and operation that makes records,
# an int factor and a rational addend included
built_scalars = st.recursive(
    st.one_of(st.builds(Scalar.of, rationals, rationals, st.integers(1, 60), st.integers(-2, 2)),
              st.builds(rat, st.integers(-6, 6), st.integers(-12, 12).filter(bool))),
    lambda kids: st.one_of(
        st.builds(operator.add, kids, kids), st.builds(operator.sub, kids, kids),
        st.builds(operator.mul, kids, kids), st.builds(operator.mul, kids, st.integers(-4, 4)),
        st.builds(operator.add, kids, rationals), st.builds(operator.neg, kids),
        st.builds(_invert, kids), st.builds(Scalar.conjugate, kids),
        st.builds(lambda x: Scalar.from_obj(x.to_obj()), kids)),
    max_leaves=8)


def _assert_canonical(x: Scalar) -> None:
    """Sorted records, one per (radical, pi), each canonical and nonzero."""
    parts = x._parts
    assert type(parts) is tuple
    keys = [rec[:2] for rec in parts]
    assert keys == sorted(set(keys))
    for rad, pi, re, im, den in parts:
        assert all(type(v) is int for v in (rad, pi, re, im, den))
        assert squarefree_split(rad) == (1, rad)
        assert den > 0 and math.gcd(re, im, den) == 1 and (re or im)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(built_scalars, built_scalars, built_scalars)
def test_storage_is_one_canonical_record_tuple(a, b, c):
    """Every route gives sorted canonical records, so equal values have equal
    tuples and equal hashes, and unequal values unequal tuples; a rational
    value hashes as its Fraction."""
    for x in (a, b, a + b, a - b, a * b, a * 3, -a, a.conjugate(), _invert(a),
              Scalar.from_obj(a.to_obj())):
        _assert_canonical(x)
    assert (a == b) == (a._parts == b._parts) == (as_ref(a) == as_ref(b))
    for x, y in ((a * b, b * a), ((a * b) * c, a * (b * c)), (a * (b + c), a * b + a * c),
                 (a + b - b, a), (Scalar.from_obj(a.to_obj()), a), (-(-a), a),
                 (a.conjugate().conjugate(), a), (a * 3, a + a + a)):
        assert x == y and x._parts == y._parts and hash(x) == hash(y)
    for x in (a, a * b, a * a.conjugate()):
        ref = as_ref(x)
        if set(ref) <= {(1, 0)} and all(not im for _, im in ref.values()):
            value = ref[1, 0][0] if ref else Fraction(0)
            assert x == value and hash(x) == hash(value)
            assert hash(rat(value.numerator, value.denominator)) == hash(value)
