"""Graded-commutative algebra engine: normalization, involution, rewriting."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supersphere.algebra import (EVEN, EXP_BITS, ODD, AlgebraMismatchError, Element,
                                 GeneratorTable, InvertibilityError, MonomialOverflowError,
                                 ParityError,
                                 RewriteSystem, RewriteOrderError,
                                 UnknownGeneratorError, graded_inverse)
from supersphere.forms import SuperForm
from supersphere.monopole import base_space, group_space
from supersphere.scalars import Scalar, gaussian_vector, rat
from supersphere.tests_support import random_element

from oracles import CIRCLE_REWRITES, TupleMonomial, mono_key, mono_mul, word_by_sorting


@pytest.fixture(scope="module")
def table():
    return GeneratorTable.build(
        conjugate_pairs=[("a", "a*", EVEN), ("b", "b*", EVEN), ("eta", "eta*", ODD)])


@pytest.fixture(scope="module")
def gens(table):
    return {name: table.gen(name) for name in table.names}


@pytest.fixture(scope="module")
def group_rewrites(table, gens):
    return RewriteSystem(table, gens["b"] * gens["b*"], table.one() - gens["a"] * gens["a*"])


def test_normalize_examples(table, gens):
    # repeated odd generator vanishes
    assert table.element([(1, ["eta", "eta"])]).is_zero
    # swapping two odd generators flips the sign
    assert table.element([(1, ["eta*", "eta"])]) == -(gens["eta"] * gens["eta*"])
    # even generators commute without sign
    assert table.element([(1, ["b", "a"])]) == gens["a"] * gens["b"]


def test_normalize_long_words(table, gens):
    a, ad, eta, etad = gens["a"], gens["a*"], gens["eta"], gens["eta*"]
    word = ["a"] * 5 + ["eta*", "a*", "eta"] + ["a"] * 2
    assert table.element([(1, word)]) == -(a ** 7 * ad * eta * etad)
    assert table.element([(1, ("eta", "a*", "eta*", "a"))]) == a * ad * eta * etad
    # a repeated odd generator vanishes next to itself and apart
    assert table.element([(1, ["a", "eta", "eta", "a"])]).is_zero
    assert table.element([(1, ["eta", "a", "eta*", "a", "eta"])]).is_zero
    # the even letters may stand in any order
    assert table.element([(2, ["a", "a", "b", "a"])]) == table.element([(2, ["a", "b", "a", "a"])])


def test_normalize_unknown_generator(table):
    with pytest.raises(UnknownGeneratorError):
        table.element([(1, ["nope"])])


@pytest.mark.parametrize("space", [group_space, base_space], ids=["group", "base"])
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@example(letters=[4, 0, 5, 0, 4], coeff=1)
@example(letters=[1, 4, 0, 4, 1], coeff=2)
@example(letters=[1, 3, 0], coeff=-3)
@given(st.lists(st.integers(0, 5), max_size=8), st.integers(-3, 3))
def test_element_folds_words_as_the_sorting_oracle(space, letters, coeff):
    """A word of up to 8 names, with repeats, against the insertion-sort
    oracle: the names are the table's, letter i taken modulo its size."""
    table = space().table
    word = [table.names[i % len(table)] for i in letters]
    got = table.element([(coeff, word)])
    assert got == word_by_sorting(table, coeff, word)
    odd = [name for name in word if table.parity_of_name(name) == ODD]
    if len(set(odd)) < len(odd):
        assert got.is_zero


def test_mul_examples(table, gens):
    a, b, eta, etad = gens["a"], gens["b"], gens["eta"], gens["eta*"]
    assert eta * etad == -(etad * eta)
    assert (a + b) * (a - b) == a * a - b * b


def test_mul_table_mismatch(table, gens):
    other = GeneratorTable.build(conjugate_pairs=[("a", "a*", EVEN)])
    with pytest.raises(AlgebraMismatchError):
        gens["a"] * other.gen("a")


_WORDS = st.lists(st.tuples(st.integers(-2, 2),
                            st.lists(st.sampled_from(("a", "a*", "b", "eta", "eta*")),
                                     max_size=3)),
                  max_size=3)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example(groups=[], cancel=False)
@example(groups=[[(1, ["a"]), (2, ["eta", "b"])]], cancel=False)
@example(groups=[[(1, ["a"]), (2, ["eta", "b"])]], cancel=True)
@given(st.lists(_WORDS, max_size=4), st.booleans())
def test_sum_matches_normalising_the_merged_words(groups, cancel):
    """Element.sum against GeneratorTable.element, which normalises and merges
    the same words itself; cancel appends the first item negated."""
    table = group_space().table
    if cancel and groups:
        groups = groups + [[(-c, word) for c, word in groups[0]]]
    got = Element.sum(table, [table.element(words) for words in groups])
    assert got == table.element([cw for words in groups for cw in words])


def test_sum_rejects_another_table(table, gens):
    other = GeneratorTable.build(conjugate_pairs=[("a", "a*", EVEN)])
    with pytest.raises(AlgebraMismatchError):
        Element.sum(table, [gens["a"], other.gen("a")])
    with pytest.raises(AlgebraMismatchError):
        gens["b"] + other.gen("a")


def test_sum_refuses_an_item_that_is_not_an_element(table, gens):
    # a form belongs in forms.sum_entries; summed here it would put a wedge
    # key and an Element coefficient among the monomial terms
    form = SuperForm.differential(table, "a")
    with pytest.raises(TypeError, match="sum_entries"):
        Element.sum(table, [gens["a"], form])
    with pytest.raises(TypeError):
        Element.sum(table, [gens["a"], 3])


@pytest.mark.parametrize("n", [True, 1.5, 2.0, Fraction(2)])
def test_power_refuses_an_exponent_that_is_not_an_int(gens, n):
    with pytest.raises(TypeError, match="exponent must be an int"):
        gens["a"] ** n


def test_reduce_rejects_another_table(table, group_rewrites):
    # same names as a subset: reduce must not reinterpret it over its own table
    other = GeneratorTable.build(conjugate_pairs=[("a", "a*", EVEN), ("b", "b*", EVEN)])
    with pytest.raises(AlgebraMismatchError):
        group_rewrites.reduce(other.gen("b") * other.gen("b*"))


def _diamond_oracle(x: Element) -> Element:
    """Independent diamond: apply the involution factor by factor."""
    table = x.algebra
    total = table.zero()
    for mono, coeff in x.terms.items():
        term = table.scalar(coeff.conjugate())
        even, odd = table.factors(mono)
        factors = []
        for idx, exp in even:
            factors.extend([idx] * exp)
        factors.extend(odd)
        for idx in factors:
            sign = table.diamond_sign[idx]
            partner = table.gen(table.names[table.diamond_partner[idx]])
            term = term * (partner if sign > 0 else -partner)
        total = total + term
    return total


def test_diamond_examples(table, gens):
    a, ad = gens["a"], gens["a*"]
    eta, etad = gens["eta"], gens["eta*"]
    assert etad.diamond() == -eta
    assert (Scalar.i() * a).diamond() == -Scalar.i() * ad
    x = a * ad + gens["b"] * gens["b*"]
    assert x.diamond() == x
    assert x.diamond() == _diamond_oracle(x)


def test_diamond_on_random_elements_matches_oracle(table):
    rng = random.Random(11)
    for _ in range(100):
        x = random_element(table, rng)
        assert x.diamond() == _diamond_oracle(x)


def test_diamond_involution_parity(table):
    rng = random.Random(12)
    for _ in range(100):
        parity = rng.randint(0, 1)
        x = random_element(table, rng, parity=parity)
        sign = -1 if parity else 1
        assert x.diamond().diamond() == sign * x


def test_parity_of(table, gens):
    eta, etad, a = gens["eta"], gens["eta*"], gens["a"]
    assert (eta * etad).parity() == "even"
    assert (a * eta).parity() == "odd"
    assert (a + eta).parity() == "mixed"
    assert table.zero().parity() == "zero"


def test_body_soul(table, gens):
    a, eta, etad = gens["a"], gens["eta"], gens["eta*"]
    one = table.one()
    assert (one - rat(1, 4) * eta * etad).body() == one
    assert (a + a * eta * etad).soul() == a * eta * etad
    x = a + a * eta * etad
    assert x.body() + x.soul() == x


def test_graded_commutativity_on_random_homogeneous(table):
    rng = random.Random(13)
    for _ in range(120):
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        x = random_element(table, rng, parity=px)
        y = random_element(table, rng, parity=py)
        sign = -1 if px == 1 and py == 1 else 1
        assert x * y == sign * (y * x)


def mono_divides(lead: TupleMonomial, mono: TupleMonomial) -> bool:
    le, lo = lead
    me, mo = mono
    if not set(lo) <= set(mo):
        return False
    exps = dict(me)
    return all(exps.get(i, 0) >= e for i, e in le)


def mono_divide(mono: TupleMonomial, lead: TupleMonomial) -> tuple[int, TupleMonomial]:
    """mono = sign * quotient * lead; requires mono_divides(lead, mono)."""
    exps = dict(mono[0])
    for i, e in lead[0]:
        exps[i] -= e
    even_part = tuple(sorted((i, e) for i, e in exps.items() if e > 0))
    lead_odd = set(lead[1])
    quot_odd = tuple(i for i in mono[1] if i not in lead_odd)
    sign = 1
    for q in quot_odd:
        for l in lead[1]:
            if q > l:
                sign = -sign
    return sign, (even_part, quot_odd)


def _rules(*systems: RewriteSystem) -> list[tuple[TupleMonomial, Element]]:
    return [(rewrites.algebra.factors(rewrites.lead), rewrites.replacement)
            for rewrites in systems]


def _naive_single_step_reduce(x: Element, rules: list[tuple[TupleMonomial, Element]]) -> Element:
    """Oracle: rewrite the largest reducible monomial by one rule until none is.

    This is the division algorithm; taking the largest monomial first lets
    every contribution to a monomial merge before it is rewritten.  It works
    on the tuple monomials of the oracle kernel.
    """
    table = x.algebra
    n = len(table)
    while True:
        hits = [(mono, lead, repl) for mono in map(table.factors, x.terms)
                for lead, repl in rules if mono_divides(lead, mono)]
        if not hits:
            return x
        mono, lead, repl = max(hits, key=lambda hit: mono_key(hit[0], n))
        coeff = x.terms[table.monomial(*mono)]
        sign, quot = mono_divide(mono, lead)
        piece = Element(table, {table.monomial(*quot): coeff if sign > 0 else -coeff}) * repl
        rest = dict(x.terms)
        del rest[table.monomial(*mono)]
        x = Element(x.algebra, rest) + piece


def test_reduce_examples(table, gens, group_rewrites):
    a, ad, b, bd = gens["a"], gens["a*"], gens["b"], gens["b*"]
    one = table.one()
    assert group_rewrites.reduce(b * bd) == one - a * ad
    cubed = (a * ad + b * bd) ** 3
    assert group_rewrites.reduce(cubed) == one
    assert _naive_single_step_reduce(cubed, _rules(group_rewrites)) == one
    assert group_rewrites.reduce(gens["eta"]) == gens["eta"]
    # the k = 0, 1 and 2 terms of q * (b b*)^k cancel across their groups
    assert group_rewrites.reduce((a * ad + b * bd - one) * (b * bd + gens["eta"])) == 0


def test_reduce_matches_naive_oracle_on_random(table, group_rewrites):
    rng = random.Random(14)
    for _ in range(40):
        x = random_element(table, rng, max_terms=3, max_word=4)
        assert group_rewrites.reduce(x) == _naive_single_step_reduce(x, _rules(group_rewrites))


# each entry is reduced by its systems in turn; the circle's two leads share
# no generator, so that gives the normal form modulo both rules
_PRODUCTION_REWRITES = {
    "group": lambda: (group_space().rewrites,),
    "base": lambda: (base_space().rewrites,),
    "circle": lambda: CIRCLE_REWRITES,
}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(_PRODUCTION_REWRITES)), st.integers(0, 2 ** 32 - 1))
def test_reduce_matches_naive_oracle_on_lead_powers(name, seed):
    """The closed form against single-step rewriting, up to lead^12."""
    systems = _PRODUCTION_REWRITES[name]()
    table = systems[0].algebra
    rng = random.Random(seed)
    x = random_element(table, rng)
    for rewrites in systems:
        x = x * Element(table, {rewrites.lead: Scalar.one()}) ** rng.randint(0, 12)
    rx = x
    for rewrites in systems:
        rx = rewrites.reduce(rx)
    assert rx == _naive_single_step_reduce(x, _rules(*systems))
    assert all(rewrites.reduce(rx) == rx for rewrites in systems)


def test_reduce_signs_an_odd_replacement_into_the_quotient():
    # eta, t and eta* are declared before a and a*, so a a* -> eta eta*
    # decreases the order, and t standing between them brings a sign
    t = GeneratorTable.build(
        conjugate_pairs=[("eta", "eta*", ODD), ("t", "t*", ODD), ("a", "a*", EVEN)],
        order=["eta", "t", "eta*", "t*", "a", "a*"])
    rewrites = RewriteSystem(t, t.gen("a") * t.gen("a*"), t.gen("eta") * t.gen("eta*"))
    x = t.gen("t") * t.gen("a") ** 2 * t.gen("a*")
    assert rewrites.reduce(x) == t.gen("t") * t.gen("a") * t.gen("eta") * t.gen("eta*")
    rng = random.Random(16)
    for _ in range(40):
        x = random_element(t, rng, max_terms=3, max_word=5)
        assert rewrites.reduce(x) == _naive_single_step_reduce(x, _rules(rewrites))


def test_rewrite_system_rejects_rules_without_a_closed_form(table, gens):
    a, eta, etad = gens["a"], gens["eta"], gens["eta*"]
    zero = table.zero()
    for lead, repl in ((2 * (a * a), zero),  # coefficient 2
                       (a * eta, zero),  # an odd lead
                       (eta * etad, zero),  # even, but on odd generators
                       (a * a, a)):  # the replacement shares the lead's a
        with pytest.raises(ValueError):
            RewriteSystem(table, lead, repl)


def test_reduce_idempotent_and_homomorphism(table, group_rewrites):
    rng = random.Random(15)
    for _ in range(60):
        x = random_element(table, rng)
        y = random_element(table, rng)
        rx = group_rewrites.reduce(x)
        assert group_rewrites.reduce(rx) == rx
        assert group_rewrites.reduce(x * y) == group_rewrites.reduce(
            group_rewrites.reduce(x) * group_rewrites.reduce(y))


def test_rewrite_rule_must_decrease_order(table, gens):
    # replacing a a* by b b* increases the graded-lex order (b-terms lead)
    with pytest.raises(RewriteOrderError):
        RewriteSystem(table, gens["a"] * gens["a*"], gens["b"] * gens["b*"])


def test_substitute_u1_action(table, gens, group_rewrites):
    ext = GeneratorTable.build(conjugate_pairs=[
        ("a", "a*", EVEN), ("b", "b*", EVEN), ("eta", "eta*", ODD), ("w", "w*", EVEN)])
    images = {n: ext.gen(n) * ext.gen("w") for n in ("a", "b", "eta")}
    images.update({n + "*": ext.gen(n + "*") * ext.gen("w*") for n in ("a", "b", "eta")})
    moved = (gens["a"] * gens["a*"] + gens["b"] * gens["b*"]).substitute(images, ext)
    # the two leads share no generator, so reducing by each in turn gives the
    # normal form modulo both
    unit_det = RewriteSystem(ext, ext.gen("b") * ext.gen("b*"),
                             ext.one() - ext.gen("a") * ext.gen("a*"))
    circle = RewriteSystem(ext, ext.gen("w") * ext.gen("w*"), ext.one())
    assert circle.reduce(unit_det.reduce(moved)) == ext.one()


def test_substitute_identity_and_parity_error(table, gens):
    x = gens["a"] * gens["eta"] + rat(1, 2) * gens["b"]
    assert x.substitute({}, table) == x
    with pytest.raises(ParityError):
        x.substitute({"eta": gens["a"]}, table)


def test_substitute_xi_minus_reduces_quarter_etaeta(table, gens, group_rewrites):
    # oracle: expand the coordinate expressions directly
    a, ad, b, bd = gens["a"], gens["a*"], gens["b"], gens["b*"]
    eta, etad = gens["eta"], gens["eta*"]
    xi_minus = rat(-1, 2) * (a * etad + eta * bd)
    xi_plus = rat(1, 2) * (eta * ad - b * etad)
    # xi- xi+ = 1/4 (a eta* + eta b*)(b eta* - eta a*) expanded by hand:
    # = 1/4 (a b* eta eta* ... ) -> equals (1/4) eta eta* (a a* + b b*) mod nothing
    expanded = rat(-1, 4) * ((a * etad) * (eta * ad) - (a * etad) * (b * etad)
                             + (eta * bd) * (eta * ad) - (eta * bd) * (b * etad))
    assert xi_minus * xi_plus == expanded
    target = rat(1, 4) * eta * etad - xi_minus * xi_plus
    assert group_rewrites.reduce(target).is_zero


def test_graded_inverse(table, gens, group_rewrites):
    one = table.one()
    eta, etad = gens["eta"], gens["eta*"]
    assert graded_inverse(one + rat(1, 4) * eta * etad) == one - rat(1, 4) * eta * etad
    assert graded_inverse(table.scalar(2)) == table.scalar(rat(1, 2))
    with pytest.raises(InvertibilityError):
        graded_inverse(gens["a"] * gens["a*"], group_rewrites)
    with pytest.raises(InvertibilityError):
        graded_inverse(table.zero())
    # invertibility through the relation: det-like combination reduces to a unit
    u = gens["a"] * gens["a*"] + gens["b"] * gens["b*"] + rat(1, 2) * eta * etad
    v = graded_inverse(u, group_rewrites)
    assert group_rewrites.reduce(u * v) == one


def test_element_serialization_roundtrip(table, gens):
    x = (rat(1, 2) * gens["a"] * gens["eta"] - Scalar.i() * gens["b"] ** 2
         + table.scalar(Scalar.of(1, 0, 8)))
    assert Element.from_obj(table, x.to_obj()) == x


_FOUR_ODD = GeneratorTable.build(conjugate_pairs=[
    ("a", "a*", EVEN), ("t", "t*", ODD), ("u", "u*", ODD)])


def _words_of(table, obj):
    """The word route from_obj replaced: each term's even names repeated by
    their exponents, then its odd names, folded as one word."""
    return table.element([
        (Scalar.from_obj([t["coeff"]]),
         [name for name, e in t.get("even", {}).items() for _ in range(e)] + list(t.get("odd", [])))
        for t in obj])


def test_from_obj_reads_unsorted_odd_lists_as_their_words():
    rng = random.Random(20261020)
    for _ in range(200):
        x = random_element(_FOUR_ODD, rng, max_terms=4, max_word=5)
        obj = x.to_obj()
        assert Element.from_obj(_FOUR_ODD, obj) == x
        for t in obj:
            rng.shuffle(t["odd"])
            if t["odd"] and rng.random() < 0.2:
                t["odd"].append(rng.choice(t["odd"]))
        assert Element.from_obj(_FOUR_ODD, obj) == _words_of(_FOUR_ODD, obj)
    t, u = _FOUR_ODD.gen("t"), _FOUR_ODD.gen("u*")
    swapped = [{"coeff": Scalar.one().to_obj()[0], "even": {"a": 2}, "odd": ["u*", "t"]}]
    assert Element.from_obj(_FOUR_ODD, swapped) == -(_FOUR_ODD.gen("a") ** 2 * t * u)
    assert Element.from_obj(_FOUR_ODD, [dict(swapped[0], odd=["t", "u*", "t"])]).is_zero


@pytest.mark.parametrize("even, odd, error", [
    ({"eta": 1}, [], ValueError),
    ({"a": -1}, [], ValueError),
    ({"a": 1.0}, [], ValueError),
    ({"a": 2 ** EXP_BITS}, [], MonomialOverflowError),
    ({"c": 1}, [], UnknownGeneratorError),
    ({}, ["a"], ValueError),
    ({}, ["eta", "eta", "zeta"], UnknownGeneratorError),
])
def test_from_obj_rejects_malformed_terms(table, even, odd, error):
    good = {"coeff": Scalar.one().to_obj()[0], "even": {"b": 1}, "odd": ["eta"]}
    with pytest.raises(error):
        Element.from_obj(table, [good, {"coeff": good["coeff"], "even": even, "odd": odd}])


def test_serialization_order_is_canonical(table, gens):
    x = gens["a"] + gens["b"] * gens["b*"] + table.one()
    obj = x.to_obj()
    # leading (graded-lex greatest) term first
    assert obj[0]["even"] == {"b": 1, "b*": 1}
    assert obj[-1]["even"] == {}


def test_hash_agrees_with_equality(table):
    assert Scalar.one() == 1 and table.one() == 1
    assert len({1, Scalar.one(), table.one()}) == 1
    assert hash(Scalar.of(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(rat(3, 4) * table.one()) == hash(Fraction(3, 4))
    assert hash(table.zero()) == hash(Scalar.zero()) == hash(0)


# -- the packed monomial kernel against the tuple oracle -------------------------

# the group table, the base table (odd generators first) and four odd
# generators interleaved with two even ones
KERNEL_TABLES = {
    "group": group_space().table,
    "base": base_space().table,
    "four odd": GeneratorTable.build(
        conjugate_pairs=[("a", "a*", EVEN), ("eta", "eta*", ODD), ("t", "t*", ODD)],
        order=["eta", "a", "t", "eta*", "a*", "t*"]),
}


@st.composite
def tuple_monomials(draw, table):
    """A tuple monomial over the table: even exponents up to 6, a set of odd generators."""
    even = tuple((i, e) for i in range(len(table)) if table.parities[i] == EVEN
                 if (e := draw(st.integers(0, 6))))
    odd = tuple(i for i in range(len(table)) if table.parities[i] == ODD if draw(st.booleans()))
    return even, odd


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(KERNEL_TABLES)).flatmap(
    lambda name: st.tuples(st.just(name), tuple_monomials(KERNEL_TABLES[name]),
                           tuple_monomials(KERNEL_TABLES[name]))))
def test_packed_kernel_matches_the_tuple_oracle(case):
    name, t1, t2 = case
    table = KERNEL_TABLES[name]
    m1, m2 = table.monomial(*t1), table.monomial(*t2)
    # encode and decode are inverse
    assert table.factors(m1) == t1 and table.factors(m2) == t2
    assert table.parity(m1) == len(t1[1]) % 2
    # integer order is the oracle's graded order
    k1, k2 = mono_key(t1, len(table)), mono_key(t2, len(table))
    assert (m1 < m2) == (k1 < k2) and (m1 == m2) == (k1 == k2)
    # the product and its sign
    got, want = table.multiply(m1, m2), mono_mul(t1, t2)
    if want is None:
        assert got is None
    else:
        assert got == (want[0], table.monomial(*want[1]))
    # the Element product agrees
    x = Element(table, {m1: Scalar.one()}) * Element(table, {m2: Scalar.of(2)})
    assert x.terms == ({} if want is None else {got[1]: Scalar.of(2 * want[0])})
    # a repeated odd generator gives zero
    for i in t1[1]:
        assert table.multiply(m1, table.units[i]) is None
        assert (Element(table, {m1: Scalar.one()}) * table.gen(table.names[i])).is_zero


def test_monomial_rejects_a_misplaced_or_repeated_generator(table):
    a, eta = table.index["a"], table.index["eta"]
    with pytest.raises(ValueError):
        table.monomial(even=[(eta, 1)])
    with pytest.raises(ValueError):
        table.monomial(odd=[a])
    with pytest.raises(ValueError):
        table.monomial(odd=[eta, eta])
    with pytest.raises(ValueError):
        table.divide(table.units[a], eta)


def test_degree_overflow_raises_and_never_wraps(table, gens):
    top = 2 ** EXP_BITS - 1
    a, ad = table.index["a"], table.index["a*"]
    # the largest degree fits, in a monomial and in a product
    assert table.factors(table.monomial([(a, top)])) == (((a, top),), ())
    half = gens["a"] ** (top // 2)
    assert (half * half * gens["a"]).terms == {table.monomial([(a, top)]): Scalar.one()}
    with pytest.raises(MonomialOverflowError):
        table.monomial([(a, top + 1)])
    with pytest.raises(MonomialOverflowError):
        table.monomial([(a, 1), (ad, top)])
    with pytest.raises(MonomialOverflowError):
        table.element([(1, ["a"] * (top + 1))])
    with pytest.raises(MonomialOverflowError):
        table.multiply(table.monomial([(a, top)]), table.units[ad])
    with pytest.raises(MonomialOverflowError):
        half * half * gens["a"] * gens["a*"]
    # the largest term bounds the product, whichever term is the first
    with pytest.raises(MonomialOverflowError):
        (gens["b"] + half * half) * (gens["b"] + gens["a"] * gens["a"])


# -- results built without the zero filter ---------------------------------------

_GROUP_NAMES = ("a", "a*", "b", "b*", "eta", "eta*")
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# coefficients of up to two (radical, pi) parts
_SCALARS = st.lists(st.builds(Scalar.of, _rationals, _rationals, st.sampled_from((1, 2, 3)),
                              st.integers(-1, 1)), min_size=1, max_size=2).map(
    lambda parts: sum(parts, Scalar.zero()))


def _words(names):
    return st.lists(st.tuples(_SCALARS, st.lists(st.sampled_from(names), max_size=4)),
                    max_size=5)


_GROUP_WORDS = _words(_GROUP_NAMES)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_GROUP_WORDS)
def test_unfiltered_results_hold_no_zero_coefficient(words):
    """diamond, negation and the parity, body and soul parts map nonzero
    coefficients one to one onto distinct monomials, so they skip the filter."""
    table = group_space().table
    x = table.element(words)
    for got in (x.diamond(), -x, x.even_part(), x.odd_part(), x.body(), x.soul()):
        assert got == Element(table, got.terms)
        assert not any(s.is_zero for s in got.terms.values())
    assert len(x.diamond().terms) == len(x.terms)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from((group_space().table, base_space().table)).flatmap(
    lambda table: st.tuples(st.just(table), _words(table.names))))
def test_signed_diamond_is_the_signed_image(case):
    """_diamond(s) conjugates and signs each coefficient in one pass; diamond
    stays an involution up to parity: x^dia dia = x_even - x_odd."""
    table, words = case
    x = table.element(words)
    for sign in (1, -1):
        got = x._diamond(sign)
        assert got == sign * x.diamond()
        assert not any(s.is_zero for s in got.terms.values())
    assert x.diamond().diamond() == x.even_part() - x.odd_part()


# -- the rewrite on integer records against Element.__mul__ and reduce -----------

def _canonical(vec):
    den, recs = vec
    return den, sorted(recs)


# a base word: x0 up to the cube, so a factor may carry x0 before or after
# reduction, x1 and x2 up to the square, and a set of odd generators
_BASE_WORDS = st.lists(st.tuples(
    st.builds(Scalar.of, _rationals, _rationals),
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
              st.sets(st.sampled_from(("xi-", "xi+")))).map(
        lambda t: ["x0"] * t[0] + ["x1"] * t[1] + ["x2"] * t[2] + sorted(t[3]))),
    max_size=5)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@example(x_words=[(Scalar.of(1), ["x0", "xi-"]), (Scalar.of(0, 1), ["x0"])],
         y_words=[(Scalar.of(Fraction(1, 2)), ["x0", "xi+"]), (Scalar.of(2), ["x1"])],
         reduced=True)
@given(_BASE_WORDS, _BASE_WORDS, st.booleans())
def test_multiply_vectors_matches_reducing_the_element_product(x_words, y_words, reduced):
    base = base_space()
    rewrites = base.rewrites
    x, y = base.table.element(x_words), base.table.element(y_words)
    if reduced:
        x, y = rewrites.reduce(x), rewrites.reduce(y)
    got = rewrites.multiply_vectors(gaussian_vector(x.terms), gaussian_vector(y.terms))
    assert _canonical(got) == _canonical(gaussian_vector(rewrites.reduce(x * y).terms))


def test_multiply_vectors_raises_on_degree_overflow():
    base = base_space()
    table, rewrites = base.table, base.rewrites
    top = 2 ** EXP_BITS - 1
    x1, x2 = table.index["x1"], table.index["x2"]
    # the largest degree fits; one more raises, as in Element.__mul__
    high = (1, [(table.monomial([(x1, top - 1)]), 1, 0)])
    assert rewrites.multiply_vectors(high, (1, [(table.units[x2], 1, 0)])) == (
        1, [(table.monomial([(x1, top - 1), (x2, 1)]), 1, 0)])
    with pytest.raises(MonomialOverflowError):
        rewrites.multiply_vectors(high, (1, [(table.monomial([(x2, 2)]), 3, 0)]))


@pytest.mark.parametrize("factor", [Scalar.of(1, 0, 2), rat(1, 2)])
def test_multiply_vectors_needs_a_gaussian_integer_replacement(table, gens, factor):
    rewrites = RewriteSystem(table, gens["b"] * gens["b*"],
                             factor * (table.one() - gens["a"] * gens["a*"]))
    b, bd, eta = (gaussian_vector(gens[name].terms) for name in ("b", "b*", "eta"))
    # a product that needs no rewrite needs no power of the replacement
    assert rewrites.multiply_vectors(eta, b) == gaussian_vector((gens["eta"] * gens["b"]).terms)
    with pytest.raises(ValueError, match="Gaussian integers"):
        rewrites.multiply_vectors(b, bd)
