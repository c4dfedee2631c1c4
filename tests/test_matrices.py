"""Supermatrix calculus: transpose, trace, bracket, adjoint, superdeterminant."""

import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from supersphere import matrices
from supersphere.algebra import (AlgebraMismatchError, Element, GeneratorTable,
                                 InvertibilityError, ParityError, graded_inverse)
from supersphere.forms import SuperForm, d
from supersphere.linear import expand_in_basis, solve_exact
from supersphere.matrices import (BlockShape, EVEN_FIRST, ODD_FIRST, ShapeError,
                                  SuperMatrix, exp_nilpotent, graded_bracket, sdet)
from supersphere.monopole import (MINUS, PLUS, group_element, group_space, osp_fixtures,
                                  projector, psi)
from supersphere.scalars import Scalar, rat
from supersphere.tests_support import random_supermatrix

from oracles import matmul_by_entries, sdet_by_three_inverses


@pytest.fixture(scope="module")
def g():
    return group_space()


@pytest.fixture(scope="module")
def fixtures(g):
    return osp_fixtures()


# -- oracles -----------------------------------------------------------------

def _numeric_fixture(name):
    """The five generator matrices as plain complex-fraction arrays."""
    h = Fraction(1, 2)
    i = 1j
    data = {
        "A0": [[0, 0, 0], [0, h * i, 0], [0, 0, -h * i]],
        "A1": [[0, 0, 0], [0, 0, h * i], [0, h * i, 0]],
        "A2": [[0, 0, 0], [0, 0, h], [0, -h, 0]],
        "R+": [[0, -h, 0], [0, 0, 0], [-h, 0, 0]],
        "R-": [[0, 0, h], [-h, 0, 0], [0, 0, 0]],
    }
    return [[complex(v) for v in row] for row in data[name]]


def _numeric_mul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _numeric_add(x, y, s=1):
    return [[x[i][j] + s * y[i][j] for j in range(3)] for i in range(3)]


def test_bracket_fixtures_match_numeric_oracle(g, fixtures):
    # oracle: direct 3x3 complex computation, frozen expectations
    a1, a2, a0 = _numeric_fixture("A1"), _numeric_fixture("A2"), _numeric_fixture("A0")
    comm = _numeric_add(_numeric_mul(a1, a2), _numeric_mul(a2, a1), -1)
    assert comm == _numeric_add([[0] * 3] * 3, a0, -1)        # [A1, A2] = -A0
    rp, rm = _numeric_fixture("R+"), _numeric_fixture("R-")
    anti = _numeric_add(_numeric_mul(rp, rm), _numeric_mul(rm, rp))
    half_i = 0.5j
    want = [[-half_i * v for v in row] for row in a0]          # {R+, R-} = -(i/2) A0
    assert anti == want

    # the symbolic route reproduces the same values
    assert graded_bracket(fixtures["A1"], fixtures["A2"]) == -fixtures["A0"]
    assert graded_bracket(fixtures["R+"], fixtures["R-"]) == \
        fixtures["A0"].scale(Scalar.of(0, Fraction(-1, 2)))


def test_bracket_even_self_vanishes(g, fixtures):
    for name in ("A0", "A1", "A2"):
        br = graded_bracket(fixtures[name], fixtures[name])
        assert all(e.is_zero for row in br.entries for e in row)


def test_graded_jacobi_identity(g, fixtures):
    mats = fixtures
    triples = [("A0", "A1", "A2"), ("R+", "R-", "A0"), ("R+", "A1", "R-"),
               ("R+", "R+", "R-")]
    for na, nb, nc in triples:
        x, y, z = mats[na], mats[nb], mats[nc]
        px, py, pz = x.parity, y.parity, z.parity
        term1 = graded_bracket(x, graded_bracket(y, z)).scale(
            Scalar.of((-1) ** (px * pz)))
        term2 = graded_bracket(y, graded_bracket(z, x)).scale(
            Scalar.of((-1) ** (py * px)))
        term3 = graded_bracket(z, graded_bracket(x, y)).scale(
            Scalar.of((-1) ** (pz * py)))
        total = term1 + term2 + term3
        assert all(e.is_zero for row in total.entries for e in row), (na, nb, nc)


def test_osp_closure_by_exact_linear_system(g, fixtures):
    basis = list(fixtures.values())
    for na, xa in fixtures.items():
        for nb, xb in fixtures.items():
            br = graded_bracket(xa, xb)
            coeffs = expand_in_basis(br, basis)
            assert coeffs is not None, (na, nb)


def test_expand_in_basis_rejects_a_target_that_is_not_constant(g, fixtures):
    """A target with the pattern of A0 but a non-constant entry lies outside the
    span of constant matrices, though its constant terms are A0's."""
    basis = list(fixtures.values())
    a0 = fixtures["A0"]
    assert expand_in_basis(a0, basis) == [1, 0, 0, 0, 0]
    target = a0 + a0.map_entries(lambda e: g.table.zero() if e.is_zero else g.a)
    assert expand_in_basis(target, basis) is None
    with pytest.raises(ValueError):
        expand_in_basis(a0, basis + [target])


def test_solve_exact_basics():
    one, two = Scalar.of(1), Scalar.of(2)
    sol = solve_exact([[one, one], [one, -one]], [two, Scalar.zero()])
    assert sol == [Scalar.of(1), Scalar.of(1)]
    assert solve_exact([[one], [one]], [one, two]) is None


def test_dagger_fixtures(g, fixtures):
    assert fixtures["A0"].dagger() == -fixtures["A0"]
    assert fixtures["A1"].dagger() == -fixtures["A1"]
    assert fixtures["A2"].dagger() == -fixtures["A2"]
    assert fixtures["R+"].dagger() == -fixtures["R-"]
    assert fixtures["R-"].dagger() == fixtures["R+"]


def test_dagger_reproduces_group_adjoint(g):
    """s-dagger equals the displayed adjoint matrix entry by entry."""
    one = g.table.one()
    a, ad, b, bd, eta, etad = g.a, g.ad, g.b, g.bd, g.eta, g.etad
    e8 = one - rat(1, 8) * eta * etad
    want = SuperMatrix(BlockShape(1, 2, EVEN_FIRST), [
        [one + rat(1, 4) * eta * etad, rat(1, 2) * (ad * eta + b * etad),
         rat(1, 2) * (bd * eta - a * etad)],
        [rat(1, 2) * etad, ad * e8, bd * e8],
        [rat(1, 2) * eta, -b * e8, a * e8],
    ], parity=0)
    assert group_element().dagger() == want


def test_matmul_identity_and_shape_errors(g):
    sh = BlockShape(1, 2, EVEN_FIRST)
    rng = random.Random(21)
    x = random_supermatrix(g.table, rng, parity=0, shape=sh)
    ident = SuperMatrix.identity(sh, g.table)
    assert x @ ident == x and ident @ x == x
    other = SuperMatrix.identity(BlockShape(1, 1, EVEN_FIRST), g.table)
    with pytest.raises(ShapeError):
        x @ other


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([BlockShape(1, 2), BlockShape(2, 1, ODD_FIRST)]),
       st.integers(0, 1), st.integers(0, 1), st.integers(0, 2 ** 32))
def test_matmul_matches_the_entry_oracle(shape, px, py, seed):
    """One pass per entry gives the n-ary sum of the d products."""
    table = group_space().table
    rng = random.Random(seed)
    x = random_supermatrix(table, rng, parity=px, shape=shape)
    y = random_supermatrix(table, rng, parity=py, shape=shape)
    got, want = x @ y, matmul_by_entries(x, y)
    assert got == want and got.parity == want.parity == (px + py) % 2
    assert all(type(e) is Element for row in got.entries for e in row)


@pytest.mark.parametrize("sign", [MINUS, PLUS])
@pytest.mark.parametrize("n", [1, 2])
def test_matmul_of_form_matrices_matches_the_entry_oracle(sign, n):
    """p @ dp and dp @ dp keep their entry types: forms wherever a form meets."""
    p = projector(psi(sign, n)).matrix
    dp = p.map_entries(d)
    for x, y in ((p, dp), (dp, p), (dp, dp), (p, p)):
        got, want = x @ y, matmul_by_entries(x, y)
        assert got == want and got.parity == want.parity
        assert [[type(e) for e in row] for row in got.entries] == \
            [[type(e) for e in row] for row in want.entries]


def test_matmul_mixed_rows_and_columns_keep_their_entry_types(g):
    """An entry is a form exactly when its row of x or its column of y holds one."""
    sh = BlockShape(1, 1)
    one, zero = g.table.one(), g.table.zero()
    x = SuperMatrix(sh, [[g.a, zero], [one, d(g.b)]], None)
    y = SuperMatrix(sh, [[g.b, SuperForm.zero(g.table)], [g.eta, one]], None)
    got = x @ y
    assert got == matmul_by_entries(x, y)
    assert [[type(e) for e in row] for row in got.entries] == \
        [[Element, SuperForm], [SuperForm, SuperForm]]
    assert got.entries[0][0] == g.a * g.b and got.entries[0][1].is_zero


def test_matmul_rejects_another_table_and_another_shape(g):
    sh = BlockShape(1, 2)
    x = random_supermatrix(g.table, random.Random(23), parity=0, shape=sh)
    other = GeneratorTable.build(conjugate_pairs=[("a", "a*", 0), ("eta", "eta*", 1)])
    y = SuperMatrix.identity(sh, other)
    with pytest.raises(AlgebraMismatchError):
        x @ y
    with pytest.raises(AlgebraMismatchError):
        y @ x
    # a mismatched entry anywhere raises, also one no product meets with a nonzero factor
    z = SuperMatrix.identity(sh, g.table)
    z.entries[2][1] = other.zero()
    with pytest.raises(AlgebraMismatchError):
        x @ z
    with pytest.raises(ShapeError):
        x @ SuperMatrix.identity(BlockShape(2, 1, ODD_FIRST), g.table)


def test_scale_by_a_scalar_multiplies_each_entry(g, fixtures):
    x = random_supermatrix(g.table, random.Random(24), parity=1, shape=BlockShape(1, 2))
    c = Scalar.of(2, -1)
    for factor in (c, 3, Fraction(1, 3)):
        got = x.scale(factor)
        assert got.parity == 1
        assert got.entries == [[g.table.scalar(factor) * e for e in row] for row in x.entries]
    assert x.scale(0).entries == [[g.table.zero()] * 3 for _ in range(3)]
    # an odd Element factor multiplies on the left and flips the parity
    got = x.scale(g.eta)
    assert got.parity == 0
    assert got.entries == [[g.eta * e for e in row] for row in x.entries]


def test_matmul_associativity_random(g):
    rng = random.Random(22)
    sh = BlockShape(1, 1, EVEN_FIRST)
    for _ in range(20):
        x = random_supermatrix(g.table, rng, parity=rng.randint(0, 1), shape=sh)
        y = random_supermatrix(g.table, rng, parity=rng.randint(0, 1), shape=sh)
        z = random_supermatrix(g.table, rng, parity=rng.randint(0, 1), shape=sh)
        assert (x @ y) @ z == x @ (y @ z)


def test_supertranspose_block_diagonal(g):
    sh = BlockShape(1, 2, EVEN_FIRST)
    x = SuperMatrix.from_rational(sh, g.table,
                                  [[2, 0, 0], [0, 3, 5], [0, 7, 11]], 0)
    st = x.supertranspose()
    assert st.entries[0][0] == g.table.scalar(2)
    assert st.entries[1][2] == g.table.scalar(7)
    assert st.entries[2][1] == g.table.scalar(5)


def test_supertranspose_twice_flips_offdiagonal(g):
    rng = random.Random(23)
    for shape in (BlockShape(1, 2, EVEN_FIRST), BlockShape(2, 1, ODD_FIRST)):
        x = random_supermatrix(g.table, rng, parity=0, shape=shape)
        st2 = x.supertranspose().supertranspose()
        for i in range(shape.dim):
            for j in range(shape.dim):
                want = x.entries[i][j]
                if (shape.type_parity(i) + shape.type_parity(j)) % 2:
                    want = -want
                assert st2.entries[i][j] == want


def test_supertranspose_product_law_random(g):
    rng = random.Random(24)
    for shape in (BlockShape(1, 1, EVEN_FIRST), BlockShape(1, 2, EVEN_FIRST),
                  BlockShape(2, 1, ODD_FIRST)):
        for _ in range(20):
            x = random_supermatrix(g.table, rng, parity=rng.randint(0, 1), shape=shape)
            y = random_supermatrix(g.table, rng, parity=rng.randint(0, 1), shape=shape)
            sign = -1 if x.parity and y.parity else 1
            lhs = (x @ y).supertranspose()
            rhs = y.supertranspose() @ x.supertranspose()
            assert lhs == (rhs if sign > 0 else -rhs)


def test_supertrace_identity_counts_blocks(g):
    assert SuperMatrix.identity(BlockShape(1, 2, EVEN_FIRST), g.table).supertrace() \
        == g.table.scalar(-1)
    assert SuperMatrix.identity(BlockShape(3, 1, EVEN_FIRST), g.table).supertrace() \
        == g.table.scalar(2)


def test_supertrace_laws_random(g):
    rng = random.Random(25)
    for _ in range(60):
        shape = BlockShape(1, 1, EVEN_FIRST)
        x = random_supermatrix(g.table, rng, parity=rng.randint(0, 1), shape=shape)
        y = random_supermatrix(g.table, rng, parity=rng.randint(0, 1), shape=shape)
        assert x.supertranspose().supertrace() == x.supertrace()
        sign = -1 if x.parity and y.parity else 1
        assert ((x @ y).supertrace() - sign * (y @ x).supertrace()).is_zero


def test_supertrace_conjugation_invariance(g):
    """Str(H X H^-1) = Str(X) with H the group element, H^-1 its adjoint."""
    rng = random.Random(26)
    s = group_element()
    s_dag = s.dagger()
    for parity in (0, 1):
        x = random_supermatrix(g.table, rng, parity=parity, shape=BlockShape(1, 2, EVEN_FIRST))
        conj = (s @ x @ s_dag).supertrace()
        assert g.rewrites.reduce(conj - x.supertrace()).is_zero


def test_mixed_parity_rejected(g):
    sh = BlockShape(1, 1, EVEN_FIRST)
    x = SuperMatrix(sh, [[g.table.one(), g.eta], [g.eta, g.table.one()]], parity=None)
    for op in (lambda: x.supertranspose(), lambda: x.supertrace(), lambda: x.dagger()):
        with pytest.raises(ParityError):
            op()


def test_sdet_examples(g):
    sh = BlockShape(1, 2, EVEN_FIRST)
    ident = SuperMatrix.identity(sh, g.table)
    assert sdet(ident, g.rewrites) == g.table.one()
    block = SuperMatrix.from_rational(sh, g.table,
                                      [[2, 0, 0], [0, 3, 0], [0, 0, 1]], 0)
    assert sdet(block, g.rewrites) == g.table.scalar(Fraction(2, 3))
    assert sdet(group_element(), g.rewrites) == g.table.one()


def test_sdet_not_invertible(g):
    sh = BlockShape(1, 1, EVEN_FIRST)
    x = SuperMatrix(sh, [[g.table.one(), g.table.zero()],
                         [g.table.zero(), g.a * g.ad]], parity=0)
    with pytest.raises(InvertibilityError):
        sdet(x, g.rewrites)


def test_sdet_laws_random(g):
    rng = random.Random(27)
    for _ in range(50):
        x = random_supermatrix(g.table, rng, parity=0, invertible=True)
        y = random_supermatrix(g.table, rng, parity=0, invertible=True)
        sx, sy = sdet(x, g.rewrites), sdet(y, g.rewrites)
        assert g.rewrites.reduce(sdet(x @ y, g.rewrites) - sx * sy).is_zero
        assert g.rewrites.reduce(sdet(x.supertranspose(), g.rewrites) - sx).is_zero


_SDET_SHAPES = [BlockShape(1, 1), BlockShape(2, 1), BlockShape(1, 2), BlockShape(2, 2),
                BlockShape(2, 1, ODD_FIRST), BlockShape(1, 2, ODD_FIRST)]


def _invertible_even_matrix(table, rng, shape):
    """An even matrix with both diagonal blocks invertible: within a block the
    bodies are constant and upper triangular with a nonzero diagonal, so the
    adjugate route of a block larger than 1 x 1 is met too."""
    x = random_supermatrix(table, rng, parity=0, shape=shape)
    for i in range(shape.dim):
        for j in range(shape.dim):
            if shape.type_parity(i) == shape.type_parity(j):
                body = rng.choice([1, 2, 3, -1, -2]) if i == j else rng.randint(-2, 2) * (i < j)
                x.entries[i][j] = table.scalar(body) + x.entries[i][j].soul()
    return x


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(_SDET_SHAPES), st.integers(0, 2 ** 32 - 1))
def test_sdet_matches_the_three_inverse_oracle(shape, seed):
    g = group_space()
    rng = random.Random(seed)
    x, y = (_invertible_even_matrix(g.table, rng, shape) for _ in range(2))
    sx = sdet(x, g.rewrites)
    assert sx == sdet_by_three_inverses(x, g.rewrites)
    assert sdet(x @ y, g.rewrites) == g.rewrites.reduce(sx * sdet(y, g.rewrites))


def test_sdet_makes_one_inverse(g, monkeypatch):
    calls = []

    def counted(u, rewrites=None):
        calls.append(u)
        return graded_inverse(u, rewrites)
    monkeypatch.setattr(matrices, "graded_inverse", counted)
    rng = random.Random(28)
    for shape in _SDET_SHAPES:
        x = _invertible_even_matrix(g.table, rng, shape)
        calls.clear()
        assert sdet(x, g.rewrites) == sdet_by_three_inverses(x, g.rewrites)
        assert len(calls) == 1


@pytest.mark.parametrize("shape, rows, block", [
    (BlockShape(2, 0), [[1, 2], [2, 4]], "even"),
    (BlockShape(2, 0), [["a", 0], [0, 1]], "even"),
    (BlockShape(1, 1), [[0, 0], [0, 1]], "even"),
    (BlockShape(1, 1), [[1, 0], [0, 0]], "odd"),
    (BlockShape(1, 1), [["a", 0], [0, 1]], "even"),
    (BlockShape(2, 1), [[1, 2, 0], [2, 4, 0], [0, 0, 1]], "even"),
    (BlockShape(2, 1), [[1, 0, 0], [0, 1, 0], [0, 0, "b"]], "odd"),
])
def test_sdet_names_the_block_that_is_not_invertible(g, shape, rows, block):
    """One rule for every shape: both blocks invertible, whatever their sizes."""
    x = SuperMatrix(shape, [[g.table.gen(v) if isinstance(v, str) else g.table.scalar(v)
                             for v in row] for row in rows], 0)
    with pytest.raises(InvertibilityError, match="^%s-type block is not invertible: body of "
                       % block):
        sdet(x, g.rewrites)


def test_sdet_of_an_invertible_even_only_matrix(g):
    x = SuperMatrix.from_rational(BlockShape(2, 0), g.table, [[2, 1], [0, 3]])
    assert sdet(x, g.rewrites) == g.table.scalar(6)
    ad = SuperMatrix(BlockShape(0, 2), [[g.table.scalar(2), g.a], [g.table.zero(),
                                                                   g.table.scalar(4)]], 0)
    assert sdet(ad, g.rewrites) == g.table.scalar(rat(1, 8))


@pytest.mark.parametrize("other", [3, Fraction(1, 2), Scalar.one(), "matrix"])
def test_matrix_operators_refuse_an_operand_that_is_not_a_matrix(g, other):
    x = SuperMatrix.identity(BlockShape(1, 1), g.table)
    for op in (lambda: x + other, lambda: x - other, lambda: x @ other,
               lambda: other + x, lambda: other - x, lambda: other @ x):
        with pytest.raises(TypeError):
            op()


def test_exp_nilpotent_identity(g, fixtures):
    zero = fixtures["R+"].scale(g.table.zero())
    result = exp_nilpotent(zero, g.table)
    assert result == SuperMatrix.identity(zero.shape, g.table)
    with pytest.raises(InvertibilityError):
        exp_nilpotent(SuperMatrix.identity(zero.shape, g.table), g.table)
