"""Supermatrices over the graded algebra.

A square supermatrix carries a BlockShape assigning each index a type parity
(even or odd basis direction) plus an explicit storage order saying which
block is listed first.  Entries may be Elements or SuperForms; all Koszul
signs live in the entry arithmetic, so the matrix product is the plain
row-column product.

Sign conventions, fixed by reproducing the explicit group-element adjoint and
the charge +-1 projector pair simultaneously:

* supertranspose uses the block formula with "A" the first-stored block, i.e.
  signs are computed from storage parities;
* supertrace weighs diagonal entries by type parity, with the even-type block
  entering positively: Str X = tr(even block) - (-1)^|X| tr(odd block).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import (ODD, AlgebraMismatchError, Element, GeneratorTable, InvertibilityError,
                      ParityError, RewriteSystem, graded_inverse, unit_body)
from .forms import SuperForm, form_of, form_terms, sum_entries, wedge_into
from .scalars import Scalar

EVEN_FIRST = "even_first"
ODD_FIRST = "odd_first"


class ShapeError(Exception):
    pass


class BlockShape:
    """m even-type and n odd-type directions; block_order is never inferred."""

    __slots__ = ("m", "n", "block_order")

    def __init__(self, m: int, n: int, block_order: str = EVEN_FIRST):
        if any(type(k) is not int or k < 0 for k in (m, n)):
            raise ShapeError("block sizes must be nonnegative ints, got %r and %r" % (m, n))
        if block_order not in (EVEN_FIRST, ODD_FIRST):
            raise ShapeError("block_order must be even_first or odd_first")
        self.m = m
        self.n = n
        self.block_order = block_order

    @property
    def dim(self) -> int:
        return self.m + self.n

    @property
    def first_block(self) -> int:
        return self.m if self.block_order == EVEN_FIRST else self.n

    def type_parity(self, i: int) -> int:
        """0 for even-type index, 1 for odd-type."""
        in_first = i < self.first_block
        first_is_even = self.block_order == EVEN_FIRST
        return 0 if in_first == first_is_even else 1

    def storage_parity(self, i: int) -> int:
        """0 inside the first-stored block, 1 inside the second."""
        return 0 if i < self.first_block else 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, BlockShape) and self.m == other.m
                and self.n == other.n and self.block_order == other.block_order)

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.block_order))

    def __repr__(self) -> str:
        return "BlockShape(m=%d, n=%d, %s)" % (self.m, self.n, self.block_order)

    def to_obj(self) -> dict:
        return {"even": self.m, "odd": self.n, "order": self.block_order}

    @staticmethod
    def from_obj(obj: dict) -> "BlockShape":
        return BlockShape(obj["even"], obj["odd"], obj.get("order", EVEN_FIRST))


class SuperMatrix:
    """Dense square matrix of graded entries with a declared parity."""

    __slots__ = ("shape", "entries", "parity")

    def __init__(self, shape: BlockShape, entries: Sequence[Sequence], parity: int | None):
        d = shape.dim
        if len(entries) != d or any(len(row) != d for row in entries):
            raise ShapeError("entries must form a %dx%d array" % (d, d))
        if parity is not None and (type(parity) is not int or parity not in (0, 1)):
            raise ParityError("parity must be None, 0 or 1, got %r" % (parity,))
        self.shape = shape
        self.entries = [list(row) for row in entries]
        self.parity = parity

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def identity(shape: BlockShape, algebra: GeneratorTable) -> "SuperMatrix":
        d = shape.dim
        rows = [[algebra.one() if i == j else algebra.zero() for j in range(d)]
                for i in range(d)]
        return SuperMatrix(shape, rows, parity=0)

    @staticmethod
    def from_rational(shape: BlockShape, algebra: GeneratorTable,
                      rows: Sequence[Sequence[Scalar | int | Fraction]],
                      parity: int | None = 0) -> "SuperMatrix":
        return SuperMatrix(shape, [[algebra.scalar(v) for v in row] for row in rows], parity)

    def _require_parity(self) -> int:
        if self.parity is None:
            raise ParityError("operation requires a homogeneous declared parity")
        return self.parity

    def validate_parity(self) -> bool:
        """Check that every entry matches the declared parity pattern.

        Element entries are checked by their parity, SuperForm entries by
        their Grassmann parity; zero entries fit either parity.
        """
        p = self._require_parity()
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                if entry.is_zero:
                    continue
                want = (self.shape.type_parity(i) + self.shape.type_parity(j) + p) % 2
                if isinstance(entry, Element):
                    got = {"even": 0, "odd": 1}.get(entry.parity())
                else:
                    try:
                        got = entry.grassmann_parity()
                    except ParityError:
                        return False
                if got != want:
                    return False
        return True

    # -- ring operations -------------------------------------------------------

    def _check_shape(self, other: "SuperMatrix") -> None:
        if self.shape != other.shape:
            raise ShapeError("shape mismatch: %r vs %r" % (self.shape, other.shape))

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other, op: Callable) -> "SuperMatrix":
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_shape(other)
        parity = self.parity if self.parity == other.parity else None
        rows = [[op(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)]
        return SuperMatrix(self.shape, rows, parity)

    def __neg__(self) -> "SuperMatrix":
        return SuperMatrix(self.shape, [[-e for e in row] for row in self.entries], self.parity)

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        """Row-column product, each entry summed in one pass.

        Every product x_ik y_kj of an entry is added into one dict through
        the signed monomial product, and each right entry is factored once
        for all rows.  An entry is a form when its row of self or its column
        of other holds a form, and an Element otherwise.  Raises
        AlgebraMismatchError when an entry lives over another table.
        """
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_shape(other)
        d = range(self.shape.dim)
        x, y = self.entries, other.entries
        table = x[0][0].algebra if x else None
        if any(e.algebra is not table and e.algebra != table for row in x + y for e in row):
            raise AlgebraMismatchError("entries live over different generator tables")
        form_rows = [any(isinstance(e, SuperForm) for e in row) for row in x]
        form_cols = [any(isinstance(y[k][j], SuperForm) for k in d) for j in d]
        # each Element entry of other factored once for the Element entries of
        # the product; for the form entries, wedge_into fills one cache per
        # entry of other as it meets each parity of a left wedge
        factors = [[table._factor(e.terms.items()) if isinstance(e, Element) else None
                    for e in row] for row in y]
        form_factors = [[{} for _ in d] for _ in d]
        rows = []
        for i in d:
            row = []
            for j in d:
                if form_rows[i] or form_cols[j]:
                    out: dict = {}
                    for k in d:
                        wedge_into(out, table, form_terms(x[i][k]), form_terms(y[k][j]),
                                   form_factors[k][j])
                    row.append(form_of(table, out))
                else:
                    acc: dict = {}
                    for k in d:
                        table._multiply_into(acc, x[i][k].terms.items(), factors[k][j])
                    row.append(Element(table, acc))
            rows.append(row)
        parity = None
        if self.parity is not None and other.parity is not None:
            parity = (self.parity + other.parity) % 2
        return SuperMatrix(self.shape, rows, parity)

    def scale(self, factor) -> "SuperMatrix":
        """Left multiplication by a scalar or Element factor."""
        if not isinstance(factor, Element):
            # a scalar commutes with every entry, so each entry takes it on the right
            return SuperMatrix(self.shape, [[e * factor for e in row] for row in self.entries],
                               self.parity)
        parity = self.parity
        if parity is not None:
            fp = factor.parity()
            if fp == "mixed":
                parity = None
            elif fp == "odd":
                parity = (parity + 1) % 2
        return SuperMatrix(self.shape, [[factor * e for e in row] for row in self.entries],
                           parity)

    def map_entries(self, fn: Callable) -> "SuperMatrix":
        return SuperMatrix(self.shape, [[fn(e) for e in row] for row in self.entries],
                           self.parity)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and all(a == b for r1, r2 in zip(self.entries, other.entries)
                        for a, b in zip(r1, r2)))

    def __repr__(self) -> str:
        body = "\n".join("  [" + ", ".join(repr(e) for e in row) + "]"
                         for row in self.entries)
        return "SuperMatrix(%r, parity=%r,\n%s\n)" % (self.shape, self.parity, body)

    # -- graded operations -------------------------------------------------------

    def supertranspose(self) -> "SuperMatrix":
        """Block transpose with signs taken from storage parities.

        With tau the storage parity: (X^st)_ij = (-1)^((tau_i+|X|)(tau_i+tau_j)) X_ji.
        """
        return self._signed_transpose(lambda e, sign: e if sign > 0 else -e, adjoint=False)

    def _signed_transpose(self, entry: Callable, adjoint: bool) -> "SuperMatrix":
        """The matrix with (i, j) entry entry(X_ji, sign), sign the one entry
        (i, j) of X^st, or of X^dagger when adjoint, takes from X_ji."""
        p = self._require_parity()
        d, sign = self.shape.dim, _transpose_sign(self.shape, p, adjoint)
        rows = [[entry(self.entries[j][i], sign(i, j)) for j in range(d)] for i in range(d)]
        return SuperMatrix(self.shape, rows, p)

    def supertrace(self):
        """Str X = tr(even-type block) - (-1)^|X| tr(odd-type block)."""
        p = self._require_parity()
        return sum_entries([-self.entries[i][i] if self.shape.type_parity(i) == 1 and p == 0
                            else self.entries[i][i] for i in range(self.shape.dim)])

    def dagger(self) -> "SuperMatrix":
        """Graded adjoint: entrywise diamond, supertranspose, (-1)^|X|.

        On even matrices this is plain diamond + supertranspose.  The parity
        sign makes the adjoint a graded anti-homomorphism,
        (XY)^dagger = (-1)^(|X||Y|) Y^dagger X^dagger, and reproduces the
        declared adjoints of the odd algebra generators.
        """
        # each entry conjugated and signed in one pass, one walk per monomial
        images: dict = {}
        return self._signed_transpose(lambda e, sign: e._diamond(sign, images), adjoint=True)

    @staticmethod
    def self_adjoint(shape: BlockShape, upper: Callable) -> "SuperMatrix":
        """The even matrix X = X^dagger whose entry (i, j), i <= j, is upper(i, j);
        each entry below the diagonal is mirrored with dagger's sign, each
        distinct monomial walked to its diamond image once."""
        dim, sign = shape.dim, _transpose_sign(shape, 0, adjoint=True)
        rows: list[list] = [[None] * dim for _ in range(dim)]
        images: dict = {}
        for i in range(dim):
            for j in range(i, dim):
                entry = rows[i][j] = upper(i, j)
                if j > i:
                    rows[j][i] = entry._diamond(sign(j, i), images)
        return SuperMatrix(shape, rows, parity=0)

    def reduce(self, rewrites: RewriteSystem) -> "SuperMatrix":
        return self.map_entries(rewrites.reduce)

    def substitute(self, images, target: GeneratorTable | None = None) -> "SuperMatrix":
        return self.map_entries(lambda e: e.substitute(images, target))

    # -- serialization -------------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "shape": self.shape.to_obj(),
            "parity": self.parity,
            "entries": [[e.to_obj() for e in row] for row in self.entries],
        }

    @staticmethod
    def from_obj(algebra: GeneratorTable, obj: dict) -> "SuperMatrix":
        shape = BlockShape.from_obj(obj["shape"])
        rows = [[Element.from_obj(algebra, cell) for cell in row] for row in obj["entries"]]
        return SuperMatrix(shape, rows, obj.get("parity"))


def _transpose_sign(shape: BlockShape, parity: int,
                    adjoint: bool) -> Callable[[int, int], int]:
    """(i, j) -> the sign entry (i, j) of X^st takes from X_ji, X of that parity:
    (-1)^((tau_i + parity)(tau_i + tau_j)) with tau the storage parity, times
    (-1)^parity for X^dagger when adjoint."""
    tau = [shape.storage_parity(i) for i in range(shape.dim)]
    extra = parity if adjoint else 0
    return lambda i, j: -1 if ((tau[i] + parity) * (tau[i] + tau[j]) + extra) % 2 else 1


def graded_bracket(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """[X, Y] = XY - (-1)^(|X||Y|) YX on homogeneous matrices."""
    px = x._require_parity()
    py = y._require_parity()
    yx = y @ x
    if px * py % 2:
        return x @ y + yx
    return x @ y - yx


def _blocks(x: SuperMatrix) -> tuple[list[int], list[int]]:
    even_idx = [i for i in range(x.shape.dim) if x.shape.type_parity(i) == 0]
    odd_idx = [i for i in range(x.shape.dim) if x.shape.type_parity(i) == 1]
    return even_idx, odd_idx


def _det(entries: list[list[Element]], algebra: GeneratorTable) -> Element:
    """Cofactor determinant over the commutative even subring."""
    d = len(entries)
    if d == 0:
        return algebra.one()
    if d == 1:
        return entries[0][0]
    terms = []
    for j in range(d):
        term = entries[0][j] * _det([row[:j] + row[j + 1:] for row in entries[1:]], algebra)
        terms.append(-term if j % 2 else term)
    return Element.sum(algebra, terms)


def _matrix_inverse_even(entries: list[list[Element]], algebra: GeneratorTable,
                         rewrites: RewriteSystem) -> tuple[list[list[Element]], Element]:
    """(inverse, det^-1): adjugate over determinant; entries must be even elements."""
    d = len(entries)
    det_inv = graded_inverse(_det(entries, algebra), rewrites)
    if d == 1:
        return [[det_inv]], det_inv
    inv = [[algebra.zero()] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [[entries[r][c] for c in range(d) if c != j] for r in range(d) if r != i]
            cof = _det(minor, algebra)
            inv[j][i] = rewrites.reduce((-cof if (i + j) % 2 else cof) * det_inv)
    return inv, det_inv


def sdet(x: SuperMatrix, rewrites: RewriteSystem) -> Element:
    """Superdeterminant det(A - B D^-1 C) det(D)^-1 of an even matrix, from
    one inverse: the det(D)^-1 that D^-1 is built from.

    A is the even-type block and D the odd-type block; for every shape both
    must be invertible over the even subring modulo the rewrite system.
    """
    if x._require_parity() != 0:
        raise ParityError("superdeterminant is defined for even matrices")
    algebra = rewrites.algebra
    even_idx, odd_idx = _blocks(x)
    A = [[x.entries[i][j] for j in even_idx] for i in even_idx]
    B = [[x.entries[i][j] for j in odd_idx] for i in even_idx]
    C = [[x.entries[i][j] for j in even_idx] for i in odd_idx]
    D = [[x.entries[i][j] for j in odd_idx] for i in odd_idx]
    try:
        D_inv, det_D_inv = _matrix_inverse_even(D, algebra, rewrites)
    except InvertibilityError as ex:
        raise InvertibilityError("odd-type block is not invertible: %s" % ex) from None
    m, n = len(even_idx), len(odd_idx)
    # A - B D^-1 C, each entry one sum
    schur = [[rewrites.reduce(Element.sum(algebra, [A[i][j]] + [
        -(B[i][k] * D_inv[k][l] * C[l][j]) for k in range(n) for l in range(n)]))
        for j in range(m)] for i in range(m)]
    det_schur = rewrites.reduce(_det(schur, algebra))
    unit_body(det_schur, "even-type block is not invertible: ")
    return rewrites.reduce(det_schur * det_D_inv)


def exp_nilpotent(x: SuperMatrix, algebra: GeneratorTable) -> SuperMatrix:
    """Finite exponential series; requires x to be nilpotent entrywise.

    Every monomial of an entrywise nilpotent x carries an odd generator, so
    x^k vanishes once k exceeds the number of odd generators.
    """
    acc = SuperMatrix.identity(x.shape, algebra)
    power = SuperMatrix.identity(x.shape, algebra)
    fact = Fraction(1)
    for k in range(1, sum(1 for p in algebra.parities if p == ODD) + 2):
        power = power @ x
        fact = fact * k
        if all(e.is_zero for row in power.entries for e in row):
            return acc
        acc = acc + power.scale(Scalar.of(Fraction(1) / fact))
    raise InvertibilityError("matrix exponential series did not terminate")
