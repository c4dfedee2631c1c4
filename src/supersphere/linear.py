"""Exact linear solving over Gaussian-rational scalars."""

from __future__ import annotations

from .algebra import ONE_MONO, Element
from .matrices import SuperMatrix
from .scalars import Scalar


def solve_exact(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar] | None:
    """Solve A x = b by fraction-free-ish Gaussian elimination.

    Returns one exact solution, or None when the system is inconsistent.
    Free variables, if any, are set to zero.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if not aug[i][c].is_zero), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c].inverse()
        aug[r] = [v * inv for v in aug[r]]
        # only the nonzero entries of the pivot row change another row
        support = [(col, v) for col, v in enumerate(aug[r]) if not v.is_zero]
        for i in range(m):
            if i != r and not aug[i][c].is_zero:
                f, row = aug[i][c], aug[i]
                for col, v in support:
                    row[col] = row[col] - f * v
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    # every row below the rank is zero in every column, so these decide consistency
    for i in range(r, m):
        if not aug[i][n].is_zero:
            return None
    x = [Scalar.zero()] * n
    for k, c in enumerate(pivot_cols):
        x[c] = aug[k][n]
    return x


def expand_in_basis(target: SuperMatrix, basis: list[SuperMatrix]) -> list[Scalar] | None:
    """Exact coefficients expressing a constant matrix over a matrix basis.

    Returns None when the target lies outside the span, which includes a
    target with an entry that is not a constant Element.  Raises ValueError
    when a basis entry is not constant.
    """
    cells = [(i, j) for i in range(target.shape.dim) for j in range(target.shape.dim)]
    rows = [[_constant(bmat.entries[i][j]) for bmat in basis] for i, j in cells]
    if any(v is None for row in rows for v in row):
        raise ValueError("a basis entry is not constant")
    rhs = [_constant(target.entries[i][j]) for i, j in cells]
    if any(v is None for v in rhs):
        return None
    return solve_exact(rows, rhs)


def _constant(e: Element) -> Scalar | None:
    """The scalar of a constant Element, or None when e is not one."""
    if e.terms.keys() <= {ONE_MONO}:
        return e.constant_term()
    return None
