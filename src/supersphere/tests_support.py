"""Seeded random object generators shared by the verify suites and tests."""

from __future__ import annotations

import random

from .algebra import Element, GeneratorTable, ODD
from .matrices import BlockShape, EVEN_FIRST, SuperMatrix
from .scalars import Scalar


def random_element(table: GeneratorTable, rng: random.Random,
                   parity: int | None = None, max_terms: int = 3,
                   max_word: int = 3) -> Element:
    """Random element; with parity given, every term is forced homogeneous."""
    names = table.names
    odd_names = [nm for nm in names if table.parity_of_name(nm) == ODD]
    words = []
    for _ in range(rng.randint(1, max_terms)):
        word = [rng.choice(names) for _ in range(rng.randint(0, max_word))]
        if parity is not None and odd_names:
            while sum(table.parity_of_name(nm) for nm in word) % 2 != parity:
                word.append(rng.choice(odd_names))
        words.append((Scalar.of(rng.randint(-3, 3), rng.randint(-3, 3)), word))
    total = table.element(words)
    if parity is not None:
        total = total.even_part() if parity == 0 else total.odd_part()
    return total


def random_supermatrix(table: GeneratorTable, rng: random.Random, parity: int = 0,
                       shape: BlockShape | None = None,
                       invertible: bool = False) -> SuperMatrix:
    """Random homogeneous supermatrix over the given algebra.

    With invertible=True the diagonal blocks get nonzero rational bodies and
    soul corrections, so both blocks are invertible over the even subring.
    """
    shape = shape or BlockShape(1, 1, EVEN_FIRST)
    d = shape.dim
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            want = (shape.type_parity(i) + shape.type_parity(j) + parity) % 2
            entry = random_element(table, rng, parity=want, max_terms=2, max_word=2)
            if invertible and i == j:
                body = Scalar.of(rng.choice([1, 2, 3, -1, -2]))
                entry = table.scalar(body) + entry.soul()
            row.append(entry)
        rows.append(row)
    return SuperMatrix(shape, rows, parity)
