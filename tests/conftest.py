"""Shared cached constructors so expensive tables are built once per run."""

from __future__ import annotations

from functools import cache

import pytest
from hypothesis import settings

from toricgroups import presentations as pres

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")
from toricgroups.cosets import CayleyTable, normal_closure_table, todd_coxeter
from toricgroups.coxeter import CoxeterMatrix, MinimalRootTable
from toricgroups.words import GenMap, Word, free_reduce

FINITE_ROWS = [
    (2, 3, 4),
    (2, 3, 5),
    (3, 2, 3),
    (4, 2, 3),
    (5, 2, 3),
    (3, 2, 5),
    (2, 2, 3),
    (2, 2, 5),
    (2, 2, 7),
    (2, 2, 9),
]

# the spherical triangles whose Cayley tables the center and class tests read
FINITE_TRIANGLES = [(2, 2, m) for m in range(2, 8)] + [(2, 3, 3), (2, 3, 4), (2, 3, 5)]

# orders frozen from the first verified run of the brute-force closure oracle
FROZEN_TORIC_ORDERS = {
    (2, 3, 4): 48,
    (2, 3, 5): 240,
    (3, 2, 3): 24,
    (4, 2, 3): 96,
    (5, 2, 3): 600,
    (3, 2, 5): 360,
    (2, 2, 3): 6,
    (2, 2, 5): 10,
    (2, 2, 7): 14,
    (2, 2, 9): 18,
}


def image_of(f: GenMap, name: str) -> Word:
    """The image under ``f`` of the source generator called ``name``."""
    return f.images[f.source.index(name)]


def schreier_word(table, labels, g) -> Word:
    """The ambient word of the Schreier generator ``g`` over the u^i t^j
    transversal of ``table`` with the (i, j) ``labels``: rep(c) x
    rep(c.x)^-1, freely reduced."""
    ab = table.alphabet

    def rep(c: int) -> Word:
        i, j = labels[c]
        return ab.word("u") ** i * ab.word("t") ** j

    x = ab.word(g.gen_name)
    return free_reduce(rep(g.coset) * x * rep(table.trace(g.coset, x)) ** -1)


@cache
def toric_cayley(k: int, n: int, m: int) -> CayleyTable:
    return CayleyTable(todd_coxeter(pres.toric(k, n, m)))


@cache
def parent_cayley(a: int, b: int, c: int) -> CayleyTable:
    return CayleyTable(todd_coxeter(pres.j_parent(a, b, c)))


@cache
def triangle_cayley(k: int, n: int, m: int) -> CayleyTable:
    return CayleyTable(todd_coxeter(pres.coxeter_triangle(k, n, m)))


@cache
def root_table(k: int, n: int, m: int):
    return MinimalRootTable(CoxeterMatrix.triangle(k, n, m))


@cache
def closure_table(a: int, b: int, c: int):
    parent = pres.j_parent(a, b, c)
    return normal_closure_table(parent, [parent.alphabet.word("s")])


@pytest.fixture(scope="session")
def finite_rows():
    return list(FINITE_ROWS)
