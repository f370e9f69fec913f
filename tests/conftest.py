"""Shared cached constructors so expensive tables are built once per run,
and the test-only helpers: the reader of ``presentations.serialize``'s text
and the identity ``GenMap``."""

from __future__ import annotations

from functools import cache

import pytest
from hypothesis import settings

from toricgroups import presentations as pres

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")
from toricgroups.cosets import CayleyTable, normal_closure_table, todd_coxeter
from toricgroups.coxeter import CoxeterMatrix, MinimalRootTable
from toricgroups.presentations import Presentation, _chain
from toricgroups.words import (Alphabet, GenMap, Word, WordSyntaxError, _column, bad_name, free_reduce,
                               parse_word)

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


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def parse_presentation(text: str) -> Presentation:
    alphabet: Alphabet | None = None
    relators: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise ParseError("expected 'gens:' or 'rel:' line", lineno)
        # where the text after the colon starts in the raw line, 0-based
        offset = len(raw) - len(raw.lstrip()) + line.index(":") + 1
        if key == "gens":
            if alphabet is not None:
                raise ParseError("duplicate gens line", lineno)
            names = rest.split()
            if not names:
                raise ParseError("empty generator list", lineno, column=offset + 1)  # just past the colon
            bad = bad_name(names)
            if bad is not None:
                raise ParseError(bad[1], lineno, column=offset + _column(raw[offset:], names, bad[0]))
            alphabet = Alphabet(names)
        elif key == "rel":
            if alphabet is None:
                raise ParseError("rel line before gens line", lineno)
            sides = rest.split("=")
            words = []
            for k, side in enumerate(sides):
                if not side.split():
                    # just past the colon, or the '=' that borders it: the one
                    # before, or after the first side
                    column = offset + 1 if len(sides) == 1 else offset if k else offset + len(side) + 1
                    raise ParseError("empty word in relation", lineno, column=column)
                try:
                    words.append(parse_word(alphabet, side))
                except WordSyntaxError as e:
                    raise ParseError(str(e), lineno, column=offset + (e.column or 1)) from None
                offset += len(side) + 1
            relators.extend(_chain(words) if len(words) > 1 else [free_reduce(words[0])])
        else:
            raise ParseError(f"unknown key {key!r}", lineno)
    if alphabet is None:
        raise ParseError("missing gens line", max(1, len(text.splitlines())))
    return Presentation(alphabet, tuple(relators))


def identity_map(alphabet: Alphabet) -> GenMap:
    return GenMap(alphabet, alphabet, tuple(Word(alphabet, (i + 1,)) for i in range(len(alphabet))))


def image_of(f: GenMap, name: str) -> Word:
    """The image under ``f`` of the source generator called ``name``."""
    return f.images[f.source.index(name)]


def through(h, value):
    """The model ``value(h.apply(w))`` of the source of the map ``h``, for
    ``maps.check_hom(h.source, ...)``."""
    return lambda w: value(h.apply(w))


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
