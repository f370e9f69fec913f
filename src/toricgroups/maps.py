"""The homomorphisms connecting the group families.

- ``build_phi``: the quotient of a toric reflection group by its center,
  landing in the alternating subgroup of the triangle Coxeter group: the
  embedding followed by ``parent_to_coxeter`` (x_i maps to b^(1-i) a b^(i-1)
  with a = r1 r2, b = r3 r2).
- ``build_psi``: the section of phi on the two-generator presentation of
  the alternating subgroup (a maps to x_1, b to the ell-th power of the
  m-factor product, where ell inverts m mod n).
- ``build_embedding``: the toric group as the normal closure of s in its
  parent J-group, by ``meridian_embedding`` (x_i maps to t^(i-1) s t^(1-i)).
- ``central_element``: the full twist (x_1...x_n)^m, central by an
  explicit machine-checkable rewriting chain.

A homomorphism is a source presentation and a generator map.  A model of a
presentation sends its words to exact values whose equality is the target
group's: ``table.nf`` or ``CayleyTable.eval`` after a map, ``reps.rho_eval``
on the parent J-group, ``garside.gnf`` after ``garside.tau``.  ``check_hom``
returns the first relator whose value is not the empty word's, or None: a
map h is checked as ``check_hom(h.source, lambda w: table.nf(h.apply(w)))``.
``h.apply`` alone is a model of the free group, so it rejects phi at x1^k.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import label_modulus
from .presentations import (STU, TRIANGLE, FamilyParams, Presentation, alt_plus, chain_implies_shift,
                            cyclic_product, delta_power_to_twist, j_parent, meridians, toric, torus_classical)
from .words import Alphabet, Derivation, GenMap, Value, Word, apply_map, compose, free_reduce, moved, undone


class Hom(Value):
    __slots__ = ("source", "genmap")

    def apply(self, w: Word) -> Word:
        return apply_map(self.genmap, w)


def check_hom(p: Presentation, model) -> Word | None:
    """The first relator of ``p`` whose value under ``model`` differs from the
    empty word's, or None.  A model sends words over ``p``'s alphabet,
    multiplicatively, to exact values whose equality is the target group's;
    None then says that it factors through ``p``'s group."""
    one = model(Word(p.alphabet, ()))
    return next((r for r in p.relators if model(r) != one), None)


# s -> a, t -> b^-1, u -> r3 r1 for every label triple; b^-1 is r2 r3 in W, spelled
# r2^-1 r3^-1 so that phi after the embedding reads x_i -> b^(1-i) a b^(i-1) as written
_PARENT_IMAGES = GenMap(STU, TRIANGLE, tuple(map(TRIANGLE.word, ("r1 r2", "r2^-1 r3^-1", "r3 r1"))))


@lru_cache(maxsize=None, typed=True)  # an int label and an equal float are different keys
def build_phi(k: int, n: int, m: int) -> Hom:
    """Toric group onto the alternating subgroup of the triangle group,
    built once per process: a ``Hom`` is an immutable value, so every
    caller may share it.  Labels that raise (a ``ParameterError``, or
    ``cyclo.MAX_DEGREE`` in ``label_modulus``) cache nothing."""
    FamilyParams("toric", (k, n, m))  # the labels' own errors come before the degree cap
    label_modulus(k, n, m)
    embedding = build_embedding(k, n, m)
    return Hom(embedding.source, compose(_PARENT_IMAGES, embedding.genmap))


def build_psi(k: int, n: int, m: int) -> Hom:
    """Section of phi: two-generator alternating presentation into the toric
    group, b -> delta^ell for the m-factor product delta and ell = m^-1 mod n."""
    source = alt_plus(k, n, m)
    tor = toric(k, n, m)
    delta = Word(tor.alphabet, cyclic_product(n, 0, m))
    images = (tor.alphabet.word("x1"), free_reduce(delta ** pow(m, -1, n)))
    return Hom(source, GenMap(source.alphabet, tor.alphabet, images))


def meridian_embedding(ab: Alphabet) -> GenMap:
    """x_i = t^(i-1) s t^(1-i): the meridians ``ab`` = x1 ... xn as words
    over the generators s, t, u of a parent J-group."""
    return GenMap(ab, STU, tuple(Word(STU, (2,) * i + (1,) + (-2,) * i) for i in range(len(ab))))


def build_embedding(k: int, n: int, m: int) -> Hom:
    """The toric group inside its parent J-group, by ``meridian_embedding``."""
    source = toric(k, n, m)
    return Hom(source, meridian_embedding(source.alphabet))


def parent_to_coxeter(k: int, n: int, m: int) -> Hom:
    """s -> r1 r2, t -> r2^-1 r3^-1, u -> r3 r1 on the parent J-group."""
    return Hom(j_parent(k, n, m), _PARENT_IMAGES)


def central_element(k: int, n: int, m: int) -> Word:
    """The full twist c = (x_1 ... x_n)^m in the toric alphabet."""
    FamilyParams("toric", (k, n, m))
    return Word(meridians(n), cyclic_product(n, 0, n * m))


def centrality_witness(k: int, n: int, m: int, i: int) -> Derivation:
    """Explicit rewriting chain x_i c -> c x_i, citing only the chain relators.

    Check with ``check_derivation(w, torus_classical(n, m).relators)``.  The chain
    first rewrites c as the n-th power of the m-factor product delta, then
    pushes x_i through one delta at a time (each pass shifts the index by
    m mod n; after n passes the index returns to i), and finally restores c.
    No command calls it yet; it stays as the paper's certificate that c is
    central, which the acceptance tests check, and which a decided central
    word on an infinite row would cite.
    """
    ab = torus_classical(n, m).alphabet  # checks n and m
    if not 1 <= i <= n:
        raise ValueError("generator index out of range")
    start = Word(ab, (i, *cyclic_product(n, 0, n * m)))
    to_twist = delta_power_to_twist(ab, m).steps
    steps = list(undone(to_twist, 1))  # c -> delta^n, after the leading x_i
    cur = i
    for block in range(n):
        steps += moved(chain_implies_shift(ab, m, cur).steps, block * m)
        cur = (cur + m - 1) % n + 1
    # cur is now i + n m reduced mod n, which is i again
    steps += to_twist
    return Derivation(start, tuple(steps))
