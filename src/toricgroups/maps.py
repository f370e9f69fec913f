"""The homomorphisms connecting the group families.

- ``build_phi``: the quotient of a toric reflection group by its center,
  landing in the alternating subgroup of the triangle Coxeter group
  (x_i maps to b^(1-i) a b^(i-1) with a = r1 r2, b = r3 r2).
- ``build_psi``: the section of phi on the two-generator presentation of
  the alternating subgroup (a maps to x_1, b to the ell-th power of the
  m-factor product, where ell inverts m mod n).
- ``build_embedding``: the toric group as the normal closure of s in its
  parent J-group, by ``meridian_embedding`` (x_i maps to t^(i-1) s t^(1-i)).
- ``central_element``: the full twist (x_1...x_n)^m, central by an
  explicit machine-checkable rewriting chain.

A homomorphism is a source presentation and a generator map.  It is
verified by ``check_hom(h, oracle)``, which maps every defining relator and
asks the target's word-problem oracle whether the image is trivial: a
``MinimalRootTable`` for Coxeter targets, a ``CayleyTable`` for finite
quotients.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import label_modulus
from .presentations import (STU, TRIANGLE, FamilyParams, Presentation, alt_plus, chain_implies_shift, cyclic_product,
                            delta_power_to_twist, j_parent, meridians, toric, torus_classical)
from .words import Derivation, GenMap, Value, Word, apply_map, moved, undone
from .words import compose as compose_maps
from .words import free_reduce


class Hom(Value):
    __slots__ = ("source", "genmap")

    def __init__(self, source: Presentation, genmap: GenMap):
        super().__init__(source, genmap)

    def apply(self, w: Word) -> Word:
        return apply_map(self.genmap, w)


class HomReport(Value):
    __slots__ = ("ok", "failing_relator", "failing_image")

    def __init__(self, ok: bool, failing_relator: Word | None = None, failing_image: Word | None = None):
        super().__init__(ok, failing_relator, failing_image)


def check_hom(h: Hom, oracle) -> HomReport:
    """A generator map extends to a homomorphism iff every relator dies in
    the target, whose word problem ``oracle.is_identity`` decides."""
    for r in h.source.relators:
        image = h.apply(r)
        if not oracle.is_identity(image):
            return HomReport(False, r, image)
    return HomReport(True)


def compose_homs(outer: Hom, inner: Hom) -> Hom:
    return Hom(inner.source, compose_maps(outer.genmap, inner.genmap))


@lru_cache(maxsize=None, typed=True)  # an int label and an equal float are different keys
def build_phi(k: int, n: int, m: int) -> Hom:
    """Toric group onto the alternating subgroup of the triangle group,
    built once per process: a ``Hom`` is an immutable value, so every
    caller may share it.  Labels that raise (a ``ParameterError``, or
    ``cyclo.MAX_DEGREE`` in ``label_modulus``) cache nothing."""
    FamilyParams("toric", (k, n, m))  # the labels' own errors come before the degree cap
    label_modulus(k, n, m)
    source = toric(k, n, m)
    a = TRIANGLE.word("r1 r2")
    b = TRIANGLE.word("r3 r2")
    images = {}
    for i in range(1, n + 1):
        images[f"x{i}"] = free_reduce(b ** (1 - i) * a * b ** (i - 1))
    return Hom(source, GenMap.from_dict(source.alphabet, TRIANGLE, images))


class PsiParams(Value):
    __slots__ = ("q", "r", "ell")

    def __init__(self, q: int, r: int, ell: int):
        super().__init__(q, r, ell)


def psi_params(n: int, m: int) -> PsiParams:
    """Euclidean data m = q n + r and the least ell with r ell = 1 mod n."""
    FamilyParams("torus-standard", (n, m))
    q, r = divmod(m, n)
    ell = next(e for e in range(1, n + 1) if (r * e) % n == 1 % n)
    return PsiParams(q, r, ell)


def build_psi(k: int, n: int, m: int) -> Hom:
    """Section of phi: two-generator alternating presentation into the toric group."""
    params = psi_params(n, m)
    source = alt_plus(k, n, m)
    tor = toric(k, n, m)
    delta = Word(tor.alphabet, cyclic_product(n, 0, m))
    images = {"a": tor.alphabet.word("x1"), "b": free_reduce(delta**params.ell)}
    return Hom(source, GenMap.from_dict(source.alphabet, tor.alphabet, images))


def meridian_embedding(n: int) -> GenMap:
    """x_i = t^(i-1) s t^(1-i): the meridians x1 ... xn as words over the
    generators s, t, u of a parent J-group."""
    return GenMap(meridians(n), STU, tuple(Word(STU, (2,) * i + (1,) + (-2,) * i) for i in range(n)))


def build_embedding(k: int, n: int, m: int) -> Hom:
    """The toric group inside its parent J-group, by ``meridian_embedding(n)``."""
    return Hom(toric(k, n, m), meridian_embedding(n))


def parent_to_coxeter(k: int, n: int, m: int) -> Hom:
    """s -> r1 r2, t -> r2 r3, u -> r3 r1 on the parent J-group."""
    source = j_parent(k, n, m)
    images = {
        "s": TRIANGLE.word("r1 r2"),
        "t": TRIANGLE.word("r2 r3"),
        "u": TRIANGLE.word("r3 r1"),
    }
    return Hom(source, GenMap.from_dict(source.alphabet, TRIANGLE, images))


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
