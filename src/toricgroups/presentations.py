"""Presentation families, their text form, and Tietze simplification.

Every group studied by this package is built here: torus knot groups in
their standard, classical and dual presentations, toric reflection groups
W(k,n,m), parent J-groups, rank-3 triangle Coxeter groups, and the
two-generator presentation of the alternating subgroup of a triangle group.

Relations written as chains u1 = u2 = ... = up are stored anchored at the
first word, as the p-1 relators u1*u2^-1, ..., u1*up^-1.  The chain lemmas
(``chain_step`` and the derivations built from it) live beside
``torus_classical``, whose relator j - 2 they cite.  ``serialize`` writes
the text form that ``present`` and ``derive`` print; its reader,
``parse_presentation``, serves only the tests and lives in
``tests/conftest.py``.
"""

from __future__ import annotations

import math
import sys
from itertools import chain

from .words import (Alphabet, Derivation, RewriteStep, Value, Word, _set, cyclic_reduce, free_reduce, invert, undone,
                    word_to_text)


class ParameterError(ValueError):
    """A family parameter outside its domain (label < 2, gcd violation)."""


class Presentation(Value):
    __slots__ = ("alphabet", "relators")

    def __init__(self, alphabet: Alphabet, relators: tuple[Word, ...]):
        _set(self, "alphabet", alphabet)
        _set(self, "relators", relators)
        for r in relators:
            if r.alphabet != alphabet:
                raise ValueError("relator over wrong alphabet")

    @property
    def gens(self) -> tuple[str, ...]:
        return self.alphabet.names


class FamilyParams(Value):
    __slots__ = ("family", "labels")

    def __init__(self, family: str, labels: tuple[int, ...]):
        _set(self, "family", family)
        _set(self, "labels", labels)
        if family not in FAMILIES:
            raise ParameterError(f"unknown family {family!r}")
        _, arity, coprime = FAMILIES[family]
        if len(labels) != arity:
            raise ParameterError(f"{family} takes {arity} labels, got {len(labels)}")
        for v in labels:
            if not isinstance(v, int) or v < 2:
                raise ParameterError(f"labels must be integers >= 2, got {v!r}")
        if coprime:
            n, m = labels[-2:]
            if math.gcd(n, m) != 1:
                raise ParameterError(f"gcd({n},{m}) != 1")


def build(params: FamilyParams) -> Presentation:
    """Construct the presentation for a validated parameter set, with the
    labels as given: a toric (k, n, m) has the n meridians x1 ... xn.
    W(k,n,m) and W(k,m,n) are isomorphic, but not letter for letter, so
    x1 ... xn name elements only of the presentation with n meridians."""
    return FAMILIES[params.family][0](*params.labels)


def present_record(params: FamilyParams) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``present``: the serialized presentation."""
    pres = build(params)
    return {"presentation": serialize(pres), "num_generators": len(pres.gens),
            "num_relators": len(pres.relators)}, "ok", []


# the generators of ``torus_standard``, of ``j_parent`` and of ``coxeter_triangle``
XY = Alphabet(["x", "y"])
STU = Alphabet(["s", "t", "u"])
TRIANGLE = Alphabet(["r1", "r2", "r3"])


def meridians(n: int) -> Alphabet:
    """The meridians x1 ... xn, the alphabet of ``torus_classical(n, m)`` and
    ``toric(k, n, m)``."""
    return Alphabet([f"x{i + 1}" for i in range(n)])


def torus_standard(n: int, m: int) -> Presentation:
    """The two-generator torus knot group presentation: x^n = y^m."""
    FamilyParams("torus-standard", (n, m))
    x, y = XY.word("x"), XY.word("y")
    return Presentation(XY, (free_reduce(x**n * invert(y**m)),))


def cyclic_product(n: int, start: int, length: int) -> tuple[int, ...]:
    """The letters of the product g_{start+1} g_{start+2} ... of ``length``
    generators, indices mod n."""
    return tuple((start + j) % n + 1 for j in range(length))


def cyclic_products(ab: Alphabet, n: int, length: int) -> list[Word]:
    """The n products g_i g_{i+1} ... of the given length, indices mod n."""
    return [Word(ab, cyclic_product(n, i, length)) for i in range(n)]


def _chain(words: list[Word]) -> list[Word]:
    """Relators u1*ui^-1 anchoring a chain equality at its first word."""
    head = words[0]
    return [free_reduce(head * invert(w)) for w in words[1:]]


def torus_classical(n: int, m: int) -> Presentation:
    """n meridian generators, the n-term chain of m-factor products: relator
    j - 2 says x_1...x_m = x_j...x_{j+m-1} (j = 2..n, indices mod n)."""
    FamilyParams("torus-classical", (n, m))
    ab = meridians(n)
    return Presentation(ab, tuple(_chain(cyclic_products(ab, n, m))))


def chain_step(ab: Alphabet, m: int, position: int, j: int) -> tuple[RewriteStep, ...]:
    """The step rewriting delta = x_1...x_m at ``position`` as the m-factor
    product x_j...x_{j+m-1} over the n meridians ``ab`` (indices mod n),
    citing relator j - 2 of ``torus_classical(n, m)``; no step for j = 1."""
    if j == 1:
        return ()
    n = len(ab)
    return (RewriteStep(position, Word(ab, cyclic_product(n, 0, m)), Word(ab, cyclic_product(n, j - 1, m)), j - 2),)


def chain_implies_shift(ab: Alphabet, m: int, i: int) -> Derivation:
    """Derivation of x_i * delta -> delta * x_{i+m} using chain relators only.

    delta = x_1...x_m over the n meridians ``ab``, indices mod n.  Two
    chain steps: rewrite delta as the product starting at x_{i+1},
    then rewrite the m-factor prefix starting at x_i back to delta.
    """
    n = len(ab)
    if not 1 <= i <= n:
        raise ValueError("generator index out of range")
    start = Word(ab, (i, *cyclic_product(n, 0, m)))
    return Derivation(start, chain_step(ab, m, 1, i % n + 1) + undone(chain_step(ab, m, 0, i), 0))


def delta_power_to_twist(ab: Alphabet, m: int) -> Derivation:
    """Derivation of delta^n -> (x_1...x_n)^m over the n meridians ``ab``
    (both equal to the full twist).

    Rewrites the t-th delta factor to start at x_{tm+1}; the result is the
    literal word x_1 x_2 ... x_{nm} with indices mod n, which is identical
    to (x_1...x_n)^m letter by letter.
    """
    n = len(ab)
    start = Word(ab, cyclic_product(n, 0, m) * n)
    return Derivation(start, tuple(chain.from_iterable(chain_step(ab, m, t * m, t * m % n + 1) for t in range(n))))


def torus_dual(n: int, m: int) -> Presentation:
    """m generators, chain of n-factor products (the dual presentation)."""
    FamilyParams("torus-dual", (n, m))
    ab = Alphabet([f"y{i + 1}" for i in range(m)])
    return Presentation(ab, tuple(_chain(cyclic_products(ab, m, n))))


def toric(k: int, n: int, m: int) -> Presentation:
    """The toric reflection group W(k,n,m): classical presentation plus x_i^k."""
    FamilyParams("toric", (k, n, m))
    ab = meridians(n)
    orders = [free_reduce(Word(ab, (i + 1,) * k)) for i in range(n)]
    return Presentation(ab, tuple(orders + _chain(cyclic_products(ab, n, m))))


def j_parent(a: int, b: int, c: int) -> Presentation:
    """The parent J-group <s,t,u | s^a = t^b = u^c = 1, stu = tus = ust>."""
    FamilyParams("j-parent", (a, b, c))
    s, t, u = (STU.word(nm) for nm in "stu")
    chain = _chain([s * t * u, t * u * s, u * s * t])
    return Presentation(STU, (s**a, t**b, u**c) + tuple(chain))


def coxeter_triangle(k: int, n: int, m: int) -> Presentation:
    """Rank-3 Coxeter group whose diagram is a triangle labelled k, n, m."""
    FamilyParams("coxeter-triangle", (k, n, m))
    r1, r2, r3 = (TRIANGLE.word(f"r{i}") for i in (1, 2, 3))
    rels = (r1**2, r2**2, r3**2, (r1 * r2) ** k, (r2 * r3) ** n, (r3 * r1) ** m)
    return Presentation(TRIANGLE, rels)


def alt_plus(k: int, n: int, m: int) -> Presentation:
    """Two-generator presentation of the alternating subgroup of a triangle group."""
    FamilyParams("alt-plus", (k, n, m))
    ab = Alphabet(["a", "b"])
    a, b = ab.word("a"), ab.word("b")
    return Presentation(ab, (a**k, b**n, (b * a.inverse()) ** m))


def alt_toric(k: int, n: int, m: int) -> Presentation:
    """The toric presentation with the full twist (x1...xn)^m killed; ``toric``
    checks the labels."""
    base = toric(k, n, m)
    twist = Word(base.alphabet, cyclic_product(n, 0, n * m))
    return Presentation(base.alphabet, base.relators + (twist,))


# family -> (builder, number of labels, whether the last two must be coprime)
FAMILIES = {
    "torus-standard": (torus_standard, 2, True),
    "torus-classical": (torus_classical, 2, True),
    "torus-dual": (torus_dual, 2, True),
    "toric": (toric, 3, True),
    "j-parent": (j_parent, 3, False),
    "coxeter-triangle": (coxeter_triangle, 3, False),
    "alt-plus": (alt_plus, 3, False),
    "alt-toric": (alt_toric, 3, True),
}


# --- text form --------------------------------------------------------------


def serialize(p: Presentation) -> str:
    """Bit-exact text form: gens line first, then relators in stored order."""
    lines = ["gens: " + " ".join(p.gens)]
    lines.extend("rel: " + word_to_text(r) for r in p.relators)
    return "\n".join(lines) + "\n"


# --- Tietze simplification --------------------------------------------------


# Relators in ``tietze_simplify`` are strings of code points up to this one.
_MAX_CODE_POINT = sys.maxunicode

# The default number of eliminations ``tietze_simplify`` may make.
TIETZE_BUDGET = 10**5


class TietzeBudgetExceeded(Exception):
    """Raised when the step budget runs out; carries the best presentation so far."""

    def __init__(self, best: Presentation):
        self.best = best
        super().__init__("tietze step budget exceeded")


def _cancel_outward(s: str, cut: str) -> str:
    """``s`` with every occurrence of ``cut`` deleted, each deletion
    cancelling the inverse pairs it brings together.  ``cut`` is an inverse
    pair, or one code point that no other letter of ``s`` inverts.  Each join
    of the pieces between cuts cancels back through the pieces already
    joined: deleting g from x g y g y^-1 x^-1 leaves nothing.
    """
    joined: list[str] = []  # nonempty pieces with no inverse pair where two meet
    for piece in s.split(cut):
        i, n = 0, len(piece)  # piece[:i] has cancelled
        while joined and i < n:
            last = joined[-1]
            j = len(last)  # last[j:] has cancelled
            while j and i < n and ord(last[j - 1]) ^ 1 == ord(piece[i]):
                j -= 1
                i += 1
            if j:
                joined[-1] = last[:j]
                break
            joined.pop()
        if i < n:
            joined.append(piece[i:])
    return "".join(joined)


def tietze_simplify(p: Presentation, budget: int = TIETZE_BUDGET) -> Presentation:
    """Shrink a presentation by generator elimination, deterministically.

    1. Each relator is cyclically reduced, in order; empty relators and
       later exact duplicates are dropped.
    2. A move eliminates the lowest-indexed surviving generator g that
       occurs exactly once (counting g and g^-1) in some relator; of those
       relators it takes the shortest, then the earliest.  If ``budget``
       moves have already been made, ``TietzeBudgetExceeded`` is raised
       instead, carrying the presentation reached so far.
    3. The move deletes that relator, rotated to g^e w, replaces g in every
       other relator by w^-1 (e = 1) or w (e = -1), and cancels outward from
       each seam (from each deleted g when w is empty).  The results are
       cyclically reduced in place; empty relators and later duplicates are
       dropped, so of two relators made equal the earlier one survives.
    4. Steps 2 and 3 repeat until no generator occurs exactly once in any
       relator.  Surviving generators keep their names and order.

    The budget counts eliminations.  Relators are keyed by a stable id whose
    order is the relator order, and each generator h keeps a set of ids
    that holds every relator containing h, and maybe some that no longer
    do (a move adds the ids it rewrote to the set of each generator of the
    substituted word, and removes nothing).  So a move touches only the
    relators in the set of g, and "exactly once" is tested only when a
    generator is chosen: the choice counts h in the live relators of its
    set, from the lowest generator up.  A relator is a ``str`` with
    one code point per letter, generator h (1-based) being chr(2h) and its
    inverse chr(2h + 1), so a substitution is two ``str.replace`` calls and
    the letters are decoded into words only when a presentation is returned
    or raised.  A presentation with more than (``sys.maxunicode`` - 1) / 2
    generators is a ``ValueError``.
    """
    n = len(p.alphabet)
    if 2 * n + 1 > _MAX_CODE_POINT:
        raise ValueError(f"Tietze elimination takes at most {(_MAX_CODE_POINT - 1) // 2} generators, "
                         f"got {n}")
    symbols = [(chr(2 * h), chr(2 * h + 1)) for h in range(n + 1)]  # h -> (h, h^-1)
    flip = {2 * h + e: 2 * h + 1 - e for h in range(1, n + 1) for e in (0, 1)}
    relators: dict[int, str] = {}  # id -> letters; filled in id order, then only updated or deleted
    holder: dict[str, int] = {}  # letters -> id, for duplicates
    occurs: list[set[int]] = [set() for _ in range(n + 1)]  # h -> ids, a superset
    eliminated: set[int] = set()

    def presentation() -> Presentation:
        keep = [h for h in range(1, n + 1) if h not in eliminated]
        alphabet = Alphabet([p.alphabet.names[h - 1] for h in keep])
        decode = {}
        for i, h in enumerate(keep, start=1):
            decode[symbols[h][0]], decode[symbols[h][1]] = i, -i
        return Presentation(alphabet, tuple(
            Word(alphabet, tuple(map(decode.__getitem__, r))) for r in relators.values()))

    for rid, r in enumerate(p.relators):
        letters = "".join([chr(2 * x if x > 0 else 1 - 2 * x) for x in cyclic_reduce(r).letters])
        if letters and letters not in holder:
            relators[rid] = letters
            holder[letters] = rid
            for h in {ord(x) >> 1 for x in letters}:
                occurs[h].add(rid)
    live = [h for h in range(1, n + 1) if occurs[h]]  # a generator in no relator stays in none
    while True:
        for g in live:
            up, down = symbols[g]
            once = [rid for rid in occurs[g] if (r := relators.get(rid)) and r.count(up) + r.count(down) == 1]
            if once:
                break
        else:
            return presentation()
        if len(eliminated) >= budget:
            raise TietzeBudgetExceeded(presentation())
        eliminated.add(g)
        live.remove(g)
        defining = min(once, key=lambda rid: (len(relators[rid]), rid))
        rel = relators.pop(defining)
        del holder[rel]
        pos = rel.find(up)
        if pos < 0:
            pos = rel.find(down)
        # Rotate so the eliminated letter is first: rel ~ g^e * w, so g^e = w^-1.
        tail = rel[pos + 1:] + rel[:pos]
        tail_inv = tail[::-1].translate(flip)
        image, image_inv = (tail_inv, tail) if rel[pos] == up else (tail, tail_inv)
        # Every relator and image is freely reduced, so an inverse pair can only
        # form at a seam: as inv(image[0]) image[0] or image[-1] inv(image[-1]).
        if image:
            pairs = (chr(ord(image[0]) ^ 1) + image[0], image[-1] + chr(ord(image[-1]) ^ 1))
        rewritten = []
        # the new letters lack g, so they never equal a relator still waiting
        # here, and the earlier id keeps equal letters in any visiting order
        for rid in occurs[g]:
            old = relators.get(rid)
            if old is None or (up not in old and down not in old):
                continue
            if image:
                s = old.replace(up, image).replace(down, image_inv)
                for pair in pairs:
                    if pair in s:
                        s = _cancel_outward(s, pair)
            else:
                s = _cancel_outward(old.replace(down, up), up)
            i, j = 0, len(s)
            while j - i >= 2 and ord(s[i]) ^ 1 == ord(s[j - 1]):
                i += 1
                j -= 1
            s = s[i:j]
            del holder[old]
            other = holder.get(s)
            if s and (other is None or other > rid):
                if other is not None:  # the later holder goes
                    del relators[other]
                relators[rid] = s
                holder[s] = rid
            else:
                del relators[rid]
            rewritten.append(rid)
        for h in {ord(x) >> 1 for x in tail}:
            occurs[h].update(rewritten)
        occurs[g].clear()  # g has left every relator
