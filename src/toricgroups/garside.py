"""Garside normal forms and a decidable word problem for torus knot groups.

On the standard presentation <x, y | x^n = y^m> the positive words form a
Garside monoid whose element Delta = x^n = y^m is central; the simple
elements are the powers x^i (i <= n) and y^j (j <= m) with x^n and y^m
identified as Delta.  Divisibility between simples from the two families
passes only through 1 and Delta, so the left-greedy normal form of a
positive word is just its sequence of alternating maximal blocks, with
every full power x^n or y^m extracted as a leading Delta.

Words with inverses are handled by Delta-padding: each inverse letter
x^-1 contributes Delta^-1 x^(n-1) (and likewise for y), and the central
Delta^-1 factors migrate to the front.  The resulting pair

    (delta_power, alternating blocks with exponents < n resp. < m)

is a complete invariant of the group element, which settles the word
problem.

The classical presentation on the meridians x_1 ... x_n presents the same
group: ``sigma`` and ``tau`` are inverse isomorphisms, so the normal form of
tau(u) decides the word problem for a classical word u as well.
"""

from __future__ import annotations

from itertools import chain, groupby

from .presentations import XY, FamilyParams, cyclic_product, meridians
from .schreier import chain_implies_shift, chain_relators, chain_step
from .words import (Derivation, GenMap, RewriteStep, Value, Word, apply_map, free_reduce, parse_either,
                    signed_images, undone)

_SYMBOLS = (None, "x", "y")  # the name of each letter


class GarsideNF(Value):
    """Normal form Delta^p * f1 | f2 | ... with simple factors f_i not 1, Delta.

    Each factor is ("x", a) with 1 <= a < n, or ("y", b).
    """

    __slots__ = ("n", "m", "delta_power", "factors")

    def __init__(self, n: int, m: int, delta_power: int, factors: tuple[tuple[str, int], ...]):
        super().__init__(n, m, delta_power, factors)

    def is_identity(self) -> bool:
        return self.delta_power == 0 and not self.factors

    def __str__(self) -> str:
        parts = []
        if self.delta_power or not self.factors:
            parts.append(f"D^{self.delta_power}" if self.delta_power != 1 else "D")
        body = " | ".join(f"{sym}^{e}" if e != 1 else sym for sym, e in self.factors)
        if body:
            parts.append(body)
        return " · ".join(parts) if parts else "D^0"


def gnf(n: int, m: int, w: Word) -> GarsideNF:
    """Left-greedy Garside normal form of a word over {x, y}."""
    FamilyParams("torus-standard", (n, m))
    if w.alphabet != XY:
        raise ValueError("word must be over the standard alphabet {x, y}")
    power = 0
    # alternating blocks: symbol 1 (x) or 2 (y), exponent in [1, bound - 1],
    # so one merge and one Delta extraction per run suffice
    syms: list[int] = []
    exps: list[int] = []
    for letter, run in groupby(w.letters):
        r = len(list(run))
        sym = abs(letter)
        bound = n if sym == 1 else m
        if letter < 0:
            # x^-r = (Delta^-1 x^(n-1))^r = Delta^-r x^(r(n-1)), since Delta is central
            power -= r
            r *= bound - 1
        if syms and syms[-1] == sym:
            syms.pop()
            r += exps.pop()
        q, r = divmod(r, bound)
        power += q
        if r:
            syms.append(sym)
            exps.append(r)
    return GarsideNF(n, m, power, tuple(zip(map(_SYMBOLS.__getitem__, syms), exps)))


def word_problem(n: int, m: int, text: str) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``wp garside``: the Garside normal form in
    <x, y | x^n = y^m> of the word ``text`` over {x, y}, or else over x1 ...
    xn mapped by ``tau``."""
    FamilyParams("torus-standard", (n, m))
    evidence = []
    word = parse_either(XY, lambda: meridians(n), text)
    if word.alphabet is not XY:
        table = signed_images([image.letters for image in tau(n, m).images])  # tau(word), unreduced
        word = Word(XY, tuple(chain.from_iterable(map(table.__getitem__, word.letters))))
        evidence.append(f"a word over x1 ... x{n}, mapped to {{x, y}} by tau, the inverse of sigma")
    normal = gnf(n, m, word)
    return {"normal_form": str(normal), "identity": normal.is_identity(),
            "delta_power": normal.delta_power}, "ok", evidence


def sigma(n: int, m: int) -> GenMap:
    """Standard to classical: x -> x_1...x_m, y -> x_1...x_n (indices mod n)."""
    FamilyParams("torus-standard", (n, m))
    target = meridians(n)
    return GenMap(XY, target, (Word(target, cyclic_product(n, 0, m)), Word(target, cyclic_product(n, 0, n))))


def _tau_letters(n: int, m: int, i: int) -> tuple[int, ...]:
    """The letters of tau(x_i) = x^-j y^a x^(j-b), where i = 1 + jm mod n and
    0 <= j < n: fewer than 2n + m, since a < m and b < n."""
    a = pow(n, -1, m)
    b = (a * n - 1) // m
    j = (i - 1) * pow(m, -1, n) % n
    return (-1,) * j + (2,) * a + ((1,) * (j - b) if j >= b else (-1,) * (b - j))


def tau(n: int, m: int) -> GenMap:
    """Classical to standard: x_{1+jm mod n} -> x^-j mu x^j, for the meridian
    mu = y^a x^-b with a = n^-1 mod m and b = (an - 1)/m.

    tau inverts ``sigma``.  With e = m^-1 mod n, the meridians x_i, x_{i+1},
    ... go to the conjugates of mu by x^j, x^(j+e), ... (x^n is central), so
    an m-factor product goes to x^-j (mu x^-e)^m x^(j+me).  Now b + e = hn
    for an integer h, so mu x^-e = y^a x^-hn has m-th power x^(an-hmn) =
    x^(1-me), and every m-factor product goes to x: tau kills the chain
    relators and tau(sigma(x)) = x; likewise tau(sigma(y)) = y.  And
    sigma(tau(x_{1+jm})) = Q^-j sigma(mu) Q^j is x_{1+jm} by
    ``meridian_derivation`` and the shift lemma.
    """
    FamilyParams("torus-standard", (n, m))
    images = tuple(Word(XY, _tau_letters(n, m, i)) for i in range(1, n + 1))
    return GenMap(meridians(n), XY, images)


def meridian(n: int, m: int, a: int, b: int) -> Word:
    """The meridian y^a x^-b, valid when a n - b m = 1."""
    FamilyParams("torus-standard", (n, m))
    if a * n - b * m != 1:
        raise ValueError(f"{a}*{n} - {b}*{m} != 1 (not a Bezout pair)")
    y = Word(XY, (2,))
    x = Word(XY, (1,))
    return free_reduce(y**a * x**-b)


def meridian_derivation(n: int, m: int) -> Derivation:
    """Rewriting chain sigma(mu) -> x_1 for mu = tau(x_1), citing only the
    chain relators: check with ``check_derivation(d, chain_relators(n, m)[1])``.

    sigma(mu) = P^a Q^-b (P = x_1...x_n, Q = x_1...x_m), and P^a is the word
    x_1 x_2 ... x_{bm+1}, indices mod n.  Chain rewrites of its b blocks of m
    letters leave Q^b x_n Q^-b; the shift lemma x_i Q -> Q x_{i+m}, reversed,
    moves x_n left through each Q to x_{n-bm} = x_1; Q^b Q^-b cancels freely.
    """
    ab, _ = chain_relators(n, m)  # checks n and m
    a = pow(n, -1, m)
    b = (a * n - 1) // m
    start = apply_map(sigma(n, m), meridian(n, m, a, b))
    steps: list[RewriteStep] = []
    for t in range(b):  # the block x_{tm+1} ... x_{tm+m} back to Q
        steps += undone(chain_step(n, m, t * m, t * m % n + 1), 0)
    i = n
    for t in reversed(range(b)):
        i = (i - m - 1) % n + 1
        steps += undone(chain_implies_shift(n, m, i).steps, t * m)
    delta = cyclic_product(n, 0, m)
    cancel = Word(ab, delta * b + tuple(-x for x in reversed(delta)) * b)
    steps.append(RewriteStep(1, cancel, Word(ab, ()), None))
    return Derivation(start, tuple(steps))
