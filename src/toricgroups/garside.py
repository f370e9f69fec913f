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
"""

from __future__ import annotations

import math
from itertools import groupby

from .classify import finite_quotient, finite_toric_parameters
from .presentations import torus_classical
from .words import Alphabet, GenMap, Value, Word, free_reduce

_STANDARD = Alphabet(["x", "y"])
_SYMBOLS = (None, "x", "y")  # the name of each letter


def standard_alphabet() -> Alphabet:
    """The alphabet {x, y} of the standard torus knot presentation."""
    return _STANDARD


def _check_params(n: int, m: int) -> None:
    if n < 2 or m < 2:
        raise ValueError("parameters must be >= 2")
    if math.gcd(n, m) != 1:
        raise ValueError(f"gcd({n},{m}) != 1")


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

    def to_word(self) -> Word:
        """Render back to a word over {x, y}."""
        letters: list[int] = []
        if self.delta_power >= 0:
            letters.extend([1] * (self.n * self.delta_power))
        else:
            letters.extend([-1] * (self.n * -self.delta_power))
        for sym, e in self.factors:
            letters.extend([1 if sym == "x" else 2] * e)
        return Word(_STANDARD, tuple(letters))


def gnf(n: int, m: int, w: Word) -> GarsideNF:
    """Left-greedy Garside normal form of a word over {x, y}."""
    _check_params(n, m)
    if w.alphabet != _STANDARD:
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
    """Result, status and evidence of ``wp garside``: the Garside normal form
    of the word ``text`` over {x, y} in <x, y | x^n = y^m>."""
    normal = gnf(n, m, _STANDARD.word(text))
    return {"normal_form": str(normal), "identity": normal.is_identity(),
            "delta_power": normal.delta_power}, "ok", []


def gnf_equal(n: int, m: int, u: Word, v: Word) -> bool:
    return gnf(n, m, u) == gnf(n, m, v)


def simples(n: int, m: int) -> list[Word]:
    """All simple elements as positive words: 1, x^i, y^j, Delta = x^n."""
    out = [Word(_STANDARD, ())]
    out += [Word(_STANDARD, (1,) * i) for i in range(1, n)]
    out += [Word(_STANDARD, (2,) * j) for j in range(1, m)]
    out.append(Word(_STANDARD, (1,) * n))
    return out


def sigma(n: int, m: int) -> GenMap:
    """Standard to classical: x -> x_1...x_m, y -> x_1...x_n (indices mod n)."""
    _check_params(n, m)
    target = torus_classical(n, m).alphabet
    images = {
        "x": Word(target, tuple(i % n + 1 for i in range(m))),
        "y": Word(target, tuple(i % n + 1 for i in range(n))),
    }
    return GenMap.from_dict(_STANDARD, target, images)


def meridian(n: int, m: int, a: int, b: int) -> Word:
    """The meridian y^a x^-b, valid when a n - b m = 1."""
    _check_params(n, m)
    if a * n - b * m != 1:
        raise ValueError(f"{a}*{n} - {b}*{m} != 1 (not a Bezout pair)")
    y = Word(_STANDARD, (2,))
    x = Word(_STANDARD, (1,))
    return free_reduce(y**a * x**-b)


def abelianized(w: Word, n: int, m: int) -> int:
    """Image in the infinite cyclic abelianization: x -> m, y -> n."""
    total = 0
    for letter in w.letters:
        weight = m if abs(letter) == 1 else n
        total += weight if letter > 0 else -weight
    return total


def separate_in_finite_quotients(n: int, m: int, u: Word, v: Word,
                                 max_cosets: int = 10**6) -> str:
    """Partial equality test for classical-presentation words.

    Maps both words into every finite toric quotient W(k,n,m) sharing the
    pair (n, m) and compares images; returns "distinct" on any separation
    and "not separated" otherwise.  A quotient whose enumeration overflows
    ``max_cosets`` is skipped.  There is no general decision procedure
    here: "not separated" is not a proof of equality.
    """
    if u.alphabet != v.alphabet:
        raise ValueError("words over different alphabets")
    pair = (min(n, m), max(n, m))
    ks = [k for (k, a, b) in finite_toric_parameters(pair[1]) if (a, b) == pair]
    for k in ks:
        cay = finite_quotient(k, n, m, max_cosets)
        if cay is not None and cay.eval(u) != cay.eval(v):
            return "distinct"
    return "not separated"

