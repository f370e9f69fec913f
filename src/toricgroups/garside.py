"""Garside normal forms and a decidable word problem for torus knot groups.

On the standard presentation <x, y | x^n = y^m> the positive words form a
Garside monoid whose element Delta = x^n = y^m is central; the simple
elements are the powers x^i (i <= n) and y^j (j <= m) with x^n and y^m
identified as Delta.  Divisibility between simples from the two families
passes only through 1 and Delta, so the normal form of a group element is

    (delta_power, alternating blocks with exponents < n resp. < m),

a complete invariant of the element, which settles the word problem.

The blocks are the reduced word of the image in G / <Delta> = Z/n * Z/m.
The kernel spells the word as a string over a, A, b, B (x, x^-1, y, y^-1),
deletes whole blocks x^n, y^m, their inverses and inverse pairs, all
relators of Z/n * Z/m, by ``str.replace`` passes, and merges what is left
in one stack pass over its runs.  Delta is central, so the word is
Delta^p times the blocks, and p is read off the abelianization x -> m,
y -> n, which sends Delta to nm.  ``wp garside`` reaches the kernel from
the text: a token x^K becomes a power of Delta and one piece of at most
|K| and at most n / 2 letters, so no exponent over {x, y} is expanded.

The classical presentation on the meridians x_1 ... x_n presents the same
group: ``sigma`` and ``tau`` are inverse isomorphisms, so the normal form of
tau(u) decides the word problem for a classical word u as well; ``wp
garside`` takes it as ``gnf(n, m, apply_map(tau(n, m), u))``, the model of
the classical presentation that ``maps.check_hom`` reads.
"""

from __future__ import annotations

import re
from collections import Counter

from .presentations import XY, FamilyParams, chain_implies_shift, chain_step, cyclic_product, meridians, torus_classical
from .words import (Derivation, GenMap, RewriteStep, Value, Word, apply_map, free_reduce, parse_word, pick_alphabet,
                    token_runs, undone)

_CHARS = ("", "a", "b", "B", "A")  # the kernel's letter for each signed letter -2 .. 2 of {x, y}
# the runs of a kernel string; ``re`` compiles it on its first use, so importing
# the package compiles no pattern
_RUNS = "a+|A+|b+|B+"


class GarsideNF(Value):
    """Normal form Delta^p * f1 | f2 | ... with simple factors f_i not 1, Delta.

    Each factor is ("x", a) with 1 <= a < n, or ("y", b).
    """

    __slots__ = ("n", "m", "delta_power", "factors")

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


def _normal_form(n: int, m: int, s: str, power: int) -> GarsideNF:
    """The normal form of Delta^power times the word ``s`` over a, A, b, B.

    Each pass deletes the blocks first, then the inverse pairs.  Passes go
    on while a block or pair is left and each pass at least halves the
    string, so they take linear time in all.  Runs of the string that is
    left are then the factors, reduced mod their bounds, unless a pass
    that did not halve it left a block or a pair: then one stack pass over
    the runs merges them, in linear time too.
    """
    weight = m * (s.count("a") - s.count("A")) + n * (s.count("b") - s.count("B"))
    # a block longer than the string cannot occur, and a label may be far longer
    blocks = [c * k for c, k in (("a", n), ("A", n), ("b", m), ("B", m)) if k <= len(s)]
    blocks += ("aA", "Aa", "bB", "Bb")
    before = 2 * len(s)  # so that the first pass runs
    while (left := any(block in s for block in blocks)) and 2 * len(s) <= before:
        before = len(s)
        for block in blocks:
            s = s.replace(block, "")
    runs = re.findall(_RUNS, s)
    unit = {"a": ("x", 1, n), "A": ("x", -1, n), "b": ("y", 1, m), "B": ("y", -1, m)}
    # each distinct run once, as its symbol and its exponent mod the symbol's
    # bound: a word has few distinct runs, and a lookup per run is faster
    # than unpacking one
    kinds = {}
    for run in set(runs):
        sym, sign, bound = unit[run[0]]
        kinds[run] = sym, sign * len(run) % bound
    factors = list(map(kinds.__getitem__, runs))
    if left:
        bounds = {"x": n, "y": m}
        stack = []
        for f in factors:
            if stack and stack[-1][0] == f[0]:
                f = f[0], (stack.pop()[1] + f[1]) % bounds[f[0]]
            if f[1]:
                stack.append(f)
        factors = stack
    factor_weight = sum(e * (m if sym == "x" else n) * c for (sym, e), c in Counter(factors).items())
    return GarsideNF(n, m, power + (weight - factor_weight) // (n * m), tuple(factors))


def gnf(n: int, m: int, w: Word) -> GarsideNF:
    """Left-greedy Garside normal form of a word over {x, y}."""
    FamilyParams("torus-standard", (n, m))
    if w.alphabet != XY:
        raise ValueError("word must be over the standard alphabet {x, y}")
    return _normal_form(n, m, "".join(map(_CHARS.__getitem__, w.letters)), 0)


def _pieces(n: int, m: int, text: str) -> tuple[str, int]:
    """The word ``text`` over {x, y} as a kernel string and a power of Delta;
    WordSyntaxError as ``token_runs`` raises it.

    A token x^K with |K| = qn + r, 0 <= r < n, is Delta^(+-q) x^(+-r), and
    x^r = Delta x^(r-n) when that piece is shorter (likewise for y); so a
    token becomes a central power of Delta and a piece of at most |K| and at
    most n / 2 letters.  The tokens are freed before the kernel runs.
    """
    tokens, runs = token_runs(XY, text)
    pieces, shifts = {}, {}
    for token, (letter, count) in runs.items():
        bound = n if abs(letter) == 1 else m  # the token ``1`` has count 0
        q, r = divmod(count, bound)
        sign = 1 if letter > 0 else -1
        if bound - r < r:
            letter, q, r = -letter, q + 1, bound - r
        pieces[token], shifts[token] = _CHARS[letter] * r, sign * q
    # a word whose exponents are all short of its bounds shifts nothing; then
    # the sum over every token is skipped
    power = sum(map(shifts.__getitem__, tokens)) if any(shifts.values()) else 0
    return "".join(map(pieces.__getitem__, tokens)), power


def word_problem(n: int, m: int, text: str) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``wp garside``: the Garside normal form in
    <x, y | x^n = y^m> of the word ``text`` over {x, y}, or else over x1 ...
    xn mapped by ``tau``."""
    FamilyParams("torus-standard", (n, m))
    evidence = []
    alphabet = pick_alphabet(XY, lambda: meridians(n), text)
    if alphabet == XY:
        normal = _normal_form(n, m, *_pieces(n, m, text))
    else:
        normal = gnf(n, m, apply_map(tau(n, m), parse_word(alphabet, text)))
        evidence.append(f"a word over x1 ... x{n}, mapped to {{x, y}} by tau, the inverse of sigma")
    return {"normal_form": str(normal), "identity": normal.is_identity(),
            "delta_power": normal.delta_power}, "ok", evidence


def sigma(n: int, m: int) -> GenMap:
    """Standard to classical: x -> x_1...x_m, y -> x_1...x_n (indices mod n)."""
    FamilyParams("torus-standard", (n, m))
    target = meridians(n)
    return GenMap(XY, target, (Word(target, cyclic_product(n, 0, m)), Word(target, cyclic_product(n, 0, n))))


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
    mu, x, e = meridian(n, m, *_bezout(n, m)), Word(XY, (1,)), pow(m, -1, n)
    images = tuple(free_reduce(x**-j * mu * x**j) for j in (i * e % n for i in range(n)))
    return GenMap(meridians(n), XY, images)


def _bezout(n: int, m: int) -> tuple[int, int]:
    """The meridian's Bezout pair: a = n^-1 mod m and b = (an - 1)/m, so an - bm = 1."""
    a = pow(n, -1, m)
    return a, (a * n - 1) // m


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
    chain relators: check with ``check_derivation(d, torus_classical(n, m).relators)``.

    sigma(mu) = P^a Q^-b (P = x_1...x_n, Q = x_1...x_m), and P^a is the word
    x_1 x_2 ... x_{bm+1}, indices mod n.  Chain rewrites of its b blocks of m
    letters leave Q^b x_n Q^-b; the shift lemma x_i Q -> Q x_{i+m}, reversed,
    moves x_n left through each Q to x_{n-bm} = x_1; Q^b Q^-b cancels freely.
    """
    ab = torus_classical(n, m).alphabet  # checks n and m
    a, b = _bezout(n, m)
    start = apply_map(sigma(n, m), meridian(n, m, a, b))
    steps: list[RewriteStep] = []
    for t in range(b):  # the block x_{tm+1} ... x_{tm+m} back to Q
        steps += undone(chain_step(ab, m, t * m, t * m % n + 1), 0)
    i = n
    for t in reversed(range(b)):
        i = (i - m - 1) % n + 1
        steps += undone(chain_implies_shift(ab, m, i).steps, t * m)
    delta = cyclic_product(n, 0, m)
    cancel = Word(ab, delta * b + tuple(-x for x in reversed(delta)) * b)
    steps.append(RewriteStep(1, cancel, Word(ab, ()), None))
    return Derivation(start, tuple(steps))
