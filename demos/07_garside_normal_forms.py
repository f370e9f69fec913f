"""Garside normal forms settle the word problem in torus knot groups.

Every element of G(n,m) = <x,y | x^n = y^m> is uniquely Delta^p times an
alternating sequence of proper simple factors; computing that pair decides
equality of arbitrary words, and through tau, the inverse of sigma, of words
over the meridians x1 ... xn as well.
"""

import random

from toricgroups.garside import gnf, meridian, meridian_derivation, sigma, tau
from toricgroups.presentations import XY, torus_classical
from toricgroups.words import Word, apply_map, check_derivation

ab = XY
n, m = 2, 3

print(f"G({n},{m}), Delta = x^{n} = y^{m}:")
for text in ["x^2", "y^3", "x y x", "y x^-1 x", "x^-1 y^2", "x y x y x y"]:
    w = ab.word(text)
    print(f"  gnf({text:<12}) = {gnf(n, m, w)}")

print("\nequality tests:")
print("  x Delta == Delta x:", gnf(n, m, ab.word("x x^2")) == gnf(n, m, ab.word("x^2 x")))
print("  x == y:", gnf(n, m, ab.word("x")) == gnf(n, m, ab.word("y")))

print("\ninserting conjugated relators never changes a normal form:")
rng = random.Random(0)
rel = (1,) * n + (-2,) * m
clean = 0
for _ in range(300):
    w = Word(ab, tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 24))))
    pos = rng.randrange(0, len(w.letters) + 1)
    w2 = Word(ab, w.letters[:pos] + rel + w.letters[pos:])
    clean += gnf(n, m, w) == gnf(n, m, w2)
print(f"  {clean}/300 trials unchanged")

print("\nmeridians: y^a x^-b with a n - b m = 1 maps to the meridian x1")
mer = meridian(2, 3, 2, 1)
print("  meridian(2,3,2,1) =", mer)
print("  classical image:", apply_map(sigma(2, 3), mer))
derivation = meridian_derivation(2, 3)
end = check_derivation(derivation, torus_classical(2, 3).relators)
print(f"  rewritten to {end} in {len(derivation.steps)} checked steps")

print("\nwords over the meridians, through tau:")
to_standard = tau(2, 3)
for text in ["x1 x2 x1", "x2 x1 x2", "x1", "x2", "x1 x2 x1 x2 x1 x2"]:
    print(f"  gnf(tau({text})) = {gnf(n, m, apply_map(to_standard, to_standard.source.word(text)))}")
