"""Tour of the presentation families.

Builds each family at small parameters, prints the text form, and shows a
Tietze simplification.
"""

from toricgroups import presentations as pres
from toricgroups.presentations import Presentation, serialize, tietze_simplify
from toricgroups.words import Alphabet

print("Torus knot group G(2,3), three presentations of the same group:\n")
print("standard:")
print(serialize(pres.torus_standard(2, 3)))
print("classical (generators are meridians):")
print(serialize(pres.torus_classical(2, 3)))
print("dual:")
print(serialize(pres.torus_dual(2, 3)))

print("Toric reflection group W(2,3,4): kill the squares of the meridians.")
print(serialize(pres.toric(2, 3, 4)))

print("Parent J-group on s, t, u with the central chain s t u = t u s = u s t:")
print(serialize(pres.j_parent(2, 3, 4)))

print("Triangle Coxeter group and the two-generator form of its alternating subgroup:")
print(serialize(pres.coxeter_triangle(2, 3, 4)))
print(serialize(pres.alt_plus(2, 3, 4)))

print("Tietze simplification eliminates redundant generators:")
ab = Alphabet(["x", "y", "z"])
p = Presentation(ab, tuple(ab.word(text) for text in ("z y^-1 x", "y x^-2", "x^6")))
q = tietze_simplify(p)
print(f"  {p.gens} with 3 relators  ->  {q.gens} with {[str(r) for r in q.relators]}")
