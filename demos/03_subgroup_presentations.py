"""Deriving toric presentations by Reidemeister-Schreier rewriting.

The normal closure H of s in the parent J-group on (k, n, m) has index
n*m.  Over the transversal {u^i t^j} the Schreier generators carry (i, j)
labels, and rewriting the parent's relators through the spanning tree
produces a presentation of H that collapses to the toric presentation.
The transversal is kept as its spanning tree; a representative is spelled
here only for display, from its (i, j) label.
"""

from toricgroups import presentations as pres
from toricgroups.cosets import group_order, normal_closure_table
from toricgroups.presentations import serialize, tietze_simplify
from toricgroups.schreier import (
    check_toric_presentation,
    rs_presentation,
    schreier_transversal,
    toric_column_order,
    toric_coset_labels,
)
from toricgroups.words import free_reduce

k, n, m = 2, 3, 4
parent = pres.j_parent(k, n, m)
table = normal_closure_table(parent, [parent.alphabet.word("s")])
print(f"[G : ncl(s)] in the ({k},{n},{m}) parent = {table.num_cosets}  (expected n*m = {n*m})")

tree = schreier_transversal(table, toric_column_order(parent.alphabet))
labels = toric_coset_labels(parent.alphabet, tree)
u, t = parent.alphabet.word("u"), parent.alphabet.word("t")
reps = {c: u**i * t**j for c, (i, j) in labels.items()}  # spelled from the labels, for display
print("transversal:", ", ".join(str(reps[c]) for c in range(table.num_cosets)))

rs = rs_presentation(parent, table, tree, namer=lambda c, g: f"{g}_{labels[c][0]}_{labels[c][1]}")
print(f"\nSchreier generators: {len(rs.presentation.gens)}, raw relators: {len(rs.presentation.relators)}")
print("a few generator values:")
for name, g in zip(rs.presentation.gens[:4], rs.generators):
    # the value of a Schreier generator: rep(c) x rep(c.x)^-1, freely reduced
    x = parent.alphabet.word(g.gen_name)
    print(f"  {name} = {free_reduce(reps[g.coset] * x * reps[table.trace(g.coset, x)] ** -1)}")

simplified = tietze_simplify(rs.presentation)
print(f"\nafter Tietze simplification: {len(simplified.gens)} generators, "
      f"group order {group_order(simplified)} (toric order {group_order(pres.toric(k, n, m))})")

print("\nThe closed-form substitution route lands on the display presentation exactly:")
derived = check_toric_presentation(k, n, m, labels, rs)
print(serialize(derived))
print("relabel s_j -> x_{j+1} and this is the toric presentation verbatim.")
