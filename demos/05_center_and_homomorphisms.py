"""The maps tying everything together, and the central full twist.

phi projects the toric group onto the alternating subgroup of the triangle
group; psi is its section on generators; the embedding realizes the toric
group inside its parent J-group.  The full twist c = (x_1...x_n)^m is
central, and the proof is an explicit relator-substitution chain that the
derivation checker replays step by step.
"""

from toricgroups import coxeter, maps
from toricgroups import presentations as pres
from toricgroups.cosets import CayleyTable, group_order, todd_coxeter
from toricgroups.words import check_derivation, free_reduce, invert

k, n, m = 2, 3, 4
phi = maps.build_phi(k, n, m)
triangle = coxeter.triangle_table(k, n, m)
print(f"phi on W{(k,n,m)} generators:")
for name, image in zip(phi.genmap.source.names, phi.genmap.images):
    print(f"  {name} -> {image}")
print("well-defined:", maps.check_hom(phi, triangle).ok)

c = maps.central_element(k, n, m)
print(f"\ncentral element c = {c}")
print("phi(c) trivial:", triangle.is_identity(phi.apply(c)))

print("\nthe rewriting chain for x1 c -> c x1, machine-checked:")
witness = maps.centrality_witness(k, n, m, 1)
chains = pres.torus_classical(n, m).relators
check_derivation(witness, chains)
for w in witness.words():
    print("  ", w)

psi = maps.build_psi(k, n, m)
comp = maps.compose_homs(phi, psi)
a_image, b_image = psi.genmap.images
print("\npsi section: a ->", a_image, "  b ->", b_image)
print("phi o psi fixes a and b:", maps.check_hom(comp, triangle).ok)

print("\nfinite scale: |W(k,n,m)| = |<c>| * |W+| for every finite row")
for kk, nn, mm in [(3, 2, 3), (2, 3, 4), (2, 3, 5)]:
    cay = CayleyTable(todd_coxeter(pres.toric(kk, nn, mm)))
    c_ord = cay.order_of(maps.central_element(kk, nn, mm))
    plus = group_order(pres.alt_plus(kk, nn, mm))
    print(f"  {(kk,nn,mm)}: {cay.size} = {c_ord} * {plus}")

print("\nembedding into the parent J-group: x_i = t^(i-1) s t^(1-i)")
emb = maps.build_embedding(3, 2, 3)
parent_cay = CayleyTable(todd_coxeter(pres.j_parent(3, 2, 3)))
stu = parent_cay.alphabet.word("s t u")
lhs = parent_cay.eval(free_reduce(stu**6))
rhs = parent_cay.eval(emb.apply(maps.central_element(3, 2, 3)))
print("  (s t u)^(n m) equals the embedded full twist:", lhs == rhs)
