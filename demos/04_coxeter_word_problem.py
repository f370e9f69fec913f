"""The exact word problem for triangle Coxeter groups.

Minimal roots give a finite table that decides reducedness and descents,
hence ShortLex normal forms, for finite, affine and hyperbolic triangles
alike; no floating point is involved.
"""

from toricgroups.coxeter import (
    CoxeterMatrix,
    MinimalRootTable,
    center_check_plus,
    classify_triangle,
    maximal_finite_parabolics,
)

for k, n, m in [(3, 2, 3), (4, 2, 3), (2, 3, 5), (2, 3, 6), (2, 3, 7), (6, 2, 3)]:
    cm = CoxeterMatrix.triangle(k, n, m)
    table = MinimalRootTable(cm)
    print(f"triangle {(k,n,m)}: {classify_triangle(k,n,m):<11} {len(table):>3} minimal roots")

print("\nNormal forms in the hyperbolic (2,3,7) triangle:")
table = MinimalRootTable(CoxeterMatrix.triangle(2, 3, 7))
ab = table.cm.alphabet()
for text in ["r1 r1", "r2 r1 r2 r2 r1", "r1 r3 r1 r3 r1 r3 r1 r3 r1 r3 r1 r3 r1 r3"]:
    w = ab.word(text)
    print(f"  nf({text}) = {table.nf(w)}")

print("\nr1 r3 has order exactly m = 7:")
w = ab.word("r1 r3")
orders = [j for j in range(1, 22) if table.is_identity(w**j)]
print("  trivial powers up to 21:", orders)

print("\nMaximal finite standard parabolic subgroups of the affine (2,3,6) triangle:")
report = maximal_finite_parabolics(CoxeterMatrix.triangle(2, 3, 6))
print("  M_W =", list(report.maximal_finite), " rotation orders:", report.orders_multiset())

print("\nCenter of the alternating subgroup, brute force on the finite cases:")
for k, n, m in [(3, 2, 3), (4, 2, 3), (2, 2, 5)]:
    r = center_check_plus(CoxeterMatrix.triangle(k, n, m))
    print(f"  {(k,n,m)}: |W|={r.group_order} |Z(W+)|={r.z_w_plus_order} |Z(W)|={r.z_w_order} "
          f"Z(W+) inside Z(W): {r.contained}  Z(W) element lengths {r.z_w_lengths}")
