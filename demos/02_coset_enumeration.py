"""Coset enumeration over the finite toric reflection groups.

Reproduces the finite classification table by enumeration: ten parameter
triples give finite groups, and representative infinite ones overflow any
bound (overflow is a result, not an error).
"""

from toricgroups import presentations as pres
from toricgroups.cosets import CayleyTable, group_order, reflection_class_count, todd_coxeter

FINITE = [
    ((2, 3, 4), "G12"), ((2, 3, 5), "G22"), ((3, 2, 3), "G4"),
    ((4, 2, 3), "G8"), ((5, 2, 3), "G16"), ((3, 2, 5), "G20"),
    ((2, 2, 3), "I2(3)"), ((2, 2, 5), "I2(5)"), ((2, 2, 7), "I2(7)"), ((2, 2, 9), "I2(9)"),
]

print(f"{'(k,n,m)':<12}{'name':<8}{'order':>6}   {'reflection classes':>18}")
for (k, n, m), name in FINITE:
    p = pres.toric(k, n, m)
    cay = CayleyTable(todd_coxeter(p))
    classes = reflection_class_count(cay)
    print(f"{str((k,n,m)):<12}{name:<8}{cay.size:>6}   {classes:>18}")

print("\nGenerator orders: every x_i has order k.")
cay = CayleyTable(todd_coxeter(pres.toric(3, 2, 3)))
print("  in W(3,2,3): order(x1) =", cay.order_of(cay.alphabet.word("x1")),
      " order(x1 x2) =", cay.order_of(cay.alphabet.word("x1 x2")))

print("\nInfinite members overflow the coset bound:")
for k, n, m in [(6, 2, 3), (2, 3, 7)]:
    table = todd_coxeter(pres.toric(k, n, m), max_cosets=20000)
    print(f"  W{(k,n,m)}: status={table.status} at bound {table.bound}")

print("\nBoth strategies agree on every complete enumeration:")
for (k, n, m), _ in FINITE[:4]:
    p = pres.toric(k, n, m)
    print(f"  {(k,n,m)}: hlt={group_order(p)} felsch={todd_coxeter(p, strategy='felsch').num_cosets}")
