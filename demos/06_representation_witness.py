"""The rank-two pseudo-reflection representation and its failure of faithfulness.

Exact cyclotomic arithmetic throughout: the generator matrices satisfy the
defining relations on the nose, the triple product s t u is the scalar
theta phi psi, and at (6,2,3) the representation kills (x1 x2)^3 even
though that element is provably nontrivial (it has order 2 over a quotient
where x1 x2 has order 6).
"""

from toricgroups import reps
from toricgroups.cosets import MAX_COSETS

a, b, c = 6, 2, 3
print(f"constraint value at {(a,b,c)}: {reps.constraint_value(a, b, c)}")
print("admissible (q,r) presets:",
      {name: (str(q), str(r)) for name, (q, r) in reps.qr_presets(a, b, c).items()})

for name in ("zero", "unit"):
    rep = reps.build_rho_preset(a, b, c, name)
    print(f"\npreset {name!r}:")
    print("  s ->", reps.mat_str(rep.mat_s))
    print("  t ->", reps.mat_str(rep.mat_t))
    print("  u ->", reps.mat_str(rep.mat_u))
    stu = reps.mat_mul(rep.mat_s, reps.mat_mul(rep.mat_t, rep.mat_u))
    print("  s t u =", reps.mat_str(stu), " (scalar", str(rep.scalar) + ")")
    st = reps.mat_mul(rep.mat_s, rep.mat_t)
    ts = reps.mat_mul(rep.mat_t, rep.mat_s)
    print("  s and t commute:", st == ts)

print("\nwitness report:")
w = reps.witness_record(MAX_COSETS)[0]
print("  (x1 x2)^3 dies under every preset:", w["cube_dies_per_preset"])
print("  order of x1 x2 in the k=3 quotient:", w["order_of_x1x2_in_k3_quotient"])
print("  image of s t u is -Id of order:", w["rho_stu_order"])
print("  => the representation is unfaithful at (6,2,3):", w["unfaithful"])
