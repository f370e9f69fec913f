"""Acceptance suite: one test per criterion, exact expectations throughout.

Each test prints a single PASS line on success (visible with -s; the
pytest -v report carries one line per criterion either way).
"""

import math
import pathlib
import random

import pytest

from conftest import (
    FINITE_ROWS,
    FROZEN_TORIC_ORDERS,
    closure_table,
    image_of,
    parent_cayley,
    root_table,
    schreier_word,
    through,
    toric_cayley,
    triangle_cayley,
)
from oracles import naive_order

from toricgroups import maps, reps
from toricgroups import presentations as pres
from toricgroups.cosets import MAX_COSETS, group_order, reflection_class_count, todd_coxeter
from toricgroups.cyclo import label_modulus, zeta
from toricgroups.coxeter import CoxeterMatrix, classify_triangle, maximal_finite_parabolics
from toricgroups.garside import GarsideNF, gnf, meridian, sigma
from toricgroups.presentations import XY, serialize, tietze_simplify
from toricgroups.schreier import (
    check_toric_presentation,
    closed_form_generator,
    rs_presentation,
    schreier_transversal,
    toric_closure_rs,
    toric_column_order,
    toric_coset_labels,
)
from toricgroups.words import Word, apply_map, compose, free_reduce, invert

DATA = pathlib.Path(__file__).parent / "data"

# Expected orders of the center quotients, row by row (A4, S4, A5 orders).
PLUS_ORDERS = {
    (2, 3, 4): 24,   # S4
    (2, 3, 5): 60,   # A5
    (3, 2, 3): 12,   # A4
    (4, 2, 3): 24,   # S4
    (5, 2, 3): 60,   # A5
    (3, 2, 5): 60,   # A5
    (2, 2, 3): 6,    # dihedral of order 2m
    (2, 2, 5): 10,
    (2, 2, 7): 14,
    (2, 2, 9): 18,
}


def test_criterion_01_finiteness_table():
    """Enumeration completes on every finite row with oracle-exact orders;
    the three infinite probes overflow at 1e5 cosets."""
    for k, n, m in FINITE_ROWS:
        p = pres.toric(k, n, m)
        table = todd_coxeter(p)
        assert table.complete, (k, n, m)
        assert table.num_cosets == FROZEN_TORIC_ORDERS[(k, n, m)]
        assert naive_order(p) == FROZEN_TORIC_ORDERS[(k, n, m)], (k, n, m)
    for k, n, m in [(6, 2, 3), (2, 3, 7), (3, 4, 5)]:
        table = todd_coxeter(pres.toric(k, n, m), max_cosets=10**5)
        assert table.status == "overflow", (k, n, m)
    print("\n[criterion 1] PASS: finiteness table reproduced, overflow cases overflow")


def test_criterion_02_index_law():
    """Index of the normal closure of s in the parent equals b*c."""
    for a, b, c in [(2, 3, 3), (2, 3, 4), (2, 3, 5)]:
        table = closure_table(a, b, c)
        assert table.complete
        assert table.num_cosets == b * c, (a, b, c)
    print("\n[criterion 2] PASS: [G : ncl(s)] = b*c on all three parents")


def test_criterion_03_rs_round_trip():
    """Rewriting plus simplification returns an n-generator presentation of
    the right order for every finite row; the (2,3,4) derivation matches the
    golden file, which relabels (s_j -> x_{j+1}) verbatim onto the display
    presentation."""
    for k, n, m in FINITE_ROWS:
        parent = pres.j_parent(k, n, m)
        table = closure_table(k, n, m)
        tr = schreier_transversal(table, toric_column_order(parent.alphabet))
        labels = toric_coset_labels(parent.alphabet, tr)
        rs = rs_presentation(parent, table, tr,
                             namer=lambda c, g: f"{g}_{labels[c][0]}_{labels[c][1]}")
        simplified = tietze_simplify(rs.presentation)
        assert len(simplified.gens) == n, (k, n, m)
        assert group_order(simplified) == FROZEN_TORIC_ORDERS[(k, n, m)], (k, n, m)
    derived = check_toric_presentation(2, 3, 4, *toric_closure_rs(2, 3, 4))
    golden = (DATA / "rs_234_golden.txt").read_text()
    assert serialize(derived) == golden
    relabeled = golden
    for j in range(3):
        relabeled = relabeled.replace(f"s{j}", f"x{j + 1}")
    assert relabeled == serialize(pres.toric(2, 3, 4))
    print("\n[criterion 3] PASS: RS + Tietze reaches n generators with the right order; golden file verbatim")


@pytest.mark.parametrize("k,n,m", [(2, 3, 4), (3, 2, 3), (2, 3, 5)])
def test_criterion_04_closed_form_cross_check(k, n, m):
    """Closed-form generators equal the generic rewriting as group elements,
    for every valid (ell, p): zero mismatches."""
    parent = pres.j_parent(k, n, m)
    table = closure_table(k, n, m)
    tr = schreier_transversal(table, toric_column_order(parent.alphabet))
    labels = toric_coset_labels(parent.alphabet, tr)
    rs = rs_presentation(parent, table, tr)
    by_label = {(labels[g.coset], g.gen_name): g for g in rs.generators}
    cay = parent_cayley(k, n, m)
    t = parent.alphabet.word("t")
    s = parent.alphabet.word("s")
    s_values = [free_reduce(t**j * s * t**-j) for j in range(n)]

    def closed_form_element(w: Word) -> int:
        acc = Word(parent.alphabet, ())
        for letter in w.letters:
            val = s_values[abs(letter) - 1]
            acc = acc * (val if letter > 0 else invert(val))
        return cay.eval(acc)

    mismatches = 0
    checked = 0
    for ell in range(m):
        for p in range(1, n + 1):
            word = schreier_word(table, labels, by_label[((m - 1 - ell, p - 1), "s")])
            checked += 1
            if closed_form_element(closed_form_generator(k, n, m, "s", ell, p)) != cay.eval(word):
                mismatches += 1
        for p in range(1, n):
            word = schreier_word(table, labels, by_label[((m - 1 - ell, p), "u")])
            checked += 1
            if closed_form_element(closed_form_generator(k, n, m, "u", ell, p)) != cay.eval(word):
                mismatches += 1
    assert checked == m * (2 * n - 1)
    assert mismatches == 0
    print(f"\n[criterion 4] PASS: ({k},{n},{m}) closed forms match generic rewriting, {checked} labels, 0 mismatches")


def test_criterion_05_reflection_class_counts():
    """k-1 classes for every finite toric row; a+b+c-3 = 5 for the (2,3,3) parent."""
    for k, n, m in FINITE_ROWS:
        count = reflection_class_count(toric_cayley(k, n, m))
        assert count == k - 1, (k, n, m)
    parent_count = reflection_class_count(parent_cayley(2, 3, 3))
    assert parent_count == 5
    print("\n[criterion 5] PASS: reflection class counts exact on all rows")


def test_criterion_06_coxeter_oracle_equivalence():
    """nf-equality coincides with Cayley equality (exhaustive on two triangles,
    10^4 fixed-seed pairs on two more); r1 r3 has exact order m everywhere."""
    for k, n, m in [(3, 2, 3), (2, 2, 5)]:
        table = root_table(k, n, m)
        cay = triangle_cayley(k, n, m)
        forms = [str(table.nf(cay.words[e])) for e in range(cay.size)]
        for i in range(cay.size):
            for j in range(cay.size):
                assert (forms[i] == forms[j]) == (i == j)
    for k, n, m in [(4, 2, 3), (2, 3, 5)]:
        table = root_table(k, n, m)
        cay = triangle_cayley(k, n, m)
        ab = table.cm.alphabet()
        rng = random.Random(2026)
        for _ in range(10**4):
            u = Word(ab, tuple(rng.choice([1, 2, 3]) for _ in range(rng.randrange(0, 14))))
            v = Word(ab, tuple(rng.choice([1, 2, 3]) for _ in range(rng.randrange(0, 14))))
            assert (table.nf(u) == table.nf(v)) == (cay.eval(u) == cay.eval(v))
    for k, n, m in [(3, 2, 3), (2, 2, 5), (4, 2, 3), (2, 3, 5), (2, 3, 7)]:
        table = root_table(k, n, m)
        word = table.cm.alphabet().word("r1 r3")
        order = next(j for j in range(1, 51) if table.is_identity(word**j))
        assert order == m, (k, n, m)
    print("\n[criterion 6] PASS: nf == Cayley equality; r1 r3 has exact order m incl. (2,3,7)")


def test_criterion_07_homomorphism_suite():
    """phi is well defined on the full sweep, kills c, phi o psi fixes a and b,
    and the finite rows satisfy |W| = |<c>| * |W+| with the expected quotients."""
    sweep = FINITE_ROWS + [(6, 2, 3), (2, 3, 7), (4, 2, 5)]
    for k, n, m in sweep:
        phi = maps.build_phi(k, n, m)
        table = root_table(k, n, m)
        assert maps.check_hom(phi.source, through(phi, table.nf)) is None, (k, n, m)
        assert table.is_identity(phi.apply(maps.central_element(k, n, m))), (k, n, m)
        psi = maps.build_psi(k, n, m)
        comp = maps.Hom(psi.source, compose(phi.genmap, psi.genmap))
        assert maps.check_hom(comp.source, through(comp, table.nf)) is None, (k, n, m)
        target = phi.genmap.target
        for name, image in (("a", target.word("r1 r2")), ("b", target.word("r3 r2"))):
            diff = free_reduce(image_of(comp.genmap, name) * invert(image))
            assert table.is_identity(diff), (k, n, m, name)
    for k, n, m in FINITE_ROWS:
        cay = toric_cayley(k, n, m)
        c_order = cay.order_of(maps.central_element(k, n, m))
        plus = group_order(pres.alt_plus(k, n, m))
        assert plus == PLUS_ORDERS[(k, n, m)], (k, n, m)
        assert cay.size == c_order * plus, (k, n, m)
    print("\n[criterion 7] PASS: homomorphism sweep, center quotients match the known groups")


def test_criterion_08_representation_suite():
    """Exact relation verification and the unfaithfulness counterexample."""
    for a, b, c in [(2, 3, 4), (2, 3, 5), (3, 2, 3), (6, 2, 3), (2, 3, 7)]:
        n = label_modulus(a, b, c)
        identity = reps.mat_identity(n)
        theta, phi = zeta(n, n // (2 * a)), zeta(n, n // (2 * b))  # e^(i pi/a), e^(i pi/b)
        for name, (q, r) in reps.qr_presets(a, b, c).items():
            rep = reps.build_rho(a, b, c, q, r)
            assert reps.mat_pow(rep.mat_s, a) == identity
            assert reps.mat_pow(rep.mat_t, b) == identity
            assert reps.mat_pow(rep.mat_u, c) == identity
            stu = reps.mat_mul(rep.mat_s, reps.mat_mul(rep.mat_t, rep.mat_u))
            tus = reps.mat_mul(rep.mat_t, reps.mat_mul(rep.mat_u, rep.mat_s))
            ust = reps.mat_mul(rep.mat_u, reps.mat_mul(rep.mat_s, rep.mat_t))
            assert stu == tus == ust == reps.mat_scale(rep.scalar, identity)
            assert reps.mat_det(rep.mat_s) == theta * theta
            assert reps.mat_det(rep.mat_t) == phi * phi
    witness = reps.witness_record(MAX_COSETS)[0]
    assert witness["cube_dies_per_preset"] == {"zero": True, "unit": True}
    assert witness["order_of_x1x2_in_k3_quotient"] == 6
    assert witness["rho_stu_is_minus_identity"] and witness["rho_stu_order"] == 2
    assert witness["zero_preset_commutes"] and not witness["unit_preset_commutes"]
    assert witness["unfaithful"]
    print("\n[criterion 8] PASS: representation relations exact; counterexample reproduced")


def test_criterion_09_garside_suite():
    """Fixed-seed relator-insertion trials, Delta identities, quotient
    consistency, and meridian conjugacy."""
    ab = XY
    for n, m in [(2, 3), (3, 4), (2, 5), (3, 5)]:
        rng = random.Random(1000 * n + m)
        rel = tuple([1] * n + [-2] * m)
        changes = 0
        for _ in range(1000):
            w = Word(ab, tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 30))))
            use = rel if rng.random() < 0.5 else tuple(-x for x in reversed(rel))
            conj = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 6)))
            ins = conj + use + tuple(-x for x in reversed(conj))
            pos = rng.randrange(0, len(w.letters) + 1)
            w2 = Word(ab, w.letters[:pos] + ins + w.letters[pos:])
            if gnf(n, m, w) != gnf(n, m, w2):
                changes += 1
        assert changes == 0, (n, m)
        assert gnf(n, m, ab.word("x") ** n) == GarsideNF(n, m, 1, ())
        assert gnf(n, m, ab.word("y") ** m) == GarsideNF(n, m, 1, ())
        delta = ab.word("x") ** n
        for g in (ab.word("x"), ab.word("y")):
            assert gnf(n, m, g * delta) == gnf(n, m, delta * g)
    # quotient consistency: gnf-equal words agree in every finite toric quotient
    for n, m in [(2, 3), (3, 4), (2, 5), (3, 5)]:
        ks = [k for (k, nn, mm) in FINITE_ROWS if (nn, mm) == (n, m)]
        to_classical = sigma(n, m)
        rng = random.Random(7)
        rel = tuple([1] * n + [-2] * m)
        for _ in range(150):
            w = Word(ab, tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 20))))
            pos = rng.randrange(0, len(w.letters) + 1)
            w2 = Word(ab, w.letters[:pos] + rel + w.letters[pos:])
            assert gnf(n, m, w) == gnf(n, m, w2)
            for k in ks:
                cay = toric_cayley(k, n, m)
                assert cay.eval(apply_map(to_classical, w)) == cay.eval(apply_map(to_classical, w2)), (k, n, m)
    # meridian images land in a generator's conjugacy class
    for n, m, a, b in [(2, 3, 2, 1), (3, 4, 3, 2), (2, 5, 3, 1), (3, 5, 2, 1)]:
        image = apply_map(sigma(n, m), meridian(n, m, a, b))
        for k, nn, mm in FINITE_ROWS:
            if (nn, mm) != (n, m):
                continue
            cay = toric_cayley(k, n, m)
            ids = cay.conjugacy_class_ids()
            targets = set()
            for i in range(1, n + 1):
                gen = Word(cay.alphabet, (i,))
                targets.add(ids[cay.eval(gen)])
                targets.add(ids[cay.eval(gen.inverse())])
            assert ids[cay.eval(image)] in targets, (n, m, k)
    print("\n[criterion 9] PASS: 4000 insertion trials clean; Delta, quotient, meridian checks hold")


def test_criterion_10_classification_invariants():
    """The invariant tuple separates every pair of parameters in the grid
    k <= 6, n < m <= 7, gcd(n, m) = 1.

    The tuple is (reflection-class count, triangle data): the class count is
    computed on the Cayley table for the finite rows (and is k-1 there,
    matching the derived value used for the infinite rows); the triangle
    data is the multiset of maximal-finite-cyclic orders when the triangle
    group is infinite, and the isomorphism-type data (name and exact order)
    when it is finite.  The full isomorphism classification is a theorem,
    not a computation; this extraction realizes it at desk scale.
    """
    grid = [
        (k, n, m)
        for k in range(2, 7)
        for n in range(2, 7)
        for m in range(n + 1, 8)
        if math.gcd(n, m) == 1
    ]
    assert len(grid) == 55
    tuples = {}
    for k, n, m in grid:
        finite = (k, n, m) in FROZEN_TORIC_ORDERS or (k == 2 and n == 2 and m % 2 == 1)
        if finite:
            cay = toric_cayley(k, n, m)
            classes = reflection_class_count(cay)
            assert classes == k - 1, (k, n, m)
        else:
            classes = k - 1  # derived: holds for every toric reflection group
        if classify_triangle(k, n, m) == "spherical":
            triangle_data = ("finite-triangle", group_order(pres.coxeter_triangle(k, n, m)),
                             "finite-toric" if finite else "infinite-toric",
                             group_order(pres.toric(k, n, m)) if finite else None)
        else:
            report = maximal_finite_parabolics(CoxeterMatrix.triangle(k, n, m))
            triangle_data = ("infinite-triangle", tuple(sorted(v for _, v in report.rotation_orders)))
        key = (classes, triangle_data)
        assert key not in tuples, f"{(k, n, m)} collides with {tuples.get(key)} on {key}"
        tuples[key] = (k, n, m)
    assert len(tuples) == 55
    print("\n[criterion 10] PASS: 55 parameter triples pairwise separated by the invariant tuple")
