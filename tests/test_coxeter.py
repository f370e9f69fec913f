import hashlib
import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FINITE_TRIANGLES, image_of, root_table, triangle_cayley
from oracles import (gram_parabolic_verdicts, matrix_group_order, positive_roots, reference_center,
                     reference_center_plus_order, reference_nf, reference_reduce_word)

from toricgroups import coxeter, cyclo
from toricgroups.classify import classify_toric, finite_toric
from toricgroups.coxeter import (
    CoxeterMatrix,
    MinimalRootTable,
    center_check_plus,
    classify_triangle,
    maximal_finite_parabolics,
    parity,
    triangle_table,
)
from toricgroups.words import Word, free_reduce, invert

# golden table size for the hyperbolic (2,3,7) triangle, frozen from the
# first verified run (finiteness of the table is the point being exercised)
GOLDEN_237_MINIMAL_ROOTS = 12


def test_minimal_roots_equal_positive_roots_when_finite():
    # finite systems: the minimal roots are all positive roots
    assert len(root_table(3, 2, 3)) == 6 == positive_roots(3, 2, 3)
    assert len(root_table(4, 2, 3)) == 9 == positive_roots(4, 2, 3)
    assert len(root_table(2, 3, 5)) == 15 == positive_roots(2, 3, 5)
    assert len(root_table(2, 2, 5)) == 6 == positive_roots(2, 2, 5)


def test_minimal_root_table_hyperbolic_is_finite():
    assert len(root_table(2, 3, 7)) == GOLDEN_237_MINIMAL_ROOTS


@pytest.mark.parametrize("k,n,m", [(2, 3, 7), (3, 4, 5), (4, 5, 6), (3, 3, 3), (2, 3, 5), (7, 8, 9)])
def test_root_coordinates_have_integer_coefficients(k, n, m):
    # 2B keeps every root in Z[zeta_N]: no division, so no Fraction
    roots = root_table(k, n, m).roots
    assert all(type(x) is int for root in roots for coord in root for x in coord.coeffs)


# (root count, the first 16 hex digits of the sha256 of repr((roots, action)))
# of the tables of the benchmark's `wp coxeter` and `wp toric` triangles,
# with each root as the tuple of its coordinates' canonical coefficients
ROOT_TABLE_DIGESTS = {
    (2, 3, 7): (12, "e70087903e133379"), (3, 4, 5): (9, "c644b29bc756e7da"), (4, 5, 6): (12, "2679a4207e756e1e"),
    (3, 3, 3): (6, "4b0c149e5be72bb8"), (2, 3, 5): (15, "d4e9b1025f02f2f0"), (6, 2, 3): (12, "6fac7792cd7e7317"),
    (5, 2, 3): (15, "dd968612f8df8d45"), (4, 2, 3): (9, "9c92f7fd58d495e4"),
}


@pytest.mark.parametrize("k,n,m", sorted(ROOT_TABLE_DIGESTS))
def test_root_tables_keep_their_canonical_forms_and_order(k, n, m):
    # a kernel change that moves a canonical form or the order of the roots fails here
    table = root_table(k, n, m)
    roots = tuple(tuple(coord.coeffs for coord in root) for root in table.roots)
    text = repr((roots, tuple(map(tuple, table.action))))
    assert (len(roots), hashlib.sha256(text.encode()).hexdigest()[:16]) == ROOT_TABLE_DIGESTS[k, n, m]


def test_a_table_builds_its_alphabet_once():
    table = root_table(2, 3, 7)
    w = table.alphabet.word("r2 r1 r3 r1")
    assert table.nf(w).alphabet is table.alphabet
    assert table.nf(w).alphabet is table.alphabet


def test_defining_relations_die():
    table = root_table(6, 2, 3)
    ab = table.cm.alphabet()
    assert table.is_identity(ab.word("r1 r2") ** 6)
    assert table.is_identity(ab.word("r2 r3") ** 2)
    assert table.is_identity(ab.word("r3 r1") ** 3)
    assert not table.is_identity(ab.word("r1 r2") ** 3)


@pytest.mark.parametrize("k,n,m", [(3, 2, 3), (6, 2, 3), (2, 3, 7), (4, 2, 5)])
def test_r1r3_has_order_m(k, n, m):
    table = root_table(k, n, m)
    ab = table.cm.alphabet()
    w = ab.word("r1 r3")
    for j in range(1, m):
        assert not table.is_identity(w**j)
    assert table.is_identity(w**m)


def test_nf_examples():
    table = root_table(3, 2, 3)
    ab = table.cm.alphabet()
    assert str(table.nf(ab.word("1"))) == "1"
    assert str(table.nf(ab.word("r2 r2"))) == "1"
    assert str(table.nf(ab.word("r1^-1"))) == "r1"  # involutions


def test_nf_soundness_random_words():
    table = root_table(2, 3, 7)
    ab = table.cm.alphabet()
    rng = random.Random(0)
    for _ in range(100):
        w = Word(ab, tuple(rng.choice([1, 2, 3]) for _ in range(rng.randrange(0, 25))))
        normal = table.nf(w)
        assert table.is_identity(free_reduce(w * invert(normal)))
        # normal forms are stable
        assert table.nf(normal) == normal


@pytest.mark.parametrize("k,n,m", [(2, 3, 7), (6, 2, 3), (3, 4, 5)])
def test_powers_have_distinct_normal_forms_in_infinite_triangles(k, n, m):
    table = root_table(k, n, m)
    ab = table.cm.alphabet()
    w = ab.word("r1 r3")
    forms = {str(table.nf(w**j)) for j in range(m)}
    assert len(forms) == m
    assert table.is_identity(free_reduce(w**5 * invert(w**5)))


@pytest.mark.parametrize("k,n,m", [(3, 2, 3), (2, 2, 3), (2, 2, 5), (2, 2, 7), (2, 2, 9)])
def test_nf_equality_matches_cayley_exhaustively(k, n, m):
    table = root_table(k, n, m)
    cay = triangle_cayley(k, n, m)
    forms = [str(table.nf(cay.words[e])) for e in range(cay.size)]
    assert len(set(forms)) == cay.size
    for e in range(cay.size):
        assert len(table.nf(cay.words[e]).letters) == cay.length(e)


@pytest.mark.parametrize("k,n,m", [(4, 2, 3), (2, 3, 5)])
def test_nf_equality_matches_cayley_random_pairs(k, n, m):
    table = root_table(k, n, m)
    cay = triangle_cayley(k, n, m)
    ab = table.cm.alphabet()
    rng = random.Random(42)
    for _ in range(1000):
        u = Word(ab, tuple(rng.choice([1, 2, 3]) for _ in range(rng.randrange(0, 14))))
        v = Word(ab, tuple(rng.choice([1, 2, 3]) for _ in range(rng.randrange(0, 14))))
        assert (table.nf(u) == table.nf(v)) == (cay.eval(u) == cay.eval(v))


def test_length_counts_match_brute_force():
    # number of elements of each length (Poincare series prefix)
    for k, n, m in [(3, 2, 3), (4, 2, 3)]:
        table = root_table(k, n, m)
        cay = triangle_cayley(k, n, m)
        from collections import Counter

        by_nf = Counter(len(table.nf(cay.words[e]).letters) for e in range(cay.size))
        by_bfs = Counter(cay.length(e) for e in range(cay.size))
        assert by_nf == by_bfs


def test_parity():
    ab = CoxeterMatrix.triangle(2, 3, 7).alphabet()
    assert parity(ab.word("r1 r2")) == "even"
    assert parity(ab.word("r1")) == "odd"


def test_parity_is_homomorphism():
    ab = CoxeterMatrix.triangle(2, 3, 7).alphabet()
    rng = random.Random(3)
    for _ in range(50):
        u = Word(ab, tuple(rng.choice([1, 2, 3]) for _ in range(rng.randrange(0, 9))))
        v = Word(ab, tuple(rng.choice([1, 2, 3]) for _ in range(rng.randrange(0, 9))))
        lhs = parity(u * v) == "even"
        rhs = (parity(u) == "even") == (parity(v) == "even")
        assert lhs == rhs


def test_classify_triangle():
    assert classify_triangle(2, 3, 5) == "spherical"
    assert classify_triangle(2, 3, 6) == "affine"
    assert classify_triangle(2, 3, 7) == "hyperbolic"


def test_phi_images_have_even_parity():
    from toricgroups.maps import build_phi

    phi = build_phi(3, 2, 3)
    for i in (1, 2):
        assert parity(image_of(phi.genmap, f"x{i}")) == "even"


def test_maximal_finite_parabolics_infinite_triangle():
    report = maximal_finite_parabolics(CoxeterMatrix.triangle(6, 2, 3))
    assert list(report.maximal_finite) == [(0, 1), (0, 2), (1, 2)]
    assert report.orders_multiset() == [2, 3, 6]


def test_maximal_finite_parabolics_finite_triangle():
    report = maximal_finite_parabolics(CoxeterMatrix.triangle(2, 3, 5))
    assert list(report.maximal_finite) == [(0, 1, 2)]


def test_maximal_finite_parabolics_affine():
    report = maximal_finite_parabolics(CoxeterMatrix.triangle(2, 3, 6))
    assert list(report.maximal_finite) == [(0, 1), (0, 2), (1, 2)]
    assert report.orders_multiset() == [2, 3, 6]


def test_parabolic_verdicts_match_matrix_closure():
    report = maximal_finite_parabolics(CoxeterMatrix.triangle(4, 2, 3))
    verdicts = dict(report.verdicts)
    assert verdicts[(0, 1, 2)] is True
    assert matrix_group_order(4, 2, 3) == 48


def test_parabolic_closed_form_matches_gram_oracle():
    systems = [CoxeterMatrix.triangle(k, n, m)
               for k in range(2, 7) for n in range(2, 7) for m in range(2, 7)]
    assert len(systems) == 125
    inf = None
    systems += [
        CoxeterMatrix(((1,),)),
        CoxeterMatrix(((1, 2), (2, 1))),
        CoxeterMatrix(((1, 7), (7, 1))),
        CoxeterMatrix(((1, inf), (inf, 1))),
        CoxeterMatrix(((1, inf, 3), (inf, 1, 2), (3, 2, 1))),
        CoxeterMatrix(((1, 2, 3), (2, 1, inf), (3, inf, 1))),
        CoxeterMatrix(((1, 2, inf), (2, 1, inf), (inf, inf, 1))),
        CoxeterMatrix(((1, inf, inf), (inf, 1, inf), (inf, inf, 1))),
    ]
    for cm in systems:
        report = maximal_finite_parabolics(cm)
        verdicts = gram_parabolic_verdicts(cm.labels)
        assert report.verdicts == verdicts, cm.labels
        finite = [j for j, ok in verdicts if ok]
        maximal = [j for j in finite if not any(set(j) < set(big) for big in finite)]
        assert list(report.maximal_finite) == maximal, cm.labels


def test_parabolics_reject_rank_four():
    labels = tuple(tuple(1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(4)) for i in range(4))
    with pytest.raises(ValueError):
        maximal_finite_parabolics(CoxeterMatrix(labels))


def test_center_check_plus_examples():
    r = center_check_plus(CoxeterMatrix.triangle(3, 2, 3))
    assert (r.z_w_plus_order, r.z_w_order, r.contained) == (1, 1, True)

    r = center_check_plus(CoxeterMatrix.triangle(4, 2, 3))
    assert (r.z_w_plus_order, r.z_w_order, r.contained) == (1, 2, True)
    assert sorted(r.z_w_lengths) == [0, 9]  # the long element, odd length

    r = center_check_plus(CoxeterMatrix.triangle(2, 2, 5))
    assert (r.z_w_plus_order, r.z_w_order, r.contained) == (1, 2, True)
    assert sorted(r.z_w_lengths) == [0, 1]  # generated by a simple reflection


@pytest.mark.parametrize("k,n,m", FINITE_TRIANGLES)
def test_center_check_plus_matches_the_pairwise_brute_force(k, n, m):
    r = center_check_plus(CoxeterMatrix.triangle(k, n, m))
    cay = triangle_cayley(k, n, m)
    assert r.z_w_plus_order == reference_center_plus_order(cay)
    assert r.z_w_order == len(reference_center(cay))


def test_center_check_rejects_infinite():
    with pytest.raises(ValueError):
        center_check_plus(CoxeterMatrix.triangle(2, 3, 7))


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterMatrix(((1, 2), (3, 1)))
    with pytest.raises(ValueError):
        CoxeterMatrix(((2, 2), (2, 2)))


def test_spherical_triangles_are_the_finite_toric_rows():
    # with gcd(n, m) = 1, W(k,n,m) is finite exactly when its triangle is
    # spherical, the test `derive` applies to every row
    for k in range(2, 40):
        for n in range(2, 40):
            for m in range(2, 40):
                if gcd(n, m) == 1:
                    assert (classify_triangle(k, n, m) == "spherical") == (finite_toric(k, n, m) is not None), (k, n, m)


def test_classify_reads_the_parabolic_orders_off_the_labels():
    # classify and sweep name the rotation orders of the three edges without
    # building the Coxeter matrix; that holds because a row is infinite
    # exactly when its triangle is not spherical
    rows = 0
    for k in range(2, 13):
        for n in range(2, 30):
            for m in range(n + 1, 31):
                if gcd(n, m) != 1:
                    continue
                infinite = finite_toric(k, n, m) is None
                assert infinite == (classify_triangle(k, n, m) != "spherical"), (k, n, m)
                if infinite:
                    result, status, _ = classify_toric(k, n, m, max_cosets=1)
                    report = maximal_finite_parabolics(CoxeterMatrix.triangle(k, n, m))
                    assert (status, result["maximal_finite_cyclic_orders"]) == ("ok", report.orders_multiset())
                    rows += 1
    assert rows > 2500


# --- replayed prefix states against the rescanning reference -----------------

# label-2 edges, spherical, affine and hyperbolic triangles
DIFF_TRIANGLES = [(2, 2, 5), (2, 3, 3), (2, 3, 5), (2, 3, 6), (2, 3, 7), (3, 3, 3), (3, 4, 5), (4, 5, 6), (7, 8, 9)]
# r1 r2 has infinite order; the other edges are labelled 3 and 4
INFINITE_EDGE = MinimalRootTable(CoxeterMatrix(((1, None, 3), (None, 1, 4), (3, 4, 1))))


coxeter_words = st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=400)


@settings(max_examples=60)
@given(st.sampled_from(DIFF_TRIANGLES), coxeter_words)
def test_nf_and_reduce_word_match_rescanning_reference(tri, letters):
    table = root_table(*tri)
    w = Word(table.cm.alphabet(), tuple(letters))
    assert table.reduce_word(w) == reference_reduce_word(table, w)
    assert table.nf(w) == reference_nf(table, w)


@settings(max_examples=40)
@given(coxeter_words)
def test_nf_matches_reference_with_an_infinite_label(letters):
    w = Word(INFINITE_EDGE.cm.alphabet(), tuple(letters))
    assert INFINITE_EDGE.reduce_word(w) == reference_reduce_word(INFINITE_EDGE, w)
    assert INFINITE_EDGE.nf(w) == reference_nf(INFINITE_EDGE, w)


class CountedRows(list):
    """A list of table rows that counts how often a row is read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_replay_steps_grow_linearly_on_padded_words():
    # a reintroduced full rescan costs about (reduced length)^2 / 2 = 180,000
    # steps here; replaying prefix states costs a small multiple of the letters
    table = MinimalRootTable(CoxeterMatrix.triangle(4, 5, 6))  # an automaton of its own
    labels = {frozenset((0, 1)): 4, frozenset((1, 2)): 5, frozenset((0, 2)): 6}
    rng = random.Random(11)
    word = [rng.randrange(3)]
    while len(word) < 600:
        word.append(rng.choice([s for s in range(3) if s != word[-1]]))
    while len(word) < 1200:  # pad with relators (s t)^m(s,t)
        s, t = rng.sample(range(3), 2)
        at = rng.randrange(1, len(word))
        if word[at - 1] != s and word[at] != t:
            word[at:at] = [s, t] * labels[frozenset((s, t))]
    w = Word(table.cm.alphabet(), tuple(x + 1 for x in word))
    expected = reference_nf(table, w)
    assert table.nf(w) == expected  # fills every transition this word takes

    # with the memo full, a transition is one read of _next and a walk-back
    # step one read of action
    table._next = transitions = CountedRows(table._next)
    table.action = walk_back = CountedRows(table.action)
    assert table.nf(w) == expected
    assert 0 < walk_back.reads and 0 < transitions.reads
    assert transitions.reads + walk_back.reads < 4 * len(w.letters)


# --- one table per triangle ----------------------------------------------------


def test_triangle_table_is_built_once():
    assert triangle_table(3, 4, 5) is triangle_table(3, 4, 5)
    assert triangle_table(3, 4, 5) is not triangle_table(4, 5, 6)


def test_shared_tables_answer_like_fresh_ones():
    # a shared table answers from transitions that earlier words filled in;
    # a fresh table fills its own from the empty set
    rng = random.Random(7)
    shared = [triangle_table(*tri) for tri in [(2, 3, 7), (3, 4, 5), (4, 5, 6), (2, 2, 5)]] + [INFINITE_EDGE]
    for _ in range(60):
        table = rng.choice(shared)
        w = Word(table.cm.alphabet(), tuple(rng.choice([1, 2, 3]) for _ in range(rng.randrange(0, 401))))
        assert table.nf(w) == MinimalRootTable(table.cm).nf(w)


def test_finite_automaton_has_at_most_one_state_per_element():
    # in a finite group the set of roots a reduced word sends negative
    # determines its element, so H3 (order 120) has at most 120 states
    table = MinimalRootTable(CoxeterMatrix.triangle(2, 3, 5))
    rng = random.Random(3)
    for _ in range(300):
        table.nf(Word(table.cm.alphabet(), tuple(rng.choice([1, 2, 3]) for _ in range(rng.randrange(0, 60)))))
    assert len(table._sets) == len(table._ids) == len(table._next) <= 120


def test_triangle_table_caches_no_rejected_input():
    before = triangle_table.cache_info().currsize
    for labels in [(11, 13, 15), (1000, 999, 997), (1, 3, 4)]:
        with pytest.raises(ValueError):
            triangle_table(*labels)
    assert triangle_table.cache_info().currsize == before


def test_root_table_refuses_past_the_degree_cap_before_allocating(monkeypatch):
    # the table checks its own modulus: no caller has to check it first
    def allocating(*args):
        raise AssertionError("a cyclotomic value was built past the degree cap")

    monkeypatch.setattr(cyclo.Cyc, "__init__", allocating)
    with pytest.raises(ValueError, match="labels 11, 13, 15 need cyclotomic modulus N = 4290"):
        MinimalRootTable(CoxeterMatrix.triangle(11, 13, 15))


def test_root_table_asserts_on_a_tampered_sign(monkeypatch):
    # a sign that always reads +1 makes every inner product with a simple root look >= 1
    monkeypatch.setattr(coxeter, "sign_real", lambda x: 1)
    with pytest.raises(AssertionError, match="minimal root with inner product >= 1"):
        MinimalRootTable(CoxeterMatrix.triangle(2, 3, 5))


def test_degree_cap_bounds_phi_of_the_modulus():
    # every triangle of the goldens and the benchmark is accepted
    for labels in [(7, 8, 9), (3, 4, 5), (4, 5, 6), (2, 3, 7), (6, 2, 3), (2, 3, 5), (3, 3, 3), (2, 2, 5)]:
        assert cyclo.label_modulus(*labels) == lcm(*(2 * v for v in labels))
    assert cyclo.label_modulus(9, 11, 13) == 2574  # phi = 720, the cap
    assert cyclo.label_modulus(7, 9, 25) == 3150  # phi = 720 at the largest modulus
    with pytest.raises(ValueError, match="phi"):
        cyclo.label_modulus(11, 13, 15)  # phi(4290) = 960
    with pytest.raises(ValueError, match="phi"):
        cyclo.label_modulus(10**40, 3, 5)  # refused without factoring
    for n in range(1, 1000):
        assert cyclo._degree(n) == sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)
