import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from conftest import FINITE_TRIANGLES, FROZEN_TORIC_ORDERS, parent_cayley, toric_cayley, triangle_cayley
from oracles import (
    involutions,
    matrix_group_order,
    naive_order,
    reference_center,
    reference_conjugacy_class_ids,
    reference_felsch,
    reference_hlt,
    reference_normal_closure,
    reference_transversal,
    standardize,
)

from toricgroups import classify, cosets, presentations as pres
from toricgroups.classify import finite_quotient
from toricgroups.cosets import (
    CayleyTable,
    _columns,
    _validate,
    group_order,
    normal_closure_table,
    reflection_class_count,
    todd_coxeter,
)
from toricgroups.presentations import FamilyParams, Presentation
from toricgroups.words import Alphabet, Word, free_reduce


def test_toric_323_order_against_oracle():
    p = pres.toric(3, 2, 3)
    assert naive_order(p) == 24
    table = todd_coxeter(p)
    assert table.complete and table.num_cosets == 24


def test_all_finite_rows_match_oracle(finite_rows):
    for k, n, m in finite_rows:
        p = pres.toric(k, n, m)
        engine = group_order(p)
        oracle = naive_order(p)
        assert engine == oracle == FROZEN_TORIC_ORDERS[(k, n, m)], (k, n, m)


def test_hlt_and_felsch_agree(finite_rows):
    for k, n, m in finite_rows:
        p = pres.toric(k, n, m)
        assert group_order(p) == todd_coxeter(p, strategy="felsch").num_cosets


def test_subgroup_index():
    p = pres.j_parent(2, 3, 5)
    table = normal_closure_table(p, [p.alphabet.word("s")])
    assert table.complete and table.num_cosets == 15


FINITE_PARENTS = [(2, 3, 4), (2, 3, 5), (3, 2, 3), (4, 2, 3), (5, 2, 3), (3, 2, 5)]
FINITE_CENTER_PARENTS = [(2, 3, 4), (3, 2, 3), (2, 3, 5)]


def test_normal_closure_matches_conjugate_adjunction():
    # the quotient table has the rows of the round loop's table, entry for entry
    for abc in FINITE_PARENTS:
        p = pres.j_parent(*abc)
        seeds = [p.alphabet.word("s")]
        assert normal_closure_table(p, seeds).columns == reference_normal_closure(p, seeds).columns, abc
    # and the index for conjugate seeds and several seeds at once
    cases = [
        (pres.j_parent(2, 3, 4), ["t s t^-1", "u^-1 s u"]),
        (pres.j_parent(3, 2, 3), ["t u s t^-1"]),
        (pres.j_parent(3, 2, 3), ["s", "t"]),
        (pres.toric(3, 2, 3), ["x1 x2"]),
        (pres.toric(3, 2, 3), ["x2^-1 x1 x2"]),
        (pres.toric(2, 3, 4), ["x1 x2^-1", "x3^2"]),
        (pres.coxeter_triangle(2, 3, 4), ["r1 r2"]),
        (pres.coxeter_triangle(2, 3, 5), ["r1 r2 r3", "r2 r3 r1"]),
    ]
    for p, texts in cases:
        seeds = [p.alphabet.word(w) for w in texts]
        for strategy in ("hlt", "felsch"):
            table = normal_closure_table(p, seeds, strategy=strategy)
            reference = reference_normal_closure(p, seeds, strategy=strategy)
            assert table.complete and reference.complete
            assert table.num_cosets == reference.num_cosets, (texts, strategy)


def test_strategies_agree_on_subgroup_enumerations():
    p = pres.j_parent(2, 3, 4)
    gens = [p.alphabet.word(w) for w in ("s", "t s t^-1", "u s u^-1")]
    hlt = todd_coxeter(p, gens)
    felsch = todd_coxeter(p, gens, strategy="felsch")
    assert hlt.num_cosets == felsch.num_cosets
    for t in (hlt, felsch):
        for g in gens:
            assert t.trace(0, g) == 0


def _random_presentation(rng: random.Random) -> tuple[Presentation, list[Word]]:
    n = rng.randint(1, 3)
    alphabet = Alphabet([f"g{i}" for i in range(1, n + 1)])

    def word(max_len: int) -> Word:
        return Word(alphabet, tuple(rng.choice((1, -1)) * rng.randint(1, n)
                                    for _ in range(rng.randint(1, max_len))))
    relators = tuple(word(8) for _ in range(rng.randint(n, n + 3)))
    subgens = [word(4)] if rng.random() < 0.3 else []
    return Presentation(alphabet, relators), subgens


def _same_table(p: Presentation, table, reference) -> bool:
    """Entry for entry; in standard numbering when an involution's one
    column changes the order in which the cosets are defined."""
    if involutions(p):
        return standardize(table.columns) == standardize(reference.columns)
    return table.columns == reference.columns


def test_enumeration_matches_reference(finite_rows):
    # complete tables equal the original engines', under both strategies:
    # entry for entry, or in standard numbering on a presentation with an
    # involution
    references = {"hlt": reference_hlt, "felsch": reference_felsch}
    cases = [(pres.j_parent(*abc), []) for abc in FINITE_PARENTS]
    cases += [(pres.toric(*kmn), []) for kmn in finite_rows]
    cases += [(pres.coxeter_triangle(*t), []) for t in ((2, 3, 4), (2, 3, 5))]
    cases += [(p, [p.alphabet.word("s")]) for p in (pres.j_parent(2, 3, 4), pres.j_parent(3, 2, 3))]
    for strategy, reference_engine in references.items():
        for p, subgens in cases:
            table = todd_coxeter(p, subgens, strategy=strategy)
            reference = reference_engine(p, subgens)
            assert table.complete and _same_table(p, table, reference), (p, strategy)
    # random presentations at a small bound: a complete reference table is
    # reproduced, and no lookahead cutoff turns one of these into an
    # overflow.  An HLT overflow at the first lookahead, with more than the
    # bound still live, is the reference's overflow table when no
    # involution changes the walk; a Felsch overflow passes the bound by at
    # most one row.
    rng = random.Random(5)
    bound = 100
    first_lookahead_overflows = 0
    for _ in range(1000):
        p, subgens = _random_presentation(rng)
        for strategy, reference_engine in references.items():
            table = todd_coxeter(p, subgens, bound, strategy)
            reference = reference_engine(p, subgens, bound)
            if reference.complete:
                assert table.complete and _same_table(p, table, reference), (p, strategy)
            elif strategy == "felsch":
                assert not table.complete and bound < table.num_cosets <= bound + 2 * len(p.alphabet), p
            else:
                assert not table.complete, p
                if table.stats.lookahead_passes == 1 and table.num_cosets > bound and not involutions(p):
                    assert table.columns == reference.columns, p
                    first_lookahead_overflows += 1
    assert first_lookahead_overflows == 31


@st.composite
def small_presentations(draw) -> Presentation:
    n = draw(st.integers(1, 3))
    letter = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=8), min_size=n, max_size=n + 3))
    alphabet = Alphabet([f"g{i}" for i in range(1, n + 1)])
    return Presentation(alphabet, tuple(Word(alphabet, tuple(w)) for w in words))


def test_an_involution_has_one_column_and_an_involutive_permutation(finite_rows):
    # the enumerator's one list serves both columns of an involution, and
    # the table it leaves is the action of an element of order at most 2
    cases = [(pres.toric(*kmn), []) for kmn in finite_rows]
    cases += [(pres.j_parent(*abc), []) for abc in FINITE_PARENTS]
    cases += [(pres.coxeter_triangle(*t), []) for t in ((2, 3, 4), (2, 3, 5), (2, 2, 7))]
    cases += [(pres.alt_plus(2, 3, 5), [])]
    cases += [(p, [p.alphabet.word("s")]) for p in (pres.j_parent(2, 3, 4), pres.j_parent(3, 2, 3))]
    rng = random.Random(7)
    while len(cases) < 400:
        p, subgens = _random_presentation(rng)
        if involutions(p):
            cases.append((p, subgens))
    seen = 0
    for p, subgens in cases:
        e = cosets._Enumerator(p, subgens, 200, "hlt")
        shared = {g for g in range(1, len(p.alphabet) + 1) if e.cols[2 * g - 2] is e.cols[2 * g - 1]}
        assert shared == involutions(p), p
        for strategy in ("hlt", "felsch"):
            table = todd_coxeter(p, subgens, 200, strategy)
            if not table.complete:
                continue
            seen += 1
            columns = table.columns
            for g in involutions(p):
                column = columns[2 * g - 2]
                assert columns[2 * g - 1] == column, (p, g)
                assert all(column[column[c]] == c for c in range(table.num_cosets)), (p, g)
    assert seen > 400


@given(small_presentations(), st.integers(20, 200))
def test_felsch_pushes_one_deduction_per_definition(p, bound):
    # a new edge a -> b and its mirror b -> a lie on the same relator
    # cycles, so checking the rotations at b alone, from the inverse
    # column, leaves the same table as checking both ends
    define = cosets._Enumerator.define

    def define_and_push(self, a, col):
        if self.deductions is not None:
            self.deductions.append((a, col))
        return define(self, a, col)

    table = todd_coxeter(p, (), bound, "felsch")
    with mock.patch.object(cosets._Enumerator, "define", define_and_push):
        both = todd_coxeter(p, (), bound, "felsch")
    assert (table.columns, table.num_cosets, table.status) == (both.columns, both.num_cosets, both.status)
    assert table.stats == both.stats


@given(small_presentations())
def test_strategies_agree_with_naive_closure(p):
    bound = 64
    relcols = [_columns(free_reduce(r)) for r in p.relators]
    orders = set()
    for strategy in ("hlt", "felsch"):
        table = todd_coxeter(p, (), bound, strategy)
        if table.complete:
            _validate(table, relcols, [])
            orders.add(table.num_cosets)
    oracle = naive_order(p, cap=bound)
    if oracle is not None:
        orders.add(oracle)
    assert len(orders) <= 1, orders


# each table is broken for one refusal of `_validate`: one generator a, whose
# columns are a and a^-1, on three cosets; a^3 acts trivially, a^2 does not
_A = Alphabet(["a"])
_ROTATE = ((1, 2, 0), (2, 0, 1))


@pytest.mark.parametrize("columns,relcols,subcols,message", [
    (((1, 2, None), (2, 0, 1)), [(0, 0, 0)], [], "incomplete row in complete table"),
    (((0, 0, 2), (0, 1, 2)), [], [], "column is not a permutation"),
    (((0, 1, 5), (0, 1, 2)), [], [], "column is not a permutation"),
    (_ROTATE, [(0, 0, 0), (0, 0)], [], "relator does not act trivially"),
    (_ROTATE, [(0, 0, 0)], [(0,)], "subgroup generator moves coset 0"),
])
def test_validate_refuses_a_broken_table(columns, relcols, subcols, message):
    table = cosets.CosetTable(_A, columns, 3, "complete", 3, ())
    with pytest.raises(AssertionError, match=f"^{message}$"):
        _validate(table, relcols, subcols)


def test_validate_accepts_the_unbroken_table():
    _validate(cosets.CosetTable(_A, _ROTATE, 3, "complete", 3, ()), [(0, 0, 0), (1, 1, 1)], [(0, 0, 0)])


def test_overflow_is_a_value():
    table = todd_coxeter(pres.toric(6, 2, 3), max_cosets=10**4)
    assert table.status == "overflow"
    assert table.bound == 10**4
    assert group_order(pres.toric(6, 2, 3), max_cosets=10**4) is None
    # the bound is checked at the end of a row, which defines at most one
    # coset per column
    p = pres.toric(6, 2, 3)
    table = todd_coxeter(p, max_cosets=2000, strategy="felsch")
    assert table.status == "overflow" and table.bound == 2000
    assert 2000 < table.num_cosets <= 2000 + 2 * len(p.alphabet)


def fibonacci(r: int, n: int) -> Presentation:
    """Conway's Fibonacci group F(r, n): x_i ... x_{i+r-1} = x_{i+r}, indices mod n.

    F(2, 5) is cyclic of order 11, and HLT defines many more cosets than
    that on the way, so small bounds make it look ahead and compact in
    mid-walk."""
    ab = Alphabet([f"x{i}" for i in range(1, n + 1)])
    return Presentation(ab, tuple(Word(ab, tuple((i + j) % n + 1 for j in range(r)) + (-((i + r) % n + 1),))
                                  for i in range(n)))


def _presentation(family: str, labels: tuple[int, ...]) -> Presentation:
    return fibonacci(*labels) if family == "fibonacci" else getattr(pres, family)(*labels)


# (family, labels, subgroup, bound, strategy) -> (status, live cosets,
# (defined, coincidences, peak_live, lookahead_passes, lookahead_freed,
# compactions, deductions)), as the enumerator counts them: a change to the
# scan, the fill or the walk that alters any count shows here.  Every
# coxeter_triangle generator and s in j_parent are involutions, with one
# column each; toric (6, 2, 3) and F(2, 5) have none.
PINNED_STATS = [
    (("j_parent", (2, 3, 5), (), 10**6, "hlt"), ("complete", 3600, (4686, 1087, 3600, 0, 0, 1, 4811))),
    (("j_parent", (2, 3, 5), (), 10**6, "felsch"), ("complete", 3600, (3620, 21, 3600, 0, 0, 1, 5380))),
    (("j_parent", (2, 3, 4), ("s",), 10**6, "hlt"), ("complete", 288, (385, 98, 288, 0, 0, 1, 394))),
    (("j_parent", (2, 3, 4), ("s",), 10**6, "felsch"), ("complete", 288, (290, 3, 288, 0, 0, 1, 442))),
    (("toric", (6, 2, 3), (), 10**4, "hlt"), ("overflow", 9921, (10772, 852, 10005, 1, 84, 1, 6991))),
    (("toric", (6, 2, 3), (), 2000, "felsch"), ("overflow", 2002, (2001, 0, 2002, 0, 0, 1, 1262))),
    (("coxeter_triangle", (2, 3, 7), (), 10**4, "hlt"), ("overflow", 10008, (10007, 0, 10008, 1, 0, 1, 3816))),
    (("coxeter_triangle", (2, 3, 4), (), 52, "hlt"), ("complete", 48, (47, 0, 48, 0, 0, 1, 25))),
    (("fibonacci", (2, 5), (), 45, "hlt"), ("overflow", 45, (67, 23, 47, 2, 9, 2, 104))),
    (("fibonacci", (2, 5), (), 57, "hlt"), ("complete", 11, (83, 73, 59, 1, 48, 2, 94))),
]


@pytest.mark.parametrize("run, expected", PINNED_STATS,
                         ids=["-".join(map(str, (f, *labels, *texts, bound, strategy)))
                              for (f, labels, texts, bound, strategy), _ in PINNED_STATS])
def test_enum_stats_are_pinned(run, expected):
    family, labels, texts, bound, strategy = run
    p = _presentation(family, labels)
    table = todd_coxeter(p, [p.alphabet.word(w) for w in texts], bound, strategy)
    stats = table.stats
    assert (table.status, table.num_cosets, (stats.defined, stats.coincidences, stats.peak_live,
            stats.lookahead_passes, stats.lookahead_freed, stats.compactions, stats.deductions)) == expected


def test_enum_stats_repeat_and_count_the_live_cosets():
    for (family, labels, texts, bound, strategy), _ in PINNED_STATS:
        p = _presentation(family, labels)
        subgens = [p.alphabet.word(w) for w in texts]
        table = todd_coxeter(p, subgens, bound, strategy)
        stats = table.stats
        assert todd_coxeter(p, subgens, bound, strategy).stats == stats
        assert 1 + stats.defined - stats.coincidences == table.num_cosets, (p, strategy)
        assert stats.peak_live >= table.num_cosets
        # a compaction after each lookahead that lets the walk go on, and one at the end
        ended_by_lookahead = strategy == "hlt" and not table.complete
        assert stats.compactions == stats.lookahead_passes - ended_by_lookahead + 1
        if strategy == "felsch":
            assert stats.lookahead_passes == stats.lookahead_freed == 0
        if not table.complete:
            assert stats.peak_live > bound


def test_an_overflow_is_not_renumbered_until_its_columns_are_read(monkeypatch):
    # enumerate reads only an overflow's count, so the final compaction
    # that stats.compactions counts waits for the first read of columns
    compact, finish = cosets._Enumerator.compact, cosets._Enumerator.finish
    calls, tables = [], []
    monkeypatch.setattr(cosets._Enumerator, "compact",
                        lambda self, pointer=0: calls.append(pointer) or compact(self, pointer))
    monkeypatch.setattr(cosets._Enumerator, "finish",
                        lambda self, *args: tables.append(finish(self, *args)) or tables[-1])
    result, status, _ = cosets.enumerate_record(FamilyParams("coxeter-triangle", (2, 3, 7)), "", False, "hlt",
                                                10**4)
    (table,) = tables
    assert (status, result["cosets"], table.status) == ("unknown", 10008, "overflow")
    assert calls == [] and table.stats.compactions == 1
    # F(2, 5) compacts once in mid-walk, after its first lookahead, and
    # overflows at its second
    table = todd_coxeter(fibonacci(2, 5), max_cosets=45)
    assert table.status == "overflow" and table.stats.compactions == 2
    assert len(calls) == table.stats.compactions - 1
    columns = table.columns
    assert table.columns is columns
    assert len(calls) == table.stats.compactions
    assert all(len(column) == table.num_cosets == 45 for column in columns)
    # a complete table is renumbered at once, to be validated
    calls.clear()
    table = todd_coxeter(pres.j_parent(2, 3, 5))
    assert table.complete and len(calls) == table.stats.compactions
    assert table.columns is table.columns


def test_lookahead_that_frees_under_a_tenth_ends_the_enumeration():
    # the second lookahead leaves more than 9/10 of the bound live: overflow,
    # with fewer rows than the bound
    table = todd_coxeter(fibonacci(2, 5), max_cosets=45)
    assert table.status == "overflow" and table.stats.lookahead_passes == 2
    assert 10 * table.num_cosets > 9 * 45 and table.num_cosets == 45
    # a lookahead that frees more than a tenth lets the walk go on: F(2, 5),
    # cyclic of order 11, has a peak of 92 live cosets
    table = todd_coxeter(fibonacci(2, 5), max_cosets=57)
    assert table.complete and table.num_cosets == 11
    assert table.stats.lookahead_passes == 1 and table.stats.lookahead_freed == 48


@given(small_presentations(), st.integers(20, 200))
def test_lookahead_from_the_pointer_equals_a_lookahead_over_the_whole_table(p, bound):
    # the rows behind the walk's pointer have closed relator paths, so a
    # lookahead that also scans them changes nothing: the same table, the
    # same stopping point and the same counts
    lookahead = cosets._Enumerator.lookahead
    table = todd_coxeter(p, (), bound, "hlt")
    with mock.patch.object(cosets._Enumerator, "lookahead", lambda self, start: lookahead(self, 0)):
        whole = todd_coxeter(p, (), bound, "hlt")
    assert (table.columns, table.num_cosets, table.status) == (whole.columns, whole.num_cosets, whole.status)
    assert table.stats == whole.stats


def test_coxeter_triangle_order_against_matrix_closure():
    assert group_order(pres.coxeter_triangle(4, 2, 3)) == 48 == matrix_group_order(4, 2, 3)
    assert group_order(pres.coxeter_triangle(3, 2, 3)) == 24 == matrix_group_order(3, 2, 3)


def test_alt_plus_order():
    assert group_order(pres.alt_plus(2, 3, 5)) == 60


def test_complete_table_properties():
    table = todd_coxeter(pres.toric(2, 3, 4))
    n = table.num_cosets
    # every column is a permutation and every relator traces to the identity
    for col in range(2 * len(table.alphabet)):
        assert sorted(table.columns[col]) == list(range(n))
    for r in pres.toric(2, 3, 4).relators:
        for c in range(n):
            assert table.trace(c, r) == c


def test_transversal_words_are_geodesic_spanning():
    table = todd_coxeter(pres.toric(3, 2, 3))
    reps = CayleyTable(table).words
    assert len(reps) == table.num_cosets
    assert reps[0].letters == ()
    for c, rep in enumerate(reps):
        assert table.trace(0, rep) == c
    # the tree paths, spelled, are the words a BFS over the same columns finds
    assert list(reps) == reference_transversal(table, [0, 2, 1, 3])


# --- Cayley table ------------------------------------------------------------


def test_cayley_table_builds_its_words_on_first_use(monkeypatch):
    # derive builds no Cayley table (its table of ncl(s) is written down);
    # the table of each row is built once per process, so another test may
    # already have filled the tree of the shared (3,2,3) table
    classify.finite_quotient.cache_clear()
    built = []
    tree = cosets.bfs_tree
    monkeypatch.setattr(cosets, "bfs_tree", lambda t, order: built.append(t) or tree(t, order))
    assert classify.derive(2, 3, 4, 10**6, 10_000)[0]["order"] == 48
    cay = finite_quotient(3, 2, 3, 10**6)
    assert (cay.size, built) == (24, [])
    # the conjugations read the tree and spell no word
    assert len(cay.center()) == 2 and "words" not in vars(cay)
    assert built == [cay.table]
    assert cay.table.trace(5, cay.words[7]) == cay.eval(cay.words[5] * cay.words[7])
    assert cay.length(cay.eval(cay.words[5].inverse())) == cay.length(5)
    assert built == [cay.table]  # one BFS for the conjugations and the words


def check_group_axioms(cay: CayleyTable, samples: int, seed: int) -> None:
    """Every element's identity and inverse laws, and associativity on
    random triples; i * j is element i traced along the word of j."""
    rng = random.Random(seed)

    def mul(i: int, j: int) -> int:
        return cay.table.trace(i, cay.words[j])

    for i in range(cay.size):
        if mul(i, 0) != i or mul(0, i) != i:
            raise AssertionError("identity fails")
        j = cay.eval(cay.words[i].inverse())
        if mul(i, j) != 0 or mul(j, i) != 0:
            raise AssertionError("inverse fails")
    for _ in range(samples):
        a, b, c = (rng.randrange(cay.size) for _ in range(3))
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            raise AssertionError("associativity fails")


def test_cayley_validates_group_axioms():
    cay = toric_cayley(3, 2, 3)
    check_group_axioms(cay, samples=128, seed=1)


def test_full_multiplication_table_on_a_small_group():
    cay = toric_cayley(3, 2, 3)
    n = cay.size
    table = [[cay.table.trace(i, cay.words[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        assert table[0][i] == i and table[i][0] == i
        assert sorted(table[i]) == list(range(n))  # Latin square rows
    # total associativity at this size
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                assert table[ab][c] == table[a][table[b][c]]


def test_element_orders():
    cay = toric_cayley(3, 2, 3)
    ab = cay.alphabet
    assert cay.order_of(ab.word("x1 x2")) == 6
    assert cay.order_of(ab.word("1")) == 1


def test_generator_order_is_k(finite_rows):
    for k, n, m in finite_rows[:6]:
        cay = toric_cayley(k, n, m)
        assert cay.order_of(cay.alphabet.word("x1")) == k


def test_conjugacy_class_ids_match_the_word_tracing_reference(finite_rows):
    cases = [toric_cayley(k, n, m) for k, n, m in finite_rows] + [parent_cayley(*abc) for abc in FINITE_PARENTS]
    for cay in cases:
        assert cay.conjugacy_class_ids() == reference_conjugacy_class_ids(cay), cay.alphabet


def test_reflection_class_counts():
    assert reflection_class_count(toric_cayley(3, 2, 3)) == 2
    assert reflection_class_count(toric_cayley(2, 3, 4)) == 1
    assert reflection_class_count(parent_cayley(2, 3, 3)) == 5


def _odd_label_components(k: int, n: int, m: int) -> int:
    # r_i and r_j are conjugate iff a path of odd labels joins them (Humphreys,
    # Reflection Groups and Coxeter Groups, 1990); on a triangle, each of the
    # first two odd edges joins two components
    return max(1, 3 - sum(label % 2 for label in (k, n, m)))


def test_reflection_class_count_on_coxeter_tables():
    # every generator of a Coxeter table is a reflection, so this counts its reflection classes
    assert [reflection_class_count(triangle_cayley(*kmn)) for kmn in [(2, 3, 4), (2, 3, 5), (2, 2, 3)]] == [2, 1, 2]
    for kmn in FINITE_TRIANGLES:
        assert reflection_class_count(triangle_cayley(*kmn)) == _odd_label_components(*kmn), kmn


def test_center_matches_the_word_tracing_reference(finite_rows):
    cases = ([toric_cayley(*kmn) for kmn in finite_rows] + [parent_cayley(*abc) for abc in FINITE_CENTER_PARENTS]
             + [triangle_cayley(*kmn) for kmn in FINITE_TRIANGLES])
    for cay in cases:
        assert cay.center() == reference_center(cay), (cay.alphabet, cay.size)


def test_center_of_toric_group_is_generated_by_twist():
    cay = toric_cayley(3, 2, 3)
    c = Word(cay.alphabet, (1, 2) * 3)
    central = cay.eval(c)
    center = cay.center()
    assert central in center
    assert len(center) == cay.order_of(c)


def test_full_twist_power_identity(finite_rows):
    # (x1...xn)^m = (x1...xm)^n in every finite quotient
    for k, n, m in finite_rows:
        cay = toric_cayley(k, n, m)
        twist = Word(cay.alphabet, tuple(i % n + 1 for i in range(n)) * m)
        delta_pow = Word(cay.alphabet, tuple(i % n + 1 for i in range(m)) * n)
        assert cay.eval(twist) == cay.eval(delta_pow)


def test_quotient_order_relation(finite_rows):
    # |W(k,n,m)| / order(c) = |alt-plus(k,n,m)| at finite scale
    for k, n, m in finite_rows:
        cay = toric_cayley(k, n, m)
        c = Word(cay.alphabet, tuple(i % n + 1 for i in range(n)) * m)
        plus_order = group_order(pres.alt_plus(k, n, m))
        assert cay.size == cay.order_of(c) * plus_order


def test_finite_quotient_is_the_finite_rows_cayley_table(finite_rows):
    for k, n, m in finite_rows:
        cay = finite_quotient(k, n, m, max_cosets=10**6)
        assert cay.size == FROZEN_TORIC_ORDERS[(k, n, m)], (k, n, m)
        assert cay.alphabet == pres.toric(k, n, m).alphabet
    cay = finite_quotient(3, 2, 3, max_cosets=10**6)
    twist = Word(cay.alphabet, (1, 2) * 3)
    assert cay.is_identity(twist * twist)
    assert not cay.is_identity(twist)


def test_finite_quotient_is_none_on_infinite_rows_and_overflow():
    assert finite_quotient(6, 2, 3, max_cosets=10**6) is None
    assert finite_quotient(2, 3, 7, max_cosets=10**6) is None
    assert finite_quotient(3, 2, 3, max_cosets=10) is None
    assert finite_quotient(2, 2, 3, max_cosets=10).size == 6
    # the bound is part of the cache key: a complete table does not answer a
    # smaller bound that overflows
    assert finite_quotient(3, 2, 3, 10**6).size == 24
    assert finite_quotient(3, 2, 3, 10) is None
