import pathlib
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from conftest import FINITE_ROWS, FROZEN_TORIC_ORDERS, closure_table, parent_cayley, parse_presentation, schreier_word
from oracles import (naive_order, reference_check_toric_presentation, reference_rs_presentation, reference_transversal,
                     shift_relators)

from toricgroups import classify, cosets, schreier, words
from toricgroups.garside import meridian_derivation
from toricgroups.maps import centrality_witness
from toricgroups import presentations as pres
from toricgroups.coxeter import classify_triangle
from toricgroups.cosets import MAX_COSETS, group_order, todd_coxeter
from toricgroups.presentations import (chain_implies_shift, chain_step, cyclic_products, delta_power_to_twist,
                                       meridians, serialize, tietze_simplify, torus_classical)
from toricgroups.schreier import (
    RSResult,
    SubgroupGenerator,
    check_toric_presentation,
    closed_form_generator,
    cyclic_canonical,
    rs_presentation,
    schreier_transversal,
    toric_column_order,
    toric_closure_rs,
    toric_coset_labels,
)
from toricgroups.words import (Alphabet, Derivation, RewriteStep, Word, apply_map, check_derivation, cyclic_reduce,
                              cyclic_reduce_letters, free_reduce, free_reduce_letters, invert, moved, undone)

DATA = pathlib.Path(__file__).parent / "data"

# the default sweep grid, infinite rows included
SWEEP_GRID = [(k, n, m) for k in range(2, 7) for n in range(2, 7) for m in range(n + 1, 8) if gcd(n, m) == 1]


def chain_from_shift_derivations(n: int, m: int) -> list[Derivation]:
    """Derivations of x_j...x_{j+m-1} -> x_1...x_m for j = 2..n from the shifts.

    The j-th derivation cites the shift relators followed by the already
    derived chain relators d_2, ..., d_{j-1} (the inductive hypothesis), so
    check it against ``shift_relators(n, m)[1] + list(torus_classical(n, m).relators)[:j-2]``.
    Each derivation inserts x_{j-1}^-1 x_{j-1} in front, rewrites the m-factor
    product starting at x_{j-1} to delta by the previous chain, then pushes
    x_{j-1} back through delta by the shift relator and cancels.
    """
    ab, shifts = shift_relators(n, m)
    prods = cyclic_products(ab, n, m)
    delta = prods[0]
    out: list[Derivation] = []
    for j in range(2, n + 1):
        i = j - 1  # the generator inserted in front
        start = prods[j - 1]
        steps: list[RewriteStep] = []
        steps.append(RewriteStep(0, Word(ab, ()), Word(ab, (-i, i)), None))
        if i != 1:
            # x_i x_j ... has prefix (after the inserted pair) x_i x_{i+1} ...
            steps.append(RewriteStep(1, prods[i - 1], delta, len(shifts) + (i - 2)))
        # now the word is x_i^-1 * delta * x_{i+m}; rewrite by the shift i
        shifted_letter = (i + m - 1) % n + 1
        steps.append(
            RewriteStep(
                1,
                free_reduce(delta * Word(ab, (shifted_letter,))),
                free_reduce(Word(ab, (i,)) * delta),
                i - 1,
            )
        )
        steps.append(RewriteStep(0, Word(ab, (-i, i)), Word(ab, ()), None))
        out.append(Derivation(start, tuple(steps)))
    return out


def test_cyclic_group_transversal():
    # the representatives 1, x, x^2, as the tree 0 -x-> 1 -x-> 2
    p = parse_presentation("gens: x\nrel: x^3")
    assert schreier_transversal(todd_coxeter(p)) == [(0, 0, 1), (1, 0, 2)]


def test_transversal_size_matches_table():
    table = closure_table(2, 3, 4)
    tree = schreier_transversal(table)
    assert sorted(b for _, _, b in tree) == list(range(1, table.num_cosets))


def test_transversal_requires_complete_table():
    incomplete = todd_coxeter(pres.toric(6, 2, 3), max_cosets=100)
    with pytest.raises(ValueError):
        schreier_transversal(incomplete)


def test_toric_preset_gives_u_then_t_representatives():
    parent = pres.j_parent(2, 3, 4)
    table = closure_table(2, 3, 4)
    tree = schreier_transversal(table, toric_column_order(parent.alphabet))
    labels = toric_coset_labels(parent.alphabet, tree)
    assert len(labels) == 12
    reached = {0}
    for a, col, b in tree:  # edges of the coset graph, each parent reached before its children
        assert table.columns[col][a] == b and a in reached and b not in reached
        reached.add(b)
    into = {b: (a, col) for a, col, b in tree}
    for coset, (i, j) in labels.items():
        letters, c = [], coset
        while c:  # the tree path up to coset 0
            c, col = into[c]
            letters.append(col // 2 + 1)
        rep = Word(parent.alphabet, tuple(reversed(letters)))
        assert rep == Word(parent.alphabet, (3,) * i + (2,) * j)  # u^i t^j
        # Schreier property: every prefix of a representative is the
        # representative of the coset it reaches
        for cut in range(len(rep.letters)):
            prefix = rep.letters[:cut]
            assert labels[table.trace(0, Word(parent.alphabet, prefix))] == (prefix.count(3), prefix.count(2))


def test_index_one_subgroup_reproduces_presentation():
    p = pres.toric(3, 2, 3)
    table = todd_coxeter(p, [p.alphabet.word("x1"), p.alphabet.word("x2")])
    assert table.num_cosets == 1
    tr = schreier_transversal(table)
    rs = rs_presentation(p, table, tr)
    assert len(rs.presentation.gens) == len(p.gens)
    relabel = dict(zip(rs.presentation.gens, p.gens))
    got = {tuple(relabel[rs.presentation.alphabet.names[abs(x) - 1]] + ("+" if x > 0 else "-")
                 for x in r.letters)
           for r in rs.presentation.relators}
    want = {tuple(p.alphabet.names[abs(x) - 1] + ("+" if x > 0 else "-") for x in r.letters)
            for r in p.relators}
    assert got == want


def test_schreier_generator_values_lie_in_subgroup():
    parent = pres.j_parent(2, 3, 4)
    table = closure_table(2, 3, 4)
    tr = schreier_transversal(table, toric_column_order(parent.alphabet))
    labels = toric_coset_labels(parent.alphabet, tr)
    rs = rs_presentation(parent, table, tr)
    for g in rs.generators:
        assert table.trace(0, schreier_word(table, labels, g)) == 0


def test_rs_plus_tietze_reaches_n_generators_and_right_order(finite_rows):
    for k, n, m in finite_rows:
        parent = pres.j_parent(k, n, m)
        table = closure_table(k, n, m)
        tr = schreier_transversal(table, toric_column_order(parent.alphabet))
        labels = toric_coset_labels(parent.alphabet, tr)
        rs = rs_presentation(parent, table, tr,
                             namer=lambda c, g: f"{g}_{labels[c][0]}_{labels[c][1]}")
        simplified = tietze_simplify(rs.presentation)
        assert len(simplified.gens) == n, (k, n, m)
        assert group_order(simplified) == group_order(pres.toric(k, n, m)), (k, n, m)


def test_rs_on_j323_gives_two_generator_order_24():
    parent = pres.j_parent(3, 2, 3)
    table = closure_table(3, 2, 3)
    assert table.num_cosets == 6
    tr = schreier_transversal(table, toric_column_order(parent.alphabet))
    rs = rs_presentation(parent, table, tr)
    simplified = tietze_simplify(rs.presentation)
    assert len(simplified.gens) == 2
    assert group_order(simplified) == 24


def _rs_against_reference(p: pres.Presentation, table, column_order=None, namer=None) -> RSResult:
    """The relators of rs_presentation are a subsequence of the all-cosets
    rewrite, in order, and every relator of it is a cyclic rotation of a
    kept one once both are cyclically reduced.  The reference names its
    generators by the default namer, so ``namer`` renames them first."""
    tree = schreier_transversal(table, column_order)
    got, want = rs_presentation(p, table, tree, namer), reference_rs_presentation(p, table, column_order)
    if namer is not None:
        gens = tuple(SubgroupGenerator(namer(g.coset, g.gen_name), g.coset, g.gen_name)
                     for g in want.generators)
        alphabet = Alphabet([g.name for g in gens])
        want = RSResult(pres.Presentation(alphabet, tuple(Word(alphabet, r.letters)
                                                          for r in want.presentation.relators)), gens)
    assert got.generators == want.generators
    assert got.presentation.alphabet == want.presentation.alphabet
    kept = iter(want.presentation.relators)
    assert all(any(r == w for w in kept) for r in got.presentation.relators)
    rotations = set()
    for r in got.presentation.relators:
        letters = cyclic_reduce(r).letters
        rotations.update(letters[k:] + letters[:k] for k in range(len(letters)))
    assert all(cyclic_reduce(w).letters in rotations for w in want.presentation.relators)
    return got


@pytest.mark.parametrize("a,b,c", FINITE_ROWS + [(2, 3, 3), (6, 2, 4), (2, 4, 6)])
def test_rs_is_the_all_cosets_rewrite_less_rotated_copies(a, b, c):
    parent = pres.j_parent(a, b, c)
    _rs_against_reference(parent, closure_table(a, b, c), toric_column_order(parent.alphabet))


@pytest.mark.parametrize("a,b,c", SWEEP_GRID)
def test_rs_of_the_closure_tables_is_the_all_cosets_rewrite(a, b, c):
    # the named-generator path that `derive` takes, on the table it reads
    parent = pres.j_parent(a, b, c)
    table = closure_table(a, b, c)
    labels = toric_coset_labels(parent.alphabet, schreier_transversal(table, toric_column_order(parent.alphabet)))
    got = _rs_against_reference(parent, table, toric_column_order(parent.alphabet),
                                lambda coset, g: f"{g}_{labels[coset][0]}_{labels[coset][1]}")
    assert toric_closure_rs(a, b, c) == (labels, got)


@pytest.mark.parametrize("column_order", [[1, 3, 5], [5, 2, 1, 0]])
@pytest.mark.parametrize("a,b,c", [(2, 3, 4), (3, 2, 3), (2, 3, 5)])
def test_rs_over_inverse_columns_is_the_all_cosets_rewrite(a, b, c, column_order):
    # representatives that end in an inverse letter: their tree edges are
    # read from the far end, as c's representative ending in g^-1
    _rs_against_reference(pres.j_parent(a, b, c), closure_table(a, b, c), column_order)


@given(st.sampled_from([(2, 3, 4), (3, 2, 3), (2, 3, 5)]), st.permutations(range(6)), st.integers(1, 6))
def test_rs_over_any_column_order_is_the_all_cosets_rewrite(abc, columns, size):
    # any distinct columns: the tree edges RS reads off ``into`` are those
    # the reference reads off its own representatives' last letters, and a
    # column order that does not span is refused by both
    order = columns[:size]
    parent, table = pres.j_parent(*abc), closure_table(*abc)
    try:
        reference_transversal(table, order)
    except ValueError:
        with pytest.raises(ValueError, match="^column order does not span the coset graph$"):
            schreier_transversal(table, order)
        return
    _rs_against_reference(parent, table, order)


def test_derive_spells_no_representative_word(monkeypatch):
    # the transversal is its tree, and CayleyTable.words the one place a
    # tree path is spelled: derive reads the labels and the tree edges, so
    # it builds no word over the parent's alphabet longer than the parent's
    # relators, and fewer of them than there are cosets (195)
    monkeypatch.setattr(cosets.CayleyTable, "words", property(lambda self: pytest.fail("words spelled")))
    init, lengths = Word.__init__, []

    def spy(self, alphabet, letters):
        init(self, alphabet, letters)
        if alphabet == pres.STU:
            lengths.append(len(letters))

    monkeypatch.setattr(Word, "__init__", spy)
    result, status, evidence = classify.derive(2, 13, 15, MAX_COSETS, pres.TIETZE_BUDGET)
    assert status == "ok" and "index of the normal closure of s: 195" in evidence
    assert max(lengths) <= max(len(r.letters) for r in pres.j_parent(2, 13, 15).relators)
    assert len(lengths) < 195


def test_the_check_builds_no_alphabet_per_shift_relator(monkeypatch):
    # the shift derivations share the meridians of the toric presentation:
    # the check builds that alphabet and the target's, whatever n
    found = toric_closure_rs(2, 13, 15)
    init, built = words.Alphabet.__init__, []
    monkeypatch.setattr(words.Alphabet, "__init__", lambda self, names: built.append(names) or init(self, names))
    check_toric_presentation(2, 13, 15, *found)
    assert len(built) == 2


def test_rs_keeps_one_rewrite_per_orbit_of_a_two_letter_root():
    # (r1 r2)^2 has the root r1 r2, which moves the cosets of <r1> in
    # orbits of two
    p = pres.coxeter_triangle(2, 3, 4)
    table = todd_coxeter(p, [p.alphabet.word("r1")])
    assert table.num_cosets == 24
    _rs_against_reference(p, table)
    tree = schreier_transversal(table)
    only = pres.Presentation(p.alphabet, (p.alphabet.word("r1 r2 r1 r2"),))
    got, want = rs_presentation(only, table, tree), reference_rs_presentation(only, table)
    assert (len(got.presentation.relators), len(want.presentation.relators)) == (12, 24)


def test_rs_rewrites_empty_and_non_power_relators_from_every_coset():
    # x^2 y^2 x^-2 y^-2 and x y x^-1 y are no proper powers, so each of
    # their orbits is a single coset; the empty relator rewrites to nothing
    base = parse_presentation("gens: x y\nrel: x^4\nrel: y^2\nrel: x y x^-1 y")
    ab = base.alphabet
    extra = (Word(ab, ()), ab.word("x^2 y^2 x^-2 y^-2"), ab.word("x y x^-1 y"))
    p = pres.Presentation(ab, base.relators + extra)
    table = todd_coxeter(p)  # the trivial subgroup of the dihedral group of order 8
    assert table.num_cosets == 8
    _rs_against_reference(p, table)
    tree = schreier_transversal(table)
    only = pres.Presentation(ab, extra)
    assert rs_presentation(only, table, tree) == reference_rs_presentation(only, table)


# --- closed forms ---------------------------------------------------------------


def test_closed_form_base_cases():
    # ell = 0: s_{m-1,p-1} = s0 s_p s0^-1 and u_{m-1,p} = s0 s_p^-1
    w = closed_form_generator(2, 3, 4, "s", 0, 2)
    assert str(w) == "s0 s2 s0^-1"
    w = closed_form_generator(2, 3, 4, "u", 0, 2)
    assert str(w) == "s0 s2^-1"


def test_closed_form_top_case_wraps_mod_n():
    # ell = m-1 expresses s_{0,i-1} through the full descending conjugator
    w = closed_form_generator(2, 3, 4, "s", 3, 2)
    assert str(w) == "s0 s1 s2 s0 s2 s0^-1 s2^-1 s1^-1 s0^-1"


def test_closed_form_range_errors():
    with pytest.raises(ValueError):
        closed_form_generator(2, 3, 4, "s", 4, 1)
    with pytest.raises(ValueError):
        closed_form_generator(2, 3, 4, "u", 0, 3)
    with pytest.raises(ValueError):
        closed_form_generator(2, 3, 4, "q", 0, 1)


@pytest.mark.parametrize("k,n,m", [(2, 3, 4), (3, 2, 3), (2, 3, 5)])
def test_closed_forms_match_generic_rewriting_in_parent(k, n, m):
    """Closed forms and the Schreier generator values agree as elements."""
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

    def element_of_closed_form(w: Word) -> int:
        acc = Word(parent.alphabet, ())
        for letter in w.letters:
            val = s_values[abs(letter) - 1]
            acc = acc * (val if letter > 0 else invert(val))
        return cay.eval(acc)

    mismatches = 0
    for ell in range(m):
        for p in range(1, n + 1):
            word = schreier_word(table, labels, by_label[((m - 1 - ell, p - 1), "s")])
            if element_of_closed_form(closed_form_generator(k, n, m, "s", ell, p)) != cay.eval(word):
                mismatches += 1
        for p in range(1, n):
            word = schreier_word(table, labels, by_label[((m - 1 - ell, p), "u")])
            if element_of_closed_form(closed_form_generator(k, n, m, "u", ell, p)) != cay.eval(word):
                mismatches += 1
    assert mismatches == 0


@pytest.mark.parametrize("k,n,m", [(2, 3, 4), (3, 2, 3), (2, 3, 5), (2, 2, 5)])
def test_closed_forms_satisfy_recurrences_freely(k, n, m):
    """On the wrap-free rows, the three-term relations between neighbouring
    Schreier generators become literal free-word identities once the closed
    forms are substituted (only inverse pairs cancel)."""

    def cf_s(i, j):
        return closed_form_generator(k, n, m, "s", m - 1 - (i % m), j + 1)

    def cf_u(i, j):
        return closed_form_generator(k, n, m, "u", m - 1 - (i % m), j)

    for i in range(m - 1):
        a = free_reduce(cf_s(i, 0) * cf_u(i, 1))
        b = free_reduce(cf_u(i, 1) * cf_s(i + 1, 1))
        c = free_reduce(cf_s(i + 1, 0))
        assert a == b == c, ("first", i)
        for j in range(2, n):
            a = free_reduce(cf_s(i, j - 1) * cf_u(i, j))
            b = free_reduce(cf_u(i, j) * cf_s(i + 1, j))
            c = free_reduce(cf_u(i, j - 1) * cf_s(i + 1, j - 1))
            assert a == b == c, ("second", i, j)
        assert free_reduce(cf_s(i, n - 1)) == free_reduce(cf_s(i + 1, 0)) == free_reduce(
            cf_u(i, n - 1) * cf_s(i + 1, n - 1)
        ), ("third", i)


def test_golden_file_234_matches_derivation_and_display():
    res = check_toric_presentation(2, 3, 4, *toric_closure_rs(2, 3, 4))
    golden = (DATA / "rs_234_golden.txt").read_text()
    assert serialize(res) == golden
    # Documented relabeling s_j -> x_{j+1} turns the golden file into the
    # display presentation of the toric group, relator for relator.
    relabeled = golden
    for j in range(3):
        relabeled = relabeled.replace(f"s{j}", f"x{j + 1}")
    assert relabeled == serialize(pres.toric(2, 3, 4))


def test_derive_toric_presentation_all_rows(finite_rows):
    # the sweep grid plus the finite rows outside it
    assert len(SWEEP_GRID) == 55
    for k, n, m in SWEEP_GRID + [row for row in finite_rows if row not in SWEEP_GRID]:
        res = check_toric_presentation(k, n, m, *toric_closure_rs(k, n, m))
        assert len(res.gens) == n
        relabeled = serialize(res)
        for j in range(n):
            relabeled = relabeled.replace(f"s{j}", f"x{j + 1}")
        assert relabeled == serialize(pres.toric(k, n, m))


def test_derive_agrees_with_rs_then_tietze(finite_rows):
    # the checked toric presentation that `derive` prints against the order
    # of the library's RS -> Tietze pipeline, which it no longer runs
    for a, b, c in SWEEP_GRID + [row for row in finite_rows if row not in SWEEP_GRID]:
        result, status, _ = classify.derive(a, b, c, max_cosets=10**6, budget=10**5)
        assert status == "ok", (a, b, c)
        relabeled = result["presentation"]
        for j in range(b):
            relabeled = relabeled.replace(f"s{j}", f"x{j + 1}")
        assert relabeled == serialize(pres.toric(a, b, c)), (a, b, c)
        if classify_triangle(a, b, c) == "spherical":
            _, rs = toric_closure_rs(a, b, c)
            assert result["order"] == group_order(tietze_simplify(rs.presentation)), (a, b, c)
        else:
            assert result["order"] is None, (a, b, c)


def test_check_toric_presentation_refuses_a_wrong_rs_presentation():
    labels, rs = toric_closure_rs(2, 3, 4)
    s_gen = next(i for i, g in enumerate(rs.generators, start=1) if g.gen_name == "s")
    for relators, message in (((), "did not produce every toric relator"),
                              ((Word(rs.presentation.alphabet, (s_gen,)),), "unexpected relator")):
        wrong = RSResult(pres.Presentation(rs.presentation.alphabet, relators), rs.generators)
        with pytest.raises(AssertionError, match=message):
            check_toric_presentation(2, 3, 4, labels, wrong)


def test_check_refuses_schreier_generators_out_of_alphabet_order():
    labels, rs = toric_closure_rs(2, 3, 4)
    gens = list(rs.generators)
    gens[0], gens[1] = gens[1], gens[0]
    with pytest.raises(ValueError, match="do not name the RS alphabet's letters in order"):
        check_toric_presentation(2, 3, 4, labels, RSResult(rs.presentation, tuple(gens)))


@given(st.integers(2, 5), st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), max_size=12))
@example(2, [(-1, 0), (1, 1), (2, 0)])  # an empty walk between two that cancel
def test_joined_walks_spell_the_reduced_word(n, walks):
    # the check reduces products of walks without spelling them; spelled
    # walk by walk, then reduced letter by letter, they must give the same word
    spelled = schreier._walk_letters(walks, n)
    joined = schreier._join_walks([end for walk in walks for end in walk], n)
    assert schreier._walk_letters(joined, n) == tuple(free_reduce_letters(spelled))
    assert schreier._walk_letters(schreier._cyclic_walks(joined, n), n) == cyclic_reduce_letters(spelled)


def _outcome(check, k, n, m, labels, rs):
    """The presentation a check returns, or the message of its AssertionError."""
    try:
        return check(k, n, m, labels, rs)
    except AssertionError as e:
        return f"AssertionError: {e}"


def test_check_agrees_with_the_word_based_reference(finite_rows):
    # (2, 17, 19), index 323: prefixes of up to 19 letters meet in long segments
    for row in SWEEP_GRID + [row for row in finite_rows if row not in SWEEP_GRID] + [(2, 17, 19)]:
        found = toric_closure_rs(*row)
        got = _outcome(check_toric_presentation, *row, *found)
        assert got == _outcome(reference_check_toric_presentation, *row, *found), row
        assert isinstance(got, pres.Presentation), row


def _tampered(rs: RSResult, every: int) -> dict[str, list[RSResult]]:
    """RS presentations that differ from ``rs`` by one relator dropped, by
    the relators past a prefix dropped, by one foreign relator added, or by
    one generator given another's closed form; of each kind but the
    foreign relator, the variants at every ``every``-th position."""
    ab, relators, gens = rs.presentation.alphabet, rs.presentation.relators, rs.generators
    s_gen = next(i for i, g in enumerate(gens, start=1) if g.gen_name == "s")
    return {
        "dropped": [RSResult(pres.Presentation(ab, relators[:i] + relators[i + 1:]), gens)
                    for i in range(0, len(relators), every)],
        "prefix": [RSResult(pres.Presentation(ab, relators[:i]), gens) for i in range(0, len(relators), every)],
        "foreign": [RSResult(pres.Presentation(ab, relators + (Word(ab, (s_gen,)),)), gens)],
        "swapped": [RSResult(rs.presentation,
                             gens[:i] + (SubgroupGenerator(g.name, other.coset, other.gen_name),) + gens[i + 1:])
                    for i, (g, other) in list(enumerate(zip(gens, gens[1:] + gens[:1])))[::every]],
    }


@pytest.mark.parametrize("k,n,m", [(2, 3, 4), (3, 2, 5), (2, 3, 7), (2, 17, 19)])
def test_check_agrees_with_the_word_based_reference_on_tampered_rs(k, n, m):
    labels, rs = toric_closure_rs(k, n, m)
    refused = {}
    # every variant up to index 21; at index 323, where the reference takes
    # about 75 ms a variant, every 200th of the 1,005 relators and 647 generators
    for kind, variants in _tampered(rs, 1 if len(labels) < 100 else 200).items():
        outcomes = [_outcome(check_toric_presentation, k, n, m, labels, wrong) for wrong in variants]
        assert outcomes == [_outcome(reference_check_toric_presentation, k, n, m, labels, wrong)
                            for wrong in variants], kind
        refused[kind] = {o.split(" ", 2)[1] for o in outcomes if isinstance(o, str)}
    # each toric relator has more than one rewrite, so one relator dropped is
    # no fault; the other kinds are caught, each by the check it targets
    assert refused["dropped"] == set()
    assert "rewriting" in refused["prefix"]
    assert refused["foreign"] == {"unexpected"}
    assert "unexpected" in refused["swapped"]


@pytest.mark.parametrize("k,n,m", [(2, 3, 4), (3, 4, 5), (2, 3, 7)])
def test_check_refuses_the_derivation_of_another_shift_relator(monkeypatch, k, n, m):
    real = schreier.chain_implies_shift
    monkeypatch.setattr(schreier, "chain_implies_shift", lambda ab, m_, i: real(ab, m_, i % len(ab) + 1))
    with pytest.raises(AssertionError, match="^the derivation cited for .* derives another relator$"):
        check_toric_presentation(k, n, m, *toric_closure_rs(k, n, m))


@pytest.mark.parametrize("k,n,m", [(2, 3, 4), (3, 4, 5), (2, 3, 7)])
def test_check_refuses_a_derivation_with_a_corrupted_step(monkeypatch, k, n, m):
    # the step cites another chain relator: the words, and so the relator
    # derived, stay the same, and only the step check can see it
    real = schreier.chain_implies_shift

    def corrupted(ab, m_, i):
        d = real(ab, m_, i)
        first = d.steps[0]
        wrong = RewriteStep(first.position, first.old, first.new, (first.relator_index + 1) % (len(ab) - 1))
        return Derivation(d.start, (wrong,) + d.steps[1:])

    monkeypatch.setattr(schreier, "chain_implies_shift", corrupted)
    with pytest.raises(AssertionError, match="^derivation of .*: step 0: not an instance of relator"):
        check_toric_presentation(k, n, m, *toric_closure_rs(k, n, m))


@pytest.mark.parametrize("a,b,c", FINITE_ROWS + [(a, c, b) for a, b, c in FINITE_ROWS])
def test_order_through_the_index_of_s0_is_the_group_order(a, b, c):
    # `derive` reads a spherical coprime row's order as a * [W : <s0>]
    presentation = check_toric_presentation(a, b, c, *toric_closure_rs(a, b, c))
    index = todd_coxeter(presentation, [presentation.alphabet.word("s0")]).num_cosets
    assert a * index == group_order(presentation) == naive_order(presentation) == FROZEN_TORIC_ORDERS[
        (a, min(b, c), max(b, c))]
    assert classify.derive(a, b, c, MAX_COSETS, pres.TIETZE_BUDGET)[0]["order"] == a * index


def test_spherical_coprime_rows_are_the_finite_table():
    # `derive` enumerates the order of the checked presentation only on a
    # spherical row; on a coprime row that is exactly a finite toric group
    for a in range(2, 30):
        for b in range(2, 30):
            for c in range(2, 30):
                if gcd(b, c) == 1:
                    assert (classify.finite_toric(a, b, c) is not None) == (classify_triangle(a, b, c) == "spherical")


# --- relation equivalence as derivations -----------------------------------------


@pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5)])
def test_chain_and_shift_relators_imply_each_other(n, m):
    ab, chains = meridians(n), torus_classical(n, m).relators
    _, shifts = shift_relators(n, m)
    delta = Word(ab, tuple(j % n + 1 for j in range(m)))
    # chains => shifts
    for i in range(1, n + 1):
        d = chain_implies_shift(ab, m, i)
        end = check_derivation(d, chains)
        assert d.start == free_reduce(Word(ab, (i,)) * delta)
        assert end == free_reduce(delta * Word(ab, ((i + m - 1) % n + 1,)))
    # shifts => chains (inductively, citing previously derived chains)
    for j, d in zip(range(2, n + 1), chain_from_shift_derivations(n, m)):
        assert check_derivation(d, shifts + list(chains[: j - 2])) == delta


@pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (2, 5)])
def test_rewritten_relators_are_chains_or_shifts(n, m):
    """Substituting closed forms into the raw rewritten relators leaves only
    toric relators and shift relators, up to rotation and inversion."""
    k = 2
    parent = pres.j_parent(k, n, m)
    table = closure_table(k, n, m)
    tr = schreier_transversal(table, toric_column_order(parent.alphabet))
    labels = toric_coset_labels(parent.alphabet, tr)
    rs = rs_presentation(parent, table, tr)
    from toricgroups.schreier import _s_alphabet
    from toricgroups.words import GenMap

    target = _s_alphabet(n)
    images = {}
    for g in rs.generators:
        i, j = labels[g.coset]
        if g.gen_name == "s":
            images[g.name] = closed_form_generator(k, n, m, "s", m - 1 - i, j + 1)
        elif g.gen_name == "u":
            images[g.name] = Word(target, ()) if j == 0 else closed_form_generator(k, n, m, "u", m - 1 - i, j)
        else:
            images[g.name] = Word(target, ())
    gm = GenMap.from_dict(rs.presentation.alphabet, target, images)
    allowed = {cyclic_canonical(Word(target, r.letters)) for r in pres.toric(k, n, m).relators}
    allowed |= {cyclic_canonical(Word(target, r.letters)) for r in shift_relators(n, m)[1]}
    allowed.add(())
    for r in rs.presentation.relators:
        assert cyclic_canonical(apply_map(gm, r)) in allowed


def test_delta_power_to_twist_derivation():
    for n, m in [(2, 3), (3, 4), (3, 5)]:
        ab, chains = meridians(n), torus_classical(n, m).relators
        d = delta_power_to_twist(ab, m)
        twist = Word(ab, tuple(i % n + 1 for i in range(n)) * m)
        assert check_derivation(d, chains) == twist


# --- the one chain step and the step helpers --------------------------------------

COPRIME_PAIRS = st.tuples(st.integers(2, 12), st.integers(2, 12)).filter(lambda p: gcd(*p) == 1)

# each rewriting lemma at (n, m) and a generator index i in 1..n
LEMMAS = {
    "chain_implies_shift": lambda n, m, i: chain_implies_shift(meridians(n), m, i),
    "delta_power_to_twist": lambda n, m, i: delta_power_to_twist(meridians(n), m),
    "centrality_witness": lambda n, m, i: centrality_witness(2, n, m, i),
    "meridian_derivation": lambda n, m, i: meridian_derivation(n, m),
}


@given(COPRIME_PAIRS, st.integers(1, 12), st.sampled_from(sorted(LEMMAS)))
def test_undone_steps_take_every_lemma_back_to_its_start(pair, i, lemma):
    n, m = pair
    d = LEMMAS[lemma](n, m, (i - 1) % n + 1)
    chains = torus_classical(n, m).relators
    back = Derivation(check_derivation(d, chains), undone(d.steps, 0))
    assert check_derivation(back, chains) == d.start


@given(COPRIME_PAIRS, st.integers(1, 12), st.sampled_from(sorted(LEMMAS)), st.data())
def test_moved_steps_replay_a_lemma_inside_a_padded_word(pair, i, lemma, data):
    n, m = pair
    d = LEMMAS[lemma](n, m, (i - 1) % n + 1)
    ab, chains = meridians(n), torus_classical(n, m).relators
    letters = st.sampled_from(sorted(ab.letters))
    left = tuple(data.draw(st.lists(letters, max_size=4)))
    right = tuple(data.draw(st.lists(letters, max_size=4)))
    padded = Derivation(Word(ab, left + d.start.letters + right), moved(d.steps, len(left)))
    assert check_derivation(padded, chains).letters == left + d.words()[-1].letters + right


@given(COPRIME_PAIRS, st.integers(0, 3))
def test_chain_step_rewrites_delta_by_chain_relator_j_minus_2(pair, position):
    n, m = pair
    ab, chains = meridians(n), torus_classical(n, m).relators
    assert chain_step(ab, m, position, 1) == ()
    for j in range(2, n + 1):
        (step,) = chain_step(ab, m, position, j)
        assert step.relator_index == j - 2
        pad = (1,) * position
        delta = tuple(t % n + 1 for t in range(m))
        end = check_derivation(Derivation(Word(ab, pad + delta), (step,)), chains)
        assert end.letters == pad + tuple((j - 1 + t) % n + 1 for t in range(m))
