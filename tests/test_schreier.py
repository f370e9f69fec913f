import pathlib
from math import gcd

import pytest
from hypothesis import given, strategies as st

from conftest import FINITE_ROWS, closure_table, parent_cayley
from oracles import reference_check_toric_presentation, reference_rs_presentation

from toricgroups import classify, schreier
from toricgroups.garside import meridian_derivation
from toricgroups.maps import centrality_witness
from toricgroups import presentations as pres
from toricgroups.coxeter import classify_triangle
from toricgroups.cosets import group_order, todd_coxeter
from toricgroups.presentations import (cyclic_products, meridians, parse_presentation, serialize, tietze_simplify,
                                       torus_classical)
from toricgroups.schreier import (
    RSResult,
    SubgroupGenerator,
    chain_implies_shift,
    chain_step,
    check_toric_presentation,
    closed_form_generator,
    cyclic_canonical,
    delta_power_to_twist,
    rs_presentation,
    schreier_transversal,
    shift_relators,
    toric_column_order,
    toric_closure_rs,
    toric_coset_labels,
)
from toricgroups.words import (Alphabet, Derivation, RewriteStep, Word, apply_map, check_derivation, cyclic_reduce,
                              free_reduce, invert, moved, undone)

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
    p = parse_presentation("gens: x\nrel: x^3")
    tr = schreier_transversal(todd_coxeter(p))
    assert [str(w) for w in tr] == ["1", "x", "x^2"]


def test_transversal_size_matches_table():
    table = closure_table(2, 3, 4)
    tr = schreier_transversal(table)
    assert len(tr) == table.num_cosets


def test_transversal_requires_complete_table():
    incomplete = todd_coxeter(pres.toric(6, 2, 3), max_cosets=100)
    with pytest.raises(ValueError):
        schreier_transversal(incomplete)


def test_toric_preset_gives_u_then_t_representatives():
    parent = pres.j_parent(2, 3, 4)
    table = closure_table(2, 3, 4)
    tr = schreier_transversal(table, toric_column_order(parent.alphabet))
    labels = toric_coset_labels(tr)
    assert len(labels) == 12
    for coset, (i, j) in labels.items():
        expected = Word(parent.alphabet, (3,) * i + (2,) * j)  # u^i t^j
        assert tr[coset] == expected
    # Schreier property: every prefix of a representative is a representative
    rep_set = {w.letters for w in tr}
    for w in tr:
        for cut in range(len(w.letters)):
            assert w.letters[:cut] in rep_set


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
    rs = rs_presentation(parent, table, tr)
    for g in rs.generators:
        assert table.trace(0, g.value) == 0


def test_rs_plus_tietze_reaches_n_generators_and_right_order(finite_rows):
    for k, n, m in finite_rows:
        parent = pres.j_parent(k, n, m)
        table = closure_table(k, n, m)
        tr = schreier_transversal(table, toric_column_order(parent.alphabet))
        labels = toric_coset_labels(tr)
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
    tr = schreier_transversal(table, column_order)
    got, want = rs_presentation(p, table, tr, namer), reference_rs_presentation(p, table, tr)
    if namer is not None:
        gens = tuple(SubgroupGenerator(namer(g.coset, g.gen_name), g.coset, g.gen_name, g.value)
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
    labels = toric_coset_labels(schreier_transversal(table, toric_column_order(parent.alphabet)))
    got = _rs_against_reference(parent, table, toric_column_order(parent.alphabet),
                                lambda coset, g: f"{g}_{labels[coset][0]}_{labels[coset][1]}")
    assert toric_closure_rs(a, b, c) == (labels, got)


@pytest.mark.parametrize("column_order", [[1, 3, 5], [5, 2, 1, 0]])
@pytest.mark.parametrize("a,b,c", [(2, 3, 4), (3, 2, 3), (2, 3, 5)])
def test_rs_over_inverse_columns_is_the_all_cosets_rewrite(a, b, c, column_order):
    # representatives that end in an inverse letter: their tree edges are
    # read from the far end, as c's representative ending in g^-1
    _rs_against_reference(pres.j_parent(a, b, c), closure_table(a, b, c), column_order)


def test_rs_keeps_one_rewrite_per_orbit_of_a_two_letter_root():
    # (r1 r2)^2 has the root r1 r2, which moves the cosets of <r1> in
    # orbits of two
    p = pres.coxeter_triangle(2, 3, 4)
    table = todd_coxeter(p, [p.alphabet.word("r1")])
    assert table.num_cosets == 24
    _rs_against_reference(p, table)
    tr = schreier_transversal(table)
    only = pres.Presentation(p.alphabet, (p.alphabet.word("r1 r2 r1 r2"),))
    got, want = rs_presentation(only, table, tr), reference_rs_presentation(only, table, tr)
    assert (len(got.presentation.relators), len(want.presentation.relators)) == (12, 24)


def test_rs_rewrites_empty_and_non_power_relators_from_every_coset():
    # x^2 y^2 x^-2 y^-2 and x y x^-1 y are no proper powers, so each of
    # their orbits is a single coset; the empty relator rewrites to nothing
    base = pres.parse_presentation("gens: x y\nrel: x^4\nrel: y^2\nrel: x y x^-1 y")
    ab = base.alphabet
    extra = (Word(ab, ()), ab.word("x^2 y^2 x^-2 y^-2"), ab.word("x y x^-1 y"))
    p = pres.Presentation(ab, base.relators + extra)
    table = todd_coxeter(p)  # the trivial subgroup of the dihedral group of order 8
    assert table.num_cosets == 8
    _rs_against_reference(p, table)
    tr = schreier_transversal(table)
    only = pres.Presentation(ab, extra)
    assert rs_presentation(only, table, tr) == reference_rs_presentation(only, table, tr)


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
    labels = toric_coset_labels(tr)
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
            gen = by_label[((m - 1 - ell, p - 1), "s")]
            if element_of_closed_form(closed_form_generator(k, n, m, "s", ell, p)) != cay.eval(gen.value):
                mismatches += 1
        for p in range(1, n):
            gen = by_label[((m - 1 - ell, p), "u")]
            if element_of_closed_form(closed_form_generator(k, n, m, "u", ell, p)) != cay.eval(gen.value):
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


def _outcome(check, k, n, m, labels, rs):
    """The presentation a check returns, or the message of its AssertionError."""
    try:
        return check(k, n, m, labels, rs)
    except AssertionError as e:
        return f"AssertionError: {e}"


def test_check_agrees_with_the_word_based_reference(finite_rows):
    for row in SWEEP_GRID + [row for row in finite_rows if row not in SWEEP_GRID]:
        found = toric_closure_rs(*row)
        got = _outcome(check_toric_presentation, *row, *found)
        assert got == _outcome(reference_check_toric_presentation, *row, *found), row
        assert isinstance(got, pres.Presentation), row


def _tampered(rs: RSResult) -> dict[str, list[RSResult]]:
    """RS presentations that differ from ``rs`` by one relator dropped, by
    the relators past a prefix dropped, by one foreign relator added, or by
    one generator given another's closed form."""
    ab, relators, gens = rs.presentation.alphabet, rs.presentation.relators, rs.generators
    s_gen = next(i for i, g in enumerate(gens, start=1) if g.gen_name == "s")
    return {
        "dropped": [RSResult(pres.Presentation(ab, relators[:i] + relators[i + 1:]), gens)
                    for i in range(len(relators))],
        "prefix": [RSResult(pres.Presentation(ab, relators[:i]), gens) for i in range(len(relators))],
        "foreign": [RSResult(pres.Presentation(ab, relators + (Word(ab, (s_gen,)),)), gens)],
        "swapped": [RSResult(rs.presentation, gens[:i] + (SubgroupGenerator(g.name, other.coset, other.gen_name,
                                                                            g.value),) + gens[i + 1:])
                    for i, (g, other) in enumerate(zip(gens, gens[1:] + gens[:1]))],
    }


@pytest.mark.parametrize("k,n,m", [(2, 3, 4), (3, 2, 5), (2, 3, 7)])
def test_check_agrees_with_the_word_based_reference_on_tampered_rs(k, n, m):
    labels, rs = toric_closure_rs(k, n, m)
    refused = {}
    for kind, variants in _tampered(rs).items():
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
    monkeypatch.setattr(schreier, "chain_implies_shift", lambda n_, m_, i: real(n_, m_, i % n_ + 1))
    with pytest.raises(AssertionError, match="^the derivation cited for .* derives another relator$"):
        check_toric_presentation(k, n, m, *toric_closure_rs(k, n, m))


@pytest.mark.parametrize("k,n,m", [(2, 3, 4), (3, 4, 5), (2, 3, 7)])
def test_check_refuses_a_derivation_with_a_corrupted_step(monkeypatch, k, n, m):
    # the step cites another chain relator: the words, and so the relator
    # derived, stay the same, and only the step check can see it
    real = schreier.chain_implies_shift

    def corrupted(n_, m_, i):
        d = real(n_, m_, i)
        first = d.steps[0]
        wrong = RewriteStep(first.position, first.old, first.new, (first.relator_index + 1) % (n_ - 1))
        return Derivation(d.start, (wrong,) + d.steps[1:])

    monkeypatch.setattr(schreier, "chain_implies_shift", corrupted)
    with pytest.raises(AssertionError, match="^derivation of .*: step 0: not an instance of relator"):
        check_toric_presentation(k, n, m, *toric_closure_rs(k, n, m))


def test_spherical_coprime_rows_are_the_finite_table():
    # `derive` enumerates the order of the checked presentation (`group_order`)
    # only on a spherical row; on a coprime row that is exactly a finite toric group
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
        d = chain_implies_shift(n, m, i)
        check_derivation(d, chains)
        assert d.start == free_reduce(Word(ab, (i,)) * delta)
        assert d.end() == free_reduce(delta * Word(ab, ((i + m - 1) % n + 1,)))
    # shifts => chains (inductively, citing previously derived chains)
    for j, d in zip(range(2, n + 1), chain_from_shift_derivations(n, m)):
        check_derivation(d, shifts + list(chains[: j - 2]))
        assert d.end() == delta


@pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (2, 5)])
def test_rewritten_relators_are_chains_or_shifts(n, m):
    """Substituting closed forms into the raw rewritten relators leaves only
    toric relators and shift relators, up to rotation and inversion."""
    k = 2
    parent = pres.j_parent(k, n, m)
    table = closure_table(k, n, m)
    tr = schreier_transversal(table, toric_column_order(parent.alphabet))
    labels = toric_coset_labels(tr)
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
        d = delta_power_to_twist(n, m)
        check_derivation(d, chains)
        twist = Word(ab, tuple(i % n + 1 for i in range(n)) * m)
        assert d.end() == twist


# --- the one chain step and the step helpers --------------------------------------

COPRIME_PAIRS = st.tuples(st.integers(2, 12), st.integers(2, 12)).filter(lambda p: gcd(*p) == 1)

# each rewriting lemma at (n, m) and a generator index i in 1..n
LEMMAS = {
    "chain_implies_shift": chain_implies_shift,
    "delta_power_to_twist": lambda n, m, i: delta_power_to_twist(n, m),
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
    assert check_derivation(padded, chains).letters == left + d.end().letters + right


@given(COPRIME_PAIRS, st.integers(0, 3))
def test_chain_step_rewrites_delta_by_chain_relator_j_minus_2(pair, position):
    n, m = pair
    ab, chains = meridians(n), torus_classical(n, m).relators
    assert chain_step(n, m, position, 1) == ()
    for j in range(2, n + 1):
        (step,) = chain_step(n, m, position, j)
        assert step.relator_index == j - 2
        pad = (1,) * position
        delta = tuple(t % n + 1 for t in range(m))
        end = check_derivation(Derivation(Word(ab, pad + delta), (step,)), chains)
        assert end.letters == pad + tuple((j - 1 + t) % n + 1 for t in range(m))
