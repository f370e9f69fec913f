"""Input refusals that no other test reaches, one (call, exception, message)
row each; ``tools/line_coverage.py`` lists the raise lines a suite never runs."""

import re

import pytest

from conftest import ParseError, identity_map, parse_presentation

from toricgroups import classify, cosets, coxeter, cyclo, garside, maps, reps, schreier, words
from toricgroups.presentations import meridians, toric

AB = words.Alphabet(["x", "y"])
STU = words.Alphabet(["s", "t", "u"])
X, Y, XY = AB.word("x"), AB.word("y"), AB.word("x y")


def overflowed():
    """An enumeration of W(6,2,3) stopped at 10 cosets; x1 is undefined on coset 7."""
    return cosets.todd_coxeter(toric(6, 2, 3), max_cosets=10)


def complete():
    """W(3,2,3), of order 24, over the trivial subgroup."""
    return cosets.todd_coxeter(toric(3, 2, 3))


@pytest.mark.parametrize("call, error, message", [
    # parse_presentation
    (lambda: parse_presentation("gens a b"), ParseError, "line 1, column 1: expected 'gens:' or 'rel:' line"),
    (lambda: parse_presentation("gens: a\ngens: b"), ParseError, "line 2, column 1: duplicate gens line"),
    (lambda: parse_presentation("rel: a"), ParseError, "line 1, column 1: rel line before gens line"),
    (lambda: parse_presentation("gens: a\nrels: a"), ParseError, "line 2, column 1: unknown key 'rels'"),
    (lambda: parse_presentation("# no generators\n"), ParseError, "line 1, column 1: missing gens line"),
    # the coset layer
    (lambda: cosets.todd_coxeter(toric(3, 2, 3), strategy="dfs"), ValueError, "unknown strategy 'dfs'"),
    (lambda: cosets.todd_coxeter(toric(3, 2, 3), [STU.word("s")]), ValueError,
     "subgroup generator over wrong alphabet"),
    (lambda: cosets.CayleyTable(overflowed()), ValueError, "need a complete table"),
    (lambda: cosets.CayleyTable(cosets.todd_coxeter(toric(3, 2, 3), [toric(3, 2, 3).alphabet.word("x1")])),
     ValueError, "Cayley table requires the trivial subgroup"),
    (lambda: overflowed().trace(7, toric(6, 2, 3).alphabet.word("x1")), ValueError,
     "table entry undefined (table not complete)"),
    (lambda: cosets.bfs_tree(complete(), [0]), ValueError, "column order does not span the coset graph"),
    # a negative, repeated or out-of-range column; ids of their own, as the
    # schreier_transversal row below has the same message
    pytest.param(lambda: cosets.bfs_tree(complete(), [-1]), ValueError,
                 "column order must be a list of distinct table columns", id="bfs_tree-negative-column"),
    pytest.param(lambda: cosets.bfs_tree(complete(), [0, 0]), ValueError,
                 "column order must be a list of distinct table columns", id="bfs_tree-repeated-column"),
    pytest.param(lambda: cosets.bfs_tree(complete(), [99]), ValueError,
                 "column order must be a list of distinct table columns", id="bfs_tree-column-out-of-range"),
    # Reidemeister-Schreier and the rewriting lemmas
    (lambda: schreier.schreier_transversal(complete(), [0, 0]), ValueError,
     "column order must be a list of distinct table columns"),
    (lambda: schreier.toric_column_order(words.Alphabet(["s", "t"])), ValueError,
     "toric column order needs generators s, t, u"),
    # the trees 0 -s-> 1, and 0 -t-> 1 -u-> 2
    (lambda: schreier.toric_coset_labels(STU, [(0, 0, 1)]), ValueError,
     "representative s is not of the form u^i t^j"),
    (lambda: schreier.toric_coset_labels(STU, [(0, 2, 1), (1, 4, 2)]), ValueError,
     "representative t u is not of the form u^i t^j"),
    (lambda: schreier.rs_presentation(toric(6, 2, 3), overflowed(), ()), ValueError, "coset table is not complete"),
    (lambda: schreier.chain_implies_shift(meridians(3), 4, 0), ValueError, "generator index out of range"),
    (lambda: schreier.chain_implies_shift(meridians(3), 4, 4), ValueError, "generator index out of range"),
    (lambda: maps.centrality_witness(2, 3, 4, 4), ValueError, "generator index out of range"),
    # words, maps and derivations
    (lambda: words.Alphabet(["a", "a"]), ValueError, "duplicate generator names in ('a', 'a')"),
    (lambda: AB.index("z"), KeyError, "unknown generator 'z'"),
    (lambda: X * STU.word("s"), ValueError, "cannot multiply words over different alphabets"),
    (lambda: words.compose(identity_map(AB), identity_map(STU)), ValueError,
     "alphabets do not compose"),
    (lambda: words.check_derivation(words.Derivation(XY, (words.RewriteStep(0, X, Y, None),)), []), ValueError,
     "step 0: claimed free but differs by x y^-1"),
    (lambda: words.check_derivation(words.Derivation(XY, (words.RewriteStep(1, X, Y, 0),)), [X * Y**-1]),
     ValueError, "step does not match word at position 1"),
    # cyclotomics, Coxeter groups, Garside forms and the representation
    (lambda: cyclo.zeta(4).embed(6), ValueError, "cannot embed modulus 4 into 6"),
    (lambda: cyclo.zeta(0), ValueError, "modulus must be positive"),
    (lambda: garside.gnf(2, 3, STU.word("s")), ValueError, "word must be over the standard alphabet {x, y}"),
    (lambda: coxeter.classify_triangle(1, 3, 5), ValueError, "labels must be >= 2"),
    (lambda: coxeter.center_check_plus(coxeter.CoxeterMatrix(((1, 3), (3, 1)))), ValueError,
     "center check implemented for rank-3 triangles"),
    (lambda: reps.build_rho_preset(2, 3, 5, "bogus"), ValueError,
     "unknown (q,r) preset 'bogus'; have ['standard', 'swapped']"),
])
def test_refusals_name_their_fault(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("int_first", [False, True], ids=["float-first", "int-first"])
@pytest.mark.parametrize("cached, labels", [
    (maps.build_phi, (2, 3, 7)),
    (coxeter.triangle_table, (2, 3, 7)),
    (classify.finite_quotient, (3, 2, 3, 1000)),
    (reps._field, (2, 3, 7)),
], ids=["build_phi", "triangle_table", "finite_quotient", "_field"])
def test_a_float_label_is_refused_whatever_the_cache_holds(cached, labels, int_first):
    # a once-per-process cache keyed by value alone would answer 2.0 once 2 had filled it
    floated = (float(labels[0]),) + labels[1:]
    cached.cache_clear()
    if int_first:
        cached(*labels)
    with pytest.raises((ValueError, TypeError)):
        cached(*floated)
    cached(*labels)
    with pytest.raises((ValueError, TypeError)):
        cached(*floated)
