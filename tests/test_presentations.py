import gc
import hashlib
import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import FINITE_ROWS, ParseError, parse_presentation
from oracles import reference_cancel_outward, reference_tietze
from toricgroups import presentations as pres
from toricgroups import schreier
from toricgroups.classify import classify_toric
from toricgroups.cosets import todd_coxeter
from toricgroups.presentations import (
    FamilyParams,
    ParameterError,
    Presentation,
    TietzeBudgetExceeded,
    build,
    serialize,
    tietze_simplify,
)
from toricgroups.words import Alphabet, Word, cyclic_reduce_letters, free_reduce, free_reduce_letters

def test_toric_234_matches_display():
    p = pres.toric(2, 3, 4)
    assert p.gens == ("x1", "x2", "x3")
    texts = [str(r) for r in p.relators]
    assert texts[:3] == ["x1^2", "x2^2", "x3^2"]
    # x1 x2 x3 x1 = x2 x3 x1 x2 and = x3 x1 x2 x3, anchored at the first word
    assert texts[3] == "x1 x2 x3 x1 x2^-1 x1^-1 x3^-1 x2^-1"
    assert texts[4] == "x1 x2 x3 x1 x3^-1 x2^-1 x1^-1 x3^-1"


def test_torus_standard_23():
    p = pres.torus_standard(2, 3)
    assert p.gens == ("x", "y")
    assert [str(r) for r in p.relators] == ["x^2 y^-3"]


def test_alt_plus_relators():
    p = pres.alt_plus(2, 3, 5)
    assert [str(r) for r in p.relators] == ["a^2", "b^3", "b a^-1 b a^-1 b a^-1 b a^-1 b a^-1"]


def test_torus_dual_gen_count():
    p = pres.torus_dual(2, 3)
    assert len(p.gens) == 3
    assert len(p.relators) == 2


def test_relator_counts_across_families():
    for n, m in [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5)]:
        for k in (2, 3, 5):
            toric = pres.toric(k, n, m)
            assert len(toric.relators) == len(toric.gens) + (len(toric.gens) - 1)
            assert all(free_reduce(r) == r and r.letters for r in toric.relators)
    assert len(pres.coxeter_triangle(4, 2, 3).relators) == 6
    assert len(pres.j_parent(2, 3, 4).relators) == 5


def test_build_reads_toric_labels_as_given():
    # W(k,n,m) and W(k,m,n) are isomorphic, but x_i is not sent to x_i, so
    # build keeps n > m: the labels name the presentation with n meridians
    assert build(FamilyParams("toric", (2, 4, 3))) == pres.toric(2, 4, 3)
    assert pres.toric(2, 4, 3).gens == ("x1", "x2", "x3", "x4")


def test_parameter_domain_errors():
    with pytest.raises(ParameterError):
        pres.toric(2, 4, 6)  # gcd
    with pytest.raises(ParameterError):
        pres.toric(1, 2, 3)  # label < 2
    with pytest.raises(ParameterError):
        FamilyParams("nonsense", (2, 3))
    with pytest.raises(ParameterError):
        FamilyParams("toric", (2, 3))  # arity


# the orders of the groups that classify names W/Z, written out here
CENTER_QUOTIENT_ORDERS = {"A4": 12, "S4": 24, "A5": 60, **{f"I2({m})": 2 * m for m in (3, 5, 7, 9)}}


@pytest.mark.parametrize("k,n,m", FINITE_ROWS + [(k, m, n) for k, n, m in FINITE_ROWS])
def test_alt_toric_presents_the_alternating_subgroup_that_classify_names(k, n, m):
    # W/<c> is W+ (the paper's theorem), presented by alt_plus, and on a finite
    # row its order is that of the W/Z that classify names
    order = todd_coxeter(pres.alt_toric(k, n, m)).num_cosets
    assert order == todd_coxeter(pres.alt_plus(k, n, m)).num_cosets
    assert order == CENTER_QUOTIENT_ORDERS[classify_toric(k, n, m)[0]["center_quotient"]]


def test_build_dispatch_matches_constructors():
    assert build(FamilyParams("toric", (2, 3, 4))) == pres.toric(2, 3, 4)
    assert build(FamilyParams("j-parent", (2, 3, 3))) == pres.j_parent(2, 3, 3)
    assert build(FamilyParams("alt-toric", (3, 2, 3))) == pres.alt_toric(3, 2, 3)


# --- file format ----------------------------------------------------------------


def test_parse_equality_chain():
    p = parse_presentation("gens: x y\nrel: x^2 = y^3")
    assert p == pres.torus_standard(2, 3)


def test_parse_single_relator_and_comments():
    p = parse_presentation("# cyclic group\ngens: a\nrel: a^3  # order three\n")
    assert p.gens == ("a",)
    assert [str(r) for r in p.relators] == ["a^3"]


def test_parse_malformed_equality():
    with pytest.raises(ParseError) as err:
        parse_presentation("gens: x\nrel: x = ")
    assert err.value.line == 2


@pytest.mark.parametrize("text, column", [
    ("gens: a b\nrel: a b = b c", 14),  # the unknown c, on the second side
    ("gens: a b\nrel:   a^0", 8),  # the zero exponent after the indent
    ("gens: a b\nrel: a = b = ", 12),  # the '=' before the empty side
    ("gens: a b\nrel: = a", 6),  # the '=' after an empty first side
    ("gens: a b\n  rel : a\t d", 12),  # past an indent and a spaced key
])
def test_parse_error_columns_count_from_the_line(text, column):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column) == (2, column)


@pytest.mark.parametrize("text, line, column, message", [
    ("gens: a a", 1, 9, "duplicate generator names in ('a', 'a')"),  # the repeated a
    ("gens: a 1", 1, 9, "'1' is reserved for the empty word"),
    ("gens: a b=c", 1, 9, "invalid generator name 'b=c'"),
    ("  gens :\ta  b a", 1, 15, "duplicate generator names in ('a', 'b', 'a')"),  # past an indent and a spaced key
    ("gens: a\nrel:", 2, 5, "empty word in relation"),  # just past the colon
    ("gens: a\n rel:  # nothing", 2, 6, "empty word in relation"),
])
def test_parse_error_columns_on_gens_lines_and_bare_rels(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column, str(err.value)) == (line, column, f"line {line}, column {column}: {message}")


@pytest.mark.parametrize("text, column", [("gens:", 6), ("  gens :  # none", 9), ("gens:\t", 6)])
def test_an_empty_gens_line_points_just_past_its_colon(text, column):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert str(err.value) == f"line 1, column {column}: empty generator list"


def test_parse_reports_line_of_unknown_generator():
    with pytest.raises(ParseError) as err:
        parse_presentation("gens: x\nrel: x\nrel: q")
    assert err.value.line == 3


def test_round_trip_every_family():
    for params in [
        FamilyParams("torus-standard", (2, 3)),
        FamilyParams("torus-classical", (3, 4)),
        FamilyParams("torus-dual", (2, 5)),
        FamilyParams("toric", (3, 2, 3)),
        FamilyParams("j-parent", (2, 3, 5)),
        FamilyParams("coxeter-triangle", (6, 2, 3)),
        FamilyParams("alt-plus", (2, 3, 7)),
        FamilyParams("alt-toric", (2, 3, 5)),
    ]:
        p = build(params)
        assert parse_presentation(serialize(p)) == p


# --- Tietze ---------------------------------------------------------------------


def test_tietze_eliminates_defined_generator():
    p = parse_presentation("gens: x y\nrel: y x^-2")
    q = tietze_simplify(p)
    assert q.gens == ("x",)
    assert q.relators == ()


def test_tietze_fixed_point_on_toric():
    p = pres.toric(2, 3, 4)
    assert tietze_simplify(p) == p


def test_tietze_drops_trivial_and_duplicate_relators():
    p = parse_presentation("gens: a b\nrel: a b b^-1 a^-1\nrel: a^2\nrel: a^2\nrel: b a^-1")
    q = tietze_simplify(p)
    # lowest index first: a is defined by the last relator and eliminated
    assert q.gens == ("b",)
    assert [str(r) for r in q.relators] == ["b^2"]


def test_tietze_budget_signal_carries_best():
    p = parse_presentation("gens: a b c\nrel: a b^-1\nrel: b c^-1\nrel: c^5")
    with pytest.raises(TietzeBudgetExceeded) as err:
        tietze_simplify(p, budget=1)
    best = err.value.best
    assert isinstance(best, Presentation)
    assert len(best.gens) == 2  # one elimination happened before the signal


def test_tietze_preserves_group_order_on_finite_rows(finite_rows):
    from toricgroups.cosets import group_order

    for k, n, m in finite_rows[:4]:
        p = pres.toric(k, n, m)
        assert group_order(tietze_simplify(p)) == group_order(p)


def test_tietze_budget_zero_raises_with_normalised_input():
    p = parse_presentation("gens: a b\nrel: a^-1 b^2 a\nrel: a b^-1\nrel: b^2\nrel: 1")
    with pytest.raises(TietzeBudgetExceeded) as err:
        tietze_simplify(p, budget=0)
    assert err.value.best == parse_presentation("gens: a b\nrel: b^2\nrel: a b^-1")


def test_tietze_budget_zero_on_fixed_point_returns_it():
    p = pres.toric(2, 3, 4)
    assert tietze_simplify(p, budget=0) == p


def test_tietze_earlier_of_two_equal_relators_survives():
    # a = b turns a^3 into b^3, equal to the last relator: the earlier copy
    # stays, so b^3 comes before b^5
    p = parse_presentation("gens: a b\nrel: a b^-1\nrel: a^3\nrel: b^5\nrel: b^3")
    q = tietze_simplify(p)
    assert q.gens == ("b",)
    assert [str(r) for r in q.relators] == ["b^3", "b^5"]
    assert q == reference_tietze(p)


def test_tietze_sees_occurrences_removed_by_cyclic_reduction():
    # g = 1 turns g a^2 b^2 a^-1 into a^2 b^2 a^-1, whose cyclic reduction
    # a b^2 has a single a, so a is eliminated next
    p = parse_presentation("gens: g a b\nrel: g\nrel: g a^2 b^2 a^-1")
    q = tietze_simplify(p)
    assert q.gens == ("b",)
    assert q.relators == ()
    assert q == reference_tietze(p)


def test_tietze_cancels_every_seam_of_a_substitution():
    # a = b makes b^-1 a b^-1 a c^2 into b^-1 b b^-1 b c^2: two cancelling
    # seams side by side, leaving c^2
    p = parse_presentation("gens: a b c\nrel: a b^-1\nrel: b^-1 a b^-1 a c^2")
    q = tietze_simplify(p)
    assert q == parse_presentation("gens: b c\nrel: c^2")
    assert q == reference_tietze(p)


def test_tietze_cancels_through_a_deleted_generator():
    # g = 1 makes x y g y^-1 x^-1 z^2 into x y y^-1 x^-1 z^2, which cancels
    # two letters deep
    p = parse_presentation("gens: g x y z\nrel: g\nrel: x y g y^-1 x^-1 z^2")
    q = tietze_simplify(p)
    assert q == parse_presentation("gens: x y z\nrel: z^2")
    assert q == reference_tietze(p)


def _code(letters) -> str:
    """Letters as ``tietze_simplify`` holds them: h is chr(2h), h^-1 chr(2h + 1)."""
    return "".join(chr(2 * x if x > 0 else 1 - 2 * x) for x in letters)


@st.composite
def substitutions(draw) -> tuple[str, tuple[str, ...]]:
    """A relator with g = 1 substituted as ``tietze_simplify`` does it, and
    the cuts it cancels at: g's two seam pairs, or g itself for an empty
    image.  The relator is cyclically reduced and the image, over the other
    generators, freely reduced."""
    n = draw(st.integers(2, 4))
    letter = st.integers(1, n).flatmap(lambda h: st.sampled_from((h, -h)))
    old = _code(cyclic_reduce_letters(draw(st.lists(letter, max_size=14))))
    image = _code(free_reduce_letters(draw(st.lists(letter.filter(lambda x: abs(x) != 1), max_size=5))))
    up, down = _code([1]), _code([-1])
    if not image:
        return old.replace(down, up), (up,)
    image_inv = image[::-1].translate({ord(c): ord(c) ^ 1 for c in image})
    pairs = (chr(ord(image[0]) ^ 1) + image[0], image[-1] + chr(ord(image[-1]) ^ 1))
    return old.replace(up, image_inv).replace(down, image), pairs


@given(substitutions())
# g = 1 in x g y g y^-1 x^-1 (g, x, y = 1, 2, 3): joining y^-1 x^-1 cancels
# y, then reaches back past the first gap to cancel x, leaving nothing
@example((_code([2, 1, 3, 1, -3, -2]), (_code([1]),)))
def test_cancel_outward_matches_reference_on_substitutions(case):
    s, cuts = case
    for cut in cuts:
        got = pres._cancel_outward(s, cut)
        assert got == reference_cancel_outward(s, cut)
        s = got
    decoded = [ord(c) >> 1 if ord(c) % 2 == 0 else -(ord(c) >> 1) for c in s]
    assert decoded == free_reduce_letters(decoded)


# --- Tietze against the reference elimination loop ------------------------------


def _tietze_outcome(simplify, p: Presentation, budget: int) -> tuple[str, Presentation]:
    try:
        return "done", simplify(p, budget=budget)
    except TietzeBudgetExceeded as e:
        return "budget", e.best


def test_tietze_g_equal_one_cancels_across_two_gaps():
    # g1 = 1 deletes three g1: the second deletion cancels g3 g3^-1 and leaves
    # g2 g1 g2^-1 g3, so the third, one letter left of where the search stood,
    # cancels g2 g2^-1 across the two gaps, leaving g3
    p = parse_presentation("gens: g1 g2 g3\nrel: g1\nrel: g2 g1 g3 g1 g3^-1 g1 g2^-1 g3")
    assert _tietze_outcome(tietze_simplify, p, 1) == ("budget", parse_presentation("gens: g2 g3\nrel: g3"))
    for budget in (1, 10):
        assert _tietze_outcome(tietze_simplify, p, budget) == _tietze_outcome(reference_tietze, p, budget)


@st.composite
def small_presentations(draw) -> Presentation:
    n = draw(st.integers(1, 5))
    letter = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    words = draw(st.lists(st.lists(letter, max_size=8), max_size=6))
    alphabet = Alphabet([f"g{i}" for i in range(1, n + 1)])
    return Presentation(alphabet, tuple(Word(alphabet, tuple(w)) for w in words))


@given(small_presentations(), st.sampled_from((0, 1, 2, 10_000)))
def test_tietze_matches_reference_on_random_presentations(p, budget):
    assert _tietze_outcome(tietze_simplify, p, budget) == _tietze_outcome(reference_tietze, p, budget)


def _never_eliminated_low_generator() -> Presentation:
    # a sits twice in each of 24 relators and is never eliminated, while
    # b1, b2, ... go one by one, each rewriting relators that contain a
    rng = random.Random(5)
    lines = ["gens: a " + " ".join(f"b{i}" for i in range(1, 9))]
    lines += [f"rel: b{i} b{i + 1}^-1" for i in range(1, 8)]
    for _ in range(24):
        x, y = rng.sample(range(1, 9), 2)
        lines.append(f"rel: a^2 b{x} b{y}^{rng.choice((1, -1))}")
    return parse_presentation("\n".join(lines))


# Reidemeister-Schreier presentations eliminate their generators in
# increasing order; these take the paths that order never does.
NAMED_PRESENTATIONS = {
    # a is not eligible until b is eliminated
    "lower-generator-eligible-later": parse_presentation("gens: a b\nrel: a b^-1 a^-1 b a\nrel: b"),
    "never-eliminated-low-generator": _never_eliminated_low_generator(),
}


@pytest.mark.parametrize("name", sorted(NAMED_PRESENTATIONS))
def test_tietze_matches_reference_on_named_presentations(name):
    p = NAMED_PRESENTATIONS[name]
    for budget in (0, 1, 2, 5, 10_000):
        assert _tietze_outcome(tietze_simplify, p, budget) == _tietze_outcome(reference_tietze, p, budget)


def _rs(a: int, b: int, c: int) -> Presentation:
    """The RS presentation of the normal closure of s in J(a,b,c)."""
    parent = pres.j_parent(a, b, c)
    quotient = Presentation(parent.alphabet, parent.relators + (parent.alphabet.word("s"),))
    table = todd_coxeter(quotient)
    tr = schreier.schreier_transversal(table, schreier.toric_column_order(parent.alphabet))
    return schreier.rs_presentation(parent, table, tr).presentation


# the last three are gcd(b, c) != 1 rows, where `derive` runs Tietze
@pytest.mark.parametrize("a,b,c", [(2, 3, 5), (3, 2, 3), (2, 7, 9), (3, 5, 7), (2, 9, 11),
                                   (2, 3, 3), (6, 2, 4), (2, 4, 6)])
def test_tietze_matches_reference_on_rs_presentations(a, b, c):
    rs = _rs(a, b, c)
    for budget in (0, 1, 5, 17, 10_000):
        status, got = _tietze_outcome(tietze_simplify, rs, budget)
        want_status, want = _tietze_outcome(reference_tietze, rs, budget)
        assert (status, serialize(got)) == (want_status, serialize(want))


def test_tietze_leaves_no_reference_cycle():
    # its working state goes when it returns, without waiting for a full
    # garbage collection
    rs = _rs(2, 9, 11)
    gc.collect()
    gc.disable()
    try:
        tietze_simplify(rs)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("a,b,c,digest", [
    (2, 13, 15, "06eec8f5035cdf7e549eb77413ce1749e27bc22054db02851057164c5550f892"),
    (2, 17, 19, "ee2d4356bbf57a12ebd3f448c8983e8269391efbcaa0b26cb1868c0c380438a8"),
], ids=["index-195", "index-323"])
def test_tietze_output_is_pinned_at_the_stress_points(a, b, c, digest):
    # the benchmark's RS-then-Tietze points, index 195 and 323, where the
    # reference elimination loop is too slow to compare against; the digests
    # were recorded before the choice of generator stopped keeping exact
    # occurrence counts
    assert hashlib.sha256(serialize(tietze_simplify(_rs(a, b, c))).encode()).hexdigest() == digest


def test_tietze_letters_straddle_the_surrogate_block():
    # generator h is code point 2h, so h from 27,647 to 28,672 runs from just
    # below 0xD800 to just above 0xDFFF
    alphabet = Alphabet([f"g{i}" for i in range(1, 28_673)])
    gens = (27_647, 27_648, 27_649, 28_000, 28_670, 28_671, 28_672)
    rng = random.Random(7)
    for budget in (10_000, 10_000, 1):
        words = [[rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randrange(1, 7))]
                 for _ in range(rng.randrange(2, 6))]
        p = Presentation(alphabet, tuple(Word(alphabet, tuple(w)) for w in words))
        assert _tietze_outcome(tietze_simplify, p, budget) == _tietze_outcome(reference_tietze, p, budget)


def test_tietze_refuses_more_generators_than_code_points(monkeypatch):
    # generator h is code point 2h and its inverse 2h + 1, so a limit of 9
    # holds 4 generators
    monkeypatch.setattr(pres, "_MAX_CODE_POINT", 9)
    p = parse_presentation("gens: a b c d\nrel: a b^-1\nrel: b^3")
    assert tietze_simplify(p) == parse_presentation("gens: b c d\nrel: b^3")

    def no_work(w):
        raise AssertionError("work began before the generator count was checked")

    monkeypatch.setattr(pres, "cyclic_reduce", no_work)
    p = parse_presentation("gens: a b c d e\nrel: a b^-1")
    with pytest.raises(ValueError, match="at most 4 generators, got 5"):
        tietze_simplify(p)
