import pytest
from hypothesis import example, given, strategies as st

from conftest import identity_map
from oracles import reference_apply_map, reference_parse_either, reference_parse_word

from toricgroups.words import (
    Alphabet,
    Derivation,
    GenMap,
    RewriteStep,
    Word,
    WordSyntaxError,
    apply_map,
    check_derivation,
    compose,
    cyclic_reduce,
    free_reduce,
    invert,
    parse_word,
    pick_alphabet,
    signed_table,
    word_to_text,
)

AB = Alphabet(["x1", "x2", "x3"])


def w(text: str) -> Word:
    return AB.word(text)


letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=40)


def test_alphabets_with_equal_names_are_equal_and_hash_equal():
    other = Alphabet(["x1", "x2", "x3"])
    assert other is not AB
    assert other == AB and not other != AB
    assert hash(other) == hash(AB)
    assert other.names == AB.names == ("x1", "x2", "x3")
    assert len({AB, other}) == 1


def test_alphabets_with_reordered_names_are_unequal():
    other = Alphabet(["x2", "x1", "x3"])
    assert other != AB and not other == AB
    assert Alphabet(["x1", "x2"]) != AB


def test_alphabet_is_unequal_to_other_types():
    assert AB != ("x1", "x2", "x3")
    assert not AB == ["x1", "x2", "x3"]
    assert AB != "x1 x2 x3"


def test_words_over_equal_but_distinct_alphabets_are_equal():
    other = Alphabet(["x1", "x2", "x3"])
    u, v = w("x1 x2^-1 x3^2"), other.word("x1 x2^-1 x3^2")
    assert u.alphabet is not v.alphabet
    assert u == v and hash(u) == hash(v)
    assert {u: 1}[v] == 1
    assert u * v == w("x1 x2^-1 x3^2 x1 x2^-1 x3^2")
    assert u != Alphabet(["x2", "x1", "x3"]).word("x1 x2^-1 x3^2")


def test_free_reduce_cancellation():
    assert free_reduce(w("x1 x1^-1 x2")) == w("x2")


def test_free_reduce_identity_case():
    assert free_reduce(w("1")) == w("1")
    assert w("1").letters == ()


def test_free_reduce_nested():
    assert free_reduce(w("x2 x1 x1^-1 x2^-1")).letters == ()


@given(letters)
def test_free_reduce_idempotent_and_shorter(ls):
    word = Word(AB, tuple(ls))
    once = free_reduce(word)
    assert free_reduce(once) == once
    assert len(once) <= len(word)
    assert all(a != -b for a, b in zip(once.letters, once.letters[1:]))


def test_invert_examples():
    assert invert(w("x1 x2")) == w("x2^-1 x1^-1")
    assert invert(w("1")) == w("1")
    assert invert(invert(w("x1 x2^-1 x3"))) == w("x1 x2^-1 x3")


@given(letters)
def test_inverse_cancels(ls):
    word = Word(AB, tuple(ls))
    assert free_reduce(word * invert(word)).letters == ()


def test_cyclic_reduce():
    assert cyclic_reduce(w("x1 x2 x1^-1")) == w("x2")
    assert cyclic_reduce(w("x1 x2")) == w("x1 x2")


# --- text syntax -------------------------------------------------------------


def test_parse_exponents_expand():
    assert w("x1^3").letters == (1, 1, 1)
    assert w("x2^-2").letters == (-2, -2)


def test_parse_rejects_unknown_generator():
    with pytest.raises(WordSyntaxError):
        parse_word(AB, "zz")


def test_parse_rejects_zero_exponent():
    with pytest.raises(WordSyntaxError):
        parse_word(AB, "x1^0")


def test_parse_error_columns():
    for text, message, column in [
        ("x1 zz", "unknown generator 'zz'", 4),
        ("  x1 x1^0", "zero exponent in 'x1^0'", 6),
        ("x1^2 1 x1^x", "bad exponent in 'x1^x'", 8),
        ("x1\tx1 x1^", "bad exponent in 'x1^'", 7),
        ("x1^2 x1^", "bad exponent in 'x1^'", 6),
        # a valid exponent after the first bad token is never expanded
        ("zz x1^100000000000000000000", "unknown generator 'zz'", 1),
    ]:
        with pytest.raises(WordSyntaxError) as err:
            parse_word(AB, text)
        assert (str(err.value), err.value.column) == (message, column)


def _parse_outcome(parse, text):
    try:
        return parse(AB, text)
    except WordSyntaxError as e:
        return str(e), e.column


# good tokens three times as often as bad ones, which are often substrings
# of good ones, so that a bad token's column depends on the tokens before it
GOOD = ["1", "x1", "x2", "x3", "x1^2", "x2^-3", "x1^+2", "x3^12"]
BAD = ["x3^0", "x1^", "x2^x", "x", "x12", "^2", "y^2", "x1^-"]
tokens = st.sampled_from(GOOD * 3 + BAD) | st.builds("x{}^{}".format, st.integers(1, 3), st.integers(-6, 6))
separators = st.sampled_from([" ", "  ", "\t", "\n ", " \t"])


@given(st.lists(st.tuples(tokens, separators), max_size=30), separators)
def test_parse_word_matches_running_index_reference(stream, lead):
    text = lead + "".join(token + sep for token, sep in stream)
    assert _parse_outcome(parse_word, text) == _parse_outcome(reference_parse_word, text)


# the two pairs of alphabets the CLI reads a word over: wp garside's {x, y},
# else x1 ... xn, and rep eval's {s, t, u}, else x1 ... xb
FIRSTS = (Alphabet(["x", "y"]), Alphabet(["s", "t", "u"]))
ODD_TOKENS = ["1", "1^2", "^2", "x^0", "x1^0", "x^a", "v", "x0", "x9", "s1", "y2"]
# separators, ASCII and not: every character str.split() splits on is one
SPACES = [" ", "\t", "\n", "\x1c", "\x85", "\u00a0", "\u2003", "\u2028", "\u3000"]


@st.composite
def two_alphabet_texts(draw):
    first = draw(st.sampled_from(FIRSTS))
    second = Alphabet([f"x{i}" for i in range(1, draw(st.integers(1, 5)) + 1)])
    names = st.sampled_from(first.names + second.names)
    token = names | st.builds("{}^{}".format, names, st.integers(-3, 3)) | st.sampled_from(ODD_TOKENS)
    text = draw(st.lists(st.tuples(token, st.sampled_from(SPACES)), max_size=6))
    return first, second, "".join(t + sep for t, sep in text)


def _either_outcome(parse, first, second, text):
    calls = []

    def build():
        calls.append(second)
        return second

    try:
        return parse(first, build, text), len(calls)
    except WordSyntaxError as e:
        return (str(e), e.column), len(calls)


def _parse_picked(first, second, text):
    return parse_word(pick_alphabet(first, second, text), text)


@given(two_alphabet_texts())
@example((FIRSTS[0], Alphabet(["x1", "x2"]), "1\u00a0x2^-1\u3000y"))
@example((FIRSTS[1], Alphabet(["x1", "x2"]), "\u20031\x85s\u2028x1"))
def test_pick_alphabet_then_parse_word_matches_the_column_rule(case):
    # over alphabets with disjoint names, the first generator picks the
    # alphabet that the reference picks by comparing error columns
    first, second, text = case
    got, calls = _either_outcome(_parse_picked, first, second, text)
    assert got == _either_outcome(reference_parse_either, first, second, text)[0]
    named = [token.partition("^")[0] for token in text.split() if token != "1"]
    assert calls == (0 if not named or named[0] in first else 1)


def test_word_range_check_names_the_first_bad_letter():
    with pytest.raises(ValueError, match="letter 4 out of range"):
        Word(AB, (1, -3, 4, 0))
    with pytest.raises(ValueError, match="letter 0 out of range"):
        Word(AB, (1, 0, -4))
    with pytest.raises(ValueError, match="letter -4 out of range"):
        Word(AB, (-4,))


@given(letters)
def test_text_round_trip(ls):
    word = Word(AB, tuple(ls))
    assert parse_word(AB, word_to_text(word)) == word


# --- generator maps -----------------------------------------------------------


def sigma_23() -> GenMap:
    # x -> x1 x2 x1, y -> x1 x2 for (n, m) = (2, 3)
    src = Alphabet(["x", "y"])
    tgt = Alphabet(["x1", "x2"])
    return GenMap(src, tgt, (tgt.word("x1 x2 x1"), tgt.word("x1 x2")))


def test_apply_map_substitution():
    f = sigma_23()
    assert apply_map(f, f.source.word("x")) == f.target.word("x1 x2 x1")
    assert apply_map(f, f.source.word("x y^-1")) == f.target.word("x1 x2 x1 x2^-1 x1^-1")


def test_apply_map_identity():
    ident = identity_map(AB)
    assert apply_map(ident, w("x1 x2^-1 x3")) == w("x1 x2^-1 x3")


def test_apply_map_requires_known_generators():
    f = sigma_23()
    with pytest.raises(ValueError):
        apply_map(f, AB.word("x1"))


@given(letters, letters)
def test_apply_map_is_homomorphism(ls1, ls2):
    tgt = Alphabet(["a", "b"])
    f = GenMap(AB, tgt, (tgt.word("a b"), tgt.word("b^-1"), tgt.word("a a")))
    u, v = Word(AB, tuple(ls1)), Word(AB, tuple(ls2))
    assert apply_map(f, u * v) == free_reduce(apply_map(f, u) * apply_map(f, v))


def test_compose_maps():
    tgt = Alphabet(["a", "b"])
    f = GenMap(AB, tgt, (tgt.word("a"), tgt.word("b"), tgt.word("a b")))
    g = GenMap(tgt, AB, (AB.word("x1 x1"), AB.word("x2")))
    gf = compose(g, f)
    word = w("x3 x1^-1")
    assert apply_map(gf, word) == apply_map(g, apply_map(f, word))


# --- derivations ---------------------------------------------------------------


def test_derivation_checker_accepts_valid_chain():
    rel = [free_reduce(w("x1 x2") * invert(w("x2 x3")))]  # says x1 x2 = x2 x3
    d = Derivation(w("x1 x2 x1"), (RewriteStep(0, w("x1 x2"), w("x2 x3"), 0),))
    assert check_derivation(d, rel) == w("x2 x3 x1")


def test_derivation_checker_rejects_wrong_citation():
    rel = [free_reduce(w("x1 x2") * invert(w("x2 x3")))]
    d = Derivation(w("x1 x2"), (RewriteStep(0, w("x1 x2"), w("x3 x2"), 0),))
    with pytest.raises(ValueError):
        check_derivation(d, rel)


@pytest.mark.parametrize("index", [1, -1])
def test_derivation_checker_refuses_a_citation_outside_the_relators(index):
    # past the end, or counted from it: the one relator is an instance of
    # the step, so only the index is wrong
    rel = [free_reduce(w("x1 x2") * invert(w("x2 x3")))]
    d = Derivation(w("x1 x2"), (RewriteStep(0, w("x1 x2"), w("x2 x3"), index),))
    with pytest.raises(ValueError, match=f"^step 0: cites relator {index} of 1$"):
        check_derivation(d, rel)


def test_derivation_free_step():
    d = Derivation(w("x1"), (RewriteStep(1, w("1"), w("x2 x2^-1"), None),))
    assert free_reduce(check_derivation(d, [])) == w("x1")


@st.composite
def maps_and_words(draw):
    """A GenMap from an alphabet of 1 to 4 generators into AB, empty images
    included, and a word over its source with inverse letters."""
    n = draw(st.integers(1, 4))
    source = Alphabet([f"g{i}" for i in range(1, n + 1)])
    images = tuple(Word(AB, tuple(draw(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6))))
                   for _ in range(n))
    word = Word(source, tuple(draw(st.lists(st.sampled_from([*range(-n, 0), *range(1, n + 1)]), max_size=30))))
    return GenMap(source, AB, images), word


@given(maps_and_words())
def test_apply_map_matches_the_letter_wise_reference(case):
    f, word = case
    assert apply_map(f, word) == reference_apply_map(f, word)


def _signed_tables() -> dict:
    """Each consumer's images, the inverse it passes to ``signed_table``, and
    whether entry x joined with entry -x is its identity."""
    from toricgroups.garside import tau
    from toricgroups.reps import build_rho_preset, mat_identity, mat_inv, mat_mul
    from toricgroups.schreier import _closed_form_walks, _join_walks
    from toricgroups.words import free_reduce_letters

    n, m = 3, 5
    images = tau(n, m).images
    rep = build_rho_preset(2, 3, 7)
    walks = [_closed_form_walks(n, m, which, ell, p) for which in "su" for ell in range(m) for p in range(1, n)]
    return {
        "letters": ([w.letters for w in images], lambda ls: tuple(-y for y in reversed(ls)),
                    lambda a, b: not free_reduce_letters(a + b)),
        "matrices": ([rep.mat_s, rep.mat_t, rep.mat_u], mat_inv,
                     lambda a, b: mat_mul(a, b) == mat_identity(rep.q.n)),
        "walks": (walks, lambda ends: ends[::-1], lambda a, b: _join_walks(a + b, n) == []),
    }


@pytest.mark.parametrize("consumer", ["letters", "matrices", "walks"])
def test_signed_table_entry_minus_x_inverts_entry_x(consumer):
    images, inverse, cancels = _signed_tables()[consumer]
    table = signed_table(images, inverse)
    assert table[0] is None and len(table) == 2 * len(images) + 1
    for x, image in enumerate(images, start=1):
        assert table[x] == image
        assert cancels(table[x], table[-x]) and cancels(table[-x], table[x]), (consumer, x)
