import math
import os
import pathlib
import random
import subprocess
import sys
import time
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FINITE_ROWS, image_of, toric_cayley
from oracles import garside_nf_word, monoid_equal, reference_gnf, reference_parse_word

from toricgroups import garside
from toricgroups.garside import (
    GarsideNF,
    gnf,
    meridian,
    meridian_derivation,
    sigma,
    tau,
    word_problem,
)
from toricgroups.maps import check_hom
from toricgroups.presentations import XY, delta_power_to_twist, torus_classical
from toricgroups.words import (Derivation, RewriteStep, Word, WordSyntaxError, apply_map, check_derivation,
                               free_reduce, parse_word, signed_table)

AB = XY
PAIRS = [(2, 3), (3, 4), (2, 5), (3, 5)]


def rand_word(rng, max_len=30) -> Word:
    return Word(AB, tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, max_len))))


def simples(n: int, m: int) -> list[Word]:
    """All simple elements as positive words: 1, x^i, y^j, Delta = x^n."""
    return ([Word(AB, ())] + [Word(AB, (1,) * i) for i in range(1, n)] + [Word(AB, (2,) * j) for j in range(1, m)]
            + [Word(AB, (1,) * n)])


def abelianized(w: Word, n: int, m: int) -> int:
    """Image in the infinite cyclic abelianization: x -> m, y -> n."""
    return sum((m if abs(x) == 1 else n) * (1 if x > 0 else -1) for x in w.letters)


def insert_relator(rng, w: Word, n: int, m: int) -> Word:
    rel = tuple([1] * n + [-2] * m)
    if rng.random() < 0.5:
        rel = tuple(-x for x in reversed(rel))
    conj = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 6)))
    ins = conj + rel + tuple(-x for x in reversed(conj))
    pos = rng.randrange(0, len(w.letters) + 1)
    return Word(AB, w.letters[:pos] + ins + w.letters[pos:])


def test_delta_normal_forms():
    assert gnf(2, 3, AB.word("x^2")) == GarsideNF(2, 3, 1, ())
    assert gnf(2, 3, AB.word("y^3")) == GarsideNF(2, 3, 1, ())
    assert gnf(2, 3, AB.word("1")) == GarsideNF(2, 3, 0, ())


def test_free_cancellation():
    assert gnf(2, 3, AB.word("y x^-1 x")) == GarsideNF(2, 3, 0, (("y", 1),))


def test_rendering():
    nf = gnf(3, 4, AB.word("x^4 y"))
    assert str(nf) == "D · x | y"
    assert str(gnf(2, 3, AB.word("1"))) == "D^0"


@pytest.mark.parametrize("n,m", PAIRS)
def test_delta_is_central(n, m):
    delta = AB.word("x") ** n
    for g in (AB.word("x"), AB.word("y")):
        assert gnf(n, m, g * delta) == gnf(n, m, delta * g)


@pytest.mark.parametrize("n,m", PAIRS)
def test_x_and_y_distinct(n, m):
    assert gnf(n, m, AB.word("x")) != gnf(n, m, AB.word("y"))


def test_gnf_factors_are_proper_simples():
    rng = random.Random(7)
    for n, m in PAIRS:
        for _ in range(200):
            nf = gnf(n, m, rand_word(rng))
            for sym, e in nf.factors:
                bound = n if sym == "x" else m
                assert 1 <= e < bound
            for (s1, _), (s2, _) in zip(nf.factors, nf.factors[1:]):
                assert s1 != s2  # alternating blocks


@pytest.mark.parametrize("n,m", PAIRS)
def test_round_trip_idempotence(n, m):
    rng = random.Random(1)
    for _ in range(300):
        nf = gnf(n, m, rand_word(rng))
        assert gnf(n, m, garside_nf_word(nf)) == nf


@pytest.mark.parametrize("n,m", PAIRS)
def test_relator_insertion_never_changes_gnf(n, m):
    rng = random.Random(0)
    for _ in range(1000):
        w = rand_word(rng)
        assert gnf(n, m, w) == gnf(n, m, insert_relator(rng, w, n, m))


def test_simple_products_match_monoid_oracle():
    """Exhaustive check of the greedy step against brute-force rewriting."""
    for n in range(2, 6):
        for m in range(2, 6):
            if n == m or math.gcd(n, m) != 1:
                continue
            for s1 in simples(n, m):
                for s2 in simples(n, m):
                    product = s1 * s2
                    nf = gnf(n, m, product)
                    rendered = garside_nf_word(nf)
                    assert all(x > 0 for x in rendered.letters)
                    assert monoid_equal(
                        n, m,
                        "".join("x" if x == 1 else "y" for x in product.letters),
                        "".join("x" if x == 1 else "y" for x in rendered.letters),
                    )


def test_distinct_normal_forms_are_inequivalent_in_monoid():
    n, m = 2, 3
    reps = {}
    for s1 in simples(n, m):
        for s2 in simples(n, m):
            w = s1 * s2
            reps.setdefault(gnf(n, m, w), "".join("x" if x == 1 else "y" for x in w.letters))
    forms = list(reps.items())
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            assert not monoid_equal(n, m, forms[i][1], forms[j][1])


@pytest.mark.parametrize("n,m", PAIRS)
def test_abelianization_is_gnf_invariant(n, m):
    rng = random.Random(5)
    for _ in range(200):
        w = rand_word(rng)
        w2 = insert_relator(rng, w, n, m)
        assert abelianized(w, n, m) == abelianized(w2, n, m)
        u = rand_word(rng)
        if abelianized(w, n, m) != abelianized(u, n, m):
            assert gnf(n, m, w) != gnf(n, m, u)


def test_quotient_consistency_against_finite_toric_groups():
    rng = random.Random(11)
    for n, m in PAIRS:
        ks = [k for (k, nn, mm) in FINITE_ROWS if (nn, mm) == (n, m)]
        maps_ = sigma(n, m)
        for k in ks:
            cay = toric_cayley(k, n, m)
            for _ in range(100):
                w = rand_word(rng, max_len=20)
                w2 = insert_relator(rng, w, n, m)
                assert cay.eval(apply_map(maps_, w)) == cay.eval(apply_map(maps_, w2))


def test_sigma_images():
    s = sigma(2, 3)
    assert str(image_of(s, "x")) == "x1 x2 x1"
    assert str(image_of(s, "y")) == "x1 x2"


def test_sigma_sends_standard_relator_to_identity_in_quotients():
    for n, m in PAIRS:
        s = sigma(n, m)
        rel = free_reduce(AB.word("x") ** n * (AB.word("y") ** m).inverse())
        image = apply_map(s, rel)
        ks = [k for (k, nn, mm) in FINITE_ROWS if (nn, mm) == (n, m)]
        for k in ks:
            assert toric_cayley(k, n, m).eval(image) == 0


def test_meridian_examples():
    assert str(meridian(2, 3, 2, 1)) == "y^2 x^-1"
    with pytest.raises(ValueError):
        meridian(2, 3, 1, 1)


def test_meridian_image_is_conjugate_to_a_generator():
    for n, m, a, b in [(2, 3, 2, 1), (3, 4, 3, 2), (2, 5, 3, 1), (3, 5, 2, 1)]:
        assert a * n - b * m == 1
        mer = apply_map(sigma(n, m), meridian(n, m, a, b))
        ks = [k for (k, nn, mm) in FINITE_ROWS if (nn, mm) == (n, m)]
        for k in ks:
            cay = toric_cayley(k, n, m)
            ids = cay.conjugacy_class_ids()
            target_classes = set()
            for i in range(1, n + 1):
                gen = Word(cay.alphabet, (i,))
                target_classes.add(ids[cay.eval(gen)])
                target_classes.add(ids[cay.eval(gen.inverse())])
            assert ids[cay.eval(mer)] in target_classes, (n, m, k)


# every coprime pair n != m below 24, and one past the m <= 99 of the finite table
SWAP_PAIRS = [(n, m) for n in range(2, 24) for m in range(2, 24) if n != m and math.gcd(n, m) == 1]
CLASSICAL_PAIRS = SWAP_PAIRS + [(2, 101)]


@pytest.mark.parametrize("n,m", CLASSICAL_PAIRS)
def test_tau_and_sigma_are_inverse_isomorphisms(n, m):
    t, s = tau(n, m), sigma(n, m)
    classical = torus_classical(n, m)
    chains = classical.relators
    x, y = AB.word("x"), AB.word("y")
    # tau(x_{1+jm mod n}) = x^-j y^a x^(j-b), with a n - b m = 1 and 0 <= j < n
    a = next(a for a in range(1, m) if a * n % m == 1)
    b = (a * n - 1) // m
    for j in range(n):
        assert image_of(t, f"x{j * m % n + 1}") == x**-j * y**a * x ** (j - b), j
    # tau is a homomorphism: it kills every classical relator
    assert check_hom(classical, lambda w: gnf(n, m, apply_map(t, w))) is None
    # sigma is one: x^n and y^m map to words the chain relators make equal
    twist = delta_power_to_twist(classical.alphabet, m)
    assert (twist.start, check_derivation(twist, chains)) == (apply_map(s, x**n), apply_map(s, y**m))
    # tau(sigma(g)) = g, and sigma(tau(x1)) = x1 by relators, which with the
    # shift lemma gives sigma(tau(x_i)) = x_i
    for g in (x, y):
        assert gnf(n, m, apply_map(t, apply_map(s, g))) == gnf(n, m, g)
    d = meridian_derivation(n, m)
    end = check_derivation(d, chains)
    assert d.start == apply_map(s, image_of(t, "x1"))
    assert end == s.target.word("x1")
    assert all(len(w) < 2 * n + m for w in t.images)


# The n <-> m swap (ROADMAP item 5): swap, x -> y and y -> x, maps G(n,m) =
# <x, y | x^n = y^m> onto G(m,n), and with (a, b) = _bezout(n, m) it sends
# tau_{n,m}(x1) to y^b tau_{m,n}(x1) y^-b.  So f = sigma_{m,n} . swap .
# tau_{n,m} sends x1 to a conjugate of x1 (the test above checks sigma . tau
# on every pair), hence each x_i^k into the normal closure of the k-th powers,
# and W(k,n,m) -> W(k,m,n) is well defined; the same map the other way
# inverts it.  enumerate's swap and the (min, max) reading of classify and
# sweep rest on this.
SWAP = {1: 2, 2: 1, -1: -2, -2: -1}


def _swap_conjugates(n, m, b, meridian):
    """Whether swap(tau_{n,m}(x1)) = y^b ``meridian`` y^-b in G(m,n)."""
    swapped = tuple(SWAP[x] for x in tau(n, m).images[0].letters)
    return gnf(m, n, Word(AB, swapped + (2,) * b + meridian.inverse().letters + (-2,) * b)).is_identity()


def test_the_swap_sends_the_meridian_to_a_conjugate_of_the_other():
    failed = [(n, m) for n, m in SWAP_PAIRS
              if not _swap_conjugates(n, m, garside._bezout(n, m)[1], tau(m, n).images[0])]
    assert (len(SWAP_PAIRS), failed) == (298, [])


@pytest.mark.parametrize("tamper", ["b+1", "b-1", "inverse meridian"])
def test_the_swap_certificate_rejects_a_tampered_conjugate(tamper):
    # each tamper fails on all 298 pairs; those with n < 14 and m < 16 are enough here
    for n, m in SWAP_PAIRS:
        if n >= 14 or m >= 16:
            continue
        b, meridian = garside._bezout(n, m)[1], tau(m, n).images[0]
        b, meridian = {"b+1": (b + 1, meridian), "b-1": (b - 1, meridian),
                       "inverse meridian": (b, meridian.inverse())}[tamper]
        assert not _swap_conjugates(n, m, b, meridian), (n, m)


def test_meridian_derivation_rejects_a_wrong_relator_index():
    n, m = 3, 5
    chains = torus_classical(n, m).relators
    d = meridian_derivation(n, m)
    cited = [k for k, step in enumerate(d.steps) if step.relator_index is not None]
    assert cited
    for k in cited:
        step = d.steps[k]
        wrong = RewriteStep(step.position, step.old, step.new, (step.relator_index + 1) % len(chains))
        with pytest.raises(ValueError):
            check_derivation(Derivation(d.start, d.steps[:k] + (wrong,) + d.steps[k + 1:]), chains)


def _classical_word(rng, t, max_len=16) -> Word:
    """A random word over the meridians, the source alphabet of ``t = tau(n, m)``."""
    n = len(t.source)
    return Word(t.source, tuple(rng.choice([i for i in range(-n, n + 1) if i]) for _ in range(rng.randrange(max_len))))


def test_equal_normal_forms_agree_in_finite_quotients():
    rng = random.Random(21)
    for k, a, b in FINITE_ROWS:
        for n, m in ((a, b), (b, a)):
            cay = toric_cayley(k, n, m)
            t = tau(n, m)
            chains = torus_classical(n, m).relators
            for _ in range(60):
                u = _classical_word(rng, t)
                # an equal word (a conjugate of a relator inserted) and a random one
                r = rng.choice(chains) ** rng.choice([1, -1])
                c = _classical_word(rng, t, 4)
                pos = rng.randrange(len(u) + 1)
                equal = Word(u.alphabet, u.letters[:pos] + (c * r * c.inverse()).letters + u.letters[pos:])
                for v in (equal, _classical_word(rng, t)):
                    same = gnf(n, m, apply_map(t, u)) == gnf(n, m, apply_map(t, v))
                    if same:
                        assert cay.eval(u) == cay.eval(v), (k, n, m, u, v)
                    if v is equal:
                        assert same, (n, m, u, v)


def test_word_problem_reads_classical_words_through_tau():
    rng = random.Random(22)
    for n, m in [(2, 3), (3, 2), (3, 5), (5, 7), (2, 101)]:
        t = tau(n, m)
        for _ in range(30):
            u = _classical_word(rng, t, 30)
            result, status, _ = word_problem(n, m, str(u))
            normal = gnf(n, m, apply_map(t, u))
            assert (result, status) == ({"normal_form": str(normal), "identity": normal.is_identity(),
                                         "delta_power": normal.delta_power}, "ok")
    assert word_problem(3, 5, "x3^-2 x1")[2] == ["a word over x1 ... x3, mapped to {x, y} by tau, the inverse of sigma"]
    assert word_problem(3, 5, "x^3 y^-5")[2] == []


def test_the_unreduced_table_image_has_the_normal_form_of_tau():
    # the normal form is an invariant of the element: substituting tau's
    # signed image table without free reduction does not change it
    rng = random.Random(29)
    for n in range(2, 13):
        for m in range(2, 13):
            if math.gcd(n, m) != 1:
                continue
            t = tau(n, m)
            table = signed_table([image.letters for image in t.images], lambda ls: tuple(-y for y in reversed(ls)))
            for _ in range(10):
                u = Word(t.source, tuple(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(1, 20))))
                unreduced = Word(AB, tuple(chain.from_iterable(map(table.__getitem__, u.letters))))
                normal = gnf(n, m, apply_map(t, u))
                assert gnf(n, m, unreduced) == normal, (n, m, u)
                assert word_problem(n, m, str(u))[0]["normal_form"] == str(normal), (n, m, u)


@st.composite
def meridian_words(draw):
    """A coprime pair n != m up to 11, either way round, and a word of tokens
    x_i^e over x1 ... xn."""
    n, m = draw(st.tuples(st.integers(2, 11), st.integers(2, 11)).filter(lambda p: math.gcd(*p) == 1))
    tokens = draw(st.lists(st.tuples(st.integers(1, n), st.integers(-3, 3).filter(bool)), max_size=12))
    return n, m, " ".join(f"x{i}^{e}" for i, e in tokens) or "1"


@given(meridian_words())
def test_meridian_words_have_the_reference_form_of_their_tau_image(case):
    n, m, text = case
    t = tau(n, m)
    normal = reference_gnf(n, m, apply_map(t, t.source.word(text)))
    evidence = [f"a word over x1 ... x{n}, mapped to {{x, y}} by tau, the inverse of sigma"] if text != "1" else []
    assert word_problem(n, m, text) == ({"normal_form": str(normal), "identity": normal.is_identity(),
                                         "delta_power": normal.delta_power}, "ok", evidence)


def test_classical_words_decided_through_tau():
    t = tau(2, 3)
    # the defining relation holds: both sides have the normal form x
    assert str(gnf(2, 3, apply_map(t, t.source.word("x1 x2 x1")))) == "x"
    assert str(gnf(2, 3, apply_map(t, t.source.word("x2 x1 x2")))) == "x"
    assert gnf(2, 3, apply_map(t, t.source.word("x1"))) != gnf(2, 3, apply_map(t, t.source.word("x2")))


def test_twist_is_not_the_identity_in_the_classical_group():
    # the twist dies in W(2,2,3) = S3 and has order 2 in W(3,2,3); in the
    # torus knot group it is Delta, of infinite order
    t = tau(2, 3)
    twist = t.source.word("x1 x2 x1 x2 x1 x2")
    assert gnf(2, 3, apply_map(t, twist)) == GarsideNF(2, 3, 1, ())
    assert not gnf(2, 3, apply_map(t, twist**5)).is_identity()


def test_classical_words_decided_past_m_99():
    t = tau(2, 101)
    x1, x2 = t.source.word("x1"), t.source.word("x2")
    assert gnf(2, 101, apply_map(t, x1)) != gnf(2, 101, apply_map(t, x2))
    assert word_problem(2, 101, "x1")[0]["normal_form"] != word_problem(2, 101, "x2")[0]["normal_form"]


def test_importing_garside_loads_no_enumeration_of_finite_quotients():
    # garside, and maps, which cites the same chain lemmas, load neither the
    # finite table nor coset enumeration nor Reidemeister-Schreier
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    for module in ("garside", "maps"):
        code = f"import sys, toricgroups.{module}; print(sorted(m for m in sys.modules if m.startswith('toricgroups')))"
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert f"'toricgroups.{module}'" in proc.stdout
        for layer in ("classify", "cosets", "schreier"):
            assert f"'toricgroups.{layer}'" not in proc.stdout, (module, proc.stdout)


# runs of up to 3 Deltas' worth of one letter, so runs cross the bound
runs = st.lists(st.tuples(st.sampled_from([1, -1, 2, -2]), st.integers(1, 24)), max_size=24)


@given(st.sampled_from([(2, 3), (3, 4), (2, 5), (3, 5), (2, 7), (5, 7)]), runs)
def test_run_length_gnf_matches_letter_at_a_time_reference(pair, runs):
    n, m = pair
    w = Word(AB, tuple(letter for letter, r in runs for _ in range(r)))
    assert gnf(n, m, w) == reference_gnf(n, m, w)


def _long_text(rng: random.Random, tokens: int) -> list[str]:
    """Tokens over {x, y}: single letters, signed exponents up to 9, and ``1``."""
    out = []
    for _ in range(tokens):
        name, k = rng.choice("xy"), rng.choice([1, 1, 1, -1, -1, 2, -2, 3, -5, 9, -9])
        out.append("1" if rng.random() < 0.02 else name if k == 1 else f"{name}^{k}")
    return out


def _parse_outcome(parse, text):
    try:
        return parse(AB, text)
    except WordSyntaxError as e:
        return str(e), e.column


def test_long_words_match_the_references():
    # far past the hypothesis sizes: 12,000 tokens, runs of many lengths
    rng = random.Random(15)
    tokens = _long_text(rng, 12_000)
    text = " ".join(tokens)
    w = parse_word(AB, text)
    assert w == reference_parse_word(AB, text)
    assert len(w) > len(tokens)
    for n, m in [(2, 3), (3, 5), (2, 7), (5, 7)]:
        assert gnf(n, m, w) == reference_gnf(n, m, w)


def test_long_word_reports_the_first_bad_token_in_text_order():
    # "x^" is a prefix of good tokens, so its column depends on all before it
    rng = random.Random(16)
    tokens = _long_text(rng, 12_000)
    for first, second in [("x^", "y^0"), ("y^0", "x^")]:
        bad = list(tokens)
        bad[9_000] = bad[11_500] = first  # a bad token that repeats
        bad[10_000] = second  # and a distinct one between its occurrences
        text = "\t".join(bad)
        outcome = _parse_outcome(parse_word, text)
        assert outcome == _parse_outcome(reference_parse_word, text)
        assert outcome[0] in (f"bad exponent in {first!r}", f"zero exponent in {first!r}")
        assert outcome[1] == len("\t".join(bad[:9_000])) + 2


# --- wp garside from the text: pieces, block deletion, the abelianization --------

# small pairs, either way round, and coprime labels up to 10^6
LABELS = st.one_of(st.sampled_from([(2, 3), (3, 2), (3, 4), (3, 5), (2, 7), (5, 7)]),
                   st.tuples(st.integers(2, 10**6), st.integers(2, 10**6)).filter(lambda p: math.gcd(*p) == 1))
# a token name^K with K = j * bound + d: d is spelled, and j is a power of the
# central Delta = x^n = y^m; j = 0 gives short exponents, d = 0 a multiple of the bound
EXPONENT_TOKENS = st.tuples(st.sampled_from("xy"), st.integers(-40, 40),
                            st.sampled_from([0, 0, 0, 1, -1, 2, -3, 123_456_789, 10**9, -10**9]))


@settings(max_examples=200)
@given(LABELS, st.lists(st.one_of(st.none(), EXPONENT_TOKENS), max_size=30), st.integers(0, 200),
       st.integers(0, 30), st.sampled_from([" ", "\t", " \n  "]))
def test_text_words_match_the_letter_at_a_time_reference(pair, drawn, k, at, sep):
    n, m = pair
    # each token as (its text, the letters it spells, its power of Delta, the letters a piece may hold)
    tokens = []
    for token in drawn:
        if token is None:
            tokens.append(("1", [], 0, 0))
            continue
        name, d, j = token
        bound = n if name == "x" else m
        exponent = j * bound + d
        if exponent:  # a zero exponent is refused; test_cli covers its message
            letter = (1 if name == "x" else 2) * (1 if d > 0 else -1)
            text = name if exponent == 1 else f"{name}^{exponent}"
            tokens.append((text, [letter] * abs(d), j, min(abs(exponent), bound // 2)))
    # the nested worst case (x y)^k (y^-1 x^-1)^k, spliced in at a token boundary
    tokens.insert(min(at, len(tokens)), (" ".join(["x y"] * k + ["y^-1 x^-1"] * k), [1, 2] * k + [-2, -1] * k, 0, 4 * k))
    expected = reference_gnf(n, m, Word(AB, tuple(chain.from_iterable(t[1] for t in tokens))))
    normal = GarsideNF(n, m, expected.delta_power + sum(t[2] for t in tokens), expected.factors)
    with mock.patch.object(garside, "_normal_form", wraps=garside._normal_form) as kernel:
        outcome = word_problem(n, m, sep.join(t[0] for t in tokens))
    assert outcome == ({"normal_form": str(normal), "identity": normal.is_identity(),
                        "delta_power": normal.delta_power}, "ok", [])
    # no exponent was expanded: a piece holds at most |K| and at most bound / 2 letters
    assert len(kernel.call_args.args[2]) <= sum(t[3] for t in tokens)


def test_the_nested_worst_case_takes_linear_time():
    # each deletion pass would remove only the two letters at the centre, so
    # passes alone would take k of them; the stack pass takes one
    k = 100_000
    text = " ".join(["x y"] * k + ["y^-1 x^-1"] * k + ["x"])
    start = time.perf_counter()
    assert word_problem(3, 5, text)[0] == {"normal_form": "x", "identity": False, "delta_power": 0}
    assert time.perf_counter() - start < 5.0
    assert gnf(3, 5, parse_word(AB, text)) == GarsideNF(3, 5, 0, (("x", 1),))
