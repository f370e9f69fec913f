from functools import partial
from math import gcd

import pytest

from conftest import FINITE_ROWS, image_of, parent_cayley, root_table, through, toric_cayley

from toricgroups import presentations as pres
from toricgroups import reps
from toricgroups.cosets import group_order
from toricgroups.garside import gnf, tau
from toricgroups.maps import (
    Hom,
    build_embedding,
    build_phi,
    build_psi,
    central_element,
    centrality_witness,
    check_hom,
    meridian_embedding,
    parent_to_coxeter,
)
from toricgroups.presentations import TRIANGLE, XY, cyclic_product, j_parent, toric, torus_classical
from toricgroups.words import GenMap, Word, apply_map, check_derivation, compose, free_reduce, invert

SWEEP = FINITE_ROWS + [(6, 2, 3), (2, 3, 7), (4, 2, 5)]


def test_phi_on_generators():
    phi = build_phi(2, 3, 4)
    assert str(image_of(phi.genmap, "x1")) == "r1 r2"
    assert str(image_of(phi.genmap, "x2")) == "r2^-1 r3^-1 r1 r2 r3 r2"


@pytest.mark.parametrize("k,n,m", SWEEP)
def test_phi_well_defined(k, n, m):
    phi = build_phi(k, n, m)
    assert check_hom(phi.source, through(phi, root_table(k, n, m).nf)) is None


@pytest.mark.parametrize("k,n,m", SWEEP)
def test_phi_kills_central_element(k, n, m):
    phi = build_phi(k, n, m)
    assert root_table(k, n, m).is_identity(phi.apply(central_element(k, n, m)))


def test_phi_of_delta_is_b_to_the_r():
    k, n, m = 2, 3, 5
    phi = build_phi(k, n, m)
    delta = Word(phi.source.alphabet, tuple(j % n + 1 for j in range(m)))
    b = phi.genmap.target.word("r3 r2")
    r = m % n
    assert root_table(k, n, m).is_identity(free_reduce(phi.apply(delta) * invert(b**r)))


def test_phi_of_x1_to_xn_is_r1r3_power_n():
    k, n, m = 2, 3, 4
    phi = build_phi(k, n, m)
    prod = Word(phi.source.alphabet, tuple(range(1, n + 1)))
    target = free_reduce(phi.genmap.target.word("r1 r3") ** n)
    assert root_table(k, n, m).is_identity(free_reduce(phi.apply(prod) * invert(target)))


def test_phi_finite_bijectivity_onto_alternating_subgroup():
    k, n, m = 2, 3, 5
    phi = build_phi(k, n, m)
    cay = toric_cayley(k, n, m)
    table = root_table(k, n, m)
    images = {str(table.nf(phi.apply(cay.words[e]))) for e in range(cay.size)}
    assert len(images) == 60  # |W(H3)+| = |A5|


def test_psi_image_of_b():
    psi = build_psi(2, 3, 4)
    assert str(image_of(psi.genmap, "b")) == "x1 x2 x3 x1"


def test_psi_is_a_section_not_a_homomorphism_into_w():
    # b^2 maps to delta^2, the full twist c, which is central of order 2 in W(3,2,3)
    cay = toric_cayley(3, 2, 3)
    psi = build_psi(3, 2, 3)
    failing = check_hom(psi.source, through(psi, cay.eval))
    assert str(failing) == "b^2"
    assert cay.eval(psi.apply(failing)) == cay.eval(central_element(3, 2, 3)) != 0


@pytest.mark.parametrize("k,n,m", SWEEP)
def test_phi_after_psi_fixes_a_and_b(k, n, m):
    phi = build_phi(k, n, m)
    psi = build_psi(k, n, m)
    comp = Hom(psi.source, compose(phi.genmap, psi.genmap))
    table = root_table(k, n, m)
    assert check_hom(comp.source, through(comp, table.nf)) is None
    target = phi.genmap.target
    for name, word in (("a", target.word("r1 r2")), ("b", target.word("r3 r2"))):
        assert table.is_identity(free_reduce(image_of(comp.genmap, name) * invert(word)))


# ker phi = <c>: psi (a -> x1, b -> delta^ell, delta = x1...xm, ell = m^-1 mod
# n) induces a map W+ -> W/<c> that inverts phi mod <c> when it sends the
# relators a^k, b^n, (b a^-1)^m of alt_plus into <c> and psi(phi(x_i)) = x_i.
# a^k -> x1^k is a relator of W; the rest holds in G(n,m), where tau(c) =
# Delta, so a word is central exactly when its normal form has no factors.
# Composed into {x, y}, tau(psi(a)) = mu = tau(x1) and tau(psi(b)) = x^ell.
KER_PHI_PAIRS = [(n, m) for n in range(2, 24) for m in range(2, 24) if n != m and gcd(n, m) == 1]


def _psi_facts(n, m, t, ell, mu):
    """Each fact of the certificate for tau = ``t``, psi(b) -> x^ell and
    psi(a) -> ``mu`` (letters over {x, y}), as (name, holds), the cheap ones
    first.  The words are letter tuples, which ``gnf`` reduces itself."""
    def nf(letters):
        return gnf(n, m, Word(XY, letters))

    delta = apply_map(t, Word(t.source, cyclic_product(n, 0, m))).letters
    yield "tau(x1...xm) = x", nf(delta + (-1,)).is_identity()
    for i, image in enumerate(t.images):
        fixed = (-1,) * (ell * i) + mu + (1,) * (ell * i) + invert(image).letters
        yield f"psi(phi(x{i + 1})) = x{i + 1}", nf(fixed).is_identity()
    yield "psi(b^n) is central", not nf((1,) * (ell * n)).factors
    yield "psi((b a^-1)^m) is central", not nf(((1,) * ell + tuple(-a for a in reversed(mu))) * m).factors


@pytest.mark.parametrize("n,m", KER_PHI_PAIRS)
def test_ker_phi_is_generated_by_the_central_element(n, m):
    psi, t, ell = build_psi(2, n, m), tau(n, m), pow(m, -1, n)  # psi's images do not depend on k
    delta = Word(psi.genmap.target, cyclic_product(n, 0, m))
    assert psi.genmap.images == (psi.genmap.target.word("x1"), free_reduce(delta**ell))
    assert [name for name, holds in _psi_facts(n, m, t, ell, t.images[0].letters) if not holds] == []


@pytest.mark.parametrize("tamper", ["ell+1", "mu x", "psi(a)=x2"])
def test_ker_phi_certificate_rejects_a_tampered_psi(tamper):
    for n, m in KER_PHI_PAIRS:
        if n >= 14 or m >= 16:  # each tamper fails on every pair; these are enough
            continue
        t, ell = tau(n, m), pow(m, -1, n)
        ell, mu = {"ell+1": (ell + 1, t.images[0]), "mu x": (ell, t.images[0] * Word(XY, (1,))),
                   "psi(a)=x2": (ell, t.images[1])}[tamper]
        assert not all(holds for _, holds in _psi_facts(n, m, t, ell, mu.letters)), (n, m)


def test_embedding_images():
    emb = build_embedding(2, 3, 4)
    assert str(image_of(emb.genmap, "x1")) == "s"
    assert str(image_of(emb.genmap, "x2")) == "t s t^-1"


def test_phi_and_the_embedding_read_one_meridian_alphabet():
    # the source presentation and the generator map share the alphabet object
    for k, n, m in [(2, 3, 7), (3, 2, 5), (4, 5, 6), (2, 9, 11)]:
        emb = build_embedding(k, n, m)
        assert emb.source.alphabet is emb.genmap.source, (k, n, m)
        phi = build_phi(k, n, m)
        assert phi.source.alphabet is phi.genmap.source, (k, n, m)


@pytest.mark.parametrize("k,n,m", [(3, 2, 3), (2, 3, 4), (2, 2, 5)])
def test_embedding_well_defined_in_finite_parent(k, n, m):
    emb = build_embedding(k, n, m)
    assert check_hom(emb.source, through(emb, parent_cayley(k, n, m).eval)) is None


def test_embedding_composed_with_projection_is_phi():
    k, n, m = 2, 3, 4
    emb = build_embedding(k, n, m)
    proj = parent_to_coxeter(k, n, m)
    comp = Hom(emb.source, compose(proj.genmap, emb.genmap))
    phi = build_phi(k, n, m)
    for i in range(1, n + 1):
        diff = free_reduce(image_of(comp.genmap, f"x{i}") * invert(image_of(phi.genmap, f"x{i}")))
        assert root_table(k, n, m).is_identity(diff)


def test_phi_is_the_parent_map_after_the_embedding_letter_for_letter():
    # the reference is the closed form x_i -> b^(1-i) a b^(i-1), a = r1 r2, b = r3 r2
    a, b = TRIANGLE.word("r1 r2"), TRIANGLE.word("r3 r2")
    rows = 0
    for k in range(2, 8):
        for n in range(2, 12):
            for m in range(2, 14):
                if gcd(n, m) != 1:
                    continue
                phi = build_phi(k, n, m)
                composite = compose(parent_to_coxeter(k, n, m).genmap, meridian_embedding(pres.meridians(n)))
                assert phi == Hom(toric(k, n, m), composite), (k, n, m)
                for i in range(1, n + 1):
                    assert image_of(phi.genmap, f"x{i}") == free_reduce(b ** (1 - i) * a * b ** (i - 1)), (k, n, m, i)
                rows += 1
    assert rows == 450


@pytest.mark.parametrize("k,n,m", SWEEP)
def test_parent_to_coxeter_well_defined(k, n, m):
    proj = parent_to_coxeter(k, n, m)
    assert check_hom(proj.source, through(proj, root_table(k, n, m).nf)) is None


@pytest.mark.parametrize("k,n,m", [(3, 2, 3), (2, 3, 4), (2, 2, 5), (2, 3, 5)])
def test_stu_power_equals_embedded_central_element(k, n, m):
    cay = parent_cayley(k, n, m)
    stu = cay.alphabet.word("s t u")
    emb = build_embedding(k, n, m)
    image = emb.apply(central_element(k, n, m))
    assert cay.eval(free_reduce(stu ** (n * m))) == cay.eval(image)


def test_phi_is_built_once_per_row_and_a_refusal_is_not_kept():
    assert build_phi(2, 3, 7) is build_phi(2, 3, 7)
    for _ in range(2):
        with pytest.raises(pres.ParameterError, match=r"gcd\(4,6\) != 1"):
            build_phi(2, 4, 6)


def test_builders_reject_gcd_violations():
    for builder in (build_phi, build_psi, build_embedding, central_element):
        with pytest.raises(ValueError):
            builder(3, 2, 4)


@pytest.mark.parametrize("k,n,m", [(3, 2, 3), (2, 3, 4), (2, 2, 5)])
def test_embedded_generators_generate_the_normal_closure(k, n, m):
    """The n reflections t^(i-1) s t^(1-i) generate ncl(s) as a plain subgroup:
    enumerating over them gives the same index n*m."""
    from toricgroups.cosets import todd_coxeter

    parent = pres.j_parent(k, n, m)
    emb = build_embedding(k, n, m)
    gens = [image_of(emb.genmap, f"x{i}") for i in range(1, n + 1)]
    table = todd_coxeter(parent, gens)
    assert table.complete and table.num_cosets == n * m


@pytest.mark.parametrize("k,n,m", [(3, 2, 3), (2, 3, 4), (2, 3, 5)])
def test_quotient_by_normal_closure_is_abelian_of_order_nm(k, n, m):
    """The coset action of the parent modulo ncl(s) realizes Z/n x Z/m:
    s acts trivially, t and u commute, with orders n and m."""
    from conftest import closure_table

    table = closure_table(k, n, m)
    ab = table.alphabet
    assert table.num_cosets == n * m
    for c in range(table.num_cosets):
        assert table.trace(c, ab.word("s")) == c
        assert table.trace(c, ab.word("t u")) == table.trace(c, ab.word("u t"))
        assert table.trace(c, ab.word("t") ** n) == c
        assert table.trace(c, ab.word("u") ** m) == c


def test_central_element_examples():
    c = central_element(4, 2, 3)
    assert str(c) == "x1 x2 x1 x2 x1 x2"


@pytest.mark.parametrize("k,n,m", SWEEP + [(2, 5, 3), (3, 7, 9)])
def test_central_element_is_the_full_twist(k, n, m):
    ab = pres.meridians(n)
    assert central_element(k, n, m) == Word(ab, tuple(range(1, n + 1))) ** m


@pytest.mark.parametrize("kmn, message", [((1, 2, 3), "labels must be integers >= 2, got 1"),
                                          ((2, 2, 4), r"gcd\(2,4\) != 1"), ((2, 6, 9), r"gcd\(6,9\) != 1")])
def test_central_element_refuses_the_labels_toric_refuses(kmn, message):
    with pytest.raises(pres.ParameterError, match=message):
        central_element(*kmn)


@pytest.mark.parametrize("k,n,m", FINITE_ROWS)
def test_central_element_is_central_in_cayley(k, n, m):
    cay = toric_cayley(k, n, m)
    c = central_element(k, n, m)
    assert cay.eval(c) in cay.center()


def _phi_with_x1_as_r1():
    # sending x1 to the odd-length r1 cannot satisfy x1^k for odd k
    phi = build_phi(3, 2, 3)
    images = (phi.genmap.target.word("r1"), image_of(phi.genmap, "x2"))
    bad = Hom(phi.source, GenMap(phi.source.alphabet, phi.genmap.target, images))
    return phi.source, through(bad, root_table(3, 2, 3).nf)


def _rho_with_s_as_t():
    rep = reps.build_rho_preset(2, 3, 7)
    fields = {name: getattr(rep, name) for name in reps.Rep.__slots__}
    return j_parent(2, 3, 7), partial(reps.rho_eval, reps.Rep(**{**fields, "mat_s": rep.mat_t}))


def _tau_with_two_images_swapped():
    t = tau(3, 5)
    swapped = GenMap(t.source, t.target, (t.images[1], t.images[0], t.images[2]))
    return torus_classical(3, 5), lambda w: gnf(3, 5, apply_map(swapped, w))


def _phi_in_the_free_group():
    # phi.apply alone keeps every relator's image as a word: the free group's model
    phi = build_phi(2, 3, 7)
    return phi.source, phi.apply


@pytest.mark.parametrize("tampered, relator", [
    pytest.param(_phi_with_x1_as_r1, "x1^3", id="root-table"),
    pytest.param(_rho_with_s_as_t, "s^2", id="rho"),
    pytest.param(_tau_with_two_images_swapped, str(torus_classical(3, 5).relators[0]), id="gnf-after-tau"),
    pytest.param(_phi_in_the_free_group, "x1^2", id="free-group"),
])
def test_corrupted_map_reports_failing_relator(tampered, relator):
    assert str(check_hom(*tampered())) == relator


@pytest.mark.parametrize("a,b,c", [(2, 3, 5), (6, 2, 3), (2, 3, 7), (3, 4, 5)])
def test_rho_is_a_model_of_the_parent(a, b, c):
    for q, r in reps.qr_presets(a, b, c).values():
        rep = reps.build_rho(a, b, c, q, r)
        assert check_hom(j_parent(a, b, c), partial(reps.rho_eval, rep)) is None, (q, r)


@pytest.mark.parametrize("k,n,m", [(2, 2, 3), (2, 3, 4), (2, 3, 5), (2, 3, 7)])
def test_centrality_witness_validates(k, n, m):
    chains = pres.torus_classical(n, m).relators
    ab = central_element(k, n, m).alphabet
    for i in range(1, n + 1):
        d = centrality_witness(k, n, m, i)
        end = check_derivation(d, chains)
        assert d.start == free_reduce(Word(ab, (i,)) * central_element(k, n, m))
        assert end == free_reduce(central_element(k, n, m) * Word(ab, (i,)))


def test_centrality_witness_replays_under_phi():
    k, n, m = 2, 3, 4
    phi = build_phi(k, n, m)
    d = centrality_witness(k, n, m, 1)
    steps = d.words()
    for w1, w2 in zip(steps, steps[1:]):
        assert root_table(k, n, m).is_identity(free_reduce(phi.apply(w1) * invert(phi.apply(w2))))


@pytest.mark.parametrize("k,n,m", FINITE_ROWS)
def test_short_exact_sequence_orders(k, n, m):
    cay = toric_cayley(k, n, m)
    c_order = cay.order_of(central_element(k, n, m))
    plus = group_order(pres.alt_plus(k, n, m))
    assert cay.size == c_order * plus


@pytest.mark.parametrize("k,n,m", [(3, 2, 3), (2, 3, 4), (2, 2, 5), (2, 3, 5)])
def test_parent_order_factors_through_the_closure(k, n, m):
    # |parent| = |ncl(s)| * [parent : ncl(s)] = |W(k,n,m)| * n*m
    parent = parent_cayley(k, n, m)
    toric_order = toric_cayley(k, n, m).size
    assert parent.size == toric_order * n * m
