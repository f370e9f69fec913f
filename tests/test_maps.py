import pytest

from conftest import FINITE_ROWS, image_of, parent_cayley, root_table, toric_cayley

from toricgroups import maps
from toricgroups import presentations as pres
from toricgroups.cosets import group_order
from toricgroups.maps import (
    Hom,
    build_embedding,
    build_phi,
    build_psi,
    central_element,
    centrality_witness,
    check_hom,
    compose_homs,
    psi_params,
)
from toricgroups.words import GenMap, Word, check_derivation, free_reduce, invert

SWEEP = FINITE_ROWS + [(6, 2, 3), (2, 3, 7), (4, 2, 5)]


def test_phi_on_generators():
    phi = build_phi(2, 3, 4)
    assert str(image_of(phi.genmap, "x1")) == "r1 r2"
    assert str(image_of(phi.genmap, "x2")) == "r2^-1 r3^-1 r1 r2 r3 r2"


@pytest.mark.parametrize("k,n,m", SWEEP)
def test_phi_well_defined(k, n, m):
    phi = build_phi(k, n, m)
    assert check_hom(phi, root_table(k, n, m)).ok


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


def test_psi_params():
    assert psi_params(3, 4) == maps.PsiParams(q=1, r=1, ell=1)
    assert psi_params(3, 5) == maps.PsiParams(q=1, r=2, ell=2)
    assert psi_params(2, 3) == maps.PsiParams(q=1, r=1, ell=1)


def test_psi_image_of_b():
    psi = build_psi(2, 3, 4)
    assert str(image_of(psi.genmap, "b")) == "x1 x2 x3 x1"


def test_psi_is_a_section_not_a_homomorphism_into_w():
    # b^2 maps to delta^2, the full twist c, which is central of order 2 in W(3,2,3)
    cay = toric_cayley(3, 2, 3)
    report = check_hom(build_psi(3, 2, 3), cay)
    assert not report.ok
    assert str(report.failing_relator) == "b^2"
    assert cay.eval(report.failing_image) == cay.eval(central_element(3, 2, 3)) != 0


@pytest.mark.parametrize("k,n,m", SWEEP)
def test_phi_after_psi_fixes_a_and_b(k, n, m):
    phi = build_phi(k, n, m)
    comp = compose_homs(phi, build_psi(k, n, m))
    table = root_table(k, n, m)
    assert check_hom(comp, table).ok
    target = phi.genmap.target
    for name, word in (("a", target.word("r1 r2")), ("b", target.word("r3 r2"))):
        assert table.is_identity(free_reduce(image_of(comp.genmap, name) * invert(word)))


def test_embedding_images():
    emb = build_embedding(2, 3, 4)
    assert str(image_of(emb.genmap, "x1")) == "s"
    assert str(image_of(emb.genmap, "x2")) == "t s t^-1"


@pytest.mark.parametrize("k,n,m", [(3, 2, 3), (2, 3, 4), (2, 2, 5)])
def test_embedding_well_defined_in_finite_parent(k, n, m):
    emb = build_embedding(k, n, m)
    report = check_hom(emb, parent_cayley(k, n, m))
    assert report.ok


def test_embedding_composed_with_projection_is_phi():
    k, n, m = 2, 3, 4
    emb = build_embedding(k, n, m)
    proj = maps.parent_to_coxeter(k, n, m)
    comp = compose_homs(proj, emb)
    phi = build_phi(k, n, m)
    for i in range(1, n + 1):
        diff = free_reduce(image_of(comp.genmap, f"x{i}") * invert(image_of(phi.genmap, f"x{i}")))
        assert root_table(k, n, m).is_identity(diff)


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


def test_corrupted_map_reports_failing_relator():
    # sending x1 to the odd-length r1 cannot satisfy x1^k for odd k
    phi = build_phi(3, 2, 3)
    images = {f"x{i}": image_of(phi.genmap, f"x{i}") for i in (1, 2)}
    images["x1"] = phi.genmap.target.word("r1")
    bad = Hom(phi.source, GenMap.from_dict(phi.source.alphabet, phi.genmap.target, images))
    report = check_hom(bad, root_table(3, 2, 3))
    assert not report.ok
    assert str(report.failing_relator) == "x1^3"


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
