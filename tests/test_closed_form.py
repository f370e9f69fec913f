"""``classify``'s finite rows in closed form, and its reflection certificate.

A finite row's orders come from its curvature d alone (``classify._row``),
and ``reflection_classes_computed`` from a certificate checked on every call
(``classify._reflection_classes``).  Here both are pinned against
enumeration on every finite row up to about a second's work, each piece of
the certificate is tampered with once, and ``classify`` and ``sweep`` are
run with coset enumeration made to fail.
"""

from math import gcd
from pathlib import Path

import pytest

from toricgroups import classify, cli, coxeter, cosets, maps, presentations as pres
from toricgroups.cosets import CayleyTable, reflection_class_count, todd_coxeter
from toricgroups.presentations import Presentation, toric
from toricgroups.words import Derivation, RewriteStep

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

SPORADIC = [(2, 3, 4), (2, 3, 5), (3, 2, 3), (4, 2, 3), (5, 2, 3), (3, 2, 5)]
# every finite row in both label orders: the six sporadic ones, and (2,2,m) for odd m up to 61
FINITE = SPORADIC + [(k, m, n) for k, n, m in SPORADIC] + [row for m in range(3, 62, 2)
                                                             for row in ((2, 2, m), (2, m, 2))]


@pytest.mark.parametrize("k,n,m", FINITE)
def test_the_closed_form_and_the_certificate_agree_with_enumeration(k, n, m):
    result, status, _ = classify.classify_toric(k, n, m)
    cay = CayleyTable(todd_coxeter(toric(k, n, m)))  # the labels as given, so n > m enumerates another presentation
    center = cay.order_of(maps.central_element(k, n, m))
    quotient = todd_coxeter(pres.alt_toric(k, n, m)).num_cosets  # W/<c>
    assert status == "ok"
    assert (result["order"], result["center_order"], result["center_quotient_order"]) == (cay.size, center, quotient)
    assert result["reflection_classes_computed"] == reflection_class_count(cay) == k - 1


@pytest.mark.parametrize("row, d", [((5, 2, 3), 7), ((2, 3, 4), 8)])
def test_a_division_that_leaves_a_remainder_raises(monkeypatch, row, d):
    # 4k^2nm = 600 at (5,2,3) leaves a remainder by 49; at (2,3,4), 192 / 64 is exact but
    # 2k / d = 4 / 8 is not: an assertion, never a verdict
    monkeypatch.setattr(coxeter, "_curvature", lambda k, n, m: d)
    with pytest.raises(AssertionError, match=f"d = {d} leaves a remainder"):
        classify.classify_toric(*row)


def _tamper_last_shift(monkeypatch, tamper):
    """``classify``'s shift derivations, with the last meridian's replaced by
    ``tamper(ab, m, i)``: a certificate that checks only x1 misses it."""
    real = classify.chain_implies_shift
    monkeypatch.setattr(classify, "chain_implies_shift",
                        lambda ab, m, i: tamper(ab, m, i) if i == len(ab) else real(ab, m, i))
    return real


@pytest.mark.parametrize("row", [(3, 2, 3), (2, 3, 5), (2, 2, 7)])
def test_a_wrong_shift_derivation_fails_the_certificate(monkeypatch, row):
    # a step that rewrites with a chain relator but claims to be free
    def claim_free(ab, m, i):
        d = real(ab, m, i)
        step = d.steps[0]
        return Derivation(d.start, (RewriteStep(step.position, step.old, step.new, None),) + d.steps[1:])

    real = _tamper_last_shift(monkeypatch, claim_free)
    with pytest.raises(AssertionError, match=f"shift derivation of x{row[1]}"):
        classify.classify_toric(*row)


@pytest.mark.parametrize("row", [(3, 2, 3), (2, 3, 5), (2, 2, 7)])
def test_a_derivation_that_ends_at_the_wrong_word_fails_the_certificate(monkeypatch, row):
    # the checked derivation of another meridian's shift ends at delta x_{1+m}
    real = _tamper_last_shift(monkeypatch, lambda ab, m, i: real(ab, m, 1))
    with pytest.raises(AssertionError, match="ends at"):
        classify.classify_toric(*row)


@pytest.mark.parametrize("row", [(3, 2, 3), (2, 3, 5), (5, 2, 3)])
def test_a_map_to_another_cyclic_group_fails_the_certificate(row):
    k, n, m = row
    p = toric(k, n, m)
    assert classify._reflection_classes(p, k, m) == k - 1
    with pytest.raises(AssertionError, match=f"Z/{k + 1}"):
        classify._reflection_classes(p, k + 1, m)
    # meridians of order 2k map onto Z/k too, but have 2k - 1 nontrivial powers
    doubled = Presentation(p.alphabet, tuple(r**2 for r in p.relators[:n]) + p.relators[n:])
    with pytest.raises(AssertionError, match=f"x1\\^{k} is no relator"):
        classify._reflection_classes(doubled, k, m)


def test_classify_and_sweep_build_no_coset_table(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("classify and sweep enumerate nothing")

    for module in (cosets, classify):
        monkeypatch.setattr(module, "todd_coxeter", refuse)
    monkeypatch.setattr(CayleyTable, "__init__", refuse)
    classify.finite_quotient.cache_clear()
    rows = [(k, n, m) for k in range(2, 8) for n in range(2, 9) for m in range(n + 1, 10)
            if gcd(n, m) == 1 and coxeter.classify_triangle(k, n, m) == "spherical"]
    assert len(rows) == 10  # the finite rows of the grid workload
    for row in rows:
        assert cli.main(["--format", "json", "classify", *map(str, row)]) == 0
    capsys.readouterr()
    assert cli.main(["--format", "json", "sweep", "--max-k", "7", "--max-m", "9"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "sweep_7_9.json").read_bytes()
