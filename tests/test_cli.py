import json
import os
import subprocess
import sys
import time
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import parse_presentation
from oracles import abelian_invariants

from toricgroups import classify, cli, coxeter, cyclo, maps, presentations, schreier, words
from toricgroups.cli import main
from toricgroups.cosets import MAX_COSETS, todd_coxeter

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

# JSON stdout captured before the `wp toric` and `rep` decisions moved out of
# the command line into the library; these bytes are part of the CLI contract
GOLDEN_REQUESTS = {
    "wp_toric_4_2_3_central": ["wp", "toric", "4", "2", "3", "x1 x2 x1 x2 x1 x2"],
    "wp_toric_6_2_3_central": ["wp", "toric", "6", "2", "3", "x1 x2 x1 x2 x1 x2"],
    "wp_toric_2_3_7_noncentral": ["wp", "toric", "2", "3", "7", "x1 x2"],
    "rep_check_6_2_3_unit": ["rep", "check", "6", "2", "3", "--qr", "unit"],
    "rep_eval_6_2_3_s6": ["rep", "eval", "6", "2", "3", "s^6"],
    "rep_witness": ["rep", "witness"],
    # printed cyclotomics at moduli 60 and 120, captured before the sparse
    # integer reduction replaced the Fraction power basis
    "rep_eval_2_3_5_stus": ["rep", "eval", "2", "3", "5", "s t u s"],
    "rep_check_3_4_5": ["rep", "check", "3", "4", "5"],
    "wp_coxeter_7_8_9": ["wp", "coxeter", "7", "8", "9", "r1 r2 r3 r1 r2"],
    # captured before the coset table was stored by columns
    "enumerate_j_parent_2_3_5_hlt": ["enumerate", "j-parent", "2", "3", "5", "--strategy", "hlt"],
    "enumerate_j_parent_2_3_5_felsch": ["enumerate", "j-parent", "2", "3", "5", "--strategy", "felsch"],
    "enumerate_toric_5_2_3": ["enumerate", "toric", "5", "2", "3"],
    "enumerate_normal_closure_2_3_4": ["enumerate", "j-parent", "2", "3", "4", "--subgroup", "s", "--normal-closure"],
    # captured after: the second lookahead frees under a tenth of the bound,
    # so the overflow holds 9342 cosets (10008 before the cutoff)
    "enumerate_triangle_2_3_7_overflow": ["--max-cosets", "10000", "enumerate", "coxeter-triangle", "2", "3", "7"],
    # captured before the parser was built once per process and every
    # subcommand became one library call; these have text goldens too
    "classify_6_2_3": ["classify", "6", "2", "3"],
    "classify_4_2_3": ["classify", "4", "2", "3"],
    # captured when a finite row that overflows began to report order and
    # center_order as null; this has a text golden too
    "classify_2_3_5_overflow": ["--max-cosets", "10", "classify", "2", "3", "5"],
    "sweep_3_5": ["sweep", "--max-k", "3", "--max-m", "5"],
    "wp_garside_2_3": ["wp", "garside", "2", "3", "x^2 y^-3"],
    "present_toric_2_3_4": ["present", "toric", "2", "3", "4"],
    # captured when coprime rows began to answer with the checked toric
    # presentation; these have text goldens too
    "derive_2_3_4": ["derive", "2", "3", "4"],
    "derive_6_2_3": ["derive", "6", "2", "3"],
    # gcd(b, c) != 1 rows, which run RS then Tietze; captured before RS
    # rewrote each power relator once per orbit of its root; these have text
    # goldens too
    "derive_2_3_3": ["derive", "2", "3", "3"],
    "derive_6_2_4": ["--max-cosets", "2000", "derive", "6", "2", "4"],
    # captured after that change, which changed this on purpose: the best
    # presentation of an exhausted budget no longer holds the rotated copies
    # u_1_1 u_2_1 u_0_1 and u_2_1 u_0_1 u_1_1 of u_0_1 u_1_1 u_2_1 (nor those
    # of u_0_2 u_1_2 u_2_2); its 18 generators are unchanged
    "derive_2_3_3_budget_1": ["--budget", "1", "derive", "2", "3", "3"],
    # captured when `wp garside` began to read a word over the meridians
    # x1 ... xn through tau; this has a text golden too
    "wp_garside_classical_2_3": ["wp", "garside", "2", "3", "x1 x2 x1"],
    # captured before the cyclotomic numbers of one computation moved to a
    # single modulus: the meridian alphabet and mat_inv of rep eval, and the
    # swapped preset of rep check; these have text goldens too
    "rep_eval_2_3_7_meridians": ["rep", "eval", "2", "3", "7", "x1 x2^-1 x3 x1^-2"],
    "rep_check_2_3_7_swapped": ["rep", "check", "2", "3", "7", "--qr", "swapped"],
    # captured before the families moved into one table; the sweep covers
    # every row of the grid workload, and its text pins the key order of each
    # entry; these have text goldens too.  The two toric rows with n > m were
    # re-captured when every command began to read toric labels as given:
    # `present` prints the five meridians of (2, 5, 3), and only an order-only
    # `enumerate` swaps n and m, which its evidence names
    "present_toric_2_5_3": ["present", "toric", "2", "5", "3"],
    "enumerate_toric_3_5_2": ["enumerate", "toric", "3", "5", "2"],
    "enumerate_toric_2_5_3_subgroup_x1_x3": ["enumerate", "toric", "2", "5", "3", "--subgroup", "x1 x3"],
    "sweep_7_9": ["sweep", "--max-k", "7", "--max-m", "9"],
    # captured before `wp garside` stopped expanding exponents over {x, y}:
    # 2 * 10^6 letters when expanded; as pieces D^500000 x, D^-333332 y^-1 and x
    "wp_garside_2_3_long_exponents": ["wp", "garside", "2", "3", "x^1000001 y^-999997 x"],
    # captured before `wp garside` and `rep eval` picked a word's alphabet from
    # its first generator other than 1, without reading the whole word; the
    # garside request has a text golden too
    "wp_garside_3_5_meridians_with_ones": ["wp", "garside", "3", "5", "1 x2^-7 x1^4 1 x3"],
    "rep_eval_2_3_5_meridians_with_ones": ["rep", "eval", "2", "3", "5", "1 x1^2 x3^-1"],
    # captured before `classify` and `sweep` built the keys they share in one
    # function: every finite row overflows, so the entries print `order` null
    # and the evidence names each row; this has a text golden too
    "sweep_3_5_overflow": ["--max-cosets", "5", "sweep", "--max-k", "3", "--max-m", "5"],
}
# requests refused with exit code 2 and one `error:` line, in JSON and in
# text: a word that neither alphabet of `wp garside` or `rep eval` reads, and
# toric labels that `classify` refuses
REFUSED_REQUESTS = {
    "wp_garside_meridian_then_y": (["wp", "garside", "2", "3", "x1 y"], "unknown generator 'y'"),
    "wp_garside_x_then_y1": (["wp", "garside", "2", "3", "x y1"], "unknown generator 'y1'"),
    "wp_garside_zero_meridian_exponent": (["wp", "garside", "2", "3", "1 x1^0"], "zero exponent in 'x1^0'"),
    "rep_eval_s_then_meridian": (["rep", "eval", "2", "3", "7", "s x1"], "unknown generator 'x1'"),
    "rep_eval_meridian_past_b": (["rep", "eval", "2", "3", "7", "x4"], "unknown generator 'x4'"),
    "rep_eval_meridian_then_s": (["rep", "eval", "2", "3", "7", "x1 s"], "unknown generator 's'"),
    "wp_garside_ones_then_unknown": (["wp", "garside", "2", "3", "1 1 z"], "unknown generator 'z'"),
    "classify_gcd_violation": (["classify", "2", "6", "4"], "gcd(6,4) != 1"),
}
# requests whose text output is pinned as well, in `<name>.txt`
TEXT_GOLDEN = ("classify_6_2_3", "classify_4_2_3", "sweep_3_5", "derive_2_3_4", "derive_6_2_3",
               "derive_2_3_3", "derive_6_2_4", "wp_garside_2_3", "present_toric_2_3_4",
               "wp_coxeter_7_8_9", "rep_witness", "wp_garside_classical_2_3", "rep_eval_2_3_7_meridians",
               "rep_check_2_3_7_swapped", "present_toric_2_5_3", "enumerate_toric_3_5_2",
               "enumerate_toric_2_5_3_subgroup_x1_x3", "sweep_7_9", "classify_2_3_5_overflow",
               "wp_garside_3_5_meridians_with_ones", "sweep_3_5_overflow")


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, _ = run(capsys, "--format", "json", *argv)
    return code, json.loads(out)


def test_present_toric_text(capsys):
    code, out, _ = run(capsys, "present", "toric", "2", "3", "4")
    assert code == 0
    assert out.splitlines()[0] == "gens: x1 x2 x3"
    assert "rel: x1 x2 x3 x1 x2^-1 x1^-1 x3^-1 x2^-1" in out


def test_present_alt_plus(capsys):
    code, out, _ = run(capsys, "present", "alt-plus", "2", "3", "5")
    assert code == 0
    assert "rel: a^2" in out and "rel: b^3" in out


def test_present_rejects_gcd_violation(capsys):
    code, _, err = run(capsys, "present", "toric", "2", "4", "6")
    assert code == 2
    assert "gcd" in err


def test_enumerate_json_schema(capsys):
    code, payload = run_json(capsys, "enumerate", "toric", "3", "2", "3")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["result"]["order"] == 24
    assert set(payload) == {"command", "params", "bounds", "result", "status", "evidence"}
    assert set(payload["bounds"]) == {"max_cosets", "budget"}


def test_enumerate_overflow_is_status_unknown_exit_zero(capsys):
    # an overflow keeps the key that the completed request answers with
    for argv, key in ((("--max-cosets", "2000"), "order"), (("--max-cosets", "50", "--subgroup", "x1"), "index")):
        code, payload = run_json(capsys, "enumerate", "toric", "2", "3", "7", *argv)
        assert code == 0
        assert payload["status"] == "unknown"
        assert payload["result"] == {key: None, "cosets": payload["result"]["cosets"]}


def test_max_cosets_below_one_is_input_error(capsys):
    for bound in ("0", "-5"):
        code, out, err = run(capsys, "--max-cosets", bound, "enumerate", "toric", "3", "2", "3")
        assert code == 2
        assert out == ""
        assert "--max-cosets" in err


def test_budget_below_zero_is_input_error(capsys):
    code, out, err = run(capsys, "--budget", "-3", "derive", "2", "3", "4")
    assert code == 2
    assert out == ""
    assert "--budget" in err
    # the budget bounds Tietze, which runs only where gcd(b, c) != 1
    code, payload = run_json(capsys, "--budget", "0", "derive", "2", "3", "3")
    assert code == 0
    assert payload["status"] == "unknown"
    assert ("Tietze step budget 0 exhausted: best presentation kept, order not enumerated"
            in payload["evidence"])


def test_enumerate_normal_closure_index(capsys):
    code, payload = run_json(capsys, "enumerate", "j-parent", "2", "3", "5",
                             "--subgroup", "s", "--normal-closure")
    assert code == 0
    assert payload["result"]["index"] == 15


def test_enumerate_normal_closure_in_infinite_parent(capsys):
    code, payload = run_json(capsys, "--max-cosets", "100", "enumerate", "j-parent", "6", "2", "3",
                             "--subgroup", "s", "--normal-closure")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["result"]["index"] == 6


@pytest.mark.parametrize("labels", [("2", "5", "3"), ("3", "5", "2")])
def test_every_command_reads_toric_labels_as_given(capsys, labels):
    # W(k,n,m) and W(k,m,n) are isomorphic, but not letter for letter: a word
    # over x1 ... x5 names an element only of the presentation with five
    # meridians, so present, enumerate --subgroup and wp toric all read it
    code, out, _ = run(capsys, "present", "toric", *labels)
    assert (code, out.splitlines()[0]) == (0, "gens: x1 x2 x3 x4 x5")
    for argv in (["enumerate", "toric", *labels, "--subgroup"], ["wp", "toric", *labels]):
        assert run(capsys, *argv, "x4 x1")[0] == 0, argv
        assert run(capsys, *argv, "x6") == (2, "", "error: unknown generator 'x6'\n"), argv


def test_enumerate_reads_its_subgroup_over_the_labels_as_given(capsys):
    pres = presentations.toric(2, 5, 3)
    expected = todd_coxeter(pres, [pres.alphabet.word("x1 x3")]).num_cosets
    code, payload = run_json(capsys, "enumerate", "toric", "2", "5", "3", "--subgroup", "x1 x3")
    assert (code, payload["result"]["index"]) == (0, expected)
    assert expected == 40  # 24 in W(2,3,5), where x1 x3 is another element
    assert len(payload["evidence"]) == 1  # nothing was swapped


@pytest.mark.parametrize("flags", [(), ("--normal-closure",)])
def test_an_order_only_enumerate_swaps_n_greater_m_and_names_the_swap(capsys, flags):
    # the order does not depend on the presentation, and W(3,2,5) enumerates faster
    code, payload = run_json(capsys, "enumerate", "toric", "3", "5", "2", *flags)
    assert (code, payload["result"]["order"]) == (0, 360)
    assert "enumerated W(3,2,5), isomorphic to W(3,5,2)" in payload["evidence"]


def _row_cache_hits() -> int:
    return maps.build_phi.cache_info().hits + classify.finite_quotient.cache_info().hits


@pytest.mark.parametrize("argv, cached", [
    # an infinite row: neither the quotient map nor a Cayley table
    pytest.param(("classify", "6", "2", "3"), False, id="classify-6-2-3"),
    pytest.param(("wp", "toric", "5", "2", "3", "x1 x2 x1 x2 x1 x2"), True, id="wp-toric-5-2-3-central"),
    pytest.param(("wp", "toric", "2", "3", "7", "x2 x1^-1 x3^2 x2^-1 x1 x3"), True, id="wp-toric-2-3-7-random"),
    pytest.param(("classify", "5", "2", "3"), True, id="classify-5-2-3"),
    pytest.param(("rep", "witness"), True, id="rep-witness"),
])
def test_json_byte_identical_across_runs(capsys, argv, cached):
    # the quotient map and the Cayley table of a row are built once per
    # process, so the second run reads what the first one built
    maps.build_phi.cache_clear()
    classify.finite_quotient.cache_clear()
    _, out1, _ = run(capsys, "--format", "json", *argv)
    hits = _row_cache_hits()
    _, out2, _ = run(capsys, "--format", "json", *argv)
    assert out1 == out2
    assert (_row_cache_hits() > hits) == cached


def test_classify_finite(capsys):
    code, payload = run_json(capsys, "classify", "2", "3", "4")
    assert code == 0
    result = payload["result"]
    assert result["finite"] is True
    assert result["shephard_todd"] == "G12"
    assert result["order"] == 48
    assert result["reflection_classes"] == 1
    assert result["reflection_classes_computed"] == 1
    assert result["braid_group"] == "G(3,4)"
    assert result["center_order"] == 2
    assert result["center_quotient"] == "S4"
    assert result["center_quotient_order"] == 24


def test_classify_infinite(capsys):
    code, payload = run_json(capsys, "classify", "6", "2", "3")
    assert code == 0
    result = payload["result"]
    assert result["finite"] is False
    assert result["maximal_finite_cyclic_orders"] == [2, 3, 6]
    assert result["center_order"] is None
    assert payload["status"] == "ok"


def test_classify_dihedral_row(capsys):
    code, payload = run_json(capsys, "classify", "2", "2", "5")
    assert code == 0
    assert payload["result"]["shephard_todd"] == "G(5,5,2)=I2(5)"
    assert payload["result"]["order"] == 10


def test_wp_coxeter(capsys):
    code, payload = run_json(capsys, "wp", "coxeter", "6", "2", "3", "r1 r3 r1 r3 r1 r3")
    assert code == 0
    assert payload["result"]["identity"] is True


def test_wp_garside(capsys):
    code, payload = run_json(capsys, "wp", "garside", "2", "3", "x^2 y^-3")
    assert code == 0
    assert payload["result"]["identity"] is True
    code, payload = run_json(capsys, "wp", "garside", "2", "3", "x y")
    assert payload["result"]["identity"] is False


def test_wp_garside_reads_meridian_words(capsys):
    # both sides of the defining relation x1 x2 x1 = x2 x1 x2 are x
    forms = [run_json(capsys, "wp", "garside", "2", "3", w)[1]["result"]["normal_form"]
             for w in ("x1 x2 x1", "x2 x1 x2")]
    assert forms == ["x", "x"]
    forms = [run_json(capsys, "wp", "garside", "2", "101", w)[1]["result"]["normal_form"] for w in ("x1", "x2")]
    assert forms[0] != forms[1]
    code, payload = run_json(capsys, "wp", "garside", "2", "3", "x1 x2 x1 x2^-1 x1^-1 x2^-1")
    assert (code, payload["result"]["identity"]) == (0, True)


@pytest.mark.parametrize("labels, word, normal_form, delta_power", [
    # 2 * 10^9 letters if expanded; this request once reached 7.6 GB
    (("2", "3"), "x^1000000000 y x^-999999999", "y | x", 0),
    # y^-1 is one letter, and y^-1000 = D^-1 y^999001; its positive power would be 10^6 letters per token
    (("2", "1000001"), " ".join(["y^-1"] * 1000), "D^-1 · y^999001", -1),
    # a block y^m longer than the word is never built
    (("2", "100000000001"), "x y", "x | y", 0),
])
def test_wp_garside_reads_huge_exponents_without_expanding(capsys, labels, word, normal_form, delta_power):
    start = time.perf_counter()
    code, payload = run_json(capsys, "wp", "garside", *labels, word)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["result"] == {"normal_form": normal_form, "identity": False, "delta_power": delta_power}


@pytest.mark.parametrize("word, message", [
    ("x1 z", "unknown generator 'z'"),  # the meridians read further
    ("x z", "unknown generator 'z'"),  # {x, y} read further
    ("z", "unknown generator 'z'"),  # a tie: the error over {x, y}
    ("x1 x2^0", "zero exponent in 'x2^0'"),
    ("x y^0", "zero exponent in 'y^0'"),
    ("x3", "unknown generator 'x3'"),  # a meridian past n
    ("x1^0", "zero exponent in 'x1^0'"),  # a tie: the meridians know x1
])
def test_wp_garside_reports_the_alphabet_that_read_further(capsys, word, message):
    code, out, err = run(capsys, "wp", "garside", "2", "3", word)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("1", "3", "x"), "labels must be integers >= 2, got 1"),  # as `derive` and `rep` say it
    (("3", "1", "x1"), "labels must be integers >= 2, got 1"),  # a meridian word is checked the same way
    (("2", "4", "x"), "gcd(2,4) != 1"),
])
def test_wp_garside_rejects_labels_as_the_families_do(capsys, argv, message):
    code, out, err = run(capsys, "wp", "garside", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_wp_toric_finite_decides(capsys):
    code, payload = run_json(capsys, "wp", "toric", "3", "2", "3", "x1^3")
    assert code == 0
    assert payload["result"]["identity"] is True


def test_wp_toric_infinite_central_is_unknown(capsys):
    code, payload = run_json(capsys, "wp", "toric", "6", "2", "3", "x1 x2 x1 x2 x1 x2")
    assert code == 0
    assert payload["status"] == "unknown"
    assert payload["result"]["identity"] is None
    assert payload["result"]["central"] is True


def test_wp_toric_overflow_on_finite_row_is_unknown(capsys):
    code, payload = run_json(capsys, "--max-cosets", "10", "wp", "toric", "3", "2", "3",
                             "x1 x2 x1 x2 x1 x2")
    assert code == 0
    assert payload["status"] == "unknown"
    assert payload["result"] == {"identity": None, "central": True, "coxeter_image_nf": "1"}
    assert payload["evidence"] == ["enumeration overflowed at 10"]


def test_wp_toric_noncentral_decided(capsys):
    code, payload = run_json(capsys, "wp", "toric", "6", "2", "3", "x1")
    assert code == 0
    assert payload["result"]["identity"] is False


def test_derive_reports_presentation_and_order(capsys):
    code, payload = run_json(capsys, "derive", "2", "3", "4")
    assert code == 0
    assert payload["result"]["num_generators"] == 3
    assert payload["result"]["order"] == 48


def test_derive_infinite_row_takes_finiteness_from_classification(capsys):
    code, payload = run_json(capsys, "--max-cosets", "100", "derive", "6", "2", "3")
    assert code == 0
    assert payload["status"] == "ok"
    result = payload["result"]
    assert result["order"] is None
    assert result["num_generators"] == 2
    # the checked toric presentation, relabelled s_j -> x_{j+1}
    relabeled = result["presentation"].replace("s0", "x1").replace("s1", "x2")
    assert relabeled == presentations.serialize(presentations.toric(6, 2, 3))
    assert payload["evidence"][0] == "index of the normal closure of s: 6"
    assert ("order not enumerated: J(6,2,3) maps onto the infinite rotation subgroup of the affine "
            "(6,2,3) triangle group and ncl(s) has finite index; group is infinite" in payload["evidence"])


def test_derive_reads_a_coprime_order_off_the_index_of_s0(capsys):
    # |W(5,2,3)| = 600 = 5 [W : <s0>]: the 120 cosets of <s0> fit a bound
    # of 200, which the 600 cosets of the trivial subgroup do not
    code, payload = run_json(capsys, "--max-cosets", "200", "derive", "5", "2", "3")
    assert (code, payload["status"], payload["result"]["order"]) == (0, "ok", 600)


def test_derive_enumerates_order_when_gcd_is_not_one(capsys):
    # gcd(3,3) != 1, so the classification does not apply and the order is enumerated
    code, payload = run_json(capsys, "derive", "2", "3", "3")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["result"]["order"] == 16


def test_derive_infinite_row_with_gcd_above_one_is_not_enumerated(capsys):
    # the (6,2,4) and (2,4,6) triangle groups are hyperbolic, so J(a,b,c)
    # and its finite-index subgroup ncl(s) are infinite, and the Tietze
    # output within the budget presents the group
    for abc in (("6", "2", "4"), ("2", "4", "6")):
        code, payload = run_json(capsys, "--max-cosets", "2000", "derive", *abc)
        assert code == 0
        assert payload["status"] == "ok"
        assert payload["result"]["order"] is None
        assert payload["result"]["presentation"].startswith("gens:")
        assert not any("overflowed" in line for line in payload["evidence"]), abc
        assert any(line.startswith("order not enumerated:") for line in payload["evidence"]), abc


# derive 6 2 4 under another numbering of the cosets of ncl(s): the
# presentation reads each coset's Schreier generators in coset order
DERIVE_6_2_4_RENUMBERED = """gens: u_2_1 s_3_1
rel: s_3_1^6
rel: u_2_1 s_3_1 u_2_1 s_3_1 u_2_1 s_3_1 u_2_1 s_3_1 u_2_1 s_3_1 u_2_1 s_3_1
rel: u_2_1 s_3_1^2 u_2_1 s_3_1 u_2_1^-1 s_3_1^-2 u_2_1^-1 s_3_1^-1
rel: s_3_1 u_2_1 s_3_1^2 u_2_1 s_3_1^-1 u_2_1^-1 s_3_1^-2 u_2_1^-1
"""


def test_derive_6_2_4_has_the_abelian_invariants_of_a_renumbered_run(capsys):
    # the subgroup presentation follows the coset numbering, which the
    # enumerator's walk decides; the group it presents does not
    code, out = run_json(capsys, "--max-cosets", "2000", "derive", "6", "2", "4")
    assert code == 0
    derived = parse_presentation(out["result"]["presentation"])
    other = parse_presentation(DERIVE_6_2_4_RENUMBERED)
    assert len(derived.relators) == 5 and len(other.relators) == 4
    assert abelian_invariants(derived) == abelian_invariants(other) == (6, 6)


def test_derive_exhausted_budget_keeps_best_presentation(capsys):
    code, payload = run_json(capsys, "--budget", "1", "derive", "2", "3", "3")
    assert code == 0
    assert payload["status"] == "unknown"
    assert payload["result"]["order"] is None
    assert payload["result"]["num_generators"] == 18
    assert payload["result"]["presentation"].startswith("gens:")
    assert ("Tietze step budget 1 exhausted: best presentation kept, order not enumerated"
            in payload["evidence"])
    # a coprime row runs no Tietze, so the budget does not apply
    code, payload = run_json(capsys, "--budget", "1", "derive", "2", "3", "5")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["result"]["order"] == 240
    assert payload["result"]["num_generators"] == 3


def _miscited(real, ab, m, i):
    # the shift relator 2 of (2,3,4) is derived citing chain relators 1 and
    # 0; citing them the other way round is no derivation
    d = real(ab, m, i)
    return words.Derivation(d.start, tuple(words.RewriteStep(s.position, s.old, s.new, 1 - s.relator_index)
                                           if s.relator_index is not None else s for s in d.steps))


@pytest.mark.parametrize("fake, message", [
    pytest.param(_miscited, "not an instance of relator", id="miscited"),
    # a valid derivation, but of another shift relator
    pytest.param(lambda real, ab, m, i: real(ab, m, i % len(ab) + 1), "derives another relator", id="other-shift"),
])
def test_failed_derivation_check_is_an_internal_error(monkeypatch, fake, message):
    # a failed check is a fault of the derivation, never exit 2; (2,3,4)
    # deletes a shift relator, while (6,2,3) deletes none and would never
    # call the patched function
    real = schreier.chain_implies_shift
    monkeypatch.setattr(schreier, "chain_implies_shift", lambda ab, m, i: fake(real, ab, m, i))
    with pytest.raises(AssertionError, match=message):
        main(["derive", "2", "3", "4"])


def test_rep_witness(capsys):
    code, payload = run_json(capsys, "rep", "witness")
    assert code == 0
    assert payload["result"]["unfaithful"] is True
    assert payload["result"]["order_of_x1x2_in_k3_quotient"] == 6


def test_rep_witness_overflow_is_unknown(capsys):
    code, payload = run_json(capsys, "--max-cosets", "10", "rep", "witness")
    assert code == 0
    assert payload["status"] == "unknown"
    assert payload["result"]["order_of_x1x2_in_k3_quotient"] is None
    assert payload["result"]["unfaithful"] is None


def test_rep_labels_are_validated(capsys):
    for argv, bad in ((("check", "1", "2", "3"), "1"), (("check", "2", "3", "0"), "0"),
                      (("eval", "1", "2", "3", "s"), "1")):
        code, out, err = run(capsys, "rep", *argv)
        assert code == 2
        assert out == ""
        assert f"labels must be integers >= 2, got {bad}" in err


def test_rep_extra_arguments_are_rejected(capsys):
    for argv in (("witness", "7", "7", "7"), ("witness", "--qr", "bogus"), ("witness", "--qr", "zero"),
                 ("check", "6", "2", "3", "extra", "junk"), ("eval", "6", "2", "3", "s", "t")):
        code, out, err = run(capsys, "rep", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: rep ")


@pytest.mark.parametrize("argv, message", [
    (("wp", "toric", "2", "3", "x1"), "error: expected 3 labels, got 2"),
    (("rep", "check", "6", "2"), "error: rep check needs three parameters a b c"),
    (("rep", "check", "a", "b", "c"), "error: parameters must be integers, got ['a', 'b', 'c']"),
    (("sweep", "--max-k", "-3", "--max-m", "-1"), "error: max_k must be >= 2, got -3"),
    (("sweep", "--max-m", "1"), "error: max_m must be >= 2, got 1"),
])
def test_argument_refusals_name_their_fault(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize("argv, status, evidence", [
    (("--max-cosets", "1", "classify", "5", "2", "3"), "ok", "enumeration overflowed at 1; membership retained"),
    (("--max-cosets", "1", "derive", "2", "3", "5"), "unknown", "enumeration overflowed at 1"),
    (("--max-cosets", "100", "derive", "2", "3", "5"), "unknown", "order enumeration overflowed at 100"),
    (("--max-cosets", "5", "sweep", "--max-k", "3", "--max-m", "5"), "ok",
     "W(3,2,5): enumeration overflowed at 5; membership retained"),
])
def test_overflows_are_named_in_the_evidence(capsys, argv, status, evidence):
    code, payload = run_json(capsys, *argv)
    assert (code, payload["status"]) == (0, status)
    assert payload["evidence"][-1] == evidence
    if "classify" in argv:  # a finite row that overflows keeps an infinite row's keys
        assert (payload["result"]["order"], payload["result"]["center_order"]) == (None, None)


def test_rep_check_with_preset(capsys):
    code, payload = run_json(capsys, "rep", "check", "6", "2", "3", "--qr", "unit")
    assert code == 0
    assert payload["result"]["all_pass"] is True


def test_rep_eval(capsys):
    code, payload = run_json(capsys, "rep", "eval", "6", "2", "3", "s^6")
    assert code == 0
    assert payload["result"]["is_identity"] is True


def test_rep_eval_requires_word(capsys):
    code, _, err = run(capsys, "rep", "eval", "6", "2", "3")
    assert code == 2


def test_rep_eval_reports_the_error_of_an_stu_word(capsys):
    # a word whose first generator is s, t or u is read over {s, t, u} only,
    # not again over x1..xb, where the error would read "unknown generator 's'"
    code, out, err = run(capsys, "rep", "eval", "6", "2", "3", "s^0")
    assert (code, out, err) == (2, "", "error: zero exponent in 's^0'\n")


@pytest.mark.parametrize("word, message", [
    ("s t v", "unknown generator 'v'"),  # s picks {s, t, u}
    ("x1 v", "unknown generator 'v'"),  # x1 picks the meridians
    ("v", "unknown generator 'v'"),  # neither alphabet knows v: {s, t, u} reports it
    ("x1^0", "zero exponent in 'x1^0'"),  # the meridians know x1
    ("x3", "unknown generator 'x3'"),  # a meridian past b
])
def test_rep_eval_reports_the_alphabet_that_read_further(capsys, word, message):
    # rep eval and wp garside share one reader for a word over two alphabets;
    # the first generator picks the alphabet, which is also the one that
    # reads further, as these alphabets share no name
    code, out, err = run(capsys, "rep", "eval", "6", "2", "3", word)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_counts_and_distinguishes(capsys):
    code, payload = run_json(capsys, "sweep", "--max-k", "3", "--max-m", "5")
    assert code == 0
    entries = payload["result"]["entries"]
    assert payload["result"]["count"] == len(entries) > 0
    keys = set()
    for e in entries:
        key = (e["reflection_classes"],
               tuple(e.get("maximal_finite_cyclic_orders", [])),
               e.get("shephard_todd"), e.get("order"))
        keys.add(key)
    assert len(keys) == len(entries)


def test_sweep_and_classify_agree_row_by_row():
    # the grid workload's rows: 2 <= k <= 7, 2 <= n < m <= 9, gcd(n, m) = 1
    entries = classify.sweep(7, 9, MAX_COSETS)[0]["entries"]
    assert len(entries) == 114
    for entry in entries:
        record, status, _ = classify.classify_toric(*entry["parameters"], MAX_COSETS)
        row = (entry["parameters"], status)
        assert row == (record["parameters"], "ok")
        for key in ("finite", "triangle_type", "reflection_classes"):
            assert entry[key] == record[key], (row, key)
        # null in sweep and absent in classify on an infinite row
        assert entry["shephard_todd"] == record.get("shephard_todd"), row
        assert ("shephard_todd" in record) == entry["finite"], row
        key = "order" if entry["finite"] else "maximal_finite_cyclic_orders"
        assert entry[key] == record[key], (row, key)
    assert sum(e["finite"] for e in entries) == 10


def test_sweep_names_every_overflowed_finite_row_in_grid_order(capsys):
    code, payload = run_json(capsys, "--max-cosets", "5", "sweep", "--max-k", "3", "--max-m", "5")
    assert (code, payload["status"]) == (0, "ok")
    finite = [e for e in payload["result"]["entries"] if e["finite"]]
    assert [e["order"] for e in finite] == [None] * 6
    assert payload["evidence"] == [f"W({k},{n},{m}): enumeration overflowed at 5; membership retained"
                                   for k, n, m in (e["parameters"] for e in finite)]


@pytest.mark.parametrize("name", sorted(GOLDEN_REQUESTS))
def test_json_matches_golden(capsys, name):
    code, out, _ = run(capsys, "--format", "json", *GOLDEN_REQUESTS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(REFUSED_REQUESTS))
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_refused_requests_print_one_error_line(capsys, fmt, name):
    argv, message = REFUSED_REQUESTS[name]
    assert run(capsys, "--format", fmt, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.stem)
def test_json_goldens_are_the_stdlib_format(path):
    # whatever writes the JSON, its bytes are the stdlib's sorted, indented form
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# payload-shaped values: every scalar the CLI prints, in nested and empty
# dicts, lists and tuples
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


@given(JSON_VALUES)
@example("W(2,3,7) \u00b7 \u0394^-1 \x00\x1f\t\n \"quoted\" back\\slash \U0001f600 \ud800")
@example([1, True, 0, False, -1, None, 10**30, {}, [], ()])
@example({"b": {"z": [], "a": {}}, "a": [(), [[]], {"": 0}]})
def test_json_writer_is_the_stdlib_format(value):
    assert cli._json(value, "\n") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.0, 0.0, {1, 2}, b"x", {1: "a"}, {"a": 1, 2: "b"}, [0, 1.0], {"a": {"b": b"x"}}],
                         ids=["1.0", "0.0", "set", "bytes", "int-key", "mixed-keys", "nested-float", "nested-bytes"])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json(value, "\n")


def test_reused_parser_prints_the_same_bytes(capsys):
    # one command table serves every call in a process: no flag value, default or
    # format may leak from one call into the next
    good = [
        ("classify", "6", "2", "3"),
        ("--format", "json", "classify", "6", "2", "3"),
        ("--max-cosets", "50", "--format", "json", "enumerate", "toric", "2", "3", "7"),
        ("enumerate", "toric", "2", "3", "7", "--max-cosets", "50", "--format", "json"),
        ("wp", "garside", "2", "3", "x^2 y^-3"),
    ]
    seen: dict[tuple, str] = {}
    for _ in range(2):
        for argv in good:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert seen.setdefault(argv, out) == out, argv
            code, out, err = run(capsys, "classify", "6", "2", "3", "--format", "json", "--max-cosets", "0")
            assert (code, out, err) == (2, "", "error: --max-cosets must be >= 1, got 0\n")
    assert seen[good[0]].encode() == (GOLDEN / "classify_6_2_3.txt").read_bytes()
    assert seen[good[1]].encode() == (GOLDEN / "classify_6_2_3.json").read_bytes()
    assert seen[good[2]] == seen[good[3]]
    assert json.loads(seen[good[2]])["bounds"]["max_cosets"] == 50
    first, second = cli._parse(list(good[2])), cli._parse(list(good[2]))
    assert first is not second and first.labels is not second.labels and vars(first) == vars(second)


@pytest.mark.parametrize("owner, name, argv", [
    # the meridian word expands to 10^11 letters and really runs out of memory
    # (a word over {x, y} is no longer expanded: see
    # test_wp_garside_reads_huge_exponents_without_expanding); labels
    # whose field is too large are refused before any allocation (see
    # test_degree_cap_refuses_before_allocating), so for the root table and
    # the representation a failing cyclo._canon, which reduces every root of
    # unity and product, stands in for memory running short on accepted labels
    pytest.param(words, "parse_word", ("wp", "garside", "2", "3", "x1^99999999999"), id="wp-garside"),
    pytest.param(cyclo, "_canon", ("wp", "coxeter", "7", "9", "11", "r1"), id="wp-coxeter"),
    pytest.param(cyclo, "_canon", ("rep", "check", "7", "9", "11"), id="rep-check"),
])
def test_out_of_memory_is_input_error(capsys, monkeypatch, owner, name, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError

    coxeter.triangle_table.cache_clear()  # a cached table would build no value
    monkeypatch.setattr(owner, name, exhausted)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: input too large for memory\n")


@pytest.mark.parametrize("argv", [
    ("wp", "coxeter", "1000", "999", "997", "r1"),
    ("wp", "toric", "1000", "999", "997", "x1"),
    ("rep", "check", "1000", "999", "997"),
    ("rep", "eval", "1000", "999", "997", "s"),
    ("wp", "coxeter", "11", "13", "15", "r1"),  # N = 4290, phi(N) = 960
])
def test_degree_cap_refuses_before_allocating(capsys, monkeypatch, argv):
    # these used to run until MemoryError; now no field element is built
    def allocating(*args):
        raise AssertionError("a cyclotomic value was built past the degree cap")

    monkeypatch.setattr(cyclo, "_canon", allocating)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    n = lcm(*(2 * int(v) for v in argv[2:5]))
    assert (code, out) == (2, "")
    assert err == (f"error: labels {', '.join(argv[2:5])} need cyclotomic modulus N = {n}, "
                   f"and phi(N) exceeds the supported degree {cyclo.MAX_DEGREE}\n")


@pytest.mark.parametrize("argv", [
    # 18 KB of text, so a print fails once the first 8 KB block is written
    pytest.param(("sweep", "--max-k", "7", "--max-m", "9"), id="sweep-text"),
    # a short output, which fails only when it is flushed
    pytest.param(("--format", "json", "derive", "2", "3", "4"), id="derive-json"),
])
def test_closed_stdout_exits_one_with_nothing_on_stderr(argv):
    # the reader goes away first, as `| head` does; the CLI's start-up takes
    # far longer than closing the pipe, so every write meets a closed pipe
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen([sys.executable, "-m", "toricgroups.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


@pytest.mark.parametrize("name", TEXT_GOLDEN)
def test_text_matches_golden(capsys, name):
    code, out, _ = run(capsys, *GOLDEN_REQUESTS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()
