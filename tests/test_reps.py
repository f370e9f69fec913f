import operator
import os
import random
import subprocess
import sys
from functools import reduce
from math import lcm
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cyclotomic_by_identities,
    reference_cyc,
    reference_cyclotomic_polynomial,
    reference_sign_real,
    reference_zeta,
)

from toricgroups import reps
from toricgroups.cosets import MAX_COSETS
from toricgroups.cyclo import (Cyc, _canon, _conj_table, _cos_table, _degree, cyclotomic_polynomial, dot,
                               label_modulus, sign_real, two_cos_pi_over, zeta)
from toricgroups.reps import (
    ConstraintError,
    build_rho,
    build_rho_preset,
    constraint_value,
    mat_det,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_scale,
    qr_presets,
    relation_checks,
    rho_eval,
    witness_record,
)
from toricgroups.maps import meridian_embedding
from toricgroups.presentations import meridians
from toricgroups.words import Alphabet, Word, apply_map

REP_PARAMS = [(2, 3, 4), (2, 3, 5), (3, 2, 3), (6, 2, 3), (2, 3, 7)]
# the representation presets of the benchmark's word-problem workload
WORKLOAD_REP_PARAMS = [(6, 2, 3), (2, 3, 5), (3, 4, 5)]


# --- cyclotomic arithmetic -------------------------------------------------------


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_reference():
    # the Moebius product against Phi_rad(n)(x^(n/rad n)) and Phi_m(x^p)/Phi_m(x)
    for n in range(1, 1501):
        assert cyclotomic_polynomial(n) == cyclotomic_by_identities(n), n
    # the identities against division of x^n - 1 by every Phi_d, where that is cheap
    for n in range(1, 301):
        assert cyclotomic_by_identities(n) == reference_cyclotomic_polynomial(n), n


def test_root_of_unity_cancellation():
    for n in (5, 8, 12):
        assert zeta(n) * zeta(n, n - 1) == Cyc.one(n) == 1


def test_half_turn():
    assert zeta(6) * zeta(6) * zeta(6) == Cyc.rational(-1, 6) == -1


def test_two_cos_pi_over_three_is_one():
    value = zeta(6) + zeta(6).inv()
    assert value == 1
    assert value == Cyc.rational(1, 6)
    assert two_cos_pi_over(3, 6) == value
    with pytest.raises(ValueError, match="not a multiple"):
        two_cos_pi_over(4, 6)


def test_field_axioms_spot():
    a = zeta(24, 2) + 2
    b = zeta(24, 10) - Cyc.rational(3, 24)
    c = zeta(24, 3)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert c * c.inv() == Cyc.one(24)
    assert (a * b) * c == a * (b * c)


def test_inverse_of_zero_raises():
    for n in (1, 12):
        with pytest.raises(ZeroDivisionError):
            Cyc.zero(n).inv()


def test_conjugation_is_involution_and_fixes_reals():
    a = zeta(7) + 2 * zeta(7, 3)
    assert a.conj().conj() == a
    r = two_cos_pi_over(7, 14)
    assert r.is_real()
    assert not zeta(7).is_real()


def test_cross_modulus_equality():
    # one modulus per computation: a value at another modulus is embedded first
    assert zeta(3).embed(6) == zeta(6, 2)
    assert zeta(4).embed(12) == zeta(12, 3)
    for op in (operator.eq, operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="moduli 3 and 6 differ"):
            op(zeta(3), zeta(6, 2))


def test_sign_real():
    assert sign_real(two_cos_pi_over(7, 14) - 1) == 1
    assert sign_real(two_cos_pi_over(7, 14) - 2) == -1
    assert sign_real(Cyc.zero(14)) == 0
    with pytest.raises(ValueError):
        sign_real(zeta(5))


def test_equal_values_hash_equal_across_moduli():
    assert zeta(4).embed(8) == zeta(8, 2)
    assert len({zeta(4).embed(8), zeta(8, 2)}) == 1
    # a rational value hashes as its int, at every modulus
    for n in (1, 4, 12, 60):
        assert Cyc.rational(3, n) == 3
        assert hash(Cyc.rational(3, n)) == hash(3)


# --- the sparse reduction against the original power-basis arithmetic -----------

MODULI = (1, 4, 12, 60, 120, 252)
# (n, a proper divisor of n in MODULI): the operand at d is embedded into n
MODULUS_PAIRS = [(n, d) for n in MODULI for d in MODULI if d < n and n % d == 0]
small = st.integers(-5, 5)
nonzero_small = small.filter(bool)


@st.composite
def elements(draw, n: int, max_terms: int = 4, min_terms: int = 0):
    """Coefficients of a sparse element of Z[zeta_n], as a (Cyc, reference) pair.

    With ``min_terms`` > 0 every drawn coefficient is nonzero, so the element is.
    """
    coeffs = [0] * _degree(n)
    for i in draw(st.lists(st.integers(0, _degree(n) - 1), min_size=min_terms, max_size=max_terms)):
        coeffs[i] = draw(nonzero_small if min_terms else small)
    return Cyc(n, tuple(coeffs)), reference_cyc(n, coeffs)


@st.composite
def element_pairs(draw):
    n, d = draw(st.sampled_from([(n, n) for n in MODULI] + MODULUS_PAIRS))
    return draw(elements(n)), draw(elements(d))


def same(value: Cyc, ref) -> None:
    assert value.n == ref.n
    assert value.coeffs == ref.coeffs
    assert str(value) == str(ref)


@settings(max_examples=60)
@given(element_pairs())
def test_ring_operations_match_reference(pair):
    # an operand at a proper divisor is refused, and embedded first
    (a, ra), (b, rb) = pair
    if b.n != a.n:
        with pytest.raises(ValueError, match="differ"):
            a + b
    b, rb = b.embed(a.n), rb.embed(a.n)
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    same(b - a, rb - ra)
    same(a * b, ra * rb)
    same(a.conj(), ra.conj())
    same(b.conj(), rb.conj())
    assert (a == b) == (ra == rb)
    assert (a + b == b) == (ra + rb == rb)


# odd moduli with phi(N) > N / 2, the fields of rho and the root tables, and a large one
KERNEL_MODULI = (7, 9, 15, 84, 120, 1008)


@settings(max_examples=60)
@given(st.sampled_from(KERNEL_MODULI).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(elements(n, max_terms=6), elements(n, max_terms=6)), min_size=1, max_size=4),
    st.integers(0, n - 1))))
def test_one_reduction_per_sum_of_products_matches_reference(case):
    pairs, k = case
    n = pairs[0][0][0].n
    total = reduce(operator.add, (ra * rb for (_, ra), (_, rb) in pairs))
    same(dot([(a, b) for (a, _), (b, _) in pairs]), total)
    with pytest.raises(ValueError, match="differ"):
        dot([(a, b) for (a, _), (b, _) in pairs] + [(zeta(2 * n), zeta(2 * n))])
    for (a, ra), (b, rb) in pairs:
        same(a * b, ra * rb)
        same(a.conj(), ra.conj())
        assert a.is_real() == ra.is_real()
        assert (a + a.conj()).is_real()
        if a.is_zero():
            continue
        if ra * ra.conj() == 1:
            check_inverse(a, ra)
        else:
            with pytest.raises(ValueError, match="not a root of unity"):
                a.inv()
    for sign in (1, -1):
        same((sign * zeta(n, k)).inv(), reference_zeta(n, -k) * sign)


@pytest.mark.parametrize("n", (15, 84, 1008))
def test_conjugation_table_is_the_canonical_inverse_powers(n):
    for i, row in enumerate(_conj_table(n)):
        v = [0] * n
        v[-i % n] = 1
        assert row == tuple((j, c) for j, c in enumerate(_canon(n, v)) if c), (n, i)


def general_product(a: Cyc, b: Cyc) -> Cyc:
    """a b by the exponent-vector product and one reduction, the reference
    for ``dot`` on every pair of factors."""
    v = [0] * a.n
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            v[(i + j) % a.n] += x * y
    return Cyc(a.n, _canon(a.n, v))


@settings(max_examples=60)
@given(st.sampled_from(MODULI).flatmap(lambda n: st.tuples(elements(n, max_terms=6), st.integers(-3, 3))))
def test_products_with_a_rational_factor_match_the_general_product(case):
    # 0, +-1, +-2 and the rest: one factor rational, as a Cyc or an int
    (a, ra), q = case
    rational = Cyc.rational(q, a.n)
    for product in (a * rational, rational * a, a * q, q * a):
        assert product == general_product(a, rational) == general_product(rational, a)
        same(product, ra * q)
        assert all(type(c) is int for c in product.coeffs)
    same(a * a, ra * ra)  # and a square, with no rational factor: every product is one dot


def check_inverse(a: Cyc, ra) -> None:
    same(a.inv(), ra.inv())
    assert a * a.inv() == 1
    assert a.inv() == a.conj()


def check_no_inverse(a: Cyc, ra) -> None:
    # the reference inverts every nonzero value of the field; the engine only roots of unity
    assert ra.inv() != ra.conj()
    with pytest.raises(ValueError, match="not a root of unity"):
        a.inv()


@settings(max_examples=30)
@given(st.sampled_from(MODULI).flatmap(lambda n: st.tuples(
    elements(n, max_terms=3, min_terms=1), st.integers(0, n - 1), st.sampled_from((1, -1)))))
def test_inverse_matches_reference(case):
    (a, ra), k, sign = case
    check_inverse(sign * zeta(a.n, k), reference_zeta(a.n, k) * sign)
    if a * a.conj() == 1:
        check_inverse(a, ra)
    else:
        check_no_inverse(a, ra)


@given(st.sampled_from(MODULI).flatmap(lambda n: elements(n, max_terms=1, min_terms=1)))
def test_monomial_inverse_matches_reference(pair):
    # +-zeta^i inverts to +-zeta^(n-i); c zeta^i with |c| > 1 is no root of unity
    a, ra = pair
    c = next(c for c in a.coeffs if c)
    if c in (1, -1):
        check_inverse(a, ra)
        assert all(type(x) is int for x in a.inv().coeffs)
    else:
        check_no_inverse(a, ra)


@given(st.sampled_from(MODULUS_PAIRS).flatmap(
    lambda nd: st.tuples(st.just(nd[0]), elements(nd[1]))))
def test_embedding_matches_reference(case):
    m, (a, ra) = case
    same(a.embed(m), ra.embed(m))
    assert a.embed(m).embed(m) == a.embed(m)
    assert a.embed(m).is_rational() == a.is_rational()
    if a.is_rational():  # the one hash that agrees across moduli
        assert hash(a.embed(m)) == hash(a) == hash(a.coeffs[0])


@given(st.sampled_from(MODULI), st.integers(-300, 300))
def test_zeta_matches_reference(n, k):
    same(zeta(n, k), reference_zeta(n, k))
    # the inverse of a root of unity is its conjugate, with int coefficients
    assert all(type(c) is int for c in zeta(n, k).coeffs + zeta(n, k).inv().coeffs)


# --- the one inverse: x^-1 = conj(x) when x conj(x) = 1 ----------------------------

# the field of rho at each workload triangle: N = lcm(2a, 2b, 2c)
RHO_MODULI = {(2, 3, 7): 84, (3, 4, 5): 120, (2, 3, 5): 60}


@pytest.mark.parametrize("n", sorted(RHO_MODULI.values()))
def test_folded_roots_of_unity_invert_by_conjugation(n):
    folded = 0
    for k in range(_degree(n), n):
        a = zeta(n, k)
        folded += sum(1 for c in a.coeffs if c) > 1
        check_inverse(a, reference_zeta(n, k))
        assert all(type(c) is int for c in a.inv().coeffs)
    assert folded > 0  # some of them are sums, not the monomial case


@pytest.mark.parametrize("abc", sorted(RHO_MODULI))
def test_products_of_rho_roots_invert_by_conjugation(abc):
    n = RHO_MODULI[abc]
    roots = [zeta(n, n // (2 * v)) for v in abc]  # theta, phi, psi
    rng = random.Random(f"{abc}")
    powers = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]  # the determinants of rho's generators
    powers += [tuple(rng.randrange(2 * v) for v in abc) for _ in range(12)]
    for ijk in powers:
        factors = [root for root, p in zip(roots, ijk) for _ in range(p)]
        a = reduce(operator.mul, factors, Cyc.one(n))
        e = sum(p * n // (2 * v) for p, v in zip(ijk, abc))
        assert a == zeta(n, e)
        check_inverse(a, reference_zeta(n, e))


@pytest.mark.parametrize("n", sorted(RHO_MODULI.values()))
def test_non_roots_of_unity_raise_value_error(n):
    # 1 + zeta_n is a unit of Z[zeta_n] but no root of unity
    check_no_inverse(1 + zeta(n), reference_zeta(n) + 1)
    # 2 zeta^k folded into a sum, and the monomial 2: x conj(x) = 4
    k = _degree(n)
    check_no_inverse(2 * zeta(n, k), reference_zeta(n, k) * 2)
    check_no_inverse(Cyc.rational(2, n), reference_cyc(n, Cyc.rational(2, n).coeffs))


def test_three_plus_four_i_raises_value_error():
    # 3 + 4i, i = zeta_n^(n/4): absolute value 5 in every embedding
    for n in sorted(RHO_MODULI.values()):
        i = zeta(n, n // 4)
        assert (3 + 4 * i) * (3 + 4 * i).conj() == 25
        check_no_inverse(3 + 4 * i, reference_zeta(n, n // 4) * 4 + 3)


# --- the fixed-point sign against the mpmath interval sign ------------------------

SIGN_MODULI = (1, 4, 7, 12, 60, 120, 252)


@settings(max_examples=80)
@given(st.sampled_from(SIGN_MODULI).flatmap(elements))
def test_sign_real_matches_reference(pair):
    a, _ = pair
    x = a + a.conj()
    assert sign_real(x) == reference_sign_real(x)
    assert sign_real(-x) == -sign_real(x)


@pytest.mark.parametrize("n", SIGN_MODULI + (1008,))
def test_fixed_point_cosines_are_within_one(n):
    with mpmath.workdps(400):
        for p in (64, 128, 1024):
            for i, c in enumerate(_cos_table(n, p)):
                assert abs(c - mpmath.ldexp(mpmath.cos(2 * mpmath.pi * i / n), p)) <= 1, (n, p, i)


def _convergents(value, count: int):
    """The first ``count`` continued-fraction convergents (k, p, q) of a real number."""
    p0, q0, p1, q1 = 1, 0, int(mpmath.floor(value)), 1
    rest = value - p1
    out = [(0, p1, q1)]
    for k in range(1, count):
        rest = 1 / rest
        a = int(mpmath.floor(rest))
        rest -= a
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((k, p1, q1))
    return out


def test_sign_real_near_zero_doubles_the_precision():
    # q (zeta_7 + zeta_7^-1) - p for convergents p/q of 2 cos(2 pi / 7) with
    # q > 2^40: even convergents lie below the value and odd ones above, and
    # |q 2cos(2pi/7) - p| < 1/q is too small to decide at 64 bits
    with mpmath.workdps(80):
        cases = [(k, p, q) for k, p, q in _convergents(2 * mpmath.cos(2 * mpmath.pi / 7), 40)
                 if 2**40 < q < 2**80]
    assert len(cases) >= 3
    for k, p, q in cases:
        x = q * (zeta(7) + zeta(7, 6)) - p
        _cos_table.cache_clear()
        assert sign_real(x) == (1 if k % 2 == 0 else -1) == reference_sign_real(x)
        assert _cos_table.cache_info().currsize >= 2
        assert sign_real(3 * x) == sign_real(x) == -sign_real(-x)


def test_cli_needs_no_mpmath():
    script = (
        "import sys\n"
        "from toricgroups.cli import main\n"
        "codes = [main(['wp', 'coxeter', '7', '8', '9', 'r1 r2 r3 r1 r2']),\n"
        "         main(['rep', 'eval', '2', '3', '5', 's t u s'])]\n"
        "print(codes, 'mpmath' in sys.modules, 'fractions' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False False"


def test_rendering_deterministic_term_order():
    value = zeta(12) + 2 - 3 * zeta(12, 5)
    assert str(value) == "2 + 4*z12 - 3*z12^3"
    assert str(Cyc.rational(-7, 12)) == "-7"
    assert str(Cyc.zero(12)) == "0"


# --- the representation ----------------------------------------------------------


def test_constraint_vanishes_at_623():
    assert constraint_value(6, 2, 3).is_zero()
    assert set(qr_presets(6, 2, 3)) == {"zero", "unit"}


def test_constraint_violation_rejected_with_both_sides():
    with pytest.raises(ConstraintError) as err:
        build_rho(6, 2, 3, Cyc.one(1), Cyc.one(1))  # embedded into Z[zeta_12]
    assert err.value.got == Cyc.one(12)
    assert err.value.required.is_zero()


@pytest.mark.parametrize("a,b,c", REP_PARAMS)
def test_defining_relations_hold_exactly(a, b, c):
    identity = mat_identity(lcm(2 * a, 2 * b, 2 * c))
    for name, (q, r) in qr_presets(a, b, c).items():
        rep = build_rho(a, b, c, q, r)
        assert mat_pow(rep.mat_s, a) == identity
        assert mat_pow(rep.mat_t, b) == identity
        assert mat_pow(rep.mat_u, c) == identity
        stu = mat_mul(rep.mat_s, mat_mul(rep.mat_t, rep.mat_u))
        tus = mat_mul(rep.mat_t, mat_mul(rep.mat_u, rep.mat_s))
        ust = mat_mul(rep.mat_u, mat_mul(rep.mat_s, rep.mat_t))
        assert stu == tus == ust
        assert stu == mat_scale(rep.scalar, identity)
        assert relation_checks(rep) == dict.fromkeys(("s_power", "t_power", "u_power", "chain", "scalar"), True)


@pytest.mark.parametrize("a,b,c", WORKLOAD_REP_PARAMS)
def test_rho_entries_have_integer_coefficients(a, b, c):
    stu = Alphabet(["s", "t", "u"])
    for name, (q, r) in qr_presets(a, b, c).items():
        rep = build_rho(a, b, c, q, r)
        inverses = rho_eval(rep, stu.word("s^-1 t^-1 u^-1"))
        for mat in (rep.mat_s, rep.mat_t, rep.mat_u, inverses):
            assert all(type(x) is int for row in mat for entry in row for x in entry.coeffs), name


@pytest.mark.parametrize("a,b,c", REP_PARAMS)
def test_determinants(a, b, c):
    rep = build_rho_preset(a, b, c)
    n = label_modulus(a, b, c)
    theta, phi = zeta(n, n // (2 * a)), zeta(n, n // (2 * b))  # e^(i pi/a), e^(i pi/b)
    assert mat_det(rep.mat_s) == theta * theta
    assert mat_det(rep.mat_t) == phi * phi


@pytest.mark.parametrize("a,b,c", WORKLOAD_REP_PARAMS)
def test_rho_builds_its_label_roots_and_constraint_value_once(monkeypatch, a, b, c):
    reps._field.cache_clear()  # the field of each label triple is built once per process
    calls = dict.fromkeys(("label_modulus", "zeta"), 0)

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(reps, name, counted(name, getattr(reps, name)))
    rep = build_rho_preset(a, b, c)
    assert calls == {"label_modulus": 1, "zeta": 3}
    # the same representation as the public parts build, constraint checked
    monkeypatch.undo()
    q, r = next(iter(qr_presets(a, b, c).values()))
    assert rep == build_rho(a, b, c, q, r)


def test_rho_eval_identity_and_powers():
    rep = build_rho_preset(3, 2, 3)
    stu = Alphabet(["s", "t", "u"])
    identity = mat_identity(12)
    assert rho_eval(rep, stu.word("1")) == identity
    assert rho_eval(rep, stu.word("s^3")) == identity
    assert rho_eval(rep, stu.word("s s^-1")) == identity


def test_rho_eval_on_toric_generators():
    rep = build_rho_preset(6, 2, 3, "zero")
    xs = Alphabet(["x1", "x2"])
    identity = mat_identity(12)
    assert rho_eval(rep, xs.word("x1^6")) == identity
    assert rho_eval(rep, xs.word("x2^6")) == identity
    cube = xs.word("x1 x2") ** 3
    assert rho_eval(rep, cube) == identity


def test_rho_eval_builds_only_the_meridians_a_word_holds(monkeypatch):
    # x1 = s and x2 = t s t^-1 of the nine meridians at (2,9,7): four products
    # build them and two read the word, where all nine took 81 + 2
    rep = build_rho_preset(2, 9, 7)
    s, t = rep.mat_s, rep.mat_t
    expected = mat_mul(s, mat_mul(t, mat_mul(mat_inv(s), mat_inv(t))))
    calls = []

    def counted(a, b):
        calls.append(None)
        return mat_mul(a, b)

    monkeypatch.setattr(reps, "mat_mul", counted)
    assert rho_eval(rep, Alphabet([f"x{i}" for i in range(1, 10)]).word("x1 x2^-1")) == expected
    assert len(calls) <= 6


@pytest.mark.parametrize("names", [["x2", "x1"], ["xa", "xb"], ["x1", "x3"], ["t", "s"], ["s"]])
def test_rho_eval_refuses_an_alphabet_other_than_the_meridians(names):
    # the meridian branch reads x1 ... xn in order and nothing else, and the
    # other branch STU, s t u in that order
    rep = build_rho_preset(6, 2, 3, "zero")
    with pytest.raises(ValueError, match="cannot resolve alphabet"):
        rho_eval(rep, Alphabet(names).word(names[0]))


@settings(max_examples=30)
@given(st.sampled_from(REP_PARAMS), st.data())
def test_rho_eval_on_meridians_is_rho_eval_of_the_embedding(abc, data):
    a, b, c = abc
    rep = build_rho_preset(a, b, c)
    embedding = meridian_embedding(meridians(b))
    word = Word(embedding.source, tuple(data.draw(st.lists(st.sampled_from([*range(-b, 0), *range(1, b + 1)]),
                                                          max_size=12))))
    assert rho_eval(rep, word) == rho_eval(rep, apply_map(embedding, word))


def test_matrix_inverse():
    rep = build_rho_preset(2, 3, 5)
    assert mat_mul(rep.mat_u, mat_inv(rep.mat_u)) == mat_identity(60)
    assert mat_pow(rep.mat_u, -1) == mat_inv(rep.mat_u)


def test_witness_reproduces_the_counterexample():
    w, status, evidence = witness_record(MAX_COSETS)
    assert (status, evidence) == ("ok", [])
    assert w["cube_dies_per_preset"] == {"zero": True, "unit": True}
    assert w["order_of_x1x2_in_k3_quotient"] == 6
    assert w["rho_stu_order"] == 2
    assert w["rho_stu_is_minus_identity"]
    assert w["zero_preset_commutes"]
    assert not w["unit_preset_commutes"]
    assert w["unfaithful"]


def test_witness_asserts_on_a_tampered_identity(monkeypatch):
    # rho(s t u) is -I, so none of its powers is the tampered identity zeta_12 I
    monkeypatch.setattr(reps, "mat_identity", lambda n: ((zeta(n), Cyc.zero(n)), (Cyc.zero(n), zeta(n))))
    with pytest.raises(AssertionError, match="stu image has large order"):
        witness_record(MAX_COSETS)
