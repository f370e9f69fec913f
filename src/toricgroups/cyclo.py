"""Exact arithmetic in Z[zeta_N], one modulus per computation.

A value is an integer combination of powers of a primitive N-th root of
unity zeta_N, reduced modulo the N-th cyclotomic polynomial, so it has
exactly one coefficient vector of length phi(N) in the power basis (Bosma,
"Canonical bases for cyclotomic fields", 1990).  A root table or a
representation lives in Z[zeta_N] for N = lcm(2a, 2b, 2c) of its labels
(``label_modulus``).  Coefficients are ints only.  The operands of ``+``,
``-``, ``*`` and ``==`` share their modulus: an int is read in the other
operand's field, another modulus raises ValueError, and ``embed`` is the
one explicit change of field.  Only roots of unity are inverted, by
conjugation.  A sum of products (``dot``; a product is a sum of one)
accumulates its raw products, of degree below 2 phi(N) - 1, in one vector
and canonicalizes it by one sparse reduction that folds each coefficient
from phi(N) up through the few nonzero lower terms of Phi_N.  Conjugation
reads the canonical zeta^-i, i < phi(N), from a table built once per
modulus (``_conj_table``), and folds nothing.

Real elements (fixed by conjugation) additionally have a certified sign,
in integers only.  Zero and rationals are decided exactly in the canonical
basis.  A nonzero real value sum_i c_i cos(2 pi i / N) is compared with
fixed-point cosines: integers C_i within 1 of 2^p cos(2 pi i / N), from
Machin's pi and a Taylor series, so that S = sum_i c_i C_i is within
sum_i |c_i| of 2^p times the value.  Its sign is certified once |S| exceeds
that bound; otherwise p doubles.  No floating point is trusted anywhere in
a correctness path.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import combinations
from math import lcm, prod

from .words import Value, _set


@cache
def _primes(n: int) -> tuple[int, ...]:
    """The distinct primes of n, ascending, by trial division."""
    primes = []
    rest, q = n, 2
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        primes.append(rest)
    return tuple(primes)


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    Phi_n is the Moebius product of (x^d - 1)^mu(n/d) over the divisors d
    of n.  mu(n/d) is nonzero only when n/d is a product of distinct primes
    of n, so the d run over n / prod(S) for the subsets S of those primes,
    with mu = (-1)^|S|.  The factors with mu = 1 are multiplied first; each
    factor with mu = -1 then divides the product exactly, by the recurrence
    q[i] = q[i - d] - p[i] of p = q (x^d - 1).
    """
    primes = _primes(n)
    subsets = [s for size in range(len(primes) + 1) for s in combinations(primes, size)]
    poly = [1]
    for s in subsets:
        if len(s) % 2 == 0:
            d = n // prod(s)
            shifted = [0] * d + poly
            for i, c in enumerate(poly):
                shifted[i] -= c
            poly = shifted
    for s in subsets:
        if len(s) % 2:
            d = n // prod(s)
            quotient = [0] * (len(poly) - d)
            for i in range(len(quotient)):
                quotient[i] = (quotient[i - d] if i >= d else 0) - poly[i]
            poly = quotient
    return tuple(poly)


@cache
def _degree(n: int) -> int:
    """phi(n), the degree of Phi_n: n times (1 - 1/p) over the primes p of n."""
    primes = _primes(n)
    return n // prod(primes) * prod(p - 1 for p in primes)


@cache
def _phi_tail(n: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (j, c_j) below the leading term of the monic Phi_n."""
    return tuple((j, c) for j, c in enumerate(cyclotomic_polynomial(n)[:-1]) if c)


def _canon(n: int, v: list) -> tuple:
    """Canonical coefficients of sum_i v[i] zeta_n^i, for len(v) >= phi(n).

    Folds x^i = -x^(i-d) (sum_j c_j x^j) from the top down to degree d =
    phi(n), overwriting ``v``.  Phi_n divides every relation among the
    powers of zeta_n, so the fold is exact at every length.
    """
    d = _degree(n)
    tail = _phi_tail(n)
    for i in range(len(v) - 1, d - 1, -1):
        top = v[i]
        if top:
            for j, c in tail:
                v[i - d + j] -= top * c
    return tuple(v[:d])


@cache
def _conj_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (j, c_j) of the canonical zeta_n^-i, for each i < phi(n).

    Row i is row i - 1 times zeta_n^-1: its coefficients shift down one
    place, and the constant term comes back as that multiple of row 1, the
    one row canonicalized.  So the table costs O(phi(n)^2) once per modulus.
    """
    d = _degree(n)
    last = [0] * n
    last[-1] = 1
    inverse = _canon(n, last)  # zeta^-1 = zeta^(n-1)
    rows = [(1,) + (0,) * (d - 1)]
    for _ in range(1, d):
        prev = rows[-1]
        rows.append(tuple(map(operator.add, prev[1:] + (0,), (prev[0] * c for c in inverse))))
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in rows)


class Cyc(Value):
    """An element of Z[zeta_n] in canonical form: ``phi(n)`` int coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[int, ...]):
        _set(self, "n", n)
        _set(self, "coeffs", coeffs)

    @staticmethod
    def rational(q: int, n: int) -> "Cyc":
        """The integer q in the n-th cyclotomic field."""
        return Cyc(n, (q,) + (0,) * (_degree(n) - 1))

    @staticmethod
    def zero(n: int) -> "Cyc":
        return Cyc.rational(0, n)

    @staticmethod
    def one(n: int) -> "Cyc":
        return Cyc.rational(1, n)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def embed(self, m: int) -> "Cyc":
        """Rewrite in the m-th cyclotomic field (n must divide m)."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot embed modulus {self.n} into {m}")
        step = m // self.n
        v = [0] * m
        for i, c in enumerate(self.coeffs):
            v[i * step] = c
        return Cyc(m, _canon(m, v))

    def _operand(self, other: "Cyc | int") -> tuple[int, ...]:
        """The coefficients of ``other`` in this field: an int is read here,
        and a Cyc must share the modulus."""
        if isinstance(other, int):
            return (other,) + (0,) * (len(self.coeffs) - 1)
        if other.n != self.n:
            raise ValueError(f"cyclotomic moduli {self.n} and {other.n} differ; embed one first")
        return other.coeffs

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "Cyc | int") -> "Cyc":
        return Cyc(self.n, tuple(map(operator.add, self.coeffs, self._operand(other))))

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, other: "Cyc | int") -> "Cyc":
        return self + -other

    def __mul__(self, other: "Cyc | int") -> "Cyc":
        return dot(((self, other),))

    __rmul__ = __mul__

    def inv(self) -> "Cyc":
        """The inverse of a root of unity, its conjugate, after checking
        x conj(x) = 1, which in Z[zeta_n] holds for the roots of unity alone
        (Kronecker); any other nonzero value raises ValueError."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        bar = self.conj()
        if self * bar != 1:
            raise ValueError(f"{self} is not a root of unity")
        return bar

    def conj(self) -> "Cyc":
        """Complex conjugation: zeta -> zeta^-1, read from ``_conj_table``."""
        v = [0] * len(self.coeffs)
        for row, x in zip(_conj_table(self.n), self.coeffs):
            if x:
                for j, c in row:
                    v[j] += x * c
        return Cyc(self.n, tuple(v))

    def is_real(self) -> bool:
        return self == self.conj()

    # -- comparisons and rendering ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Cyc, int)):
            return NotImplemented
        return self.coeffs == self._operand(other)

    def __hash__(self) -> int:
        # a rational value hashes as the int it equals
        return hash(self.coeffs) if any(self.coeffs[1:]) else hash(self.coeffs[0])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        sym = f"z{self.n}"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = sym if i == 1 else f"{sym}^{i}"
                sign = "-" if c < 0 else "+"
                parts.append(f"{sign} {mag}{term}" if parts else (f"-{mag}{term}" if c < 0 else f"{mag}{term}"))
        return " ".join(parts)

    __repr__ = __str__


def dot(pairs) -> Cyc:
    """The sum of a b over the (a, b) in ``pairs``, a nonempty sequence whose
    first a is a Cyc; ``*`` is the sum of one.  The raw products, of degree
    below 2 phi(N) - 1, accumulate in one vector, which is reduced once.  An
    int is read in the first a's field, and another modulus raises
    ValueError."""
    first = pairs[0][0]
    n = first.n
    v = [0] * (2 * _degree(n) - 1)
    for a, b in pairs:
        a, b = first._operand(a), first._operand(b)
        if not (any(a) and any(b)):
            continue
        terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    v[i + j] += x * y
    return Cyc(n, _canon(n, v))


def zeta(n: int, k: int = 1) -> Cyc:
    """The primitive root of unity zeta_n raised to the k-th power."""
    if n < 1:
        raise ValueError("modulus must be positive")
    v = [0] * n
    v[k % n] = 1
    return Cyc(n, _canon(n, v))


# the largest field degree phi(N) a root table or representation may need
MAX_DEGREE = 720


def label_modulus(*labels: int) -> int:
    """N = lcm(2 l) over the labels, after checking phi(N) <= MAX_DEGREE.

    Every cos(pi / l) and every e^(i pi / l) of the labels lives in
    Q(zeta_N), of degree phi(N); past the cap an input is refused with a
    ValueError before any field element is allocated.  Since
    phi(N) >= sqrt(N / 2) for every N, a modulus above 2 MAX_DEGREE^2 is
    refused without factoring it, and the rest factor by trial division.
    """
    n = lcm(*(2 * v for v in labels))
    if n > 2 * MAX_DEGREE**2 or _degree(n) > MAX_DEGREE:
        raise ValueError(f"labels {', '.join(map(str, labels))} need cyclotomic modulus N = {n}, "
                         f"and phi(N) exceeds the supported degree {MAX_DEGREE}")
    return n


def two_cos_pi_over(label: int, n: int) -> Cyc:
    """2 cos(pi / label) = zeta_n^k + zeta_n^-k with k = n / (2 label), in the
    n-th cyclotomic field; 2 label must divide n."""
    k, rest = divmod(n, 2 * label)
    if rest:
        raise ValueError(f"modulus {n} is not a multiple of 2 * {label}")
    return zeta(n, k) + zeta(n, -k)


def _atan_inv_fixed(x: int, q: int) -> int:
    """2^q atan(1/x) for an integer x > 1, to within q / log2(x) + 2."""
    total, k = 0, 0
    power = (1 << q) // x  # floor(2^q / x^(2k+1)), exactly
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x * x
        k += 1
    return total


@cache
def _pi_fixed(q: int) -> int:
    """2^q pi to within 7.4 q + 40, by Machin's formula."""
    return 16 * _atan_inv_fixed(5, q) - 4 * _atan_inv_fixed(239, q)


def _cos_fixed(theta: int, q: int) -> int:
    """2^q cos(theta / 2^q) for 0 <= theta / 2^q < 3.2, to within q + 4."""
    total = term = 1 << q
    square = theta * theta
    k = 0
    while term:
        k += 1
        term = (term * square >> 2 * q) // ((2 * k - 1) * (2 * k))
        total += -term if k & 1 else term
    return total


@cache
def _cos_table(n: int, p: int) -> tuple[int, ...]:
    """Integers C_i with |C_i - 2^p cos(2 pi i / n)| <= 1, for i < phi(n) and p >= 64.

    The work runs at q = p + g bits, g = bitlen(p) + 6 guard bits, and the
    result is rounded to p bits.  Every truncation is a floor, so each costs
    less than one unit of 2^-q:

    - arctan(1/x): each term floor(floor(2^q / x^(2k+1)) / (2k+1)) is off by
      less than 2, and the series stops at the first zero power, where the
      alternating tail is below 1; at most (q / log2(x) + 1) / 2 terms.  So
      Machin's 16 atan(1/5) - 4 atan(1/239) is within 7.4 q + 40 of 2^q pi.
    - theta = floor(2 j pi / n), with j = min(i, n - i) <= n / 2 because
      cos(2 pi i / n) = cos(2 pi (n - i) / n): within 7.4 q + 41 of
      2^q 2 pi j / n, in [0, pi].  cos is 1-Lipschitz, so the cosine of the
      rounded angle is that close too.
    - Taylor terms t_k = floor(t_(k-1) theta^2 / ((2k-1) 2k)) lie in
      (T_k - 2, T_k] for the exact terms T_k, because the ratio
      theta^2 / ((2k-1) 2k) is below 0.86 from k = 2 on; nonzero terms need
      T_k >= 1, so k < q / 2; and the alternating tail after the first zero
      term is below 2.  The series is within q + 4.

    That is at most 8.4 q + 45 <= 9 q <= 2^(g-1) before rounding, and
    rounding adds 1/2: the error is at most 1 at scale 2^p.
    """
    g = p.bit_length() + 6
    q = p + g
    pi = _pi_fixed(q)
    half = 1 << (g - 1)
    return tuple((_cos_fixed(2 * min(i, n - i) * pi // n, q) + half) >> g for i in range(_degree(n)))


def sign_real(x: Cyc) -> int:
    """Certified sign of a real cyclotomic number: -1, 0, or +1.

    Zero and rational values are decided exactly in the canonical basis.
    Otherwise the value V = sum_i c_i cos(2 pi i / n) gives
    S = sum_i c_i C_i from the fixed-point cosines of ``_cos_table``, each
    within 1 of 2^p cos(2 pi i / n).  So S is within sum_i |c_i| of 2^p V,
    and once |S| exceeds that bound S has the sign of V.  Otherwise p
    doubles, starting at 64.  The loop ends: a nonzero canonical form is a
    nonzero real number V, and 2^p |V| outgrows twice the bound.
    """
    if not x.is_real():
        raise ValueError(f"{x} is not real")
    if x.is_zero():
        return 0
    if x.is_rational():
        return 1 if x.coeffs[0] > 0 else -1
    terms = [(i, c) for i, c in enumerate(x.coeffs) if c]
    bound = sum(abs(c) for _, c in terms)
    p = 64
    while True:
        table = _cos_table(x.n, p)
        total = sum(c * table[i] for i, c in terms)
        if abs(total) > bound:
            return 1 if total > 0 else -1
        p *= 2
