"""Exact arithmetic in cyclotomic fields.

A value is a rational linear combination of powers of a primitive N-th
root of unity zeta_N, reduced modulo the N-th cyclotomic polynomial, so
each element of Q(zeta_N) has exactly one coefficient vector of length
phi(N) in the power basis (Bosma, "Canonical bases for cyclotomic fields",
1990).  Values with different moduli embed into the lcm modulus before
arithmetic.

Coefficients are plain ints for elements of Z[zeta_N], which covers every
root coordinate and representation matrix in this package; a ``Fraction``
appears only after a true division.  Every operation writes its result as
an exponent vector of length N (exponents mod N, since Phi_N divides
x^N - 1) and canonicalizes it with one sparse reduction, which folds each
coefficient above phi(N) through the few nonzero lower terms of Phi_N.

Real elements (fixed by conjugation) additionally support certified sign
determination: an exact zero test in the canonical basis, and for nonzero
values interval evaluation at escalating precision until zero is excluded.
No floating point is trusted anywhere in a correctness path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials (denominator monic or divides)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        q, r = divmod(num[i + len(den) - 1], lead)
        out[i] = q
        if q:
            for j, d in enumerate(den):
                num[i + j] -= q * d
    return out, _poly_trim(num)


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            if r:
                raise AssertionError("cyclotomic division must be exact")
            poly = q
    return tuple(poly)


@cache
def _degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@cache
def _phi_tail(n: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (j, c_j) below the leading term of the monic Phi_n."""
    return tuple((j, c) for j, c in enumerate(cyclotomic_polynomial(n)[:-1]) if c)


def _canon(n: int, v: list) -> tuple:
    """Canonical coefficients of sum_i v[i] zeta_n^i, for len(v) == n.

    Folds x^i = -x^(i-d) (sum_j c_j x^j) from the top down to degree d =
    phi(n), overwriting ``v``.
    """
    d = _degree(n)
    tail = _phi_tail(n)
    for i in range(n - 1, d - 1, -1):
        top = v[i]
        if top:
            for j, c in tail:
                v[i - d + j] -= top * c
    return tuple(v[:d])


@dataclass(frozen=True)
class Cyc:
    """An element of the N-th cyclotomic field in canonical form."""

    n: int
    coeffs: tuple[int | Fraction, ...]

    @staticmethod
    def rational(q) -> "Cyc":
        return Cyc(1, (q if isinstance(q, int) else Fraction(q),))

    @staticmethod
    def zero() -> "Cyc":
        return Cyc.rational(0)

    @staticmethod
    def one() -> "Cyc":
        return Cyc.rational(1)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    # -- modulus management ---------------------------------------------------

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

    def _common(self, other: "Cyc") -> tuple["Cyc", "Cyc"]:
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        return self.embed(m), other.embed(m)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "Cyc":
        other = _coerce(other)
        a, b = self._common(other)
        return Cyc(a.n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Cyc":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Cyc":
        return _coerce(other) - self

    def __mul__(self, other) -> "Cyc":
        other = _coerce(other)
        a, b = self._common(other)
        n = a.n
        v = [0] * n
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        v[(i + j) % n] += x * y
        return Cyc(n, _canon(n, v))

    __rmul__ = __mul__

    def inv(self) -> "Cyc":
        """Field inverse via the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        a = list(self.coeffs)
        _poly_trim(a)
        # extended gcd of a and phi over Q[x]
        r0, r1 = a, phi
        s0, s1 = [Fraction(1)], [Fraction(0)]
        while r1:
            q, r = _poly_divmod_q(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if len(r0) != 1:
            raise AssertionError("gcd with the cyclotomic polynomial must be constant")
        c = r0[0]
        v = [x / c for x in s0] + [0] * (self.n - len(s0))
        return Cyc(self.n, tuple(int(x) if x.denominator == 1 else x for x in _canon(self.n, v)))

    def __truediv__(self, other) -> "Cyc":
        return self * _coerce(other).inv()

    def __rtruediv__(self, other) -> "Cyc":
        return _coerce(other) / self

    def __pow__(self, k: int) -> "Cyc":
        if k < 0:
            return self.inv() ** (-k)
        result = Cyc.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "Cyc":
        """Complex conjugation: zeta -> zeta^-1."""
        v = [0] * self.n
        for i, c in enumerate(self.coeffs):
            v[-i % self.n] = c
        return Cyc(self.n, _canon(self.n, v))

    def is_real(self) -> bool:
        return self == self.conj()

    # -- comparisons and rendering ----------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        # the normalized trace, the same in every field that holds the value:
        # zeta_n^i is a primitive q-th root, q = n / gcd(i, n), and the
        # primitive q-th roots sum to -Phi_q[-2]
        qs = ((c, self.n // gcd(i, self.n)) for i, c in enumerate(self.coeffs) if c)
        return hash(sum(Fraction(-c * cyclotomic_polynomial(q)[-2], _degree(q)) for c, q in qs))

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

    def approx(self) -> complex:
        """Floating approximation, for diagnostics only."""
        import cmath

        z = cmath.exp(2j * cmath.pi / self.n)
        return sum(complex(c) * z**i for i, c in enumerate(self.coeffs))


def _coerce(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc.rational(x)
    raise TypeError(f"cannot interpret {x!r} as a cyclotomic number")


def _poly_divmod_q(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    if not den:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return q, _poly_trim(num)


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


def zeta(n: int, k: int = 1) -> Cyc:
    """The primitive root of unity zeta_n raised to the k-th power."""
    if n < 1:
        raise ValueError("modulus must be positive")
    v = [0] * n
    v[k % n] = 1
    return Cyc(n, _canon(n, v))


def two_cos_pi_over(label: int) -> Cyc:
    """2 cos(pi / label) as an exact cyclotomic number."""
    return zeta(2 * label) + zeta(2 * label, 2 * label - 1)


_MAX_DPS = 2000  # precision at which sign_real gives up


def sign_real(x: Cyc) -> int:
    """Certified sign of a real cyclotomic number: -1, 0, or +1.

    Zero is decided exactly in the canonical basis.  Otherwise the value
    sum_i c_i cos(2 pi i / n) is evaluated with interval arithmetic at
    escalating precision until the interval excludes zero.
    """
    if not x.is_real():
        raise ValueError(f"{x} is not real")
    if x.is_zero():
        return 0
    if x.is_rational():
        return 1 if x.coeffs[0] > 0 else -1
    from mpmath import iv

    dps = 30
    while dps <= _MAX_DPS:
        old = iv.dps
        try:
            iv.dps = dps
            total = iv.mpf(0)
            for i, c in enumerate(x.coeffs):
                if c:
                    coeff = iv.mpf(c.numerator) / iv.mpf(c.denominator)
                    total += coeff * iv.cos(2 * iv.pi * i / x.n)
            if total > 0:
                return 1
            if total < 0:
                return -1
        finally:
            iv.dps = old
        dps *= 2
    raise ArithmeticError(f"could not separate {x} from zero at {_MAX_DPS} digits")
