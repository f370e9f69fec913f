"""Expected answers that share no code with the toricgroups engines.

Every check the benchmark makes rests on one of these: hand-written tables
from the paper's classification, closed forms in ``Fraction``, a floating
point reflection representation of the triangle groups, a ShortLex Cayley
table of the finite ones built by breadth-first search over that
representation, a complex evaluation of the rank-two representation, and a
Smith normal form of relation matrices.  Nothing here imports toricgroups.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from functools import cache

# (k, n, m) with n < m -> (Shephard-Todd name, order, centre order, W/Z name)
FINITE_TORIC = {
    (2, 3, 4): ("G12", 48, 2, "S4"),
    (2, 3, 5): ("G22", 240, 4, "A5"),
    (3, 2, 3): ("G4", 24, 2, "A4"),
    (4, 2, 3): ("G8", 96, 4, "S4"),
    (5, 2, 3): ("G16", 600, 10, "A5"),
    (3, 2, 5): ("G20", 360, 6, "A5"),
}


def finite_toric(k: int, n: int, m: int) -> tuple[str, int, int, str] | None:
    """The finite-table entry of W(k,n,m), or None when the group is infinite."""
    n, m = min(n, m), max(n, m)
    if (k, n, m) in FINITE_TORIC:
        return FINITE_TORIC[(k, n, m)]
    if k == 2 and n == 2 and m % 2 == 1:
        return (f"G({m},{m},2)=I2({m})", 2 * m, 1, f"I2({m})")
    return None


def curvature(k: int, n: int, m: int) -> Fraction:
    return Fraction(1, k) + Fraction(1, n) + Fraction(1, m)


def triangle_type(k: int, n: int, m: int) -> str:
    s = curvature(k, n, m)
    return "spherical" if s > 1 else "affine" if s == 1 else "hyperbolic"


def triangle_order(k: int, n: int, m: int) -> int:
    """Order of a spherical triangle group: 4 / (1/k + 1/n + 1/m - 1)."""
    return int(Fraction(4) / (curvature(k, n, m) - 1))


# --- floating point reflection representation -------------------------------

Mat = tuple[float, ...]  # 3x3, row major
IDENTITY: Mat = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _mul(a: Mat, b: Mat) -> Mat:
    return tuple(
        a[3 * i] * b[j] + a[3 * i + 1] * b[3 + j] + a[3 * i + 2] * b[6 + j]
        for i in range(3)
        for j in range(3)
    )


def _scaled(a: Mat) -> Mat:
    top = max(abs(x) for x in a)
    return tuple(x / top for x in a)


@cache
def reflections(k: int, n: int, m: int) -> tuple[Mat, Mat, Mat]:
    """Tits representation: B(a_i, a_j) = -cos(pi / m_ij), s_i(v) = v - 2 B(a_i, v) a_i.

    Labels follow the triangle convention m(r1,r2) = k, m(r2,r3) = n,
    m(r3,r1) = m.
    """
    label = {(0, 1): k, (1, 2): n, (0, 2): m}
    form = [[1.0] * 3 for _ in range(3)]
    for (i, j), v in label.items():
        form[i][j] = form[j][i] = -math.cos(math.pi / v)
    mats = []
    for s in range(3):
        rows = [[float(i == j) for j in range(3)] for i in range(3)]
        rows[s] = [float(s == t) - 2 * form[s][t] for t in range(3)]
        mats.append(tuple(x for row in rows for x in row))
    return tuple(mats)


def product(mats, letters) -> Mat:
    """Direction of the product of ``mats[x]`` over ``letters``.

    The running product is rescaled to unit max-entry after every factor,
    so hyperbolic words of any length stay in range; two words name the
    same element exactly when their directions agree (no element other than
    the identity acts as a positive scalar).
    """
    out = IDENTITY
    for x in letters:
        out = _scaled(_mul(out, mats[x]))
    return out


def same_direction(a: Mat, b: Mat) -> bool:
    a, b = _scaled(a), _scaled(b)
    return max(abs(x - y) for x, y in zip(a, b)) <= 1e-7


def coxeter_element(tri: tuple[int, int, int], letters) -> Mat:
    """Letters are 1..3 for r1..r3 (signs ignored: reflections are involutions)."""
    mats = reflections(*tri)
    return product(mats, [abs(x) - 1 for x in letters])


@cache
def shortlex_table(tri: tuple[int, int, int]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """ShortLex-least word of every element of a finite triangle group.

    Breadth-first search over the reflection representation, expanding
    elements in ShortLex order and generators r1 < r2 < r3; the first word
    that reaches an element is its ShortLex-least word.
    """
    mats = reflections(*tri)
    order = triangle_order(*tri)
    words: dict[tuple[int, ...], tuple[int, ...]] = {_key(IDENTITY): ()}
    frontier = [(IDENTITY, ())]
    while frontier:
        nxt = []
        for mat, word in frontier:
            for s in range(3):
                img = _mul(mat, mats[s])
                key = _key(img)
                if key not in words:
                    words[key] = word + (s + 1,)
                    nxt.append((img, word + (s + 1,)))
        frontier = nxt
    if len(words) != order:
        raise AssertionError(f"ShortLex table of {tri} has {len(words)} elements, expected {order}")
    return words


def _key(a: Mat) -> tuple[int, ...]:
    return tuple(round(x * 1e5) for x in a)


def shortlex_nf(tri: tuple[int, int, int], letters) -> tuple[int, ...]:
    table = shortlex_table(tri)
    mats = reflections(*tri)
    elem = IDENTITY
    for x in letters:
        elem = _mul(elem, mats[abs(x) - 1])
    return table[_key(elem)]


def phi_element(k: int, n: int, m: int, letters) -> Mat:
    """Image of a toric word under phi: x_i -> b^(1-i) a b^(i-1), a = r1 r2, b = r3 r2."""
    s1, s2, s3 = reflections(k, n, m)
    a, a_inv = _mul(s1, s2), _mul(s2, s1)
    b, b_inv = _mul(s3, s2), _mul(s2, s3)
    images = {}
    left, right = IDENTITY, IDENTITY  # b^(1-i) and b^(i-1)
    for i in range(1, n + 1):
        images[i] = _mul(_mul(left, a), right)
        images[-i] = _mul(_mul(left, a_inv), right)
        left, right = _mul(left, b_inv), _mul(right, b)
    return product(images, letters)


def parse_syllables(text: str, names: dict[str, int]) -> list[int]:
    """Signed letters of a word printed as ``g`` / ``g^K`` tokens (``1`` is empty)."""
    out: list[int] = []
    for token in text.split():
        if token == "1":
            continue
        name, _, exp = token.partition("^")
        k = int(exp) if exp else 1
        out.extend([names[name] if k > 0 else -names[name]] * abs(k))
    return out


# --- Garside normal forms ---------------------------------------------------


def parse_garside(text: str) -> tuple[int, list[tuple[str, int]]]:
    """(delta power, factors) from ``D^p · x^a | y^b | ...``."""
    power = 0
    body = text
    head, sep, rest = text.partition(" · ")
    if head.startswith("D"):
        power = 1 if head == "D" else int(head[2:])
        body = rest if sep else ""
    factors = []
    for part in filter(None, (p.strip() for p in body.split("|"))):
        sym, _, exp = part.partition("^")
        factors.append((sym, int(exp) if exp else 1))
    return power, factors


# --- the rank-two representation in complex floating point -----------------


def _root(order: int, power: int = 1) -> complex:
    return cmath.exp(2j * math.pi * power / order)


def rho_matrices(a: int, b: int, c: int) -> dict[str, tuple[complex, ...]]:
    """s, t, u of the pseudo-reflection representation with the first (q, r) preset."""
    theta, phi, psi = _root(2 * a), _root(2 * b), _root(2 * c)
    value = theta * phi * (psi + 1 / psi) - theta**2 - phi**2
    q, r = (0, 0) if abs(value) < 1e-12 else (value, 1)
    s = (theta**2, q, 0, 1)
    t = (1, 0, r, phi**2)
    u = _cmul(_cinv(t), _cinv(s))
    u = tuple(theta * phi * psi * x for x in u)
    return {"s": s, "t": t, "u": u}


def _cmul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _cinv(x):
    det = x[0] * x[3] - x[1] * x[2]
    return (x[3] / det, -x[1] / det, -x[2] / det, x[0] / det)


def rho_word(abc: tuple[int, int, int], letters: list[tuple[str, int]]) -> tuple[complex, ...]:
    mats = rho_matrices(*abc)
    out = (1, 0, 0, 1)
    for name, sign in letters:
        out = _cmul(out, mats[name] if sign > 0 else _cinv(mats[name]))
    return out


_TERM = re.compile(r"([+-]?)\s*(?:(\d+(?:/\d+)?)\*?)?(z(\d+)(?:\^(\d+))?)?")


def cyclotomic_value(text: str) -> complex:
    """Evaluate a printed cyclotomic number such as ``1/2 - 3*z12^5 + z12``."""
    text = text.strip()
    if text == "0":
        return 0j
    total = 0j
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse cyclotomic number {text!r}")
        sign, coeff, zpart, order, power = match.groups()
        value = complex(Fraction(coeff)) if coeff else 1
        if zpart:
            value *= _root(int(order), int(power or 1))
        total += -value if sign == "-" else value
        pos = match.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return total


def parse_matrix(text: str) -> tuple[complex, ...]:
    rows = text.strip()[2:-2].split("], [")
    return tuple(cyclotomic_value(entry) for row in rows for entry in row.split(", "))


def close_complex(a, b) -> bool:
    scale = max(1.0, max(abs(x) for x in a))
    return max(abs(x - y) for x, y in zip(a, b)) <= 1e-6 * scale


# --- abelian invariants -----------------------------------------------------


def abelian_invariants(ngens: int, relators: list[list[int]]) -> list[int]:
    """Invariants of the abelianisation: torsion orders > 1, then a 0 per free factor.

    Sparse elimination first removes every generator that some relation
    holds with coefficient +-1; a dense Smith normal form finishes the rest.
    """
    rows: list[dict[int, int]] = []
    for rel in relators:
        row: dict[int, int] = {}
        for x in rel:
            g = abs(x) - 1
            row[g] = row.get(g, 0) + (1 if x > 0 else -1)
        row = {g: v for g, v in row.items() if v}
        if row:
            rows.append(row)
    live = set(range(ngens))
    while True:
        pivot = next(((i, g) for i, row in enumerate(rows) for g, v in row.items() if abs(v) == 1), None)
        if pivot is None:
            break
        i, g = pivot
        prow = rows.pop(i)
        live.discard(g)
        factor_sign = prow[g]
        for row in rows:
            coeff = row.get(g)
            if coeff:
                f = coeff * factor_sign  # row -= f * prow, which clears column g
                for h, v in prow.items():
                    new = row.get(h, 0) - f * v
                    if new:
                        row[h] = new
                    else:
                        row.pop(h, None)
        rows = [row for row in rows if row]
    cols = sorted(live)
    dense = [[row.get(g, 0) for g in cols] for row in rows]
    diag = _smith_diagonal(dense, len(cols))
    torsion = sorted(d for d in diag if d > 1)
    return torsion + [0] * (len(cols) - sum(1 for d in diag if d))


def _smith_diagonal(mat: list[list[int]], ncols: int) -> list[int]:
    """Nonzero diagonal of the Smith normal form (entries may be 1)."""
    mat = [row[:] for row in mat if any(row)]
    out = []
    while mat and ncols:
        # move the entry of least absolute value to the top-left corner
        entries = [(abs(v), i, j) for i, row in enumerate(mat) for j, v in enumerate(row) if v]
        if not entries:
            break
        _, i, j = min(entries)
        mat[0], mat[i] = mat[i], mat[0]
        for row in mat:
            row[0], row[j] = row[j], row[0]
        p = mat[0][0]
        done = True
        for row in mat[1:]:
            q = row[0] // p
            if q:
                for c in range(ncols):
                    row[c] -= q * mat[0][c]
            if row[0]:
                done = False
        for c in range(1, ncols):
            q = mat[0][c] // p
            if q:
                for row in mat:
                    row[c] -= q * row[0]
            if mat[0][c]:
                done = False
        if not done:
            continue
        if any(v % p for row in mat[1:] for v in row[1:]):
            # keep divisibility: fold an offending row into the first
            bad = next(row for row in mat[1:] if any(v % p for v in row[1:]))
            for c in range(ncols):
                mat[0][c] += bad[c]
            continue
        out.append(abs(p))
        mat = [row[1:] for row in mat[1:]]
        mat = [row for row in mat if any(row)]
        ncols -= 1
    return out
