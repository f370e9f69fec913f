"""The rank-two pseudo-reflection representation of parent J-groups.

With theta = e^(i pi/a), phi = e^(i pi/b), psi = e^(i pi/c) as exact
cyclotomic numbers, any q, r satisfying

    q r = theta phi (psi + psi^-1) - theta^2 - phi^2

define a representation  s -> [[theta^2, q], [0, 1]],
t -> [[1, 0], [r, phi^2]],  u -> theta phi psi (t s)^-1  in which the
three generators act by pseudo-reflections.  The representation is not
faithful in general; ``witness_record`` reproduces the standard
counterexample at (a, b, c) = (6, 2, 3).
"""

from __future__ import annotations

from functools import cache

from .classify import finite_quotient
from .cyclo import Cyc, label_modulus, zeta
from .maps import meridian_embedding
from .presentations import STU, FamilyParams, meridians
from .words import Value, Word, parse_either

Mat2 = tuple[tuple[Cyc, Cyc], tuple[Cyc, Cyc]]


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_det(a: Mat2) -> Cyc:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def mat_inv(a: Mat2) -> Mat2:
    d = mat_det(a).inv()
    return ((a[1][1] * d, -a[0][1] * d), (-a[1][0] * d, a[0][0] * d))


def mat_scale(c: Cyc, a: Mat2) -> Mat2:
    return ((c * a[0][0], c * a[0][1]), (c * a[1][0], c * a[1][1]))


def mat_identity(n: int) -> Mat2:
    """The identity matrix over Z[zeta_n]."""
    one, nil = Cyc.one(n), Cyc.zero(n)
    return ((one, nil), (nil, one))


def mat_pow(a: Mat2, k: int) -> Mat2:
    if k < 0:
        return mat_pow(mat_inv(a), -k)
    out = mat_identity(a[0][0].n)
    while k:
        if k & 1:
            out = mat_mul(out, a)
        a = mat_mul(a, a)
        k >>= 1
    return out


def mat_str(a: Mat2) -> str:
    return f"[[{a[0][0]}, {a[0][1]}], [{a[1][0]}, {a[1][1]}]]"


class ConstraintError(ValueError):
    """q r differs from the required constraint value; carries both sides."""

    def __init__(self, got: Cyc, required: Cyc):
        self.got = got
        self.required = required
        super().__init__(f"q*r = {got} but the constraint requires {required}")


class Rep(Value):
    __slots__ = ("a", "b", "c", "theta", "phi", "psi", "q", "r", "mat_s", "mat_t", "mat_u")

    def __init__(self, a: int, b: int, c: int, theta: Cyc, phi: Cyc, psi: Cyc, q: Cyc, r: Cyc,
                 mat_s: Mat2, mat_t: Mat2, mat_u: Mat2):
        super().__init__(a, b, c, theta, phi, psi, q, r, mat_s, mat_t, mat_u)

    @property
    def scalar(self) -> Cyc:
        """theta phi psi: the triple product s t u acts by this scalar."""
        return self.theta * self.phi * self.psi


@cache
def _field(a: int, b: int, c: int) -> tuple[Cyc, Cyc, Cyc, Cyc]:
    """theta, phi, psi in Z[zeta_N], N = ``label_modulus(a, b, c)``, and the
    q r that the representation requires; built once per label triple."""
    n = label_modulus(a, b, c)
    theta, phi, psi = zeta(n, n // (2 * a)), zeta(n, n // (2 * b)), zeta(n, n // (2 * c))
    return theta, phi, psi, theta * phi * (psi + psi.inv()) - theta * theta - phi * phi


def constraint_value(a: int, b: int, c: int) -> Cyc:
    """The q r that the representation requires."""
    return _field(a, b, c)[3]


def qr_presets(a: int, b: int, c: int) -> dict[str, tuple[Cyc, Cyc]]:
    """Named (q, r) choices for ``constraint_value(a, b, c)``.

    When the constraint value is nonzero the canonical choices put it on
    either side; when it vanishes both (0,0) and (1,0) are admissible, and
    the two give non-isomorphic representations.
    """
    value = constraint_value(a, b, c)
    zero, one = Cyc.zero(value.n), Cyc.one(value.n)
    if value.is_zero():
        return {"zero": (zero, zero), "unit": (one, zero)}
    return {"standard": (value, one), "swapped": (one, value)}


def build_rho(a: int, b: int, c: int, q: Cyc, r: Cyc) -> Rep:
    """Assemble the representation over Z[zeta_N], N = lcm(2a, 2b, 2c),
    enforcing the q r constraint exactly; q and r are embedded there.
    Labels past ``cyclo.MAX_DEGREE`` raise ValueError."""
    theta, phi, psi, required = _field(a, b, c)
    q, r = q.embed(theta.n), r.embed(theta.n)
    got = q * r
    if got != required:
        raise ConstraintError(got, required)
    one, nil = Cyc.one(theta.n), Cyc.zero(theta.n)
    mat_s: Mat2 = ((theta * theta, q), (nil, one))
    mat_t: Mat2 = ((one, nil), (r, phi * phi))
    mat_u = mat_scale(theta * phi * psi, mat_mul(mat_inv(mat_t), mat_inv(mat_s)))
    return Rep(a, b, c, theta, phi, psi, q, r, mat_s, mat_t, mat_u)


def build_rho_preset(a: int, b: int, c: int, preset: str | None = None) -> Rep:
    FamilyParams("j-parent", (a, b, c))  # labels must be integers >= 2
    presets = qr_presets(a, b, c)
    preset = next(iter(presets)) if preset is None else preset
    if preset not in presets:
        raise ValueError(f"unknown (q,r) preset {preset!r}; have {sorted(presets)}")
    return build_rho(a, b, c, *presets[preset])


def relation_checks(rep: Rep) -> dict[str, bool]:
    """The defining identities of the representation, checked exactly:
    s^a = t^b = u^c = 1, the chain s t u = t u s = u s t, and s t u scalar."""
    identity = mat_identity(rep.theta.n)
    stu = mat_mul(rep.mat_s, mat_mul(rep.mat_t, rep.mat_u))
    tus = mat_mul(rep.mat_t, mat_mul(rep.mat_u, rep.mat_s))
    ust = mat_mul(rep.mat_u, mat_mul(rep.mat_s, rep.mat_t))
    return {
        "s_power": mat_pow(rep.mat_s, rep.a) == identity,
        "t_power": mat_pow(rep.mat_t, rep.b) == identity,
        "u_power": mat_pow(rep.mat_u, rep.c) == identity,
        "chain": stu == tus == ust,
        "scalar": stu == mat_scale(rep.scalar, identity),
    }


def check_record(a: int, b: int, c: int, preset: str | None) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``rep check``: relation checks, q, r and the three matrices."""
    rep = build_rho_preset(a, b, c, preset)
    checks = relation_checks(rep)
    return {"checks": checks, "all_pass": all(checks.values()), "q": str(rep.q), "r": str(rep.r),
            "matrices": {"s": mat_str(rep.mat_s), "t": mat_str(rep.mat_t), "u": mat_str(rep.mat_u)}}, "ok", []


def eval_record(a: int, b: int, c: int, preset: str | None, text: str) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``rep eval`` for a word over {s,t,u},
    else over x1..xb."""
    rep = build_rho_preset(a, b, c, preset)
    w = parse_either(STU, lambda: meridians(b), text)
    matrix = rho_eval(rep, w)
    return {"matrix": mat_str(matrix), "is_identity": matrix == mat_identity(rep.theta.n),
            "q": str(rep.q), "r": str(rep.r)}, "ok", []


def rho_eval(rep: Rep, w: Word) -> Mat2:
    """Evaluate a word over {s,t,u}, or over the meridians x1..xn through
    their images under ``maps.meridian_embedding(n)``, built only for the
    meridians the word holds."""
    names = w.alphabet.names
    base = {"s": rep.mat_s, "t": rep.mat_t, "u": rep.mat_u}
    identity = mat_identity(rep.theta.n)
    if set(names) <= base.keys():
        mats = [base[g] for g in names]
    elif w.alphabet == meridians(len(names)):
        stu = _signed_table([rep.mat_s, rep.mat_t, rep.mat_u])
        held = {abs(x) for x in w.letters}
        mats = [_product(stu, image.letters, identity) if x in held else None
                for x, image in enumerate(meridian_embedding(len(names)).images, start=1)]
    else:
        raise ValueError(f"cannot resolve alphabet {names} to the representation")
    return _product(_signed_table(mats), w.letters, identity)


def _signed_table(mats: list[Mat2 | None]) -> list[Mat2 | None]:
    """Entry x holds ``mats[x - 1]`` and entry -x (from the end) its inverse,
    as in ``words.signed_images``; a None matrix has no inverse."""
    return [None, *mats, *(None if a is None else mat_inv(a) for a in reversed(mats))]


def _product(table: list[Mat2 | None], letters: tuple[int, ...], identity: Mat2) -> Mat2:
    """The product of the matrices ``table[x]`` of the ``letters`` x."""
    out = identity
    for letter in letters:
        out = mat_mul(out, table[letter])
    return out


def witness_record(max_cosets: int) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``rep witness``, the standard example
    at (a, b, c) = (6, 2, 3): (x1 x2)^3 dies in every admissible
    representation, yet x1 x2 has order 6 in the k = 3 quotient, so the
    representation is not faithful.  "unknown", with that order and
    ``unfaithful`` None, when the k = 3 enumeration overflows ``max_cosets``."""
    cube = Word(meridians(2), (1, 2) * 3)
    reps = {name: build_rho(6, 2, 3, q, r) for name, (q, r) in qr_presets(6, 2, 3).items()}
    n = label_modulus(6, 2, 3)
    identity = mat_identity(n)
    cube_dies = {name: rho_eval(rep, cube) == identity for name, rep in reps.items()}

    small = finite_quotient(3, 2, 3, max_cosets)
    order = None if small is None else small.order_of(Word(small.alphabet, (1, 2)))

    rep0 = reps["zero"]
    stu = mat_mul(rep0.mat_s, mat_mul(rep0.mat_t, rep0.mat_u))
    stu_order = 1
    acc = stu
    while acc != identity:
        acc = mat_mul(acc, stu)
        stu_order += 1
        if stu_order > 64:
            raise AssertionError("unexpected: stu image has large order")

    def commutes(rep: Rep) -> bool:
        return mat_mul(rep.mat_s, rep.mat_t) == mat_mul(rep.mat_t, rep.mat_s)

    unfaithful = None if order is None else all(cube_dies.values()) and order == 6
    result = {
        "parameters": [6, 2, 3],
        "cube_dies_per_preset": cube_dies,
        "order_of_x1x2_in_k3_quotient": order,
        "rho_stu_order": stu_order,
        "rho_stu_is_minus_identity": stu == mat_scale(Cyc.rational(-1, n), identity),
        "zero_preset_commutes": commutes(reps["zero"]),
        "unit_preset_commutes": commutes(reps["unit"]),
        "unfaithful": unfaithful,
    }
    if unfaithful is None:
        return result, "unknown", [f"enumeration overflowed at {max_cosets}"]
    return result, "ok", []
