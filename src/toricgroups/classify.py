"""Which toric reflection groups are finite, and the records built on that.

W(k,n,m) with gcd(n,m) = 1 is finite exactly when its triangle is
spherical, that is when d = kmn (1/k + 1/n + 1/m - 1) = ``coxeter._curvature``
is positive.  With n < m these are six sporadic triples and the family
(2,2,m) with m odd, I2(m) = G(m,m,2), named after Shephard & Todd ("Finite
unitary reflection groups", 1954).  W/Z is the alternating subgroup of the
triangle group, so it is named by the triangle, its sorted labels, not by
the row.  A finite row's orders follow from d alone: |W| = 4k^2nm/d^2, the
centre <c> has order 2k/d and W/Z order 2kmn/d, which is Coxeter's order of
p[q]p when n = 2 (*Regular Complex Polytopes*, 1974) and that of a
Seifert-fibred orbifold group (Scott, "The geometries of 3-manifolds",
1983).  Each division is checked to be exact, so ``classify`` and ``sweep``
build no Cayley table and read no ``max_cosets``.  ``classify``'s
``reflection_classes_computed`` comes from a certificate checked on every
call, in time linear in the relators (``_reflection_classes``).

The command line only formats the records built here: the classification of
one triple, the sweep over a grid, the word problem of W(k,n,m), and the
derived presentation of W(a,b,c) as the normal closure of s in its parent
J-group.  Each is a (result, status, evidence) triple, like the records of
the other modules.  One row builder, ``_row``, writes the keys that
``classify`` and ``sweep`` share, in the order a ``sweep`` entry prints
them, from one curvature value; ``classify_toric`` adds only what
``classify`` alone prints.

Four objects depend on the row and not on the request, and each is built
once per process: ``coxeter.triangle_table``, ``reps._field``,
``maps.build_phi`` and ``finite_quotient``, the Cayley table in which ``wp
toric`` decides a central word on a finite row and ``rep witness`` reads
W(3,2,3).  A process that answers many requests on one row reuses them; one
CLI invocation builds each at most once anyway.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import coxeter, maps, schreier
from .cosets import CayleyTable, group_order, todd_coxeter
from .presentations import (FamilyParams, ParameterError, Presentation, TietzeBudgetExceeded, chain_implies_shift,
                            cyclic_product, serialize, tietze_simplify, toric)
from .words import Value, check_derivation


class FiniteToric(Value):
    __slots__ = ("shephard_todd", "center_quotient")  # center_quotient: W/Z, the triangle group's alternating subgroup


# Shephard & Todd's names of the spherical coprime rows with n < m and (k, n) != (2, 2)
_SPORADIC = {(2, 3, 4): "G12", (2, 3, 5): "G22", (3, 2, 3): "G4", (4, 2, 3): "G8", (5, 2, 3): "G16", (3, 2, 5): "G20"}
# W/Z, the alternating subgroup of the triangle group, by the triangle's sorted labels
_ALTERNATING = {(2, 3, 3): "A4", (2, 3, 4): "S4", (2, 3, 5): "A5"}


@lru_cache(maxsize=None, typed=True)  # an int label and an equal float are different keys
def finite_quotient(k: int, n: int, m: int, max_cosets: int) -> CayleyTable | None:
    """Cayley table of ``toric(k, n, m)`` on a finite row, built once per
    process for each row and ``max_cosets``.

    None when the row's triangle is not spherical (W(k,n,m) is infinite) or
    when the enumeration overflows ``max_cosets``.  No caller writes to the
    table, and its ``words`` and ``conjugations`` never change once filled,
    so every caller may share it.
    """
    if coxeter.classify_triangle(k, n, m) != "spherical":
        return None
    table = todd_coxeter(toric(k, n, m), max_cosets=max_cosets)
    return CayleyTable(table) if table.complete else None


def _row(k: int, n: int, m: int) -> tuple[dict, FiniteToric | None, tuple[int, int, int] | None]:
    """The keys a ``sweep`` entry prints, in its order, read with n < m, with
    the row's names and, on a finite row, d, |Z| = 2k/d and |W/Z| = 2kmn/d.
    Each division is exact, or AssertionError, never a verdict.  The labels
    are not checked: ``sweep`` makes only valid ones."""
    d = coxeter._curvature(k, n, m)
    n, m = min(n, m), max(n, m)
    row: dict = {
        "parameters": [k, n, m],
        "finite": d > 0,
        "shephard_todd": None,
        "reflection_classes": k - 1,
        "triangle_type": coxeter._geometry(d),
    }
    if d <= 0:
        # a triangle that is not spherical has its three edges as maximal finite parabolics, with
        # rotation subgroups cyclic of orders k, n and m (Humphreys, Reflection Groups and Coxeter Groups)
        row["maximal_finite_cyclic_orders"] = sorted((k, n, m))
        return row, None, None
    fin = (FiniteToric(f"G({m},{m},2)=I2({m})", f"I2({m})") if (k, n) == (2, 2) else
           FiniteToric(_SPORADIC[k, n, m], _ALTERNATING[tuple(sorted((k, n, m)))]))
    row["shephard_todd"] = fin.shephard_todd
    row["order"], r = divmod(4 * k * k * n * m, d * d)
    (center, s), (quotient, t) = divmod(2 * k, d), divmod(2 * k * n * m, d)
    assert r == s == t == 0, f"d = {d} leaves a remainder"
    return row, fin, (d, center, quotient)


def _reflection_classes(p: Presentation, k: int, m: int) -> int:
    """k - 1, the classes of the nontrivial powers of the meridians of ``p`` =
    ``toric(k, n, m)``, once its certificate checks; AssertionError if not.

    Each ``chain_implies_shift`` derivation, checked against the chain
    relators, takes x_i delta to delta x_{i+m}, so with gcd(n, m) = 1 all
    meridians are conjugate.  Every relator has exponent sum 0 mod k and
    x_1^k is one, so x_i -> 1 is a map onto Z/k, which separates x_1, ...,
    x_1^(k-1).  The check is linear in the relators' letters.
    """
    n = len(p.alphabet)
    for i in range(1, n + 1):
        try:  # a step that no chain relator justifies is a failed certificate, not an input error
            end = check_derivation(chain_implies_shift(p.alphabet, m, i), p.relators[n:])
        except ValueError as e:
            raise AssertionError(f"the shift derivation of x{i}: {e}") from None
        assert end.letters == (*cyclic_product(n, 0, m), (i + m - 1) % n + 1), f"the shift of x{i} ends at {end}"
    assert all(sum(1 if x > 0 else -1 for x in r.letters) % k == 0 for r in p.relators), f"x_i -> 1 is no map to Z/{k}"
    assert (1,) * k in [r.letters for r in p.relators], f"x1^{k} is no relator"
    return k - 1


def classify_toric(k: int, n: int, m: int) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``classify``: the classification record
    of W(k,n,m) and the evidence for each verdict."""
    FamilyParams("toric", (k, n, m))  # labels >= 2, gcd(n, m) = 1
    result, fin, orders = _row(k, n, m)
    k, n, m = result["parameters"]
    result["braid_group"] = f"G({n},{m})"
    if fin is None:
        del result["shephard_todd"]
        result.update(order=None, center_order=None)
        return result, "ok", [
            "not a finite-table member; group is infinite",
            "center order unknown in the infinite case",
            "maximal finite cyclic orders from rank-2 parabolic rotation subgroups",
            "reflection class count k-1 holds for every toric group (derived, "
            "confirmed by computation on the finite members)",
        ]
    d, center, quotient = orders
    classes = _reflection_classes(toric(k, n, m), k, m)
    result.update(reflection_classes_computed=classes, center_order=center,
                  center_quotient_order=quotient, center_quotient=fin.center_quotient)
    return result, "ok", [
        f"finite table membership: W({k},{n},{m}) = {fin.shephard_todd}",
        f"closed form with d = kmn(1/k + 1/n + 1/m - 1) = {d}: |W| = 4k^2nm/d^2 = {result['order']}, "
        f"|Z| = 2k/d = {center}, |W/Z| = 2kmn/d = {quotient}",
        f"reflection classes computed: {classes}, certified by the shift derivations and x_i -> 1 mod {k}",
    ]


def sweep(max_k: int, max_m: int) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``sweep``: one entry per triple
    2 <= k <= max_k, 2 <= n < m <= max_m, gcd(n, m) = 1, holding the keys
    that ``_row`` writes for ``classify`` too."""
    for name, bound in (("max_k", max_k), ("max_m", max_m)):
        if bound < 2:
            raise ParameterError(f"{name} must be >= 2, got {bound}")
    entries = [_row(k, n, m)[0] for k in range(2, max_k + 1) for n in range(2, max_m)
               for m in range(n + 1, max_m + 1) if gcd(n, m) == 1]
    return {"entries": entries, "count": len(entries)}, "ok", []


def toric_word_problem(k: int, n: int, m: int, w: str, max_cosets: int) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``wp toric`` for the word text ``w``.

    A word with a nontrivial image under ``maps.build_phi`` (the quotient by
    the center) is not the identity.  A central word is decided in the
    Cayley table on a finite row, and is "unknown" on an infinite row or
    when the finite row's enumeration overflows ``max_cosets``.
    """
    phi = maps.build_phi(k, n, m)
    word = phi.source.alphabet.word(w)
    image_nf = coxeter.triangle_table(k, n, m).nf(phi.apply(word))
    result = {"identity": None, "central": not image_nf.letters, "coxeter_image_nf": str(image_nf)}
    if image_nf.letters:
        return dict(result, identity=False), "ok", []
    if coxeter.classify_triangle(k, n, m) != "spherical":
        return result, "unknown", ["word lies in the center; the word problem inside the center "
                                   "of an infinite toric group is open and this tool does not guess"]
    cayley = finite_quotient(k, n, m, max_cosets)
    if cayley is None:
        return result, "unknown", [f"enumeration overflowed at {max_cosets}"]
    result["identity"] = cayley.is_identity(word)
    return result, "ok", ["decided in the finite quotient's Cayley table"]


def derive(a: int, b: int, c: int, max_cosets: int, budget: int) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``derive``: a presentation of ncl(s) in J(a,b,c).

    A gcd(b, c) = 1 row answers with the toric presentation of W(a,b,c) that
    ``schreier.check_toric_presentation`` checks, the other rows with Tietze
    within ``budget`` steps.  The b*c cosets of ncl(s) are written down
    (``schreier.toric_closure_table``), so ``max_cosets`` bounds b*c, read
    off the labels, and a gcd(b, c) != 1 row's order enumeration.  J(a,b,c)
    maps onto the rotation subgroup of the (a,b,c) triangle group
    (``maps.parent_to_coxeter``) and ncl(s) has finite index, so a row whose
    triangle is not spherical is infinite and reports ``order: None``.  A
    spherical gcd(b, c) = 1 row's checked presentation is ``toric(a, b, c)``
    itself, so its order is ``_row``'s closed form.
    """
    FamilyParams("j-parent", (a, b, c))  # a refused label wins over the bound
    index = f"index of the normal closure of s: {b * c}"
    if b * c > max_cosets:
        return {"presentation": None}, "unknown", [f"{index}, over the coset bound {max_cosets}"]
    labels, rs = schreier.toric_closure_rs(a, b, c)
    evidence = [index, f"Schreier generators before simplification: {len(rs.presentation.gens)}"]
    triangle = coxeter.classify_triangle(a, b, c)
    if gcd(b, c) == 1:
        presentation = schreier.check_toric_presentation(a, b, c, labels, rs)
        evidence.append("every rewritten relator is a toric relator or a shift relator "
                        "with a checked derivation from the chain relators")
    else:
        try:
            presentation = tietze_simplify(rs.presentation, budget=budget)
        except TietzeBudgetExceeded as e:
            # the best presentation so far still presents the same group, but
            # enumerating it unsimplified (18 generators at (2,3,3)) costs more
            # than the whole derivation did
            evidence.append(f"Tietze step budget {budget} exhausted: best presentation kept, "
                            "order not enumerated")
            result = {"presentation": serialize(e.best), "num_generators": len(e.best.gens), "order": None}
            return result, "unknown", evidence
    order = None
    if triangle != "spherical":
        evidence.append(f"order not enumerated: J({a},{b},{c}) maps onto the infinite rotation "
                        f"subgroup of the {triangle} ({a},{b},{c}) triangle group and ncl(s) "
                        "has finite index; group is infinite")
    elif gcd(b, c) == 1:
        order = _row(a, b, c)[0]["order"]
    elif (order := group_order(presentation, max_cosets=max_cosets)) is None:
        evidence.append(f"order enumeration overflowed at {max_cosets}")
    # an infinite row is "ok": the checked toric presentation, or Tietze within
    # its budget, presents its group
    result = {"presentation": serialize(presentation), "num_generators": len(presentation.gens), "order": order}
    return result, "unknown" if triangle == "spherical" and order is None else "ok", evidence
