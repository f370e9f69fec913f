"""Which toric reflection groups are finite, and the records built on that.

W(k,n,m) with gcd(n,m) = 1 and n < m is finite exactly for six sporadic
triples and the family (2,2,m) with m odd, which is the dihedral group
I2(m) = G(m,m,2) (Shephard & Todd, "Finite unitary reflection groups",
1954).  This module is the one place that decision is made, and
``finite_quotient`` is the one place a finite row's Cayley table is built.
The command line only formats the records built here: the classification
of one triple, the sweep over a grid, the word problem of W(k,n,m), and
the derived presentation of W(a,b,c) as the normal closure of s in its
parent J-group.  Each is a (result, status, evidence) triple, like the
records of the other modules.
"""

from __future__ import annotations

from math import gcd

from . import coxeter, maps, schreier
from .cosets import CayleyTable, group_order, reflection_class_count, todd_coxeter
from .presentations import FamilyParams, ParameterError, TietzeBudgetExceeded, serialize, tietze_simplify, toric
from .words import Value


class FiniteToric(Value):
    __slots__ = ("shephard_todd", "center_quotient")

    def __init__(self, shephard_todd: str, center_quotient: str):
        # center_quotient: W/Z, the alternating subgroup of the triangle group
        super().__init__(shephard_todd, center_quotient)


_SPORADIC = {
    (2, 3, 4): FiniteToric("G12", "S4"),
    (2, 3, 5): FiniteToric("G22", "A5"),
    (3, 2, 3): FiniteToric("G4", "A4"),
    (4, 2, 3): FiniteToric("G8", "S4"),
    (5, 2, 3): FiniteToric("G16", "A5"),
    (3, 2, 5): FiniteToric("G20", "A5"),
}


def finite_toric(k: int, n: int, m: int) -> FiniteToric | None:
    """The names of W(k,n,m) when it is finite, else None (n, m in any order)."""
    n, m = min(n, m), max(n, m)
    if (k, n) == (2, 2) and m % 2 == 1:
        return FiniteToric(f"G({m},{m},2)=I2({m})", f"I2({m})")
    return _SPORADIC.get((k, n, m))


def finite_quotient(k: int, n: int, m: int, max_cosets: int) -> CayleyTable | None:
    """Cayley table of ``toric(k, n, m)`` on a finite row.

    None when W(k,n,m) is not a finite-table member or when the enumeration
    overflows ``max_cosets``.
    """
    if finite_toric(k, n, m) is None:
        return None
    table = todd_coxeter(toric(k, n, m), max_cosets=max_cosets)
    return CayleyTable(table) if table.complete else None


def _parabolic_orders(k: int, n: int, m: int) -> list[int]:
    # for infinite rows only: a triangle that is not spherical has its three
    # edges as maximal finite parabolics, with rotation subgroups cyclic of
    # orders k, n and m (Humphreys, Reflection Groups and Coxeter Groups)
    return sorted((k, n, m))


def classify_toric(k: int, n: int, m: int, max_cosets: int) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``classify``: the classification record
    of W(k,n,m) and the evidence for each verdict."""
    FamilyParams("toric", (k, n, m))  # labels >= 2, gcd(n, m) = 1
    n, m = min(n, m), max(n, m)
    fin = finite_toric(k, n, m)
    result: dict = {
        "parameters": [k, n, m],
        "braid_group": f"G({n},{m})",
        "triangle_type": coxeter.classify_triangle(k, n, m),
        "reflection_classes": k - 1,
        "finite": fin is not None,
    }
    if fin is None:
        result.update(order=None, center_order=None,
                      maximal_finite_cyclic_orders=_parabolic_orders(k, n, m))
        return result, "ok", [
            "not a finite-table member; group is infinite",
            "center order unknown in the infinite case",
            "maximal finite cyclic orders from rank-2 parabolic rotation subgroups",
            "reflection class count k-1 holds for every toric group (derived, "
            "confirmed by computation on the finite members)",
        ]
    evidence = [f"finite table membership: W({k},{n},{m}) = {fin.shephard_todd}"]
    cayley = finite_quotient(k, n, m, max_cosets)
    if cayley is None:
        evidence.append(f"enumeration overflowed at {max_cosets}; membership retained")
    else:
        order = cayley.size
        evidence.append(f"enumeration confirms order {order}")
        classes = reflection_class_count(cayley)
        evidence.append(f"reflection classes computed: {classes}")
        center = cayley.order_of(maps.central_element(k, n, m))
        result.update(reflection_classes_computed=classes, center_order=center, order=order,
                      center_quotient_order=order // center, center_quotient=fin.center_quotient)
    result["shephard_todd"] = fin.shephard_todd
    return result, "ok", evidence


def sweep(max_k: int, max_m: int, max_cosets: int) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``sweep``: one entry per triple
    2 <= k <= max_k, 2 <= n < m <= max_m, gcd(n, m) = 1; the evidence names
    each finite row whose enumeration overflows ``max_cosets``."""
    for name, bound in (("max_k", max_k), ("max_m", max_m)):
        if bound < 2:
            raise ParameterError(f"{name} must be >= 2, got {bound}")
    entries, evidence = [], []
    for k in range(2, max_k + 1):
        for n in range(2, max_m):
            for m in range(n + 1, max_m + 1):
                if gcd(n, m) != 1:
                    continue
                fin = finite_toric(k, n, m)
                entry = {
                    "parameters": [k, n, m],
                    "finite": fin is not None,
                    "shephard_todd": fin.shephard_todd if fin else None,
                    "reflection_classes": k - 1,
                    "triangle_type": coxeter.classify_triangle(k, n, m),
                }
                if fin is None:
                    entry["maximal_finite_cyclic_orders"] = _parabolic_orders(k, n, m)
                else:
                    cayley = finite_quotient(k, n, m, max_cosets)
                    entry["order"] = None if cayley is None else cayley.size
                    if cayley is None:
                        evidence.append(f"W({k},{n},{m}): enumeration overflowed at {max_cosets}; membership retained")
                entries.append(entry)
    return {"entries": entries, "count": len(entries)}, "ok", evidence


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
    if finite_toric(k, n, m) is None:
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
    within ``budget`` steps.  J(a,b,c) maps onto the rotation subgroup of
    the (a,b,c) triangle group (``maps.parent_to_coxeter``) and ncl(s) has
    finite index, so a row whose triangle is not spherical is infinite and
    reports ``order: None``; a spherical row enumerates its order.
    """
    found = schreier.toric_closure_rs(a, b, c, max_cosets)
    if found is None:
        return {"presentation": None}, "unknown", [f"enumeration overflowed at {max_cosets}"]
    labels, rs = found
    evidence = [
        f"index of the normal closure of s: {len(labels)}",
        f"Schreier generators before simplification: {len(rs.presentation.gens)}",
    ]
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
    order = group_order(presentation, max_cosets=max_cosets) if triangle == "spherical" else None
    if triangle != "spherical":
        evidence.append(f"order not enumerated: J({a},{b},{c}) maps onto the infinite rotation "
                        f"subgroup of the {triangle} ({a},{b},{c}) triangle group and ncl(s) "
                        "has finite index; group is infinite")
    elif order is None:
        evidence.append(f"order enumeration overflowed at {max_cosets}")
    # an infinite row is "ok": the checked toric presentation, or Tietze within
    # its budget, presents its group
    known = order is not None or triangle != "spherical"
    result = {"presentation": serialize(presentation), "num_generators": len(presentation.gens), "order": order}
    return result, "ok" if known else "unknown", evidence
