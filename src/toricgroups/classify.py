"""Which toric reflection groups are finite, and the records built on that.

W(k,n,m) with gcd(n,m) = 1 is finite exactly when its triangle is
spherical (``coxeter.classify_triangle``, the one rule).  With n < m these
are six sporadic triples and the family (2,2,m) with m odd, I2(m) =
G(m,m,2), named by ``finite_toric`` after Shephard & Todd ("Finite unitary
reflection groups", 1954).  ``finite_quotient`` is the one place a finite
row's Cayley table is built, and the command line only formats the records
built here: the classification of one triple, the sweep over a grid, the
word problem of W(k,n,m), and the derived presentation of W(a,b,c) as the
normal closure of s in its parent J-group.  Each is a (result, status,
evidence) triple, like the records of the other modules.  One row builder,
``_row``, writes the keys that ``classify`` and ``sweep`` share, in the order
a ``sweep`` entry prints them, and the note of a finite row that overflows;
``classify_toric`` adds only what ``classify`` alone prints.

Four objects depend on the row and not on the request, and each is built
once per process: ``coxeter.triangle_table``, ``reps._field``,
``maps.build_phi`` and ``finite_quotient``.  A process that answers many
requests on one row reuses them; one CLI invocation builds each at most
once anyway.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import coxeter, maps, schreier
from .cosets import CayleyTable, group_order, reflection_class_count, todd_coxeter
from .presentations import FamilyParams, ParameterError, TietzeBudgetExceeded, serialize, tietze_simplify, toric
from .words import Value


class FiniteToric(Value):
    __slots__ = ("shephard_todd", "center_quotient")  # center_quotient: W/Z, the triangle group's alternating subgroup


_SPORADIC = {  # the names of the spherical coprime rows with n < m and (k, n) != (2, 2)
    (2, 3, 4): FiniteToric("G12", "S4"),
    (2, 3, 5): FiniteToric("G22", "A5"),
    (3, 2, 3): FiniteToric("G4", "A4"),
    (4, 2, 3): FiniteToric("G8", "S4"),
    (5, 2, 3): FiniteToric("G16", "A5"),
    (3, 2, 5): FiniteToric("G20", "A5"),
}


def finite_toric(k: int, n: int, m: int) -> FiniteToric | None:
    """The names of W(k,n,m), n and m coprime in any order, if it is finite, else None."""
    FamilyParams("toric", (k, n, m))  # labels >= 2, gcd(n, m) = 1
    if coxeter.classify_triangle(k, n, m) != "spherical":
        return None
    n, m = min(n, m), max(n, m)
    if (k, n) == (2, 2):
        return FiniteToric(f"G({m},{m},2)=I2({m})", f"I2({m})")
    return _SPORADIC[k, n, m]


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


def _row(k: int, n: int, m: int, max_cosets: int) -> tuple[dict, FiniteToric | None, CayleyTable | None, str | None]:
    """The keys a ``sweep`` entry prints, in its order, with the row's names,
    Cayley table and overflow note, read with n < m.  An infinite row has no
    names, table or note; a finite row has a table or, past ``max_cosets``, a note."""
    fin = finite_toric(k, n, m)  # labels >= 2, gcd(n, m) = 1
    n, m = min(n, m), max(n, m)
    row: dict = {
        "parameters": [k, n, m],
        "finite": fin is not None,
        "shephard_todd": fin.shephard_todd if fin else None,
        "reflection_classes": k - 1,
        "triangle_type": coxeter.classify_triangle(k, n, m),
    }
    if fin is None:
        # a triangle that is not spherical has its three edges as maximal finite parabolics, with
        # rotation subgroups cyclic of orders k, n and m (Humphreys, Reflection Groups and Coxeter Groups)
        row["maximal_finite_cyclic_orders"] = sorted((k, n, m))
        return row, None, None, None
    cayley = finite_quotient(k, n, m, max_cosets)
    row["order"] = None if cayley is None else cayley.size
    return row, fin, cayley, f"enumeration overflowed at {max_cosets}; membership retained" if cayley is None else None


def classify_toric(k: int, n: int, m: int, max_cosets: int) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``classify``: the classification record
    of W(k,n,m) and the evidence for each verdict."""
    result, fin, cayley, overflow = _row(k, n, m, max_cosets)
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
    membership = f"finite table membership: W({k},{n},{m}) = {fin.shephard_todd}"
    if cayley is None:  # the keys an infinite row reports, as unknown
        result["center_order"] = None
        return result, "ok", [membership, overflow]
    classes = reflection_class_count(cayley)
    center = cayley.order_of(maps.central_element(k, n, m))
    result.update(reflection_classes_computed=classes, center_order=center,
                  center_quotient_order=cayley.size // center, center_quotient=fin.center_quotient)
    return result, "ok", [membership, f"enumeration confirms order {cayley.size}",
                          f"reflection classes computed: {classes}"]


def sweep(max_k: int, max_m: int, max_cosets: int) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``sweep``: one entry per triple
    2 <= k <= max_k, 2 <= n < m <= max_m, gcd(n, m) = 1, holding the keys
    that ``_row`` writes for ``classify`` too; the evidence names each finite
    row whose enumeration overflows ``max_cosets``, in ``_row``'s words."""
    for name, bound in (("max_k", max_k), ("max_m", max_m)):
        if bound < 2:
            raise ParameterError(f"{name} must be >= 2, got {bound}")
    entries, evidence = [], []
    for k in range(2, max_k + 1):
        for n in range(2, max_m):
            for m in range(n + 1, max_m + 1):
                if gcd(n, m) != 1:
                    continue
                entry, _, _, overflow = _row(k, n, m, max_cosets)
                entries.append(entry)
                if overflow:
                    evidence.append(f"W({k},{n},{m}): {overflow}")
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
    within ``budget`` steps.  J(a,b,c) maps onto the rotation subgroup of
    the (a,b,c) triangle group (``maps.parent_to_coxeter``) and ncl(s) has
    finite index, so a row whose triangle is not spherical is infinite and
    reports ``order: None``.  A spherical row enumerates its order: a
    gcd(b, c) = 1 row as a times the index of <s0>, the others as the
    order of the Tietze presentation.  That enumeration has 1/a of the
    elements, so such a row answers under a smaller ``max_cosets``
    (``derive(5, 2, 3, 200, ...)`` has order 600).
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
    order = None
    if triangle != "spherical":
        evidence.append(f"order not enumerated: J({a},{b},{c}) maps onto the infinite rotation "
                        f"subgroup of the {triangle} ({a},{b},{c}) triangle group and ncl(s) "
                        "has finite index; group is infinite")
    elif gcd(b, c) == 1:
        # W^ab = Z/a sends s0 to 1 and s0^a is a relator, so s0 has order a
        table = todd_coxeter(presentation, [presentation.alphabet.word("s0")], max_cosets)
        order = a * table.num_cosets if table.complete else None
    else:
        order = group_order(presentation, max_cosets=max_cosets)
    if triangle == "spherical" and order is None:
        evidence.append(f"order enumeration overflowed at {max_cosets}")
    # an infinite row is "ok": the checked toric presentation, or Tietze within
    # its budget, presents its group
    known = order is not None or triangle != "spherical"
    result = {"presentation": serialize(presentation), "num_generators": len(presentation.gens), "order": order}
    return result, "ok" if known else "unknown", evidence
