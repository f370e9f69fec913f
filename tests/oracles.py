"""Independent brute-force oracles for the test suite.

These implement the mathematical definitions directly, sharing no code
with the production engines they check:

- ``naive_order``: coset closure by blunt re-scanning (define the first
  gap, walk every rotation of every relator at each coset whose row
  changed, merge on every conflict, repeat to a fixed point).  No
  scan-and-fill, no deduction stacks, no lookahead.
- ``matrix_group_order``: closure of exact reflection matrices under
  multiplication (the geometric representation of a Coxeter system is
  faithful), for triangle group orders.  Its entries are ``ReferenceCyc``
  values with ``Fraction`` coefficients, B(a_s, a_t) = -cos(pi / m(s,t))
  itself rather than the doubled form of the engine.
- ``positive_roots``: orbit closure of the simple roots, for counting the
  positive roots of a finite Coxeter system, on ``ReferenceCyc`` and with
  the signs of ``reference_sign_real``.
- ``gram_parabolic_verdicts``: finiteness of every standard parabolic
  subgroup by exact positive-definiteness of its Gram matrix, with
  ``ReferenceCyc`` determinants and ``reference_sign_real`` signs.
- ``monoid_equal``: breadth-first closure of single x^n <-> y^m rewrites,
  deciding equality of positive words in the torus knot monoid.
- ``reference_tietze``: the original Tietze elimination loop, which rescans
  every relator and rebuilds the alphabet and every relator on each step.
  It defines the choice rule that ``presentations.tietze_simplify`` must
  reproduce exactly; it shares the word arithmetic of ``words``.
- ``reference_hlt``: the original enumerator, with the table stored as a
  list of rows, compaction into a new row list, and a lookahead that only
  gives up once more than ``max_cosets`` cosets are still live.  It keeps
  two columns for every generator, an involution's too, and scans every
  relator.  On a presentation with no involution (a generator g with a
  relator whose free reduction is g^2 or g^-2, see ``involutions``),
  complete tables of ``todd_coxeter(..., strategy="hlt")`` must equal its
  tables entry for entry; with one, they must equal them once both are put
  in ``standardize``'s numbering.  It shares only ``_columns`` and
  ``_validate`` with ``cosets``.
- ``reference_felsch``: the original Felsch driver, which looks for the
  first undefined entry after every definition (resuming at the row where
  it found the last one), pushes both entries of each definition as
  deductions, and stops before a definition once ``max_cosets`` cosets are
  live.  Complete tables of ``todd_coxeter(..., strategy="felsch")`` must
  equal its tables as ``reference_hlt``'s do; it drives the primitive
  moves of the ``reference_hlt`` engine.
- ``standardize``: a complete coset table renumbered breadth first from
  coset 0, columns in order, each coset numbered when first reached.  Two
  complete tables of one subgroup are the same action exactly when their
  standard forms are equal.
- ``reference_rs_presentation``: the original Reidemeister-Schreier
  rewrite, which rewrites every relator from every coset.
  ``schreier.rs_presentation`` rewrites a relator v^q only from the least
  coset of each orbit of <v>, so its relators must be a subsequence of the
  reference's, in order, and every reference relator a cyclic rotation of
  a kept one once both are cyclically reduced.  It spells its own
  representatives (``reference_transversal``), reads only the table's
  ``columns`` and ``trace``, and builds its own set of tree edges from each
  representative's last letter.
- ``reference_transversal``: the representative words of a complete table,
  spelled one BFS level at a time, each candidate traced from coset 0.  It
  shares no code with ``cosets.bfs_tree``, and must reach each coset by the
  same word as the tree path to it.
- ``reference_check_toric_presentation``: the original check of the toric
  presentation on Word objects: each closed form a ``Word`` through
  ``GenMap``, each relator mapped by ``reference_apply_map`` and keyed by the
  original ``cyclic_canonical``, which compares every rotation of the
  word and of its inverse.  ``schreier.check_toric_presentation`` works
  on walks, the ends of segments of the periodic word x1 x2 x3 ...; it
  must return the same presentation, or raise an
  ``AssertionError`` with the same message.  It shares the closed forms
  (``closed_form_generator``), the relators and ``chain_implies_shift``
  with the check, which are one source of truth: its ``shift_relators``
  builds each shift relator from ``schreier._shift_letters``, the letters
  the check keys.
- ``reference_normal_closure``: the original normal-closure loop, which
  enumerates over a subgroup and adjoins one conjugate of a seed per round
  until every seed acts trivially.  It needs a finite index at every round,
  shares the enumerator of ``cosets`` and spells its conjugators with
  ``reference_transversal``.
- ``reference_conjugacy_class_ids``: the original class ids of a Cayley
  table, which trace every element's whole transversal word once per
  signed generator.  ``CayleyTable.conjugacy_class_ids`` must give the same
  ids; the reference reads only the table's ``trace`` and ``words``.
- ``reference_center`` and ``reference_center_plus_order``: the original
  center of a Cayley table, which traces every element's transversal word
  once per generator, and the order of Z(W+) of a Coxeter table by
  tracing each product both ways over every pair of even elements.
  ``CayleyTable.center`` and ``coxeter.center_check_plus`` must agree.
- ``reference_cyc`` (``ReferenceCyc``, ``reference_zeta``): the original
  cyclotomic arithmetic, over all of Q(zeta_n): ``Fraction`` coefficients,
  operands at mixed moduli embedded into their lcm, a dense power basis of
  zeta_n^k per modulus, a reduction that walks every coefficient of Phi_n,
  and inverses by the extended Euclid over Q[x].  ``cyclo.Cyc`` works in
  Z[zeta_N] at one modulus, inverts only roots of unity (by conjugation)
  and holds ints only; on those values it must give the same canonical
  coefficients and the same printed form, once the operands of a
  comparison are embedded into one modulus.  It shares only
  ``cyclotomic_polynomial`` and ``_degree`` with the reference.
- ``reference_cyclotomic_polynomial``: the original construction of Phi_n,
  which divides x^n - 1 by Phi_d for every proper divisor d by dense long
  division.  ``cyclo.cyclotomic_polynomial`` must give the same
  coefficients.  It is slow past a few hundred, so the full range is
  checked against ``cyclotomic_by_identities``, which builds Phi_n from
  Phi_rad(n)(x^(n/rad n)) and, for a squarefree n = mp with p its largest
  prime, Phi_m(x^p)/Phi_m(x): one exact division per n, and no Moebius
  product.  The two references agree on a prefix.
- ``reference_sign_real``: the original certified sign of a real
  cyclotomic number, by ``mpmath`` interval cosines at escalating decimal
  precision.  ``cyclo.sign_real`` must give the same signs; ``positive_roots``
  and ``gram_parabolic_verdicts`` decide their signs with it.
- ``reference_reduce_word`` and ``reference_nf``: the original word problem
  on a ``MinimalRootTable``, which keeps each state as a dict from root to
  the index of the letter that created it, and rescans the whole word for
  its state after every deletion and for every letter of the normal form.
  ``MinimalRootTable.reduce_word`` and ``.nf``, which walk numbered root
  sets, must give the same words; the references read only the table's
  ``action``.
- ``reference_gnf``: the original Garside normal form, one letter at a
  time.  ``garside.gnf`` must give the same ``GarsideNF``.
  ``garside_nf_word`` renders a ``GarsideNF`` back as the word
  x^(n delta_power) followed by its factors, so a normal form can be fed
  to ``gnf`` again.
- ``abelian_invariants``: the invariant factors of a presentation's
  abelianization, from the Smith normal form of its relator exponent
  matrix by integer row and column operations.  Two presentations of one
  group have the same invariants.
- ``reference_apply_map``: the original letter-wise substitution, which
  inverts a letter's image each time an inverse letter comes.
  ``words.apply_map`` reads one table of signed images; it must give the
  same ``Word``.
- ``reference_parse_word``: the original word parser, which tracks the
  column with a running ``text.index`` and expands every token as it comes.
  ``words.parse_word`` must give the same ``Word``, or the same message and
  column.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm, prod
from typing import Sequence

from toricgroups import schreier
from toricgroups.cosets import CayleyTable, CosetTable, _columns, _validate, todd_coxeter
from toricgroups.coxeter import MinimalRootTable
from toricgroups.cyclo import _degree, cyclotomic_polynomial
from toricgroups.garside import GarsideNF
from toricgroups.presentations import (XY, FamilyParams, Presentation, TietzeBudgetExceeded, meridians, toric,
                                      torus_classical)
from toricgroups.schreier import RSResult, SubgroupGenerator, _shift_letters, closed_form_generator
from toricgroups.words import (Alphabet, GenMap, Word, WordSyntaxError, check_derivation, cyclic_reduce,
                               free_reduce, invert)


def _letters(w: Word) -> tuple[int, ...]:
    return w.letters


@cache
def naive_order(p: Presentation, cap: int = 20000) -> int | None:
    """Order of the presented group by naive coset closure, None past the cap.

    Closes the table under the relators, defines the first gap, and repeats.
    A coset is rescanned when its row changes, along every rotation of every
    relator: a relator's walk from any coset that passes a changed row is a
    rotation's walk from that row, so the closure, and with it every gap
    defined, is that of rescanning every coset until nothing changes.
    Memoised: several tests close the same finite rows under the same cap."""
    rotations = list(dict.fromkeys(r[j:] + r[:j] for r in map(_letters, p.relators) for j in range(len(r))))
    tables: list[dict[int, int]] = [dict()]  # per coset: signed letter -> coset
    parent = [0]
    changed, queued = deque([0]), {0}  # cosets whose rows changed since they were last scanned
    merged = 0  # cosets merged into a smaller one
    first = 0  # the least coset that may have a gap

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def merge_all(pairs: list[tuple[int, int]]) -> None:
        nonlocal merged
        queue = deque(pairs)
        while queue:
            a, b = queue.popleft()
            a, b = root(a), root(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            merged += 1
            mark(a)
            for letter, dest in list(tables[b].items()):
                if letter in tables[a] and root(tables[a][letter]) != root(dest):
                    queue.append((tables[a][letter], dest))
                else:
                    tables[a][letter] = root(dest)
            tables[b] = {}
            # re-point stale entries lazily via root() at read time

    def mark(a: int) -> None:
        if a not in queued:
            queued.add(a)
            changed.append(a)

    def read(a: int, letter: int) -> int | None:
        d = tables[root(a)].get(letter)
        return None if d is None else root(d)

    def write(a: int, letter: int, b: int) -> None:
        tables[root(a)][letter] = root(b)
        tables[root(b)][-letter] = root(a)
        mark(root(a))
        mark(root(b))

    while True:
        # rescan changed rows until none is left
        while changed:
            a = changed.popleft()
            queued.remove(a)
            if root(a) != a:
                continue  # merged: its root was queued
            merges: list[tuple[int, int]] = []
            for rel in rotations:
                cur = a
                for i, letter in enumerate(rel):
                    nxt = read(cur, letter)
                    if nxt is None:
                        break
                    cur = nxt
                else:
                    if cur != a:
                        merges.append((cur, a))
                    continue
                # one forward gap at position i from coset "at": walk
                # backwards from a along the relator tail
                at = cur
                back = a
                good = True
                for j in range(len(rel) - 1, i, -1):
                    prev = read(back, -rel[j])
                    if prev is None:
                        good = False
                        break
                    back = prev
                if good and read(at, rel[i]) is None:
                    # at and the coset entering back along rel[i] both
                    # reach back by rel[i], so they are one coset
                    other = read(back, -rel[i])
                    if other is None or other == at:
                        write(at, rel[i], back)
                    else:
                        merges.append((other, at))
            merge_all(merges)
        # find the first undefined entry; a live coset before the last gap
        # found has every entry, and keeps them while it lives
        hole = None
        for a in range(first, len(tables)):
            if root(a) != a:
                continue
            for g in range(1, len(p.alphabet) + 1):
                for letter in (g, -g):
                    if read(a, letter) is None:
                        hole = (a, letter)
                        break
                if hole:
                    break
            if hole:
                break
        live = len(tables) - merged
        if hole is None:
            return live
        if live >= cap:
            return None
        first, letter = hole
        tables.append({})
        parent.append(len(tables) - 1)
        write(first, letter, len(tables) - 1)


# --- exact matrix closure for Coxeter systems ---------------------------------


def _reference_gram(labels) -> list[list[ReferenceCyc]]:
    """B(a_s, a_t) = -cos(pi / m(s,t)), -1 for an infinite label (None), at
    the one modulus lcm(2 m(s,t)) over the finite labels."""
    rank = len(labels)
    modulus = lcm(*(2 * v for row in labels for v in row if v is not None))

    def entry(i: int, j: int) -> ReferenceCyc:
        if labels[i][j] is None:
            return ReferenceCyc.rational(-1).embed(modulus)
        k = modulus // (2 * labels[i][j])  # cos(pi / m) = (zeta^k + zeta^-k) / 2
        return (reference_zeta(modulus, k) + reference_zeta(modulus, -k)) * Fraction(-1, 2)

    return [[entry(i, j) for j in range(rank)] for i in range(rank)]


def _reflection_matrices(labels: list[list[int]]) -> list[tuple[tuple[ReferenceCyc, ...], ...]]:
    """Generators of the geometric representation, rows as matrix rows."""
    rank = len(labels)
    gram = _reference_gram(labels)
    modulus = gram[0][0].n
    mats = []
    for s in range(rank):
        rows = []
        for i in range(rank):
            row = []
            for j in range(rank):
                base = ReferenceCyc.rational(1 if i == j else 0).embed(modulus)
                if i == s:
                    base = base - 2 * gram[s][j]
                row.append(base)
            rows.append(tuple(row))
        mats.append(tuple(rows))
    return mats


def _mat_mul(a, b):
    n = len(a)
    zero = ReferenceCyc.rational(0).embed(a[0][0].n)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n))
        for i in range(n)
    )


def matrix_group_order(k: int, n: int, m: int, cap: int = 4000) -> int | None:
    """|W(triangle k,n,m)| by multiplicative closure of exact matrices."""
    labels = [[1, k, m], [k, 1, n], [m, n, 1]]
    gens = _reflection_matrices(labels)
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for mat in frontier:
            for g in gens:
                prod = _mat_mul(mat, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return len(seen)


def positive_roots(k: int, n: int, m: int, cap: int = 4000) -> int | None:
    """Count the positive roots of a finite triangle system by orbit closure."""
    labels = [[1, k, m], [k, 1, n], [m, n, 1]]
    rank = 3
    gram = _reference_gram(labels)
    modulus = gram[0][0].n
    one = ReferenceCyc.rational(1).embed(modulus)
    zero = ReferenceCyc.rational(0).embed(modulus)
    simples = []
    for s in range(rank):
        v = [zero] * rank
        v[s] = one
        simples.append(tuple(v))

    def reflect(coords, s):
        bval = zero
        for t, c in enumerate(coords):
            bval = bval + c * gram[s][t]
        out = list(coords)
        out[s] = out[s] - 2 * bval
        return tuple(out)

    def is_positive(coords) -> bool:
        signs = [reference_sign_real(c) for c in coords]
        return all(s >= 0 for s in signs)

    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for coords in frontier:
            for s in range(rank):
                img = reflect(coords, s)
                if is_positive(img) and img not in seen:
                    seen.add(img)
                    nxt.append(img)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return len(seen)


# --- Gram-matrix finiteness of standard parabolic subgroups -------------------


def _det(mat: list[list[ReferenceCyc]]) -> ReferenceCyc:
    if len(mat) == 1:
        return mat[0][0]
    total = ReferenceCyc.rational(0).embed(mat[0][0].n)
    for j in range(len(mat)):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def gram_parabolic_verdicts(labels) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """(J, W_J finite?) for every subset J, by size and then lexicographically.

    W_J is finite iff the Gram matrix B(a_s, a_t) = -cos(pi / m(s,t)), with
    -1 for an infinite label, is positive definite on J; Sylvester's
    criterion decides that with exact signs of the leading minors.
    """
    rank = len(labels)
    gram = _reference_gram(labels)

    def positive_definite(subset: tuple[int, ...]) -> bool:
        return all(reference_sign_real(_det([[gram[i][j] for j in subset[:t]] for i in subset[:t]])) > 0
                   for t in range(1, len(subset) + 1))

    return tuple((subset, positive_definite(subset))
                 for size in range(rank + 1) for subset in combinations(range(rank), size))


# --- torus knot monoid rewriting oracle ----------------------------------------


def monoid_equal(n: int, m: int, u: str, v: str, cap: int = 200000) -> bool:
    """Equality of positive words over 'x','y' under the single relation
    x^n = y^m, by breadth-first closure of one-step rewrites."""
    lhs, rhs = "x" * n, "y" * m
    if u == v:
        return True
    seen = {u}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        for a, b in ((lhs, rhs), (rhs, lhs)):
            start = 0
            while True:
                i = w.find(a, start)
                if i < 0:
                    break
                w2 = w[:i] + b + w[i + len(a):]
                if w2 == v:
                    return True
                if w2 not in seen:
                    seen.add(w2)
                    queue.append(w2)
                    if len(seen) > cap:
                        raise RuntimeError("monoid closure exceeded cap")
                start = i + 1
    return False


# --- reference Tietze elimination ----------------------------------------------


def _normalize_relators(relators: list[Word]) -> list[Word]:
    seen: set[tuple[int, ...]] = set()
    out: list[Word] = []
    for r in relators:
        r = cyclic_reduce(r)
        if not r.letters or r.letters in seen:
            continue
        seen.add(r.letters)
        out.append(r)
    return out


def _single_occurrence(r: Word, gen: int) -> int | None:
    """Position of the unique occurrence of +-gen in r, else None."""
    hits = [i for i, x in enumerate(r.letters) if abs(x) == gen]
    return hits[0] if len(hits) == 1 else None


def reference_tietze(p: Presentation, budget: int = 10_000) -> Presentation:
    """Generator elimination by full rescans: lowest generator index first,
    shortest then earliest defining relator; raises ``TietzeBudgetExceeded``
    with the presentation reached when a move is due and ``budget`` moves
    have been made."""
    alphabet = p.alphabet
    relators = _normalize_relators(list(p.relators))
    steps = 0
    while True:
        choice: tuple[int, int, int] | None = None  # (gen index, relator idx, position)
        for g in range(1, len(alphabet) + 1):
            candidates = []
            for ri, r in enumerate(relators):
                pos = _single_occurrence(r, g)
                if pos is not None:
                    candidates.append((len(r.letters), ri, pos))
            if candidates:
                _, ri, pos = min(candidates)
                choice = (g, ri, pos)
                break
        if choice is None:
            break
        if steps >= budget:
            raise TietzeBudgetExceeded(Presentation(alphabet, tuple(relators)))
        steps += 1
        g, ri, pos = choice
        rel = relators.pop(ri)
        # Rotate so the eliminated letter is first: rel ~ g^e * w, so g^e = w^-1.
        rot = Word(alphabet, rel.letters[pos:] + rel.letters[:pos])
        e = 1 if rot.letters[0] > 0 else -1
        tail = Word(alphabet, rot.letters[1:])
        image = invert(tail) if e == 1 else tail

        keep = [i for i in range(1, len(alphabet) + 1) if i != g]
        new_alphabet = Alphabet([alphabet.names[i - 1] for i in keep])
        remap = {old: new + 1 for new, old in enumerate(keep)}

        def substituted(w: Word) -> Word:
            out: list[int] = []
            for x in w.letters:
                if abs(x) == g:
                    out.extend(image.letters if x > 0 else tuple(-y for y in reversed(image.letters)))
                else:
                    out.append(x)
            return Word(new_alphabet, tuple((1 if x > 0 else -1) * remap[abs(x)] for x in out))

        relators = _normalize_relators([substituted(r) for r in relators])
        alphabet = new_alphabet
    return Presentation(alphabet, tuple(relators))


def reference_transversal(t: CosetTable, column_order: Sequence[int] | None = None) -> list[Word]:
    """The representative word of each coset of a complete table, by coset.

    One BFS level at a time: each representative of the level, in the
    order found, is extended by each letter of ``column_order`` (by default
    the generators), and a word that traces from coset 0 to a coset not yet
    reached represents it.  Raises ValueError when a coset is not reached.
    """
    if column_order is None:
        column_order = range(0, 2 * len(t.alphabet), 2)
    letters = [col // 2 + 1 if col % 2 == 0 else -(col // 2 + 1) for col in column_order]
    reps = {0: Word(t.alphabet, ())}
    level = [reps[0]]
    while level:
        below = []
        for rep in level:
            for x in letters:
                w = Word(t.alphabet, rep.letters + (x,))
                c = t.trace(0, w)
                if c not in reps:
                    reps[c] = w
                    below.append(w)
        level = below
    if len(reps) != t.num_cosets:
        raise ValueError("column order does not span the coset graph")
    return [reps[c] for c in range(t.num_cosets)]


def reference_rs_presentation(p: Presentation, ct: CosetTable, column_order: Sequence[int] | None = None
                              ) -> RSResult:
    """The original Reidemeister-Schreier rewrite: every relator from every
    coset, in coset-major order, freely reduced, empty rewrites dropped.
    Generators are named as by ``rs_presentation``'s default namer.  The
    representatives are ``reference_transversal``'s over ``column_order``;
    the tree edges, in both orientations, are read off each
    representative's last letter, from the coset its prefix traces to."""
    reps = reference_transversal(ct, column_order)
    tree: set[tuple[int, int]] = set()
    for b, rep in enumerate(reps):
        if rep.letters:
            a = ct.trace(0, Word(p.alphabet, rep.letters[:-1]))
            (col,) = _columns(Word(p.alphabet, rep.letters[-1:]))
            tree |= {(a, col), (b, col ^ 1)}
    gen_index: dict[tuple[int, int], int] = {}
    sub_gens: list[SubgroupGenerator] = []
    for c in range(ct.num_cosets):
        for g in range(len(p.alphabet)):
            if (c, 2 * g) in tree:
                continue
            gen_index[(c, g)] = len(sub_gens)
            name = p.alphabet.names[g]
            sub_gens.append(SubgroupGenerator(f"{name}_c{c}", c, name))
    sub_alphabet = Alphabet([g.name for g in sub_gens])

    relators: list[Word] = []
    for c in range(ct.num_cosets):
        for r in p.relators:
            out: list[int] = []
            q = c
            for x, col in zip(r.letters, _columns(r)):
                g = abs(x) - 1
                if x > 0:
                    if (q, 2 * g) not in tree:
                        out.append(gen_index[(q, g)] + 1)
                    q = ct.columns[col][q]
                else:
                    q = ct.columns[col][q]
                    if (q, 2 * g) not in tree:
                        out.append(-(gen_index[(q, g)] + 1))
            w = free_reduce(Word(sub_alphabet, tuple(out)))
            if w.letters:
                relators.append(w)
    return RSResult(Presentation(sub_alphabet, tuple(relators)), tuple(sub_gens))


def _reference_cyclic_canonical(w: Word) -> tuple[int, ...]:
    """Canonical letter tuple among all rotations of a relator and its inverse."""
    w = cyclic_reduce(w)
    best: tuple[int, ...] | None = None
    for cand in (w.letters, invert(w).letters):
        for k in range(max(1, len(cand))):
            rot = cand[k:] + cand[:k]
            if best is None or rot < best:
                best = rot
    return best if best is not None else ()


def shift_relators(n: int, m: int) -> tuple[Alphabet, list[Word]]:
    """Relators saying x_i (x_1...x_m) = (x_1...x_m) x_{i+m}, for i = 1..n."""
    ab = meridians(n)
    return ab, [Word(ab, _shift_letters(n, m, i)) for i in range(1, n + 1)]


def reference_check_toric_presentation(k: int, n: int, m: int, labels: dict[int, tuple[int, int]],
                                       rs: RSResult) -> Presentation:
    """The original ``check_toric_presentation``, on Word objects throughout."""
    target = Alphabet([f"s{i}" for i in range(n)])
    images: dict[str, Word] = {}
    for g in rs.generators:
        i, j = labels[g.coset]
        if g.gen_name == "s":
            images[g.name] = closed_form_generator(k, n, m, "s", m - 1 - i, j + 1)
        elif g.gen_name == "u":
            images[g.name] = Word(target, ()) if j == 0 else closed_form_generator(k, n, m, "u", m - 1 - i, j)
        else:  # t wrap generators are trivial in the subgroup
            images[g.name] = Word(target, ())
    gm = GenMap.from_dict(rs.presentation.alphabet, target, images)

    reference = toric(k, n, m)
    ref_canon = {_reference_cyclic_canonical(r) for r in reference.relators}
    chains = torus_classical(n, m).relators
    _, shifts = shift_relators(n, m)
    shift_canon = {_reference_cyclic_canonical(r): i for i, r in enumerate(shifts, start=1)}
    found: set[tuple[int, ...]] = set()
    for r in rs.presentation.relators:
        w = cyclic_reduce(reference_apply_map(gm, r))  # one image per letter, no table per relator
        key = _reference_cyclic_canonical(w)
        if not key or key in found:
            continue
        found.add(key)
        if key in shift_canon:
            d = schreier.chain_implies_shift(reference.alphabet, m, shift_canon[key])
            try:
                end = check_derivation(d, chains)  # justified deletion
            except ValueError as e:  # a fault of this derivation, not of the input
                raise AssertionError(f"derivation of {w}: {e}") from e
            if _reference_cyclic_canonical(d.start * invert(end)) != key:
                raise AssertionError(f"the derivation cited for {w} derives another relator")
        elif key not in ref_canon:
            raise AssertionError(f"unexpected relator {w} in rewritten presentation")
    if not ref_canon <= found:
        raise AssertionError("rewriting did not produce every toric relator")

    return Presentation(target, tuple(Word(target, r.letters) for r in reference.relators))


def reference_normal_closure(p: Presentation, seeds: list[Word], max_cosets: int = 10**6,
                             max_rounds: int = 64, strategy: str = "hlt") -> CosetTable:
    """Coset table of the normal closure of ``seeds`` by conjugate adjunction.

    Enumerates over the plain subgroup, then repeatedly adjoins the first
    conjugate w g w^-1 found to fall outside it (w running over coset
    representatives), until every seed acts trivially on the cosets.
    """
    gens = [free_reduce(w) for w in seeds]
    for _ in range(max_rounds):
        t = todd_coxeter(p, gens, max_cosets, strategy)
        if not t.complete:
            return t
        ngens = len(t.alphabet)
        reps = reference_transversal(t, [2 * i for i in range(ngens)] + [2 * i + 1 for i in range(ngens)])
        violation = None
        for c in range(t.num_cosets):
            for s in seeds:
                if t.trace(c, s) != c:
                    violation = free_reduce(reps[c] * s * reps[c].inverse())
                    break
            if violation is not None:
                break
        if violation is None:
            return t
        gens.append(violation)
    raise RuntimeError("normal closure did not stabilize within the round limit")


# --- the original list-of-rows enumerator ----------------------------------


def involutions(p: Presentation) -> set[int]:
    """The generators g (1-based) with a relator whose free reduction is g^2 or g^-2."""
    return {abs(w.letters[0]) for w in map(free_reduce, p.relators)
            if len(w.letters) == 2 and w.letters[0] == w.letters[1]}


def standardize(columns: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """A complete table renumbered breadth first from coset 0, columns in order."""
    order, number = [0], {0: 0}
    for a in order:  # grows while it is read: the breadth-first queue
        for column in columns:
            if column[a] not in number:
                number[column[a]] = len(order)
                order.append(column[a])
    return tuple(tuple(number[column[a]] for a in order) for column in columns)


def _inv_col(c: int) -> int:
    return c ^ 1


class _ReferenceEnumerator:
    def __init__(self, p: Presentation, subgens: Sequence[Word], max_cosets: int, strategy: str):
        self.alphabet = p.alphabet
        self.ngens = len(p.alphabet)
        self.ncols = 2 * self.ngens
        for w in subgens:
            if w.alphabet != p.alphabet:
                raise ValueError("subgroup generator over wrong alphabet")
        if strategy not in ("hlt", "felsch"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.relcols = [_columns(free_reduce(r)) for r in p.relators]
        self.subcols = [_columns(free_reduce(w)) for w in subgens]
        self.max_cosets = max_cosets
        self.rows: list[list[int | None]] = [[None] * self.ncols]
        self.p = [0]  # union-find parent, p[i] <= i
        self.live = 1
        self.queue: deque[int] = deque()
        # Felsch: the stack of (coset, column) entries still to be checked
        # against the cyclic rotations of each relator and its inverse that
        # start with that column (deduplicated)
        self.deductions: list[tuple[int, int]] | None = None
        if strategy == "felsch":
            self.deductions = []
            self.by_col: list[list[tuple[int, ...]]] = [[] for _ in range(self.ncols)]
            rotations = dict.fromkeys(base[k:] + base[:k] for r in self.relcols
                                      for base in (r, tuple(_inv_col(c) for c in reversed(r)))
                                      for k in range(len(base)))
            for rot in rotations:
                self.by_col[rot[0]].append(rot)

    # -- union-find ---------------------------------------------------------

    def rep(self, a: int) -> int:
        p = self.p
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    # -- primitive moves ----------------------------------------------------

    def define(self, a: int, col: int) -> int:
        b = len(self.rows)
        self.rows.append([None] * self.ncols)
        self.p.append(b)
        self.rows[a][col] = b
        self.rows[b][_inv_col(col)] = a
        self.live += 1
        return b

    def _merge(self, a: int, b: int) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        self.p[hi] = lo
        self.live -= 1
        self.queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        self._merge(a, b)
        while self.queue:
            dying = self.queue.popleft()
            row = self.rows[dying]
            for col in range(self.ncols):
                dest = row[col]
                if dest is None:
                    continue
                # remove the mirror edge before transferring
                self.rows[dest][_inv_col(col)] = None
                mu, nu = self.rep(dying), self.rep(dest)
                mu_entry = self.rows[mu][col]
                if mu_entry is not None:
                    self._merge(nu, mu_entry)
                else:
                    nu_entry = self.rows[nu][_inv_col(col)]
                    if nu_entry is not None:
                        self._merge(mu, nu_entry)
                    else:
                        self.rows[mu][col] = nu
                        self.rows[nu][_inv_col(col)] = mu
                        if self.deductions is not None:
                            self.deductions.append((mu, col))

    def scan(self, a: int, cols: tuple[int, ...], *, fill: bool) -> None:
        """Scan a relator (or subgroup generator) path from coset a.

        With ``fill`` the scan defines new cosets to complete the path (HLT
        behaviour).  Without it, the scan only closes single gaps
        (deductions) and records mismatches as coincidences.
        """
        f = b = self.rep(a)
        i, j = 0, len(cols) - 1
        while True:
            while i <= j and self.rows[f][cols[i]] is not None:
                f = self.rows[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.rows[b][_inv_col(cols[j])] is not None:
                b = self.rows[b][_inv_col(cols[j])]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.rows[f][cols[i]] = b
                self.rows[b][_inv_col(cols[i])] = f
                if self.deductions is not None:
                    self.deductions.append((f, cols[i]))
                return
            if not fill:
                return
            self.define(f, cols[i])

    def deduce(self) -> None:
        """Felsch: check stacked entries against their rotations until none is left."""
        while self.deductions:
            a, col = self.deductions.pop()
            a = self.rep(a)
            for rot in self.by_col[col]:
                if self.p[a] != a:
                    break
                self.scan(a, rot, fill=False)

    def scan_relators(self, a: int, *, fill: bool) -> None:
        for cols in self.relcols:
            if self.p[a] != a:
                return
            self.scan(a, cols, fill=fill)

    # -- lookahead and compaction -------------------------------------------

    def lookahead(self) -> None:
        for a in range(len(self.rows)):
            self.scan_relators(a, fill=False)

    def compact(self) -> list[int]:
        """Drop dead rows; returns the old-index -> new-index map."""
        remap = [-1] * len(self.rows)
        new_rows: list[list[int | None]] = []
        for a in range(len(self.rows)):
            if self.p[a] == a:
                remap[a] = len(new_rows)
                new_rows.append(self.rows[a])
        for row in new_rows:
            for col in range(self.ncols):
                if row[col] is not None:
                    row[col] = remap[self.rep(row[col])]
        self.rows = new_rows
        self.p = list(range(len(new_rows)))
        self.live = len(new_rows)
        return remap

    # -- the row walk --------------------------------------------------------

    def run(self) -> str:
        """Walk the rows in definition order with a monotone pointer.

        Rows behind the pointer are complete, so the walk ends complete
        when it passes the last row.  The bound is checked once per row.
        Felsch skips the lookahead: its deductions have already closed
        every gap one would find, so its first excess is the overflow.
        """
        felsch = self.deductions is not None
        for cols in self.subcols:
            self.scan(0, cols, fill=True)
        if felsch:
            # every edge the subgroup scans laid down is a deduction
            self.deductions += [(a, col) for a in range(len(self.rows)) if self.p[a] == a
                                for col in range(self.ncols) if self.rows[a][col] is not None]
            self.deduce()
        a = 0
        while a < len(self.rows):
            if not felsch:
                self.scan_relators(a, fill=True)
            for col in range(self.ncols):
                if self.p[a] != a:
                    break
                if self.rows[a][col] is None:
                    b = self.define(a, col)
                    if felsch:
                        self.deductions += ((a, col), (b, _inv_col(col)))
                        self.deduce()
            a += 1
            if self.live > self.max_cosets:
                if not felsch:
                    self.lookahead()
                if self.live > self.max_cosets:
                    return "overflow"
                remap = self.compact()
                a = sum(1 for x in remap[:a] if x >= 0)
        return "complete"

    def finish(self, status: str, subgens: Sequence[Word], bound: int) -> CosetTable:
        self.compact()
        columns = tuple(tuple(row[col] for row in self.rows) for col in range(self.ncols))
        table = CosetTable(self.alphabet, columns, len(self.rows), status, bound, tuple(subgens))
        if status == "complete":
            _validate(table, self.relcols, self.subcols)
        return table


def reference_hlt(p: Presentation, subgens: Sequence[Word] = (), max_cosets: int = 10**6) -> CosetTable:
    """HLT enumeration by the original list-of-rows engine."""
    e = _ReferenceEnumerator(p, subgens, max_cosets, "hlt")
    return e.finish(e.run(), subgens, max_cosets)


def reference_felsch(p: Presentation, subgens: Sequence[Word] = (), max_cosets: int = 10**6) -> CosetTable:
    """Felsch enumeration by the original rescanning driver."""
    e = _ReferenceEnumerator(p, subgens, max_cosets, "felsch")
    deductions = e.deductions
    for cols in e.subcols:
        e.scan(0, cols, fill=True)
    # seed with every edge laid down by the subgroup scans, so each one
    # is processed against the relator rotations
    for a in range(len(e.rows)):
        if e.p[a] != a:
            continue
        for col in range(e.ncols):
            if e.rows[a][col] is not None:
                deductions.append((a, col))
    gap = 0  # no live row before it has an undefined entry
    while True:
        while deductions:
            a, col = deductions.pop()
            a = e.rep(a)
            for rot in e.by_col[col]:
                e.scan(a, rot, fill=False)
                if e.p[a] != a:
                    break
        # a defined entry is never undefined again once its coincidences
        # are processed, so the search resumes at the last row it found
        gap = a = next((a for a in range(gap, len(e.rows)) if e.p[a] == a and None in e.rows[a]), None)
        if a is None:
            return e.finish("complete", subgens, max_cosets)
        if e.live >= max_cosets:
            return e.finish("overflow", subgens, max_cosets)
        col = e.rows[a].index(None)
        b = e.define(a, col)
        deductions.append((a, col))
        deductions.append((b, col ^ 1))


def reference_conjugacy_class_ids(cay: CayleyTable) -> list[int]:
    """Class id per element, the least element of its class, by tracing words."""
    table, words = cay.table, cay.words
    # g^-1 * e * g: trace g^-1 from coset 0, then e's word, then g
    conjugators = [(table.trace(0, Word(cay.alphabet, (-letter,))), Word(cay.alphabet, (letter,)))
                   for g in range(1, len(cay.alphabet) + 1) for letter in (g, -g)]
    ids = [-1] * cay.size
    for start in range(cay.size):
        if ids[start] >= 0:
            continue
        ids[start] = start
        stack = [start]
        while stack:
            e = stack.pop()
            for first, last in conjugators:
                c = table.trace(table.trace(first, words[e]), last)
                if ids[c] < 0:
                    ids[c] = start
                    stack.append(c)
    return ids


def reference_center(cay: CayleyTable) -> list[int]:
    """Indices of the elements commuting with every generator, by tracing words."""
    table = cay.table
    gens = [Word(cay.alphabet, (g,)) for g in range(1, len(cay.alphabet) + 1)]
    out = []
    for e in range(cay.size):
        ok = True
        for gen in gens:
            left = table.trace(e, gen)
            right = table.trace(table.trace(0, gen), cay.words[e])
            if left != right:
                ok = False
                break
        if ok:
            out.append(e)
    return out


def reference_center_plus_order(cay: CayleyTable) -> int:
    """|Z(W+)| of a Coxeter group's Cayley table: the even-length elements
    commuting with every even-length element, over all pairs."""
    plus = [e for e in range(cay.size) if cay.length(e) % 2 == 0]
    trace, words = cay.table.trace, cay.words
    return sum(all(trace(e, words[f]) == trace(f, words[e]) for f in plus) for e in plus)


# --- the original cyclotomic polynomials, by repeated long division -----------


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _ref_poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials (denominator monic or divides)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    terms = [(j, d) for j, d in enumerate(den) if d]
    for i in range(len(num) - len(den), -1, -1):
        q, r = divmod(num[i + len(den) - 1], lead)
        out[i] = q
        if q:
            for j, d in terms:
                num[i + j] -= q * d
    return out, _poly_trim(num)


@cache
def reference_cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _ref_poly_divmod_int(poly, list(reference_cyclotomic_polynomial(d)))
            if r:
                raise AssertionError("cyclotomic division must be exact")
            poly = q
    return tuple(poly)


def _at_power(poly: Sequence[int], k: int) -> list[int]:
    """poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


@cache
def cyclotomic_by_identities(n: int) -> tuple[int, ...]:
    """Phi_n from Phi_n(x) = Phi_rad(n)(x^(n/rad n)) and Phi_mp(x) = Phi_m(x^p)/Phi_m(x), p prime, p not | m."""
    if n == 1:
        return (-1, 1)
    primes, rest, q = [], n, 2
    while rest > 1:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    rad = prod(primes)
    if rad < n:
        return tuple(_at_power(cyclotomic_by_identities(rad), n // rad))
    p = primes[-1]
    phi_m = cyclotomic_by_identities(n // p)
    quotient, remainder = _ref_poly_divmod_int(_at_power(phi_m, p), list(phi_m))
    if remainder:
        raise AssertionError("Phi_m(x) must divide Phi_m(x^p)")
    return tuple(quotient)


# --- the original Fraction power-basis cyclotomic arithmetic ------------------


@cache
def _ref_power_basis(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical coefficients of zeta_n^k for k = 0..n-1."""
    d = _degree(n)
    phi = cyclotomic_polynomial(n)
    rows: list[tuple[Fraction, ...]] = []
    for k in range(n):
        if k < d:
            row = [Fraction(0)] * d
            row[k] = Fraction(1)
            rows.append(tuple(row))
        else:
            # x^k = x * x^(k-1) reduced
            prev = list(rows[k - 1])
            shifted = [Fraction(0)] + prev
            if len(shifted) > d:
                top = shifted.pop()
                if top:
                    for j in range(d):
                        shifted[j] -= top * phi[j]
            rows.append(tuple(shifted + [Fraction(0)] * (d - len(shifted))))
    return tuple(rows)


def _ref_reduce(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    d = _degree(n)
    phi = cyclotomic_polynomial(n)
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, d - 1, -1):
        top = coeffs[i]
        if top:
            for j in range(len(phi) - 1):
                coeffs[i - len(phi) + 1 + j] -= top * phi[j]
        coeffs.pop()
    coeffs += [Fraction(0)] * (d - len(coeffs))
    return tuple(coeffs)


@dataclass(frozen=True)
class ReferenceCyc:
    """An element of the N-th cyclotomic field in canonical form."""

    n: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def rational(q) -> "ReferenceCyc":
        return ReferenceCyc(1, (Fraction(q),))

    @staticmethod
    def one() -> "ReferenceCyc":
        return ReferenceCyc.rational(1)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def is_real(self) -> bool:
        return self == self.conj()

    def embed(self, m: int) -> "ReferenceCyc":
        """Rewrite in the m-th cyclotomic field (n must divide m)."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot embed modulus {self.n} into {m}")
        step = m // self.n
        out = [Fraction(0)] * _degree(m)
        basis = _ref_power_basis(m)
        for i, c in enumerate(self.coeffs):
            if c:
                row = basis[(i * step) % m]
                for j, b in enumerate(row):
                    out[j] += c * b
        return ReferenceCyc(m, tuple(out))

    def _common(self, other: "ReferenceCyc") -> tuple["ReferenceCyc", "ReferenceCyc"]:
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        return self.embed(m), other.embed(m)

    def __add__(self, other) -> "ReferenceCyc":
        other = _ref_coerce(other)
        a, b = self._common(other)
        return ReferenceCyc(a.n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "ReferenceCyc":
        return ReferenceCyc(self.n, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "ReferenceCyc":
        return self + (-_ref_coerce(other))

    def __rsub__(self, other) -> "ReferenceCyc":
        return _ref_coerce(other) - self

    def __mul__(self, other) -> "ReferenceCyc":
        other = _ref_coerce(other)
        a, b = self._common(other)
        out = [Fraction(0)] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return ReferenceCyc(a.n, _ref_reduce(a.n, out))

    __rmul__ = __mul__

    def inv(self) -> "ReferenceCyc":
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
            q, r = _ref_poly_divmod_q(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _ref_poly_sub(s0, _ref_poly_mul(q, s1))
        if len(r0) != 1:
            raise AssertionError("gcd with the cyclotomic polynomial must be constant")
        c = r0[0]
        return ReferenceCyc(self.n, _ref_reduce(self.n, [x / c for x in s0]))

    def conj(self) -> "ReferenceCyc":
        """Complex conjugation: zeta -> zeta^-1."""
        out = [Fraction(0)] * _degree(self.n)
        basis = _ref_power_basis(self.n)
        for i, c in enumerate(self.coeffs):
            if c:
                row = basis[(self.n - i) % self.n]
                for j, b in enumerate(row):
                    out[j] += c * b
        return ReferenceCyc(self.n, tuple(out))

    def __eq__(self, other) -> bool:
        try:
            other = _ref_coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

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


def _ref_coerce(x) -> ReferenceCyc:
    if isinstance(x, ReferenceCyc):
        return x
    if isinstance(x, (int, Fraction)):
        return ReferenceCyc.rational(x)
    raise TypeError(f"cannot interpret {x!r} as a cyclotomic number")


def _ref_poly_divmod_q(num: list[Fraction], den: list[Fraction]):
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


def _ref_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _ref_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


def reference_zeta(n: int, k: int = 1) -> ReferenceCyc:
    """The primitive root of unity zeta_n raised to the k-th power."""
    if n < 1:
        raise ValueError("modulus must be positive")
    return ReferenceCyc(n, _ref_power_basis(n)[k % n])


def reference_cyc(n: int, coeffs) -> ReferenceCyc:
    """The reference value sum_i coeffs[i] zeta_n^i, for phi(n) canonical coefficients."""
    return ReferenceCyc(n, tuple(Fraction(c) for c in coeffs))


# --- the original mpmath interval sign -----------------------------------------

_MAX_DPS = 2000  # precision at which reference_sign_real gives up


def reference_sign_real(x) -> int:
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


# --- the original rescanning word problems ---------------------------------------


def _reference_state_scan(table: MinimalRootTable, letters: list[int]) -> dict[int, int]:
    """State of a reduced word: minimal roots sent negative, with the
    index of the creating letter."""
    state: dict[int, int] = {}
    for idx, s in enumerate(letters):
        new_state: dict[int, int] = {}
        for root, born in state.items():
            img = table.action[root][s]
            if img >= 0:
                new_state[img] = born
            # _ELEVATED roots leave the minimal set; _NEGATIVE cannot
            # occur because the simple root of s is handled below
        new_state[s] = idx
        state = new_state
    return state


def reference_reduce_word(table: MinimalRootTable, w: Word) -> list[int]:
    """A reduced word (letter list) for the element of w."""
    word: list[int] = []
    state: dict[int, int] = {}
    for s in [abs(x) - 1 for x in w.letters]:
        if s in state:  # descent: delete the letter that created a_s
            del word[state[s]]
            state = _reference_state_scan(table, word)
        else:
            new_state: dict[int, int] = {}
            for root, born in state.items():
                img = table.action[root][s]
                if img >= 0:
                    new_state[img] = born
            new_state[s] = len(word)
            word.append(s)
            state = new_state
    return word


def reference_nf(table: MinimalRootTable, w: Word) -> Word:
    """ShortLex-minimal normal form (r1 < r2 < ...)."""
    reduced = reference_reduce_word(table, w)
    out: list[int] = []
    v_inv = reduced[::-1]
    while v_inv:
        state = _reference_state_scan(table, v_inv)
        s = min(state)  # smallest left descent of the element
        out.append(s)
        del v_inv[state[s]]
    ab = table.cm.alphabet()
    return Word(ab, tuple(s + 1 for s in out))


def reference_gnf(n: int, m: int, w: Word) -> GarsideNF:
    """Left-greedy Garside normal form of a word over {x, y}."""
    FamilyParams("torus-standard", (n, m))
    if w.alphabet != XY:
        raise ValueError("word must be over the standard alphabet {x, y}")
    bound = {"x": n, "y": m}
    power = 0
    blocks: list[list] = []  # [symbol, exponent], alternating

    def push(sym: str, e: int) -> None:
        # invariant: blocks alternate symbols with exponents in [1, bound-1],
        # so one merge and one Delta extraction suffice
        nonlocal power
        if blocks and blocks[-1][0] == sym:
            e += blocks.pop()[1]
        q, e = divmod(e, bound[sym])
        power += q
        if e:
            blocks.append([sym, e])

    for letter in w.letters:
        sym = "x" if abs(letter) == 1 else "y"
        if letter > 0:
            push(sym, 1)
        else:
            power -= 1
            push(sym, bound[sym] - 1)
    return GarsideNF(n, m, power, tuple((s, e) for s, e in blocks))


def garside_nf_word(nf: GarsideNF) -> Word:
    """The word x^(n delta_power) f1 f2 ... over {x, y} of a normal form."""
    letters = [1 if nf.delta_power >= 0 else -1] * (nf.n * abs(nf.delta_power))
    for sym, e in nf.factors:
        letters += [1 if sym == "x" else 2] * e
    return Word(XY, tuple(letters))


def reference_apply_map(f: GenMap, w: Word) -> Word:
    if w.alphabet != f.source:
        raise ValueError("word is not over the map's source alphabet")
    out: list[int] = []
    for x in w.letters:
        img = f.images[abs(x) - 1]
        out.extend(img.letters if x > 0 else tuple(-y for y in reversed(img.letters)))
    return free_reduce(Word(f.target, tuple(out)))


def reference_parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse whitespace-separated tokens ``name``, ``name^K`` (K nonzero), or ``1``."""
    letters: list[int] = []
    col = 0
    for token in text.split():
        col = text.index(token, col)
        if token == "1":
            col += len(token)
            continue
        name, sep, exp = token.partition("^")
        if name not in alphabet:
            raise WordSyntaxError(f"unknown generator {name!r}", column=col + 1)
        k = 1
        if sep:
            try:
                k = int(exp)
            except ValueError:
                raise WordSyntaxError(f"bad exponent in {token!r}", column=col + 1) from None
            if k == 0:
                raise WordSyntaxError(f"zero exponent in {token!r}", column=col + 1)
        letter = alphabet.index(name) + 1
        letters.extend([letter if k > 0 else -letter] * abs(k))
        col += len(token)
    return Word(alphabet, tuple(letters))


def abelian_invariants(p: Presentation) -> tuple[int, ...]:
    """The invariant factors d_1 | d_2 | ... of G/[G, G], 1s left out and 0
    for each free factor Z: the Smith normal form of the exponent sums."""
    ngens = len(p.alphabet)
    m = []
    for r in p.relators:
        row = [0] * ngens
        for x in r.letters:
            row[abs(x) - 1] += 1 if x > 0 else -1
        m.append(row)
    factors = []
    while True:
        entries = [(abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v]
        if not entries:
            break
        _, i, j = min(entries)
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        pivot = m[0][0]
        # reduce the pivot's column and row; a remainder is a smaller pivot
        for row in m[1:]:
            q = row[0] // pivot
            for k in range(len(row)):
                row[k] -= q * m[0][k]
        for k in range(1, len(m[0])):
            q = m[0][k] // pivot
            for row in m:
                row[k] -= q * row[0]
        if any(row[0] for row in m[1:]) or any(m[0][1:]):
            continue
        # the pivot must divide the rest, or a row with a remainder joins it
        bad = next((row for row in m[1:] if any(v % pivot for v in row)), None)
        if bad is not None:
            m[0] = [a + b for a, b in zip(m[0], bad)]
            continue
        factors.append(abs(pivot))
        m = [row[1:] for row in m[1:]]
    return tuple(d for d in factors if d != 1) + (0,) * (ngens - len(factors))
