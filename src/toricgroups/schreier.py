"""Reidemeister-Schreier subgroup presentations from complete coset tables.

Given a complete coset table for a subgroup H, a breadth-first spanning
tree of the coset graph is a Schreier transversal, kept as its edges: a
coset's representative is the word along the tree path to it, so every
prefix of a representative is one (Holt, Eick & O'Brien, 2005, ch. 4).
The edge c -g-> d is a tree edge exactly when the tree edge into d reads
g or the one into c reads g^-1.  The other edges carry the Schreier
generators k*x*(bar(kx))^-1 of H, and rewriting every conjugate of every
relator through the tree produces defining relations for H.  For a
relator R = v^q, the rewrites from the cosets of one orbit of <v> are cyclic
rotations of one another, so ``rs_presentation`` keeps one per orbit: that
of its least coset (Havas, "A Reidemeister-Schreier program", 1974).

The BFS column order is configurable.  For a parent J-group on generators
(s, t, u) over the normal closure of s, the preset ``toric_column_order``
explores u first, then t, which makes the representatives exactly the
words u^i t^j; generator labels then carry the (i, j) pair so they can be
matched against closed-form expressions.  ``toric_closure_rs`` runs that
chain from the parameters (a, b, c); the derivation here and the
``derive`` result in ``classify`` both start from it; the check's shift lemma,
``chain_implies_shift``, lives in ``presentations``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import chain

from .cosets import MAX_COSETS, CosetTable, _columns, bfs_tree, normal_closure_table
from .presentations import Presentation, chain_implies_shift, cyclic_product, j_parent, toric
from .words import (Alphabet, Value, Word, check_derivation, cyclic_reduce_letters, free_reduce_letters, invert,
                    signed_table)


def toric_column_order(alphabet: Alphabet) -> list[int]:
    """Column order exploring u first, then t, then s.

    Over the normal closure of s in a parent J-group this reproduces the
    transversal {u^i t^j}: u chains are laid down first, then t chains off
    each u power.
    """
    names = list(alphabet.names)
    for required in ("s", "t", "u"):
        if required not in names:
            raise ValueError("toric column order needs generators s, t, u")
    pref = [names.index("u"), names.index("t"), names.index("s")]
    pref += [i for i in range(len(names)) if i not in pref]
    return [2 * i for i in pref]


def schreier_transversal(ct: CosetTable, column_order: Sequence[int] | None = None) -> list[tuple[int, int, int]]:
    """The Schreier transversal as its BFS spanning tree: the edges
    (parent, column, child) in BFS order, as ``cosets.bfs_tree`` returns.

    The default order walks the positive generator columns in alphabet
    order; in a complete table every column is a permutation, so positive
    words already reach every coset.  A custom ``column_order`` (distinct
    table columns, which ``bfs_tree`` checks) changes which representatives
    are found; it must still span the coset graph.
    """
    if not ct.complete:
        raise ValueError("coset table is not complete")
    if column_order is None:
        column_order = [2 * i for i in range(len(ct.alphabet))]
    return bfs_tree(ct, column_order)


class SubgroupGenerator(Value):
    """A Schreier generator with its provenance: the word k * x * (bar(kx))^-1
    in the ambient group, where k is the representative of ``coset`` and x
    the generator named ``gen_name``.  Its own name is the letter of the RS
    alphabet at its position in ``RSResult.generators``."""

    __slots__ = ("coset", "gen_name")


class RSResult(Value):
    __slots__ = ("presentation", "generators")


def toric_coset_labels(alphabet: Alphabet, tree: Iterable[tuple[int, int, int]]) -> dict[int, tuple[int, int]]:
    """The (i, j) of each coset whose representative is u^i t^j, read down
    the tree: the parent's pair plus one u or t edge.  A representative of
    any other shape is spelled only for its ValueError."""
    u, t = 2 * alphabet.index("u"), 2 * alphabet.index("t")
    labels = {0: (0, 0)}
    for a, col, b in tree:
        i, j = labels[a]
        if col == t:
            labels[b] = (i, j + 1)
        elif col == u and j == 0:
            labels[b] = (i + 1, 0)
        else:
            g = col // 2 + 1
            rep = Word(alphabet, (u // 2 + 1,) * i + (t // 2 + 1,) * j + (-g if col % 2 else g,))
            raise ValueError(f"representative {rep} is not of the form u^i t^j")
    return labels


def rs_presentation(p: Presentation, ct: CosetTable, tree: Iterable[tuple[int, int, int]],
                    namer: Callable[[int, str], str] | None = None) -> RSResult:
    """Subgroup presentation on the nontrivial Schreier generators.

    Relators are the rewrites of k R k^-1 for the relators R of p and the
    representatives k, processed in coset-index order, freely reduced, with
    tree (trivial) generators dropped.  When R = v^q for a primitive root v,
    the rewrites from cosets c and c.v are, before free reduction, cyclic
    rotations of each other, so R is rewritten only from the least coset of
    each orbit of <v>; an empty or non-power relator is rewritten from every
    coset.  The relators kept are thus a subsequence of the all-cosets list,
    each the earliest of its rotation class, with the same normal closure.

    ``tree`` is the spanning tree ``schreier_transversal`` returns, and
    ``into[c]`` the column of its edge into c.  The edge from c by generator
    g to d is a tree edge exactly when ``into[d] == 2g`` or ``into[c] ==
    2g + 1`` (every column is a permutation, so an edge into d by g comes
    from c): exactly the edges whose Schreier generator is freely trivial.
    """
    if not ct.complete:
        raise ValueError("coset table is not complete")
    if namer is None:
        namer = lambda coset, gen: f"{gen}_c{coset}"

    columns = ct.columns
    ngens = len(p.alphabet)
    into = [-1] * ct.num_cosets
    for _, col, b in tree:
        into[b] = col
    sub_gens: list[SubgroupGenerator] = []
    # gen_at[col][q]: the signed Schreier generator read along the edge from
    # coset q by table column col, 0 on a tree edge
    gen_at = [[0] * ct.num_cosets for _ in range(2 * ngens)]
    for c in range(ct.num_cosets):
        for g in range(ngens):
            dest = columns[2 * g][c]
            if into[dest] == 2 * g or into[c] == 2 * g + 1:
                continue
            sub_gens.append(SubgroupGenerator(c, p.alphabet.names[g]))
            gen_at[2 * g][c] = len(sub_gens)
            gen_at[2 * g + 1][dest] = -len(sub_gens)

    sub_alphabet = Alphabet([namer(g.coset, g.gen_name) for g in sub_gens])

    # leaders[i][c]: c is the least coset of its orbit under the root of relator i
    leaders: list[list[bool]] = []
    for r in p.relators:
        root = _primitive_root(r.letters)
        lead = [True] * ct.num_cosets
        if len(root) < len(r.letters):  # a non-power has one-coset orbits
            v = Word(p.alphabet, root)
            for c in range(ct.num_cosets):
                if lead[c]:
                    d = ct.trace(c, v)
                    while d != c:
                        lead[d] = False
                        d = ct.trace(d, v)
        leaders.append(lead)

    # each relator as the pairs (gen_at[col], columns[col]) of its letters
    paths = [[(gen_at[col], columns[col]) for col in _columns(r)] for r in p.relators]
    relators: list[Word] = []
    for c in range(ct.num_cosets):
        for path, lead in zip(paths, leaders):
            if lead[c]:
                out: list[int] = []
                q = c
                for gens, column in path:
                    if gens[q]:
                        out.append(gens[q])
                    q = column[q]
                out = free_reduce_letters(out)
                if out:
                    relators.append(Word(sub_alphabet, tuple(out)))
    return RSResult(Presentation(sub_alphabet, tuple(relators)), tuple(sub_gens))


def _primitive_root(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The shortest v with letters = v^q; an empty word is its own root."""
    n = len(letters)
    for p in range(1, n):
        if n % p == 0 and letters == letters[:p] * (n // p):
            return letters[:p]
    return letters


def _rotation_key(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of a cyclically reduced word or of its inverse.

    It starts with the least letter of either, so only those rotations are
    compared."""
    if not letters:
        return ()
    inverse = tuple(-x for x in reversed(letters))
    low = min(min(letters), min(inverse))
    return min(w[k:] + w[:k] for w in (letters, inverse) for k in range(len(w)) if w[k] == low)


# --- closed-form Schreier generators for the toric transversal --------------


def _s_alphabet(n: int) -> Alphabet:
    return Alphabet([f"s{i}" for i in range(n)])


def _closed_form_walks(n: int, m: int, which: str, ell: int, p: int) -> tuple[int, ...]:
    """``closed_form_generator``'s word as the ends of three walks (see
    ``_join_walks``): the prefix x_1 ... x_{ell+1}, the middle letter and
    the inverse prefix."""
    if which not in ("s", "u"):
        raise ValueError("which must be 's' or 'u'")
    if not 0 <= ell <= m - 1:
        raise ValueError(f"ell out of range: {ell}")
    top = n if which == "s" else n - 1
    if not 1 <= p <= top:
        raise ValueError(f"p out of range for the {which} family: {p}")
    middle = (p + ell) % n + 1
    if which == "s":
        return 0, ell + 1, middle - 1, middle, ell + 1, 0
    return 0, ell + 1, middle, middle - 1, ell, 0


# A walk from start to end spells the word read along the line of integers,
# where the step from k to k + 1 reads x_{k mod n + 1} and the step back
# reads its inverse.  The prefix x_1 ... x_l of the periodic word x_1 x_2 x_3
# ... (indices mod n) is the walk from 0 to l, its inverse the walk from l to
# 0, and the letter x_j^{+-1} the walk from j - 1 to j or back.  A product of
# walks is the flat sequence of their ends, start, end, start, end, ...; read
# backwards, it is the inverse product.  A step's letter depends only on its
# position mod n, so a walk may be shifted by a multiple of n; the line is a
# tree, so a walk reduces freely to the straight path between its ends.


def _join_walks(ends: Iterable[int], n: int) -> list[tuple[int, int]]:
    """The free reduction of a product of walks, as (start, end) pairs.

    Consecutive walks whose ends agree mod n join into one, shifted to
    continue the first; a walk that returns to its start, given or joined,
    is the empty word and is dropped.  Where the ends differ mod n, the
    last letter of one walk and the first of the next are not inverse, so
    nothing cancels and the product of the walks left is freely reduced.
    The cost is one step per walk, whatever the walks' lengths.
    """
    stack: list[tuple[int, int]] = []
    pairs = iter(ends)
    for start, end in zip(pairs, pairs):
        if start == end:
            continue
        if stack and (stack[-1][1] - start) % n == 0:
            first, last = stack[-1]
            end += last - start
            if first == end:
                stack.pop()
            else:
                stack[-1] = (first, end)
        else:
            stack.append((start, end))
    return stack


def _cyclic_walks(walks: list[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """``cyclic_reduce_letters`` on freely reduced walks, trimmed in place:
    the letters of the first and the last walk are trimmed while they are
    inverse, which is while the first starts where the last ends (mod n)
    and the two run in opposite directions."""
    i, j = 0, len(walks) - 1
    while i < j:
        (s, e), (s2, e2) = walks[i], walks[j]
        if (s - e2) % n or (s < e) == (s2 < e2):
            break
        k = min(abs(e - s), abs(e2 - s2)) * (1 if s < e else -1)
        walks[i], walks[j] = (s + k, e), (s2, e2 + k)
        i += s + k == e
        j -= e2 + k == s2
    return walks[i:j + 1]


def _walk_letters(walks: Iterable[tuple[int, int]], n: int) -> tuple[int, ...]:
    """The letters the walks spell."""
    return tuple(chain.from_iterable(
        (k % n + 1 for k in range(s, e)) if s < e else (-((k - 1) % n) - 1 for k in range(s, e, -1))
        for s, e in walks))


def closed_form_generator(k: int, n: int, m: int, which: str, ell: int, p: int) -> Word:
    """Closed form of a Schreier generator over s_0, ..., s_{n-1}.

    For the normal closure of s in the parent J-group with parameters
    (k, n, m) and the u-then-t transversal, the generator at coset
    (m-1-ell, p-1) in the s family is the conjugate

        s_0 s_1 ... s_ell  s_{p+ell}  s_ell^-1 ... s_0^-1,

    and the generator at coset (m-1-ell, p) in the u family is

        s_0 s_1 ... s_ell  s_{p+ell}^-1  s_{ell-1}^-1 ... s_0^-1,

    with s indices taken modulo n.  Ranges: 0 <= ell <= m-1, and
    1 <= p <= n for the s family, 1 <= p <= n-1 for the u family.
    """
    return Word(_s_alphabet(n), _walk_letters(_join_walks(_closed_form_walks(n, m, which, ell, p), n), n))


# --- relation equivalence as explicit derivations ---------------------------


def _shift_letters(n: int, m: int, i: int) -> tuple[int, ...]:
    """The letters of the i-th shift relator x_i d x_{i+m}^-1 d^-1, freely reduced."""
    delta = cyclic_product(n, 0, m)
    return tuple(free_reduce_letters([i, *delta, -((i + m - 1) % n + 1), *(-x for x in reversed(delta))]))


def cyclic_canonical(w: Word) -> tuple[int, ...]:
    """Canonical letter tuple among all rotations of a relator and its inverse."""
    return _rotation_key(cyclic_reduce_letters(w.letters))


def toric_closure_rs(a: int, b: int, c: int, max_cosets: int = MAX_COSETS
                     ) -> tuple[dict[int, tuple[int, int]], RSResult] | None:
    """Reidemeister-Schreier for the normal closure of s in the parent J(a,b,c).

    Enumerates the cosets of the closure, takes the {u^i t^j} transversal
    and names each Schreier generator ``{gen}_{i}_{j}`` after the
    representative of its coset.  Returns the (i, j) label of every coset
    (one per coset, so their count is the index) and the RS result, or None
    when the enumeration overflows ``max_cosets``.
    """
    parent = j_parent(a, b, c)
    table = normal_closure_table(parent, [parent.alphabet.word("s")], max_cosets=max_cosets)
    if not table.complete:
        return None
    tree = schreier_transversal(table, toric_column_order(parent.alphabet))
    labels = toric_coset_labels(parent.alphabet, tree)
    rs = rs_presentation(parent, table, tree, namer=lambda c_, g: f"{g}_{labels[c_][0]}_{labels[c_][1]}")
    return labels, rs


def check_toric_presentation(k: int, n: int, m: int, labels: dict[int, tuple[int, int]],
                             rs: RSResult) -> Presentation:
    """The toric presentation of ncl(s), checked against the RS presentation.

    Substitutes the closed form of every Schreier generator (a word in
    s_0..s_{n-1}) into the RS relators of ``toric_closure_rs(k, n, m)`` and
    reduces.  The surviving relators are checked to be, up to rotation and
    inversion, exactly the toric relators plus shift relators
    x_i d = d x_{i+m} (d the m-factor product); each shift relator is
    deleted only after its derivation from the chain relators has been
    machine-checked.  Returns the toric presentation on the renamed
    generators s_i = x_{i+1}.  A failed check raises AssertionError.
    """
    # letter x to the walks of the closed form of generator x, entry -x (from
    # the end) to those of its inverse; where two images meet, the walks
    # P'^-1 and Q of their prefixes join into one, so a relator costs its
    # length plus its rewritten length, not m letters per letter
    images: list[tuple[int, ...]] = []
    for g in rs.generators:
        i, j = labels[g.coset]
        if g.gen_name == "s":
            images.append(_closed_form_walks(n, m, "s", m - 1 - i, j + 1))
        elif g.gen_name == "u" and j != 0:
            images.append(_closed_form_walks(n, m, "u", m - 1 - i, j))
        else:  # u at j = 0 and the t wrap generators are trivial in the subgroup
            images.append(())
    subst = signed_table(images, lambda ends: ends[::-1])

    target = _s_alphabet(n)  # for the messages and the result
    reference = toric(k, n, m)
    ref_keys = {_rotation_key(cyclic_reduce_letters(r.letters)) for r in reference.relators}
    chains = reference.relators[n:]  # after the n power relators x_i^k
    shift_keys = {_rotation_key(cyclic_reduce_letters(_shift_letters(n, m, i))): i for i in range(1, n + 1)}
    found: set[tuple[int, ...]] = set()
    rewritten = {()}  # most relators rewrite to 1 or to a rewrite already met
    for r in rs.presentation.relators:
        walks = tuple(_cyclic_walks(_join_walks(chain.from_iterable(map(subst.__getitem__, r.letters)), n), n))
        if walks in rewritten:
            continue
        rewritten.add(walks)
        w = _walk_letters(walks, n)
        key = _rotation_key(w)
        if key in found:
            continue
        found.add(key)
        if key in shift_keys:
            d = chain_implies_shift(reference.alphabet, m, shift_keys[key])
            try:
                end = check_derivation(d, chains)  # justified deletion
            except ValueError as e:  # a fault of this derivation, not of the input
                raise AssertionError(f"derivation of {Word(target, w)}: {e}") from e
            if cyclic_canonical(d.start * invert(end)) != key:
                raise AssertionError(f"the derivation cited for {Word(target, w)} derives another relator")
        elif key not in ref_keys:
            raise AssertionError(f"unexpected relator {Word(target, w)} in rewritten presentation")
    if not ref_keys <= found:
        raise AssertionError("rewriting did not produce every toric relator")
    return Presentation(target, tuple(Word(target, r.letters) for r in reference.relators))
