"""Exact word problem and structure queries for Coxeter systems.

The word problem engine is the minimal-root (small-root) reflection table:
the finitely many positive roots that dominate no other positive root,
together with the action of each simple reflection on them.  The set of
minimal roots a prefix sends negative is the state of a finite automaton
(Brink & Howlett, Math. Ann. 1993) and gives an exact reducedness and
descent test, from which ShortLex normal forms are computed (Casselman,
1994).  Each table numbers the sets it meets and fills in its transitions
on first use; a word keeps one state number per prefix, so deleting its
last letter is a pop, and deleting another replays the letters after it,
by lookups.  The normal form reduces the reversed word, and peels the
smallest left descent of the element off that word.  No floating point
enters any decision (root coordinates live in a real cyclotomic ring, and
the one inequality in the table construction uses certified sign
determination).

Structure queries cover the spherical/affine/hyperbolic trichotomy of
triangle groups, maximal finite standard parabolic subgroups (by the
closed form for rank <= 3: an edge is finite iff its label is, a triangle
iff 1/k + 1/n + 1/m > 1), and a center check for the alternating subgroup
of the finite triangle groups, read from one table of conjugations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from threading import Lock

from .cosets import MAX_COSETS, CayleyTable, todd_coxeter
from .cyclo import Cyc, dot, label_modulus, sign_real, two_cos_pi_over
from .presentations import coxeter_triangle
from .words import Alphabet, Value, Word, _set


class CoxeterMatrix(Value):
    """Symmetric matrix of braid labels; diagonal 1, off-diagonal >= 2 or None."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[tuple[int | None, ...], ...]):
        _set(self, "labels", labels)
        n = len(labels)
        for i, row in enumerate(labels):
            if len(row) != n:
                raise ValueError("matrix must be square")
            if row[i] != 1:
                raise ValueError("diagonal labels must be 1")
            for j, v in enumerate(row):
                if v != labels[j][i]:
                    raise ValueError("matrix must be symmetric")
                if i != j and v is not None and v < 2:
                    raise ValueError("off-diagonal labels must be >= 2 (or None)")

    @property
    def rank(self) -> int:
        return len(self.labels)

    @staticmethod
    def triangle(k: int, n: int, m: int) -> "CoxeterMatrix":
        """Rank-3 system with m(r1,r2) = k, m(r2,r3) = n, m(r3,r1) = m."""
        if min(k, n, m) < 2:
            raise ValueError("triangle labels must be >= 2")
        return CoxeterMatrix(((1, k, m), (k, 1, n), (m, n, 1)))

    def alphabet(self) -> Alphabet:
        return Alphabet([f"r{i + 1}" for i in range(self.rank)])

    def gram(self, modulus: int) -> list[list[Cyc]]:
        """Twice the bilinear form, 2B(a_s, a_t) = -2 cos(pi / m(s,t)), in
        Z[zeta_modulus]: 2 on the diagonal and -2 for label infinity.
        Doubling keeps every entry, and so every root coordinate, integral."""
        n = self.rank
        out: list[list[Cyc]] = []
        for i in range(n):
            row = []
            for j in range(n):
                v = self.labels[i][j]
                if i == j:
                    row.append(Cyc.rational(2, modulus))
                elif v is None:
                    row.append(Cyc.rational(-2, modulus))
                else:
                    row.append(-two_cos_pi_over(v, modulus))
            out.append(row)
        return out


_NEGATIVE = -1
_ELEVATED = -2
# entries of a table's transitions that name no state
_DESCENT = -1
_UNSEEN = -2


class MinimalRootTable:
    """Minimal roots of a Coxeter system with the simple-reflection action.

    ``action[r][s]`` is the index of s(root r), or ``_NEGATIVE`` when
    root r is the s-th simple root (sent negative), or ``_ELEVATED`` when
    the image dominates a simple root and leaves the minimal set.

    The word problem walks the automaton of Brink & Howlett (Math. Ann.
    1993): the state of a reduced prefix is the set of minimal roots that
    it sends negative, and a table has finitely many.  State i is the set
    ``_sets[i]``, numbered in order of first use from the empty set, 0.
    ``_next[i][s]`` is the state after appending s, or ``_DESCENT`` when
    a_s is in the set (s is a right descent), or ``_UNSEEN`` until that
    transition is first used.  The memo gains at most one set per letter
    processed, and a written entry never changes, so every caller of a
    shared table reads the same automaton.  ``nf`` reduces the reversed
    word and peels from its prefix states; there and in ``reduce_word``, a
    deletion of the last letter is a pop.
    """

    def __init__(self, cm: CoxeterMatrix):
        self.cm = cm
        self.rank = cm.rank
        self.alphabet = cm.alphabet()
        # one fixed modulus for every coordinate, so equal values always
        # have identical canonical forms (roots are dictionary keys); it is
        # checked against the degree cap before any value is built.  The
        # finite labels are taken edge by edge around the diagram, so a
        # triangle's are k, n, m as ``CoxeterMatrix.triangle`` takes them.
        labels = cm.labels
        modulus = label_modulus(*(v for d in range(1, self.rank) for i in range(self.rank - d)
                                  if (v := labels[i][i + d]) is not None))
        gram = cm.gram(modulus)
        one = Cyc.one(modulus)
        zero = Cyc.zero(modulus)

        def bform(coords: tuple[Cyc, ...], s: int) -> Cyc:
            return dot(tuple(zip(coords, gram[s])))

        simples = []
        for s in range(self.rank):
            v = [zero] * self.rank
            v[s] = one
            simples.append(tuple(v))
        self.roots: list[tuple[Cyc, ...]] = list(simples)
        index = {r: i for i, r in enumerate(simples)}
        self.action: list[list[int]] = []
        r = 0
        while r < len(self.roots):
            coords = self.roots[r]
            row = []
            for s in range(self.rank):
                if coords == simples[s]:
                    row.append(_NEGATIVE)
                    continue
                b = bform(coords, s)  # 2B(root, a_s); s(root) = root - b a_s
                sgn_b = sign_real(b)
                if sgn_b == 0:
                    row.append(r)
                    continue
                if sgn_b < 0 and sign_real(b + 2) <= 0:
                    # image dominates the simple root of s: not minimal
                    row.append(_ELEVATED)
                    continue
                if sgn_b > 0 and sign_real(b - 2) >= 0:
                    raise AssertionError("minimal root with inner product >= 1")
                img = coords[:s] + (coords[s] - b,) + coords[s + 1:]
                if img not in index:
                    index[img] = len(self.roots)
                    self.roots.append(img)
                row.append(index[img])
            self.action.append(row)
            r += 1
        self._sets: list[frozenset[int]] = [frozenset()]
        self._ids: dict[frozenset[int], int] = {frozenset(): 0}
        self._next: list[list[int]] = [[_UNSEEN] * self.rank]
        self._lock = Lock()  # numbers each new set once

    def __len__(self) -> int:
        return len(self.roots)

    # -- the word problem -----------------------------------------------------

    def _letters(self, w: Word) -> list[int]:
        # generators are involutions; inverse letters act identically
        return [abs(x) - 1 for x in w.letters]

    def _transition(self, i: int, s: int) -> int:
        """The state after appending letter s, not a descent, to a prefix in
        state i: the images of the set's roots that stay minimal, and a_s.
        Computed on first use, numbered if the set is new, and kept."""
        action = self.action
        # _ELEVATED images leave the minimal set; _NEGATIVE cannot occur
        # because s is not a descent, so a_s is not in the set
        new = frozenset([s, *(img for root in self._sets[i] if (img := action[root][s]) >= 0)])
        with self._lock:
            j = self._ids.get(new)
            if j is None:
                j = self._ids[new] = len(self._sets)
                self._sets.append(new)
                self._next.append([_DESCENT if t in new else _UNSEEN for t in range(self.rank)])
            self._next[i][s] = j
        return j

    def _delete(self, word: list[int], states: list[int], s: int) -> None:
        """Delete the letter that created a_s from a reduced word whose state
        holds a_s, and replay the states after it by transition lookups
        (``states[i]`` belongs to ``word[:i]``).  Walking back, a root is
        either the simple root of the letter before it, which created it, or
        the image under that letter of a root of the shorter prefix."""
        action = self.action
        at = len(word) - 1
        root = s
        while root != word[at]:
            root = action[root][word[at]]
            at -= 1
        del word[at]
        del states[at + 1:]
        nxt = self._next
        i = states[-1]
        for t in word[at:]:
            j = nxt[i][t]
            if j < 0:
                j = self._transition(i, t)
            states.append(j)
            i = j

    def _reduce(self, letters: list[int], states: list[int]) -> list[int]:
        """A reduced word for the product of ``letters``; ``states`` is [0] on
        entry and holds the state of every prefix of the result on exit."""
        word: list[int] = []
        nxt = self._next
        i = 0
        for s in letters:
            j = nxt[i][s]
            if j == _DESCENT:  # right descent: w s deletes the creating letter
                if word[-1] == s:
                    word.pop()
                    states.pop()
                else:
                    self._delete(word, states, s)
                i = states[-1]
                continue
            if j == _UNSEEN:
                j = self._transition(i, s)
            states.append(j)
            word.append(s)
            i = j
        return word

    def reduce_word(self, w: Word) -> list[int]:
        """A reduced word (letter list) for the element of w."""
        return self._reduce(self._letters(w), [0])

    def nf(self, w: Word) -> Word:
        """ShortLex-minimal normal form (r1 < r2 < ...)."""
        # the right descents of a reduced word for the inverse are the left
        # descents of the element; peel off the smallest one at a time
        states = [0]
        v_inv = self._reduce(self._letters(w)[::-1], states)
        nxt = self._next
        out: list[int] = []
        while v_inv:
            s = nxt[states[-1]].index(_DESCENT)
            out.append(s)
            if v_inv[-1] == s:
                v_inv.pop()
                states.pop()
            else:
                self._delete(v_inv, states, s)
        return Word(self.alphabet, tuple(s + 1 for s in out))

    def is_identity(self, w: Word) -> bool:
        return not self.reduce_word(w)


def parity(w: Word) -> str:
    """Length parity; well defined since all defining relators have even length."""
    return "even" if len(w.letters) % 2 == 0 else "odd"


@lru_cache(maxsize=None, typed=True)  # an int label and an equal float are different keys
def triangle_table(k: int, n: int, m: int) -> MinimalRootTable:
    """The minimal-root table of the (k, n, m) triangle group, built once
    per process.  Its roots and action never change after the build; its
    automaton grows by transitions that no later caller sees change, so
    every caller may share it.  Labels whose cyclotomic field is past
    ``cyclo.MAX_DEGREE`` raise ValueError, and nothing is cached for them."""
    return MinimalRootTable(CoxeterMatrix.triangle(k, n, m))


def word_problem(k: int, n: int, m: int, text: str) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``wp coxeter``: the ShortLex normal form
    of the word ``text`` over r1, r2, r3 in the (k, n, m) triangle group."""
    table = triangle_table(k, n, m)
    normal = table.nf(table.alphabet.word(text))
    return {"normal_form": str(normal), "identity": not normal.letters, "length": len(normal.letters),
            "parity": parity(normal)}, "ok", []


def _curvature(k: int, n: int, m: int) -> int:
    """kmn (1/k + 1/n + 1/m - 1): its sign is that of the curvature."""
    return n * m + k * m + k * n - k * n * m


def classify_triangle(k: int, n: int, m: int) -> str:
    """spherical, affine, or hyperbolic by the curvature of 1/k + 1/n + 1/m: the one finiteness
    rule, as a coprime toric row is finite exactly when its triangle is spherical.  ``wp toric``,
    ``derive`` and ``center_check_plus`` read it; ``classify`` and ``sweep`` read the curvature
    itself, since its value also gives a finite row's orders."""
    if min(k, n, m) < 2:
        raise ValueError("labels must be >= 2")
    return _geometry(_curvature(k, n, m))


def _geometry(curvature: int) -> str:
    """spherical, affine, or hyperbolic by the sign of a ``_curvature`` value."""
    return "spherical" if curvature > 0 else "affine" if curvature == 0 else "hyperbolic"


class ParabolicReport(Value):
    # verdicts: subset -> finite?; rotation_orders: the rank-2 members of M_W, each with its label
    __slots__ = ("verdicts", "maximal_finite", "rotation_orders")


def maximal_finite_parabolics(cm: CoxeterMatrix) -> ParabolicReport:
    """Finiteness verdict per standard parabolic, and the maximal finite ones.

    Closed form for rank <= 3 (Humphreys, Reflection Groups and Coxeter
    Groups, 1990): a subset of size <= 1 is finite, a pair iff its label is
    finite, and the triple iff every label is finite and 1/k + 1/n + 1/m > 1.
    For an infinite rank-3 triangle the maximal finite subsets are the three
    pairs, whose rotation subgroups are cyclic of the three edge orders.
    No command calls it (``classify`` reads the orders off the labels); it
    stays as the reference those orders are tested against, and because the
    benchmark's traced run wraps it by name.
    """
    n = cm.rank
    if n > 3:
        raise ValueError("parabolic verdicts are implemented for rank <= 3")
    verdicts: list[tuple[tuple[int, ...], bool]] = []
    finite: dict[tuple[int, ...], bool] = {}
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            edges = [cm.labels[i][j] for i, j in combinations(subset, 2)]
            ok = None not in edges and (size < 3 or _curvature(*edges) > 0)
            finite[subset] = ok
            verdicts.append((subset, ok))
    maximal = [
        subset
        for subset, ok in verdicts
        if ok
        and all(
            not finite[bigger]
            for bigger in finite
            if len(bigger) == len(subset) + 1 and set(subset) <= set(bigger)
        )
    ]
    rotation = [(subset, cm.labels[subset[0]][subset[1]]) for subset in maximal if len(subset) == 2]
    return ParabolicReport(tuple(verdicts), tuple(maximal), tuple(rotation))


class CenterReport(Value):
    # z_w_lengths: the generator-lengths of the elements of Z(W)
    __slots__ = ("group_order", "z_w_order", "z_w_plus_order", "contained", "z_w_lengths")


def center_check_plus(cm: CoxeterMatrix, max_cosets: int = MAX_COSETS) -> CenterReport:
    """Check, element by element, that Z(W+) is contained in Z(W), for finite W.

    Raises ValueError for infinite systems; containment in the infinite
    irreducible case is a theorem, not an exhaustible computation.  No
    command calls it; it stays as the paper's check Z(W+) <= Z(W), which the
    acceptance tests pin and demo 04 prints.
    """
    if cm.rank != 3:
        raise ValueError("center check implemented for rank-3 triangles")
    k = cm.labels[0][1]
    n = cm.labels[1][2]
    m = cm.labels[2][0]
    if None in (k, n, m) or classify_triangle(k, n, m) != "spherical":
        raise ValueError("center check requires a finite (spherical) system")
    cayley = CayleyTable(todd_coxeter(coxeter_triangle(k, n, m), max_cosets=max_cosets))
    center = set(cayley.center())
    plus = [e for e in range(cayley.size) if cayley.length(e) % 2 == 0]
    # W+ = <r1 r2, r2 r3>, and conjugation by g h is conjugation by g, then by h
    r1, r2, r3 = cayley.conjugations
    z_plus = [e for e in plus if r2[r1[e]] == e and r3[r2[e]] == e]
    contained = all(e in center for e in z_plus)
    return CenterReport(
        group_order=cayley.size,
        z_w_order=len(center),
        z_w_plus_order=len(z_plus),
        contained=contained,
        z_w_lengths=tuple(sorted(cayley.length(e) for e in center)),
    )
