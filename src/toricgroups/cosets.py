"""Todd-Coxeter coset enumeration and derived finite-group machinery.

The enumerator follows the classical design: a table of cosets by columns
(one per generator and per inverse, one for both of an involution),
scan-and-fill relator processing, and queue-based coincidence handling
over a union-find whose roots are always the smallest equivalent index,
which keeps coset numbering deterministic (first-definition order).  Both
strategies are one walk over the rows in definition order (Havas, "Coset
enumeration strategies", 1991; Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005, ch. 5): a monotone pointer makes each
live row complete, and the rows behind it stay complete.

- ``hlt`` (default): at each row, scan-fill every relator, then define the
  row's remaining entries.
- ``felsch``: define the row's entries in column order, processing the
  deduction stack after each definition, so the table is kept closed under
  the relators.  A definition a -> b stacks one deduction, b's entry in
  the inverse column: the relator cycles through the new edge are the
  same read from either end, since the rotations of each relator's inverse
  are checked too.

One scan loop, ``_Enumerator.scan``, serves both, in one frame per row.
Its two callers differ only at a gap of two or more letters: the
scan-fill of a row (the HLT relators, and the subgroup generators at
coset 0) defines cosets there, with the definitions inlined, while the
HLT lookahead and Felsch's deductions leave it open.

The table is stored column-major: one Python list per column, indexed by
coset, with ``None`` where the entry is undefined, and no per-coset row
object.  An involution, a generator g with a relator whose free reduction
is g^2 or g^-2, has one list for its two columns, as in ACE (Havas &
Ramsay): every edge a -> b by g is stored with its mirror b -> a in the
same list, so g acts as an involution by construction, its relator is
never scanned (it stays in the validation of a complete table), and the
table holds one list fewer per involution.  Every generator of a Coxeter
triangle group is one, as are s in J(2,b,c) and the meridians of a toric
row with k = 2.  Each relator and subgroup generator is bound once to the
column lists it reads forwards and backwards, so a scan step is one list
index.
Compaction renumbers the live cosets in order inside the same lists: a
live coset's new index is at most its old one, so each column is rewritten
over its own prefix and truncated, and the bindings stay valid.  The
result's final numbering, a compaction and then a copy of each column into
a tuple, is made on the first read of ``CosetTable.columns``: at once for a
complete table, which is then validated, and for an overflow only if its
columns are read.

One overflow rule bounds both strategies, checked at the end of each row.
If more than ``max_cosets`` cosets are live, Felsch stops with an
``overflow`` status at once: its deductions have already closed every gap
a lookahead would find.  HLT first runs a lookahead pass (scan every
relator without defining at every coset from the walk's pointer on) and
goes on after compacting only if at most 9/10 of ``max_cosets`` are then
live; otherwise it stops with ``overflow``.  The rows behind the pointer
need no lookahead scan: each had every relator scan-filled, so its
relator paths are closed, and definitions, deductions and coincidences
keep closed paths closed, so a scan there would change nothing.  A pass
that frees less than a tenth of the bound buys less than a tenth of a
bound's worth of new rows before the next pass over the table, so on an
infinite group the passes would repeat at a growing cost for little
progress.  An HLT overflow therefore holds between 9/10 of ``max_cosets``
and one row's definitions past it; a row defines at most one coset per
column list, so a Felsch overflow holds at most ``max_cosets + 2 * ngens``
cosets, and an involution's shared list only lowers that.  Overflow is a
result, not an error; infinite groups are the common case in this domain.
Its answer is a count, the live cosets at the stop, so the walk's lists
are neither renumbered nor copied to give it: at the default bound that
would add half again to the walk's memory.

A complete table over the trivial subgroup doubles as a regular Cayley
table, from which element orders, conjugacy classes and reflection-class
counts of the finite quotients are read off.  The coset table of a normal
closure ncl(S) is such a table too: the regular representation of G/ncl(S),
enumerated from the relators plus S (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005, ch. 5).  It needs only G/ncl(S) to be
finite, so it completes over infinite parents.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property

from .presentations import FamilyParams, Presentation, build
from .words import Value, Word, free_reduce

Columns = tuple[tuple[int | None, ...], ...]

# The default bound on live cosets of every enumeration.
MAX_COSETS = 10**6


def _columns(w: Word) -> tuple[int, ...]:
    """Translate a word into column indices: gen i -> 2i, inverse -> 2i+1."""
    return tuple(2 * (abs(x) - 1) + (0 if x > 0 else 1) for x in w.letters)


class EnumStats(Value):
    """What one enumeration did; the counts repeat exactly for fixed inputs.

    Coset 0 exists from the start, ``defined`` cosets were added and
    ``coincidences`` merged away, so ``1 + defined - coincidences`` are live
    at the end: the table's ``num_cosets``.  ``peak_live`` is the largest
    live count at any moment.  ``lookahead_passes`` HLT lookaheads freed
    ``lookahead_freed`` cosets between them.  ``compactions`` counts the
    renumberings of the live cosets, the final one included, though that
    one is made only when the table's ``columns`` are first read (at once
    for a complete table).
    ``deductions`` counts the entries that a scan filled by closing a gap
    of one letter.  An involution's relator is never scanned and its one
    column fills both directions of an edge at once, so on a presentation
    with one every count but ``num_cosets`` of a complete table can differ
    from a two-column enumeration of it.
    """

    __slots__ = ("defined", "coincidences", "peak_live", "lookahead_passes", "lookahead_freed", "compactions",
                 "deductions")

    def __init__(self, defined: int, coincidences: int, peak_live: int, lookahead_passes: int,
                 lookahead_freed: int, compactions: int, deductions: int):
        super().__init__(defined, coincidences, peak_live, lookahead_passes, lookahead_freed, compactions,
                         deductions)


class CosetTable:
    """A completed (or overflowed) enumeration result.

    Read it through ``trace``, which acts by a word.  Coset 0 is the subgroup
    itself.  ``columns[col][c]`` is the coset reached from c by the
    column's letter (generator i at column 2i, its inverse at 2i + 1); for
    a complete table every column is a permutation of the cosets.
    ``columns`` may be given as a function that returns it: it is called on
    the first read of ``columns``, and the result is kept.  ``stats`` holds
    the enumerator's counts.
    """

    def __init__(self, alphabet: "object", columns: Columns | Callable[[], Columns], num_cosets: int,
                 status: str, bound: int, subgroup_gens: tuple[Word, ...], stats: EnumStats | None = None):
        self.alphabet = alphabet
        self._source = columns
        self.num_cosets = num_cosets
        self.status = status  # "complete" | "overflow"
        self.bound = bound
        self.subgroup_gens = subgroup_gens
        self.stats = stats

    @cached_property
    def columns(self) -> Columns:
        columns, self._source = self._source, None
        return columns() if callable(columns) else columns

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def trace(self, coset: int, w: Word) -> int:
        columns = self.columns
        for x in w.letters:
            coset = columns[2 * x - 2 if x > 0 else -2 * x - 1][coset]
            if coset is None:
                raise ValueError("table entry undefined (table not complete)")
        return coset


class _Enumerator:
    """The state of one enumeration: the table by columns and a union-find.

    ``cols[col]`` is a list indexed by coset, ``None`` where undefined;
    an involution's two columns 2i and 2i + 1 are the same list, so every
    loop that appends to or rewrites the lists runs over ``lists``, each
    distinct list once, and a path reads an involution's letters as column
    2i (``canon``).  ``inverse[col]`` is the column of the inverse letter,
    ``col`` itself for an involution.  A relator (or subgroup generator)
    is bound once to the column lists its letters read forwards and
    backwards, so a scan step is one list index.  The lists are only ever
    appended to and rewritten in place, which keeps those bindings valid.
    ``scan`` is the one loop over a bound path: the row walk calls it with
    ``fill`` to scan-fill a row, and the lookahead and ``deduce`` call it
    without.
    """

    def __init__(self, p: Presentation, subgens: Sequence[Word], max_cosets: int, strategy: str):
        self.alphabet = p.alphabet
        self.ncols = 2 * len(p.alphabet)
        for w in subgens:
            if w.alphabet != p.alphabet:
                raise ValueError("subgroup generator over wrong alphabet")
        if strategy not in ("hlt", "felsch"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.max_cosets = max_cosets
        # an involution's relator holds by construction: it is not scanned
        self.relcols = [_columns(free_reduce(r)) for r in p.relators]
        squares = {cols for cols in self.relcols if len(cols) == 2 and cols[0] == cols[1]}
        involutions = {cols[0] // 2 for cols in squares}
        self.canon = [c & ~1 if c // 2 in involutions else c for c in range(self.ncols)]
        self.inverse = [self.canon[c ^ 1] for c in range(self.ncols)]
        self.own = [c for c in range(self.ncols) if self.canon[c] == c]
        self.cols: list[list[int | None]] = []
        for g in range(len(p.alphabet)):
            self.cols += [[None]] * 2 if g in involutions else [[None], [None]]
        self.lists = [self.cols[c] for c in self.own]  # each distinct list once
        self.p = [0]  # union-find parent, p[i] <= i
        self.live = 1
        self.queue: deque[int] = deque()
        self.rels = [self._bind(cols) for cols in self.relcols if cols not in squares]
        self.subs = [self._bind(_columns(free_reduce(w))) for w in subgens]
        self.defined = self.coincidences = self.peak_live = self.deduced = 0
        self.lookahead_passes = self.lookahead_freed = self.compactions = 0
        # Felsch: the stack of (coset, column) entries still to be checked
        # against the cyclic rotations of each relator and its inverse that
        # start with that column (deduplicated)
        self.deductions: list[tuple[int, int]] | None = None
        if strategy == "felsch":
            self.deductions = []
            self.by_col: list[list[tuple]] = [[] for _ in range(self.ncols)]
            inverse = self.inverse
            rotations = dict.fromkeys(base[k:] + base[:k] for rel in self.rels
                                      for base in (rel[0], tuple(inverse[c] for c in reversed(rel[0])))
                                      for k in range(len(base)))
            for rot in rotations:
                self.by_col[rot[0]].append(self._bind(rot))

    def _bind(self, cols: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[list, ...], tuple[list, ...]]:
        """A path's columns, with an involution's read as its first column,
        and the lists it reads forwards and backwards."""
        cols = tuple(self.canon[c] for c in cols)
        return cols, tuple(self.cols[c] for c in cols), tuple(self.cols[c ^ 1] for c in cols)

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
        b = len(self.p)
        for column in self.lists:
            column.append(None)
        self.p.append(b)
        self.cols[col][a] = b
        self.cols[col ^ 1][b] = a
        self.live += 1
        self.defined += 1
        return b

    def _merge(self, a: int, b: int) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        self.p[hi] = lo
        # live only grows between merges, so its peak is seen here or at the end
        if self.live > self.peak_live:
            self.peak_live = self.live
        self.live -= 1
        self.coincidences += 1
        self.queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        self._merge(a, b)
        cols = self.cols
        while self.queue:
            dying = self.queue.popleft()
            for col in self.own:
                column = cols[col]
                dest = column[dying]
                if dest is None:
                    continue
                # remove the mirror edge before transferring
                mirror = cols[col ^ 1]
                mirror[dest] = None
                mu, nu = self.rep(dying), self.rep(dest)
                mu_entry = column[mu]
                if mu_entry is not None:
                    self._merge(nu, mu_entry)
                else:
                    nu_entry = mirror[nu]
                    if nu_entry is not None:
                        self._merge(mu, nu_entry)
                    else:
                        column[mu] = nu
                        mirror[nu] = mu
                        if self.deductions is not None:
                            self.deductions.append((mu, col))

    def scan(self, a: int, rels: Sequence[tuple], fill: bool = False) -> None:
        """Scan each bound path of ``rels`` from live coset a; stops when coset a dies.

        A path whose ends meet apart is closed by a coincidence, one with a
        gap of one letter by a deduction.  A longer gap is filled with new
        cosets when ``fill`` is set, so the path ends closed, and is left
        open otherwise.  The HLT walk fills the relators at each row, and
        both strategies the subgroup generators at coset 0; the lookahead
        and Felsch's deductions scan without filling.  ``define`` is
        inlined: a new coset is a fresh row of ``None`` plus the edge that
        reaches it.
        """
        p, lists, deductions = self.p, self.lists, self.deductions
        defined = 0
        for relcols, fwd, bwd in rels:
            if p[a] != a:
                break
            f = b = a
            i, j = 0, len(relcols) - 1
            while True:
                while i <= j:
                    x = fwd[i][f]
                    if x is None:
                        break
                    f = x
                    i += 1
                if i > j:
                    if f != b:
                        self.coincidence(f, b)
                    break
                while j >= i:
                    x = bwd[j][b]
                    if x is None:
                        break
                    b = x
                    j -= 1
                if j < i:
                    self.coincidence(f, b)
                    break
                if j == i:
                    fwd[i][f] = b
                    bwd[i][b] = f
                    self.deduced += 1
                    if deductions is not None:
                        deductions.append((f, relcols[i]))
                    break
                if not fill:
                    break
                c = len(p)
                for column in lists:
                    column.append(None)
                p.append(c)
                fwd[i][f] = c
                bwd[i][c] = f
                f = c
                i += 1
                self.live += 1
                defined += 1
        self.defined += defined

    def deduce(self) -> None:
        """Felsch: check stacked entries against their rotations until none is left."""
        while self.deductions:
            a, col = self.deductions.pop()
            self.scan(self.rep(a), self.by_col[col])

    # -- lookahead and compaction -------------------------------------------

    def lookahead(self, start: int) -> None:
        """Scan every relator without defining at each coset from ``start`` on.

        The rows below the pointer ``start`` need no scan: each had every
        relator scan-filled, so its relator paths are closed, and
        definitions, deductions and coincidences keep them closed.
        """
        before = self.live
        rels = self.rels
        for a in range(start, len(self.p)):
            self.scan(a, rels)
        self.lookahead_passes += 1
        self.lookahead_freed += before - self.live

    def compact(self, pointer: int = 0) -> int:
        """Renumber the live cosets in order, in place; returns the new pointer.

        The union-find list becomes the map from old to new indices (None
        for a dead coset).  A live coset's new index is at most its old
        one, so each column is rewritten over its own prefix and then
        truncated.  The returned pointer is the number of live cosets below
        ``pointer``.
        """
        remap: list[int | None] = self.p
        n = 0
        for a in range(len(remap)):
            if remap[a] == a:
                remap[a] = n
                n += 1
            else:
                remap[a] = None
        for column in self.lists:
            column[:n] = [None if x is None else remap[x] for x, new in zip(column, remap) if new is not None]
            del column[n:]
        self.p = [new for new in remap if new is not None]
        self.compactions += 1
        below = remap[:pointer]
        return len(below) - below.count(None)

    # -- the row walk --------------------------------------------------------

    def run(self) -> str:
        """Walk the rows in definition order with a monotone pointer.

        Rows behind the pointer are complete, so the walk ends complete
        when it passes the last row.  The bound is checked once per row;
        HLT then looks ahead from the pointer, since the rows behind it
        have closed relator paths.  Felsch skips the lookahead: its
        deductions have already closed every gap one would find, so its
        first excess is the overflow.
        """
        felsch = self.deductions is not None
        self.scan(0, self.subs, fill=True)
        if felsch:
            # every edge the subgroup scans laid down is a deduction
            self.deductions += [(a, col) for a in range(len(self.p)) if self.p[a] == a
                                for col in self.own if self.cols[col][a] is not None]
            self.deduce()
        rels, p, inverse = self.rels, self.p, self.inverse
        own = [(col, self.cols[col]) for col in self.own]
        a = 0
        while a < len(p):
            if not felsch:
                self.scan(a, rels, fill=True)
            for col, column in own:
                if column[a] is None:
                    if p[a] != a:
                        break
                    b = self.define(a, col)
                    if felsch:
                        # the relator cycles through the new edge are those
                        # that leave b by the inverse column
                        self.deductions.append((b, inverse[col]))
                        self.deduce()
            a += 1
            if self.live > self.max_cosets:
                if felsch:
                    return "overflow"
                self.lookahead(a)
                if 10 * self.live > 9 * self.max_cosets:
                    return "overflow"
                a = self.compact(a)
                p = self.p
        return "complete"

    def finish(self, status: str, subgens: Sequence[Word], bound: int) -> CosetTable:
        """The result of the walk, with ``columns`` computed on first read.

        A complete table is read at once, to validate it.  Callers read an
        overflow's count only, so its table is never renumbered or copied
        unless its ``columns`` are read.  ``compactions`` counts the final
        renumbering either way.
        """
        stats = EnumStats(self.defined, self.coincidences, max(self.peak_live, self.live),
                          self.lookahead_passes, self.lookahead_freed, self.compactions + 1, self.deduced)
        relcols = self.relcols
        subcols = [rel[0] for rel in self.subs]
        # drop the bindings, so each column list is freed once it is copied
        self.rels = self.subs = self.by_col = []
        table = CosetTable(self.alphabet, self.final_columns, self.live, status, bound, tuple(subgens), stats)
        if status == "complete":
            _validate(table, relcols, subcols)
        return table

    def final_columns(self) -> Columns:
        """Renumber the live cosets in order, then copy the columns into tuples."""
        self.compact()
        self.lists = []
        columns: list[tuple[int | None, ...]] = []
        while self.cols:
            column = self.cols.pop(0)
            # an involution's second column is its first
            columns.append(tuple(column) if self.canon[len(columns)] == len(columns) else columns[-1])
        return tuple(columns)


def _validate(t: CosetTable, relcols: Iterable[tuple[int, ...]], subcols: Iterable[tuple[int, ...]]) -> None:
    columns = t.columns
    cosets = list(range(t.num_cosets))
    every = set(cosets)
    for column in columns:
        if None in column:
            raise AssertionError("incomplete row in complete table")
        if len(column) != len(cosets) or set(column) != every:
            raise AssertionError("column is not a permutation")
    for cols in relcols:
        # every coset walks the relator at once, one letter at a time
        cur = cosets
        for col in cols:
            column = columns[col]
            cur = [column[x] for x in cur]
        if cur != cosets:
            raise AssertionError("relator does not act trivially")
    for cols in subcols:
        c = 0
        for col in cols:
            c = columns[col][c]
        if c != 0:
            raise AssertionError("subgroup generator moves coset 0")


def todd_coxeter(p: Presentation, subgens: Sequence[Word] = (), max_cosets: int = MAX_COSETS,
                 strategy: str = "hlt") -> CosetTable:
    """Enumerate cosets of <subgens> in the group presented by p.

    Deterministic for fixed inputs.  One row walk serves both strategies
    (see the module docstring).  ``max_cosets`` bounds the live cosets at
    the end of each row: past it HLT looks ahead, and the result is an
    overflow unless the lookahead leaves at most 9/10 of the bound live.
    ``status`` is ``"complete"`` with the index as ``num_cosets``, or
    ``"overflow"`` with the live cosets at the stop and the bound as
    ``bound``.  ``stats`` counts what the enumeration did.
    """
    e = _Enumerator(p, subgens, max_cosets, strategy)
    status = e.run()
    return e.finish(status, subgens, max_cosets)


def group_order(p: Presentation, max_cosets: int = MAX_COSETS) -> int | None:
    """Order of the presented group by HLT, or None when enumeration overflows."""
    t = todd_coxeter(p, (), max_cosets)
    return t.num_cosets if t.complete else None


def normal_closure_table(p: Presentation, seeds: Sequence[Word], max_cosets: int = MAX_COSETS,
                         strategy: str = "hlt") -> CosetTable:
    """Coset table of the normal closure N of ``seeds``.

    The cosets of N are the elements of G/N = <X | R, seeds>, so the table
    is one enumeration of that quotient over the trivial subgroup: row c
    acts on the cosets of N exactly as G does.  Complete whenever G/N is
    finite, whether or not G is.
    """
    return todd_coxeter(Presentation(p.alphabet, p.relators + tuple(seeds)), (), max_cosets, strategy)


def enumerate_record(params: FamilyParams, subgroup: str, normal_closure: bool, strategy: str,
                     max_cosets: int) -> tuple[dict, str, list[str]]:
    """Result, status and evidence of ``enumerate``.

    The order of the group that ``params`` presents, or the index of the
    subgroup generated by the semicolon-separated words of ``subgroup`` (of
    its normal closure with ``normal_closure``).  An overflow is "unknown".
    """
    pres = build(params)
    subgens = [pres.alphabet.word(part) for part in subgroup.split(";") if part.strip()]
    evidence = [f"strategy {strategy}, bound {max_cosets}"]
    if normal_closure:
        table = normal_closure_table(pres, subgens, max_cosets, strategy)
        evidence.append(f"normal closure of {len(subgens)} seed(s)")
    else:
        table = todd_coxeter(pres, subgens, max_cosets, strategy)
    key = "index" if subgens else "order"
    if not table.complete:
        evidence.append(f"overflow at bound {table.bound}")
        return {key: None, "cosets": table.num_cosets}, "unknown", evidence
    return {key: table.num_cosets, "cosets": table.num_cosets}, "ok", evidence


def _bfs_edges(t: CosetTable, column_order: Sequence[int]) -> list[tuple[int, int, int]]:
    """The edges (parent, column, child) of a breadth-first spanning tree of
    the coset graph from coset 0, in BFS order; each coset is reached first
    along the earliest column of ``column_order``."""
    seen = [False] * t.num_cosets
    seen[0] = True
    edges = []
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for col in column_order:
            b = t.columns[col][a]
            if b is not None and not seen[b]:
                seen[b] = True
                edges.append((a, col, b))
                queue.append(b)
    return edges


def bfs_transversal(t: CosetTable, column_order: Sequence[int]) -> tuple[Word, ...]:
    """The representative word of each coset, along a breadth-first
    spanning tree of the coset graph from coset 0.

    Each coset is reached first along the earliest column of
    ``column_order``, so its representative is a geodesic over those
    columns and every prefix of a representative is a representative: the
    tree edge into a coset is its representative's last letter.  Raises
    ValueError when the columns do not reach every coset.
    """
    edges = _bfs_edges(t, column_order)
    if len(edges) != t.num_cosets - 1:
        raise ValueError("column order does not span the coset graph")
    reps: list[Word] = [Word(t.alphabet, ())] * t.num_cosets
    for a, col, b in edges:
        letter = col // 2 + 1 if col % 2 == 0 else -(col // 2 + 1)
        reps[b] = Word(t.alphabet, reps[a].letters + (letter,))
    return tuple(reps)


class CayleyTable:
    """The regular action of a finite quotient, from a trivial-subgroup table.

    Elements are cosets; element i is represented by the BFS transversal
    word ``words[i]`` over the positive columns, then the negative ones (a
    geodesic, so its length is the generator-length of the element), built
    on first use.  No multiplication table is materialized: a product i * j
    is ``table.trace(i, words[j])``, and conjugation by each generator is
    one cached permutation, from which the classes and the center are read.
    """

    def __init__(self, table: CosetTable):
        if not table.complete:
            raise ValueError("need a complete table")
        if table.subgroup_gens:
            raise ValueError("Cayley table requires the trivial subgroup")
        self.table = table
        self.alphabet = table.alphabet
        self.size = table.num_cosets

    @cached_property
    def words(self) -> tuple[Word, ...]:
        ngens = len(self.alphabet)
        return bfs_transversal(self.table, [2 * i for i in range(ngens)] + [2 * i + 1 for i in range(ngens)])

    def eval(self, w: Word) -> int:
        return self.table.trace(0, w)

    def is_identity(self, w: Word) -> bool:
        return self.eval(w) == 0

    def order_of(self, w: Word) -> int:
        start = self.eval(w)
        k, cur = 1, start
        while cur != 0:
            cur = self.table.trace(cur, w)
            k += 1
        return k

    def length(self, i: int) -> int:
        return len(self.words[i])

    @cached_property
    def conjugations(self) -> list[list[int]]:
        """Per generator g, the permutation e -> g^-1 * e * g.

        Conjugation by g^-1 is the inverse permutation, so these have the
        classes and the center of all the letters' conjugations.  Left and
        right multiplication commute, so the left translate g^-1 * e is the
        translate of e's parent in a BFS tree from the identity, stepped
        along the tree edge that reaches e: two steps per element for each
        generator, and no words.
        """
        columns = self.table.columns
        edges = _bfs_edges(self.table, range(len(columns)))
        conjugations = []
        for g in range(len(self.alphabet)):
            left = [0] * self.size
            left[0] = columns[2 * g + 1][0]
            for a, c, b in edges:
                left[b] = columns[c][left[a]]
            conjugations.append([columns[2 * g][x] for x in left])
        return conjugations

    def conjugacy_class_ids(self) -> list[int]:
        """Class id per element, the least element of its class: the orbits
        of ``conjugations``."""
        conjugations = self.conjugations
        ids = [-1] * self.size
        for start in range(self.size):
            if ids[start] >= 0:
                continue
            ids[start] = start
            stack = [start]
            while stack:
                e = stack.pop()
                for conj in conjugations:
                    c = conj[e]
                    if ids[c] < 0:
                        ids[c] = start
                        stack.append(c)
        return ids

    def center(self) -> list[int]:
        """Indices of the elements that every conjugation fixes."""
        return [e for e in range(self.size) if all(conj[e] == e for conj in self.conjugations)]


def reflection_class_count(c: CayleyTable) -> int:
    """Conjugacy classes meeting the reflections: the conjugates of the
    nontrivial powers of every generator.

    The toric and j-parent families designate all their generators (every
    x_i, and s, t, u), and on a Coxeter group these are the reflection
    classes.  Each generator's column is walked from the identity until it
    returns.
    """
    ids = c.conjugacy_class_ids()
    classes: set[int] = set()
    for column in c.table.columns[::2]:
        cur = column[0]
        while cur != 0:
            classes.add(ids[cur])
            cur = column[cur]
    return len(classes)
