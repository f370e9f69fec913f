"""Free-group words over named generator alphabets.

Words are the common currency of every module in this package: relators,
subgroup generators, homomorphism images and normal forms are all words.
A word is stored as a flat sequence of signed 1-based generator indices
(+i for the i-th generator, -i for its inverse); exponents written in text
as ``g^K`` are expanded into repeated letters at parse time so that
reduction logic never has to treat syllables specially.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import chain

# sets a field of a Value, past the __setattr__ that refuses assignment
_set = object.__setattr__


class Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``, in the order of its
    constructor's parameters, and sets them in ``__init__`` through
    ``Value.__init__``, or through ``_set`` one by one where that loop's
    cost would show: in ``Word``, ``Cyc`` and ``Presentation``, built per
    letter or per product, and in ``FamilyParams`` and ``CoxeterMatrix``,
    built by nearly every CLI request.  Assignment and deletion raise
    ``AttributeError``; equality, hash and repr are those of a frozen
    dataclass with these fields: instances of the same class are equal when
    their fields are.  No code is generated, so importing the package stays
    cheap.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def bad_name(names: Sequence[str]) -> tuple[int, str] | None:
    """The position of the first name that an alphabet of ``names`` cannot
    hold, and why; None when it can hold them all."""
    seen = set()
    for i, nm in enumerate(names):
        if nm in seen:
            return i, f"duplicate generator names in {tuple(names)!r}"
        if not nm or any(ch.isspace() for ch in nm) or "^" in nm or "=" in nm or "#" in nm:
            return i, f"invalid generator name {nm!r}"
        if nm == "1":
            return i, "'1' is reserved for the empty word"
        seen.add(nm)
    return None


class Alphabet:
    """An ordered list of uniquely named generators."""

    __slots__ = ("names", "letters", "_by_name")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        bad = bad_name(names)
        if bad is not None:
            raise ValueError(bad[1])
        self.names = names
        # the letters a word over this alphabet may hold: +-1 .. +-len
        self.letters = frozenset(range(1, len(names) + 1)) | frozenset(range(-len(names), 0))
        self._by_name = {nm: i for i, nm in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Alphabet) and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({' '.join(self.names)})"

    def word(self, text: str) -> "Word":
        """Parse a word in the shared text syntax (see :func:`parse_word`)."""
        return parse_word(self, text)


class Word(Value):
    """A word in the free group on an alphabet.

    ``letters`` holds nonzero signed indices; the empty tuple is the
    identity.  Construction does not reduce; use :func:`free_reduce` or the
    arithmetic operators, which reduce their results.
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: tuple[int, ...]):
        _set(self, "alphabet", alphabet)
        _set(self, "letters", letters)
        valid = alphabet.letters
        if not valid.issuperset(letters):
            bad = next(x for x in letters if x not in valid)
            raise ValueError(f"letter {bad} out of range for {alphabet!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot multiply words over different alphabets")
        return free_reduce(Word(self.alphabet, self.letters + other.letters))

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else invert(self)
        return free_reduce(Word(self.alphabet, base.letters * abs(k)))

    def inverse(self) -> "Word":
        return invert(self)

    def __str__(self) -> str:
        return word_to_text(self)

    def gen_name(self, letter: int) -> str:
        return self.alphabet.names[abs(letter) - 1]


def free_reduce_letters(letters: Iterable[int]) -> list[int]:
    """Delete adjacent inverse pairs until none remain (single stack pass)."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def free_reduce(w: Word) -> Word:
    """The word with its letters reduced by :func:`free_reduce_letters`."""
    stack = free_reduce_letters(w.letters)
    if len(stack) == len(w.letters):
        return w
    return Word(w.alphabet, tuple(stack))


def invert(w: Word) -> Word:
    return Word(w.alphabet, tuple(-x for x in reversed(w.letters)))


def cyclic_reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Free reduction followed by trimming matching first/last letters."""
    stack = free_reduce_letters(letters)
    i, j = 0, len(stack)
    while j - i >= 2 and stack[i] == -stack[j - 1]:
        i += 1
        j -= 1
    return tuple(stack[i:j])


def cyclic_reduce(w: Word) -> Word:
    """The word with its letters reduced by :func:`cyclic_reduce_letters`."""
    letters = cyclic_reduce_letters(w.letters)
    return w if letters == w.letters else Word(w.alphabet, letters)


def word_to_text(w: Word) -> str:
    """Render with syllable collapsing; the empty word prints as ``1``."""
    if not w.letters:
        return "1"
    parts: list[str] = []
    run_letter = w.letters[0]
    run = 1
    for x in w.letters[1:]:
        if x == run_letter:
            run += 1
        else:
            parts.append(_syllable(w, run_letter, run))
            run_letter, run = x, 1
    parts.append(_syllable(w, run_letter, run))
    return " ".join(parts)


def _syllable(w: Word, letter: int, count: int) -> str:
    name = w.gen_name(letter)
    k = count if letter > 0 else -count
    return name if k == 1 else f"{name}^{k}"


class WordSyntaxError(ValueError):
    def __init__(self, message: str, column: int | None = None):
        self.column = column
        super().__init__(message)


def token_runs(alphabet: Alphabet, text: str) -> tuple[list[str], dict[str, tuple[int, int]]]:
    """The whitespace-separated tokens of ``text`` and, for each distinct
    one, its signed letter and repeat count (0 for ``1``); WordSyntaxError
    at the first bad token of the text.  Nothing is expanded."""
    tokens = text.split()
    runs = {token: _token_run(alphabet, token) for token in set(tokens)}  # each distinct token once
    if any(isinstance(run, str) for run in runs.values()):
        i = next(i for i, token in enumerate(tokens) if isinstance(runs[token], str))
        raise WordSyntaxError(runs[tokens[i]], column=_column(text, tokens, i))
    return tokens, runs


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse whitespace-separated tokens ``name``, ``name^K`` (K nonzero), or ``1``."""
    tokens, runs = token_runs(alphabet, text)
    # no exponent is expanded before every token is known to be valid
    expanded = {token: (letter,) * count for token, (letter, count) in runs.items()}
    return Word(alphabet, tuple(chain.from_iterable(map(expanded.__getitem__, tokens))))


def parse_either(first: Alphabet, second: Callable[[], Alphabet], text: str) -> Word:
    """The word ``text`` spells over ``first``, else over ``second()``, which
    is built only then.  When neither alphabet reads it, the syntax error of
    the one that read further; on a tie, of the one that knows the token's
    generator, ``first`` if neither does."""
    try:
        return parse_word(first, text)
    except WordSyntaxError as first_error:
        alphabet = second()
        try:
            return parse_word(alphabet, text)
        except WordSyntaxError as e:
            known = e.column == first_error.column and text[e.column - 1:].split()[0].partition("^")[0] in alphabet
            raise (e if e.column > first_error.column or known else first_error) from None


def _token_run(alphabet: Alphabet, token: str) -> tuple[int, int] | str:
    """The signed letter of one token and its repeat count (0 for ``1``),
    or the message of its syntax error."""
    if token == "1":
        return 0, 0
    name, sep, exp = token.partition("^")
    if name not in alphabet:
        return f"unknown generator {name!r}"
    k = 1
    if sep:
        try:
            k = int(exp)
        except ValueError:
            return f"bad exponent in {token!r}"
        if k == 0:
            return f"zero exponent in {token!r}"
    letter = alphabet.index(name) + 1
    return (letter if k > 0 else -letter), abs(k)


def _column(text: str, tokens: list[str], i: int) -> int:
    """1-based column of ``tokens[i]`` in ``text``."""
    col = 0
    for token in tokens[:i]:
        col = text.index(token, col) + len(token)
    return text.index(tokens[i], col) + 1


class GenMap(Value):
    """A map of generators, the carrier of a homomorphism of free groups.

    Total on the source alphabet: ``images[i]`` is the image of source
    generator ``i`` as a word over the target alphabet.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Alphabet, target: Alphabet, images: tuple[Word, ...]):
        super().__init__(source, target, images)
        if len(images) != len(source):
            raise ValueError("one image required per source generator")
        for w in images:
            if w.alphabet != target:
                raise ValueError("image word over wrong alphabet")

    @staticmethod
    def from_dict(source: Alphabet, target: Alphabet, images: Mapping[str, Word]) -> "GenMap":
        missing = [name for name in source.names if name not in images]
        if missing:
            raise ValueError(f"no image for generators {missing}")
        return GenMap(source, target, tuple(images[name] for name in source.names))


def signed_table(images: Sequence, inverse: Callable) -> list:
    """The substitution table of ``images``, one per letter: entry x holds the
    image of letter x, entry -x (from the end) ``inverse`` of it, entry 0 None."""
    return [None, *images, *map(inverse, reversed(images))]


def apply_map(f: GenMap, w: Word) -> Word:
    """Letter-wise substitution followed by free reduction."""
    if w.alphabet != f.source:
        raise ValueError("word is not over the map's source alphabet")
    table = signed_table([image.letters for image in f.images], lambda letters: tuple(-y for y in reversed(letters)))
    return free_reduce(Word(f.target, tuple(chain.from_iterable(map(table.__getitem__, w.letters)))))


def compose(outer: GenMap, inner: GenMap) -> GenMap:
    """The map sending each generator g to outer(inner(g))."""
    if inner.target != outer.source:
        raise ValueError("alphabets do not compose")
    return GenMap(inner.source, outer.target, tuple(apply_map(outer, w) for w in inner.images))


# --- machine-checkable rewriting derivations -------------------------------
#
# A Derivation records a chain of words, each obtained from the previous one
# either by free insertion/deletion of inverse pairs or by replacing one
# occurrence of a subword u with v where u v^-1 freely reduces to a cited
# relator or its inverse.  Used for the explicit relator-substitution proofs
# (relation equivalence, centrality of the full twist).


class RewriteStep(Value):
    __slots__ = ("position", "old", "new", "relator_index")

    def __init__(self, position: int, old: Word, new: Word, relator_index: int | None):
        # relator_index None marks a purely free step
        super().__init__(position, old, new, relator_index)


class Derivation(Value):
    __slots__ = ("start", "steps")

    def __init__(self, start: Word, steps: tuple[RewriteStep, ...]):
        super().__init__(start, steps)

    def words(self) -> list[Word]:
        ws = [self.start]
        for st in self.steps:
            cur = ws[-1]
            ws.append(_apply_step(cur, st))
        return ws


def moved(steps: Iterable[RewriteStep], offset: int) -> tuple[RewriteStep, ...]:
    """The steps applied ``offset`` letters further right."""
    return tuple(RewriteStep(s.position + offset, s.old, s.new, s.relator_index) for s in steps)


def undone(steps: Sequence[RewriteStep], offset: int) -> tuple[RewriteStep, ...]:
    """The steps taken back, last first, ``offset`` letters further right:
    from the word they reach to the word they start from."""
    return tuple(RewriteStep(s.position + offset, s.new, s.old, s.relator_index) for s in reversed(steps))


def _apply_step(w: Word, step: RewriteStep) -> Word:
    i, old, new = step.position, step.old, step.new
    if w.letters[i : i + len(old.letters)] != old.letters:
        raise ValueError(f"step does not match word at position {i}")
    return Word(w.alphabet, w.letters[:i] + new.letters + w.letters[i + len(old.letters) :])


def check_derivation(d: Derivation, relators: Sequence[Word]) -> Word:
    """The word the last step reaches; ValueError unless every step is
    justified by its citation."""
    cur = d.start
    for k, step in enumerate(d.steps):
        nxt = _apply_step(cur, step)
        diff = free_reduce(step.old * invert(step.new))
        if step.relator_index is None:
            if diff.letters:
                raise ValueError(f"step {k}: claimed free but differs by {diff}")
        else:
            rel = free_reduce(relators[step.relator_index])
            if diff.letters not in (rel.letters, invert(rel).letters):
                raise ValueError(f"step {k}: not an instance of relator {step.relator_index}")
        cur = nxt
    return cur
