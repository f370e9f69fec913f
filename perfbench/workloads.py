"""The three workloads: seeded requests paired with their expected answers.

A request is what the child process runs: a CLI argument list for
``toricgroups.cli.main`` or the one library pipeline (``rs-tietze``).  Its
``expect`` entry stays in the parent and names the check in ``checks.py``;
``props`` records the input properties the report summarises.  The seed
changes the words and the conjugators, never the request counts, lengths,
groups or bounds, so every seed costs about the same; ``grid`` has no
random part.  The request order is a fixed shuffle, the same for every
seed: the package's caches persist across the requests of a pass, so the
order decides which request pays for filling them.
"""

from __future__ import annotations

import random
from math import gcd

import oracles

TRIANGLES_WP = [(2, 3, 7), (3, 4, 5), (4, 5, 6), (3, 3, 3), (2, 3, 5)]
COXETER_LENGTHS = [75, 300, 1200]
TORIC_WP = [(6, 2, 3), (2, 3, 7), (3, 4, 5), (5, 2, 3), (4, 2, 3)]
GARSIDE = [((2, 3), 10_000), ((3, 5), 30_000), ((2, 7), 100_000)]
REP_EVAL = [((6, 2, 3), 200), ((2, 3, 5), 50), ((3, 4, 5), 50)]

FINITE_PARENTS = [(2, 3, 4), (2, 3, 5), (3, 2, 3), (4, 2, 3), (5, 2, 3), (3, 2, 5)]
INFINITE_PARENTS = [(6, 2, 3), (2, 3, 7), (3, 4, 5), (4, 3, 5), (5, 2, 7), (3, 5, 7)]
# index b*c of the normal closure of s in J(2,b,c): 195 and 323.  Index 99,
# J(2,9,11), is left out to keep room for three passes in a run; the two
# larger ones exercise the same path harder.
RS_TIETZE = [(2, 13, 15), (2, 17, 19)]


def _fixed_order(reqs: list[dict]) -> list[dict]:
    random.Random(0).shuffle(reqs)
    return reqs


def cli_request(argv, expect, kind, **props):
    return {"input": {"kind": "cli", "argv": ["--format", "json", *map(str, argv)]},
            "expect": expect, "props": {"kind": kind, **props}}


def grid(rng: random.Random) -> list[dict]:
    reqs = [
        cli_request(["classify", k, n, m], {"check": "classify", "kmn": [k, n, m]}, "classify",
             triangle=[k, n, m])
        for k in range(2, 8)
        for n in range(2, 9)
        for m in range(n + 1, 10)
        if gcd(n, m) == 1
    ]
    return _fixed_order(reqs)


def _coxeter_word(rng: random.Random, length: int) -> list[int]:
    out = [rng.randrange(1, 4)]
    while len(out) < length:
        out.append(rng.choice([s for s in (1, 2, 3) if s != out[-1]]))
    return out


def _label(tri, s: int, t: int) -> int:
    k, n, m = tri
    return {frozenset((1, 2)): k, frozenset((2, 3)): n, frozenset((1, 3)): m}[frozenset((s, t))]


def _alternating_run(word: list[int], s: int) -> int:
    """Length of the alternating s/word[-1] suffix that appending s would create."""
    t, run = word[-1], 1
    for i, x in enumerate(reversed(word)):
        if x != (t if i % 2 == 0 else s):
            break
        run += 1
    return run


def _rigid_word(rng: random.Random, tri, length: int) -> list[int]:
    """A random word with no s s and no alternating s t s ... of length m(s,t).

    No braid move applies to such a word, so by Tits' solution of the word
    problem it is reduced: its length is exactly ``length``.  With every
    label at least 3 one of the two letters that differ from the last is
    always allowed, so the walk never gets stuck.
    """
    out = [rng.randrange(1, 4)]
    while len(out) < length:
        options = [s for s in (1, 2, 3) if s != out[-1] and _alternating_run(out, s) < _label(tri, s, out[-1])]
        out.append(rng.choice(options))
    return out


def _padded_coxeter_word(rng: random.Random, tri, length: int) -> tuple[list[int], int]:
    """A reduced word of half the length, padded with relators (s t)^m(s,t).

    Relators go where they create no immediate repeat, so the word has
    none, while its element and hence its reduced length stay known.
    """
    word = _rigid_word(rng, tri, length // 2)
    reduced = len(word)
    while len(word) < length:
        s, t = rng.sample((1, 2, 3), 2)
        rel = [s, t] * _label(tri, s, t)
        at = rng.randrange(1, len(word))
        if word[at - 1] != s and word[at] != t:
            word[at:at] = rel
    return word, reduced


def _free_word(rng: random.Random, ngens: int, length: int) -> list[int]:
    out: list[int] = []
    while len(out) < length:
        x = rng.choice([g for g in range(1, ngens + 1)] + [-g for g in range(1, ngens + 1)])
        if not out or out[-1] != -x:
            out.append(x)
    return out


def _text(letters, names) -> str:
    return " ".join(names[abs(x) - 1] + ("" if x > 0 else "^-1") for x in letters)


def _toric_random(rng, k, n, m, length):
    # a non-central word: its image under phi must be nontrivial
    while True:
        w = _free_word(rng, n, length)
        if not oracles.same_direction(oracles.phi_element(k, n, m, w), oracles.IDENTITY):
            return w


def _toric_central(rng, k, n, m, power):
    """u c^power u^-1 with two x_i^k chunks spliced in; c = (x1...xn)^m is central."""
    c = [i % n + 1 for i in range(n * m)]
    body = (c if power > 0 else [-x for x in reversed(c)]) * abs(power)
    u = _free_word(rng, n, 12)
    w = u + body + [-x for x in reversed(u)]
    for _ in range(2):
        at = rng.randrange(len(w) + 1)
        g = rng.randrange(1, n + 1) * rng.choice((1, -1))
        w[at:at] = [g] * k
    return w


def _garside_word(rng: random.Random, n: int, m: int, length: int):
    """A word of about ``length`` letters over x, y with a known normal form.

    The normal form Delta^p f1 | f2 | ... is drawn first; the word spells its
    factors interleaved with trivial chunks (x^n y^-m, free pairs) and
    Delta^+-1 insertions, which are central and only shift p.
    """
    bound = {1: n, 2: m}
    power = rng.randrange(-3, 4)
    word = [1 if power > 0 else -1] * (n * abs(power))
    factors: list[tuple[int, int]] = []
    sym = rng.choice((1, 2))
    while len(word) < length:
        e = rng.randrange(1, bound[sym])
        factors.append((sym, e))
        for _ in range(e):
            word.append(sym)
            roll = rng.random()
            if roll < 0.15:
                word.extend([1] * n + [-2] * m)  # x^n y^-m = 1
            elif roll < 0.35:
                g = rng.choice((1, 2, -1, -2))
                word.extend([g, -g])
            elif roll < 0.40:
                sign = rng.choice((1, -1))
                g = rng.choice((1, 2))
                word.extend([g * sign] * bound[g])  # Delta^sign
                power += sign
        sym = 3 - sym
    return word, power, [("x" if s == 1 else "y", e) for s, e in factors]


def words(rng: random.Random) -> list[dict]:
    reqs = []
    for tri in TRIANGLES_WP:
        for length in COXETER_LENGTHS:
            if min(tri) == 2:  # no long rigid words: random ones, checked by ShortLex table or geometry
                w, reduced = _coxeter_word(rng, length), None
            else:
                w, reduced = _padded_coxeter_word(rng, tri, length)
            reqs.append(cli_request(["wp", "coxeter", *tri, _text(w, ["r1", "r2", "r3"])],
                             {"check": "wp_coxeter", "tri": list(tri), "word": w, "length": reduced},
                             "wp coxeter", letters=len(w), triangle=list(tri)))
    for k, n, m in TORIC_WP:
        names = [f"x{i}" for i in range(1, n + 1)]
        fin = oracles.finite_toric(k, n, m)
        for length in (60, 120):
            w = _toric_random(rng, k, n, m, length)
            reqs.append(cli_request(["wp", "toric", k, n, m, _text(w, names)],
                             {"check": "wp_toric", "kmn": [k, n, m], "word": w, "power": None},
                             "wp toric random", letters=len(w), triangle=[k, n, m]))
        # a finite group gets one twist power that is trivial and one that is not
        powers = [fin[2], rng.randrange(1, fin[2])] if fin and fin[2] > 1 else [1, 2]
        for p in powers:
            p *= rng.choice((1, -1))
            w = _toric_central(rng, k, n, m, p)
            reqs.append(cli_request(["wp", "toric", k, n, m, _text(w, names)],
                             {"check": "wp_toric", "kmn": [k, n, m], "word": w, "power": p},
                             "wp toric central", letters=len(w), triangle=[k, n, m]))
    for (n, m), length in GARSIDE:
        w, power, factors = _garside_word(rng, n, m, length)
        reqs.append(cli_request(["wp", "garside", n, m, _text(w, ["x", "y"])],
                         {"check": "wp_garside", "power": power, "factors": factors},
                         "wp garside", letters=len(w), triangle=[n, m]))
    for abc, length in REP_EVAL:
        w = _free_word(rng, 3, length)
        reqs.append(cli_request(["rep", "eval", *abc, _text(w, ["s", "t", "u"])],
                         {"check": "rep_eval", "abc": list(abc), "word": w},
                         "rep eval", letters=length, triangle=list(abc)))
    return _fixed_order(reqs)


def subgroups(rng: random.Random) -> list[dict]:
    def order_of(family, labels):
        if family == "toric":
            return oracles.finite_toric(*labels)[1]
        if family == "coxeter-triangle":
            return oracles.triangle_order(*labels)
        a, b, c = labels
        return oracles.finite_toric(a, b, c)[1] * b * c

    reqs = []
    complete = [("j-parent", (2, 3, 5), "hlt"), ("j-parent", (2, 3, 5), "felsch"),
                ("toric", (5, 2, 3), "hlt"), ("toric", (4, 2, 3), "felsch"),
                ("coxeter-triangle", (2, 3, 4), "hlt"), ("coxeter-triangle", (2, 3, 5), "felsch"),
                ("j-parent", (3, 2, 3), "felsch")]
    for family, labels, strategy in complete:
        order = order_of(family, labels)
        reqs.append(cli_request(["enumerate", family, *labels, "--strategy", strategy],
                         {"check": "enumerate", "key": "order", "value": order},
                         f"enumerate {strategy} complete", index=order, triangle=list(labels)))
    for a, b, c in [(2, 3, 4), (4, 2, 3)]:
        # the normal closure of a conjugate of s is the normal closure of s: index b*c
        v = _free_word(rng, 3, rng.randrange(3, 9))
        seed_word = _text(v + [1] + [-x for x in reversed(v)], ["s", "t", "u"])
        reqs.append(cli_request(["enumerate", "j-parent", a, b, c, "--subgroup", seed_word, "--normal-closure"],
                         {"check": "enumerate", "key": "index", "value": b * c},
                         "enumerate normal closure", index=b * c, triangle=[a, b, c]))
    overflow = [("toric", (6, 2, 3), "hlt", 100_000), ("j-parent", (2, 3, 7), "hlt", 10_000),
                ("coxeter-triangle", (2, 3, 7), "hlt", 10_000),
                ("toric", (6, 2, 3), "felsch", 2000)]
    for family, labels, strategy, bound in overflow:
        reqs.append(cli_request(["--max-cosets", bound, "enumerate", family, *labels, "--strategy", strategy],
                         {"check": "enumerate", "key": None, "value": None},
                         f"enumerate {strategy} overflow", bound=bound, triangle=list(labels)))
    for abc in FINITE_PARENTS:
        reqs.append(cli_request(["derive", *abc], {"check": "derive", "abc": list(abc)},
                         "derive finite", index=abc[1] * abc[2], triangle=list(abc)))
    for abc in INFINITE_PARENTS:
        reqs.append(cli_request(["--max-cosets", 10_000, "derive", *abc], {"check": "derive", "abc": list(abc)},
                         "derive infinite", bound=10_000, triangle=list(abc)))
    # known defect: today this raises TietzeBudgetExceeded out of the CLI
    reqs.append(cli_request(["--budget", 1, "derive", 2, 3, 5], {"check": "derive", "abc": [2, 3, 5]},
                     "derive budget 1", triangle=[2, 3, 5]))
    for abc in RS_TIETZE:
        reqs.append({"input": {"kind": "rs-tietze", "abc": list(abc)},
                     "expect": {"check": "rs_tietze", "abc": list(abc)},
                     "props": {"kind": "rs-tietze", "index": abc[1] * abc[2], "triangle": list(abc)}})
    return _fixed_order(reqs)


WORKLOADS = {"grid": grid, "words": words, "subgroups": subgroups}


def generate(name: str, seed: int) -> list[dict]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def input_properties(reqs: list[dict]) -> dict:
    """Request counts by kind, word lengths, bounds, indices and triangle reuse."""
    kinds: dict[str, int] = {}
    seen: set[tuple] = set()
    reused = 0
    letters, bounds, indices = [], set(), set()
    for r in reqs:
        p = r["props"]
        kinds[p["kind"]] = kinds.get(p["kind"], 0) + 1
        tri = tuple(p.get("triangle", ()))
        reused += tri in seen
        seen.add(tri)
        if "letters" in p:
            letters.append(p["letters"])
        if "bound" in p:
            bounds.add(p["bound"])
        if "index" in p:
            indices.add(p["index"])
    return {
        "requests": len(reqs),
        "by_kind": kinds,
        "word_letters": [min(letters), max(letters), sum(letters)] if letters else None,
        "coset_bounds": sorted(bounds),
        "indices": sorted(indices),
        "triangle_reuse_share": reused / len(reqs),
    }
