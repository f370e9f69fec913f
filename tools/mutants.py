"""Run a catalogue of hand-written mutants of the package under tier-1.

    python3 tools/mutants.py [N ...]

``CATALOGUE`` holds (module, old text, new text, reason) entries over the
checkers and verdict branches of ``src/toricgroups/``.  For each entry, or
for the entries numbered N (from 1, as printed), the script copies the
working tree, without ``.git`` and caches, into a fresh temporary directory
(``TMPDIR`` chooses where), replaces the old text of ``<module>.py``, which
must occur there exactly once, by the new text, and runs tier-1 in the copy
with ``-x`` and without ``tests/test_mutants.py`` (in a mutated copy the old
text is gone, so that test would kill every mutant): one mutant at a time,
each in its own pytest process under a 2 GB address-space limit and a
15-minute timeout.  A mutant is killed when
pytest fails (or times out), and survived when it passes; a survivor whose
reason begins with ``equivalent:`` is reported as equivalent, with that
reason.  Each line gives the verdict, the time pytest took, the first
failing test of a killed mutant, and the reason.  The last line counts
killed, survived and equivalent mutants; the script exits 1 if any mutant
survived that the catalogue does not call equivalent.

A change that touches a checker or a verdict branch adds its mutants here.
``tests/test_mutants.py`` checks, without running pytest, that every old
text occurs exactly once in its module and differs from its new text.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# tier-1 without the catalogue's own check, which fails in every mutated copy by design
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutants.py")
TIMEOUT_S = 900
ADDRESS_SPACE = 2 << 30


class Mutant(NamedTuple):
    module: str  # a module of src/toricgroups, without .py
    old: str
    new: str
    reason: str


CATALOGUE = (
    # the checkers and verdict branches
    Mutant("maps", "if model(r) != one", "if model(r) == one",
           "check_hom's comparison: every honest model would report its first relator"),
    Mutant("classify", "    if image_nf.letters:\n", "    if len(image_nf.letters) > 1:\n",
           "equivalent: wp toric would count a one-letter phi image as central, but phi lands in "
           "the rotation subgroup, so no image has odd length"),
    Mutant("coxeter", 'else "affine" if curvature == 0', 'else "hyperbolic" if curvature == 0',
           "_geometry's affine branch: (6,2,3) would be called hyperbolic"),
    Mutant("garside", "power + (weight - factor_weight) // (n * m)", "power + (weight + factor_weight) // (n * m)",
           "_normal_form's Delta power: the factors' weight added, not subtracted"),
    Mutant("cyclo", "if abs(total) > bound:", "if abs(total) > 0:",
           "sign_real's bound: a sign decided on any nonzero fixed-point sum, whatever its error"),
    Mutant("words", "        if step.relator_index is None:\n            if diff.letters:",
           "        if step.relator_index is None:\n            if False:",
           "check_derivation's free step: a step claimed free is not checked"),
    Mutant("words", "(rel := free_reduce(relators[step.relator_index])).letters, invert(rel).letters)",
           "(rel := free_reduce(relators[step.relator_index])).letters, invert(rel).letters, ())",
           "equivalent: check_derivation would accept a cited step whose old and new words are "
           "equal, which changes nothing"),
    Mutant("classify", "result.update(order=None, center_order=None)", "result.update(order=0, center_order=None)",
           "classify's infinite order: an infinite row would print order 0"),
    Mutant("schreier", "    if not ref_keys <= found:", "    if False:",
           "check_toric_presentation's completeness: a toric relator missing from the rewrite is accepted"),
    Mutant("schreier", "if cyclic_canonical(d.start * invert(end)) != key:", "if False:",
           "check_toric_presentation's derivation: a derivation of another relator is accepted"),
    # the four that the fresh-seed test was first measured against
    Mutant("garside", "power + (weight - factor_weight) // (n * m)", "power - (weight - factor_weight) // (n * m)",
           "_normal_form's Delta power: the sign of the power read from the weights flipped"),
    Mutant("classify", '"reflection_classes": k - 1,', '"reflection_classes": k,',
           "classify's reflection classes: k in place of k - 1 on every row"),
    Mutant("reps", '"is_identity": matrix == mat_identity(rep.q.n)', '"is_identity": matrix != mat_identity(rep.q.n)',
           "rep eval's identity flag negated"),
    Mutant("cyclo", "v[i + j] += x * y\n", "v[i + j] += x * y if i + j else 2 * x * y\n",
           "one coefficient of dot: the constant term of every product doubled"),
    # the row builder that classify and sweep share
    Mutant("classify", '    row["shephard_todd"] = fin.shephard_todd\n', "",
           "the row builder drops a finite row's Shephard-Todd name, in classify and sweep"),
    Mutant("classify", "divmod(2 * k, d)", "divmod(4 * k, d)",
           "the row builder's centre order: |Z| = 4k/d in place of 2k/d"),
    Mutant("classify", '"reflection_classes": k - 1,\n        "triangle_type": coxeter._geometry(d),',
           '"triangle_type": coxeter._geometry(d),\n        "reflection_classes": k - 1,',
           "the row builder's key order: a sweep entry prints as a dict in text, so its keys' order is output"),
    Mutant("classify", '        del result["shephard_todd"]\n', "",
           "classify keeps the row builder's null shephard_todd on an infinite row, where it prints none"),
    # W/Z named by its triangle, one alphabet test, one label check, rho over two alphabets
    Mutant("classify", "_ALTERNATING[tuple(sorted((k, n, m)))]", "_ALTERNATING.get((k, n, m), \"A5\")",
           "W/Z read with the labels as given, A5 where no key matches: (3,2,3) and (4,2,3) would be named A5"),
    Mutant("classify", '{(2, 3, 3): "A4", (2, 3, 4): "S4"', '{(2, 3, 3): "S4", (2, 3, 4): "A4"',
           "the W/Z table with A4 and S4 swapped"),
    Mutant("reps", "mats = [rep.mat_s, rep.mat_t, rep.mat_u]", "mats = [rep.mat_s, rep.mat_u, rep.mat_t]",
           "rho_eval reads a word over s, t, u as if its letters were s, u, t"),
    Mutant("presentations", "    base = toric(k, n, m)\n", "    base = toric(max(k, 2), n, m)\n",
           "alt_toric reads a label k below 2 as 2, so its label check no longer refuses it"),
    Mutant("presentations", "cyclic_product(n, 0, n * m)", "cyclic_product(n, 0, m)",
           "alt_toric kills x1...xm, a root of the full twist, in place of (x1...xn)^m"),
    Mutant("words", "    return first if name is None or name in first else second()\n",
           "    if name is None or name in first:\n        return first\n    alphabet = second()\n"
           "    return alphabet if name in alphabet else first\n",
           "equivalent: the old fall-back to first for a name in neither alphabet; every token before that "
           "name is 1, so it is the text's first bad token over either alphabet, and _token_run tests a "
           "name before its exponent, so parse_word raises the same message at the same column over both"),
    # finite rows in closed form, and the reflection classes' certificate
    Mutant("classify", "divmod(4 * k * k * n * m, d * d)", "divmod(4 * k * k * n * m, d)",
           "the row builder's order: |W| divided by d in place of d^2"),
    Mutant("classify", "    for i in range(1, n + 1):\n        try:", "    for i in range(1, 2):\n        try:",
           "the reflection certificate checks the shift derivation of x1 only"),
    Mutant("classify", "    assert all(sum(1 if x > 0 else -1 for x in r.letters) % k == 0", "    assert True or all(0",
           "the reflection certificate skips its map to Z/k"),
    Mutant("classify", "    assert (1,) * k in [r.letters for r in p.relators]", "    assert True",
           "the reflection certificate skips the relator x1^k that bounds a meridian's order"),
    # derive's written table of ncl(s), its bound and its closed-form order; a cited relator's index
    Mutant("schreier", "(fixed, fixed, *t, *u)", "(*u, *t, *u)",
           "the written table's s column is u's: s would move every coset"),
    Mutant("schreier", "(q + e * b) % n", "(q + e * (b + 1)) % n",
           "the written table's u steps by b + 1, so u^c no longer closes"),
    Mutant("schreier", '_columns, parent.relators + (parent.alphabet.word("s"),))', "_columns, parent.relators)",
           "the written table is validated without the relator s, so a table where s moves a coset passes"),
    Mutant("classify", '_row(a, b, c)[0]["order"]', '_row(a, 2, c)[0]["order"]',
           "derive reads the closed-form order of the row (a, 2, c), right only where b = 2"),
    Mutant("classify", "if b * c > max_cosets:", "if b * c >= max_cosets:",
           "derive refuses an index b*c equal to the coset bound"),
    Mutant("words", "elif not 0 <= step.relator_index < len(relators):",
           "elif step.relator_index >= len(relators):",
           "check_derivation lets a negative index cite a relator counted from the end"),
)


def module_path(root: str, mutant: Mutant) -> str:
    return os.path.join(root, "src", "toricgroups", mutant.module + ".py")


def mutated(root: str, mutant: Mutant) -> str:
    """The mutant's module under ``root`` with its old text replaced; ValueError
    unless the old text occurs exactly once and differs from the new."""
    with open(module_path(root, mutant), encoding="utf-8") as f:
        text = f.read()
    count = text.count(mutant.old)
    if count != 1 or mutant.old == mutant.new:
        raise ValueError(f"{mutant.module}: old text occurs {count} times, or equals the new: {mutant.old!r}")
    return text.replace(mutant.old, mutant.new)


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(mutant: Mutant) -> tuple[str, float, str]:
    """Verdict, seconds and first failing test of one mutant, run in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", ".benchmarks"))
        source = mutated(copy, mutant)
        with open(module_path(copy, mutant), "w", encoding="utf-8") as f:
            f.write(source)
        env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src")}
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=_limit_address_space)
        except subprocess.TimeoutExpired:
            return "killed", time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
        seconds = time.perf_counter() - start
    if proc.returncode:
        first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
        return "killed", seconds, first.group(1) if first else f"pytest exit {proc.returncode}"
    return ("equivalent" if mutant.reason.startswith("equivalent:") else "survived"), seconds, ""


def main(argv: list[str]) -> int:
    numbers = [int(a) for a in argv] or range(1, len(CATALOGUE) + 1)
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    for number in numbers:
        mutant = CATALOGUE[number - 1]
        verdict, seconds, failure = run(mutant)
        counts[verdict] += 1
        print(f"{number:3} {verdict:10} {seconds:6.1f} s  {mutant.module}: {mutant.reason}"
              + (f"\n{'':23}first failure: {failure}" if failure else ""), flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
