"""The latency of every request in one pass of a benchmark workload, slowest first.

    python3 tools/request_times.py --workload words --seed 1

The requests are those of ``perfbench/workloads.generate`` for the workload
and seed.  They run once, in workload order, in this process, with the
package imported from ``src/`` of this checkout: a ``cli`` request through
``toricgroups.cli.main`` with its output discarded, an ``rs-tietze``
request through the pipeline ``perfbench/child.py`` runs (enumerate the
normal closure of s, RS, Tietze).  As in a benchmark pass, the caches of
the package start empty, so the request that fills one pays for it.  The
script prints each request's wall time in ms, its share of the pass and
its arguments (long ones cut), slowest first; under each ``rs-tietze``
request a second line splits its time into the enumeration, RS and
Tietze, and gives the size of the RS presentation that Tietze starts
from: its generators, relators and letters.  Under each ``cli`` request
a second line splits its time into phases, each timed by wrapping one call
for the one request, and the rest of the request.  Every ``cli`` request
has the phase ``json``, writing its output (``cli._json``).  The others
are found by the request's command words, so ``enumerate toric`` gets no
more: for ``derive``, the written coset table of ncl(s) plus RS
(``schreier.toric_closure_rs``, which enumerates nothing), the check of
the toric presentation or Tietze, and the order enumeration
(``group_order``, on a spherical gcd(b, c) != 1 row only: a gcd(b, c) = 1
row reads its order off the closed form); for ``wp garside``, reading the tokens (``token_runs``) and
the normal form kernel (``_normal_form``), the rest being the pieces and
the rendering; for ``wp coxeter`` and ``wp toric``, building the
triangle's root table (``coxeter.MinimalRootTable``, which runs only on a
``triangle_table`` miss) and the ShortLex normal form
(``coxeter.MinimalRootTable.nf``), and for ``wp toric`` also mapping the
word by phi (``maps.apply_map``), the rest being the parse and, for a
central word on a finite row, the Cayley table; for ``rep eval``, building
the representation (``build_rho_preset``) and the matrix product
(``rho_eval``).  A phase the request did not reach is left out, so a
request that finds its root table built prints no ``root table``.  A
wrapped function's recursive calls, as ``_json`` makes on a nested value,
run unwrapped within its outermost call, which alone is timed.  Then
comes the time per request kind.  Times are plain ``perf_counter``
differences, not scaled by the benchmark's speed probe.
Last come the requests that raised the process's peak RSS (``ru_maxrss``,
the figure behind the benchmark's ``peak_rss_mb``), in pass order, each
with the new peak in MB; the first line is the peak before the first
request.

Before the table, the script prints what importing the package cost: its
wall time in ms, the number of modules it loaded and the peak RSS after it.
The package is imported first, before the script's other modules, so that
the modules it needs count as its own.  Its bytecode is compiled before
that, by ``python3 -m compileall -q`` in a child process, so the time is
that of reading ``__pycache__`` even in a fresh checkout or under
``PYTHONDONTWRITEBYTECODE``, and the script loads no module to compile it.
"""

from __future__ import annotations

import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
PACKAGE = os.path.join(ROOT, "src", "toricgroups")
os.spawnv(os.P_WAIT, sys.executable, [sys.executable, "-m", "compileall", "-q", PACKAGE])

_modules_before = len(sys.modules)
_import_start = time.perf_counter()
from toricgroups import classify, cli, cosets, coxeter, garside, maps, presentations, reps, schreier  # noqa: E402

IMPORT_MS = (time.perf_counter() - _import_start) * 1e3
IMPORT_MODULES = len(sys.modules) - _modules_before
IMPORT_PEAK_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402

import workloads  # noqa: E402

WIDTH = 72  # characters of a request's arguments to print

# the calls `classify.derive` makes, as (module, attribute, phase name);
# `toric_closure_rs` writes its table down, and only a gcd(b, c) != 1 row
# enumerates, for its order
DERIVE_PHASES = ((schreier, "toric_closure_rs", "closure+RS"), (schreier, "check_toric_presentation", "check"),
                 (classify, "tietze_simplify", "Tietze"), (classify, "group_order", "order"))
# the phases of each request whose command words, one or two adjacent
# arguments, are the key; the table is built only on a triangle_table miss
WORD_PROBLEM = ((coxeter, "MinimalRootTable", "root table"), (coxeter.MinimalRootTable, "nf", "normal form"))
# every cli request's output; the workloads ask for JSON
JSON_PHASE = ((cli, "_json", "json"),)
PHASES = {"derive": DERIVE_PHASES,
          "wp garside": ((garside, "token_runs", "read"), (garside, "_normal_form", "normal form")),
          "wp coxeter": WORD_PROBLEM, "wp toric": WORD_PROBLEM + ((maps, "apply_map", "map"),),
          "rep eval": ((reps, "build_rho_preset", "rep"), (reps, "rho_eval", "product"))}


def rs_tietze(a: int, b: int, c: int) -> str:
    """Normal closure of s by enumerating <X | R, s>, then RS and Tietze;
    returns the time of each phase and the size of Tietze's input."""
    t0 = time.perf_counter()
    parent = presentations.j_parent(a, b, c)
    quotient = presentations.Presentation(parent.alphabet, parent.relators + (parent.alphabet.word("s"),))
    table = cosets.todd_coxeter(quotient)
    t1 = time.perf_counter()
    tr = schreier.schreier_transversal(table, schreier.toric_column_order(parent.alphabet))
    rs = schreier.rs_presentation(parent, table, tr).presentation
    t2 = time.perf_counter()
    presentations.tietze_simplify(rs)
    t3 = time.perf_counter()
    letters = sum(len(r.letters) for r in rs.relators)
    return (f"enumerate {(t1 - t0) * 1e3:.1f} ms, RS {(t2 - t1) * 1e3:.1f} ms, Tietze {(t3 - t2) * 1e3:.1f} ms; "
            f"RS out {len(rs.gens)} gens, {len(rs.relators)} relators, {letters} letters")


@contextlib.contextmanager
def timed_calls(phases):
    """Wraps each (owner, attribute, name) call, the owner a module or a
    class, to add its wall time, in ms, to the yielded dict under its name;
    restores the originals on exit.  While a wrapped call runs, the owner
    holds the original again, so a recursive call is neither timed twice
    nor slowed by the wrapper."""
    spent: dict[str, float] = {}
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in phases]

    def timed(module, attr, fn, name):
        def call(*args, **kwargs):
            setattr(module, attr, fn)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] = spent.get(name, 0.0) + (time.perf_counter() - t0) * 1e3
                setattr(module, attr, call)
        return call

    for (module, attr, fn), (*_, name) in zip(originals, phases):
        setattr(module, attr, timed(module, attr, fn, name))
    try:
        yield spent
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def run(req: dict) -> str | None:
    """Runs one request and returns its phase times."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if req["kind"] != "cli":
            return rs_tietze(*req["abc"])
        argv = req["argv"]
        keys = argv + [f"{a} {b}" for a, b in zip(argv, argv[1:])]
        phases = next((PHASES[key] for key in keys if key in PHASES), ()) + JSON_PHASE
        with timed_calls(phases) as spent:
            t0 = time.perf_counter()
            cli.main(req["argv"])  # a malformed command line returns 2, as every input error does
            total = (time.perf_counter() - t0) * 1e3
    spent["rest"] = total - sum(spent.values())
    return ", ".join(f"{name} {ms:.2f} ms" for name, ms in spent.items())


def label(req: dict) -> str:
    text = " ".join(req["argv"][2:]) if req["kind"] == "cli" else "rs-tietze " + " ".join(map(str, req["abc"]))
    return text if len(text) <= WIDTH else text[:WIDTH - 3] + "..."


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    reqs = workloads.generate(args.workload, args.seed)
    timed = []
    peaks = [(peak_rss_mb(), "(before the first request)")]
    for req in reqs:
        t0 = time.perf_counter()
        phases = run(req["input"])
        timed.append(((time.perf_counter() - t0) * 1e3, req["props"]["kind"], label(req["input"]), phases))
        if (mb := peak_rss_mb()) > peaks[-1][0]:
            peaks.append((mb, label(req["input"])))
    total = sum(ms for ms, *_ in timed)

    print(f"import toricgroups: {IMPORT_MS:.1f} ms, {IMPORT_MODULES} modules, peak RSS {IMPORT_PEAK_MB:.1f} MB")
    print(f"{args.workload} seed {args.seed}: {len(timed)} requests in {total:.1f} ms")
    print(f"{'ms':>9} {'share':>6}  {'kind':<26} request")
    for ms, kind, text, phases in sorted(timed, key=lambda t: t[0], reverse=True):
        print(f"{ms:9.2f} {ms / total:6.1%}  {kind:<26} {text}")
        if phases:
            print(f"{'':>43}{phases}")
    by_kind: dict[str, list[float]] = {}
    for ms, kind, *_ in timed:
        by_kind.setdefault(kind, []).append(ms)
    print(f"\n{'ms':>9} {'share':>6}  {'kind':<26} requests")
    for kind, times in sorted(by_kind.items(), key=lambda kv: -sum(kv[1])):
        print(f"{sum(times):9.2f} {sum(times) / total:6.1%}  {kind:<26} {len(times)}")
    print(f"\n{'peak MB':>9}  raised by")
    for mb, text in peaks:
        print(f"{mb:9.1f}  {text}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: point it at /dev/null so
        # the flush at exit does not fail again, and stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
