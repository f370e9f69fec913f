"""The time and memory of `derive` as the index grows, one fresh process per row.

    python3 tools/derive_series.py [--src DIR]

Each row is the request ``derive 2 b b+2`` at the default bounds, for
b = 31, 49, 63 and 99: the normal closure of s in J(2, b, b+2) has index
b(b+2), that is 1,023, 2,499, 4,095 and 9,999.  Each row runs in its own
child process, through ``toricgroups.cli.main`` with its output discarded,
under an address-space limit (``RLIMIT_AS``, ``LIMIT_MB``) set in that
child alone.  The child imports the package from ``--src``, by default
``src/`` of this checkout, so the same script measures another tree, such
as a ``git archive`` of a parent commit.

For each row the script prints the index, the time of each phase, the whole
request and the child's peak RSS (``ru_maxrss``, in MB).  A phase is timed
by wrapping one call for the request: closure + RS is
``schreier.toric_closure_rs`` (writing the coset table of ncl(s) down and
validating it, the transversal and RS; nothing is enumerated), the check is
``schreier.check_toric_presentation``, and the order is ``classify``'s
``group_order``, which only a spherical gcd(b, c) != 1 row calls; a
spherical gcd(b, c) = 1 row reads its order off the closed form.  These
rows are hyperbolic, so ``derive`` takes no order and that column reads
"-".  Times are plain ``perf_counter`` differences, in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
B_VALUES = (31, 49, 63, 99)
LIMIT_MB = 1024

CHILD = r"""
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from toricgroups import classify, cli, schreier

PHASES = ((schreier, "toric_closure_rs", "closure+RS"), (schreier, "check_toric_presentation", "check"),
          (classify, "group_order", "order"))
spent = {}

def timed(fn, name):
    def call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0
    return call

for module, attr, name in PHASES:
    setattr(module, attr, timed(getattr(module, attr), name))
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["derive", *sys.argv[2:]])
spent["request"] = time.perf_counter() - t0
print(json.dumps({"code": code, "seconds": spent,
                  "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def limit_address_space() -> None:
    limit = LIMIT_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_row(src: str, b: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, src, "2", str(b), str(b + 2)],
                          capture_output=True, text=True, preexec_fn=limit_address_space)
    if proc.returncode != 0:
        raise SystemExit(f"derive 2 {b} {b + 2} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the toricgroups package")
    args = ap.parse_args(argv)

    print(f"{'row':<12} {'index':>6} {'closure+RS':>11} {'check':>7} {'order':>7} {'request':>8} {'peak MB':>8}")
    for b in B_VALUES:
        row = run_row(os.path.abspath(args.src), b)
        s = row["seconds"]
        order = f"{s['order']:7.3f}" if "order" in s else f"{'-':>7}"
        print(f"{f'2 {b} {b + 2}':<12} {b * (b + 2):>6,} {s['closure+RS']:11.3f} {s['check']:7.3f} {order} "
              f"{s['request']:8.3f} {row['peak_mb']:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
