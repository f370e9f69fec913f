"""The benchmark's own checks, on seeds that the benchmark does not run.

``perfbench/run.py`` runs seed 1 and judges each answer with
``perfbench/checks.py`` against ``perfbench/oracles.py``, which share no
code with the package.  Here every request of the ``grid`` and ``words``
workloads at seeds 3, 4 and 5 goes through ``toricgroups.cli.main``, and
any verdict but ``ok`` or ``unknown`` fails the test.  The checks call an
"unknown" answer wrong where they expect a decided one, so an "unknown"
verdict cannot hide a regression.  The requests run in one subprocess with
``src/`` and ``perfbench/`` first on its path: in this process,
perfbench's ``oracles`` would shadow ``tests/oracles.py``.  Nothing under
``perfbench/`` is written.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (3, 4, 5)
WORKLOADS = ("grid", "words")

RUNNER = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
sys.dont_write_bytecode = True  # perfbench/ gets no __pycache__
import checks, workloads
from toricgroups import cli

verdicts = []
for name in json.loads(sys.argv[3]):
    for seed in json.loads(sys.argv[4]):
        for req in workloads.generate(name, seed):
            argv = req["input"]["argv"]  # grid and words send only cli requests
            out, code, exc = io.StringIO(), None, None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
            except Exception as e:
                exc = type(e).__name__
            verdict, reason = checks.judge(req["expect"], {"code": code, "exc": exc, "out": out.getvalue()})
            verdicts.append([name, seed, " ".join(argv), verdict, reason])
print(json.dumps(verdicts))
"""


def test_benchmark_checks_pass_on_fresh_seeds():
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(ROOT / "src"), str(ROOT / "perfbench"), json.dumps(WORKLOADS),
         json.dumps(SEEDS)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    verdicts = json.loads(proc.stdout)
    assert {(name, seed) for name, seed, *_ in verdicts} == {(w, s) for w in WORKLOADS for s in SEEDS}
    assert [v for v in verdicts if v[3] not in ("ok", "unknown")] == []
