"""Compare the command line output of two commits, request by request.

    python3 tools/cli_diff.py [--parent HEAD~1] [--change HEAD]

The requests are every ``cli`` request of ``perfbench/workloads.generate``
for the workloads grid, words and subgroups at seeds 1 and 2, and every
request of ``GOLDEN_REQUESTS`` and ``REFUSED_REQUESTS`` in
``tests/test_cli.py``, each taken from the ``--change`` tree and run once
with ``--format json`` and once with ``--format text``.  Each side is
exported with ``git archive`` into a fresh temporary directory (``TMPDIR``
chooses where), and all of its requests run
through ``toricgroups.cli.main`` in one subprocess, which records stdout,
stderr and the exit code (or the exception that escaped).  In the same
subprocess the ``--change`` side then runs its requests again in reverse
order, and each output is compared with its first run: an answer that
depended on which earlier request filled a once-per-process table would
differ there.  The
``rs-tietze`` requests of the same workloads and seeds (normal closure,
Reidemeister-Schreier and Tietze at the indices of the ``subgroups``
workload) run through the ``--change`` tree's ``perfbench/child.py``, once
with each side's export as its ``root``; each result's output (the index and
both presentations), exit code and escaped exception are compared.  Then
each tree runs its own copy of every ``demos/*.py`` that the ``--change``
tree has, as a script with that tree's ``src/`` on the path, so a demo the
change edits runs as the parent had it and as the change has it; a demo
missing from a tree reads ``missing`` as its exit code.  Exit code, stderr
and stdout are compared byte for byte.  The script prints how many outputs, pipeline
results and demos it compared and, for each one that differs, the request
or demo and its first differing line, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid", "words", "subgroups")
SEEDS = (1, 2)

# runs in each tree with src/ on the path: the argument lists and the number
# of passes on stdin, one record per request and pass on stdout; the second
# pass runs the requests in reverse order, and its records are put back in
# request order
RUNNER = """
import contextlib, io, json, sys
from toricgroups import cli

def record(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:
        code = f"raised {type(e).__name__}: {e}"
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}

job = json.load(sys.stdin)
passes = [[record(argv) for argv in job["argvs"]]]
if job["passes"] == 2:
    passes.append([record(argv) for argv in reversed(job["argvs"])][::-1])
sys.stdout.write(json.dumps(passes))
"""


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def requests(tree: str) -> tuple[list[list[str]], list[dict]]:
    """Every cli request without its format, and every rs-tietze request's
    input, in first-seen order and without repeats."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import workloads

    argvs, pipelines = [], {}
    for w in WORKLOADS:
        for seed in SEEDS:
            for req in workloads.generate(w, seed):
                if req["input"]["kind"] == "cli":
                    argv = req["input"]["argv"]
                    assert argv[:2] == ["--format", "json"], argv
                    argvs.append(argv[2:])
                else:
                    pipelines[tuple(req["input"]["abc"])] = req["input"]
    with open(os.path.join(tree, "tests", "test_cli.py")) as f:
        tables = {t.id: node.value for node in ast.parse(f.read()).body if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name)}
    argvs += ast.literal_eval(tables["GOLDEN_REQUESTS"]).values()
    argvs += [argv for argv, _ in ast.literal_eval(tables["REFUSED_REQUESTS"]).values()]
    return list({tuple(a): list(a) for a in argvs}.values()), list(pipelines.values())


def run_side(tree: str, argvs: list[list[str]], passes: int) -> list[list[dict]]:
    """The records of ``passes`` runs of the requests in one subprocess,
    the second in reverse order."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", RUNNER], cwd=tree, env=env,
                          input=json.dumps({"argvs": argvs, "passes": passes}),
                          capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"error: the requests in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_pipelines(child: str, tree: str, inputs: list[dict]) -> list[dict]:
    """The output and exit code of each rs-tietze request, run by ``child``
    (a ``perfbench/child.py``) on ``tree``; an escaped exception is its
    code, as in ``RUNNER``."""
    job = json.dumps({"root": tree, "requests": inputs, "trace": False})
    proc = subprocess.run([sys.executable, child], cwd=tree, input=job, capture_output=True, text=True,
                          timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"error: the rs-tietze requests on {tree} exited {proc.returncode}:\n{proc.stderr}")
    return [{"code": r["code"] if r["exc"] is None else f"raised {r['exc']}", "stderr": "", "stdout": r["out"]}
            for r in json.loads(proc.stdout)["results"]]


def run_demos(tree: str, demos: list[str]) -> list[dict]:
    """The stdout, stderr and exit code of ``tree``'s own copy of each demo,
    run as a script; ``missing`` for a demo that ``tree`` does not have."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    records = []
    for demo in demos:
        path = os.path.join(tree, "demos", demo)
        if not os.path.exists(path):
            records.append({"stdout": "", "stderr": "", "code": "missing"})
            continue
        proc = subprocess.run([sys.executable, path], cwd=tree, env=env, capture_output=True, text=True,
                              timeout=600)
        records.append({"stdout": proc.stdout, "stderr": proc.stderr, "code": proc.returncode})
    return records


def first_difference(a: dict, b: dict) -> str:
    for field in ("code", "stderr", "stdout"):
        if a[field] != b[field]:
            if field == "code":
                return f"exit code {a['code']!r} -> {b['code']!r}"
            la, lb = a[field].splitlines(), b[field].splitlines()
            k = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
            x = la[k] if k < len(la) else "<end>"
            y = lb[k] if k < len(lb) else "<end>"
            return f"{field} line {k + 1}: {x!r} -> {y!r}"
    return ""


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        trees = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            trees[side] = os.path.join(tmp, side)
            with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
                tar.extractall(trees[side])
        cli_argvs, pipelines = requests(trees["change"])
        argvs = [["--format", fmt, *a] for a in cli_argvs for fmt in ("json", "text")]
        parent_pass, = run_side(trees["parent"], argvs, 1)
        change_pass, change_reversed = run_side(trees["change"], argvs, 2)
        outputs = {"parent": parent_pass, "change": change_pass}
        child = os.path.join(trees["change"], "perfbench", "child.py")
        pipeline_outputs = {side: run_pipelines(child, tree, pipelines) for side, tree in trees.items()}
        demos = sorted(f for f in os.listdir(os.path.join(trees["change"], "demos")) if f.endswith(".py"))
        demo_outputs = {side: run_demos(tree, demos) for side, tree in trees.items()}

    differing = 0
    for a, before, after in zip(argvs, outputs["parent"], outputs["change"]):
        diff = first_difference(before, after)
        if diff:
            differing += 1
            print(f"differs: {' '.join(a)}\n  {diff}")
    print(f"compared {len(argvs)} outputs ({len(argvs) // 2} requests in json and text) "
          f"of {args.parent} and {args.change}: {differing} differ")
    reordered = 0
    for a, forward, backward in zip(argvs, change_pass, change_reversed):
        diff = first_difference(forward, backward)
        if diff:
            reordered += 1
            print(f"differs in reverse order: {' '.join(a)}\n  {diff}")
    print(f"compared the {len(argvs)} outputs of {args.change} run again in reverse order: {reordered} differ")
    pipelines_differing = 0
    for req, before, after in zip(pipelines, pipeline_outputs["parent"], pipeline_outputs["change"]):
        diff = first_difference(before, after)
        if diff:
            pipelines_differing += 1
            print(f"differs: rs-tietze {' '.join(map(str, req['abc']))}\n  {diff}")
    print(f"compared {len(pipelines)} rs-tietze results: {pipelines_differing} differ")
    demos_differing = 0
    for demo, before, after in zip(demos, demo_outputs["parent"], demo_outputs["change"]):
        diff = first_difference(before, after)
        if diff:
            demos_differing += 1
            print(f"differs: demos/{demo}\n  {diff}")
    print(f"compared the output of {len(demos)} demos: {demos_differing} differ")
    return 1 if differing or reordered or pipelines_differing or demos_differing else 0


if __name__ == "__main__":
    sys.exit(main())
