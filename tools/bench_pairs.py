"""Alternating benchmark pairs of two commits, recorded as a BENCH_<n>.json.

    python3 tools/bench_pairs.py --out BENCH_13.json --workload subgroups \
        --seed 1 --pairs 10 [--parent HEAD~1] [--change HEAD]

Each run exports its side with ``git archive`` into a fresh temporary
directory (``TMPDIR`` chooses where) and runs

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

there.  In even-numbered pairs the parent runs first, in odd-numbered pairs
the change.  Each run's metrics are the last line of its stdout.  The runs
are appended to ``--out``, which keeps the schema of the earlier BENCH
files (``what``, ``parent``, ``machine``, ``python``, ``command``,
``protocol``, ``pairs``, ``runs``), so several workloads and seeds collect
in one file.  At the end the script prints, for every metric, each side's
median and quartiles over all runs of that workload and seed in the file,
the number of pairs in which the change was better, and two verdicts read
against the metric's entry in the change's ``BENCHMARK.json``.  ``gain``
holds when the change was better in at least 9 of every 10 pairs and its
median is better than the parent's by more than the parent's
interquartile distance.  ``past bound`` holds when the change's median is
worse than the parent's by more than the metric's ``bound``, a share of
the parent's median (any rise from a median of 0).  It prints too, for
each side, the runs that were not correct and the share of failed
operations (failed over attempted, summed over the side's runs), and a
verdict, ``larger failed share``, that holds when the change's share is
larger than the parent's.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0"
PROTOCOL = ("alternating pairs: in even-numbered pairs the parent ran first, in odd-numbered pairs the change; "
            "each run in a clean copy of its tree; metrics are the last stdout line of each run")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}"


def run_once(archive: bytes, workload: str, seed: int) -> dict:
    """One benchmark run in a clean copy of the tree held in ``archive``."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                               "--seconds", "30", "--trace", "0"],
                              cwd=tree, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"error: run of {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"]}


def summarize(bench: dict, workload: str, seed: int, spec: dict[str, dict]) -> None:
    runs = [r for r in bench["runs"] if (r["workload"], r["seed"]) == (workload, seed)]
    sides = {side: {r["pair"]: r["metrics"] for r in runs if r["side"] == side} for side in ("parent", "change")}
    pairs = sorted(sides["parent"].keys() & sides["change"].keys())
    print(f"== {workload} seed {seed}: {len(pairs)} pairs; median [quartiles], parent -> change")
    shares = {}
    for side in ("parent", "change"):
        done = [r for r in runs if r["side"] == side]
        failed, attempted = sum(r["failed"] for r in done), sum(r["attempted"] for r in done)
        shares[side] = failed / attempted if attempted else 0.0
        print(f"  {side}: {sum(not r['correct'] for r in done)} of {len(done)} runs incorrect; "
              f"failed {failed} of {attempted} operations ({shares[side]:.4g})")
    print(f"  larger failed share: {'YES' if shares['change'] > shares['parent'] else 'no'}")
    for metric in sides["parent"][pairs[0]]:
        quartiles = {}
        for side in ("parent", "change"):
            values = [sides[side][p][metric] for p in pairs]
            quartiles[side] = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        cells = [f"{q2:.4g} [{q1:.4g}, {q3:.4g}]" for q1, q2, q3 in quartiles.values()]
        entry = spec.get(metric, {})
        sign = -1 if entry.get("better", "lower") == "lower" else 1  # sign * (change - parent) > 0: better
        won = sum(sign * (sides["change"][p][metric] - sides["parent"][p][metric]) > 0 for p in pairs)
        (p1, p2, p3), c2 = quartiles["parent"], quartiles["change"][1]
        gain = 10 * won >= 9 * len(pairs) and sign * (c2 - p2) > p3 - p1
        past = "bound" in entry and -sign * (c2 - p2) > entry["bound"] * abs(p2)
        verdicts = f"gain: {'yes' if gain else 'no'}; past bound {entry.get('bound', '-')}: {'YES' if past else 'no'}"
        print(f"  {metric:16s} {cells[0]:>30s} -> {cells[1]:30s} change better in {won}/{len(pairs)}; {verdicts}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to create or append to")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    args = ap.parse_args(argv)

    archives = {side: git("archive", "--format=tar", rev) for side, rev in
                (("parent", args.parent), ("change", args.change))}
    bench = {"what": git("log", "-1", "--format=%s", args.change).decode().strip(),
             "parent": git("rev-parse", "--short", args.parent).decode().strip(),
             "machine": machine(), "python": platform.python_version(), "command": COMMAND,
             "protocol": PROTOCOL, "pairs": {}, "runs": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            bench = json.load(f)
    key = f"{args.workload} seed {args.seed}"
    first = bench["pairs"].get(key, 0)
    for pair in range(first, first + args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(archives[side], args.workload, args.seed)
            bench["runs"].append({"workload": args.workload, "seed": args.seed, "pair": pair, "side": side, **run})
            print(f"pair {pair} {side}: " + ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items()), flush=True)
        bench["pairs"][key] = pair + 1
        with open(args.out, "w") as f:  # after every pair, so a cut batch keeps its finished pairs
            json.dump(bench, f, indent=1)
            f.write("\n")
    with tarfile.open(fileobj=io.BytesIO(archives["change"])) as tar:
        spec = json.load(tar.extractfile("BENCHMARK.json"))
    summarize(bench, args.workload, args.seed, {m["name"]: m for m in spec["end_to_end"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
