"""Show that the correctness gate counts failures and that they do not stop a pass.

    python3 perfbench/selftest.py

Runs one pass through the same child process and checks as ``run.py``,
over five requests: two correct ones, one with a deliberately wrong
expected answer, one whose exception escapes the CLI (``derive 2 3 5
--budget 1``), and one that argparse rejects with exit code 2.  Exits 0
when exactly those three count as failed, the wrong expectation also
counts as wrong, and the request after them is still answered.
"""

from __future__ import annotations

import sys

import run
from workloads import cli_request


def main() -> int:
    requests = [
        cli_request(["classify", 2, 3, 4], {"check": "classify", "kmn": [2, 3, 4]}, "self-test"),
        # the engine answers order 3600; this expectation is wrong on purpose
        cli_request(["enumerate", "j-parent", 2, 3, 5], {"check": "enumerate", "key": "order", "value": 3601}, "self-test"),
        cli_request(["--budget", 1, "derive", 2, 3, 5], {"check": "derive", "abc": [2, 3, 5]}, "self-test"),
        cli_request(["classify", 2, 3], {"check": "classify", "kmn": [2, 3, 0]}, "self-test"),
        cli_request(["classify", 3, 2, 3], {"check": "classify", "kmn": [3, 2, 3]}, "self-test"),
    ]
    report = run.run_pass(requests, trace=False)
    verdicts = run.judge_pass(requests, report)
    for req, (verdict, why) in zip(requests, verdicts):
        print(f"{verdict:7s} {' '.join(req['input']['argv'][2:])}  {why}")
    got = [v for v, _ in verdicts]
    want = ["ok", "wrong", "fail", "fail", "ok"]
    if got != want:
        print(f"self-test FAILED: verdicts {got}, expected {want}", file=sys.stderr)
        return 1
    print("self-test passed: 3 of 5 requests counted as failed (1 wrong), and the pass ran to the end")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
