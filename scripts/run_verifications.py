#!/usr/bin/env python3
"""Run every exhaustive and sampled verification and print a summary table.

Usage: python scripts/run_verifications.py [--samples N] [--seed S]

Exits 1 when a verification fails or an exhaustive verifier examines
other case counts than the paper's, and 2 on a usage error (a negative
--samples among them).
"""

import argparse
import os
import sys
import time
from functools import partial

from atforest.cli import _integer
from atforest.gadgets import (
    verify_lemma1_all,
    verify_lemma2,
    verify_lemma6,
    verify_sampled,
    verify_theorem7_core,
)
from atforest.testkit import _M64


def say(line):
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early: the rest goes to devnull, and
        # the verdicts still decide the exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def timed(label, fn, expected=None):
    start = time.perf_counter()
    report = fn()
    elapsed = time.perf_counter() - start
    wrong = {k: v for k, v in (expected or {}).items() if report.stats.get(k) != v}
    ok = report.verdict and not wrong
    stats = ", ".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
    say(f"{label:<28} {'PASS' if ok else 'FAIL'}  {elapsed:7.2f}s  {stats}")
    if wrong:
        say(f"{'':<28} expected {', '.join(f'{k}={v}' for k, v in wrong.items())}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # a usage error (exit 2) before any verifier runs
    parser.add_argument("--samples", type=partial(_integer, least=0), default=1000)
    parser.add_argument("--seed", type=partial(_integer, least=0, most=_M64), default=1)
    args = parser.parse_args(argv)

    ok = True
    # the exhaustive verifiers with the paper's case counts
    for label, fn, expected in (
        ("bad-lists (64 selectors)", verify_lemma1_all, {"cases_examined": 64}),
        ("deletion robustness", verify_lemma2, {"cases_examined": 2437, "k4": 2392, "j_piece": 45}),
        ("star forests on A", verify_lemma6, {"cases_examined": 5433984}),
        ("center-covered D", verify_theorem7_core, {"cases_examined": 765}),
    ):
        ok &= timed(label, fn, expected)
    for target in ("theorem7", "theorem2", "corollary3"):
        ok &= timed(
            f"sampled {target} (n={args.samples})",
            lambda t=target: verify_sampled(t, args.samples, args.seed),
        )
    say(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
