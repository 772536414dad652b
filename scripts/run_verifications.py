#!/usr/bin/env python3
"""Run every exhaustive and sampled verification and print a summary table.

Usage: python scripts/run_verifications.py [--samples N] [--seed S]
"""

import argparse
import sys
import time

from atforest.gadgets import (
    verify_lemma1_all,
    verify_lemma2,
    verify_lemma6,
    verify_sampled,
    verify_theorem7_core,
)


def timed(label, fn):
    start = time.perf_counter()
    report = fn()
    elapsed = time.perf_counter() - start
    tag = "PASS" if report.verdict else "FAIL"
    stats = ", ".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
    print(f"{label:<28} {tag}  {elapsed:7.2f}s  {stats}")
    return report.verdict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    ok = True
    ok &= timed("bad-lists (64 selectors)", verify_lemma1_all)
    ok &= timed("deletion robustness", verify_lemma2)
    ok &= timed("star forests on A", verify_lemma6)
    ok &= timed("center-covered D", verify_theorem7_core)
    for target in ("theorem7", "theorem2", "corollary3"):
        ok &= timed(
            f"sampled {target} (n={args.samples})",
            lambda t=target: verify_sampled(t, args.samples, args.seed),
        )
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
